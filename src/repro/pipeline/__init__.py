"""Cycle-approximate out-of-order pipeline model (Table I).

Trace-driven: the functional emulator records the dynamic instruction
stream (with per-lane memory accesses and SRV-region structure) into a
compact columnar :class:`TraceLog`, and :func:`simulate` computes cycle
timings over it under Table I's structural constraints, reading each op
in place.  :func:`simulate_streaming` emulates once, warms the caches
from the log's access columns and times it; per-static-instruction
decode facts live in :class:`DecodeTable`.
"""

from repro.pipeline.branch_pred import BranchStats, ReturnAddressStack, TournamentPredictor
from repro.pipeline.core import PipelineModel, simulate
from repro.pipeline.decode import DecodeRecord, DecodeTable
from repro.pipeline.resources import PortPool
from repro.pipeline.stats import PipelineStats
from repro.pipeline.store_sets import StoreSetPredictor, StoreSetStats
from repro.pipeline.stream import simulate_streaming
from repro.pipeline.trace import (
    MemAccess,
    OpClass,
    RegionEvent,
    TraceLog,
    TraceOp,
)

__all__ = [
    "BranchStats",
    "ReturnAddressStack",
    "TournamentPredictor",
    "PipelineModel",
    "simulate",
    "simulate_streaming",
    "DecodeRecord",
    "DecodeTable",
    "PortPool",
    "PipelineStats",
    "StoreSetPredictor",
    "StoreSetStats",
    "MemAccess",
    "OpClass",
    "RegionEvent",
    "TraceLog",
    "TraceOp",
]
