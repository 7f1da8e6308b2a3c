"""Cycle-approximate out-of-order pipeline model (Table I).

Trace-driven: the functional emulator produces the dynamic instruction
stream (with per-lane memory accesses and SRV-region structure), and
:func:`simulate` computes cycle timings under Table I's structural
constraints.  :func:`simulate_streaming` emulates once into a compact
columnar :class:`TraceLog`, warms the caches from its access columns and
times the ops rebuilt from it; per-static-instruction decode facts live
in :class:`DecodeTable`.
"""

from repro.pipeline.branch_pred import BranchStats, ReturnAddressStack, TournamentPredictor
from repro.pipeline.core import PipelineModel, simulate
from repro.pipeline.decode import DecodeRecord, DecodeTable
from repro.pipeline.resources import PortPool
from repro.pipeline.stats import PipelineStats
from repro.pipeline.store_sets import StoreSetPredictor, StoreSetStats
from repro.pipeline.stream import simulate_streaming
from repro.pipeline.trace import (
    LogTracer,
    MemAccess,
    OpClass,
    RegionEvent,
    StreamingTracer,
    TraceLog,
    TraceOp,
    Tracer,
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
    "LogTracer",
    "MemAccess",
    "OpClass",
    "RegionEvent",
    "StreamingTracer",
    "TraceLog",
    "TraceOp",
    "Tracer",
]
