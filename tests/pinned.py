"""Digests pinned from deleted code paths.

Until the trace log became the only trace form, every timed run could
also be made by recording a ``Tracer`` list and timing it, and the tests
held the two paths equal.  ``pinned_traces.json`` keeps what the list
side produced on the same cases, so the log path is still checked
against it:

* ``suite``: cycles and digests of ``EmuMetrics``, ``PipelineStats`` and
  the final arrays of the 28 suite loops (n <= 48) under SRV and SVE on
  both cores;
* ``trace``/``collected``: length and digest of every recorded op's
  fields (see :func:`op_key`), and ``verdicts`` the monitor verdicts;
* ``fault_plans``, ``campaign``: fault-plan outcomes and the injection
  campaign's detections;
* ``observe``: cycles, event sequence and attribution of observed runs;
* ``fingerprints``, ``sample_inorder``: sampler vectors and one
  ``SampleReport.to_obj()``.

``lane_engine`` holds what the interpreter's numpy handlers and its
per-lane scalar handlers agreed on before the numpy engine was deleted
(see ``tests/test_lane_engine.py``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINS = json.loads((Path(__file__).parent / "pinned_traces.json").read_text())


def digest(obj) -> str:
    """Short digest of a value-based repr."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def op_key(op) -> tuple:
    """Every field of one op view, in a stable plain form."""
    return (
        op.index, op.pc, op.op_class.value, op.src_regs, op.dst_regs,
        op.branch_taken, op.in_region, op.region_pass, op.active_lane_count,
        None if op.region_event is None else op.region_event.value,
        tuple(sorted(op.replay_lanes)), op.direction.value, op.in_fallback,
        tuple((a.addr, a.size, bool(a.is_store), a.lane) for a in op.mem),
    )


def trace_pin(log) -> list:
    """``[length, digest]`` of a trace log, as pinned under ``trace``."""
    return [len(log), digest([op_key(log.op(i)) for i in range(len(log))])]
