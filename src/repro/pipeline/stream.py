"""Emulate once, then time: the timed path of every sweep cell.

:func:`simulate_streaming` runs the functional emulator a single time,
recording the dynamic trace into a compact columnar
:class:`~repro.pipeline.trace.TraceLog` (tens of bytes per op).  A warm
run then plays the log's access columns into the model's cache hierarchy
and resets the cache stats.  Finally the timing model reads each op's
fields straight from the log's columns, one op index per ``send``.

The order of work is emulate, warm, time, so everything with a side
effect sees the same sequence: the observe bus receives emulator events
before timing events, and an armed :mod:`repro.verify.faults` plan polls
its emulator hooks and then its LSU hook, each once per dynamic site.
Retained memory is the log, O(trace length) in compact columns, plus the
timing model's machine-capacity windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.config import TABLE_I, MachineConfig
from repro.pipeline.core import PipelineModel
from repro.pipeline.inorder import InOrderModel
from repro.pipeline.stats import PipelineStats
from repro.pipeline.trace import TraceLog

if TYPE_CHECKING:  # the emulator imports the decode table from this package
    from repro.emu.metrics import EmuMetrics
    from repro.emu.state import ArchState
    from repro.isa.program import Program
    from repro.memory.image import MemoryImage


# Kept only for perfbench/tracing.py, which tests interpreters against it
# by name; isinstance(x, ()) is always False.
_CacheWarmTracer = ()


def simulate_streaming(
    program: Program,
    memory: MemoryImage,
    config: MachineConfig = TABLE_I,
    *,
    core: str = "ooo",
    validate_lsu: bool = False,
    warm: bool = False,
    max_steps: int = 50_000_000,
) -> tuple[EmuMetrics, PipelineStats, ArchState]:
    """Emulate ``program`` once and time it.

    Returns ``(emu_metrics, pipeline_stats, arch_state)`` — the same as
    running ``run_program`` into a :class:`TraceLog` followed by
    ``simulate``/``simulate_in_order`` over it with the same arguments.
    ``memory`` is mutated by the (single) architectural execution.
    """
    from repro.emu.interpreter import Interpreter

    if core not in ("ooo", "inorder"):
        raise ValueError(f"unknown core model {core!r}")
    if core == "inorder":
        model = InOrderModel(config)
    else:
        model = PipelineModel(config, validate_lsu)

    interp = Interpreter(program, memory, config, max_steps)
    interp.tracer = log = TraceLog(program, interp.decode)
    interp.run()
    stats = model.run(log, warm=warm)
    return interp.metrics, stats, interp.state


# ---------------------------------------------------------------------------
# segment timing (resume-from-warm-state, used by repro.sample)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SegmentTiming:
    """Cycle cost of one trace segment timed after a warm-up window."""

    cycles: int       #: cycles attributed to the measured segment
    ops: int          #: measured segment length (trace ops)
    warm_cycles: int  #: cycles consumed replaying the warm-up window
    warm_ops: int     #: warm-up window length (trace ops)
    region_cycles: int    #: SRV-region cycles within the measured segment
    stats: PipelineStats  #: full model stats at end-of-segment


def time_segment(
    log: TraceLog,
    segment: range,
    config: MachineConfig = TABLE_I,
    *,
    core: str = "ooo",
    warm: range = range(0),
    caches=None,
) -> SegmentTiming:
    """Time the ops ``segment`` of ``log`` on a fresh model resumed from
    the warm-up window ``warm``.

    Both are op-index ranges of the log, and ``warm`` ends where
    ``segment`` begins (or is empty).  The timing models keep all machine
    state (ROB ring, store window, LSU occupancy, branch/store-set
    predictors) in coroutine locals, so there is no snapshot to restore
    directly.  Instead the warm state is *reconstructed*: the warm-up
    ops are replayed through a fresh pump, the commit-cycle checkpoint
    (``model.last_commit``) is read once the last warm op has retired,
    and the segment's cost is the cycle delta from that checkpoint to
    end-of-stream.  Both ranges must start at region-safe cut points
    (never inside an SRV region): the LSU's ``begin_region``/
    ``end_region`` pairing, and therefore every conflict-detection
    decision, is only coherent across whole regions.

    ``caches`` optionally supplies a pre-warmed cache hierarchy (the
    sampler clones an ambient hierarchy that tracked the full access
    stream up to the segment); its stats are reset before timing.  When
    omitted, every line touched by the warm-up window and segment is
    pre-installed, matching the steady-state warming of exact runs on
    cache-resident working sets.
    """
    if core not in ("ooo", "inorder"):
        raise ValueError(f"unknown core model {core!r}")
    if not segment:
        raise ValueError("cannot time an empty segment")
    if warm and warm.stop != segment.start:
        raise ValueError("the warm-up window must end where the segment "
                         "begins")
    if core == "inorder":
        model = InOrderModel(config)
    else:
        model = PipelineModel(config)
    if caches is not None:
        model.caches = caches
        caches.reset_stats()
    else:
        model.warm(log, warm.start if warm else segment.start, segment.stop)

    model.log = log
    pump = model.stream()
    send = pump.send
    warm_cycles = 0
    warm_region = 0
    try:
        for index in warm:
            send(index)
        # One op of lookahead lives inside the pump: after sending the
        # first segment op, the pump has retired exactly the warm ops,
        # so last_commit is the checkpoint splitting warm from measured.
        send(segment.start)
        warm_cycles = model.last_commit
        warm_region = model.stats.region_cycles
        for index in segment[1:]:
            send(index)
        send(None)
    except StopIteration:
        pass
    total = model.stats.cycles
    return SegmentTiming(
        cycles=max(total - warm_cycles, 1),
        ops=len(segment),
        warm_cycles=warm_cycles,
        warm_ops=len(warm),
        region_cycles=max(model.stats.region_cycles - warm_region, 0),
        stats=model.stats,
    )
