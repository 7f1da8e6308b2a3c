"""Fused emulate+time simulation with O(machine-state) memory.

The materialised path (``run_program`` + :func:`repro.pipeline.core.simulate`)
builds the entire dynamic trace as a Python list before the timing model
sees op #0 — fine for tools that need the full trace (verify monitors,
``repro trace``), wasteful for sweeps.  :func:`simulate_streaming` runs
the functional emulator and a timing model in lock step instead: the
emulator's :meth:`~repro.emu.interpreter.Interpreter.iter_trace`
generator hands each finalized :class:`~repro.pipeline.trace.TraceOp`
straight to the model's consumer coroutine, so retained state is bounded
by machine capacities (ROB ring, 64-entry store window, in-flight LSU
entries) regardless of trace length.

Cache warming, which the materialised path performs by pre-playing the
recorded trace's accesses, becomes a *warm pre-pass*: the same program is
first emulated against a clone of the memory image with a tracer that
only feeds the cache hierarchy, the cache stats are reset, and the fused
pass then runs against the real memory.  Both passes start from identical
architectural state, so the access stream — and therefore every timing
decision — is bit-identical to the list path.

When a fault-injection plan is armed (:mod:`repro.verify.faults`), a
fused warm run would perturb the plan's poll counters (the warm pre-pass
emulates the program a second time), so this module transparently falls
back to the materialised path — verification campaigns measure the same
machine either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.common.config import TABLE_I, MachineConfig
from repro.pipeline.core import PipelineModel
from repro.pipeline.inorder import InOrderModel
from repro.pipeline.stats import PipelineStats
from repro.observe import events as _obs
from repro.pipeline.trace import Tracer
from repro.verify import faults as _faults

if TYPE_CHECKING:  # the emulator imports the decode table from this package
    from repro.emu.metrics import EmuMetrics
    from repro.emu.state import ArchState
    from repro.isa.program import Program
    from repro.memory.image import MemoryImage


class _CacheWarmTracer(Tracer):
    """Feeds every op's accesses to a cache hierarchy, keeps nothing.

    ``record`` is overridden wholesale: the warm pre-pass needs only the
    access stream, so no :class:`TraceOp` objects are built and every
    post-record annotation hook degrades to a no-op via ``_last_op``.
    """

    def __init__(self, caches) -> None:
        super().__init__()
        self._caches = caches

    def record(self, pc, inst, decode, mem, branch_taken, region_event=None):
        access = self._caches.access
        for a in mem:
            access(a.addr, a.size, a.is_store)
        return None

    def _last_op(self):
        return None


#: Which path the most recent :func:`simulate_streaming` call actually
#: took: ``"stream"`` or ``"materialised"``.  Diagnostic only (tests and
#: the observability layer assert the fault-armed auto-fallback fired);
#: results are bit-identical either way.
LAST_PATH: str | None = None


def _simulate_materialised(
    program: Program,
    memory: MemoryImage,
    config: MachineConfig,
    core: str,
    validate_lsu: bool,
    warm: bool,
    max_steps: int,
) -> tuple[EmuMetrics, PipelineStats, ArchState]:
    from repro.emu.interpreter import run_program

    tracer = Tracer()
    metrics, state = run_program(
        program, memory, config=config, max_steps=max_steps, tracer=tracer,
    )
    if core == "inorder":
        model = InOrderModel(config)
    else:
        model = PipelineModel(config, validate_lsu)
    stats = model.run(tracer.ops, warm=warm)
    return metrics, stats, state


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
    """Emulate ``program`` and time it in one streaming pass.

    Returns ``(emu_metrics, pipeline_stats, arch_state)`` — bit-identical
    to running ``run_program`` with a :class:`Tracer` followed by
    ``simulate``/``simulate_in_order`` with the same arguments.  ``memory``
    is mutated by the (single) architectural execution exactly as in the
    materialised path.
    """
    from repro.emu.interpreter import Interpreter

    global LAST_PATH
    if core not in ("ooo", "inorder"):
        raise ValueError(f"unknown core model {core!r}")
    if _faults.ACTIVE is not None:
        # A fused warm run would advance the armed plan's poll counters
        # twice (warm pre-pass + real pass) and fire faults at the wrong
        # step; keep fault campaigns on the single-emulation path.
        LAST_PATH = "materialised"
        return _simulate_materialised(
            program, memory, config, core, validate_lsu, warm, max_steps,
        )
    LAST_PATH = "stream"

    if core == "inorder":
        model = InOrderModel(config)
    else:
        model = PipelineModel(config, validate_lsu)

    if warm:
        # Warm pre-pass: identical execution on a clone of the image so the
        # real architectural run below starts from pristine memory.  The
        # observe bus is parked for its duration — the pre-pass emulates
        # the program a second time, and double-emitting emulator events
        # would break stream/list event-sequence equality.
        warm_interp = Interpreter(
            program,
            memory.clone(),
            config,
            max_steps,
            _CacheWarmTracer(model.caches),
        )
        saved_bus = _obs.ACTIVE
        _obs.ACTIVE = None
        try:
            warm_interp.run()
        finally:
            _obs.ACTIVE = saved_bus
        model.caches.reset_stats()

    pump = model.stream()
    send = pump.send
    interp = Interpreter(program, memory, config, max_steps)
    try:
        for op in interp.iter_trace():
            send(op)
        send(None)
    except StopIteration:
        pass
    return interp.metrics, model.stats, interp.state


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
    segment: Sequence,
    config: MachineConfig = TABLE_I,
    *,
    core: str = "ooo",
    warm_ops: Sequence = (),
    caches=None,
) -> SegmentTiming:
    """Time ``segment`` on a fresh model resumed from a warm-up window.

    The timing models keep all machine state (ROB ring, store window,
    LSU occupancy, branch/store-set predictors) in coroutine locals, so
    there is no snapshot to restore directly.  Instead the warm state is
    *reconstructed*: ``warm_ops`` — the trace ops immediately preceding
    the segment — are replayed through a fresh pump, the commit-cycle
    checkpoint (``model.last_commit``) is read once the last warm op has
    retired, and the segment's cost is the cycle delta from that
    checkpoint to end-of-stream.  Both ``warm_ops`` and ``segment`` must
    start at region-safe cut points (never inside an SRV region): the
    LSU's ``begin_region``/``end_region`` pairing, and therefore every
    conflict-detection decision, is only coherent across whole regions.

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
    if core == "inorder":
        model = InOrderModel(config)
    else:
        model = PipelineModel(config)
    if caches is not None:
        model.caches = caches
        caches.reset_stats()
    else:
        model.warm_caches(list(warm_ops) + list(segment))

    pump = model.stream()
    send = pump.send
    warm_cycles = 0
    warm_region = 0
    try:
        for op in warm_ops:
            send(op)
        # One op of lookahead lives inside the pump: after sending the
        # first segment op, the pump has retired exactly the warm ops,
        # so last_commit is the checkpoint splitting warm from measured.
        send(segment[0])
        warm_cycles = model.last_commit
        warm_region = model.stats.region_cycles
        for op in segment[1:]:
            send(op)
        send(None)
    except StopIteration:
        pass
    total = model.stats.cycles
    return SegmentTiming(
        cycles=max(total - warm_cycles, 1),
        ops=len(segment),
        warm_cycles=warm_cycles,
        warm_ops=len(warm_ops),
        region_cycles=max(model.stats.region_cycles - warm_region, 0),
        stats=model.stats,
    )
