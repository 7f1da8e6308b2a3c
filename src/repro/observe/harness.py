"""Observation harness: run one loop with the event bus armed.

``repro trace`` and ``repro attrib`` need a run that (a) always executes
fresh — events are side effects, so the memoised
:func:`repro.experiments.runner.run_loop` path must not be consulted —
and (b) pairs the event stream with the exact :class:`PipelineStats` it
was recorded against.  :func:`observe_loop` is that run: compile, arm
the bus, emulate once into a compact trace log and time it (either
core), finalize the events into canonical order, and attribute the
cycles.

Like the hardened runner, an :class:`LsuOverflowError` from the timing
model degrades to the section III-D7 sequential fallback instead of
failing: the overflowing attempt's events are discarded and the run is
repeated on a fresh sink with ``srv_force_sequential`` — the fallback
entry then shows up in the trace as ``SEQ_FALLBACK`` events and a
``fallback`` cycle bucket.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import TABLE_I, MachineConfig
from repro.common.errors import LsuOverflowError
from repro.compiler import Strategy, compile_loop
from repro.emu.metrics import EmuMetrics
from repro.memory import MemoryImage
from repro.observe import events as _ev
from repro.observe.attrib import RunAttribution, attribute_run
from repro.pipeline import PipelineStats, simulate_streaming
from repro.workloads.base import LoopSpec


@dataclass
class ObservedRun:
    """One observed execution: metrics, stats, events, attribution."""

    spec: LoopSpec
    strategy: Strategy
    core: str
    emu: EmuMetrics
    pipe: PipelineStats
    events: tuple[_ev.Event, ...]
    attribution: RunAttribution
    degraded: bool = False

    @property
    def cycles(self) -> int:
        return self.pipe.cycles


def _observed_execute(
    spec: LoopSpec,
    strategy: Strategy,
    seed: int,
    config: MachineConfig,
    n: int,
    core: str,
    sink,
) -> tuple[EmuMetrics, PipelineStats]:
    arrays = spec.arrays(seed)
    mem = MemoryImage()
    for name, init in arrays.items():
        mem.alloc(name, len(init), spec.loop.arrays[name], init=init)
    program = compile_loop(spec.loop, mem, n, strategy, params=spec.params)

    with _ev.capture(sink):
        emu, pipe, _ = simulate_streaming(
            program, mem, config, core=core, warm=True
        )
    return emu, pipe


def observe_loop(
    spec: LoopSpec,
    strategy: Strategy,
    *,
    seed: int = 0,
    config: MachineConfig = TABLE_I,
    core: str = "ooo",
    n_override: int | None = None,
    sink_factory=_ev.ListSink,
) -> ObservedRun:
    """Execute one loop with the event bus armed; always a fresh run.

    ``sink_factory`` builds the sink (called again if the run degrades);
    pass ``lambda: RingBufferSink(cap)`` to bound retention.
    """
    if core not in ("ooo", "inorder"):
        raise ValueError(f"unknown core model {core!r}")
    n = spec.n if n_override is None else min(n_override, spec.n)

    degraded = False
    sink = sink_factory()
    try:
        emu, pipe = _observed_execute(
            spec, strategy, seed, config, n, core, sink
        )
    except LsuOverflowError:
        degraded = True
        sink = sink_factory()  # drop the partial event stream
        seq_config = config.with_overrides(srv_force_sequential=True)
        emu, pipe = _observed_execute(
            spec, strategy, seed, seq_config, n, core, sink
        )

    events = sink.finalized()
    return ObservedRun(
        spec=spec,
        strategy=strategy,
        core=core,
        emu=emu,
        pipe=pipe,
        events=events,
        attribution=attribute_run(events, pipe.cycles),
        degraded=degraded,
    )
