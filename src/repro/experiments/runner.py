"""Shared experiment driver, hardened for long sweeps.

Compiles a workload loop under a strategy, executes it on the functional
emulator (collecting dynamic-instruction and SRV metrics plus a trace),
optionally times it on the cycle-approximate pipeline, and always checks
the architectural result against the pure-Python IR oracle.

Results are memoised per ``(loop, strategy, seed, config)`` because the
figure harnesses share runs (e.g. the scalar baseline feeds figures 6, 7,
11 and 12).  Memoisation lives in :mod:`repro.parallel.cache`: an
in-process LRU keyed on the *value* of the frozen
:class:`~repro.common.config.MachineConfig` (never its ``id``, which can
alias after garbage collection), backed by an optional content-addressed
on-disk store (:func:`enable_disk_cache`) shared with the parallel sweep
engine — shard workers warm it, and a disk entry only matches while no
source of the ``repro`` package has changed, this runner included (the
key embeds a code-version hash).

Hardening features:

* **resume through the result cache** — with the disk layer enabled,
  every finished run is written as its own atomic entry, so a killed
  sweep re-run against the same cache directory re-executes only the
  runs that never finished (and only under the same code version);
* **graceful LSU-overflow degradation** — if the cycle model raises
  :class:`~repro.common.errors.LsuOverflowError`, the run is re-executed
  with the section III-D7 sequential fallback forced and the degradation
  is recorded on the result instead of aborting the sweep;
* **per-run timeouts** — :func:`run_loop_hardened` bounds each run's
  wall clock (SIGALRM, main thread only); the sweep engine records a
  failed or timed-out cell as a structured :class:`RunFailure` under
  the cell's own seed.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass

from repro.common.config import TABLE_I, MachineConfig
from repro.common.errors import (
    CellFailedError,
    LsuOverflowError,
    OracleMismatchError,
    RunTimeoutError,
)
from repro.compiler import Strategy, compile_loop, scalar_reference
from repro.emu import EmuMetrics, run_program
from repro.memory import MemoryImage
from repro.parallel.cache import result_cache
from repro.pipeline import PipelineStats, simulate_streaming
from repro.workloads.base import LoopSpec

#: Recorded by ``perfbench/worker.py``; timed runs always stream.
_DEFAULT_TRACE_MODE = "stream"
#: Recorded by ``perfbench/worker.py``; sweeps resume from the result cache.
_CHECKPOINT_PATH: str | None = None


@dataclass(frozen=True)
class RunFailure:
    """Structured record of one failure encountered while producing a run."""

    loop: str
    strategy: str
    seed: int
    stage: str            # "timing" | "shard" | "experiment"
    error: str            # exception type name
    message: str
    degraded: bool = False   # the run was completed in a degraded mode

    def __str__(self) -> str:
        mode = " [degraded]" if self.degraded else ""
        return (
            f"{self.loop}/{self.strategy} seed={self.seed} "
            f"{self.stage}: {self.error}: "
            f"{self.message}{mode}"
        )


@dataclass
class LoopRun:
    spec: LoopSpec
    strategy: Strategy
    emu: EmuMetrics
    pipe: PipelineStats | None
    correct: bool
    #: name of the first array diverging from the oracle (None if correct)
    bad_array: str | None = None
    #: failures survived while producing this result (degradations)
    failures: tuple[RunFailure, ...] = ()

    @property
    def cycles(self) -> int:
        if self.pipe is None:
            raise ValueError("run was executed without timing")
        return self.pipe.cycles


# ---------------------------------------------------------------------------
# memoisation
# ---------------------------------------------------------------------------


def clear_cache() -> None:
    """Drop the in-process memo (the disk layer, if enabled, persists)."""
    result_cache().clear_memory()


def _cache_key(
    spec: LoopSpec,
    strategy: Strategy,
    seed: int,
    config: MachineConfig,
    timing: bool,
    n: int,
    core: str,
) -> tuple:
    # key on the frozen config *value*: ``id(config)`` can alias two
    # different configs once the first is garbage collected
    return (spec.loop.name, strategy, seed, config, timing, n, core)


def cache_key_for(
    spec: LoopSpec,
    strategy: Strategy,
    seed: int = 0,
    config: MachineConfig = TABLE_I,
    timing: bool = True,
    n_override: int | None = None,
    core: str = "ooo",
) -> tuple:
    """The memo key :func:`run_loop` would use for these args.

    Exposed for the sweep engine, which needs to test cache membership
    for planned cells without executing them.
    """
    n = spec.n if n_override is None else min(n_override, spec.n)
    return _cache_key(spec, strategy, seed, config, timing, n, core)


def run_payload(run: LoopRun) -> dict:
    """Spec-free persistable payload of a run.

    ``LoopSpec`` carries callables (input generators), so the disk cache
    persists this payload; the spec is re-attached on lookup from the
    caller's own reference.
    """
    return {
        "emu": run.emu,
        "pipe": run.pipe,
        "correct": run.correct,
        "bad_array": run.bad_array,
        "failures": run.failures,
    }


def payload_run(payload: dict, spec: LoopSpec, strategy: Strategy) -> LoopRun:
    """Reconstruct a :class:`LoopRun` from a persisted payload."""
    return LoopRun(
        spec=spec,
        strategy=strategy,
        emu=payload["emu"],
        pipe=payload["pipe"],
        correct=payload["correct"],
        bad_array=payload.get("bad_array"),
        failures=tuple(payload.get("failures", ())),
    )


def enable_disk_cache(path: str) -> None:
    """Back the run memo with the content-addressed store at ``path``."""
    result_cache().enable_disk(path)


def disable_disk_cache() -> None:
    result_cache().disable_disk()


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _execute(
    spec: LoopSpec,
    strategy: Strategy,
    seed: int,
    config: MachineConfig,
    timing: bool,
    validate_lsu: bool,
    check_oracle: bool,
    n: int,
    core: str,
) -> tuple[EmuMetrics, PipelineStats | None, bool, str | None]:
    """One full compile/emulate/time/verify pass on fresh memory."""
    arrays = spec.arrays(seed)
    mem = MemoryImage()
    for name, init in arrays.items():
        mem.alloc(name, len(init), spec.loop.arrays[name], init=init)
    program = compile_loop(spec.loop, mem, n, strategy, params=spec.params)

    pipe: PipelineStats | None = None
    if timing:
        # one emulation into a compact trace log, then timing; a timing
        # exception (LSU overflow) surfaces before the oracle check
        emu_metrics, pipe, _ = simulate_streaming(
            program, mem, config,
            core=core, validate_lsu=validate_lsu, warm=True,
        )
    else:
        emu_metrics, _ = run_program(program, mem, config=config, tracer=None)

    correct = True
    bad_array: str | None = None
    if check_oracle:
        reference = scalar_reference(spec.loop, arrays, n, params=spec.params)
        for name in arrays:
            got = mem.load_array(mem.allocation(name))
            if got != reference[name]:
                correct = False
                bad_array = name
                break

    return emu_metrics, pipe, correct, bad_array


def run_loop(
    spec: LoopSpec,
    strategy: Strategy,
    seed: int = 0,
    config: MachineConfig = TABLE_I,
    timing: bool = True,
    validate_lsu: bool = True,
    check_oracle: bool = True,
    n_override: int | None = None,
    core: str = "ooo",
    degrade_lsu_overflow: bool = True,
    use_cache: bool = True,
) -> LoopRun:
    """Compile, execute, time and verify one loop under one strategy.

    ``core`` selects the timing model: ``"ooo"`` (Table I out-of-order)
    or ``"inorder"`` (the section III-D6 dual-issue in-order variant).

    A timed run emulates once into a compact trace log and times the
    ops rebuilt from it (:func:`~repro.pipeline.simulate_streaming`);
    an untimed run only emulates.

    With ``degrade_lsu_overflow`` (the default), an
    :class:`LsuOverflowError` from the cycle model re-runs the loop with
    the sequential fallback forced for every region and records the
    degradation in ``LoopRun.failures`` instead of aborting the sweep.

    With ``use_cache`` (the default) the run is looked up in and stored
    to the result cache; with its disk layer enabled, that entry is what
    lets a killed sweep resume.  A run the running sweep already saw
    fail (:meth:`~repro.parallel.cache.ResultCache.record_failure`)
    raises :class:`CellFailedError` with that failure instead of running
    again.  ``use_cache=False`` bypasses lookup *and* storage —
    required whenever the execution is deliberately perturbed (an armed
    :mod:`repro.verify.faults` plan), since a corrupted result must
    never be published under the clean run's content address.
    """
    if core not in ("ooo", "inorder"):
        raise ValueError(f"unknown core model {core!r}")
    n = spec.n if n_override is None else min(n_override, spec.n)
    key = _cache_key(spec, strategy, seed, config, timing, n, core)
    cache = result_cache()
    if use_cache:
        payload = cache.get(key)
        if payload is not None:
            return payload_run(payload, spec, strategy)
        failure = cache.failure(key)
        if failure is not None:
            # failed earlier in the running sweep: report, do not re-run
            raise CellFailedError(failure)

    failures: tuple[RunFailure, ...] = ()
    try:
        emu_metrics, pipe, correct, bad_array = _execute(
            spec, strategy, seed, config, timing, validate_lsu,
            check_oracle, n, core,
        )
    except LsuOverflowError as exc:
        if not degrade_lsu_overflow:
            raise
        failures = (RunFailure(
            loop=spec.name, strategy=strategy.value, seed=seed,
            stage="timing", error=type(exc).__name__, message=str(exc),
            degraded=True,
        ),)
        seq_config = config.with_overrides(srv_force_sequential=True)
        emu_metrics, pipe, correct, bad_array = _execute(
            spec, strategy, seed, seq_config, timing, validate_lsu,
            check_oracle, n, core,
        )

    run = LoopRun(
        spec, strategy, emu_metrics, pipe, correct,
        bad_array=bad_array, failures=failures,
    )
    if use_cache:
        cache.put(key, run_payload(run))
    return run


# ---------------------------------------------------------------------------
# hardened wrapper: timeouts
# ---------------------------------------------------------------------------


def _alarm_usable() -> bool:
    """Can the SIGALRM deadline arm here?

    ``SIGALRM`` does not exist on every platform (Windows), and signal
    handlers may only be installed from the main thread.  The sweep
    engine's ``ProcessPoolExecutor`` workers run their tasks on their
    main thread, so only threaded callers run unbounded.
    """
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def _deadline(seconds: float | None):
    """Raise :class:`RunTimeoutError` if the block runs past ``seconds``.

    Uses ``SIGALRM``, so it only arms in the main thread on platforms
    that have it; elsewhere the block runs unbounded rather than failing.
    """
    if not seconds or not _alarm_usable():
        yield
        return

    def _on_alarm(signum, frame):
        raise RunTimeoutError(f"run exceeded {seconds:.1f}s wall clock")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_loop_hardened(
    spec: LoopSpec,
    strategy: Strategy,
    seed: int = 0,
    config: MachineConfig = TABLE_I,
    *,
    timeout_s: float | None = None,
    **kwargs,
) -> LoopRun:
    """:func:`run_loop` under a wall-clock budget of ``timeout_s``.

    A run past the budget raises :class:`RunTimeoutError`.  Every failure
    propagates under the run's own seed, so the sweep engine records it
    against the cell that failed; nothing re-runs under another seed.
    """
    with _deadline(timeout_s):
        return run_loop(spec, strategy, seed, config, **kwargs)


# ---------------------------------------------------------------------------
# derived metrics
# ---------------------------------------------------------------------------


def loop_speedup(
    spec: LoopSpec,
    seed: int = 0,
    config: MachineConfig = TABLE_I,
    baseline: Strategy = Strategy.SVE,
    n_override: int | None = None,
) -> float:
    """Cycle speedup of SRV over the baseline strategy for one loop.

    The paper normalises SRV-vectorisable loop performance to the SVE
    binary, in which these loops run scalar (figure 6).
    """
    base = run_loop(spec, baseline, seed, config, n_override=n_override)
    srv = run_loop(spec, Strategy.SRV, seed, config, n_override=n_override)
    for run in (base, srv):
        if not run.correct:
            raise OracleMismatchError(
                loop=spec.name,
                strategy=run.strategy.value,
                array=run.bad_array,
            )
    return base.cycles / srv.cycles


def workload_loop_speedup(
    workload, seed: int = 0, config: MachineConfig = TABLE_I,
    n_override: int | None = None,
) -> float:
    """Weight-averaged SRV loop speedup for a workload (figure 6 bars)."""
    weights = workload.normalised_weights()
    total = 0.0
    for spec, weight in zip(workload.loops, weights):
        total += weight * loop_speedup(spec, seed, config, n_override=n_override)
    return total


def whole_program_speedup(loop_speedup_value: float, coverage: float) -> float:
    """Amdahl combination used for figure 7.

    The paper computes whole-program speedup "based on the dynamic
    instruction count of the SRV-vectorisable loops and their coverage".
    """
    if not 0.0 <= coverage <= 1.0:
        raise ValueError(f"coverage must be within [0, 1], got {coverage}")
    if loop_speedup_value <= 0:
        raise ValueError("loop speedup must be positive")
    return 1.0 / (1.0 - coverage + coverage / loop_speedup_value)
