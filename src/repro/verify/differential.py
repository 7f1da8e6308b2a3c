"""Differential verification of one loop execution.

Three independent judges cross-examine a run:

1. the **invariant monitors** (:mod:`repro.verify.monitors`) re-derive the
   paper's structural invariants from the dynamic trace;
2. the **scalar-reference oracle** re-executes the loop IR in pure Python
   and compares every output array byte-for-byte;
3. the **LSU cross-check** replays the trace log through the cycle model with
   ``validate_lsu=True``, so the hardware load-store unit's replay
   decisions are compared lane-by-lane against the functional emulator's.

Any typed :class:`~repro.common.errors.ReproError` raised mid-run (replay
bound, region nesting, LSU overflow, memory bounds) also counts as a
detection: the simulator's own runtime invariant checkers caught the
corruption before the post-hoc judges could.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.config import TABLE_I, MachineConfig
from repro.common.errors import ReproError
from repro.compiler import Strategy, compile_loop, scalar_reference
from repro.emu import run_program
from repro.memory import MemoryImage
from repro.pipeline import TraceLog, simulate
from repro.verify.monitors import Violation, run_monitors
from repro.workloads.base import LoopSpec


@dataclass
class VerifyReport:
    """Outcome of one verified loop execution."""

    loop: str
    strategy: str
    seed: int
    n: int
    violations: list[Violation] = field(default_factory=list)
    #: exception type name if a typed error aborted the run
    error: str | None = None

    @property
    def clean(self) -> bool:
        return not self.violations

    def detectors(self) -> set[str]:
        return {v.monitor for v in self.violations}

    def format_lines(self) -> list[str]:
        status = "clean" if self.clean else f"{len(self.violations)} violation(s)"
        lines = [f"{self.loop} [{self.strategy}] seed={self.seed} n={self.n}: {status}"]
        lines.extend(f"  {v}" for v in self.violations)
        return lines


def verify_loop(
    spec: LoopSpec,
    strategy: Strategy = Strategy.SRV,
    seed: int = 0,
    config: MachineConfig = TABLE_I,
    n_override: int | None = None,
    timing: bool = True,
) -> VerifyReport:
    """Execute one loop with every checker armed and report violations."""
    n = spec.n if n_override is None else min(n_override, spec.n)
    report = VerifyReport(spec.name, strategy.value, seed, n)

    arrays = spec.arrays(seed)
    mem = MemoryImage()
    for name, init in arrays.items():
        mem.alloc(name, len(init), spec.loop.arrays[name], init=init)
    program = compile_loop(spec.loop, mem, n, strategy, params=spec.params)

    log = TraceLog(program)
    try:
        run_program(program, mem, config=config, tracer=log)
    except ReproError as exc:
        report.error = type(exc).__name__
        report.violations.append(Violation(
            "runtime-invariant", f"{type(exc).__name__}: {exc}"
        ))
        # the trace up to the abort is still checkable
        report.violations.extend(run_monitors(log, config))
        return report

    report.violations.extend(run_monitors(log, config))

    reference = scalar_reference(spec.loop, arrays, n, params=spec.params)
    for name in arrays:
        got = mem.load_array(mem.allocation(name))
        want = reference[name]
        if got != want:
            index = next(
                i for i, (g, w) in enumerate(zip(got, want)) if g != w
            )
            report.violations.append(Violation(
                "oracle",
                f"array {name!r} diverges from the scalar reference at "
                f"index {index} (got {got[index]}, want {want[index]})",
            ))

    if timing:
        try:
            simulate(log, config=config, validate_lsu=True, warm=True)
        except ReproError as exc:
            report.violations.append(Violation(
                "lsu-differential", f"{type(exc).__name__}: {exc}"
            ))
    return report


def verify_workloads(
    workloads,
    strategy: Strategy = Strategy.SRV,
    seed: int = 0,
    config: MachineConfig = TABLE_I,
    n_override: int | None = None,
    timing: bool = True,
) -> list[VerifyReport]:
    """Verify every loop of every workload; returns one report per loop.

    ``workloads`` may mix workload objects and workload names.
    """
    from repro.workloads import by_name

    resolved = [
        by_name(w) if isinstance(w, str) else w for w in workloads
    ]
    return [
        verify_loop(
            spec, strategy, seed, config,
            n_override=n_override, timing=timing,
        )
        for workload in resolved
        for spec in workload.loops
    ]
