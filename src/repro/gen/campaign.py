"""Differential fuzz campaigns: generate → check → shrink → report.

A campaign generates ``count`` kernels from a campaign seed, runs each
through the scalar-oracle + LSU differential checks (streaming trace
mode by default — :func:`repro.pipeline.simulate_streaming` emulates
once, so an armed :mod:`repro.verify.faults` plan fires at the same
polls as on the materialised path), shrinks any failing kernel to a
1-minimal reproducer, and writes a machine-readable report.

Clean kernels are checked through :func:`repro.experiments.runner.run_loop`,
so campaign results land in the content-addressed result cache.  Shrink
candidates and *planted* runs bypass the cache entirely: they execute a
loop body that differs from the one the cache key names.

Planted bugs (:data:`PLANTS`) are check-time mutations — the executed
program is compiled from a mutated loop while the oracle evaluates the
original — used to prove end-to-end that the campaign machinery detects
a miscompile and that the shrinker drives it to the floor.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from repro.common.config import TABLE_I, MachineConfig
from repro.common.errors import LsuOverflowError, ReproError
from repro.compiler import Strategy, compile_loop, scalar_reference
from repro.compiler.ir import BinOp, Const, Loop, Store
from repro.experiments.runner import run_loop
from repro.gen.emitter import (
    GeneratedKernel,
    generate_kernel,
    kernel_seed,
    loop_to_obj,
    obj_to_loop,
)
from repro.gen.knobs import GENERATOR_VERSION, Knobs
from repro.gen.shrinker import ShrinkResult, shrink_spec
from repro.memory import MemoryImage
from repro.pipeline import simulate_streaming
from repro.workloads.base import LoopSpec

#: current reproducer file schema
REPRODUCER_FORMAT = 1

LoopMutation = Callable[[Loop], Loop]


def _plant_store_skew(loop: Loop) -> Loop:
    """Miscompile: the last store writes ``value + 1``.

    The *last* statement's stores are never overwritten by a later
    statement, so the skew always survives to final memory and the
    oracle comparison is guaranteed to diverge.
    """
    last = loop.body[-1]
    body = list(loop.body[:-1]) + [
        Store(last.array, last.index, BinOp("+", last.value, Const(1)))
    ]
    return Loop(loop.name, loop.arrays, body, step=loop.step)


#: named check-time miscompilations for self-tests and docs walkthroughs
PLANTS: dict[str, LoopMutation] = {
    "store-skew": _plant_store_skew,
}


@dataclass(frozen=True)
class FuzzConfig:
    """One campaign's parameters."""

    count: int = 50
    seed: int = 0
    strategy: Strategy = Strategy.SRV
    config: MachineConfig = TABLE_I
    n_override: int | None = None
    shrink: bool = True
    use_cache: bool = True
    out_dir: Path | None = None
    #: name of a :data:`PLANTS` mutation to inject into every kernel, or
    #: the special ``"elide-regions"`` self-test (``analyze_diff`` only)
    plant: str | None = None
    #: soundness differential for :mod:`repro.analyze`: fail any kernel
    #: where a region the analysis declared ``NO_CONFLICT`` dynamically
    #: replays, or where the analysis-guided program diverges from the
    #: scalar oracle.  Always executes outside the result cache.
    analyze_diff: bool = False


@dataclass
class CheckOutcome:
    """Result of checking one generated kernel."""

    index: int
    kernel_seed: int
    name: str
    status: str                    # "ok" | "fail" | "error"
    knobs: dict
    detail: str | None = None
    shrink_steps: tuple[str, ...] = ()
    shrink_attempts: int = 0
    reproducer: str | None = None  # path, relative to the report
    elapsed_s: float = 0.0

    def to_obj(self) -> dict:
        return {
            "index": self.index,
            "kernel_seed": self.kernel_seed,
            "name": self.name,
            "status": self.status,
            "knobs": self.knobs,
            "detail": self.detail,
            "shrink_steps": list(self.shrink_steps),
            "shrink_attempts": self.shrink_attempts,
            "reproducer": self.reproducer,
            "elapsed_s": round(self.elapsed_s, 6),
        }


@dataclass
class FuzzReport:
    """Machine-readable campaign outcome.

    ``to_obj()`` is deterministic for a given ``(generator version,
    campaign seed, count, strategy)`` apart from the ``elapsed_s``
    fields — two runs of the same campaign produce identical reports
    modulo timings.
    """

    seed: int
    count: int
    strategy: str
    plant: str | None = None
    analyze_diff: bool = False
    outcomes: list[CheckOutcome] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def failures(self) -> list[CheckOutcome]:
        return [o for o in self.outcomes if o.status != "ok"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_obj(self) -> dict:
        return {
            "generator_version": GENERATOR_VERSION,
            "campaign_seed": self.seed,
            "count": self.count,
            "strategy": self.strategy,
            "plant": self.plant,
            "analyze_diff": self.analyze_diff,
            "passed": sum(1 for o in self.outcomes if o.status == "ok"),
            "failed": sum(1 for o in self.outcomes if o.status == "fail"),
            "errors": sum(1 for o in self.outcomes if o.status == "error"),
            "kernels": [o.to_obj() for o in self.outcomes],
            "elapsed_s": round(self.elapsed_s, 6),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2) + "\n"


# ---------------------------------------------------------------------------
# differential checks
# ---------------------------------------------------------------------------


def _describe_mismatch(name: str, got: list[int], want: list[int]) -> str:
    index = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
    return (f"oracle: array {name!r} diverges from the scalar reference at "
            f"index {index} (got {got[index]}, want {want[index]})")


def _mutated_check(
    spec: LoopSpec,
    mutate: LoopMutation,
    strategy: Strategy,
    seed: int,
    config: MachineConfig,
    n: int,
) -> tuple[bool, str | None]:
    """Execute ``mutate(spec.loop)`` but judge it against ``spec.loop``.

    Never touches the result cache: the executed body is not the one the
    cache key would name.
    """
    arrays = spec.arrays(seed)
    mem = MemoryImage()
    for name, init in arrays.items():
        mem.alloc(name, len(init), spec.loop.arrays[name], init=init)
    program = compile_loop(mutate(spec.loop), mem, n, strategy,
                           params=spec.params)
    try:
        try:
            simulate_streaming(program, mem, config,
                               validate_lsu=True, warm=True)
        except LsuOverflowError:
            seq = config.with_overrides(srv_force_sequential=True)
            mem = MemoryImage()
            for name, init in arrays.items():
                mem.alloc(name, len(init), spec.loop.arrays[name], init=init)
            program = compile_loop(mutate(spec.loop), mem, n, strategy,
                                   params=spec.params)
            simulate_streaming(program, mem, seq,
                               validate_lsu=True, warm=True)
    except ReproError as exc:
        return False, f"{type(exc).__name__}: {exc}"
    reference = scalar_reference(spec.loop, arrays, n, params=spec.params)
    for name in arrays:
        got = mem.load_array(mem.allocation(name))
        if got != reference[name]:
            return False, _describe_mismatch(name, got, reference[name])
    return True, None


def _alloc_arrays(spec: LoopSpec, arrays: dict) -> MemoryImage:
    mem = MemoryImage()
    for name, init in arrays.items():
        mem.alloc(name, len(init), spec.loop.arrays[name], init=init)
    return mem


def _elide_regions_check(
    spec: LoopSpec, cfg: FuzzConfig, n: int
) -> tuple[bool, str | None]:
    """Planted self-test: compile with *every* SRV bracket omitted.

    Applies :meth:`RegionPlan.all_plain` regardless of verdicts — the
    vector program runs bare, so any dynamically-conflicting kernel
    diverges from the scalar oracle.  A campaign over conflicting
    kernels must therefore fail (and shrink); this proves end to end
    that the analyze-diff machinery would catch an unsound
    ``NO_CONFLICT`` verdict that led codegen to drop a needed bracket.
    """
    from repro.analyze.regions import RegionPlan
    from repro.compiler.codegen import LoopCodeGenerator

    arrays = spec.arrays(cfg.seed)
    mem = _alloc_arrays(spec, arrays)
    gen = LoopCodeGenerator(spec.loop, mem, n, spec.params)
    if spec.loop.reductions():
        # reduction loops never carry regions; nothing to elide
        program = gen.vector_program(srv=False)
    else:
        program = gen.vector_program(
            srv=True, plan=RegionPlan.all_plain(spec.loop)
        )
    try:
        simulate_streaming(program, mem, cfg.config,
                           validate_lsu=True, warm=True)
    except ReproError as exc:
        return False, f"{type(exc).__name__}: {exc}"
    reference = scalar_reference(spec.loop, arrays, n, params=spec.params)
    for name in arrays:
        got = mem.load_array(mem.allocation(name))
        if got != reference[name]:
            return False, _describe_mismatch(name, got, reference[name])
    return True, None


def _analyze_diff_check(
    spec: LoopSpec, cfg: FuzzConfig, n: int
) -> tuple[bool, str | None]:
    """Soundness differential: static verdicts vs dynamic replay truth.

    Two executions, both cache-cold:

    * a **probe** program with the guided plan's boundaries but *every*
      region speculative — each ``NO_CONFLICT`` claim is dynamically
      testable there: a ``LANE_REPLAY`` event attributed to a
      proven-safe region is a false-safe verdict and fails the kernel;
    * the **guided** program itself (brackets actually omitted), judged
      against the scalar oracle — the end-to-end omission check.

    Regions that run via the sequential fallback cannot witness replays
    and are skipped (recorded as vacuous, not passed).
    """
    from repro.analyze import RegionVerdict, analyse_conflicts, gather_facts
    from repro.analyze.dependence import analyse_region
    from repro.analyze.regions import Region, RegionPlan
    from repro.analyze.report import guided_plan
    from repro.compiler.codegen import LoopCodeGenerator
    from repro.observe import events as _ev
    from repro.observe.replay_truth import replay_truth

    if spec.loop.reductions():
        # no regions exist for reduction loops: degrade to the plain
        # oracle check (identity mutation keeps the cache cold)
        return _mutated_check(spec, lambda loop: loop, cfg.strategy,
                              cfg.seed, cfg.config, n)

    arrays = spec.arrays(cfg.seed)
    loop = spec.loop
    facts = gather_facts(loop, arrays)
    conflicts = analyse_conflicts(loop, facts, n)
    plan = guided_plan(loop, facts, n)
    verdicts = [analyse_region(conflicts, region).verdict
                for region in plan.regions]

    # -- probe: every region speculative, claims dynamically testable ---
    probe_plan = RegionPlan(tuple(
        Region(r.start, r.stop, speculative=True) for r in plan.regions
    ))
    mem = _alloc_arrays(spec, arrays)
    program = LoopCodeGenerator(loop, mem, n, spec.params).vector_program(
        srv=True, plan=probe_plan
    )
    sink = _ev.ListSink()
    degraded = False
    try:
        with _ev.capture(sink):
            simulate_streaming(program, mem, cfg.config,
                               validate_lsu=True, warm=True)
    except LsuOverflowError:
        degraded = True
        sink = _ev.ListSink()
        mem = _alloc_arrays(spec, arrays)
        seq = cfg.config.with_overrides(srv_force_sequential=True)
        try:
            with _ev.capture(sink):
                simulate_streaming(program, mem, seq,
                                   validate_lsu=True, warm=True)
        except ReproError as exc:
            return False, f"probe: {type(exc).__name__}: {exc}"
    except ReproError as exc:
        return False, f"probe: {type(exc).__name__}: {exc}"
    reference = scalar_reference(loop, arrays, n, params=spec.params)
    for name in arrays:
        got = mem.load_array(mem.allocation(name))
        if got != reference[name]:
            return False, "probe " + _describe_mismatch(
                name, got, reference[name]
            )
    truth = replay_truth(sink.finalized(), len(probe_plan.regions),
                         degraded=degraded)
    for i, (verdict, region_truth) in enumerate(
        zip(verdicts, truth.regions)
    ):
        if verdict is not RegionVerdict.NO_CONFLICT:
            continue
        if degraded or region_truth.fallbacks:
            continue  # vacuous: the fallback cannot witness replays
        if region_truth.replayed_lanes:
            region = plan.regions[i]
            return False, (
                f"false-safe: region [{region.start}, {region.stop}) was "
                f"declared no_conflict but replayed "
                f"{region_truth.replayed_lanes} lane(s) dynamically"
            )

    # -- guided program: brackets actually omitted, oracle-judged -------
    return _mutated_check(spec, lambda loop: loop, Strategy.SRV_GUIDED,
                          cfg.seed, cfg.config, n)


def check_kernel(
    spec: LoopSpec,
    cfg: FuzzConfig,
    *,
    use_cache: bool,
) -> tuple[bool, str | None]:
    """Scalar-oracle and LSU check of one spec."""
    n = spec.n if cfg.n_override is None else min(cfg.n_override, spec.n)
    if cfg.analyze_diff:
        if cfg.plant == "elide-regions":
            return _elide_regions_check(spec, cfg, n)
        if cfg.plant is not None:
            raise ValueError(
                f"plant {cfg.plant!r} is incompatible with analyze_diff "
                f"(only 'elide-regions' applies)"
            )
        return _analyze_diff_check(spec, cfg, n)
    if cfg.plant == "elide-regions":
        raise ValueError("plant 'elide-regions' requires analyze_diff")
    if cfg.plant is not None:
        return _mutated_check(spec, PLANTS[cfg.plant], cfg.strategy,
                              cfg.seed, cfg.config, n)
    try:
        run = run_loop(
            spec, cfg.strategy, seed=cfg.seed, config=cfg.config,
            validate_lsu=True, check_oracle=True, n_override=cfg.n_override,
            use_cache=use_cache,
        )
    except ReproError as exc:
        return False, f"{type(exc).__name__}: {exc}"
    if not run.correct:
        return False, (f"oracle: array {run.bad_array!r} diverges from the "
                       f"scalar reference")
    return True, None


# ---------------------------------------------------------------------------
# reproducers
# ---------------------------------------------------------------------------


def write_reproducer(
    path: Path,
    kernel: GeneratedKernel,
    shrunk: ShrinkResult,
    cfg: FuzzConfig,
    detail: str | None,
) -> None:
    """Persist a shrunk failing kernel as a self-contained JSON file."""
    minimal = replace(
        shrunk.spec,
        loop=replace(shrunk.spec.loop, name=f"{kernel.name}_min"),
    )
    obj = {
        "format": REPRODUCER_FORMAT,
        "generator_version": GENERATOR_VERSION,
        "kernel_seed": kernel.seed,
        "knobs": kernel.knobs.as_dict(),
        "run_seed": cfg.seed,
        "strategy": cfg.strategy.value,
        "plant": cfg.plant,
        "analyze_diff": cfg.analyze_diff,
        "detail": detail,
        "n": minimal.n,
        "params": dict(minimal.params),
        "loop": loop_to_obj(minimal.loop),
        "shrink_steps": list(shrunk.steps),
        "shrink_attempts": shrunk.attempts,
        "shrink_exhausted": shrunk.exhausted,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n")


def load_reproducer(path: Path) -> tuple[LoopSpec, dict]:
    """Rebuild the runnable :class:`LoopSpec` from a reproducer file.

    The input arrays come from regenerating the *original* kernel (same
    generator version, seed and knobs), so the minimal loop executes on
    exactly the data that exposed the failure.
    """
    obj = json.loads(Path(path).read_text())
    if obj.get("format") != REPRODUCER_FORMAT:
        raise ValueError(f"unknown reproducer format {obj.get('format')!r}")
    if obj["generator_version"] != GENERATOR_VERSION:
        raise ValueError(
            f"reproducer was produced by generator "
            f"v{obj['generator_version']}; this tree is v{GENERATOR_VERSION}"
        )
    original = generate_kernel(obj["kernel_seed"], Knobs(**obj["knobs"]))
    spec = replace(
        original.spec,
        loop=obj_to_loop(obj["loop"]),
        n=obj["n"],
        params=obj["params"],
    )
    return spec, obj


# ---------------------------------------------------------------------------
# the campaign driver
# ---------------------------------------------------------------------------


def run_fuzz(cfg: FuzzConfig) -> FuzzReport:
    """Run one fuzz campaign and (optionally) write report + reproducers."""
    report = FuzzReport(seed=cfg.seed, count=cfg.count,
                        strategy=cfg.strategy.value, plant=cfg.plant,
                        analyze_diff=cfg.analyze_diff)
    started = time.perf_counter()
    for i in range(cfg.count):
        kseed = kernel_seed(cfg.seed, i)
        t0 = time.perf_counter()
        try:
            kernel = generate_kernel(kseed)
        except Exception as exc:  # generator bug: report, keep fuzzing
            report.outcomes.append(CheckOutcome(
                index=i, kernel_seed=kseed, name=f"gen_seed_{kseed}",
                status="error", knobs={},
                detail=f"generate: {type(exc).__name__}: {exc}",
                elapsed_s=time.perf_counter() - t0,
            ))
            continue
        outcome = CheckOutcome(
            index=i, kernel_seed=kseed, name=kernel.name,
            status="ok", knobs=kernel.knobs.as_dict(),
        )
        try:
            ok, detail = check_kernel(kernel.spec, cfg,
                                      use_cache=cfg.use_cache)
        except Exception as exc:  # untyped crash: harness error, not a fail
            ok, detail = None, f"{type(exc).__name__}: {exc}"
        if ok is None:
            outcome.status = "error"
            outcome.detail = detail
        elif not ok:
            outcome.status = "fail"
            outcome.detail = detail
            if cfg.shrink:
                _shrink_failure(kernel, cfg, outcome)
        outcome.elapsed_s = time.perf_counter() - t0
        report.outcomes.append(outcome)
    report.elapsed_s = time.perf_counter() - started

    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(report.to_json())
    return report


def _shrink_failure(kernel: GeneratedKernel, cfg: FuzzConfig,
                    outcome: CheckOutcome) -> None:
    """Shrink one failing kernel and attach the reproducer to ``outcome``."""

    def still_fails(candidate: LoopSpec) -> bool:
        # cache must stay cold: every candidate shares the original
        # loop's name but carries a different body
        ok, _ = check_kernel(candidate, cfg, use_cache=False)
        return not ok

    shrunk = shrink_spec(kernel.spec, still_fails)
    outcome.shrink_steps = shrunk.steps
    outcome.shrink_attempts = shrunk.attempts
    if cfg.out_dir is not None:
        rel = Path("reproducers") / f"{kernel.name}.json"
        write_reproducer(Path(cfg.out_dir) / rel, kernel, shrunk, cfg,
                         outcome.detail)
        outcome.reproducer = str(rel)
