"""Per-loop / per-workload analysis reports and the guided-codegen entry.

This is the layer the CLI (``repro analyze``) and the guided code
generator (:class:`~repro.compiler.codegen.Strategy` ``SRV_GUIDED``)
consume.  A :class:`LoopAnalysis` records, for one loop and one input
seed:

* the execution ``mode`` the SRV strategy would pick (mirroring the
  code generator's dispatch): ``"regions"`` for plain store loops,
  ``"no-region-vector"`` for reduction loops whose affine pass is
  clean, ``"scalar"`` for reduction loops it cannot clear;
* the region plan (speculative/plain segments) and one
  :class:`~repro.analyze.dependence.RegionAnalysis` per region;
* the loop-granular Banerjee verdict for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analyze.dependence import (
    RegionAnalysis,
    RegionVerdict,
    analyse_conflicts,
    analyse_region,
)
from repro.analyze.facts import AnalysisFacts, gather_facts
from repro.analyze.regions import Region, RegionPlan, plan_from_conflicts
from repro.common.config import TABLE_I
from repro.compiler.analysis import region_class
from repro.compiler.ir import Loop
from repro.workloads.base import LoopSpec, Workload


def guided_plan(
    loop: Loop, facts: AnalysisFacts, n: int, vl: int = 16
) -> RegionPlan:
    """The region plan the guided code generator emits for ``loop``.

    Statements whose cross-lane safety is proven come out in *plain*
    regions (no SRV brackets); the remaining spans stay speculative, and
    a span whose predicted violating-lane density exceeds
    :data:`~repro.analyze.dependence.DENSE_LANE_THRESHOLD` additionally
    carries the ``sequential`` hint (execute one lane at a time rather
    than replaying most of them).
    """
    conflicts = analyse_conflicts(loop, facts, n, vl)
    plan = plan_from_conflicts(len(loop.body), conflicts.unsafe_pairs)
    # Pipeline-aware shaping: ``srv_end`` is a serialisation barrier, so
    # statements *after* a speculative region stall at it regardless of
    # their own verdict — splitting them out saves nothing and forfeits
    # their issue overlap with the region body.  ``srv_start`` does not
    # serialise, so a conflict-free *prefix* genuinely escapes
    # speculation (and replays re-execute less).  The emitted plan is
    # therefore plain-prefix + one speculative region to the end.
    spec = plan.speculative
    if not spec:
        return plan
    first = spec[0].start
    merged = Region(first, len(loop.body), speculative=True)
    analysis = analyse_region(conflicts, merged)
    if analysis.verdict is RegionVerdict.MUST_CONFLICT and analysis.dense:
        merged = Region(first, len(loop.body), speculative=True,
                        sequential=True)
    regions: list[Region] = []
    if first:
        regions.append(Region(0, first, speculative=False))
    regions.append(merged)
    return RegionPlan(tuple(regions))


@dataclass(frozen=True)
class LoopAnalysis:
    """Static analysis report for one loop over one input seed."""

    workload: str
    loop: str
    seed: int
    n: int
    vl: int
    #: how the SRV strategy executes this loop: ``"regions"`` (vector
    #: body with a region plan), ``"no-region-vector"`` (reduction loop,
    #: vectorised without regions), or ``"scalar"``
    mode: str
    #: loop-granular Banerjee verdict (``DepClass`` name), for contrast
    banerjee: str
    plan: RegionPlan | None
    regions: tuple[RegionAnalysis, ...]
    #: unresolvable references: ``(statement, reason)``
    unresolved: tuple[tuple[int, str], ...]

    @property
    def verdicts(self) -> tuple[RegionVerdict, ...]:
        """Speculative-region verdicts in program order."""
        return tuple(r.verdict for r in self.regions if r.region.speculative)

    @property
    def proven_safe_regions(self) -> int:
        return sum(
            1 for r in self.regions
            if r.verdict is RegionVerdict.NO_CONFLICT
        )

    @property
    def worst_verdict(self) -> RegionVerdict | None:
        """Most restrictive verdict over the speculative regions.

        ``None`` when the loop has no speculative region at all (every
        statement proven safe, or a non-region mode).
        """
        spec = [r.verdict for r in self.regions if r.region.speculative]
        if not spec:
            return None
        order = [RegionVerdict.NO_CONFLICT, RegionVerdict.MAY_CONFLICT,
                 RegionVerdict.MUST_CONFLICT]
        return max(spec, key=order.index)

    @property
    def loop_verdict(self) -> RegionVerdict | None:
        """Loop-level verdict for region-mode loops.

        A loop whose guided plan has no speculative region at all is
        proven safe end to end — ``NO_CONFLICT`` — even though
        ``worst_verdict`` has nothing to aggregate.  ``None`` only for
        non-region modes (reduction loops).
        """
        if self.mode != "regions":
            return None
        worst = self.worst_verdict
        return worst if worst is not None else RegionVerdict.NO_CONFLICT

    @property
    def predicted_replays(self) -> int:
        """Predicted replayed-lane executions across all regions."""
        return sum(r.predicted_replay_lanes for r in self.regions)

    def to_obj(self) -> dict:
        return {
            "workload": self.workload,
            "loop": self.loop,
            "seed": self.seed,
            "n": self.n,
            "vl": self.vl,
            "mode": self.mode,
            "banerjee": self.banerjee,
            "worst_verdict": (self.worst_verdict.value
                              if self.worst_verdict else None),
            "loop_verdict": (self.loop_verdict.value
                             if self.loop_verdict else None),
            "proven_safe_regions": self.proven_safe_regions,
            "predicted_replays": self.predicted_replays,
            "regions": [
                {
                    "start": r.region.start,
                    "stop": r.region.stop,
                    "speculative": r.region.speculative,
                    "sequential": r.region.sequential,
                    "verdict": r.verdict.value,
                    "conflict_pairs": [list(p) for p in r.conflict_pairs],
                    "unknown_pairs": [list(p) for p in r.unknown_pairs],
                    "predicted_replay_lanes": r.predicted_replay_lanes,
                    "lane_executions": r.lane_executions,
                    "density": r.density,
                    "dense": r.dense,
                    "lsu_demand": r.lsu_demand,
                    "predicted_fallback": r.predicted_fallback,
                    "witness": r.witness,
                }
                for r in self.regions
            ],
            "unresolved": [
                {"statement": stmt, "reason": reason}
                for stmt, reason in self.unresolved
            ],
        }


@dataclass(frozen=True)
class WorkloadAnalysis:
    """Analysis reports for every loop of one workload."""

    workload: str
    loops: tuple[LoopAnalysis, ...]

    def to_obj(self) -> dict:
        return {
            "workload": self.workload,
            "loops": [la.to_obj() for la in self.loops],
        }


def analyse_spec(
    spec: LoopSpec,
    workload: str = "",
    seed: int = 0,
    n_override: int | None = None,
    vl: int = 16,
    lsu_entries: int = TABLE_I.lsu_entries,
) -> LoopAnalysis:
    """Analyse one loop spec over the inputs it generates for ``seed``."""
    loop = spec.loop
    n = spec.n if n_override is None else min(n_override, spec.n)
    arrays = spec.arrays(seed)
    facts = gather_facts(loop, arrays)
    banerjee = region_class(loop, None, vl).name

    if loop.reductions():
        # mirrors the SRV dispatch: reductions never enter a region
        from repro.compiler.analysis import DepClass

        clean = region_class(loop, None, vl) in (
            DepClass.NONE, DepClass.PROVABLE_SAFE,
        )
        mode = "no-region-vector" if clean else "scalar"
        return LoopAnalysis(
            workload=workload, loop=loop.name, seed=seed, n=n, vl=vl,
            mode=mode, banerjee=banerjee, plan=None, regions=(),
            unresolved=(),
        )

    conflicts = analyse_conflicts(loop, facts, n, vl)
    plan = guided_plan(loop, facts, n, vl)
    regions = tuple(
        analyse_region(conflicts, region, lsu_entries)
        for region in plan.regions
    )
    unresolved = tuple(
        (ref.stmt, reason) for ref, reason in conflicts.unresolved
    )
    return LoopAnalysis(
        workload=workload, loop=loop.name, seed=seed, n=n, vl=vl,
        mode="regions", banerjee=banerjee, plan=plan, regions=regions,
        unresolved=unresolved,
    )


def analyse_workload(
    workload: Workload,
    seed: int = 0,
    n_override: int | None = None,
    vl: int = 16,
    lsu_entries: int = TABLE_I.lsu_entries,
) -> WorkloadAnalysis:
    return WorkloadAnalysis(
        workload=workload.name,
        loops=tuple(
            analyse_spec(spec, workload.name, seed, n_override, vl,
                         lsu_entries)
            for spec in workload.loops
        ),
    )
