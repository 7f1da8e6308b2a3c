"""Whole-program cycle projection from sampled representative intervals.

:func:`sample_loop` is the sampling counterpart of
:func:`repro.experiments.runner.run_loop`:

1. **fingerprint pass** — the program's one functional emulation
   records a compact trace log, which is sliced in place into
   ``interval_size``-op intervals and fingerprinted
   (:mod:`repro.sample.fingerprint`), while also warming an *ambient*
   cache hierarchy with the full access stream (the sampled analogue of
   the exact path warming its caches from the whole trace log);
2. **clustering** — seeded k-means over the standardized fingerprints,
   k by BIC or forced via ``clusters`` (:mod:`repro.sample.cluster`);
   per cluster the sampler elects the centroid representative plus up
   to ``samples - 1`` further members spread uniformly by stream
   position;
3. **collection pass** — a second walk over the same log picks out
   only the elected segments, as op-index ranges, each with a
   region-safe warm-up window and a clone of the ambient cache state at
   its start.  Nothing is emulated again, so the segments are the
   fingerprinted ops by construction;
4. **projection** — each segment is timed through the existing streaming
   pipeline via :func:`repro.pipeline.stream.time_segment`; per cluster
   the cycles-per-op is *pooled* (total cycles over total ops) across
   its sampled members and multiplied by the cluster's op count, with
   an error bar from the cpo spread across those members and per-region
   attribution scaled the same way.  The leading ``ceil(warmup /
   interval_size)`` intervals (the cold-start transient) are always
   measured directly and never extrapolated.

Reports are cached through the shared result cache under a
``("sample", ...)`` key.  Like ``run_loop``, the trace mode is excluded
from the key (the sampler is streaming by construction).  The cache's
code-version hash covers the whole ``repro`` package, this module
included, so editing the sampler invalidates its cached reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.common.config import TABLE_I, MachineConfig
from repro.common.errors import LsuOverflowError, SampleError
from repro.compiler import Strategy, compile_loop
from repro.memory import MemoryImage
from repro.memory.hierarchy import CacheHierarchy
from repro.parallel.cache import result_cache
from repro.pipeline.stream import time_segment
from repro.sample.cluster import cluster_intervals, representatives
from repro.sample.intervals import (
    FingerprintRun,
    collect_segments,
    fingerprint_pass,
)

if TYPE_CHECKING:
    from repro.workloads.base import LoopSpec, Workload

#: Error bound (percent) the validation suite and CI smoke assert.
DEFAULT_ERROR_BOUND_PCT = 5.0

#: Members detail-simulated per cluster (the centroid representative
#: plus up to this many uniform-by-position strata).  The cluster's
#: cycles-per-op is *pooled* over all of them — a centroid-only estimate
#: systematically misses skew when functionally-identical intervals
#: differ microarchitecturally (cold predictors, drifting locality).
SAMPLES_PER_CLUSTER = 3


@dataclass(frozen=True)
class ClusterStat:
    """Projection contribution of one cluster."""

    cluster: int
    intervals: int           #: member interval count (tail members only)
    ops: int                 #: dynamic ops projected from this cluster
    rep: int                 #: centroid-representative interval index
    samples: tuple[int, ...]  #: detail-simulated member interval indices
    sampled_ops: int         #: total measured ops across samples
    sampled_cycles: int      #: total measured cycles across samples
    cpo: float               #: pooled cycles-per-op over the samples
    projected_cycles: float  #: cpo * ops
    error_cycles: float      #: cpo half-spread across samples * ops
    #: projected SRV-region cycles.  Segment-local residency scaled to
    #: cluster ops — NOT comparable to the exact model's raw
    #: ``stats.region_cycles`` on long backend-bound runs, whose
    #: fetch→commit spans inflate with accumulated frontend/backend
    #: skew (the idealised fetch clock never backpressures).
    region_cycles: float


@dataclass(frozen=True)
class SampleReport:
    """Whole-program projection from sampled intervals."""

    workload: str            #: by_name-resolvable workload key
    loop: str
    strategy: str            #: Strategy value ("srv"/"sve"/...)
    core: str
    seed: int
    n: int                   #: trip count actually simulated
    interval_size: int
    warmup: int
    requested_clusters: int | None   #: None = BIC-selected
    k: int
    total_ops: int
    intervals: int
    head_intervals: int      #: leading intervals measured directly (the
                             #: cold-start transient is never extrapolated)
    head_ops: int
    head_cycles: int
    detailed_ops: int        #: ops through the detailed timing model
    projected_cycles: int
    projected_region_cycles: int
    clusters: tuple[ClusterStat, ...]
    degraded: bool = False   #: LSU overflow forced the sequential fallback
    exact_cycles: int | None = None
    error_pct: float | None = None

    @property
    def reduction(self) -> float:
        """Detailed-simulation reduction factor vs exact streaming."""
        return self.total_ops / max(1, self.detailed_ops)

    def with_exact(self, exact_cycles: int) -> "SampleReport":
        error = 100.0 * (self.projected_cycles - exact_cycles) / exact_cycles
        return replace(self, exact_cycles=exact_cycles, error_pct=error)

    def format_report(self) -> str:
        lines = [
            f"sample {self.workload}/{self.loop} strategy={self.strategy} "
            f"core={self.core} seed={self.seed} n={self.n}",
            f"  stream: {self.total_ops} ops in {self.intervals} intervals "
            f"of {self.interval_size}",
            f"  head: {self.head_intervals} intervals / {self.head_ops} ops "
            f"measured directly ({self.head_cycles} cycles)",
            f"  clusters: k={self.k} "
            f"({'forced' if self.requested_clusters else 'bic'}) "
            f"warmup={self.warmup}"
            + (" [degraded: sequential fallback]" if self.degraded else ""),
            "  cluster intervals        ops   rep      cpo"
            "   projected     +/-err  samples",
        ]
        for c in self.clusters:
            samples = ",".join(str(s) for s in c.samples)
            lines.append(
                f"  {c.cluster:7d} {c.intervals:9d} {c.ops:10d} "
                f"{c.rep:5d} {c.cpo:8.4f} "
                f"{c.projected_cycles:11.1f} {c.error_cycles:10.1f}"
                f"  [{samples}]"
            )
        lines.append(
            f"  projected cycles: {self.projected_cycles} "
            f"(region {self.projected_region_cycles}, "
            f"error bar +/-{sum(c.error_cycles for c in self.clusters):.1f})"
        )
        lines.append(
            f"  detailed ops: {self.detailed_ops} of {self.total_ops} "
            f"({self.reduction:.1f}x reduction)"
        )
        if self.exact_cycles is not None:
            lines.append(
                f"  exact cycles: {self.exact_cycles}   "
                f"error: {self.error_pct:+.2f}%"
            )
        return "\n".join(lines) + "\n"

    def to_obj(self) -> dict:
        return {
            "workload": self.workload,
            "loop": self.loop,
            "strategy": self.strategy,
            "core": self.core,
            "seed": self.seed,
            "n": self.n,
            "interval_size": self.interval_size,
            "warmup": self.warmup,
            "requested_clusters": self.requested_clusters,
            "k": self.k,
            "total_ops": self.total_ops,
            "intervals": self.intervals,
            "head_intervals": self.head_intervals,
            "head_ops": self.head_ops,
            "head_cycles": self.head_cycles,
            "detailed_ops": self.detailed_ops,
            "reduction": round(self.reduction, 3),
            "projected_cycles": self.projected_cycles,
            "projected_region_cycles": self.projected_region_cycles,
            "degraded": self.degraded,
            "exact_cycles": self.exact_cycles,
            "error_pct": (
                round(self.error_pct, 4) if self.error_pct is not None
                else None
            ),
            "clusters": [
                {
                    "cluster": c.cluster,
                    "intervals": c.intervals,
                    "ops": c.ops,
                    "rep": c.rep,
                    "samples": list(c.samples),
                    "sampled_ops": c.sampled_ops,
                    "sampled_cycles": c.sampled_cycles,
                    "cpo": round(c.cpo, 6),
                    "projected_cycles": round(c.projected_cycles, 2),
                    "error_cycles": round(c.error_cycles, 2),
                    "region_cycles": round(c.region_cycles, 2),
                }
                for c in self.clusters
            ],
        }


# ---------------------------------------------------------------------------
# spec resolution (by_name-style keys, shared with CLI and sweep cells)
# ---------------------------------------------------------------------------


def resolve_spec(workload_name: str, loop_name: str | None = None):
    """``(workload, spec)`` for a by_name workload key and loop name.

    ``loop_name`` may be an exact loop name or a unique substring; with
    a single-loop workload it may be omitted.  Everything a sweep worker
    needs to regenerate the sampled program is the two strings.
    """
    from repro.workloads import by_name

    workload = by_name(workload_name)
    specs = list(workload.loops)
    if loop_name is None:
        if len(specs) == 1:
            return workload, specs[0]
        raise KeyError(
            f"workload {workload_name!r} has {len(specs)} loops; "
            "a loop name is required"
        )
    for spec in specs:
        if spec.name == loop_name:
            return workload, spec
    matches = [spec for spec in specs if loop_name in spec.name]
    if len(matches) == 1:
        return workload, matches[0]
    names = ", ".join(spec.name for spec in specs)
    raise KeyError(
        f"loop {loop_name!r} is {'ambiguous' if matches else 'unknown'} "
        f"in workload {workload_name!r} (loops: {names})"
    )


# ---------------------------------------------------------------------------
# sampling driver
# ---------------------------------------------------------------------------


def _build(spec: "LoopSpec", strategy: Strategy, seed: int, n: int,
           config: MachineConfig):
    """Fresh interpreter over fresh memory."""
    from repro.emu.interpreter import Interpreter

    arrays = spec.arrays(seed)
    mem = MemoryImage()
    for name, init in arrays.items():
        mem.alloc(name, len(init), spec.loop.arrays[name], init=init)
    program = compile_loop(spec.loop, mem, n, strategy, params=spec.params)
    return Interpreter(program, mem, config)


def _sample_once(
    spec: "LoopSpec",
    strategy: Strategy,
    seed: int,
    n: int,
    config: MachineConfig,
    core: str,
    interval_size: int,
    warmup: int,
    clusters: int | None,
    max_clusters: int,
    samples: int,
    workload_key: str,
) -> SampleReport:
    # pass 1: fingerprints + ambient cache warm base
    ambient = CacheHierarchy(config.memory)
    interp = _build(spec, strategy, seed, n, config)
    run: FingerprintRun = fingerprint_pass(
        interp, interval_size, feed_caches=ambient,
    )
    if run.total_ops == 0:
        raise SampleError(
            f"{spec.name}/{strategy.value}: program produced no trace ops"
        )

    # clustering over standardized fingerprints
    vectors = [iv.vector for iv in run.intervals]
    clustering = cluster_intervals(
        vectors, seed, k=clusters, max_k=max_clusters,
    )

    # The first ~warmup ops of a program have *short microarchitectural
    # history*: their segments replay the complete prefix as warm-up, so
    # measuring them is exact — while extrapolating a steady-state
    # representative's cycles-per-op onto them (or theirs onto the
    # steady tail) is wrong in either direction.  Pin this head: measure
    # its intervals directly, project only the steady tail via clusters,
    # and keep head intervals out of sample election.
    head_count = min(
        -(-warmup // interval_size) if warmup else 1, len(run.intervals),
    )
    pinned = {run.intervals[i].index for i in range(head_count)}
    reps = representatives(
        vectors, clustering, exclude=frozenset(range(head_count)),
    )

    # per-cluster sample election: the centroid representative plus
    # uniform-by-position strata across the (tail) members.  Uniform
    # picks are what de-biases the estimate — the centroid member is the
    # *functionally* most typical interval, but microarchitectural cost
    # varies within a functional cluster (predictor state, locality
    # drift), and pooling over position-spread members averages it out.
    elected: dict[int, list[int]] = {}
    for cluster_id, (rep_pos, _probe) in sorted(reps.items()):
        members = [
            i for i, a in enumerate(clustering.assignments)
            if a == cluster_id and run.intervals[i].index not in pinned
        ]
        if not members:
            elected[cluster_id] = [rep_pos]
            continue
        m = len(members)
        picks = {
            members[round(i * (m - 1) / max(1, samples - 1))]
            for i in range(min(samples, m))
        }
        picks.add(rep_pos)
        elected[cluster_id] = sorted(picks)

    targets: set[int] = set(pinned)
    for positions in elected.values():
        targets.update(run.intervals[p].index for p in positions)

    # pass 2: collect representative segments of the fingerprinted
    # emulation's log, with ambient cache clones
    timings: dict[int, object] = {}
    for segment in collect_segments(
        run.log, targets, interval_size, warmup, ambient=ambient,
    ):
        if not segment.ops:
            continue
        timings[segment.interval] = time_segment(
            run.log, segment.ops, config, core=core,
            warm=segment.warm, caches=segment.caches,
        )

    # projection: measured head + per-cluster extrapolated tail
    head_cycles = 0
    head_ops = 0
    head_region = 0
    for idx in sorted(pinned):
        timing = timings.get(idx)
        if timing is None:
            raise SampleError(
                f"head interval {idx} produced no timed segment"
            )
        head_cycles += timing.cycles
        head_ops += timing.ops
        head_region += timing.region_cycles

    stats: list[ClusterStat] = []
    for cluster_id, positions in elected.items():
        rep_idx = run.intervals[reps[cluster_id][0]].index
        members = [
            run.intervals[i]
            for i, a in enumerate(clustering.assignments)
            if a == cluster_id and run.intervals[i].index not in pinned
        ]
        cluster_ops = sum(iv.length for iv in members)
        sampled = []
        for pos in positions:
            idx = run.intervals[pos].index
            timing = timings.get(idx)
            if timing is None:
                raise SampleError(
                    f"sampled interval {idx} produced no timed segment"
                )
            sampled.append((idx, timing))
        pooled_ops = sum(t.ops for _, t in sampled)
        pooled_cycles = sum(t.cycles for _, t in sampled)
        pooled_region = sum(t.region_cycles for _, t in sampled)
        cpo = pooled_cycles / max(1, pooled_ops)
        # error bar: half the cycles-per-op spread across the sampled
        # members, scaled to the cluster's ops.  Tiny snapped fragments
        # (a segment can shrink to a handful of ops when region cuts
        # land badly) are excluded from the spread — their per-op cost
        # is dominated by quantisation, not phase behaviour.
        spread_cpos = [
            t.cycles / t.ops for _, t in sampled
            if t.ops >= interval_size // 4
        ]
        half_spread = (
            (max(spread_cpos) - min(spread_cpos)) / 2.0
            if len(spread_cpos) > 1 else 0.0
        )
        stats.append(ClusterStat(
            cluster=cluster_id,
            intervals=len(members),
            ops=cluster_ops,
            rep=rep_idx,
            samples=tuple(idx for idx, _ in sampled),
            sampled_ops=pooled_ops,
            sampled_cycles=pooled_cycles,
            cpo=cpo,
            projected_cycles=cpo * cluster_ops,
            error_cycles=half_spread * cluster_ops,
            region_cycles=pooled_region / max(1, pooled_ops) * cluster_ops,
        ))

    detailed = sum(t.ops + t.warm_ops for t in timings.values())

    return SampleReport(
        workload=workload_key,
        loop=spec.name,
        strategy=strategy.value,
        core=core,
        seed=seed,
        n=n,
        interval_size=interval_size,
        warmup=warmup,
        requested_clusters=clusters,
        k=clustering.k,
        total_ops=run.total_ops,
        intervals=len(run.intervals),
        head_intervals=head_count,
        head_ops=head_ops,
        head_cycles=head_cycles,
        detailed_ops=detailed,
        projected_cycles=head_cycles + round(
            sum(c.projected_cycles for c in stats)
        ),
        projected_region_cycles=head_region + round(
            sum(c.region_cycles for c in stats)
        ),
        clusters=tuple(stats),
    )


def sample_loop(
    spec: "LoopSpec",
    strategy: Strategy,
    seed: int = 0,
    config: MachineConfig = TABLE_I,
    *,
    core: str = "ooo",
    interval_size: int = 2048,
    warmup: int = 1024,
    clusters: int | None = None,
    max_clusters: int = 8,
    samples: int = SAMPLES_PER_CLUSTER,
    n_override: int | None = None,
    use_cache: bool = True,
    workload_key: str = "",
) -> SampleReport:
    """Project whole-program cycles for one loop from sampled intervals.

    Mirrors :func:`~repro.experiments.runner.run_loop` argument
    conventions.  ``workload_key`` names the by_name-resolvable workload
    the spec came from; it travels in the report so any sweep worker can
    regenerate the sampled program from strings alone.  An
    :class:`LsuOverflowError` from a representative's timing degrades to
    the forced sequential fallback, exactly like the exact runner.
    """
    if core not in ("ooo", "inorder"):
        raise ValueError(f"unknown core model {core!r}")
    if interval_size <= 0:
        raise ValueError(f"interval size must be positive, got {interval_size}")
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")
    if samples < 1:
        raise ValueError(f"samples per cluster must be >= 1, got {samples}")
    n = spec.n if n_override is None else min(n_override, spec.n)
    key = (
        "sample", spec.loop.name, strategy, seed, config, core,
        interval_size, warmup, clusters, max_clusters, samples, n,
    )
    cache = result_cache()
    if use_cache:
        payload = cache.get(key)
        if payload is not None:
            return payload["report"]

    try:
        report = _sample_once(
            spec, strategy, seed, n, config, core, interval_size, warmup,
            clusters, max_clusters, samples, workload_key,
        )
    except LsuOverflowError:
        seq_config = config.with_overrides(srv_force_sequential=True)
        report = _sample_once(
            spec, strategy, seed, n, seq_config, core, interval_size,
            warmup, clusters, max_clusters, samples, workload_key,
        )
        report = replace(report, degraded=True)

    if use_cache:
        cache.put(key, {"report": report})
    return report


def sample_named(
    workload_name: str,
    loop_name: str | None = None,
    strategy: Strategy = Strategy.SRV,
    **kwargs,
) -> SampleReport:
    """:func:`sample_loop` addressed by by_name-style workload/loop keys."""
    workload, spec = resolve_spec(workload_name, loop_name)
    return sample_loop(
        spec, strategy, workload_key=workload.name, **kwargs
    )
