"""Tests for :mod:`repro.sample` — interval-sampled simulation.

Covers the contracts the sampler's accuracy rests on:

* warm-state reconstruction — timing a whole trace as one segment
  matches :func:`~repro.pipeline.core.simulate`, and a full-history
  warm-up telescopes exactly (measured pieces sum to the exact total);
* fingerprint determinism — vectors are a pure function of the logged
  ops and the op-indexed event bins; they equal the pinned vectors of a
  fully materialised replay;
* projection determinism — same ``(seed, interval size, k)`` gives a
  byte-identical report on recomputation, and pinned reports fix the
  projections themselves;
* one emulation — the collection pass reads its segments from the
  fingerprint pass's trace log, whose ops equal, field for field, the
  pinned ops a materialised tracer recorded, without emulating again;
* LSU-overflow degradation — the sampler reruns with the sequential
  fallback and marks the report degraded;
* accuracy — suite spot checks stay within the standing 5% bound.
"""

import gc
import math
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from repro.common.errors import LsuOverflowError
from repro.compiler import Strategy
from repro.emu import interpreter as interp_mod
from repro.memory import CacheHierarchy
from repro.observe import events as obs
from repro.observe.events import IntervalCounterSink
from repro.pipeline.core import simulate
from repro.pipeline.stream import time_segment
from repro.sample import (
    cluster_intervals,
    fingerprint_pass,
    resolve_spec,
    safe_cut,
    sample_loop,
    sample_named,
)
from repro.sample import project as project_mod
from repro.sample.project import _build, _sample_once
from repro.workloads import by_name
from tests.pinned import PINS, digest, trace_pin

SUITE_GEOMETRY = dict(interval_size=256, warmup=1536, max_clusters=4)


def _trace_log(workload_name, loop_name, strategy, n):
    _, spec = resolve_spec(workload_name, loop_name)
    interp = _build(spec, strategy, 0, n, project_mod.TABLE_I)
    for _ in interp.iter_trace():
        pass
    return interp.tracer


# ---------------------------------------------------------------------------
# warm-state contract: time_segment vs exact simulation
# ---------------------------------------------------------------------------


class TestWarmStateContract:
    def test_whole_trace_segment_matches_simulate(self):
        log = _trace_log("hmmer", "viterbi", Strategy.SRV, 128)
        exact = simulate(log, warm=True)
        timing = time_segment(log, range(len(log)))
        assert timing.cycles == exact.cycles == PINS["hmmer_viterbi_128_cycles"]
        assert timing.warm_ops == 0

    def test_full_history_warm_telescopes_exactly(self):
        log = _trace_log("hmmer", "viterbi", Strategy.SRV, 128)
        exact = simulate(log, warm=True)
        # split at a region-safe cut near the middle
        cut = next(
            i for i in range(len(log) // 2, len(log))
            if safe_cut(log.bits[i])
        )
        head = time_segment(log, range(cut))
        tail = time_segment(log, range(cut, len(log)), warm=range(cut))
        assert head.cycles + tail.cycles == exact.cycles

    def test_warm_window_must_end_at_the_segment(self):
        log = _trace_log("hmmer", "viterbi", Strategy.SRV, 128)
        with pytest.raises(ValueError, match="warm-up window"):
            time_segment(log, range(20, 40), warm=range(10))


# ---------------------------------------------------------------------------
# fingerprint determinism: streaming pass == materialised replay
# ---------------------------------------------------------------------------


class TestFingerprintDeterminism:
    @pytest.mark.parametrize("loop", [("hmmer", "viterbi"),
                                      ("gobmk", None)])
    def test_stream_pass_matches_materialised_replay(self, loop):
        workload_key, loop_name = loop
        _, spec = resolve_spec(workload_key, loop_name)
        interp = _build(spec, Strategy.SRV, 0, 96, project_mod.TABLE_I)
        run = fingerprint_pass(interp, 128)
        assert digest([iv.vector for iv in run.intervals]) == \
            PINS["fingerprints"][spec.name]

    def test_pass_leaves_no_cycle_holding_the_memory_image(self):
        # the sampler's memory images run to megabytes; a reference cycle
        # through the pass would keep each alive until the cycle
        # collector happened to run
        _, spec = resolve_spec("hmmer", "viterbi")
        interp = _build(spec, Strategy.SRV, 0, 96, project_mod.TABLE_I)
        image = weakref.ref(interp.memory)
        gc.collect()
        gc.disable()
        try:
            fingerprint_pass(interp, 128, feed_caches=CacheHierarchy())
            del interp
            assert image() is None
        finally:
            gc.enable()

    def test_interval_counter_sink_flush(self):
        sink = IntervalCounterSink(4)
        kind = obs.EventKind.REGION_BEGIN
        for op in (0, 3, 4, 11, -1):  # -1: not op-scoped, dropped
            sink.accept(obs.Event(kind=kind, domain="emu", op=op, t=0))
        first = sink.drain(before=1)
        assert first == [(0, Counter({kind: 2}))]
        rest = sink.drain()
        assert rest == [(1, Counter({kind: 1})), (2, Counter({kind: 1}))]
        assert sink.drain() == []


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------


class TestClustering:
    def test_forced_k_is_honoured(self):
        vectors = [(float(i % 3), float(i % 3)) for i in range(12)]
        assert cluster_intervals(vectors, seed=0, k=2).k == 2

    def test_bic_recovers_planted_structure(self):
        vectors = [(0.0, 0.0)] * 10 + [(10.0, 10.0)] * 10
        clustering = cluster_intervals(vectors, seed=0, max_k=4)
        assert clustering.k == 2

    def test_same_seed_same_assignment(self):
        vectors = [(float(i % 5), float(i * 7 % 11)) for i in range(40)]
        a = cluster_intervals(vectors, seed=3, max_k=6)
        b = cluster_intervals(vectors, seed=3, max_k=6)
        assert a == b


# ---------------------------------------------------------------------------
# projection: determinism, head pinning, accuracy spot checks
# ---------------------------------------------------------------------------


class TestProjection:
    def test_report_byte_identical_on_recompute(self):
        reports = [
            sample_named(
                "hmmer", "viterbi", Strategy.SRV,
                use_cache=False, **SUITE_GEOMETRY,
            )
            for _ in range(2)
        ]
        assert reports[0].format_report() == reports[1].format_report()
        assert reports[0].to_obj() == reports[1].to_obj()

    def test_head_is_pinned_not_extrapolated(self):
        report = sample_named(
            "hmmer", "viterbi", Strategy.SRV,
            use_cache=False, **SUITE_GEOMETRY,
        )
        expected_head = min(
            math.ceil(SUITE_GEOMETRY["warmup"]
                      / SUITE_GEOMETRY["interval_size"]),
            report.intervals,
        )
        assert report.head_intervals == expected_head
        assert report.head_ops > 0
        # head intervals never appear among a cluster's projected members
        head = set(range(report.head_intervals))
        for cluster in report.clusters:
            assert report.head_cycles > 0
            assert not head.intersection(cluster.samples) or (
                # a cluster whose members are ALL pinned may fall back
                cluster.ops == 0
            )

    @pytest.mark.parametrize("loop,strategy", [
        (("hmmer", "viterbi"), Strategy.SRV),
        (("gcc", "regalloc"), Strategy.SVE),
    ])
    def test_suite_spot_accuracy_within_bound(self, loop, strategy):
        from repro.experiments.runner import run_loop

        workload_key, loop_name = loop
        workload, spec = resolve_spec(workload_key, loop_name)
        exact = run_loop(spec, strategy)
        report = sample_loop(
            spec, strategy, workload_key=workload.name,
            use_cache=False, **SUITE_GEOMETRY,
        ).with_exact(exact.cycles)
        assert abs(report.error_pct) <= 5.0
        assert report.projected_cycles > 0

    def test_validation_errors(self):
        _, spec = resolve_spec("hmmer", "viterbi")
        with pytest.raises(ValueError, match="interval size"):
            sample_loop(spec, Strategy.SRV, interval_size=0)
        with pytest.raises(ValueError, match="samples per cluster"):
            sample_loop(spec, Strategy.SRV, samples=0)
        with pytest.raises(ValueError, match="core model"):
            sample_loop(spec, Strategy.SRV, core="quantum")


# ---------------------------------------------------------------------------
# pinned reports: the projections themselves, not just their determinism
# ---------------------------------------------------------------------------

_NO_EXACT = dict(degraded=False, exact_cycles=None, error_pct=None)


def _cluster(cluster, intervals, ops, rep, samples, sampled_ops,
             sampled_cycles, cpo, projected, error, region):
    return dict(
        cluster=cluster, intervals=intervals, ops=ops, rep=rep,
        samples=samples, sampled_ops=sampled_ops,
        sampled_cycles=sampled_cycles, cpo=cpo, projected_cycles=projected,
        error_cycles=error, region_cycles=region,
    )


PINNED_REPORTS = [
    (("hmmer", "viterbi"), SUITE_GEOMETRY, dict(
        workload="hmmer", loop="hmmer_viterbi_row", strategy="srv",
        core="ooo", seed=0, n=64, interval_size=256, warmup=1536,
        requested_clusters=None, k=1, total_ops=120, intervals=1,
        head_intervals=1, head_ops=120, head_cycles=197, detailed_ops=120,
        reduction=1.0, projected_cycles=197, projected_region_cycles=143,
        **_NO_EXACT,
        clusters=[
            _cluster(0, 0, 0, 0, [0], 120, 197, 1.641667, 0.0, 0.0, 0.0),
        ],
    )),
    (("gobmk", None), SUITE_GEOMETRY, dict(
        workload="gobmk", loop="gobmk_influence_decay", strategy="srv",
        core="ooo", seed=0, n=361, interval_size=256, warmup=1536,
        requested_clusters=None, k=2, total_ops=512, intervals=2,
        head_intervals=2, head_ops=512, head_cycles=750, detailed_ops=779,
        reduction=0.657, projected_cycles=750, projected_region_cycles=1717,
        **_NO_EXACT,
        clusters=[
            _cluster(0, 0, 0, 1, [1], 245, 260, 1.061224, 0.0, 0.0, 0.0),
            _cluster(1, 0, 0, 0, [0], 267, 490, 1.835206, 0.0, 0.0, 0.0),
        ],
    )),
    # short intervals: a tail cluster is extrapolated from three samples
    # timed on ambient cache clones
    (("gobmk", None), dict(interval_size=64, warmup=128, max_clusters=4),
     dict(
        workload="gobmk", loop="gobmk_influence_decay", strategy="srv",
        core="ooo", seed=0, n=361, interval_size=64, warmup=128,
        requested_clusters=None, k=2, total_ops=512, intervals=8,
        head_intervals=2, head_ops=135, head_cycles=238, detailed_ops=785,
        reduction=0.652, projected_cycles=928, projected_region_cycles=608,
        **_NO_EXACT,
        clusters=[
            _cluster(0, 6, 384, 2, [2, 4, 7], 196, 352, 1.795918, 689.63,
                     66.55, 450.61),
            _cluster(1, 0, 0, 0, [0], 69, 112, 1.623188, 0.0, 0.0, 0.0),
        ],
    )),
]


@pytest.mark.parametrize(
    "loop, geometry, expected", PINNED_REPORTS,
    ids=["hmmer-viterbi", "gobmk", "gobmk-short-intervals"],
)
def test_report_matches_pinned_values(loop, geometry, expected):
    report = sample_named(*loop, Strategy.SRV, use_cache=False, **geometry)
    assert report.to_obj() == expected


# ---------------------------------------------------------------------------
# one emulation: the collection pass walks the fingerprinted log
# ---------------------------------------------------------------------------

#: (loop, strategy, trip cap, sequential fallback, op fields some op must
#: set away from their default)
ROUND_TRIP_LOOPS = [
    (("hmmer", "viterbi"), Strategy.SRV, None, False,
     ("region_event", "replay_lanes", "mem")),
    (("hmmer", "viterbi"), Strategy.SRV, None, True,
     ("region_event", "replay_lanes", "in_fallback")),
    (("gobmk", None), Strategy.SRV, None, False, ("region_event", "mem")),
    (("gcc", "regalloc"), Strategy.SVE, 64, False, ("branch_taken", "mem")),
]


class TestOneEmulation:
    def test_one_interpreter_one_run_no_iter_trace(self, monkeypatch):
        calls = Counter()
        cls = interp_mod.Interpreter
        init, run, iter_trace = cls.__init__, cls.run, cls.iter_trace

        def counting_init(self, *args, **kwargs):
            calls["init"] += 1
            init(self, *args, **kwargs)

        def counting_run(self):
            calls["run"] += 1
            return run(self)

        def counting_iter_trace(self):
            calls["iter_trace"] += 1
            return iter_trace(self)

        monkeypatch.setattr(cls, "__init__", counting_init)
        monkeypatch.setattr(cls, "run", counting_run)
        monkeypatch.setattr(cls, "iter_trace", counting_iter_trace)
        _, spec = resolve_spec("gobmk")
        sample_loop(spec, Strategy.SRV, use_cache=False,
                    interval_size=64, warmup=128, max_clusters=4)
        assert calls == Counter(init=1, run=1)

    @pytest.mark.parametrize(
        "loop, strategy, n, sequential, exercised", ROUND_TRIP_LOOPS,
        ids=["hmmer-srv", "hmmer-srv-sequential", "gobmk-srv", "gcc-sve"],
    )
    def test_collected_ops_equal_a_tracer_run(
        self, monkeypatch, loop, strategy, n, sequential, exercised,
    ):
        config = project_mod.TABLE_I.with_overrides(
            srv_force_sequential=sequential,
        )
        workload, spec = resolve_spec(*loop)
        n = spec.n if n is None else min(n, spec.n)
        received = []
        collect = project_mod.collect_segments

        def recording_collect(log, *args, **kwargs):
            received.append(log)
            return collect(log, *args, **kwargs)

        monkeypatch.setattr(project_mod, "collect_segments",
                            recording_collect)
        sample_loop(spec, strategy, config=config, n_override=n,
                    use_cache=False, interval_size=64, warmup=128)

        (log,) = received
        ops = [log.op(index) for index in range(len(log))]
        for name in exercised:
            assert any(getattr(op, name) for op in ops), name
        assert trace_pin(log) == PINS["collected"][
            f"{spec.name}/{strategy.name}/{n}/{sequential}"]


# ---------------------------------------------------------------------------
# LSU-overflow degradation
# ---------------------------------------------------------------------------


def test_lsu_overflow_degrades_to_the_sequential_fallback(monkeypatch):
    timed = project_mod.time_segment

    def overflowing(log, ops, config, **kwargs):
        if not config.srv_force_sequential:
            raise LsuOverflowError("planted overflow")
        return timed(log, ops, config, **kwargs)

    monkeypatch.setattr(project_mod, "time_segment", overflowing)
    workload, spec = resolve_spec("gobmk")
    geometry = dict(interval_size=64, warmup=128, max_clusters=4)
    report = sample_loop(spec, Strategy.SRV, use_cache=False,
                         workload_key=workload.name, **geometry)
    assert report.degraded
    seq_config = project_mod.TABLE_I.with_overrides(
        srv_force_sequential=True,
    )
    direct = _sample_once(
        spec, Strategy.SRV, 0, spec.n, seq_config, "ooo",
        geometry["interval_size"], geometry["warmup"], None,
        geometry["max_clusters"], project_mod.SAMPLES_PER_CLUSTER,
        workload.name,
    )
    assert not direct.degraded
    assert report == replace(direct, degraded=True)


# ---------------------------------------------------------------------------
# by_name-style resolution and the generated :n suffix
# ---------------------------------------------------------------------------


class TestResolution:
    def test_resolve_spec_loop_optional_for_single_loop(self):
        workload, spec = resolve_spec("gobmk")
        assert spec in workload.loops

    def test_resolve_spec_substring_and_errors(self):
        _, spec = resolve_spec("hmmer", "vit")
        assert "viterbi" in spec.name
        with pytest.raises(KeyError):
            resolve_spec("hmmer", "no_such_loop")

    def test_generated_n_suffix_round_trips_through_by_name(self):
        from repro.gen.emitter import workload_name

        name = workload_name(1, 1, n=4096)
        assert ":n4096" in name
        workload = by_name(name)
        assert workload.name == name
        assert all(spec.n == 4096 for spec in workload.loops)
