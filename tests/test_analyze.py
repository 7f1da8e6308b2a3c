"""Tests for ``repro.analyze``: verdict units, guided codegen, the
pinned suite confusion matrix, and the soundness fuzzer.

The load-bearing assertions are the soundness ones: a region the
analysis marks ``NO_CONFLICT`` must never replay (pinned over all 28
suite loops against observed ``LANE_REPLAY`` events, and hunted over
generated kernels by ``repro fuzz --analyze-diff``), and a planted
must-conflict kernel must never be marked safe.
"""

import pytest

from repro.analyze import (
    DENSE_LANE_THRESHOLD,
    Region,
    RegionPlan,
    RegionVerdict,
    analyse_conflicts,
    analyse_spec,
    gather_facts,
    guided_plan,
    plan_from_conflicts,
    statement_refs,
)
from repro.common.config import TABLE_I
from repro.compiler import (
    Affine,
    BinOp,
    Const,
    DepClass,
    Indirect,
    Loop,
    Read,
    Store,
    Strategy,
    compile_loop,
    region_class,
    scalar_reference,
)
from repro.emu import run_program
from repro.experiments.analyze_guided import CONFUSION_CELLS, run as run_analyze_guided
from repro.gen import FuzzConfig, check_kernel, generate_kernel, kernel_seed, run_fuzz
from repro.isa.instructions import SrvEnd, SrvStart
from repro.memory import MemoryImage
from repro.observe import RegionTruth, ReplayTruth, confusion_cell, replay_truth
from repro.workloads.base import LoopSpec

N = 64
VL = 16


def make_spec(loop, arrays, n=N):
    frozen = {name: list(values) for name, values in arrays.items()}
    return LoopSpec(
        loop=loop, n=n,
        arrays=lambda seed: {k: list(v) for k, v in frozen.items()},
    )


def histogram_loop(idx, name="t_hist"):
    """``a[idx[i]] += 1`` — conflicts are exactly idx's duplicates."""
    loop = Loop(name, {"a": 4, "idx": 4}, [
        Store("a", Indirect("idx"),
              BinOp("+", Read("a", Indirect("idx")), Const(1))),
    ])
    return loop, {"a": [0] * N, "idx": list(idx)}


def disjoint_loop():
    """``b[i] = a[i] + 1`` — no cross-lane hazard exists."""
    loop = Loop("t_disjoint", {"a": 4, "b": 4}, [
        Store("b", Affine(), BinOp("+", Read("a", Affine()), Const(1))),
    ])
    return loop, {"a": list(range(N)), "b": [0] * N}


def prefix_loop():
    """Safe statement, then a genuinely conflicting histogram."""
    loop = Loop("t_prefix", {"a": 4, "b": 4, "c": 4, "idx": 4}, [
        Store("c", Affine(), BinOp("+", Read("b", Affine()), Const(1))),
        Store("a", Indirect("idx"),
              BinOp("+", Read("a", Indirect("idx")), Const(1))),
    ])
    arrays = {"a": [0] * N, "b": list(range(N)), "c": [0] * N,
              "idx": [i // 2 for i in range(N)]}
    return loop, arrays


def run_strategy(loop, arrays, n, strategy):
    mem = MemoryImage()
    for name, values in arrays.items():
        mem.alloc(name, len(values), loop.arrays[name], init=values)
    prog = compile_loop(loop, mem, n, strategy)
    run_program(prog, mem)
    return ({name: mem.load_array(mem.allocation(name)) for name in arrays},
            prog)


class TestVerdicts:
    def test_affine_disjoint_is_no_conflict(self):
        loop, arrays = disjoint_loop()
        analysis = analyse_spec(make_spec(loop, arrays), "t")
        assert analysis.mode == "regions"
        assert analysis.loop_verdict is RegionVerdict.NO_CONFLICT
        assert analysis.proven_safe_regions >= 1
        assert not analysis.plan.speculative

    def test_injective_table_beats_banerjee(self):
        # the point of the abstract table domain: Banerjee says UNKNOWN
        # for any indirection, but known injective contents prove safety
        loop, arrays = histogram_loop(reversed(range(N)))
        assert region_class(loop, None, VL) is DepClass.UNKNOWN
        analysis = analyse_spec(make_spec(loop, arrays), "t")
        assert analysis.loop_verdict is RegionVerdict.NO_CONFLICT

    def test_duplicate_table_is_must_conflict_with_witness(self):
        loop, arrays = histogram_loop(i // 2 for i in range(N))
        analysis = analyse_spec(make_spec(loop, arrays), "t")
        assert analysis.loop_verdict is RegionVerdict.MUST_CONFLICT
        region = analysis.regions[-1]
        assert region.conflict_pairs
        assert "a[" in region.witness and "lanes" in region.witness

    def test_stored_table_is_may_conflict(self):
        # storing to the index table voids its invariance: the analysis
        # must admit it cannot resolve the gather
        loop = Loop("t_mut", {"a": 4, "idx": 4}, [
            Store("idx", Affine(), Const(0)),
            Store("a", Indirect("idx"),
                  BinOp("+", Read("a", Indirect("idx")), Const(1))),
        ])
        arrays = {"a": [0] * N, "idx": list(range(N))}
        analysis = analyse_spec(make_spec(loop, arrays), "t")
        assert analysis.loop_verdict is RegionVerdict.MAY_CONFLICT
        assert analysis.unresolved

    def test_planted_conflict_is_never_marked_safe(self):
        # the soundness acceptance test: a kernel with a guaranteed
        # same-group collision must not be proven safe
        for idx in ([0] * N, [i % 4 for i in range(N)],
                    [3, 3] + list(range(2, N))):
            loop, arrays = histogram_loop(idx, name="t_plant")
            analysis = analyse_spec(make_spec(loop, arrays), "t")
            assert analysis.loop_verdict is not RegionVerdict.NO_CONFLICT
            assert analysis.plan.speculative

    def test_dense_region_gets_sequential_hint(self):
        loop, arrays = histogram_loop([0] * N)
        analysis = analyse_spec(make_spec(loop, arrays), "t")
        region = analysis.regions[-1]
        assert region.verdict is RegionVerdict.MUST_CONFLICT
        assert region.density > DENSE_LANE_THRESHOLD
        assert region.region.sequential

    def test_sparse_conflict_keeps_speculation(self):
        loop, arrays = histogram_loop([1, 1] + list(range(2, N)))
        analysis = analyse_spec(make_spec(loop, arrays), "t")
        region = analysis.regions[-1]
        assert region.verdict is RegionVerdict.MUST_CONFLICT
        assert region.density <= DENSE_LANE_THRESHOLD
        assert not region.region.sequential

    def test_verdicts_are_input_aware(self):
        # same loop, different seeded contents, different verdict — the
        # analysis is sound per (spec, seed, n), not per loop shape
        loop, safe = histogram_loop(range(N))
        _, dup = histogram_loop([0] * N)
        assert (analyse_spec(make_spec(loop, safe), "t").loop_verdict
                is RegionVerdict.NO_CONFLICT)
        assert (analyse_spec(make_spec(loop, dup), "t").loop_verdict
                is RegionVerdict.MUST_CONFLICT)

    def test_statement_refs_orders_table_before_data(self):
        loop, _ = histogram_loop(range(N))
        refs = statement_refs(loop)
        tables = [r for r in refs if r.is_table]
        assert tables, "indirect refs must surface their table loads"
        first_data = next(r for r in refs if not r.is_table)
        assert tables[0].order < first_data.order


class TestGuidedPlan:
    def test_safe_loop_plans_no_regions(self):
        loop, arrays = disjoint_loop()
        plan = guided_plan(loop, gather_facts(loop, arrays), N)
        assert [r.speculative for r in plan.regions] == [False]

    def test_prefix_escapes_speculation(self):
        loop, arrays = prefix_loop()
        plan = guided_plan(loop, gather_facts(loop, arrays), N)
        assert [(r.start, r.stop, r.speculative) for r in plan.regions] \
            == [(0, 1, False), (1, 2, True)]

    def test_plan_covers_body_gap_free(self):
        loop, arrays = prefix_loop()
        plan = guided_plan(loop, gather_facts(loop, arrays), N)
        assert plan.statement_count == len(loop.body)
        with pytest.raises(Exception):
            RegionPlan((Region(0, 1, speculative=False),
                        Region(2, 3, speculative=True)))

    def test_plan_from_conflicts_merges_spans(self):
        plan = plan_from_conflicts(4, {(1, 3)})
        spans = [(r.start, r.stop, r.speculative) for r in plan.regions]
        assert (1, 4, True) in spans or (1, 3 + 1, True) in spans
        assert plan.region_of(0) is not plan.region_of(1)


class TestGuidedCodegen:
    def test_safe_loop_compiles_without_brackets(self):
        loop, arrays = disjoint_loop()
        mem = MemoryImage()
        for name, values in arrays.items():
            mem.alloc(name, len(values), 4, init=values)
        guided = compile_loop(loop, mem, N, Strategy.SRV_GUIDED)
        base = compile_loop(loop, mem, N, Strategy.SRV)
        assert not any(isinstance(i, (SrvStart, SrvEnd))
                       for i in guided.instructions)
        assert any(isinstance(i, SrvStart) for i in base.instructions)

    def test_conflicted_loop_keeps_brackets(self):
        loop, arrays = histogram_loop([i // 2 for i in range(N)])
        mem = MemoryImage()
        for name, values in arrays.items():
            mem.alloc(name, len(values), 4, init=values)
        guided = compile_loop(loop, mem, N, Strategy.SRV_GUIDED)
        starts = [i for i in guided.instructions if isinstance(i, SrvStart)]
        assert starts and not starts[0].sequential

    def test_dense_loop_gets_sequential_start(self):
        loop, arrays = histogram_loop([0] * N)
        mem = MemoryImage()
        for name, values in arrays.items():
            mem.alloc(name, len(values), 4, init=values)
        guided = compile_loop(loop, mem, N, Strategy.SRV_GUIDED)
        starts = [i for i in guided.instructions if isinstance(i, SrvStart)]
        assert starts and starts[0].sequential
        assert "seq" in repr(starts[0])

    @pytest.mark.parametrize("builder", [
        disjoint_loop, prefix_loop,
        lambda: histogram_loop([i // 2 for i in range(N)]),
        lambda: histogram_loop([0] * N),
    ])
    def test_guided_matches_scalar_reference(self, builder):
        loop, arrays = builder()
        ref = scalar_reference(loop, arrays, N)
        out, _ = run_strategy(loop, arrays, N, Strategy.SRV_GUIDED)
        for name in arrays:
            assert out[name] == ref[name], name


class TestRegionClassAPI:
    def test_region_class_subset_granularity(self):
        loop, _ = prefix_loop()
        assert region_class(loop, [0]) in (DepClass.NONE,
                                           DepClass.PROVABLE_SAFE)
        assert region_class(loop, [1]) is DepClass.UNKNOWN


class TestReplayTruth:
    def _truth(self, replayed=0, fallbacks=0, degraded=False):
        return ReplayTruth(
            regions=(RegionTruth(0, 4, replayed, fallbacks),),
            degraded=degraded,
        )

    def test_confusion_cells(self):
        assert confusion_cell("no_conflict", self._truth()) \
            == "proven_safe_clean"
        assert confusion_cell("no_conflict", self._truth(replayed=1)) \
            == "false_safe"
        assert confusion_cell("must_conflict", self._truth(replayed=2)) \
            == "predicted_replay_hit"
        assert confusion_cell("must_conflict", self._truth()) \
            == "predicted_replay_miss"
        assert confusion_cell("may_conflict", self._truth(replayed=1)) \
            == "unknown_replayed"
        assert confusion_cell("may_conflict", self._truth()) \
            == "unknown_clean"
        assert confusion_cell("must_conflict", self._truth(degraded=True)) \
            == "fallback"

    def test_fold_maps_dynamic_entries_to_static_regions(self):
        from repro.observe.events import Event, EventKind

        events = [
            Event(kind=EventKind.REGION_BEGIN, domain="emu", op=-1, t=0,
                  data=(("region", k),))
            for k in range(4)
        ] + [
            Event(kind=EventKind.LANE_REPLAY, domain="emu", op=-1, t=1,
                  lane=5, data=(("region", 3),)),
        ]
        truth = replay_truth(events, 2)
        assert truth.regions[0].entries == 2
        assert truth.regions[1].entries == 2
        # dynamic entry 3 -> static region 3 % 2 == 1
        assert truth.regions[1].replayed_lanes == 1
        assert not truth.regions[0].replayed


class TestSuiteConfusionMatrix:
    """Pinned over all 28 suite loops at n=64: static verdict vs the
    replay events the instrumented baseline-SRV run actually emitted."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_analyze_guided(n_override=64)

    def test_no_false_safe_and_matrix_pinned(self, result):
        matrix = result.summary["confusion_matrix"]
        assert set(matrix) == set(CONFUSION_CELLS)
        assert matrix["false_safe"] == 0
        assert matrix == {
            "proven_safe_clean": 19,
            "false_safe": 0,
            "predicted_replay_hit": 2,
            "predicted_replay_miss": 7,
            "unknown_clean": 0,
            "unknown_replayed": 0,
            "fallback": 0,
        }

    def test_guided_is_result_identical_and_never_slower(self, result):
        assert result.summary["result_mismatches"] == []
        assert result.summary["guided_regressions"] == []
        assert result.clean

    def test_safe_regions_save_cycles(self, result):
        assert result.summary["loops_with_safe_regions"] > 0
        assert result.summary["total_cycles_saved"] > 0
        for row in result.rows:
            if row[2] == "no_conflict":      # fully-proven loops
                assert row[6] >= 0           # cycle_delta

    def test_covers_every_suite_loop(self, result):
        assert len(result.rows) == 28


class TestAnalyzeDiffFuzz:
    def test_clean_campaign_passes(self, tmp_path):
        report = run_fuzz(FuzzConfig(
            count=4, seed=5, analyze_diff=True, use_cache=False,
            out_dir=tmp_path,
        ))
        obj = report.to_obj()
        assert obj["analyze_diff"] is True
        assert obj["passed"] == 4 and obj["failed"] == 0

    def test_planted_elide_regions_fails_and_shrinks(self, tmp_path):
        # campaign seed 5, kernel 0 has a real conflict: stripping every
        # bracket must corrupt it, and the failure must shrink
        report = run_fuzz(FuzzConfig(
            count=1, seed=5, analyze_diff=True, plant="elide-regions",
            shrink=True, use_cache=False, out_dir=tmp_path,
        ))
        failed = [o for o in report.outcomes if o.status == "fail"]
        assert failed
        assert failed[0].reproducer
        assert failed[0].shrink_steps

    def test_elide_regions_spares_conflict_free_kernels(self):
        # kernel 2 of the same campaign has no dynamic conflict, so
        # removing brackets is semantically invisible — the plant only
        # proves the fuzzer sees corruption where corruption occurs
        kernel = generate_kernel(kernel_seed(5, 2))
        cfg = FuzzConfig(count=1, seed=5, analyze_diff=True,
                         plant="elide-regions", use_cache=False)
        ok, _ = check_kernel(kernel.spec, cfg, use_cache=False)
        assert ok

    def test_plant_mode_combinations_are_validated(self):
        kernel = generate_kernel(kernel_seed(5, 0))
        with pytest.raises(ValueError):
            check_kernel(kernel.spec,
                         FuzzConfig(count=1, seed=5, analyze_diff=True,
                                    plant="store-skew", use_cache=False),
                         use_cache=False)
        with pytest.raises(ValueError):
            check_kernel(kernel.spec,
                         FuzzConfig(count=1, seed=5,
                                    plant="elide-regions", use_cache=False),
                         use_cache=False)

    def test_soundness_over_generated_kernels(self):
        # a direct (uncached) sweep of the first kernels of the pinned
        # campaign seed; the 120-kernel acceptance campaign runs in CI
        cfg = FuzzConfig(count=1, seed=11, analyze_diff=True,
                         use_cache=False)
        for k in range(6):
            kernel = generate_kernel(kernel_seed(11, k))
            ok, detail = check_kernel(kernel.spec, cfg, use_cache=False)
            assert ok, f"kernel {k}: {detail}"
