"""Tests for the benchmark workloads (section V substitution)."""

import pytest

from repro.common.config import TABLE_I
from repro.compiler import DepClass, Strategy, region_class, scalar_reference
from repro.experiments.runner import clear_cache, run_loop
from repro.workloads import ALL_WORKLOADS, HPC_WORKLOADS, SPEC_WORKLOADS, all_loops, by_name

SMALL_N = 64


class TestSuiteStructure:
    def test_eleven_spec_benchmarks(self):
        """Paper section V: "taking only eleven C/C++ benchmarks from SPEC"."""
        assert len(SPEC_WORKLOADS) == 11

    def test_five_hpc_benchmarks(self):
        assert len(HPC_WORKLOADS) == 5
        assert {w.name for w in HPC_WORKLOADS} == {
            "is", "livermore", "ssca2", "randacc", "lc",
        }

    def test_names_unique(self):
        names = [w.name for w in ALL_WORKLOADS]
        assert len(names) == len(set(names))
        loop_names = [spec.name for _, spec in all_loops()]
        assert len(loop_names) == len(set(loop_names))

    def test_by_name(self):
        assert by_name("bzip2").suite == "spec"
        with pytest.raises(KeyError):
            by_name("nonexistent")

    def test_coverage_values(self):
        """High-coverage benchmarks match figure 6's series."""
        assert by_name("astar").coverage == pytest.approx(0.127)
        assert by_name("milc").coverage == pytest.approx(0.257)
        assert by_name("xalancbmk").coverage == pytest.approx(0.208)
        assert by_name("is").coverage == pytest.approx(0.253)
        assert by_name("randacc").coverage == pytest.approx(0.173)
        assert by_name("lc").coverage == pytest.approx(0.114)
        for workload in ALL_WORKLOADS:
            assert 0 < workload.coverage < 0.30

    def test_weights_normalise(self):
        for workload in ALL_WORKLOADS:
            weights = workload.normalised_weights()
            assert sum(weights) == pytest.approx(1.0)
            assert all(w > 0 for w in weights)


class TestLoopProperties:
    def test_every_loop_is_srv_vectorisable_only(self):
        """Each loop must be blocked for SVE: its class must be UNKNOWN or
        provably unsafe — this is the defining property of the paper's
        SRV-vectorisable loop set."""
        for workload, spec in all_loops():
            cls = region_class(spec.loop, None, TABLE_I.vector_lanes)
            assert cls in (DepClass.UNKNOWN, DepClass.PROVABLE_UNSAFE), (
                workload.name, spec.name, cls,
            )

    def test_array_builders_deterministic(self):
        for _, spec in all_loops():
            assert spec.arrays(7) == spec.arrays(7)

    def test_array_builders_seed_sensitive(self):
        changed = 0
        for _, spec in all_loops():
            if spec.arrays(1) != spec.arrays(2):
                changed += 1
        assert changed > len(ALL_WORKLOADS)  # most builders vary with seed

    def test_arrays_cover_loop_references(self):
        for _, spec in all_loops():
            arrays = spec.arrays(0)
            assert set(arrays) == set(spec.loop.arrays)

    def test_index_arrays_in_bounds(self):
        """Every index value must address inside its target arrays."""
        for workload, spec in all_loops():
            arrays = spec.arrays(3)
            # run the oracle: it raises IndexError on out-of-bounds
            scalar_reference(spec.loop, arrays, spec.n, params=spec.params)

    def test_figure10_histogram_shape(self):
        """80% of SRV-vectorisable loops have <= 10 memory references."""
        counts = [spec.loop.memory_reference_count() for _, spec in all_loops()]
        small = sum(1 for c in counts if c <= 10)
        assert small / len(counts) >= 0.75
        assert any(c > 16 for c in counts)  # figure 10's tail exists


class TestExecution:
    @pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
    def test_srv_correct_for_every_workload(self, workload):
        for spec in workload.loops:
            run = run_loop(spec, Strategy.SRV, seed=1, n_override=SMALL_N,
                           timing=False)
            assert run.correct, (workload.name, spec.name)

    @pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
    def test_sve_falls_back_for_every_workload(self, workload):
        """The SVE binary runs these loops scalar: zero vector instructions."""
        for spec in workload.loops:
            run = run_loop(spec, Strategy.SVE, seed=1, n_override=SMALL_N,
                           timing=False)
            assert run.correct
            assert run.emu.vector_instructions == 0, (workload.name, spec.name)

    def test_violating_benchmarks(self):
        """Only bzip2, hmmer, is and randacc incur run-time violations
        (figure 9); all other workloads run their regions clean."""
        clear_cache()
        violators = set()
        for workload in ALL_WORKLOADS:
            raw = 0
            for spec in workload.loops:
                run = run_loop(spec, Strategy.SRV, seed=0, timing=False)
                assert run.correct
                raw += run.emu.srv.raw_violations
            if raw:
                violators.add(workload.name)
        assert violators == {"bzip2", "hmmer", "is", "randacc"}

    def test_lc_exercises_lsu_fallback(self):
        workload = by_name("lc")
        fallback_specs = [s for s in workload.loops if "dense_flow" in s.name]
        assert fallback_specs
        run = run_loop(fallback_specs[0], Strategy.SRV, timing=False)
        assert run.emu.srv.lsu_fallbacks > 0
        assert run.correct

    def test_srv_uses_fewer_instructions_everywhere(self):
        for workload in ALL_WORKLOADS:
            for spec in workload.loops:
                srv = run_loop(spec, Strategy.SRV, n_override=SMALL_N, timing=False)
                sve = run_loop(spec, Strategy.SVE, n_override=SMALL_N, timing=False)
                assert (
                    srv.emu.dynamic_instructions < sve.emu.dynamic_instructions
                ), (workload.name, spec.name)
