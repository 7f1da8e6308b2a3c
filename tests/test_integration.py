"""Cross-layer integration tests.

These exercise the full stack — compiler → emulator → trace → timing
models → hardware LSU — and assert the cross-model invariants that anchor
the reproduction:

* the LSU bit-vector hardware flags exactly the lanes the functional
  emulator replays (checked by ``validate_lsu=True`` raising otherwise);
* all timing models agree on instruction counts;
* every execution mode (TM, relaxed barrier, interrupts, in-order)
  preserves the sequential-semantics oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import TABLE_I
from repro.common.rng import periodic_conflict_indices, sparse_conflict_indices
from repro.compiler import Strategy, compile_loop, scalar_reference
from repro.emu import Interpreter, run_program
from repro.memory import MemoryImage
from repro.pipeline import TraceLog, simulate
from repro.pipeline.inorder import simulate_in_order
from repro.workloads import ALL_WORKLOADS
from repro.workloads.base import histogram, indirect_update

N = 64


def build_and_trace(loop, arrays, n, strategy, config=TABLE_I, **interp_kw):
    mem = MemoryImage()
    for name, init in arrays.items():
        mem.alloc(name, len(init), loop.arrays[name], init=init)
    program = compile_loop(loop, mem, n, strategy)
    log = TraceLog(program)
    interp = Interpreter(program, mem, config, tracer=log, **interp_kw)
    metrics = interp.run()
    return mem, metrics, log


class TestLsuCrossValidation:
    """validate_lsu=True raises PipelineError on any replay-set mismatch
    between the section IV hardware model and the functional emulator."""

    @settings(max_examples=25, deadline=None)
    @given(x_vals=st.lists(st.integers(0, N - 1), min_size=N, max_size=N))
    def test_property_random_indices(self, x_vals):
        arrays = {"a": list(range(N)), "x": x_vals}
        mem, _, trace = build_and_trace(indirect_update(), arrays, N, Strategy.SRV)
        simulate(trace, validate_lsu=True, warm=True)  # must not raise

    def test_histogram_collisions(self):
        # i % 8: every bin is hit twice per 16-lane group -> genuine
        # gather/scatter RMW collisions and replays
        arrays = {"h": [0] * 16, "x": [i % 8 for i in range(N)]}
        mem, metrics, trace = build_and_trace(histogram(), arrays, N, Strategy.SRV)
        assert metrics.srv.replays > 0
        simulate(trace, validate_lsu=True, warm=True)

    def test_every_workload_validates(self):
        for workload in ALL_WORKLOADS:
            for spec in workload.loops:
                arrays = spec.arrays(0)
                mem = MemoryImage()
                for name, init in arrays.items():
                    mem.alloc(name, len(init), spec.loop.arrays[name], init=init)
                n = min(spec.n, 64)
                program = compile_loop(
                    spec.loop, mem, n, Strategy.SRV, params=spec.params
                )
                log = TraceLog(program)
                run_program(program, mem, tracer=log)
                simulate(log, validate_lsu=True, warm=True)


class TestTimingModelAgreement:
    def test_instruction_counts_agree(self):
        arrays = {"a": list(range(N)), "x": periodic_conflict_indices(N, 4)}
        _, metrics, trace = build_and_trace(indirect_update(), arrays, N, Strategy.SRV)
        ooo = simulate(trace, warm=True)
        ino = simulate_in_order(trace, warm=True)
        assert ooo.instructions == ino.instructions == len(trace)
        assert ooo.srv_regions == ino.srv_regions

    def test_ooo_never_slower_than_inorder(self):
        for strategy in (Strategy.SCALAR, Strategy.SRV):
            arrays = {"a": list(range(N)), "x": list(range(N))}
            _, _, trace = build_and_trace(indirect_update(), arrays, N, strategy)
            assert (
                simulate(trace, warm=True).cycles
                <= simulate_in_order(trace, warm=True).cycles
            )


class TestModeCombinations:
    @settings(max_examples=15, deadline=None)
    @given(
        rate=st.floats(0.0, 1.0),
        seed=st.integers(0, 100),
        tm=st.booleans(),
        interrupt=st.integers(0, 80),
    )
    def test_property_modes_preserve_semantics(self, rate, seed, tm, interrupt):
        """TM mode and interrupt injection, combined, at any conflict rate,
        must still match sequential execution."""
        loop = indirect_update()
        x_vals = sparse_conflict_indices(N, 16, rate, seed=seed)
        arrays = {"a": [(seed + i) % 97 for i in range(N)], "x": x_vals}
        oracle = scalar_reference(loop, arrays, N)
        config = TABLE_I.with_overrides(srv_tm_mode=tm)
        mem, metrics, _ = build_and_trace(
            loop, arrays, N, Strategy.SRV, config=config,
            interrupt_at_step=interrupt or None,
        )
        assert mem.load_array(mem.allocation("a")) == oracle["a"]
        assert metrics.srv.max_replays_in_region <= 15

    def test_relaxed_barrier_all_workload_loops(self):
        relaxed = TABLE_I.with_overrides(srv_relax_barrier=True)
        for workload in ALL_WORKLOADS[:4]:
            for spec in workload.loops:
                arrays = spec.arrays(0)
                mem = MemoryImage()
                for name, init in arrays.items():
                    mem.alloc(name, len(init), spec.loop.arrays[name], init=init)
                n = min(spec.n, 48)
                program = compile_loop(
                    spec.loop, mem, n, Strategy.SRV, params=spec.params
                )
                log = TraceLog(program)
                run_program(program, mem, tracer=log)
                base = simulate(log, TABLE_I, warm=True)
                fast = simulate(log, relaxed, warm=True)
                assert fast.cycles <= base.cycles, spec.name


class TestEndToEndStrategies:
    @pytest.mark.parametrize(
        "pattern",
        ["identity", "periodic", "sparse"],
    )
    def test_four_strategies_agree(self, pattern):
        n = 48
        loop = indirect_update()
        x_vals = {
            "identity": list(range(n)),
            "periodic": periodic_conflict_indices(n, 4),
            "sparse": sparse_conflict_indices(n, 16, 0.4, seed=1),
        }[pattern]
        arrays = {"a": list(range(n)), "x": x_vals}
        oracle = scalar_reference(loop, arrays, n)
        outputs = {}
        for strategy in Strategy:
            mem, _, _ = build_and_trace(loop, arrays, n, strategy)
            outputs[strategy] = mem.load_array(mem.allocation("a"))
        for strategy, got in outputs.items():
            assert got == oracle["a"], strategy


class TestRobustness:
    def test_violator_set_stable_across_seeds(self):
        """The figure 9 violator set must not be a seed artefact."""
        from repro.experiments.runner import clear_cache, run_loop

        for seed in (0, 1, 2):
            clear_cache()
            violators = set()
            for workload in ALL_WORKLOADS:
                raw = 0
                for spec in workload.loops:
                    run = run_loop(spec, Strategy.SRV, seed=seed, timing=False)
                    assert run.correct, (workload.name, spec.name, seed)
                    raw += run.emu.srv.raw_violations
                if raw:
                    violators.add(workload.name)
            assert violators == {"bzip2", "hmmer", "is", "randacc"}, seed

    def test_down_loop_full_stack(self):
        """A decreasing-induction-variable loop runs through the whole
        stack with the DOWN attribute and validates against the LSU."""
        from repro.compiler import Affine, BinOp, Const, Indirect, Loop, Read, Store

        loop = Loop(
            "down_stack", {"a": 4, "x": 4},
            [Store("a", Indirect("x"), BinOp("+", Read("a", Affine()), Const(1)))],
            step=-1,
        )
        arrays = {"a": list(range(N)), "x": list(range(N))}
        oracle = scalar_reference(loop, arrays, N)
        mem, metrics, trace = build_and_trace(loop, arrays, N, Strategy.SRV)
        assert mem.load_array(mem.allocation("a")) == oracle["a"]
        from repro.isa import SrvDirection

        ops = [trace.op(index) for index in range(len(trace))]
        starts = [op for op in ops if op.op_class.name == "SRV_START"]
        assert all(op.direction is SrvDirection.DOWN for op in starts)
        stats = simulate(trace, validate_lsu=True, warm=True)
        assert stats.srv_regions == N // 16
