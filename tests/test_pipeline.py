"""Tests for the cycle-approximate pipeline model."""

import pytest

from repro.common.config import TABLE_I
from repro.common.rng import periodic_conflict_indices
from repro.emu import run_program
from repro.isa import CmpOpcode, ProgramBuilder, imm, p, v, x
from repro.isa.instructions import ScalarALU, ScalarOpcode, VecALU, VecOpcode
from repro.memory import MemoryImage
from repro.pipeline import OpClass, PipelineModel, TraceLog, simulate
from repro.pipeline.deps import LATENCY, classify, instruction_regs

LANES = TABLE_I.vector_lanes


def trace_of(builder, mem=None, config=TABLE_I):
    mem = mem or MemoryImage()
    program = builder.build()
    log = TraceLog(program)
    run_program(program, mem, config=config, tracer=log)
    return log


class TestDeps:
    def test_scalar_alu_regs(self):
        srcs, dsts = instruction_regs(ScalarALU(ScalarOpcode.ADD, x(1), x(2), x(3)))
        assert set(srcs) == {("x", 2), ("x", 3)}
        assert dsts == (("x", 1),)

    def test_immediate_not_a_register(self):
        srcs, _ = instruction_regs(ScalarALU(ScalarOpcode.ADD, x(1), x(2), imm(5)))
        assert srcs == (("x", 2),)

    def test_merging_predication_reads_destination(self):
        """Section III-D5: predicated vector writes read the old dest."""
        inst = VecALU(VecOpcode.ADD, v(1), v(2), v(3), pred=p(1))
        srcs, dsts = instruction_regs(inst)
        assert ("v", 1) in srcs
        assert dsts == (("v", 1),)

    def test_unpredicated_write_does_not_read_destination(self):
        inst = VecALU(VecOpcode.ADD, v(1), v(2), v(3))
        srcs, _ = instruction_regs(inst)
        assert ("v", 1) not in srcs

    def test_classification(self):
        from repro.isa.instructions import (
            Branch,
            BranchCond,
            SrvEnd,
            VecLoadGather,
            VecStoreContig,
        )

        assert classify(ScalarALU(ScalarOpcode.MUL, x(1), x(2), x(3))) is OpClass.SCALAR_MUL
        assert classify(VecALU(VecOpcode.ADD, v(1), v(2), v(3))) is OpClass.VEC_INT
        assert classify(VecALU(VecOpcode.FMA, v(1), v(2), v(3), v(4))) is OpClass.VEC_OTHER
        assert classify(VecLoadGather(v(1), x(1), v(2))) is OpClass.VEC_LOAD
        assert classify(VecStoreContig(v(1), x(1))) is OpClass.VEC_STORE
        assert classify(Branch(BranchCond.NE, x(1), imm(0), "a")) is OpClass.BRANCH
        assert classify(SrvEnd()) is OpClass.SRV_END

    def test_all_latencies_defined(self):
        for op_class in OpClass:
            assert op_class in LATENCY


class TestBasicTiming:
    def test_independent_ops_pipeline(self):
        """A run of independent scalar adds should approach width-limited
        throughput, far above 1 op/cycle."""
        b = ProgramBuilder()
        for i in range(4):
            b.mov(x(i + 1), imm(i))
        for _ in range(50):
            for i in range(4):
                b.add(x(i + 1), x(i + 1), imm(1))
        b.halt()
        stats = simulate(trace_of(b))
        assert stats.instructions == 205
        assert stats.ipc > 2.0

    def test_dependent_chain_serialises(self):
        b = ProgramBuilder()
        b.mov(x(1), imm(0))
        for _ in range(100):
            b.add(x(1), x(1), imm(1))
        b.halt()
        stats = simulate(trace_of(b))
        # each add waits for the previous: >= 100 cycles
        assert stats.cycles >= 100

    def test_mul_latency_longer_than_add(self):
        def chain(method):
            b = ProgramBuilder()
            b.mov(x(1), imm(1))
            for _ in range(50):
                getattr(b, method)(x(1), x(1), imm(1))
            b.halt()
            return simulate(trace_of(b)).cycles

        assert chain("mul") > chain("add")

    def test_cycles_positive_for_empty_work(self):
        b = ProgramBuilder()
        b.halt()
        stats = simulate(trace_of(b))
        assert stats.cycles >= 1
        assert stats.instructions == 1


class TestBranchTiming:
    def loop_cycles(self, iters):
        b = ProgramBuilder()
        b.mov(x(1), imm(0))
        b.label("top")
        b.add(x(1), x(1), imm(1))
        b.blt(x(1), imm(iters), "top")
        b.halt()
        return simulate(trace_of(b))

    def test_predictable_loop_fast(self):
        stats = self.loop_cycles(200)
        assert stats.branch.lookups == 200
        # after warm-up the back edge is predicted; mispredict rate is low
        assert stats.branch.mispredict_rate < 0.1

    def test_mispredicts_cost_cycles(self):
        few = self.loop_cycles(8)
        # per-iteration cost should drop once the predictor warms up
        many = self.loop_cycles(400)
        assert many.cycles / 400 < few.cycles / 8


class TestMemoryTiming:
    def test_load_hits_after_warm(self):
        mem = MemoryImage()
        a = mem.alloc("a", 64, 4, init=range(64))
        b = ProgramBuilder()
        b.mov(x(1), imm(a.base))
        for i in range(16):
            b.load(x(2), x(1), 4 * i, elem=4)
        b.halt()
        cold = simulate(trace_of(b, mem.clone()))
        warm = simulate(trace_of(b, mem.clone()), warm=True)
        assert warm.cycles < cold.cycles

    def test_gather_cracking_costs_port_cycles(self):
        mem = MemoryImage()
        a = mem.alloc("a", 64, 4, init=range(64))
        idx = mem.alloc("idx", LANES, 4, init=range(LANES))

        def prog(gather):
            b = ProgramBuilder()
            b.mov(x(1), imm(a.base)).mov(x(2), imm(idx.base))
            for _ in range(10):
                if gather:
                    b.v_load(v(1), x(2))
                    b.v_gather(v(2), x(1), v(1))
                else:
                    b.v_load(v(1), x(2))
                    b.v_load(v(2), x(1))
            b.halt()
            return b

        gather_c = simulate(trace_of(prog(True), mem.clone()), warm=True).cycles
        contig_c = simulate(trace_of(prog(False), mem.clone()), warm=True).cycles
        # 16 micro-ops through 2 load ports vs 1 slot: much slower
        assert gather_c > contig_c + 40

    def test_store_set_squash_and_learning(self):
        """A scalar loop with a store feeding the next iteration's load:
        first encounter squashes, the predictor then serialises them."""
        mem = MemoryImage()
        a = mem.alloc("a", 4, 4, init=[0, 0, 0, 0])
        b = ProgramBuilder()
        b.mov(x(1), imm(a.base)).mov(x(2), imm(0))
        b.label("top")
        b.load(x(3), x(1), 0, elem=4)
        b.add(x(3), x(3), imm(1))
        b.store(x(3), x(1), 0, elem=4)
        b.add(x(2), x(2), imm(1))
        b.blt(x(2), imm(50), "top")
        b.halt()
        stats = simulate(trace_of(b, mem), warm=True)
        assert stats.store_set_squashes >= 1
        # training keeps squashes far below the iteration count
        assert stats.store_set_squashes < 25
        assert stats.store_sets.load_waits > 0


def build_listing2(mem, n):
    a = mem.allocation("a")
    xs = mem.allocation("x")
    b = ProgramBuilder()
    b.mov(x(1), imm(a.base)).mov(x(2), imm(xs.base))
    b.mov(x(3), imm(0)).mov(x(4), imm(n))
    b.label("Loop")
    b.shl(x(7), x(3), imm(2))
    b.add(x(5), x(1), x(7))
    b.add(x(6), x(2), x(7))
    b.srv_start()
    b.v_load(v(0), x(5))
    b.v_add(v(0), v(0), imm(2))
    b.v_load(v(1), x(6))
    b.v_scatter(v(0), x(1), v(1))
    b.srv_end()
    b.add(x(3), x(3), imm(LANES))
    b.blt(x(3), x(4), "Loop")
    b.halt()
    return b.build()


class TestSrvTiming:
    def srv_stats(self, x_vals, n=256, validate=True):
        mem = MemoryImage()
        mem.alloc("a", n, 4, init=list(range(n)))
        mem.alloc("x", n, 4, init=x_vals)
        program = build_listing2(mem, n)
        log = TraceLog(program)
        run_program(program, mem, tracer=log)
        return simulate(log, validate_lsu=validate, warm=True)

    def test_lsu_agrees_with_emulator(self):
        """The hardware LSU must flag exactly the lanes the functional
        emulator replayed — for the paper's periodic conflict pattern."""
        stats = self.srv_stats(periodic_conflict_indices(256, 4))
        assert stats.srv_regions == 16
        assert stats.srv_replay_passes == 16  # one replay per region

    def test_no_conflicts_no_replays(self):
        stats = self.srv_stats(list(range(256)))
        assert stats.srv_replay_passes == 0

    def test_barrier_cycles_counted(self):
        stats = self.srv_stats(list(range(256)))
        assert stats.barrier_cycles > 0
        assert 0 < stats.barrier_fraction < 1

    def test_replays_cost_cycles(self):
        clean = self.srv_stats(list(range(256)))
        dirty = self.srv_stats(periodic_conflict_indices(256, 4))
        assert dirty.cycles > clean.cycles

    def test_horizontal_disambiguation_counted(self):
        stats = self.srv_stats(list(range(256)))
        assert stats.lsu.horizontal_disambiguations > 0
        # in-region stores do vertical too; loads only horizontal
        assert stats.lsu.vertical_disambiguations > 0

    def test_region_cycles_tracked(self):
        stats = self.srv_stats(list(range(256)))
        assert 0 < stats.region_cycles <= stats.cycles * 2


class TestStructuralLimits:
    def make_vec_loop(self):
        mem = MemoryImage()
        a = mem.alloc("a", 512, 4, init=[1] * 512)
        b = ProgramBuilder()
        b.mov(x(1), imm(a.base)).mov(x(2), imm(0))
        b.label("top")
        b.v_load(v(1), x(1))
        b.v_add(v(2), v(1), imm(1))
        b.v_mul(v(3), v(2), imm(3))
        b.v_store(v(3), x(1))
        b.add(x(2), x(2), imm(1))
        b.blt(x(2), imm(64), "top")
        b.halt()
        return b, mem

    def test_smaller_iq_not_faster(self):
        b, mem = self.make_vec_loop()
        trace = trace_of(b, mem.clone())
        big = simulate(trace, TABLE_I, warm=True).cycles
        small = simulate(trace, TABLE_I.with_overrides(iq_entries=2), warm=True).cycles
        assert small >= big

    def test_smaller_rob_not_faster(self):
        b, mem = self.make_vec_loop()
        trace = trace_of(b, mem.clone())
        big = simulate(trace, TABLE_I, warm=True).cycles
        small = simulate(trace, TABLE_I.with_overrides(rob_entries=8), warm=True).cycles
        assert small >= big

    def test_narrow_pipeline_slower(self):
        b, mem = self.make_vec_loop()
        trace = trace_of(b, mem.clone())
        wide = simulate(trace, TABLE_I, warm=True).cycles
        narrow = simulate(
            trace, TABLE_I.with_overrides(pipeline_width=1), warm=True
        ).cycles
        assert narrow > wide
