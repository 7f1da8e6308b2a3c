"""End-to-end coverage of the simulator's failure paths.

The happy paths are exercised everywhere; these tests drive the error
machinery the hardened runner depends on: LSU overflow with and without
the sequential fallback, nested-region detection, and the replay bound.
"""

import pytest

from repro.common.config import TABLE_I
from repro.common.errors import (
    IsaError,
    LsuOverflowError,
    ReplayBoundExceededError,
)
from repro.compiler import Strategy
from repro.emu import Interpreter, run_program
from repro.experiments import runner
from repro.isa import Program, ProgramBuilder, imm, v, x
from repro.isa.instructions import Halt, SrvEnd, SrvStart
from repro.lsu.entries import AccessType, LsuEntry
from repro.lsu.unit import LoadStoreUnit
from repro.memory import MemoryImage
from repro.workloads import by_name

LANES = TABLE_I.vector_lanes


def _gather_loop_program(mem: MemoryImage, n: int) -> "Program":
    """One SRV-region with a gather + scatter (2 * lanes LSU entries)."""
    a = mem.allocation("a")
    xs = mem.allocation("x")
    b = ProgramBuilder("gather_loop")
    b.mov(x(1), imm(a.base))
    b.mov(x(2), imm(xs.base))
    b.mov(x(3), imm(0))
    b.mov(x(4), imm(n))
    b.label("Loop")
    b.shl(x(7), x(3), imm(2))
    b.add(x(6), x(2), x(7))
    b.srv_start()
    b.v_load(v(1), x(6))
    b.v_gather(v(0), x(1), v(1))
    b.v_add(v(0), v(0), imm(1))
    b.v_scatter(v(0), x(1), v(1))
    b.srv_end()
    b.add(x(3), x(3), imm(LANES))
    b.blt(x(3), x(4), "Loop")
    b.halt()
    return b.build()


def _gather_memory(n: int) -> MemoryImage:
    mem = MemoryImage()
    mem.alloc("a", n, 4, init=list(range(n)))
    mem.alloc("x", n, 4, init=[(i * 7) % n for i in range(n)])
    return mem


class TestLsuOverflow:
    def test_sequential_fallback_preserves_correctness(self):
        """Demand above capacity degrades to the III-D7 fallback, not an error."""
        n = LANES
        mem = _gather_memory(n)
        program = _gather_loop_program(mem, n)
        # gather + scatter demand 2 * lanes entries; force an overflow
        tiny = TABLE_I.with_overrides(lsu_entries=LANES)
        metrics, _ = run_program(program, mem, config=tiny)
        assert metrics.srv.lsu_fallbacks == 1
        got = mem.load_array(mem.allocation("a"))
        want = list(range(n))
        xs = [(i * 7) % n for i in range(n)]
        for i in range(n):
            want[xs[i]] += 1
        assert got == want

    def test_lsu_unit_raises_without_fallback(self):
        """The hardware LSU has no fallback: in-region overflow raises."""
        lsu = LoadStoreUnit(TABLE_I.with_overrides(lsu_entries=2))
        lsu.begin_region()
        for srv_id in range(2):
            entry = LsuEntry.make(
                srv_id=srv_id, is_store=True, access=AccessType.SCALAR,
                addr=0x1000 + 64 * srv_id, size=4, elem=4, lane=0,
                lanes_covered=1, region_bytes=64,
            )
            lsu.issue_store(entry)
        overflow = LsuEntry.make(
            srv_id=2, is_store=True, access=AccessType.SCALAR,
            addr=0x2000, size=4, elem=4, lane=0, lanes_covered=1,
            region_bytes=64,
        )
        with pytest.raises(LsuOverflowError):
            lsu.issue_store(overflow)

    def test_run_loop_degrades_on_timing_overflow(self, monkeypatch):
        """A cycle-model overflow re-runs with forced sequential fallback."""
        spec = by_name("hmmer").loops[0]
        runner.clear_cache()
        real_streaming = runner.simulate_streaming

        def overflowing_streaming(program, memory, config=TABLE_I, **kwargs):
            if not config.srv_force_sequential:
                raise LsuOverflowError("synthetic overflow")
            return real_streaming(program, memory, config, **kwargs)

        monkeypatch.setattr(runner, "simulate_streaming", overflowing_streaming)
        run = runner.run_loop(spec, Strategy.SRV, n_override=64)
        assert run.correct
        assert run.pipe is not None
        assert len(run.failures) == 1
        assert run.failures[0].degraded
        assert run.failures[0].error == "LsuOverflowError"
        assert run.emu.srv.lsu_fallbacks > 0
        runner.clear_cache()

    def test_run_loop_raises_without_degradation(self, monkeypatch):
        spec = by_name("hmmer").loops[0]
        runner.clear_cache()

        def overflowing_streaming(program, memory, config=TABLE_I, **kwargs):
            raise LsuOverflowError("synthetic overflow")

        monkeypatch.setattr(runner, "simulate_streaming", overflowing_streaming)
        with pytest.raises(LsuOverflowError):
            runner.run_loop(
                spec, Strategy.SRV, n_override=64,
                degrade_lsu_overflow=False,
            )
        runner.clear_cache()


class TestNestedRegion:
    def test_interpreter_rejects_hand_built_regions(self):
        """Programs built without the builder's checks are rejected when
        the interpreter is made, before any op runs."""
        nested = Program([SrvStart(), SrvStart(), SrvEnd(), SrvEnd(), Halt()])
        with pytest.raises(IsaError, match="nested srv_start at index 1"):
            Interpreter(nested, MemoryImage())
        unterminated = Program([SrvStart(), Halt()])
        with pytest.raises(IsaError, match="program ends inside an SRV-region"):
            Interpreter(unterminated, MemoryImage())

    def test_builder_rejects_nested_start(self):
        b = ProgramBuilder("nested")
        b.mov(x(1), imm(0))
        b.srv_start()
        b.srv_start()
        b.v_load(v(0), x(1))
        b.srv_end()
        b.srv_end()
        b.halt()
        with pytest.raises(IsaError, match="nested"):
            b.build()

    def test_builder_rejects_unmatched_end(self):
        b = ProgramBuilder("unmatched")
        b.srv_end()
        b.halt()
        with pytest.raises(IsaError, match="srv_end without srv_start"):
            b.build()


class TestReplayBound:
    def test_emulator_bound_via_fault_injection(self):
        """End-to-end: a region forced to replay forever hits the bound."""
        from repro.verify import faults
        from repro.verify.faults import FaultClass, FaultPlan, FaultSpec

        n = LANES
        mem = _gather_memory(n)
        program = _gather_loop_program(mem, n)
        plan = FaultPlan([FaultSpec(FaultClass.FORCE_REPLAY, repeat=True)])
        with faults.inject(plan):
            with pytest.raises(ReplayBoundExceededError):
                run_program(program, mem)
