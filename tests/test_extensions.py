"""Tests for the design-space extensions: in-order core, relaxed barrier,
TM mode, interrupt injection, and the CLI."""

import pytest

from repro.common.config import TABLE_I
from repro.common.rng import periodic_conflict_indices, sparse_conflict_indices
from repro.compiler import Strategy, compile_loop, scalar_reference
from repro.emu import Interpreter, run_program
from repro.memory import MemoryImage
from repro.observe import events as ev
from repro.pipeline import TraceLog, simulate
from repro.pipeline.inorder import simulate_in_order
from repro.workloads.base import indirect_update

N = 64


def compiled(strategy=Strategy.SRV, x_vals=None, n=N, config=TABLE_I):
    loop = indirect_update()
    x_vals = x_vals if x_vals is not None else list(range(n))
    a_vals = list(range(n))
    mem = MemoryImage()
    mem.alloc("a", n, 4, init=a_vals)
    mem.alloc("x", n, 4, init=x_vals)
    program = compile_loop(loop, mem, n, strategy)
    oracle = scalar_reference(loop, {"a": a_vals, "x": x_vals}, n)
    return program, mem, oracle


class TestInOrderCore:
    def trace_for(self, strategy, x_vals=None):
        program, mem, oracle = compiled(strategy, x_vals)
        log = TraceLog(program)
        run_program(program, mem, tracer=log)
        assert mem.load_array(mem.allocation("a")) == oracle["a"]
        return log

    def test_runs_and_counts(self):
        trace = self.trace_for(Strategy.SRV)
        stats = simulate_in_order(trace, warm=True)
        assert stats.cycles > 0
        assert stats.instructions == len(trace)
        assert stats.srv_regions == N // 16

    def test_slower_than_ooo_on_scalar_code(self):
        trace = self.trace_for(Strategy.SCALAR)
        ooo = simulate(trace, warm=True)
        ino = simulate_in_order(trace, warm=True)
        assert ino.cycles > ooo.cycles

    def test_srv_advantage_larger_in_order(self):
        """Section III-D6: SRV adds 'a limited form of out-of-order
        execution' — worth more on the in-order machine."""
        scalar = self.trace_for(Strategy.SCALAR)
        srv = self.trace_for(Strategy.SRV)
        ooo_speedup = simulate(scalar, warm=True).cycles / simulate(
            srv, warm=True
        ).cycles
        ino_speedup = (
            simulate_in_order(scalar, warm=True).cycles
            / simulate_in_order(srv, warm=True).cycles
        )
        assert ino_speedup > ooo_speedup

    def test_replays_tracked(self):
        trace = self.trace_for(Strategy.SRV, periodic_conflict_indices(N, 4))
        stats = simulate_in_order(trace, warm=True)
        assert stats.srv_replay_passes == N // 16


class TestRelaxedBarrier:
    def test_relaxed_is_faster_and_correct(self):
        program, mem, oracle = compiled()
        log = TraceLog(program)
        run_program(program, mem, tracer=log)
        assert mem.load_array(mem.allocation("a")) == oracle["a"]
        base = simulate(log, TABLE_I, warm=True)
        relaxed = simulate(
            log, TABLE_I.with_overrides(srv_relax_barrier=True), warm=True
        )
        assert relaxed.cycles < base.cycles
        assert relaxed.barrier_cycles == 0
        assert base.barrier_cycles > 0


class TestTmMode:
    def tm_config(self):
        return TABLE_I.with_overrides(srv_tm_mode=True)

    def test_tm_mode_still_correct(self):
        x_vals = sparse_conflict_indices(N, 16, 0.5, seed=4)
        program, mem, oracle = compiled(x_vals=x_vals, config=self.tm_config())
        metrics, _ = run_program(program, mem, config=self.tm_config())
        assert mem.load_array(mem.allocation("a")) == oracle["a"]

    def test_war_forces_replay_in_tm_mode(self):
        """A WAR-only region: SRV needs no replay, version-less TM does."""
        from repro.isa import ProgramBuilder, imm, v, x

        def build(config):
            mem = MemoryImage()
            a = mem.alloc("a", 32, 4, init=list(range(32)))
            b = ProgramBuilder("war-only")
            b.mov(x(1), imm(a.base))
            b.srv_start()
            # figure 4's shape: the store executes first, the load then
            # reads bytes written by *later* lanes — forwarding must be
            # suppressed (WAR), which version-less TM can only achieve by
            # aborting the writing lanes.
            b.v_index(v(0), imm(100))
            b.v_store(v(0), x(1))             # writes a[0:16]
            b.v_load(v(1), x(1), offset=32)   # reads a[8:24]
            b.srv_end()
            b.halt()
            metrics, _ = run_program(b.build(), mem, config=config)
            return metrics, mem.load_array(a)

        srv_metrics, srv_out = build(TABLE_I)
        tm_metrics, tm_out = build(self.tm_config())
        assert srv_out == tm_out               # both correct
        assert srv_metrics.srv.replays == 0    # WAR is free under SRV
        assert tm_metrics.srv.replays >= 1     # TM aborts the writing lane
        assert tm_metrics.srv.tm_war_replays > 0

    def test_tm_never_fewer_replays(self):
        x_vals = sparse_conflict_indices(N, 16, 0.5, seed=8)
        _, mem1, _ = compiled(x_vals=x_vals)
        program, mem, oracle = compiled(x_vals=x_vals)
        srv_metrics, _ = run_program(program, mem)
        program2, mem2, _ = compiled(x_vals=x_vals)
        tm_metrics, _ = run_program(program2, mem2, config=self.tm_config())
        assert tm_metrics.srv.replays >= srv_metrics.srv.replays


class TestInterruptInjection:
    def run_with_interrupt(self, step, x_vals):
        loop = indirect_update()
        a_vals = list(range(N))
        mem = MemoryImage()
        mem.alloc("a", N, 4, init=a_vals)
        mem.alloc("x", N, 4, init=x_vals)
        program = compile_loop(loop, mem, N, Strategy.SRV)
        interp = Interpreter(program, mem, TABLE_I, interrupt_at_step=step)
        metrics = interp.run()
        oracle = scalar_reference(loop, {"a": a_vals, "x": x_vals}, N)
        return metrics, mem.load_array(mem.allocation("a")), oracle["a"]

    def test_interrupt_outside_region_is_noop(self):
        metrics, got, want = self.run_with_interrupt(1, list(range(N)))
        assert got == want
        assert metrics.srv.interrupts_taken == 0

    def test_interrupt_inside_region_preserves_semantics(self):
        # step 12 lands inside the first region body (after the compiled
        # prologue and the per-iteration scalar pointer/predicate setup)
        metrics, got, want = self.run_with_interrupt(
            12, periodic_conflict_indices(N, 4)
        )
        assert got == want
        assert metrics.srv.interrupts_taken == 1

    @pytest.mark.parametrize("step", list(range(1, 60, 3)))
    def test_interrupt_sweep_with_conflicts(self, step):
        """Correctness must hold wherever the context switch lands."""
        metrics, got, want = self.run_with_interrupt(
            step, periodic_conflict_indices(N, 4)
        )
        assert got == want

    @pytest.mark.parametrize("step, x_vals, passes, replayed", [
        # a switch in the first pass: lane 0 finishes it, lanes 1-15
        # replay the whole region
        (12, list(range(N)), [(0, 1), (1, 15)], list(range(1, 16))),
        # a switch in the replay pass of lanes 3, 7, 11, 15: lane 3
        # finishes it, and every lane above it replays, active or not
        (16, periodic_conflict_indices(N, 4),
         [(0, 16), (1, 1), (2, 12), (3, 3)],
         [3, 7, 11, 15] + list(range(4, 16)) + [7, 11, 15]),
    ], ids=["first_pass", "replay_pass"])
    def test_resume_runs_only_the_oldest_lane(
        self, step, x_vals, passes, replayed
    ):
        """Section III-D2: after a context switch inside a region only
        the oldest active lane resumes; the younger lanes are marked
        needs-replay and re-run the region after its ``srv_end``."""
        with ev.capture() as sink:
            metrics, got, want = self.run_with_interrupt(step, x_vals)
        assert got == want
        assert metrics.srv.interrupts_taken == 1
        first = [e for e in sink.finalized() if dict(e.data)["region"] == 0]
        assert [
            (dict(e.data)["pass"], dict(e.data)["active"]) for e in first
            if e.kind is ev.EventKind.REGION_PASS
        ] == passes
        assert [
            e.lane for e in first if e.kind is ev.EventKind.LANE_REPLAY
        ] == replayed

    def test_interrupt_costs_extra_passes(self):
        x_vals = list(range(N))
        clean, _, _ = self.run_with_interrupt(None, x_vals)
        hit, got, want = self.run_with_interrupt(7, x_vals)
        assert got == want
        if hit.srv.interrupts_taken:
            assert hit.srv.region_passes > clean.srv.region_passes


class TestCli:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bzip2" in out and "randacc" in out

    def test_loop_command(self, capsys):
        from repro.cli import main

        assert main(["loop", "perlbench", "slot_bump", "-n", "32"]) == 0
        out = capsys.readouterr().out
        assert "srv" in out and "True" in out

    def test_disasm_command(self, capsys):
        from repro.cli import main

        assert main(["disasm", "perlbench", "slot_bump", "srv", "-n", "32"]) == 0
        out = capsys.readouterr().out
        assert "srv_start" in out and "srv_end" in out

    def test_experiment_unknown(self, capsys):
        from repro.cli import main

        assert main(["experiment", "nope"]) == 2

    def test_experiment_runs(self, capsys):
        from repro.cli import main

        assert main(["experiment", "figure10", "-n", "64"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
