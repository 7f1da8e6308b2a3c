"""``simulate_streaming`` vs materialised-list equivalence.

The contract: ``simulate_streaming`` must be *bit-identical* to
``run_program`` + ``simulate``/``simulate_in_order`` — same
``PipelineStats``, same emulator metrics, same final memory, same verify
monitor verdicts.  It emulates once into a compact ``TraceLog``, whose
rebuilt ops must equal the ops a plain ``Tracer`` records, field by
field; the timing models themselves retain only O(machine-state).
"""

import dataclasses

import pytest

from repro.common.config import TABLE_I
from repro.common.rng import periodic_conflict_indices
from repro.compiler import Strategy, compile_loop
from repro.emu import Interpreter, run_program
from repro.isa import ProgramBuilder, imm, v, x
from repro.isa.instructions import SrvDirection
from repro.memory import MemoryImage
from repro.pipeline import (
    LogTracer,
    Tracer,
    TraceOp,
    simulate,
    simulate_streaming,
)
from repro.pipeline.core import PipelineModel
from repro.pipeline import core as core_mod
from repro.pipeline.inorder import STORE_WINDOW, InOrderModel, simulate_in_order
from repro.verify.monitors import run_monitors
from repro.workloads import all_loops

N = 48
LANES = TABLE_I.vector_lanes

SUITE = [(w.name, spec) for w, spec in all_loops()]


def _materialise(spec, strategy, n):
    arrays = spec.arrays(0)
    mem = MemoryImage()
    for name, init in arrays.items():
        mem.alloc(name, len(init), spec.loop.arrays[name], init=init)
    program = compile_loop(spec.loop, mem, n, strategy, params=spec.params)
    return program, mem


def _final_arrays(spec, mem):
    return {
        name: mem.load_array(mem.allocation(name))
        for name in spec.arrays(0)
    }


class TestSuiteEquivalence:
    """All 28 suite loops, both timing models, identical stats."""

    @pytest.mark.parametrize(
        "workload, spec", SUITE, ids=[s.name for _, s in SUITE]
    )
    @pytest.mark.parametrize("core", ["ooo", "inorder"])
    def test_stream_equals_list(self, workload, spec, core):
        n = min(N, spec.n)

        program, mem_list = _materialise(spec, Strategy.SRV, n)
        tracer = Tracer()
        emu_list, _ = run_program(program, mem_list, tracer=tracer)
        if core == "ooo":
            stats_list = simulate(tracer.ops, validate_lsu=True, warm=True)
        else:
            stats_list = simulate_in_order(tracer.ops, warm=True)

        program2, mem_stream = _materialise(spec, Strategy.SRV, n)
        emu_stream, stats_stream, _ = simulate_streaming(
            program2, mem_stream,
            core=core, validate_lsu=(core == "ooo"), warm=True,
        )

        assert stats_stream == stats_list
        assert emu_stream == emu_list
        assert _final_arrays(spec, mem_stream) == _final_arrays(spec, mem_list)


class TestMonitorEquivalence:
    """iter_trace() yields the same ops the materialising tracer records,
    so verify monitors reach identical verdicts on either path."""

    @pytest.mark.parametrize(
        "workload, spec", SUITE[:6], ids=[s.name for _, s in SUITE[:6]]
    )
    def test_monitor_verdicts_match(self, workload, spec):
        n = min(N, spec.n)

        program, mem1 = _materialise(spec, Strategy.SRV, n)
        tracer = Tracer()
        run_program(program, mem1, tracer=tracer)

        program2, mem2 = _materialise(spec, Strategy.SRV, n)
        interp = Interpreter(program2, mem2)
        streamed = list(interp.iter_trace())

        assert len(streamed) == len(tracer.ops)
        for a, b in zip(streamed, tracer.ops):
            assert (a.index, a.pc, a.op_class, a.in_region, a.in_fallback,
                    a.region_event, a.replay_lanes) == (
                b.index, b.pc, b.op_class, b.in_region, b.in_fallback,
                b.region_event, b.replay_lanes)

        verdict_stream = [str(v) for v in run_monitors(streamed, TABLE_I)]
        verdict_list = [str(v) for v in run_monitors(tracer.ops, TABLE_I)]
        assert verdict_stream == verdict_list


def _long_program(mem, n, direction=SrvDirection.UP):
    a = mem.allocation("a")
    xs = mem.allocation("x")
    b = ProgramBuilder("long_stream")
    b.mov(x(1), imm(a.base)).mov(x(2), imm(xs.base))
    b.mov(x(3), imm(0)).mov(x(4), imm(n))
    b.label("Loop")
    b.shl(x(7), x(3), imm(2))
    b.add(x(5), x(1), x(7))
    b.add(x(6), x(2), x(7))
    b.srv_start(direction)
    b.v_load(v(0), x(5))
    b.v_add(v(0), v(0), imm(2))
    b.v_load(v(1), x(6))
    b.v_scatter(v(0), x(1), v(1))
    b.srv_end()
    b.add(x(3), x(3), imm(LANES))
    b.blt(x(3), x(4), "Loop")
    b.halt()
    return b.build()


def _long_memory(n):
    mem = MemoryImage()
    mem.alloc("a", n, 4, init=range(n))
    mem.alloc("x", n, 4, init=periodic_conflict_indices(n, 4))
    return mem


class TestBoundedMemory:
    """Retained state is sized by machine capacities, not trace length."""

    # enough iterations that the trace crosses the 2048-op prune interval
    LONG_N = 4096

    def _stream(self, model, n):
        mem = _long_memory(n)
        program = _long_program(mem, n)
        pump = model.stream()
        interp = Interpreter(program, mem)
        count = 0
        try:
            for op in interp.iter_trace():
                pump.send(op)
                count += 1
            pump.send(None)
        except StopIteration:
            pass
        return count

    def test_ooo_windows_are_capacity_sized(self):
        model = PipelineModel(TABLE_I)
        ops = self._stream(model, self.LONG_N)
        assert ops > 2 * core_mod.PRUNE_INTERVAL  # long enough to prune
        assert len(model._complete_ring) == TABLE_I.rob_entries
        assert model._recent_stores.maxlen == 64
        assert len(model._recent_stores) <= 64
        # in-flight LSU entries drain at commit / region end
        assert len(model._lsu_live) <= 2 * TABLE_I.lsu_entries
        assert model.stats.cycles > 0

    def test_port_occupancy_is_pruned(self):
        pruned = PipelineModel(TABLE_I)
        self._stream(pruned, self.LONG_N)

        unpruned = PipelineModel(TABLE_I)
        original = core_mod.PRUNE_INTERVAL
        core_mod.PRUNE_INTERVAL = 1 << 40  # never prune
        try:
            self._stream(unpruned, self.LONG_N)
        finally:
            core_mod.PRUNE_INTERVAL = original

        # pruning must not change a single statistic...
        assert pruned.stats == unpruned.stats
        # ...while keeping the occupancy maps bounded
        assert pruned.ports.footprint() < unpruned.ports.footprint()

    def test_inorder_windows_are_capacity_sized(self):
        model = InOrderModel(TABLE_I)
        self._stream(model, self.LONG_N)
        assert model._store_window.maxlen == STORE_WINDOW
        assert len(model._store_window) <= STORE_WINDOW
        assert len(model._lsu_live) <= 2 * TABLE_I.lsu_entries
        assert model.stats.cycles > 0

    def test_small_rob_config_equivalence(self):
        """The completion ring is exact even for a tiny ROB window."""
        config = TABLE_I.with_overrides(rob_entries=8, iq_entries=4)
        n = 256

        mem1 = _long_memory(n)
        tracer = Tracer()
        run_program(_long_program(mem1, n), mem1, config=config, tracer=tracer)
        stats_list = simulate(tracer.ops, config=config, warm=True)

        mem2 = _long_memory(n)
        _, stats_stream, _ = simulate_streaming(
            _long_program(mem2, n), mem2, config, warm=True
        )
        assert stats_stream == stats_list
        assert stats_stream.store_set_squashes == stats_list.store_set_squashes


class TestTraceLog:
    """Ops rebuilt from a ``TraceLog`` equal a plain ``Tracer``'s ops."""

    @staticmethod
    def _both(program, make_memory, config=TABLE_I):
        """(recorded, rebuilt) ops of ``program`` on two fresh images."""
        tracer = Tracer()
        run_program(program, make_memory(), config=config, tracer=tracer)
        log_tracer = LogTracer()
        interp = Interpreter(program, make_memory(), config,
                             tracer=log_tracer)
        interp.run()
        assert log_tracer.count == tracer.count
        log = log_tracer.log
        return tracer.ops, list(log.ops(program, interp.decode)), log

    @staticmethod
    def _assert_same_ops(recorded, rebuilt):
        assert len(rebuilt) == len(recorded)
        for want, got in zip(recorded, rebuilt):
            for f in dataclasses.fields(TraceOp):
                assert getattr(got, f.name) == getattr(want, f.name), (
                    want.index, f.name)
            assert got.inst is want.inst
            # == lets 1 stand for True; repr does not
            assert repr(got.mem) == repr(want.mem), want.index
            assert type(got.branch_taken) is type(want.branch_taken)

    @staticmethod
    def _suite_memory(spec, n, strategy):
        program, _ = _materialise(spec, strategy, n)
        return program, lambda: _materialise(spec, strategy, n)[1]

    @pytest.mark.parametrize(
        "workload, spec", SUITE, ids=[s.name for _, s in SUITE]
    )
    @pytest.mark.parametrize("strategy", [Strategy.SRV, Strategy.SVE])
    def test_suite_round_trip(self, workload, spec, strategy):
        program, make_memory = self._suite_memory(
            spec, min(N, spec.n), strategy)
        recorded, rebuilt, _ = self._both(program, make_memory)
        self._assert_same_ops(recorded, rebuilt)

    @pytest.mark.parametrize("name", ["is_key_rank", "hmmer_viterbi_row"])
    def test_sequential_fallback_round_trip(self, name):
        spec = next(s for _, s in SUITE if s.name == name)
        config = TABLE_I.with_overrides(srv_force_sequential=True)
        program, make_memory = self._suite_memory(
            spec, min(N, spec.n), Strategy.SRV)
        recorded, rebuilt, _ = self._both(program, make_memory, config)
        assert any(op.in_fallback for op in recorded)
        assert any(op.replay_lanes for op in recorded)
        self._assert_same_ops(recorded, rebuilt)

    def test_down_direction_round_trip(self):
        n = 256
        program = _long_program(_long_memory(n), n, SrvDirection.DOWN)
        recorded, rebuilt, log = self._both(
            program, lambda: _long_memory(n))
        assert any(op.direction is SrvDirection.DOWN for op in recorded)
        self._assert_same_ops(recorded, rebuilt)
        assert 0 < log.nbytes < 100 * len(log)


class TestOneEmulation:
    """A warm ``simulate_streaming`` emulates once, on the real image."""

    def test_one_interpreter_and_no_image_clone(self, monkeypatch):
        from repro.emu import interpreter as interp_mod

        built = []
        clones = []
        init = interp_mod.Interpreter.__init__
        clone = MemoryImage.clone

        def counting_init(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        def counting_clone(self):
            clones.append(self)
            return clone(self)

        monkeypatch.setattr(interp_mod.Interpreter, "__init__", counting_init)
        monkeypatch.setattr(MemoryImage, "clone", counting_clone)
        spec = next(s for _, s in SUITE if s.name == "is_key_rank")
        program, mem = _materialise(spec, Strategy.SRV, 32)
        simulate_streaming(program, mem, warm=True)
        assert built == [interp_mod.Interpreter]
        assert clones == []


def _fault_specs():
    from repro.verify import faults

    return {
        "force-replay": faults.FaultSpec(
            fault=faults.FaultClass.FORCE_REPLAY, occurrence=1),
        "corrupt-store": faults.FaultSpec(
            fault=faults.FaultClass.CORRUPT_STORE_DATA, occurrence=50),
        "skew-addr": faults.FaultSpec(
            fault=faults.FaultClass.SKEW_LANE_ADDR, occurrence=300),
        "drop-lsu-entry": faults.FaultSpec(
            fault=faults.FaultClass.DROP_LSU_ENTRY, occurrence=40),
    }


class TestFaultPlansOnOnePath:
    """An armed plan fires at the same dynamic polls on the streaming
    path as on ``run_program`` + ``simulate``, with identical results:
    one emulation polls every emulator hook once."""

    def _spec(self):
        return next(s for _, s in SUITE if s.name == "is_key_rank")

    def _run(self, fault, streaming):
        """The armed plan and the run's outcome: its metrics, stats and
        final arrays, or the error a monitor raised."""
        from repro.common.errors import ReproError
        from repro.verify import faults

        spec = self._spec()
        program, mem = _materialise(spec, Strategy.SRV, 32)
        plan = faults.FaultPlan([_fault_specs()[fault]])
        try:
            with faults.inject(plan):
                if streaming:
                    metrics, stats, _ = simulate_streaming(
                        program, mem, validate_lsu=True, warm=True)
                else:
                    tracer = Tracer()
                    metrics, _ = run_program(program, mem, tracer=tracer)
                    stats = simulate(tracer.ops, validate_lsu=True, warm=True)
        except ReproError as exc:
            return plan, (type(exc).__name__, str(exc))
        return plan, (metrics, stats, _final_arrays(spec, mem))

    @pytest.mark.parametrize("fault", sorted(_fault_specs()))
    def test_plan_fires_identically(self, fault):
        plan_stream, outcome_stream = self._run(fault, streaming=True)
        plan_list, outcome_list = self._run(fault, streaming=False)
        assert plan_stream.fired, "the armed fault never landed"
        assert plan_stream.fired == plan_list.fired
        assert plan_stream.polls == plan_list.polls
        assert outcome_stream == outcome_list

    def test_runner_under_injection(self):
        """End to end: run_loop under an armed plan still produces a
        structured (here incorrect) result."""
        from repro.experiments import runner
        from repro.verify import faults

        plan = faults.FaultPlan([
            faults.FaultSpec(
                fault=faults.FaultClass.CORRUPT_STORE_DATA, repeat=True
            )
        ])
        with faults.inject(plan):
            run = runner.run_loop(
                self._spec(), Strategy.SRV, use_cache=False, n_override=32,
            )
        assert plan.fired
        assert run.correct is False
