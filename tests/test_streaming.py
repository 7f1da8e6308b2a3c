"""The timed path against the pinned materialised-list results.

``simulate_streaming`` emulates once into a compact ``TraceLog`` and
times it in place.  Until the log became the only trace form it was held
bit-identical to ``run_program`` + ``simulate``/``simulate_in_order``
over a materialised ``Tracer`` list — same ``PipelineStats``, same
emulator metrics, same final memory, same verify monitor verdicts.  The
list side's results are pinned in ``pinned_traces.json``
(:mod:`tests.pinned`), and the log path is checked against them: the
ops viewed from the log equal the recorded ops field by field, and the
timing models retain only O(machine-state).
"""

import pytest

from repro.common.config import TABLE_I
from repro.common.rng import periodic_conflict_indices
from repro.compiler import Strategy, compile_loop
from repro.emu import Interpreter, run_program
from repro.isa import ProgramBuilder, imm, v, x
from repro.isa.instructions import SrvDirection
from repro.memory import MemoryImage
from repro.pipeline import TraceLog, simulate, simulate_streaming
from repro.pipeline.core import PipelineModel
from repro.pipeline import core as core_mod
from repro.pipeline.inorder import STORE_WINDOW, InOrderModel
from repro.verify.monitors import run_monitors
from repro.workloads import all_loops
from tests.pinned import PINS, digest, trace_pin

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


def _suite_pin(spec, strategy, core):
    """(cycles, EmuMetrics, PipelineStats, final arrays) digests of one
    streamed suite run."""
    program, mem = _materialise(spec, strategy, min(N, spec.n))
    emu, stats, _ = simulate_streaming(
        program, mem, core=core, validate_lsu=(core == "ooo"), warm=True,
    )
    return [stats.cycles, digest(emu), digest(stats),
            digest(_final_arrays(spec, mem))]


class TestSuiteEquivalence:
    """All 28 suite loops, both timing models, the pinned list results."""

    @pytest.mark.parametrize(
        "workload, spec", SUITE, ids=[s.name for _, s in SUITE]
    )
    @pytest.mark.parametrize("core", ["ooo", "inorder"])
    def test_stream_equals_list(self, workload, spec, core):
        assert _suite_pin(spec, Strategy.SRV, core) == \
            PINS["suite"][f"{spec.name}/SRV/{core}"]

    @pytest.mark.parametrize(
        "workload, spec", SUITE, ids=[s.name for _, s in SUITE]
    )
    @pytest.mark.parametrize("core", ["ooo", "inorder"])
    def test_sve_stream_equals_list(self, workload, spec, core):
        assert _suite_pin(spec, Strategy.SVE, core) == \
            PINS["suite"][f"{spec.name}/SVE/{core}"]


class TestMonitorEquivalence:
    """iter_trace() records the ops the materialising tracer recorded, so
    verify monitors reach the pinned verdicts."""

    @pytest.mark.parametrize(
        "workload, spec", SUITE[:6], ids=[s.name for _, s in SUITE[:6]]
    )
    def test_monitor_verdicts_match(self, workload, spec):
        program, mem = _materialise(spec, Strategy.SRV, min(N, spec.n))
        interp = Interpreter(program, mem)
        streamed = list(interp.iter_trace())
        log = interp.tracer

        assert streamed == list(range(len(log)))
        assert trace_pin(log) == PINS["trace"][f"{spec.name}/SRV"]
        verdicts = [str(v) for v in run_monitors(log, TABLE_I)]
        assert verdicts == PINS["verdicts"][f"{spec.name}/SRV"]


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
        """Time ops while they are emulated: each index goes to the pump
        as soon as ``iter_trace`` finalizes it."""
        mem = _long_memory(n)
        program = _long_program(mem, n)
        interp = Interpreter(program, mem, tracer=TraceLog(program))
        model.log = interp.tracer
        pump = model.stream()
        count = 0
        try:
            for index in interp.iter_trace():
                pump.send(index)
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
        program = _long_program(mem1, n)
        log = TraceLog(program)
        run_program(program, mem1, config=config, tracer=log)
        stats_log = simulate(log, config=config, warm=True)

        mem2 = _long_memory(n)
        _, stats_stream, _ = simulate_streaming(
            _long_program(mem2, n), mem2, config, warm=True
        )
        assert stats_stream == stats_log
        assert [stats_stream.cycles, digest(stats_stream)] == \
            PINS["small_rob"]


class TestTraceLog:
    """Ops viewed from a ``TraceLog`` equal the pinned ops a ``Tracer``
    list recorded, field by field."""

    @staticmethod
    def _log(program, memory, config=TABLE_I):
        log = TraceLog(program)
        run_program(program, memory, config=config, tracer=log)
        return log

    @pytest.mark.parametrize(
        "workload, spec", SUITE, ids=[s.name for _, s in SUITE]
    )
    @pytest.mark.parametrize("strategy", [Strategy.SRV, Strategy.SVE])
    def test_suite_round_trip(self, workload, spec, strategy):
        log = self._log(*_materialise(spec, strategy, min(N, spec.n)))
        assert trace_pin(log) == \
            PINS["trace"][f"{spec.name}/{strategy.name}"]

    @pytest.mark.parametrize("name", ["is_key_rank", "hmmer_viterbi_row"])
    def test_sequential_fallback_round_trip(self, name):
        spec = next(s for _, s in SUITE if s.name == name)
        config = TABLE_I.with_overrides(srv_force_sequential=True)
        log = self._log(
            *_materialise(spec, Strategy.SRV, min(N, spec.n)), config)
        ops = [log.op(index) for index in range(len(log))]
        assert any(op.in_fallback for op in ops)
        assert any(op.replay_lanes for op in ops)
        assert trace_pin(log) == PINS["trace"][f"{name}/SRV/sequential"]

    def test_down_direction_round_trip(self):
        n = 256
        program = _long_program(_long_memory(n), n, SrvDirection.DOWN)
        log = self._log(program, _long_memory(n))
        assert any(
            log.op(index).direction is SrvDirection.DOWN
            for index in range(len(log))
        )
        assert trace_pin(log) == PINS["trace"]["long_stream/DOWN/256"]
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


    @pytest.mark.parametrize("name, strategy", [
        ("is_key_rank", Strategy.SRV), ("randacc_gups", Strategy.SVE),
    ])
    def test_timed_path_builds_no_per_op_objects(
        self, monkeypatch, name, strategy,
    ):
        """``run_loop`` times straight from the log: one emulation, and
        not one ``TraceOp`` or ``MemAccess`` view on the way."""
        from repro.emu import interpreter as interp_mod
        from repro.experiments import runner
        from repro.pipeline import trace as trace_mod

        made = {"TraceOp": 0, "MemAccess": 0, "run": 0}
        for cls_name in ("TraceOp", "MemAccess"):
            cls = getattr(trace_mod, cls_name)

            def counting(*args, _cls=cls, _name=cls_name, **kwargs):
                made[_name] += 1
                return _cls(*args, **kwargs)

            monkeypatch.setattr(trace_mod, cls_name, counting)
        run = interp_mod.Interpreter.run

        def counting_run(self):
            made["run"] += 1
            return run(self)

        monkeypatch.setattr(interp_mod.Interpreter, "run", counting_run)
        spec = next(s for _, s in SUITE if s.name == name)
        result = runner.run_loop(spec, strategy, n_override=N,
                                 use_cache=False)
        assert made == {"TraceOp": 0, "MemAccess": 0, "run": 1}
        cycles, emu, stats, _ = PINS["suite"][f"{name}/{strategy.name}/ooo"]
        assert [result.cycles, digest(result.emu), digest(result.pipe)] \
            == [cycles, emu, stats]


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
    path as it did on ``run_program`` + ``simulate`` over a materialised
    list, with the pinned results: one emulation polls every emulator
    hook once."""

    def _spec(self):
        return next(s for _, s in SUITE if s.name == "is_key_rank")

    @pytest.mark.parametrize("fault", sorted(_fault_specs()))
    def test_plan_fires_identically(self, fault):
        from repro.common.errors import ReproError
        from repro.verify import faults

        spec = self._spec()
        program, mem = _materialise(spec, Strategy.SRV, 32)
        plan = faults.FaultPlan([_fault_specs()[fault]])
        try:
            with faults.inject(plan):
                metrics, stats, _ = simulate_streaming(
                    program, mem, validate_lsu=True, warm=True)
            outcome = (metrics, stats, _final_arrays(spec, mem))
        except ReproError as exc:
            outcome = (type(exc).__name__, str(exc))
        assert plan.fired, "the armed fault never landed"
        assert [digest(plan.fired), digest(plan.polls), digest(outcome),
                isinstance(outcome[0], str)] == PINS["fault_plans"][fault]

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
