"""Static decode table: per-static-instruction facts and port accounting."""

import pytest

from repro.common.config import TABLE_I
from repro.common.rng import periodic_conflict_indices
from repro.compiler import Strategy, compile_loop
from repro.emu import Interpreter, run_program
from repro.isa import ProgramBuilder, imm, v, x
from repro.memory import MemoryImage
from repro.pipeline import DecodeTable, PipelineModel, TraceLog
from repro.pipeline.decode import PORT_OF, decode_instruction
from repro.pipeline.deps import LATENCY, classify, instruction_regs
from repro.workloads.base import indirect_update

N = 64
LANES = TABLE_I.vector_lanes


def _compiled(strategy=Strategy.SRV, n=N):
    spec_loop = indirect_update()
    arrays = {"a": list(range(n)), "x": periodic_conflict_indices(n, 4)}
    mem = MemoryImage()
    for name, init in arrays.items():
        mem.alloc(name, len(init), spec_loop.arrays[name], init=init)
    program = compile_loop(spec_loop, mem, n, strategy)
    return program, mem


def _ops(log):
    return [log.op(index) for index in range(len(log))]


class TestDecodeTable:
    def test_covers_every_static_instruction(self):
        program, _ = _compiled()
        table = DecodeTable.for_program(program)
        assert len(table) == len(
            {id(inst) for inst in program.instructions}
        )

    def test_records_match_deps_layer(self):
        program, _ = _compiled()
        table = DecodeTable.for_program(program)
        for inst in program.instructions:
            rec = table.record_for(inst)
            op_class = classify(inst)
            src, dst = instruction_regs(inst)
            assert rec.op_class is op_class
            assert rec.port_kind == PORT_OF[op_class]
            assert rec.latency == LATENCY[op_class]
            assert rec.src_regs == src
            assert rec.dst_regs == dst
            assert rec.access_kind == getattr(inst, "access_kind", None)
            assert rec.is_gather_scatter == (
                rec.access_kind in ("gather", "scatter")
            )
            assert rec.count_flags == (
                inst.is_vector, inst.is_mem, inst.is_branch,
                rec.is_gather_scatter, inst.is_load,
            )

    def test_record_identity_is_cached(self):
        program, _ = _compiled()
        table = DecodeTable.for_program(program)
        inst = program.instructions[0]
        assert table.record_for(inst) is table.record_for(inst)

    def test_lazy_decode_of_unseen_instruction(self):
        program, _ = _compiled()
        table = DecodeTable()
        inst = program.instructions[0]
        rec = table.record_for(inst)
        assert rec == decode_instruction(inst)
        assert len(table) == 1

    def test_interpreter_shares_one_table(self):
        program, mem = _compiled()
        interp = Interpreter(program, mem)
        assert len(interp.decode) == len(
            {id(inst) for inst in program.instructions}
        )

    def test_trace_ops_carry_decode_records(self):
        program, mem = _compiled()
        log = TraceLog(program)
        run_program(program, mem, tracer=log)
        assert len(log)
        for op in _ops(log):
            assert op.decode is not None
            assert op.decode.op_class is op.op_class
            assert op.src_regs == op.decode.src_regs
            assert op.dst_regs == op.decode.dst_regs


class TestMicroOpPortCharges:
    """Regression for the formerly duplicated ``access_kind`` probe:
    gather/scatter micro-ops must charge issue ports exactly once per
    lane — one reserve on the primary load/store port plus ``lanes - 1``
    on the micro-op port."""

    def _scatter_program(self, mem):
        a = mem.allocation("a")
        xs = mem.allocation("x")
        b = ProgramBuilder("scatter_charge")
        b.mov(x(1), imm(a.base)).mov(x(2), imm(xs.base))
        b.srv_start()
        b.v_load(v(0), x(1))
        b.v_load(v(1), x(2))
        b.v_gather(v(2), x(1), v(1))
        b.v_add(v(2), v(2), imm(1))
        b.v_scatter(v(2), x(1), v(1))
        b.srv_end()
        b.halt()
        return b.build()

    def test_micro_charges_once_per_lane(self):
        mem = MemoryImage()
        mem.alloc("a", LANES, 4, init=range(LANES))
        # a permutation: every lane accesses a distinct element
        mem.alloc("x", LANES, 4, init=[(i * 5) % LANES for i in range(LANES)])
        program = self._scatter_program(mem)
        log = TraceLog(program)
        run_program(program, mem, tracer=log)

        expected = {"gather_micro": 0, "scatter_micro": 0, "load": 0, "store": 0}
        for op in _ops(log):
            rec = op.decode
            if rec is None or not rec.is_mem:
                continue
            expected[rec.port_kind] += 1
            if rec.is_gather_scatter and len(op.mem) > 1:
                micro = (
                    "gather_micro" if rec.access_kind == "gather"
                    else "scatter_micro"
                )
                expected[micro] += len(op.mem) - 1
        assert expected["gather_micro"] >= LANES - 1
        assert expected["scatter_micro"] >= LANES - 1

        model = PipelineModel(TABLE_I)
        model.run(log)
        for kind, want in expected.items():
            got = sum(model.ports.used[kind].values())
            assert got == want, (kind, got, want)

    @pytest.mark.parametrize("n", [N])
    def test_micro_charges_full_loop(self, n):
        program, mem = _compiled(n=n)
        log = TraceLog(program)
        run_program(program, mem, tracer=log)
        expected_micro = sum(
            len(op.mem) - 1
            for op in _ops(log)
            if op.decode is not None
            and op.decode.is_gather_scatter
            and len(op.mem) > 1
        )
        model = PipelineModel(TABLE_I)
        model.run(log)
        got = sum(model.ports.used["gather_micro"].values()) + sum(
            model.ports.used["scatter_micro"].values()
        )
        assert got == expected_micro
