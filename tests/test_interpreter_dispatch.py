"""The emulator's per-pc op table: its work count and its edge semantics.

``Interpreter.run`` builds one op per static pc when it starts and then
runs ``pc = code[pc](...)``.  The work count is the number of Python
function calls the run makes per dynamic op (``sys.setprofile`` "call"
events, so calls into C — list appends, ``operator`` functions — do not
count); it is deterministic, so it shows a change in the interpreter's
per-op work that wall time on a loaded host would hide.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import IsaError
from repro.compiler import Strategy
from repro.emu import Interpreter, run_program
from repro.isa import ProgramBuilder, imm, x
from repro.isa.instructions import Halt, Instruction, ScalarALU, ScalarOpcode
from repro.memory import MemoryImage
from repro.pipeline.trace import TraceLog
from repro.sample import project as project_mod
from repro.sample.project import _build, resolve_spec

U64 = (1 << 64) - 1


def _calls_per_op(workload: str, loop: str, strategy: Strategy, n: int):
    """``(python calls, dynamic ops)`` of one traced ``Interpreter.run``
    of a suite loop, as the timed path runs it."""
    _, spec = resolve_spec(workload, loop)
    interp = _build(spec, strategy, 0, n, project_mod.TABLE_I)
    interp.tracer = TraceLog(interp.program, interp.decode)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        metrics = interp.run()
    finally:
        sys.setprofile(saved)
    return calls, metrics.dynamic_instructions


class TestWorkCount:
    def test_scalar_loop_runs_under_four_calls_per_op(self):
        # The SVE suite compiles to scalar code.  Measured on CPython
        # 3.11: 1.32 calls per op (17.31 when every op went through the
        # generic dispatch path); 3.12 inlines comprehensions, which only
        # lowers the count.
        calls, ops = _calls_per_op("hmmer", "viterbi", Strategy.SVE, 128)
        assert ops == 3718
        assert calls / ops <= 4.0, f"{calls} calls for {ops} ops"

    def test_srv_loop_calls_below_the_generic_dispatch(self):
        # The same loop vectorised under SRV: 7,702 calls when every op
        # went through the generic dispatch path (CPython 3.11), 4,466
        # through the table with one record object per buffered lane
        # access, 2,402 with the buffer's tuple records filed in one
        # call per vector access, 1,559 with one buffer call and one span
        # read per vector access, 1,394 with per-instruction lane maps
        # and a commit of one image call.
        calls, ops = _calls_per_op("hmmer", "viterbi", Strategy.SRV, 128)
        assert ops == 220
        assert calls <= 1450, f"{calls} calls for {ops} ops"

    def test_srv_vector_access_is_one_buffer_call(self):
        # is/is_key_rank under SRV at its suite size: 169,374 calls
        # (CPython 3.11) when a vector over the speculative buffer's
        # records fell back to per-lane calls (12,348 loads and 10,270
        # stores) and every load lane made a read_int call; 63,350 with
        # one buffer call and one span read per vector access; 47,904
        # with per-instruction lane maps, whose commit writes every
        # buffered lane in one image call (one write_bytes call each
        # before).
        calls, ops = _calls_per_op("is", "is_key_rank", Strategy.SRV, 2048)
        assert ops == 6362
        assert calls <= 50000, f"{calls} calls for {ops} ops"


# ---------------------------------------------------------------------------
# edge semantics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mystery(Instruction):
    """An instruction type no op builder handles."""

    def __repr__(self) -> str:
        return "mystery"


@dataclass(frozen=True)
class TaggedALU(ScalarALU):
    """A subclass of a known instruction type."""


@dataclass(frozen=True)
class TaggedHalt(Halt):
    pass


class TestEdgeSemantics:
    # Construction validates labels and decodes every instruction, so an
    # undefined label or an unknown instruction type can only appear by
    # editing the program after it: the table must still build, and fail
    # only when the bad pc executes.

    def _skip_program(self, a: int, b: int):
        bld = ProgramBuilder("skip")
        bld.mov(x(1), imm(a)).mov(x(3), imm(0))
        bld.blt(x(1), imm(b), "skip")
        bld.mov(x(3), imm(1))
        bld.label("skip")
        bld.halt()
        return bld.build()

    def test_undefined_label_fails_only_when_taken(self):
        program = self._skip_program(5, 0)  # 5 < 0: never taken
        interp = Interpreter(program, MemoryImage())
        del program.labels["skip"]
        interp.run()
        assert interp.state.read_scalar(x(3)) == 1
        assert interp.state.halted

        program = self._skip_program(0, 5)  # taken
        interp = Interpreter(program, MemoryImage())
        del program.labels["skip"]
        with pytest.raises(IsaError) as excinfo:
            interp.run()
        assert str(excinfo.value) == "undefined label 'skip' in program 'skip'"

    def test_undefined_jump_label_fails_when_executed(self):
        bld = ProgramBuilder("jumps")
        bld.mov(x(1), imm(7)).jump("end")
        bld.mov(x(1), imm(9))
        bld.label("end")
        bld.halt()
        program = bld.build()
        interp = Interpreter(program, MemoryImage())
        del program.labels["end"]
        with pytest.raises(IsaError, match="undefined label 'end'"):
            interp.run()
        # the ops before it ran; the jump itself never completed
        assert interp.state.read_scalar(x(1)) == 7
        assert interp.state.pc == 1

    def _mov_halt_nop(self):
        bld = ProgramBuilder()
        bld.mov(x(1), imm(3)).halt().nop()
        return bld.build()

    def test_unhandled_instruction_fails_only_when_executed(self):
        program = self._mov_halt_nop()
        interp = Interpreter(program, MemoryImage())
        program.instructions[2] = Mystery()  # after the halt: never runs
        metrics = interp.run()
        assert metrics.dynamic_instructions == 2

        program = self._mov_halt_nop()
        interp = Interpreter(program, MemoryImage())
        program.instructions[1] = Mystery()  # reached
        with pytest.raises(IsaError, match="unhandled instruction mystery"):
            interp.run()
        assert interp.state.read_scalar(x(1)) == 3

    def test_subclass_of_known_type_dispatches_as_it(self):
        bld = ProgramBuilder()
        bld.mov(x(1), imm(40)).mov(x(2), imm(2))
        program = bld.build()
        program.instructions += [
            TaggedALU(op=ScalarOpcode.ADD, dst=x(3), src1=x(1), src2=x(2)),
            TaggedHalt(),
            TaggedALU(op=ScalarOpcode.MOV, dst=x(3), src1=imm(0)),
        ]
        metrics, state = run_program(program, MemoryImage())
        assert state.read_scalar(x(3)) == 42
        assert state.halted
        assert metrics.dynamic_instructions == 4
        assert metrics.scalar_instructions == 4


#: values at and around the 64-bit boundaries, as register or immediate
_EDGES = [0, 1, -1, 2, 63, 64, 65, 2**62, 2**63 - 1, 2**63, 2**63 + 1,
          2**64 - 1, 2**64, 2**64 + 5, -(2**63), -(2**63) - 1, -(2**64),
          2**70 + 3]
_VALUES = st.one_of(st.sampled_from(_EDGES),
                    st.integers(-(2**66), 2**66))

#: the unsigned 64-bit result of each op over a register value ``a``
#: (signed) and a second operand ``b`` (a signed register value, or an
#: immediate taken as written)
_REFERENCE = {
    "add": lambda a, b: (a + b) & U64,
    "sub": lambda a, b: (a - b) & U64,
    "mul": lambda a, b: (a * b) & U64,
    "shl": lambda a, b: (a << (b & 63)) & U64,
    "shr": lambda a, b: (a & U64) >> (b & 63),
}


def _signed(value: int) -> int:
    value &= U64
    return value - (1 << 64) if value >> 63 else value


class TestScalarWrap:
    @settings(max_examples=150, deadline=None)
    @given(op=st.sampled_from(sorted(_REFERENCE)), a=_VALUES, b=_VALUES,
           b_imm=st.booleans())
    def test_ops_wrap_at_64_bits(self, op, a, b, b_imm):
        bld = ProgramBuilder()
        bld.mov(x(1), imm(a))
        if b_imm:
            getattr(bld, op)(x(3), x(1), imm(b))
            expect = _REFERENCE[op](_signed(a), b)
        else:
            bld.mov(x(2), imm(b))
            getattr(bld, op)(x(3), x(1), x(2))
            expect = _REFERENCE[op](_signed(a), _signed(b))
        bld.halt()
        _, state = run_program(bld.build(), MemoryImage())
        scalar, _, _ = state.registers_snapshot()
        assert scalar[3] == expect
        assert scalar[1] == a & U64
        assert state.read_scalar(x(3)) == _signed(expect)
        assert all(0 <= value <= U64 for value in scalar)

    @pytest.mark.parametrize("value", _EDGES)
    def test_mov_wraps_immediates_and_registers(self, value):
        bld = ProgramBuilder()
        bld.mov(x(1), imm(value)).mov(x(2), x(1)).halt()
        _, state = run_program(bld.build(), MemoryImage())
        scalar, _, _ = state.registers_snapshot()
        assert scalar[1] == scalar[2] == value & U64
        assert state.read_scalar(x(2)) == _signed(value)

    def test_increment_past_the_top_wraps_to_the_bottom(self):
        bld = ProgramBuilder()
        bld.mov(x(1), imm(2**63 - 1)).add(x(1), x(1), imm(1))
        bld.mov(x(2), imm(-(2**63))).sub(x(2), x(2), imm(1))
        bld.halt()
        _, state = run_program(bld.build(), MemoryImage())
        assert state.read_scalar(x(1)) == -(2**63)
        assert state.read_scalar(x(2)) == 2**63 - 1
        scalar, _, _ = state.registers_snapshot()
        assert (scalar[1], scalar[2]) == (2**63, 2**63 - 1)
