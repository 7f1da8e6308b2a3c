"""Architectural state for the functional emulator.

Vector registers are modelled as 16 integer lanes (element-size agnostic,
matching the paper's evaluation where the vector length is fixed at 16
elements regardless of element size); values are wrapped to the element
size of each writing instruction.  Predicate registers are per-lane
booleans.  Scalar registers are 64-bit two's complement, held
sign-wrapped: each is a Python int in ``[S64_MIN, S64_END)``, so a read
is a list index and only a write wraps.
"""

from __future__ import annotations

from repro.isa.instructions import VALID_ELEM_SIZES
from repro.isa.registers import (
    NUM_PRED_REGS,
    NUM_SCALAR_REGS,
    NUM_VECTOR_REGS,
    Imm,
    PredReg,
    ScalarOperand,
    ScalarReg,
    VecReg,
)
from repro.memory.image import to_signed, to_unsigned

#: the values a scalar register holds: ``S64_MIN <= value < S64_END``
S64_MIN = -(1 << 63)
S64_END = 1 << 63
_U64 = (1 << 64) - 1

#: ``(value mask, sign bit)`` of each element size
_ELEM_BITS = {
    size: ((1 << 8 * size) - 1, 1 << (8 * size - 1))
    for size in VALID_ELEM_SIZES
}


def wrap_scalar(value: int) -> int:
    """``value`` wrapped to a signed 64-bit register value."""
    return ((value - S64_MIN) & _U64) + S64_MIN


class ArchState:
    """Register file of Python lists.

    Each vector register is a row of ``lanes`` ints holding the
    element-size-wrapped unsigned value of the writing instruction, and
    each predicate a row of bools.  Handlers read a whole source row at
    once (:meth:`signed_row`) and write a whole destination row with one
    merging write (:meth:`write_row`); rows are replaced, never mutated
    in place, so a row read for one op stays valid while the op writes.
    """

    __slots__ = ("lanes", "pc", "halted", "scalar", "vector", "pred")

    def __init__(self, lanes: int = 16) -> None:
        self.lanes = lanes
        self.pc = 0
        self.halted = False
        self.scalar = [0] * NUM_SCALAR_REGS
        self.vector = [[0] * lanes for _ in range(NUM_VECTOR_REGS)]
        self.pred = [[False] * lanes for _ in range(NUM_PRED_REGS)]

    # -- scalar ---------------------------------------------------------------

    def read_scalar(self, reg: ScalarReg) -> int:
        return self.scalar[reg.index]

    def write_scalar(self, reg: ScalarReg, value: int) -> None:
        self.scalar[reg.index] = wrap_scalar(value)

    def read_operand(self, operand: ScalarOperand) -> int:
        if isinstance(operand, Imm):
            return operand.value
        return self.read_scalar(operand)

    # -- vector ---------------------------------------------------------------

    def read_vector(self, reg: VecReg) -> list[int]:
        return list(self.vector[reg.index])

    def signed_row(self, reg: VecReg, elem: int) -> list[int]:
        """Every lane of ``reg`` sign-extended from ``elem`` bytes."""
        mask, sign = _ELEM_BITS[elem]
        return [((raw & mask) ^ sign) - sign for raw in self.vector[reg.index]]

    def unsigned_row(self, reg: VecReg, elem: int) -> list[int]:
        """Every lane of ``reg`` wrapped to ``elem`` bytes."""
        mask = _ELEM_BITS[elem][0]
        return [raw & mask for raw in self.vector[reg.index]]

    def read_lane(self, reg: VecReg, lane: int, elem: int, signed: bool = True) -> int:
        raw = to_unsigned(self.vector[reg.index][lane], elem)
        return to_signed(raw, elem) if signed else raw

    def write_row(
        self, reg: VecReg, values: list[int], mask: list[bool] | None, elem: int
    ) -> None:
        """Merging write (section III-D5): the lanes ``mask`` enables take
        ``values`` wrapped to ``elem`` bytes, the others keep their
        previous contents; ``mask=None`` enables every lane.

        On re-execution the old destination value is read as an extra
        source and combined with the new lanes.
        """
        wrap = _ELEM_BITS[elem][0]
        if mask is None:
            self.vector[reg.index] = [value & wrap for value in values]
        else:
            self.vector[reg.index] = [
                value & wrap if active else old
                for value, active, old in zip(
                    values, mask, self.vector[reg.index]
                )
            ]

    # -- predicates -----------------------------------------------------------

    def read_pred(self, reg: PredReg) -> list[bool]:
        return list(self.pred[reg.index])

    def write_pred(self, reg: PredReg, mask) -> None:
        """Replace ``reg`` with ``mask`` as a row of plain bools; every
        predicate write, the handlers' included, goes through here."""
        if len(mask) != self.lanes:
            raise ValueError(f"predicate width {len(mask)} != lanes {self.lanes}")
        self.pred[reg.index] = list(map(bool, mask))

    # -- snapshots ------------------------------------------------------------

    def registers_snapshot(self) -> tuple:
        """Every register as plain tuples, scalars as unsigned 64-bit."""
        return (
            tuple(value & _U64 for value in self.scalar),
            tuple(tuple(row) for row in self.vector),
            tuple(tuple(row) for row in self.pred),
        )
