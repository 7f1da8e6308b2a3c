"""Architectural state for the functional emulator.

Vector registers are modelled as 16 integer lanes (element-size agnostic,
matching the paper's evaluation where the vector length is fixed at 16
elements regardless of element size); values are wrapped to the element
size of each writing instruction.  Predicate registers are per-lane
booleans.  Scalar registers are 64-bit two's complement.
"""

from __future__ import annotations

import numpy as _np

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
from repro.memory.image import (
    to_signed,
    to_signed_array,
    to_unsigned,
    to_unsigned_array,
)

SCALAR_BYTES = 8


class ArchState:
    """Register file backed by numpy arrays.

    Each vector lane stores the element-size-wrapped unsigned value of
    the writing instruction (a ``uint64`` row per register), and
    predicates are per-lane booleans.  Scalar registers stay Python
    ints — scalar ops are not lane-parallel and Python arithmetic is
    faster there.

    Two APIs share the arrays: a per-lane, list-valued one
    (:meth:`read_lane`, :meth:`write_vector_masked`, :meth:`read_pred`)
    used by the scalar reference handlers and the tracer paths, and a
    numpy-native one (:meth:`vec_signed`, :meth:`vec_raw`,
    :meth:`write_masked_np`, :meth:`mask_np`) used by the batched
    kernels in :mod:`repro.emu.lanes`.
    """

    __slots__ = ("lanes", "pc", "halted", "scalar", "vector", "pred", "_ones")

    def __init__(self, lanes: int = 16) -> None:
        self.lanes = lanes
        self.pc = 0
        self.halted = False
        self.scalar = [0] * NUM_SCALAR_REGS
        self.vector = _np.zeros((NUM_VECTOR_REGS, lanes), dtype=_np.uint64)
        self.pred = _np.zeros((NUM_PRED_REGS, lanes), dtype=_np.bool_)
        self._ones = _np.ones(lanes, dtype=_np.bool_)

    # -- scalar ---------------------------------------------------------------

    def read_scalar(self, reg: ScalarReg) -> int:
        return to_signed(self.scalar[reg.index], SCALAR_BYTES)

    def write_scalar(self, reg: ScalarReg, value: int) -> None:
        self.scalar[reg.index] = to_unsigned(value, SCALAR_BYTES)

    def read_operand(self, operand: ScalarOperand) -> int:
        if isinstance(operand, Imm):
            return operand.value
        return self.read_scalar(operand)

    # -- vector: per-lane API -------------------------------------------------

    def read_vector(self, reg: VecReg) -> list[int]:
        return self.vector[reg.index].tolist()

    def read_lane(self, reg: VecReg, lane: int, elem: int, signed: bool = True) -> int:
        raw = to_unsigned(int(self.vector[reg.index][lane]), elem)
        return to_signed(raw, elem) if signed else raw

    def write_lane(self, reg: VecReg, lane: int, value: int, elem: int) -> None:
        self.vector[reg.index][lane] = to_unsigned(value, elem)

    def write_vector_masked(
        self, reg: VecReg, values: list[int], mask: list[bool], elem: int
    ) -> None:
        """Merging write: inactive lanes keep their previous contents.

        This is the paper's merging predication (section III-D5) — on
        re-execution the old destination value is read as an extra source
        and combined with the new lanes.
        """
        dest = self.vector[reg.index]
        for lane, active in enumerate(mask):
            if active:
                dest[lane] = to_unsigned(values[lane], elem)

    # -- vector: numpy-native API --------------------------------------------

    def vec_raw(self, reg: VecReg) -> "_np.ndarray":
        """The stored uint64 lanes (a view — do not mutate)."""
        return self.vector[reg.index]

    def vec_signed(self, reg: VecReg, elem: int) -> "_np.ndarray":
        """Sign-extended int64 lanes at the given element size."""
        return to_signed_array(self.vector[reg.index], elem)

    def write_masked_np(
        self, reg: VecReg, values: "_np.ndarray", mask: "_np.ndarray", elem: int
    ) -> None:
        """Merging write (III-D5): active lanes take the wrapped values."""
        _np.copyto(self.vector[reg.index], to_unsigned_array(values, elem), where=mask)

    def mask_np(self, pred: PredReg | None) -> "_np.ndarray":
        """Effective mask as a bool array (a view / shared — do not mutate)."""
        if pred is None:
            return self._ones
        return self.pred[pred.index]

    # -- predicates -----------------------------------------------------------

    def read_pred(self, reg: PredReg) -> list[bool]:
        return self.pred[reg.index].tolist()

    def write_pred(self, reg: PredReg, mask) -> None:
        if len(mask) != self.lanes:
            raise ValueError(f"predicate width {len(mask)} != lanes {self.lanes}")
        self.pred[reg.index] = mask

    def effective_mask(self, pred: PredReg | None) -> list[bool]:
        if pred is None:
            return [True] * self.lanes
        return self.read_pred(pred)

    # -- snapshots ------------------------------------------------------------

    def registers_snapshot(self) -> tuple:
        return (
            tuple(self.scalar),
            tuple(tuple(row.tolist()) for row in self.vector),
            tuple(tuple(row.tolist()) for row in self.pred),
        )
