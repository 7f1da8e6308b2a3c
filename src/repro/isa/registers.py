"""Architectural register names.

The ISA follows the paper's SVE-like baseline: 32 scalar registers
(``x0``–``x31``), 32 vector registers (``v0``–``v31``) of 16 lanes each,
and 16 predicate registers (``p0``–``p15``).  The two SRV predicate
registers (*SRV-replay* and *SRV-needs-replay*) are architectural state of
the region controller (the interpreter's lane mask and needs-replay set)
rather than named ISA registers, matching section III-D2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import IsaError

NUM_SCALAR_REGS = 32
NUM_VECTOR_REGS = 32
NUM_PRED_REGS = 16


@dataclass(frozen=True)
class ScalarReg:
    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < NUM_SCALAR_REGS:
            raise IsaError(f"scalar register index {self.index} out of range")

    def __repr__(self) -> str:
        return f"x{self.index}"


@dataclass(frozen=True)
class VecReg:
    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < NUM_VECTOR_REGS:
            raise IsaError(f"vector register index {self.index} out of range")

    def __repr__(self) -> str:
        return f"v{self.index}"


@dataclass(frozen=True)
class PredReg:
    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < NUM_PRED_REGS:
            raise IsaError(f"predicate register index {self.index} out of range")

    def __repr__(self) -> str:
        return f"p{self.index}"


@dataclass(frozen=True)
class Imm:
    """An immediate operand for scalar and vector-scalar operations."""

    value: int

    def __repr__(self) -> str:
        return f"#{self.value}"


ScalarOperand = ScalarReg | Imm


def x(index: int) -> ScalarReg:
    return ScalarReg(index)


def v(index: int) -> VecReg:
    return VecReg(index)


def p(index: int) -> PredReg:
    return PredReg(index)


def imm(value: int) -> Imm:
    return Imm(value)
