"""Lane-batched numpy kernels for the functional emulator.

The paper's evaluation fixes the vector length at 16 lanes, and the
emulator's original hot path executed every vector op as a Python-level
``for lane in range(lanes)`` loop.  This module provides the lane-batched
numpy kernels the interpreter runs: per-opclass kernels that evaluate all
lanes of a vector ALU / compare / iota operation with a handful of numpy
array operations instead of hundreds of interpreter bytecodes.

Semantics contract — the kernels are **bit-identical** to the per-lane
scalar handlers (``repro.emu.interpreter._HANDLERS``), which stay as the
fallback and as the test and fuzz reference (``ScalarInterpreter``):

* vector registers store the element-size-wrapped *unsigned* value of
  each lane (what ``to_unsigned`` returns), held in a ``uint64`` array
  by :class:`~repro.emu.state.ArchState`;
* operands are sign-extended from the instruction's element size into
  ``int64`` lanes (:func:`~repro.memory.image.to_signed_array`), mirroring
  ``ArchState.read_lane(..., signed=True)``;
* results are wrapped back to the element size by vectorised masking
  (:func:`~repro.memory.image.to_unsigned_array`), mirroring
  ``to_unsigned`` on write.

All arithmetic is congruent mod 2**64 to Python's arbitrary-precision
arithmetic, and every result is reduced mod 2**(8*elem) on write — so
wrap-around in ``int64``/``uint64`` intermediates never changes the
stored value.  Operations whose *value* (not residue) matters — DIV,
MOD, MIN/MAX, compares — are computed on the exact sign-extended
``int64`` operands, which always fit because elements are at most 8
bytes.  What numpy cannot represent — an operand outside the signed
64-bit range, or gather/scatter geometry whose address arithmetic could
wrap ``int64`` — raises :class:`NumpyFallback`, and the interpreter
re-executes that single op through the scalar handler (the two paths
agree wherever both are defined).
"""

from __future__ import annotations

import numpy as np

U64 = np.uint64


class NumpyFallback(Exception):
    """An operand is outside what the numpy kernels can represent.

    Raised by operand conversion (e.g. an immediate beyond signed 64-bit);
    the interpreter catches it and re-executes the op via the scalar
    Python handler, which is defined for arbitrary-precision values.
    """


def resolve_engine(engine: str | None) -> str:
    """Name of the lane engine: always ``"numpy"``.

    There is one engine; this stub remains only because the benchmark
    harness (``perfbench/worker.py``, ``environment()``) records its
    value and ``tests/test_imports.py`` calls it.  The argument is
    ignored.
    """
    return "numpy"


_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def scalar_i64(value: int) -> int:
    """Guard a Python scalar for use inside ``int64`` kernels."""
    if _I64_MIN <= value <= _I64_MAX:
        return value
    raise NumpyFallback(f"operand {value} outside signed 64-bit range")


# -- ALU kernels ------------------------------------------------------------
#
# Each kernel receives sign-extended int64 arrays ``a`` (and ``c`` for
# FMA) and ``b`` as either an int64 array or a guarded Python int, and
# returns an int64/uint64/bool array whose elem-wrapped value equals
# the scalar path's ``to_unsigned(op(a, b, c), elem)``.


def _shift_amount(b):
    s = b & 63
    if isinstance(s, int):
        return np.uint64(s)
    return s.view(U64)


def _as_i64_array(b, like: "np.ndarray") -> "np.ndarray":
    if isinstance(b, np.ndarray):
        return b
    return np.full_like(like, b)


def _k_div(a, b, c):
    # Exact truncating division with div-by-zero → 0 (SVE-style),
    # computed in uint64 so |int64 min| does not overflow.
    b = _as_i64_array(b, a)
    b_zero = b == 0
    ua = np.abs(a).view(U64)
    ub = np.abs(b).view(U64)
    safe = np.where(b_zero, np.uint64(1), ub)
    q = ua // safe
    negative = (a < 0) != (b < 0)
    q = np.where(negative, np.uint64(0) - q, q)
    return np.where(b_zero, np.uint64(0), q)


def _k_mod(a, b, c):
    # a - b * div(a, b); congruent mod 2**64 to the Python result.
    b = _as_i64_array(b, a)
    q = _k_div(a, b, c)
    res = a.view(U64) - b.view(U64) * q
    return np.where(b == 0, np.uint64(0), res)


#: numpy ALU semantics by opcode *name* (mirrors the interpreter's
#: scalar ``_ALU_BY_NAME`` table, which both opcode enums share).
NP_ALU_BY_NAME = {
    "ADD": lambda a, b, c: a + b,
    "SUB": lambda a, b, c: a - b,
    "MUL": lambda a, b, c: a * b,
    "DIV": _k_div,
    "MOD": _k_mod,
    "AND": lambda a, b, c: a & b,
    "OR": lambda a, b, c: a | b,
    "XOR": lambda a, b, c: a ^ b,
    "SHL": lambda a, b, c: a.view(U64) << _shift_amount(b),
    "SHR": lambda a, b, c: a.view(U64) >> _shift_amount(b),
    "MOV": lambda a, b, c: a,
    "MIN": lambda a, b, c: np.minimum(a, b),
    "MAX": lambda a, b, c: np.maximum(a, b),
    "ABS": lambda a, b, c: np.abs(a),
    "FMA": lambda a, b, c: a * b + c,
    "CMP_LT": lambda a, b, c: a < b,
    "CMP_LE": lambda a, b, c: a <= b,
    "CMP_EQ": lambda a, b, c: a == b,
    "CMP_NE": lambda a, b, c: a != b,
}

#: numpy compare semantics by :class:`CmpOpcode` name
NP_COMPARE_BY_NAME = {
    "LT": lambda a, b: a < b,
    "LE": lambda a, b: a <= b,
    "EQ": lambda a, b: a == b,
    "NE": lambda a, b: a != b,
    "GT": lambda a, b: a > b,
    "GE": lambda a, b: a >= b,
}
