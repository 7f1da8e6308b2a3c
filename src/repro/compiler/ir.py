"""Loop intermediate representation.

The compiler consumes inner loops in a small IR that captures exactly the
features the paper's evaluation relies on: affine array references,
indirect (gather/scatter) references through index arrays, if-converted
conditionals, and integer arithmetic.  A loop in this IR looks like::

    # for i in range(N): a[x[i]] = a[i] + 2      (the paper's listing 1)
    loop = Loop(
        name="listing1",
        arrays={"a": 4, "x": 4},
        body=[
            Store(
                "a",
                Indirect("x"),
                BinOp("+", Read("a", Affine()), Const(2)),
            )
        ],
    )

Index expressions are either :class:`Affine` (``scale * i + offset``) or
:class:`Indirect` (``index_array[scale * i + offset]``), which is exactly
the distinction that decides between contiguous and gather/scatter code
and between provable and statically-unknown dependences.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Union

from repro.common.errors import CompilerError

VALID_BINOPS = ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "min", "max")
VALID_CMPS = ("<", "<=", "==", "!=", ">", ">=")


# ---------------------------------------------------------------------------
# index expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Affine:
    """Index ``scale * i + offset`` into an array."""

    scale: int = 1
    offset: int = 0

    def at(self, i: int) -> int:
        return self.scale * i + self.offset


@dataclass(frozen=True)
class Indirect:
    """Index ``index_array[scale * i + offset]``."""

    array: str
    inner: Affine = field(default_factory=Affine)


IndexExpr = Union[Affine, Indirect]


# ---------------------------------------------------------------------------
# value expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class LoopIndex:
    """The loop induction variable ``i`` as a value."""


@dataclass(frozen=True)
class Param:
    """A loop-invariant scalar parameter, bound at run time."""

    name: str


@dataclass(frozen=True)
class Read:
    """Array element read ``array[index]``."""

    array: str
    index: IndexExpr


@dataclass(frozen=True)
class BinOp:
    op: str
    lhs: "Expr"
    rhs: "Expr"

    def __post_init__(self) -> None:
        if self.op not in VALID_BINOPS:
            raise CompilerError(f"invalid binary operator {self.op!r}")


@dataclass(frozen=True)
class Select:
    """If-converted conditional value: ``then_value if cond else else_value``.

    ``cond`` is a comparison between two expressions; the code generators
    lower it to a predicate (section III-C: forward control flow inside an
    SRV-region is handled through if-conversion).
    """

    cmp: str
    cmp_lhs: "Expr"
    cmp_rhs: "Expr"
    then_value: "Expr"
    else_value: "Expr"

    def __post_init__(self) -> None:
        if self.cmp not in VALID_CMPS:
            raise CompilerError(f"invalid comparison {self.cmp!r}")


Expr = Union[Const, LoopIndex, Param, Read, BinOp, Select]


# ---------------------------------------------------------------------------
# statements & loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Store:
    """Array element write ``array[index] = value``."""

    array: str
    index: IndexExpr
    value: Expr


@dataclass(frozen=True)
class Reduce:
    """Reduction ``array[offset] = array[offset] op value`` per iteration.

    ``op`` is one of ``+``, ``min``, ``max``.  Reductions are vectorisable
    by the standard transform (per-lane partial accumulators, horizontal
    combine after the loop) — but **not inside an SRV-region**: the
    accumulator update is not idempotent, so a selective replay would
    double-count the replayed lanes.  This is the architectural reason the
    paper keeps state-changing scalar operations outside regions
    (section III-A); the code generator enforces it.
    """

    array: str
    op: str
    value: Expr
    offset: int = 0

    def __post_init__(self) -> None:
        if self.op not in ("+", "min", "max"):
            raise CompilerError(f"invalid reduction op {self.op!r}")


Statement = Union[Store, Reduce]


def expr_reads(expr: Expr) -> list[Read]:
    """Array reads of ``expr`` in evaluation order.

    The order matches the vector code generator's expression lowering
    (``BinOp`` left before right; ``Select`` condition operands before
    the two values), which the region-granular analyzer relies on when
    it predicts which cross-lane conflicts trigger a replay.
    """
    out: list[Read] = []

    def walk(e: Expr) -> None:
        if isinstance(e, Read):
            out.append(e)
        elif isinstance(e, BinOp):
            walk(e.lhs)
            walk(e.rhs)
        elif isinstance(e, Select):
            walk(e.cmp_lhs)
            walk(e.cmp_rhs)
            walk(e.then_value)
            walk(e.else_value)

    walk(expr)
    return out


@dataclass(frozen=True)
class Loop:
    """An inner loop ``for i in range(n): body`` over named arrays.

    ``arrays`` maps array names to element sizes in bytes.  ``step`` is
    +1 (increasing induction variable → SRV UP attribute) or -1
    (decreasing → DOWN).
    """

    name: str
    arrays: dict[str, int]
    body: tuple[Statement, ...]
    step: int = 1

    def __init__(self, name: str, arrays: dict[str, int], body, step: int = 1):
        if step not in (1, -1):
            raise CompilerError(f"loop step must be +1 or -1, got {step}")
        if not body:
            raise CompilerError("loop body must not be empty")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arrays", dict(arrays))
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "step", step)
        for stmt in self.body:
            self._check_statement(stmt)

    def _check_array(self, name: str) -> None:
        if name not in self.arrays:
            raise CompilerError(f"loop {self.name!r} references unknown array {name!r}")

    def _check_index(self, index: IndexExpr) -> None:
        if isinstance(index, Indirect):
            self._check_array(index.array)
        elif not isinstance(index, Affine):
            raise CompilerError(f"bad index expression {index!r}")

    def _check_expr(self, expr: Expr) -> None:
        if isinstance(expr, Read):
            self._check_array(expr.array)
            self._check_index(expr.index)
        elif isinstance(expr, BinOp):
            self._check_expr(expr.lhs)
            self._check_expr(expr.rhs)
        elif isinstance(expr, Select):
            for sub in (expr.cmp_lhs, expr.cmp_rhs, expr.then_value, expr.else_value):
                self._check_expr(sub)
        elif not isinstance(expr, (Const, LoopIndex, Param)):
            raise CompilerError(f"bad expression {expr!r}")

    def _check_statement(self, stmt: Statement) -> None:
        if isinstance(stmt, Reduce):
            self._check_array(stmt.array)
            self._check_expr(stmt.value)
            return
        if not isinstance(stmt, Store):
            raise CompilerError(f"bad statement {stmt!r}")
        self._check_array(stmt.array)
        self._check_index(stmt.index)
        self._check_expr(stmt.value)

    # -- reference enumeration (used by dependence analysis & codegen) -----

    def reads(self) -> list[Read]:
        out: list[Read] = []
        for stmt in self.body:
            out.extend(expr_reads(stmt.value))
        return out

    def writes(self) -> list[Store]:
        return [stmt for stmt in self.body if isinstance(stmt, Store)]

    def reductions(self) -> list["Reduce"]:
        return [stmt for stmt in self.body if isinstance(stmt, Reduce)]

    def index_arrays(self) -> set[str]:
        """Arrays used as indirection tables."""
        tables: set[str] = set()
        for read in self.reads():
            if isinstance(read.index, Indirect):
                tables.add(read.index.array)
        for store in self.writes():
            if isinstance(store.index, Indirect):
                tables.add(store.index.array)
        return tables

    def memory_reference_count(self) -> int:
        """Static memory references, counting index-table loads."""
        count = len(self.reads()) + len(self.writes())
        count += 2 * len(self.reductions())  # accumulator load + store
        count += sum(
            1
            for ref in self.reads() + [s for s in self.writes()]
            if isinstance(getattr(ref, "index", None), Indirect)
        )
        return count

    def gather_scatter_count(self) -> int:
        n = sum(
            1
            for read in self.reads()
            if isinstance(read.index, Indirect) or abs(read.index.scale) != 1
        )
        n += sum(
            1
            for store in self.writes()
            if isinstance(store.index, Indirect) or abs(store.index.scale) != 1
        )
        return n


def _trunc_div(a: int, b: int) -> int:
    """``a / b`` rounded toward zero, and 0 for ``b == 0``."""
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _trunc_mod(a: int, b: int) -> int:
    """The remainder that goes with :func:`_trunc_div` (0 for ``b == 0``)."""
    if b == 0:
        return 0
    return a - b * _trunc_div(a, b)


_U64 = (1 << 64) - 1

#: the oracle's binary operators; shifts take the count modulo 64 and
#: ``>>`` is logical over the 64-bit pattern
_BINOP_FNS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _trunc_div, "%": _trunc_mod,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
    "<<": lambda a, b: a << (b & 63),
    ">>": lambda a, b: (a & _U64) >> (b & 63),
    "min": min, "max": max,
}
_CMP_FNS = {
    "<": operator.lt, "<=": operator.le, "==": operator.eq,
    "!=": operator.ne, ">": operator.gt, ">=": operator.ge,
}
_REDUCE_FNS = {"+": operator.add, "min": min, "max": max}


def _compile_index(
    index: IndexExpr, data: dict[str, list[int]]
) -> Callable[[int], int]:
    if isinstance(index, Affine):
        scale, offset = index.scale, index.offset
        return lambda i: scale * i + offset
    name = index.array
    scale, offset = index.inner.scale, index.inner.offset
    table = data.get(name)
    if table is None:
        return lambda i: data[name][scale * i + offset]
    return lambda i: table[scale * i + offset]


def _compile_expr(
    expr: Expr, data: dict[str, list[int]], params: dict[str, int]
) -> Callable[[int], int]:
    """One closure ``i -> value`` per node of ``expr``."""
    if isinstance(expr, Const):
        value = expr.value
        return lambda i: value
    if isinstance(expr, LoopIndex):
        return lambda i: i
    if isinstance(expr, Param):
        name = expr.name
        if name not in params:
            return lambda i: params[name]
        value = params[name]
        return lambda i: value
    if isinstance(expr, Read):
        index = _compile_index(expr.index, data)
        name = expr.array
        values = data.get(name)
        if values is None:
            return lambda i: data[name][index(i)]
        return lambda i: values[index(i)]
    if isinstance(expr, BinOp):
        fn = _BINOP_FNS[expr.op]
        lhs = _compile_expr(expr.lhs, data, params)
        rhs = _compile_expr(expr.rhs, data, params)
        return lambda i: fn(lhs(i), rhs(i))
    if isinstance(expr, Select):
        cmp = _CMP_FNS[expr.cmp]
        a = _compile_expr(expr.cmp_lhs, data, params)
        b = _compile_expr(expr.cmp_rhs, data, params)
        then = _compile_expr(expr.then_value, data, params)
        other = _compile_expr(expr.else_value, data, params)
        return lambda i: then(i) if cmp(a(i), b(i)) else other(i)
    raise CompilerError(f"unhandled expr {expr!r}")


def _compile_statement(
    stmt: Statement, loop: Loop, data: dict[str, list[int]],
    params: dict[str, int],
) -> Callable[[int], None]:
    """One closure ``i -> None`` running ``stmt`` for iteration ``i``,
    wrapping the stored value to the array's element size."""
    name = stmt.array
    elem = loop.arrays[name]
    mask = (1 << (elem * 8)) - 1
    sign = 1 << (elem * 8 - 1)
    value = _compile_expr(stmt.value, data, params)
    if isinstance(stmt, Reduce):
        combine = _REDUCE_FNS[stmt.op]
        offset = stmt.offset

        def reduce(i: int) -> None:
            new = value(i)
            values = data[name]
            values[offset] = (
                (combine(values[offset], new) & mask) ^ sign
            ) - sign

        return reduce
    index = _compile_index(stmt.index, data)

    def store(i: int) -> None:
        new = ((value(i) & mask) ^ sign) - sign
        data[name][index(i)] = new

    return store


def scalar_reference(loop: Loop, arrays: dict[str, list[int]], n: int, params: dict[str, int] | None = None) -> dict[str, list[int]]:
    """Execute the loop sequentially in pure Python (the semantic oracle).

    The loop body is compiled once into one closure per expression node
    (``operator`` callables for the arithmetic), then run for each
    iteration.  A read of an array missing from ``arrays``, or of a
    parameter missing from ``params``, raises ``KeyError`` only when an
    iteration evaluates it.
    """
    from repro.memory.image import to_signed, to_unsigned

    params = params or {}
    # normalise initial values through the arrays' element storage, exactly
    # as MemoryImage.store_array would: to_signed(to_unsigned(v)) is v
    # itself inside the element's signed range, so only an array with a
    # value outside it is wrapped value by value
    data = {}
    for name, values in arrays.items():
        values = list(values)
        if values:
            size = loop.arrays[name]
            half = 1 << (size * 8 - 1)
            if min(values) < -half or max(values) >= half:
                values = [to_signed(to_unsigned(v, size), size)
                          for v in values]
        data[name] = values
    body = [_compile_statement(stmt, loop, data, params) for stmt in loop.body]
    iterations = range(n) if loop.step == 1 else range(n - 1, -1, -1)
    for i in iterations:
        for run in body:
            run(i)
    return data
