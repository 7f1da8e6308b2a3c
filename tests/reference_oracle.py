"""The scalar oracle as a tree walker: the reference for the compiled one.

``repro.compiler.ir.scalar_reference`` compiles a loop body into one
closure per expression node and runs the iterations over the closures.
This module keeps the direct form it replaced, re-walking the expression
tree for every iteration, so the tests can hold the two equal.
"""

from __future__ import annotations

from repro.common.errors import CompilerError
from repro.compiler.ir import (
    Affine,
    BinOp,
    Const,
    Expr,
    IndexExpr,
    Loop,
    LoopIndex,
    Param,
    Read,
    Reduce,
    Select,
)
from repro.memory.image import to_signed, to_unsigned


def walk_reference(
    loop: Loop, arrays: dict[str, list[int]], n: int,
    params: dict[str, int] | None = None,
) -> dict[str, list[int]]:
    """Execute the loop sequentially, evaluating each expression by
    walking its tree."""
    params = params or {}
    data = {
        name: [to_signed(to_unsigned(v, loop.arrays[name]), loop.arrays[name])
               for v in values]
        for name, values in arrays.items()
    }

    def index_of(index: IndexExpr, i: int) -> int:
        if isinstance(index, Affine):
            return index.at(i)
        return data[index.array][index.inner.at(i)]

    def evaluate(expr: Expr, i: int) -> int:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, LoopIndex):
            return i
        if isinstance(expr, Param):
            return params[expr.name]
        if isinstance(expr, Read):
            return data[expr.array][index_of(expr.index, i)]
        if isinstance(expr, BinOp):
            a, b = evaluate(expr.lhs, i), evaluate(expr.rhs, i)
            if expr.op == "+":
                return a + b
            if expr.op == "-":
                return a - b
            if expr.op == "*":
                return a * b
            if expr.op == "/":
                if b == 0:
                    return 0
                q = abs(a) // abs(b)
                return q if (a >= 0) == (b >= 0) else -q
            if expr.op == "%":
                if b == 0:
                    return 0
                return a - b * evaluate(BinOp("/", Const(a), Const(b)), i)
            if expr.op == "&":
                return a & b
            if expr.op == "|":
                return a | b
            if expr.op == "^":
                return a ^ b
            if expr.op == "<<":
                return a << (b & 63)
            if expr.op == ">>":
                return (a & (1 << 64) - 1) >> (b & 63)
            if expr.op == "min":
                return min(a, b)
            if expr.op == "max":
                return max(a, b)
            raise CompilerError(f"unhandled op {expr.op}")
        if isinstance(expr, Select):
            a = evaluate(expr.cmp_lhs, i)
            b = evaluate(expr.cmp_rhs, i)
            taken = {
                "<": a < b, "<=": a <= b, "==": a == b,
                "!=": a != b, ">": a > b, ">=": a >= b,
            }[expr.cmp]
            return evaluate(expr.then_value if taken else expr.else_value, i)
        raise CompilerError(f"unhandled expr {expr!r}")

    iterations = range(n) if loop.step == 1 else range(n - 1, -1, -1)
    for i in iterations:
        for stmt in loop.body:
            elem = loop.arrays[stmt.array]
            value = evaluate(stmt.value, i)
            if isinstance(stmt, Reduce):
                current = data[stmt.array][stmt.offset]
                if stmt.op == "+":
                    combined = current + value
                elif stmt.op == "min":
                    combined = min(current, value)
                else:
                    combined = max(current, value)
                data[stmt.array][stmt.offset] = to_signed(
                    to_unsigned(combined, elem), elem
                )
            else:
                data[stmt.array][index_of(stmt.index, i)] = to_signed(
                    to_unsigned(value, elem), elem
                )
    return data
