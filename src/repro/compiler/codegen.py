"""Code generation: loop IR → ISA programs.

Four strategies, matching the paper's compiled binaries (section V):

* ``SCALAR`` — the -O3 baseline without vectorisation.
* ``SVE`` — state-of-the-art auto-vectorisation: loops whose dependences
  are provably safe are vectorised with predicated SVE-style code; loops
  with statically-unknown (or provably short-distance) dependences **fall
  back to scalar code**, exactly like the paper's SVE binaries, for which
  SRV-vectorisable loops remain scalar.
* ``SRV`` — bypasses the memory-safety check (the paper's OpenMP-hint
  mechanism) and vectorises regardless, bracketing the vector body in
  ``srv_start``/``srv_end``.  Induction-variable updates and address
  computation stay outside the region (section III-A).
* ``FLEXVEC`` — implemented in :mod:`repro.compiler.flexvec`.

The vector code generator unifies main loop and epilogue with a
``whilelt``-style predicate (``pfirstn``), so every vector operation is
guarded by the remaining-iterations mask.
"""

from __future__ import annotations

import enum

from repro.common.errors import CompilerError
from repro.compiler.analysis import DepClass, region_class
from repro.compiler.ir import (
    Affine,
    BinOp,
    Const,
    Expr,
    IndexExpr,
    Indirect,
    Loop,
    LoopIndex,
    Param,
    Read,
    Reduce,
    Select,
    Store,
)
from repro.isa import ProgramBuilder, SrvDirection, imm, p, v, x
from repro.isa.instructions import CmpOpcode, VecOpcode
from repro.isa.registers import PredReg, ScalarReg, VecReg
from repro.memory.image import MemoryImage

_CMP = {
    "<": CmpOpcode.LT,
    "<=": CmpOpcode.LE,
    "==": CmpOpcode.EQ,
    "!=": CmpOpcode.NE,
    ">": CmpOpcode.GT,
    ">=": CmpOpcode.GE,
}

_VEC_BINOP = {
    "+": "v_add",
    "-": "v_sub",
    "*": "v_mul",
    "/": "v_div",
    "&": "v_and",
    "|": "v_or",
    "^": "v_xor",
    "<<": "v_shl",
    ">>": "v_shr",
    "min": "v_min",
    "max": "v_max",
}

_SCALAR_BINOP = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "%": "mod",
    "&": "and_",
    "|": "or_",
    "^": "xor",
    "<<": "shl",
    ">>": "shr",
    "min": "min_",
    "max": "max_",
}

# register conventions
REG_I = x(1)
REG_N = x(2)
REG_REM = x(3)
FIRST_BASE_REG = 4
FIRST_TEMP_REG = 16
PRED_LOOP = p(1)
FIRST_TEMP_PRED = 2


class Strategy(enum.Enum):
    SCALAR = "scalar"
    SVE = "sve"
    SRV = "srv"
    #: SRV with analysis-guided region placement: proven-safe statement
    #: spans are emitted without ``srv_start``/``srv_end`` and
    #: proven-dense regions carry the sequential hint (repro.analyze)
    SRV_GUIDED = "srv_guided"
    FLEXVEC = "flexvec"


class _RegPool:
    """Stack-disciplined temp allocator, reset per statement.

    ``release`` frees the most recent allocation(s); expression lowering
    pops operand temps as soon as they are consumed, bounding pressure by
    tree depth rather than tree size.
    """

    def __init__(self, first: int, limit: int, make, what: str) -> None:
        self._first = first
        self._next = first
        self._limit = limit
        self._make = make
        self._what = what

    def take(self):
        if self._next >= self._limit:
            raise CompilerError(f"out of {self._what} registers")
        reg = self._make(self._next)
        self._next += 1
        return reg

    def release(self, reg) -> None:
        """Pop ``reg`` if it is the top of the stack; no-op otherwise."""
        if self.owns(reg) and reg.index == self._next - 1:
            self._next -= 1

    def owns(self, reg) -> bool:
        return self._first <= getattr(reg, "index", -1) < self._limit

    def reset(self) -> None:
        self._next = self._first


class LoopCodeGenerator:
    """Generates one strategy's program for one loop."""

    def __init__(
        self,
        loop: Loop,
        memory: MemoryImage,
        n: int,
        params: dict[str, int] | None = None,
        vector_length: int = 16,
    ) -> None:
        self.loop = loop
        self.memory = memory
        self.n = n
        self.params = params or {}
        self.vl = vector_length
        self.bases: dict[str, ScalarReg] = {}
        for k, name in enumerate(sorted(loop.arrays)):
            if FIRST_BASE_REG + k >= FIRST_TEMP_REG:
                raise CompilerError("too many arrays for base-register file")
            self.bases[name] = x(FIRST_BASE_REG + k)
        self._elem_shift = {
            name: (size.bit_length() - 1) for name, size in loop.arrays.items()
        }

    # -- shared scaffolding ------------------------------------------------

    def _prologue(self, b: ProgramBuilder) -> None:
        for name, reg in self.bases.items():
            b.mov(reg, imm(self.memory.allocation(name).base))
        b.mov(REG_N, imm(self.n))
        if self.loop.step == 1:
            b.mov(REG_I, imm(0))
        else:
            b.mov(REG_I, imm(self.n - 1))

    def elem(self, array: str) -> int:
        return self.loop.arrays[array]

    # ======================================================================
    # scalar code generation
    # ======================================================================

    def scalar_program(self) -> "Program":
        b = ProgramBuilder(f"{self.loop.name}:scalar")
        temps = _RegPool(FIRST_TEMP_REG, 32, x, "scalar temp")
        self._prologue(b)
        b.label("top")
        for stmt in self.loop.body:
            temps.reset()
            value = self._scalar_expr(b, stmt.value, temps)
            if isinstance(stmt, Reduce):
                elem = self.elem(stmt.array)
                acc = temps.take()
                b.load(acc, self.bases[stmt.array], stmt.offset * elem, elem=elem)
                op = {"+": "add", "min": "min_", "max": "max_"}[stmt.op]
                getattr(b, op)(acc, acc, value)
                b.store(acc, self.bases[stmt.array], stmt.offset * elem, elem=elem)
                continue
            addr = self._scalar_addr(b, stmt.array, stmt.index, temps)
            b.store(value, addr, 0, elem=self.elem(stmt.array))
        if self.loop.step == 1:
            b.add(REG_I, REG_I, imm(1))
            b.blt(REG_I, REG_N, "top")
        else:
            b.sub(REG_I, REG_I, imm(1))
            b.bge(REG_I, imm(0), "top")
        b.halt()
        return b.build()

    def _scalar_index(self, b, index: IndexExpr, temps) -> ScalarReg:
        if isinstance(index, Affine):
            reg = temps.take()
            if index.scale == 1:
                b.add(reg, REG_I, imm(index.offset))
            else:
                b.mul(reg, REG_I, imm(index.scale))
                if index.offset:
                    b.add(reg, reg, imm(index.offset))
            return reg
        # indirect: reuse the inner-index register for address and result
        reg = self._scalar_index(b, index.inner, temps)
        shift = self._elem_shift[index.array]
        b.shl(reg, reg, imm(shift))
        b.add(reg, reg, self.bases[index.array])
        b.load(reg, reg, 0, elem=self.elem(index.array))
        return reg

    def _scalar_addr(self, b, array: str, index: IndexExpr, temps) -> ScalarReg:
        # the index register is reused as the address register
        reg = self._scalar_index(b, index, temps)
        b.shl(reg, reg, imm(self._elem_shift[array]))
        b.add(reg, reg, self.bases[array])
        return reg

    def _scalar_expr(self, b, expr: Expr, temps) -> ScalarReg:
        if isinstance(expr, Const):
            reg = temps.take()
            b.mov(reg, imm(expr.value))
            return reg
        if isinstance(expr, LoopIndex):
            return REG_I
        if isinstance(expr, Param):
            reg = temps.take()
            b.mov(reg, imm(self.params[expr.name]))
            return reg
        if isinstance(expr, Read):
            # the address register becomes the value register
            reg = self._scalar_addr(b, expr.array, expr.index, temps)
            if not temps.owns(reg):
                reg = temps.take()
            b.load(reg, reg, 0, elem=self.elem(expr.array))
            return reg
        if isinstance(expr, BinOp):
            lhs = self._scalar_expr(b, expr.lhs, temps)
            rhs = self._scalar_expr(b, expr.rhs, temps)
            dst = lhs if temps.owns(lhs) else temps.take()
            getattr(b, _SCALAR_BINOP[expr.op])(dst, lhs, rhs)
            temps.release(rhs)
            return dst
        if isinstance(expr, Select):
            a = self._scalar_expr(b, expr.cmp_lhs, temps)
            c = self._scalar_expr(b, expr.cmp_rhs, temps)
            then_v = self._scalar_expr(b, expr.then_value, temps)
            else_v = self._scalar_expr(b, expr.else_value, temps)
            # branchless select: result = else + cond * (then - else)
            cond = temps.take()
            from repro.isa.instructions import ScalarALU, ScalarOpcode

            swap = expr.cmp in (">", ">=")
            lhs, rhs = (c, a) if swap else (a, c)
            op = {
                "<": ScalarOpcode.CMP_LT,
                "<=": ScalarOpcode.CMP_LE,
                "==": ScalarOpcode.CMP_EQ,
                "!=": ScalarOpcode.CMP_NE,
                ">": ScalarOpcode.CMP_LT,
                ">=": ScalarOpcode.CMP_LE,
            }[expr.cmp]
            b.emit(ScalarALU(op, cond, lhs, rhs))
            diff = then_v if temps.owns(then_v) else temps.take()
            b.sub(diff, then_v, else_v)
            b.mul(diff, diff, cond)
            out = else_v if temps.owns(else_v) else temps.take()
            b.add(out, else_v, diff)
            # free everything above `out` on the stack
            temps.release(cond)
            if diff is not out:
                temps.release(diff)
            return out
        raise CompilerError(f"unhandled expression {expr!r}")

    # ======================================================================
    # vector code generation (shared by SVE and SRV)
    # ======================================================================

    def _contiguous_arrays(self) -> list[str]:
        """Arrays accessed contiguously (data or index tables), in order."""
        if self.loop.step != 1:
            return []
        names: list[str] = []

        def note(index: IndexExpr) -> None:
            if isinstance(index, Affine) and index.scale == 1:
                return
            if isinstance(index, Indirect) and index.array not in names:
                names.append(index.array)

        for read in self.loop.reads():
            if self._is_contiguous(read.index) and read.array not in names:
                names.append(read.array)
            note(read.index)
        for store in self.loop.writes():
            if self._is_contiguous(store.index) and store.array not in names:
                names.append(store.array)
            note(store.index)
        return names

    def vector_program(self, srv: bool, plan=None) -> "Program":
        """Vector code, optionally bracketed in SRV-regions.

        ``plan`` (a :class:`repro.analyze.regions.RegionPlan`, only
        meaningful with ``srv=True``) splits the body into speculative
        and plain segments; without it the whole body forms one
        speculative region — the baseline SRV shape.
        """
        if srv and self.loop.reductions():
            raise CompilerError(
                "reductions cannot live inside an SRV-region: the "
                "accumulator update is not idempotent under selective "
                "replay (section III-A keeps such state outside regions)"
            )
        tag = "srv" if srv else "sve"
        b = ProgramBuilder(f"{self.loop.name}:{tag}")
        self._prologue(b)
        # per-reduction vector accumulators, initialised to the identity
        self._acc: dict[int, "VecReg"] = {}
        for k, stmt in enumerate(self.loop.reductions()):
            if k >= 4:
                raise CompilerError("at most 4 reductions per loop")
            acc = v(27 + k)
            self._acc[id(stmt)] = acc
            elem = self.elem(stmt.array)
            identity = {
                "+": 0,
                "min": (1 << (8 * elem - 1)) - 1,
                "max": -(1 << (8 * elem - 1)),
            }[stmt.op]
            b.v_splat(acc, imm(identity), elem=elem)
        # Current-iteration pointer registers: hoisted ahead of the region
        # so the SRV-region body contains only vector instructions (III-A).
        self._cur = {}
        for k, name in enumerate(self._contiguous_arrays()):
            if FIRST_TEMP_REG + k >= 28:
                raise CompilerError("too many contiguous arrays for pointers")
            self._cur[name] = x(FIRST_TEMP_REG + k)
        b.label("top")
        # remaining-iterations predicate (whilelt)
        if self.loop.step == 1:
            b.sub(REG_REM, REG_N, REG_I)
        else:
            b.add(REG_REM, REG_I, imm(1))
        b.pfirstn(PRED_LOOP, REG_REM)
        for name, reg in self._cur.items():
            b.shl(x(15), REG_I, imm(self._elem_shift[name]))
            b.add(reg, self.bases[name], x(15))
        direction = SrvDirection.UP if self.loop.step == 1 else SrvDirection.DOWN
        if srv and plan is not None:
            if plan.statement_count != len(self.loop.body):
                raise CompilerError(
                    f"region plan covers {plan.statement_count} statements, "
                    f"loop body has {len(self.loop.body)}"
                )
            segments = [
                (r.speculative, list(r.statements), r.sequential)
                for r in plan.regions
            ]
        else:
            segments = [(srv, list(range(len(self.loop.body))), False)]
        vtemps = _RegPool(1, 27, v, "vector temp")
        ptemps = _RegPool(FIRST_TEMP_PRED, 16, p, "predicate temp")
        for speculative, statements, sequential in segments:
            if speculative:
                b.srv_start(direction, sequential=sequential)
            for s in statements:
                stmt = self.loop.body[s]
                if isinstance(stmt, Reduce):
                    self._vector_reduce_step(b, stmt, vtemps, ptemps)
                else:
                    self._vector_statement(b, stmt, vtemps, ptemps)
            if speculative:
                b.srv_end()
        if self.loop.step == 1:
            b.add(REG_I, REG_I, imm(self.vl))
            b.blt(REG_I, REG_N, "top")
        else:
            b.sub(REG_I, REG_I, imm(self.vl))
            b.bge(REG_I, imm(0), "top")
        # reduction epilogue: horizontal combine into the memory cell
        for stmt in self.loop.reductions():
            elem = self.elem(stmt.array)
            acc = self._acc[id(stmt)]
            op = {"+": "add", "min": "min", "max": "max"}[stmt.op]
            b.v_reduce(op, x(14), acc, elem=elem)
            b.load(x(15), self.bases[stmt.array], stmt.offset * elem, elem=elem)
            scalar_op = {"+": "add", "min": "min_", "max": "max_"}[stmt.op]
            getattr(b, scalar_op)(x(15), x(15), x(14))
            b.store(x(15), self.bases[stmt.array], stmt.offset * elem, elem=elem)
        b.halt()
        return b.build()

    def _vector_reduce_step(self, b, stmt: Reduce, vtemps, ptemps) -> None:
        vtemps.reset()
        ptemps.reset()
        elem = self.elem(stmt.array)
        value = self._vector_expr(b, stmt.value, vtemps, ptemps, PRED_LOOP, elem)
        acc = self._acc[id(stmt)]
        op = {"+": "v_add", "min": "v_min", "max": "v_max"}[stmt.op]
        getattr(b, op)(acc, acc, value, pred=PRED_LOOP, elem=elem)

    def _lane_step(self) -> int:
        return 1 if self.loop.step == 1 else -1

    def _vector_statement(
        self, b, stmt: Store, vtemps, ptemps, pred: PredReg = PRED_LOOP
    ) -> None:
        # Keep register pressure bounded: temps reset per statement but a
        # statement's own evaluation allocates linearly.  Arithmetic runs
        # at the destination array's element width.
        vtemps.reset()
        ptemps.reset()
        elem = self.elem(stmt.array)
        value = self._vector_expr(b, stmt.value, vtemps, ptemps, pred, elem)
        self._vector_store(b, stmt, value, vtemps, pred)

    def _index_vector(
        self, b, index: IndexExpr, vtemps, pred: PredReg = PRED_LOOP
    ) -> VecReg:
        """Materialise the per-lane element indices of ``index``."""
        if isinstance(index, Affine):
            reg = vtemps.take()
            step = index.scale * self._lane_step()
            # lane l index = scale*(i + step_l) + offset
            tmp = x(15)
            b.mul(tmp, REG_I, imm(index.scale))
            if index.offset:
                b.add(tmp, tmp, imm(index.offset))
            b.v_index(reg, tmp, imm(step))
            return reg
        if index.inner.scale != 1 or not isinstance(index.inner, Affine):
            raise CompilerError("indirect index tables must be scale-1 affine")
        table_elem = self.elem(index.array)
        reg = vtemps.take()
        if self.loop.step == 1:
            # contiguous load of the index vector via the hoisted pointer
            b.v_load(
                reg,
                self._cur[index.array],
                offset=index.inner.offset * table_elem,
                elem=table_elem,
                pred=pred,
            )
        else:
            lanes = vtemps.take()
            tmp = x(15)
            b.add(tmp, REG_I, imm(index.inner.offset))
            b.v_index(lanes, tmp, imm(-1))
            b.v_gather(reg, self.bases[index.array], lanes,
                       elem=table_elem, pred=pred)
        return reg

    def _is_contiguous(self, index: IndexExpr) -> bool:
        return (
            isinstance(index, Affine)
            and index.scale == 1
            and self.loop.step == 1
        )

    def _vector_load(self, b, read: Read, vtemps, pred: PredReg) -> VecReg:
        elem = self.elem(read.array)
        dst = vtemps.take()
        if isinstance(read.index, Affine) and read.index.scale == 0:
            # loop-invariant element: a broadcast load (every lane reads
            # the same address)
            b.v_bcast(
                dst, self.bases[read.array], offset=read.index.offset * elem,
                elem=elem, pred=pred,
            )
        elif self._is_contiguous(read.index):
            b.v_load(
                dst, self._cur[read.array], offset=read.index.offset * elem,
                elem=elem, pred=pred,
            )
        else:
            idx = self._index_vector(b, read.index, vtemps, pred)
            index_elem = (
                self.elem(read.index.array)
                if isinstance(read.index, Indirect)
                else 4
            )
            b.v_gather(dst, self.bases[read.array], idx, elem=elem,
                       index_elem=index_elem, pred=pred)
            vtemps.release(idx)
        return dst

    def _vector_store(
        self, b, stmt: Store, value: VecReg, vtemps, pred: PredReg = PRED_LOOP
    ) -> None:
        elem = self.elem(stmt.array)
        if self._is_contiguous(stmt.index):
            b.v_store(
                value, self._cur[stmt.array], offset=stmt.index.offset * elem,
                elem=elem, pred=pred,
            )
        else:
            idx = self._index_vector(b, stmt.index, vtemps, pred)
            index_elem = (
                self.elem(stmt.index.array)
                if isinstance(stmt.index, Indirect)
                else 4
            )
            b.v_scatter(value, self.bases[stmt.array], idx, elem=elem,
                        index_elem=index_elem, pred=pred)

    def _vector_expr(
        self, b, expr: Expr, vtemps, ptemps, pred: PredReg, elem: int = 4
    ) -> VecReg:
        if isinstance(expr, Const):
            reg = vtemps.take()
            b.v_splat(reg, imm(expr.value), elem=elem)
            return reg
        if isinstance(expr, LoopIndex):
            reg = vtemps.take()
            b.v_index(reg, REG_I, imm(self._lane_step()), elem=elem)
            return reg
        if isinstance(expr, Param):
            reg = vtemps.take()
            b.v_splat(reg, imm(self.params[expr.name]), elem=elem)
            return reg
        if isinstance(expr, Read):
            return self._vector_load(b, expr, vtemps, pred)
        if isinstance(expr, BinOp):
            lhs = self._vector_expr(b, expr.lhs, vtemps, ptemps, pred, elem)
            rhs = self._vector_expr(b, expr.rhs, vtemps, ptemps, pred, elem)
            if expr.op == "%":
                # a % b = a - b * (a / b)
                q = vtemps.take()
                b.v_div(q, lhs, rhs, pred=pred, elem=elem)
                b.v_mul(q, q, rhs, pred=pred, elem=elem)
                out = lhs if vtemps.owns(lhs) else vtemps.take()
                b.v_sub(out, lhs, q, pred=pred, elem=elem)
                vtemps.release(q)
                vtemps.release(rhs)
                return out
            # reuse the lhs register for the result; pop the rhs temp
            out = lhs if vtemps.owns(lhs) else vtemps.take()
            getattr(b, _VEC_BINOP[expr.op])(out, lhs, rhs, pred=pred, elem=elem)
            vtemps.release(rhs)
            return out
        if isinstance(expr, Select):
            # if-conversion (section III-C)
            a = self._vector_expr(b, expr.cmp_lhs, vtemps, ptemps, pred, elem)
            c = self._vector_expr(b, expr.cmp_rhs, vtemps, ptemps, pred, elem)
            then_v = self._vector_expr(b, expr.then_value, vtemps, ptemps, pred, elem)
            else_v = self._vector_expr(b, expr.else_value, vtemps, ptemps, pred, elem)
            cond = ptemps.take()
            b.v_cmp(_CMP[expr.cmp], cond, a, c, pred=pred, elem=elem)
            both = ptemps.take()
            b.p_and(both, pred, cond)
            out = vtemps.take()
            b.v_mov(out, else_v, pred=pred, elem=elem)
            b.v_mov(out, then_v, pred=both, elem=elem)
            return out
        raise CompilerError(f"unhandled expression {expr!r}")

    # ======================================================================
    # strategy dispatch
    # ======================================================================

    def generate(self, strategy: Strategy) -> "Program":
        if strategy is Strategy.SCALAR:
            return self.scalar_program()
        if strategy is Strategy.SVE:
            if region_class(self.loop, None, self.vl) in (
                DepClass.NONE, DepClass.PROVABLE_SAFE,
            ):
                return self.vector_program(srv=False)
            # state-of-the-art compiler cannot prove safety: scalar fallback
            return self.scalar_program()
        if strategy in (Strategy.SRV, Strategy.SRV_GUIDED):
            if self.loop.reductions():
                # reductions are incompatible with selective replay; when
                # the loop is otherwise clean, vectorise without a region,
                # else run scalar — SRV's coverage boundary (section VI).
                if region_class(self.loop, None, self.vl) in (
                    DepClass.NONE, DepClass.PROVABLE_SAFE,
                ):
                    return self.vector_program(srv=False)
                return self.scalar_program()
            if strategy is Strategy.SRV_GUIDED:
                # consult the value-aware analysis over the arrays already
                # materialised in memory (their compile-time contents are
                # the initial contents); proven-safe spans lose their
                # brackets, proven-dense ones gain the sequential hint
                from repro.analyze.facts import facts_from_memory
                from repro.analyze.report import guided_plan

                facts = facts_from_memory(self.loop, self.memory)
                plan = guided_plan(self.loop, facts, self.n, self.vl)
                if not plan.speculative:
                    return self.vector_program(srv=False)
                return self.vector_program(srv=True, plan=plan)
            return self.vector_program(srv=True)
        if strategy is Strategy.FLEXVEC:
            from repro.compiler.flexvec import flexvec_program

            try:
                return flexvec_program(self)
            except CompilerError:
                # FlexVec "does not attempt to vectorise" loops outside its
                # checkable shapes: scalar fallback, like the original.
                return self.scalar_program()
        raise CompilerError(f"unknown strategy {strategy!r}")


def compile_loop(
    loop: Loop,
    memory: MemoryImage,
    n: int,
    strategy: Strategy,
    params: dict[str, int] | None = None,
    vector_length: int = 16,
) -> "Program":
    """Compile ``loop`` over arrays already allocated in ``memory``."""
    return LoopCodeGenerator(loop, memory, n, params, vector_length).generate(strategy)
