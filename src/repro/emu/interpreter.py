"""Functional (instruction-accurate) emulator.

Executes :class:`~repro.isa.program.Program` objects against a
:class:`~repro.memory.image.MemoryImage`.  This is the correctness
reference for the whole reproduction: the cycle-approximate pipeline and
the SRV hardware model must always produce the same architectural results
as this interpreter, and SRV execution of a loop must match scalar
execution of the same loop.

SRV-regions are executed with full selective-replay semantics
(section III): stores are buffered speculatively, horizontal RAW
violations set lanes in the needs-replay set, and at ``srv_end`` only
those lanes are re-executed, bounded by ``lanes - 1`` rollbacks.

The emulator optionally records a dynamic trace
(:class:`~repro.pipeline.trace.TraceLog`) consumed by the cycle-approximate
pipeline — the same methodology as the paper's validated emulator feeding
its gem5 timing model.  It also provides the dynamic instruction counts
used for the FlexVec comparison (figure 13).
"""

from __future__ import annotations

from itertools import compress, repeat

from repro.common.config import TABLE_I, MachineConfig
from repro.common.errors import (
    IsaError,
    ReplayBoundExceededError,
    SrvError,
)
from repro.emu.metrics import EmuMetrics
from repro.emu.speculative import SpeculativeBuffer
from repro.emu.state import ArchState
from repro.isa.instructions import (
    Branch,
    BranchCond,
    CmpOpcode,
    Halt,
    Instruction,
    Jump,
    Nop,
    PredCount,
    PredFirstN,
    PredLogic,
    PredRange,
    PredSetAll,
    ScalarALU,
    ScalarLoad,
    ScalarOpcode,
    ScalarStore,
    SrvEnd,
    SrvStart,
    VecALU,
    VecCmp,
    VecExtractLane,
    VecIndex,
    VecLoadBroadcast,
    VecLoadContig,
    VecLoadGather,
    VecReduce,
    VecSplat,
    VecStoreContig,
    VecStoreScatter,
)
from repro.isa.program import Program
from repro.isa.registers import Imm, ScalarReg, VecReg
from repro.memory.image import MemoryImage, to_signed, to_unsigned
from repro.observe import events as _obs
from repro.pipeline.decode import DecodeTable
from repro.pipeline.trace import RegionEvent, TraceLog
from repro.verify import faults as _faults


def _div(a: int, b: int) -> int:
    if b == 0:
        return 0  # SVE-style: division by zero yields zero
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


#: ALU semantics by opcode *name* — both the scalar and vector opcode
#: enums share mnemonics, so the per-member dispatch table below is
#: populated lazily from this one.
_ALU_BY_NAME = {
    "ADD": lambda a, b, c: a + b,
    "SUB": lambda a, b, c: a - b,
    "MUL": lambda a, b, c: a * b,
    "DIV": lambda a, b, c: _div(a, b),
    "MOD": lambda a, b, c: a - b * _div(a, b) if b else 0,
    "AND": lambda a, b, c: a & b,
    "OR": lambda a, b, c: a | b,
    "XOR": lambda a, b, c: a ^ b,
    "SHL": lambda a, b, c: a << (b & 63),
    "SHR": lambda a, b, c: (a & (1 << 64) - 1) >> (b & 63),
    "MOV": lambda a, b, c: a,
    "MIN": lambda a, b, c: min(a, b),
    "MAX": lambda a, b, c: max(a, b),
    "ABS": lambda a, b, c: abs(a),
    "FMA": lambda a, b, c: a * b + c,
    "CMP_LT": lambda a, b, c: int(a < b),
    "CMP_LE": lambda a, b, c: int(a <= b),
    "CMP_EQ": lambda a, b, c: int(a == b),
    "CMP_NE": lambda a, b, c: int(a != b),
}

#: Per-enum-member dispatch, filled on first use (hashing an enum member
#: is cheaper than its ``.name`` string walk through an if-chain).
_ALU_DISPATCH: dict = {}


def _alu_fn(op):
    """The ``(a, b, c) -> result`` function of an ALU opcode."""
    fn = _ALU_DISPATCH.get(op)
    if fn is None:
        fn = _ALU_BY_NAME.get(op.name)
        if fn is None:
            raise IsaError(f"unhandled ALU opcode {op}")
        _ALU_DISPATCH[op] = fn
    return fn


_COMPARE = {
    CmpOpcode.LT: lambda a, b: a < b,
    CmpOpcode.LE: lambda a, b: a <= b,
    CmpOpcode.EQ: lambda a, b: a == b,
    CmpOpcode.NE: lambda a, b: a != b,
    CmpOpcode.GT: lambda a, b: a > b,
    CmpOpcode.GE: lambda a, b: a >= b,
}


_BRANCH_TAKEN = {
    BranchCond.EQ: lambda a, b: a == b,
    BranchCond.NE: lambda a, b: a != b,
    BranchCond.LT: lambda a, b: a < b,
    BranchCond.LE: lambda a, b: a <= b,
    BranchCond.GT: lambda a, b: a > b,
    BranchCond.GE: lambda a, b: a >= b,
}


def _branch_taken(cond: BranchCond, a: int, b: int) -> bool:
    return _BRANCH_TAKEN[cond](a, b)


class Interpreter:
    """Instruction-accurate executor with functional SRV semantics."""

    #: exact-type dispatch table, bound below the class body
    _handlers: dict[type, object]

    def __init__(
        self,
        program: Program,
        memory: MemoryImage,
        config: MachineConfig = TABLE_I,
        max_steps: int = 50_000_000,
        tracer: TraceLog | None = None,
        interrupt_at_step: int | None = None,
    ) -> None:
        program.validate()
        self.program = program
        self.memory = memory
        self.config = config
        self.lanes = config.vector_lanes
        self.state = ArchState(self.lanes)
        self._all_lanes = list(range(self.lanes))
        self.metrics = EmuMetrics()
        self.max_steps = max_steps
        #: the trace log every executed op is recorded into (None: untraced)
        self.tracer = tracer
        #: inject a context switch at this dynamic step (section III-D2
        #: semantics apply if it lands inside an SRV-region)
        self.interrupt_at_step = interrupt_at_step
        self._interrupt_pending = False
        self._steps = 0
        self._branch_taken: bool | None = None
        #: per-program static decode table: op class, register sets,
        #: access kind, latency and metric flags computed once per static
        #: instruction (replaces the former per-purpose ``id()`` caches)
        self.decode = DecodeTable.for_program(program)

    # ------------------------------------------------------------------ run

    def run(self) -> EmuMetrics:
        """Execute until ``halt`` or falling off the end of the program."""
        state = self.state
        n = len(self.program.instructions)
        while not state.halted and 0 <= state.pc < n:
            self._step_outer()
        return self.metrics

    def _step_outer(self) -> None:
        """Execute one top-level instruction (a whole region for srv_start)."""
        state = self.state
        inst = self.program.instructions[state.pc]
        if isinstance(inst, SrvStart):
            self._exec_srv_region(state.pc, inst)
        else:
            state.pc = self._exec(inst, state.pc)
        self._bump()
        if self._interrupt_pending:
            # a context switch outside an SRV-region needs no special
            # handling — architectural state is already precise
            self._interrupt_pending = False

    def iter_trace(self):
        """Execute while *yielding* the index of each finalized op of
        ``self.tracer`` (a fresh :class:`TraceLog` when unset).

        An op is final once its top-level step (a whole SRV region for
        ``srv_start``) has executed, so the indices of each step are
        yielded after it.  ``self.metrics`` and the architectural state
        are complete once the generator is exhausted.

        Only tests call it: the timed path and the sampler run ``run()``.
        It stays because ``perfbench/tracing.py`` patches it by name
        through the class ``__dict__``.
        """
        if self.tracer is None:
            self.tracer = TraceLog(self.program, self.decode)
        log = self.tracer
        done = len(log)
        state = self.state
        n = len(self.program.instructions)
        while not state.halted and 0 <= state.pc < n:
            self._step_outer()
            yield from range(done, len(log))
            done = len(log)

    def _bump(self) -> None:
        self._steps += 1
        if self._steps == self.interrupt_at_step:
            self._interrupt_pending = True
        if self._steps > self.max_steps:
            raise SrvError(
                f"execution exceeded {self.max_steps} steps; "
                "probable infinite loop in workload program"
            )

    # ------------------------------------------------------------ memory

    def _read_mem(
        self,
        addr: int,
        size: int,
        lane: int,
        buffer: SpeculativeBuffer | None,
        region_offset: int,
    ) -> int:
        if _faults.ACTIVE is not None and buffer is not None:
            addr = _faults.ACTIVE.perturb_addr(addr, lane, is_store=False)
        if self.tracer is not None:
            self.tracer.access(addr, size, False, lane)
        if buffer is not None:
            raw, forwarded = buffer.load(addr, size, lane, region_offset)
            if forwarded:
                self._forwarded = True
            return raw
        return self.memory.read_int(addr, size)

    def _write_mem(
        self,
        addr: int,
        size: int,
        value: int,
        lane: int,
        buffer: SpeculativeBuffer | None,
        region_offset: int,
    ) -> None:
        if _faults.ACTIVE is not None and buffer is not None:
            addr = _faults.ACTIVE.perturb_addr(addr, lane, is_store=True)
            value = _faults.ACTIVE.perturb_store_value(value, size, lane)
        if self.tracer is not None:
            self.tracer.access(addr, size, True, lane)
        if buffer is not None:
            buffer.store(addr, size, value, lane, region_offset)
        else:
            self.memory.write_int(addr, value, size)

    def _read_vec_mem(
        self,
        addrs: list[int],
        size: int,
        lanes: list[int],
        buffer: SpeculativeBuffer | None,
        region_offset: int,
    ) -> list[int]:
        """The active ``lanes`` of one vector load, in lane order.

        Outside a region the lanes read memory directly (fault plans
        perturb speculative accesses only).  Inside one with no fault
        plan armed, the speculative buffer takes the whole instruction in
        one call; otherwise each lane goes through :meth:`_read_mem`.
        """
        if buffer is None:
            read_int = self.memory.read_int
            values = [read_int(addr, size) for addr in addrs]
            if self.tracer is not None:
                self.tracer.accesses(addrs, size, False, lanes)
            return values
        if _faults.ACTIVE is not None:
            return [
                self._read_mem(addr, size, lane, buffer, region_offset)
                for addr, lane in zip(addrs, lanes)
            ]
        values, forwarded = buffer.load_lanes(addrs, size, lanes, region_offset)
        if forwarded:
            self._forwarded = True
        if self.tracer is not None:
            self.tracer.accesses(addrs, size, False, lanes)
        return values

    def _write_vec_mem(
        self,
        addrs: list[int],
        size: int,
        values: list[int],
        lanes: list[int],
        buffer: SpeculativeBuffer | None,
        region_offset: int,
    ) -> None:
        """Store the active ``lanes`` of one vector store, in lane order."""
        if buffer is None:
            write_int = self.memory.write_int
            for addr, value in zip(addrs, values):
                write_int(addr, value, size)
            if self.tracer is not None:
                self.tracer.accesses(addrs, size, True, lanes)
            return
        if _faults.ACTIVE is not None:
            for addr, value, lane in zip(addrs, values, lanes):
                self._write_mem(addr, size, value, lane, buffer, region_offset)
            return
        buffer.store_lanes(addrs, size, values, lanes, region_offset)
        if self.tracer is not None:
            self.tracer.accesses(addrs, size, True, lanes)

    # ------------------------------------------------------- single instr

    def _exec(
        self,
        inst: Instruction,
        pc: int,
        extra_mask: list[bool] | None = None,
        buffer: SpeculativeBuffer | None = None,
        region_offset: int = 0,
    ) -> int:
        """Execute one instruction; returns the next pc.

        ``extra_mask`` ANDs into every vector predicate (the SRV-replay
        register); ``buffer`` redirects memory traffic through the
        speculative buffer when inside an SRV-region.
        """
        self.metrics.count(*self.decode.record_for(inst).count_flags)
        self._branch_taken = None
        self._forwarded = False
        next_pc = self._dispatch(inst, pc, extra_mask, buffer, region_offset)
        if self._forwarded:
            self.metrics.loads_forwarded += 1
        if self.tracer is not None:
            self.tracer.record(pc, self._branch_taken)
        return next_pc

    def _dispatch(
        self,
        inst: Instruction,
        pc: int,
        extra_mask: list[bool] | None,
        buffer: SpeculativeBuffer | None,
        region_offset: int,
    ) -> int:
        handlers = self._handlers
        handler = handlers.get(type(inst))
        if handler is None:
            # subclasses of known instruction types still dispatch; cache
            # the resolution so the scan happens once per type
            for klass, fn in list(handlers.items()):
                if isinstance(inst, klass):
                    handlers[type(inst)] = fn
                    handler = fn
                    break
            else:
                if isinstance(inst, SrvEnd):
                    raise SrvError("srv_end reached outside an SRV-region")
                raise IsaError(f"unhandled instruction {inst!r}")
        return handler(self, inst, pc, extra_mask, buffer, region_offset)

    # -- per-type handlers (wired into _HANDLERS after the class body).
    # Vector ones read each source row once, sign-extended from the
    # instruction's element size, resolve their ALU or compare function
    # once, and write the destination row back with one merging write.

    def _op_scalar_alu(self, inst, pc, extra_mask, buffer, region_offset):
        state = self.state
        a = state.read_operand(inst.src1)
        b = None if inst.src2 is None else state.read_operand(inst.src2)
        state.write_scalar(inst.dst, _alu_fn(inst.op)(a, b, 0))
        return pc + 1

    def _op_scalar_load(self, inst, pc, extra_mask, buffer, region_offset):
        state = self.state
        addr = state.read_scalar(inst.base) + inst.offset
        raw = self._read_mem(addr, inst.elem, 0, buffer, region_offset)
        state.write_scalar(inst.dst, to_signed(raw, inst.elem))
        return pc + 1

    def _op_scalar_store(self, inst, pc, extra_mask, buffer, region_offset):
        state = self.state
        addr = state.read_scalar(inst.base) + inst.offset
        value = to_unsigned(state.read_scalar(inst.src), inst.elem)
        self._write_mem(addr, inst.elem, value, 0, buffer, region_offset)
        return pc + 1

    def _op_branch(self, inst, pc, extra_mask, buffer, region_offset):
        state = self.state
        a = state.read_scalar(inst.src1)
        b = state.read_operand(inst.src2)
        taken = _branch_taken(inst.cond, a, b)
        self._branch_taken = taken
        if taken:
            return self.program.label_target(inst.target)
        return pc + 1

    def _op_jump(self, inst, pc, extra_mask, buffer, region_offset):
        self._branch_taken = True
        return self.program.label_target(inst.target)

    def _op_halt(self, inst, pc, extra_mask, buffer, region_offset):
        self.state.halted = True
        return pc + 1

    def _op_nop(self, inst, pc, extra_mask, buffer, region_offset):
        return pc + 1

    # ---- vector --------------------------------------------------------

    def _op_vec_alu(self, inst, pc, extra_mask, buffer, region_offset):
        state = self.state
        elem = inst.elem
        a = state.signed_row(inst.src1, elem)
        b = self._vec_row(inst.src2, elem)
        c = repeat(0) if inst.src3 is None else state.signed_row(inst.src3, elem)
        # every lane is computed (no ALU op can fault); the merging write
        # keeps the inactive ones
        out = list(map(_alu_fn(inst.op), a, b, c))
        state.write_row(inst.dst, out, self._mask(inst.pred, extra_mask), elem)
        return pc + 1

    def _op_vec_splat(self, inst, pc, extra_mask, buffer, region_offset):
        state = self.state
        value = state.read_operand(inst.src)
        state.write_row(
            inst.dst, [value] * self.lanes,
            self._mask(inst.pred, extra_mask), inst.elem,
        )
        return pc + 1

    def _op_vec_index(self, inst, pc, extra_mask, buffer, region_offset):
        state = self.state
        start = state.read_operand(inst.start)
        step = state.read_operand(inst.step)
        values = [start + lane * step for lane in range(self.lanes)]
        # VecIndex is unpredicated
        state.write_row(inst.dst, values, extra_mask, inst.elem)
        return pc + 1

    def _op_vec_extract(self, inst, pc, extra_mask, buffer, region_offset):
        state = self.state
        if inst.lane >= self.lanes:
            raise IsaError(f"lane {inst.lane} out of range")
        state.write_scalar(
            inst.dst, state.read_lane(inst.src, inst.lane, inst.elem)
        )
        return pc + 1

    def _op_vec_reduce(self, inst, pc, extra_mask, buffer, region_offset):
        state = self.state
        mask = self._mask(inst.pred, extra_mask)
        if inst.op == "or":
            values = state.unsigned_row(inst.src, inst.elem)
        else:
            values = state.signed_row(inst.src, inst.elem)
        if mask is not None:
            values = list(compress(values, mask))
        if inst.op == "add":
            result = sum(values)
        elif inst.op == "min":
            result = min(values) if values else 0
        elif inst.op == "max":
            result = max(values) if values else 0
        else:  # "or"
            result = 0
            for value in values:
                result |= value
        state.write_scalar(inst.dst, result)
        return pc + 1

    def _op_vec_cmp(self, inst, pc, extra_mask, buffer, region_offset):
        state = self.state
        a = state.signed_row(inst.src1, inst.elem)
        b = self._vec_row(inst.src2, inst.elem)
        out = list(map(_COMPARE[inst.op], a, b))
        mask = self._mask(inst.pred, extra_mask)
        if mask is not None:  # inactive lanes clear
            out = [bit and active for bit, active in zip(out, mask)]
        state.write_pred(inst.dst, out)
        return pc + 1

    def _op_pred_set_all(self, inst, pc, extra_mask, buffer, region_offset):
        self.state.write_pred(inst.dst, [inst.value] * self.lanes)
        return pc + 1

    def _op_pred_count(self, inst, pc, extra_mask, buffer, region_offset):
        state = self.state
        state.write_scalar(inst.dst, sum(state.pred[inst.src.index]))
        return pc + 1

    def _op_pred_first_n(self, inst, pc, extra_mask, buffer, region_offset):
        state = self.state
        n = state.read_scalar(inst.count)
        state.write_pred(inst.dst, [lane < n for lane in range(self.lanes)])
        return pc + 1

    def _op_pred_range(self, inst, pc, extra_mask, buffer, region_offset):
        state = self.state
        lo = state.read_scalar(inst.lo)
        hi = state.read_scalar(inst.hi)
        state.write_pred(
            inst.dst, [lo <= lane < hi for lane in range(self.lanes)]
        )
        return pc + 1

    def _op_pred_logic(self, inst, pc, extra_mask, buffer, region_offset):
        state = self.state
        a = state.pred[inst.src1.index]
        if inst.op == "not":
            out = [not bit for bit in a]
        else:
            b = state.pred[inst.src2.index]
            if inst.op == "and":
                out = [i and j for i, j in zip(a, b)]
            elif inst.op == "or":
                out = [i or j for i, j in zip(a, b)]
            elif inst.op == "xor":
                out = [i != j for i, j in zip(a, b)]
            else:  # andnot
                out = [i and not j for i, j in zip(a, b)]
        state.write_pred(inst.dst, out)
        return pc + 1

    # ---- vector memory --------------------------------------------------
    #
    # Each access goes through _read_vec_mem / _write_vec_mem with the
    # instruction's active lanes in lane order, so the speculative buffer
    # sees the lanes in the order SRV conflict detection needs, the trace
    # log records them in canonical order, and overlapping scatter lanes
    # commit in lane order.

    def _op_vec_load_contig(self, inst, pc, extra_mask, buffer, region_offset):
        mask = self._mask(inst.pred, extra_mask)
        lanes = self._active(mask)
        if lanes:
            base = self.state.read_scalar(inst.base) + inst.offset
            elem = inst.elem
            if isinstance(inst, VecLoadBroadcast):
                addrs = [base] * len(lanes)
            else:
                addrs = [base + lane * elem for lane in lanes]
            values = self._read_vec_mem(
                addrs, elem, lanes, buffer, region_offset
            )
            self._write_loaded(inst.dst, mask, lanes, values, elem)
        return pc + 1

    def _op_vec_load_gather(self, inst, pc, extra_mask, buffer, region_offset):
        state = self.state
        mask = self._mask(inst.pred, extra_mask)
        lanes = self._active(mask)
        if lanes:
            base = state.read_scalar(inst.base)
            scale = inst.effective_scale
            index = state.signed_row(inst.index, inst.index_elem)
            values = self._read_vec_mem(
                [base + index[lane] * scale for lane in lanes], inst.elem,
                lanes, buffer, region_offset,
            )
            self._write_loaded(inst.dst, mask, lanes, values, inst.elem)
        return pc + 1

    def _op_vec_store_contig(self, inst, pc, extra_mask, buffer, region_offset):
        state = self.state
        lanes = self._active(self._mask(inst.pred, extra_mask))
        if lanes:
            base = state.read_scalar(inst.base) + inst.offset
            elem = inst.elem
            row = state.unsigned_row(inst.src, elem)
            self._write_vec_mem(
                [base + lane * elem for lane in lanes], elem,
                [row[lane] for lane in lanes], lanes, buffer, region_offset,
            )
        return pc + 1

    def _op_vec_store_scatter(self, inst, pc, extra_mask, buffer, region_offset):
        state = self.state
        lanes = self._active(self._mask(inst.pred, extra_mask))
        if lanes:
            base = state.read_scalar(inst.base)
            scale = inst.effective_scale
            index = state.signed_row(inst.index, inst.index_elem)
            row = state.unsigned_row(inst.src, inst.elem)
            self._write_vec_mem(
                [base + index[lane] * scale for lane in lanes], inst.elem,
                [row[lane] for lane in lanes], lanes, buffer, region_offset,
            )
        return pc + 1

    def _mask(self, pred, extra_mask: list[bool] | None) -> list[bool] | None:
        """The op's lane mask; ``None`` when every lane is active.

        May return the predicate's own row: callers must not mutate it.
        """
        if pred is None:
            return extra_mask
        mask = self.state.pred[pred.index]
        if extra_mask is None:
            return mask
        return [a and b for a, b in zip(mask, extra_mask)]

    def _active(self, mask: list[bool] | None) -> list[int]:
        """The lanes ``mask`` enables, ascending (do not mutate)."""
        if mask is None:
            return self._all_lanes
        return list(compress(self._all_lanes, mask))

    def _write_loaded(self, dst, mask, lanes, values, elem) -> None:
        """Merge the loaded ``values`` of ``lanes`` into ``dst``."""
        if mask is None:
            self.state.write_row(dst, values, None, elem)
            return
        out = [0] * self.lanes
        for lane, value in zip(lanes, values):
            out[lane] = value
        self.state.write_row(dst, out, mask, elem)

    def _vec_row(self, operand, elem: int):
        """A second source operand as per-lane values: a sign-extended
        row, or a scalar repeated across the lanes."""
        if isinstance(operand, VecReg):
            return self.state.signed_row(operand, elem)
        if isinstance(operand, Imm):
            return repeat(operand.value)
        if isinstance(operand, ScalarReg):
            return repeat(self.state.read_scalar(operand))
        if operand is None:
            return repeat(None)
        raise IsaError(f"bad vector operand {operand!r}")

    # ------------------------------------------------------------- SRV region

    def _region_span(self, start_pc: int) -> tuple[int, int]:
        """Indices of the region body: ``(first_body_pc, srv_end_pc)``."""
        for idx in range(start_pc + 1, len(self.program.instructions)):
            inst = self.program.instructions[idx]
            if isinstance(inst, SrvEnd):
                return start_pc + 1, idx
            if isinstance(inst, SrvStart):
                raise SrvError(f"nested srv_start at {idx}")
        raise SrvError(f"srv_start at {start_pc} has no matching srv_end")

    def _region_lsu_demand(self, body: list[Instruction]) -> int:
        """LSU entries the region needs (section III-D7 sizing rule).

        Contiguous and broadcast accesses take one entry; gathers and
        scatters take one per lane.
        """
        demand = 0
        for inst in body:
            if not inst.is_mem:
                continue
            rec = self.decode.record_for(inst)
            demand += self.lanes if rec.is_gather_scatter else 1
        return demand

    def _exec_region_op(
        self, inst: Instruction, pc: int, extra_mask, buffer, region_offset
    ) -> None:
        self._exec(inst, pc, extra_mask, buffer, region_offset)
        self._bump()

    def _record_marker(self, pc: int, inst: Instruction) -> None:
        """Count and trace an ``srv_start`` / ``srv_end`` marker."""
        self.metrics.count(*self.decode.record_for(inst).count_flags)
        if self.tracer is not None:
            self.tracer.record(pc, None)

    def _op_index(self) -> int:
        """Dynamic op index for emu-domain events.

        The index of the last op recorded into the trace log; falls back
        to the step counter when running untraced.
        """
        if self.tracer is not None:
            return len(self.tracer) - 1
        return self._steps

    def _exec_srv_region(self, start_pc: int, start_inst: SrvStart) -> None:
        body_pc, end_pc = self._region_span(start_pc)
        body = self.program.instructions[body_pc:end_pc]
        srv = self.metrics.srv
        srv.regions_entered += 1
        if self.tracer is not None:
            self.tracer.region_start(start_inst.direction)
        self._record_marker(start_pc, start_inst)
        if self.tracer is not None:
            self.tracer.mark_region_event(RegionEvent.START)
        obs = _obs.ACTIVE
        region_no = srv.regions_entered - 1
        if obs is not None:
            obs.emit(
                _obs.EventKind.REGION_BEGIN, "emu", self._op_index(),
                self._steps, 0, start_pc, -1, (("region", region_no),),
            )

        demand = self._region_lsu_demand(body)
        srv.lsu_entries_peak = max(srv.lsu_entries_peak, demand)
        if (demand > self.config.lsu_entries
                or self.config.srv_force_sequential
                or start_inst.sequential):
            self._exec_region_sequential(body, body_pc, end_pc)
            return

        buffer = SpeculativeBuffer(
            self.memory, srv, tm_mode=self.config.srv_tm_mode,
            block_bytes=self.config.alignment_region_bytes,
        )
        active = [True] * self.lanes
        rollbacks = 0
        resume_replay: set[int] = set()
        while True:
            srv.region_passes += 1
            if self.tracer is not None:
                self.tracer.region_pass(rollbacks, sum(active))
            if rollbacks == 0:
                srv.first_pass_lane_executions += sum(active)
            else:
                srv.replayed_lane_executions += sum(active)
            # an all-lanes pass runs unmasked, like code outside a region
            mask = None if all(active) else active
            for offset, inst in enumerate(body):
                self._exec_region_op(
                    inst, body_pc + offset, mask, buffer, offset
                )
                if self._interrupt_pending:
                    # Context switch inside the region (section III-D2):
                    # write back the non-speculative prefix, discard the
                    # speculative content, and resume with only the oldest
                    # active lane; all younger lanes re-execute the whole
                    # region after the next srv_end.
                    self._interrupt_pending = False
                    srv.interrupts_taken += 1
                    oldest = min(
                        lane for lane in range(self.lanes) if active[lane]
                    )
                    buffer.commit_prefix(oldest, offset)
                    active = mask = [
                        lane == oldest for lane in range(self.lanes)
                    ]
                    resume_replay = set(range(oldest + 1, self.lanes))
            self._record_marker(end_pc, self.program.instructions[end_pc])
            if obs is not None:
                obs.emit(
                    _obs.EventKind.REGION_PASS, "emu", self._op_index(),
                    self._steps, 0, end_pc, -1,
                    (
                        ("pass", rollbacks),
                        ("active", sum(active)),
                        ("region", region_no),
                    ),
                )
            if resume_replay:
                buffer.needs_replay |= resume_replay
                resume_replay = set()
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.perturb_needs_replay(
                    buffer.needs_replay, self.lanes
                )
            if not buffer.needs_replay:
                if self.tracer is not None:
                    self.tracer.region_end(committed=True)
                if obs is not None:
                    obs.emit(
                        _obs.EventKind.REGION_END, "emu", self._op_index(),
                        self._steps, 0, end_pc, -1,
                        (
                            ("region", region_no),
                            ("passes", rollbacks + 1),
                            ("fallback", False),
                        ),
                    )
                break
            rollbacks += 1
            srv.replays += 1
            srv.max_replays_in_region = max(srv.max_replays_in_region, rollbacks)
            if self.config.srv_max_replays_check and rollbacks > self.lanes - 1:
                raise ReplayBoundExceededError(
                    f"region at pc {start_pc} rolled back {rollbacks} times "
                    f"(> lanes-1 = {self.lanes - 1})"
                )
            replay_set = frozenset(buffer.needs_replay)
            if _faults.ACTIVE is not None:
                replay_set = _faults.ACTIVE.perturb_replay_lanes(replay_set)
            if self.tracer is not None:
                self.tracer.region_end(committed=False, replay_lanes=replay_set)
            if obs is not None:
                for lane in sorted(replay_set):
                    obs.emit(
                        _obs.EventKind.LANE_REPLAY, "emu", self._op_index(),
                        self._steps, 0, end_pc, lane,
                        (("region", region_no),),
                    )
            active = [lane in replay_set for lane in range(self.lanes)]
            buffer.needs_replay.clear()
        buffer.commit()
        self.state.pc = end_pc + 1

    def _exec_region_sequential(
        self, body: list[Instruction], body_pc: int, end_pc: int
    ) -> None:
        """LSU-overflow fallback (section III-D7).

        The region is repeated once per lane with only that lane active;
        stores go straight to memory since single-lane execution is
        non-speculative (the single active lane is always the oldest).
        """
        srv = self.metrics.srv
        srv.lsu_fallbacks += 1
        if self.tracer is not None:
            # the region's START marker (the last recorded op) and every
            # op of the sequential passes are flagged as fallback
            self.tracer.region_fallback_begin()
        obs = _obs.ACTIVE
        region_no = srv.regions_entered - 1
        if obs is not None:
            obs.emit(
                _obs.EventKind.SEQ_FALLBACK, "emu", self._op_index(),
                self._steps, 0, body_pc - 1, -1,
                (("region", region_no),),
            )
        for lane in range(self.lanes):
            mask = [i == lane for i in range(self.lanes)]
            srv.region_passes += 1
            if self.tracer is not None:
                self.tracer.region_pass(lane, 1)
            for offset, inst in enumerate(body):
                self._exec_region_op(inst, body_pc + offset, mask, None, offset)
                # sequential fallback is non-speculative: a context switch
                # needs no SRV handling
                self._interrupt_pending = False
            self._record_marker(end_pc, self.program.instructions[end_pc])
            if obs is not None:
                obs.emit(
                    _obs.EventKind.REGION_PASS, "emu", self._op_index(),
                    self._steps, 0, end_pc, -1,
                    (
                        ("pass", lane),
                        ("active", 1),
                        ("region", region_no),
                        ("fallback", True),
                    ),
                )
            if self.tracer is not None:
                if lane == self.lanes - 1:
                    self.tracer.region_end(committed=True)
                    self.tracer.region_fallback()
                else:
                    self.tracer.region_end(
                        committed=False,
                        replay_lanes=frozenset(range(lane + 1, self.lanes)),
                    )
                    self.tracer.mark_region_event(RegionEvent.FALLBACK)
            if obs is not None and lane == self.lanes - 1:
                obs.emit(
                    _obs.EventKind.REGION_END, "emu", self._op_index(),
                    self._steps, 0, end_pc, -1,
                    (
                        ("region", region_no),
                        ("passes", self.lanes),
                        ("fallback", True),
                    ),
                )
        self.state.pc = end_pc + 1


#: Exact-type dispatch table for :meth:`Interpreter._dispatch`.  One dict
#: lookup replaces the former 20-step ``isinstance`` chain on the hottest
#: path of the emulator; subclasses resolve through the fallback scan in
#: ``_dispatch`` and are cached here.
_HANDLERS: dict[type, object] = {
    ScalarALU: Interpreter._op_scalar_alu,
    ScalarLoad: Interpreter._op_scalar_load,
    ScalarStore: Interpreter._op_scalar_store,
    Branch: Interpreter._op_branch,
    Jump: Interpreter._op_jump,
    Halt: Interpreter._op_halt,
    Nop: Interpreter._op_nop,
    VecALU: Interpreter._op_vec_alu,
    VecSplat: Interpreter._op_vec_splat,
    VecIndex: Interpreter._op_vec_index,
    VecExtractLane: Interpreter._op_vec_extract,
    VecReduce: Interpreter._op_vec_reduce,
    VecCmp: Interpreter._op_vec_cmp,
    PredSetAll: Interpreter._op_pred_set_all,
    PredCount: Interpreter._op_pred_count,
    PredFirstN: Interpreter._op_pred_first_n,
    PredRange: Interpreter._op_pred_range,
    PredLogic: Interpreter._op_pred_logic,
    VecLoadContig: Interpreter._op_vec_load_contig,
    VecLoadBroadcast: Interpreter._op_vec_load_contig,
    VecLoadGather: Interpreter._op_vec_load_gather,
    VecStoreContig: Interpreter._op_vec_store_contig,
    VecStoreScatter: Interpreter._op_vec_store_scatter,
}

Interpreter._handlers = _HANDLERS


def run_program(
    program: Program,
    memory: MemoryImage,
    config: MachineConfig = TABLE_I,
    max_steps: int = 50_000_000,
    tracer: TraceLog | None = None,
) -> tuple[EmuMetrics, ArchState]:
    """Convenience wrapper: run ``program`` to completion."""
    interp = Interpreter(program, memory, config, max_steps, tracer)
    metrics = interp.run()
    return metrics, interp.state
