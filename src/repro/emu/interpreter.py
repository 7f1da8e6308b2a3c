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

Decode once, execute many: when a run starts, every static instruction
becomes one closure ``op(extra_mask, buffer, region_offset) -> next_pc``
with everything static resolved — its handler, its operands (an ``Imm``
is a constant, a register a list index), its ALU, compare or branch
function, its branch target, and for ``srv_start`` the region's body
ops and LSU demand.  Outside a region the run is
``pc = code[pc](None, None, 0)``; a region pass calls its body ops with
the pass's lane mask, its speculative buffer and each op's offset.  The
loops count executions per pc, fold them into :class:`EmuMetrics` when
the run ends, and append each op to the trace log's columns.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import compress, repeat
from operator import add, and_, eq, ge, gt, le, lt, mul, ne, or_, sub, xor

from repro.common.config import TABLE_I, MachineConfig
from repro.common.errors import (
    IsaError,
    ReplayBoundExceededError,
    SrvError,
)
from repro.emu.metrics import EmuMetrics
from repro.emu.speculative import SpeculativeBuffer
from repro.emu.state import S64_END, S64_MIN, ArchState, wrap_scalar
from repro.isa.instructions import (
    Branch,
    BranchCond,
    CmpOpcode,
    Halt,
    Jump,
    Nop,
    PredCount,
    PredFirstN,
    PredLogic,
    PredRange,
    PredSetAll,
    ScalarALU,
    ScalarLoad,
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
from repro.memory.image import MemoryImage
from repro.observe import events as _obs
from repro.pipeline.decode import DecodeTable
from repro.pipeline.trace import (
    BRANCH_NOT_TAKEN,
    BRANCH_TAKEN,
    RegionEvent,
    TraceLog,
)
from repro.verify import faults as _faults

_U64 = (1 << 64) - 1


def _div(a: int, b: int) -> int:
    if b == 0:
        return 0  # SVE-style: division by zero yields zero
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _mod(a: int, b: int) -> int:
    return a - b * _div(a, b) if b else 0


def _shl(a: int, b: int) -> int:
    return a << (b & 63)


def _shr(a: int, b: int) -> int:
    return (a & _U64) >> (b & 63)


#: ``(a, b) -> result`` of each two-operand ALU opcode, by *name*: the
#: scalar and vector opcode enums share mnemonics.  The operator-module
#: and builtin entries run in C, so mapping one over a row calls no
#: Python function.  MOV, ABS and FMA are built by the ops themselves.
_ALU = {
    "ADD": add,
    "SUB": sub,
    "MUL": mul,
    "DIV": _div,
    "MOD": _mod,
    "AND": and_,
    "OR": or_,
    "XOR": xor,
    "SHL": _shl,
    "SHR": _shr,
    "MIN": min,
    "MAX": max,
    "CMP_LT": lambda a, b: int(a < b),
    "CMP_LE": lambda a, b: int(a <= b),
    "CMP_EQ": lambda a, b: int(a == b),
    "CMP_NE": lambda a, b: int(a != b),
}

_COMPARE = {
    CmpOpcode.LT: lt,
    CmpOpcode.LE: le,
    CmpOpcode.EQ: eq,
    CmpOpcode.NE: ne,
    CmpOpcode.GT: gt,
    CmpOpcode.GE: ge,
}

_BRANCH_TAKEN = {
    BranchCond.EQ: eq,
    BranchCond.NE: ne,
    BranchCond.LT: lt,
    BranchCond.LE: le,
    BranchCond.GT: gt,
    BranchCond.GE: ge,
}


def _or_all(values) -> int:
    return reduce(or_, values, 0)


#: ``values -> result`` of each ``VecReduce`` op over its active lanes
#: (an empty min or max is 0)
_REDUCE = {
    "add": sum,
    "min": partial(min, default=0),
    "max": partial(max, default=0),
    "or": _or_all,
}


def _too_many_steps(max_steps: int) -> SrvError:
    return SrvError(
        f"execution exceeded {max_steps} steps; "
        "probable infinite loop in workload program"
    )


class Interpreter:
    """Instruction-accurate executor with functional SRV semantics."""

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
        self.metrics = EmuMetrics()
        self.max_steps = max_steps
        #: the trace log every executed op is recorded into (None: untraced)
        self.tracer = tracer
        #: inject a context switch at this dynamic step (section III-D2
        #: semantics apply if it lands inside an SRV-region)
        self.interrupt_at_step = interrupt_at_step
        self._steps = 0
        #: per-program static decode table: op class, register sets,
        #: access kind, latency and metric flags computed once per static
        #: instruction (replaces the former per-purpose ``id()`` caches)
        self.decode = DecodeTable.for_program(program)

    # ------------------------------------------------------------------ run

    def run(self) -> EmuMetrics:
        """Execute until ``halt`` or falling off the end of the program."""
        for _ in self._execute(stepwise=False):
            pass
        return self.metrics

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
        for _ in self._execute(stepwise=True):
            yield from range(done, len(log))
            done = len(log)

    def _execute(self, stepwise: bool):
        """The one loop: run the op table from ``state.pc`` until a halt
        or the pc leaves the program, yielding after each top-level step
        when ``stepwise`` (a whole SRV region is one step).

        The table is built here and dropped when the loop ends, so it
        never outlives the run.  Every top-level step counts toward
        ``max_steps``; an ``srv_start`` op runs its whole region, which
        counts, records and steps its own ops.
        """
        state = self.state
        if state.halted:
            return
        run = _Run(self)
        code = run.decode_ops()
        counts, outcome = run.counts, run.outcome
        log = self.tracer
        if log is not None:
            pcs, bits, bounds, addrs = log.pc, log.bits, log.bounds, log.addr
        n = len(code)
        max_steps = self.max_steps
        steps = self._steps
        pc = state.pc
        try:
            while 0 <= pc < n:
                counts[pc] += 1
                if outcome[pc] < 0:  # srv_start
                    run.steps = steps
                    pc = code[pc](None, None, 0)
                    steps = run.steps
                else:
                    next_pc = code[pc](None, None, 0)
                    if log is not None:
                        pcs.append(pc)
                        # read after the op: a branch writes its outcome
                        bits.append(log.op_flags | outcome[pc])
                        bounds.append(len(addrs))
                    pc = next_pc
                steps += 1
                if steps > max_steps:
                    raise _too_many_steps(max_steps)
                if stepwise:
                    yield
        finally:
            # a halt returns the pc after it complemented (negative)
            state.pc = ~pc if pc < 0 else pc
            self._steps = steps
            run.fold_counts()
            code = run = None


class _Region:
    """The static facts of one SRV region, resolved when the table is built."""

    __slots__ = ("start_pc", "body_pc", "end_pc", "ops", "demand",
                 "direction", "sequential")

    def __init__(self, start_pc, end_pc, ops, demand, start):
        self.start_pc = start_pc
        self.body_pc = start_pc + 1
        self.end_pc = end_pc
        #: the body's ops, by offset
        self.ops = ops
        #: LSU entries the region needs (section III-D7 sizing rule)
        self.demand = demand
        self.direction = start.direction
        self.sequential = start.sequential


class _Run:
    """One run of an :class:`Interpreter`: what its op table binds.

    It holds the architectural state, memory, trace log and metrics the
    ops touch; the per-pc execution counts and branch outcomes the loops
    keep (``outcome[pc]`` is the trace-log branch bits of the op at
    ``pc``: a branch writes its own when it executes, a jump's is fixed,
    and an ``srv_start`` is marked ``-1``); the step counter the outer
    loop hands to a region; and the memory paths the ops share.  It does
    not hold the interpreter, and nothing holds the run or its table once
    the run ends, so no reference cycle keeps a memory image alive.
    """

    __slots__ = ("program", "decode", "config", "lanes", "all_lanes", "state",
                 "regs", "pred", "memory", "log", "metrics", "counts",
                 "count_flags", "outcome", "steps", "max_steps",
                 "interrupt_at")

    def __init__(self, interp: Interpreter) -> None:
        self.program = interp.program
        self.decode = interp.decode
        self.config = interp.config
        self.lanes = interp.lanes
        self.all_lanes = list(range(interp.lanes))
        self.state = interp.state
        self.regs = interp.state.scalar
        self.pred = interp.state.pred
        self.memory = interp.memory
        self.log = interp.tracer
        self.metrics = interp.metrics
        n = len(interp.program.instructions)
        self.counts = [0] * n
        #: each pc's decode-record ``count_flags`` (None: no op to count)
        self.count_flags: list[tuple | None] = [None] * n
        self.outcome = [0] * n
        self.steps = 0
        self.max_steps = interp.max_steps
        self.interrupt_at = interp.interrupt_at_step

    # -- the table -----------------------------------------------------------

    def decode_ops(self) -> list:
        """One op per static pc.

        A program that cannot run still builds: an unhandled instruction
        or a stray ``srv_end`` becomes an op that raises when it executes,
        and a jump to an undefined label raises when it is taken.  Nested
        and unterminated regions never get here: ``Program.validate()``
        rejects them when the interpreter is built.
        """
        insts = self.program.instructions
        code = []
        for pc, inst in enumerate(insts):
            if isinstance(inst, SrvStart):
                code.append(None)  # bound below, over its body's ops
                self.outcome[pc] = -1
            elif isinstance(inst, SrvEnd):
                code.append(_failing(
                    SrvError, "srv_end reached outside an SRV-region"
                ))
            else:
                build = _BUILDERS.get(type(inst))
                if build is None:
                    # a subclass of a known instruction type builds as it
                    build = next(
                        (fn for klass, fn in _BUILDERS.items()
                         if isinstance(inst, klass)),
                        None,
                    )
                if build is None:
                    code.append(_failing(
                        IsaError, f"unhandled instruction {inst!r}"
                    ))
                    continue
                code.append(build(inst, pc, self))
            self.count_flags[pc] = self.decode.record_for(inst).count_flags
        for pc, inst in enumerate(insts):
            if isinstance(inst, SrvStart):
                code[pc] = self._region_op(pc, inst, code)
        return code

    def _region_op(self, start_pc: int, start: SrvStart, code: list):
        # Program.validate() has rejected nested and unterminated regions
        insts = self.program.instructions
        end_pc = next(
            pc for pc in range(start_pc + 1, len(insts))
            if isinstance(insts[pc], SrvEnd)
        )
        body = insts[start_pc + 1:end_pc]
        # contiguous and broadcast accesses take one LSU entry; gathers
        # and scatters take one per lane
        demand = sum(
            self.lanes if self.decode.record_for(inst).is_gather_scatter
            else 1
            for inst in body if inst.is_mem
        )
        region = _Region(start_pc, end_pc, tuple(code[start_pc + 1:end_pc]),
                         demand, start)
        return partial(self.exec_region, region)

    def fold_counts(self) -> None:
        """Add the run's per-pc execution counts to its metrics."""
        for flags, times in zip(self.count_flags, self.counts):
            if times and flags is not None:
                self.metrics.count(flags, times)

    # -- memory paths shared by the ops ------------------------------------

    def load(self, addr, size, lane, buffer, region_offset):
        """One lane's load inside an SRV region: ``(value, forwarded)``.

        The fault plan may perturb the address (only speculative
        accesses are perturbed); the trace logs the access, then the
        speculative buffer answers it.
        """
        if _faults.ACTIVE is not None:
            addr = _faults.ACTIVE.perturb_addr(addr, lane, is_store=False)
        if self.log is not None:
            self.log.access(addr, size, False, lane)
        return buffer.load(addr, size, lane, region_offset)

    def store(self, addr, size, value, lane, buffer, region_offset) -> None:
        """One lane's store inside an SRV region, into the speculative
        buffer (fault hooks and trace as :meth:`load`)."""
        if _faults.ACTIVE is not None:
            addr = _faults.ACTIVE.perturb_addr(addr, lane, is_store=True)
            value = _faults.ACTIVE.perturb_store_value(value, size, lane)
        if self.log is not None:
            self.log.access(addr, size, True, lane)
        buffer.store(addr, size, value, lane, region_offset)

    def read_lanes(self, addrs, size, lanes, buffer, region_offset):
        """The active ``lanes`` of one vector load, in lane order.

        Outside a region the lanes read memory in one span read
        (:meth:`~repro.memory.image.MemoryImage.read_span`).  Inside one with
        no fault plan armed, the speculative buffer takes the whole
        instruction in one call; otherwise each lane goes through
        :meth:`load`.  An op that forwarded any byte counts once in
        ``loads_forwarded``.
        """
        log = self.log
        if buffer is None:
            values = self.memory.read_span(addrs, size)
            if log is not None:
                log.accesses(addrs, size, False, lanes)
            return values
        if _faults.ACTIVE is not None:
            loaded = [self.load(addr, size, lane, buffer, region_offset)
                      for addr, lane in zip(addrs, lanes)]
            if any(forwarded for _, forwarded in loaded):
                self.metrics.loads_forwarded += 1
            return [value for value, _ in loaded]
        values, forwarded = buffer.load_lanes(addrs, size, lanes, region_offset)
        if forwarded:
            self.metrics.loads_forwarded += 1
        if log is not None:
            log.accesses(addrs, size, False, lanes)
        return values

    def write_lanes(self, addrs, size, values, lanes, buffer,
                    region_offset) -> None:
        """Store the active ``lanes`` of one vector store, in lane order."""
        log = self.log
        if buffer is None:
            write_int = self.memory.write_int
            for addr, value in zip(addrs, values):
                write_int(addr, value, size)
            if log is not None:
                log.accesses(addrs, size, True, lanes)
            return
        if _faults.ACTIVE is not None:
            for addr, value, lane in zip(addrs, values, lanes):
                self.store(addr, size, value, lane, buffer, region_offset)
            return
        buffer.store_lanes(addrs, size, values, lanes, region_offset)
        if log is not None:
            log.accesses(addrs, size, True, lanes)

    def write_loaded(self, dst, mask, lanes, values, elem) -> None:
        """Merge the loaded ``values`` of ``lanes`` into ``dst``."""
        if mask is None:
            self.state.write_row(dst, values, None, elem)
            return
        out = [0] * self.lanes
        for lane, value in zip(lanes, values):
            out[lane] = value
        self.state.write_row(dst, out, mask, elem)

    # -- SRV regions ---------------------------------------------------------

    def op_index(self) -> int:
        """Dynamic op index for emu-domain events.

        The index of the last op recorded into the trace log; falls back
        to the step counter when running untraced.
        """
        if self.log is not None:
            return len(self.log) - 1
        return self.steps

    def exec_region(self, region: _Region, extra_mask, buffer,
                    region_offset) -> int:
        """The ``srv_start`` op: run the whole region and return the pc
        after its ``srv_end``.  The outer loop has counted the marker."""
        srv = self.metrics.srv
        log = self.log
        srv.regions_entered += 1
        if log is not None:
            log.region_start(region.direction)
            log.record(region.start_pc, None)
            log.mark_region_event(RegionEvent.START)
        obs = _obs.ACTIVE
        region_no = srv.regions_entered - 1
        if obs is not None:
            obs.emit(
                _obs.EventKind.REGION_BEGIN, "emu", self.op_index(),
                self.steps, 0, region.start_pc, -1, (("region", region_no),),
            )
        srv.lsu_entries_peak = max(srv.lsu_entries_peak, region.demand)
        config = self.config
        if (region.demand > config.lsu_entries
                or config.srv_force_sequential
                or region.sequential):
            self._exec_sequential(region, obs, region_no)
        else:
            self._exec_speculative(region, obs, region_no)
        next_pc = region.end_pc + 1
        return ~next_pc if self.state.halted else next_pc

    def _run_body(self, region: _Region, mask, buffer, start: int = 0,
                  interrupt_at: int | None = None) -> int:
        """One pass over the body ops from offset ``start``, each counted,
        recorded and stepped.

        Returns -1 once the pass completes, or the offset of the op that
        took step ``interrupt_at``: the pass stops after it.
        """
        counts, outcome, log = self.counts, self.outcome, self.log
        if log is not None:
            pcs, bits, bounds, addrs = log.pc, log.bits, log.bounds, log.addr
        max_steps = self.max_steps
        steps = self.steps
        ops = region.ops
        pc = region.body_pc + start
        try:
            for offset in range(start, len(ops)):
                counts[pc] += 1
                ops[offset](mask, buffer, offset)
                if log is not None:
                    pcs.append(pc)
                    bits.append(log.op_flags | outcome[pc])
                    bounds.append(len(addrs))
                steps += 1
                if steps > max_steps:
                    raise _too_many_steps(max_steps)
                if steps == interrupt_at:
                    return offset
                pc += 1
            return -1
        finally:
            self.steps = steps

    def _end_pass(self, region: _Region) -> None:
        """Count and record the region's ``srv_end`` marker."""
        self.counts[region.end_pc] += 1
        if self.log is not None:
            self.log.record(region.end_pc, None)

    def _exec_speculative(self, region: _Region, obs, region_no: int) -> None:
        srv = self.metrics.srv
        config, lanes, log = self.config, self.lanes, self.log
        end_pc = region.end_pc
        buffer = SpeculativeBuffer(self.memory, srv, tm_mode=config.srv_tm_mode)
        active = [True] * lanes
        rollbacks = 0
        resume_replay: set[int] = set()
        while True:
            srv.region_passes += 1
            if log is not None:
                log.region_pass(rollbacks, sum(active))
            if rollbacks == 0:
                srv.first_pass_lane_executions += sum(active)
            else:
                srv.replayed_lane_executions += sum(active)
            # an all-lanes pass runs unmasked, like code outside a region
            mask = None if all(active) else active
            offset = self._run_body(region, mask, buffer, 0, self.interrupt_at)
            if offset >= 0:
                # Context switch inside the region (section III-D2):
                # write back the non-speculative prefix, discard the
                # speculative content, and resume with only the oldest
                # active lane; all younger lanes re-execute the whole
                # region after the next srv_end.
                srv.interrupts_taken += 1
                oldest = min(lane for lane in range(lanes) if active[lane])
                buffer.commit_prefix(oldest, offset)
                active = mask = [lane == oldest for lane in range(lanes)]
                resume_replay = set(range(oldest + 1, lanes))
                self._run_body(region, mask, buffer, offset + 1)
            self._end_pass(region)
            if obs is not None:
                obs.emit(
                    _obs.EventKind.REGION_PASS, "emu", self.op_index(),
                    self.steps, 0, end_pc, -1,
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
                _faults.ACTIVE.perturb_needs_replay(buffer.needs_replay, lanes)
            if not buffer.needs_replay:
                if log is not None:
                    log.region_end(committed=True)
                if obs is not None:
                    obs.emit(
                        _obs.EventKind.REGION_END, "emu", self.op_index(),
                        self.steps, 0, end_pc, -1,
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
            if rollbacks > lanes - 1:
                raise ReplayBoundExceededError(
                    f"region at pc {region.start_pc} rolled back {rollbacks} "
                    f"times (> lanes-1 = {lanes - 1})"
                )
            replay_set = frozenset(buffer.needs_replay)
            if _faults.ACTIVE is not None:
                replay_set = _faults.ACTIVE.perturb_replay_lanes(replay_set)
            if log is not None:
                log.region_end(committed=False, replay_lanes=replay_set)
            if obs is not None:
                for lane in sorted(replay_set):
                    obs.emit(
                        _obs.EventKind.LANE_REPLAY, "emu", self.op_index(),
                        self.steps, 0, end_pc, lane,
                        (("region", region_no),),
                    )
            active = [lane in replay_set for lane in range(lanes)]
            buffer.needs_replay.clear()
        buffer.commit()

    def _exec_sequential(self, region: _Region, obs, region_no: int) -> None:
        """LSU-overflow fallback (section III-D7).

        The region is repeated once per lane with only that lane active;
        stores go straight to memory since single-lane execution is
        non-speculative (the single active lane is always the oldest), so
        a context switch needs no SRV handling either.
        """
        srv = self.metrics.srv
        lanes, log = self.lanes, self.log
        end_pc = region.end_pc
        srv.lsu_fallbacks += 1
        if log is not None:
            # the region's START marker (the last recorded op) and every
            # op of the sequential passes are flagged as fallback
            log.region_fallback_begin()
        if obs is not None:
            obs.emit(
                _obs.EventKind.SEQ_FALLBACK, "emu", self.op_index(),
                self.steps, 0, region.start_pc, -1,
                (("region", region_no),),
            )
        for lane in range(lanes):
            mask = [i == lane for i in range(lanes)]
            srv.region_passes += 1
            if log is not None:
                log.region_pass(lane, 1)
            self._run_body(region, mask, None)
            self._end_pass(region)
            if obs is not None:
                obs.emit(
                    _obs.EventKind.REGION_PASS, "emu", self.op_index(),
                    self.steps, 0, end_pc, -1,
                    (
                        ("pass", lane),
                        ("active", 1),
                        ("region", region_no),
                        ("fallback", True),
                    ),
                )
            if log is not None:
                if lane == lanes - 1:
                    log.region_end(committed=True)
                    log.region_fallback()
                else:
                    log.region_end(
                        committed=False,
                        replay_lanes=frozenset(range(lane + 1, lanes)),
                    )
                    log.mark_region_event(RegionEvent.FALLBACK)
            if obs is not None and lane == lanes - 1:
                obs.emit(
                    _obs.EventKind.REGION_END, "emu", self.op_index(),
                    self.steps, 0, end_pc, -1,
                    (
                        ("region", region_no),
                        ("passes", lanes),
                        ("fallback", True),
                    ),
                )


# ---------------------------------------------------------------------------
# op builders: ``build(inst, pc, run) -> op``
#
# An op is ``op(extra_mask, buffer, region_offset) -> next_pc``.
# ``extra_mask`` ANDs into every vector predicate (the SRV-replay
# register; None: every lane); ``buffer`` redirects memory traffic
# through the speculative buffer inside an SRV-region, where
# ``region_offset`` is the op's offset in the body.  A halt returns the
# next pc complemented (negative), which ends the loop.  Scalar results
# are stored sign-wrapped to 64 bits; a vector op reads each source row
# once, sign-extended from its element size, and writes its destination
# row with one merging write.
# ---------------------------------------------------------------------------


def _failing(kind: type[Exception], message: str):
    """An op (or operand source) that raises ``kind(message)`` when it
    executes: the program still builds, and fails only if it gets there."""
    def fail(*args):
        raise kind(message)
    return fail


def _lane_mask(row, extra_mask):
    """An op's lane mask: its predicate ``row`` (None: unpredicated)
    ANDed with the region's ``extra_mask``; None when every lane is
    active.  May return ``row`` itself: callers must not mutate it."""
    if row is None:
        return extra_mask
    if extra_mask is None:
        return row
    return list(map(and_, row, extra_mask))


def _row_source(operand, run: _Run, elem: int):
    """A vector op's second source as a function giving its per-lane
    values: a sign-extended row, or a scalar repeated across the lanes."""
    if isinstance(operand, VecReg):
        return partial(run.state.signed_row, operand, elem)
    if isinstance(operand, Imm):
        return partial(repeat, operand.value)
    if isinstance(operand, ScalarReg):
        regs, index = run.regs, operand.index
        return lambda: repeat(regs[index])
    if operand is None:
        return partial(repeat, None)
    return _failing(IsaError, f"bad vector operand {operand!r}")


def _pred_index(pred):
    return None if pred is None else pred.index


def _set_const(regs, dst: int, value: int, nxt: int):
    def mov_const(extra_mask, buffer, region_offset):
        regs[dst] = value
        return nxt
    return mov_const


def _scalar_alu(inst: ScalarALU, pc: int, run: _Run):
    regs = run.regs
    dst = inst.dst.index
    nxt = pc + 1
    name = inst.op.name
    a, b = inst.src1, inst.src2
    if name == "MOV":
        if isinstance(a, Imm):
            return _set_const(regs, dst, wrap_scalar(a.value), nxt)
        src = a.index

        def mov(extra_mask, buffer, region_offset):
            regs[dst] = regs[src]
            return nxt
        return mov
    fn = _ALU.get(name)
    if fn is None:
        return _failing(IsaError, f"unhandled ALU opcode {inst.op}")

    if isinstance(a, Imm):
        if isinstance(b, Imm):
            return _set_const(regs, dst, wrap_scalar(fn(a.value, b.value)), nxt)
        value, right = a.value, b.index

        def alu_ir(extra_mask, buffer, region_offset):
            r = fn(value, regs[right])
            regs[dst] = r if S64_MIN <= r < S64_END else wrap_scalar(r)
            return nxt
        return alu_ir

    left = a.index
    if isinstance(b, Imm):
        k = b.value
        if name in ("ADD", "SUB"):
            if name == "SUB":
                k = -k

            def add_ri(extra_mask, buffer, region_offset):
                r = regs[left] + k
                regs[dst] = r if S64_MIN <= r < S64_END else wrap_scalar(r)
                return nxt
            return add_ri
        if name == "SHL":
            k &= 63

            def shl_ri(extra_mask, buffer, region_offset):
                r = regs[left] << k
                regs[dst] = r if S64_MIN <= r < S64_END else wrap_scalar(r)
                return nxt
            return shl_ri

        def alu_ri(extra_mask, buffer, region_offset):
            r = fn(regs[left], k)
            regs[dst] = r if S64_MIN <= r < S64_END else wrap_scalar(r)
            return nxt
        return alu_ri

    right = b.index
    if name == "ADD":
        def add_rr(extra_mask, buffer, region_offset):
            r = regs[left] + regs[right]
            regs[dst] = r if S64_MIN <= r < S64_END else wrap_scalar(r)
            return nxt
        return add_rr

    def alu_rr(extra_mask, buffer, region_offset):
        r = fn(regs[left], regs[right])
        regs[dst] = r if S64_MIN <= r < S64_END else wrap_scalar(r)
        return nxt
    return alu_rr


def _scalar_load(inst: ScalarLoad, pc: int, run: _Run):
    regs, read_int, load = run.regs, run.memory.read_int, run.load
    metrics, log = run.metrics, run.log
    if log is not None:
        log_addr, log_size = log.addr.append, log.size.append
        log_store, log_lane = log.store.append, log.lane.append
    dst, base, offset, size = inst.dst.index, inst.base.index, inst.offset, inst.elem
    # sign extension of a ``size``-byte value
    sign, span = 1 << (8 * size - 1), 1 << (8 * size)
    nxt = pc + 1

    def scalar_load(extra_mask, buffer, region_offset):
        addr = regs[base] + offset
        if buffer is None:
            if log is not None:  # TraceLog.access, inline
                log_addr(addr)
                log_size(size)
                log_store(0)
                log_lane(0)
            raw = read_int(addr, size)
        else:
            raw, forwarded = load(addr, size, 0, buffer, region_offset)
            if forwarded:
                metrics.loads_forwarded += 1
        regs[dst] = raw - span if raw >= sign else raw
        return nxt
    return scalar_load


def _scalar_store(inst: ScalarStore, pc: int, run: _Run):
    regs, write_int, store, log = (
        run.regs, run.memory.write_int, run.store, run.log,
    )
    if log is not None:
        log_addr, log_size = log.addr.append, log.size.append
        log_store, log_lane = log.store.append, log.lane.append
    src, base, offset, size = inst.src.index, inst.base.index, inst.offset, inst.elem
    wrap = (1 << (8 * size)) - 1
    nxt = pc + 1

    def scalar_store(extra_mask, buffer, region_offset):
        addr = regs[base] + offset
        value = regs[src] & wrap
        if buffer is None:
            if log is not None:  # TraceLog.access, inline
                log_addr(addr)
                log_size(size)
                log_store(1)
                log_lane(0)
            write_int(addr, value, size)
        else:
            store(addr, size, value, 0, buffer, region_offset)
        return nxt
    return scalar_store


def _undefined_label(op, program: Program, label: str):
    """``op``, whose jump target ``label`` is undefined: taking the jump
    raises the program's :class:`IsaError`."""
    def jump_checked(extra_mask, buffer, region_offset):
        next_pc = op(extra_mask, buffer, region_offset)
        if next_pc is None:
            program.label_target(label)  # raises
        return next_pc
    return jump_checked


def _branch(inst: Branch, pc: int, run: _Run):
    regs, outcome = run.regs, run.outcome
    taken_if = _BRANCH_TAKEN[inst.cond]
    left = inst.src1.index
    target = run.program.labels.get(inst.target)
    nxt = pc + 1
    if isinstance(inst.src2, Imm):
        value = inst.src2.value

        def branch(extra_mask, buffer, region_offset):
            if taken_if(regs[left], value):
                outcome[pc] = BRANCH_TAKEN
                return target
            outcome[pc] = BRANCH_NOT_TAKEN
            return nxt
    else:
        right = inst.src2.index

        def branch(extra_mask, buffer, region_offset):
            if taken_if(regs[left], regs[right]):
                outcome[pc] = BRANCH_TAKEN
                return target
            outcome[pc] = BRANCH_NOT_TAKEN
            return nxt
    if target is None:
        return _undefined_label(branch, run.program, inst.target)
    return branch


def _jump(inst: Jump, pc: int, run: _Run):
    run.outcome[pc] = BRANCH_TAKEN
    target = run.program.labels.get(inst.target)

    def jump(extra_mask, buffer, region_offset):
        return target
    if target is None:
        return _undefined_label(jump, run.program, inst.target)
    return jump


def _halt(inst: Halt, pc: int, run: _Run):
    state = run.state
    stop = ~(pc + 1)

    def halt(extra_mask, buffer, region_offset):
        state.halted = True
        return stop
    return halt


def _nop(inst: Nop, pc: int, run: _Run):
    nxt = pc + 1

    def nop(extra_mask, buffer, region_offset):
        return nxt
    return nop


# ---- vector ----------------------------------------------------------------


def _vec_alu(inst: VecALU, pc: int, run: _Run):
    state, pred = run.state, run.pred
    signed_row, write_row = state.signed_row, state.write_row
    src1, dst, elem = inst.src1, inst.dst, inst.elem
    pi = _pred_index(inst.pred)
    row_b = _row_source(inst.src2, run, elem)
    name = inst.op.name
    nxt = pc + 1
    # every lane is computed (no ALU op can fault); the merging write
    # keeps the inactive ones
    if name in ("MOV", "ABS", "FMA"):
        row_c = (partial(repeat, 0) if inst.src3 is None
                 else partial(signed_row, inst.src3, elem))

        def vec_alu_other(extra_mask, buffer, region_offset):
            mask = extra_mask if pi is None else _lane_mask(pred[pi], extra_mask)
            a = signed_row(src1, elem)
            if name == "MOV":
                out = a
            elif name == "ABS":
                out = list(map(abs, a))
            else:  # FMA
                out = list(map(add, map(mul, a, row_b()), row_c()))
            write_row(dst, out, mask, elem)
            return nxt
        return vec_alu_other
    fn = _ALU.get(name)
    if fn is None:
        return _failing(IsaError, f"unhandled ALU opcode {inst.op}")

    def vec_alu(extra_mask, buffer, region_offset):
        mask = extra_mask if pi is None else _lane_mask(pred[pi], extra_mask)
        write_row(dst, list(map(fn, signed_row(src1, elem), row_b())), mask, elem)
        return nxt
    return vec_alu


def _vec_splat(inst: VecSplat, pc: int, run: _Run):
    state, pred, lanes = run.state, run.pred, run.lanes
    read_operand, write_row = state.read_operand, state.write_row
    src, dst, elem = inst.src, inst.dst, inst.elem
    pi = _pred_index(inst.pred)
    nxt = pc + 1

    def vec_splat(extra_mask, buffer, region_offset):
        mask = extra_mask if pi is None else _lane_mask(pred[pi], extra_mask)
        write_row(dst, [read_operand(src)] * lanes, mask, elem)
        return nxt
    return vec_splat


def _vec_index(inst: VecIndex, pc: int, run: _Run):
    state, lanes = run.state, run.lanes
    read_operand, write_row = state.read_operand, state.write_row
    start, step, dst, elem = inst.start, inst.step, inst.dst, inst.elem
    nxt = pc + 1

    def vec_index(extra_mask, buffer, region_offset):
        first = read_operand(start)
        stride = read_operand(step)
        values = [first + lane * stride for lane in range(lanes)]
        # VecIndex is unpredicated
        write_row(dst, values, extra_mask, elem)
        return nxt
    return vec_index


def _vec_extract(inst: VecExtractLane, pc: int, run: _Run):
    if inst.lane >= run.lanes:
        return _failing(IsaError, f"lane {inst.lane} out of range")
    regs, read_lane = run.regs, run.state.read_lane
    dst, src, lane, elem = inst.dst.index, inst.src, inst.lane, inst.elem
    nxt = pc + 1

    def vec_extract(extra_mask, buffer, region_offset):
        regs[dst] = read_lane(src, lane, elem)
        return nxt
    return vec_extract


def _vec_reduce(inst: VecReduce, pc: int, run: _Run):
    regs, pred, state = run.regs, run.pred, run.state
    if inst.op == "or":
        row = partial(state.unsigned_row, inst.src, inst.elem)
    else:
        row = partial(state.signed_row, inst.src, inst.elem)
    combine = _REDUCE.get(inst.op, _or_all)
    dst = inst.dst.index
    pi = _pred_index(inst.pred)
    nxt = pc + 1

    def vec_reduce(extra_mask, buffer, region_offset):
        mask = extra_mask if pi is None else _lane_mask(pred[pi], extra_mask)
        values = row()
        if mask is not None:
            values = list(compress(values, mask))
        regs[dst] = wrap_scalar(combine(values))
        return nxt
    return vec_reduce


def _vec_cmp(inst: VecCmp, pc: int, run: _Run):
    state, pred = run.state, run.pred
    signed_row, write_pred = state.signed_row, state.write_pred
    compare = _COMPARE.get(inst.op)
    if compare is None:
        return _failing(IsaError, f"unhandled compare {inst.op}")
    src1, dst, elem = inst.src1, inst.dst, inst.elem
    row_b = _row_source(inst.src2, run, elem)
    pi = _pred_index(inst.pred)
    nxt = pc + 1

    def vec_cmp(extra_mask, buffer, region_offset):
        out = list(map(compare, signed_row(src1, elem), row_b()))
        mask = extra_mask if pi is None else _lane_mask(pred[pi], extra_mask)
        if mask is not None:  # inactive lanes clear
            out = list(map(and_, out, mask))
        write_pred(dst, out)
        return nxt
    return vec_cmp


def _pred_set_all(inst: PredSetAll, pc: int, run: _Run):
    write_pred, dst = run.state.write_pred, inst.dst
    row = [inst.value] * run.lanes
    nxt = pc + 1

    def pred_set_all(extra_mask, buffer, region_offset):
        write_pred(dst, row)
        return nxt
    return pred_set_all


def _pred_count(inst: PredCount, pc: int, run: _Run):
    regs, pred = run.regs, run.pred
    dst, src = inst.dst.index, inst.src.index
    nxt = pc + 1

    def pred_count(extra_mask, buffer, region_offset):
        regs[dst] = sum(pred[src])
        return nxt
    return pred_count


def _pred_first_n(inst: PredFirstN, pc: int, run: _Run):
    regs, write_pred, lanes = run.regs, run.state.write_pred, run.lanes
    dst, count = inst.dst, inst.count.index
    nxt = pc + 1

    def pred_first_n(extra_mask, buffer, region_offset):
        n = regs[count]
        write_pred(dst, [lane < n for lane in range(lanes)])
        return nxt
    return pred_first_n


def _pred_range(inst: PredRange, pc: int, run: _Run):
    regs, write_pred, lanes = run.regs, run.state.write_pred, run.lanes
    dst, lo_reg, hi_reg = inst.dst, inst.lo.index, inst.hi.index
    nxt = pc + 1

    def pred_range(extra_mask, buffer, region_offset):
        lo, hi = regs[lo_reg], regs[hi_reg]
        write_pred(dst, [lo <= lane < hi for lane in range(lanes)])
        return nxt
    return pred_range


def _pred_logic(inst: PredLogic, pc: int, run: _Run):
    pred, write_pred = run.pred, run.state.write_pred
    op, dst, src1 = inst.op, inst.dst, inst.src1.index
    src2 = _pred_index(inst.src2)
    nxt = pc + 1

    def pred_logic(extra_mask, buffer, region_offset):
        a = pred[src1]
        if op == "not":
            out = [not bit for bit in a]
        else:
            b = pred[src2]
            if op == "and":
                out = [i and j for i, j in zip(a, b)]
            elif op == "or":
                out = [i or j for i, j in zip(a, b)]
            elif op == "xor":
                out = [i != j for i, j in zip(a, b)]
            else:  # andnot
                out = [i and not j for i, j in zip(a, b)]
        write_pred(dst, out)
        return nxt
    return pred_logic


# ---- vector memory -----------------------------------------------------------
#
# Each access goes through _Run.read_lanes / write_lanes with the
# instruction's active lanes in lane order, so the speculative buffer
# sees the lanes in the order SRV conflict detection needs, the trace log
# records them in canonical order, and overlapping scatter lanes commit
# in lane order.


def _vec_load_contig(inst: VecLoadContig | VecLoadBroadcast, pc: int,
                     run: _Run):
    regs, pred, all_lanes = run.regs, run.pred, run.all_lanes
    read_lanes, write_loaded = run.read_lanes, run.write_loaded
    dst, base, offset, elem = inst.dst, inst.base.index, inst.offset, inst.elem
    broadcast = isinstance(inst, VecLoadBroadcast)
    pi = _pred_index(inst.pred)
    nxt = pc + 1

    def vec_load_contig(extra_mask, buffer, region_offset):
        mask = extra_mask if pi is None else _lane_mask(pred[pi], extra_mask)
        lanes = all_lanes if mask is None else list(compress(all_lanes, mask))
        if lanes:
            start = regs[base] + offset
            if broadcast:
                addrs = [start] * len(lanes)
            else:
                addrs = [start + lane * elem for lane in lanes]
            values = read_lanes(addrs, elem, lanes, buffer, region_offset)
            write_loaded(dst, mask, lanes, values, elem)
        return nxt
    return vec_load_contig


def _vec_load_gather(inst: VecLoadGather, pc: int, run: _Run):
    regs, pred, all_lanes = run.regs, run.pred, run.all_lanes
    read_lanes, write_loaded = run.read_lanes, run.write_loaded
    signed_row = run.state.signed_row
    dst, base, elem = inst.dst, inst.base.index, inst.elem
    index_reg, index_elem, scale = inst.index, inst.index_elem, inst.effective_scale
    pi = _pred_index(inst.pred)
    nxt = pc + 1

    def vec_load_gather(extra_mask, buffer, region_offset):
        mask = extra_mask if pi is None else _lane_mask(pred[pi], extra_mask)
        lanes = all_lanes if mask is None else list(compress(all_lanes, mask))
        if lanes:
            start = regs[base]
            index = signed_row(index_reg, index_elem)
            values = read_lanes(
                [start + index[lane] * scale for lane in lanes], elem,
                lanes, buffer, region_offset,
            )
            write_loaded(dst, mask, lanes, values, elem)
        return nxt
    return vec_load_gather


def _vec_store_contig(inst: VecStoreContig, pc: int, run: _Run):
    regs, pred, all_lanes = run.regs, run.pred, run.all_lanes
    write_lanes, unsigned_row = run.write_lanes, run.state.unsigned_row
    src, base, offset, elem = inst.src, inst.base.index, inst.offset, inst.elem
    pi = _pred_index(inst.pred)
    nxt = pc + 1

    def vec_store_contig(extra_mask, buffer, region_offset):
        mask = extra_mask if pi is None else _lane_mask(pred[pi], extra_mask)
        lanes = all_lanes if mask is None else list(compress(all_lanes, mask))
        if lanes:
            start = regs[base] + offset
            row = unsigned_row(src, elem)
            write_lanes(
                [start + lane * elem for lane in lanes], elem,
                [row[lane] for lane in lanes], lanes, buffer, region_offset,
            )
        return nxt
    return vec_store_contig


def _vec_store_scatter(inst: VecStoreScatter, pc: int, run: _Run):
    regs, pred, all_lanes = run.regs, run.pred, run.all_lanes
    write_lanes, state = run.write_lanes, run.state
    signed_row, unsigned_row = state.signed_row, state.unsigned_row
    src, base, elem = inst.src, inst.base.index, inst.elem
    index_reg, index_elem, scale = inst.index, inst.index_elem, inst.effective_scale
    pi = _pred_index(inst.pred)
    nxt = pc + 1

    def vec_store_scatter(extra_mask, buffer, region_offset):
        mask = extra_mask if pi is None else _lane_mask(pred[pi], extra_mask)
        lanes = all_lanes if mask is None else list(compress(all_lanes, mask))
        if lanes:
            start = regs[base]
            index = signed_row(index_reg, index_elem)
            row = unsigned_row(src, elem)
            write_lanes(
                [start + index[lane] * scale for lane in lanes], elem,
                [row[lane] for lane in lanes], lanes, buffer, region_offset,
            )
        return nxt
    return vec_store_scatter


#: The op builder of each instruction type.  It is consulted once per
#: static pc when a run starts; a subclass of one of these types builds
#: as its base (first match in this order).
_BUILDERS = {
    ScalarALU: _scalar_alu,
    ScalarLoad: _scalar_load,
    ScalarStore: _scalar_store,
    Branch: _branch,
    Jump: _jump,
    Halt: _halt,
    Nop: _nop,
    VecALU: _vec_alu,
    VecSplat: _vec_splat,
    VecIndex: _vec_index,
    VecExtractLane: _vec_extract,
    VecReduce: _vec_reduce,
    VecCmp: _vec_cmp,
    PredSetAll: _pred_set_all,
    PredCount: _pred_count,
    PredFirstN: _pred_first_n,
    PredRange: _pred_range,
    PredLogic: _pred_logic,
    VecLoadContig: _vec_load_contig,
    VecLoadBroadcast: _vec_load_contig,
    VecLoadGather: _vec_load_gather,
    VecStoreContig: _vec_store_contig,
    VecStoreScatter: _vec_store_scatter,
}


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
