"""Dynamic execution traces.

The cycle-approximate pipeline is *trace driven*: the functional emulator
executes the program (guaranteeing architectural correctness) and emits
one :class:`TraceOp` per dynamic instruction, carrying everything the
timing model needs — instruction class, register dependences, per-lane
memory accesses, branch outcomes, and SRV-region structure (passes,
replay lane sets, commits).  This mirrors the paper's methodology of
pairing a validated emulator with the gem5 timing model.

:class:`Tracer` keeps every op as a Python object; :class:`LogTracer`
records the same trace into a compact columnar :class:`TraceLog` and
rebuilds the ops on demand.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterator

from repro.isa.instructions import Instruction, SrvDirection


class OpClass(enum.Enum):
    """Functional-unit class of an instruction (Table I issue limits)."""

    SCALAR_ALU = "scalar_alu"
    SCALAR_MUL = "scalar_mul"
    SCALAR_DIV = "scalar_div"
    SCALAR_LOAD = "scalar_load"
    SCALAR_STORE = "scalar_store"
    BRANCH = "branch"
    VEC_INT = "vec_int"        # "2 integers" per cycle
    VEC_OTHER = "vec_other"    # "1 others" per cycle
    VEC_LOAD = "vec_load"      # "2 loads"
    VEC_STORE = "vec_store"    # "1 store"
    SRV_START = "srv_start"
    SRV_END = "srv_end"
    NOP = "nop"


@dataclass(frozen=True, slots=True)
class MemAccess:
    """One lane-granular memory access performed by a trace op."""

    addr: int
    size: int
    is_store: bool
    lane: int


class RegionEvent(enum.Enum):
    START = "start"
    PASS_BEGIN = "pass_begin"
    END_REPLAY = "end_replay"
    END_COMMIT = "end_commit"
    FALLBACK = "fallback"       # LSU-overflow sequential execution


@dataclass(slots=True)
class TraceOp:
    """One dynamic instruction as seen by the timing model."""

    index: int
    pc: int
    inst: Instruction
    op_class: OpClass
    src_regs: tuple[tuple[str, int], ...] = ()
    dst_regs: tuple[tuple[str, int], ...] = ()
    mem: list[MemAccess] = field(default_factory=list)
    branch_taken: bool | None = None
    in_region: bool = False
    region_pass: int = 0
    active_lane_count: int = 0
    region_event: RegionEvent | None = None
    replay_lanes: frozenset[int] = frozenset()
    direction: SrvDirection = SrvDirection.UP
    #: op belongs to a region executed via the section III-D7 sequential
    #: fallback — known at region *entry* (the emulator decides the
    #: fallback before executing the body), so the timing models need no
    #: whole-trace region scan
    in_fallback: bool = False
    #: static decode record (:mod:`repro.pipeline.decode`); ``None`` only
    #: for hand-built trace ops, which the timing models decode lazily
    decode: object | None = None

    @property
    def is_mem(self) -> bool:
        return bool(self.mem) or self.op_class in (
            OpClass.SCALAR_LOAD,
            OpClass.SCALAR_STORE,
            OpClass.VEC_LOAD,
            OpClass.VEC_STORE,
        )

    @property
    def is_load(self) -> bool:
        return self.op_class in (OpClass.SCALAR_LOAD, OpClass.VEC_LOAD)

    @property
    def is_store(self) -> bool:
        return self.op_class in (OpClass.SCALAR_STORE, OpClass.VEC_STORE)


class Tracer:
    """Collects :class:`TraceOp` records during functional execution.

    Subclasses may override :meth:`_emit` and :meth:`_last_op` to change
    where finalized ops go (see :class:`StreamingTracer` and
    :class:`LogTracer`); every
    annotation the emulator makes after recording an op (region events,
    replay lane sets, fallback marks) targets the *most recently
    recorded* op and completes before the next op is recorded — the
    invariant that makes a one-op holdback sufficient for streaming.
    """

    def __init__(self) -> None:
        self.ops: list[TraceOp] = []
        self._count = 0
        self._in_region = False
        self._in_fallback = False
        self._region_pass = 0
        self._active_lanes = 0
        self._direction = SrvDirection.UP

    @property
    def count(self) -> int:
        """Dynamic ops recorded so far (identical across tracer kinds)."""
        return self._count

    # -- storage hooks (overridden by StreamingTracer) -------------------------

    def _emit(self, op: TraceOp) -> None:
        self.ops.append(op)

    def _last_op(self) -> TraceOp | None:
        return self.ops[-1] if self.ops else None

    # -- region structure -------------------------------------------------------

    def region_start(self, direction: SrvDirection) -> None:
        self._in_region = True
        self._region_pass = 0
        self._direction = direction

    def region_pass(self, pass_no: int, active_lanes: int) -> None:
        self._region_pass = pass_no
        self._active_lanes = active_lanes

    def region_end(
        self, committed: bool, replay_lanes: frozenset[int] = frozenset()
    ) -> None:
        """Annotate the just-recorded ``srv_end`` op with the decision."""
        op = self._last_op()
        if op is not None:
            op.region_event = (
                RegionEvent.END_COMMIT if committed else RegionEvent.END_REPLAY
            )
            op.replay_lanes = replay_lanes
        if committed:
            self._in_region = False

    def region_fallback(self) -> None:
        """Mark the final ``srv_end`` of a sequential-fallback region."""
        op = self._last_op()
        if op is not None:
            op.region_event = RegionEvent.FALLBACK
        self._in_fallback = False

    def region_fallback_begin(self) -> None:
        """The emulator chose the section III-D7 sequential fallback.

        Called at region entry, with the region's ``srv_start`` marker as
        the last recorded op: the marker and every subsequent op of the
        region carry ``in_fallback=True`` so the timing models know the
        region is not hardware-speculated without scanning ahead.
        """
        self._in_fallback = True
        op = self._last_op()
        if op is not None:
            op.in_fallback = True

    def mark_region_event(self, event: RegionEvent) -> None:
        """Overwrite the region event of the just-recorded op."""
        op = self._last_op()
        if op is not None:
            op.region_event = event

    # -- per-op recording ----------------------------------------------------------

    def record(
        self,
        pc: int,
        inst: Instruction,
        decode,
        mem: list[MemAccess],
        branch_taken: bool | None,
        region_event: RegionEvent | None = None,
    ) -> TraceOp:
        """Record one dynamic op from its static decode record."""
        op = TraceOp(
            index=self._count,
            pc=pc,
            inst=inst,
            op_class=decode.op_class,
            src_regs=decode.src_regs,
            dst_regs=decode.dst_regs,
            mem=mem,
            branch_taken=branch_taken,
            in_region=self._in_region,
            region_pass=self._region_pass,
            active_lane_count=self._active_lanes,
            region_event=region_event,
            direction=self._direction,
            in_fallback=self._in_fallback,
            decode=decode,
        )
        self._count += 1
        self._emit(op)
        return op


class StreamingTracer(Tracer):
    """A :class:`Tracer` that hands finalized ops to a sink callback.

    Exactly one op is held back (the most recently recorded one), because
    the emulator may still annotate it; it is flushed to ``sink`` when
    the next op is recorded, or at :meth:`close`.  Memory use is O(1) in
    trace length.
    """

    def __init__(self, sink) -> None:
        super().__init__()
        self._sink = sink
        self._pending: TraceOp | None = None

    def _emit(self, op: TraceOp) -> None:
        held = self._pending
        self._pending = op
        if held is not None:
            self._sink(held)

    def _last_op(self) -> TraceOp | None:
        return self._pending

    def close(self) -> None:
        """Flush the held-back op at end of execution."""
        held = self._pending
        self._pending = None
        if held is not None:
            self._sink(held)


# ---------------------------------------------------------------------------
# the columnar trace log
# ---------------------------------------------------------------------------

#: One flag byte per logged op: branch outcome (bits 0-1), region event
#: (bits 2-4), in_region (bit 5), in_fallback (bit 6), DOWN direction (bit 7).
_BRANCH_BITS = {None: 0, False: 1, True: 2}
_EVENTS = (None, *RegionEvent)
_EVENT_BITS = {event: code << 2 for code, event in enumerate(_EVENTS)}
_EVENT_MASK = 0b111 << 2
_IN_REGION = 1 << 5
_IN_FALLBACK = 1 << 6
_DOWN = 1 << 7


def _unpack(bits: int) -> tuple:
    event = bits >> 2 & 0b111
    return (
        (None, False, True, None)[bits & 0b11],
        _EVENTS[event] if event < len(_EVENTS) else None,
        bool(bits & _IN_REGION),
        bool(bits & _IN_FALLBACK),
        SrvDirection.DOWN if bits & _DOWN else SrvDirection.UP,
    )


#: flag byte -> (branch_taken, region_event, in_region, in_fallback, direction)
_UNPACK = tuple(_unpack(bits) for bits in range(256))


class TraceLog:
    """One emulation's dynamic trace as compact columns.

    Per op: pc, a flag byte (branch outcome, region event, region and
    fallback membership, direction), region pass, active lane count and
    the op's start offset into the access columns.  Per access: address,
    size, store flag and lane.  Replay lane sets are kept sparsely, by op
    index, since only ``srv_end`` ops of replaying passes carry one.
    Nothing static is stored: :meth:`ops` takes the instruction, op class,
    registers and decode record from the program and its
    :class:`~repro.pipeline.decode.DecodeTable`.
    """

    __slots__ = ("pc", "bits", "region_pass", "active", "start",
                 "addr", "size", "store", "lane", "replay")

    def __init__(self) -> None:
        self.pc = array("i")
        self.bits = array("B")
        self.region_pass = array("i")
        self.active = array("H")
        self.start = array("q")
        self.addr = array("q")
        self.size = array("B")
        self.store = array("B")
        self.lane = array("H")
        self.replay: dict[int, frozenset[int]] = {}

    def __len__(self) -> int:
        return len(self.pc)

    @property
    def nbytes(self) -> int:
        """Bytes held by the columns (the sparse replay sets excluded)."""
        return sum(
            col.itemsize * len(col)
            for col in (self.pc, self.bits, self.region_pass, self.active,
                        self.start, self.addr, self.size, self.store,
                        self.lane)
        )

    def warm(self, caches) -> None:
        """Play every access into ``caches`` in trace order, then reset
        their stats: steady-state warming, as ``warm_caches`` does for a
        materialised trace.

        As in :meth:`~repro.memory.hierarchy.CacheHierarchy.access_lanes`,
        an access inside the L1's MRU line skips the call (it would be an
        MRU hit, counted in stats that are reset here anyway); a store
        still dirties that line.
        """
        access = caches.access
        l1 = caches.l1
        line = caches.config.l1.line_bytes
        mru = l1.mru
        for addr, size, store in zip(self.addr, self.size, self.store):
            if (
                mru is not None
                and addr // line == mru[0] == (addr + size - 1) // line
            ):
                if store:
                    mru[1].dirty = True
                continue
            access(addr, size, store)
            mru = l1.mru
        caches.reset_stats()

    def ops(self, program, decode) -> Iterator[TraceOp]:
        """Rebuild the logged ops, field for field what a :class:`Tracer`
        would have recorded, one at a time."""
        statics = []
        for inst in program.instructions:
            rec = decode.record_for(inst)
            statics.append((inst, rec.op_class, rec.src_regs, rec.dst_regs,
                            rec))
        unpack = _UNPACK
        replay = self.replay
        no_lanes: frozenset[int] = frozenset()
        accesses = zip(self.addr, self.size, self.store, self.lane)
        ends = chain(islice(self.start, 1, None), (len(self.addr),))
        columns = zip(self.pc, self.bits, self.region_pass, self.active,
                      self.start, ends)
        for index, (pc, bits, region_pass, active, start, end) in enumerate(
            columns
        ):
            inst, op_class, src_regs, dst_regs, rec = statics[pc]
            branch_taken, event, in_region, in_fallback, direction = (
                unpack[bits]
            )
            mem = [
                MemAccess(addr, size, store == 1, lane)
                for addr, size, store, lane in islice(accesses, end - start)
            ] if end > start else []
            # positional, in TraceOp's field order
            yield TraceOp(
                index, pc, inst, op_class, src_regs, dst_regs, mem,
                branch_taken, in_region, region_pass, active, event,
                replay.get(index, no_lanes), direction, in_fallback, rec,
            )


class _LastLoggedOp:
    """The most recent op of a :class:`TraceLog`, as the annotation hooks
    of :class:`Tracer` see it: they only ever assign these fields."""

    __slots__ = ("_log",)

    def __init__(self, log: TraceLog) -> None:
        self._log = log

    def _set_event(self, event: RegionEvent | None) -> None:
        bits = self._log.bits
        bits[-1] = bits[-1] & ~_EVENT_MASK | _EVENT_BITS[event]

    def _set_replay_lanes(self, lanes: frozenset[int]) -> None:
        if lanes:
            self._log.replay[len(self._log.pc) - 1] = lanes

    def _set_in_fallback(self, flag: bool) -> None:
        bits = self._log.bits
        bits[-1] = bits[-1] & ~_IN_FALLBACK | (_IN_FALLBACK if flag else 0)

    region_event = property(None, _set_event)
    replay_lanes = property(None, _set_replay_lanes)
    in_fallback = property(None, _set_in_fallback)


class LogTracer(Tracer):
    """A :class:`Tracer` that records into a :class:`TraceLog`.

    No :class:`TraceOp` is built while recording; ``log.ops()`` rebuilds
    them afterwards.  Equal replay lane sets share one object.
    """

    def __init__(self) -> None:
        super().__init__()
        self.log = log = TraceLog()
        self._view = _LastLoggedOp(log)
        self._lane_sets: dict[frozenset[int], frozenset[int]] = {}
        self._pc = log.pc.append
        self._bits = log.bits.append
        self._pass = log.region_pass.append
        self._active = log.active.append
        self._start = log.start.append
        self._addr = log.addr.append
        self._size = log.size.append
        self._store = log.store.append
        self._lane = log.lane.append

    def _last_op(self):
        return self._view if self._count else None

    def region_end(
        self, committed: bool, replay_lanes: frozenset[int] = frozenset()
    ) -> None:
        lanes = self._lane_sets.setdefault(replay_lanes, replay_lanes)
        super().region_end(committed, lanes)

    def record(self, pc, inst, decode, mem, branch_taken, region_event=None):
        bits = _BRANCH_BITS[branch_taken] | _EVENT_BITS[region_event]
        if self._in_region:
            bits |= _IN_REGION
        if self._in_fallback:
            bits |= _IN_FALLBACK
        if self._direction is SrvDirection.DOWN:
            bits |= _DOWN
        self._pc(pc)
        self._bits(bits)
        self._pass(self._region_pass)
        self._active(self._active_lanes)
        self._start(len(self.log.addr))
        if mem:
            addr, size, store, lane = (
                self._addr, self._size, self._store, self._lane
            )
            for access in mem:
                addr(access.addr)
                size(access.size)
                store(access.is_store)
                lane(access.lane)
        self._count += 1
