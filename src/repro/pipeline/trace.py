"""Dynamic execution traces.

The cycle-approximate pipeline is *trace driven*: the functional emulator
executes the program (guaranteeing architectural correctness) and records
every dynamic instruction into a :class:`TraceLog`, carrying everything
the timing model needs — the static instruction (by pc), branch
outcomes, per-lane memory accesses and SRV-region structure (passes,
replay lane sets, commits).  This mirrors the paper's methodology of
pairing a validated emulator with the gem5 timing model.

The log is the only trace form.  It is stored as compact columns and
every consumer (the timing models, cache warming, the sampler, the
invariant monitors) reads it in place, by op index.  :meth:`TraceLog.op`
builds a :class:`TraceOp` view of one op for inspection; no timing or
sampling path builds one.
"""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice

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
    """One lane-granular memory access of a :class:`TraceOp` view."""

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
    """One logged op, field by field (built by :meth:`TraceLog.op`)."""

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
    #: fallback before executing the body)
    in_fallback: bool = False
    #: static decode record (:mod:`repro.pipeline.decode`)
    decode: object | None = None


# ---------------------------------------------------------------------------
# the flag byte
# ---------------------------------------------------------------------------

#: One flag byte per logged op: branch outcome (bits 0-1), region event
#: (bits 2-4), in_region (bit 5), in_fallback (bit 6), DOWN direction
#: (bit 7).  Consumers test the bits directly.
BRANCH_MASK = 0b11
BRANCH_NOT_TAKEN = 1
BRANCH_TAKEN = 2
_BRANCH_BITS = {None: 0, False: BRANCH_NOT_TAKEN, True: BRANCH_TAKEN}
_EVENTS = (None, *RegionEvent)
_EVENT_BITS = {event: code << 2 for code, event in enumerate(_EVENTS)}
EVENT_MASK = 0b111 << 2
EV_START = _EVENT_BITS[RegionEvent.START]
EV_END_REPLAY = _EVENT_BITS[RegionEvent.END_REPLAY]
EV_END_COMMIT = _EVENT_BITS[RegionEvent.END_COMMIT]
EV_FALLBACK = _EVENT_BITS[RegionEvent.FALLBACK]
IN_REGION = 1 << 5
IN_FALLBACK = 1 << 6
DOWN = 1 << 7


def region_event(bits: int) -> RegionEvent | None:
    """The region event a flag byte carries."""
    event = bits >> 2 & 0b111
    return _EVENTS[event] if event < len(_EVENTS) else None


def safe_cut(bits: int) -> bool:
    """True when a segment may begin at an op with these flags.

    Cut points are ops outside any SRV region, or a region's own
    ``srv_start`` marker (the marker is recorded inside the region, but
    nothing of the region precedes it).
    """
    return not bits & IN_REGION or bits & EVENT_MASK == EV_START


class TraceLog:
    """One emulation's dynamic trace of ``program`` as compact columns.

    Per op: pc and a flag byte (branch outcome, region event, region and
    fallback membership, direction); ``bounds[k]:bounds[k + 1]`` is op
    ``k``'s slice of the access columns.  Per access: address, size,
    store flag and lane.  Sparse: replay lane sets by op index (only
    ``srv_end`` ops of replaying passes carry one), and the region pass
    number and active lane count as change points, since they change
    only when a pass begins.  Nothing static is stored: the instruction,
    op class and registers of an op come from ``program`` by pc, and
    :attr:`records` holds their decode records.

    The emulator logs an op's accesses (:meth:`access`,
    :meth:`accesses`), then records the op (:meth:`record`), and calls
    the ``region_*`` hooks; its loops inline ``record``, and a scalar
    op its ``access``, as appends to the columns.  Each hook annotates
    the most recently recorded op and completes before the next op is
    recorded, so an op is final once a later one exists.
    """

    __slots__ = ("program", "pc", "bits", "bounds", "addr", "size", "store",
                 "lane", "replay", "pass_at", "pass_no", "pass_active",
                 "_decode", "_records", "op_flags", "_active", "_lane_sets")

    def __init__(self, program, decode=None) -> None:
        self.program = program
        self.pc = array("i")
        self.bits = array("B")
        self.bounds = array("q", [0])
        self.addr = array("q")
        self.size = array("B")
        self.store = array("B")
        self.lane = array("H")
        self.replay: dict[int, frozenset[int]] = {}
        self.pass_at = array("q")
        self.pass_no = array("i")
        self.pass_active = array("H")
        self._decode = decode
        self._records: tuple | None = None
        #: flags every newly recorded op starts from (region, fallback,
        #: direction); the recorder ORs in its branch outcome bits
        self.op_flags = 0
        #: the active lane count of the current pass
        self._active = 0
        self._lane_sets: dict[frozenset[int], frozenset[int]] = {}

    def __len__(self) -> int:
        return len(self.pc)

    @property
    def nbytes(self) -> int:
        """Bytes held by the columns (the sparse replay sets excluded)."""
        return sum(
            col.itemsize * len(col)
            for col in (self.pc, self.bits, self.bounds, self.addr,
                        self.size, self.store, self.lane, self.pass_at,
                        self.pass_no, self.pass_active)
        )

    @property
    def records(self) -> tuple:
        """The decode record of every static instruction, by pc."""
        if self._records is None:
            decode = self._decode
            if decode is None:
                from repro.pipeline.decode import DecodeTable

                decode = DecodeTable.for_program(self.program)
            self._records = tuple(
                decode.record_for(inst) for inst in self.program.instructions
            )
        return self._records

    # -- recording ----------------------------------------------------------

    def record(self, pc: int, branch_taken: bool | None) -> None:
        """Close one dynamic op at ``pc`` over the accesses logged since
        the previous op."""
        self.pc.append(pc)
        self.bits.append(self.op_flags | _BRANCH_BITS[branch_taken])
        self.bounds.append(len(self.addr))

    def access(self, addr: int, size: int, is_store: bool, lane: int) -> None:
        """Log one lane access of the op being executed."""
        self.addr.append(addr)
        self.size.append(size)
        self.store.append(is_store)
        self.lane.append(lane)

    def accesses(self, addrs: list[int], size: int, is_store: bool,
                 lanes: list[int]) -> None:
        """Log the lane accesses of one vector op, in lane order."""
        count = len(addrs)
        self.addr.extend(addrs)
        self.size.frombytes(bytes((size,)) * count)
        self.store.frombytes(b"\x01" * count if is_store else bytes(count))
        self.lane.extend(lanes)

    def _annotate(self, clear: int, set_bits: int) -> None:
        bits = self.bits
        if bits:
            bits[-1] = bits[-1] & ~clear | set_bits

    def region_start(self, direction: SrvDirection) -> None:
        self.op_flags = self.op_flags & ~DOWN | IN_REGION | (
            DOWN if direction is SrvDirection.DOWN else 0
        )
        self.region_pass(0, self._active)

    def region_pass(self, pass_no: int, active_lanes: int) -> None:
        """The ops recorded from now on run in pass ``pass_no`` with
        ``active_lanes`` lanes active."""
        self.pass_at.append(len(self.pc))
        self.pass_no.append(pass_no)
        self.pass_active.append(active_lanes)
        self._active = active_lanes

    def region_end(
        self, committed: bool, replay_lanes: frozenset[int] = frozenset()
    ) -> None:
        """Annotate the just-recorded ``srv_end`` op with the decision."""
        if self.pc:
            self._annotate(EVENT_MASK,
                           EV_END_COMMIT if committed else EV_END_REPLAY)
            if replay_lanes:
                lanes = self._lane_sets.setdefault(replay_lanes, replay_lanes)
                self.replay[len(self.pc) - 1] = lanes
        if committed:
            self.op_flags &= ~IN_REGION

    def region_fallback(self) -> None:
        """Mark the final ``srv_end`` of a sequential-fallback region."""
        self._annotate(EVENT_MASK, EV_FALLBACK)
        self.op_flags &= ~IN_FALLBACK

    def region_fallback_begin(self) -> None:
        """The emulator chose the section III-D7 sequential fallback.

        Called at region entry, with the region's ``srv_start`` marker as
        the last recorded op: the marker and every subsequent op of the
        region carry the fallback flag, so the timing models know the
        region is not hardware-speculated without scanning ahead.
        """
        self.op_flags |= IN_FALLBACK
        self._annotate(0, IN_FALLBACK)

    def mark_region_event(self, event: RegionEvent) -> None:
        """Overwrite the region event of the just-recorded op."""
        self._annotate(EVENT_MASK, _EVENT_BITS[event])

    # -- reading --------------------------------------------------------------

    def region_pass_of(self, index: int) -> tuple[int, int]:
        """``(pass number, active lane count)`` in force at op ``index``."""
        at = bisect_right(self.pass_at, index) - 1
        if at < 0:
            return 0, 0
        return self.pass_no[at], self.pass_active[at]

    def op(self, index: int) -> TraceOp:
        """A :class:`TraceOp` view of op ``index`` (for inspection)."""
        pc = self.pc[index]
        bits = self.bits[index]
        rec = self.records[pc]
        region_pass, active = self.region_pass_of(index)
        lo, hi = self.bounds[index], self.bounds[index + 1]
        return TraceOp(
            index=index,
            pc=pc,
            inst=self.program.instructions[pc],
            op_class=rec.op_class,
            src_regs=rec.src_regs,
            dst_regs=rec.dst_regs,
            mem=[
                MemAccess(self.addr[k], self.size[k], self.store[k] == 1,
                          self.lane[k])
                for k in range(lo, hi)
            ],
            branch_taken=(None, False, True, None)[bits & BRANCH_MASK],
            in_region=bool(bits & IN_REGION),
            region_pass=region_pass,
            active_lane_count=active,
            region_event=region_event(bits),
            replay_lanes=self.replay.get(index, frozenset()),
            direction=SrvDirection.DOWN if bits & DOWN else SrvDirection.UP,
            in_fallback=bool(bits & IN_FALLBACK),
            decode=rec,
        )

    def play(self, caches, start: int = 0, stop: int | None = None) -> None:
        """Play the accesses of ops ``start:stop`` into ``caches``, in
        trace order.

        The same cache state and stats as
        :meth:`~repro.memory.hierarchy.CacheHierarchy.access_lanes` over
        each op: an access inside the L1's MRU line is counted as that
        hit without a call, and a store still dirties the line; one
        inside another line its L1 set holds goes straight to
        ``Cache.access``, the one-line hit path of ``access``.
        """
        bounds = self.bounds
        lo = bounds[start]
        hi = bounds[len(self.pc) if stop is None else stop]
        columns = (self.addr, self.size, self.store)
        if lo or hi < len(self.addr):
            columns = tuple(islice(col, lo, hi) for col in columns)
        access = caches.access
        stats = caches.stats
        l1 = caches.l1
        l1_access = l1.access
        sets = l1._sets
        index_mask = l1._index_mask
        tag_shift = index_mask.bit_length()
        line = caches.config.l1.line_bytes
        mru = l1.mru
        repeats = 0
        for addr, size, store in zip(*columns):
            line_no = addr // line
            if line_no == (addr + size - 1) // line:
                if mru is not None and line_no == mru[0]:
                    repeats += 1
                    if store:
                        mru[1].dirty = True
                    continue
                if size > 0 and line_no >> tag_shift in sets[
                    line_no & index_mask
                ]:
                    l1_access(line_no * line, store == 1)
                    stats.l1_hits += 1
                    mru = l1.mru
                    continue
            access(addr, size, store == 1)
            mru = l1.mru
        if repeats:
            l1.stats.hits += repeats
            stats.l1_hits += repeats

    def warm(self, caches, start: int = 0, stop: int | None = None) -> bool:
        """Play ops ``start:stop`` into ``caches``, then reset their
        stats: the steady-state warming of a cache-resident working set.

        Returns whether playing those accesses again would hit the L1 at
        every one: the play evicted nothing from the L1 (the lines it
        holds grew by exactly its misses, so every line the ops touch is
        resident, and hits never evict), and no access has size 0 (which
        the hierarchy rejects).
        """
        l1 = caches.l1
        lines = l1.resident_lines()
        misses = l1.stats.misses
        self.play(caches, start, stop)
        resident = l1.resident_lines() - lines == l1.stats.misses - misses
        caches.reset_stats()
        if resident:
            bounds = self.bounds
            sizes = memoryview(self.size)[
                bounds[start]:bounds[len(self.pc) if stop is None else stop]
            ]
            resident = 0 not in sizes.tobytes()
        return resident
