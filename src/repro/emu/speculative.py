"""Speculative memory buffer implementing functional SRV semantics.

During an SRV-region, stores are buffered rather than written to memory
(section III-A: "stored data from speculative lanes cannot leave the core
until they become non-speculative").  This module implements, at functional
fidelity, the three dependence resolutions of section III-B3:

* **WAR** — a load never consumes data stored by a *sequentially later*
  access (a later lane); such bytes are read from memory (or from
  sequentially older buffered stores) instead.
* **WAW** — commit applies buffered stores in sequential order, so the
  latest version (in program order) of each byte reaches memory.
* **RAW** — a store that issues after a sequentially-later load has already
  executed flags that load's lane in the *SRV-needs-replay* set.

Sequential order of a region access is the lexicographic order of
``(lane, instruction_offset)``: the original scalar loop runs iteration
(=lane) 0 to completion before iteration 1 starts.

Buffered stores are keyed by ``(instruction_offset, lane)`` — the paper's
*SRV-id* — so replays update entries in place instead of allocating new
ones (section III-C).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from repro.common.blockindex import BlockIndex
from repro.common.errors import MemoryAccessError
from repro.emu.metrics import SrvMetrics
from repro.memory.image import MemoryImage


@dataclass(slots=True)
class _StoreRecord:
    addr: int
    size: int
    data: bytes
    lane: int
    instr: int

    def overlaps(self, addr: int, size: int) -> bool:
        return self.addr < addr + size and addr < self.addr + self.size


@dataclass(slots=True)
class _LoadRecord:
    addr: int
    size: int
    lane: int
    instr: int
    tick: int


def _record_blocks(
    shift: int, record: _StoreRecord | _LoadRecord
) -> tuple[int, ...]:
    """Numbers of the ``1 << shift``-byte blocks ``record``'s bytes touch."""
    first = record.addr >> shift
    last = (record.addr + record.size - 1) >> shift
    if first == last:
        return (first,)
    return tuple(range(first, last + 1))


@dataclass
class SpeculativeBuffer:
    """Store/load tracking for one SRV-region instance.

    ``tm_mode`` emulates the section III-E transactional-memory variant:
    without per-line versioning, a WAR conflict (a load denied forwarding
    because a *later* lane already wrote the bytes) must also re-execute
    the writing lane, not just suppress forwarding.

    ``block_bytes`` (the machine's address-alignment region, a power of
    two) sizes the blocks records are filed by: the forwarding, WAW and
    RAW walks visit only records in the blocks an access touches, since a
    record in any other block cannot overlap it.
    """

    memory: MemoryImage
    metrics: SrvMetrics
    tm_mode: bool = False
    block_bytes: int = 64
    _blocks: Callable[[object], tuple[int, ...]] = field(init=False)
    _stores: BlockIndex = field(init=False)
    _loads: BlockIndex = field(init=False)
    needs_replay: set[int] = field(default_factory=set)
    _tick: int = 0
    # Conservative address bounds over all buffered stores / recorded loads.
    # They only ever grow within a region instance (replay passes replace
    # records in place, so a shrunk record leaves stale — safe — bounds);
    # an access wholly outside them provably overlaps nothing, which is the
    # overwhelmingly common case and skips the record scans entirely.
    _smin: int = 1 << 62
    _smax: int = -(1 << 62)
    _lmin: int = 1 << 62
    _lmax: int = -(1 << 62)

    def __post_init__(self) -> None:
        # a partial, not a bound method: the buffer must not sit in a
        # reference cycle with its own indexes, or each region's records
        # outlive it until the cycle collector runs
        self._blocks = partial(_record_blocks, self.block_bytes.bit_length() - 1)
        self._stores = BlockIndex(self._blocks)
        self._loads = BlockIndex(self._blocks)

    # -- helpers -------------------------------------------------------------

    def lsu_entries_used(self) -> int:
        return len(self._stores) + len(self._loads)

    # -- load ----------------------------------------------------------------

    def load(self, addr: int, size: int, lane: int, instr: int) -> tuple[int, bool]:
        """Read ``size`` bytes at ``addr`` for region access ``(instr, lane)``.

        Bytes come from the sequentially-latest older buffered store that
        wrote them, falling back to memory — the paper's partial
        store-to-load forwarding combined with WAR suppression.  Returns
        ``(value, any_byte_forwarded)``.
        """
        self._tick += 1
        end = addr + size
        mine = _LoadRecord(addr, size, lane, instr, self._tick)
        self._loads.put((instr, lane), mine)
        if addr < self._lmin:
            self._lmin = addr
        if end > self._lmax:
            self._lmax = end
        if addr >= self._smax or end <= self._smin:
            # no buffered store can overlap: plain memory read
            return self.memory.read_int(addr, size), False

        my_pos = (lane, instr)
        war_seen = False
        overlapping: list[_StoreRecord] | None = None
        for record in self._stores.within(self._blocks(mine)):
            if record.addr >= end or addr >= record.addr + record.size:
                continue
            if (record.lane, record.instr) < my_pos:
                if overlapping is None:
                    overlapping = [record]
                else:
                    overlapping.append(record)
            else:
                # A sequentially *later* store already wrote these bytes:
                # WAR — forwarding suppressed, bytes must come from elsewhere.
                war_seen = True
                if self.tm_mode and record.lane > lane:
                    # TM without line versions: the writing (younger)
                    # lane's transaction aborts and re-executes.
                    self.needs_replay.add(record.lane)
                    self.metrics.tm_war_replays += 1
        if war_seen:
            self.metrics.war_events += 1
        if overlapping is None:
            return self.memory.read_int(addr, size), False

        # Per-byte: pick the store with the greatest sequential position that
        # is still older than this load.
        result = bytearray(self.memory.read_bytes(addr, size))
        forwarded = False
        best_pos: list[tuple[int, int] | None] = [None] * size
        for record in overlapping:
            rec_pos = (record.lane, record.instr)
            lo = max(addr, record.addr)
            hi = min(end, record.addr + record.size)
            for byte_addr in range(lo, hi):
                idx = byte_addr - addr
                if best_pos[idx] is None or best_pos[idx] < rec_pos:
                    best_pos[idx] = rec_pos
                    result[idx] = record.data[byte_addr - record.addr]
                    forwarded = True
        return int.from_bytes(result, "little"), forwarded

    def load_lanes(
        self, addrs: list[int], size: int, lanes: list[int], instr: int
    ) -> tuple[list[int], bool]:
        """One vector load: :meth:`load` for each ``(addrs[i], lanes[i])``.

        ``lanes`` are the instruction's active lanes in ascending order.
        Returns the lane values and whether any byte was forwarded.  When
        the whole span lies outside every buffered store, no lane can
        forward or see a WAR, so each lane is recorded and read straight
        from memory; otherwise each lane runs :meth:`load` in lane order.
        """
        lo = min(addrs)
        hi = max(addrs) + size
        if lo < self._smax and hi > self._smin:
            return self._load_each(addrs, size, lanes, instr)
        read_int = self.memory.read_int
        try:
            values = [read_int(a, size) for a in addrs]
        except MemoryAccessError:
            # re-run lane by lane: records the lanes before the bad one
            # and raises its exact error
            return self._load_each(addrs, size, lanes, instr)
        put = self._loads.put
        tick = self._tick
        for addr, lane in zip(addrs, lanes):
            tick += 1
            put((instr, lane), _LoadRecord(addr, size, lane, instr, tick))
        self._tick = tick
        if lo < self._lmin:
            self._lmin = lo
        if hi > self._lmax:
            self._lmax = hi
        return values, False

    def _load_each(self, addrs, size, lanes, instr) -> tuple[list[int], bool]:
        values = []
        forwarded = False
        for addr, lane in zip(addrs, lanes):
            value, hit = self.load(addr, size, lane, instr)
            values.append(value)
            forwarded = forwarded or hit
        return values, forwarded

    # -- store ----------------------------------------------------------------

    def store(self, addr: int, size: int, value: int, lane: int, instr: int) -> None:
        self._tick += 1
        data = (value & ((1 << (size * 8)) - 1)).to_bytes(size, "little")
        end = addr + size
        mine = _StoreRecord(addr, size, data, lane, instr)

        # WAW: an overlapping buffered store in a *later* lane already
        # executed; ordered commit will keep the latest program-order data.
        if addr < self._smax and end > self._smin:
            for record in self._stores.within(self._blocks(mine)):
                if record.lane > lane and record.overlaps(addr, size):
                    self.metrics.waw_events += 1
                    break

        # Horizontal RAW: any load in a sequentially later position that
        # already executed (machine time) read stale bytes — flag its lane.
        if addr < self._lmax and end > self._lmin:
            tick = self._tick
            for load in self._loads.within(self._blocks(mine)):
                if load.lane <= lane:
                    continue
                if load.tick >= tick:
                    continue
                if load.addr < end and addr < load.addr + load.size:
                    self.needs_replay.add(load.lane)
                    self.metrics.raw_violations += 1

        self._stores.put((instr, lane), mine)
        if addr < self._smin:
            self._smin = addr
        if end > self._smax:
            self._smax = end

    def store_lanes(
        self,
        addrs: list[int],
        size: int,
        values: list[int],
        lanes: list[int],
        instr: int,
    ) -> None:
        """One vector store: :meth:`store` for each lane, in lane order.

        When the whole span lies outside every buffered store and every
        recorded load, no lane can meet a WAW or a RAW (lanes of one store
        never conflict with each other: each is older than the next), so
        the lanes are simply buffered.
        """
        lo = min(addrs)
        hi = max(addrs) + size
        if (lo < self._smax and hi > self._smin) or (
            lo < self._lmax and hi > self._lmin
        ):
            for addr, value, lane in zip(addrs, values, lanes):
                self.store(addr, size, value, lane, instr)
            return
        put = self._stores.put
        mask = (1 << (size * 8)) - 1
        for addr, value, lane in zip(addrs, values, lanes):
            data = (value & mask).to_bytes(size, "little")
            put((instr, lane), _StoreRecord(addr, size, data, lane, instr))
        self._tick += len(addrs)
        if lo < self._smin:
            self._smin = lo
        if hi > self._smax:
            self._smax = hi

    # -- commit -----------------------------------------------------------------

    def commit(self) -> None:
        """Write buffered stores to memory in sequential order.

        Sorting by ``(lane, instruction_offset)`` makes the program-order
        last writer win — the paper's selective memory update for WAW.
        """
        for record in sorted(
            self._stores.values(), key=lambda r: (r.lane, r.instr)
        ):
            self.memory.write_bytes(record.addr, record.data)

    def _reset_bounds(self) -> None:
        self._smin = self._lmin = 1 << 62
        self._smax = self._lmax = -(1 << 62)

    def discard(self) -> None:
        self._stores.clear()
        self._loads.clear()
        self.needs_replay.clear()
        self._reset_bounds()

    def commit_prefix(self, oldest_lane: int, offset: int) -> None:
        """Context-switch writeback (section III-D2).

        Writes back the non-speculative data — everything from lanes older
        than ``oldest_lane`` plus ``oldest_lane``'s own stores up to the
        current instruction ``offset`` — and discards all remaining
        speculative content.  Load records are dropped; younger lanes will
        re-execute the entire region on resumption.
        """
        keep_committed = [
            record
            for record in self._stores.values()
            if record.lane < oldest_lane
            or (record.lane == oldest_lane and record.instr <= offset)
        ]
        for record in sorted(keep_committed, key=lambda r: (r.lane, r.instr)):
            self.memory.write_bytes(record.addr, record.data)
        self.discard()
