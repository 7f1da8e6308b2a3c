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

from dataclasses import dataclass, field
from operator import itemgetter

from repro.common.errors import MemoryAccessError
from repro.emu.metrics import SrvMetrics
from repro.memory.image import MemoryImage

#: sequential position ``(lane, instr)`` of a record: commit order
_SEQUENTIAL = itemgetter(2, 3)


def _file(records: dict, by_block: dict, shift: int, rows) -> None:
    """Put each ``(key, record)`` of ``rows`` in ``records`` and file the
    record under each ``1 << shift``-byte block its bytes ``[record[0],
    record[1])`` touch.

    A replay re-executes an access under the same key; a record that
    moved to other blocks first leaves its old ones.
    """
    for key, record in rows:
        old = records.get(key)
        records[key] = record
        first = record[0] >> shift
        last = (record[1] - 1) >> shift
        if old is not None:
            old_first = old[0] >> shift
            old_last = (old[1] - 1) >> shift
            if old_first != first or old_last != last:
                for block in range(old_first, old_last + 1):
                    bucket = by_block[block]
                    del bucket[key]
                    if not bucket:
                        del by_block[block]
        for block in range(first, last + 1):
            bucket = by_block.get(block)
            if bucket is None:
                by_block[block] = {key: record}
            else:
                bucket[key] = record


def _within(by_block: dict, first: int, last: int):
    """Records filed under any of the blocks ``first..last``, each once."""
    if first == last:
        bucket = by_block.get(first)
        return bucket.values() if bucket else ()
    rows: dict = {}
    for block in range(first, last + 1):
        bucket = by_block.get(block)
        if bucket:
            rows.update(bucket)
    return rows.values()


def _holds_any(by_block: dict, lo: int, hi: int, shift: int) -> bool:
    """Whether any record is filed under a block the span ``[lo, hi)``
    touches (one C-level scan of the span's block numbers)."""
    return not by_block.keys().isdisjoint(
        range(lo >> shift, ((hi - 1) >> shift) + 1)
    )


@dataclass
class SpeculativeBuffer:
    """Store/load tracking for one SRV-region instance.

    ``tm_mode`` emulates the section III-E transactional-memory variant:
    without per-line versioning, a WAR conflict (a load denied forwarding
    because a *later* lane already wrote the bytes) must also re-execute
    the writing lane, not just suppress forwarding.

    Records are plain tuples keyed by SRV-id ``(instr, lane)``: a store
    is ``(addr, end, lane, instr, data)``, a load ``(addr, end, lane,
    instr, tick)``, where ``end`` is one past the last byte and ``tick``
    the machine-order stamp of the load.  Each record is also filed under
    every block number ``addr >> shift`` its bytes touch, in blocks of
    ``block_bytes`` (the machine's address-alignment region, a power of
    two): the forwarding, WAW and RAW walks visit only records in the
    blocks an access touches, since a record in any other block cannot
    overlap it.
    """

    memory: MemoryImage
    metrics: SrvMetrics
    tm_mode: bool = False
    block_bytes: int = 64
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
    _shift: int = field(init=False)
    _stores: dict = field(init=False, default_factory=dict)
    _loads: dict = field(init=False, default_factory=dict)
    _store_blocks: dict = field(init=False, default_factory=dict)
    _load_blocks: dict = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self._shift = self.block_bytes.bit_length() - 1

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
        shift = self._shift
        _file(self._loads, self._load_blocks, shift,
              (((instr, lane), (addr, end, lane, instr, self._tick)),))
        if addr < self._lmin:
            self._lmin = addr
        if end > self._lmax:
            self._lmax = end
        if addr >= self._smax or end <= self._smin:
            # no buffered store can overlap: plain memory read
            return self.memory.read_int(addr, size), False

        my_pos = (lane, instr)
        war_seen = False
        overlapping: list[tuple] | None = None
        for record in _within(self._store_blocks, addr >> shift, (end - 1) >> shift):
            if record[0] >= end or addr >= record[1]:
                continue
            if (record[2], record[3]) < my_pos:
                if overlapping is None:
                    overlapping = [record]
                else:
                    overlapping.append(record)
            else:
                # A sequentially *later* store already wrote these bytes:
                # WAR — forwarding suppressed, bytes must come from elsewhere.
                war_seen = True
                if self.tm_mode and record[2] > lane:
                    # TM without line versions: the writing (younger)
                    # lane's transaction aborts and re-executes.
                    self.needs_replay.add(record[2])
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
        for r_addr, r_end, r_lane, r_instr, data in overlapping:
            rec_pos = (r_lane, r_instr)
            for byte_addr in range(max(addr, r_addr), min(end, r_end)):
                idx = byte_addr - addr
                if best_pos[idx] is None or best_pos[idx] < rec_pos:
                    best_pos[idx] = rec_pos
                    result[idx] = data[byte_addr - r_addr]
                    forwarded = True
        return int.from_bytes(result, "little"), forwarded

    def load_lanes(
        self, addrs: list[int], size: int, lanes: list[int], instr: int
    ) -> tuple[list[int], bool]:
        """One vector load: :meth:`load` for each ``(addrs[i], lanes[i])``.

        ``lanes`` are the instruction's active lanes in ascending order.
        Returns the lane values and whether any byte was forwarded.  When
        no buffered store can overlap the span — it lies outside their
        bounds, or no block it touches holds a store record — no lane can
        forward or see a WAR, so each lane is recorded and read straight
        from memory; otherwise each lane runs :meth:`load` in lane order.
        """
        lo = min(addrs)
        hi = max(addrs) + size
        shift = self._shift
        if lo < self._smax and hi > self._smin and _holds_any(
            self._store_blocks, lo, hi, shift
        ):
            return self._load_each(addrs, size, lanes, instr)
        read_int = self.memory.read_int
        try:
            values = [read_int(a, size) for a in addrs]
        except MemoryAccessError:
            # re-run lane by lane: records the lanes before the bad one
            # and raises its exact error
            return self._load_each(addrs, size, lanes, instr)
        tick = self._tick
        rows = []
        for addr, lane in zip(addrs, lanes):
            tick += 1
            rows.append(((instr, lane), (addr, addr + size, lane, instr, tick)))
        _file(self._loads, self._load_blocks, shift, rows)
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
        end = addr + size
        shift = self._shift
        first, last = addr >> shift, (end - 1) >> shift

        # WAW: an overlapping buffered store in a *later* lane already
        # executed; ordered commit will keep the latest program-order data.
        if addr < self._smax and end > self._smin:
            for record in _within(self._store_blocks, first, last):
                if record[2] > lane and record[0] < end and addr < record[1]:
                    self.metrics.waw_events += 1
                    break

        # Horizontal RAW: any load in a sequentially later position that
        # already executed (machine time) read stale bytes — flag its lane.
        if addr < self._lmax and end > self._lmin:
            tick = self._tick
            for l_addr, l_end, l_lane, _, l_tick in _within(
                self._load_blocks, first, last
            ):
                if l_lane > lane and l_tick < tick and l_addr < end and addr < l_end:
                    self.needs_replay.add(l_lane)
                    self.metrics.raw_violations += 1

        data = (value & ((1 << (size * 8)) - 1)).to_bytes(size, "little")
        _file(self._stores, self._store_blocks, shift,
              (((instr, lane), (addr, end, lane, instr, data)),))
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

        When no buffered store and no recorded load can overlap the span
        (it lies outside their bounds, or no block it touches holds such
        a record), no lane can meet a WAW or a RAW (lanes of one store
        never conflict with each other: each is older than the next), so
        the lanes are simply buffered.
        """
        lo = min(addrs)
        hi = max(addrs) + size
        shift = self._shift
        if (
            lo < self._smax and hi > self._smin
            and _holds_any(self._store_blocks, lo, hi, shift)
        ) or (
            lo < self._lmax and hi > self._lmin
            and _holds_any(self._load_blocks, lo, hi, shift)
        ):
            for addr, value, lane in zip(addrs, values, lanes):
                self.store(addr, size, value, lane, instr)
            return
        mask = (1 << (size * 8)) - 1
        rows = [
            ((instr, lane),
             (addr, addr + size, lane, instr, (value & mask).to_bytes(size, "little")))
            for addr, value, lane in zip(addrs, values, lanes)
        ]
        _file(self._stores, self._store_blocks, shift, rows)
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
        for record in sorted(self._stores.values(), key=_SEQUENTIAL):
            self.memory.write_bytes(record[0], record[4])

    def _reset_bounds(self) -> None:
        self._smin = self._lmin = 1 << 62
        self._smax = self._lmax = -(1 << 62)

    def discard(self) -> None:
        self._stores.clear()
        self._loads.clear()
        self._store_blocks.clear()
        self._load_blocks.clear()
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
            if record[2] < oldest_lane
            or (record[2] == oldest_lane and record[3] <= offset)
        ]
        for record in sorted(keep_committed, key=_SEQUENTIAL):
            self.memory.write_bytes(record[0], record[4])
        self.discard()
