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
#: the lane of a record
_LANE = itemgetter(2)


def _file(records: dict, by_block: dict, shift: int, rows) -> None:
    """Put each ``(key, record)`` of ``rows`` in ``records`` and file the
    record under each ``1 << shift``-byte block its bytes ``[record[0],
    record[1])`` touch.

    A replay re-executes an access under the same key; a record that
    moved to other blocks first leaves its old ones.
    """
    for key, record in rows:
        first = record[0] >> shift
        last = (record[1] - 1) >> shift
        old = records.get(key)
        records[key] = record
        if old is not None:
            old_first = old[0] >> shift
            old_last = (old[1] - 1) >> shift
            if old_first != first or old_last != last:
                for block in range(old_first, old_last + 1):
                    bucket = by_block[block]
                    del bucket[key]
                    if not bucket:
                        del by_block[block]
        if first == last:
            bucket = by_block.get(first)
            if bucket is None:
                by_block[first] = {key: record}
            else:
                bucket[key] = record
            continue
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
        """Read ``size`` bytes at ``addr`` for region access ``(instr, lane)``:
        :meth:`load_lanes` for one lane.  Returns ``(value,
        any_byte_forwarded)``."""
        values, forwarded = self.load_lanes([addr], size, [lane], instr)
        return values[0], forwarded

    def load_lanes(
        self, addrs: list[int], size: int, lanes: list[int], instr: int
    ) -> tuple[list[int], bool]:
        """One vector load: read ``size`` bytes at each ``addrs[i]`` for
        region access ``(instr, lanes[i])``.

        ``lanes`` are the instruction's active lanes in ascending order.
        Each lane's bytes come from the sequentially-latest older buffered
        store that wrote them, falling back to memory — the paper's
        partial store-to-load forwarding combined with WAR suppression.
        Returns the lane values and whether any byte was forwarded.

        The span is read from memory in one call, and the store records
        overlapping it are collected once: a load files no store record,
        so every lane sees the same candidates, and each is decided with
        integer tests in lane order, ticking as one :meth:`load` per lane
        would.  A lane outside memory raises its own error after the
        lanes before it (and its own record) are filed.
        """
        lo = min(addrs)
        hi = max(addrs) + size
        shift = self._shift
        stores = None
        if lo < self._smax and hi > self._smin:
            stores = [
                record
                for record in _within(self._store_blocks, lo >> shift,
                                      (hi - 1) >> shift)
                if record[0] < hi and lo < record[1]
            ]
        error = None
        try:
            values = self.memory.read_span(addrs, size)
        except MemoryAccessError as exc:
            if len(addrs) > 1:
                # lane by lane: files the lanes up to the bad one and
                # raises its error
                for addr, lane in zip(addrs, lanes):
                    self.load_lanes([addr], size, [lane], instr)
            error = exc
            values = None
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
        forwarded = False
        if stores:
            metrics = self.metrics
            tm_mode = self.tm_mode
            for i, (addr, lane) in enumerate(zip(addrs, lanes)):
                end = addr + size
                war_seen = False
                older = None
                for record in stores:
                    r_addr, r_end, r_lane, r_instr, _ = record
                    if r_addr >= end or addr >= r_end:
                        continue
                    if r_lane < lane or (r_lane == lane and r_instr < instr):
                        if older is None:
                            older = [record]
                        else:
                            older.append(record)
                    else:
                        # A sequentially *later* store already wrote these
                        # bytes: WAR — forwarding suppressed, bytes must
                        # come from elsewhere.
                        war_seen = True
                        if tm_mode and r_lane > lane:
                            # TM without line versions: the writing
                            # (younger) lane's transaction aborts and
                            # re-executes.
                            self.needs_replay.add(r_lane)
                            metrics.tm_war_replays += 1
                if war_seen:
                    metrics.war_events += 1
                if older is not None and values is not None:
                    # each byte from the latest older store that wrote it:
                    # lay the stores over memory in sequential order
                    result = bytearray(values[i].to_bytes(size, "little"))
                    for r_addr, r_end, _, _, data in sorted(
                        older, key=_SEQUENTIAL
                    ):
                        first = r_addr if r_addr > addr else addr
                        stop = r_end if r_end < end else end
                        result[first - addr:stop - addr] = (
                            data[first - r_addr:stop - r_addr]
                        )
                    values[i] = int.from_bytes(result, "little")
                    forwarded = True
        if error is not None:
            raise error
        return values, forwarded

    # -- store ----------------------------------------------------------------

    def store(self, addr: int, size: int, value: int, lane: int, instr: int) -> None:
        """Buffer ``value`` for region access ``(instr, lane)``:
        :meth:`store_lanes` for one lane."""
        self.store_lanes([addr], size, [value], [lane], instr)

    def store_lanes(
        self,
        addrs: list[int],
        size: int,
        values: list[int],
        lanes: list[int],
        instr: int,
    ) -> None:
        """One vector store: buffer ``values[i]`` at ``addrs[i]`` for
        region access ``(instr, lanes[i])``, in lane order.

        * **WAW** — an overlapping buffered store in a *later* lane
          already executed; ordered commit will keep the latest
          program-order data.  Counted once per lane.
        * **Horizontal RAW** — a load in a sequentially later position
          that already executed read stale bytes: flag its lane.  Every
          recorded load executed before this store, so any such load in
          a later lane that overlaps the lane violates.

        Only records in a lane above the first can conflict with any
        lane, and they are collected once from the span's blocks.  That
        is exact: the lanes of one store never conflict with each other
        (each is older than the next), and the records this instruction
        files replace only its own SRV-ids, which no later lane of it
        counts.
        """
        lo = min(addrs)
        hi = max(addrs) + size
        shift = self._shift
        first, last = lo >> shift, (hi - 1) >> shift
        oldest = lanes[0]
        later_stores: list = []
        later_loads: list = []
        if lo < self._smax and hi > self._smin:
            later_stores = [
                record for record in _within(self._store_blocks, first, last)
                if record[2] > oldest and record[0] < hi and lo < record[1]
            ]
        if lo < self._lmax and hi > self._lmin:
            later_loads = [
                record for record in _within(self._load_blocks, first, last)
                if record[2] > oldest and record[0] < hi and lo < record[1]
            ]
        if later_stores or later_loads:
            # latest lane first: a lane stops at the first record in a
            # lane not above its own
            later_stores.sort(key=_LANE, reverse=True)
            later_loads.sort(key=_LANE, reverse=True)
            metrics = self.metrics
            needs_replay = self.needs_replay
            for addr, lane in zip(addrs, lanes):
                end = addr + size
                for r_addr, r_end, r_lane, _, _ in later_stores:
                    if r_lane <= lane:
                        break
                    if r_addr < end and addr < r_end:
                        metrics.waw_events += 1
                        break
                for l_addr, l_end, l_lane, _, _ in later_loads:
                    if l_lane <= lane:
                        break
                    if l_addr < end and addr < l_end:
                        needs_replay.add(l_lane)
                        metrics.raw_violations += 1
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
