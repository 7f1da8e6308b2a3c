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

Buffered accesses are filed by instruction offset, then by lane: the pair
``(instruction_offset, lane)`` is the paper's *SRV-id*, so replays update
entries in place instead of allocating new ones (section III-C).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter

from repro.common.errors import MemoryAccessError
from repro.emu.metrics import SrvMetrics
from repro.memory.image import MemoryImage

#: sequential position ``(lane, instr)`` of a forwarding candidate
_SEQUENTIAL = itemgetter(2, 3)


def _size_error(instr: int, size: int, recorded: int) -> ValueError:
    """An instruction accesses memory with one size."""
    return ValueError(
        f"instruction {instr} accessed {size} bytes, recorded {recorded}"
    )


@dataclass
class SpeculativeBuffer:
    """Store/load tracking for one SRV-region instance.

    ``tm_mode`` emulates the section III-E transactional-memory variant:
    without per-line versioning, a WAR conflict (a load denied forwarding
    because a *later* lane already wrote the bytes) must also re-execute
    the writing lane, not just suppress forwarding.

    There is one record per region instruction, ``[size, lo, hi, lanes]``:
    ``lanes`` maps each lane the instruction executed to its address
    (a load) or to ``(addr, data)`` (a store), so the SRV-id ``(instr,
    lane)`` names one entry and a replay overwrites it in place.  ``lo``
    and ``hi`` bound every byte the record's lanes have touched; like the
    buffer-wide bounds they only widen within a region instance (a
    replay that moves a lane leaves a stale, safe, span).  The
    forwarding, WAW and RAW walks visit only the records whose span
    overlaps an access, and then decide each lane on integers.
    """

    memory: MemoryImage
    metrics: SrvMetrics
    tm_mode: bool = False
    needs_replay: set[int] = field(default_factory=set)
    # Conservative address bounds over all buffered stores / recorded loads:
    # an access wholly outside them provably overlaps nothing, which is the
    # overwhelmingly common case and skips the record walks entirely.
    _smin: int = 1 << 62
    _smax: int = -(1 << 62)
    _lmin: int = 1 << 62
    _lmax: int = -(1 << 62)
    _stores: dict = field(init=False, default_factory=dict)
    _loads: dict = field(init=False, default_factory=dict)

    # -- helpers -------------------------------------------------------------

    def lsu_entries_used(self) -> int:
        return sum(len(record[3]) for record in self._stores.values()) + sum(
            len(record[3]) for record in self._loads.values()
        )

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

        The span is read from memory in one call, and the store lanes
        overlapping it are collected once: a load buffers no store, so
        every lane sees the same candidates, and each is decided with
        integer tests in lane order, as one :meth:`load` per lane would.
        A lane outside memory raises its own error after the lanes before
        it (and its own record) are filed.
        """
        lo = min(addrs)
        hi = max(addrs) + size
        record = self._loads.get(instr)
        if record is not None and record[0] != size:
            raise _size_error(instr, size, record[0])
        stores = None
        if lo < self._smax and hi > self._smin:
            stores = []
            for r_instr, (r_size, r_lo, r_hi, r_lanes) in self._stores.items():
                if r_lo < hi and lo < r_hi:
                    for r_lane, (r_addr, data) in r_lanes.items():
                        if r_addr < hi and lo < r_addr + r_size:
                            stores.append((r_addr, r_addr + r_size, r_lane,
                                           r_instr, data))
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
        if record is None:
            self._loads[instr] = [size, lo, hi, dict(zip(lanes, addrs))]
        else:
            if lo < record[1]:
                record[1] = lo
            if hi > record[2]:
                record[2] = hi
            record[3].update(zip(lanes, addrs))
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
                for candidate in stores:
                    r_addr, r_end, r_lane, r_instr, _ = candidate
                    if r_addr >= end or addr >= r_end:
                        continue
                    if r_lane < lane or (r_lane == lane and r_instr < instr):
                        if older is None:
                            older = [candidate]
                        else:
                            older.append(candidate)
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

        Only lanes above the first can conflict with any lane, and they
        are collected once from the records whose span overlaps.  That
        is exact: the lanes of one store never conflict with each other
        (each is older than the next), and the lanes this instruction
        files replace only its own SRV-ids, which no later lane of it
        counts.  The candidates are sorted by address, so each lane
        tests only those that start less than the widest candidate's
        size before its bytes and before their end: no other can
        overlap it.
        """
        lo = min(addrs)
        hi = max(addrs) + size
        record = self._stores.get(instr)
        if record is not None and record[0] != size:
            raise _size_error(instr, size, record[0])
        oldest = lanes[0]
        # (addr, end, lane) of the lanes above the first that overlap
        # the span, and the widest access size among them
        later_stores: list = []
        later_loads: list = []
        store_reach = load_reach = 0
        if lo < self._smax and hi > self._smin:
            for r_size, r_lo, r_hi, r_lanes in self._stores.values():
                if r_lo < hi and lo < r_hi:
                    if r_size > store_reach:
                        store_reach = r_size
                    for r_lane, (r_addr, _) in r_lanes.items():
                        if (r_lane > oldest and r_addr < hi
                                and lo < r_addr + r_size):
                            later_stores.append(
                                (r_addr, r_addr + r_size, r_lane))
        if lo < self._lmax and hi > self._lmin:
            for r_size, r_lo, r_hi, r_lanes in self._loads.values():
                if r_lo < hi and lo < r_hi:
                    if r_size > load_reach:
                        load_reach = r_size
                    for r_lane, r_addr in r_lanes.items():
                        if (r_lane > oldest and r_addr < hi
                                and lo < r_addr + r_size):
                            later_loads.append(
                                (r_addr, r_addr + r_size, r_lane))
        if later_stores or later_loads:
            later_stores.sort()
            later_loads.sort()
            metrics = self.metrics
            needs_replay = self.needs_replay
            for addr, lane in zip(addrs, lanes):
                end = addr + size
                # (a,) sorts before every entry starting at a
                if later_stores:
                    for _, r_end, r_lane in later_stores[
                        bisect_left(later_stores, (addr - store_reach + 1,)):
                        bisect_left(later_stores, (end,))
                    ]:
                        if r_lane > lane and addr < r_end:
                            metrics.waw_events += 1
                            break
                if later_loads:
                    for _, l_end, l_lane in later_loads[
                        bisect_left(later_loads, (addr - load_reach + 1,)):
                        bisect_left(later_loads, (end,))
                    ]:
                        if l_lane > lane and addr < l_end:
                            needs_replay.add(l_lane)
                            metrics.raw_violations += 1
        mask = (1 << (size * 8)) - 1
        entries = {
            lane: (addr, (value & mask).to_bytes(size, "little"))
            for addr, value, lane in zip(addrs, values, lanes)
        }
        if record is None:
            self._stores[instr] = [size, lo, hi, entries]
        else:
            if lo < record[1]:
                record[1] = lo
            if hi > record[2]:
                record[2] = hi
            record[3].update(entries)
        if lo < self._smin:
            self._smin = lo
        if hi > self._smax:
            self._smax = hi

    # -- commit -----------------------------------------------------------------

    def _writeback(self, keep=None) -> None:
        """Write the buffered stores (those ``keep(lane, instr)`` accepts)
        to memory in sequential order.

        Sorting by ``(lane, instruction_offset)`` makes the program-order
        last writer win — the paper's selective memory update for WAW.
        """
        rows = [
            (lane, instr, addr, data)
            for instr, record in self._stores.items()
            for lane, (addr, data) in record[3].items()
            if keep is None or keep(lane, instr)
        ]
        rows.sort()
        self.memory.write_many([row[2:] for row in rows])

    def commit(self) -> None:
        """Write buffered stores to memory in sequential order."""
        self._writeback()

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
        self._writeback(
            lambda lane, instr: lane < oldest_lane
            or (lane == oldest_lane and instr <= offset)
        )
        self.discard()
