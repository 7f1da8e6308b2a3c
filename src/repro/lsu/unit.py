"""The SRV load-store unit: queues, issue logic, and counters.

Ties together the vertical (section IV-B) and horizontal (section IV-C)
disambiguation logic over LQ / SAQ / SDQ state.  The unit is the
microarchitectural counterpart of the functional
:class:`~repro.emu.speculative.SpeculativeBuffer`: integration tests
cross-validate that both flag the same SRV-needs-replay lanes.

Counter conventions follow the paper's McPAT methodology (section VI-C):

* outside an SRV-region a load issue performs one CAM lookup of the store
  buffer and one of the load buffer; a store issue performs one CAM lookup
  of the load buffer;
* inside an SRV-region, horizontal disambiguation *replaces* vertical for
  loads (lookup counts unchanged), while stores perform both — their CAM
  lookups are doubled plus one extra store-buffer lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop
from operator import attrgetter

from repro.common.blockindex import BlockIndex
from repro.common.config import MachineConfig
from repro.common.errors import LsuOverflowError
from repro.isa.instructions import SrvDirection
from repro.lsu.entries import LsuEntry
from repro.lsu.horizontal import (
    hob_and_forwardable,
    may_violate,
    overall_hob,
    replay_lanes_from_hob,
)
from repro.lsu.vertical import vob_for_pair
from repro.observe import events as _obs
from repro.verify import faults as _faults


@dataclass
class LsuCounters:
    """Event counts backing figures 11 and 12."""

    vertical_disambiguations: int = 0
    horizontal_disambiguations: int = 0
    cam_lookups_lq: int = 0
    cam_lookups_saq: int = 0
    loads_forwarded: int = 0
    loads_from_memory: int = 0
    multi_entry_forwards: int = 0
    war_suppressions: int = 0
    waw_resolutions: int = 0
    raw_flags: int = 0

    @property
    def total_disambiguations(self) -> int:
        return self.vertical_disambiguations + self.horizontal_disambiguations

    @property
    def total_cam_lookups(self) -> int:
        return self.cam_lookups_lq + self.cam_lookups_saq


@dataclass
class LoadIssueResult:
    forwarded_from: set[tuple[int, int]] = field(default_factory=set)
    any_memory_bytes: bool = True
    war_suppressed: bool = False
    sdq_entries_combined: int = 0


@dataclass
class StoreIssueResult:
    replay_lanes: set[int] = field(default_factory=set)
    waw: bool = False
    vertical_squash: bool = False


# Most issues find nothing to forward, suppress, replay or squash; they
# all return these shared results, whose sets are frozen.
#: a load that reads every byte from memory and suppresses nothing
_FROM_MEMORY = LoadIssueResult(frozenset())
#: a store that flags no replay lane, WAW or squash
_NO_CONFLICT = StoreIssueResult(frozenset())


class LoadStoreUnit:
    """LQ / SAQ / SDQ with SRV horizontal disambiguation."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.region_bytes = config.alignment_region_bytes
        self.capacity = config.lsu_entries
        # Address disambiguations (bit-vector generations) of one lookup:
        # one per CAM activation plus one per row whose address-alignment
        # base matches (each match produces a VOB/HOB pair, figure 2),
        # capped at the SDQ read-port count: the hardware generates at
        # most that many pairs per lookup (Table I provides 5 SDQ read
        # ports; further matches share the same activation).  A first
        # match always counts.
        self._pair_cap = max(config.ports.sdq_reads, 1)
        self.counters = LsuCounters()
        # rows keyed by (srv_id, lane), filed by address-alignment base:
        # the CAM's match key (figure 2)
        self.lq = BlockIndex(attrgetter("bases"))
        self.saq = BlockIndex(attrgetter("bases"))
        self.in_region = False
        self.direction = SrvDirection.UP
        self.needs_replay: set[int] = set()
        self._seq = 0

    # -- region control -------------------------------------------------------

    def begin_region(self, direction: SrvDirection = SrvDirection.UP) -> None:
        """Arm extended disambiguation (executed by ``srv_start``)."""
        self.in_region = True
        self.direction = direction
        self.needs_replay.clear()

    def end_region(self) -> set[int]:
        """Handle ``srv_end``: return replay lanes, or commit and clear.

        A non-empty result means the caller must re-execute those lanes;
        entries are kept (SRV-ids will update them in place).  An empty
        result commits: speculative flags clear and the region's entries
        drain.
        """
        lanes = set(self.needs_replay)
        self.needs_replay.clear()
        if not lanes:
            for entry in self.saq.values():
                entry.speculative = False
            self.lq.clear()
            self.saq.clear()
            self.in_region = False
        return lanes

    def abort_region(self) -> None:
        """Discard speculative state (interrupt/exception path, III-D2)."""
        self.lq.clear()
        self.saq.clear()
        self.needs_replay.clear()
        self.in_region = False

    def drain_entry(self, key: tuple[int, int]) -> None:
        """Retire the committed access ``key`` from whichever queue holds it."""
        if key in self.lq:
            self.lq.drop(key)
        if key in self.saq:
            self.saq.drop(key)

    def drain_committed(self, due: list, now: int) -> None:
        """Retire every access of ``due`` that drains by cycle ``now``.

        ``due`` is a min-heap of ``(drain cycle, key)``; the retired items
        are popped from it, and each key leaves its queue as
        :meth:`drain_entry` would.
        """
        lq = self.lq
        saq = self.saq
        while due and due[0][0] <= now:
            key = heappop(due)[1]
            if key in lq:
                lq.drop(key)
            if key in saq:
                saq.drop(key)

    # -- capacity ---------------------------------------------------------------

    def entries_used(self) -> int:
        return len(self.lq) + len(self.saq)

    def has_capacity_for(self, demand: int) -> bool:
        return demand <= self.capacity

    def _check_allocate(self, key: tuple[int, int], table: dict) -> None:
        if key in table:
            return  # replay updates the SRV-id's entry in place
        if self.entries_used() < self.capacity:
            return
        if not self.in_region:
            # Outside a region the oldest entries belong to committed
            # accesses and simply drain; evict the oldest by issue stamp.
            self._evict_oldest()
            return
        raise LsuOverflowError(
            f"LSU overflow: {self.entries_used()} entries in use, "
            f"capacity {self.capacity}"
        )

    def _evict_oldest(self) -> None:
        oldest_key = None
        oldest_seq = None
        oldest_table = None
        for table in (self.lq, self.saq):
            for key, entry in table.items():
                if entry.speculative:
                    continue
                if oldest_seq is None or entry.seq < oldest_seq:
                    oldest_key, oldest_seq, oldest_table = key, entry.seq, table
        if oldest_table is None:
            raise LsuOverflowError(
                "LSU full of speculative entries outside a region"
            )
        oldest_table.drop(oldest_key)

    # -- issue -------------------------------------------------------------------

    def issue_load(self, entry: LsuEntry) -> LoadIssueResult:
        """Issue a load (or one gather micro-op) against the SAQ."""
        if entry.is_store:
            raise ValueError("issue_load called with a store entry")
        key = (entry.srv_id, entry.lane)
        lq = self.lq
        if len(lq) + len(self.saq) >= self.capacity and key not in lq:
            self._check_allocate(key, lq)
        self._seq = seq = self._seq + 1
        entry.seq = seq
        lq.put(key, entry)
        if _faults.ACTIVE is not None and _faults.ACTIVE.drop_lsu_entry("lq"):
            lq.drop(key)

        counters = self.counters
        counters.cam_lookups_saq += 1
        counters.cam_lookups_lq += 1  # load-ordering check
        # the SAQ rows that share an address-alignment base with the load
        bases = entry.bases
        if len(bases) == 1:
            bucket = self.saq.by_block.get(bases[0])
            rows = bucket.values() if bucket else ()
        else:
            rows = self.saq.within(bases)
        matches = len(rows)
        cap = self._pair_cap
        work = 1 + (matches if matches < cap else cap)
        # Horizontal replaces vertical for loads inside SRV-regions
        # (section VI-B).
        in_region = self.in_region
        if in_region:
            counters.horizontal_disambiguations += work
        else:
            counters.vertical_disambiguations += work
        if not matches:
            counters.loads_from_memory += 1
            return _FROM_MEMORY

        forwarded: set[tuple[int, int]] = set()
        war_suppressed = False
        # Coverage as an int mask relative to entry.addr: forwardable
        # bytes always fall inside the load's own span, so bit i covers
        # byte entry.addr + i.
        covered = 0
        addr = entry.addr
        end = addr + entry.size
        region_bytes = self.region_bytes
        for prior in rows:
            # only rows with a byte in common can yield a non-empty VOB,
            # HOB or forwardable mask
            if prior.addr >= end or addr >= prior.addr + prior.size:
                continue
            if in_region:
                hob, ok = hob_and_forwardable(entry, prior, region_bytes)
                if hob:
                    war_suppressed = True
                    counters.war_suppressions += 1
            else:
                ok = vob_for_pair(entry, prior)
            if ok:
                forwarded.add((prior.srv_id, prior.lane))
                for base, bits in ok.items():
                    offset = base - addr
                    if offset >= 0:
                        covered |= bits << offset
                    else:
                        covered |= bits >> -offset
        need = (1 << entry.size) - 1
        any_memory_bytes = (covered & need) != need
        if forwarded:
            counters.loads_forwarded += 1
            if len(forwarded) > 1:
                counters.multi_entry_forwards += 1
        if any_memory_bytes:
            counters.loads_from_memory += 1
        if not forwarded and not war_suppressed:
            return _FROM_MEMORY
        result = LoadIssueResult(
            forwarded, any_memory_bytes, war_suppressed, len(forwarded)
        )
        obs = _obs.ACTIVE
        if obs is not None:
            # op/cycle context was set by the timing model's _execute_mem
            if war_suppressed:
                obs.emit_lsu(
                    _obs.EventKind.WAR_SUPPRESS, entry.lane,
                    (("srv_id", entry.srv_id),),
                )
            if forwarded:
                obs.emit_lsu(
                    _obs.EventKind.STL_FORWARD, entry.lane,
                    (
                        ("srv_id", entry.srv_id),
                        ("sources", len(forwarded)),
                        ("full", not any_memory_bytes),
                    ),
                )
        return result

    def issue_store(self, entry: LsuEntry) -> StoreIssueResult:
        """Issue a store (or one scatter micro-op) against LQ and SAQ."""
        if not entry.is_store:
            raise ValueError("issue_store called with a load entry")
        key = (entry.srv_id, entry.lane)
        saq = self.saq
        if len(self.lq) + len(saq) >= self.capacity and key not in saq:
            self._check_allocate(key, saq)
        self._seq = seq = self._seq + 1
        entry.seq = seq
        in_region = self.in_region
        entry.speculative = in_region

        counters = self.counters
        counters.cam_lookups_lq += 1
        # the LQ (and, in a region, SAQ) rows that share an
        # address-alignment base with the store
        bases = entry.bases
        single = len(bases) == 1
        if single:
            bucket = self.lq.by_block.get(bases[0])
            load_rows = bucket.values() if bucket else ()
        else:
            load_rows = self.lq.within(bases)
        matches = len(load_rows)
        cap = self._pair_cap
        lq_work = 1 + (matches if matches < cap else cap)
        counters.vertical_disambiguations += lq_work
        addr = entry.addr
        end = addr + entry.size
        region_bytes = self.region_bytes
        replay_lanes: set[int] | None = None
        waw = vertical_squash = False
        if in_region:
            if single:
                bucket = saq.by_block.get(bases[0])
                store_rows = bucket.values() if bucket else ()
            else:
                store_rows = saq.within(bases)
            # Doubled lookups plus the extra store-buffer CAM (section
            # VI-C): horizontal RAW search of the LQ plus WAW search of
            # the SAQ — "both horizontal and vertical disambiguations
            # occur when executing store instructions".
            counters.cam_lookups_lq += 1
            counters.cam_lookups_saq += 1
            matches = len(store_rows)
            counters.horizontal_disambiguations += lq_work + 1 + (
                matches if matches < cap else cap
            )

            # Horizontal RAW: prior loads in later lanes read stale bytes.
            # Only loads whose HOB is non-empty can add a replay lane, and
            # may_violate decides that on integers.
            prior_loads = [
                prior for prior in load_rows
                if prior.addr < end and addr < prior.addr + prior.size
                and prior.seq < seq and may_violate(entry, prior)
            ] if load_rows else ()
            if prior_loads:
                hob = overall_hob(entry, prior_loads, region_bytes)
                if hob:
                    lanes = replay_lanes_from_hob(
                        entry, hob, prior_loads, region_bytes
                    )
                    if lanes:
                        replay_lanes = lanes
                        self.needs_replay.update(lanes)
                        counters.raw_flags += len(lanes)

            # WAW: an older store in a later lane wrote the same bytes,
            # a non-empty HOB, which may_violate decides without building
            # the bit vectors.
            for prior in store_rows:
                if prior.addr >= end or addr >= prior.addr + prior.size:
                    continue
                if (prior.srv_id, prior.lane) == key:
                    continue
                if may_violate(entry, prior):
                    waw = True
                    counters.waw_resolutions += 1
                    break
        else:
            # Baseline vertical check: younger (program-order) loads that
            # already issued must squash.
            for prior in load_rows:
                if (
                    prior.addr < end and addr < prior.addr + prior.size
                    and prior.srv_id > entry.srv_id
                    and vob_for_pair(entry, prior)
                ):
                    vertical_squash = True
                    break

        saq.put(key, entry)
        if _faults.ACTIVE is not None and _faults.ACTIVE.drop_lsu_entry("saq"):
            saq.drop(key)
        if not (replay_lanes or waw or vertical_squash):
            return _NO_CONFLICT
        result = StoreIssueResult(replay_lanes or set(), waw, vertical_squash)
        obs = _obs.ACTIVE
        if obs is not None:
            if replay_lanes:
                obs.emit_lsu(
                    _obs.EventKind.H_VIOLATION, entry.lane,
                    (
                        ("srv_id", entry.srv_id),
                        ("lanes", tuple(sorted(replay_lanes))),
                    ),
                )
            if waw:
                obs.emit_lsu(
                    _obs.EventKind.WAW_RESOLVE, entry.lane,
                    (("srv_id", entry.srv_id),),
                )
            if vertical_squash:
                obs.emit_lsu(
                    _obs.EventKind.V_VIOLATION, entry.lane,
                    (("srv_id", entry.srv_id),),
                )
        return result

    # -- commit / drain ---------------------------------------------------------

    def committed_store_data(self) -> list[LsuEntry]:
        """Speculative stores in sequential writeback order.

        Sorting by (lane, srv_id) makes the program-order last writer win:
        the paper's selective memory update for WAW violations.
        """
        return sorted(self.saq.values(), key=lambda e: (e.lane, e.srv_id))
