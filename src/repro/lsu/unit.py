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
from operator import attrgetter

from repro.common.blockindex import BlockIndex
from repro.common.config import MachineConfig
from repro.common.errors import LsuOverflowError
from repro.isa.instructions import SrvDirection
from repro.lsu.entries import LsuEntry
from repro.lsu.horizontal import (
    hob_and_forwardable,
    hob_for_pair,
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


class LoadStoreUnit:
    """LQ / SAQ / SDQ with SRV horizontal disambiguation."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.region_bytes = config.alignment_region_bytes
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

    # -- capacity ---------------------------------------------------------------

    def entries_used(self) -> int:
        return len(self.lq) + len(self.saq)

    def has_capacity_for(self, demand: int) -> bool:
        return demand <= self.config.lsu_entries

    def _check_allocate(self, key: tuple[int, int], table: dict) -> None:
        if key in table:
            return  # replay updates the SRV-id's entry in place
        if self.entries_used() + 1 <= self.config.lsu_entries:
            return
        if not self.in_region:
            # Outside a region the oldest entries belong to committed
            # accesses and simply drain; evict the oldest by issue stamp.
            self._evict_oldest()
            return
        raise LsuOverflowError(
            f"LSU overflow: {self.entries_used()} entries in use, "
            f"capacity {self.config.lsu_entries}"
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

    def _stamp(self, entry: LsuEntry) -> None:
        self._seq += 1
        entry.seq = self._seq

    def _match_work(self, rows: list[LsuEntry]) -> int:
        """Address disambiguations (bit-vector generations) of one lookup.

        One per CAM activation plus one per row whose address-alignment
        base matches (each match produces a VOB/HOB pair, figure 2),
        capped at the SDQ read-port count: the hardware generates at most
        that many pairs per lookup (Table I provides 5 SDQ read ports;
        further matches share the same activation).  A first match always
        counts.
        """
        return 1 + min(len(rows), max(self.config.ports.sdq_reads, 1))

    def issue_load(self, entry: LsuEntry) -> LoadIssueResult:
        """Issue a load (or one gather micro-op) against the SAQ."""
        if entry.is_store:
            raise ValueError("issue_load called with a store entry")
        key = (entry.srv_id, entry.lane)
        self._check_allocate(key, self.lq)
        self._stamp(entry)
        self.lq.put(key, entry)
        if _faults.ACTIVE is not None and _faults.ACTIVE.drop_lsu_entry("lq"):
            self.lq.drop(key)

        self.counters.cam_lookups_saq += 1
        self.counters.cam_lookups_lq += 1  # load-ordering check
        # Horizontal replaces vertical for loads inside SRV-regions
        # (section VI-B).
        rows = self.saq.within(entry.bases)
        work = self._match_work(rows)
        if self.in_region:
            self.counters.horizontal_disambiguations += work
        else:
            self.counters.vertical_disambiguations += work
        # of the matching rows, only those with a byte in common can yield
        # a non-empty VOB, HOB or forwardable mask
        priors = [prior for prior in rows if entry.overlaps(prior)]

        result = LoadIssueResult()
        # Coverage as an int mask relative to entry.addr: forwardable
        # bytes always fall inside the load's own span, so bit i covers
        # byte entry.addr + i.
        covered = 0
        addr = entry.addr
        for prior in priors:
            if self.in_region:
                hob, ok = hob_and_forwardable(entry, prior, self.region_bytes)
                if hob:
                    result.war_suppressed = True
                    self.counters.war_suppressions += 1
            else:
                ok = vob_for_pair(entry, prior)
            if ok:
                result.forwarded_from.add((prior.srv_id, prior.lane))
                for base, bv in ok.items():
                    offset = base - addr
                    if offset >= 0:
                        covered |= bv.bits << offset
                    else:
                        covered |= bv.bits >> -offset
        need = (1 << entry.size) - 1
        result.any_memory_bytes = (covered & need) != need
        result.sdq_entries_combined = len(result.forwarded_from)
        if result.forwarded_from:
            self.counters.loads_forwarded += 1
            if result.sdq_entries_combined > 1:
                self.counters.multi_entry_forwards += 1
        if result.any_memory_bytes:
            self.counters.loads_from_memory += 1
        obs = _obs.ACTIVE
        if obs is not None:
            # op/cycle context was set by the timing model's _execute_mem
            if result.war_suppressed:
                obs.emit_lsu(
                    _obs.EventKind.WAR_SUPPRESS, entry.lane,
                    (("srv_id", entry.srv_id),),
                )
            if result.forwarded_from:
                obs.emit_lsu(
                    _obs.EventKind.STL_FORWARD, entry.lane,
                    (
                        ("srv_id", entry.srv_id),
                        ("sources", result.sdq_entries_combined),
                        ("full", not result.any_memory_bytes),
                    ),
                )
        return result

    def issue_store(self, entry: LsuEntry) -> StoreIssueResult:
        """Issue a store (or one scatter micro-op) against LQ and SAQ."""
        if not entry.is_store:
            raise ValueError("issue_store called with a load entry")
        key = (entry.srv_id, entry.lane)
        self._check_allocate(key, self.saq)
        self._stamp(entry)
        entry.speculative = self.in_region

        result = StoreIssueResult()
        load_rows = self.lq.within(entry.bases)
        self.counters.cam_lookups_lq += 1
        lq_work = self._match_work(load_rows)
        self.counters.vertical_disambiguations += lq_work
        # only matching rows with a byte in common can yield a bit vector
        loads = [prior for prior in load_rows if entry.overlaps(prior)]
        if self.in_region:
            store_rows = self.saq.within(entry.bases)
            # Doubled lookups plus the extra store-buffer CAM (section
            # VI-C): horizontal RAW search of the LQ plus WAW search of
            # the SAQ — "both horizontal and vertical disambiguations
            # occur when executing store instructions".
            self.counters.cam_lookups_lq += 1
            self.counters.cam_lookups_saq += 1
            self.counters.horizontal_disambiguations += lq_work + (
                self._match_work(store_rows)
            )

            # Horizontal RAW: prior loads in later lanes read stale bytes.
            # Only loads that may violate can add a HOB byte or a replay
            # lane, and for a single-lane store that is an integer test.
            prior_loads = [
                e for e in loads if e.seq < entry.seq and may_violate(entry, e)
            ]
            hob = overall_hob(entry, prior_loads, self.region_bytes)
            if hob:
                lanes = replay_lanes_from_hob(
                    entry, hob, prior_loads, self.region_bytes
                )
                if lanes:
                    result.replay_lanes = lanes
                    self.needs_replay.update(lanes)
                    self.counters.raw_flags += len(lanes)

            # WAW: an older store in a later lane wrote the same bytes.
            stores = [prior for prior in store_rows if entry.overlaps(prior)]
            for prior in stores:
                if (prior.srv_id, prior.lane) == key:
                    continue
                if hob_for_pair(entry, prior, self.region_bytes):
                    result.waw = True
                    self.counters.waw_resolutions += 1
                    break
        else:
            # Baseline vertical check: younger (program-order) loads that
            # already issued must squash.
            for prior in loads:
                if prior.srv_id > entry.srv_id and vob_for_pair(entry, prior):
                    result.vertical_squash = True
                    break

        self.saq.put(key, entry)
        if _faults.ACTIVE is not None and _faults.ACTIVE.drop_lsu_entry("saq"):
            self.saq.drop(key)
        obs = _obs.ACTIVE
        if obs is not None:
            if result.replay_lanes:
                obs.emit_lsu(
                    _obs.EventKind.H_VIOLATION, entry.lane,
                    (
                        ("srv_id", entry.srv_id),
                        ("lanes", tuple(sorted(result.replay_lanes))),
                    ),
                )
            if result.waw:
                obs.emit_lsu(
                    _obs.EventKind.WAW_RESOLVE, entry.lane,
                    (("srv_id", entry.srv_id),),
                )
            if result.vertical_squash:
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
