"""Tests for the LSU disambiguation microarchitecture (paper section IV).

Includes byte-exact checks of the paper's three worked examples:
figure 3 (vertical), figure 4 (horizontal WAR), and figure 5 / section
IV-D (horizontal RAW producing replay lanes 3, 7, 11, 15).
"""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import TABLE_I
from repro.common.errors import LsuOverflowError
from repro.isa.instructions import SrvDirection
from repro.lsu import (
    AccessType,
    LoadIssueResult,
    LoadStoreUnit,
    LsuEntry,
    StoreIssueResult,
    align_base,
    align_offset,
    chunks_for_access,
    forwardable_mask,
    hob_and_forwardable,
    hob_for_pair,
    horizontal_violation_vector,
    may_violate,
    overall_hob,
    replay_lanes_from_hob,
    vob_for_pair,
)

REGION = 64


def _bits(mask):
    """The set bit indices of an ``int`` mask, lowest first."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def make_entry(
    *,
    srv_id=0,
    is_store=False,
    access=AccessType.CONTIGUOUS,
    addr=0,
    size=16,
    elem=1,
    lane=0,
    lanes_covered=16,
    direction=SrvDirection.UP,
    data=None,
):
    return LsuEntry.make(
        srv_id=srv_id,
        is_store=is_store,
        access=access,
        addr=addr,
        size=size,
        elem=elem,
        lane=lane,
        lanes_covered=lanes_covered,
        region_bytes=REGION,
        direction=direction,
        data=data,
    )


class TestAlignment:
    def test_base_and_offset(self):
        assert align_base(0xAB10, 64) == 0xAB00
        assert align_offset(0xAB10, 64) == 0x10
        assert align_base(0xFF3F, 64) == 0xFF00

    def test_single_region_chunk(self):
        chunks = chunks_for_access(0xAB10, 16, 64)
        assert len(chunks) == 1
        assert chunks[0].base == 0xAB00
        assert _bits(chunks[0].bytes_accessed) == list(range(16, 32))
        assert chunks[0].offset == 16

    def test_straddling_chunk(self):
        # Paper IV-A: "The address space 0x0C-0x4C spans two consecutive
        # alignment regions."
        chunks = chunks_for_access(0x0C, 0x40, 64)
        assert len(chunks) == 2
        assert chunks[0].base == 0x00 and chunks[1].base == 0x40
        assert chunks[0].bytes_accessed.bit_count() == 64 - 0x0C
        assert chunks[1].bytes_accessed.bit_count() == 0x0C

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            chunks_for_access(0, 0, 64)


class TestLaneGeometry:
    def test_contiguous_up(self):
        e = make_entry(addr=0x100, size=64, elem=4)
        assert e.lane_of_byte(0x100) == 0
        assert e.lane_of_byte(0x100 + 13) == 3
        assert e.lane_of_byte(0x100 + 63) == 15

    def test_contiguous_down_mirrors(self):
        e = make_entry(addr=0x100, size=64, elem=4, direction=SrvDirection.DOWN)
        assert e.lane_of_byte(0x100) == 15
        assert e.lane_of_byte(0x100 + 63) == 0

    def test_gather_lane_fixed(self):
        e = make_entry(
            access=AccessType.GATHER_SCATTER, addr=0x200, size=4, elem=4,
            lane=7, lanes_covered=1,
        )
        assert e.lane_of_byte(0x200) == 7
        assert e.lane_of_byte(0x203) == 7

    def test_broadcast_span(self):
        e = make_entry(access=AccessType.BROADCAST, addr=0x300, size=4, elem=4)
        assert e.lane_span_of_byte(0x300) == (0, 15)

    def test_out_of_range_byte(self):
        e = make_entry(addr=0x100, size=16)
        with pytest.raises(ValueError):
            e.lane_of_byte(0x110)


class TestFigure3Vertical:
    """Store A then load B at the same 16 bytes: full forwarding."""

    def setup_method(self):
        self.store_a = make_entry(
            srv_id=0, is_store=True, addr=0xAB10, size=16, elem=1
        )
        self.load_b = make_entry(srv_id=1, addr=0xAB10, size=16, elem=1)

    def test_vob_bits_16_to_31(self):
        vob = vob_for_pair(self.load_b, self.store_a)
        assert set(vob) == {0xAB00}
        assert _bits(vob[0xAB00]) == list(range(16, 32))

    def test_fully_forwardable_no_violation(self):
        # Same offsets -> no horizontal violation; all bytes forwardable.
        ok = forwardable_mask(self.load_b, self.store_a, REGION)
        assert _bits(ok[0xAB00]) == list(range(16, 32))
        assert not hob_for_pair(self.load_b, self.store_a, REGION)


class TestFigure4HorizontalWAR:
    """Load C (offset 24) against store A (offset 16): bytes 24-31 violate."""

    def setup_method(self):
        self.store_a = make_entry(
            srv_id=0, is_store=True, addr=0xAB10, size=16, elem=1
        )
        self.load_c = make_entry(srv_id=2, addr=0xAB18, size=16, elem=1)

    def test_vob_bits_24_to_31(self):
        vob = vob_for_pair(self.load_c, self.store_a)
        assert _bits(vob[0xAB00]) == list(range(24, 32))

    def test_hob_marks_violating_bytes(self):
        hob = hob_for_pair(self.load_c, self.store_a, REGION)
        assert _bits(hob[0xAB00]) == list(range(24, 32))

    def test_no_bytes_forwardable(self):
        # "the vector store cannot forward these bytes to the vector load,
        # and instead the load has to obtain all bytes from the cache."
        assert not forwardable_mask(self.load_c, self.store_a, REGION)

    def test_reverse_offsets_fully_forwardable(self):
        """C1: if the load's alignment offset <= the store's, forwardable."""
        load_early = make_entry(srv_id=3, addr=0xAB08, size=16, elem=1)
        ok = forwardable_mask(load_early, self.store_a, REGION)
        assert _bits(ok[0xAB00]) == list(range(16, 24))
        assert not hob_for_pair(load_early, self.store_a, REGION)


class TestFigure5SectionIVD:
    """The worked RAW example: scatter against a prior contiguous load.

    Array ``a`` at 0xFF00, 4-byte elements, v_load covers the whole
    64-byte region; the scatter writes a[3], a[0], a[1], a[2], a[7], ...
    Lanes 3, 7, 11, 15 must be flagged for replay.
    """

    def setup_method(self):
        self.load = make_entry(srv_id=0, addr=0xFF00, size=64, elem=4)
        self.x_pattern = []
        for base in range(0, 16, 4):
            self.x_pattern += [base + 3, base + 0, base + 1, base + 2]

    def scatter_op(self, lane, target_index):
        return make_entry(
            srv_id=1,
            is_store=True,
            access=AccessType.GATHER_SCATTER,
            addr=0xFF00 + 4 * target_index,
            size=4,
            elem=4,
            lane=lane,
            lanes_covered=1,
        )

    def test_step1_store_to_a3(self):
        store = self.scatter_op(0, 3)
        vob = vob_for_pair(store, self.load)
        assert _bits(vob[0xFF00]) == [12, 13, 14, 15]
        violation = horizontal_violation_vector(store, self.load, 0xFF00, REGION)
        # "All but the first 4 bits of the horizontal-violation bit vector
        # are set to 1."
        assert _bits(violation) == list(range(4, 64))
        hob = hob_for_pair(store, self.load, REGION)
        assert _bits(hob[0xFF00]) == [12, 13, 14, 15]

    def test_step2_store_to_a0_no_violation(self):
        store = self.scatter_op(1, 0)
        violation = horizontal_violation_vector(store, self.load, 0xFF00, REGION)
        # "all bits from the 8th inwards are set"
        assert _bits(violation) == list(range(8, 64))
        assert not hob_for_pair(store, self.load, REGION)

    def test_step5_store_to_a7(self):
        store = self.scatter_op(4, 7)
        hob = hob_for_pair(store, self.load, REGION)
        assert _bits(hob[0xFF00]) == [28, 29, 30, 31]

    def test_full_scatter_flags_lanes_3_7_11_15(self):
        flagged = set()
        for lane, target in enumerate(self.x_pattern):
            store = self.scatter_op(lane, target)
            hob = overall_hob(store, [self.load], REGION)
            flagged |= replay_lanes_from_hob(store, hob, [self.load], REGION)
        assert flagged == {3, 7, 11, 15}

    def test_overall_hob_bytes(self):
        """ORing all micro-op HOBs gives bits 12-15, 28-31, 44-47, 60-63."""
        bits = set()
        for lane, target in enumerate(self.x_pattern):
            store = self.scatter_op(lane, target)
            for mask in overall_hob(store, [self.load], REGION).values():
                bits.update(_bits(mask))
        expect = set()
        for start in (12, 28, 44, 60):
            expect.update(range(start, start + 4))
        assert bits == expect


class TestGatherScatterPairs:
    """Section IV-C2: lane-field comparisons for gather x scatter."""

    def micro(self, lane, addr, is_store):
        return make_entry(
            srv_id=int(is_store),
            is_store=is_store,
            access=AccessType.GATHER_SCATTER,
            addr=addr,
            size=4,
            elem=4,
            lane=lane,
            lanes_covered=1,
        )

    def test_load_lane_geq_store_lane_forwardable(self):
        store = self.micro(3, 0x100, True)
        load = self.micro(5, 0x100, False)
        assert forwardable_mask(load, store, REGION)
        assert not hob_for_pair(load, store, REGION)

    def test_load_lane_equal_forwardable(self):
        store = self.micro(5, 0x100, True)
        load = self.micro(5, 0x100, False)
        assert forwardable_mask(load, store, REGION)

    def test_load_lane_below_store_war(self):
        store = self.micro(9, 0x100, True)
        load = self.micro(2, 0x100, False)
        assert not forwardable_mask(load, store, REGION)
        assert hob_for_pair(load, store, REGION)

    def test_disjoint_addresses_no_interaction(self):
        store = self.micro(9, 0x100, True)
        load = self.micro(2, 0x140, False)  # different alignment region
        assert not forwardable_mask(load, store, REGION)
        assert not hob_for_pair(load, store, REGION)


class TestContiguousScatterMix:
    """Section IV-C3: contiguous load x prior scatter and gather x prior
    contiguous store."""

    def test_contiguous_load_prior_scatter(self):
        # scatter micro-op lane 9 wrote addr 0x10C; a contiguous load from
        # 0x100 reads it with lane 3 (elem 4) -> 9 > 3 violates.
        store = make_entry(
            srv_id=0, is_store=True, access=AccessType.GATHER_SCATTER,
            addr=0x10C, size=4, elem=4, lane=9, lanes_covered=1,
        )
        load = make_entry(srv_id=1, addr=0x100, size=64, elem=4)
        hob = hob_for_pair(load, store, REGION)
        assert _bits(hob[0x100]) == [12, 13, 14, 15]

    def test_contiguous_load_prior_scatter_older_lane_ok(self):
        store = make_entry(
            srv_id=0, is_store=True, access=AccessType.GATHER_SCATTER,
            addr=0x10C, size=4, elem=4, lane=2, lanes_covered=1,
        )
        load = make_entry(srv_id=1, addr=0x100, size=64, elem=4)
        assert not hob_for_pair(load, store, REGION)
        assert forwardable_mask(load, store, REGION)

    def test_gather_prior_contiguous_store(self):
        # contiguous store covers lanes 0-15 at 0x100; gather micro-op lane
        # 2 reads 0x120 (store lane 8) -> 8 > 2 violates.
        store = make_entry(srv_id=0, is_store=True, addr=0x100, size=64, elem=4)
        load = make_entry(
            srv_id=1, access=AccessType.GATHER_SCATTER,
            addr=0x120, size=4, elem=4, lane=2, lanes_covered=1,
        )
        assert hob_for_pair(load, store, REGION)
        load_ok = make_entry(
            srv_id=2, access=AccessType.GATHER_SCATTER,
            addr=0x104, size=4, elem=4, lane=5, lanes_covered=1,
        )
        assert not hob_for_pair(load_ok, store, REGION)
        assert forwardable_mask(load_ok, store, REGION)


class TestBroadcastPairs:
    """Section IV-C4: broadcast treated as an access by every lane."""

    def test_broadcast_load_prior_contiguous_store(self):
        store = make_entry(srv_id=0, is_store=True, addr=0x100, size=64, elem=4)
        bcast = make_entry(
            srv_id=1, access=AccessType.BROADCAST, addr=0x120, size=4, elem=4,
            lane=0, lanes_covered=16,
        )
        # byte 0x120 is store lane 8; broadcast lanes 0-7 violate (younger
        # than the writing lane) -> WAR for the broadcast as a whole.
        assert hob_for_pair(bcast, store, REGION)

    def test_broadcast_load_of_oldest_lane_data_ok(self):
        store = make_entry(srv_id=0, is_store=True, addr=0x100, size=64, elem=4)
        bcast = make_entry(
            srv_id=1, access=AccessType.BROADCAST, addr=0x100, size=4, elem=4,
            lane=0, lanes_covered=16,
        )
        # store lane for 0x100 is 0; no broadcast lane is younger than 0.
        assert not hob_for_pair(bcast, store, REGION)

    def test_store_vs_prior_broadcast_load_flags_later_lanes(self):
        bcast = make_entry(
            srv_id=0, access=AccessType.BROADCAST, addr=0x100, size=4, elem=4,
            lane=0, lanes_covered=16,
        )
        store = make_entry(
            srv_id=1, is_store=True, access=AccessType.GATHER_SCATTER,
            addr=0x100, size=4, elem=4, lane=5, lanes_covered=1,
        )
        hob = overall_hob(store, [bcast], REGION)
        lanes = replay_lanes_from_hob(store, hob, [bcast], REGION)
        # lanes 6-15 of the broadcast read the byte before lane 5 wrote it.
        assert lanes == set(range(6, 16))


class TestDownDirection:
    def test_down_reverses_violation(self):
        """With a DOWN region, higher addresses belong to older lanes, so
        the figure-4 pattern no longer violates."""
        store = make_entry(
            srv_id=0, is_store=True, addr=0xAB10, size=16, elem=1,
            direction=SrvDirection.DOWN,
        )
        load = make_entry(
            srv_id=1, addr=0xAB18, size=16, elem=1, direction=SrvDirection.DOWN
        )
        # Overlap bytes 24-31: store lane = 15-(byte-16), load lane =
        # 15-(byte-24); store lane < load lane everywhere -> no violation.
        assert not hob_for_pair(load, store, REGION)
        assert forwardable_mask(load, store, REGION)

    def test_down_violates_mirrored_pattern(self):
        store = make_entry(
            srv_id=0, is_store=True, addr=0xAB18, size=16, elem=1,
            direction=SrvDirection.DOWN,
        )
        load = make_entry(
            srv_id=1, addr=0xAB10, size=16, elem=1, direction=SrvDirection.DOWN
        )
        assert hob_for_pair(load, store, REGION)


class TestLoadStoreUnit:
    def unit(self, **overrides):
        cfg = TABLE_I.with_overrides(**overrides) if overrides else TABLE_I
        return LoadStoreUnit(cfg)

    def test_baseline_load_counts_vertical(self):
        lsu = self.unit()
        load = make_entry(srv_id=0, addr=0x100, size=64, elem=4)
        result = lsu.issue_load(load)
        assert result.any_memory_bytes
        assert lsu.counters.vertical_disambiguations == 1
        assert lsu.counters.horizontal_disambiguations == 0
        assert lsu.counters.cam_lookups_saq == 1
        assert lsu.counters.cam_lookups_lq == 1

    def test_baseline_forwarding(self):
        lsu = self.unit()
        store = make_entry(
            srv_id=0, is_store=True, addr=0x100, size=64, elem=4,
            data=bytes(64),
        )
        lsu.issue_store(store)
        result = lsu.issue_load(make_entry(srv_id=1, addr=0x100, size=64, elem=4))
        assert (0, 0) in result.forwarded_from
        assert not result.any_memory_bytes

    def test_region_load_counts_horizontal_not_vertical(self):
        lsu = self.unit()
        lsu.begin_region()
        lsu.issue_load(make_entry(srv_id=0, addr=0x100, size=64, elem=4))
        assert lsu.counters.horizontal_disambiguations == 1
        assert lsu.counters.vertical_disambiguations == 0

    def test_region_store_counts_both_and_extra_cam(self):
        lsu = self.unit()
        lsu.begin_region()
        store = make_entry(
            srv_id=0, is_store=True, addr=0x100, size=64, elem=4, data=bytes(64)
        )
        lsu.issue_store(store)
        assert lsu.counters.vertical_disambiguations == 1
        # horizontal disambiguation searches both LQ and SAQ (empty: one
        # comparison charged per CAM activation)
        assert lsu.counters.horizontal_disambiguations == 2
        assert lsu.counters.cam_lookups_lq == 2   # doubled
        assert lsu.counters.cam_lookups_saq == 1  # the extra store-buffer CAM

    def test_disambiguation_scales_with_matching_rows(self):
        """Figure 11 counts bit-vector generations: a load issuing against
        matching SAQ rows performs more disambiguation work than one with
        no matches."""
        lsu = self.unit()
        lsu.begin_region()
        for sid in range(3):
            lsu.issue_store(
                make_entry(
                    srv_id=sid, is_store=True, addr=0x100 + 4 * sid, size=4,
                    elem=4, data=bytes(4),
                )
            )
        before = lsu.counters.horizontal_disambiguations
        lsu.issue_load(make_entry(srv_id=9, addr=0x100, size=4, elem=4))
        with_matches = lsu.counters.horizontal_disambiguations - before
        # same-base rows: 3 matches + 1 activation
        assert with_matches == 4
        before = lsu.counters.horizontal_disambiguations
        lsu.issue_load(make_entry(srv_id=10, addr=0x9000, size=4, elem=4))
        assert lsu.counters.horizontal_disambiguations - before == 1

    def test_disambiguation_match_work_capped_by_sdq_ports(self):
        lsu = self.unit()
        lsu.begin_region()
        for sid in range(10):
            lsu.issue_store(
                make_entry(
                    srv_id=sid, is_store=True, addr=0x100 + 4 * sid, size=4,
                    elem=4, data=bytes(4),
                )
            )
        before = lsu.counters.horizontal_disambiguations
        lsu.issue_load(make_entry(srv_id=20, addr=0x100, size=4, elem=4))
        cap = lsu.config.ports.sdq_reads
        assert lsu.counters.horizontal_disambiguations - before == 1 + cap

    def test_figure5_end_to_end(self):
        lsu = self.unit()
        lsu.begin_region()
        lsu.issue_load(make_entry(srv_id=0, addr=0xFF00, size=64, elem=4))
        pattern = []
        for base in range(0, 16, 4):
            pattern += [base + 3, base + 0, base + 1, base + 2]
        for lane, target in enumerate(pattern):
            lsu.issue_store(
                make_entry(
                    srv_id=1, is_store=True, access=AccessType.GATHER_SCATTER,
                    addr=0xFF00 + 4 * target, size=4, elem=4, lane=lane,
                    lanes_covered=1, data=bytes(4),
                )
            )
        lanes = lsu.end_region()
        assert lanes == {3, 7, 11, 15}
        assert lsu.in_region  # replay pending: region still active

    def test_end_region_commit_clears(self):
        lsu = self.unit()
        lsu.begin_region()
        store = make_entry(
            srv_id=0, is_store=True, addr=0x100, size=64, elem=4, data=bytes(64)
        )
        lsu.issue_store(store)
        assert store.speculative
        assert lsu.end_region() == set()
        assert not lsu.in_region
        assert lsu.entries_used() == 0

    def test_war_suppression_counted(self):
        lsu = self.unit()
        lsu.begin_region()
        lsu.issue_store(
            make_entry(
                srv_id=0, is_store=True, addr=0xAB10, size=16, elem=1,
                data=bytes(16),
            )
        )
        result = lsu.issue_load(make_entry(srv_id=1, addr=0xAB18, size=16, elem=1))
        assert result.war_suppressed
        assert lsu.counters.war_suppressions == 1

    def test_waw_detected(self):
        lsu = self.unit()
        lsu.begin_region()
        lsu.issue_store(
            make_entry(
                srv_id=0, is_store=True, access=AccessType.GATHER_SCATTER,
                addr=0x120, size=4, elem=4, lane=9, lanes_covered=1, data=bytes(4),
            )
        )
        result = lsu.issue_store(
            make_entry(
                srv_id=1, is_store=True, access=AccessType.GATHER_SCATTER,
                addr=0x120, size=4, elem=4, lane=2, lanes_covered=1, data=bytes(4),
            )
        )
        assert result.waw
        assert lsu.counters.waw_resolutions == 1

    def test_overflow_in_region_raises(self):
        lsu = self.unit(lsu_entries=2)
        lsu.begin_region()
        lsu.issue_load(make_entry(srv_id=0, addr=0x100, size=4, elem=4))
        lsu.issue_load(make_entry(srv_id=1, addr=0x200, size=4, elem=4))
        with pytest.raises(LsuOverflowError):
            lsu.issue_load(make_entry(srv_id=2, addr=0x300, size=4, elem=4))

    def test_overflow_outside_region_evicts_oldest(self):
        """Baseline entries belong to committed accesses and drain; the
        oldest is evicted instead of overflowing."""
        lsu = self.unit(lsu_entries=2)
        lsu.issue_load(make_entry(srv_id=0, addr=0x100, size=4, elem=4))
        lsu.issue_load(make_entry(srv_id=1, addr=0x200, size=4, elem=4))
        lsu.issue_load(make_entry(srv_id=2, addr=0x300, size=4, elem=4))
        assert lsu.entries_used() == 2
        assert (0, 0) not in lsu.lq  # the oldest entry was evicted
        assert (2, 0) in lsu.lq

    def test_srv_id_reuse_no_overflow(self):
        """Replays update entries in place (section III-C)."""
        lsu = self.unit(lsu_entries=1)
        lsu.begin_region()
        lsu.issue_load(make_entry(srv_id=0, addr=0x100, size=4, elem=4))
        # Re-issue of the same SRV-id and lane must not allocate.
        lsu.issue_load(make_entry(srv_id=0, addr=0x100, size=4, elem=4))
        assert lsu.entries_used() == 1

    def test_vertical_squash_outside_region(self):
        lsu = self.unit()
        # A program-order-younger load issued first (OoO reordering) ...
        lsu.issue_load(make_entry(srv_id=5, addr=0x100, size=4, elem=4))
        # ... then the older store to the same address issues: squash.
        result = lsu.issue_store(
            make_entry(
                srv_id=1, is_store=True, addr=0x100, size=4, elem=4, data=bytes(4)
            )
        )
        assert result.vertical_squash

    def test_committed_store_order_last_writer_wins(self):
        lsu = self.unit()
        lsu.begin_region()
        for lane in (9, 2):
            lsu.issue_store(
                make_entry(
                    srv_id=lane, is_store=True, access=AccessType.GATHER_SCATTER,
                    addr=0x120, size=4, elem=4, lane=lane, lanes_covered=1,
                    data=bytes([lane] * 4),
                )
            )
        ordered = lsu.committed_store_data()
        assert [e.lane for e in ordered] == [2, 9]

    def test_abort_region_discards(self):
        lsu = self.unit()
        lsu.begin_region()
        lsu.issue_load(make_entry(srv_id=0, addr=0x100, size=4, elem=4))
        lsu.abort_region()
        assert lsu.entries_used() == 0
        assert not lsu.in_region


# ---------------------------------------------------------------------------
# matching by alignment base
# ---------------------------------------------------------------------------


def _entry_params(draw, addr: int) -> dict:
    """Random entry geometry at ``addr``: every access type and direction."""
    access = draw(st.sampled_from(list(AccessType)))
    elem = draw(st.sampled_from([1, 2, 4, 8]))
    lane = 0 if access is AccessType.SCALAR else draw(st.integers(0, 15))
    if access is AccessType.CONTIGUOUS:
        lanes_covered = draw(st.integers(1, 16))
        size = elem * lanes_covered
    elif access is AccessType.BROADCAST:
        lanes_covered, size = draw(st.integers(1, 16)), elem
    else:
        lanes_covered, size = 1, elem
    return dict(
        is_store=draw(st.booleans()),
        access=access,
        addr=addr,
        size=size,
        elem=elem,
        lane=lane,
        lanes_covered=lanes_covered,
        direction=draw(st.sampled_from(list(SrvDirection))),
    )


@st.composite
def disjoint_pairs(draw, same_region_ok: bool):
    """Two entries with no byte in common.

    The second starts after the first one ends: in a later alignment
    region, or (``same_region_ok``) anywhere past its last byte, possibly
    in a region the first one also touches.  Offsets are arbitrary, so
    either entry may straddle a region boundary.
    """
    first = make_entry(**_entry_params(draw, draw(st.integers(0x1000, 0x10FF))))
    end = first.addr + first.size
    if same_region_ok:
        start = end + draw(st.integers(0, 2 * REGION))
    else:
        after = align_base(end - 1, REGION) + REGION
        start = after + REGION * draw(st.integers(0, 2)) + draw(
            st.integers(0, REGION - 1)
        )
    second = make_entry(**_entry_params(draw, start))
    return first, second


class TestNoSharedBase:
    """A pair with no common alignment base, or more generally no common
    byte, never yields a bit vector: the grounds for evaluating only
    base-sharing, byte-overlapping rows in the LSU."""

    @settings(max_examples=300, deadline=None)
    @given(disjoint_pairs(same_region_ok=False))
    def test_pair_functions_are_empty(self, pair):
        first, second = pair
        assert not set(first.bases) & set(second.bases)
        self._assert_empty(first, second)

    @settings(max_examples=300, deadline=None)
    @given(disjoint_pairs(same_region_ok=True))
    def test_pairs_without_a_common_byte_are_empty(self, pair):
        first, second = pair
        assert not first.overlaps(second)
        self._assert_empty(first, second)

    @staticmethod
    def _assert_empty(first, second):
        for issuing, prior in ((first, second), (second, first)):
            assert hob_for_pair(issuing, prior, REGION) == {}
            assert hob_and_forwardable(issuing, prior, REGION) == ({}, {})
            assert vob_for_pair(issuing, prior) == {}
            assert forwardable_mask(issuing, prior, REGION) == {}
            every_byte = {c.base: c.bytes_accessed for c in issuing.chunks}
            assert replay_lanes_from_hob(
                issuing, every_byte, [prior], REGION
            ) == set()

    def test_bases_follow_chunks(self):
        entry = make_entry(addr=0x0C, size=0x40)
        assert entry.bases == (0x00, 0x40)
        assert entry.bases == tuple(c.base for c in entry.chunks)


class TestLazyGeometry:
    """``LsuEntry.make`` computes ``bases`` by arithmetic and defers the
    bit vectors; both must equal ``chunks_for_access``."""

    @settings(max_examples=500, deadline=None)
    @given(
        st.integers(0, 1 << 20),
        st.integers(1, 300),
        st.sampled_from([16, 32, 64, 128]),
    )
    def test_bases_and_chunks_match_chunks_for_access(
        self, addr, size, region
    ):
        entry = LsuEntry.make(
            srv_id=0, is_store=False, access=AccessType.CONTIGUOUS,
            addr=addr, size=size, elem=1, lane=0, lanes_covered=size,
            region_bytes=region,
        )
        expected = chunks_for_access(addr, size, region)
        assert entry.bases == tuple(c.base for c in expected)
        assert entry.chunks == expected
        assert entry.chunks is entry.chunks  # built once

    def test_make_builds_no_bit_vectors(self, monkeypatch):
        from repro.lsu import entries

        calls = []
        original = entries.chunks_for_access
        monkeypatch.setattr(
            entries, "chunks_for_access",
            lambda *args: calls.append(args) or original(*args),
        )
        entry = make_entry(addr=0x3C, size=8)
        assert entry.bases == (0x00, 0x40) and not calls
        assert entry.chunk_for_base(0x40).bytes_accessed.bit_count() == 4
        assert calls == [(0x3C, 8, REGION)]

    def test_nonpositive_size_is_rejected_at_make(self):
        with pytest.raises(ValueError):
            make_entry(addr=0x40, size=0)


def _grid_entries(access, elem, direction, addr, lane, is_store):
    """One entry per lane count (1..8) an access of this type can cover."""
    counts = range(1, 9) if access in (
        AccessType.CONTIGUOUS, AccessType.BROADCAST) else (1,)
    for lanes in counts:
        size = elem * lanes if access is AccessType.CONTIGUOUS else elem
        yield make_entry(
            is_store=is_store, access=access, addr=addr, size=size,
            elem=elem, lane=lane, lanes_covered=lanes, direction=direction,
        )


def _may_violate_grid(issuer_access, prior_access, base):
    """``(issuer, prior)`` pairs over both directions of each entry, every
    element size, 1-8 lanes and offsets straddling a 64-byte base."""
    for p_dir in SrvDirection:
        for i_dir in SrvDirection:
            for p_elem in (1, 2, 4, 8):
                # the prior straddles the base whenever it is wider than 6
                # bytes; its lane field is 1, so issuer lanes 0..8 take in
                # one lane below it and every lane it can cover
                priors = list(_grid_entries(
                    prior_access, p_elem, p_dir, base - 6, 1, False))
                # mixed directions (a baseline entry left in the queue
                # when a region starts) at every third issuer lane
                lanes = range(9) if p_dir is i_dir else range(0, 9, 3)
                for i_elem in (1, 2, 4, 8):
                    for i_off in range(-14, 66, 5):
                        for i_lane in lanes:
                            for issuer in _grid_entries(
                                    issuer_access, i_elem, i_dir,
                                    base + i_off, i_lane, True):
                                for prior in priors:
                                    yield issuer, prior


_CONTIG = AccessType.CONTIGUOUS
_ONE_LANE = AccessType.GATHER_SCATTER

#: textual mutants of ``may_violate``, each with the access types
#: (issuer, prior) of the grid that must catch it: each drops a test
#: point or bends a comparison
_MAY_VIOLATE_MUTANTS = {
    "no issuer element starts": (
        "points.append(last - (last - i_addr) % i_elem)", "pass",
        _CONTIG, _CONTIG),
    "no first issuer element start": (
        "        points.append(first)\n        points.append(last - (last - i_addr)",
        "        points.append(last - (last - i_addr)", _CONTIG, _CONTIG),
    "no last prior element start": (
        "points.append(last - (last - p_addr) % p_elem)", "pass",
        _CONTIG, _CONTIG),
    "no first prior element start": (
        "            points.append(first)\n            points.append(last - (last - p_addr)",
        "            points.append(last - (last - p_addr)", _CONTIG, _CONTIG),
    "no first byte": ("points = [lo]", "points = []", _CONTIG, _ONE_LANE),
    "lane-or-equal": (
        "if prior_lane > (i_lane", "if prior_lane >= (i_lane",
        _CONTIG, _CONTIG),
    "single lane, UP prior at the first byte": (
        "return p_lane + (last - p_addr) // p_elem > lane",
        "return p_lane + (lo - p_addr) // p_elem > lane", _ONE_LANE, _CONTIG),
    "single lane, DOWN prior at the last byte": (
        "return p_lane - (lo - p_addr) // p_elem > lane",
        "return p_lane - (last - p_addr) // p_elem > lane",
        _ONE_LANE, _CONTIG),
    "no DOWN issuer": (
        "i_down = issuing.direction is SrvDirection.DOWN", "i_down = False",
        _CONTIG, _CONTIG),
    "no DOWN prior": (
        "p_down = p_contig and prior.direction is SrvDirection.DOWN",
        "p_down = False", _ONE_LANE, _CONTIG),
    "broadcast as one lane": (
        "if p_down or access is AccessType.BROADCAST:", "if p_down:",
        _ONE_LANE, AccessType.BROADCAST),
}


def _mutant(name):
    """``may_violate`` rebuilt from its source with one mutation."""
    import inspect

    from repro.lsu import horizontal

    source = inspect.getsource(horizontal.may_violate)
    old, new, _, _ = _MAY_VIOLATE_MUTANTS[name]
    assert source.count(old) == 1, name
    namespace = dict(vars(horizontal))
    exec(source.replace(old, new), namespace)
    return namespace["may_violate"]


class TestMayViolateGrid:
    """``may_violate`` against the HOB bit vectors, over every access type
    pair, both directions of each entry, every element size, 1-8 lanes
    and offsets straddling a 64-byte base.  It must be exact for every
    issuer, multi-lane contiguous ones included: where it says "cannot
    violate" the HOB is empty, and where it says "may" it is not."""

    BASE = 0x1040

    @pytest.mark.parametrize("prior_access", list(AccessType))
    @pytest.mark.parametrize("issuer_access", list(AccessType))
    def test_exact_against_hob(self, issuer_access, prior_access):
        checked = violating = 0
        for issuer, prior in _may_violate_grid(
                issuer_access, prior_access, self.BASE):
            verdict = may_violate(issuer, prior)
            assert verdict == bool(hob_for_pair(issuer, prior, REGION)), (
                issuer, prior)
            checked += 1
            violating += verdict
        # the grid reaches both answers
        assert checked > violating > 0

    @pytest.mark.parametrize("name", sorted(_MAY_VIOLATE_MUTANTS))
    def test_grid_catches_mutant(self, name):
        mutant = _mutant(name)
        _, _, issuer_access, prior_access = _MAY_VIOLATE_MUTANTS[name]
        for issuer, prior in _may_violate_grid(
                issuer_access, prior_access, self.BASE):
            if mutant(issuer, prior) != bool(
                    hob_for_pair(issuer, prior, REGION)):
                return
        pytest.fail(f"the grid does not catch the mutant {name!r}")


def _violation_by_byte(issuing, prior, base, region_bytes):
    """The horizontal-violation bits built one byte at a time: for each
    byte the prior accesses in region ``base``, prior-lane(byte) >
    issuing-lane(byte), with the lanes read off the entries' geometry."""
    chunk = prior.chunk_for_base(base)
    if chunk is None:
        return 0
    bits = 0
    for bit in _bits(chunk.bytes_accessed):
        byte_addr = base + bit
        prior_max = prior.lane_span_of_byte(byte_addr)[1]
        issuing_lane = issuing.lane
        if (
            issuing.access is AccessType.CONTIGUOUS
            and issuing.addr <= byte_addr < issuing.addr + issuing.size
        ):
            issuing_lane = issuing.lane_of_byte(byte_addr)
        if prior_max > issuing_lane:
            bits |= 1 << bit
    return bits


class TestViolationVectorGrid:
    """``horizontal_violation_vector`` equals the per-byte construction
    over contiguous, broadcast and gather priors and issuers, both
    directions, every element size, issuers on either side of a prior
    that straddles a base, issuers more than 2**60 bytes away and
    regions beyond 2**62."""

    ACCESSES = (
        AccessType.CONTIGUOUS, AccessType.BROADCAST, AccessType.GATHER_SCATTER,
    )
    OFFSETS = (-14, -9, -4, 1, 6, 11, 21, 36, 61,
               1 << 61, (1 << 61) + 3, -(1 << 61), -(1 << 61) - 5)

    @staticmethod
    def _entries(access, elem, direction, addr, lane, lane_counts, is_store):
        counts = lane_counts if access is not AccessType.GATHER_SCATTER else (1,)
        for lanes in counts:
            size = elem * lanes if access is AccessType.CONTIGUOUS else elem
            yield make_entry(
                is_store=is_store, access=access, addr=addr, size=size,
                elem=elem, lane=lane, lanes_covered=lanes, direction=direction,
            )

    @pytest.mark.parametrize("base", [0x1040, 0x1040 + (1 << 62)])
    @pytest.mark.parametrize("prior_access", ACCESSES)
    @pytest.mark.parametrize("issuer_access", ACCESSES)
    def test_matches_the_per_byte_construction(
        self, issuer_access, prior_access, base
    ):
        from repro.lsu import horizontal

        checked = violating = 0
        for direction in SrvDirection:
            for p_elem in (1, 2, 4, 8):
                priors = list(self._entries(
                    prior_access, p_elem, direction, base - 6, 1, (1, 3, 8),
                    False))
                for i_elem in (1, 2, 4, 8):
                    for i_off in self.OFFSETS:
                        for i_lane in (0, 5):
                            for issuer in self._entries(
                                issuer_access, i_elem, direction,
                                base + i_off, i_lane, (1, 8), True,
                            ):
                                for prior in priors:
                                    for chunk_base in prior.bases:
                                        # every call builds its vector
                                        horizontal._VIOLATION_MEMO.clear()
                                        got = horizontal_violation_vector(
                                            issuer, prior, chunk_base, REGION)
                                        want = _violation_by_byte(
                                            issuer, prior, chunk_base, REGION)
                                        assert got == want, (
                                            issuer, prior, chunk_base)
                                        checked += 1
                                        violating += bool(want)
        # the grid reaches empty, partial and non-empty vectors alike
        assert checked > violating > 0


class BruteForceLsu(LoadStoreUnit):
    """The unindexed LSU: every issue pairs with every prior row.

    Match work is counted by scanning the whole table for rows sharing an
    alignment base.  The tables themselves are kept by the base class, so
    eviction and drains behave alike.
    """

    def _count_matching(self, entry, table):
        bases = set(entry.bases)
        count = 0
        for other in table.values():
            if bases.intersection(other.bases):
                count += 1
                if count >= self.config.ports.sdq_reads:
                    break
        return count

    def issue_load(self, entry):
        key = (entry.srv_id, entry.lane)
        self._check_allocate(key, self.lq)
        self._seq += 1
        entry.seq = self._seq
        self.lq.put(key, entry)
        self.counters.cam_lookups_saq += 1
        self.counters.cam_lookups_lq += 1
        work = 1 + self._count_matching(entry, self.saq)
        if self.in_region:
            self.counters.horizontal_disambiguations += work
        else:
            self.counters.vertical_disambiguations += work
        result = LoadIssueResult()
        covered = 0
        for prior in list(self.saq.values()):
            if self.in_region:
                hob, ok = hob_and_forwardable(entry, prior, self.region_bytes)
                if hob:
                    result.war_suppressed = True
                    self.counters.war_suppressions += 1
            else:
                ok = vob_for_pair(entry, prior)
            if ok:
                result.forwarded_from.add((prior.srv_id, prior.lane))
                for base, bits in ok.items():
                    offset = base - entry.addr
                    covered |= (
                        bits << offset if offset >= 0 else bits >> -offset
                    )
        need = (1 << entry.size) - 1
        result.any_memory_bytes = (covered & need) != need
        result.sdq_entries_combined = len(result.forwarded_from)
        if result.forwarded_from:
            self.counters.loads_forwarded += 1
            if result.sdq_entries_combined > 1:
                self.counters.multi_entry_forwards += 1
        if result.any_memory_bytes:
            self.counters.loads_from_memory += 1
        return result

    def issue_store(self, entry):
        key = (entry.srv_id, entry.lane)
        self._check_allocate(key, self.saq)
        self._seq += 1
        entry.seq = self._seq
        entry.speculative = self.in_region
        result = StoreIssueResult()
        self.counters.cam_lookups_lq += 1
        lq_work = 1 + self._count_matching(entry, self.lq)
        self.counters.vertical_disambiguations += lq_work
        if self.in_region:
            self.counters.cam_lookups_lq += 1
            self.counters.cam_lookups_saq += 1
            self.counters.horizontal_disambiguations += lq_work + (
                1 + self._count_matching(entry, self.saq)
            )
            prior_loads = [e for e in self.lq.values() if e.seq < entry.seq]
            hob = overall_hob(entry, prior_loads, self.region_bytes)
            if hob:
                lanes = replay_lanes_from_hob(
                    entry, hob, prior_loads, self.region_bytes
                )
                if lanes:
                    result.replay_lanes = lanes
                    self.needs_replay.update(lanes)
                    self.counters.raw_flags += len(lanes)
            for prior in self.saq.values():
                if (prior.srv_id, prior.lane) == key:
                    continue
                if hob_for_pair(entry, prior, self.region_bytes):
                    result.waw = True
                    self.counters.waw_resolutions += 1
                    break
        else:
            for prior in self.lq.values():
                if prior.srv_id > entry.srv_id and vob_for_pair(entry, prior):
                    result.vertical_squash = True
                    break
        self.saq.put(key, entry)
        return result


def _random_entry_params(rng: random.Random) -> dict:
    access = rng.choice(list(AccessType))
    elem = rng.choice([1, 2, 4, 8])
    lane = 0 if access is AccessType.SCALAR else rng.randrange(16)
    if access is AccessType.CONTIGUOUS:
        lanes_covered = rng.randint(1, 16)
        size = elem * lanes_covered
    elif access is AccessType.BROADCAST:
        lanes_covered, size = rng.randint(1, 16), elem
    else:
        lanes_covered, size = 1, elem
    is_store = rng.random() < 0.5
    return dict(
        srv_id=rng.randrange(8),
        is_store=is_store,
        access=access,
        # a few regions around 0x1000 so rows often share a base, plus an
        # occasional far access
        addr=rng.randrange(0x1000, 0x1100) if rng.random() < 0.9
        else rng.randrange(0x8000, 0x9000),
        size=size,
        elem=elem,
        lane=lane,
        lanes_covered=lanes_covered,
        direction=rng.choice(list(SrvDirection)),
        data=bytes(size) if is_store else None,
    )


def _outcome(call):
    try:
        return call()
    except LsuOverflowError as exc:
        return ("overflow", str(exc))


def _index_matches_tables(lsu: LoadStoreUnit) -> bool:
    for table in (lsu.lq, lsu.saq):
        index = table.by_block
        filed = {(base, key) for base, rows in index.items() for key in rows}
        expect = {(base, key) for key, e in table.items() for base in e.bases}
        if filed != expect:
            return False
        if any(rows[key] is not table[key] for rows in index.values() for key in rows):
            return False
    return True


class TestIndexedLsuEquivalence:
    """The base-indexed LSU against the evaluate-every-prior algorithm."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_issue_and_drain_streams(self, seed):
        rng = random.Random(seed)
        cfg = TABLE_I.with_overrides(lsu_entries=rng.choice([6, 12, 64]))
        fast, slow = LoadStoreUnit(cfg), BruteForceLsu(cfg)
        for step in range(160):
            roll = rng.random()
            if roll < 0.7:
                params = _random_entry_params(rng)
                issue = "issue_store" if params["is_store"] else "issue_load"
                got = _outcome(lambda: getattr(fast, issue)(make_entry(**params)))
                want = _outcome(lambda: getattr(slow, issue)(make_entry(**params)))
            elif roll < 0.8:
                keys = sorted(set(fast.lq) | set(fast.saq))
                key = rng.choice(keys) if keys else (0, 0)
                got, want = fast.drain_entry(key), slow.drain_entry(key)
            elif roll < 0.88:
                direction = rng.choice(list(SrvDirection))
                got = fast.begin_region(direction)
                want = slow.begin_region(direction)
            elif roll < 0.97:
                got, want = fast.end_region(), slow.end_region()
            else:
                got, want = fast.abort_region(), slow.abort_region()
            assert got == want, f"seed {seed} step {step}"
            assert fast.counters == slow.counters, f"seed {seed} step {step}"
            assert list(fast.lq) == list(slow.lq)
            assert list(fast.saq) == list(slow.saq)
            assert fast.needs_replay == slow.needs_replay
            assert _index_matches_tables(fast)

    def test_replay_moving_an_entry_refiles_it(self):
        lsu = LoadStoreUnit(TABLE_I)
        lsu.begin_region()
        lsu.issue_store(make_entry(srv_id=1, is_store=True, addr=0x100,
                                   size=4, elem=4, data=bytes(4)))
        lsu.issue_store(make_entry(srv_id=1, is_store=True, addr=0x200,
                                   size=4, elem=4, data=bytes(4)))
        assert 0x100 not in lsu.saq.by_block
        assert list(lsu.saq.by_block[0x200]) == [(1, 0)]
        before = lsu.counters.horizontal_disambiguations
        lsu.issue_load(make_entry(srv_id=2, addr=0x100, size=4, elem=4))
        assert lsu.counters.horizontal_disambiguations - before == 1

    def test_drain_entry_retires_from_either_queue(self):
        lsu = LoadStoreUnit(TABLE_I)
        lsu.issue_load(make_entry(srv_id=3, addr=0x100, size=4, elem=4))
        lsu.issue_store(make_entry(srv_id=4, is_store=True, addr=0x100,
                                   size=4, elem=4, data=bytes(4)))
        lsu.drain_entry((3, 0))
        lsu.drain_entry((4, 0))
        lsu.drain_entry((5, 0))  # absent: a no-op
        assert lsu.entries_used() == 0
        assert lsu.lq.by_block == {} and lsu.saq.by_block == {}

    @pytest.mark.parametrize("seed", range(10))
    def test_drain_committed_retires_what_drain_entry_would(self, seed):
        """Draining a heap of ``(cycle, key)`` by ``now`` leaves the
        queues as ``drain_entry`` over each due key does, and pops exactly
        the due items."""
        rng = random.Random(seed)
        fast, ref = LoadStoreUnit(TABLE_I), LoadStoreUnit(TABLE_I)
        due: list = []
        for _ in range(40):
            params = _random_entry_params(rng)
            params["srv_id"] = rng.randrange(16)
            issue = "issue_store" if params["is_store"] else "issue_load"
            for lsu in (fast, ref):
                getattr(lsu, issue)(make_entry(**params))
            # some keys are due twice, some never issued
            key = (params["srv_id"], params["lane"])
            heapq.heappush(due, (rng.randrange(20), key))
            if rng.random() < 0.2:
                heapq.heappush(due, (rng.randrange(20), (99, 0)))
        for now in (-1, 5, 5, 12, 30):
            before = list(due)
            for cycle, key in before:
                if cycle <= now:
                    ref.drain_entry(key)
            fast.drain_committed(due, now)
            assert sorted(due) == sorted(
                item for item in before if item[0] > now
            )
            assert list(fast.lq) == list(ref.lq)
            assert list(fast.saq) == list(ref.saq)
            assert _index_matches_tables(fast)
