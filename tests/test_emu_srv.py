"""Functional SRV semantics: selective replay must preserve sequential order.

The central invariant (paper section III): executing a vectorised loop
inside an SRV-region produces exactly the memory state of the scalar loop,
for *any* index pattern — periodic conflicts, random conflicts, or none.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import TABLE_I
from repro.common.rng import periodic_conflict_indices, sparse_conflict_indices
from repro.emu import Interpreter, run_program
from repro.isa import ProgramBuilder, imm, p, v, x
from repro.memory import MemoryImage

LANES = TABLE_I.vector_lanes


def build_indirect_update(mem: MemoryImage, n: int, *, add: int = 2) -> "Program":
    """a[x[i]] = a[i] + add — the paper's listing 1 in SRV form (listing 2)."""
    a = mem.allocation("a")
    xs = mem.allocation("x")
    b = ProgramBuilder("listing2")
    b.mov(x(1), imm(a.base))
    b.mov(x(2), imm(xs.base))
    b.mov(x(3), imm(0))
    b.mov(x(4), imm(n))
    b.label("Loop")
    b.shl(x(7), x(3), imm(2))
    b.add(x(5), x(1), x(7))
    b.add(x(6), x(2), x(7))
    b.srv_start()
    b.v_load(v(0), x(5))
    b.v_add(v(0), v(0), imm(add))
    b.v_load(v(1), x(6))
    b.v_scatter(v(0), x(1), v(1))
    b.srv_end()
    b.add(x(3), x(3), imm(LANES))
    b.blt(x(3), x(4), "Loop")
    b.halt()
    return b.build()


def scalar_indirect_update(a_vals, x_vals, add=2):
    a = list(a_vals)
    for i in range(len(x_vals)):
        a[x_vals[i]] = a[i] + add
    return a


def run_indirect(a_vals, x_vals, add=2):
    n = len(x_vals)
    mem = MemoryImage()
    mem.alloc("a", max(n, max(x_vals) + 1 if x_vals else 1), 4, init=a_vals)
    mem.alloc("x", n, 4, init=x_vals)
    prog = build_indirect_update(mem, n, add=add)
    metrics, _ = run_program(prog, mem)
    return mem.load_array(mem.allocation("a")), metrics


class TestListing1Semantics:
    """The paper's motivating example (listing 1 / listing 2)."""

    def test_periodic_conflicts_match_scalar(self):
        n = 64
        x_vals = periodic_conflict_indices(n, 4)
        a_vals = list(range(100, 100 + n))
        got, metrics = run_indirect(a_vals, x_vals)
        assert got == scalar_indirect_update(a_vals, x_vals)

    def test_periodic_conflicts_replay_once_per_region(self):
        """Section II: lanes 3, 7, 11, 15 are replayed; the region finishes
        in two passes."""
        n = 16
        x_vals = periodic_conflict_indices(n, 4)
        _, metrics = run_indirect(list(range(n)), x_vals)
        assert metrics.srv.regions_entered == 1
        assert metrics.srv.region_passes == 2
        assert metrics.srv.replays == 1
        assert metrics.srv.raw_violations == 4  # lanes 3, 7, 11, 15

    def test_identity_indices_no_replay(self):
        n = 64
        x_vals = list(range(n))
        got, metrics = run_indirect(list(range(n)), x_vals)
        # a[i] = a[i] + 2 elementwise; WAW-free, same-lane RAW only.
        assert got == [i + 2 for i in range(n)]
        assert metrics.srv.replays == 0
        assert metrics.srv.region_passes == metrics.srv.regions_entered

    def test_forward_shift_no_violation(self):
        """x[i] = i + 16 writes strictly outside the group: no replay."""
        n = 32
        x_vals = [(i + 16) % 32 for i in range(16)] + list(range(16, 32))
        # group 0 scatters into group 1's territory before group 1 reads it:
        # cross-*region* dependence, handled because regions commit in order.
        got, metrics = run_indirect(list(range(n)), x_vals)
        assert got == scalar_indirect_update(list(range(n)), x_vals)

    def test_backward_reference_within_group_replays(self):
        n = 16
        x_vals = list(range(n))
        x_vals[2] = 9  # lane 9 reads a[9]; lane 2 writes a[9] -> RAW at lane 9
        got, metrics = run_indirect(list(range(n)), x_vals)
        assert got == scalar_indirect_update(list(range(n)), x_vals)
        assert metrics.srv.replays >= 1

    def test_sparse_conflicts_match_scalar(self):
        n = 256
        x_vals = sparse_conflict_indices(n, LANES, 0.5, seed=7)
        a_vals = [3 * i % 97 for i in range(n)]
        got, metrics = run_indirect(a_vals, x_vals)
        assert got == scalar_indirect_update(a_vals, x_vals)


class TestReplayBookkeeping:
    def test_replay_bound_respected(self):
        """Worst case: every lane reads the location lane-1 writes.

        x = [15, 0, 1, ..., 14] produces a chain where lane k reads a[k-1]
        which lane k-1 writes... the maximum replay cascade is bounded by
        lanes - 1 (section III-A)."""
        n = 16
        x_vals = [15] + list(range(15))
        got, metrics = run_indirect(list(range(n)), x_vals)
        assert got == scalar_indirect_update(list(range(n)), x_vals)
        assert metrics.srv.max_replays_in_region <= LANES - 1

    def test_chain_dependence_full_cascade(self):
        """a[i+1] = a[i] + 1 pattern: lane k depends on lane k-1's store.

        Sequential semantics ripple the value through every lane; SRV must
        reproduce this through repeated selective replays."""
        n = 16
        # a[x[i]] = a[i]+2 with x[i] = i+1 (lane k writes a[k+1], read by
        # lane k+1) — a serial chain through all lanes.
        x_vals = list(range(1, 16)) + [16]
        mem = MemoryImage()
        mem.alloc("a", 17, 4, init=[0] * 17)
        mem.alloc("x", 16, 4, init=x_vals)
        prog = build_indirect_update(mem, 16)
        metrics, _ = run_program(prog, mem)
        a = mem.load_array(mem.allocation("a"))
        expect = scalar_indirect_update([0] * 17, x_vals)
        assert a == expect
        # chain a[1]=a[0]+2, a[2]=a[1]+2 ... => a[16] = 32
        assert a[16] == 32
        assert metrics.srv.max_replays_in_region == LANES - 1

    def test_counters_accumulate_across_regions(self):
        """Three regions of one replay each: the run's totals add up,
        while ``max_replays_in_region`` is counted per region."""
        n = 3 * LANES
        _, metrics = run_indirect(list(range(n)), periodic_conflict_indices(n, 4))
        assert metrics.srv.regions_entered == 3
        assert metrics.srv.region_passes == 6
        assert metrics.srv.replays == 3
        assert metrics.srv.max_replays_in_region == 1

    def test_first_pass_and_replayed_lane_counts(self):
        n = 16
        x_vals = periodic_conflict_indices(n, 4)
        _, metrics = run_indirect(list(range(n)), x_vals)
        assert metrics.srv.first_pass_lane_executions == LANES
        assert metrics.srv.replayed_lane_executions == 4

    def test_dynamic_instructions_count_replay_passes(self):
        n = 16
        ident = list(range(n))
        _, clean = run_indirect(ident, ident)
        x_vals = periodic_conflict_indices(n, 4)
        _, dirty = run_indirect(ident, x_vals)
        # The replay pass refetches the 4-instruction region body + srv_end.
        assert (
            dirty.dynamic_instructions - clean.dynamic_instructions == 5
        )


class TestWARandWAW:
    def test_war_load_does_not_see_future_store(self):
        """Lane 0 reads a[8]; lane 8 writes a[8] (later lane): the load must
        return the *old* value — a WAR that store-buffering resolves."""
        n = 16
        # a[x[i]] = a[i] + 2 with x[8] = 8 untouched; craft instead with
        # overlapping windows: read a[i+8], write a[i].
        mem = MemoryImage()
        a = mem.alloc("a", 32, 4, init=list(range(32)))
        b = ProgramBuilder("war")
        b.mov(x(1), imm(a.base))
        b.srv_start()
        b.v_load(v(0), x(1), offset=32)       # a[8:24]
        b.v_store(v(0), x(1))                 # a[0:16] = those values
        b.srv_end()
        b.halt()
        metrics, _ = run_program(b.build(), mem)
        data = mem.load_array(a)
        # scalar semantics: for i in 0..15: a[i] = a[i+8] (reads see
        # earlier writes: a[8] was already overwritten by iteration 0? No -
        # iteration i reads a[i+8], writes a[i]: iteration 8 reads a[16],
        # writes a[8]; iteration 0 already read the ORIGINAL a[8].
        expect = list(range(32))
        for i in range(16):
            expect[i] = expect[i + 8]
        assert data == expect

    def test_waw_within_one_scatter_last_lane_wins(self):
        """All lanes of one scatter hit the same address: the highest lane's
        value must reach memory (selective memory update)."""
        mem = MemoryImage()
        out = mem.alloc("out", 4, 4, init=[0, 0, 0, 0])
        idx = mem.alloc("idx", LANES, 4, init=[0] * LANES)  # all lanes hit out[0]
        b = ProgramBuilder("waw")
        b.mov(x(1), imm(out.base))
        b.mov(x(2), imm(idx.base))
        b.srv_start()
        b.v_load(v(1), x(2))
        b.v_index(v(2), imm(100))        # lane i stores 100 + i
        b.v_scatter(v(2), x(1), v(1))
        b.srv_end()
        b.halt()
        metrics, _ = run_program(b.build(), mem)
        assert mem.load_array(out)[0] == 115  # lane 15 wins
        assert metrics.srv.replays == 0  # WAW needs no replay

    def test_waw_across_instructions_counted_and_resolved(self):
        """A scatter in an *earlier* lane overwrites an address already
        written by an older store in a *later* lane: the paper's WAW case,
        resolved by writing back the program-order-latest version."""
        mem = MemoryImage()
        out = mem.alloc("out", LANES, 4, init=[0] * LANES)
        idx = mem.alloc("idx", LANES, 4, init=[8] * LANES)  # all target out[8]
        b = ProgramBuilder("waw-cross")
        b.mov(x(1), imm(out.base))
        b.mov(x(2), imm(idx.base))
        b.srv_start()
        b.v_index(v(2), imm(100))
        b.v_store(v(2), x(1))            # instr A: out[i] = 100 + i
        b.v_load(v(1), x(2))
        b.v_index(v(3), imm(200))
        b.v_scatter(v(3), x(1), v(1))    # instr B: out[8] = 200 + i
        b.srv_end()
        b.halt()
        metrics, _ = run_program(b.build(), mem)
        data = mem.load_array(out)
        # Sequential: iteration i sets out[i]=100+i then out[8]=200+i;
        # final out[8] is iteration 15's B value.
        expect = [100 + i for i in range(LANES)]
        expect[8] = 215
        assert data == expect
        assert metrics.srv.waw_events > 0
        assert metrics.srv.replays == 0

    def test_war_events_counted(self):
        mem = MemoryImage()
        a = mem.alloc("a", 32, 4, init=list(range(32)))
        b = ProgramBuilder("war-count")
        b.mov(x(1), imm(a.base))
        b.srv_start()
        b.v_store(v(0), x(1), offset=0)       # writes a[0:16]
        b.v_load(v(1), x(1), offset=32)       # reads a[8:24]: overlap in later lanes?
        b.srv_end()
        b.halt()
        # store lanes 8..15 write a[8..15]? No: store writes a[0:16] lanes
        # 0-15; load reads a[8:24] lanes 0-15; load lane 0 reads a[8],
        # written by store lane 8 (later lane) -> WAR suppression.
        metrics, _ = run_program(b.build(), mem)
        assert metrics.srv.war_events > 0


class TestStoreToLoadForwarding:
    def test_same_lane_forwarding(self):
        """A load that reads what an earlier instruction's same lane stored
        must see the buffered value (vertical RAW satisfied in-region)."""
        mem = MemoryImage()
        a = mem.alloc("a", LANES, 4, init=[0] * LANES)
        b = ProgramBuilder("fwd")
        b.mov(x(1), imm(a.base))
        b.srv_start()
        b.v_index(v(1), imm(500))
        b.v_store(v(1), x(1))
        b.v_load(v(2), x(1))
        b.srv_end()
        b.halt()
        metrics, state = run_program(b.build(), mem)
        assert state.read_vector(v(2)) == [500 + i for i in range(LANES)]
        assert metrics.loads_forwarded > 0
        assert metrics.srv.replays == 0

    def test_earlier_lane_forwarding_via_replay(self):
        """Gather reading earlier lanes' scattered data is a horizontal RAW:
        resolved by replay, after which forwarding provides the data."""
        mem = MemoryImage()
        a = mem.alloc("a", LANES, 4, init=[0] * LANES)
        idx_fwd = mem.alloc("fwd", LANES, 4, init=list(range(LANES)))
        # gather index: lane i reads a[max(i-1, 0)]
        idx_back = mem.alloc(
            "back", LANES, 4, init=[max(i - 1, 0) for i in range(LANES)]
        )
        b = ProgramBuilder("hraw")
        b.mov(x(1), imm(a.base))
        b.mov(x(2), imm(idx_fwd.base))
        b.mov(x(3), imm(idx_back.base))
        b.srv_start()
        b.v_load(v(3), x(3))
        b.v_gather(v(4), x(1), v(3))        # lane i reads a[i-1]
        b.v_load(v(1), x(2))
        b.v_index(v(2), imm(10), imm(10))   # lane i: 10*(i+1)
        b.v_scatter(v(2), x(1), v(1))       # a[i] = 10*(i+1)
        b.srv_end()
        b.halt()
        metrics, state = run_program(b.build(), mem)
        # Scalar semantics: iteration i reads a[i-1] (iteration i-1 already
        # wrote 10*i there), then writes a[i] = 10*(i+1).  Lane 0 reads the
        # original a[0] = 0.
        expect = [0] + [10 * i for i in range(1, LANES)]
        assert state.read_vector(v(4)) == expect
        assert metrics.srv.replays >= 1
        assert metrics.loads_forwarded > 0


class TestLsuOverflowFallback:
    def make_many_access_region(self, mem, n_gathers):
        a = mem.alloc("a", 64, 4, init=list(range(64)))
        idx = mem.alloc("idx", LANES, 4, init=list(range(LANES)))
        b = ProgramBuilder("big-region")
        b.mov(x(1), imm(a.base))
        b.mov(x(2), imm(idx.base))
        b.srv_start()
        b.v_load(v(1), x(2))
        for i in range(n_gathers):
            b.v_gather(v(2 + i % 8), x(1), v(1))
        b.v_add(v(2), v(2), imm(1))
        b.v_store(v(2), x(1))
        b.srv_end()
        b.halt()
        return b.build()

    def test_overflow_triggers_sequential_fallback(self):
        mem = MemoryImage()
        # 5 gathers * 16 lanes + load + store = 82 entries > 64.
        prog = self.make_many_access_region(mem, 5)
        metrics, _ = run_program(prog, mem)
        assert metrics.srv.lsu_fallbacks == 1
        assert metrics.srv.region_passes == LANES
        a = mem.allocation("a")
        assert mem.load_array(a)[:LANES] == [i + 1 for i in range(LANES)]

    def test_no_overflow_within_budget(self):
        mem = MemoryImage()
        # 3 gathers * 16 + 2 = 50 <= 64 (the paper's sizing: 16*3+7=55).
        prog = self.make_many_access_region(mem, 3)
        metrics, _ = run_program(prog, mem)
        assert metrics.srv.lsu_fallbacks == 0

    def test_fallback_preserves_semantics_with_conflicts(self):
        mem = MemoryImage()
        n = 16
        x_vals = periodic_conflict_indices(n, 4)
        a_vals = list(range(n))
        mem.alloc("a", n, 4, init=a_vals)
        mem.alloc("x", n, 4, init=x_vals)
        prog = build_indirect_update(mem, n)
        small = TABLE_I.with_overrides(lsu_entries=4)
        interp = Interpreter(prog, mem, small)
        metrics = interp.run()
        assert metrics.srv.lsu_fallbacks == 1
        assert mem.load_array(mem.allocation("a")) == scalar_indirect_update(
            a_vals, x_vals
        )


# ---------------------------------------------------------------------------
# Property-based oracle: SRV == scalar for arbitrary index patterns
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    x_vals=st.lists(st.integers(0, 47), min_size=48, max_size=48),
    a_seed=st.integers(0, 2**16),
    add=st.integers(-5, 5),
)
def test_property_srv_matches_scalar(x_vals, a_seed, add):
    """For ANY index vector, SRV execution equals scalar execution."""
    n = 48
    a_vals = [(a_seed * (i + 1)) % 251 for i in range(n)]
    got, metrics = run_indirect(a_vals, x_vals, add=add)
    assert got == scalar_indirect_update(a_vals, x_vals, add=add)
    assert metrics.srv.max_replays_in_region <= LANES - 1


@settings(max_examples=30, deadline=None)
@given(
    perm_seed=st.integers(0, 2**16),
    rate=st.floats(0.0, 1.0),
)
def test_property_sparse_conflicts_match_scalar(perm_seed, rate):
    n = 64
    x_vals = sparse_conflict_indices(n, LANES, rate, seed=perm_seed)
    a_vals = [i * 7 % 113 for i in range(n)]
    got, _ = run_indirect(a_vals, x_vals)
    assert got == scalar_indirect_update(a_vals, x_vals)
