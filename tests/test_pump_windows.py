"""The timing model's buffer windows (ROB, IQ, LSU slots).

The pump keeps each finite buffer as the release times of its in-flight
entries; an allocation into a full buffer waits for the earliest release.
The ROB and LSU slots release at commit, which never decreases, so the
pump keeps them as FIFOs; the IQ releases at issue, out of order, so it
stays a min-heap whose pop is deferred to the release (one
``heapreplace``).  The property tests check both shortcuts against the
plain heap on random release sequences; the pinned runs check the pump
itself, at buffer sizes small enough that every window fills, against
statistics recorded from the heap-based model.
"""

import dataclasses
import hashlib
import heapq
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import TABLE_I
from repro.compiler import Strategy, compile_loop
from repro.memory import MemoryImage
from repro.pipeline import PipelineModel, simulate_streaming
from repro.workloads import all_loops

#: per op: (ready time, hold time, entries demanded)
_OPS = st.lists(
    st.tuples(
        st.integers(0, 200), st.integers(0, 40), st.integers(1, 4),
    ),
    max_size=120,
)


def _heap_grants(capacity, ops, monotone):
    """Grant times from a min-heap of release times (the reference)."""
    releases: list[int] = []
    grants = []
    last = 0
    for ready, hold, demand in ops:
        grant = ready
        for _ in range(demand):
            if len(releases) >= capacity:
                grant = max(grant, heapq.heappop(releases))
        grants.append(grant)
        release = grant + hold
        if monotone:
            release = last = max(release, last)
        for _ in range(demand):
            heapq.heappush(releases, release)
    return grants


def _fifo_grants(capacity, ops):
    """The pump's ROB/LSU window: pop the oldest release."""
    releases: deque[int] = deque()
    grants = []
    last = 0
    for ready, hold, demand in ops:
        grant = ready
        for _ in range(demand):
            if len(releases) >= capacity:
                t = releases.popleft()
                if t > grant:
                    grant = t
        grants.append(grant)
        release = grant + hold
        if last > release:
            release = last
        last = release
        for _ in range(demand):
            releases.append(release)
    return grants


def _deferred_heap_grants(capacity, ops):
    """The pump's IQ window: peek the earliest release, replace it when
    the op's own release is known."""
    releases: list[int] = []
    grants = []
    for ready, hold, _ in ops:
        grant = ready
        full = len(releases) >= capacity
        if full and releases[0] > grant:
            grant = releases[0]
        grants.append(grant)
        if full:
            heapq.heapreplace(releases, grant + hold)
        else:
            heapq.heappush(releases, grant + hold)
    return grants


class TestWindowShortcuts:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8), _OPS)
    def test_fifo_matches_heap_on_monotone_releases(self, capacity, ops):
        assert _fifo_grants(capacity, ops) == _heap_grants(
            capacity, ops, monotone=True
        )

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8), _OPS)
    def test_deferred_pop_matches_heap_on_any_releases(self, capacity, ops):
        single = [(ready, hold, 1) for ready, hold, _ in ops]
        assert _deferred_heap_grants(capacity, single) == _heap_grants(
            capacity, single, monotone=False
        )

    @pytest.mark.parametrize("field", ["rob_entries", "iq_entries",
                                       "lsu_entries"])
    def test_buffer_sizes_must_be_positive(self, field):
        with pytest.raises(ValueError, match="capacity must be positive"):
            PipelineModel(TABLE_I.with_overrides(**{field: 0}))


_SPECS = {spec.name: spec for _, spec in all_loops()}

#: (loop, strategy, n, (ROB, IQ, LSU entries), core, warm) ->
#: (cycles, sha256 of every PipelineStats field); recorded with the
#: heap-based buffer model.  The small buffers keep every window full.
_PINNED = [
    (("bzip2_mtf_scan", "SVE", 96, (12, 3, 4), "ooo", False),
     (2390, "92f9502545fd4018")),
    (("gcc_df_propagate", "SVE", 96, (12, 3, 4), "ooo", False),
     (2810, "e41178acfb151210")),
    (("randacc_gups", "SVE", 128, (20, 6, 5), "ooo", False),
     (10835, "818c924007ef50b4")),
    (("xalan_node_rewrite", "SVE", 96, (400, 32, 64), "ooo", False),
     (847, "ecb027eb549f4d65")),
    (("hmmer_viterbi_row", "SRV", 96, (24, 4, 64), "ooo", False),
     (1166, "f6f1d80bf2857800")),
    (("is_key_rank", "SRV", 256, (24, 3, 64), "ooo", True),
     (1330, "b6dc9b6d27143fe0")),
    (("milc_site_gather", "SRV", 128, (32, 2, 64), "ooo", True),
     (340, "c7f4d09772257a2f")),
    (("lc_dense_flow", "SRV", 64, (12, 5, 64), "ooo", True),
     (1944, "644029017f0550f9")),
    (("livermore_k1_hydro", "SRV", 128, (10, 3, 64), "inorder", False),
     (1916, "e0326037910753ca")),
]


def _stats_digest(name, strategy, n, sizes, core, warm):
    spec = _SPECS[name]
    arrays = spec.arrays(0)
    mem = MemoryImage()
    for array, init in arrays.items():
        mem.alloc(array, len(init), spec.loop.arrays[array], init=init)
    program = compile_loop(
        spec.loop, mem, n, Strategy[strategy], params=spec.params
    )
    rob, iq, lsu = sizes
    config = TABLE_I.with_overrides(
        rob_entries=rob, iq_entries=iq, lsu_entries=lsu
    )
    _, pipe, _ = simulate_streaming(
        program, mem, config, core=core, validate_lsu=core == "ooo",
        warm=warm,
    )
    stats = repr(dataclasses.astuple(pipe)).encode()
    return pipe.cycles, hashlib.sha256(stats).hexdigest()[:16]


class TestPinnedSmallBuffers:
    @pytest.mark.parametrize(
        "case, expected", _PINNED, ids=[case[0] for case, _ in _PINNED]
    )
    def test_stats_match_the_heap_model(self, case, expected):
        assert _stats_digest(*case) == expected
