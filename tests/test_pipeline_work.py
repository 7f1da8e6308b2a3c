"""The timing model's work count: Python calls per op of ``PipelineModel.run``.

The count is the number of ``sys.setprofile`` "call" events while the
model times a trace log (calls into C — heap, deque and dict methods —
do not count; each ``send`` into the pump resumes it with one event).
It is deterministic, so it shows a change in the timing model's per-op
work that wall time on a loaded host would hide.  The log and the cache
warm are built first and are not counted.  The model warms its own
caches, as the timed path does (``simulate_streaming`` with
``warm=True``), so a loop whose warm play evicts nothing from the L1 is
timed without playing its accesses; with ``caller_warm`` the caller warms
them and every access is played.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import pytest

from repro.compiler import Strategy
from repro.lsu.entries import AccessType, LsuEntry
from repro.pipeline.core import _DIRECTION, DOWN, PipelineModel
from repro.pipeline.trace import TraceLog
from repro.sample import project as project_mod
from repro.sample.project import _build, resolve_spec


def _calls_per_op(workload: str, loop: str, strategy: Strategy, n: int,
                  caller_warm: bool = False):
    """``(python calls, ops)`` of timing the trace log of a suite loop
    (``PipelineModel.run`` after the warm), LSU validation on as
    ``run_loop`` runs it."""
    _, spec = resolve_spec(workload, loop)
    interp = _build(spec, strategy, 0, n, project_mod.TABLE_I)
    interp.tracer = log = TraceLog(interp.program, interp.decode)
    interp.run()
    model = PipelineModel(project_mod.TABLE_I, validate_lsu=True)
    if caller_warm:
        log.warm(model.caches)
        run = model.run
    else:
        model.warm(log)

        def run(log):
            # PipelineModel.run(log, warm=True) after its warm play
            model.log = log
            pump = model.stream()
            for index in range(len(log)):
                pump.send(index)
            with pytest.raises(StopIteration):
                pump.send(None)

    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        run(log)
    finally:
        sys.setprofile(saved)
    return calls, len(log)


class TestWorkCount:
    def test_scalar_loop_runs_under_three_calls_per_op(self):
        # The SVE suite compiles to scalar code: every memory op is one
        # single-lane LSU entry.  Measured on CPython 3.11 with the caller
        # warming the caches: 2.69 calls per op (2.96 with a helper call
        # per branch predictor index and counter step, 7.61 with a
        # PortPool.reserve call per issue and commit slot, the entry
        # built through _entries_for and LsuEntry.make, and a
        # rescan-and-drop chain draining committed entries).  With the
        # model's own warm every access is an L1 hit: 2.38.
        calls, ops = _calls_per_op("hmmer", "viterbi", Strategy.SVE, 128,
                                   caller_warm=True)
        assert ops == 3718
        assert calls / ops <= 2.8, f"{calls} calls for {ops} ops"
        calls, ops = _calls_per_op("hmmer", "viterbi", Strategy.SVE, 128)
        assert calls / ops <= 2.45, f"{calls} calls for {ops} ops"

    def test_srv_loop_calls_below_the_per_call_pump(self):
        # The same loop vectorised under SRV: 13,843 calls (CPython 3.11)
        # when every LSU issue built its match lists with comprehensions
        # and an overlap call per row; 2,114 with no-match issues
        # returning from counters alone; 2,051 (caller warm) with the
        # branch predictor's helpers inlined and the HOB of a contiguous
        # store decided on integers; 1,933 with the model's own warm.
        calls, ops = _calls_per_op("hmmer", "viterbi", Strategy.SRV, 128,
                                   caller_warm=True)
        assert ops == 220
        assert calls <= 2100, f"{calls} calls for {ops} ops"
        calls, ops = _calls_per_op("hmmer", "viterbi", Strategy.SRV, 128)
        assert calls <= 1950, f"{calls} calls for {ops} ops"

    def test_srv_gathers_crack_without_per_lane_calls(self):
        # is/is_key_rank under SRV at its suite size: 105,763 calls
        # (CPython 3.11) with a keyword LsuEntry.make per gather or
        # scatter lane (6,016 make calls) and an L1 hit off the MRU line
        # going through access, _access_line and Cache.access; 92,411
        # with gather entries built positionally and such a hit found
        # by probing the L1 set, then settled by Cache.access alone;
        # 69,963 with the HOB of a contiguous store decided on integers.
        # Its warm play evicts from the L1, so every access is played.
        calls, ops = _calls_per_op("is", "is_key_rank", Strategy.SRV, 2048)
        assert ops == 6362
        assert calls <= 75000, f"{calls} calls for {ops} ops"


class TestGatherEntries:
    """``_entries_for``'s positional gather/scatter micro-ops against
    ``LsuEntry.make``."""

    @staticmethod
    def _model(addrs, sizes):
        model = PipelineModel(project_mod.TABLE_I)
        model.log = SimpleNamespace(
            addr=[0] + addrs, size=[4] + sizes, lane=[0] + list(range(len(addrs))),
        )
        return model

    @pytest.mark.parametrize("is_store", [False, True])
    @pytest.mark.parametrize("bits", [0, DOWN])
    def test_entries_equal_make(self, is_store, bits):
        addrs = [0x1000, 0x103E, 0x1100, 0x10FC, 0x2000, 0x1000]
        sizes = [4, 4, 8, 8, 1, 2]
        rec = SimpleNamespace(is_store=is_store, is_gather_scatter=True,
                              is_broadcast=False)
        model = self._model(addrs, sizes)
        got = model._entries_for(0x40, rec, 1, 1 + len(addrs), bits)
        region_bytes = project_mod.TABLE_I.alignment_region_bytes
        want = [
            LsuEntry.make(
                srv_id=0x40, is_store=is_store,
                access=AccessType.GATHER_SCATTER, addr=addr, size=size,
                elem=size, lane=lane, lanes_covered=1,
                region_bytes=region_bytes, direction=_DIRECTION[bits],
            )
            for lane, (addr, size) in enumerate(zip(addrs, sizes))
        ]
        assert got == want
        assert [entry.bases for entry in got] == [entry.bases for entry in want]
        assert any(len(entry.bases) > 1 for entry in got)

    def test_lane_of_size_zero_raises_like_make(self):
        rec = SimpleNamespace(is_store=False, is_gather_scatter=True,
                              is_broadcast=False)
        model = self._model([0x1000, 0x1004], [4, 0])
        with pytest.raises(ValueError) as got:
            model._entries_for(0x40, rec, 1, 3, 0)
        with pytest.raises(ValueError) as want:
            LsuEntry.make(
                srv_id=0x40, is_store=False,
                access=AccessType.GATHER_SCATTER, addr=0x1004, size=0,
                elem=0, lane=1, lanes_covered=1, region_bytes=64,
            )
        assert str(got.value) == str(want.value)
