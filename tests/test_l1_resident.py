"""The timing models' L1-resident timed pass against the full cache play.

A model that warms its own caches (``run(log, warm=True)``,
``time_segment`` without ``caches``) times every access as an L1 hit
without playing it when the warm play evicted nothing from the L1.  The
reference is the caller warming the caches (``log.warm(model.caches)``)
and then ``run(log, warm=False)``: that path always plays every access.
Stats and observe events must be identical.
"""

from __future__ import annotations

import pytest

from repro.common.config import TABLE_I, CacheConfig, MemoryConfig
from repro.compiler import Strategy
from repro.memory.hierarchy import CacheHierarchy
from repro.observe import events as ev
from repro.pipeline.core import PipelineModel
from repro.pipeline.inorder import InOrderModel
from repro.pipeline.stream import time_segment
from repro.pipeline.trace import TraceLog, safe_cut
from repro.sample.project import _build
from repro.workloads import all_loops

N = 64
MODELS = {"ooo": PipelineModel, "inorder": InOrderModel}
#: a direct-mapped L1 of two lines: every suite loop's warm play evicts
#: from it
TINY_L1 = TABLE_I.with_overrides(memory=MemoryConfig(
    l1=CacheConfig(128, 1, hit_latency=2),
))

_LOGS: dict = {}


def _log(spec, strategy: Strategy) -> TraceLog:
    key = (spec.name, strategy)
    if key not in _LOGS:
        interp = _build(spec, strategy, 0, min(spec.n, N), TABLE_I)
        interp.tracer = log = TraceLog(interp.program, interp.decode)
        interp.run()
        _LOGS[key] = log
    return _LOGS[key]


def _timed(core: str, config, log: TraceLog, own_warm: bool):
    """``(stats, events, shortcut taken)`` of one timed run of ``log``."""
    model = MODELS[core](config)
    with ev.capture() as sink:
        if own_warm:
            stats = model.run(log, warm=True)
        else:
            log.warm(model.caches)
            stats = model.run(log)
    return stats, sink.finalized(), model._l1_resident


def _suite():
    return [spec for _, spec in all_loops()]


class TestResidentRunMatchesFullPlay:
    @pytest.mark.parametrize("core", sorted(MODELS))
    @pytest.mark.parametrize("strategy", [Strategy.SRV, Strategy.SVE])
    def test_suite_loops(self, core, strategy):
        shortcuts = 0
        for spec in _suite():
            log = _log(spec, strategy)
            fast, fast_events, resident = _timed(core, TABLE_I, log, True)
            full, full_events, reference_resident = _timed(
                core, TABLE_I, log, False)
            assert not reference_resident
            assert fast == full, spec.name
            assert fast_events == full_events, spec.name
            assert fast.l1_misses == fast.l2_misses == 0 or not resident
            shortcuts += resident
        # at this size all but a loop or two fit the L1 (some gathers
        # spread over more lines of a set than it has ways)
        assert shortcuts >= len(_suite()) - 2

    @pytest.mark.parametrize("core", sorted(MODELS))
    def test_tiny_l1_evicts_and_keeps_the_full_play(self, core):
        misses = 0
        for spec in _suite():
            log = _log(spec, Strategy.SRV)
            fast, fast_events, resident = _timed(core, TINY_L1, log, True)
            full, full_events, _ = _timed(core, TINY_L1, log, False)
            assert not resident, spec.name
            assert fast == full and fast_events == full_events, spec.name
            misses += fast.l1_misses
        assert misses

    @pytest.mark.parametrize("core", sorted(MODELS))
    def test_zero_size_access_keeps_the_full_play(self, core):
        spec = _suite()[0]
        log = _log(spec, Strategy.SRV)
        copy = TraceLog(log.program, None)
        for name in ("pc", "bits", "bounds", "addr", "size", "store", "lane"):
            getattr(copy, name)[:] = getattr(log, name)
        copy.replay = log.replay
        addrs = copy.addr
        # a lane inside the line of the lane before it: the warm play
        # counts it as a repeat hit and does not reject its size
        lane = next(a for a in range(len(addrs) // 2, len(addrs))
                    if addrs[a] % 64 and addrs[a] // 64 == addrs[a - 1] // 64)
        copy.size[lane] = 0
        model = MODELS[core](TABLE_I)
        model.warm(copy)
        assert not model._l1_resident
        errors = []
        for own_warm in (True, False):
            with pytest.raises(ValueError) as info:
                _timed(core, TABLE_I, copy, own_warm)
            errors.append(str(info.value))
        assert errors[0] == errors[1] == "access size must be positive, got 0"
        model.warm(log)
        assert model._l1_resident


class TestSegments:
    @pytest.mark.parametrize("core", sorted(MODELS))
    def test_segment_without_caches_matches_prewarmed_caches(self, core):
        for spec in _suite()[:8]:
            log = _log(spec, Strategy.SRV)
            cut = next(
                (i for i in range(len(log) // 2, len(log))
                 if safe_cut(log.bits[i])), None)
            if cut is None:
                continue
            segment, warm = range(cut, len(log)), range(cut)
            caches = CacheHierarchy(TABLE_I.memory)
            log.warm(caches, 0, len(log))
            full = time_segment(log, segment, core=core, warm=warm,
                                caches=caches)
            fast = time_segment(log, segment, core=core, warm=warm)
            assert fast == full, spec.name
