"""Interval slicing over the dynamic op stream.

The sampler emulates each program once, recording a compact
:class:`~repro.pipeline.trace.TraceLog`.  Two passes over that one log
share the interval geometry defined here, and both read it in place, by
op index:

* the **fingerprint pass** (:func:`fingerprint_pass`) runs the program,
  then slices the log into fixed-size bins of ``interval_size`` dynamic
  ops and builds one feature vector per bin
  (:mod:`repro.sample.fingerprint`).  It returns the log, so memory is
  O(trace) in compact columns (tens of bytes per op).
* the **collection pass** (:func:`collect_segments`) walks the same log
  a second time and picks out only the representative intervals chosen
  by clustering, each as an op-index range of the log with a trailing
  warm-up range and (optionally) a clone of the ambient cache state at
  its start.

The collected segments are ranges of the very log that was
fingerprinted; there is no second emulation that could diverge from the
first.

Fingerprint bins are cut strictly by op index.  Timed segments are not:
an SRV region executes atomically (its LSU ``begin_region``/
``end_region`` pairing, speculative buffer and replay decisions are only
coherent across whole regions), so segment boundaries snap to the next
*region-safe cut* (:func:`~repro.pipeline.trace.safe_cut`) — an op
outside any region, or a region's own ``srv_start`` marker.  The per-op
cost normalisation in :mod:`repro.sample.project` absorbs the resulting
few-op jitter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.observe.events import IntervalCounterSink
from repro.observe import events as _obs
from repro.pipeline.trace import TraceLog, safe_cut
from repro.sample.fingerprint import FingerprintAccumulator

if TYPE_CHECKING:
    from repro.emu.interpreter import Interpreter
    from repro.emu.metrics import EmuMetrics
    from repro.memory.hierarchy import CacheHierarchy

@dataclass(frozen=True)
class IntervalRecord:
    """One fingerprinted interval of the dynamic stream."""

    index: int                  #: interval number (op ``i`` is in ``i // size``)
    start: int                  #: first dynamic op index
    length: int                 #: ops in the interval (the tail may be short)
    vector: tuple[float, ...]   #: fingerprint feature vector


@dataclass(frozen=True)
class FingerprintRun:
    """Result of the fingerprint pass."""

    interval_size: int
    intervals: tuple[IntervalRecord, ...]
    total_ops: int
    metrics: "EmuMetrics"
    #: the emulation's trace; the collection pass reads its segments
    #: from it
    log: TraceLog


def fingerprint_pass(
    interp: "Interpreter",
    interval_size: int,
    *,
    feed_caches: "CacheHierarchy | None" = None,
) -> FingerprintRun:
    """Run ``interp`` to completion, fingerprinting every interval.

    The interpreter must be fresh; it runs once, recording into a
    :class:`~repro.pipeline.trace.TraceLog`.  A private
    :class:`~repro.observe.events.IntervalCounterSink` is installed for
    the run (any caller-installed bus is parked and restored before the
    log is walked) so the emulator's region/replay/fallback events
    contribute counter features deterministically.  ``feed_caches``
    optionally receives every memory access in stream order — the
    sampler uses this to warm the ambient cache hierarchy, whose
    per-interval misses are folded into the fingerprints.  The returned
    run carries the log, so the collection pass reads the same ops
    without emulating again.
    """
    if interval_size <= 0:
        raise ValueError(f"interval size must be positive, got {interval_size}")
    sink = IntervalCounterSink(interval_size)
    interp.tracer = log = TraceLog(interp.program, interp.decode)
    saved_bus = _obs.ACTIVE
    _obs.ACTIVE = _obs.EventBus(sink)
    try:
        interp.run()
    finally:
        _obs.ACTIVE = saved_bus

    intervals: list[IntervalRecord] = []
    total = len(log)
    # L1/L2 miss counts at the last interval boundary
    l1_misses = l2_misses = 0
    for start in range(0, total, interval_size):
        stop = min(start + interval_size, total)
        acc = FingerprintAccumulator(interp.lanes)
        acc.add_ops(log, start, stop)
        if feed_caches is not None:
            log.play(feed_caches, start, stop)
            stats = feed_caches.stats
            acc.fold_cache_misses(
                stats.l1_misses - l1_misses, stats.l2_misses - l2_misses,
            )
            l1_misses, l2_misses = stats.l1_misses, stats.l2_misses
        idx = start // interval_size
        # every event was emitted during the run, so bins <= idx are
        # complete
        for _, counts in sink.drain(before=idx + 1):
            acc.fold_counters(counts)
        intervals.append(IntervalRecord(
            index=idx, start=start, length=stop - start,
            vector=acc.vector(),
        ))
    return FingerprintRun(
        interval_size=interval_size,
        intervals=tuple(intervals),
        total_ops=total,
        metrics=interp.metrics,
        log=log,
    )


# ---------------------------------------------------------------------------
# collection pass
# ---------------------------------------------------------------------------


@dataclass
class Segment:
    """One representative interval, as op-index ranges of the log."""

    interval: int               #: interval index this segment measures
    warm: range                 #: warm-up ops, ending where ``ops`` begins
    ops: range                  #: the measured ops
    #: ambient cache state cloned at the segment's first op (None when
    #: the caller did not maintain an ambient hierarchy)
    caches: "CacheHierarchy | None" = None


def collect_segments(
    log: TraceLog,
    targets: Iterable[int],
    interval_size: int,
    warmup: int,
    *,
    ambient: "CacheHierarchy | None" = None,
) -> Iterator[Segment]:
    """Walk ``log`` once, yielding a :class:`Segment` per target interval.

    ``targets`` are interval indices (ascending order is enforced here).
    Each segment starts at the first region-safe cut at or after its
    nominal start and ends at the first region-safe cut at or after its
    nominal end, so whole SRV regions are never split.  The warm-up
    window is the trailing ops before the segment start — at least
    ``warmup`` of them when available, extended left as needed so the
    window itself starts at a safe cut.

    When ``ambient`` is given, the log's accesses are played into it in
    stream order and each segment captures a clone of its state at the
    segment's first op — the cache contents an exact run would have at
    that point (up to timing-model access interleaving).
    """
    pending = deque(sorted(set(targets)))
    warm_start = 0              #: first op of the trailing warm-up window
    cuts: deque[int] = deque()  #: safe cuts at or after warm_start
    current: Segment | None = None
    current_end = 0
    played = 0                  #: ops already played into ``ambient``

    for index, bits in enumerate(log.bits):
        cut = safe_cut(bits)
        if current is not None and index >= current_end and cut:
            current.ops = range(current.ops.start, index)
            yield current
            current = None
            if not pending:
                return  # nothing left to collect: stop walking the log
        if current is None and pending and cut \
                and index >= pending[0] * interval_size:
            j = pending.popleft()
            if ambient is not None:
                log.play(ambient, played, index)
                played = index
            current = Segment(
                interval=j,
                warm=range(warm_start, index),
                ops=range(index, index),
                caches=ambient.clone() if ambient is not None else None,
            )
            current_end = (j + 1) * interval_size
        if cut:
            cuts.append(index)
        # keep >= warmup ops while never trimming into a region: advance
        # the window's head cut-to-cut (the first op of any trace is a
        # safe cut, so the head always sits on one) while the remaining
        # window still covers the warm-up budget
        while len(cuts) >= 2 and index + 1 - cuts[1] >= warmup:
            cuts.popleft()
            warm_start = cuts[0]
    if current is not None:
        current.ops = range(current.ops.start, len(log))
        yield current
