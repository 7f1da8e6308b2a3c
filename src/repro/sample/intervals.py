"""Interval slicing over the dynamic op stream.

The sampler emulates each program once.  Two passes over that one
emulation's ops share the interval geometry defined here:

* the **fingerprint pass** (:func:`fingerprint_pass`) runs the program
  with a :class:`~repro.pipeline.trace.LogTracer`, then walks the ops
  rebuilt from the compact :class:`~repro.pipeline.trace.TraceLog`,
  slicing them into fixed-size bins of ``interval_size`` dynamic ops
  and building one feature vector per bin
  (:mod:`repro.sample.fingerprint`).  It returns the log, so memory is
  O(trace) in compact columns (tens of bytes per op); rebuilt ops are
  dropped as soon as they are fingerprinted.
* the **collection pass** (:func:`collect_segments`) walks the same log
  a second time and materialises only the representative intervals
  chosen by clustering, each with a trailing warm-up window and
  (optionally) a clone of the ambient cache state at its start.

Both walks rebuild their ops from the one log, so the collected
segments are the very ops that were fingerprinted; there is no second
emulation that could diverge from the first.

Fingerprint bins are cut strictly by op index.  Timed segments are not:
an SRV region executes atomically (its LSU ``begin_region``/
``end_region`` pairing, speculative buffer and replay decisions are only
coherent across whole regions), so segment boundaries snap to the next
*region-safe cut* — an op outside any region, or a region's own
``srv_start`` marker.  The per-op cost normalisation in
:mod:`repro.sample.project` absorbs the resulting few-op jitter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.observe.events import IntervalCounterSink
from repro.observe import events as _obs
from repro.pipeline.trace import LogTracer, RegionEvent, TraceLog, TraceOp
from repro.sample.fingerprint import FingerprintAccumulator

if TYPE_CHECKING:
    from repro.emu.interpreter import Interpreter
    from repro.emu.metrics import EmuMetrics
    from repro.memory.hierarchy import CacheHierarchy


def safe_cut(op: TraceOp) -> bool:
    """True when a segment may begin *at* ``op``.

    Cut points are ops outside any SRV region, or a region's own
    ``srv_start`` marker (the marker is recorded with ``in_region`` set,
    but nothing of the region precedes it).
    """
    return (not op.in_region) or op.region_event is RegionEvent.START


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
    #: the emulation's trace; ``log.ops(program, decode)`` rebuilds the
    #: fingerprinted ops for the collection pass
    log: TraceLog


def fingerprint_pass(
    interp: "Interpreter",
    interval_size: int,
    *,
    feed_caches: "CacheHierarchy | None" = None,
) -> FingerprintRun:
    """Run ``interp`` to completion, fingerprinting every interval.

    The interpreter must be fresh; it runs once, recording into a
    :class:`~repro.pipeline.trace.LogTracer`.  A private
    :class:`~repro.observe.events.IntervalCounterSink` is installed for
    the run (any caller-installed bus is parked and restored before the
    ops are walked) so the emulator's region/replay/fallback events
    contribute counter features deterministically.  ``feed_caches``
    optionally receives every memory access in stream order — the
    sampler uses this to warm the ambient cache hierarchy, whose
    per-interval misses are folded into the fingerprints.  The returned
    run carries the log, so the collection pass rebuilds the same ops
    without emulating again.
    """
    if interval_size <= 0:
        raise ValueError(f"interval size must be positive, got {interval_size}")
    sink = IntervalCounterSink(interval_size)
    interp.tracer = tracer = LogTracer()
    saved_bus = _obs.ACTIVE
    _obs.ACTIVE = _obs.EventBus(sink)
    try:
        interp.run()
    finally:
        _obs.ACTIVE = saved_bus
    log = tracer.log

    lanes = interp.lanes
    intervals: list[IntervalRecord] = []
    acc = FingerprintAccumulator(lanes)
    cache_access = (
        feed_caches.access_lanes if feed_caches is not None else None
    )
    start = 0
    count = 0
    # L1/L2 miss counts at the last interval boundary.  Kept in a list,
    # not on ``close`` itself: a function that refers to itself is a
    # reference cycle, which would keep what it reaches alive until the
    # cycle collector happens to run.
    misses = [0, 0]

    def close() -> None:
        if cache_access is not None:
            stats = feed_caches.stats
            acc.fold_cache_misses(
                stats.l1_misses - misses[0], stats.l2_misses - misses[1],
            )
            misses[:] = stats.l1_misses, stats.l2_misses
        idx = start // interval_size
        # every event was emitted during the run, so bins <= idx are
        # complete
        for _, counts in sink.drain(before=idx + 1):
            acc.fold_counters(counts)
        intervals.append(IntervalRecord(
            index=idx, start=start, length=count - start,
            vector=acc.vector(),
        ))

    for op in log.ops(interp.program, interp.decode):
        acc.add(op)
        if cache_access is not None and op.mem:
            cache_access(op.mem, op.mem[0].is_store)
        count += 1
        if count - start == interval_size:
            close()
            acc = FingerprintAccumulator(lanes)
            start = count
    if count > start:
        close()
    return FingerprintRun(
        interval_size=interval_size,
        intervals=tuple(intervals),
        total_ops=count,
        metrics=interp.metrics,
        log=log,
    )


# ---------------------------------------------------------------------------
# collection pass
# ---------------------------------------------------------------------------


@dataclass
class Segment:
    """One materialised representative interval, ready to time."""

    interval: int               #: interval index this segment measures
    warm: list[TraceOp] = field(default_factory=list)
    ops: list[TraceOp] = field(default_factory=list)
    #: ambient cache state cloned at the segment's first op (None when
    #: the caller did not maintain an ambient hierarchy)
    caches: "CacheHierarchy | None" = None


def collect_segments(
    ops: Iterable[TraceOp],
    targets: Iterable[int],
    interval_size: int,
    warmup: int,
    *,
    ambient: "CacheHierarchy | None" = None,
) -> Iterator[Segment]:
    """Stream ``ops`` once, yielding a :class:`Segment` per target interval.

    ``targets`` are interval indices (ascending order is enforced here).
    Each segment starts at the first region-safe cut at or after its
    nominal start and ends at the first region-safe cut at or after its
    nominal end, so whole SRV regions are never split.  The warm-up
    window is the trailing ops before the segment start — at least
    ``warmup`` of them when available, extended left as needed so the
    window itself starts at a safe cut.

    When ``ambient`` is given, every op's accesses are fed to it in
    stream order and each segment captures a clone of its state at the
    segment's first op — the cache contents an exact run would have at
    that point (up to timing-model access interleaving).
    """
    pending = deque(sorted(set(targets)))
    tail: deque[TraceOp] = deque()
    tail_start = 0        #: absolute op index of tail[0]
    cuts: deque[int] = deque()  #: absolute indices of safe cuts in tail
    current: Segment | None = None
    current_end = 0
    feed = ambient.access_lanes if ambient is not None else None

    for op in ops:
        cut = safe_cut(op)
        if current is not None and op.index >= current_end and cut:
            yield current
            current = None
            if not pending:
                return  # nothing left to collect: stop consuming the
                # rest of the stream
        if current is None and pending and cut \
                and op.index >= pending[0] * interval_size:
            j = pending.popleft()
            current = Segment(
                interval=j,
                warm=list(tail),
                caches=ambient.clone() if ambient is not None else None,
            )
            current_end = (j + 1) * interval_size
        if feed is not None and op.mem:
            feed(op.mem, op.mem[0].is_store)
        if not tail:
            tail_start = op.index
        tail.append(op)
        if cut:
            cuts.append(op.index)
        # keep >= warmup ops while never trimming into a region: advance
        # the head cut-to-cut (the first op of any trace is a safe cut,
        # so the head always sits on one) while the remaining window
        # still covers the warm-up budget
        while len(cuts) >= 2 and op.index + 1 - cuts[1] >= warmup:
            for _ in range(cuts[1] - tail_start):
                tail.popleft()
            tail_start = cuts[1]
            cuts.popleft()
        if current is not None:
            current.ops.append(op)
    if current is not None:
        yield current
