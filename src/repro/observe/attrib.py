"""Cycle attribution: where did every simulated cycle go?

Consumes a canonical event stream (:mod:`repro.observe.events`) from one
timed run and buckets every cycle of the run into

``{compute, memory, replay, barrier, fallback, other}``

— the quantities the paper analyses in figures 8–11 but which a bare
cycle count hides.  The buckets are *exact by construction*: each bucket
is the measure of its interval set minus everything already claimed by a
higher-priority bucket, and ``other`` is the unclaimed remainder, so

    sum(buckets.values()) == total cycles

always holds (pinned by ``tests/test_observe.py``).

Priority order (highest first) and interval sources:

* ``barrier``  — ``BARRIER_STALL`` events: issue-stage idle windows
  created by the ``srv_end`` serialisation point (figure 8);
* ``fallback`` — ``REGION_END`` spans of regions executed via the
  section III-D7 sequential fallback;
* ``replay``   — ``REGION_PASS`` spans with pass number ≥ 1 (selective
  re-execution of violating lanes);
* ``memory``   — ``CACHE_MISS`` stall spans (completion beyond the L1
  hit latency) plus ``STORE_SET_CONFLICT`` squash penalties;
* ``compute``  — ``ISSUE`` spans (an op occupying execute resources);
* ``other``    — the remainder: front-end refill, mispredict redirects,
  drain, and issue-width gaps.

All intervals come from ``pipe``-domain events, so attribution is
identical on the streaming path and on a materialised trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.observe.events import Event, EventKind

#: Bucket names in report order.
BUCKETS: tuple[str, ...] = (
    "compute", "memory", "replay", "barrier", "fallback", "other",
)

#: Priority order for interval claiming (highest first).
_PRIORITY: tuple[str, ...] = (
    "barrier", "fallback", "replay", "memory", "compute",
)


def _merge(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge possibly-overlapping (start, end) intervals."""
    if not intervals:
        return []
    intervals.sort()
    merged = [intervals[0]]
    for start, end in intervals[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            if end > last_end:
                merged[-1] = (last_start, end)
        else:
            merged.append((start, end))
    return merged


def _measure(merged: list[tuple[int, int]]) -> int:
    return sum(end - start for start, end in merged)


@dataclass(frozen=True)
class RegionSlice:
    """Timing summary of one SRV region instance (``pipe`` domain)."""

    index: int
    start: int
    end: int
    passes: int
    replay_cycles: int
    fallback: bool

    @property
    def cycles(self) -> int:
        return self.end - self.start


@dataclass
class RunAttribution:
    """Exact cycle buckets plus per-region slices for one run."""

    total: int
    buckets: dict[str, int]
    regions: tuple[RegionSlice, ...] = ()

    def check(self) -> None:
        """Raise if the buckets do not sum exactly to ``total``."""
        got = sum(self.buckets.values())
        if got != self.total:
            raise AssertionError(
                f"cycle buckets sum to {got}, expected {self.total}: "
                f"{self.buckets}"
            )

    def fraction(self, bucket: str) -> float:
        return self.buckets[bucket] / self.total if self.total else 0.0


def _interval_sources(
    events: tuple[Event, ...], total: int
) -> dict[str, list[tuple[int, int]]]:
    """Clipped candidate intervals per bucket from pipe-domain events."""
    by_bucket: dict[str, list[tuple[int, int]]] = {
        name: [] for name in _PRIORITY
    }

    def clip(t: int, dur: int) -> tuple[int, int] | None:
        start = max(0, t)
        end = min(total, t + dur)
        return (start, end) if end > start else None

    for event in events:
        if event.domain != "pipe":
            continue
        kind = event.kind
        if kind is EventKind.BARRIER_STALL:
            bucket = "barrier"
        elif kind is EventKind.REGION_END and event.get("fallback"):
            bucket = "fallback"
        elif kind is EventKind.REGION_PASS:
            if event.get("fallback") or not event.get("pass"):
                continue
            bucket = "replay"
        elif kind in (EventKind.CACHE_MISS, EventKind.STORE_SET_CONFLICT):
            bucket = "memory"
        elif kind is EventKind.ISSUE:
            bucket = "compute"
        else:
            continue
        span = clip(event.t, event.dur)
        if span is not None:
            by_bucket[bucket].append(span)
    return by_bucket


def region_slices(events: tuple[Event, ...]) -> tuple[RegionSlice, ...]:
    """Per-region timing rows from the pipe-domain region events."""
    passes: dict[int, int] = {}
    replay_cycles: dict[int, int] = {}
    slices: list[RegionSlice] = []
    for event in events:
        if event.domain != "pipe":
            continue
        if event.kind is EventKind.REGION_PASS:
            region = event.get("region", -1)
            passes[region] = passes.get(region, 0) + 1
            if event.get("pass") and not event.get("fallback"):
                replay_cycles[region] = (
                    replay_cycles.get(region, 0) + event.dur
                )
        elif event.kind is EventKind.REGION_END:
            region = event.get("region", -1)
            slices.append(RegionSlice(
                index=region,
                start=event.t,
                end=event.end,
                passes=passes.get(region, 0),
                replay_cycles=replay_cycles.get(region, 0),
                fallback=bool(event.get("fallback")),
            ))
    slices.sort(key=lambda s: s.index)
    return tuple(slices)


def attribute_run(
    events: tuple[Event, ...], total_cycles: int
) -> RunAttribution:
    """Bucket every cycle of a timed run; exact by construction."""
    sources = _interval_sources(events, total_cycles)
    buckets = {name: 0 for name in BUCKETS}
    covered: list[tuple[int, int]] = []
    covered_measure = 0
    for name in _PRIORITY:
        candidate = _merge(sources[name])
        if not candidate:
            continue
        union = _merge(covered + candidate)
        union_measure = _measure(union)
        buckets[name] = union_measure - covered_measure
        covered = union
        covered_measure = union_measure
    buckets["other"] = total_cycles - covered_measure
    attribution = RunAttribution(
        total=total_cycles,
        buckets=buckets,
        regions=region_slices(events),
    )
    attribution.check()
    return attribution


def rollup(attributions) -> RunAttribution:
    """Suite-level rollup: sum totals and buckets across runs."""
    buckets = {name: 0 for name in BUCKETS}
    total = 0
    for attribution in attributions:
        total += attribution.total
        for name, value in attribution.buckets.items():
            buckets[name] += value
    combined = RunAttribution(total=total, buckets=buckets)
    combined.check()
    return combined
