"""Typed event bus for simulator observability.

Instrumentation *sites* throughout the emulator
(:mod:`repro.emu.interpreter`), both timing models
(:mod:`repro.pipeline.core`, :mod:`repro.pipeline.inorder`) and the SRV
LSU (:mod:`repro.lsu.unit`) poll the module-level :data:`ACTIVE` bus —
the same pattern as :data:`repro.verify.faults.ACTIVE` — so the disabled
path costs a single ``is not None`` check per site and the simulators
stay bit-identical on cycles whether or not anyone is listening.

Three layers:

* :class:`Event` — one immutable record: kind, source domain, dynamic
  op index, timestamp (cycles for ``pipe``/``lsu`` events, emulator
  steps for ``emu`` events), optional duration/pc/lane and a
  small ``data`` tuple of key/value pairs;
* sinks — :class:`ListSink` (materialise everything),
  :class:`RingBufferSink` (bounded, for streaming runs: keeps the last
  ``capacity`` events and counts drops), :class:`CounterSink` (per-kind
  tallies only) and :class:`NullSink` (swallow — the "enabled but
  observing nothing" configuration used by the overhead guard test);
* :class:`EventBus` — routes ``emit`` calls to the sink.  A bus wrapping
  a :class:`NullSink` rebinds ``emit`` to a module-level no-op so the
  per-event cost is one dead function call, never an :class:`Event`
  allocation.

Canonical ordering
------------------

Every timed run (:func:`repro.pipeline.stream.simulate_streaming`, or
``run_program`` into a trace log followed by
:func:`repro.pipeline.simulate`) emulates the whole program before timing
it, so every emulator event is emitted before the first timing-model
event.  :func:`canonical_order` re-sorts by ``(op, domain rank)`` with a
stable sort, which groups each op's events together; the sorted sequence
is pinned event-for-event by ``tests/test_observe.py``.
"""

from __future__ import annotations

import enum
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass

from repro.common.errors import ObserveError


class EventKind(enum.Enum):
    """Event taxonomy (see docs/ARCHITECTURE.md section 9)."""

    # per-op pipeline lifecycle
    FETCH = "fetch"
    ISSUE = "issue"
    COMMIT = "commit"
    # SRV region structure
    REGION_BEGIN = "region_begin"
    REGION_PASS = "region_pass"
    REGION_END = "region_end"
    LANE_REPLAY = "lane_replay"
    SEQ_FALLBACK = "seq_fallback"
    BARRIER_STALL = "barrier_stall"
    # memory disambiguation
    H_VIOLATION = "horizontal_violation"
    V_VIOLATION = "vertical_violation"
    STORE_SET_CONFLICT = "store_set_conflict"
    WAR_SUPPRESS = "war_suppress"
    WAW_RESOLVE = "waw_resolve"
    STL_FORWARD = "store_to_load_forward"
    # memory hierarchy
    CACHE_HIT = "cache_hit"
    CACHE_MISS = "cache_miss"


#: Source domains and their rank in the canonical order.  ``emu``
#: timestamps are emulator steps; ``pipe`` and ``lsu`` timestamps are
#: simulated cycles.
DOMAIN_RANK: dict[str, int] = {"emu": 0, "pipe": 1, "lsu": 2}

#: Domains whose ``t`` field is a pipeline cycle number.
CYCLE_DOMAINS = frozenset(("pipe", "lsu"))


@dataclass(frozen=True, slots=True)
class Event:
    """One observation: immutable, hashable, cheap to compare."""

    kind: EventKind
    domain: str
    op: int           # dynamic trace-op index (-1: not op-scoped)
    t: int            # cycles (pipe/lsu) or emulator steps (emu)
    dur: int = 0
    pc: int = -1
    lane: int = -1
    #: sorted (key, value) pairs; values are ints, strs or tuples
    data: tuple = ()

    def get(self, key: str, default=None):
        for k, v in self.data:
            if k == key:
                return v
        return default

    @property
    def end(self) -> int:
        return self.t + self.dur


def canonical_order(events) -> tuple[Event, ...]:
    """Stable-sort events into the path-independent canonical order."""
    rank = DOMAIN_RANK
    return tuple(
        sorted(events, key=lambda e: (e.op, rank.get(e.domain, 9)))
    )


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------


class NullSink:
    """Swallows everything: the zero-overhead 'observe nothing' sink."""

    __slots__ = ()

    def accept(self, event: Event) -> None:  # pragma: no cover - rebound away
        pass

    def finalized(self) -> tuple[Event, ...]:
        return ()


class ListSink:
    """Materialises every event (the default for ``repro trace``)."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[Event] = []

    def accept(self, event: Event) -> None:
        self.events.append(event)

    def finalized(self) -> tuple[Event, ...]:
        return canonical_order(self.events)


class RingBufferSink:
    """Bounded sink for streaming runs: keeps the newest ``capacity``
    events and counts what it had to drop."""

    __slots__ = ("events", "capacity", "dropped")

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ObserveError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.events: deque[Event] = deque(maxlen=capacity)
        self.dropped = 0

    def accept(self, event: Event) -> None:
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(event)

    def finalized(self) -> tuple[Event, ...]:
        return canonical_order(self.events)


class CounterSink:
    """Per-kind tallies only — cheap always-on counters."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def accept(self, event: Event) -> None:
        self.counts[event.kind] += 1

    def flush(self) -> Counter:
        """Return the tallies accumulated so far and reset to zero.

        The deterministic interval-flush path used by the sampling layer:
        callers flush at fixed points in the *op stream* (not wall-clock),
        so successive flushes partition the run identically on the
        streaming and materialised paths.
        """
        out = self.counts
        self.counts = Counter()
        return out

    def finalized(self) -> tuple[Event, ...]:
        return ()


class IntervalCounterSink:
    """Per-kind tallies binned by fixed-size dynamic-op windows.

    Events are assigned to bin ``event.op // interval_size`` — a pure
    function of the op index each event is already stamped with — so the
    binned counts do not depend on the order events arrive in, and are
    identical on the streaming and materialised paths.
    Events that are not op-scoped (``op == -1``) are dropped.
    :meth:`drain` is the flush path: it hands the finished bins to the
    caller and frees them.
    """

    __slots__ = ("interval_size", "_bins")

    def __init__(self, interval_size: int) -> None:
        if interval_size <= 0:
            raise ObserveError(
                f"interval size must be positive, got {interval_size}"
            )
        self.interval_size = interval_size
        self._bins: dict[int, Counter] = {}

    def accept(self, event: Event) -> None:
        if event.op < 0:
            return
        idx = event.op // self.interval_size
        bin_ = self._bins.get(idx)
        if bin_ is None:
            bin_ = self._bins[idx] = Counter()
        bin_[event.kind] += 1

    def drain(self, before: int | None = None) -> list[tuple[int, Counter]]:
        """Flush bins with index < ``before`` (all bins when ``None``),
        returned in ascending bin order and removed from the sink."""
        if before is None:
            out = sorted(self._bins.items())
            self._bins = {}
            return out
        out = sorted(
            (idx, c) for idx, c in self._bins.items() if idx < before
        )
        for idx, _ in out:
            del self._bins[idx]
        return out

    def finalized(self) -> tuple[Event, ...]:
        return ()


# ---------------------------------------------------------------------------
# bus
# ---------------------------------------------------------------------------


# The null-sink no-ops take the exact signatures of ``_emit`` and
# ``_emit_lsu``: binding fixed positional parameters is cheaper than
# packing ``*args``, and these run once per event at every site.
def _swallow(kind, domain, op, t, dur=0, pc=-1, lane=-1, data=()) -> None:
    pass


def _swallow_lsu(kind, lane=-1, data=()) -> None:
    pass


class EventBus:
    """Routes instrumentation-site emissions to one sink.

    ``op`` and ``cycle`` are *context* attributes: the timing models set
    them per memory op so context-free sites (the LSU, which has neither
    an op index nor a clock of its own) can stamp their events via
    ``emit_lsu``.
    """

    __slots__ = ("sink", "op", "cycle", "emit", "emit_lsu", "discards")

    def __init__(self, sink) -> None:
        self.sink = sink
        self.op = -1
        self.cycle = -1
        #: whether the sink drops every event: a per-op site may then
        #: skip the bus altogether, as the timing models do
        self.discards = isinstance(sink, NullSink)
        # a null bus never allocates an Event: both emit entry points
        # degrade to no-ops
        if self.discards:
            self.emit = _swallow
            self.emit_lsu = _swallow_lsu
        else:
            self.emit = self._emit
            self.emit_lsu = self._emit_lsu

    def _emit(
        self,
        kind: EventKind,
        domain: str,
        op: int,
        t: int,
        dur: int = 0,
        pc: int = -1,
        lane: int = -1,
        data: tuple = (),
    ) -> None:
        self.sink.accept(Event(kind, domain, op, t, dur, pc, lane, data))

    def _emit_lsu(
        self, kind: EventKind, lane: int = -1, data: tuple = ()
    ) -> None:
        """``emit_lsu``: emit from the LSU using the bus's op/cycle context."""
        self._emit(kind, "lsu", self.op, self.cycle, 0, -1, lane, data)


#: The installed bus, or ``None`` (the common case).  Instrumentation
#: sites read this exactly once per scope and skip all work when unset.
ACTIVE: EventBus | None = None


def install(sink) -> EventBus:
    """Install ``sink`` behind a fresh bus; error if one is installed."""
    global ACTIVE
    if ACTIVE is not None:
        raise ObserveError("an observe event bus is already installed")
    bus = EventBus(sink)
    ACTIVE = bus
    return bus


def uninstall() -> None:
    global ACTIVE
    ACTIVE = None


@contextmanager
def capture(sink=None):
    """Context manager: install ``sink`` (default a fresh
    :class:`ListSink`), yield it, always uninstall."""
    sink = ListSink() if sink is None else sink
    install(sink)
    try:
        yield sink
    finally:
        uninstall()
