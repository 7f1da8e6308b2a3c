"""Per-interval fingerprints over the dynamic op stream.

Each interval is summarised by a fixed-order vector of rates — the
memory-access-vector idea: op-class mix from the static
:class:`~repro.pipeline.decode.DecodeRecord` of every op, memory shape
(gather/scatter and broadcast fractions, mask/predicate density, a
coarse stride signature over successive same-pc addresses), SRV region
structure (entries, replayed lanes, fallback coverage), and the
emulator-side observe counters folded in per interval
(:class:`~repro.observe.events.IntervalCounterSink`).  Everything is a
fraction or a per-op rate, so intervals of different phases are
comparable and the tail interval (shorter than the rest) needs no
special casing.

Determinism: the vector is a pure function of the interval's logged ops
and events (events are binned by the op index they are stamped with, not
by arrival order), which is pinned by ``tests/test_sample.py``.
"""

from __future__ import annotations

from collections import Counter

from repro.observe.events import EventKind
from repro.pipeline.trace import (
    EV_START,
    EVENT_MASK,
    IN_FALLBACK,
    IN_REGION,
    OpClass,
    TraceLog,
)

#: OpClass members in declaration order — the head of every vector.
_OP_CLASSES: tuple[OpClass, ...] = tuple(OpClass)

#: Observe counters folded into the vector (emu-domain region structure).
_COUNTER_KINDS: tuple[EventKind, ...] = (
    EventKind.REGION_BEGIN,
    EventKind.REGION_PASS,
    EventKind.LANE_REPLAY,
    EventKind.SEQ_FALLBACK,
)

#: Stride-signature bucket upper bounds in bytes (log-spaced); the last
#: bucket is unbounded.  Buckets: zero, <=64, <=4096, >4096.
_STRIDE_SMALL = 64
_STRIDE_MEDIUM = 4096

#: Feature names in vector order (documentation + report output).
FEATURE_NAMES: tuple[str, ...] = tuple(
    f"class:{c.value}" for c in _OP_CLASSES
) + (
    "mem:lanes_per_op",
    "mem:gather_scatter_frac",
    "mem:broadcast_frac",
    "mem:mask_density",
    "mem:stride_zero",
    "mem:stride_small",
    "mem:stride_medium",
    "mem:stride_large",
    "region:op_frac",
    "region:fallback_frac",
    "region:replay_lanes_per_op",
    "region:entries_per_op",
    # ambient-hierarchy miss rates: a function of access *order* only
    # (no timing), so the functional pass computes them exactly — and
    # they are the one signal that separates intervals with identical
    # instruction mix but different locality (and therefore different
    # cycles-per-op)
    "cache:l1_miss_per_op",
    "cache:l2_miss_per_op",
) + tuple(f"event:{k.value}" for k in _COUNTER_KINDS)


class FingerprintAccumulator:
    """Streaming accumulator for one interval's feature vector."""

    __slots__ = (
        "_lanes", "_ops", "_class_counts", "_mem_lane_accesses",
        "_gs_lane_accesses", "_broadcast_ops", "_vec_mem_ops",
        "_mask_lane_sum", "_region_ops", "_fallback_ops",
        "_replay_lanes", "_region_entries", "_stride_buckets",
        "_last_addr", "_stride_samples", "_counters",
        "_l1_misses", "_l2_misses",
    )

    def __init__(self, lanes: int) -> None:
        self._lanes = max(1, lanes)
        self._ops = 0
        self._class_counts: Counter = Counter()
        self._mem_lane_accesses = 0
        self._gs_lane_accesses = 0
        self._broadcast_ops = 0
        self._vec_mem_ops = 0
        self._mask_lane_sum = 0
        self._region_ops = 0
        self._fallback_ops = 0
        self._replay_lanes = 0
        self._region_entries = 0
        self._stride_buckets = [0, 0, 0, 0]
        self._last_addr: dict[int, int] = {}
        self._stride_samples = 0
        self._counters: Counter = Counter()
        self._l1_misses = 0
        self._l2_misses = 0

    def add_ops(self, log: TraceLog, start: int, stop: int) -> None:
        """Fold ops ``start:stop`` of ``log``, read in place."""
        records = log.records
        pcs = log.pc
        flags = log.bits
        bounds = log.bounds
        addrs = log.addr
        replay = log.replay
        class_counts = self._class_counts
        last_addr = self._last_addr
        buckets = self._stride_buckets
        for index in range(start, stop):
            pc = pcs[index]
            bits = flags[index]
            rec = records[pc]
            class_counts[rec.op_class] += 1
            if bits & IN_REGION:
                self._region_ops += 1
                if bits & IN_FALLBACK:
                    self._fallback_ops += 1
                if bits & EVENT_MASK == EV_START:
                    self._region_entries += 1
            lanes = replay.get(index)
            if lanes:
                self._replay_lanes += len(lanes)
            lo = bounds[index]
            n_access = bounds[index + 1] - lo
            if not n_access:
                continue
            self._mem_lane_accesses += n_access
            if rec.is_gather_scatter:
                self._gs_lane_accesses += n_access
            if rec.is_vector and rec.is_mem:
                self._vec_mem_ops += 1
                self._mask_lane_sum += n_access
                if rec.is_broadcast:
                    self._broadcast_ops += 1
            # stride signature: first-lane address delta per static pc
            addr = addrs[lo]
            last = last_addr.get(pc)
            last_addr[pc] = addr
            if last is not None:
                delta = abs(addr - last)
                self._stride_samples += 1
                if delta == 0:
                    buckets[0] += 1
                elif delta <= _STRIDE_SMALL:
                    buckets[1] += 1
                elif delta <= _STRIDE_MEDIUM:
                    buckets[2] += 1
                else:
                    buckets[3] += 1
        self._ops += stop - start

    def fold_counters(self, counts: Counter) -> None:
        """Fold one interval bin of observe-counter tallies."""
        self._counters.update(counts)

    def fold_cache_misses(self, l1: int, l2: int) -> None:
        """Fold the interval's ambient-hierarchy miss deltas."""
        self._l1_misses += l1
        self._l2_misses += l2

    def vector(self) -> tuple[float, ...]:
        ops = max(1, self._ops)
        lane_acc = max(1, self._mem_lane_accesses)
        strides = max(1, self._stride_samples)
        vec_mem = max(1, self._vec_mem_ops)
        out = [self._class_counts[c] / ops for c in _OP_CLASSES]
        out.extend((
            self._mem_lane_accesses / ops,
            self._gs_lane_accesses / lane_acc,
            self._broadcast_ops / vec_mem,
            self._mask_lane_sum / (vec_mem * self._lanes),
            self._stride_buckets[0] / strides,
            self._stride_buckets[1] / strides,
            self._stride_buckets[2] / strides,
            self._stride_buckets[3] / strides,
            self._region_ops / ops,
            self._fallback_ops / ops,
            self._replay_lanes / ops,
            self._region_entries / ops,
            self._l1_misses / ops,
            self._l2_misses / ops,
        ))
        out.extend(self._counters[k] / ops for k in _COUNTER_KINDS)
        return tuple(out)
