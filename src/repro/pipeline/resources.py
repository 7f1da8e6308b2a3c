"""Per-cycle issue bandwidth for the timing model.

:class:`PortPool` models Table I's per-cycle limits (e.g. "2 vector
loads per cycle"): it finds the earliest cycle at or after a ready time
with a free slot of the requested kind.  The finite buffers (ROB, IQ,
LSU) are queues of release times local to the pump in
:mod:`repro.pipeline.core`.

The timing model's pump does not call :meth:`PortPool.reserve` per op:
it runs the same probe loop on the per-kind maps in :attr:`PortPool.used`
directly, and re-reads them after each :meth:`PortPool.prune_before`.
"""

from __future__ import annotations

from collections import defaultdict


class PortPool:
    """Per-cycle slot limits by resource kind."""

    def __init__(self, limits: dict[str, int]) -> None:
        for kind, limit in limits.items():
            if limit <= 0:
                raise ValueError(f"port limit for {kind!r} must be positive")
        #: per-cycle slot limit by kind
        self.limits = dict(limits)
        #: slots taken per cycle, by kind.  :meth:`prune_before` replaces
        #: a kind's map, so a holder of a map re-reads it after a prune.
        self.used: dict[str, defaultdict[int, int]] = {
            kind: defaultdict(int) for kind in limits
        }

    def kinds(self) -> set[str]:
        return set(self.limits)

    def reserve(self, kind: str, earliest: int) -> int:
        """Reserve one slot of ``kind`` at the first free cycle >= earliest."""
        limit = self.limits[kind]
        used = self.used[kind]
        cycle = earliest
        while used[cycle] >= limit:
            cycle += 1
        used[cycle] += 1
        return cycle

    def usage_at(self, kind: str, cycle: int) -> int:
        return self.used[kind][cycle]

    def prune_before(self, cycle: int) -> None:
        """Forget occupancy for cycles before ``cycle``.

        Safe whenever the caller can guarantee no future ``reserve`` will
        probe an earlier cycle (the streaming pipeline derives that bound
        from the ROB commit watermark); keeps the per-kind maps
        O(machine-state) instead of O(trace).
        """
        for kind, used in self.used.items():
            if used and min(used) < cycle:
                self.used[kind] = defaultdict(
                    int, {c: n for c, n in used.items() if c >= cycle}
                )

    def footprint(self) -> int:
        """Total retained (cycle, count) entries across all kinds."""
        return sum(len(used) for used in self.used.values())
