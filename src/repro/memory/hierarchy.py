"""Two-level cache hierarchy with the paper's Table I latencies.

``access`` returns the latency in cycles for a (naturally small) memory
access and updates per-level statistics.  A vector contiguous access that
spans two cache lines is charged for both lines; gathers/scatters access
the hierarchy once per lane (the pipeline cracks them into micro-ops
before reaching here).

Consecutive lanes of a vector access mostly touch the line the L1 touched
last.  That line is the MRU way of its set (``Cache.mru``), so a repeat
touch is an L1 hit that leaves the LRU order unchanged: the hierarchy
counts it and marks the line dirty on a write without a set lookup.
:meth:`CacheHierarchy.access_lanes` plays all lanes of one trace op and
skips even the per-lane call for a lane that stays inside that line; a
lane that hits another single line in the L1 calls ``Cache.access``
directly.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

from repro.common.config import MemoryConfig
from repro.memory.cache import Cache


@dataclass
class HierarchyStats:
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0

    def reset(self) -> None:
        self.l1_hits = 0
        self.l1_misses = 0
        self.l2_hits = 0
        self.l2_misses = 0


class CacheHierarchy:
    def __init__(self, config: MemoryConfig | None = None) -> None:
        self.config = config or MemoryConfig()
        self.l1 = Cache(self.config.l1, "L1D")
        self.l2 = Cache(self.config.l2, "L2")
        self.stats = HierarchyStats()

    def _access_line(self, line_addr: int, is_write: bool) -> int:
        l1_hit, _ = self.l1.access(line_addr, is_write)
        if l1_hit:
            self.stats.l1_hits += 1
            return self.config.l1.hit_latency
        self.stats.l1_misses += 1
        l2_hit, _ = self.l2.access(line_addr, is_write)
        if l2_hit:
            self.stats.l2_hits += 1
            return self.config.l1.hit_latency + self.config.l2.hit_latency
        self.stats.l2_misses += 1
        return (
            self.config.l1.hit_latency
            + self.config.l2.hit_latency
            + self.config.dram_latency
        )

    def access(self, addr: int, size: int, is_write: bool) -> int:
        """Latency in cycles for an access of ``size`` bytes at ``addr``.

        Accesses that straddle cache lines pay the worst line's latency
        (the lines are fetched in parallel on separate ports).
        """
        if size <= 0:
            raise ValueError(f"access size must be positive, got {size}")
        line = self.config.l1.line_bytes
        l1 = self.l1
        worst = 0
        for line_no in range(addr // line, (addr + size - 1) // line + 1):
            mru = l1.mru
            if mru is not None and mru[0] == line_no:
                # the line the L1 touched last is the MRU way of its set:
                # a hit that leaves the LRU order unchanged
                l1.stats.hits += 1
                self.stats.l1_hits += 1
                if is_write:
                    mru[1].dirty = True
                latency = self.config.l1.hit_latency
            else:
                latency = self._access_line(line_no * line, is_write)
            if latency > worst:
                worst = latency
        return worst

    def access_lanes(self, addrs, sizes, lo: int, hi: int,
                     is_write: bool) -> int:
        """Worst latency of one op's lane accesses, in lane order.

        The op's lanes are ``addrs[lo:hi]`` and ``sizes[lo:hi]``, read in
        place: the columns of a whole trace log pass as they are.  Exactly
        ``max(access(addrs[a], sizes[a], is_write) for a in range(lo,
        hi))`` (0 for no lanes), with the same stats, LRU order and dirty
        bits.  A lane that lies inside one line is settled here when it
        hits in the L1: inside the MRU line (the line the previous lane
        ended on) it is counted as that hit without a call, and inside
        another line present in its set (probed in place) it goes
        straight to ``Cache.access``.  Only an L1 miss or a lane that
        straddles lines goes through :meth:`access`.  The lanes of one
        trace op all load or all store.
        """
        line = self.config.l1.line_bytes
        l1 = self.l1
        l1_access = l1.access
        sets = l1._sets
        index_mask = l1._index_mask
        tag_shift = index_mask.bit_length()
        hit_latency = self.config.l1.hit_latency
        stats = self.stats
        access = self.access
        mru = l1.mru
        worst = 0
        repeats = 0
        for a in range(lo, hi):
            addr = addrs[a]
            size = sizes[a]
            line_no = addr // line
            if size > 0 and line_no == (addr + size - 1) // line:
                if mru is not None and line_no == mru[0]:
                    repeats += 1
                    if is_write:
                        mru[1].dirty = True
                    continue
                if line_no >> tag_shift in sets[line_no & index_mask]:
                    # an L1 hit off the MRU line: _access_line's hit path
                    l1_access(line_no * line, is_write)
                    stats.l1_hits += 1
                    if hit_latency > worst:
                        worst = hit_latency
                    mru = l1.mru
                    continue
            if repeats:
                # settle the skipped hits first, as the per-lane loop
                # would have, in case this access raises
                l1.stats.hits += repeats
                stats.l1_hits += repeats
                repeats = 0
            latency = access(addr, size, is_write)
            if latency > worst:
                worst = latency
            mru = l1.mru
        if repeats:
            l1.stats.hits += repeats
            stats.l1_hits += repeats
            if hit_latency > worst:
                worst = hit_latency
        return worst

    def clone(self) -> "CacheHierarchy":
        """An independent copy of both levels and the stats."""
        new = copy.copy(self)
        new.l1, new.l2 = self.l1.clone(), self.l2.clone()
        new.stats = replace(self.stats)
        return new

    def warm(self, addr: int, size: int) -> None:
        """Install lines without recording statistics (test setup helper)."""
        saved = (
            copy.copy(self.stats),
            copy.copy(self.l1.stats),
            copy.copy(self.l2.stats),
        )
        self.access(addr, size, is_write=False)
        self.stats, self.l1.stats, self.l2.stats = saved

    def reset_stats(self) -> None:
        self.stats.reset()
        self.l1.stats.reset()
        self.l2.stats.reset()
