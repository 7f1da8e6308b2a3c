"""Set-associative cache timing model.

The caches model *timing and occupancy only* — data always lives in the
:class:`~repro.memory.image.MemoryImage`; a cache tracks which lines are
resident to decide hit/miss latency.  This matches the needs of a
cycle-approximate simulator: correctness comes from the memory image,
performance from the hit/miss accounting here.

LRU replacement, write-back with write-allocate.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass, replace

from repro.common.config import CacheConfig


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writebacks = 0


@dataclass
class _Line:
    tag: int
    dirty: bool = False


class Cache:
    """One level of set-associative cache with LRU replacement."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.stats = CacheStats()
        self._sets: list[OrderedDict[int, _Line]] = [
            OrderedDict() for _ in range(config.num_sets)
        ]
        self._offset_bits = config.line_bytes.bit_length() - 1
        self._index_mask = config.num_sets - 1
        #: ``(line number, line)`` of the most recent access: always the
        #: MRU way of its set, so a repeat touch needs no LRU update.
        #: :class:`~repro.memory.hierarchy.CacheHierarchy` reads it for its
        #: same-line fast path; ``None`` once the cache is invalidated.
        self.mru: tuple[int, _Line] | None = None

    def _locate(self, addr: int) -> tuple[int, int]:
        line_addr = addr >> self._offset_bits
        return line_addr & self._index_mask, line_addr >> (self._index_mask.bit_length())

    def lookup(self, addr: int) -> bool:
        """Non-destructive presence check (does not touch LRU or stats)."""
        index, tag = self._locate(addr)
        return tag in self._sets[index]

    def access(self, addr: int, is_write: bool) -> tuple[bool, bool]:
        """Access one line; returns ``(hit, caused_writeback)``.

        On a miss the line is allocated here (write-allocate); the caller
        is responsible for charging the next level's latency.
        """
        line_addr = addr >> self._offset_bits
        index = line_addr & self._index_mask
        tag = line_addr >> self._index_mask.bit_length()
        ways = self._sets[index]
        line = ways.get(tag)
        hit = line is not None
        evict_dirty = False
        if hit:
            ways.move_to_end(tag)
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            if len(ways) >= self.config.associativity:
                _, evicted = ways.popitem(last=False)
                if evicted.dirty:
                    evict_dirty = True
                    self.stats.writebacks += 1
            line = _Line(tag)
            ways[tag] = line
        if is_write:
            line.dirty = True
        self.mru = (line_addr, line)
        return hit, evict_dirty

    def resident_lines(self) -> int:
        """How many lines the cache holds."""
        return sum(map(len, self._sets))

    def clone(self) -> "Cache":
        """An independent copy: fresh sets of fresh lines, stats by value,
        and ``mru`` pointing at the copy's own line."""
        new = copy.copy(self)
        new.stats = replace(self.stats)
        new._sets = [
            OrderedDict([
                (tag, _Line(tag, line.dirty)) for tag, line in ways.items()
            ])
            for ways in self._sets
        ]
        if self.mru is not None:
            line_no, line = self.mru
            new.mru = (line_no, new._sets[line_no & self._index_mask][line.tag])
        return new

    def invalidate_all(self) -> None:
        for ways in self._sets:
            ways.clear()
        self.mru = None
