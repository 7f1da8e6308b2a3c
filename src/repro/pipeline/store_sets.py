"""Store-set memory-dependence predictor (Chrysos & Emer, ISCA 1998).

The paper's baseline reorders loads around earlier stores "based on the
outcome of a store-set predictor" (section IV-B); its functionality is
orthogonal to SRV and only affects vertical disambiguation.

Implementation: the classic two-table scheme —

* **SSIT** (store-set ID table), indexed by instruction PC, maps loads and
  stores to a store-set ID;
* **LFST** (last-fetched-store table), indexed by store-set ID, holds the
  most recent in-flight store of the set.

A load whose PC maps to a valid store set must wait for the set's last
fetched store; when a load executed ahead of a conflicting store (a
vertical RAW squash), the pair's PCs are merged into one set.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class StoreSetStats:
    load_waits: int = 0
    merges: int = 0
    squashes_avoided: int = 0


class StoreSetPredictor:
    INVALID = -1

    def __init__(self, entries: int = 256) -> None:
        self.entries = entries
        self._ssit: list[int] = [self.INVALID] * entries
        self._lfst: dict[int, int] = {}   # store-set id -> trace index of store
        self._next_set = 0
        self.stats = StoreSetStats()

    def _index(self, pc: int) -> int:
        return pc % self.entries

    # -- fetch-time queries ------------------------------------------------------

    def store_fetched(self, pc: int, op_index: int) -> None:
        """Record an in-flight store; returns nothing (loads query LFST)."""
        ss = self._ssit[pc % self.entries]  # _index, inline: once per store
        if ss != self.INVALID:
            self._lfst[ss] = op_index

    def load_depends_on(self, pc: int) -> int | None:
        """Trace index of the store this load must wait for, if any."""
        ss = self._ssit[pc % self.entries]  # _index, inline: once per load
        if ss == self.INVALID:
            return None
        dep = self._lfst.get(ss)
        if dep is not None:
            self.stats.load_waits += 1
        return dep

    def store_retired(self, pc: int, op_index: int) -> None:
        """Remove the store from LFST once no longer in flight."""
        ss = self._ssit[self._index(pc)]
        if ss != self.INVALID and self._lfst.get(ss) == op_index:
            del self._lfst[ss]

    # -- training -----------------------------------------------------------------

    def record_violation(self, load_pc: int, store_pc: int) -> None:
        """Merge the two PCs into one store set (the paper's algorithm:
        assign both to the lower-numbered existing set, or a fresh one)."""
        li, si = self._index(load_pc), self._index(store_pc)
        ls, ss = self._ssit[li], self._ssit[si]
        self.stats.merges += 1
        if ls == self.INVALID and ss == self.INVALID:
            new = self._next_set
            self._next_set += 1
            self._ssit[li] = self._ssit[si] = new
        elif ls == self.INVALID:
            self._ssit[li] = ss
        elif ss == self.INVALID:
            self._ssit[si] = ls
        else:
            winner = min(ls, ss)
            self._ssit[li] = self._ssit[si] = winner
