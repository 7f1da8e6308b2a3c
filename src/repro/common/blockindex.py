"""Rows keyed by id and also filed by the address blocks they touch.

The LSU queues answer "which rows can overlap this access?" by looking
only at the blocks the access touches: a row filed under no such block
cannot share a byte with it.  The caller chooses the blocks through the
``blocks_of`` function it builds the index with; the LQ and SAQ pass an
entry's address-alignment bases.  (The speculative buffer files its
tuple records by block number inline, in ``repro.emu.speculative``.)
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence


class BlockIndex(dict):
    """A dict of rows that also files each row under ``blocks_of(row)``.

    Rows enter through :meth:`put`, which re-files a row replaced under
    different blocks (a replay moving an access), and leave through
    :meth:`drop` and :meth:`clear`; all three keep the index in step.
    """

    def __init__(self, blocks_of: Callable[[object], Sequence[Hashable]]) -> None:
        super().__init__()
        self.blocks_of = blocks_of
        self.by_block: dict[Hashable, dict[Hashable, object]] = {}

    def put(self, key: Hashable, row: object) -> None:
        """File ``row`` under ``key``, replacing any row already there."""
        blocks = self.blocks_of(row)
        old = self.get(key)
        if old is not None:
            old_blocks = self.blocks_of(old)
            if old_blocks != blocks:
                self._unfile(key, old_blocks)
        self[key] = row
        by_block = self.by_block
        for block in blocks:
            bucket = by_block.get(block)
            if bucket is None:
                by_block[block] = {key: row}
            else:
                bucket[key] = row

    def drop(self, key: Hashable) -> None:
        row = self.pop(key, None)
        if row is None:
            return
        # _unfile inline: the LSU drops one row per drained access
        by_block = self.by_block
        for block in self.blocks_of(row):
            bucket = by_block[block]
            del bucket[key]
            if not bucket:
                del by_block[block]

    def _unfile(self, key: Hashable, blocks: Sequence[Hashable]) -> None:
        by_block = self.by_block
        for block in blocks:
            bucket = by_block[block]
            del bucket[key]
            if not bucket:
                del by_block[block]

    def clear(self) -> None:
        super().clear()
        self.by_block.clear()

    def within(self, blocks: Sequence[Hashable]) -> list:
        """Rows filed under any of ``blocks``, each once."""
        if len(blocks) == 1:
            bucket = self.by_block.get(blocks[0])
            return list(bucket.values()) if bucket else []
        rows: dict = {}
        for block in blocks:
            bucket = self.by_block.get(block)
            if bucket:
                rows.update(bucket)
        return list(rows.values())
