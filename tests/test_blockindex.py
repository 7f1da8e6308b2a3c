"""BlockIndex: a dict of rows whose block index stays in step with it."""

import random
from operator import attrgetter
from types import SimpleNamespace

import pytest

from repro.common.blockindex import BlockIndex


def _row(*blocks):
    return SimpleNamespace(blocks=blocks)


def _filed(index: BlockIndex) -> set:
    return {(b, k) for b, rows in index.by_block.items() for k in rows}


@pytest.mark.parametrize("seed", range(10))
def test_random_puts_drops_and_lookups_match_a_scan(seed):
    rng = random.Random(seed)
    index = BlockIndex(attrgetter("blocks"))
    rows = {}
    for _ in range(400):
        roll = rng.random()
        key = rng.randrange(12)
        if roll < 0.6:
            first = rng.randrange(8)
            rows[key] = _row(*range(first, first + rng.randint(1, 3)))
            index.put(key, rows[key])
        elif roll < 0.9:
            index.drop(key)
            rows.pop(key, None)
        elif roll < 0.93:
            index.clear()
            rows.clear()
        assert index == rows
        assert _filed(index) == {(b, k) for k, r in rows.items() for b in r.blocks}
        assert all(
            bucket[k] is index[k] for bucket in index.by_block.values() for k in bucket
        )
        probe = tuple(range(rng.randrange(8), 8))[: rng.randint(1, 3)]
        want = [r for r in rows.values() if set(r.blocks) & set(probe)]
        got = index.within(probe)
        assert sorted(map(id, got)) == sorted(map(id, want))


def test_put_under_new_blocks_unfiles_the_old_ones():
    index = BlockIndex(attrgetter("blocks"))
    old, new = _row(3, 4), _row(4, 5)
    index.put("a", old)
    index.put("a", new)
    assert index == {"a": new}
    assert index.by_block == {4: {"a": new}, 5: {"a": new}}
    assert index.within((3,)) == []
