"""The seeded input helpers of ``repro.common.rng``."""

import random
import sys

import pytest

from repro.common.rng import arithmetic_mean, make_rng, values


class TestValues:
    """``values`` inlines ``randint``'s draws: the same numbers, the same
    error, on every interpreter."""

    GRID = [
        (n, lo, hi, seed)
        for n in (0, 1, 17, 300)
        for lo, hi in (
            (0, 0), (5, 5),                    # width 1
            (0, 1), (0, 255), (0, 1023),       # powers of two
            (0, 2), (0, 254), (0, 1000),
            (-128, 127), (-1000, -1), (-7, 0),  # negative lo
            (0, (1 << 64) - 1), (-(1 << 70), 1 << 70), (1 << 80, (1 << 80) + 5),
        )
        for seed in (0, 3)
    ]

    @pytest.mark.parametrize("n, lo, hi, seed", GRID)
    def test_same_stream_as_randint(self, n, lo, hi, seed):
        rng = make_rng(seed, "values")
        want = [rng.randint(lo, hi) for _ in range(n)]
        assert values(n, lo, hi, seed=seed) == want

    def test_empty_range_raises_randints_error(self):
        with pytest.raises(ValueError) as want:
            random.Random(0).randint(5, 4)
        with pytest.raises(ValueError) as got:
            values(3, 5, 4)
        assert str(got.value) == str(want.value)
        assert values(0, 5, 4) == []   # no draw, no error, as before


class TestArithmeticMean:
    def test_sums_left_to_right(self):
        xs = [1e16, 1.0, -1e16]
        # 1e16 + 1.0 rounds back to 1e16, so the plain sum is 0.0; a
        # compensated sum (Python 3.12's sum()) recovers the 1.0
        assert arithmetic_mean(xs) == 0.0
        if sys.version_info >= (3, 12):
            assert sum(xs) / len(xs) != arithmetic_mean(xs)

    def test_matches_the_plain_mean(self):
        assert arithmetic_mean([1.5, 2.5, 3.5]) == 2.5
        assert arithmetic_mean([3]) == 3.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            arithmetic_mean([])
