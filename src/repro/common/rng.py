"""Deterministic random-input helpers for workload generators.

Every workload input generator takes an explicit seed so that experiments
are bit-for-bit reproducible; no module-level RNG state exists anywhere in
the library.
"""

from __future__ import annotations

import random
from typing import Sequence


def make_rng(seed: int, stream: str = "") -> random.Random:
    """A private RNG for ``(seed, stream)``.

    Different streams derived from one seed are independent, so a workload
    can draw its index array and its data array without interference.
    """
    return random.Random(f"{seed}/{stream}")


def periodic_conflict_indices(
    n: int, period: int, *, seed: int = 0, jitter: float = 0.0
) -> list[int]:
    """Index array reproducing the paper's listing 1 pattern.

    ``read()`` in the motivating example returns ``{3, 0, 1, 2, 7, 4, 5, 6,
    ...}``: within each group of ``period`` iterations, the first index
    points ``period - 1`` ahead (creating a cross-iteration RAW dependence
    when vectorised with >= ``period`` lanes) and the rest point one behind.
    ``jitter`` randomly breaks a fraction of groups into conflict-free
    identity mappings, thinning the violation rate.
    """
    if period < 2:
        raise ValueError("period must be at least 2")
    rng = make_rng(seed, "periodic")
    out: list[int] = []
    base = 0
    while base < n:
        group = min(period, n - base)
        if jitter > 0.0 and rng.random() < jitter:
            out.extend(range(base, base + group))
        else:
            rotated = [base + (i + 1) % group for i in range(group)]
            # rotate so that element 0 reads the last element of the group,
            # matching {3, 0, 1, 2} for period 4.
            rotated = [base + group - 1] + [base + i for i in range(group - 1)]
            out.extend(rotated[:group])
        base += group
    return out[:n]


def conflict_free_permutation(n: int, lanes: int, *, seed: int = 0) -> list[int]:
    """A permutation with no intra-vector-group conflicts.

    Each group of ``lanes`` indices is a permutation of itself with every
    destination >= its source position inside the group, so no lane reads a
    location a later lane writes.  (The identity satisfies this trivially;
    we shuffle *across* groups of unrelated elements to keep gathers busy.)
    """
    rng = make_rng(seed, "conflict-free")
    out = list(range(n))
    # Swap whole groups around: inter-group reordering cannot create
    # intra-group (cross-lane) dependences for group-local accesses.
    # Only FULL groups are shuffled — including a partial tail group
    # would shift every later group off its 16-lane boundary and break
    # the conflict-freedom guarantee.
    full = n - n % lanes
    groups = [out[i : i + lanes] for i in range(0, full, lanes)]
    rng.shuffle(groups)
    return [i for g in groups for i in g] + out[full:]


def sparse_conflict_indices(
    n: int, lanes: int, conflict_rate: float, *, seed: int = 0
) -> list[int]:
    """Indices mostly equal to the identity, with occasional backward refs.

    A fraction ``conflict_rate`` of vector groups contains exactly one lane
    whose index points at a location written by a *later* lane of the same
    group — a horizontal RAW under SRV, triggering a single-lane replay.
    """
    if not 0.0 <= conflict_rate <= 1.0:
        raise ValueError("conflict_rate must be within [0, 1]")
    rng = make_rng(seed, "sparse")
    out = list(range(n))
    bases = list(range(0, n - lanes + 1, lanes))
    if not bases:
        return out
    # exact conflict count: robust at small n where a per-group coin flip
    # could produce none at all
    count = min(len(bases), round(conflict_rate * len(bases)))
    if conflict_rate > 0.0 and count == 0:
        count = 1
    for base in rng.sample(bases, count):
        lane = rng.randrange(0, lanes - 1)
        victim = rng.randrange(lane + 1, lanes)
        out[base + lane] = base + victim
    return out


def forward_alias_indices(
    n: int,
    lanes: int,
    rate: float,
    *,
    min_dist: int | None = None,
    max_dist: int = 48,
    seed: int = 0,
) -> list[int]:
    """Mostly-identity indices with occasional *forward* references.

    A fraction ``rate`` of iterations writes ``min_dist..max_dist``
    elements ahead instead of in place.  With ``min_dist >= lanes`` the
    reference always lands in a *later* vector group, so SRV never has to
    replay (groups commit in order) — but a scalar out-of-order core sees
    genuine store-to-load aliases within its instruction window, the
    pattern that trains a store-set predictor.  This reproduces the
    benchmarks whose loops are SRV-vectorisable with *no* run-time
    violations yet whose scalar baselines pay real memory-dependence
    serialisation.
    """
    if min_dist is None:
        min_dist = lanes
    if min_dist < lanes:
        raise ValueError("min_dist below the lane count would cause replays")
    if max_dist < min_dist:
        raise ValueError("max_dist must be >= min_dist")
    rng = make_rng(seed, "forward-alias")
    out = list(range(n))
    for i in range(n):
        if rng.random() < rate and i + max_dist < n:
            out[i] = i + rng.randint(min_dist, max_dist)
    return out


def planted_conflict_indices(
    n: int,
    lanes: int,
    density: float,
    distance: int,
    *,
    seed: int = 0,
    backward: bool = False,
) -> list[int]:
    """Mostly-identity indices with conflicts of a *controlled distance*.

    A fraction ``density`` of vector groups contains exactly one lane
    whose index points ``distance`` lanes ahead inside the same group —
    a horizontal RAW whose lane distance is exactly ``distance`` (clamped
    to ``lanes - 1``).  Where :func:`sparse_conflict_indices` draws the
    victim lane uniformly, this generator pins the distance, which is
    what the fuzzer's ``dep_distance`` knob sweeps: short distances
    exercise the horizontal disambiguation fast paths, ``lanes - 1`` the
    worst-case replay mask.

    With ``backward`` the planted index points ``distance`` lanes
    *behind* instead.  A store used with a DOWN-direction loop (step -1)
    executes its high indices first, so only a backward-pointing index
    targets an iteration that runs *later* — the shape that actually
    violates under DOWN, mirroring what forward conflicts are to UP.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be within [0, 1]")
    if distance < 1:
        raise ValueError("distance must be at least 1")
    distance = min(distance, lanes - 1)
    rng = make_rng(seed, "planted")
    out = list(range(n))
    bases = list(range(0, n - lanes + 1, lanes))
    if not bases or density == 0.0:
        return out
    count = min(len(bases), round(density * len(bases)))
    if count == 0:
        count = 1
    for base in sorted(rng.sample(bases, count)):
        if backward:
            lane = rng.randrange(distance, lanes)
            out[base + lane] = base + lane - distance
        else:
            lane = rng.randrange(0, lanes - distance)
            out[base + lane] = base + lane + distance
    return out


def uniform_indices(n: int, table_size: int, *, seed: int = 0) -> list[int]:
    """Uniformly random indices into a table (RandomAccess-style updates)."""
    rng = make_rng(seed, "uniform")
    return [rng.randrange(table_size) for _ in range(n)]


def values(n: int, lo: int = 0, hi: int = 255, *, seed: int = 0) -> list[int]:
    """Uniform random data values: ``rng.randint(lo, hi)`` drawn ``n`` times.

    The draws are inlined: ``randint`` takes ``getrandbits(k)`` for ``k``
    the bit length of the range's width until the draw falls inside it,
    and so does this loop, so the values are ``randint``'s exactly.
    """
    rng = make_rng(seed, "values")
    width = hi - lo + 1
    if width <= 0 and n > 0:
        rng.randint(lo, hi)  # raises randint's own empty-range error
    getrandbits = rng.getrandbits
    k = width.bit_length()
    out: list[int] = []
    append = out.append
    for _ in range(n):
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        append(lo + r)
    return out


def arithmetic_mean(xs: Sequence[float]) -> float:
    """Arithmetic mean, summed left to right in plain float additions.

    Python 3.12's ``sum()`` compensates float rounding, so ``sum(xs)``
    can differ in the last bits between interpreters; this sum is the
    same on every version.
    """
    if not xs:
        raise ValueError("arithmetic mean of empty sequence")
    total = 0.0
    for x in xs:
        total += x
    return total / len(xs)


def geometric_mean(xs: Sequence[float]) -> float:
    """Geometric mean, as used for the paper's whole-program summaries."""
    if not xs:
        raise ValueError("geometric mean of empty sequence")
    product = 1.0
    for x in xs:
        if x <= 0:
            raise ValueError(f"geometric mean requires positive values, got {x}")
        product *= x
    return product ** (1.0 / len(xs))
