"""Static dependence analysis (Banerjee-style) over the loop IR.

For every (write, read) and (write, write) pair on the same array the
analyser classifies the potential cross-iteration dependence:

* ``NONE`` — provably no cross-iteration dependence (distinct arrays, or
  affine indices that never coincide across iterations within any vector
  group);
* ``PROVABLE_SAFE`` — a dependence exists but its distance is at least
  the vector length, so vectorising with that VL cannot violate it;
* ``PROVABLE_UNSAFE`` — a dependence with a known short distance; naive
  vectorisation *would* break semantics every group;
* ``UNKNOWN`` — at least one side of the pair is indirect: the compiler
  cannot disambiguate statically.  This is the class of loop the paper
  targets ("loops that have statically unknown memory dependencies").

The classification of a whole loop is the worst class over its pairs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd
from typing import Iterable

from repro.compiler.ir import Affine, Indirect, Loop


class DepClass(enum.IntEnum):
    """Ordered by how restrictive the class is for the vectoriser."""

    NONE = 0
    PROVABLE_SAFE = 1
    PROVABLE_UNSAFE = 2
    UNKNOWN = 3


@dataclass(frozen=True)
class Dependence:
    array: str
    kind: str          # "raw", "war", or "waw" potential
    dep_class: DepClass
    distance: int | None = None   # iterations, when provable


def _affine_pair_class(a: Affine, b: Affine, vector_length: int) -> tuple[DepClass, int | None]:
    """Classify two affine references to the same array.

    Solves ``a.scale * i + a.offset == b.scale * j + b.offset`` for
    iteration distance ``j - i`` where possible.
    """
    if a.scale == b.scale:
        if a.scale == 0:
            # both constant indices
            same = a.offset == b.offset
            return (DepClass.PROVABLE_UNSAFE if same else DepClass.NONE), (
                0 if same else None
            )
        delta = b.offset - a.offset
        if delta % a.scale:
            return DepClass.NONE, None   # indices never coincide
        distance = -delta // a.scale
        if distance == 0:
            return DepClass.NONE, 0      # same-iteration only: vector safe
        if abs(distance) >= vector_length:
            return DepClass.PROVABLE_SAFE, distance
        return DepClass.PROVABLE_UNSAFE, distance
    # Different scales: coincidence pattern exists unless offsets are in
    # different residue classes modulo gcd of the scales.
    g = gcd(a.scale, b.scale)
    if g and (b.offset - a.offset) % g:
        return DepClass.NONE, None
    return DepClass.UNKNOWN, None


def classify_pair(a, b, vector_length: int) -> tuple[DepClass, int | None]:
    """Classify two index expressions on the same array."""
    if isinstance(a, Indirect) or isinstance(b, Indirect):
        return DepClass.UNKNOWN, None
    return _affine_pair_class(a, b, vector_length)


def analyse_statements(
    loop: Loop,
    statements: "Iterable[int] | None" = None,
    vector_length: int = 16,
) -> list[Dependence]:
    """Potential cross-iteration dependences among a statement subset.

    ``statements`` selects body statement indices (``None`` = the whole
    body).  This is the region-granular entry point: the guided code
    generator asks about each candidate region separately instead of
    collapsing the loop to one verdict.
    """
    from repro.compiler.ir import Store, expr_reads

    selected = (range(len(loop.body)) if statements is None
                else sorted(set(statements)))
    writes = []
    reads = []
    for s in selected:
        stmt = loop.body[s]
        for read in expr_reads(stmt.value):
            reads.append((read.array, read.index))
        if isinstance(stmt, Store):
            writes.append((stmt.array, stmt.index))

    deps: list[Dependence] = []
    for w_array, w_index in writes:
        for r_array, r_index in reads:
            if w_array != r_array:
                continue
            dep_class, distance = classify_pair(w_index, r_index, vector_length)
            if dep_class is not DepClass.NONE:
                deps.append(Dependence(w_array, "raw", dep_class, distance))
        for w2_array, w2_index in writes:
            if w_array != w2_array or w_index is w2_index:
                continue
            dep_class, distance = classify_pair(w_index, w2_index, vector_length)
            if dep_class is not DepClass.NONE:
                deps.append(Dependence(w_array, "waw", dep_class, distance))
    return deps


def region_class(
    loop: Loop,
    statements: "Iterable[int] | None" = None,
    vector_length: int = 16,
) -> DepClass:
    """The worst dependence class among a statement subset of the loop."""
    deps = analyse_statements(loop, statements, vector_length)
    if not deps:
        return DepClass.NONE
    return max(dep.dep_class for dep in deps)
