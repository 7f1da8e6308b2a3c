"""Vertical disambiguation logic (paper section IV-B).

Vertical dependences are the conventional inter-instruction dependences of
the baseline out-of-order core.  For an issuing access, each prior entry
with a matching address-alignment base contributes a *VOB*
(vertically-overlapped bytes) bit vector: the AND of the two
bytes-accessed vectors.  ORing all VOBs gives the overall VOB — for a
load, the bytes obtainable by store-to-load forwarding; for a store, a
non-zero overall VOB against younger loads signals a true vertical
violation requiring a squash.
"""

from __future__ import annotations

from repro.lsu.entries import LsuEntry


def vob_for_pair(issuing: LsuEntry, prior: LsuEntry) -> dict[int, int]:
    """Per-alignment-base VOB masks between two entries.

    Only regions present in *both* entries produce a mask ("a match
    occurs … since they have the same address-alignment base").
    """
    result: dict[int, int] = {}
    for chunk in issuing.chunks:
        other = prior.chunk_for_base(chunk.base)
        if other is None:
            continue
        bits = chunk.bytes_accessed & other.bytes_accessed
        if bits:
            result[chunk.base] = bits
    return result
