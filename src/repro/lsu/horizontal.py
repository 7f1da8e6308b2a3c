"""Horizontal disambiguation logic (paper sections IV-C and IV-D).

Horizontal dependences are the new, cross-lane dependences SRV detects.
For every pair of (issuing access, prior entry) sharing an
address-alignment base, the logic builds:

* the *horizontal-violation bit vector* — bytes of the region where the
  **prior** entry's lane is *sequentially later* than the issuing access's
  lane for that byte, and
* the *HOB* (horizontally-overlapped bytes) bit vector — the AND of the
  VOB and the horizontal-violation vector: the overlapped bytes that
  actually violate.

Interpretation depends on who is issuing:

* **issuing load vs prior store** — a non-zero HOB is a WAR: those bytes
  were written by a later lane and are *not forwardable*; the load reads
  them from the memory hierarchy (or from sequentially older SDQ entries).
* **issuing store vs prior load** — a non-zero HOB is a horizontal RAW:
  the prior load in a later lane already read stale bytes.  Reducing the
  HOB by the element size yields the lanes to set in the SRV-needs-replay
  register (the worked example of section IV-D).
* **issuing store vs prior store** — a non-zero HOB is a WAW, resolved by
  ordered selective writeback.

The per-access-type constructions of section IV-C (contiguous×contiguous,
gather×scatter, contiguous×scatter, gather×contiguous, broadcast×…) all
reduce to one predicate once each byte is mapped to the lane that accesses
it: *prior-lane(byte) > issuing-lane(byte)*.  ``LsuEntry.lane_of_byte``
encodes the per-type lane geometry (including the DOWN-direction mirror of
section III-A); broadcast entries are expanded per lane.
"""

from __future__ import annotations

from repro.isa.instructions import SrvDirection
from repro.lsu.entries import AccessType, LsuEntry
from repro.lsu.vertical import vob_for_pair

#: Memo for :func:`horizontal_violation_vector`.  The vector is a pure
#: function of the two entries' lane geometry *relative to the region
#: base* (every per-byte term below is of the form ``(base + bit) -
#: entry.addr``), so identical geometry across loop iterations — the
#: common case, since array strides typically advance whole alignment
#: regions — hits the cache.  The vectors are ``int`` masks, so every
#: hit returns a value no caller can mutate.
_VIOLATION_MEMO: dict[tuple, int] = {}
_VIOLATION_MEMO_MAX = 1 << 16


def horizontal_violation_vector(
    issuing: LsuEntry, prior: LsuEntry, base: int, region_bytes: int
) -> int:
    """Bytes of region ``base`` where the prior entry is in a later lane.

    Built independently of the overlap (as in figure 5, where the full
    suffix of the region is marked) and later ANDed with the VOB.
    """
    prior_chunk = prior.chunk_for_base(base)
    if prior_chunk is None:
        return 0
    memo_key = (
        prior_chunk.bytes_accessed,
        prior.access,
        prior.lane,
        prior.lanes_covered,
        prior.elem,
        prior.direction,
        base - prior.addr,
        issuing.access,
        issuing.lane,
        issuing.lanes_covered,
        issuing.elem,
        issuing.direction,
        base - issuing.addr,
        issuing.size,
        region_bytes,
    )
    cached = _VIOLATION_MEMO.get(memo_key)
    if cached is not None:
        return cached
    # The predicate prior-lane(byte) > issuing-lane(byte) is constant on
    # each run of bytes between consecutive element boundaries of the two
    # entries and the ends of the issuer's span, so it is evaluated once
    # per run over the prior's bytes, each true run ORed in as a mask.
    # Byte ``b`` of the region is address ``base + b``; the lane geometry
    # is that of LsuEntry.lane_span_of_byte and _issuing_lane_for_byte.
    p_mask = prior_chunk.bytes_accessed
    bits = 0
    if p_mask:
        lo = (p_mask & -p_mask).bit_length() - 1
        hi = p_mask.bit_length()
        runs = {lo}
        p_lane = prior.lane
        p_contig = prior.access is AccessType.CONTIGUOUS
        if p_contig:
            p_off, p_elem = base - prior.addr, prior.elem
            p_mirror = (
                prior.lanes_covered - 1
                if prior.direction is SrvDirection.DOWN
                else None
            )
            runs.update(range(lo + -(lo + p_off) % p_elem, hi, p_elem))
        elif prior.access is AccessType.BROADCAST:
            p_lane += prior.lanes_covered - 1
        i_lane = issuing.lane
        i_contig = issuing.access is AccessType.CONTIGUOUS
        if i_contig:
            i_off, i_size, i_elem = base - issuing.addr, issuing.size, issuing.elem
            i_mirror = (
                issuing.lanes_covered - 1
                if issuing.direction is SrvDirection.DOWN
                else None
            )
            # the issuer's span is region bytes [-i_off, i_size - i_off)
            first = -i_off if -i_off >= lo else lo + -(lo + i_off) % i_elem
            runs.update(range(first, min(i_size - i_off, hi), i_elem))
            if lo < i_size - i_off < hi:
                runs.add(i_size - i_off)
        starts = sorted(runs)
        for start, stop in zip(starts, starts[1:] + [hi]):
            prior_max = p_lane
            if p_contig:
                index = (start + p_off) // p_elem
                prior_max += p_mirror - index if p_mirror is not None else index
            issuing_lane = i_lane
            if i_contig and 0 <= start + i_off < i_size:
                index = (start + i_off) // i_elem
                issuing_lane += i_mirror - index if i_mirror is not None else index
            if prior_max > issuing_lane:
                bits |= ((1 << (stop - start)) - 1) << start
        bits &= p_mask
    if len(_VIOLATION_MEMO) >= _VIOLATION_MEMO_MAX:
        _VIOLATION_MEMO.clear()
    _VIOLATION_MEMO[memo_key] = bits
    return bits


def _issuing_lane_for_byte(issuing: LsuEntry, byte_addr: int) -> int:
    """Lane of the issuing access relevant for the comparison at ``byte_addr``.

    If the issuing access covers the byte, the oldest lane accessing that
    byte is used.  Otherwise (the violation vector is built for bytes the
    issuing access does not touch, cf. figure 5 setting "all but the first
    4 bits") the issuing entry's own lane field is used — for broadcast
    issuers that is the *oldest* covered lane, matching ``i_lane`` in
    :func:`horizontal_violation_vector`.
    """
    if issuing.addr <= byte_addr < issuing.addr + issuing.size:
        lo, _ = issuing.lane_span_of_byte(byte_addr)
        return lo
    return issuing.lane


def hob_for_pair(
    issuing: LsuEntry, prior: LsuEntry, region_bytes: int
) -> dict[int, int]:
    """Per-base HOB = VOB AND horizontal-violation (figure 4)."""
    result: dict[int, int] = {}
    for chunk in issuing.chunks:
        other = prior.chunk_for_base(chunk.base)
        if other is None:
            continue
        vob_bits = chunk.bytes_accessed & other.bytes_accessed
        if not vob_bits:
            continue
        hob_bits = vob_bits & horizontal_violation_vector(
            issuing, prior, chunk.base, region_bytes
        )
        if hob_bits:
            result[chunk.base] = hob_bits
    return result


def may_violate(issuing: LsuEntry, prior: LsuEntry) -> bool:
    """Whether :func:`hob_for_pair` is non-empty, decided on ints.

    The HOB is the overlapped bytes where prior-lane(byte) >
    issuing-lane(byte).  The issuing lane is the issuer's lane field,
    or, for a contiguous issuer, the lane at the byte; the prior lane is
    the latest one at the byte.  Both are step functions of the address
    that change only at an element start of a contiguous entry, so the
    difference is tested at the overlap's first byte and at the first
    and last element start of each contiguous entry inside it:

    * between two prior element starts the prior lane is constant and
      an UP issuer's lane does not fall, and from one prior start to the
      next the prior lane gains 1 while the issuer's gains at least 1
      (prior elements no narrower) or at most 1 (no wider): the largest
      difference of an UP pair is at the first byte or at the first or
      last prior start;
    * a DOWN pair is the mirror image, with the issuer's starts;
    * in a mixed pair, or against a prior of one lane, the difference
      is monotone, so it peaks at one end of the overlap; the last byte
      lies in the same steps as the last element start inside it.

    A single-lane issuer meets the prior's latest lane at one end of the
    overlap.  The lanes are computed inline: this runs for every pair
    of rows a store's issue matches.
    """
    lo = max(issuing.addr, prior.addr)
    hi = min(issuing.addr + issuing.size, prior.addr + prior.size)
    if lo >= hi:
        return False
    last = hi - 1
    p_addr = prior.addr
    p_elem = prior.elem
    access = prior.access
    p_contig = access is AccessType.CONTIGUOUS
    # a contiguous prior's lane at byte b is p_lane -/+ the element index
    p_down = p_contig and prior.direction is SrvDirection.DOWN
    p_lane = prior.lane
    if p_down or access is AccessType.BROADCAST:
        p_lane += prior.lanes_covered - 1
    if issuing.access is not AccessType.CONTIGUOUS:
        lane = issuing.lane
        if not p_contig:
            return p_lane > lane
        if p_down:
            return p_lane - (lo - p_addr) // p_elem > lane
        return p_lane + (last - p_addr) // p_elem > lane
    i_addr = issuing.addr
    i_elem = issuing.elem
    i_down = issuing.direction is SrvDirection.DOWN
    i_lane = issuing.lane
    if i_down:
        i_lane += issuing.lanes_covered - 1
    points = [lo]
    first = lo + (i_addr - lo) % i_elem
    if first < hi:
        points.append(first)
        points.append(last - (last - i_addr) % i_elem)
    if p_contig:
        first = lo + (p_addr - lo) % p_elem
        if first < hi:
            points.append(first)
            points.append(last - (last - p_addr) % p_elem)
    for byte_addr in points:
        prior_lane = p_lane
        if p_contig:
            index = (byte_addr - p_addr) // p_elem
            prior_lane = p_lane - index if p_down else p_lane + index
        index = (byte_addr - i_addr) // i_elem
        if prior_lane > (i_lane - index if i_down else i_lane + index):
            return True
    return False


def hob_and_forwardable(
    issuing: LsuEntry, prior: LsuEntry, region_bytes: int
) -> tuple[dict[int, int], dict[int, int]]:
    """One pass yielding (:func:`hob_for_pair`, :func:`forwardable_mask`).

    An issuing load needs both views of the same VOB/violation pair; the
    LSU calls this so the violation vector is built once per (pair, base)
    instead of twice — this pairing runs once per (load, SAQ entry) and
    dominates load-issue time.  Empty masks are left out of both dicts.
    """
    hobs: dict[int, int] = {}
    forwardable: dict[int, int] = {}
    for chunk in issuing.chunks:
        other = prior.chunk_for_base(chunk.base)
        if other is None:
            continue
        vob_bits = chunk.bytes_accessed & other.bytes_accessed
        if not vob_bits:
            continue
        base = chunk.base
        violation = horizontal_violation_vector(issuing, prior, base, region_bytes)
        hob_bits = vob_bits & violation
        if hob_bits:
            hobs[base] = hob_bits
        ok_bits = vob_bits & ~violation
        if ok_bits:
            forwardable[base] = ok_bits
    return hobs, forwardable


def overall_hob(
    issuing: LsuEntry, priors: list[LsuEntry], region_bytes: int
) -> dict[int, int]:
    """OR of per-entry HOBs — "all HOB bit vectors are ORed together"."""
    combined: dict[int, int] = {}
    for prior in priors:
        for base, bits in hob_for_pair(issuing, prior, region_bytes).items():
            combined[base] = combined.get(base, 0) | bits
    return combined


def replay_lanes_from_hob(
    issuing: LsuEntry,
    hob_by_base: dict[int, int],
    priors: list[LsuEntry],
    region_bytes: int,
) -> set[int]:
    """Translate HOB bytes back into SRV-needs-replay lanes (section IV-D).

    The paper reduces the overall HOB by the element size recorded in the
    LSU.  The reduction must map each violating byte to the lane of the
    *prior load* that read it (the lane to be replayed), which for
    contiguous loads is position-dependent and for gathers is the entry's
    lane field.  Only lanes sequentially later than the issuing store's
    lane for that byte are flagged.
    """
    lanes: set[int] = set()
    for base, hob in hob_by_base.items():
        while hob:
            low = hob & -hob
            hob ^= low
            byte_addr = base + low.bit_length() - 1
            issuing_lane = _issuing_lane_for_byte(issuing, byte_addr)
            for prior in priors:
                if prior.is_store:
                    continue
                if not prior.addr <= byte_addr < prior.addr + prior.size:
                    continue
                chunk = prior.chunk_for_base(base)
                if chunk is None or not chunk.bytes_accessed & low:
                    continue
                lo, hi = prior.lane_span_of_byte(byte_addr)
                lanes.update(
                    lane for lane in range(lo, hi + 1) if lane > issuing_lane
                )
    return lanes


def forwardable_mask(
    issuing: LsuEntry, prior: LsuEntry, region_bytes: int
) -> dict[int, int]:
    """Bytes of the prior store forwardable to the issuing load.

    Forwardable = VOB AND NOT horizontal-violation: the overlapped bytes
    written by the same or an older lane (sections IV-C1/C2: "if the
    load's lane is larger than or equal to a previous store's lane, the
    VOB bit vector indicates the forwardable bytes").
    """
    result: dict[int, int] = {}
    for base, vob in vob_for_pair(issuing, prior).items():
        ok_bits = vob & ~horizontal_violation_vector(
            issuing, prior, base, region_bytes
        )
        if ok_bits:
            result[base] = ok_bits
    return result
