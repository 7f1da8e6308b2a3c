"""Fixed-width bit vectors used by the SRV disambiguation logic.

The paper's memory-disambiguation microarchitecture (section IV) is built
entirely from byte-granular bit vectors scoped to a 64-byte
*address-alignment region*:

* the *bytes-accessed* bit vector of each LQ/SAQ entry,
* the *VOB* (vertically-overlapped bytes) bit vector,
* the *horizontal-violation* bit vector,
* the *HOB* (horizontally-overlapped bytes) bit vector.

:class:`BitVector` implements those vectors on top of a Python integer
mask.  Bit ``i`` corresponds to byte ``i`` relative to the
address-alignment base; bit 0 is the lowest-addressed byte.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class BitVector:
    """An immutable-width, mutable-content bit vector.

    All binary operations require equal widths; this catches unit bugs where
    vectors from different alignment-region sizes are mixed.
    """

    __slots__ = ("width", "_bits")

    def __init__(self, width: int, bits: int = 0) -> None:
        if width <= 0:
            raise ValueError(f"BitVector width must be positive, got {width}")
        mask = (1 << width) - 1
        if bits & ~mask:
            raise ValueError(f"bits 0x{bits:x} do not fit in width {width}")
        self.width = width
        self._bits = bits

    # -- constructors ------------------------------------------------------

    @classmethod
    def _new(cls, width: int, bits: int) -> "BitVector":
        """Unvalidated constructor for internal hot paths.

        Callers must guarantee ``bits`` fits in ``width``; every operator
        below does (results of AND/OR/shift of already-valid vectors are
        masked by construction).  Skipping ``__init__`` validation roughly
        halves the cost of the operators, which dominate LSU issue time.
        """
        self = object.__new__(cls)
        self.width = width
        self._bits = bits
        return self

    @classmethod
    def zeros(cls, width: int) -> "BitVector":
        return cls(width)

    @classmethod
    def ones(cls, width: int) -> "BitVector":
        return cls(width, (1 << width) - 1)

    @classmethod
    def from_range(cls, width: int, start: int, length: int) -> "BitVector":
        """Vector with ``length`` bits set starting at bit ``start``.

        The range is clipped to ``[0, width)``; this mirrors how a memory
        access that spills past the alignment region only marks the bytes
        that fall inside the region (the remainder belongs to the next
        region's vectors).
        """
        if length < 0:
            raise ValueError(f"negative range length {length}")
        lo = max(start, 0)
        hi = min(start + length, width)
        if hi <= lo:
            return cls(width)
        return cls._new(width, ((1 << (hi - lo)) - 1) << lo)

    @classmethod
    def from_indices(cls, width: int, indices: Iterable[int]) -> "BitVector":
        bits = 0
        for i in indices:
            if not 0 <= i < width:
                raise ValueError(f"bit index {i} out of range for width {width}")
            bits |= 1 << i
        return cls(width, bits)

    # -- queries -----------------------------------------------------------

    def test(self, index: int) -> bool:
        if not 0 <= index < self.width:
            raise IndexError(f"bit index {index} out of range for width {self.width}")
        return bool(self._bits >> index & 1)

    def any(self) -> bool:
        return self._bits != 0

    def none(self) -> bool:
        return self._bits == 0

    def all(self) -> bool:
        return self._bits == (1 << self.width) - 1

    def popcount(self) -> int:
        return self._bits.bit_count()

    def lowest_set(self) -> int | None:
        """Index of the lowest set bit, or ``None`` if empty."""
        if self._bits == 0:
            return None
        return (self._bits & -self._bits).bit_length() - 1

    def set_indices(self) -> Iterator[int]:
        bits = self._bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    @property
    def bits(self) -> int:
        return self._bits

    # -- mutation-free operators -------------------------------------------

    def _check(self, other: "BitVector") -> None:
        if self.width != other.width:
            raise ValueError(
                f"width mismatch: {self.width} vs {other.width}"
            )

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check(other)
        return BitVector._new(self.width, self._bits & other._bits)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check(other)
        return BitVector._new(self.width, self._bits | other._bits)

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check(other)
        return BitVector._new(self.width, self._bits ^ other._bits)

    def __invert__(self) -> "BitVector":
        return BitVector._new(self.width, self._bits ^ ((1 << self.width) - 1))

    def andnot(self, other: "BitVector") -> "BitVector":
        """Bits set in ``self`` and clear in ``other`` (``self & ~other``)."""
        self._check(other)
        return BitVector._new(self.width, self._bits & ~other._bits)

    def shift_left(self, amount: int) -> "BitVector":
        """Shift towards higher bit indices, dropping bits past the width."""
        if amount < 0:
            return self.shift_right(-amount)
        mask = (1 << self.width) - 1
        return BitVector._new(self.width, (self._bits << amount) & mask)

    def shift_right(self, amount: int) -> "BitVector":
        if amount < 0:
            return self.shift_left(-amount)
        return BitVector._new(self.width, self._bits >> amount)

    def with_bit(self, index: int, value: bool = True) -> "BitVector":
        if not 0 <= index < self.width:
            raise IndexError(f"bit index {index} out of range for width {self.width}")
        if value:
            return BitVector._new(self.width, self._bits | (1 << index))
        return BitVector._new(self.width, self._bits & ~(1 << index))

    def reduce(self, group: int) -> "BitVector":
        """OR-reduce consecutive groups of ``group`` bits into single bits.

        This is the paper's final step in section IV-D: the overall HOB bit
        vector is byte-granular, and "reducing its size, based on the element
        size recorded in the LSU" produces the lane-granular SRV-needs-replay
        register.  ``group`` is the element size in bytes.
        """
        if group <= 0 or self.width % group:
            raise ValueError(
                f"cannot reduce width {self.width} by group {group}"
            )
        lanes = self.width // group
        bits = self._bits
        out = 0
        if bits:
            mask = (1 << group) - 1
            for lane in range(lanes):
                if bits >> (lane * group) & mask:
                    out |= 1 << lane
        return BitVector._new(lanes, out)

    def expand(self, group: int) -> "BitVector":
        """Inverse of :meth:`reduce`: each bit becomes ``group`` copies."""
        if group <= 0:
            raise ValueError(f"group must be positive, got {group}")
        out = 0
        chunk = (1 << group) - 1
        for lane in self.set_indices():
            out |= chunk << (lane * group)
        return BitVector._new(self.width * group, out)

    # -- dunder housekeeping -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.width == other.width and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self.width, self._bits))

    def __len__(self) -> int:
        return self.width

    def __bool__(self) -> bool:
        return self.any()

    def __repr__(self) -> str:
        return f"BitVector({self.width}, 0b{self._bits:0{self.width}b})"


def lane_mask_up_from(width: int, lane: int) -> BitVector:
    """All lanes ``>= lane`` set — "younger or same" lanes in an UP region."""
    return BitVector.from_range(width, lane, width - lane)


def lane_mask_strictly_above(width: int, lane: int) -> BitVector:
    """All lanes ``> lane`` set."""
    return BitVector.from_range(width, lane + 1, width - lane - 1)


def lane_mask_below(width: int, lane: int) -> BitVector:
    """All lanes ``< lane`` set — strictly older lanes in an UP region."""
    return BitVector.from_range(width, 0, lane)
