"""Address-alignment regions (paper section IV-A).

The LSU's bit vectors are scoped to *address-alignment regions*: spans of
memory aligned to (and as long as) the machine's alignment-region size
(64 bytes in Table I).  The start of each region is its
*address-alignment base*.  A memory access is decomposed into one
bytes-accessed bit vector per region it touches; an access of at most one
vector length can span at most two consecutive regions.  Every such
vector is a plain ``int`` mask keyed by its base: bit ``i`` is byte
``base + i``.
"""

from __future__ import annotations

from dataclasses import dataclass


def align_base(addr: int, region_bytes: int) -> int:
    """The address-alignment base of the region containing ``addr``."""
    return addr & ~(region_bytes - 1)


def align_offset(addr: int, region_bytes: int) -> int:
    """Byte offset of ``addr`` within its alignment region."""
    return addr & (region_bytes - 1)


@dataclass(frozen=True)
class RegionChunk:
    """The portion of one access falling inside one alignment region."""

    base: int             # address-alignment base
    bytes_accessed: int   # mask: bit i is byte ``base + i``
    first_byte_addr: int  # lowest accessed address inside this region

    @property
    def offset(self) -> int:
        return self.first_byte_addr - self.base


def chunks_for_access(addr: int, size: int, region_bytes: int) -> list[RegionChunk]:
    """Decompose ``[addr, addr+size)`` into per-region bytes-accessed masks."""
    if size <= 0:
        raise ValueError(f"access size must be positive, got {size}")
    chunks: list[RegionChunk] = []
    cursor = addr
    end = addr + size
    while cursor < end:
        base = align_base(cursor, region_bytes)
        region_end = base + region_bytes
        chunk_end = min(end, region_end)
        mask = ((1 << (chunk_end - cursor)) - 1) << (cursor - base)
        chunks.append(RegionChunk(base, mask, cursor))
        cursor = chunk_end
    return chunks
