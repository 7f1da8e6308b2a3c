"""Load-queue / store-queue entry model (paper figures 3-5).

Each entry records the fields shown in the paper's figures: access type
(``Type``), element size (``Elem``), total size (``Size``), the lane field
(``Lane``, meaningful for gather/scatter micro-ops), the address-alignment
base, and the bytes-accessed bit vector(s).

Vector gathers and scatters are cracked into one micro-op per lane before
reaching the LSU ("a vector gather takes up one entry for each lane that
is loaded", section III-B); contiguous and broadcast accesses occupy a
single entry.  Entries carry the *SRV-id* (section III-C): memory
instructions with the same PC share an SRV-id, and replays update entries
in place rather than allocating new ones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.isa.instructions import SrvDirection
from repro.lsu.alignment import RegionChunk, chunks_for_access


class AccessType(enum.Enum):
    CONTIGUOUS = "contiguous"
    GATHER_SCATTER = "gather_scatter"   # a single cracked lane micro-op
    BROADCAST = "broadcast"
    SCALAR = "scalar"


@dataclass(slots=True)
class LsuEntry:
    """One LQ or SAQ entry (with SDQ data attached for stores)."""

    srv_id: int                 # instruction identity within the region
    is_store: bool
    access: AccessType
    addr: int
    size: int                   # total bytes covered by this entry
    elem: int                   # element size in bytes
    lane: int                   # lane field; first lane for contiguous
    lanes_covered: int          # number of lanes this entry represents
    region_bytes: int           # address-alignment region size
    direction: SrvDirection = SrvDirection.UP
    speculative: bool = False   # SAQ speculative flag (section III-D4)
    data: bytes | None = None   # SDQ contents for stores
    #: address-alignment bases the access touches, in address order: the
    #: keys the LSU's CAM matches rows on (section IV-A)
    bases: tuple[int, ...] = ()
    seq: int = 0                # machine-order issue stamp
    _chunks: list[RegionChunk] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def make(
        cls,
        *,
        srv_id: int,
        is_store: bool,
        access: AccessType,
        addr: int,
        size: int,
        elem: int,
        lane: int,
        lanes_covered: int,
        region_bytes: int,
        direction: SrvDirection = SrvDirection.UP,
        data: bytes | None = None,
        speculative: bool = False,
    ) -> "LsuEntry":
        if size <= 0:
            raise ValueError(f"access size must be positive, got {size}")
        first = addr & -region_bytes
        last = (addr + size - 1) & -region_bytes
        return cls(
            srv_id, is_store, access, addr, size, elem, lane, lanes_covered,
            region_bytes, direction, speculative, data,
            (first,) if first == last
            else tuple(range(first, last + 1, region_bytes)),
        )

    @property
    def chunks(self) -> list[RegionChunk]:
        """One bytes-accessed mask per region in :attr:`bases`.

        Built on first read: only the bit-vector checks of rows that share
        a base with another access read them.
        """
        chunks = self._chunks
        if chunks is None:
            chunks = self._chunks = chunks_for_access(
                self.addr, self.size, self.region_bytes
            )
        return chunks

    # -- lane geometry -------------------------------------------------------

    def lane_of_byte(self, byte_addr: int) -> int:
        """SIMD lane that accesses ``byte_addr`` under this entry.

        * contiguous UP: lane grows with address;
        * contiguous DOWN: lane grows as address falls (section III-A);
        * gather/scatter micro-op and scalar: the entry's single lane;
        * broadcast: every lane reads the same bytes — callers must treat a
          broadcast entry as *all* lanes; this method returns the lowest
          (oldest) lane, which is the conservative value for violation
          checks against prior stores.
        """
        if not self.addr <= byte_addr < self.addr + self.size:
            raise ValueError(
                f"byte {byte_addr:#x} outside entry [{self.addr:#x},"
                f" {self.addr + self.size:#x})"
            )
        if self.access is AccessType.CONTIGUOUS:
            index = (byte_addr - self.addr) // self.elem
            if self.direction is SrvDirection.DOWN:
                return self.lane + (self.lanes_covered - 1 - index)
            return self.lane + index
        return self.lane

    def lane_span_of_byte(self, byte_addr: int) -> tuple[int, int]:
        """Closed lane range ``(min_lane, max_lane)`` touching ``byte_addr``.

        Broadcast entries touch the byte with every lane they cover.
        """
        if self.access is AccessType.BROADCAST:
            return self.lane, self.lane + self.lanes_covered - 1
        one = self.lane_of_byte(byte_addr)
        return one, one

    def overlaps(self, other: "LsuEntry") -> bool:
        return self.addr < other.addr + other.size and other.addr < self.addr + self.size

    def chunk_for_base(self, base: int) -> RegionChunk | None:
        for chunk in self.chunks:
            if chunk.base == base:
                return chunk
        return None

    def data_byte(self, byte_addr: int) -> int:
        if self.data is None:
            raise ValueError("entry has no store data")
        return self.data[byte_addr - self.addr]
