"""Flat byte-addressable memory image.

Workloads allocate arrays into a :class:`MemoryImage`, run a program
against it, and read the arrays back to check results.  Values are stored
little-endian, unsigned; signed views are provided for convenience since
the ISA's arithmetic is two's-complement.

The bytes live in a private anonymous ``mmap``: the kernel backs
untouched pages with the shared zero page, so an image costs resident
memory only for the pages a run touches, not its whole (default 4 MiB)
span.  Private, so a forked worker's writes stay its own.
"""

from __future__ import annotations

import mmap
import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.common.errors import MemoryAccessError


def to_unsigned(value: int, size: int) -> int:
    """Wrap a Python int into ``size``-byte two's-complement storage."""
    return value & ((1 << (size * 8)) - 1)


def to_signed(value: int, size: int) -> int:
    """Interpret ``size``-byte storage as a signed integer."""
    bits = size * 8
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


#: ``struct`` format of an unsigned little-endian element of each size
_SPAN_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}
#: ``unpack_from`` of ``n`` such elements, per ``(n, size)``
_SPAN_READERS: dict = {}

#: ``struct`` format of a signed little-endian element of each size
_SIGNED_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _packed_format(count: int, size: int, signed: bool) -> str:
    """``struct`` format of ``count`` little-endian ``size``-byte values."""
    formats = _SIGNED_FORMATS if signed else _SPAN_FORMATS
    return f"<{count}{formats[size]}"


@dataclass(frozen=True)
class Allocation:
    """A named array inside a memory image."""

    name: str
    base: int
    elem: int
    count: int

    @property
    def size_bytes(self) -> int:
        return self.elem * self.count

    @property
    def end(self) -> int:
        return self.base + self.size_bytes

    def addr(self, index: int) -> int:
        if not 0 <= index < self.count:
            raise MemoryAccessError(
                f"index {index} out of range for allocation {self.name!r} "
                f"of {self.count} elements"
            )
        return self.base + index * self.elem


class MemoryImage:
    """A contiguous span of bytes with a bump allocator for named arrays."""

    def __init__(self, size: int = 1 << 22, base: int = 0x1000) -> None:
        if size <= 0:
            raise MemoryAccessError(f"memory size must be positive, got {size}")
        self._base = base
        self._data = _zeroed(size)
        self._next = base
        self._allocations: dict[str, Allocation] = {}

    @property
    def size(self) -> int:
        return len(self._data)

    @property
    def base(self) -> int:
        return self._base

    # -- raw access ----------------------------------------------------------

    def _span(self, addr: int, size: int) -> slice:
        off = addr - self._base
        if off < 0 or off + size > len(self._data):
            raise MemoryAccessError(
                f"access [{addr:#x}, {addr + size:#x}) outside memory "
                f"[{self._base:#x}, {self._base + len(self._data):#x})"
            )
        return slice(off, off + size)

    def read_bytes(self, addr: int, size: int) -> bytes:
        return bytes(self._data[self._span(addr, size)])

    def write_bytes(self, addr: int, data: bytes) -> None:
        off = addr - self._base
        end = off + len(data)
        if off < 0 or end > len(self._data):
            self._span(addr, len(data))  # raises the out-of-range error
        self._data[off:end] = data

    def write_many(self, writes: Iterable[tuple[int, bytes]]) -> None:
        """:meth:`write_bytes` of each ``(addr, data)`` in order, in one
        call: a write outside memory raises its error after the writes
        before it."""
        image = self._data
        base = self._base
        limit = len(image)
        for addr, data in writes:
            off = addr - base
            end = off + len(data)
            if off < 0 or end > limit:
                self._span(addr, len(data))  # raises the out-of-range error
            image[off:end] = data

    def read_int(self, addr: int, size: int, signed: bool = False) -> int:
        off = addr - self._base
        if off < 0 or off + size > len(self._data):
            self._span(addr, size)  # raises the out-of-range error
        raw = int.from_bytes(self._data[off:off + size], "little")
        return to_signed(raw, size) if signed else raw

    def write_int(self, addr: int, value: int, size: int) -> None:
        off = addr - self._base
        if off < 0 or off + size > len(self._data):
            self._span(addr, size)  # raises the out-of-range error
        self._data[off:off + size] = (
            value & ((1 << (size * 8)) - 1)
        ).to_bytes(size, "little")

    def read_span(self, addrs: Sequence[int], size: int) -> list[int]:
        """The unsigned ``size``-byte values at ``addrs``, in order: one
        vector load's lanes, read in one call.

        The span ``[min(addrs), max(addrs) + size)`` is bounds-checked
        once.  Lanes that tile it in address order (a contiguous load)
        are unpacked with one ``struct`` call; any other lanes (masked,
        gathered, broadcast) are sliced from it.  A lane outside memory
        raises the error :meth:`read_int` raises for the first such lane.
        """
        first = addrs[0]
        n = len(addrs)
        lo = min(addrs)
        hi = max(addrs) + size
        data = self._data
        off = lo - self._base
        if off < 0 or hi - self._base > len(data):
            for addr in addrs:
                self._span(addr, size)  # raises for the first bad lane
        if (
            lo == first and hi - lo == n * size and size in _SPAN_FORMATS
            and (n <= 2 or addrs == list(range(first, hi, size)))
        ):
            unpack = _SPAN_READERS.get((n, size))
            if unpack is None:
                unpack = _SPAN_READERS[(n, size)] = struct.Struct(
                    f"<{n}{_SPAN_FORMATS[size]}"
                ).unpack_from
            return list(unpack(data, off))
        base = self._base
        from_bytes = int.from_bytes
        return [
            from_bytes(data[a - base:a - base + size], "little") for a in addrs
        ]

    # -- lane-batched access --------------------------------------------------
    #
    # One call covers all lanes of a contiguous or gathered vector access.
    # Nothing in the simulator calls these since the interpreter moved to
    # one lane engine; they stay because the benchmark's per-layer tracer
    # (perfbench/tracing.py) wraps them by name.  They raise the same
    # MemoryAccessError (same message, same offending span) as the
    # per-lane path would, by re-checking lane-by-lane on failure.

    def _check_lane_spans(self, addr: int, elem: int, lanes: int) -> int:
        off = addr - self._base
        if off < 0 or off + elem * lanes > len(self._data):
            for lane in range(lanes):
                self._span(addr + lane * elem, elem)
        return off

    def read_lanes(self, addr: int, elem: int, lanes: int) -> list[int]:
        """All lanes of a contiguous unit-stride load, unsigned."""
        off = self._check_lane_spans(addr, elem, lanes)
        return list(
            struct.unpack_from(_packed_format(lanes, elem, False), self._data, off)
        )

    def write_lanes(self, addr: int, elem: int, values: Sequence[int]) -> None:
        """Contiguous unit-stride store of elem-wrapped unsigned lanes."""
        off = self._check_lane_spans(addr, elem, len(values))
        struct.pack_into(
            _packed_format(len(values), elem, False), self._data, off, *values
        )

    def gather_lanes(self, addrs: Sequence[int], elem: int) -> list[int]:
        """Gathered unsigned loads from per-lane addresses.

        Bounds are validated for every lane up front; on failure the error
        is raised for the first offending lane in lane order, exactly as
        the sequential path would.
        """
        base, size = self._base, len(self._data)
        for addr in addrs:
            if addr - base < 0 or addr - base + elem > size:
                self._span(addr, elem)
        data = self._data
        return [
            int.from_bytes(data[a - base:a - base + elem], "little")
            for a in addrs
        ]

    # -- allocator -------------------------------------------------------------

    def alloc(self, name: str, count: int, elem: int = 4,
              init: Sequence[int] | None = None, align: int = 64) -> Allocation:
        """Allocate ``count`` elements of ``elem`` bytes, optionally initialised.

        Arrays are 64-byte aligned by default so the address-alignment-base
        arithmetic in worked examples matches the paper's figures.
        """
        if name in self._allocations:
            raise MemoryAccessError(f"allocation {name!r} already exists")
        if count < 0 or elem <= 0:
            raise MemoryAccessError(f"bad allocation shape: count={count} elem={elem}")
        base = (self._next + align - 1) // align * align
        alloc = Allocation(name, base, elem, count)
        # grow the backing store on demand (doubling): large generated
        # kernels allocate multi-megabyte arrays, and growth changes no
        # address — only the out-of-bounds ceiling moves
        need = base + alloc.size_bytes - self._base
        if need > len(self._data):
            new_size = len(self._data)
            while new_size < need:
                new_size *= 2
            self._data = _copied(self._data, new_size)
        self._span(base, alloc.size_bytes)  # bounds check
        self._next = alloc.end
        self._allocations[name] = alloc
        if init is not None:
            self.store_array(alloc, init)
        return alloc

    def allocation(self, name: str) -> Allocation:
        try:
            return self._allocations[name]
        except KeyError:
            raise MemoryAccessError(f"no allocation named {name!r}") from None

    def allocations(self) -> Iterable[Allocation]:
        return self._allocations.values()

    # -- typed array helpers ------------------------------------------------------

    def store_array(self, alloc: Allocation, values: Sequence[int],
                    start: int = 0) -> None:
        """Write ``values`` from element ``start`` on, each wrapped to the
        element size: the bytes :meth:`write_int` would write.

        More than four values of a size ``struct`` has a format for are
        packed in one call.  Fewer go through :meth:`write_int` one by
        one: the benchmark's tracer counts the calls made on this class,
        and its recorded counts rest on that split.  So does a non-integer
        value, which raises :meth:`write_int`'s error after the same
        writes.
        """
        count = len(values)
        if start < 0 or start + count > alloc.count:
            raise MemoryAccessError(
                f"writing {count} values at {start} overflows {alloc.name!r}"
            )
        elem = alloc.elem
        off = alloc.base + start * elem - self._base
        if (
            elem in _SIGNED_FORMATS
            and count > 4
            and off >= 0
            and off + count * elem <= len(self._data)
        ):
            # packed apart from the image, so a failed pack writes nothing
            try:
                packed = struct.pack(_packed_format(count, elem, True), *values)
            except struct.error:
                # a value outside the signed range: wrap every value
                mask = (1 << (8 * elem)) - 1
                try:
                    masked = [value & mask for value in values]
                except TypeError:
                    packed = None
                else:
                    packed = struct.pack(
                        _packed_format(count, elem, False), *masked
                    )
            if packed is not None:
                self._data[off:off + count * elem] = packed
                return
        for i, value in enumerate(values):
            self.write_int(alloc.addr(start + i), value, alloc.elem)

    def load_array(self, alloc: Allocation, count: int | None = None,
                   start: int = 0, signed: bool = True) -> list[int]:
        """``count`` values from element ``start`` on, as :meth:`read_int`
        reads them; batched as :meth:`store_array` is."""
        count = alloc.count - start if count is None else count
        off = alloc.base + start * alloc.elem - self._base
        if (
            alloc.elem in _SIGNED_FORMATS
            and count > 4
            and 0 <= start
            and start + count <= alloc.count
            and off >= 0
            and off + count * alloc.elem <= len(self._data)
        ):
            return list(struct.unpack_from(
                _packed_format(count, alloc.elem, signed), self._data, off
            ))
        return [
            self.read_int(alloc.addr(start + i), alloc.elem, signed=signed)
            for i in range(count)
        ]

    def snapshot(self) -> bytes:
        """Full memory contents; used by correctness oracles."""
        return bytes(self._data)

    def clone(self) -> "MemoryImage":
        """Deep copy sharing no state; allocations are carried over."""
        other = MemoryImage.__new__(MemoryImage)
        other._base = self._base
        other._data = _copied(self._data, len(self._data))
        other._next = self._next
        other._allocations = dict(self._allocations)
        return other


def _zeroed(size: int) -> mmap.mmap:
    """``size`` zero bytes, committed page by page as they are touched."""
    return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)


def _copied(data: mmap.mmap, size: int) -> mmap.mmap:
    """A fresh zero mapping of ``size`` bytes starting with ``data``."""
    new = _zeroed(size)
    new[:len(data)] = data
    return new
