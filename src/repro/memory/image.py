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

import numpy as _np

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

#: element sizes the vectorised helpers handle (dtype-representable)
_NP_ELEMS = (1, 2, 4, 8)

_NP_MASKS = {s: _np.uint64((1 << (8 * s)) - 1) for s in _NP_ELEMS}
_NP_SIGNS = {s: _np.uint64(1 << (8 * s - 1)) for s in (1, 2, 4)}
_NP_DTYPES = {s: _np.dtype(f"<u{s}") for s in _NP_ELEMS}
_NP_BYTE_SHIFTS = {
    s: _np.arange(s, dtype=_np.uint64) * _np.uint64(8) for s in _NP_ELEMS
}


def to_unsigned_array(values: "_np.ndarray", size: int) -> "_np.ndarray":
    """Vectorised :func:`to_unsigned`: lanes → ``size``-byte storage.

    Accepts int64/uint64/bool lanes; returns uint64 lanes holding the
    wrapped (element-size-masked) unsigned value of each input lane.
    """
    if values.dtype == _np.bool_:
        values = values.astype(_np.uint64)
    elif values.dtype != _np.uint64:
        values = values.view(_np.uint64)
    if size == 8:
        return values
    return values & _NP_MASKS[size]


def to_signed_array(values: "_np.ndarray", size: int) -> "_np.ndarray":
    """Vectorised :func:`to_signed`: uint64 storage lanes → int64.

    Sign extension is the usual xor/subtract trick on the unsigned
    values, exact for every stored pattern.
    """
    if size == 8:
        return values.view(_np.int64)
    sign = _NP_SIGNS[size]
    return ((values ^ sign) - sign).view(_np.int64)


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

    def read_lanes(self, addr: int, elem: int, lanes: int) -> "_np.ndarray":
        """All lanes of a contiguous unit-stride load, as a uint64 array."""
        off = self._check_lane_spans(addr, elem, lanes)
        view = _np.frombuffer(self._data, _NP_DTYPES[elem], count=lanes, offset=off)
        return view.astype(_np.uint64)

    def write_lanes(self, addr: int, elem: int, values: "_np.ndarray") -> None:
        """Contiguous unit-stride store of elem-wrapped uint64 lanes."""
        lanes = len(values)
        off = self._check_lane_spans(addr, elem, lanes)
        view = _np.frombuffer(self._data, _NP_DTYPES[elem], count=lanes, offset=off)
        view[:] = values

    def gather_lanes(self, addrs: "_np.ndarray", elem: int) -> "_np.ndarray":
        """Gathered loads from per-lane int64 addresses, as a uint64 array.

        Bounds are validated for every lane up front; on failure the error
        is raised for the first offending lane in lane order, exactly as
        the sequential path would.
        """
        off = addrs - self._base
        bad = (off < 0) | (off + elem > len(self._data))
        if bad.any():
            self._span(int(addrs[int(_np.flatnonzero(bad)[0])]), elem)
        flat = _np.frombuffer(self._data, _np.uint8)
        chunk = flat[off[:, None] + _np.arange(elem)].astype(_np.uint64)
        return _np.bitwise_or.reduce(chunk << _NP_BYTE_SHIFTS[elem], axis=1)

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
        if start < 0 or start + len(values) > alloc.count:
            raise MemoryAccessError(
                f"writing {len(values)} values at {start} overflows {alloc.name!r}"
            )
        if alloc.elem in _NP_ELEMS and len(values) > 4:
            try:
                arr = _np.asarray(values, dtype=_np.int64)
            except (OverflowError, TypeError, ValueError):
                arr = None  # values outside int64 (or odd types): scalar path
            if arr is not None:
                off = alloc.addr(start) - self._base
                view = _np.frombuffer(
                    self._data, _NP_DTYPES[alloc.elem],
                    count=len(values), offset=off,
                )
                view[:] = to_unsigned_array(arr, alloc.elem)
                return
        for i, value in enumerate(values):
            self.write_int(alloc.addr(start + i), value, alloc.elem)

    def load_array(self, alloc: Allocation, count: int | None = None,
                   start: int = 0, signed: bool = True) -> list[int]:
        count = alloc.count - start if count is None else count
        if (
            alloc.elem in _NP_ELEMS
            and count > 4
            and 0 <= start
            and start + count <= alloc.count
        ):
            off = alloc.addr(start) - self._base
            view = _np.frombuffer(
                self._data, _NP_DTYPES[alloc.elem], count=count, offset=off
            )
            if signed:
                return to_signed_array(view.astype(_np.uint64), alloc.elem).tolist()
            return view.tolist()
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
