"""Tests for the memory image and cache timing hierarchy."""

import copy
import dataclasses
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig, MemoryConfig
from repro.common.errors import MemoryAccessError
from repro.memory import Cache, CacheHierarchy, MemoryImage, to_signed, to_unsigned
from repro.isa.program import Program
from repro.pipeline.trace import MemAccess, TraceLog


class TestIntConversions:
    def test_roundtrip_signed(self):
        for size in (1, 2, 4, 8):
            for value in (0, 1, -1, 127, -128, 2 ** (size * 8 - 1) - 1):
                assert to_signed(to_unsigned(value, size), size) == value

    def test_wrap(self):
        assert to_unsigned(-1, 1) == 0xFF
        assert to_signed(0xFF, 1) == -1
        assert to_signed(0x7F, 1) == 127


class TestMemoryImage:
    def test_read_write_int(self):
        mem = MemoryImage(size=4096, base=0x1000)
        mem.write_int(0x1000, -5, 4)
        assert mem.read_int(0x1000, 4, signed=True) == -5
        assert mem.read_int(0x1000, 4, signed=False) == 0xFFFFFFFB

    def test_little_endian(self):
        mem = MemoryImage(size=4096, base=0x1000)
        mem.write_int(0x1000, 0x01020304, 4)
        assert mem.read_bytes(0x1000, 4) == bytes([4, 3, 2, 1])

    def test_out_of_bounds(self):
        mem = MemoryImage(size=64, base=0x100)
        with pytest.raises(MemoryAccessError):
            mem.read_bytes(0x90, 4)
        with pytest.raises(MemoryAccessError):
            mem.read_bytes(0x100 + 62, 4)
        for addr in (0x90, 0xFE, 0x100 + 62):
            with pytest.raises(MemoryAccessError) as by_int:
                mem.read_int(addr, 4)
            with pytest.raises(MemoryAccessError) as by_bytes:
                mem.read_bytes(addr, 4)
            assert str(by_int.value) == str(by_bytes.value)
        mem.write_bytes(0x100 + 60, b"\x01\x02\x03\x84")
        assert mem.read_int(0x100 + 60, 4) == 0x84030201
        assert mem.read_int(0x100 + 60, 4, signed=True) == 0x84030201 - (1 << 32)

    @pytest.mark.parametrize("addr", [0x90, 0xFE, 0x100 + 62, 0x100 + 64])
    def test_write_int_out_of_range_message(self, addr):
        mem = MemoryImage(size=64, base=0x100)
        before = mem.snapshot()
        with pytest.raises(MemoryAccessError) as info:
            mem.write_int(addr, -1, 4)
        assert str(info.value) == (
            f"access [{addr:#x}, {addr + 4:#x}) outside memory [0x100, 0x140)"
        )
        assert mem.snapshot() == before  # nothing written

    @pytest.mark.parametrize("addr", [0x90, 0xFE, 0x100 + 62, 0x100 + 64])
    def test_write_bytes_out_of_range_message(self, addr):
        mem = MemoryImage(size=64, base=0x100)
        with pytest.raises(MemoryAccessError) as info:
            mem.write_bytes(addr, b"\xff" * 4)
        assert str(info.value) == (
            f"access [{addr:#x}, {addr + 4:#x}) outside memory [0x100, 0x140)"
        )
        assert mem.snapshot() == bytes(64)  # nothing written
        mem.write_bytes(0x100 + 64, b"")  # an empty write at the end fits

    def test_write_int_wraps_and_fills_the_last_bytes(self):
        mem = MemoryImage(size=64, base=0x100)
        mem.write_int(0x100 + 60, -(1 << 33) + 0x84030201, 4)
        assert mem.read_bytes(0x100 + 60, 4) == b"\x01\x02\x03\x84"
        mem.write_int(0x100, 1 << 64, 8)
        assert mem.read_int(0x100, 8) == 0
        assert mem.read_int(0x100 + 60, 4) == 0x84030201

    def test_alloc_and_arrays(self):
        mem = MemoryImage()
        a = mem.alloc("a", 10, 4, init=range(10))
        assert mem.load_array(a) == list(range(10))
        assert a.base % 64 == 0

    def test_alloc_duplicate_name(self):
        mem = MemoryImage()
        mem.alloc("a", 4)
        with pytest.raises(MemoryAccessError):
            mem.alloc("a", 4)

    def test_allocation_lookup(self):
        mem = MemoryImage()
        mem.alloc("data", 8, 2)
        assert mem.allocation("data").elem == 2
        with pytest.raises(MemoryAccessError):
            mem.allocation("missing")

    def test_allocation_addr_bounds(self):
        mem = MemoryImage()
        a = mem.alloc("a", 4, 4)
        assert a.addr(3) == a.base + 12
        with pytest.raises(MemoryAccessError):
            a.addr(4)

    def test_allocations_do_not_overlap(self):
        mem = MemoryImage()
        a = mem.alloc("a", 100, 4)
        b = mem.alloc("b", 100, 8)
        assert a.end <= b.base

    def test_store_array_overflow(self):
        mem = MemoryImage()
        a = mem.alloc("a", 4, 4)
        with pytest.raises(MemoryAccessError):
            mem.store_array(a, [1, 2, 3], start=2)

    def test_clone_is_independent(self):
        mem = MemoryImage()
        a = mem.alloc("a", 4, 4, init=[1, 2, 3, 4])
        copy = mem.clone()
        copy.write_int(a.addr(0), 99, 4)
        assert mem.read_int(a.addr(0), 4) == 1
        assert copy.allocation("a").base == a.base

    def test_signed_array_roundtrip(self):
        mem = MemoryImage()
        a = mem.alloc("a", 3, 4, init=[-1, -2, 3])
        assert mem.load_array(a) == [-1, -2, 3]
        assert mem.load_array(a, signed=False)[0] == 0xFFFFFFFF

    def test_growth_keeps_contents_and_moves_the_ceiling(self):
        mem = MemoryImage(size=256, base=0x1000)
        a = mem.alloc("a", 8, 4, init=range(8))
        mem.write_bytes(0x1000 + 40, b"\x07\x08")  # between the arrays
        with pytest.raises(MemoryAccessError):
            mem.read_int(0x1000 + 256, 4)
        b = mem.alloc("b", 100, 4, init=range(100, 200))
        assert mem.size == 512
        assert mem.load_array(a) == list(range(8))
        assert mem.read_bytes(0x1000 + 40, 2) == b"\x07\x08"
        assert mem.load_array(b) == list(range(100, 200))
        assert mem.read_int(0x1000 + 508, 4) == 0  # fresh bytes are zero
        with pytest.raises(MemoryAccessError) as err:
            mem.read_int(0x1000 + 510, 4)
        assert str(err.value) == (
            "access [0x11fe, 0x1202) outside memory [0x1000, 0x1200)"
        )
        assert mem.read_lanes(b.base, 4, 4) == [100, 101, 102, 103]

    def test_clone_shares_no_bytes_in_either_direction(self):
        mem = MemoryImage(size=256)
        a = mem.alloc("a", 4, 4, init=[1, 2, 3, 4])
        clone = mem.clone()
        mem.write_int(a.addr(1), 20, 4)
        clone.write_int(a.addr(2), 30, 4)
        assert mem.load_array(a) == [1, 20, 3, 4]
        assert clone.load_array(a) == [1, 2, 30, 4]
        clone.alloc("big", 200, 4)  # grows the clone only
        assert (mem.size, clone.size) == (256, 1024)
        assert "big" not in {x.name for x in mem.allocations()}

    def test_out_of_range_errors_name_the_span(self):
        mem = MemoryImage(size=64, base=0x100)
        for call in (
            lambda: mem.read_bytes(0x13E, 4),
            lambda: mem.read_int(0x13E, 4),
            lambda: mem.write_bytes(0x13E, b"1234"),
            lambda: mem.write_int(0x13E, 1, 4),
            lambda: mem.read_lanes(0x130, 4, 8),
        ):
            with pytest.raises(MemoryAccessError) as err:
                call()
            assert "outside memory [0x100, 0x140)" in str(err.value)
        assert mem.snapshot() == bytes(64)  # nothing was written

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_writes_its_own_copy(self):
        mem = MemoryImage(size=256)
        a = mem.alloc("a", 4, 4, init=[1, 2, 3, 4])
        pid = os.fork()
        if pid == 0:  # child: write, then leave without cleanup
            mem.write_int(a.addr(0), 99, 4)
            os._exit(0)
        os.waitpid(pid, 0)
        assert mem.load_array(a) == [1, 2, 3, 4]

    def test_snapshot_is_an_immutable_copy(self):
        mem = MemoryImage(size=128, base=0x40)
        mem.write_bytes(0x40, b"\x01\x02")
        snap = mem.snapshot()
        mem.write_bytes(0x40, b"\xff")
        assert type(snap) is bytes
        assert snap == b"\x01\x02" + bytes(126)
        assert mem.snapshot()[:2] == b"\xff\x02"


class TestReadSpan:
    """``read_span`` against one ``read_int`` per lane."""

    @staticmethod
    def _image():
        image = MemoryImage(size=4096, base=0x1000)
        rng = random.Random(7)
        image.write_bytes(0x1000, bytes(rng.randrange(256) for _ in range(4096)))
        return image

    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_lanes_match_read_int(self, size):
        image = self._image()
        rng = random.Random(size)
        start = 0x1000 + 3 * size
        lanes = list(range(16))
        masked = [lane for lane in lanes if rng.random() < 0.6]
        shapes = {
            "contiguous": [start + lane * size for lane in lanes],
            "masked": [start + lane * size for lane in masked],
            "gathered": [0x1000 + rng.randrange(0, 4096 - size) for _ in lanes],
            "broadcast": [start] * 16,
            "one lane": [start],
            "overlapping": [start, start + 1, start + 2],
            "descending": [start + (15 - lane) * size for lane in lanes],
        }
        for name, addrs in shapes.items():
            want = [image.read_int(addr, size) for addr in addrs]
            assert image.read_span(addrs, size) == want, name

    @pytest.mark.parametrize("addrs", [
        [0x1FF8, 0x1FFC, 0x2000, 0x2004],   # contiguous, runs off the end
        [0x1004, 0x1FFE, 0x0FFF, 0x2000],   # gathered: first bad lane wins
        [0x0FFC] * 3,                        # broadcast below the base
        [0x1000, 0x1FFD],                   # the last lane straddles the end
    ])
    def test_lane_outside_memory_raises_the_per_lane_error(self, addrs):
        image = self._image()
        with pytest.raises(MemoryAccessError) as per_lane:
            for addr in addrs:
                image.read_int(addr, 4)
        with pytest.raises(MemoryAccessError) as span:
            image.read_span(addrs, 4)
        assert str(span.value) == str(per_lane.value)

    def test_lane_helpers_match_read_int(self):
        image = self._image()
        addrs = [0x1010, 0x1FFC, 0x1000, 0x1010]
        assert image.gather_lanes(addrs, 4) == [
            image.read_int(addr, 4) for addr in addrs]
        image.write_lanes(0x1020, 2, [1, 0xFFFF, 7])
        assert image.read_lanes(0x1020, 2, 3) == [1, 0xFFFF, 7]
        assert image.read_int(0x1022, 2) == 0xFFFF
        with pytest.raises(MemoryAccessError) as per_lane:
            image.read_int(0x0FFE, 4)
        with pytest.raises(MemoryAccessError) as gathered:
            image.gather_lanes([0x1000, 0x0FFE, 0x2000], 4)
        assert str(gathered.value) == str(per_lane.value)


class TestArrayIO:
    """``store_array``/``load_array`` against one ``write_int``/``read_int``
    per element: the same bytes, the same values, the same errors."""

    @staticmethod
    def _values(size):
        bits = 8 * size
        return [
            0, 1, -1, 5, -7,
            (1 << (bits - 1)) - 1, -(1 << (bits - 1)),   # the signed range
            1 << (bits - 1), (1 << bits) - 1,             # unsigned, above it
            1 << bits, -(1 << bits) - 3,                  # wrapped
            (1 << 70) + 9, -(1 << 70) - 11, 1 << 64,      # beyond int64
            True, False,
        ]

    @staticmethod
    def _pair(elem, count):
        images = [MemoryImage(size=512, base=0x1000) for _ in range(2)]
        return images, [image.alloc("a", count, elem) for image in images]

    @pytest.mark.parametrize("elem", [1, 2, 4, 8, 3])
    def test_store_matches_write_int(self, elem):
        values = self._values(elem)
        for chosen in (values, values[:5], values[:1], [], values[7:9],
                       [(1 << (8 * elem - 1)) - 1] * 6):
            (fast, slow), (a, b) = self._pair(elem, len(values) + 2)
            fast.store_array(a, chosen, start=1)
            for i, value in enumerate(chosen):
                slow.write_int(b.addr(1 + i), value, elem)
            assert fast.snapshot() == slow.snapshot(), chosen

    @pytest.mark.parametrize("elem", [1, 2, 4, 8, 3])
    def test_load_matches_read_int(self, elem):
        (image, _), (a, _) = self._pair(elem, 20)
        rng = random.Random(elem)
        image.write_bytes(a.base, bytes(rng.randrange(256) for _ in range(20 * elem)))
        for signed in (True, False):
            for start, count in ((0, None), (3, 9), (19, 1), (20, 0), (5, 0)):
                want = [
                    image.read_int(a.addr(start + i), elem, signed=signed)
                    for i in range(20 - start if count is None else count)
                ]
                got = image.load_array(a, count, start, signed=signed)
                assert got == want, (signed, start, count)

    @pytest.mark.parametrize("elem", [1, 2, 4, 8])
    def test_errors_match_the_per_element_path(self, elem):
        (image, _), (a, _) = self._pair(elem, 4)
        with pytest.raises(MemoryAccessError) as err:
            image.store_array(a, [1, 2, 3], start=2)
        assert str(err.value) == "writing 3 values at 2 overflows 'a'"
        for start, count in ((2, 3), (-1, 2), (4, 1)):
            with pytest.raises(MemoryAccessError) as per_element:
                [image.read_int(a.addr(start + i), elem) for i in range(count)]
            with pytest.raises(MemoryAccessError) as batched:
                image.load_array(a, count, start)
            assert str(batched.value) == str(per_element.value)
        for bad in ([1, 2.5], [1, "2"], [None]):
            with pytest.raises(TypeError):
                image.write_int(a.addr(0), bad[-1], elem)
            with pytest.raises(TypeError):
                image.store_array(a, bad)
        # a batched store raises the same error after the same writes
        for bad in ([1, 2, 2.5, 3, 4, 5], [-1, 1 << 70, None, 3, 4, 5]):
            (fast, slow), (a, b) = self._pair(elem, 8)
            with pytest.raises(TypeError) as batched:
                fast.store_array(a, bad)
            with pytest.raises(TypeError) as per_element:
                for i, value in enumerate(bad):
                    slow.write_int(b.addr(i), value, elem)
            assert str(batched.value) == str(per_element.value)
            assert fast.snapshot() == slow.snapshot()


class TestCache:
    def cfg(self, **kw):
        defaults = dict(size_bytes=1024, associativity=2, hit_latency=1, line_bytes=64)
        defaults.update(kw)
        return CacheConfig(**defaults)

    def test_miss_then_hit(self):
        cache = Cache(self.cfg())
        hit, _ = cache.access(0x1000, False)
        assert not hit
        hit, _ = cache.access(0x1000, False)
        assert hit
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_same_line_hits(self):
        cache = Cache(self.cfg())
        cache.access(0x1000, False)
        hit, _ = cache.access(0x103F, False)
        assert hit

    def test_lru_eviction(self):
        # 2-way set: three conflicting lines evict the least recent.
        cache = Cache(self.cfg())
        sets = cache.config.num_sets
        stride = sets * 64
        cache.access(0, False)
        cache.access(stride, False)
        cache.access(2 * stride, False)  # evicts line 0
        hit, _ = cache.access(0, False)
        assert not hit

    def test_lru_touch_on_hit(self):
        cache = Cache(self.cfg())
        stride = cache.config.num_sets * 64
        cache.access(0, False)
        cache.access(stride, False)
        cache.access(0, False)                 # touch line 0
        cache.access(2 * stride, False)        # should evict `stride`
        hit, _ = cache.access(0, False)
        assert hit

    def test_dirty_writeback_counted(self):
        cache = Cache(self.cfg())
        stride = cache.config.num_sets * 64
        cache.access(0, True)  # dirty
        cache.access(stride, False)
        cache.access(2 * stride, False)  # evicts dirty line 0
        assert cache.stats.writebacks == 1

    def test_invalidate_all(self):
        cache = Cache(self.cfg())
        cache.access(0x2000, False)
        cache.invalidate_all()
        hit, _ = cache.access(0x2000, False)
        assert not hit


class TestHierarchy:
    def test_latencies(self):
        h = CacheHierarchy()
        cold = h.access(0x4000, 4, False)
        assert cold == 2 + 7 + h.config.dram_latency
        l1_hit = h.access(0x4000, 4, False)
        assert l1_hit == 2

    def test_l2_hit_latency(self):
        h = CacheHierarchy(
            MemoryConfig(l1=CacheConfig(128, 2, 2), l2=CacheConfig(4096, 4, 7))
        )
        h.access(0, 4, False)
        # Evict from tiny L1 by touching the same set
        h.access(128, 4, False)
        h.access(256, 4, False)
        latency = h.access(0, 4, False)  # L1 miss, L2 hit
        assert latency == 2 + 7

    def test_line_straddle_charges_worst_line(self):
        h = CacheHierarchy()
        h.access(0x1000, 64, False)       # warm first line
        latency = h.access(0x103C, 8, False)  # straddles into cold line
        assert latency > h.config.l1.hit_latency

    def test_stats_accumulate(self):
        h = CacheHierarchy()
        h.access(0, 4, False)
        h.access(0, 4, False)
        assert h.stats.l1_hits == 1
        assert h.stats.l1_misses == 1
        assert h.stats.l2_misses == 1

    def test_warm_preserves_stats(self):
        h = CacheHierarchy()
        h.access(0x9000, 4, False)
        before = (h.stats.l1_hits, h.stats.l1_misses)
        h.warm(0x5000, 64)
        assert (h.stats.l1_hits, h.stats.l1_misses) == before
        assert h.access(0x5000, 4, False) == h.config.l1.hit_latency

    def test_invalid_size(self):
        h = CacheHierarchy()
        with pytest.raises(ValueError):
            h.access(0, 0, False)


class PerLineHierarchy(CacheHierarchy):
    """Reference hierarchy: every line goes through ``Cache.access``."""

    def _access_line(self, line_no, is_write):
        line_addr = line_no * self.config.l1.line_bytes
        l1_hit, _ = self.l1.access(line_addr, is_write)
        if l1_hit:
            self.stats.l1_hits += 1
            return self.config.l1.hit_latency
        self.stats.l1_misses += 1
        l2_hit, _ = self.l2.access(line_addr, is_write)
        if l2_hit:
            self.stats.l2_hits += 1
            return self.config.l1.hit_latency + self.config.l2.hit_latency
        self.stats.l2_misses += 1
        return (
            self.config.l1.hit_latency
            + self.config.l2.hit_latency
            + self.config.dram_latency
        )

    def access(self, addr, size, is_write):
        if size <= 0:
            raise ValueError(f"access size must be positive, got {size}")
        line = self.config.l1.line_bytes
        return max(
            self._access_line(line_no, is_write)
            for line_no in range(addr // line, (addr + size - 1) // line + 1)
        )


#: tiny caches: 4 two-way L1 sets and 16 two-way L2 sets, so random
#: streams over a few KB keep evicting (and writing back) lines
_TINY = MemoryConfig(
    l1=CacheConfig(512, 2, hit_latency=2),
    l2=CacheConfig(2048, 2, hit_latency=7),
)


def _cache_state(h: CacheHierarchy):
    """Stats, per-set LRU order and dirty bits of both levels."""
    return (
        dataclasses.astuple(h.stats),
        dataclasses.astuple(h.l1.stats),
        dataclasses.astuple(h.l2.stats),
        [[(tag, line.dirty) for tag, line in ways.items()] for ways in h.l1._sets],
        [[(tag, line.dirty) for tag, line in ways.items()] for ways in h.l2._sets],
    )


def _random_op(
    rng: random.Random, last: int
) -> tuple[list[MemAccess], bool | None]:
    """One trace op's accesses: a vector (maybe straddling a line), a
    gather, or a repeat of one address; optionally a forced write flag.
    Half the ops start at ``last``, the previous op's first address."""
    kind = rng.random()
    is_store = rng.random() < 0.4
    elem = rng.choice([1, 2, 4, 8])
    base = last if rng.random() < 0.5 else rng.randrange(0, 4096)
    if kind < 0.5:
        lanes = rng.randint(1, 16)
        mem = [MemAccess(base + i * elem, elem, is_store, i) for i in range(lanes)]
    elif kind < 0.8:
        mem = [
            MemAccess(rng.randrange(0, 4096), elem, is_store, i)
            for i in range(rng.randint(1, 8))
        ]
    else:
        mem = [MemAccess(base, rng.randint(1, 96), is_store, 0)] * rng.randint(1, 3)
    forced = rng.choice([None, None, True, False])
    return mem, forced


class TestSameLineFastPath:
    """``CacheHierarchy``'s MRU fast path against per-line ``Cache.access``."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_streams_match_per_line_reference(self, seed):
        rng = random.Random(seed)
        fast, ref = CacheHierarchy(_TINY), PerLineHierarchy(_TINY)
        last = 0
        for step in range(300):
            roll = rng.random()
            if roll < 0.02:
                fast, ref = copy.deepcopy(fast), copy.deepcopy(ref)
            elif roll < 0.04:
                fast.l1.invalidate_all()
                ref.l1.invalidate_all()
            elif roll < 0.05:
                fast.l2.invalidate_all()
                ref.l2.invalidate_all()
            elif roll < 0.3:
                mem, _ = _random_op(rng, last)
                a = mem[0]
                last = a.addr
                assert fast.access(a.addr, a.size, a.is_store) == ref.access(
                    a.addr, a.size, a.is_store
                )
            else:
                mem, forced = _random_op(rng, last)
                last = mem[0].addr
                for a in mem:
                    write = a.is_store if forced is None else forced
                    assert fast.access(a.addr, a.size, write) == ref.access(
                        a.addr, a.size, write
                    )
            assert _cache_state(fast) == _cache_state(ref), f"seed {seed} step {step}"
        assert fast.l1.stats.writebacks and fast.l1.stats.hits

    def test_fast_path_skips_the_set_lookup(self):
        h = CacheHierarchy()
        for i in range(16):
            h.access(0x1000 + 4 * i, 4, False)
        # one line: one miss through Cache.access, then 15 MRU hits
        assert (h.l1.stats.misses, h.l1.stats.hits) == (1, 15)
        assert (h.stats.l1_misses, h.stats.l1_hits) == (1, 15)

    def test_write_hit_marks_the_mru_line_dirty(self):
        h = CacheHierarchy(_TINY)
        h.access(0x40, 4, False)
        assert h.access(0x44, 4, True) == 2
        line_no, line = h.l1.mru
        assert line_no == 1 and line.dirty

    def test_deepcopy_keeps_the_mru_line_shared_with_its_set(self):
        h = CacheHierarchy(_TINY)
        h.access(0x40, 4, False)
        clone = copy.deepcopy(h)
        clone.access(0x40, 4, True)
        index, tag = clone.l1._locate(0x40)
        assert clone.l1._sets[index][tag].dirty
        assert not h.l1.mru[1].dirty

    def test_invalidate_all_forgets_the_mru_line(self):
        h = CacheHierarchy(_TINY)
        h.access(0x40, 4, False)
        h.l1.invalidate_all()
        assert h.l1.mru is None
        assert h.access(0x40, 4, False) == 2 + 7  # L1 miss, L2 hit



def _mru_line_no(cache: Cache):
    return None if cache.mru is None else cache.mru[0]


def _random_accesses(h: CacheHierarchy, rng: random.Random, count: int):
    """Hit/miss latencies of ``count`` random accesses, some straddling."""
    return [
        h.access(rng.randrange(0, 8192), rng.choice([1, 4, 8, 48]),
                 rng.random() < 0.4)
        for _ in range(count)
    ]


class TestClone:
    """``CacheHierarchy.clone`` against ``copy.deepcopy``."""

    @pytest.mark.parametrize("seed", range(5))
    def test_clone_equals_deepcopy_and_stays_in_step(self, seed):
        rng = random.Random(seed)
        h = CacheHierarchy(_TINY)
        _random_accesses(h, rng, 2000)
        clone, deep = h.clone(), copy.deepcopy(h)
        assert _cache_state(clone) == _cache_state(deep) == _cache_state(h)
        for level in ("l1", "l2"):
            assert _mru_line_no(getattr(clone, level)) == _mru_line_no(
                getattr(deep, level))
        # the same further accesses give the same latencies and state,
        # starting with a write to the MRU line (the same-line fast path)
        mru_addr = h.l1.mru[0] * _TINY.l1.line_bytes
        assert clone.access(mru_addr, 4, True) == deep.access(mru_addr, 4, True)
        assert _cache_state(clone) == _cache_state(deep)
        assert _random_accesses(clone, random.Random(seed + 100), 5000) \
            == _random_accesses(deep, random.Random(seed + 100), 5000)
        assert _cache_state(clone) == _cache_state(deep)

    def test_writing_through_the_clone_leaves_the_original(self):
        h = CacheHierarchy(_TINY)
        h.access(0x40, 4, False)  # the MRU line of both levels, clean
        before = _cache_state(h)
        clone = h.clone()
        # the MRU fast path dirties the clone's own line
        clone.access(0x44, 4, True)
        index, tag = clone.l1._locate(0x40)
        assert clone.l1.mru[1] is clone.l1._sets[index][tag]
        assert clone.l1._sets[index][tag].dirty
        _random_accesses(clone, random.Random(0), 500)
        assert _cache_state(h) == before
        assert not h.l1.mru[1].dirty
        assert clone.stats is not h.stats
        assert clone.l1.stats is not h.l1.stats

    def test_clone_of_an_invalidated_cache_has_no_mru_line(self):
        h = CacheHierarchy(_TINY)
        h.access(0x40, 4, False)
        h.l1.invalidate_all()
        clone = h.clone()
        assert clone.l1.mru is None
        assert clone.l2.mru is not None


def _lanes(draw_kind, base, elem, count, is_store, down):
    if draw_kind == "contiguous":
        mem = [
            MemAccess(base + i * elem, elem, is_store, i) for i in range(count)
        ]
        # DOWN regions walk the lanes from high to low addresses
        return mem[::-1] if down else mem
    return [MemAccess(base, elem, is_store, 0)] * count


@st.composite
def _lane_ops(draw):
    """One op's lanes: a contiguous vector (either direction, often
    straddling a line), a gather of scattered lanes, or one wide access
    repeated; plus the op's write flag."""
    is_store = draw(st.booleans())
    kind = draw(st.sampled_from(["contiguous", "gather", "repeat"]))
    if kind == "gather":
        lanes = draw(st.lists(
            st.tuples(st.integers(0, 4095), st.sampled_from([1, 2, 4, 8])),
            min_size=1, max_size=16,
        ))
        mem = [MemAccess(a, s, is_store, i) for i, (a, s) in enumerate(lanes)]
        return mem, is_store
    base = draw(st.integers(0, 4095))
    if kind == "contiguous":
        elem = draw(st.sampled_from([1, 2, 4, 8]))
        count = draw(st.integers(1, 16))
    else:
        elem = draw(st.integers(1, 96))
        count = draw(st.integers(1, 3))
    down = draw(st.booleans())
    return _lanes(kind, base, elem, count, is_store, down), is_store


#: a stream step: an op's lanes, one plain access (a warm stream), or an
#: invalidation of one level
_STEPS = st.lists(
    st.one_of(
        _lane_ops().map(lambda op: ("lanes", op)),
        st.tuples(st.integers(0, 4095), st.integers(1, 96), st.booleans())
        .map(lambda a: ("access", a)),
        st.sampled_from([("invalidate", "l1"), ("invalidate", "l2")]),
    ),
    min_size=1, max_size=60,
)


def _full_state(h: CacheHierarchy):
    return _cache_state(h), _mru_line_no(h.l1), _mru_line_no(h.l2)


def _columns(mem, front: int = 0):
    """``(addrs, sizes, lo, hi)`` of one op's lanes, at ``lo:hi`` of
    columns padded with ``front`` lanes before and two after.  A padding
    lane has size 0, which ``access`` rejects: reading one raises."""
    addrs = [0x40] * front + [a.addr for a in mem] + [0x40] * 2
    sizes = [0] * front + [a.size for a in mem] + [0] * 2
    return addrs, sizes, front, front + len(mem)


class TestAccessLanes:
    """``access_lanes`` against the per-lane ``access`` loop it replaces."""

    @settings(max_examples=400, deadline=None)
    @given(_STEPS)
    def test_matches_the_per_lane_loop(self, steps):
        # ``fast`` reads an op's lanes as whole columns, ``inplace`` at
        # lo:hi of a longer column, as the timing model reads the log
        fast, inplace, ref = (CacheHierarchy(_TINY) for _ in range(3))
        for step, (kind, arg) in enumerate(steps):
            if kind == "lanes":
                mem, is_write = arg
                expected = max(
                    (ref.access(a.addr, a.size, is_write) for a in mem),
                    default=0,
                )
                assert fast.access_lanes(
                    *_columns(mem), is_write
                ) == expected
                assert inplace.access_lanes(
                    *_columns(mem, 1 + step % 3), is_write
                ) == expected
            elif kind == "access":
                want = ref.access(*arg)
                assert fast.access(*arg) == want
                assert inplace.access(*arg) == want
            else:
                for h in (fast, inplace, ref):
                    getattr(h, arg).invalidate_all()
            assert _full_state(fast) == _full_state(ref)
            assert _full_state(inplace) == _full_state(ref)

    def test_repeat_lanes_skip_the_call(self):
        h = CacheHierarchy()
        calls = []
        access = h.access
        h.access = lambda *args: calls.append(args) or access(*args)
        addrs = [0x1000 + 4 * i for i in range(16)]
        sizes = [4] * 16
        assert h.access_lanes(addrs, sizes, 0, 16, False) == 2 + 7 + 80
        # the first lane misses through access; 15 lanes are MRU hits
        assert calls == [(0x1000, 4, False)]
        assert (h.stats.l1_misses, h.stats.l1_hits) == (1, 15)
        assert (h.l1.stats.misses, h.l1.stats.hits) == (1, 15)
        assert h.access_lanes(addrs, sizes, 0, 16, True) == 2
        assert calls == [(0x1000, 4, False)]
        assert h.l1.mru[1].dirty

    def test_invalid_lane_size_raises_like_access(self):
        h = CacheHierarchy(_TINY)
        h.access(0x41, 4, False)
        with pytest.raises(ValueError):
            h.access_lanes([0x42], [0], 0, 1, False)


class TestTraceLogWarm:
    """``TraceLog.warm`` against playing every logged access."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_lane_ops(), max_size=40), st.integers(0, 4095))
    def test_matches_playing_every_access(self, ops, first):
        log = TraceLog(Program())
        for mem, _ in ops:
            for a in mem:
                log.access(a.addr, a.size, a.is_store, a.lane)
            log.record(0, None)
        fast, ref = CacheHierarchy(_TINY), CacheHierarchy(_TINY)
        # a resident MRU line before the log starts
        fast.access(first, 4, False)
        ref.access(first, 4, False)
        log.warm(fast)
        for addr, size, store in zip(log.addr, log.size, log.store):
            ref.access(addr, size, bool(store))
        ref.reset_stats()
        assert _full_state(fast) == _full_state(ref)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_lane_ops(), min_size=1, max_size=40), st.data())
    def test_play_matches_access_lanes_per_op(self, ops, data):
        """``play`` over an op range leaves the stats and state of
        ``access_lanes`` over each of those ops."""
        log = TraceLog(Program())
        for mem, is_store in ops:
            for a in mem:
                log.access(a.addr, a.size, is_store, a.lane)
            log.record(0, None)
        start = data.draw(st.integers(0, len(ops)))
        stop = data.draw(st.integers(start, len(ops)))
        fast, ref, inplace = (CacheHierarchy(_TINY) for _ in range(3))
        log.play(fast, start, stop)
        for k, (mem, is_store) in enumerate(ops[start:stop], start):
            ref.access_lanes(*_columns(mem), is_store)
            # the op's lanes in place, at lo:hi of the log's whole columns
            inplace.access_lanes(log.addr, log.size, log.bounds[k],
                                 log.bounds[k + 1], is_store)
        assert _full_state(fast) == _full_state(ref)
        assert fast.stats == ref.stats
        assert _full_state(inplace) == _full_state(ref)
        assert inplace.stats == ref.stats
