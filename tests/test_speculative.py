"""Direct unit tests for the SRV speculative buffer."""

import collections
import gc
import random
import weakref

import pytest

from repro.common.errors import MemoryAccessError
from repro.emu.metrics import SrvMetrics
from repro.emu.speculative import SpeculativeBuffer
from repro.memory import MemoryImage


@pytest.fixture
def mem():
    image = MemoryImage(size=4096, base=0x1000)
    for i in range(64):
        image.write_int(0x1000 + 4 * i, 1000 + i, 4)
    return image


@pytest.fixture
def buffer(mem):
    return SpeculativeBuffer(mem, SrvMetrics())


class TestLoadForwarding:
    def test_memory_when_empty(self, buffer):
        value, forwarded = buffer.load(0x1000, 4, lane=0, instr=0)
        assert value == 1000
        assert not forwarded

    def test_same_lane_earlier_instr_forwards(self, buffer):
        buffer.store(0x1000, 4, 77, lane=2, instr=0)
        value, forwarded = buffer.load(0x1000, 4, lane=2, instr=1)
        assert value == 77 and forwarded

    def test_older_lane_forwards(self, buffer):
        buffer.store(0x1000, 4, 55, lane=1, instr=3)
        value, forwarded = buffer.load(0x1000, 4, lane=9, instr=0)
        # lane 9 instr 0 is sequentially later than lane 1 instr 3
        assert value == 55 and forwarded

    def test_later_lane_suppressed_war(self, buffer):
        buffer.store(0x1000, 4, 99, lane=9, instr=0)
        value, forwarded = buffer.load(0x1000, 4, lane=1, instr=1)
        assert value == 1000            # memory, not the future store
        assert not forwarded
        assert buffer.metrics.war_events == 1

    def test_latest_older_store_wins(self, buffer):
        buffer.store(0x1000, 4, 11, lane=0, instr=0)
        buffer.store(0x1000, 4, 22, lane=3, instr=0)
        value, _ = buffer.load(0x1000, 4, lane=8, instr=1)
        assert value == 22

    def test_partial_byte_forwarding(self, buffer):
        """Bytes mix buffered-store data and memory (Witt-style)."""
        buffer.store(0x1002, 2, 0xBEEF, lane=0, instr=0)
        value, forwarded = buffer.load(0x1000, 4, lane=1, instr=1)
        assert forwarded
        assert value & 0xFFFF == 1000 & 0xFFFF       # low bytes from memory
        assert value >> 16 == 0xBEEF                 # high bytes forwarded


class TestRawDetection:
    def test_store_flags_later_lane_load(self, buffer):
        buffer.load(0x1008, 4, lane=5, instr=0)
        buffer.store(0x1008, 4, 1, lane=2, instr=1)
        assert buffer.needs_replay == {5}
        assert buffer.metrics.raw_violations == 1

    def test_store_ignores_older_lane_load(self, buffer):
        buffer.load(0x1008, 4, lane=1, instr=0)
        buffer.store(0x1008, 4, 1, lane=4, instr=1)
        assert buffer.needs_replay == set()

    def test_no_flag_without_overlap(self, buffer):
        buffer.load(0x1008, 4, lane=5, instr=0)
        buffer.store(0x1020, 4, 1, lane=2, instr=1)
        assert buffer.needs_replay == set()

    def test_load_after_store_not_flagged(self, buffer):
        """A load that executes after the store forwarded correctly."""
        buffer.store(0x1008, 4, 9, lane=2, instr=0)
        buffer.load(0x1008, 4, lane=5, instr=1)
        assert buffer.needs_replay == set()


class TestCommit:
    def test_commit_sequential_order(self, buffer, mem):
        buffer.store(0x1000, 4, 111, lane=5, instr=0)   # sequentially later
        buffer.store(0x1000, 4, 222, lane=2, instr=0)   # earlier
        buffer.commit()
        assert mem.read_int(0x1000, 4) == 111           # lane 5 wins

    def test_replay_updates_entry_in_place(self, buffer, mem):
        buffer.store(0x1000, 4, 1, lane=3, instr=0)
        buffer.store(0x1000, 4, 2, lane=3, instr=0)     # replay: same SRV-id
        buffer.commit()
        assert mem.read_int(0x1000, 4) == 2
        assert buffer.lsu_entries_used() == 1

    def test_discard(self, buffer, mem):
        buffer.store(0x1000, 4, 5, lane=0, instr=0)
        buffer.discard()
        buffer.commit()
        assert mem.read_int(0x1000, 4) == 1000

    def test_commit_prefix(self, buffer, mem):
        buffer.store(0x1000, 4, 10, lane=0, instr=0)   # older lane: committed
        buffer.store(0x1004, 4, 20, lane=2, instr=0)   # oldest active, <= offset
        buffer.store(0x1008, 4, 30, lane=2, instr=5)   # beyond offset: dropped
        buffer.store(0x100C, 4, 40, lane=7, instr=0)   # younger lane: dropped
        buffer.commit_prefix(oldest_lane=2, offset=3)
        assert mem.read_int(0x1000, 4) == 10
        assert mem.read_int(0x1004, 4) == 20
        assert mem.read_int(0x1008, 4) == 1002   # untouched
        assert mem.read_int(0x100C, 4) == 1003   # untouched
        assert buffer.lsu_entries_used() == 0
        assert buffer.needs_replay == set()


class TestTmMode:
    def test_war_aborts_writing_lane(self, mem):
        buffer = SpeculativeBuffer(mem, SrvMetrics(), tm_mode=True)
        buffer.store(0x1000, 4, 99, lane=9, instr=0)
        buffer.load(0x1000, 4, lane=1, instr=1)
        assert 9 in buffer.needs_replay
        assert buffer.metrics.tm_war_replays == 1

    def test_srv_mode_does_not(self, buffer):
        buffer.store(0x1000, 4, 99, lane=9, instr=0)
        buffer.load(0x1000, 4, lane=1, instr=1)
        assert buffer.needs_replay == set()


def _view(buffer: SpeculativeBuffer) -> tuple[dict, dict]:
    """The buffer's entries, independent of how it stores them:
    ``(addr, size, lane, instr)`` per load SRV-id and ``(addr, data,
    lane, instr)`` per store SRV-id."""
    loads = {
        (instr, lane): (addr, size, lane, instr)
        for instr, (size, _, _, lanes) in buffer._loads.items()
        for lane, addr in lanes.items()
    }
    stores = {
        (instr, lane): (addr, data, lane, instr)
        for instr, (_, _, _, lanes) in buffer._stores.items()
        for lane, (addr, data) in lanes.items()
    }
    return loads, stores


def _spans_cover(buffer: SpeculativeBuffer) -> bool:
    """Whether each instruction's span holds the bytes of all its lanes."""
    for records in (buffer._loads, buffer._stores):
        for size, lo, hi, lanes in records.values():
            for entry in lanes.values():
                addr = entry if isinstance(entry, int) else entry[0]
                if not lo <= addr or addr + size > hi:
                    return False
    return True


def _bounds(buffer: SpeculativeBuffer) -> tuple[int, int, int, int]:
    return buffer._smin, buffer._smax, buffer._lmin, buffer._lmax


def _outcome(load):
    """What ``load()`` returned, or the text of the memory error it raised."""
    try:
        return load()
    except MemoryAccessError as exc:
        return f"MemoryAccessError: {exc}"


class ScanAllBuffer:
    """Reference buffer: every walk scans every record, no index or bounds.

    Its records are the representation-neutral view itself: ``loads``
    maps an SRV-id to ``(addr, size, lane, instr, tick)`` and ``stores``
    to ``(addr, data, lane, instr)``.
    """

    def __init__(self, memory, metrics, tm_mode=False):
        self.memory = memory
        self.metrics = metrics
        self.tm_mode = tm_mode
        self.needs_replay = set()
        self.loads = {}
        self.stores = {}
        self._tick = 0

    def view(self):
        loads = {key: record[:4] for key, record in self.loads.items()}
        return loads, self.stores

    def load(self, addr, size, lane, instr):
        self._tick += 1
        self.loads[(instr, lane)] = (addr, size, lane, instr, self._tick)
        end = addr + size
        war_seen = False
        overlapping = []
        for s_addr, data, s_lane, s_instr in self.stores.values():
            if s_addr >= end or addr >= s_addr + len(data):
                continue
            if (s_lane, s_instr) < (lane, instr):
                overlapping.append((s_addr, data, s_lane, s_instr))
            else:
                war_seen = True
                if self.tm_mode and s_lane > lane:
                    self.needs_replay.add(s_lane)
                    self.metrics.tm_war_replays += 1
        if war_seen:
            self.metrics.war_events += 1
        result = bytearray(self.memory.read_bytes(addr, size))
        best = [None] * size
        forwarded = False
        for s_addr, data, s_lane, s_instr in overlapping:
            pos = (s_lane, s_instr)
            for byte_addr in range(max(addr, s_addr),
                                   min(end, s_addr + len(data))):
                idx = byte_addr - addr
                if best[idx] is None or best[idx] < pos:
                    best[idx] = pos
                    result[idx] = data[byte_addr - s_addr]
                    forwarded = True
        return int.from_bytes(result, "little"), forwarded

    def store(self, addr, size, value, lane, instr):
        self._tick += 1
        for s_addr, data, s_lane, _ in self.stores.values():
            if s_lane > lane and s_addr < addr + size and addr < s_addr + len(data):
                self.metrics.waw_events += 1
                break
        for l_addr, l_size, l_lane, _, l_tick in self.loads.values():
            if l_lane > lane and l_tick < self._tick and (
                l_addr < addr + size and addr < l_addr + l_size
            ):
                self.needs_replay.add(l_lane)
                self.metrics.raw_violations += 1
        data = (value & ((1 << (size * 8)) - 1)).to_bytes(size, "little")
        self.stores[(instr, lane)] = (addr, data, lane, instr)

    def commit(self):
        for addr, data, _, _ in sorted(
            self.stores.values(), key=lambda r: (r[2], r[3])
        ):
            self.memory.write_bytes(addr, data)


def _random_image(rng: random.Random) -> MemoryImage:
    image = MemoryImage(size=4096, base=0x1000)
    image.write_bytes(0x1000, bytes(rng.randrange(256) for _ in range(1024)))
    return image


def _random_instruction(rng: random.Random, lanes: int,
                        earlier: list | None = None,
                        elem: int | None = None) -> dict:
    """Geometry of one vector memory instruction over a few 64-byte blocks,
    of ``elem``-byte elements (a random size when not given).

    With ``earlier`` instructions given, it may instead access the same
    bytes as one of them (``a[i] = f(a[i])``: a store over load records,
    or a load over buffered stores).
    """
    if earlier and rng.random() < 0.3:
        return {**rng.choice(earlier), "is_store": rng.random() < 0.45}
    if elem is None:
        elem = rng.choice([1, 2, 4, 8])
    kind = rng.choice(["contiguous", "broadcast", "gather"])
    base = 0x1000 + rng.randrange(0, 384)
    if kind == "contiguous":
        addrs = [base + lane * elem for lane in range(lanes)]
    elif kind == "broadcast":
        addrs = [base] * lanes
    else:
        addrs = [0x1000 + rng.randrange(0, 384) for _ in range(lanes)]
    return {"elem": elem, "addrs": addrs, "is_store": rng.random() < 0.45}


class TestBatchedLanes:
    """``load_lanes``/``store_lanes`` against per-lane calls in lane order,
    and both against a buffer that scans every record."""

    LANES = 16

    def _run_region(self, rng, tm_mode):
        """Drive one region's passes through the three buffers; returns
        the batched buffer and a count of the shapes the stream met."""
        image = _random_image(rng)
        images = [image, image.clone(), image.clone()]
        metrics = [SrvMetrics() for _ in range(3)]
        batched = SpeculativeBuffer(images[0], metrics[0], tm_mode=tm_mode)
        per_lane = SpeculativeBuffer(images[1], metrics[1], tm_mode=tm_mode)
        reference = ScanAllBuffer(images[2], metrics[2], tm_mode=tm_mode)
        seen = collections.Counter()
        body = []
        for _ in range(rng.randint(2, 6)):
            body.append(_random_instruction(rng, self.LANES, body))
        active = list(range(self.LANES))
        for _ in range(rng.randint(1, 4)):  # first pass plus replays
            for instr, inst in enumerate(body):
                if rng.random() < 0.3:
                    # a replay re-executes the access at moved addresses,
                    # with the instruction's own element size
                    inst = body[instr] = {
                        **inst,
                        **_random_instruction(rng, self.LANES,
                                              elem=inst["elem"]),
                        "is_store": inst["is_store"],
                    }
                lanes = [lane for lane in active if rng.random() < 0.8]
                if not lanes:
                    continue
                elem = inst["elem"]
                addrs = [inst["addrs"][lane] for lane in lanes]
                lo, hi = min(addrs), max(addrs) + elem
                loaded, stored = _view(batched)
                if inst["is_store"]:
                    if any(addr < hi and lo < addr + size
                           for addr, size, _, _ in loaded.values()):
                        seen["store over loads"] += 1
                    values = [rng.getrandbits(64) for _ in lanes]
                    batched.store_lanes(addrs, elem, values, lanes, instr)
                    for buf in (per_lane, reference):
                        for addr, value, lane in zip(addrs, values, lanes):
                            buf.store(addr, elem, value, lane, instr)
                else:
                    if len(lanes) > 2 and rng.random() < 0.1:
                        # a lane in the middle reads past the image
                        seen["lane outside memory"] += 1
                        addrs[rng.randrange(1, len(lanes) - 1)] = (
                            0x2000 - rng.randrange(0, elem)
                        )
                    if any(addr < hi and lo < addr + len(data)
                           for addr, data, _, _ in stored.values()):
                        seen["load over stores"] += 1
                    got = _outcome(
                        lambda: batched.load_lanes(addrs, elem, lanes, instr)
                    )
                    for buf in (per_lane, reference):
                        def each(buf=buf):
                            pairs = [
                                buf.load(addr, elem, lane, instr)
                                for addr, lane in zip(addrs, lanes)
                            ]
                            return ([v for v, _ in pairs],
                                    any(f for _, f in pairs))
                        assert got == _outcome(each)
                for buf in (per_lane, reference):
                    assert batched.needs_replay == buf.needs_replay
                    assert batched.metrics == buf.metrics
                assert _bounds(batched) == _bounds(per_lane)
                assert _view(batched) == _view(per_lane) == reference.view()
                assert _spans_cover(batched) and _spans_cover(per_lane)
            active = sorted(batched.needs_replay) or active
            for buf in (batched, per_lane, reference):
                buf.needs_replay.clear()
        for buf in (batched, per_lane, reference):
            buf.commit()
        assert images[0].snapshot() == images[1].snapshot() == images[2].snapshot()
        return batched, seen

    @pytest.mark.parametrize("tm_mode", [False, True])
    @pytest.mark.parametrize("seed", range(25))
    def test_random_regions_match_per_lane_and_scan_all(self, seed, tm_mode):
        self._run_region(random.Random(seed), tm_mode)

    def test_streams_exercise_conflicts(self):
        totals = SrvMetrics()
        seen = collections.Counter()
        for seed in range(25):
            buffer, shapes = self._run_region(random.Random(seed), True)
            metrics = buffer.metrics
            totals.raw_violations += metrics.raw_violations
            totals.war_events += metrics.war_events
            totals.waw_events += metrics.waw_events
            totals.tm_war_replays += metrics.tm_war_replays
            seen += shapes
        assert totals.raw_violations and totals.war_events
        assert totals.waw_events and totals.tm_war_replays
        assert seen["store over loads"] and seen["load over stores"]
        assert seen["lane outside memory"]

    def test_moved_lane_is_found_at_its_new_address_only(self, buffer):
        buffer.store(0x1000, 4, 7, lane=0, instr=0)
        buffer.store(0x103E, 4, 8, lane=0, instr=0)  # replay, now straddling
        buffer.store(0x1100, 4, 9, lane=0, instr=0)  # replay, moved away
        assert _view(buffer)[1] == {(0, 0): (0x1100, (9).to_bytes(4, "little"),
                                             0, 0)}
        assert buffer._stores[0][1:3] == [0x1000, 0x1104]  # the span widens
        value, forwarded = buffer.load(0x1000, 4, lane=5, instr=1)
        assert (value, forwarded) == (1000, False)
        value, forwarded = buffer.load(0x1100, 4, lane=5, instr=2)
        assert (value, forwarded) == (9, True)

    @pytest.mark.parametrize("is_store", [False, True])
    def test_an_instruction_keeps_its_access_size(self, buffer, is_store):
        access = (
            (lambda size: buffer.store(0x1000, size, 1, lane=0, instr=3))
            if is_store else
            (lambda size: buffer.load(0x1000, size, lane=0, instr=3))
        )
        access(4)
        with pytest.raises(ValueError, match="instruction 3 accessed 2 bytes"):
            access(2)
        assert buffer.lsu_entries_used() == 1

    @staticmethod
    def _spy_per_lane(monkeypatch) -> list:
        """Record every per-lane ``load``/``store`` call on the buffer."""
        calls = []
        for name in ("load", "store"):
            real = getattr(SpeculativeBuffer, name)
            monkeypatch.setattr(
                SpeculativeBuffer, name,
                lambda self, *args, real=real: calls.append(args) or real(self, *args),
            )
        return calls

    def test_disjoint_vector_skips_the_per_lane_walk(self, mem, monkeypatch):
        """A vector that overlaps buffered stores is still one call, and
        it loads what the per-lane reference loads."""
        buffer = SpeculativeBuffer(mem, SrvMetrics())
        reference = ScanAllBuffer(mem.clone(), SrvMetrics())
        calls = self._spy_per_lane(monkeypatch)
        addrs = [0x1000 + 4 * lane for lane in range(16)]
        lanes = list(range(16))
        values, forwarded = buffer.load_lanes(addrs, 4, lanes, 0)
        assert values == [1000 + lane for lane in range(16)] and not forwarded
        buffer.store_lanes([0x1008, 0x1022], 4, [5, 0xBEEF], [0, 9], 1)
        values, forwarded = buffer.load_lanes(addrs, 4, lanes, 2)
        assert calls == [] and buffer.lsu_entries_used() == 34
        assert forwarded and values[2] == 5
        for addr, lane in zip(addrs, lanes):
            reference.load(addr, 4, lane, 0)
        reference.store(0x1008, 4, 5, 0, 1)
        reference.store(0x1022, 4, 0xBEEF, 9, 1)
        want = [reference.load(addr, 4, lane, 2)
                for addr, lane in zip(addrs, lanes)]
        assert (values, forwarded) == ([v for v, _ in want], True)
        assert _view(buffer) == reference.view()
        assert buffer.metrics == reference.metrics
        assert buffer.needs_replay == reference.needs_replay

    def test_vector_over_no_recorded_byte_skips_the_per_lane_walk(
        self, mem, monkeypatch
    ):
        """Vectors over no recorded byte and vectors over records are each
        one call; a store over load records flags the RAWs the per-lane
        reference flags."""
        buffer = SpeculativeBuffer(mem, SrvMetrics())
        reference = ScanAllBuffer(mem.clone(), SrvMetrics())
        for buf in (buffer, reference):
            buf.store(0x1000, 4, 5, 3, 0)
            buf.store(0x1100, 4, 5, 3, 1)
            buf.load(0x1000, 4, 9, 2)
            buf.load(0x1100, 4, 9, 3)
        calls = self._spy_per_lane(monkeypatch)
        # inside both bounds [0x1000, 0x1104), but over no recorded byte
        loaded = [0x1080 + 4 * lane for lane in range(16)]
        lanes = list(range(16))
        values, forwarded = buffer.load_lanes(loaded, 4, lanes, 4)
        assert values == [1032 + lane for lane in range(16)] and not forwarded
        stored = [0x10C0 + 4 * lane for lane in range(16)]
        buffer.store_lanes(stored, 4, [7] * 16, lanes, 5)
        # lanes 0 and 1 storing over the bytes lanes 2 and 3 loaded meet
        # a RAW each
        buffer.store_lanes(loaded[2:4], 4, [1, 1], [0, 1], 6)
        assert calls == [] and buffer.lsu_entries_used() == 38
        assert buffer.needs_replay == {2, 3} and _spans_cover(buffer)
        assert buffer.metrics.raw_violations == 2
        for addr, lane in zip(loaded, lanes):
            reference.load(addr, 4, lane, 4)
        for addr, lane in zip(stored, lanes):
            reference.store(addr, 4, 7, lane, 5)
        for addr, lane in zip(loaded[2:4], [0, 1]):
            reference.store(addr, 4, 1, lane, 6)
        assert _view(buffer) == reference.view()
        assert buffer.metrics == reference.metrics
        assert buffer.needs_replay == reference.needs_replay

    def test_store_vector_blocked_by_a_load_record_alone(self, buffer):
        buffer.load(0x1000, 4, lane=7, instr=0)
        buffer.store_lanes([0x1000, 0x1004], 4, [1, 2], [0, 1], 1)
        assert buffer.needs_replay == {7}
        assert buffer.metrics.raw_violations == 1

    @pytest.mark.parametrize("with_store", [False, True])
    def test_out_of_image_lane_raises_the_per_lane_error(self, mem, with_store):
        lanes = list(range(6))
        addrs = [0x1000 + 4 * lane for lane in range(5)] + [0x1000 + 4096]
        outcomes = []
        for batched in (True, False):
            buf = SpeculativeBuffer(mem.clone(), SrvMetrics())
            if with_store:
                buf.store(0x1004, 4, 9, lane=0, instr=0)
            with pytest.raises(MemoryAccessError) as info:
                if batched:
                    buf.load_lanes(addrs, 4, lanes, 1)
                else:
                    for addr, lane in zip(addrs, lanes):
                        buf.load(addr, 4, lane, 1)
            outcomes.append((str(info.value), _view(buf), buf.metrics))
        assert outcomes[0] == outcomes[1]


class TestLifetime:
    def test_buffer_with_records_is_freed_by_reference_counting(self, mem):
        """A region's buffer must not sit in a reference cycle: its
        records would outlive the region until the cycle collector ran."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            buffer = SpeculativeBuffer(mem, SrvMetrics())
            buffer.store(0x1000, 4, 1, lane=3, instr=0)
            buffer.store(0x103E, 4, 2, lane=1, instr=1)  # straddles a line
            buffer.load_lanes([0x1000 + 4 * lane for lane in range(8)], 4,
                              list(range(8)), 2)
            buffer.store_lanes([0x1200, 0x1204], 4, [5, 6], [0, 1], 3)
            assert buffer.lsu_entries_used() == 12
            alive = weakref.ref(buffer)
            del buffer
            assert alive() is None
        finally:
            if enabled:
                gc.enable()
