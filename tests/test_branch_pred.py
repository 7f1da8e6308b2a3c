"""Tests for the tournament branch predictor (Table I)."""

import random
from dataclasses import asdict

import pytest

from repro.common.config import BranchPredictorConfig
from repro.pipeline.branch_pred import ReturnAddressStack, TournamentPredictor


def predictor(**kw):
    return TournamentPredictor(BranchPredictorConfig(**kw)) if kw else TournamentPredictor()


class TestDirectionPrediction:
    def test_learns_always_taken(self):
        # ~10 outcomes are needed to saturate the 10-bit global history
        # register before the global component trains a stable index.
        p = predictor()
        for _ in range(25):
            p.update(0x40, True, 0x10)
        assert p.predict(0x40) is True

    def test_learns_always_not_taken(self):
        p = predictor()
        for _ in range(25):
            p.update(0x40, False)
        assert p.predict(0x40) is False

    def test_loop_branch_low_mispredicts(self):
        """A loop back-edge taken 99 times then not taken: after warmup the
        only mispredicts are the initial learning and the final exit."""
        p = predictor()
        mispredicts = 0
        for _ in range(99):
            mispredicts += p.update(0x80, True, 0x10)
        mispredicts += p.update(0x80, False)
        # warm-up (history saturation) plus the final exit
        assert mispredicts <= 16

    def test_alternating_pattern_learned_by_local_history(self):
        """Local history catches period-2 patterns a 2-bit counter cannot."""
        p = predictor()
        outcomes = [bool(i % 2) for i in range(200)]
        mispredicts = sum(
            p.update(0x44, taken, 0x10 if taken else None) for taken in outcomes
        )
        # after warmup the pattern is fully predictable
        assert mispredicts < 40

    def test_distinct_branches_do_not_interfere_in_local(self):
        p = predictor()
        for _ in range(16):
            p.update(0x100, True, 0x10)
            p.update(0x104, False)
        assert p.predict(0x100) is True
        assert p.predict(0x104) is False


class TestBtb:
    def test_first_taken_is_btb_miss(self):
        p = predictor()
        assert p.update(0x40, True, 0x10) is True
        assert p.stats.btb_misses == 1

    def test_target_remembered(self):
        p = predictor()
        p.update(0x40, True, 0x10)
        assert p.predict_target(0x40) == 0x10

    def test_target_change_detected(self):
        p = predictor()
        for _ in range(4):
            p.update(0x40, True, 0x10)
        before = p.stats.btb_misses
        p.update(0x40, True, 0x20)  # new target: BTB mispredict
        assert p.stats.btb_misses == before + 1

    def test_btb_capacity_eviction(self):
        p = predictor(btb_entries=4)
        for i in range(5):
            p.update(0x100 + 8 * i, True, 0x10)
        assert p.predict_target(0x100) is None  # evicted (FIFO)
        assert p.predict_target(0x120) == 0x10

    def test_not_taken_never_btb_miss(self):
        p = predictor()
        p.update(0x40, False)
        assert p.stats.btb_misses == 0


class TestStats:
    def test_lookup_and_mispredict_counts(self):
        p = predictor()
        for _ in range(30):
            p.update(0x40, True, 0x10)
        assert p.stats.lookups == 30
        assert 0 < p.stats.mispredict_rate < 1


class TestReturnAddressStack:
    def test_push_pop_lifo(self):
        ras = ReturnAddressStack(8)
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100

    def test_empty_pop(self):
        assert ReturnAddressStack(8).pop() is None

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(2)
        ras.push(1)
        ras.push(2)
        ras.push(3)
        assert len(ras) == 2
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None


def _saturate(counter: int, taken: bool, max_value: int = 3) -> int:
    if taken:
        return min(counter + 1, max_value)
    return max(counter - 1, 0)


class HelperPredictor(TournamentPredictor):
    """The predictor as it was written with one helper per index and
    counter step: the reference the inlined ``update`` must match."""

    def _local_index(self, pc):
        return pc % self.config.local_entries

    def _local_pattern(self, pc):
        return self._local_history[self._local_index(pc)] & (
            (1 << self.config.local_history_bits) - 1
        )

    def _global_index(self, pc):
        return (self._ghr ^ pc) % self.config.global_entries

    def _chooser_index(self, pc):
        return (self._ghr ^ (pc >> 2)) % self.config.chooser_entries

    def predict(self, pc):
        local = self._local_pht[self._local_pattern(pc)] >= 2
        global_ = self._global_pht[self._global_index(pc)] >= 2
        use_global = self._chooser[self._chooser_index(pc)] >= 2
        return global_ if use_global else local

    def update(self, pc, taken, target=None):
        self.stats.lookups += 1
        local_pattern = self._local_pattern(pc)
        local_pred = self._local_pht[local_pattern] >= 2
        global_index = self._global_index(pc)
        global_pred = self._global_pht[global_index] >= 2
        chooser_index = self._chooser_index(pc)
        use_global = self._chooser[chooser_index] >= 2
        prediction = global_pred if use_global else local_pred
        mispredict = prediction != taken
        if taken:
            if self._btb.get(pc) != target:
                self.stats.btb_misses += 1
                mispredict = True
            self._btb_insert(pc, target)
        if local_pred != global_pred:
            self._chooser[chooser_index] = _saturate(
                self._chooser[chooser_index], global_pred == taken
            )
        self._local_pht[local_pattern] = _saturate(
            self._local_pht[local_pattern], taken
        )
        self._global_pht[global_index] = _saturate(
            self._global_pht[global_index], taken
        )
        mask = (1 << self.config.local_history_bits) - 1
        idx = self._local_index(pc)
        self._local_history[idx] = ((self._local_history[idx] << 1) | taken) & mask
        ghr_mask = (1 << self.config.global_history_bits) - 1
        self._ghr = ((self._ghr << 1) | taken) & ghr_mask
        if mispredict:
            self.stats.mispredicts += 1
        return mispredict

    def _btb_insert(self, pc, target):
        if target is None:
            return
        if pc not in self._btb and len(self._btb) >= self.config.btb_entries:
            evict = self._btb_order.pop(0)
            del self._btb[evict]
        if pc not in self._btb:
            self._btb_order.append(pc)
        self._btb[pc] = target


def _state(p: TournamentPredictor) -> tuple:
    return (
        asdict(p.stats), list(p._local_history), list(p._local_pht),
        list(p._global_pht), p._ghr, list(p._chooser), dict(p._btb),
        list(p._btb_order),
    )


class TestInlinedUpdateMatchesHelpers:
    """``update`` against the helper-based reference over random branch
    streams: every return value, every ``BranchStats`` field and every
    table must agree after each branch."""

    CONFIGS = {
        "table_i": {},
        # few BTB entries and pcs that collide in every table
        "conflicts": {"btb_entries": 3, "local_entries": 4,
                      "global_entries": 8, "chooser_entries": 8},
        # short histories wrap around within a few branches
        "short_history": {"local_history_bits": 2, "global_history_bits": 3,
                          "btb_entries": 5},
    }

    @staticmethod
    def _stream(rng: random.Random, length: int):
        pcs = [rng.randrange(0, 4096) * 4 for _ in range(rng.randint(2, 24))]
        bias = {pc: rng.random() for pc in pcs}
        for _ in range(length):
            pc = rng.choice(pcs)
            taken = rng.random() < bias[pc]
            if not taken:
                yield pc, False, None
                continue
            # mostly the branch's own target; sometimes a new one or none
            roll = rng.random()
            target = (None if roll < 0.05 else rng.randrange(64) if roll < 0.2
                      else pc // 4 % 64)
            yield pc, True, target

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", range(6))
    def test_random_streams(self, config, seed):
        cfg = BranchPredictorConfig(**self.CONFIGS[config])
        fast, slow = TournamentPredictor(cfg), HelperPredictor(cfg)
        rng = random.Random(seed)
        trained = False
        for pc, taken, target in self._stream(rng, 3000):
            assert fast.predict(pc) == slow.predict(pc)
            assert fast.update(pc, taken, target) == slow.update(pc, taken, target)
            assert _state(fast) == _state(slow)
            trained = trained or fast._chooser != [2] * cfg.chooser_entries
        assert fast.stats.lookups == 3000
        assert fast.stats.mispredicts and fast.stats.btb_misses
        assert trained  # the chooser moved, so both branches of its training ran
        if config == "conflicts":
            assert len(fast._btb) == cfg.btb_entries  # evictions happened
