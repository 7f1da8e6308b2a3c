"""Tournament branch predictor (Table I).

64-entry local predictor, 1024-entry global (gshare-style) predictor,
1024-entry chooser, 128-entry BTB and an 8-entry return-address stack.
Two-bit saturating counters throughout.  The ISA has no calls/returns, so
the RAS is exercised only by its own tests, but it is implemented for
completeness with the standard overflow-wraps semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import BranchPredictorConfig


@dataclass
class BranchStats:
    lookups: int = 0
    mispredicts: int = 0
    btb_misses: int = 0

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.lookups if self.lookups else 0.0


class ReturnAddressStack:
    def __init__(self, entries: int) -> None:
        self._entries = entries
        self._stack: list[int] = []

    def push(self, addr: int) -> None:
        if len(self._stack) >= self._entries:
            self._stack.pop(0)  # oldest entry lost on overflow
        self._stack.append(addr)

    def pop(self) -> int | None:
        return self._stack.pop() if self._stack else None

    def __len__(self) -> int:
        return len(self._stack)


class TournamentPredictor:
    def __init__(self, config: BranchPredictorConfig | None = None) -> None:
        self.config = config or BranchPredictorConfig()
        cfg = self.config
        # Local: per-PC history feeding a pattern table of 2-bit counters.
        self._local_history = [0] * cfg.local_entries
        self._local_pht = [1] * (1 << cfg.local_history_bits)
        # Global: 2-bit counters indexed by the global history register.
        self._global_pht = [1] * cfg.global_entries
        self._ghr = 0
        # Chooser: 0/1 -> prefer local, 2/3 -> prefer global.
        self._chooser = [2] * cfg.chooser_entries
        self._btb: dict[int, int] = {}
        self._btb_order: list[int] = []
        self.ras = ReturnAddressStack(cfg.ras_entries)
        self.stats = BranchStats()

    # -- predict / update -------------------------------------------------------

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""
        cfg = self.config
        ghr = self._ghr
        history = self._local_history[pc % cfg.local_entries]
        local = self._local_pht[history & ((1 << cfg.local_history_bits) - 1)] >= 2
        global_ = self._global_pht[(ghr ^ pc) % cfg.global_entries] >= 2
        use_global = self._chooser[(ghr ^ (pc >> 2)) % cfg.chooser_entries] >= 2
        return global_ if use_global else local

    def predict_target(self, pc: int) -> int | None:
        return self._btb.get(pc)

    def update(self, pc: int, taken: bool, target: int | None = None) -> bool:
        """Record the outcome; returns True when this was a mispredict.

        A taken branch whose target misses in the BTB also counts as a
        mispredict (the frontend cannot redirect without a target).  The
        BTB replaces its oldest entry first.  Every counter is a two-bit
        saturating counter, updated in place without a helper call: this
        runs once per conditional branch of every timed trace.
        """
        cfg = self.config
        stats = self.stats
        stats.lookups += 1
        local_history = self._local_history
        local_index = pc % cfg.local_entries
        history_mask = (1 << cfg.local_history_bits) - 1
        history = local_history[local_index]
        local_pattern = history & history_mask
        local_pht = self._local_pht
        local_counter = local_pht[local_pattern]
        local_pred = local_counter >= 2
        ghr = self._ghr
        global_index = (ghr ^ pc) % cfg.global_entries
        global_pht = self._global_pht
        global_counter = global_pht[global_index]
        global_pred = global_counter >= 2
        chooser = self._chooser
        chooser_index = (ghr ^ (pc >> 2)) % cfg.chooser_entries
        choice = chooser[chooser_index]
        prediction = global_pred if choice >= 2 else local_pred

        mispredict = prediction != taken
        if taken:
            btb = self._btb
            if btb.get(pc) != target:
                stats.btb_misses += 1
                mispredict = True
            if target is not None:
                if pc not in btb:
                    if len(btb) >= cfg.btb_entries:
                        del btb[self._btb_order.pop(0)]
                    self._btb_order.append(pc)
                btb[pc] = target
            # counters move up, saturating at 3
            if local_counter < 3:
                local_pht[local_pattern] = local_counter + 1
            if global_counter < 3:
                global_pht[global_index] = global_counter + 1
        else:
            # counters move down, saturating at 0
            if local_counter:
                local_pht[local_pattern] = local_counter - 1
            if global_counter:
                global_pht[global_index] = global_counter - 1

        # Train the chooser only when the two components disagree: toward
        # global when it was right, toward local when it was wrong.
        if local_pred != global_pred:
            if global_pred == taken:
                if choice < 3:
                    chooser[chooser_index] = choice + 1
            elif choice:
                chooser[chooser_index] = choice - 1
        local_history[local_index] = ((history << 1) | taken) & history_mask
        self._ghr = ((ghr << 1) | taken) & ((1 << cfg.global_history_bits) - 1)

        if mispredict:
            stats.mispredicts += 1
        return mispredict
