"""In-order core with SRV (paper section III-D6).

"Applying SRV to an in-order processor is more straightforward than for
an out-of-order machine […] In many ways, however, adding SRV is akin to
adding a limited form of out-of-order execution to an in-order CPU, and
still needs logic to detect data-dependence violations.  To achieve this,
we simply add an LSU to a standard in-order processor pipeline, with the
SRV extensions described in section III-B."

The model: a dual-issue in-order pipeline — each instruction issues at
``max(previous issue, operand ready)`` subject to per-cycle width — with
the same SRV LSU bolted on.  Loads never bypass older stores (no store-set
speculation needed), so the vertical machinery reduces to in-order
forwarding; the horizontal (cross-lane) disambiguation is unchanged, which
is exactly the paper's point.

Like :class:`repro.pipeline.core.PipelineModel`, the model is a streaming
consumer: :meth:`InOrderModel.stream` returns a primed coroutine fed one
op index of a :class:`~repro.pipeline.trace.TraceLog` per ``send``,
retaining only a 15-op store window and the in-flight LSU entries;
:meth:`InOrderModel.run` drives it over a whole log.

Used by the in-order ablation benchmark: SRV's relative benefit is larger
on an in-order core because the scalar baseline cannot hide latency by
reordering.
"""

from __future__ import annotations

from collections import deque

from repro.common.config import TABLE_I, MachineConfig
from repro.isa.instructions import SrvDirection
from repro.lsu.unit import LoadStoreUnit
from repro.memory.hierarchy import CacheHierarchy
from repro.observe import events as _obs
from repro.pipeline.branch_pred import TournamentPredictor
from repro.pipeline.decode import pump_table
from repro.pipeline.stats import PipelineStats
from repro.pipeline.trace import (
    BRANCH_MASK,
    BRANCH_TAKEN,
    DOWN,
    EV_END_COMMIT,
    EV_END_REPLAY,
    EV_FALLBACK,
    EV_START,
    EVENT_MASK,
    IN_FALLBACK,
    IN_REGION,
    OpClass,
    TraceLog,
)

IN_ORDER_WIDTH = 2
FORWARD_LATENCY = 1

#: How far back an in-order memory op looks for the latest older store.
STORE_WINDOW = 15


class InOrderModel:
    """Trace-driven dual-issue in-order timing model with the SRV LSU."""

    def __init__(self, config: MachineConfig = TABLE_I) -> None:
        self.config = config
        self.caches = CacheHierarchy(config.memory)
        self.bpred = TournamentPredictor(config.branch)
        self.lsu = LoadStoreUnit(config)
        self.stats = PipelineStats()
        #: the trace log :meth:`stream` times (see PipelineModel.log)
        self.log: TraceLog | None = None
        #: progress-clock checkpoint (max completion so far), read
        #: mid-stream by the sampling layer; mirrors PipelineModel
        self.last_commit = 0
        self._lsu_live: list = []
        self._store_window: deque = deque(maxlen=STORE_WINDOW)
        #: see PipelineModel.warm
        self._l1_resident = False

    def run(self, log: TraceLog, warm: bool = False) -> PipelineStats:
        """Time every op of ``log`` (see :meth:`PipelineModel.run`)."""
        if warm:
            self.warm(log)
        else:
            self._l1_resident = False
        self.log = log
        pump = self.stream()
        send = pump.send
        try:
            for index in range(len(log)):
                send(index)
            send(None)
        except StopIteration:
            pass
        return self.stats

    def warm(self, log: TraceLog, start: int = 0,
             stop: int | None = None) -> None:
        """Warm the caches from ops ``start:stop`` of ``log`` (see
        :meth:`PipelineModel.warm`)."""
        self._l1_resident = log.warm(self.caches, start, stop)

    def stream(self):
        """A primed coroutine timing ops of ``self.log`` by index (send
        ``None`` to end)."""
        pump = self._pump()
        next(pump)
        return pump

    def _pump(self):
        from repro.pipeline.core import PipelineModel

        stats = self.stats
        bpred = self.bpred
        lsu = self.lsu
        mispredict_penalty = self.config.branch.mispredict_penalty
        srv_end_cls = OpClass.SRV_END
        branch_cls = OpClass.BRANCH

        log = self.log
        pcs = log.pc
        flags = log.bits
        bounds = log.bounds
        replay = log.replay
        table, register_count = pump_table(log.records)

        # observability (same contract as the OoO pump): all event work
        # sits behind `obs is not None`, so timing is unchanged when off,
        # and a null bus is timed as no bus
        obs = _obs.ACTIVE
        if obs is not None and obs.discards:
            obs = None
        region_idx = -1
        region_fallback = False
        region_start = 0
        pass_begin = 0

        # ready cycle of each register, by its dense id in the pump table
        reg_ready = [0] * register_count
        # min-heap of the in-flight baseline LSU entries by drain cycle
        lsu_live: list = []
        # (is_store, complete) for the last STORE_WINDOW ops — all the
        # in-order memory-ordering rule ever consults
        store_window: deque = deque(maxlen=STORE_WINDOW)
        self._lsu_live = lsu_live
        self._store_window = store_window

        issue_cursor = 0      # next cycle the issue stage is free
        issued_this_cycle = 0
        max_complete = 0
        helper = PipelineModel(self.config)
        helper.lsu = lsu        # share the LSU and its counters
        helper.caches = self.caches
        helper._l1_resident = self._l1_resident
        helper.stats = stats
        helper.log = log
        execute_mem = helper._execute_mem
        # in-order loads never bypass, so the vertical-squash machinery
        # must see no recent stores: a window that keeps none
        no_stores: deque = deque(maxlen=0)
        i = 0

        k = yield
        while k is not None:
            nxt = yield
            pc = pcs[k]
            bits = flags[k]
            (rec, op_class, is_mem, _, is_store, gather_scatter, _,
             src_regs, dst_regs, _, latency, is_vector) = table[pc]
            in_hw_region = bits & IN_REGION and not bits & IN_FALLBACK
            lo = bounds[k]
            hi = bounds[k + 1]
            mem_lanes = hi - lo
            is_mem = is_mem or mem_lanes > 0

            ready = issue_cursor
            for reg in src_regs:
                t = reg_ready[reg]
                if t > ready:
                    ready = t

            # In-order: a memory op waits for every older store to have
            # its data (no bypassing, section III-D6) unless SRV's region
            # machinery handles the ordering.
            if is_mem and not in_hw_region and i > 0:
                for was_store, s_complete in reversed(store_window):
                    if was_store:
                        if s_complete > ready:
                            ready = s_complete
                        break

            if op_class is srv_end_cls and max_complete > ready:
                ready = max_complete

            # dual-issue width
            if ready > issue_cursor:
                issue_cursor = ready
                issued_this_cycle = 0
            elif issued_this_cycle >= IN_ORDER_WIDTH:
                issue_cursor += 1
                issued_this_cycle = 0
            issue_at = issue_cursor
            issued_this_cycle += 1

            last_slot = issue_at
            if gather_scatter and mem_lanes > 1:
                last_slot += mem_lanes - 1

            if is_mem:
                complete = execute_mem(
                    pc, rec, lo, hi, bits, i, issue_at, last_slot,
                    in_hw_region, no_stores, lsu_live,
                )
                if is_store:
                    stats.stores += 1
                else:
                    stats.loads += 1
            else:
                complete = issue_at + latency
            store_window.append((is_store, complete))
            if obs is not None:
                obs.emit(
                    _obs.EventKind.ISSUE, "pipe", i, issue_at,
                    complete - issue_at, pc, -1,
                    (("cls", op_class.value),),
                )
                obs.emit(
                    _obs.EventKind.COMMIT, "pipe", i, complete, 0, pc
                )
            if complete > max_complete:
                self.last_commit = max_complete = complete
            for reg in dst_regs:
                reg_ready[reg] = complete

            if op_class is branch_cls and bits & BRANCH_MASK:
                taken = bits & BRANCH_MASK == BRANCH_TAKEN
                if bpred.update(pc, taken, 1 if taken else None):
                    issue_cursor = complete + mispredict_penalty
                    issued_this_cycle = 0

            event = bits & EVENT_MASK
            if event == EV_START:
                stats.srv_regions += 1
                if obs is not None:
                    region_idx += 1
                    region_fallback = bool(bits & IN_FALLBACK)
                    region_start = issue_at
                    pass_begin = issue_at
                    obs.emit(
                        _obs.EventKind.REGION_BEGIN, "pipe", i, issue_at,
                        0, pc, -1, (("region", region_idx),),
                    )
                    if region_fallback:
                        obs.emit(
                            _obs.EventKind.SEQ_FALLBACK, "pipe", i,
                            issue_at, 0, pc, -1,
                            (("region", region_idx),),
                        )
                if in_hw_region:
                    lsu.begin_region(
                        SrvDirection.DOWN if bits & DOWN else SrvDirection.UP
                    )
            if op_class is srv_end_cls:
                if obs is not None:
                    region_pass, active = log.region_pass_of(k)
                    obs.emit(
                        _obs.EventKind.REGION_PASS, "pipe", i, pass_begin,
                        complete - pass_begin, pc, -1,
                        (
                            ("pass", region_pass),
                            ("active", active),
                            ("fallback", region_fallback),
                            ("region", region_idx),
                        ),
                    )
                    pass_begin = complete
                    if event == EV_END_REPLAY:
                        for lane in sorted(replay.get(k, ())):
                            obs.emit(
                                _obs.EventKind.LANE_REPLAY, "pipe", i,
                                complete, 0, pc, lane,
                                (("region", region_idx),),
                            )
                    if event == EV_END_COMMIT or event == EV_FALLBACK:
                        if nxt is None or not flags[nxt] & IN_REGION:
                            obs.emit(
                                _obs.EventKind.REGION_END, "pipe", i,
                                region_start, complete - region_start,
                                pc, -1,
                                (
                                    ("region", region_idx),
                                    ("fallback", region_fallback),
                                ),
                            )
                if event == EV_END_REPLAY:
                    stats.srv_replay_passes += 1
                if in_hw_region:
                    lsu.end_region()
                # serialisation: the next instruction issues after srv_end
                if complete > issue_cursor:
                    issue_cursor = complete
                issued_this_cycle = 0

            stats.instructions += 1
            if is_vector:
                stats.vector_instructions += 1
            else:
                stats.scalar_instructions += 1
            stats.mem_lane_accesses += mem_lanes

            i += 1
            k = nxt

        stats.cycles = max(max_complete, 1)
        stats.lsu = lsu.counters
        stats.branch = bpred.stats
        stats.l1_misses = self.caches.stats.l1_misses
        stats.l2_misses = self.caches.stats.l2_misses


def simulate_in_order(
    log: TraceLog,
    config: MachineConfig = TABLE_I,
    warm: bool = False,
) -> PipelineStats:
    """Time a recorded trace log on the in-order model."""
    return InOrderModel(config).run(log, warm=warm)
