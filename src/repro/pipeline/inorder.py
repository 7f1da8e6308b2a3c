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
:class:`TraceOp` per ``send``, retaining only a 15-op store window and the
in-flight LSU entries; :meth:`InOrderModel.run` drives it from a list.

Used by the in-order ablation benchmark: SRV's relative benefit is larger
on an in-order core because the scalar baseline cannot hide latency by
reordering.
"""

from __future__ import annotations

from collections import deque

from repro.common.config import TABLE_I, MachineConfig
from repro.lsu.unit import LoadStoreUnit
from repro.memory.hierarchy import CacheHierarchy
from repro.observe import events as _obs
from repro.pipeline.branch_pred import TournamentPredictor
from repro.pipeline.decode import DecodeTable
from repro.pipeline.stats import PipelineStats
from repro.pipeline.trace import OpClass, RegionEvent, TraceOp

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
        #: progress-clock checkpoint (max completion so far), read
        #: mid-stream by the sampling layer; mirrors PipelineModel
        self.last_commit = 0
        self._lsu_live: list = []
        self._store_window: deque = deque(maxlen=STORE_WINDOW)

    def warm_caches(self, trace) -> None:
        access_lanes = self.caches.access_lanes
        for op in trace:
            mem = op.mem
            if mem:
                access_lanes(mem, mem[0].is_store)
        self.caches.reset_stats()

    def run(self, trace: list[TraceOp], warm: bool = False) -> PipelineStats:
        if warm:
            self.warm_caches(trace)
        pump = self.stream()
        send = pump.send
        try:
            for op in trace:
                send(op)
            send(None)
        except StopIteration:
            pass
        return self.stats

    def stream(self):
        """A primed coroutine consuming trace ops (send ``None`` to end)."""
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
        ev_start = RegionEvent.START
        ev_replay = RegionEvent.END_REPLAY
        ev_commit = RegionEvent.END_COMMIT
        ev_fallback = RegionEvent.FALLBACK

        # observability (same contract as the OoO pump): all event work
        # sits behind `obs is not None`, so timing is unchanged when off
        obs = _obs.ACTIVE
        region_idx = -1
        region_fallback = False
        region_start = 0
        pass_begin = 0

        decode_fallback: DecodeTable | None = None

        reg_ready: dict[tuple[str, int], int] = {}
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
        execute_mem = helper._execute_mem
        i = 0

        op = yield
        while op is not None:
            nxt = yield
            rec = op.decode
            if rec is None:
                if decode_fallback is None:
                    decode_fallback = DecodeTable()
                rec = decode_fallback.record_for(op.inst)
            op_class = rec.op_class
            in_hw_region = op.in_region and not op.in_fallback
            is_mem = rec.is_mem or bool(op.mem)

            ready = issue_cursor
            for reg in op.src_regs:
                t = reg_ready.get(reg, 0)
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
            if rec.is_gather_scatter and len(op.mem) > 1:
                last_slot += len(op.mem) - 1

            if is_mem:
                # fresh scratch store list: in-order loads never bypass, so
                # the vertical-squash machinery must see no recent stores
                complete = execute_mem(
                    op, rec, i, issue_at, last_slot, in_hw_region,
                    [], lsu_live, stats,
                )
            else:
                complete = issue_at + rec.latency
            store_window.append((rec.is_store, complete))
            if obs is not None:
                obs.emit(
                    _obs.EventKind.ISSUE, "pipe", i, issue_at,
                    complete - issue_at, op.pc, -1,
                    (("cls", op_class.value),),
                )
                obs.emit(
                    _obs.EventKind.COMMIT, "pipe", i, complete, 0, op.pc
                )
            if complete > max_complete:
                self.last_commit = max_complete = complete
            for reg in op.dst_regs:
                reg_ready[reg] = complete

            if op_class is branch_cls and op.branch_taken is not None:
                target = 1 if op.branch_taken else None
                if bpred.update(op.pc, op.branch_taken, target):
                    issue_cursor = complete + mispredict_penalty
                    issued_this_cycle = 0

            if op.region_event is ev_start:
                stats.srv_regions += 1
                if obs is not None:
                    region_idx += 1
                    region_fallback = op.in_fallback
                    region_start = issue_at
                    pass_begin = issue_at
                    obs.emit(
                        _obs.EventKind.REGION_BEGIN, "pipe", i, issue_at,
                        0, op.pc, -1, (("region", region_idx),),
                    )
                    if op.in_fallback:
                        obs.emit(
                            _obs.EventKind.SEQ_FALLBACK, "pipe", i,
                            issue_at, 0, op.pc, -1,
                            (("region", region_idx),),
                        )
                if in_hw_region:
                    lsu.begin_region(op.direction)
            if op_class is srv_end_cls:
                region_event = op.region_event
                if obs is not None:
                    obs.emit(
                        _obs.EventKind.REGION_PASS, "pipe", i, pass_begin,
                        complete - pass_begin, op.pc, -1,
                        (
                            ("pass", op.region_pass),
                            ("active", op.active_lane_count),
                            ("fallback", region_fallback),
                            ("region", region_idx),
                        ),
                    )
                    pass_begin = complete
                    if region_event is ev_replay:
                        for lane in sorted(op.replay_lanes):
                            obs.emit(
                                _obs.EventKind.LANE_REPLAY, "pipe", i,
                                complete, 0, op.pc, lane,
                                (("region", region_idx),),
                            )
                    if region_event is ev_commit or region_event is ev_fallback:
                        if nxt is None or not nxt.in_region:
                            obs.emit(
                                _obs.EventKind.REGION_END, "pipe", i,
                                region_start, complete - region_start,
                                op.pc, -1,
                                (
                                    ("region", region_idx),
                                    ("fallback", region_fallback),
                                ),
                            )
                if op.region_event is ev_replay:
                    stats.srv_replay_passes += 1
                if in_hw_region:
                    lsu.end_region()
                    # region entries drained with the region commit;
                    # _drain_baseline never pops them, so dropping them
                    # here only bounds memory (no timing effect)
                    lsu_live[:] = [e for e in lsu_live if not e[1]]
                # serialisation: the next instruction issues after srv_end
                if complete > issue_cursor:
                    issue_cursor = complete
                issued_this_cycle = 0

            stats.instructions += 1
            if rec.is_vector:
                stats.vector_instructions += 1
            else:
                stats.scalar_instructions += 1
            stats.mem_lane_accesses += len(op.mem)

            i += 1
            op = nxt

        stats.cycles = max(max_complete, 1)
        stats.lsu = lsu.counters
        stats.branch = bpred.stats
        stats.l1_misses = self.caches.stats.l1_misses
        stats.l2_misses = self.caches.stats.l2_misses


def simulate_in_order(
    trace: list[TraceOp],
    config: MachineConfig = TABLE_I,
    warm: bool = False,
) -> PipelineStats:
    return InOrderModel(config).run(trace, warm=warm)
