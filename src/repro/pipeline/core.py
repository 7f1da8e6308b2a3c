"""Cycle-approximate out-of-order core model (Table I).

The model is trace driven: it consumes the dynamic instruction stream
produced by the functional emulator (:mod:`repro.pipeline.trace`) and
computes fetch / dispatch / issue / complete / commit times per
instruction under the structural constraints of Table I:

* 8-wide fetch/decode/issue, 4-cycle front end;
* 32-entry issue queue, 400-entry ROB, 64-entry LSU;
* per-cycle issue limits: 2 vector-integer ops, 1 other vector op,
  2 vector loads, 1 vector store (plus scalar bandwidth);
* tournament branch predictor with BTB, mispredict redirects;
* store-set memory-dependence predictor for vertical (baseline)
  speculation, with squash-and-refetch penalties on mispredicted
  reordering;
* the SRV LSU (section IV) for in-region horizontal disambiguation
  counters and store-to-load forwarding decisions;
* ``srv_end`` serialisation: it issues only when all older instructions
  have completed, and younger instructions stall until it executes — the
  stalls accumulate into the figure 8 barrier-cycle metric.

Register renaming is modelled as unbounded (the 128-entry physical file of
Table I is effectively never the bottleneck at ROB 400 given vector
register reuse in compiled loops); merging predication adds the old
destination as a source operand, which the dependence extraction already
encodes (section III-D5).

The model is a *streaming consumer*: :meth:`PipelineModel.stream` returns
a primed coroutine that accepts the index of one op of a
:class:`~repro.pipeline.trace.TraceLog` per ``send`` (with a single op of
internal lookahead) and reads the op's fields from the log's columns.  It
retains only O(machine-state) memory — a completion-time ring sized by
the ROB, the 64-entry recent store window, a min-heap of the in-flight
baseline LSU entries by drain cycle, and periodically pruned issue-port
occupancy maps.  :meth:`PipelineModel.run`
drives the same coroutine over a whole log.  Per-static-instruction facts
(op class, port kind, access kind, latency) come from the decode table
(:mod:`repro.pipeline.decode`) instead of per-dynamic-op ``getattr``
probes.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush, heapreplace

from repro.common.config import TABLE_I, MachineConfig
from repro.common.errors import PipelineError
from repro.isa.instructions import SrvDirection
from repro.lsu.entries import AccessType, LsuEntry
from repro.lsu.unit import LoadStoreUnit
from repro.memory.hierarchy import CacheHierarchy
from repro.observe import events as _obs
from repro.pipeline.branch_pred import TournamentPredictor
from repro.pipeline.decode import DecodeRecord, pump_table
from repro.pipeline.resources import PortPool
from repro.pipeline.stats import PipelineStats
from repro.pipeline.store_sets import StoreSetPredictor
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

FRONTEND_DEPTH = 4
SQUASH_PENALTY = 10
FORWARD_LATENCY = 1

#: Ops between issue-port occupancy prunes (amortises the dict rebuilds).
PRUNE_INTERVAL = 2048

#: direction bit of a log op's flags -> region direction
_DIRECTION = {0: SrvDirection.UP, DOWN: SrvDirection.DOWN}

#: access kinds of a single-lane entry, bound once for _execute_mem
_GATHER_SCATTER = AccessType.GATHER_SCATTER
_BROADCAST = AccessType.BROADCAST
_CONTIGUOUS = AccessType.CONTIGUOUS


class PipelineModel:
    """Trace-driven timing model of the Table I machine."""

    def __init__(
        self,
        config: MachineConfig = TABLE_I,
        validate_lsu: bool = False,
    ) -> None:
        self.config = config
        self.validate_lsu = validate_lsu
        self.caches = CacheHierarchy(config.memory)
        self.bpred = TournamentPredictor(config.branch)
        self.store_sets = StoreSetPredictor(config.store_set_entries)
        self.lsu = LoadStoreUnit(config)
        issue = config.issue
        self.ports = PortPool(
            {
                "scalar": issue.scalar_ops,
                "vec_int": issue.vec_int_ops,
                "vec_other": issue.vec_other_ops,
                "load": issue.vec_loads,
                "store": issue.vec_stores,
                # cracked micro-op bandwidth: gathers are bounded by the two
                # cache read ports, scatters by the two SAQ write ports
                "gather_micro": config.ports.cache_read_write
                + config.ports.cache_read_only,
                "scatter_micro": config.ports.saq_writes,
                "commit": config.pipeline_width,
            }
        )
        for name, capacity in (
            ("ROB", config.rob_entries),
            ("IQ", config.iq_entries),
            ("LSU", config.lsu_entries),
        ):
            if capacity <= 0:
                raise ValueError(f"{name} capacity must be positive")
        self.stats = PipelineStats()
        #: the trace log :meth:`stream` times (set by :meth:`run`, or by
        #: a caller that drives the pump itself)
        self.log: TraceLog | None = None
        #: commit cycle of the most recently retired op — a checkpoint the
        #: sampling layer reads mid-stream to split warm-up from measured
        #: cycles (stats.cycles is only final at end-of-stream)
        self.last_commit = 0
        # bounded-window state, exposed for the memory-bound tests; the
        # containers are created (and mutated) by the consumer coroutine
        self._recent_stores: deque = deque(maxlen=64)
        #: min-heap of ``(drain cycle, key)`` of the baseline LSU entries
        #: still in flight (region entries drain at ``srv_end`` instead)
        self._lsu_live: list = []
        self._complete_ring: list[int] = []
        # a bound that lets _execute_mem skip a scan that cannot match: no
        # store in _recent_stores completes after _stores_done_by
        self._stores_done_by = 0
        #: set by :meth:`warm` when every line the timed accesses touch
        #: is resident in the L1: each access is then an L1 hit
        self._l1_resident = False

    # ------------------------------------------------------------------ run

    def run(self, log: TraceLog, warm: bool = False) -> PipelineStats:
        """Time every op of ``log``, after warming the caches from its
        accesses when ``warm`` (drives the streaming consumer)."""
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
        """Warm the caches from the accesses of ops ``start:stop`` of
        ``log``, the ops the model then times.

        When :meth:`~repro.pipeline.trace.TraceLog.warm` finds that every
        one of those accesses is now an L1 hit, the pump charges a load
        ``l1.hit_latency`` without playing it and skips the commit-time
        store touch: the same stats (no L1 or L2 miss) and events as the
        full play.  The hierarchy's replacement order after such a run
        is the warm play's.
        """
        self._l1_resident = log.warm(self.caches, start, stop)

    def stream(self):
        """A primed coroutine timing the ops of ``self.log``.

        ``send`` each op's index in dynamic order, then ``send(None)`` to
        mark end-of-stream (which raises ``StopIteration`` once the final
        op is retired and ``self.stats`` is complete).  One op of
        lookahead is held internally to resolve region-closure decisions,
        so the op after the last one sent is never read.
        """
        pump = self._pump()
        next(pump)
        return pump

    def _pump(self):
        # Hot loop: every per-op quantity lives in generator locals, read
        # straight from the log's columns, and all per-static facts come
        # from the pump table's tuple for the op's pc.  The per-op stats
        # counters are locals too, written back at end-of-stream; only
        # region_cycles and last_commit, which the sampling layer reads
        # mid-stream, are kept live.
        config = self.config
        stats = self.stats
        ports = self.ports
        lsu = self.lsu
        bpred = self.bpred
        store_sets = self.store_sets
        caches = self.caches
        width = config.pipeline_width
        relax_barrier = config.srv_relax_barrier
        mispredict_penalty = config.branch.mispredict_penalty
        taken_bubble = config.branch.taken_branch_bubble
        validate_lsu = self.validate_lsu
        execute_mem = self._execute_mem
        # every access an L1 hit: stores need no commit-time touch
        l1_resident = self._l1_resident

        # Issue and commit slots are reserved on the port pool's per-kind
        # maps in place, with PortPool.reserve's probe loop.  A prune
        # rebuilds the maps, so the commit map is re-read after one.
        port_limits = ports.limits
        port_used = ports.used
        commit_limit = port_limits["commit"]
        commit_used = port_used["commit"]

        log = self.log
        pcs = log.pc
        flags = log.bits
        bounds = log.bounds
        addrs = log.addr
        sizes = log.size
        records = log.records
        replay = log.replay
        table, register_count = pump_table(records)

        srv_end_cls = OpClass.SRV_END
        branch_cls = OpClass.BRANCH

        # observability: one bus reference for the pump's lifetime (the
        # bus is installed before stream() by the observe harness); all
        # event work is inside `obs is not None` guards so the disabled
        # path costs one dead branch per site, and a null bus, which
        # drops every event, is timed as no bus
        obs = _obs.ACTIVE
        if obs is not None and obs.discards:
            obs = None
        # per-op event kinds, the bus's emit and each pc's issue-event
        # payload, bound once: the per-op sites then do no enum or
        # attribute lookup (``OpClass.value`` is a Python-level property)
        kind_fetch = _obs.EventKind.FETCH
        kind_issue = _obs.EventKind.ISSUE
        kind_commit = _obs.EventKind.COMMIT
        emit = None
        issue_data: list[tuple] = []
        if obs is not None:
            emit = obs.emit
            issue_data = [(("cls", r.op_class.value),) for r in records]
        region_idx = -1
        region_fallback = False
        pass_begin = 0

        # Buffer occupancy, as the release times of the in-flight entries.
        # An allocation into a full buffer waits for the earliest release.
        # The ROB and LSU free their entries at commit, and commit times
        # never decrease, so the earliest release is the oldest entry: a
        # FIFO.  The IQ frees at issue, out of order: a min-heap, whose
        # pop is deferred to the release as one heapreplace.
        rob: deque[int] = deque()
        rob_entries = config.rob_entries
        iq: list[int] = []
        iq_entries = config.iq_entries
        lsu_slots: deque[int] = deque()
        lsu_entries = config.lsu_entries

        # ready cycle of each register, by its dense id in the pump table
        reg_ready = [0] * register_count
        # recent stores for vertical (store-set) conflict detection
        recent_stores: deque = deque(maxlen=64)
        # baseline entries to drop from the LSU once committed
        lsu_live: list[tuple[int, tuple[int, int]]] = []
        # completion times of the last ROB-size ops: anything older has
        # committed before the current op could dispatch, so its
        # completion time can never lift a wakeup above `ready`
        window = max(1, config.rob_entries)
        complete_ring = [0] * window
        self._recent_stores = recent_stores
        self._lsu_live = lsu_live
        self._complete_ring = complete_ring

        fetch_cycle = 0
        fetch_used = 0
        redirect_at = 0
        barrier_until = 0
        barrier_charged = True
        max_complete = 0
        region_mem_complete = 0
        prev_commit = 0
        last_issue = 0
        region_start_fetch = 0
        pending_region_end: int | None = None
        i = 0
        # per-op stats counters (instructions is i)
        micro_ops = 0
        vector_instructions = 0
        mem_lane_accesses = 0
        loads = 0
        stores = 0
        barrier_cycles = 0
        frontend_stall_cycles = 0
        srv_regions = 0
        srv_replay_passes = 0

        k = yield
        while k is not None:
            nxt = yield
            pc = pcs[k]
            bits = flags[k]
            (rec, op_class, is_mem, is_load, is_store, gather_scatter,
             micro_kind, src_regs, dst_regs, kind, latency,
             is_vector) = table[pc]
            in_region = bits & IN_REGION
            in_hw_region = in_region and not bits & IN_FALLBACK

            # ---- fetch ---------------------------------------------------
            if redirect_at > fetch_cycle:
                fetch_cycle = redirect_at
                fetch_used = 0
            if fetch_used >= width:
                fetch_cycle += 1
                fetch_used = 0
            fetch = fetch_cycle
            fetch_used += 1
            if obs is not None:
                emit(kind_fetch, "pipe", i, fetch, 0, pc)

            # ---- dispatch (rename + buffers) -----------------------------
            dispatch = fetch + FRONTEND_DEPTH
            if len(rob) >= rob_entries:
                t = rob.popleft()
                if t > dispatch:
                    dispatch = t
            iq_full = len(iq) >= iq_entries
            if iq_full:
                t = iq[0]
                if t > dispatch:
                    dispatch = t
            lo = bounds[k]
            hi = bounds[k + 1]
            mem_lanes = hi - lo
            lsu_demand = 0
            if is_mem:
                # gathers/scatters occupy one LSU entry per lane
                lsu_demand = 1
                if gather_scatter and mem_lanes > 1:
                    lsu_demand = mem_lanes
                for _ in range(lsu_demand):
                    if len(lsu_slots) >= lsu_entries:
                        t = lsu_slots.popleft()
                        if t > dispatch:
                            dispatch = t

            # ---- ready (operand wakeup) ----------------------------------
            ready = dispatch + 1
            for reg in src_regs:
                t = reg_ready[reg]
                if t > ready:
                    ready = t

            # ---- serialisation barrier (srv_end, section III-D1) ---------
            if op_class is srv_end_cls:
                if relax_barrier:
                    # future-work optimisation (section VIII): wait only
                    # for the region's memory operations to complete
                    if region_mem_complete > ready:
                        ready = region_mem_complete
                elif max_complete > ready:
                    ready = max_complete
            elif barrier_until > ready:
                if not barrier_charged:
                    # Idle time the issue stage actually loses to the
                    # barrier: from when it could next have issued work
                    # to when the srv_end executes.
                    stalled_from = (
                        ready if ready > last_issue else last_issue
                    )
                    if barrier_until > stalled_from:
                        barrier_cycles += barrier_until - stalled_from
                        if obs is not None:
                            obs.emit(
                                _obs.EventKind.BARRIER_STALL, "pipe", i,
                                stalled_from, barrier_until - stalled_from,
                                pc,
                            )
                    barrier_charged = True
                ready = barrier_until

            # ---- store-set wait (baseline vertical speculation) ----------
            if is_load and not in_hw_region:
                dep = store_sets.load_depends_on(pc)
                # deps older than the ROB window have committed before this
                # op dispatched: their completion can never exceed `ready`
                if dep is not None and i - window < dep < i:
                    t = complete_ring[dep % window]
                    if t > ready:
                        ready = t

            # ---- issue ----------------------------------------------------
            used = port_used[kind]
            limit = port_limits[kind]
            issue_at = ready
            while used[issue_at] >= limit:
                issue_at += 1
            used[issue_at] += 1
            last_slot = issue_at
            # Gather/scatter micro-ops occupy LSU bandwidth once per lane:
            # "we break these into multiple micro-ops, and each accesses
            # the LSU independently over a number of cycles".  Micro-op
            # throughput is bounded by the cache read ports (gathers) and
            # the SAQ write ports (scatters), both 2/cycle in Table I.
            if gather_scatter and mem_lanes > 1:
                used = port_used[micro_kind]
                limit = port_limits[micro_kind]
                for _ in range(mem_lanes - 1):
                    while used[last_slot] >= limit:
                        last_slot += 1
                    used[last_slot] += 1
            if iq_full:
                heapreplace(iq, issue_at)
            else:
                heappush(iq, issue_at)
            if op_class is not srv_end_cls:
                # srv_end "issues" only at the serialisation point; it must
                # not mask the idle window the barrier creates (figure 8).
                # Cracked micro-ops keep the issue stage busy to last_slot.
                if last_slot > last_issue:
                    last_issue = last_slot

            # ---- execute --------------------------------------------------
            if is_mem:
                complete = execute_mem(
                    pc, rec, lo, hi, bits, i, issue_at, last_slot,
                    in_hw_region, recent_stores, lsu_live,
                )
            else:
                complete = issue_at + latency
            complete_ring[i % window] = complete
            if obs is not None:
                emit(
                    kind_issue, "pipe", i, issue_at,
                    complete - issue_at, pc, -1, issue_data[pc],
                )
            if complete > max_complete:
                max_complete = complete
            if is_mem and in_region and complete > region_mem_complete:
                region_mem_complete = complete

            for reg in dst_regs:
                reg_ready[reg] = complete

            # ---- branch resolution ----------------------------------------
            if op_class is branch_cls and bits & BRANCH_MASK:
                taken = bits & BRANCH_MASK == BRANCH_TAKEN
                mispredict = bpred.update(pc, taken, 1 if taken else None)
                if mispredict:
                    redirect_at = complete + mispredict_penalty
                    frontend_stall_cycles += mispredict_penalty
                elif taken:
                    # predicted-taken redirect: the front end still loses a
                    # couple of cycles restarting fetch at the target
                    t = fetch + 1 + taken_bubble
                    if t > redirect_at:
                        redirect_at = t
                    frontend_stall_cycles += taken_bubble

            # ---- SRV region bookkeeping ------------------------------------
            event = bits & EVENT_MASK
            if event == EV_START:
                srv_regions += 1
                region_start_fetch = fetch
                if obs is not None:
                    region_idx += 1
                    region_fallback = bool(bits & IN_FALLBACK)
                    pass_begin = fetch
                    obs.emit(
                        _obs.EventKind.REGION_BEGIN, "pipe", i, fetch, 0,
                        pc, -1, (("region", region_idx),),
                    )
                    if region_fallback:
                        obs.emit(
                            _obs.EventKind.SEQ_FALLBACK, "pipe", i, fetch,
                            0, pc, -1, (("region", region_idx),),
                        )
                if in_hw_region:
                    lsu.begin_region(_DIRECTION[bits & DOWN])
            if op_class is srv_end_cls:
                if not relax_barrier:
                    barrier_until = complete
                    barrier_charged = False
                region_mem_complete = 0
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
                if event == EV_END_REPLAY:
                    srv_replay_passes += 1
                if in_hw_region:
                    lanes = lsu.end_region()
                    if validate_lsu:
                        expect = set(replay.get(k, ()))
                        if lanes != expect:
                            raise PipelineError(
                                f"LSU replay lanes {sorted(lanes)} disagree "
                                f"with functional emulator {sorted(expect)} "
                                f"at trace op {i} (pc {pc})"
                            )
                if event == EV_END_COMMIT or event == EV_FALLBACK:
                    # a FALLBACK-marked srv_end continues its region unless
                    # it is the region's final pass (the next op — the one
                    # op of lookahead — is outside the region)
                    if nxt is None or not flags[nxt] & IN_REGION:
                        pending_region_end = complete

            # ---- commit -----------------------------------------------------
            commit = complete if complete > prev_commit else prev_commit
            while commit_used[commit] >= commit_limit:
                commit += 1
            commit_used[commit] += 1
            self.last_commit = prev_commit = commit
            rob.append(commit)
            if is_mem:
                for _ in range(lsu_demand):
                    lsu_slots.append(commit)
                if is_store:
                    stores += 1
                    if mem_lanes and not l1_resident:
                        # The LFST entry is left in place: a later load
                        # waiting on an already-completed store is a no-op,
                        # and eager retirement would erase the dependence
                        # before younger loads (processed later in trace
                        # order) consult it.
                        caches.access_lanes(addrs, sizes, lo, hi, True)
                else:
                    loads += 1
            if obs is not None:
                emit(kind_commit, "pipe", i, commit, 0, pc)
            if pending_region_end is not None:
                stats.region_cycles += commit - region_start_fetch
                if obs is not None:
                    obs.emit(
                        _obs.EventKind.REGION_END, "pipe", i,
                        region_start_fetch, commit - region_start_fetch,
                        pc, -1,
                        (
                            ("region", region_idx),
                            ("fallback", region_fallback),
                        ),
                    )
                pending_region_end = None

            micro_ops += mem_lanes if mem_lanes > 1 else 1
            if is_vector:
                vector_instructions += 1
            mem_lane_accesses += mem_lanes

            i += 1
            if not i % PRUNE_INTERVAL and i >= window:
                # every probe of the port maps from here on is at or after
                # the commit of op i-window, which is itself >= the oldest
                # completion still in the ring
                ports.prune_before(complete_ring[i % window])
                commit_used = port_used["commit"]
            k = nxt

        stats.cycles = max(prev_commit, 1)
        stats.instructions += i
        stats.micro_ops += micro_ops
        stats.vector_instructions += vector_instructions
        stats.scalar_instructions += i - vector_instructions
        stats.mem_lane_accesses += mem_lane_accesses
        stats.loads += loads
        stats.stores += stores
        stats.barrier_cycles += barrier_cycles
        stats.frontend_stall_cycles += frontend_stall_cycles
        stats.srv_regions += srv_regions
        stats.srv_replay_passes += srv_replay_passes
        stats.lsu = lsu.counters
        stats.branch = bpred.stats
        stats.store_sets = store_sets.stats
        stats.l1_misses = caches.stats.l1_misses
        stats.l2_misses = caches.stats.l2_misses

    # ------------------------------------------------------------- memory ops

    def _entries_for(
        self, pc: int, rec: DecodeRecord, lo: int, hi: int, bits: int,
    ) -> list[LsuEntry]:
        """Build the LSU entries of the two or more accesses ``lo:hi`` of
        the log (micro-op cracking), positionally and filed under the
        bases :meth:`LsuEntry.make` would give them."""
        log = self.log
        addrs = log.addr
        sizes = log.size
        lanes = log.lane
        is_store = rec.is_store
        region_bytes = self.config.alignment_region_bytes
        direction = _DIRECTION[bits & DOWN]
        if rec.is_gather_scatter:
            entries = []
            for a in range(lo, hi):
                addr = addrs[a]
                size = sizes[a]
                if size <= 0:
                    raise ValueError(
                        f"access size must be positive, got {size}"
                    )
                first = addr & -region_bytes
                last = (addr + size - 1) & -region_bytes
                entries.append(LsuEntry(
                    pc, is_store, _GATHER_SCATTER, addr, size, size,
                    lanes[a], 1, region_bytes, direction, False, None,
                    (first,) if first == last
                    else tuple(range(first, last + 1, region_bytes)),
                ))
            return entries
        first = addrs[lo]
        size = sizes[lo]
        low = first
        high = first + size
        lane = lanes[lo]
        for a in range(lo + 1, hi):
            addr = addrs[a]
            if addr < low:
                low = addr
            if addr + sizes[a] > high:
                high = addr + sizes[a]
            if lanes[a] < lane:
                lane = lanes[a]
        if rec.is_broadcast:
            return [
                LsuEntry.make(
                    srv_id=pc,
                    is_store=is_store,
                    access=AccessType.BROADCAST,
                    addr=first,
                    size=size,
                    elem=size,
                    lane=lane,
                    lanes_covered=hi - lo,
                    region_bytes=region_bytes,
                    direction=direction,
                )
            ]
        # contiguous
        return [
            LsuEntry.make(
                srv_id=pc,
                is_store=is_store,
                access=AccessType.CONTIGUOUS,
                addr=low,
                size=high - low,
                elem=size,
                lane=lane,
                lanes_covered=(high - low) // size,
                region_bytes=region_bytes,
                direction=direction,
            )
        ]

    def _execute_mem(
        self,
        pc: int,
        rec: DecodeRecord,
        lo: int,
        hi: int,
        bits: int,
        index: int,
        issue_at: int,
        last_slot: int,
        in_region: bool,
        recent_stores,
        lsu_live: list,
    ) -> int:
        is_store = rec.is_store
        lsu = self.lsu
        log = self.log
        obs = _obs.ACTIVE
        if obs is not None:
            if obs.discards:
                obs = None
            else:
                # context for the clock-less LSU: its emit_lsu events are
                # stamped with this op index and issue cycle
                obs.op = index
                obs.cycle = issue_at

        # Drop committed baseline entries so the hardware LSU tracks only
        # in-flight accesses (speculative region entries drain at srv_end).
        if lsu_live and lsu_live[0][0] <= issue_at:
            lsu.drain_committed(lsu_live, issue_at)

        if hi - lo == 1:
            # A single-lane access (every scalar one) is one entry whatever
            # its kind, covering its one lane: built here directly, with
            # the bases LsuEntry.make would file it under.
            addr = log.addr[lo]
            size = log.size[lo]
            if size <= 0:
                raise ValueError(f"access size must be positive, got {size}")
            region_bytes = self.config.alignment_region_bytes
            first = addr & -region_bytes
            last = (addr + size - 1) & -region_bytes
            entries = (LsuEntry(
                pc, is_store,
                _GATHER_SCATTER if rec.is_gather_scatter
                else _BROADCAST if rec.is_broadcast else _CONTIGUOUS,
                addr, size, size, log.lane[lo], 1, region_bytes,
                _DIRECTION[bits & DOWN], False, None,
                (first,) if first == last
                else tuple(range(first, last + 1, region_bytes)),
            ),)
        elif hi > lo:
            entries = self._entries_for(pc, rec, lo, hi, bits)
        else:
            entries = ()

        if is_store:
            for entry in entries:
                lsu.issue_store(entry)
            complete = last_slot + 1
            if not in_region:
                # a baseline entry drains once its access has committed
                for entry in entries:
                    heappush(lsu_live, (complete + 1, (pc, entry.lane)))
            if hi > lo:
                self.store_sets.store_fetched(pc, index)
                recent_stores.append((index, pc, lo, hi, issue_at, complete))
                if complete > self._stores_done_by:
                    self._stores_done_by = complete
            return complete

        fully_forwarded = False
        for entry in entries:
            if not lsu.issue_load(entry).any_memory_bytes:
                fully_forwarded = True
        if fully_forwarded:
            latency = FORWARD_LATENCY
        elif hi > lo:
            if self._l1_resident:
                latency = self.config.memory.l1.hit_latency
            else:
                latency = self.caches.access_lanes(
                    log.addr, log.size, lo, hi, False
                )
        else:
            latency = FORWARD_LATENCY  # fully predicated-off access
        complete = last_slot + latency
        if obs is not None and hi > lo and not fully_forwarded:
            hit_latency = self.config.memory.l1.hit_latency
            if latency > hit_latency:
                # the stall window beyond an L1 hit feeds the `memory`
                # attribution bucket
                obs.emit(
                    _obs.EventKind.CACHE_MISS, "pipe", index,
                    last_slot + hit_latency, latency - hit_latency, pc,
                )
            else:
                obs.emit(
                    _obs.EventKind.CACHE_HIT, "pipe", index,
                    complete, 0, pc,
                )

        # Vertical mispeculation: this load issued although an older store
        # to an overlapping address had not completed (store-set miss).
        if not in_region and hi > lo and self._stores_done_by > issue_at:
            for s_index, s_pc, s_lo, s_hi, s_issue, s_complete in (
                recent_stores
            ):
                if s_index >= index:
                    continue
                if s_complete <= issue_at:
                    continue
                if self._overlaps(lo, hi, s_lo, s_hi):
                    stats = self.stats
                    stats.store_set_squashes += 1
                    stats.squash_penalty_cycles += SQUASH_PENALTY
                    self.store_sets.record_violation(pc, s_pc)
                    if s_complete + SQUASH_PENALTY > complete:
                        complete = s_complete + SQUASH_PENALTY
                    if obs is not None:
                        obs.emit(
                            _obs.EventKind.STORE_SET_CONFLICT, "pipe",
                            index, s_complete, SQUASH_PENALTY, pc, -1,
                            (("store_pc", s_pc),),
                        )
                    break
        if not in_region:
            for entry in entries:
                heappush(lsu_live, (complete + 1, (pc, entry.lane)))
        return complete

    def _overlaps(self, lo: int, hi: int, s_lo: int, s_hi: int) -> bool:
        """Do the log's accesses ``lo:hi`` and ``s_lo:s_hi`` overlap?"""
        addrs = self.log.addr
        sizes = self.log.size
        for x in range(lo, hi):
            x_addr = addrs[x]
            x_end = x_addr + sizes[x]
            for y in range(s_lo, s_hi):
                y_addr = addrs[y]
                if x_addr < y_addr + sizes[y] and y_addr < x_end:
                    return True
        return False


def simulate(
    log: TraceLog,
    config: MachineConfig = TABLE_I,
    validate_lsu: bool = False,
    warm: bool = False,
) -> PipelineStats:
    """Time a recorded trace log on the out-of-order model."""
    return PipelineModel(config, validate_lsu).run(log, warm=warm)
