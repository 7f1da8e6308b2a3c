"""Tests for the invariant monitors and the differential checker.

Monitors are validated in both directions: clean traces from real
workloads must produce zero violations, and synthetic corrupted traces
must trip the matching monitor.
"""

from repro.common.config import TABLE_I
from repro.compiler import Strategy
from repro.isa import v, x
from repro.isa.instructions import (
    ScalarALU,
    ScalarOpcode,
    SrvEnd,
    SrvStart,
    VecLoadContig,
)
from repro.isa.program import Program
from repro.pipeline.trace import IN_REGION, MemAccess, OpClass, RegionEvent, TraceLog
from repro.verify.differential import verify_loop, verify_workloads
from repro.verify.monitors import (
    check_mem_consistency,
    check_region_structure,
    check_well_formedness,
)
from repro.workloads import by_name

LANES = TABLE_I.vector_lanes

#: the instruction a hand-built op of each class executes
_INSTS = {
    OpClass.SRV_START: SrvStart,
    OpClass.SRV_END: SrvEnd,
    OpClass.SCALAR_ALU: lambda: ScalarALU(ScalarOpcode.ADD, x(1), x(2), x(3)),
    OpClass.VEC_LOAD: lambda: VecLoadContig(dst=v(0), base=x(1)),
}


def _op(op_class=OpClass.SCALAR_ALU, *, inst=None, mem=(),
        branch_taken=None, in_region=False, region_event=None,
        active_lane_count=0):
    """One hand-built op; its index is its position in the trace."""
    return dict(
        inst=inst if inst is not None else _INSTS[op_class](),
        mem=mem, branch_taken=branch_taken, in_region=in_region,
        region_event=region_event, active=active_lane_count,
    )


def _log(ops):
    """A trace log of hand-built ops, one static instruction each."""
    log = TraceLog(Program([op["inst"] for op in ops]))
    for pc, op in enumerate(ops):
        if op["active"]:
            log.region_pass(0, op["active"])
        for a in op["mem"]:
            log.access(a.addr, a.size, a.is_store, a.lane)
        log.record(pc, op["branch_taken"])
        if op["in_region"]:
            log.bits[-1] |= IN_REGION
        if op["region_event"] is not None:
            log.mark_region_event(op["region_event"])
    return log


def _region_trace(end_events):
    """A trace with one region: srv_start, a body op, then srv_end(s)."""
    ops = [_op(OpClass.SRV_START, in_region=True,
               region_event=RegionEvent.START)]
    for event in end_events:
        ops.append(_op(OpClass.SCALAR_ALU, in_region=True,
                       active_lane_count=LANES))
        ops.append(_op(OpClass.SRV_END, in_region=True,
                       region_event=event))
    return ops


class TestRegionStructureMonitor:
    def test_committed_region_is_clean(self):
        trace = _region_trace([RegionEvent.END_COMMIT])
        assert check_region_structure(_log(trace), TABLE_I) == []

    def test_replay_bound_violation(self):
        events = [RegionEvent.END_REPLAY] * LANES + [RegionEvent.END_COMMIT]
        trace = _region_trace(events)
        violations = check_region_structure(_log(trace), TABLE_I)
        assert any(v.monitor == "replay-bound" for v in violations)

    def test_nested_start_violation(self):
        trace = [
            _op(OpClass.SRV_START, in_region=True,
                region_event=RegionEvent.START),
            _op(OpClass.SRV_START, in_region=True,
                region_event=RegionEvent.START),
        ]
        violations = check_region_structure(_log(trace), TABLE_I)
        assert any("inside an active" in v.message for v in violations)

    def test_trace_ending_inside_region_violation(self):
        trace = [
            _op(OpClass.SRV_START, in_region=True,
                region_event=RegionEvent.START),
            _op(OpClass.SCALAR_ALU, in_region=True,
                active_lane_count=LANES),
        ]
        violations = check_region_structure(_log(trace), TABLE_I)
        assert violations


class TestMemConsistencyMonitor:
    def test_duplicate_lane_violation(self):
        op = _op(OpClass.VEC_LOAD, mem=[
            MemAccess(addr=0x100, size=4, is_store=False, lane=0),
            MemAccess(addr=0x104, size=4, is_store=False, lane=0),
        ])
        violations = check_mem_consistency(_log([op]), TABLE_I)
        assert any("lane" in v.message for v in violations)

    def test_out_of_range_lane_violation(self):
        op = _op(OpClass.VEC_LOAD, mem=[
            MemAccess(addr=0x100, size=4, is_store=False, lane=LANES + 3),
        ])
        violations = check_mem_consistency(_log([op]), TABLE_I)
        assert violations

    def test_contiguous_skew_violation(self):
        inst = VecLoadContig(dst=v(0), base=x(1))
        mem = [
            MemAccess(addr=0x100 + 4 * lane, size=4, is_store=False, lane=lane)
            for lane in range(LANES)
        ]
        # skew one lane's address: the common base is no longer unique
        mem[2] = MemAccess(addr=mem[2].addr + 4, size=4, is_store=False, lane=2)
        op = _op(OpClass.VEC_LOAD, inst=inst, mem=mem)
        violations = check_mem_consistency(_log([op]), TABLE_I)
        assert any("contiguous" in v.message for v in violations)

    def test_clean_contiguous_access(self):
        inst = VecLoadContig(dst=v(0), base=x(1))
        mem = [
            MemAccess(addr=0x100 + 4 * lane, size=4, is_store=False, lane=lane)
            for lane in range(LANES)
        ]
        op = _op(OpClass.VEC_LOAD, inst=inst, mem=mem)
        assert check_mem_consistency(_log([op]), TABLE_I) == []


class TestWellFormednessMonitor:
    def test_branch_without_outcome(self):
        from repro.isa.instructions import Branch, BranchCond

        inst = Branch(cond=BranchCond.LT, src1=x(1), src2=x(2), target="L")
        trace = [_op(OpClass.BRANCH, inst=inst, branch_taken=None)]
        violations = check_well_formedness(_log(trace), TABLE_I)
        assert violations


class TestDifferentialChecker:
    def test_clean_loop_verifies(self):
        spec = by_name("hmmer").loops[0]
        report = verify_loop(spec, Strategy.SRV, n_override=64)
        assert report.clean
        assert report.violations == []

    def test_clean_loop_scalar_strategy(self):
        spec = by_name("gcc").loops[0]
        report = verify_loop(spec, Strategy.SCALAR, n_override=64)
        assert report.clean

    def test_verify_workloads_all_clean(self):
        reports = verify_workloads(["livermore", "astar"], n_override=64)
        assert reports
        assert all(r.clean for r in reports)

    def test_monitors_clean_on_real_srv_trace(self):
        """Full-suite acceptance at small n: zero false positives."""
        from repro.workloads import ALL_WORKLOADS

        for workload in ALL_WORKLOADS:
            for spec in workload.loops:
                report = verify_loop(spec, Strategy.SRV, n_override=64,
                                     timing=False)
                assert report.clean, (
                    f"{spec.name}: {[str(v) for v in report.violations]}"
                )
