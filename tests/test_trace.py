"""Tests for the dynamic-trace machinery feeding the timing models."""

from repro.common.rng import periodic_conflict_indices
from repro.compiler import Strategy, compile_loop
from repro.emu import run_program
from repro.memory import MemoryImage
from repro.pipeline import MemAccess, OpClass, RegionEvent, TraceLog
from repro.workloads.base import indirect_update

N = 48


def traced(strategy, x_vals=None):
    loop = indirect_update()
    x_vals = x_vals if x_vals is not None else list(range(N))
    mem = MemoryImage()
    mem.alloc("a", N, 4, init=range(N))
    mem.alloc("x", N, 4, init=x_vals)
    program = compile_loop(loop, mem, N, strategy)
    log = TraceLog(program)
    metrics, _ = run_program(program, mem, tracer=log)
    return [log.op(index) for index in range(len(log))], metrics


class TestTraceStructure:
    def test_one_op_per_dynamic_instruction(self):
        trace, metrics = traced(Strategy.SRV)
        assert len(trace) == metrics.dynamic_instructions
        assert [op.index for op in trace] == list(range(len(trace)))

    def test_region_markers_balanced(self):
        trace, metrics = traced(Strategy.SRV)
        starts = [op for op in trace if op.region_event is RegionEvent.START]
        commits = [
            op for op in trace if op.region_event is RegionEvent.END_COMMIT
        ]
        assert len(starts) == len(commits) == metrics.srv.regions_entered

    def test_replay_markers_carry_lanes(self):
        trace, metrics = traced(Strategy.SRV, periodic_conflict_indices(N, 4))
        replays = [
            op for op in trace if op.region_event is RegionEvent.END_REPLAY
        ]
        assert len(replays) == metrics.srv.replays
        for op in replays:
            assert op.replay_lanes == frozenset({3, 7, 11, 15})

    def test_in_region_flags(self):
        trace, _ = traced(Strategy.SRV)
        inside = [op for op in trace if op.in_region]
        assert inside
        # scalar loop-control ops stay outside the region
        assert all(op.inst.is_vector or op.op_class in
                   (OpClass.SRV_START, OpClass.SRV_END) for op in inside)

    def test_region_pass_numbers(self):
        trace, _ = traced(Strategy.SRV, periodic_conflict_indices(N, 4))
        passes = {op.region_pass for op in trace if op.in_region}
        assert passes == {0, 1}   # first pass + one replay pass

    def test_scalar_trace_has_no_regions(self):
        trace, _ = traced(Strategy.SCALAR)
        assert all(op.region_event is None for op in trace)
        assert all(not op.in_region for op in trace)


class TestMemAccesses:
    def test_contiguous_load_records_all_lanes(self):
        trace, _ = traced(Strategy.SRV)
        loads = [op for op in trace if op.op_class is OpClass.VEC_LOAD]
        assert loads
        first = loads[0]
        assert len(first.mem) == 16
        assert all(isinstance(a, MemAccess) and not a.is_store for a in first.mem)
        lanes = [a.lane for a in first.mem]
        assert lanes == list(range(16))
        addrs = [a.addr for a in first.mem]
        assert addrs == sorted(addrs)
        assert addrs[1] - addrs[0] == 4

    def test_scatter_records_per_lane_targets(self):
        x_vals = periodic_conflict_indices(N, 4)
        trace, _ = traced(Strategy.SRV, x_vals)
        stores = [op for op in trace if op.op_class is OpClass.VEC_STORE]
        first = stores[0]
        assert len(first.mem) == 16
        assert all(a.is_store for a in first.mem)

    def test_branch_outcomes_recorded(self):
        trace, _ = traced(Strategy.SRV)
        branches = [op for op in trace if op.op_class is OpClass.BRANCH]
        assert branches
        assert branches[-1].branch_taken is False   # final loop exit
        assert all(op.branch_taken is True for op in branches[:-1])

    def test_register_dependences_present(self):
        trace, _ = traced(Strategy.SRV)
        vec_adds = [op for op in trace if op.op_class is OpClass.VEC_INT]
        assert any(op.src_regs and op.dst_regs for op in vec_adds)
