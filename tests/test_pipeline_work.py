"""The timing model's work count: Python calls per op of ``PipelineModel.run``.

The count is the number of ``sys.setprofile`` "call" events while the
model times a trace log (calls into C — heap, deque and dict methods —
do not count; each ``send`` into the pump resumes it with one event).
It is deterministic, so it shows a change in the timing model's per-op
work that wall time on a loaded host would hide.  The log and the cache
warm are built first and are not counted, as in the timed path
(``simulate_streaming`` with ``warm=True``).
"""

from __future__ import annotations

import sys

from repro.compiler import Strategy
from repro.pipeline.core import PipelineModel
from repro.pipeline.trace import TraceLog
from repro.sample import project as project_mod
from repro.sample.project import _build, resolve_spec


def _calls_per_op(workload: str, loop: str, strategy: Strategy, n: int):
    """``(python calls, ops)`` of one ``PipelineModel.run`` over the
    trace log of a suite loop, LSU validation on as ``run_loop`` runs it."""
    _, spec = resolve_spec(workload, loop)
    interp = _build(spec, strategy, 0, n, project_mod.TABLE_I)
    interp.tracer = log = TraceLog(interp.program, interp.decode)
    interp.run()
    model = PipelineModel(project_mod.TABLE_I, validate_lsu=True)
    log.warm(model.caches)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        model.run(log)
    finally:
        sys.setprofile(saved)
    return calls, len(log)


class TestWorkCount:
    def test_scalar_loop_runs_under_four_calls_per_op(self):
        # The SVE suite compiles to scalar code: every memory op is one
        # single-lane LSU entry.  Measured on CPython 3.11: 3.24 calls per
        # op (7.61 with a PortPool.reserve call per issue and commit slot,
        # the entry built through _entries_for and LsuEntry.make, and a
        # rescan-and-drop chain draining committed entries).
        calls, ops = _calls_per_op("hmmer", "viterbi", Strategy.SVE, 128)
        assert ops == 3718
        assert calls / ops <= 4.0, f"{calls} calls for {ops} ops"

    def test_srv_loop_calls_below_the_per_call_pump(self):
        # The same loop vectorised under SRV: 13,843 calls (CPython 3.11)
        # when every LSU issue built its match lists with comprehensions
        # and an overlap call per row; 2,355 with no-match issues
        # returning from counters alone.
        calls, ops = _calls_per_op("hmmer", "viterbi", Strategy.SRV, 128)
        assert ops == 220
        assert calls <= 3000, f"{calls} calls for {ops} ops"
