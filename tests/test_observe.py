"""Tests for the observability layer (:mod:`repro.observe`).

Covers the event bus mechanics, the instrumentation threaded through the
emulator / timing models / LSU, the streaming-vs-materialised
event-sequence determinism contract, exact cycle attribution, the
Perfetto exporter, and the two zero-overhead guarantees: experiment
tables are byte identical with a null sink armed, and the disabled path
costs <5% on the simulator benchmark kernel.
"""

from __future__ import annotations

import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import pytest

from repro.common.config import TABLE_I
from repro.common.errors import ObserveError
from repro.compiler import Strategy
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.runner import clear_cache
from repro.observe import attrib as attrib_mod
from repro.observe import events as ev
from repro.observe.export import (
    ascii_timeline,
    attribution_table,
    counters_table,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.observe.harness import observe_loop
from repro.workloads import all_loops
from tests.pinned import PINS, digest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_bench_module():
    path = REPO_ROOT / "benchmarks" / "bench_simulator.py"
    spec = importlib.util.spec_from_file_location("bench_simulator", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_simulator", module)
    spec.loader.exec_module(module)
    return module


def _spec(workload: str, loop_fragment: str):
    for w, spec in all_loops():
        if w.name == workload and loop_fragment in spec.name:
            return spec
    raise LookupError(f"{workload}/{loop_fragment}")


SUITE = [(w.name, spec) for w, spec in all_loops()]


# ---------------------------------------------------------------------------
# bus + sink mechanics
# ---------------------------------------------------------------------------


class TestBus:
    def test_install_uninstall(self):
        sink = ev.ListSink()
        bus = ev.install(sink)
        try:
            assert ev.ACTIVE is bus
            bus.emit(ev.EventKind.FETCH, "pipe", 0, 1)
        finally:
            ev.uninstall()
        assert ev.ACTIVE is None
        assert len(sink.events) == 1

    def test_double_install_rejected(self):
        with ev.capture():
            with pytest.raises(ObserveError):
                ev.install(ev.ListSink())

    def test_capture_always_uninstalls(self):
        with pytest.raises(RuntimeError):
            with ev.capture():
                raise RuntimeError("boom")
        assert ev.ACTIVE is None

    def test_null_sink_never_allocates_events(self):
        sink = ev.NullSink()
        bus = ev.EventBus(sink)
        # emit is rebound to the module-level no-op for null sinks
        assert bus.emit is ev._swallow
        bus.emit(ev.EventKind.ISSUE, "pipe", 0, 5, 2)
        assert sink.finalized() == ()

    def test_ring_buffer_bounds_and_counts_drops(self):
        sink = ev.RingBufferSink(capacity=3)
        bus = ev.EventBus(sink)
        for i in range(5):
            bus.emit(ev.EventKind.COMMIT, "pipe", i, i)
        assert sink.dropped == 2
        assert [e.op for e in sink.finalized()] == [2, 3, 4]

    def test_ring_buffer_rejects_bad_capacity(self):
        with pytest.raises(ObserveError):
            ev.RingBufferSink(capacity=0)

    def test_counter_sink(self):
        sink = ev.CounterSink()
        bus = ev.EventBus(sink)
        bus.emit(ev.EventKind.ISSUE, "pipe", 0, 0)
        bus.emit(ev.EventKind.ISSUE, "pipe", 1, 1)
        bus.emit(ev.EventKind.COMMIT, "pipe", 0, 2)
        assert sink.counts[ev.EventKind.ISSUE] == 2
        assert sink.counts[ev.EventKind.COMMIT] == 1
        assert sink.finalized() == ()

    def test_emit_lsu_uses_bus_context(self):
        sink = ev.ListSink()
        bus = ev.EventBus(sink)
        bus.op = 7
        bus.cycle = 42
        bus.emit_lsu(ev.EventKind.H_VIOLATION, lane=3)
        (event,) = sink.events
        assert (event.op, event.t, event.lane) == (7, 42, 3)
        assert event.domain == "lsu"

    def test_event_get_and_end(self):
        event = ev.Event(
            ev.EventKind.REGION_PASS, "pipe", 1, 10, dur=5,
            data=(("pass", 2), ("region", 0)),
        )
        assert event.get("pass") == 2
        assert event.get("missing", "x") == "x"
        assert event.end == 15

    def test_canonical_order_is_stable_by_op_then_domain(self):
        events = [
            ev.Event(ev.EventKind.ISSUE, "pipe", 2, 0),
            ev.Event(ev.EventKind.REGION_BEGIN, "emu", 2, 0),
            ev.Event(ev.EventKind.H_VIOLATION, "lsu", 1, 0),
            ev.Event(ev.EventKind.FETCH, "pipe", 1, 0),
        ]
        ordered = ev.canonical_order(events)
        assert [(e.op, e.domain) for e in ordered] == [
            (1, "pipe"), (1, "lsu"), (2, "emu"), (2, "pipe"),
        ]


# ---------------------------------------------------------------------------
# instrumentation presence
# ---------------------------------------------------------------------------


class TestInstrumentation:
    @pytest.fixture(scope="class")
    def viterbi_run(self):
        return observe_loop(
            _spec("hmmer", "viterbi"), Strategy.SRV, n_override=128
        )

    def test_region_and_replay_events_present(self, viterbi_run):
        kinds = {e.kind for e in viterbi_run.events}
        assert ev.EventKind.REGION_BEGIN in kinds
        assert ev.EventKind.REGION_PASS in kinds
        assert ev.EventKind.REGION_END in kinds
        assert ev.EventKind.LANE_REPLAY in kinds
        assert ev.EventKind.H_VIOLATION in kinds
        assert ev.EventKind.BARRIER_STALL in kinds

    def test_per_op_lifecycle_covers_every_op(self, viterbi_run):
        per_kind = {}
        for event in viterbi_run.events:
            if event.domain == "pipe":
                per_kind.setdefault(event.kind, set()).add(event.op)
        n_ops = viterbi_run.pipe.instructions
        for kind in (ev.EventKind.FETCH, ev.EventKind.ISSUE,
                     ev.EventKind.COMMIT):
            assert len(per_kind[kind]) == n_ops

    def test_emu_and_pipe_agree_on_region_structure(self, viterbi_run):
        def count(kind, domain):
            return sum(
                1 for e in viterbi_run.events
                if e.kind is kind and e.domain == domain
            )
        for kind in (ev.EventKind.REGION_BEGIN, ev.EventKind.REGION_PASS,
                     ev.EventKind.REGION_END, ev.EventKind.LANE_REPLAY):
            assert count(kind, "emu") == count(kind, "pipe")

    def test_events_untouched_runs_emit_nothing(self):
        # no bus installed: the harnessless simulation path emits nothing
        assert ev.ACTIVE is None

    def test_emulator_region_events(self):
        """One region replaying lanes 3, 7, 11, 15: the interpreter emits
        its begin, both passes, the replayed lanes and the end, all in
        the ``emu`` domain."""
        from repro.common.rng import periodic_conflict_indices
        from repro.compiler import compile_loop
        from repro.emu import run_program
        from repro.memory import MemoryImage
        from repro.workloads.base import indirect_update

        n = TABLE_I.vector_lanes
        mem = MemoryImage()
        mem.alloc("a", n, 4, init=list(range(n)))
        mem.alloc("x", n, 4, init=periodic_conflict_indices(n, 4))
        program = compile_loop(indirect_update(), mem, n, Strategy.SRV)
        with ev.capture() as sink:
            run_program(program, mem)
        events = sink.finalized()
        assert {e.domain for e in events} == {"emu"}
        kinds = [e.kind for e in events]
        assert kinds.count(ev.EventKind.REGION_BEGIN) == 1
        assert kinds.count(ev.EventKind.REGION_PASS) == 2
        assert kinds.count(ev.EventKind.REGION_END) == 1
        assert [
            e.lane for e in events if e.kind is ev.EventKind.LANE_REPLAY
        ] == [3, 7, 11, 15]

    def test_inorder_core_instrumented(self):
        run = observe_loop(
            _spec("hmmer", "viterbi"), Strategy.SRV,
            n_override=64, core="inorder",
        )
        kinds = {e.kind for e in run.events}
        assert ev.EventKind.REGION_END in kinds
        assert ev.EventKind.ISSUE in kinds
        run.attribution.check()

    def test_sequential_fallback_emits_and_buckets(self):
        config = TABLE_I.with_overrides(srv_force_sequential=True)
        run = observe_loop(
            _spec("hmmer", "viterbi"), Strategy.SRV,
            n_override=64, config=config,
        )
        kinds = {e.kind for e in run.events}
        assert ev.EventKind.SEQ_FALLBACK in kinds
        assert run.attribution.buckets["fallback"] > 0
        run.attribution.check()

    def test_harness_validates_arguments(self):
        spec = _spec("hmmer", "viterbi")
        with pytest.raises(ValueError):
            observe_loop(spec, Strategy.SRV, core="vliw")


# ---------------------------------------------------------------------------
# streaming vs materialised determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    """Observed runs against the pinned event sequences of the deleted
    materialised path (the whole trace as a ``Tracer`` list, then the
    timing model over it)."""

    @pytest.mark.parametrize(
        "workload,spec", SUITE, ids=[s.name for _, s in SUITE]
    )
    def test_stream_and_list_yield_identical_event_sequences(
        self, workload, spec
    ):
        stream = observe_loop(spec, Strategy.SRV, n_override=48)
        assert not stream.degraded
        assert [stream.cycles, digest(stream.events),
                digest(stream.attribution.buckets)] == \
            PINS["observe"][spec.name]

    @pytest.mark.parametrize("workload,fragment", [
        ("hmmer", "viterbi"), ("gobmk", "influence"),
    ])
    def test_inorder_stream_matches_materialised(self, workload, fragment):
        spec = _spec(workload, fragment)
        stream = observe_loop(spec, Strategy.SRV, n_override=64,
                              core="inorder")
        assert [stream.cycles, digest(stream.events),
                digest(stream.attribution.buckets)] == \
            PINS["observe"][f"{spec.name}/inorder"]

    def test_ring_buffer_stream_matches_list_tail(self):
        spec = _spec("hmmer", "viterbi")
        full = observe_loop(spec, Strategy.SRV, n_override=64)
        ringed = observe_loop(
            spec, Strategy.SRV, n_override=64,
            sink_factory=lambda: ev.RingBufferSink(1 << 20),
        )
        # a ring large enough to drop nothing is order-identical
        assert ringed.events == full.events


# ---------------------------------------------------------------------------
# cycle attribution
# ---------------------------------------------------------------------------


class TestAttribution:
    @pytest.mark.parametrize(
        "workload,spec", SUITE, ids=[s.name for _, s in SUITE]
    )
    def test_buckets_sum_exactly_to_cycles(self, workload, spec):
        run = observe_loop(spec, Strategy.SRV, n_override=48)
        assert sum(run.attribution.buckets.values()) == run.cycles
        run.attribution.check()  # must not raise

    @pytest.mark.parametrize("strategy", [Strategy.SCALAR, Strategy.SVE])
    def test_non_srv_strategies_attribute_exactly(self, strategy):
        run = observe_loop(_spec("hmmer", "viterbi"), strategy, n_override=64)
        run.attribution.check()
        assert run.attribution.buckets["replay"] == 0
        assert run.attribution.buckets["fallback"] == 0

    def test_replay_bucket_nonzero_on_conflicting_loop(self):
        run = observe_loop(_spec("hmmer", "viterbi"), Strategy.SRV,
                           n_override=128)
        assert run.attribution.buckets["replay"] > 0
        regions = run.attribution.regions
        assert regions and any(r.passes > 1 for r in regions)
        replayed = next(r for r in regions if r.passes > 1)
        assert replayed.replay_cycles > 0
        assert replayed.cycles == replayed.end - replayed.start

    def test_check_raises_on_mismatch(self):
        bad = attrib_mod.RunAttribution(
            total=10, buckets={name: 0 for name in attrib_mod.BUCKETS}
        )
        with pytest.raises(AssertionError):
            bad.check()

    def test_rollup_sums_runs(self):
        runs = [
            observe_loop(_spec("hmmer", "viterbi"), Strategy.SRV,
                         n_override=48),
            observe_loop(_spec("bzip2", ""), Strategy.SRV, n_override=48),
        ]
        combined = attrib_mod.rollup(r.attribution for r in runs)
        assert combined.total == sum(r.cycles for r in runs)
        combined.check()

    def test_interval_merge(self):
        assert attrib_mod._merge([(5, 8), (0, 3), (2, 6)]) == [(0, 8)]
        assert attrib_mod._merge([]) == []
        assert attrib_mod._measure([(0, 8), (10, 12)]) == 10


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


class TestExport:
    @pytest.fixture(scope="class")
    def run(self):
        return observe_loop(
            _spec("hmmer", "viterbi"), Strategy.SRV, n_override=128
        )

    def test_chrome_trace_round_trips(self, run, tmp_path):
        out = tmp_path / "trace.json"
        count = write_chrome_trace(str(out), run.events, label="test")
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        assert len(events) == count > 0
        phases = {e["ph"] for e in events}
        assert phases >= {"M", "X", "i"}
        names = {e["name"] for e in events}
        assert any(n.startswith("region ") for n in names)
        assert any(n.startswith("pass ") for n in names)
        assert ev.EventKind.LANE_REPLAY.value in names
        for entry in events:
            if entry["ph"] == "X":
                assert entry["dur"] >= 0

    def test_chrome_trace_splits_pid_by_domain(self, run):
        payload = to_chrome_trace(run.events)
        pids = {e["pid"] for e in payload["traceEvents"]}
        assert pids == {1, 2}  # cycle domain + emulator-step domain

    def test_counters_table(self, run):
        table = counters_table(run.events)
        assert table.summary["total_events"] == len(run.events)
        assert sum(table.column("count")) == len(run.events)
        rendered = table.format_table()
        assert "issue" in rendered and "lsu" in rendered

    def test_attribution_table_totals(self, run):
        rows = [("a", run.attribution), ("b", run.attribution)]
        table = attribution_table(rows, total_row=True)
        assert table.summary["runs"] == 2
        assert table.summary["total_cycles"] == 2 * run.cycles
        total = table.row_for("TOTAL")
        assert total[1] == 2 * run.cycles
        fractions = [
            v for k, v in table.summary.items() if k.endswith("_fraction")
        ]
        assert abs(sum(fractions) - 1.0) < 1e-9

    def test_ascii_timeline_lists_regions(self, run):
        text = ascii_timeline(run.attribution)
        assert f"cycles {run.cycles}" in text
        assert text.count("region") == len(run.attribution.regions)
        assert "passes=2" in text  # the replaying region

    def test_ascii_timeline_without_regions(self):
        empty = attrib_mod.RunAttribution(
            total=0, buckets={name: 0 for name in attrib_mod.BUCKETS}
        )
        assert "(no SRV regions in this run)" in ascii_timeline(empty)


# ---------------------------------------------------------------------------
# zero-overhead guarantees
# ---------------------------------------------------------------------------


class TestDisabledPath:
    def test_experiment_table_byte_identical_under_null_sink(self):
        clear_cache()
        baseline = ALL_EXPERIMENTS["figure9"](n_override=32).format_table()
        clear_cache()
        with ev.capture(ev.NullSink()):
            observed = ALL_EXPERIMENTS["figure9"](n_override=32).format_table()
        clear_cache()
        assert observed == baseline

    def test_cycles_bit_identical_with_and_without_bus(self):
        spec = _spec("hmmer", "viterbi")
        plain = observe_loop(spec, Strategy.SRV, n_override=128,
                             sink_factory=ev.NullSink)
        traced = observe_loop(spec, Strategy.SRV, n_override=128)
        assert plain.cycles == traced.cycles
        assert plain.events == ()

    def test_null_sink_overhead_under_five_percent(self):
        bench = _load_bench_module()

        def run_once() -> float:
            start = time.perf_counter()
            bench._bench_streaming()
            return time.perf_counter() - start

        def run_nulled() -> float:
            with ev.capture(ev.NullSink()):
                return run_once()

        pairs = 11
        bench._bench_streaming()  # JIT-free warmup (imports, caches)
        # each plain rep is paired with a null-bus rep run next to it
        # (which goes first alternates), so host load that lands on part
        # of the run weighs on both halves of a pair alike; a shared host
        # can also switch between run speeds ~1.5x apart, and the median
        # paired difference is not moved by the few pairs that straddle
        # a switch
        plain, overheads = [], []
        for i in range(pairs):
            if i % 2:
                nulled = run_nulled()
                base = run_once()
            else:
                base = run_once()
                nulled = run_nulled()
            plain.append(base)
            overheads.append(nulled - base)
        base = statistics.median(plain)
        overhead = statistics.median(overheads)
        # small absolute epsilon absorbs timer jitter on machines where
        # one rep is a handful of milliseconds
        assert overhead <= base * 0.05 + 0.002, (
            f"null-sink runs took {overhead:+.4f}s more than baseline "
            f"{base:.4f}s (median of {pairs} pairs)"
        )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_trace_command_writes_perfetto_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        rc = main([
            "trace", "hmmer", "viterbi", "-n", "64", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
        printed = capsys.readouterr().out
        assert "cycles" in printed and "region" in printed

    def test_trace_command_ring_option(self, capsys):
        from repro.cli import main

        assert main(["trace", "hmmer", "viterbi", "-n", "64",
                     "--ring", "128"]) == 0
        assert "events" in capsys.readouterr().out

    def test_attrib_command_single_loop(self, capsys):
        from repro.cli import main

        assert main(["attrib", "hmmer", "viterbi", "-n", "64"]) == 0
        printed = capsys.readouterr().out
        assert "Cycle attribution" in printed

    def test_attrib_command_requires_target(self, capsys):
        from repro.cli import main

        assert main(["attrib"]) == 2
        assert "suite" in capsys.readouterr().err
