"""Parallel sweep engine (repro.parallel): determinism + resume.

The engine's contract is that a ``--jobs N`` sweep produces tables that
are **byte-identical** to a sequential run: workers only warm the result
cache, and the harnesses replay sequentially in the parent.  These tests
exercise that contract end to end for representative figures, plus
resuming a killed sweep through the disk cache and running every cell
exactly once when there is no disk cache.
"""

import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.common.errors import SrvError
from repro.compiler import Strategy
from repro.experiments import ALL_EXPERIMENTS, runner
from repro.parallel import (
    SweepCell,
    cells_for_experiments,
    engine,
    plan_summary,
    run_sweep,
    warm_cells,
)
from repro.parallel.cache import result_cache
from repro.workloads import by_name

#: Small but representative: violations (SRV replay behaviour), FlexVec
#: (strategy comparison incl. dynamic instruction counts), and the limit
#: study (untimed emulator-only cells).
FIGURES = ("figure9", "figure13", "limit_study")
N = 32


@pytest.fixture(autouse=True)
def _fresh_state(tmp_path):
    runner.clear_cache()
    runner.disable_disk_cache()
    yield
    runner.clear_cache()
    runner.disable_disk_cache()


def _spy_execute(monkeypatch) -> list:
    """Record every ``runner._execute`` call made in this process."""
    calls = []
    original = runner._execute

    def _spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, "_execute", _spy)
    return calls


def _sequential_tables() -> dict[str, str]:
    tables = {}
    for name in FIGURES:
        runner.clear_cache()
        tables[name] = ALL_EXPERIMENTS[name](n_override=N).format_table()
    return tables


class TestPlan:
    def test_cells_are_deduplicated(self):
        cells = cells_for_experiments(["figure6", "figure7"], n_override=N)
        assert len(cells) == len(set(cells))
        # figure7 reuses figure6's runs: same cell matrix, no doubling
        only6 = cells_for_experiments(["figure6"], n_override=N)
        assert set(cells) == set(only6)

    def test_unknown_experiment_rejected_by_sweep(self):
        # the plan layer tolerates unknown names (the replay phase covers
        # derived experiments); run_sweep is where validation happens
        assert cells_for_experiments(["figure99"]) == []
        with pytest.raises(KeyError):
            run_sweep(["figure99"], jobs=1)

    def test_cell_resolves_to_spec_and_config(self):
        cell = SweepCell(
            workload="gcc", loop=by_name("gcc").loops[0].name,
            strategy=Strategy.SRV.value,
        )
        spec, strategy, config = cell.resolve()
        assert spec.name == cell.loop
        assert strategy is Strategy.SRV
        assert config.vector_lanes > 0

    def test_plan_summary_mentions_counts(self):
        summary = plan_summary(cells_for_experiments(["figure13"], n_override=N))
        assert "cells" in summary


class TestDeterminism:
    def test_parallel_tables_byte_identical(self, tmp_path):
        expected = _sequential_tables()

        runner.clear_cache()
        outcome = run_sweep(
            list(FIGURES), jobs=4, n_override=N,
            cache_dir=str(tmp_path / "cache"),
        )
        for name in FIGURES:
            assert outcome.results[name].format_table() == expected[name], name
        assert not outcome.failed_experiments
        assert outcome.report.planned_cells > 0

    def test_second_sweep_is_all_cache_hits(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = run_sweep(["figure13"], jobs=2, n_override=N,
                          cache_dir=cache_dir)
        assert sum(s.executed for s in first.report.shards) > 0

        runner.clear_cache()
        second = run_sweep(["figure13"], jobs=2, n_override=N,
                           cache_dir=cache_dir)
        assert sum(s.executed for s in second.report.shards) == 0
        assert second.report.skipped_cache == second.report.planned_cells
        assert (second.results["figure13"].format_table()
                == first.results["figure13"].format_table())

    def test_warm_cells_inline_matches_pool(self, tmp_path):
        cells = cells_for_experiments(["figure13"], n_override=N)
        inline_dir = str(tmp_path / "inline")
        pool_dir = str(tmp_path / "pool")

        runner.clear_cache()
        runner.disable_disk_cache()
        inline_reports = warm_cells(cells, jobs=1, cache_dir=inline_dir)
        runner.clear_cache()
        runner.disable_disk_cache()
        pool_reports = warm_cells(cells, jobs=2, cache_dir=pool_dir)

        assert sum(r.executed for r in inline_reports) == len(cells)
        assert sum(r.executed for r in pool_reports) == len(cells)
        assert not any(r.failures for r in inline_reports + pool_reports)


class _FakePool:
    """Runs submitted shards synchronously; shard 0's worker "dies"."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, index, *args):
        future = Future()
        if index == 0:
            future.set_exception(BrokenProcessPool("worker killed"))
        else:
            future.set_result(fn(index, *args))
        return future


class TestWorkerDeath:
    def test_broken_shard_is_retried_inline(self, tmp_path, monkeypatch):
        cells = cells_for_experiments(["figure13"], n_override=N)[:4]
        cache_dir = str(tmp_path / "cache")
        monkeypatch.setattr(engine, "ProcessPoolExecutor", _FakePool)
        messages = []

        reports = warm_cells(cells, jobs=2, cache_dir=cache_dir,
                             progress=messages.append)

        assert [r.index for r in reports] == [0, 1, 2, 3]
        victim = reports[0]
        assert victim.resumed == victim.cells == 1
        assert victim.executed == 1 and not victim.failures
        assert all(r.resumed == 0 for r in reports[1:])
        assert "[shard 0: worker died; retrying inline]" in messages

        runner.clear_cache()
        rerun = warm_cells(cells, jobs=1, cache_dir=cache_dir)
        assert sum(r.cached for r in rerun) == len(cells)
        assert sum(r.executed for r in rerun) == 0


class TestCheckpointAgreement:
    """A cache warmed by the pool satisfies the plain sequential harness."""

    def test_parallel_cache_honoured_by_sequential_run(self, tmp_path,
                                                       monkeypatch):
        """The converse composition: warm in parallel, replay sequentially
        through the plain harness entry point."""
        cache_dir = str(tmp_path / "cache")
        cells = cells_for_experiments(["figure13"], n_override=N)
        warm_cells(cells, jobs=2, cache_dir=cache_dir)

        runner.clear_cache()
        runner.enable_disk_cache(cache_dir)
        calls = _spy_execute(monkeypatch)
        result = ALL_EXPERIMENTS["figure13"](n_override=N)
        assert result.rows
        assert not calls, "warmed cells must satisfy the sequential harness"


class _IsolatedPool(_FakePool):
    """Runs every shard in this process, then drops what it memoised, as
    a worker's memo dies with its process; only the disk cache persists."""

    def submit(self, fn, index, *args):
        cache = result_cache()
        saved = cache._memory.copy()
        future = Future()
        try:
            future.set_result(fn(index, *args))
        finally:
            cache._memory = saved
        return future


class TestResume:
    def test_killed_sweep_resumes_from_disk_cache(self, tmp_path,
                                                  monkeypatch):
        """Re-running a killed sweep executes only the unfinished cells."""
        expected = run_sweep(["figure13"], jobs=1, n_override=N,
                             cache_dir=None).results["figure13"].format_table()

        # the killed sweep: half its cells reached the disk cache
        cache_dir = str(tmp_path / "cache")
        cells = cells_for_experiments(["figure13"], n_override=N)
        done = cells[: len(cells) // 2]
        runner.clear_cache()
        warm_cells(done, jobs=1, cache_dir=cache_dir)

        runner.clear_cache()
        runner.disable_disk_cache()
        calls = _spy_execute(monkeypatch)
        outcome = run_sweep(["figure13"], jobs=1, n_override=N,
                            cache_dir=cache_dir)
        report = outcome.report
        assert report.planned_cells == len(cells)
        assert report.skipped_cache == len(done)
        assert report.executed == len(cells) - len(done)
        assert len(calls) == len(cells) - len(done)
        assert outcome.results["figure13"].format_table() == expected

    def test_no_cache_parallel_sweep_runs_each_cell_once(self, monkeypatch):
        """Without a disk cache, workers cannot hand runs back, so a
        ``jobs > 1`` sweep must not compute cells it will compute again."""
        monkeypatch.setattr(engine, "ProcessPoolExecutor", _IsolatedPool)
        calls = _spy_execute(monkeypatch)
        outcome = run_sweep(["figure9"], jobs=2, n_override=16,
                            cache_dir=None)
        report = outcome.report
        assert report.planned_cells > 0
        assert len(calls) == report.planned_cells
        assert report.executed == report.planned_cells
        assert not outcome.failed_experiments


def _entries(directory) -> list:
    return sorted(p.name for p in directory.rglob("*.pkl"))


class TestDiskLayerScope:
    """A sweep uses exactly the disk cache it is given and hands the
    caller's back on return."""

    def test_no_cache_sweep_leaves_an_enabled_cache_alone(self, tmp_path):
        enabled = tmp_path / "enabled"
        runner.enable_disk_cache(str(enabled))
        outcome = run_sweep(["figure9"], n_override=16, cache_dir=None)
        assert outcome.report.executed == outcome.report.planned_cells > 0
        assert _entries(enabled) == []
        assert result_cache().disk_dir == str(enabled)

    def test_sweep_writes_only_its_own_cache_and_restores(self, tmp_path):
        enabled, own = tmp_path / "enabled", tmp_path / "own"
        runner.enable_disk_cache(str(enabled))
        outcome = run_sweep(["figure9"], n_override=16, cache_dir=str(own))
        assert len(_entries(own)) == outcome.report.planned_cells
        assert _entries(enabled) == []
        assert result_cache().disk_dir == str(enabled)

    def test_restores_a_disabled_cache(self, tmp_path):
        run_sweep(["figure9"], n_override=16, cache_dir=str(tmp_path))
        assert result_cache().disk_dir is None


class TestFailingCell:
    def test_failing_cell_is_reported_under_its_own_seed(self, tmp_path,
                                                         monkeypatch):
        """A cell that fails in the warm phase shows in the sweep report
        and is never re-run under a derived seed."""
        cache_dir = str(tmp_path / "cache")
        cells = cells_for_experiments(["figure9"], n_override=16)
        bad = cells[0]
        original = runner._execute
        seeds = []

        def planted(spec, strategy, seed, *args, **kwargs):
            if spec.name == bad.loop and strategy.value == bad.strategy:
                seeds.append(seed)
                raise SrvError("planted cell failure")
            return original(spec, strategy, seed, *args, **kwargs)

        monkeypatch.setattr(runner, "_execute", planted)
        outcome = run_sweep(["figure9"], jobs=1, n_override=16,
                            cache_dir=cache_dir)
        report = outcome.report
        failed = [(f.loop, f.strategy, f.seed, f.error)
                  for f in report.failures]
        assert failed == [(bad.loop, bad.strategy, bad.seed, "SrvError")]
        assert report.executed == len(cells) - 1
        assert bad.seed + 7919 not in seeds

        spec, strategy, config = bad.resolve()
        runner.clear_cache()
        runner.enable_disk_cache(cache_dir)
        for seed in (bad.seed, bad.seed + 7919):
            key = runner.cache_key_for(spec, strategy, seed, config,
                                       bad.timing, bad.n_override, bad.core)
            assert not result_cache().contains(key)
        assert len(_entries(tmp_path / "cache")) == len(cells) - 1

    @staticmethod
    def _plant(monkeypatch, bad, fail) -> list:
        """Make ``bad``'s cell fail through ``fail``; returns the seeds of
        its attempts."""
        original = runner._execute
        attempts = []

        def planted(spec, strategy, seed, *args, **kwargs):
            if spec.name == bad.loop and strategy.value == bad.strategy:
                attempts.append(seed)
                fail()
            return original(spec, strategy, seed, *args, **kwargs)

        monkeypatch.setattr(runner, "_execute", planted)
        return attempts

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_cell_runs_once_per_sweep(self, tmp_path, monkeypatch,
                                              jobs):
        """The replay reports a warm-phase failure under the cell's loop
        and strategy without running the cell again; a later sweep
        retries it."""
        monkeypatch.setattr(engine, "ProcessPoolExecutor", _IsolatedPool)
        cells = cells_for_experiments(["figure9"], n_override=16)
        bad = cells[0]

        def fail():
            raise SrvError("planted cell failure")

        attempts = self._plant(monkeypatch, bad, fail)
        for sweep in (1, 2):
            outcome = run_sweep(["figure9"], jobs=jobs, n_override=16,
                                cache_dir=str(tmp_path / "cache"))
            assert attempts == [bad.seed] * sweep
            failed = [(f.loop, f.strategy, f.seed, f.error)
                      for f in outcome.report.failures]
            assert failed == [(bad.loop, bad.strategy, bad.seed, "SrvError")]
            figure = outcome.results["figure9"]
            assert [(f.loop, f.strategy, f.seed, f.error)
                    for f in figure.failures] == failed
            assert figure.title == "figure9: FAILED (SrvError)"
            spec, strategy, config = bad.resolve()
            key = runner.cache_key_for(spec, strategy, bad.seed, config,
                                       bad.timing, bad.n_override, bad.core)
            assert result_cache().failure(key) is None

    def test_timed_out_cell_does_not_hang_the_replay(self, tmp_path,
                                                     monkeypatch):
        cells = cells_for_experiments(["figure9"], n_override=16)
        bad = cells[0]
        attempts = self._plant(monkeypatch, bad, lambda: time.sleep(60))
        start = time.perf_counter()
        outcome = run_sweep(["figure9"], jobs=1, n_override=16,
                            cache_dir=str(tmp_path / "cache"), timeout_s=1.0)
        assert time.perf_counter() - start < 30
        assert attempts == [bad.seed]
        failed = [(f.loop, f.strategy, f.error)
                  for f in outcome.results["figure9"].failures]
        assert failed == [(bad.loop, bad.strategy, "RunTimeoutError")]
