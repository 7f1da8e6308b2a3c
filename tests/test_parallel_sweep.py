"""Parallel sweep engine (repro.parallel): determinism + checkpointing.

The engine's contract is that a ``--jobs N`` sweep produces tables that
are **byte-identical** to a sequential run: workers only warm the result
cache, and the harnesses replay sequentially in the parent.  These tests
exercise that contract end to end for representative figures, plus the
satellite requirement that a checkpoint written by a *sequential* run is
honoured by a parallel one.
"""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

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
    runner.disable_checkpoint()
    runner.disable_disk_cache()
    yield
    runner.clear_cache()
    runner.disable_checkpoint()
    runner.disable_disk_cache()


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

    def __init__(self, max_workers, initializer=None):
        # shards run in this process, so the worker initializer (which
        # disables the checkpoint) must not run here
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
    def test_sequential_checkpoint_honoured_by_parallel_run(self, tmp_path):
        """Satellite: a --jobs N sweep must not redo checkpointed work."""
        ckpt = str(tmp_path / "runs.ckpt")

        # sequential run writes the checkpoint
        runner.enable_checkpoint(ckpt)
        expected = ALL_EXPERIMENTS["figure13"](n_override=N).format_table()
        runner.disable_checkpoint()
        runner.clear_cache()

        # parallel run loads it: every cell is skipped, nothing executes
        outcome = run_sweep(
            ["figure13"], jobs=2, n_override=N,
            cache_dir=str(tmp_path / "cache"), checkpoint=ckpt,
        )
        report = outcome.report
        assert report.skipped_checkpoint == report.planned_cells
        assert sum(s.executed for s in report.shards) == 0
        assert outcome.results["figure13"].format_table() == expected

    def test_inline_sweep_keeps_checkpoint(self, tmp_path):
        """A --jobs 1 sweep warms in this process and must keep recording."""
        ckpt = tmp_path / "runs.ckpt"
        run_sweep(["figure9"], jobs=1, n_override=16, cache_dir=None,
                  checkpoint=str(ckpt))
        assert runner._CHECKPOINT_PATH == str(ckpt)
        assert ckpt.exists()

        runner.disable_checkpoint()
        runner.clear_cache()
        rerun = run_sweep(["figure9"], jobs=1, n_override=16, cache_dir=None,
                          checkpoint=str(ckpt))
        report = rerun.report
        assert report.planned_cells > 0
        assert report.skipped_checkpoint == report.planned_cells

    def test_parallel_cache_honoured_by_sequential_run(self, tmp_path):
        """The converse composition: warm in parallel, replay sequentially
        through the plain harness entry point."""
        cache_dir = str(tmp_path / "cache")
        cells = cells_for_experiments(["figure13"], n_override=N)
        warm_cells(cells, jobs=2, cache_dir=cache_dir)

        runner.clear_cache()
        runner.enable_disk_cache(cache_dir)
        calls = []
        original = runner._execute

        def _spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        runner._execute = _spy
        try:
            result = ALL_EXPERIMENTS["figure13"](n_override=N)
        finally:
            runner._execute = original
        assert result.rows
        assert not calls, "warmed cells must satisfy the sequential harness"
