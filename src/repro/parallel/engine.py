"""Sharded multiprocessing sweep executor.

Lifecycle of one ``run_sweep`` call:

1. **plan** — enumerate the deduplicated cell matrix for the requested
   experiments (:mod:`repro.parallel.plan`);
2. **filter** — drop cells already present in the content-addressed
   result cache under the current code version.  This is how a killed
   sweep resumes: every finished run was published as its own atomic
   disk entry, so a re-run against the same cache directory re-executes
   only the rest (a sweep without a disk cache does not resume);
3. **warm** — round-robin the surviving cells into shards and execute
   the shards on a ``ProcessPoolExecutor``.  Workers share nothing but
   the disk cache directory: each computes its cells with the ordinary
   hardened runner and publishes payloads via atomic per-entry writes.
   Without a disk cache the workers would have nowhere to publish, so
   the shards run inline and warm this process's memo instead.
   Cell seeding is deterministic — a cell runs under its explicit seed
   only — so shard assignment cannot change any result;
4. **replay** — run the (unchanged, sequential) experiment harnesses in
   the parent against the warmed cache.  Every ``run_loop`` the harness
   performs is a cache hit, and the tables produced are bit-identical to
   a sequential sweep because the harness code path *is* the sequential
   code path.

Failure semantics extend the runner's ``RunFailure`` records: a cell that
raises inside a worker degrades to a structured failure record on the
shard report, a shard whose worker died (``BrokenProcessPool``) is
re-run once inline in the parent, and a pool that cannot be created at
all runs every shard inline — the sweep continues, and the replay phase
recomputes whatever the warm phase could not provide.  A cell that
failed in the warm phase is not run again: the replay raises its failure
record (:class:`~repro.common.errors.CellFailedError`), which the
experiment reports under the cell's loop, strategy and seed.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

from repro.common.errors import CellFailedError, ReproError
from repro.experiments.report import ExperimentResult, ShardReport, SweepReport
from repro.parallel.cache import result_cache
from repro.parallel.plan import SweepCell, cells_for_experiments

DEFAULT_CACHE_DIR = os.path.join("results", "cache")

#: Shards per worker: >1 so a slow shard does not leave workers idle,
#: small enough that per-shard reports stay readable.
SHARDS_PER_JOB = 2


def _cell_failure(cell: SweepCell, stage: str, error: str, message: str):
    from repro.experiments.runner import RunFailure

    return RunFailure(
        loop=cell.loop, strategy=cell.strategy, seed=cell.seed,
        stage=stage, error=error, message=message,
    )


def _run_shard(
    index: int,
    cells: list[SweepCell],
    cache_dir: str | None,
    timeout_s: float | None,
) -> ShardReport:
    """Execute one shard's cells; importable at top level for pickling.

    Runs in a worker process, or inline for ``jobs <= 1``.
    """
    from repro.experiments import runner

    if cache_dir is not None:
        runner.enable_disk_cache(cache_dir)
    cache = result_cache()

    report = ShardReport(index=index, cells=len(cells), pid=os.getpid())
    start = time.perf_counter()
    for cell in cells:
        try:
            spec, strategy, config = cell.resolve()
            key = runner.cache_key_for(
                spec, strategy, cell.seed, config, cell.timing,
                cell.n_override, cell.core,
            )
            if cache.contains(key):
                report.cached += 1
                continue
            runner.run_loop_hardened(
                spec, strategy, cell.seed, config,
                timeout_s=timeout_s,
                timing=cell.timing, n_override=cell.n_override, core=cell.core,
            )
            report.executed += 1
        except (ReproError, KeyError) as exc:
            report.failures.append(_cell_failure(
                cell, "shard", type(exc).__name__, str(exc),
            ))
            report.failed_cells.append(cell)
    report.elapsed_s = time.perf_counter() - start
    return report


def warm_cells(
    cells: list[SweepCell],
    jobs: int,
    cache_dir: str | None = DEFAULT_CACHE_DIR,
    *,
    timeout_s: float | None = None,
    progress=None,
) -> list[ShardReport]:
    """Populate the disk cache for ``cells`` using ``jobs`` processes.

    With ``jobs <= 1`` the shards run inline (same code path, no pool),
    which is also the fallback when a pool cannot be created at all.
    """
    if not cells:
        return []
    n_shards = max(1, min(len(cells), jobs * SHARDS_PER_JOB))
    shards = [cells[i::n_shards] for i in range(n_shards)]

    if jobs <= 1:
        return [
            _run_shard(i, shard, cache_dir, timeout_s)
            for i, shard in enumerate(shards)
        ]

    reports: list[ShardReport] = []
    broken: list[int] = []
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(_run_shard, i, shard, cache_dir, timeout_s): i
                for i, shard in enumerate(shards)
            }
            for future in as_completed(futures):
                index = futures[future]
                try:
                    report = future.result()
                except Exception:  # worker died (BrokenProcessPool &c.)
                    broken.append(index)
                    continue
                reports.append(report)
                if progress is not None:
                    progress(
                        f"[shard {report.index}: {report.executed} run, "
                        f"{report.cached} cached, "
                        f"{len(report.failures)} failed, "
                        f"{report.elapsed_s:.1f}s]"
                    )
        # A dead worker poisons its whole pool, so every shard that lost
        # its future gets exactly one retry, inline in the parent.  Cells
        # the victim already finished are in the disk cache, so the retry
        # only recomputes the remainder, and ordinary cell errors degrade
        # to per-cell failure records rather than a third attempt.
        for index in broken:
            if progress is not None:
                progress(f"[shard {index}: worker died; retrying inline]")
            report = _run_shard(index, shards[index], cache_dir, timeout_s)
            report.resumed = len(shards[index])
            reports.append(report)
    except OSError as exc:
        # no pool at all (e.g. sandboxed fork): degrade to inline execution
        if progress is not None:
            progress(f"[pool unavailable ({exc}); running shards inline]")
        return [
            _run_shard(i, shard, cache_dir, timeout_s)
            for i, shard in enumerate(shards)
        ]
    reports.sort(key=lambda r: r.index)
    return reports


@dataclass
class SweepOutcome:
    """Results + accounting from one :func:`run_sweep` call."""

    results: dict[str, ExperimentResult] = field(default_factory=dict)
    report: SweepReport = field(default_factory=lambda: SweepReport(jobs=1))

    @property
    def failed_experiments(self) -> list[str]:
        return [
            name for name, result in self.results.items()
            if result.failures and not result.rows
        ]


def run_sweep(
    experiments: list[str] | None = None,
    *,
    jobs: int = 1,
    seed: int = 0,
    n_override: int | None = None,
    cache_dir: str | None = DEFAULT_CACHE_DIR,
    timeout_s: float | None = None,
    progress=None,
) -> SweepOutcome:
    """Run experiments with a parallel warm phase and a sequential replay.

    Returns every experiment's :class:`ExperimentResult` (bit-identical
    to a plain sequential run) plus the :class:`SweepReport` accounting.
    A failing experiment is recorded as a failure-only result and the
    sweep continues with the next one.

    The sweep reads and writes exactly the disk cache at ``cache_dir``
    (none when ``None``), whatever the process enabled before; the
    caller's disk cache is restored on return.
    """
    from repro.experiments import ALL_EXPERIMENTS

    if experiments is None:
        experiments = list(ALL_EXPERIMENTS)
    unknown = [name for name in experiments if name not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiment(s): {', '.join(unknown)}")

    cache = result_cache()
    saved_dir = cache.disk_dir
    if cache_dir is None:
        cache.disable_disk()
    else:
        cache.enable_disk(cache_dir)
    try:
        return _sweep(experiments, jobs, seed, n_override, cache_dir,
                      timeout_s, progress)
    finally:
        cache.disk_dir = saved_dir


def _sweep(
    experiments: list[str],
    jobs: int,
    seed: int,
    n_override: int | None,
    cache_dir: str | None,
    timeout_s: float | None,
    progress,
) -> SweepOutcome:
    """:func:`run_sweep` with its disk cache in place."""
    from repro.experiments import ALL_EXPERIMENTS, runner

    report = SweepReport(jobs=jobs)
    outcome = SweepOutcome(report=report)

    # plan + filter
    cells = cells_for_experiments(experiments, seed=seed, n_override=n_override)
    report.planned_cells = len(cells)
    cache = result_cache()
    pending: list[SweepCell] = []
    for cell in cells:
        try:
            spec, strategy, config = cell.resolve()
        except KeyError:
            pending.append(cell)
            continue
        key = runner.cache_key_for(
            spec, strategy, cell.seed, config, cell.timing,
            cell.n_override, cell.core,
        )
        if cache.contains(key):
            report.skipped_cache += 1
        else:
            pending.append(cell)

    # warm; with no disk cache, pool workers could not hand their runs
    # back, so the shards run inline and fill this process's memo
    start = time.perf_counter()
    report.shards = warm_cells(
        pending, jobs if cache_dir is not None else 1, cache_dir,
        timeout_s=timeout_s, progress=progress,
    )
    report.warm_elapsed_s = time.perf_counter() - start

    # A cell that failed in the warm phase fails the replay with the same
    # record instead of running again (with no deadline, under the
    # experiment's name).  The records live in this process's memo for
    # this sweep only: a later sweep retries the cell.
    for shard in report.shards:
        for cell, failure in zip(shard.failed_cells, shard.failures):
            try:
                spec, strategy, config = cell.resolve()
            except KeyError:
                continue
            cache.record_failure(runner.cache_key_for(
                spec, strategy, cell.seed, config, cell.timing,
                cell.n_override, cell.core,
            ), failure)
    start = time.perf_counter()
    try:
        for name in experiments:
            t0 = time.perf_counter()
            try:
                result = ALL_EXPERIMENTS[name](
                    seed=seed, n_override=n_override
                )
            except ReproError as exc:
                if isinstance(exc, CellFailedError):
                    failure = exc.failure
                else:
                    failure = runner.RunFailure(
                        loop="-", strategy="-", seed=seed, stage="experiment",
                        error=type(exc).__name__, message=str(exc),
                    )
                result = ExperimentResult(
                    name=name,
                    title=f"{name}: FAILED ({failure.error})",
                    columns=("error",),
                )
                result.failures.append(failure)
            outcome.results[name] = result
            report.experiment_timings.append((name, time.perf_counter() - t0))
    finally:
        cache.clear_failures()
    report.replay_elapsed_s = time.perf_counter() - start
    return outcome
