#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation.

Runs all ten experiment harnesses (section II limit study, figures 6-13,
and the headline aggregates) at full workload sizes and prints each table.
Pass ``--quick`` to trim trip counts for a fast smoke run.

The sweep is hardened and fast:

* completed loop runs are checkpointed to disk after every run
  (``--checkpoint``, atomic writes), so killing the script and re-running
  it resumes where it stopped instead of re-executing finished work;
* ``--jobs N`` shards the (loop x strategy x config) run matrix across N
  worker processes (:mod:`repro.parallel`) that warm a content-addressed
  on-disk result cache (``--cache-dir``); the harnesses then replay
  sequentially against the cache, so the printed tables are bit-identical
  to a ``--jobs 1`` run.  A checkpoint written by a sequential run is
  honoured by a ``--jobs N`` run and vice versa;
* a failing experiment is recorded as a structured failure table and the
  sweep continues with the next one.
"""

import argparse
import sys
import time

from repro.common.errors import ReproError
from repro.experiments import (
    ALL_EXPERIMENTS,
    ExperimentResult,
    enable_checkpoint,
    enable_disk_cache,
)
from repro.experiments.runner import RunFailure

ORDER = (
    "limit_study",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "headline",
)

DEFAULT_CHECKPOINT = "results/experiments.ckpt"
DEFAULT_CACHE_DIR = "results/cache"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="trim loop trip counts to 128 iterations",
    )
    parser.add_argument(
        "--only", choices=ORDER, default=None,
        help="run a single experiment",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard the run matrix across N worker processes "
             "(default: 1, fully sequential)",
    )
    parser.add_argument(
        "--checkpoint", default=DEFAULT_CHECKPOINT, metavar="PATH",
        help="checkpoint file for resumable sweeps "
             f"(default: {DEFAULT_CHECKPOINT})",
    )
    parser.add_argument(
        "--no-checkpoint", action="store_true",
        help="disable checkpointing (every run re-executes)",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help="content-addressed result cache used by --jobs "
             f"(default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--trace-mode", choices=("stream", "list"), default="stream",
        help="'stream' (default) emulates once into a compact trace log "
             "and times the ops rebuilt from it; 'list' materialises each "
             "dynamic trace as objects first — results are bit-identical",
    )
    args = parser.parse_args()
    n_override = 128 if args.quick else None

    from repro.experiments.runner import set_default_trace_mode
    set_default_trace_mode(args.trace_mode)

    if not args.no_checkpoint:
        resumed = enable_checkpoint(args.checkpoint)
        if resumed:
            print(f"[resumed {resumed} completed runs from {args.checkpoint}]")

    names = [args.only] if args.only else list(ORDER)
    cache_dir = None if args.no_cache else args.cache_dir

    if args.jobs > 1:
        # Warm phase: shard the run matrix across worker processes.  The
        # engine skips cells already satisfied by the checkpoint loaded
        # above, so sequential and parallel invocations compose.
        from repro.parallel import cells_for_experiments, warm_cells
        from repro.experiments import cache_key_for, checkpoint_has
        from repro.parallel.cache import result_cache

        enable_disk_cache(cache_dir or DEFAULT_CACHE_DIR)
        cells = cells_for_experiments(names, n_override=n_override)
        cache = result_cache()
        pending = []
        for cell in cells:
            spec, strategy, config = cell.resolve()
            key = cache_key_for(
                spec, strategy, cell.seed, config, cell.timing,
                cell.n_override, cell.core,
            )
            if not checkpoint_has(key) and not cache.contains(key):
                pending.append(cell)
        print(f"[warming {len(pending)} of {len(cells)} cells "
              f"with {args.jobs} workers]")
        start = time.perf_counter()
        for report in warm_cells(pending, args.jobs, cache_dir,
                                 trace_mode=args.trace_mode, progress=print):
            if report.failures:
                for failure in report.failures:
                    print(f"[shard {report.index} failure] {failure}")
        print(f"[warm phase: {time.perf_counter() - start:.1f}s]")
    elif cache_dir is not None:
        enable_disk_cache(cache_dir)

    failed = 0
    for name in names:
        start = time.perf_counter()
        try:
            result = ALL_EXPERIMENTS[name](n_override=n_override)
        except ReproError as exc:
            failed += 1
            result = ExperimentResult(
                name=name,
                title=f"{name}: FAILED ({type(exc).__name__})",
                columns=("error",),
            )
            result.failures.append(RunFailure(
                loop="-", strategy="-", seed=0, stage="experiment",
                error=type(exc).__name__, message=str(exc),
            ))
        elapsed = time.perf_counter() - start
        print("=" * 72)
        print(result.format_table())
        print(f"[{name}: {elapsed:.1f}s]")
        print()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
