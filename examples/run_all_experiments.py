#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation.

Runs all ten experiment harnesses (section II limit study, figures 6-13,
and the headline aggregates) at full workload sizes, prints each table and
then the sweep's accounting.  Pass ``--quick`` to trim trip counts for a
fast smoke run.

This is a thin caller of :func:`repro.parallel.run_sweep`:

* every finished run is written to the content-addressed on-disk result
  cache (``--cache-dir``; one atomic entry per run, keyed by the
  simulator's code version), so killing the script and re-running it
  resumes where it stopped, and re-running a finished sweep reports
  ``0 executed``.  A ``--no-cache`` sweep does not resume;
* ``--jobs N`` shards the (loop x strategy x config) run matrix across N
  worker processes that warm the cache; the harnesses then replay
  sequentially against it, so the printed tables are bit-identical to a
  ``--jobs 1`` run;
* a failing experiment is recorded as a structured failure table and the
  sweep continues with the next one.
"""

import argparse
import sys

from repro.parallel import run_sweep
from repro.parallel.engine import DEFAULT_CACHE_DIR

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
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help="content-addressed result cache; a re-run against it resumes "
             f"(default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache (the sweep cannot resume)",
    )
    args = parser.parse_args()

    names = [args.only] if args.only else list(ORDER)
    outcome = run_sweep(
        names,
        jobs=args.jobs,
        n_override=128 if args.quick else None,
        cache_dir=None if args.no_cache else args.cache_dir,
        progress=print,
    )
    for name in names:
        print("=" * 72)
        print(outcome.results[name].format_table())
        print()
    print(outcome.report.format_table())
    return 1 if outcome.failed_experiments else 0


if __name__ == "__main__":
    sys.exit(main())
