"""Parallel sharded experiment engine (no paper counterpart).

``repro.parallel`` exists to make the *reproduction itself* fast, in the
spirit of the simulator-throughput argument of *Memory Access Vectors*
(see PAPERS.md): large figure sweeps become tractable by sharding the
experiment matrix across worker processes and by never recomputing a
(loop, strategy, seed, config) cell whose inputs have not changed.

Three modules:

* :mod:`repro.parallel.cache` — a content-addressed result cache: an
  in-process LRU backed by an optional on-disk store keyed by the frozen
  :class:`~repro.common.config.MachineConfig` value, the workload/loop
  id, the strategy, the run shape, and a hash of every source in the
  ``repro`` package (so editing any module invalidates results);
* :mod:`repro.parallel.plan` — enumerates the sweep matrix
  (loop x strategy x config x core x timing) each experiment needs as
  picklable :class:`~repro.parallel.plan.SweepCell` records;
* :mod:`repro.parallel.engine` — shards cells across a
  ``ProcessPoolExecutor``, degrades crashed workers to recorded
  failures, and then replays the (unchanged, sequential) experiment
  harnesses against the warmed cache — which is why parallel results
  are bit-identical to sequential ones by construction.

Exports are lazy (PEP 562): the experiment runner imports
:mod:`repro.parallel.cache` at module scope, and an eager engine import
here would close an import cycle back through ``repro.experiments``.
"""

from repro.parallel.cache import ResultCache, code_version_hash, result_cache
from repro.parallel.plan import SweepCell, cells_for_experiments, plan_summary

__all__ = [
    "ResultCache",
    "SweepCell",
    "SweepOutcome",
    "cells_for_experiments",
    "code_version_hash",
    "plan_summary",
    "result_cache",
    "run_sweep",
    "warm_cells",
]

_ENGINE_EXPORTS = {"SweepOutcome", "run_sweep", "warm_cells"}


def __getattr__(name: str):
    if name in _ENGINE_EXPORTS:
        from repro.parallel import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
