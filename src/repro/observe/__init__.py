"""Observability layer: event tracing, cycle attribution, exporters.

Submodules:

* :mod:`repro.observe.events` — the typed event bus (sinks, the
  module-level ``ACTIVE`` hook polled by instrumentation sites, the
  canonical ordering shared by the streaming and materialised paths);
* :mod:`repro.observe.attrib` — exact cycle attribution into
  ``{compute, memory, replay, barrier, fallback, other}`` buckets;
* :mod:`repro.observe.export` — Chrome Trace Format / Perfetto JSON,
  ASCII timelines, and counter/attribution tables;
* :mod:`repro.observe.harness` — ``observe_loop``, the fresh-run
  driver behind ``repro trace`` and ``repro attrib``;
* :mod:`repro.observe.replay_truth` — per-static-region replay ground
  truth folded from the event stream (the dynamic side of the
  ``repro.analyze`` confusion matrix and soundness fuzzing).

Only the event/attribution layers are imported eagerly: instrumentation
sites deep in the simulator (``lsu``, ``pipeline``, ``emu``) import this
package, so pulling in the harness (compiler, workloads) here would be
circular.  ``export`` and ``harness`` symbols resolve lazily.
"""

from __future__ import annotations

from repro.observe.attrib import (
    BUCKETS,
    RegionSlice,
    RunAttribution,
    attribute_run,
    region_slices,
    rollup,
)
from repro.observe.events import (
    CounterSink,
    Event,
    EventBus,
    EventKind,
    IntervalCounterSink,
    ListSink,
    NullSink,
    RingBufferSink,
    canonical_order,
    capture,
    install,
    uninstall,
)
from repro.observe.replay_truth import (
    RegionTruth,
    ReplayTruth,
    confusion_cell,
    replay_truth,
)

_LAZY = {
    "to_chrome_trace": "repro.observe.export",
    "write_chrome_trace": "repro.observe.export",
    "counters_table": "repro.observe.export",
    "attribution_table": "repro.observe.export",
    "ascii_timeline": "repro.observe.export",
    "ObservedRun": "repro.observe.harness",
    "observe_loop": "repro.observe.harness",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "BUCKETS",
    "RegionSlice",
    "RunAttribution",
    "attribute_run",
    "region_slices",
    "rollup",
    "CounterSink",
    "Event",
    "EventBus",
    "EventKind",
    "IntervalCounterSink",
    "ListSink",
    "NullSink",
    "RingBufferSink",
    "canonical_order",
    "capture",
    "install",
    "uninstall",
    "RegionTruth",
    "ReplayTruth",
    "confusion_cell",
    "replay_truth",
    "to_chrome_trace",
    "write_chrome_trace",
    "counters_table",
    "attribution_table",
    "ascii_timeline",
    "ObservedRun",
    "observe_loop",
]
