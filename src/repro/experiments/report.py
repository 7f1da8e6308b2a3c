"""Experiment result containers and table rendering.

Every figure harness returns an :class:`ExperimentResult`; its
``format_table`` renders the same rows/series the paper reports, so the
benchmark harness can print paper-comparable output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class ExperimentResult:
    name: str                 # e.g. "figure6"
    title: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    summary: dict[str, Any] = field(default_factory=dict)
    #: structured per-run failure records (``RunFailure`` or compatible)
    #: survived while producing the rows — degraded runs, retries,
    #: skipped workloads.  Empty for a fully clean experiment.
    failures: list[Any] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.failures

    def row_for(self, key: str) -> tuple:
        for row in self.rows:
            if row[0] == key:
                return row
        raise KeyError(f"no row {key!r} in {self.name}")

    def column(self, name: str) -> list:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def as_dict(self) -> dict[str, dict[str, Any]]:
        return {
            row[0]: dict(zip(self.columns[1:], row[1:])) for row in self.rows
        }

    def format_table(self) -> str:
        widths = [
            max(len(str(col)), *(len(_fmt(row[i])) for row in self.rows))
            if self.rows
            else len(str(col))
            for i, col in enumerate(self.columns)
        ]
        lines = [self.title, ""]
        header = "  ".join(str(c).ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths))
            )
        if self.summary:
            lines.append("")
            for key, value in self.summary.items():
                lines.append(f"{key}: {_fmt(value)}")
        if self.failures:
            lines.append("")
            lines.append(f"failures ({len(self.failures)}):")
            lines.extend(f"  {failure}" for failure in self.failures)
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


# ---------------------------------------------------------------------------
# parallel-sweep reporting
# ---------------------------------------------------------------------------


@dataclass
class ShardReport:
    """Progress/timing record of one shard of a parallel sweep."""

    index: int
    cells: int                 # cells assigned to this shard
    executed: int = 0          # computed fresh in the worker
    cached: int = 0            # already present in a cache layer
    resumed: int = 0           # re-run inline after its worker died
    elapsed_s: float = 0.0
    pid: int = 0
    #: structured ``RunFailure``-compatible records for cells that failed
    failures: list = field(default_factory=list)
    #: the ``SweepCell`` of each record in ``failures``, in its order
    failed_cells: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class SweepReport:
    """Aggregate accounting for one parallel sweep invocation."""

    jobs: int
    planned_cells: int = 0
    skipped_cache: int = 0         # already in the content-addressed cache
    shards: list = field(default_factory=list)
    warm_elapsed_s: float = 0.0
    replay_elapsed_s: float = 0.0
    #: (experiment name, wall seconds) pairs from the replay phase
    experiment_timings: list = field(default_factory=list)

    @property
    def executed(self) -> int:
        return sum(shard.executed for shard in self.shards)

    @property
    def failures(self) -> list:
        return [f for shard in self.shards for f in shard.failures]

    def format_table(self) -> str:
        lines = [
            f"Sweep: {self.planned_cells} cells, {self.jobs} worker(s); "
            f"{self.skipped_cache} from cache, {self.executed} executed",
            "",
            "shard  cells  executed  cached  resumed  failed  elapsed_s  pid",
            "-" * 67,
        ]
        for shard in self.shards:
            lines.append(
                f"{shard.index:5d}  {shard.cells:5d}  {shard.executed:8d}  "
                f"{shard.cached:6d}  {shard.resumed:7d}  "
                f"{len(shard.failures):6d}  "
                f"{shard.elapsed_s:9.2f}  {shard.pid}"
            )
        lines.append(
            f"\nwarm phase: {self.warm_elapsed_s:.2f}s   "
            f"replay phase: {self.replay_elapsed_s:.2f}s"
        )
        if self.experiment_timings:
            timing = "  ".join(
                f"{name}={seconds:.1f}s" for name, seconds in self.experiment_timings
            )
            lines.append(f"experiments: {timing}")
        if self.failures:
            lines.append(f"\nfailures ({len(self.failures)}):")
            lines.extend(f"  {failure}" for failure in self.failures)
        return "\n".join(lines)
