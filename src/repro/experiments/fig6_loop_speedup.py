"""Figure 6 — per-loop SRV speedup and dynamic-instruction coverage.

"Per-loop speedup for all SRV-vectorisable loops in each benchmark and
their corresponding coverage in dynamic instructions compared to a
baseline out-of-order microarchitecture."  Speedups are normalised to the
SVE binary, in which these loops execute scalar code (they cannot be
vectorised without SRV).

Paper values to compare against: average 2.9x, up to 5.3x (is); low
outliers omnetpp 1.49x, soplex 1.29x, xalancbmk 1.78x; coverage astar
12.7%, milc 25.7%, xalancbmk 20.8%, is 25.3%, randacc 17.3%, lc 11.4%.
"""

from __future__ import annotations

from repro.common.config import TABLE_I, MachineConfig
from repro.common.rng import arithmetic_mean
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import workload_loop_speedup
from repro.workloads import ALL_WORKLOADS


def run(
    seed: int = 0,
    config: MachineConfig = TABLE_I,
    n_override: int | None = None,
) -> ExperimentResult:
    result = ExperimentResult(
        name="figure6",
        title="Figure 6: per-loop SRV speedup over SVE and coverage",
        columns=("benchmark", "suite", "loop_speedup", "coverage"),
    )
    for workload in ALL_WORKLOADS:
        speedup = workload_loop_speedup(
            workload, seed=seed, config=config, n_override=n_override
        )
        result.rows.append(
            (workload.name, workload.suite, speedup, workload.coverage)
        )
    speedups = result.column("loop_speedup")
    result.summary["average_loop_speedup"] = arithmetic_mean(speedups)
    result.summary["max_loop_speedup"] = max(speedups)
    result.summary["min_loop_speedup"] = min(speedups)
    result.summary["paper_average"] = 2.9
    result.summary["paper_max"] = 5.3
    return result
