"""Ablation — removing the srv_end serialisation barrier (section VIII).

The paper's future work: "develop optimisations, such as removing the
serialisation barrier in SRV-end, to improve performance and power
efficiency."  This ablation models the upside: with
``MachineConfig.srv_relax_barrier``, srv_end waits only for the region's
memory operations (so replay decisions remain sound) and no longer stalls
younger instructions' issue, letting consecutive regions overlap.
"""

from __future__ import annotations

from repro.common.config import TABLE_I, MachineConfig
from repro.common.rng import arithmetic_mean
from repro.compiler import Strategy
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import run_loop
from repro.workloads import ALL_WORKLOADS


def run(
    seed: int = 0,
    config: MachineConfig = TABLE_I,
    n_override: int | None = None,
) -> ExperimentResult:
    relaxed_config = config.with_overrides(srv_relax_barrier=True)
    result = ExperimentResult(
        name="ablation_barrier",
        title="Ablation: srv_end serialisation barrier removal (future work)",
        columns=("benchmark", "baseline_cycles", "relaxed_cycles", "gain"),
    )
    for workload in ALL_WORKLOADS:
        base_cycles = relaxed_cycles = 0.0
        for spec, weight in zip(workload.loops, workload.normalised_weights()):
            base = run_loop(
                spec, Strategy.SRV, seed=seed, config=config,
                n_override=n_override,
            )
            relaxed = run_loop(
                spec, Strategy.SRV, seed=seed, config=relaxed_config,
                n_override=n_override,
            )
            assert base.correct and relaxed.correct
            base_cycles += weight * base.cycles
            relaxed_cycles += weight * relaxed.cycles
        result.rows.append(
            (
                workload.name,
                base_cycles,
                relaxed_cycles,
                base_cycles / relaxed_cycles,
            )
        )
    gains = result.column("gain")
    result.summary["mean_gain"] = arithmetic_mean(gains)
    result.summary["max_gain"] = max(gains)
    return result
