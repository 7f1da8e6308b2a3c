"""Ablation — SRV on an in-order core (paper section III-D6).

The paper argues that applying SRV to an in-order processor is
straightforward ("we simply add an LSU to a standard in-order processor
pipeline, with the SRV extensions of section III-B") and effectively adds
a limited form of out-of-order execution.  This ablation quantifies the
claim: the in-order scalar baseline cannot hide latency by reordering, so
SRV's relative loop speedup is *larger* on the in-order machine than on
the Table I out-of-order core.
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
    result = ExperimentResult(
        name="ablation_inorder",
        title="Ablation: SRV loop speedup, out-of-order vs in-order core",
        columns=("benchmark", "ooo_speedup", "inorder_speedup", "ratio"),
    )
    for workload in ALL_WORKLOADS:
        ooo = inorder = 0.0
        for spec, weight in zip(workload.loops, workload.normalised_weights()):
            runs = {
                core: {
                    strat: run_loop(
                        spec, strat, seed=seed, config=config,
                        n_override=n_override, core=core,
                    )
                    for strat in (Strategy.SVE, Strategy.SRV)
                }
                for core in ("ooo", "inorder")
            }
            ooo += weight * (
                runs["ooo"][Strategy.SVE].cycles
                / runs["ooo"][Strategy.SRV].cycles
            )
            inorder += weight * (
                runs["inorder"][Strategy.SVE].cycles
                / runs["inorder"][Strategy.SRV].cycles
            )
        result.rows.append((workload.name, ooo, inorder, inorder / ooo))
    ratios = result.column("ratio")
    result.summary["mean_inorder_advantage"] = arithmetic_mean(ratios)
    result.summary["paper_claim"] = (
        "SRV is akin to adding limited OoO execution to an in-order CPU"
    )
    return result
