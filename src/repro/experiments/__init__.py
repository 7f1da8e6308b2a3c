"""Experiment harnesses: one module per paper figure/table.

Each module exposes ``run(seed=0, config=TABLE_I, n_override=None)``
returning an :class:`~repro.experiments.report.ExperimentResult` whose
rows mirror the figure's series.  ``n_override`` trims loop trip counts
for quick runs; the benchmarks run at full size.
"""

from repro.experiments import (
    ablation_barrier,
    ablation_inorder,
    ablation_tm,
    analyze_guided,
    fig6_loop_speedup,
    fig7_whole_program,
    fig8_barrier,
    fig9_violations,
    fig10_mem_accesses,
    fig11_disambiguation,
    fig12_power,
    fig13_flexvec,
    fuzz_smoke,
    headline,
    limit_study,
    sampling,
)
from repro.experiments.report import ExperimentResult, ShardReport, SweepReport
from repro.experiments.runner import (
    LoopRun,
    RunFailure,
    cache_key_for,
    clear_cache,
    disable_disk_cache,
    enable_disk_cache,
    loop_speedup,
    run_loop,
    run_loop_hardened,
    whole_program_speedup,
    workload_loop_speedup,
)

ALL_EXPERIMENTS = {
    "limit_study": limit_study.run,
    "figure6": fig6_loop_speedup.run,
    "figure7": fig7_whole_program.run,
    "figure8": fig8_barrier.run,
    "figure9": fig9_violations.run,
    "figure10": fig10_mem_accesses.run,
    "figure11": fig11_disambiguation.run,
    "figure12": fig12_power.run,
    "figure13": fig13_flexvec.run,
    "fuzz_smoke": fuzz_smoke.run,
    "headline": headline.run,
    "sampling": sampling.run,
    "ablation_inorder": ablation_inorder.run,
    "ablation_barrier": ablation_barrier.run,
    "ablation_tm": ablation_tm.run,
    "analyze_guided": analyze_guided.run,
}

__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentResult",
    "LoopRun",
    "RunFailure",
    "ShardReport",
    "SweepReport",
    "cache_key_for",
    "clear_cache",
    "disable_disk_cache",
    "enable_disk_cache",
    "loop_speedup",
    "run_loop",
    "run_loop_hardened",
    "whole_program_speedup",
    "workload_loop_speedup",
]
