#!/usr/bin/env python3
"""Machine ablations: LSU capacity and vector length.

Two design knobs the paper discusses:

* **LSU capacity** (section III-D7): a region needing more entries than
  the LSU provides transparently falls back to one-lane-at-a-time
  sequential execution.  Shrinking the LSU below a loop's demand shows
  the fallback kicking in — still correct, much slower.
* **Vector length** (section V fixes 16 lanes): longer vectors amortise
  scalar overhead further but raise the replay cost per violation.
"""

from repro.common.config import TABLE_I
from repro.common.rng import sparse_conflict_indices
from repro.compiler import Strategy, compile_loop
from repro.emu import run_program
from repro.memory import MemoryImage
from repro.pipeline import TraceLog, simulate
from repro.workloads.base import indirect_update

N = 256


def run_with(config, lanes=None):
    loop = indirect_update()
    lanes = lanes or config.vector_lanes
    x_vals = sparse_conflict_indices(N, lanes, 0.1, seed=3)
    mem = MemoryImage()
    mem.alloc("a", N, 4, init=range(N))
    mem.alloc("x", N, 4, init=x_vals)
    program = compile_loop(loop, mem, N, Strategy.SRV, vector_length=lanes)
    log = TraceLog(program)
    metrics, _ = run_program(program, mem, config=config, tracer=log)
    stats = simulate(log, config=config, warm=True)
    return metrics, stats


def main() -> None:
    print("LSU-capacity ablation (listing 1, 16 lanes; demand = 18 entries)")
    for entries in (64, 32, 20, 16, 8):
        config = TABLE_I.with_overrides(lsu_entries=entries)
        metrics, stats = run_with(config)
        mode = "fallback" if metrics.srv.lsu_fallbacks else "speculative"
        print(
            f"  lsu={entries:3d}  mode={mode:11s}  cycles={stats.cycles:6d}  "
            f"instructions={metrics.dynamic_instructions:6d}"
        )

    print("\nvector-length ablation (Table I LSU, 10% conflicting groups)")
    for lanes in (4, 8, 16):
        config = TABLE_I.with_overrides(vector_lanes=lanes)
        metrics, stats = run_with(config, lanes)
        print(
            f"  lanes={lanes:2d}  cycles={stats.cycles:6d}  "
            f"replays={metrics.srv.replays:3d}  "
            f"regions={metrics.srv.regions_entered:3d}"
        )


if __name__ == "__main__":
    main()
