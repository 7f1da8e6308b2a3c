#!/usr/bin/env python3
"""Histogram binning under SRV: read-modify-writes through an index array.

``h[x[i]] += 1`` is the classic loop no vectoriser touches: two iterations
hitting the same bin form a true cross-iteration dependence.  SRV
vectorises it anyway — lanes that gather a bin count before an older lane
scatters its increment are flagged by the horizontal RAW logic and
replayed, so every collision chain resolves exactly as scalar code would.

The example sweeps the bin count: fewer bins mean more intra-group
collisions, more replayed lanes, and a lower (but still correct) speedup —
the gradual degradation the paper's replay bound guarantees.
"""

from repro.common.rng import uniform_indices
from repro.compiler import Strategy, compile_loop, scalar_reference
from repro.emu import run_program
from repro.memory import MemoryImage
from repro.pipeline import TraceLog, simulate
from repro.workloads.base import histogram

N = 512


def run_binning(num_bins: int, seed: int = 42) -> None:
    loop = histogram()
    x_vals = uniform_indices(N, num_bins, seed=seed)
    arrays = {"h": [0] * num_bins, "x": x_vals}
    oracle = scalar_reference(loop, arrays, N)

    cycles = {}
    replay_info = ""
    for strategy in (Strategy.SVE, Strategy.SRV):
        mem = MemoryImage()
        mem.alloc("h", num_bins, 4, init=arrays["h"])
        mem.alloc("x", N, 4, init=x_vals)
        program = compile_loop(loop, mem, N, strategy)
        log = TraceLog(program)
        metrics, _ = run_program(program, mem, tracer=log)
        stats = simulate(log, warm=True, validate_lsu=True)
        assert mem.load_array(mem.allocation("h")) == oracle["h"], strategy
        cycles[strategy] = stats.cycles
        if strategy is Strategy.SRV:
            srv = metrics.srv
            replay_info = (
                f"replays={srv.replays:4d}  "
                f"raw={srv.raw_violations:4d}  "
                f"max-replays/region={srv.max_replays_in_region}"
            )

    speedup = cycles[Strategy.SVE] / cycles[Strategy.SRV]
    print(
        f"bins={num_bins:6d}  speedup={speedup:5.2f}x  {replay_info}"
    )


def main() -> None:
    print(f"histogram of {N} samples, SRV vs SVE-binary (scalar) baseline\n")
    for num_bins in (8192, 1024, 256, 64, 16):
        run_binning(num_bins)
    print(
        "\nfewer bins -> more intra-group collisions -> more selective"
        "\nreplays; results stay bit-exact with scalar execution throughout."
    )


if __name__ == "__main__":
    main()
