#!/usr/bin/env python3
"""Quickstart: the paper's listing 1 under selective-replay vectorisation.

Builds the motivating loop

    for (i = 0; i < N; i++)
        a[x[i]] = a[i] + 2;

in the compiler IR, compiles it four ways (scalar, SVE, SRV, FlexVec),
executes each on the functional emulator plus the cycle-approximate
pipeline, and prints what the paper's sections II-III describe: with the
index pattern {3, 0, 1, 2, 7, 4, 5, 6, ...}, lanes 3, 7, 11 and 15 of
every 16-lane group read stale data and are selectively replayed.
"""

from repro.common.rng import periodic_conflict_indices
from repro.compiler import (
    Affine,
    BinOp,
    Const,
    Indirect,
    Loop,
    Read,
    Store,
    Strategy,
    compile_loop,
    region_class,
    scalar_reference,
)
from repro.emu import run_program
from repro.memory import MemoryImage
from repro.pipeline import TraceLog, simulate

N = 256


def build_loop() -> Loop:
    return Loop(
        "listing1",
        arrays={"a": 4, "x": 4},
        body=[
            Store("a", Indirect("x"), BinOp("+", Read("a", Affine()), Const(2)))
        ],
    )


def main() -> None:
    loop = build_loop()
    print(f"loop dependence class: {region_class(loop).name}")
    print("(UNKNOWN: the compiler cannot prove a[x[i]] never aliases a[i])\n")

    x_vals = periodic_conflict_indices(N, 4)
    a_vals = list(range(100, 100 + N))
    oracle = scalar_reference(loop, {"a": a_vals, "x": x_vals}, N)

    results = {}
    for strategy in Strategy:
        mem = MemoryImage()
        mem.alloc("a", N, 4, init=a_vals)
        mem.alloc("x", N, 4, init=x_vals)
        program = compile_loop(loop, mem, N, strategy)
        log = TraceLog(program)
        metrics, _ = run_program(program, mem, tracer=log)
        stats = simulate(log, warm=True, validate_lsu=True)
        correct = mem.load_array(mem.allocation("a")) == oracle["a"]
        results[strategy] = (metrics, stats, correct)
        print(
            f"{strategy.value:8s}  correct={correct}  "
            f"instructions={metrics.dynamic_instructions:6d}  "
            f"cycles={stats.cycles:6d}"
        )

    srv_metrics, srv_stats, _ = results[Strategy.SRV]
    sve_stats = results[Strategy.SVE][1]
    print()
    print(f"SRV regions executed : {srv_metrics.srv.regions_entered}")
    print(f"selective replays    : {srv_metrics.srv.replays} "
          f"(one per region: lanes 3, 7, 11, 15 re-execute)")
    print(f"RAW violations caught: {srv_metrics.srv.raw_violations}")
    print(f"loop speedup over SVE: {sve_stats.cycles / srv_stats.cycles:.2f}x")


if __name__ == "__main__":
    main()
