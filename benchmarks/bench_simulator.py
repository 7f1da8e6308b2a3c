"""Micro-benchmarks of the simulation stack itself.

Not a paper figure — these measure the reproduction's own throughput so
regressions in the emulator, the LSU bit-vector logic or the timing model
are visible.

Two entry points:

* ``pytest benchmarks/bench_simulator.py`` — pytest-benchmark runs with
  full statistics;
* ``python benchmarks/bench_simulator.py [--reps N] [--json [PATH]]
  [--record LABEL] [--check [PATH]]`` — a dependency-free runner that
  measures per-bench median milliseconds, optionally appends a
  machine-readable entry to ``BENCH_simulator.json`` at the repo root
  (the cross-PR perf trajectory; ``--record`` labels the entry, e.g.
  ``--record "PR 8: lane-batched numpy engine"``), and/or compares
  against the committed numbers, failing on a >2.5x regression (the
  generous bound CI uses — CI boxes are noisy) or on a committed bench
  that the runner no longer measures.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from datetime import date
from pathlib import Path

from repro.common.rng import periodic_conflict_indices
from repro.emu import run_program
from repro.isa import ProgramBuilder, imm, v, x
from repro.memory import MemoryImage
from repro.pipeline import TraceLog, simulate, simulate_streaming

LANES = 16
N = 512

#: trip count of the generated kernel behind the ``sampled`` /
#: ``sampled_exact`` pair — large enough that interval sampling has
#: phases to find, small enough for a benchmark rep
SAMPLE_TRIP = 8192

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_simulator.json"

#: CI regression bound: fail if any bench exceeds committed median x this.
REGRESSION_FACTOR = 2.5


def build_listing2(mem):
    a = mem.allocation("a")
    xs = mem.allocation("x")
    b = ProgramBuilder("listing2")
    b.mov(x(1), imm(a.base)).mov(x(2), imm(xs.base))
    b.mov(x(3), imm(0)).mov(x(4), imm(N))
    b.label("Loop")
    b.shl(x(7), x(3), imm(2))
    b.add(x(5), x(1), x(7))
    b.add(x(6), x(2), x(7))
    b.srv_start()
    b.v_load(v(0), x(5))
    b.v_add(v(0), v(0), imm(2))
    b.v_load(v(1), x(6))
    b.v_scatter(v(0), x(1), v(1))
    b.srv_end()
    b.add(x(3), x(3), imm(LANES))
    b.blt(x(3), x(4), "Loop")
    b.halt()
    return b.build()


def fresh_memory():
    mem = MemoryImage()
    mem.alloc("a", N, 4, init=range(N))
    mem.alloc("x", N, 4, init=periodic_conflict_indices(N, 4))
    return mem


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------


def test_emulator_throughput(benchmark):
    def run():
        mem = fresh_memory()
        metrics, _ = run_program(build_listing2(mem), mem)
        return metrics

    metrics = benchmark(run)
    assert metrics.srv.regions_entered == N // LANES


def test_pipeline_throughput(benchmark):
    mem = fresh_memory()
    program = build_listing2(mem)
    trace = TraceLog(program)
    run_program(program, mem, tracer=trace)

    stats = benchmark(lambda: simulate(trace, warm=True))
    assert stats.cycles > 0


def test_streaming_throughput(benchmark):
    def run():
        mem = fresh_memory()
        _, stats, _ = simulate_streaming(build_listing2(mem), mem, warm=True)
        return stats

    stats = benchmark(run)
    assert stats.cycles > 0


# ---------------------------------------------------------------------------
# script runner: median-ms measurement, JSON trajectory, CI regression check
# ---------------------------------------------------------------------------


def _bench_emulator():
    mem = fresh_memory()
    run_program(build_listing2(mem), mem)


def _make_pipeline_bench():
    mem = fresh_memory()
    program = build_listing2(mem)
    trace = TraceLog(program)
    run_program(program, mem, tracer=trace)
    return lambda: simulate(trace, warm=True)


def _bench_streaming():
    mem = fresh_memory()
    simulate_streaming(build_listing2(mem), mem, warm=True)


def _sample_kernel_name() -> str:
    from repro.gen.emitter import workload_name

    return workload_name(1, 1, n=SAMPLE_TRIP)


def _bench_sampled():
    # projected cycles via interval sampling (cache bypassed: the bench
    # measures the projection pipeline, not a cache hit)
    from repro.compiler import Strategy
    from repro.sample import sample_named

    sample_named(_sample_kernel_name(), strategy=Strategy.SRV,
                 use_cache=False)


def _bench_sampled_exact():
    # the exact baseline the sampled bench replaces: same kernel through
    # the full streaming pipeline (timing only — the sampler checks no
    # oracle either, so the comparison is wall-time like-for-like)
    from repro.compiler import Strategy
    from repro.experiments.runner import run_loop
    from repro.sample import resolve_spec

    _, spec = resolve_spec(_sample_kernel_name())
    run_loop(spec, Strategy.SRV, validate_lsu=False, check_oracle=False,
             use_cache=False)


def measure(reps: int) -> dict[str, float]:
    """Median wall-clock milliseconds per bench over ``reps`` runs."""
    benches = {
        "emulator": _bench_emulator,
        "pipeline": _make_pipeline_bench(),
        "streaming": _bench_streaming,
        "sampled": _bench_sampled,
        "sampled_exact": _bench_sampled_exact,
    }
    results: dict[str, float] = {}
    for name, fn in benches.items():
        fn()  # untimed warm-up run
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - t0) * 1e3)
        results[name] = round(statistics.median(samples), 2)
    return results


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _load_entries(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return json.loads(path.read_text())["entries"]


def check(measured: dict[str, float], path: Path) -> int:
    """Compare against the committed trajectory; 0 = within bounds.

    Every measured bench is compared against its most recent committed
    baseline (the latest entry that contains it — early entries predate
    the streaming bench, so per-bench lookup keeps all three gated).  A
    committed bench the runner no longer measures is itself a failure:
    a bench silently dropping out of ``measure()`` must not read as a
    pass.
    """
    entries = _load_entries(path)
    if not entries:
        print(f"[check] no committed entries at {path}; skipping")
        return 0
    committed: dict[str, float] = {}
    for entry in entries:  # latest committed value per bench wins
        committed.update(entry["benches"])
    status = 0
    for name, got in measured.items():
        want = committed.get(name)
        if want is None:
            print(f"[check] {name}: {got:.2f} ms (no committed baseline)")
            continue
        bound = want * REGRESSION_FACTOR
        verdict = "ok" if got <= bound else "REGRESSION"
        if got > bound:
            status = 1
        print(
            f"[check] {name}: {got:.2f} ms vs committed {want:.2f} ms "
            f"(bound {bound:.2f} ms) {verdict}"
        )
    for name in committed:
        if name not in measured:
            print(f"[check] {name}: committed but NOT MEASURED — failing")
            status = 1
    return status


def write_json(measured: dict[str, float], path: Path,
               label: str | None = None) -> None:
    entries = _load_entries(path)
    entry = {
        "date": date.today().isoformat(),
        "git_sha": _git_sha(),
    }
    if label is not None:
        entry["label"] = label
    entry["benches"] = measured
    entries.append(entry)
    path.write_text(json.dumps({"entries": entries}, indent=2) + "\n")
    print(f"[json] appended entry to {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=9,
                        help="timed repetitions per bench (median reported)")
    parser.add_argument("--json", nargs="?", const=str(DEFAULT_JSON),
                        default=None, metavar="PATH",
                        help="append the measured entry to the benchmark "
                             f"trajectory file (default {DEFAULT_JSON.name})")
    parser.add_argument("--check", nargs="?", const=str(DEFAULT_JSON),
                        default=None, metavar="PATH",
                        help="fail on a >2.5x regression of any bench vs "
                             "its most recent committed baseline")
    parser.add_argument("--record", default=None, metavar="LABEL",
                        help="append a labelled entry (date + git sha + "
                             "LABEL) to the default trajectory file")
    args = parser.parse_args(argv)

    measured = measure(args.reps)
    for name, ms in measured.items():
        print(f"{name}: {ms:.2f} ms (median of {args.reps})")

    status = 0
    if args.check is not None:
        status = check(measured, Path(args.check))
    if args.json is not None:
        write_json(measured, Path(args.json))
    if args.record is not None:
        write_json(measured, DEFAULT_JSON, label=args.record)
    return status


if __name__ == "__main__":
    sys.exit(main())
