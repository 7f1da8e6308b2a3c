"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the benchmark suite with coverage and loop inventory;
* ``experiment <name>`` — regenerate one paper figure/table (or ``all``);
* ``loop <workload> <loop>`` — run one loop under every strategy and
  print instructions/cycles/violations;
* ``disasm <workload> <loop> [strategy]`` — show the generated program;
* ``verify [workload]`` — run the invariant monitors, scalar-reference
  oracle, and LSU differential cross-check over workload loops;
* ``inject`` — run the fault-injection campaign and report which checker
  detected each injected corruption;
* ``sweep --jobs N`` — regenerate experiments through the parallel
  sharded engine (:mod:`repro.parallel`): warm the content-addressed
  result cache with N worker processes, then replay the harnesses
  against it (bit-identical to sequential execution);
* ``trace <workload> <loop>`` — run one loop with the observability bus
  armed (:mod:`repro.observe`) and write a Chrome Trace Format /
  Perfetto JSON timeline plus an event-counter table;
* ``attrib <workload> <loop>`` / ``attrib --suite`` — exact cycle
  attribution into {compute, memory, replay, barrier, fallback, other}
  buckets, per loop or rolled up over the whole suite;
* ``fuzz`` — run a differential fuzz campaign (:mod:`repro.gen`):
  generate N seeded kernels, check each against the scalar oracle and
  the LSU differential, shrink any failure to a minimal reproducer, and
  write a machine-readable campaign report; ``--analyze-diff`` turns it
  into the :mod:`repro.analyze` soundness fuzzer (a proven-safe region
  that dynamically replays fails the kernel);
* ``analyze <workload> [loop]`` — region-granular static dependence
  verdicts and replay-risk estimates (:mod:`repro.analyze`) for a
  workload's loops, optionally as machine-readable JSON;
* ``sample <workload> [loop]`` — interval-sampled simulation
  (:mod:`repro.sample`): fingerprint the dynamic stream, cluster the
  intervals, time only representative segments, and project
  whole-program cycles with per-cluster error bars (optionally checked
  against the exact run with ``--exact`` / ``--max-error``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.compiler import Strategy, compile_loop
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.runner import run_loop
from repro.memory import MemoryImage
from repro.parallel.engine import DEFAULT_CACHE_DIR
from repro.workloads import ALL_WORKLOADS, by_name


def _cmd_list(_args: argparse.Namespace) -> int:
    print(f"{'benchmark':10s}  {'suite':5s}  {'coverage':>8s}  loops")
    for workload in ALL_WORKLOADS:
        loops = ", ".join(spec.name for spec in workload.loops)
        print(
            f"{workload.name:10s}  {workload.suite:5s}  "
            f"{workload.coverage:8.3f}  {loops}"
        )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    names = list(ALL_EXPERIMENTS) if args.name == "all" else [args.name]
    for name in names:
        if name not in ALL_EXPERIMENTS:
            print(f"unknown experiment {name!r}; choose from: "
                  f"{', '.join(ALL_EXPERIMENTS)} or 'all'", file=sys.stderr)
            return 2
        start = time.perf_counter()
        result = ALL_EXPERIMENTS[name](n_override=args.n)
        print(result.format_table())
        print(f"[{name}: {time.perf_counter() - start:.1f}s]\n")
    return 0


def _find_spec(workload_name: str, loop_name: str):
    workload = by_name(workload_name)
    for spec in workload.loops:
        if spec.name == loop_name or loop_name in spec.name:
            return spec
    raise KeyError(
        f"workload {workload_name!r} has loops: "
        f"{', '.join(s.name for s in workload.loops)}"
    )


def _cmd_loop(args: argparse.Namespace) -> int:
    spec = _find_spec(args.workload, args.loop)
    print(f"{spec.name}: {spec.description or '(no description)'}")
    print(f"{'strategy':8s}  {'correct':7s}  {'instructions':>12s}  "
          f"{'cycles':>8s}  {'replays':>7s}")
    for strategy in Strategy:
        run = run_loop(spec, strategy, seed=args.seed, n_override=args.n)
        print(
            f"{strategy.value:8s}  {str(run.correct):7s}  "
            f"{run.emu.dynamic_instructions:12d}  {run.pipe.cycles:8d}  "
            f"{run.emu.srv.replays:7d}"
        )
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    spec = _find_spec(args.workload, args.loop)
    arrays = spec.arrays(args.seed)
    mem = MemoryImage()
    for name, init in arrays.items():
        mem.alloc(name, len(init), spec.loop.arrays[name], init=init)
    strategy = Strategy(args.strategy)
    program = compile_loop(
        spec.loop, mem, args.n or spec.n, strategy, params=spec.params
    )
    print(program.listing())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.differential import verify_loop
    from repro.workloads import ALL_WORKLOADS

    strategy = Strategy(args.strategy)
    if args.workload:
        try:
            workloads = [by_name(args.workload)]
        except KeyError:
            print(f"unknown workload {args.workload!r}; choose from: "
                  f"{', '.join(w.name for w in ALL_WORKLOADS)}",
                  file=sys.stderr)
            return 2
    else:
        workloads = list(ALL_WORKLOADS)

    total = violations = 0
    for workload in workloads:
        for spec in workload.loops:
            if args.loop and args.loop not in spec.name:
                continue
            report = verify_loop(
                spec, strategy, seed=args.seed,
                n_override=args.n, timing=not args.no_timing,
            )
            total += 1
            violations += len(report.violations)
            for line in report.format_lines():
                print(line)
    print(f"\n{total} loop(s) verified, {violations} violation(s)")
    return 1 if violations else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.parallel import run_sweep

    names = args.experiments
    if not names or names == ["all"]:
        names = list(ALL_EXPERIMENTS)
    for name in names:
        if name not in ALL_EXPERIMENTS:
            print(f"unknown experiment {name!r}; choose from: "
                  f"{', '.join(ALL_EXPERIMENTS)} or 'all'", file=sys.stderr)
            return 2
    outcome = run_sweep(
        names,
        jobs=args.jobs,
        seed=args.seed,
        n_override=args.n,
        cache_dir=None if args.no_cache else args.cache_dir,
        timeout_s=args.timeout,
        progress=print,
    )
    for name in names:
        print("=" * 72)
        print(outcome.results[name].format_table())
        print()
    print(outcome.report.format_table())
    return 1 if outcome.failed_experiments else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.observe import events as _ev
    from repro.observe.export import (
        ascii_timeline,
        counters_table,
        write_chrome_trace,
    )
    from repro.observe.harness import observe_loop

    spec = _find_spec(args.workload, args.loop)
    strategy = Strategy(args.strategy)
    sink_factory = (
        (lambda: _ev.RingBufferSink(args.ring))
        if args.ring else _ev.ListSink
    )
    run = observe_loop(
        spec, strategy, seed=args.seed, core=args.core,
        n_override=args.n, sink_factory=sink_factory,
    )
    label = f"{spec.name}/{strategy.value}/{args.core}"
    print(f"{label}: {run.cycles} cycles, {len(run.events)} events"
          + (" (degraded to sequential fallback)" if run.degraded else ""))
    if args.out:
        count = write_chrome_trace(args.out, run.events, label=label)
        print(f"wrote {count} trace records to {args.out}")
    print()
    print(ascii_timeline(run.attribution))
    print()
    print(counters_table(run.events, name=f"trace:{spec.name}").format_table())
    return 0


def _cmd_attrib(args: argparse.Namespace) -> int:
    from repro.observe.export import ascii_timeline, attribution_table
    from repro.observe.harness import observe_loop
    from repro.workloads import all_loops

    strategy = Strategy(args.strategy)
    if args.suite:
        specs = [(w.name, spec) for w, spec in all_loops()]
    else:
        if not args.workload or not args.loop:
            print("attrib needs <workload> <loop> (or --suite)",
                  file=sys.stderr)
            return 2
        specs = [(args.workload, _find_spec(args.workload, args.loop))]

    rows = []
    for workload_name, spec in specs:
        run = observe_loop(
            spec, strategy, seed=args.seed, core=args.core,
            n_override=args.n,
        )
        rows.append((f"{workload_name}/{spec.name}", run.attribution))
        if not args.suite:
            print(ascii_timeline(run.attribution))
            print()
    print(attribution_table(rows, total_row=args.suite).format_table())
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.gen import FuzzConfig, run_fuzz

    cfg = FuzzConfig(
        count=args.count,
        seed=args.seed,
        strategy=Strategy(args.strategy),
        n_override=args.n,
        shrink=not args.no_shrink,
        use_cache=not args.no_cache,
        out_dir=Path(args.out),
        plant=args.plant,
        analyze_diff=args.analyze_diff,
    )
    report = run_fuzz(cfg)
    obj = report.to_obj()
    print(f"fuzz: generator v{obj['generator_version']} seed={cfg.seed} "
          f"count={cfg.count} strategy={cfg.strategy.value}"
          + (f" plant={cfg.plant}" if cfg.plant else "")
          + (" analyze-diff" if cfg.analyze_diff else ""))
    for outcome in report.outcomes:
        if outcome.status == "ok":
            continue
        print(f"  {outcome.name}: {outcome.status} — {outcome.detail}")
        if outcome.reproducer:
            print(f"    reproducer: {Path(args.out) / outcome.reproducer} "
                  f"({len(outcome.shrink_steps)} shrink step(s))")
    print(f"{obj['passed']} passed, {obj['failed']} failed, "
          f"{obj['errors']} error(s) in {obj['elapsed_s']:.1f}s")
    print(f"report: {Path(args.out) / 'report.json'}")
    if not report.ok:
        pointers = [o.reproducer for o in report.failures if o.reproducer]
        if pointers:
            print(f"FAIL: see {Path(args.out) / pointers[0]}",
                  file=sys.stderr)
        else:
            print("FAIL: oracle disagreement (shrinking disabled; rerun "
                  "without --no-shrink for a minimal reproducer)",
                  file=sys.stderr)
        return 1
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.analyze import analyse_spec, analyse_workload

    try:
        workload = by_name(args.workload)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.loop is not None:
        try:
            spec = _find_spec(args.workload, args.loop)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        analyses = [analyse_spec(spec, workload.name, seed=args.seed,
                                 n_override=args.n)]
    else:
        analyses = list(
            analyse_workload(workload, seed=args.seed,
                             n_override=args.n).loops
        )
    for la in analyses:
        verdict = la.loop_verdict.value if la.loop_verdict else "-"
        print(f"{la.loop}: mode={la.mode} banerjee={la.banerjee} "
              f"verdict={verdict} n={la.n}")
        for r in la.regions:
            kind = "speculative" if r.region.speculative else "plain"
            if r.region.sequential:
                kind += "+seq"
            line = (f"  region [{r.region.start},{r.region.stop}) "
                    f"{kind}: {r.verdict.value} "
                    f"density={r.density:.4f} lsu_demand={r.lsu_demand}")
            if r.predicted_fallback:
                line += " fallback"
            print(line)
            if r.witness:
                print(f"    witness: {r.witness}")
    if args.json:
        obj = {
            "workload": workload.name,
            "seed": args.seed,
            "loops": [la.to_obj() for la in analyses],
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
        print(f"report: {args.json}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    import json

    from repro.sample import resolve_spec, sample_loop

    try:
        workload, spec = resolve_spec(args.workload, args.loop)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    strategy = Strategy(args.strategy)
    report = sample_loop(
        spec, strategy, seed=args.seed, core=args.core,
        interval_size=args.interval, warmup=args.warmup,
        clusters=args.clusters, max_clusters=args.max_clusters,
        samples=args.samples, n_override=args.n,
        use_cache=not args.no_cache,
        workload_key=workload.name,
    )
    if args.exact or args.max_error is not None:
        exact = run_loop(
            spec, strategy, seed=args.seed, core=args.core,
            n_override=args.n, use_cache=not args.no_cache,
        )
        report = report.with_exact(exact.cycles)
    print(report.format_report(), end="")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_obj(), fh, indent=2)
            fh.write("\n")
        print(f"report: {args.json}")
    if args.max_error is not None and abs(report.error_pct) > args.max_error:
        print(
            f"FAIL: projection error {report.error_pct:+.2f}% exceeds "
            f"the +/-{args.max_error}% bound",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_inject(args: argparse.Namespace) -> int:
    from repro.verify.campaign import default_catalogue, run_campaign
    from repro.verify.faults import FaultClass

    catalogue = default_catalogue()
    if args.fault != "all":
        wanted = FaultClass(args.fault)
        catalogue = [e for e in catalogue if e.spec.fault is wanted]
    result = run_campaign(catalogue)
    print(result.format_table())
    return 0 if result.all_detected else 1


def main(argv: list[str] | None = None) -> int:
    from repro import __version__

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark suite")

    p_exp = sub.add_parser("experiment", help="run a paper experiment")
    p_exp.add_argument("name", help="figure6..figure13, limit_study, headline, all")
    p_exp.add_argument("-n", type=int, default=None, help="trip-count override")

    p_loop = sub.add_parser("loop", help="run one loop under all strategies")
    p_loop.add_argument("workload")
    p_loop.add_argument("loop")
    p_loop.add_argument("-n", type=int, default=None)
    p_loop.add_argument("--seed", type=int, default=0)

    p_dis = sub.add_parser("disasm", help="print a loop's generated program")
    p_dis.add_argument("workload")
    p_dis.add_argument("loop")
    p_dis.add_argument("strategy", nargs="?", default="srv",
                       choices=[s.value for s in Strategy])
    p_dis.add_argument("-n", type=int, default=None)
    p_dis.add_argument("--seed", type=int, default=0)

    p_ver = sub.add_parser(
        "verify",
        help="run invariant monitors + differential oracle over loops",
    )
    p_ver.add_argument("workload", nargs="?", default=None,
                       help="workload to verify (default: all)")
    p_ver.add_argument("--loop", default=None,
                       help="restrict to loops whose name contains this")
    p_ver.add_argument("--strategy", default="srv",
                       choices=[s.value for s in Strategy])
    p_ver.add_argument("-n", type=int, default=128,
                       help="trip-count override (default 128)")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--no-timing", action="store_true",
                       help="skip the LSU differential cross-check")

    p_swp = sub.add_parser(
        "sweep",
        help="run experiments through the parallel sharded engine",
    )
    p_swp.add_argument(
        "experiments", nargs="*", default=[],
        help="experiment names (default: all)",
    )
    p_swp.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       help="worker processes (default: CPU count)")
    p_swp.add_argument("-n", type=int, default=None,
                       help="trip-count override")
    p_swp.add_argument("--seed", type=int, default=0)
    p_swp.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help="content-addressed result cache directory; a "
                            "re-run against it resumes a killed sweep")
    p_swp.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk result cache (the sweep "
                            "then cannot resume)")
    p_swp.add_argument("--timeout", type=float, default=None,
                       help="per-run wall-clock budget in seconds")

    p_trc = sub.add_parser(
        "trace",
        help="record an observability trace and export Perfetto JSON",
    )
    p_trc.add_argument("workload")
    p_trc.add_argument("loop")
    p_trc.add_argument("--strategy", default="srv",
                       choices=[s.value for s in Strategy])
    p_trc.add_argument("--core", choices=("ooo", "inorder"), default="ooo",
                       help="timing model (default: out-of-order)")
    p_trc.add_argument("--out", default=None, metavar="PATH",
                       help="write Chrome Trace Format JSON here")
    p_trc.add_argument("--ring", type=int, default=0, metavar="CAP",
                       help="bound event retention to the newest CAP events")
    p_trc.add_argument("-n", type=int, default=None)
    p_trc.add_argument("--seed", type=int, default=0)

    p_att = sub.add_parser(
        "attrib",
        help="exact per-bucket cycle attribution for a loop or the suite",
    )
    p_att.add_argument("workload", nargs="?", default=None)
    p_att.add_argument("loop", nargs="?", default=None)
    p_att.add_argument("--suite", action="store_true",
                       help="attribute every loop and print the rollup")
    p_att.add_argument("--strategy", default="srv",
                       choices=[s.value for s in Strategy])
    p_att.add_argument("--core", choices=("ooo", "inorder"), default="ooo")
    p_att.add_argument("-n", type=int, default=None)
    p_att.add_argument("--seed", type=int, default=0)

    from repro.sample import DEFAULT_ERROR_BOUND_PCT, SAMPLES_PER_CLUSTER

    p_smp = sub.add_parser(
        "sample",
        help="interval-sampled simulation with whole-program projection",
    )
    p_smp.add_argument("workload",
                       help="by_name workload key (suite or gen:...)")
    p_smp.add_argument("loop", nargs="?", default=None,
                       help="loop name (optional for single-loop workloads)")
    p_smp.add_argument("--strategy", default="srv",
                       choices=[s.value for s in Strategy])
    p_smp.add_argument("--core", choices=("ooo", "inorder"), default="ooo",
                       help="timing model (default: out-of-order)")
    p_smp.add_argument("-n", type=int, default=None,
                       help="trip-count override")
    p_smp.add_argument("--seed", type=int, default=0)
    p_smp.add_argument("--interval", type=int, default=2048,
                       help="dynamic ops per fingerprint interval "
                            "(default 2048)")
    p_smp.add_argument("--warmup", type=int, default=1024,
                       help="warm-up ops replayed before each timed "
                            "segment (default 1024)")
    p_smp.add_argument("--clusters", type=int, default=None,
                       help="force k instead of BIC selection")
    p_smp.add_argument("--max-clusters", type=int, default=8,
                       help="BIC search ceiling (default 8)")
    p_smp.add_argument("--samples", type=int, default=SAMPLES_PER_CLUSTER,
                       help="detail-simulated members per cluster "
                            f"(default {SAMPLES_PER_CLUSTER})")
    p_smp.add_argument("--exact", action="store_true",
                       help="also run the exact simulation and report the "
                            "projection error")
    p_smp.add_argument("--max-error", type=float, default=None,
                       metavar="PCT",
                       help="exit non-zero when |error| exceeds PCT "
                            "(implies --exact; the accuracy gate is "
                            f"{DEFAULT_ERROR_BOUND_PCT}%%)")
    p_smp.add_argument("--json", default=None, metavar="PATH",
                       help="write the machine-readable report here")
    p_smp.add_argument("--no-cache", action="store_true",
                       help="bypass the result cache")

    from repro.verify.faults import FaultClass

    p_inj = sub.add_parser(
        "inject", help="run the fault-injection campaign"
    )
    p_inj.add_argument("--fault", default="all",
                       choices=["all"] + [f.value for f in FaultClass],
                       help="restrict the campaign to one fault class")

    from repro.gen.campaign import PLANTS

    p_fuz = sub.add_parser(
        "fuzz",
        help="run a generated-kernel differential fuzz campaign",
    )
    p_fuz.add_argument("--count", type=int, default=50,
                       help="kernels to generate and check (default 50)")
    p_fuz.add_argument("--seed", type=int, default=0,
                       help="campaign seed; same seed => identical kernels")
    p_fuz.add_argument("--strategy", default="srv",
                       choices=[s.value for s in Strategy])
    p_fuz.add_argument("-n", type=int, default=None,
                       help="trip-count override")
    p_fuz.add_argument("--out", default="results/fuzz", metavar="DIR",
                       help="campaign report + reproducer directory "
                            "(default results/fuzz)")
    p_fuz.add_argument("--no-shrink", action="store_true",
                       help="report failures without minimising them")
    p_fuz.add_argument("--no-cache", action="store_true",
                       help="bypass the result cache even for clean checks")
    p_fuz.add_argument("--plant", default=None,
                       choices=sorted(PLANTS) + ["elide-regions"],
                       help="inject a named check-time miscompile into every "
                            "kernel (self-test of the campaign machinery); "
                            "elide-regions requires --analyze-diff")
    p_fuz.add_argument("--analyze-diff", action="store_true",
                       help="soundness-fuzz the static analyzer: fail any "
                            "kernel where a region the analysis proved safe "
                            "dynamically replays")

    p_ana = sub.add_parser(
        "analyze",
        help="region-granular static dependence analysis of a workload",
    )
    p_ana.add_argument("workload", help="workload name (see `repro list`)")
    p_ana.add_argument("loop", nargs="?", default=None,
                       help="restrict to one loop (substring match)")
    p_ana.add_argument("-n", type=int, default=None,
                       help="trip-count override")
    p_ana.add_argument("--seed", type=int, default=0,
                       help="input seed the verdicts are proven against")
    p_ana.add_argument("--json", default=None, metavar="FILE",
                       help="write the machine-readable report to FILE")

    args = parser.parse_args(argv)
    handler = {
        "list": _cmd_list,
        "experiment": _cmd_experiment,
        "loop": _cmd_loop,
        "disasm": _cmd_disasm,
        "verify": _cmd_verify,
        "inject": _cmd_inject,
        "fuzz": _cmd_fuzz,
        "analyze": _cmd_analyze,
        "sample": _cmd_sample,
        "sweep": _cmd_sweep,
        "trace": _cmd_trace,
        "attrib": _cmd_attrib,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # stdout consumer (e.g. ``repro list | head``) went away;
        # exit quietly instead of stack-tracing on interpreter shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
