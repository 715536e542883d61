"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``     solve an MPS file with any method and print the result
``batch``     solve many MPS files (or generated LPs) as one batch
``trace``     solve with per-iteration tracing; print the convergence summary
              and optionally write a merged Chrome-trace JSON
``metrics``   run a workload with metrics collection and export the snapshot
              (Prometheus text or JSON), optionally gated against a baseline
``info``      print structural statistics of an MPS file
``generate``  write a random dense/sparse instance to MPS
``bench``     run one of the evaluation experiments (T1–T3, F1–F10, A1–A6,
              B1, M1, S1)
``serve``     replay a synthetic arrival trace through the serving layer
              (``repro.serve``): fleet, admission queue, warm-start cache
``devices``   print the modeled hardware table

Examples::

    python -m repro generate dense 64 64 --out /tmp/d64.mps
    python -m repro solve /tmp/d64.mps --method gpu-revised --dtype float32
    python -m repro batch a.mps b.mps c.mps --schedule concurrent
    python -m repro batch --random 16 --rows 48 --cols 64 --chain --method revised
    python -m repro trace /tmp/d64.mps --method gpu-revised --out /tmp/d64.json
    python -m repro metrics --format prometheus
    python -m repro metrics --format json --out /tmp/metrics.json
    python -m repro metrics --gate benchmarks/baselines/metrics-smoke.json
    python -m repro info /tmp/d64.mps
    python -m repro bench f2
    python -m repro serve --jobs 32 --devices 4 --jobs-table
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro._version import __version__


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPU revised simplex LP solver (IPDPS 2009 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an MPS file")
    p_solve.add_argument("path", help="MPS file to solve")
    p_solve.add_argument("--method", default="gpu-revised",
                         help="auto | tableau | revised | revised-sparse | "
                              "gpu-revised | gpu-revised-sparse | gpu-tableau "
                              "| pdlp | gpu-pdlp")
    p_solve.add_argument("--pricing", default="hybrid",
                         help="dantzig | bland | hybrid | devex | steepest-edge")
    p_solve.add_argument("--dtype", default="float64",
                         choices=["float32", "float64"])
    p_solve.add_argument("--scale", action="store_true",
                         help="apply geometric-mean scaling")
    p_solve.add_argument("--fusion", action=argparse.BooleanOptionalAction,
                         default=True,
                         help="lower gpu-* launch plans with kernel fusion "
                              "(default on; --no-fusion is the op-by-op "
                              "baseline)")
    p_solve.add_argument("--precision", default=None,
                         choices=["fp32", "fp64", "mixed"],
                         help="device precision policy (mixed = fp32 compute "
                              "+ fp64 iterative refinement)")
    p_solve.add_argument("--presolve", action="store_true",
                         help="run presolve reductions first")
    p_solve.add_argument("--max-iterations", type=int, default=0)
    p_solve.add_argument("--print-solution", action="store_true",
                         help="print every nonzero variable")

    p_batch = sub.add_parser("batch", help="solve many LPs as one batch")
    p_batch.add_argument("paths", nargs="*", help="MPS files (omit with --random)")
    p_batch.add_argument("--random", type=int, default=0, metavar="N",
                         help="generate N random dense LPs instead of reading files")
    p_batch.add_argument("--rows", type=int, default=64,
                         help="rows of each generated LP (with --random)")
    p_batch.add_argument("--cols", type=int, default=96,
                         help="columns of each generated LP (with --random)")
    p_batch.add_argument("--seed", type=int, default=0)
    p_batch.add_argument("--method", default="gpu-revised")
    p_batch.add_argument("--schedule", default="concurrent",
                         choices=["sequential", "concurrent"])
    p_batch.add_argument("--streams", type=int, default=0,
                         help="concurrent streams/workers (0 = auto)")
    p_batch.add_argument("--chain", action="store_true",
                         help="warm-start each LP from the previous basis "
                              "(re-optimization stream; implies sequential)")
    p_batch.add_argument("--dtype", default="float64",
                         choices=["float32", "float64"])

    p_trace = sub.add_parser(
        "trace",
        help="solve one LP with per-iteration tracing and summarise it",
    )
    p_trace.add_argument("path", nargs="?", default=None,
                         help="MPS file (omit with --random)")
    p_trace.add_argument("--random", action="store_true",
                         help="trace a generated random dense LP instead")
    p_trace.add_argument("--rows", type=int, default=32,
                         help="rows of the generated LP (with --random)")
    p_trace.add_argument("--cols", type=int, default=48,
                         help="columns of the generated LP (with --random)")
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--method", default="gpu-revised")
    p_trace.add_argument("--pricing", default="hybrid")
    p_trace.add_argument("--dtype", default="float64",
                         choices=["float32", "float64"])
    p_trace.add_argument("--max-iterations", type=int, default=0)
    p_trace.add_argument("--out", default="",
                         help="write the merged Chrome-trace JSON here")

    p_metrics = sub.add_parser(
        "metrics",
        help="run a workload with metrics collection; export and/or gate it",
    )
    p_metrics.add_argument(
        "paths", nargs="*",
        help="MPS files to solve as the workload (default: the built-in "
             "deterministic smoke workload)",
    )
    p_metrics.add_argument("--random", type=int, default=0, metavar="N",
                           help="solve N generated dense LPs instead of files")
    p_metrics.add_argument("--rows", type=int, default=32,
                           help="rows of each generated LP (with --random)")
    p_metrics.add_argument("--cols", type=int, default=48,
                           help="columns of each generated LP (with --random)")
    p_metrics.add_argument("--seed", type=int, default=0)
    p_metrics.add_argument("--method", default="gpu-revised")
    p_metrics.add_argument("--schedule", default="sequential",
                           choices=["sequential", "concurrent"])
    p_metrics.add_argument("--dtype", default="float64",
                           choices=["float32", "float64"])
    p_metrics.add_argument("--format", default="prometheus",
                           choices=["prometheus", "json"],
                           help="exposition format (default prometheus)")
    p_metrics.add_argument("--out", default="",
                           help="write the export here instead of stdout")
    p_metrics.add_argument("--from-json", default="", metavar="SNAPSHOT",
                           help="load a previously exported JSON snapshot "
                                "instead of running a workload")
    p_metrics.add_argument("--gate", default="", metavar="BASELINE",
                           help="compare the snapshot against this baseline "
                                "JSON; exit nonzero on regression")
    p_metrics.add_argument("--write-baseline", default="", metavar="PATH",
                           help="record the snapshot as a gate baseline")

    p_info = sub.add_parser("info", help="print structural statistics")
    p_info.add_argument("path", help="MPS file to analyse")

    p_gen = sub.add_parser("generate", help="write a random instance to MPS")
    p_gen.add_argument("kind", choices=["dense", "sparse", "transport", "klee-minty"])
    p_gen.add_argument("m", type=int, help="rows (or dimension for klee-minty)")
    p_gen.add_argument("n", type=int, nargs="?", default=None, help="columns")
    p_gen.add_argument("--density", type=float, default=0.05)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output MPS path")

    p_bench = sub.add_parser("bench", help="run an evaluation experiment")
    p_bench.add_argument("experiment",
                         help="t1..t3 f1..f10 a1..a6 b1 m1 s1 o1 | all")

    p_serve = sub.add_parser(
        "serve",
        help="replay a synthetic arrival trace through the serving layer",
    )
    p_serve.add_argument("--jobs", type=int, default=32,
                         help="trace length (default 32)")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--devices", type=int, default=2,
                         help="fleet size (default 2)")
    p_serve.add_argument("--streams", type=int, default=4,
                         help="concurrent streams per device")
    p_serve.add_argument("--method", default="gpu-revised")
    p_serve.add_argument("--queue-depth", type=int, default=64,
                         help="admission queue bound")
    p_serve.add_argument("--cache", type=int, default=128,
                         help="warm-start cache capacity")
    p_serve.add_argument("--mean-gap", type=float, default=0.002,
                         help="mean interarrival gap in modeled seconds")
    p_serve.add_argument("--fusion", action=argparse.BooleanOptionalAction,
                         default=True,
                         help="kernel-fusion lowering of every job's solve "
                              "(default on)")
    p_serve.add_argument("--jobs-table", action="store_true",
                         help="also print the per-job table")
    p_serve.add_argument("--metrics", action="store_true",
                         help="print the Prometheus metrics exposition too")

    p_explain = sub.add_parser(
        "explain",
        help="replay a trace with span tracing on and attribute modeled time",
    )
    p_explain.add_argument("--jobs", type=int, default=32,
                           help="trace length (default 32)")
    p_explain.add_argument("--seed", type=int, default=0)
    p_explain.add_argument("--devices", type=int, default=2,
                           help="fleet size (default 2)")
    p_explain.add_argument("--streams", type=int, default=4,
                           help="concurrent streams per device")
    p_explain.add_argument("--method", default="gpu-revised")
    p_explain.add_argument("--queue-depth", type=int, default=64,
                           help="admission queue bound")
    p_explain.add_argument("--cache", type=int, default=128,
                           help="warm-start cache capacity")
    p_explain.add_argument("--mean-gap", type=float, default=0.002,
                           help="mean interarrival gap in modeled seconds")
    p_explain.add_argument("--per-job", action="store_true",
                           help="also print the per-job bucket table")
    p_explain.add_argument("--tree", metavar="TRACE_ID",
                           help="print the span tree of one trace "
                                "(e.g. job-3), or 'slowest'")
    p_explain.add_argument("--json-out", metavar="PATH",
                           help="write the span recording as JSON")
    p_explain.add_argument("--chrome-out", metavar="PATH",
                           help="write a Chrome trace of the serve spans")

    sub.add_parser("devices", help="print the modeled hardware table")
    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.lp.mps import read_mps
    from repro.lp.presolve import solve_with_presolve
    from repro.solve import solve

    lp = read_mps(args.path)
    kwargs = dict(
        method=args.method,
        pricing=args.pricing,
        dtype=np.float32 if args.dtype == "float32" else np.float64,
        scale=args.scale,
        fusion=args.fusion,
        precision=args.precision,
        max_iterations=args.max_iterations,
    )
    if args.presolve:
        result = solve_with_presolve(lp, **kwargs)
    else:
        result = solve(lp, **kwargs)

    print(result.summary())
    if result.is_optimal:
        print(f"objective: {result.objective:.10g}")
        print(f"modeled machine time: {result.timing.modeled_seconds * 1e3:.3f} ms")
        if result.timing.kernel_breakdown:
            top = sorted(result.timing.kernel_breakdown.items(),
                         key=lambda kv: -kv[1])[:5]
            print("time breakdown:",
                  ", ".join(f"{k} {v * 1e3:.2f}ms" for k, v in top))
        if "fused_launches" in result.extra:
            print(
                f"fusion: {result.extra['fused_ops']} ops -> "
                f"{result.extra['fused_launches']} launches "
                f"({result.extra['fusion_saved_seconds'] * 1e3:.3f} ms saved)"
            )
        if "refinement_steps" in result.extra:
            print(
                f"refinement: {result.extra['refinement_steps']} step(s), "
                f"residual {result.extra['residual_after_refinement']:.3g}"
            )
        if args.print_solution and result.x is not None:
            for j, value in enumerate(result.x):
                if abs(value) > 1e-9:
                    print(f"  {lp.variable_name(j)} = {value:.6g}")
        return 0
    return 1


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.batch import solve_batch, solve_batch_chain
    from repro.lp.generators import random_dense_lp
    from repro.lp.mps import read_mps

    if args.random > 0:
        problems = [
            random_dense_lp(args.rows, args.cols, seed=args.seed + i)
            for i in range(args.random)
        ]
    elif args.paths:
        problems = [read_mps(p) for p in args.paths]
    else:
        raise SystemExit("batch needs MPS paths or --random N")

    kwargs = dict(
        method=args.method,
        dtype=np.float32 if args.dtype == "float32" else np.float64,
    )
    if args.chain:
        batch = solve_batch_chain(problems, **kwargs)
    else:
        batch = solve_batch(
            problems,
            schedule=args.schedule,
            n_streams=args.streams or None,
            **kwargs,
        )
    print(batch.render())
    return 0 if batch.all_optimal else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.batch import GPU_METHODS
    from repro.gpu.device import Device
    from repro.lp.generators import random_dense_lp
    from repro.lp.mps import read_mps
    from repro.solve import solve
    from repro.trace import merged_chrome_trace

    if args.random:
        lp = random_dense_lp(args.rows, args.cols, seed=args.seed)
    elif args.path:
        lp = read_mps(args.path)
    else:
        raise SystemExit("trace needs an MPS path or --random")

    kwargs = dict(
        method=args.method,
        pricing=args.pricing,
        dtype=np.float32 if args.dtype == "float32" else np.float64,
        max_iterations=args.max_iterations,
        trace=True,
    )
    dev = None
    if args.method in GPU_METHODS:
        # own the device so its kernel/transfer timeline survives the solve
        # and can be merged under the solver tracks
        dev = Device()
        dev.record_timeline()
        kwargs["device"] = dev
    result = solve(lp, **kwargs)

    print(result.summary())
    print(result.trace.summary())
    if args.out:
        timeline = dev.timeline if dev is not None else None
        merged_chrome_trace(result.trace, timeline=timeline, target=args.out)
        print(f"chrome trace -> {args.out}")
    return 0 if result.is_optimal else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro import metrics
    from repro.metrics.exporters import from_json, to_json, to_prometheus
    from repro.metrics.gate import (
        compare,
        load_baseline,
        make_baseline,
        write_baseline,
    )
    from repro.metrics.workloads import (
        SMOKE_TOLERANCES,
        SMOKE_WORKLOAD,
        smoke_workload,
    )

    if args.from_json:
        with open(args.from_json, "r", encoding="utf-8") as fh:
            snap = from_json(fh.read())
        workload = f"from-json:{args.from_json}"
    else:
        with metrics.collecting() as reg:
            if args.random > 0:
                from repro.lp.generators import random_dense_lp
                from repro.solve import solve_batch

                problems = [
                    random_dense_lp(args.rows, args.cols, seed=args.seed + i)
                    for i in range(args.random)
                ]
                solve_batch(
                    problems,
                    method=args.method,
                    schedule=args.schedule,
                    dtype=np.float32 if args.dtype == "float32" else np.float64,
                )
                workload = (
                    f"random:{args.random}x{args.rows}x{args.cols}"
                    f":{args.method}:{args.schedule}:{args.dtype}"
                    f":seed{args.seed}"
                )
            elif args.paths:
                from repro.lp.mps import read_mps
                from repro.solve import solve

                for path in args.paths:
                    solve(
                        read_mps(path),
                        method=args.method,
                        dtype=(
                            np.float32 if args.dtype == "float32"
                            else np.float64
                        ),
                    )
                workload = f"mps:{':'.join(args.paths)}:{args.method}"
            else:
                smoke_workload()
                workload = SMOKE_WORKLOAD
            snap = reg.snapshot()

    if args.format == "json":
        text = to_json(snap)
    else:
        text = to_prometheus(snap)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"metrics ({args.format}) -> {args.out}")
    else:
        print(text, end="")

    status = 0
    if args.write_baseline:
        tolerances = SMOKE_TOLERANCES if workload == SMOKE_WORKLOAD else None
        baseline = make_baseline(snap, workload=workload, tolerances=tolerances)
        write_baseline(baseline, args.write_baseline)
        print(f"baseline -> {args.write_baseline}")
    if args.gate:
        result = compare(snap, load_baseline(args.gate))
        print(result.render())
        if not result.ok:
            status = 1
    return status


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.lp.analysis import analyze
    from repro.lp.mps import read_mps

    print(analyze(read_mps(args.path)).render())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.lp.generators import (
        klee_minty_lp,
        random_dense_lp,
        random_sparse_lp,
        transportation_lp,
    )
    from repro.lp.mps import write_mps

    if args.kind == "dense":
        if args.n is None:
            raise SystemExit("dense needs m and n")
        lp = random_dense_lp(args.m, args.n, seed=args.seed)
    elif args.kind == "sparse":
        if args.n is None:
            raise SystemExit("sparse needs m and n")
        lp = random_sparse_lp(args.m, args.n, density=args.density, seed=args.seed)
    elif args.kind == "transport":
        if args.n is None:
            raise SystemExit("transport needs supply and demand counts")
        lp = transportation_lp(args.m, args.n, seed=args.seed)
    else:
        lp = klee_minty_lp(args.m)
    write_mps(lp, args.out)
    print(f"wrote {lp.name}: {lp.num_constraints}x{lp.num_vars} -> {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.experiments import main as bench_main

    return bench_main([args.experiment])


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.metrics import disable, enable, to_prometheus
    from repro.serve import ServeConfig, serve_trace, synthetic_trace
    from repro.serve.job import JobState, priority_name

    trace = synthetic_trace(
        n_jobs=args.jobs, seed=args.seed, mean_interarrival=args.mean_gap
    )
    config = ServeConfig(
        n_devices=args.devices,
        n_streams=args.streams,
        method=args.method,
        max_queue_depth=args.queue_depth,
        cache_capacity=args.cache,
        fusion=args.fusion,
    )
    registry = enable() if args.metrics else None
    try:
        report = serve_trace(trace, config)
    finally:
        if registry is not None:
            disable()
    if args.jobs_table:
        from repro.bench.tables import Table

        t = Table(["job", "prio", "state", "device",
                   "latency ms", "warm", "status"])
        for job in report.jobs:
            t.add_row(
                job.job_id,
                priority_name(job.priority),
                job.state.value,
                job.device or "-",
                (job.latency_seconds or 0.0) * 1e3
                if job.state is JobState.COMPLETED else 0.0,
                "yes" if job.warm_started else "-",
                job.result.status.value if job.result is not None
                else (job.reject_reason or "-"),
            )
        print(t.render())
        print()
    print(report.render())
    if registry is not None:
        print()
        print(to_prometheus(registry.snapshot()), end="")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs import observing, render_tree, serve_chrome_trace, to_json
    from repro.serve import ServeConfig, serve_trace, synthetic_trace

    trace = synthetic_trace(
        n_jobs=args.jobs, seed=args.seed, mean_interarrival=args.mean_gap
    )
    config = ServeConfig(
        n_devices=args.devices,
        n_streams=args.streams,
        method=args.method,
        max_queue_depth=args.queue_depth,
        cache_capacity=args.cache,
    )
    with observing():
        report = serve_trace(trace, config)
    print(report.render())
    print()
    attribution = report.attribution()
    print(attribution.render(per_job=args.per_job))
    recording = report.obs_recording
    if args.tree:
        trace_id = args.tree
        if trace_id == "slowest":
            jobs = [
                (recording.latencies.get(t) or 0.0, t)
                for t in recording.trace_ids()
                if t.startswith("job-")
            ]
            if not jobs:
                print("no kept job traces to show")
                return 0
            trace_id = max(jobs)[1]
        print()
        print(render_tree(recording, trace_id))
    if args.json_out:
        to_json(recording, target=args.json_out)
        print(f"\nwrote span JSON to {args.json_out}")
    if args.chrome_out:
        serve_chrome_trace(recording, target=args.chrome_out)
        print(f"wrote Chrome trace to {args.chrome_out}")
    return 0


def _cmd_devices(_args: argparse.Namespace) -> int:
    from repro.bench.experiments import t1_device_table

    print(t1_device_table().render())
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "batch": _cmd_batch,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "info": _cmd_info,
    "generate": _cmd_generate,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "explain": _cmd_explain,
    "devices": _cmd_devices,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
