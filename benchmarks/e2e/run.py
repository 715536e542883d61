"""End-to-end benchmark: four workloads on two clocks.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed 0]
        [--seconds 0] [--repeat 1] [--trace [0|1]] [--smoke] [--out FILE]

The driver is this one process.  It runs each workload in a fresh worker
subprocess (``--worker``), one at a time, single-threaded BLAS, with the
checkout's ``src`` on the path.  Set-up time is measured in further fresh
processes (``--setup-only``) and reported as the median.

A worker builds the workload's calls from the seed, pays one warm-up
request, then runs the calls in order: the first pass gives every
modeled-clock number; further passes run only while ``--seconds`` has not
yet elapsed and add host-time samples.  After the timed phase it checks
every first-pass request against HiGHS.  With ``--trace 1`` it then
replays the first pass under the outside-in tracer (``trace.py``) for the
per-layer host numbers; end-to-end numbers always come from untraced runs.

It prints one ``workload metric value unit`` line per metric and, last, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of ``BENCHMARK.json`` without ``--trace``, its
per-layer metrics with it.  ``--out`` appends every run's metrics and raw
per-request samples to a JSON file for ``compare.py``.  It exits 1 when a
request failed or a check did not hold, and 2 when a worker could not run.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # the start of set-up in a worker process

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

#: Fresh processes that measure set-up, besides the worker itself.
SETUP_PROBES = 4

#: Least share of each traced request's host time the layer spans cover.
MIN_COVERAGE = 0.95


# ---------------------------------------------------------------------------
# worker
# ---------------------------------------------------------------------------


def timed_phase(workload, seconds: float) -> dict:
    """Run the calls in order: one full pass, then repeats until
    ``seconds`` have elapsed.  A repeat must reproduce its first-pass
    outcome exactly."""
    calls = workload.calls
    first, call_s, host, modeled, mismatches = [], [], [], [], []
    requests = 0
    i = 0
    start = time.perf_counter()
    while i < len(calls) or time.perf_counter() - start < seconds:
        k = i % len(calls)
        t = time.perf_counter()
        outcome = calls[k]()
        dt = time.perf_counter() - t
        h, m = workload.samples(outcome, dt)
        host.extend(h)
        call_s.append(dt)
        requests += len(m)
        if i < len(calls):
            first.append(outcome)
            modeled.extend(m)
        elif workload.identity(outcome) != workload.identity(first[k]):
            mismatches.append(f"repeat of call {k} differs from its first pass")
        i += 1
    return {
        "first": first, "call_s": call_s, "host": host, "modeled": modeled,
        "requests": requests, "elapsed": time.perf_counter() - start,
        "errors": mismatches,
    }


def traced_pass(workload, untraced: dict, spans_path) -> tuple[dict, list, list]:
    """Replay the first pass under the tracer; returns the host per-layer
    metrics, the traced outcomes and what failed to hold."""
    from trace import tracing

    errors = []
    outcomes, call_s = [], []
    with tracing() as tracer:
        for i, call in enumerate(workload.calls):
            t = time.perf_counter()
            with tracer.request_span(i):
                outcomes.append(call())
            call_s.append(time.perf_counter() - t)
    requests = len(untraced["modeled"])
    for k, (a, b) in enumerate(zip(untraced["first"], outcomes)):
        if workload.identity(a) != workload.identity(b):
            errors.append(f"traced call {k} changed its modeled result")
    metrics = tracer.layer_metrics(requests)
    coverage = min(tracer.coverage())
    if coverage < MIN_COVERAGE:
        errors.append(f"layer spans cover only {coverage:.3f} of a request")
    metrics["trace.coverage_min"] = coverage
    # Untraced calls include the repeats, which follow the same call order.
    metrics["trace.overhead_frac"] = (
        statistics.median(call_s) / statistics.median(untraced["call_s"]) - 1.0
    )
    if spans_path:
        tracer.dump(spans_path)
    return metrics, outcomes, errors


def worker(args) -> dict:
    """One workload in this process; returns the result record."""
    import resource

    sys.path.insert(0, str(HERE))
    import workloads as wl
    from workloads import nearest_rank

    workload = wl.build(args.worker, args.seed, args.smoke)
    workload.warmup()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        return {"setup_s": setup_s}

    run = timed_phase(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    host, modeled = run["host"], run["modeled"]
    e2e = {
        "setup_s": setup_s,
        "host_s_p50": nearest_rank(host, 0.5),
        "host_s_p90": nearest_rank(host, 0.9),
        "host_rps": run["requests"] / run["elapsed"],
        "modeled_s_p50": nearest_rank(modeled, 0.5),
        "modeled_s_p90": nearest_rank(modeled, 0.9),
        "modeled_s_total": sum(modeled),
        "peak_rss_mb": peak_rss_mb,
    }
    errors = list(run["errors"])
    layer = {}
    if args.trace:
        first = run["first"]
        layer.update(wl.solve_layer_metrics(workload.results(first)))
        layer.update(workload.layers(first))
        layer.update(workload.extra_passes(first))
        host_layers, traced, trace_errors = traced_pass(
            workload, run, args.spans
        )
        errors.extend(trace_errors)
        replay = dict(wl.solve_layer_metrics(workload.results(traced)))
        replay.update(workload.layers(traced))
        if any(replay[k] != layer[k] for k in replay):
            errors.append("traced run changed a modeled per-layer metric")
        layer.update(host_layers)
    attempted, failed, reasons = workload.check(run["first"])
    return {
        "workload": args.worker, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "errors": errors + reasons[:20], "e2e": e2e, "layer": layer,
        "samples": {"host_s": host, "modeled_s": modeled},
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _spawn(name: str, args, *extra: str) -> dict:
    """Run one worker process and return its JSON record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--worker", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), *extra,
    ]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120 + 3 * args.seconds,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{name} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, args, spans_dir: Path) -> dict:
    """Set-up probes, then the worker; setup_s becomes their median."""
    extra = []
    if args.trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
        extra = ["--spans", str(spans_dir / f"spans-{name}.json")]
    probes = 0 if args.trace or args.smoke else SETUP_PROBES
    setups = [_spawn(name, args, "--setup-only")["setup_s"]
              for _ in range(probes)]
    record = _spawn(name, args, *extra)
    setups.append(record["e2e"]["setup_s"])
    record["e2e"]["setup_s"] = statistics.median(setups)
    record["setup_samples"] = setups
    return record


def _median_metrics(records: list[dict], key: str) -> dict[str, float]:
    names = records[0][key]
    return {n: statistics.median(r[key][n] for r in records) for n in names}


def report(spec: dict, records: list[dict], trace: bool) -> dict:
    """Print one line per metric; return the final JSON object.

    Every run measures the end-to-end metrics, the host-clock ones that
    ``BENCHMARK.json`` lists as per-layer included; a traced run adds the
    per-layer metrics.  The JSON holds the per-layer metrics of a traced
    run and the end-to-end ones otherwise.  A per-layer metric of a layer
    the workload does not use reads 0.
    """
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    final = spec["per_layer" if trace else "end_to_end"]
    by_workload: dict[str, list[dict]] = {}
    for r in records:
        by_workload.setdefault(r["workload"], []).append(r)
    metrics = {}
    attempted = failed = 0
    errors = []
    for name, runs in by_workload.items():
        w_attempted = sum(r["attempted"] for r in runs)
        w_failed = sum(r["failed"] for r in runs)
        attempted += w_attempted
        failed += w_failed
        for r in runs:
            errors.extend(f"{name}: {e}" for e in r["errors"])
        values = _median_metrics(runs, "e2e")
        errors.extend(f"{name}: no value for {m['name']}"
                      for m in spec["end_to_end"] if m["name"] not in values)
        shown = list(values)
        if trace:
            values.update(_median_metrics(runs, "layer"))
            shown = list(values) + [m["name"] for m in spec["per_layer"]
                                    if m["name"] not in values]
        for metric in shown:
            print(f"{name} {metric} {values.get(metric, 0.0):.6g} "
                  f"{units.get(metric, '')}")
        for m in final:
            label = m["name"] if len(by_workload) == 1 else f"{name}/{m['name']}"
            metrics[label] = {"value": values.get(m["name"], 0.0),
                              "unit": m["unit"]}
        host_n = statistics.median(len(r["samples"]["host_s"]) for r in runs)
        print(f"{name} failed_frac {w_failed / max(1, w_attempted):.6g} ratio")
        print(f"{name} host_samples {host_n:g} count")
    for e in errors[:40]:
        print(f"error: {e}", file=sys.stderr)
    return {
        "correct": not errors and failed == 0,
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }


def _write_out(path: Path, records: list[dict]) -> None:
    """Append this invocation's runs to ``path`` (created if missing), so
    alternating invocations of two commits build up paired samples."""
    runs = []
    if path.exists():
        runs = json.loads(path.read_text())["runs"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"runs": runs + records}))


def parse_args(spec: dict, argv=None):
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", "--workloads", dest="workloads", nargs="+",
                   choices=names, default=names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="keep repeating requests until this long has been "
                        "measured (default: one pass)")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out", type=Path)
    p.add_argument("--worker", choices=names, help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--spans", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.repeat < 1 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0 and --repeat >= 1")
    return args


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir() or not SPEC.is_file():
        print(f"error: no repro sources under {SRC} or no {SPEC.name}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    args = parse_args(spec, argv)
    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    spans_dir = args.out.parent if args.out else HERE / "out"
    records = []
    try:
        for repeat in range(args.repeat):
            for name in args.workloads:
                record = run_workload(name, args, spans_dir)
                record["repeat"] = repeat
                records.append(record)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        _write_out(args.out, records)
    result = report(spec, records, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
