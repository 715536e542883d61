"""Compare two sets of benchmark runs, metric by metric and workload by
workload.

Usage::

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json
    python3 benchmarks/e2e/compare.py --spread SET.json [SET2.json]

Each file is what ``run.py --out FILE`` wrote; ``--out`` appends, so
alternating invocations on the two commits build up the pairs.  The i-th
run of a workload in one file is paired with the i-th run of that workload
in the other.

For each workload, and each end-to-end metric of ``BENCHMARK.json`` or
host-clock metric every run measures (judged at ``HOST_BOUND``), it prints
both medians and quartiles and the share of pairs the change wins (ties
count for neither side), then a verdict:

- ``improved``: the change wins at least 9 in 10 pairs and the medians
  differ by more than the parent's interquartile range;
- ``unresolved``: the runs spread wider than the metric's bound, so no
  regression can be ruled out, unless every change run beats every parent
  run;
- ``regressed``: the change's median is worse than the parent's by more
  than the bound;
- ``no-worse``: otherwise.

It exits 1 when any pairing regressed.

With ``--spread SET.json [SET2.json]`` it instead prints, as JSON, each
set's median, quartiles and spread (interquartile range over median) per
workload and metric, and for two sets how far the second median moved in
the worse direction.  It exits 1 when an end-to-end metric's spread
(``setup_s`` aside) or move exceeds its bound: the check a new benchmark
must pass on two sets of ten runs with different seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Bound for the host-clock metrics every run measures.  Their spread
#: between runs on a shared VM is wider than any bound the benchmark may
#: set, so ``BENCHMARK.json`` lists them as per-layer, without a bound; here
#: they still get a verdict, which reads ``unresolved`` unless the change
#: clearly wins.
HOST_BOUND = 0.10


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """Summary statistics and the verdict for one (workload, metric)."""
    sign = 1.0 if better == "higher" else -1.0  # sign * value: larger wins
    med_p, med_c = statistics.median(parent), statistics.median(change)
    (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * c > sign * p for p, c in pairs)
    win_frac = wins / len(pairs)
    spread = max((p3 - p1) / abs(med_p), (c3 - c1) / abs(med_c))
    worse_by = sign * (med_p - med_c) / abs(med_p)
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    if win_frac >= 0.9 and sign * (med_c - med_p) > p3 - p1:
        outcome = "improved"
    elif spread > bound and not dominates:
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "regressed"
    else:
        outcome = "no-worse"
    return {
        "parent": (med_p, p1, p3), "change": (med_c, c1, c3),
        "wins": wins, "pairs": len(pairs), "win_frac": win_frac,
        "spread": spread, "verdict": outcome,
    }


def metrics(spec: dict, run: dict) -> list[dict]:
    """The end-to-end metrics, then the per-layer ones a run measures on
    every run (the host clock), with ``HOST_BOUND`` and ``gated`` false."""
    out = [dict(m, gated=True) for m in spec["end_to_end"]]
    out += [dict(m, bound=HOST_BOUND, gated=False) for m in spec["per_layer"]
            if m["name"] in run["e2e"]]
    return out


def runs_by_workload(path: Path) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in json.loads(path.read_text())["runs"]:
        if not run.get("trace"):
            out.setdefault(run["workload"], []).append(run)
    return out


def compare(parent: Path, change: Path, spec: dict) -> tuple[list[str], bool]:
    """Report lines, and whether any pairing regressed."""
    a, b = runs_by_workload(parent), runs_by_workload(change)
    lines = []
    summary = []
    regressed = False
    for workload in [w for w in a if w in b]:
        verdicts = {}
        for m in metrics(spec, a[workload][0]):
            name = m["name"]
            pv = [r["e2e"][name] for r in a[workload]]
            cv = [r["e2e"][name] for r in b[workload]]
            n = min(len(pv), len(cv))
            v = verdict(pv[:n], cv[:n], m["better"], m["bound"])
            verdicts[name] = v["verdict"]
            regressed |= v["verdict"] == "regressed"
            lines.append(
                f"{workload:12s} {name:16s} "
                "parent {:.6g} [{:.6g}, {:.6g}]  ".format(*v["parent"])
                + "change {:.6g} [{:.6g}, {:.6g}]  ".format(*v["change"])
                + f"wins {v['wins']}/{v['pairs']}  spread {v['spread']:.3f}"
                f" (bound {m['bound']})  {v['verdict']}"
            )
        summary.append(
            f"{workload:12s} " + "  ".join(f"{k}={v}" for k, v in verdicts.items())
        )
    return lines + [""] + summary, regressed


def spreads(paths: list[Path], spec: dict) -> tuple[dict, bool]:
    """Per set, workload and metric: median, quartiles and spread; with a
    second set, the worse-direction move of its median.  Also whether
    everything stayed within the bounds."""
    sets = [runs_by_workload(p) for p in paths]
    out: dict = {"sets": []}
    ok = True
    for runs in sets:
        table = {}
        for workload, wruns in runs.items():
            table[workload] = {}
            for m in metrics(spec, wruns[0]):
                values = [r["e2e"][m["name"]] for r in wruns]
                med = statistics.median(values)
                q1, q3 = quartiles(values)
                spread = (q3 - q1) / abs(med)
                if m["gated"] and m["name"] != "setup_s":
                    ok &= spread <= m["bound"]
                table[workload][m["name"]] = {
                    "median": med, "q1": q1, "q3": q3, "spread": spread,
                    "runs": len(values),
                }
        out["sets"].append(table)
    if len(sets) == 2:
        out["moved"] = {}
        first, second = out["sets"]
        for workload in first.keys() & second.keys():
            out["moved"][workload] = {}
            for m in metrics(spec, sets[0][workload][0]):
                sign = 1.0 if m["better"] == "higher" else -1.0
                a = first[workload][m["name"]]["median"]
                b = second[workload][m["name"]]["median"]
                moved = sign * (a - b) / abs(a)
                if m["gated"]:
                    ok &= moved <= m["bound"]
                out["moved"][workload][m["name"]] = moved
    return out, ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("files", type=Path, nargs="+",
                   help="PARENT.json CHANGE.json, or one or two sets with "
                        "--spread")
    p.add_argument("--spread", action="store_true")
    args = p.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    if args.spread:
        if len(args.files) > 2:
            p.error("--spread takes one or two files")
        table, ok = spreads(args.files, spec)
        print(json.dumps(table, indent=1, sort_keys=True))
        return 0 if ok else 1
    if len(args.files) != 2:
        p.error("expected PARENT.json CHANGE.json")
    lines, regressed = compare(*args.files, spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
