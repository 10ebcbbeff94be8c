"""Compare benchmark reports of a parent commit and a change.

    python3 bench/compare.py --parent p1.json p2.json ... --change c1.json c2.json ...

The files are what `run.py --report PATH` writes for untraced runs.  For
each workload and end-to-end metric this prints both sides' medians and
quartiles and the change relative to the parent, judged against the
metric's bound in BENCHMARK.json: "worse" past the bound, "unresolved"
when the parent's own spread is wider than the bound and the runs
overlap, "ok" otherwise.  Runs of one workload and seed whose output
digests differ are flagged "bit-identity changed", with the counters
that moved, so that someone confirms the change meant to alter
outputs.  The flag is not a failure.  Exit status 1 when a metric is
worse or a run failed a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _load(paths):
    reports = [json.loads(Path(p).read_text()) for p in paths]
    return [r for r in reports if r["trace"] == 0]


def compare(parent: list, change: list, spec: dict) -> bool:
    """Print the comparison; True when nothing got worse or failed."""
    ok = True
    for report in parent + change:
        if report["problems"] or report["failed"]:
            print(f"FAILED {report['workload']} seed {report['seed']}: {report['problems'][:3]}")
            ok = False
    for workload in sorted({r["workload"] for r in parent} & {r["workload"] for r in change}):
        side = {name: [r for r in runs if r["workload"] == workload]
                for name, runs in (("parent", parent), ("change", change))}
        print(f"== {workload}: {len(side['parent'])} parent runs, {len(side['change'])} change runs")
        for metric in spec["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            p = [r["metrics"][name]["value"] for r in side["parent"]]
            c = [r["metrics"][name]["value"] for r in side["change"]]
            (p1, pm, p3), (c1, cm, c3) = _quartiles(p), _quartiles(c)
            worse_by = sign * (cm - pm) / pm
            if worse_by > metric["bound"]:
                verdict, ok = "worse", False
            elif (p3 - p1) / pm > metric["bound"] and not all(sign * (x - y) < 0 for x in c for y in p):
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"  {name:12s} parent {pm:.5g} [{p1:.5g}, {p3:.5g}]  change {cm:.5g} "
                  f"[{c1:.5g}, {c3:.5g}] {metric['unit']}  change/parent {cm / pm:.4f}  {verdict}")
        for seed in sorted({r["seed"] for r in side["parent"]} & {r["seed"] for r in side["change"]}):
            a = next(r for r in side["parent"] if r["seed"] == seed)
            b = next(r for r in side["change"] if r["seed"] == seed)
            if a["output_digest"] != b["output_digest"]:
                moved = {k: (a["counters"].get(k), b["counters"].get(k))
                         for k in sorted(set(a["counters"]) | set(b["counters"]))
                         if a["counters"].get(k) != b["counters"].get(k)}
                print(f"  bit-identity changed at seed {seed} (to confirm, not a failure); "
                      f"counters parent -> change: {moved}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return 0 if compare(_load(args.parent), _load(args.change), spec) else 1


if __name__ == "__main__":
    sys.exit(main())
