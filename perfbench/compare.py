#!/usr/bin/env python3
"""Compare two result sets of the benchmark: parent against change.

    python3 perfbench/compare.py <parent-dir> <change-dir>

Each directory holds result files that run.py saved (it writes them to
.bench_build/results/; copy them aside between commits). Only untraced
runs are compared. For every workload x end-to-end metric the tool prints
the parent's and the change's median and quartiles, and a verdict against
the bounds of BENCHMARK.json (see stats.verdict): better, worse,
within-bound, or unresolved. Runs are paired in seed order. The exit code
is 1 when any verdict is worse, else 0.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402


def load(directory):
    """{workload: {metric: [values in seed order]}} of untraced runs."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        saved = json.loads(path.read_text())
        if saved.get("trace") != 0 or "result" not in saved:
            continue
        runs.setdefault(saved["workload"], []).append(saved)
    out = {}
    for workload, items in runs.items():
        items.sort(key=lambda s: s["seed"])
        metrics = out.setdefault(workload, {})
        for saved in items:
            for name, m in saved["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return out


def compare(spec, parent, change):
    """Rows of (workload, metric, parent quartiles, change quartiles,
    verdict) for every workload present in both sets."""
    rows = []
    for workload in sorted(set(parent) & set(change)):
        for m in spec["end_to_end"]:
            p = parent[workload].get(m["name"], [])
            c = change[workload].get(m["name"], [])
            rows.append((workload, m["name"], stats.quartiles(p),
                         stats.quartiles(c),
                         stats.verdict(p, c, m["better"], m["bound"])))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default="BENCHMARK.json",
                        help="the benchmark definition (bounds, directions)")
    args = parser.parse_args()
    spec = json.loads(Path(args.benchmark).read_text())
    rows = compare(spec, load(args.parent), load(args.change))
    if not rows:
        print("no workload has untraced results in both sets")
        return 1
    print(f"{'workload':20} {'metric':14} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32}  verdict")
    for workload, name, p, c, v in rows:
        def fmt(q):
            return "/".join(f"{x:.4g}" for x in q)
        print(f"{workload:20} {name:14} {fmt(p):>32} {fmt(c):>32}  {v}")
    return 1 if any(r[4] == stats.WORSE for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
