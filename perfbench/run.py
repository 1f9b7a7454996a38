#!/usr/bin/env python3
"""Run one icvbe benchmark workload (or all of them) from the repo root.

    python3 perfbench/run.py --workload <name|all> --seed <n> \\
        --seconds <s> --trace <0|1>

Builds the library, the CLI and the benchmark driver from source into
.bench_build/, runs the workload in its own process, checks the program's
outputs, and prints every metric by name with its unit. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, derived from spans recorded
around public calls plus per-layer replays, and a Chrome trace-event file
is written next to the result. Per-layer metrics of layers the workload
does not exercise come from reference replays and are marked so. Every result (metrics, raw samples and
provenance) is saved under .bench_build/results/ for compare.py.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = Path(".bench_build")
RESULTS = BUILD / "results"
WORKLOADS = ["lot_eg_xti", "deck_cold_tree100k", "serve_warm_grid10k"]
DEADLINE_S = 170  # a run must end within 180 s


def build():
    """Configure once, then build the driver and the CLI incrementally."""
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR.relative_to(ROOT)),
                        "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "perfbench_driver", "icvbe_cli", "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_driver(workload, seed, seconds, trace, timeout):
    workdir = BUILD / "run"
    workdir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [str(BUILD / "perfbench_driver"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--workdir", str(workdir),
         "--decks", str(BENCH_DIR.relative_to(ROOT) / "decks")],
        capture_output=True, text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"driver failed ({proc.returncode}): "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_check(raw, timeout):
    """deck_cold_tree100k: the CSV must equal `icvbe run <deck>` byte for
    byte."""
    cli = BUILD / "icvbe" / "icvbe"
    proc = subprocess.run([str(cli), "run", raw["files"]["deck"]],
                          capture_output=True, timeout=timeout, check=False)
    want = Path(raw["files"]["csv"]).read_bytes()
    ok = proc.returncode == 0 and proc.stdout == want
    return {"name": "deck.csv_matches_cli", "ok": ok,
            "detail": f"icvbe run exit {proc.returncode}, "
                      f"{len(proc.stdout)} vs {len(want)} bytes"}


def provenance(raw, seed):
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, check=True,
            timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        describe = "unavailable (not a git checkout)"
    return {"git_describe": describe, "nproc": os.cpu_count(),
            "machine": platform.machine(), "seed": seed,
            **raw["build"], **raw["config"]}


def end_to_end(raw):
    """The end-to-end metrics, plus details that explain them. A failed
    iteration counts as infinitely slow."""
    lat = raw["iter_ms"] + [float("inf")] * raw["iters_failed"]
    tail, pct, beyond = stats.tail(lat)
    rate = len(raw["iter_ms"]) / raw["elapsed_s"]
    metrics = {
        "setup_s": stats.median(raw["setup_s"]),
        "iter_p50_ms": stats.median(lat),
        "iter_tail_ms": tail,
        "iters_per_s": rate,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    details = {"iter_tail_percentile": pct, "iter_tail_beyond": beyond,
               "iterations": len(lat), "setups": len(raw["setup_s"])}
    if "dies_per_iter" in raw["config"]:
        details["dies_per_s"] = raw["config"]["dies_per_iter"] * rate
    details.update(raw["quality"])
    return metrics, details


def self_time_by_layer(spans):
    """Self time per layer (the span name up to its first dot) over the
    spans under the timed operations, as a share of their total."""
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)

    def root_of(i):
        while spans[i][3] >= 0:
            i = spans[i][3]
        return i

    total = sum(s[2] - s[1] for s in spans
                if s[0] == "bench.op" and s[3] < 0)
    self_us = {}
    for i, s in enumerate(spans):
        if spans[root_of(i)][0] != "bench.op":
            continue
        covered = sum(spans[c][2] - spans[c][1] for c in children.get(i, []))
        layer = s[0].split(".")[0]
        self_us[layer] = self_us.get(layer, 0.0) + (s[2] - s[1]) - covered
    return {layer: 100.0 * us / total for layer, us in self_us.items()} \
        if total else {}


def chrome_trace(spans, path):
    events = [{"name": s[0], "ph": "X", "ts": s[1], "dur": s[2] - s[1],
               "pid": 1, "tid": s[5], "args": {"id": s[4], "parent": s[3]}}
              for s in spans]
    path.write_text(json.dumps({"traceEvents": events}))


def per_layer(raw, spec_names):
    """The per-layer metrics, and which of them are reference figures."""
    layers = dict(raw["layers"])
    untraced = stats.median(raw["untraced_iter_ms"] +
                            [float("inf")] * raw["untraced_iters_failed"])
    traced = stats.median(raw["iter_ms"] +
                          [float("inf")] * raw["iters_failed"])
    if raw["untraced_iter_ms"] and raw["iter_ms"]:
        layers["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    for layer, pct in self_time_by_layer(raw["spans"]).items():
        layers["self_pct." + layer] = pct
    if "dies_per_iter" in raw["config"]:
        layers["lot.dies_per_s"] = end_to_end(raw)[1]["dies_per_s"]
        layers["lot.eg_err_mev"] = raw["quality"]["eg_err_mev"]
        layers["lot.xti_err"] = raw["quality"]["xti_err"]
    # Every per-layer metric is reported. The replays fill every timing; a
    # self_pct share of a layer the workload does not exercise reads 0.
    values = {name: layers.get(name, 0.0) for name in spec_names}
    reference = sorted(set(raw["reference"]) & set(values))
    return values, layers, reference


def run_one(spec, workload, seed, seconds, trace, started):
    remaining = DEADLINE_S - (time.monotonic() - started)
    raw = run_driver(workload, seed, seconds, trace, remaining)
    checks = list(raw["checks"])
    failed = raw["failed"]
    if "deck" in raw["files"]:
        checks.append(cli_check(raw, DEADLINE_S -
                                (time.monotonic() - started)))
        failed += 0 if checks[-1]["ok"] else 1
    correct = all(c["ok"] for c in checks)

    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    reference = []
    if trace:
        values, layers, reference = per_layer(raw, list(units))
        trace_path = RESULTS / f"trace-{workload}-seed{seed}.json"
        chrome_trace(raw["spans"], trace_path)
        details = {"all_layers": layers, "reference_layers": reference,
                   "trace_file": str(trace_path)}
    else:
        values, details = end_to_end(raw)
        values = {name: values[name] for name in units}

    prov = provenance(raw, seed)
    print(f"== {workload} seed={seed} seconds={seconds} trace={trace}")
    for key in ("git_describe", "build_type", "compiler", "flags",
                "icvbe_simd", "march", "nproc", "threads", "workers",
                "clients", "lanes"):
        print(f"   {key}: {prov.get(key)}")
    for c in checks:
        print(f"   check {c['name']}: {'ok' if c['ok'] else 'FAILED'}"
              f" ({c['detail']})")
    for name, value in values.items():
        source = " [reference replay]" if name in reference else ""
        print(f"   {name} = {value:.6g} {units[name]}{source}")
    for name, value in details.items():
        if not isinstance(value, (dict, list)):
            print(f"   ({name} = {value})")

    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    result = {"correct": correct, "attempted": max(raw["attempted"], 1),
              "failed": failed, "metrics": metrics}
    saved = {"workload": workload, "seed": seed, "seconds": seconds,
             "trace": trace, "provenance": prov, "checks": checks,
             "details": details, "result": result,
             "raw": {k: raw[k] for k in ("setup_s", "iter_ms",
                                         "untraced_iter_ms", "iters_failed",
                                         "untraced_iters_failed",
                                         "elapsed_s")}}
    out = RESULTS / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}.json"
    out.write_text(json.dumps(saved, indent=1))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        build()
        RESULTS.mkdir(parents=True, exist_ok=True)
        workloads = ([w["name"] for w in spec["workloads"]]
                     if args.workload == "all" else [args.workload])
        results = [run_one(spec, w, args.seed, args.seconds, args.trace,
                           time.monotonic()) for w in workloads]
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{k}": v for w, r in zip(workloads, results)
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
