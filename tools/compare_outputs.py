#!/usr/bin/env python3
"""Byte-compare what two builds of icvbe print and write.

    python3 tools/compare_outputs.py <build-a> <build-b> [--keep DIR]

Runs one fixed set of invocations against the binaries of both build
directories and compares, per invocation, the exit code, stdout and every
CSV the run leaves under its results directory:

* `icvbe lot 64 4` with --lanes unset, 1, 8 and 32;
* `icvbe run`, `icvbe tran` and `icvbe ac` on every examples/decks deck
  (a deck the subcommand rejects is compared on its exit code and
  stdout too);
* the fig5, fig6, fig8, table1, sensitivity and ablation benches with
  --benchmark_filter=NONE;
* the lab examples quickstart, characterize_lot, virtual_lab_tour and
  design_bandgap.

Each run gets a fresh working directory and ICVBE_RESULTS_DIR. That
directory's path is replaced by `<out>` before comparing. Timing figures
vary from run to run, so stdout lines that carry a time or a speedup
and CSV columns whose header names one are left out. Each left-out line
or column is counted in the report.

Exit code 0 = every output byte-identical; 1 = differences (printed);
2 = usage error or a missing binary.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DECKS = sorted((REPO / "examples" / "decks").glob("*.cir"))

# A duration or rate printed next to a number ("12.3 ms", "4.5 us/solve",
# "1.40x") or a line that names one.
TIMING_LINE = re.compile(
    r"\d\s*(ns|us|µs|ms)\b|\d(\.\d+)?x\b|speedup|runs/s|dies/s", re.I)
# A CSV column that holds a duration or a rate.
TIMING_COLUMN = re.compile(
    r"\[(ns|us|µs|ms|s)\]|speedup|/s\b|\btime\b", re.I)

BENCHES = [
    "bench_fig5_icvbe_family",
    "bench_fig6_characteristic_straight",
    "bench_fig8_vref_trim",
    "bench_table1_temperature_error",
    "bench_sensitivity_analysis",
    "bench_ablation",
]
EXAMPLES = ["quickstart", "characterize_lot", "virtual_lab_tour",
            "design_bandgap"]


def invocations() -> list[tuple[str, list[str]]]:
    """(name, argv) pairs; argv[0] is a binary name in the build dir."""
    out: list[tuple[str, list[str]]] = []
    for lanes in (None, 1, 8, 32):
        argv = ["icvbe", "lot", "64", "4"]
        if lanes is not None:
            argv.append(f"--lanes={lanes}")
        out.append((" ".join(argv), argv))
    for deck in DECKS:
        for sub in ("run", "tran", "ac"):
            out.append((f"icvbe {sub} {deck.name}",
                        ["icvbe", sub, str(deck)]))
    for bench in BENCHES:
        out.append((bench, [bench, "--benchmark_filter=NONE"]))
    for example in EXAMPLES:
        out.append((example, [example]))
    return out


def drop_timing_lines(text: str) -> tuple[str, int]:
    kept, dropped = [], 0
    for line in text.splitlines(keepends=True):
        if TIMING_LINE.search(line):
            dropped += 1
        else:
            kept.append(line)
    return "".join(kept), dropped


def drop_timing_columns(text: str) -> tuple[str, int]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return text, 0
    keep = [i for i, h in enumerate(rows[0]) if not TIMING_COLUMN.search(h)]
    if len(keep) == len(rows[0]):
        return text, 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([row[i] for i in keep if i < len(row)])
    return buf.getvalue(), len(rows[0]) - len(keep)


class Capture:
    """What one invocation of one build printed and wrote."""

    def __init__(self, rc: int, stdout: str, csvs: dict[str, str],
                 dropped: int) -> None:
        self.rc = rc
        self.stdout = stdout
        self.csvs = csvs
        self.dropped = dropped


def run_one(build: Path, argv: list[str], workdir: Path) -> Capture:
    workdir.mkdir(parents=True)
    results = workdir / "results"
    env = dict(os.environ, ICVBE_RESULTS_DIR=str(results))
    proc = subprocess.run([str(build / argv[0])] + argv[1:], cwd=workdir,
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=900)
    stdout = proc.stdout.decode("utf-8", "replace")
    stdout = stdout.replace(str(workdir), "<out>")
    stdout, dropped = drop_timing_lines(stdout)
    csvs: dict[str, str] = {}
    for path in sorted(results.glob("*.csv")) if results.is_dir() else []:
        text, cols = drop_timing_columns(path.read_text())
        csvs[path.name] = text
        dropped += cols
    return Capture(proc.returncode, stdout, csvs, dropped)


def diff_excerpt(a: str, b: str, label: str, limit: int = 12) -> str:
    lines = list(difflib.unified_diff(a.splitlines(), b.splitlines(),
                                      f"a/{label}", f"b/{label}",
                                      lineterm="", n=1))
    if len(lines) > limit:
        lines = lines[:limit] + [f"... ({len(lines) - limit} more lines)"]
    return "\n".join("    " + line for line in lines)


def compare(name: str, a: Capture, b: Capture) -> list[str]:
    diffs: list[str] = []
    if a.rc != b.rc:
        diffs.append(f"{name}: exit code {a.rc} vs {b.rc}")
    if a.stdout != b.stdout:
        diffs.append(f"{name}: stdout differs\n"
                     + diff_excerpt(a.stdout, b.stdout, "stdout"))
    for csv_name in sorted(set(a.csvs) | set(b.csvs)):
        if csv_name not in a.csvs or csv_name not in b.csvs:
            side = "a" if csv_name in a.csvs else "b"
            diffs.append(f"{name}: {csv_name} written by build {side} only")
        elif a.csvs[csv_name] != b.csvs[csv_name]:
            diffs.append(f"{name}: {csv_name} differs\n" + diff_excerpt(
                a.csvs[csv_name], b.csvs[csv_name], csv_name))
    return diffs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("build_a", type=Path)
    parser.add_argument("build_b", type=Path)
    parser.add_argument("--keep", type=Path, default=None,
                        help="write the runs under this directory and "
                             "keep them (default: a temporary directory)")
    args = parser.parse_args()

    builds = [args.build_a.resolve(), args.build_b.resolve()]
    runs = invocations()
    missing = sorted({str(b / argv[0]) for b in builds for _, argv in runs
                      if not (b / argv[0]).is_file()})
    if missing:
        for path in missing:
            print(f"missing binary: {path}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        root = args.keep.resolve() if args.keep else Path(tmp)
        differences: list[str] = []
        dropped = 0
        for i, (name, argv) in enumerate(runs):
            # Each side's work directory reads `<out>` in its stdout.
            caps = [run_one(b, argv, root / side / f"{i:02d}")
                    for side, b in zip(("a", "b"), builds)]
            found = compare(name, caps[0], caps[1])
            dropped += caps[0].dropped
            status = "DIFF" if found else "same"
            print(f"[{status}] {name} (exit {caps[0].rc})")
            differences += found

    print(f"\n{len(runs)} invocations, {dropped} timing lines/columns "
          f"left out per build, {len(differences)} differences")
    for d in differences:
        print(d)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
