"""The trajectory of the end-to-end metrics over the BENCH files.

    python3 scripts/bench_trajectory.py

Reads every BENCH_<label>.json at the root of the checkout, as
`scripts/bench_pairs.py` writes them, in the order git added them (files
git does not track yet come last, by name; without the history, as in a
shallow clone or an export, the order is the one git lists or by name).
For each end-to-end metric of BENCHMARK.json, workload and seed, prints
the chained product of the files' change/parent median ratios, beside
the raw medians from the first file's parent to the last file's change.
Each ratio was measured in one session, parent and change in alternating
pairs; the raw medians of two files were not, so host speed and load
move them, while the chained product carries only each file's own
comparison.  A file without a row for a metric, workload and seed is
skipped for it; a side given as a bare list of runs counts by their
median.  Nothing under bench/ is read.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def added_order(root: str = ROOT) -> list[str]:
    """The BENCH files at the root in the order git added them, then those
    git does not track, by name."""
    log = subprocess.run(
        ["git", "log", "--reverse", "--diff-filter=A", "--format=", "--name-only", "--",
         "BENCH_*.json"],
        cwd=root, capture_output=True, text=True).stdout.split()
    present = {os.path.basename(p) for p in glob.glob(os.path.join(root, "BENCH_*.json"))}
    tracked = [name for name in dict.fromkeys(log) if name in present]
    return tracked + sorted(present.difference(tracked))


def _median(side) -> float:
    return statistics.median(side) if type(side) is list else side["median"]


def trajectory(reports: list[dict], metrics: list[str]) -> list[dict]:
    """Per metric, workload and seed, in that order: the number of reports
    with its row, the chained product of their change/parent median
    ratios, the first one's parent median and the last one's change
    median."""
    out: dict[tuple, dict] = {}
    for report in reports:
        for row in report["end_to_end"]:
            if row["metric"] not in metrics:
                continue
            key = (metrics.index(row["metric"]), row["workload"], row["seed"])
            parent, change = _median(row["parent"]), _median(row["change"])
            entry = out.setdefault(key, {"metric": row["metric"], "workload": row["workload"],
                                         "seed": row["seed"], "files": 0, "chained": 1.0,
                                         "first_parent": parent})
            entry["files"] += 1
            entry["chained"] *= change / parent
            entry["last_change"] = change
    return [out[key] for key in sorted(out)]


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    names = added_order()
    if not names:
        sys.exit("no BENCH_*.json at the root of the checkout")
    reports = []
    for name in names:
        with open(os.path.join(ROOT, name)) as fh:
            reports.append(json.load(fh))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = [m["name"] for m in json.load(fh)["end_to_end"]]
    print(f"{names[0]} -> {names[-1]}, {len(names)} files")
    print(f"{'metric':16} {'workload':16} {'seed':>4} {'files':>5} {'chained':>8}  raw")
    for e in trajectory(reports, metrics):
        print(f"{e['metric']:16} {e['workload']:16} {e['seed']:>4} {e['files']:>5} "
              f"{e['chained']:>8.3f}  {e['first_parent']:.6g} -> {e['last_change']:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
