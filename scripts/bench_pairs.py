"""Paired benchmark runs: a parent commit against this checkout.

    python3 scripts/bench_pairs.py --parent REV --label NAME
        [--workloads W ...] [--seeds S ...] [--pairs N] [--traced N]
        [--process N] [--change TEXT]

For each workload and seed, runs `bench/run.py` N times in an export of
REV and N times in an export of this checkout, alternating which side
runs first, and writes BENCH_<NAME>.json at the root of this checkout.
Each end-to-end metric of BENCHMARK.json gets one row: the median,
quartiles and runs of each side, and in how many pairs the change read
better.  With --traced N, each per-layer metric, the self time of each
layer in the trace (`self_s.<layer>`) and its share of the run's total
traced self time (`share.<layer>`) get one row with the values of N
traced runs (`--trace 1`) per side, also alternating.  Traced times are
raw, so a swing in host speed moves every `self_s` row alike; it cancels
out of the shares.  With --process N, each of two fixed `lt` commands is
run as N fresh `python -m lt` processes per side, alternating, and its
wall time gets one ungated row (`process_wall_s`): what a user pays per
query, interpreter start-up included.  Each side's bytecode cache is
warmed by one run first, as a user's is after the first query.

The parent runs from a temporary export of the files committed at REV
(`git archive`), the change from a temporary export of this checkout's
files as they stand: the tracked ones and the untracked ones that git
does not ignore.  So neither side reads or writes next to what earlier
runs left in the checkout, and both are removed afterwards.  Every run
is made with PYTHONDONTWRITEBYTECODE=1 and its own fresh, empty
PYTHONPYCACHEPREFIX, so that no bytecode is read or written: every cold
import compiles its sources on both sides.  Nothing under bench/ is
read but its output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The commands of the --process rows: start-up with no search, and the
# first query of the search-unary-n4 stream at seed 0 (bench/gen.py).
PROCESS_COMMANDS = (
    ["entail", "--max-n", "0", "|- P0"],
    ["entail", "--max-n", "4", "|- (box dia dia ! P0 -> dia dia dia ! P0)"],
)


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """The row of one metric from runs taken in pairs: the median and
    quartiles (the exclusive method) of each side with its runs, and the
    number of pairs in which the change read better."""
    won = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    return {
        **{side: _spread(runs) for side, runs in (("parent", parent), ("change", change))},
        "change_better_in_pairs": f"{won}/{min(len(parent), len(change))}",
    }


def _spread(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": [round(r, 6) for r in runs]}


def shares(self_s: dict[str, float]) -> dict[str, float]:
    """Each layer's self time over the total self time of the run."""
    total = sum(self_s.values())
    return {layer: seconds / total if total else 0.0 for layer, seconds in self_s.items()}


def run_bench(tree: str, workload: str, seed: int, trace: int) -> dict:
    """One run of bench/run.py in a tree: its last line of output,
    with the self time of each layer that a traced run prints, and its
    share of the run's, added to its metrics as `self_s.<layer>` and
    `share.<layer>`."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", str(trace)]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": cache}
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.rstrip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench/run.py failed in {tree}:\n{done.stderr[-2000:]}")
    out = json.loads(lines[-1])
    self_s = {}
    for line in lines:
        if line.startswith("  self time "):
            layer, seconds = line.split()[2:4]
            self_s[layer] = float(seconds)
    for layer, share in shares(self_s).items():
        out["metrics"][f"self_s.{layer}"] = {"value": self_s[layer], "unit": "s"}
        out["metrics"][f"share.{layer}"] = {"value": share, "unit": "ratio"}
    return out


@contextmanager
def parent_tree(rev: str):
    """The files committed at `rev`, exported into a temporary directory
    that is removed afterwards."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tree:
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        yield tree


@contextmanager
def change_tree():
    """The checkout's files as they stand, tracked ones (less any deleted)
    and untracked ones that git does not ignore, exported into a temporary
    directory that is removed afterwards."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, check=True, capture_output=True, text=True).stdout
    with tempfile.TemporaryDirectory(prefix="bench-change-") as tree:
        for path in dict.fromkeys(filter(None, listed.split("\0"))):
            source = os.path.join(ROOT, path)
            if os.path.lexists(source):
                os.makedirs(os.path.dirname(os.path.join(tree, path)), exist_ok=True)
                shutil.copy2(source, os.path.join(tree, path), follow_symlinks=False)
        yield tree


def run_process(tree: str, argv: list[str], cache: str) -> tuple[float, int, str]:
    """One `python -m lt` process on a tree's sources, with its bytecode
    cache in `cache`: its wall time in seconds, exit status and stdout."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"), "PYTHONPYCACHEPREFIX": cache}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "lt", *argv], cwd=tree, env=env,
                          capture_output=True, text=True)
    return time.perf_counter() - started, done.returncode, done.stdout


def paired(parent: str, change: str, pairs: int, run, what: str):
    """`pairs` results of `run(tree)` per side, the parent first in even
    pairs: the two lists, in pair order."""
    out: dict[str, list] = {parent: [], change: []}
    for i in range(pairs):
        for tree in (parent, change) if i % 2 == 0 else (change, parent):
            out[tree].append(run(tree))
            print(f"{what} pair {i + 1}/{pairs} {'parent' if tree == parent else 'change'} done",
                  file=sys.stderr)
    return out[parent], out[change]


def process_rows(parent: str, change: str, pairs: int) -> list[dict]:
    """One ungated row per command of PROCESS_COMMANDS: its wall time as a
    fresh process, `pairs` per side, each side with its own bytecode cache
    warmed by one run before any is timed.  Every run of a command must
    give the same exit status and stdout."""
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as caches:
        cache = {parent: os.path.join(caches, "parent"), change: os.path.join(caches, "change")}
        for tree in (parent, change):
            run_process(tree, PROCESS_COMMANDS[0], cache[tree])
        rows = []
        for argv in PROCESS_COMMANDS:
            command = "lt " + shlex.join(argv)
            runs = paired(parent, change, pairs,
                          lambda tree: run_process(tree, argv, cache[tree]), command)
            outputs = {run[1:] for side in runs for run in side}
            if len(outputs) != 1:
                raise SystemExit(f"{command}: the runs differ in exit status or stdout")
            ((status, _),) = outputs
            times = [[run[0] for run in side] for side in runs]
            rows.append({"command": command, "exit": status, "metric": "process_wall_s",
                         "unit": "s", "better": "lower", "gated": False,
                         **summarize(*times, "lower")})
    return rows


def _rows(metrics: list[dict], key: dict, parent: list[dict], change: list[dict], traced: bool):
    rows = []
    for m in metrics:
        name = m["name"]
        values = [[run["metrics"][name]["value"] for run in side] for side in (parent, change)]
        row = {**key, "metric": name, "unit": m["unit"], "better": m["better"]}
        if traced:
            row.update(parent=[round(v, 6) for v in values[0]],
                       change=[round(v, 6) for v in values[1]])
        else:
            runs = parent + change
            row.update(summarize(values[0], values[1], m["better"]),
                       correct=all(r["correct"] for r in runs),
                       failed=sum(r["failed"] for r in runs))
        rows.append(row)
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the parent commit")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--workloads", nargs="*", default=["quick-mixed"])
    ap.add_argument("--seeds", nargs="+", type=int, default=[0])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--traced", type=int, default=0, help="traced runs per side, seed 0")
    ap.add_argument("--process", type=int, default=0,
                    help="fresh `python -m lt` processes per side and fixed command")
    ap.add_argument("--change", default="", help="one line on what the change does")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.traced < 0 or args.process < 0:
        ap.error("--pairs must be at least 1, and --traced and --process at least 0")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    end_to_end, per_layer, process = [], [], []
    with parent_tree(rev) as parent, change_tree() as change:
        if args.process:
            process = process_rows(parent, change, args.process)
        for workload in args.workloads:
            for seed in args.seeds:
                key = {"workload": workload, "seed": seed, "trace": 0}
                runs = paired(parent, change, args.pairs,
                              lambda tree: run_bench(tree, workload, seed, 0),
                              f"{workload} seed {seed} trace 0")
                end_to_end += _rows(benchmark["end_to_end"], key, *runs, traced=False)
            if args.traced:
                key = {"workload": workload, "seed": 0, "trace": 1}
                runs = paired(parent, change, args.traced,
                              lambda tree: run_bench(tree, workload, 0, 1),
                              f"{workload} seed 0 trace 1")
                layers = sorted({m for r in runs[0] + runs[1] for m in r["metrics"]
                                 if m.startswith(("self_s.", "share."))})
                self_times = [{"name": m, "unit": "s" if m.startswith("self_s.") else "ratio",
                               "better": "lower"} for m in layers]
                for run in runs[0] + runs[1]:  # a layer one side lacks took no time there
                    for m in self_times:
                        run["metrics"].setdefault(m["name"], {"value": 0.0, "unit": m["unit"]})
                per_layer += _rows(benchmark["per_layer"] + self_times, key, *runs, traced=True)
    report = {
        "label": args.label,
        "change": args.change,
        "parent": rev,
        "command": "python3 bench/run.py --workload <workload> --seed <seed> [--trace 1], "
                   "from the root of each tree",
        "machine": {"vcpus": os.cpu_count(), "python": platform.python_version(),
                    "note": "end-to-end times are scaled to the reference host by "
                            "bench/hostspeed.py, traced (per-layer) times are raw. "
                            "PYTHONDONTWRITEBYTECODE=1 and a fresh, empty PYTHONPYCACHEPREFIX "
                            "per run, so every cold import compiles its sources."},
        "method": f"scripts/bench_pairs.py: end-to-end rows, {args.pairs} pairs of parent and "
                  "change runs per workload and seed, alternating which runs first; median "
                  "and quartiles of each side, and in how many pairs the change read better; "
                  "`correct` over every run of both sides, `failed` summed over them. "
                  f"Per-layer rows: {args.traced} traced runs per side, alternating, each "
                  "value listed; `share.<layer>` is the layer's self time over the run's "
                  "total traced self time, so a host-speed swing cancels out of it. "
                  f"Process rows (ungated): {args.process} fresh `python -m lt` processes per "
                  "side and command, alternating, raw wall time, each side's bytecode cache "
                  "(PYTHONPYCACHEPREFIX) warmed by one run first; every run of a command gave "
                  "the row's exit status and the same stdout.",
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "process": process,
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
