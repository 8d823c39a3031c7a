"""The summary that scripts/bench_pairs.py writes per metric, on fixed
numbers: quartiles by the exclusive method, the pairs won, and each
layer's share of a traced run's self time."""

import importlib.util
import json
import os
import shlex
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_summary_of_fixed_runs():
    parent = [0.067409, 0.078568, 0.080154, 0.081362, 0.0754,
              0.075096, 0.081489, 0.076738, 0.07948, 0.077614]
    change = [0.06, 0.08, 0.07, 0.09, 0.07, 0.07, 0.07, 0.07, 0.08, 0.07]
    row = bench_pairs.summarize(parent, change, "lower")
    assert row["parent"] == {"median": 0.078091, "q1": 0.075324, "q3": 0.080456, "runs": parent}
    assert row["change"]["median"] == 0.07 and row["change"]["runs"] == change
    assert (row["change"]["q1"], row["change"]["q3"]) == (0.07, 0.08)
    assert row["change_better_in_pairs"] == "7/10"
    assert bench_pairs.summarize(parent, change, "higher")["change_better_in_pairs"] == "3/10"


def test_a_tie_is_not_a_win_and_one_run_is_its_own_spread():
    row = bench_pairs.summarize([2.0], [2.0], "lower")
    assert row["change_better_in_pairs"] == "0/1"
    assert row["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "runs": [2.0]}


def test_shares_cancel_a_host_speed_swing():
    # every layer twice as slow, as on a slower host: the same shares
    assert bench_pairs.shares({"syntax": 1.0, "cli": 3.0}) == {"syntax": 0.25, "cli": 0.75}
    assert bench_pairs.shares({"syntax": 2.0, "cli": 6.0}) == {"syntax": 0.25, "cli": 0.75}
    assert bench_pairs.shares({"syntax": 0.0}) == {"syntax": 0.0}


# A stand-in for bench/run.py: one end-to-end and one per-layer metric,
# and with --trace 1 the self time of each layer, as bench/run.py prints
# it; the change has a layer, errors, that the parent lacks.
_FAKE_RUN = '''import json, sys
WALL = {wall}
if sys.argv[sys.argv.index("--trace") + 1] == "1":
    print("  self time cli        %10.4f s" % 0.5)
    print("  self time syntax     %10.4f s" % (WALL / 4))
    if WALL < 2:
        print("  self time errors     %10.4f s" % 0.25)
print(json.dumps({{"correct": True, "failed": 0, "metrics": {{
    "wall_s": {{"value": WALL, "unit": "s"}},
    "syntax.parse_us": {{"value": WALL * 10, "unit": "us"}}}}}}))
'''


def test_the_parent_runs_from_its_commit_and_the_change_from_the_tree(tmp_path, monkeypatch):
    """End to end on a scratch repository: the parent's runs come from the
    committed bench/run.py, the change's from an export of the files as
    they stand, tracked or untracked, less the ignored and deleted ones;
    both exports are removed afterwards."""
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    (tmp_path / "bench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower"}],
        "per_layer": [{"name": "syntax.parse_us", "unit": "us", "better": "lower"}]}))
    (tmp_path / "bench" / "run.py").write_text(_FAKE_RUN.format(wall=2.0))
    (tmp_path / ".gitignore").write_text("/leftovers/\n")
    (tmp_path / "gone.txt").write_text("deleted in the checkout\n")
    for cmd in (["init", "-q"], ["add", "."], ["commit", "-q", "-m", "parent"]):
        subprocess.run(git + cmd, cwd=tmp_path, check=True, capture_output=True)
    (tmp_path / "bench" / "run.py").write_text(_FAKE_RUN.format(wall=1.0))
    (tmp_path / "gone.txt").unlink()
    (tmp_path / "new.txt").write_text("untracked, not ignored\n")
    (tmp_path / "leftovers" / "run-1").mkdir(parents=True)
    (tmp_path / "leftovers" / "run-1" / "out.json").write_text("{}")
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    trees: dict[str, set[str]] = {}
    real_run_bench = bench_pairs.run_bench

    def spy(tree, *a):
        trees[tree] = {str(f.relative_to(tree)) for f in Path(tree).rglob("*") if f.is_file()}
        return real_run_bench(tree, *a)

    monkeypatch.setattr(bench_pairs, "run_bench", spy)

    assert bench_pairs.main(["--parent", "HEAD", "--label", "t", "--pairs", "3",
                             "--traced", "2"]) == 0

    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    (row,) = report["end_to_end"]
    assert row["parent"]["runs"] == [2.0] * 3 and row["change"]["runs"] == [1.0] * 3
    assert row["change_better_in_pairs"] == "3/3" and row["correct"] and row["failed"] == 0
    traced = {r["metric"]: (r["parent"], r["change"]) for r in report["per_layer"]}
    assert traced == {"syntax.parse_us": ([20.0] * 2, [10.0] * 2),
                      "self_s.syntax": ([0.5] * 2, [0.25] * 2),
                      "self_s.cli": ([0.5] * 2, [0.5] * 2),
                      "self_s.errors": ([0.0] * 2, [0.25] * 2),
                      "share.syntax": ([0.5] * 2, [0.25] * 2),
                      "share.cli": ([0.5] * 2, [0.5] * 2),
                      "share.errors": ([0.0] * 2, [0.25] * 2)}
    units = {r["metric"]: r["unit"] for r in report["per_layer"]}
    assert units["self_s.cli"] == "s" and units["share.cli"] == "ratio"
    parent, change = trees  # the parent runs first
    committed = {".gitignore", "BENCHMARK.json", "bench/run.py"}
    assert trees[parent] == committed | {"gone.txt"}
    assert trees[change] == committed | {"new.txt"}  # no leftovers/, no gone.txt
    assert str(tmp_path) not in trees and not any(map(os.path.exists, trees))


_ENV_RUN = '''import json, os, sys
cache = os.environ.get("PYTHONPYCACHEPREFIX")
print(json.dumps({"metrics": {}, "cache": cache, "prefix": sys.pycache_prefix,
                  "empty": os.path.isdir(cache) and not os.listdir(cache),
                  "no_writes": sys.dont_write_bytecode}))
'''


def test_each_run_compiles_with_its_own_empty_bytecode_cache(tmp_path):
    """No run reads bytecode: each gets a fresh, empty PYTHONPYCACHEPREFIX,
    removed afterwards, and writes none, so a `__pycache__` left in one
    tree cannot make its imports look cheaper than the other's."""
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(_ENV_RUN)
    runs = [bench_pairs.run_bench(str(tmp_path), "w", 0, 0) for _ in range(2)]
    for run in runs:
        assert run["prefix"] == run["cache"] and run["empty"] and run["no_writes"]
        assert not os.path.exists(run["cache"])
    assert runs[0]["cache"] != runs[1]["cache"]


# A stand-in for `python -m lt`: it logs its tree, its bytecode cache and
# its arguments to the file named by FAKE_LT_LOG; the parent's is slower.
_FAKE_LT = '''import json, os, sys, time
time.sleep({sleep})
print({out!r})
with open(os.environ["FAKE_LT_LOG"], "a") as fh:
    fh.write(json.dumps([{side!r}, os.environ["PYTHONPYCACHEPREFIX"], sys.dont_write_bytecode,
                         sys.argv[1:]]) + "\\n")
'''


def test_process_rows_time_fresh_processes_on_warmed_caches(tmp_path, monkeypatch):
    """--process N: each fixed command runs as N fresh `python -m lt`
    processes per side from that side's sources, alternating which side
    runs first, after one run per side that warms the side's own bytecode
    cache; each command gets one ungated row."""
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    (tmp_path / "src" / "lt").mkdir(parents=True)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [], "per_layer": []}))
    main_py = tmp_path / "src" / "lt" / "__main__.py"
    main_py.write_text(_FAKE_LT.format(sleep=0.05, side="parent", out="verdict"))
    for cmd in (["init", "-q"], ["add", "."], ["commit", "-q", "-m", "parent"]):
        subprocess.run(git + cmd, cwd=tmp_path, check=True, capture_output=True)
    main_py.write_text(_FAKE_LT.format(sleep=0.0, side="change", out="verdict"))
    log = tmp_path / "log.jsonl"
    monkeypatch.setenv("FAKE_LT_LOG", str(log))
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))

    assert bench_pairs.main(["--parent", "HEAD", "--label", "t", "--workloads",
                             "--process", "3"]) == 0

    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["end_to_end"] == [] and report["per_layer"] == []
    rows = report["process"]
    assert [r["command"] for r in rows] == [
        "lt " + " ".join(map(shlex.quote, argv)) for argv in bench_pairs.PROCESS_COMMANDS]
    for row in rows:
        assert (row["metric"], row["exit"], row["gated"], row["change_better_in_pairs"]) == (
            "process_wall_s", 0, False, "3/3")
        assert len(row["parent"]["runs"]) == len(row["change"]["runs"]) == 3
    runs = [json.loads(line) for line in log.read_text().splitlines()]
    sides = [side for side, *_ in runs]
    warm = bench_pairs.PROCESS_COMMANDS[0]
    assert [argv for *_, argv in runs[:2]] == [warm, warm]  # one warming run per side
    order = ["parent", "change", "change", "parent", "parent", "change"]
    assert sides == ["parent", "change"] + order * 2
    caches = {side: {cache for s, cache, _, _ in runs if s == side} for side in ("parent", "change")}
    assert all(len(c) == 1 for c in caches.values()) and caches["parent"] != caches["change"]
    assert not any(dont_write for _, _, dont_write, _ in runs)  # the warming run writes bytecode
    assert not any(map(os.path.exists, caches["parent"] | caches["change"]))
    # a side that prints another verdict is an error, not a row
    other = tmp_path / "other" / "src" / "lt"
    other.mkdir(parents=True)
    (other / "__main__.py").write_text(_FAKE_LT.format(sleep=0.0, side="other", out="other"))
    with pytest.raises(SystemExit, match="differ"):
        bench_pairs.process_rows(str(tmp_path), str(tmp_path / "other"), 1)
