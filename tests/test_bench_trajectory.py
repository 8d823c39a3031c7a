"""scripts/bench_trajectory.py: the five committed files from
BENCH_packedlanes.json to BENCH_runs.json give the chained ratios and raw
medians of ROADMAP.md's table for that stretch, and the files are read in
the order git added them."""

import importlib.util
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_trajectory.py"
spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
bench_trajectory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_trajectory)


def test_the_files_come_in_the_order_git_added_them(tmp_path):
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run(git + ["init", "-q"], cwd=tmp_path, check=True, capture_output=True)
    for label in ("zeta", "alpha", "mid"):  # added one commit each, not by name
        (tmp_path / f"BENCH_{label}.json").write_text("{}")
        for cmd in (["add", "."], ["commit", "-q", "-m", label]):
            subprocess.run(git + cmd, cwd=tmp_path, check=True, capture_output=True)
    (tmp_path / "BENCH_zeta.json").write_text('{"changed": 1}')  # a later change keeps its place
    for cmd in (["add", "."], ["commit", "-q", "-m", "change"]):
        subprocess.run(git + cmd, cwd=tmp_path, check=True, capture_output=True)
    (tmp_path / "BENCH_mid.json").unlink()  # deleted in the checkout: not read
    (tmp_path / "BENCH_new.json").write_text("{}")  # untracked: last, by name
    (tmp_path / "BENCH_beta.json").write_text("{}")
    assert bench_trajectory.added_order(str(tmp_path)) == [
        "BENCH_zeta.json", "BENCH_alpha.json", "BENCH_beta.json", "BENCH_new.json"]


def test_without_history_the_files_come_by_name(tmp_path):
    for label in ("zeta", "alpha"):
        (tmp_path / f"BENCH_{label}.json").write_text("{}")
    assert bench_trajectory.added_order(str(tmp_path)) == ["BENCH_alpha.json", "BENCH_zeta.json"]


def test_the_trajectory_reproduces_the_recent_table():
    names = ["packedlanes", "teamalgebra", "lifting", "argvtable", "runs"]
    reports = [json.loads((ROOT / f"BENCH_{name}.json").read_text()) for name in names]
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    rows = {(r["metric"], r["workload"], r["seed"]):
            [r["files"], f"{r['chained']:.3f}", f"{r['first_parent']:.6g}", f"{r['last_change']:.6g}"]
            for r in bench_trajectory.trajectory(reports, metrics)}
    want = {  # (metric, workload, seed): chained, raw first parent -> last change
        ("wall_s", "quick-mixed", 0): ["0.787", "1.79387", "1.41926"],
        ("wall_s", "quick-mixed", 1): ["0.802", "1.82881", "1.40804"],
        ("verdict_ms_p50", "quick-mixed", 0): ["0.751", "0.241646", "0.179392"],
        ("verdict_ms_p50", "quick-mixed", 1): ["0.759", "0.250056", "0.178128"],
        ("wall_s", "search-vars-n3", 0): ["0.702", "0.023229", "0.016727"],
        ("wall_s", "search-vars-n3", 1): ["0.652", "0.023839", "0.016869"],
        ("wall_s", "search-unary-n4", 0): ["0.766", "0.00797", "0.005505"],
        ("wall_s", "search-unary-n4", 1): ["0.725", "0.008053", "0.005598"],
    }
    for key, row in want.items():
        assert rows[key] == [5, *row], key
    assert len(rows) == 5 * 3 * 2  # every end-to-end metric, workload and seed


def test_a_file_without_a_row_is_skipped_for_it_and_bare_runs_count_by_median():
    def report(parent, change, workload="quick-mixed"):
        row = {"metric": "wall_s", "workload": workload, "seed": 0,
               "parent": {"median": parent}, "change": {"median": change}}
        return {"end_to_end": [row, {**row, "metric": "not_gated"}]}

    reports = [report(2.0, 1.5), report(1.6, 1.0, "search-vars-n3"), report(1.6, 0.8)]
    reports[2]["end_to_end"][0].update(parent=[1.0, 1.6, 2.0], change=[0.8])  # bare runs
    rows = bench_trajectory.trajectory(reports, ["setup_s", "wall_s"])
    assert [(r["workload"], r["files"], r["chained"], r["first_parent"], r["last_change"])
            for r in rows] == [("quick-mixed", 2, 0.375, 2.0, 0.8),
                               ("search-vars-n3", 1, 0.625, 1.6, 1.0)]
