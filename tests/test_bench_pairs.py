import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402

# A stand-in for perfbench/run.py: prints an info line and a result line whose
# metric values, and eval reports if given, come from files in its checkout,
# one run per entry, and writes
# the run's raw samples to its JSON file under .perfbench-out/.
STUB = '''
import json, sys
from pathlib import Path
values = Path("values.txt").read_text().split()
n = len(Path("runs.txt").read_text()) if Path("runs.txt").exists() else 0
Path("runs.txt").write_text("x" * (n + 1))
Path(".perfbench-out").mkdir(exist_ok=True)
Path(f".perfbench-out/{sys.argv[2]}-seed{sys.argv[4]}-trace0.json").write_text(json.dumps(
    {"info": {"raw_s": {"setup": [0.5, float(values[n])], "eval": [float(values[n])]}}}))
print("noise")
reports = Path("reports.txt").read_text().split() if Path("reports.txt").exists() else None
print(json.dumps({"info": {"seed": sys.argv[4], "provenance": {"git_sha": "abc", "nproc": 2},
                           "quality": {"acc": reports[n]} if reports else None}}))
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
    "eval_s": {"value": float(values[n]), "unit": "s"},
    "ops_ok_ratio": {"value": 1.0, "unit": "ratio"},
    "unlisted": {"value": 7.0, "unit": "s"}}}))
'''


def _checkout(root, values, reports=None):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB)
    (root / "values.txt").write_text(" ".join(map(str, values)))
    if reports:
        (root / "reports.txt").write_text(" ".join(reports))
    spec = {"end_to_end": [{"name": "eval_s", "better": "lower"},
                           {"name": "ops_ok_ratio", "better": "higher", "bound": 0.01}]}
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    return root


def test_pairs_alternate_and_summarize(tmp_path):
    parent = _checkout(tmp_path / "parent", [2.0, 2.0, 2.0])
    change = _checkout(tmp_path / "change", [1.0, 3.0, 1.5])
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workload", "w", "--seeds", "1", "2", "3",
                             "--seconds", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [p["first"] for p in doc["pairs"]] == ["parent", "change", "parent"]
    assert [p["seed"] for p in doc["pairs"]] == [1, 2, 3]
    first = doc["pairs"][0]["change"]
    assert first["provenance"] == {"git_sha": "abc", "nproc": 2}
    assert first["src_tree"] is None  # not a git work tree
    assert first["result"]["metrics"]["eval_s"]["value"] == 1.0
    assert first["raw_s"] == {"setup": [0.5, 1.0], "eval": [1.0]}
    assert [p[side]["raw_s"]["eval"] for p in doc["pairs"] for side in ("parent", "change")] == [
        [2.0], [1.0], [2.0], [3.0], [2.0], [1.5]]
    summary = doc["summary"]["w"]
    assert summary["eval_s"] == {"better": "lower", "change_better_pairs": 2, "pairs": 3,
                                 "parent_median": 2.0, "change_median": 1.5,
                                 "parent_q1": 2.0, "parent_q3": 2.0, "parent_iqr": 0.0,
                                 "change_q1": 1.25, "change_q3": 2.25, "gain": False}
    assert summary["ops_ok_ratio"]["change_better_pairs"] == 0
    assert summary["ops_ok_ratio"]["verdict"] == "ok"  # bounded; eval_s has none
    assert "unlisted" not in summary


def _pairs(values):
    """One workload's pairs from {metric: (parent values, change values)}."""
    def run(side, i):
        return {"result": {"metrics": {name: {"value": v[side][i]} for name, v in values.items()}}}

    n = len(next(iter(values.values()))[0])
    return [{"workload": "w", "parent": run(0, i), "change": run(1, i)} for i in range(n)]


def test_verdicts_of_bounded_metrics():
    values = {
        "ok": ([2.0, 2.0, 2.0], [2.1, 2.1, 2.1]),
        "worse": ([2.0, 2.0, 2.0], [3.0, 3.0, 3.0]),
        "noisy": ([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]),
        "noisy_but_always_better": ([1.0, 2.0, 3.0], [0.5, 1.5, 2.5]),
        "ratio": ([1.0, 1.0, 1.0], [0.9, 0.9, 0.9]),
        "unbounded": ([2.0, 2.0, 2.0], [9.0, 9.0, 9.0]),
    }
    better = dict.fromkeys(values, "lower") | {"ratio": "higher"}
    bounds = dict.fromkeys(values, 0.25) | {"ratio": 0.01}
    del bounds["unbounded"]
    summary = bench_pairs.summarize(_pairs(values), better, bounds)["w"]
    assert {name: e.get("verdict") for name, e in summary.items()} == {
        "ok": "ok", "worse": "worse", "noisy": "unresolved",
        "noisy_but_always_better": "ok", "ratio": "worse", "unbounded": None}
    assert summary["ok"]["worse_by"] == pytest.approx(0.05)
    assert summary["ok"]["parent_spread"] == 0.0
    assert summary["worse"]["worse_by"] == 0.5
    assert summary["noisy"]["worse_by"] == 0.0 and summary["noisy"]["parent_spread"] == 0.5
    assert summary["noisy_but_always_better"]["worse_by"] == -0.25
    assert summary["ratio"]["worse_by"] == pytest.approx(0.1)  # lower is worse here
    assert "worse_by" not in summary["unbounded"]


def test_gain_needs_nine_of_ten_pairs_and_a_median_beyond_the_parent_iqr():
    parent = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]  # IQR 0.9
    values = {
        # better in nine pairs, tied in one; medians 10.9 -> 9.4
        "won": (parent, [p - 1.5 for p in parent[:9]] + [parent[9]]),
        # the median moves as far, but the change is better in eight pairs only
        "noisy": (parent, [p - 1.5 for p in parent[:8]] + [p + 0.1 for p in parent[8:]]),
        # better in every pair, by less than the parent's IQR
        "too_small": (parent, [p - 0.5 for p in parent]),
        "won_higher": (parent, [p + 2.0 for p in parent]),
    }
    better = dict.fromkeys(values, "lower") | {"won_higher": "higher"}
    summary = bench_pairs.summarize(_pairs(values), better, {})["w"]
    assert summary["won"]["parent_iqr"] == pytest.approx(0.9)
    assert [summary[n]["change_better_pairs"] for n in values] == [9, 8, 10, 10]
    assert {n: e["gain"] for n, e in summary.items()} == {
        "won": True, "noisy": False, "too_small": False, "won_higher": True}


def test_workloads_after_one_flag_and_a_summary_line_each(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", [2.0] * 4, ["a"] * 4)
    change = _checkout(tmp_path / "change", [1.0, 3.0, 1.5, 1.0], ["a", "b", "a", "a"])
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workload", "w", "v", "--seeds", "1", "2",
                             "--seconds", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["workloads"] == ["w", "v"]
    assert [(p["workload"], p["seed"]) for p in doc["pairs"]] == [("w", 1), ("w", 2), ("v", 1), ("v", 2)]
    assert [p["change"]["raw_s"]["eval"] for p in doc["pairs"]] == [[1.0], [3.0], [1.5], [1.0]]
    assert [p["reports_equal"] for p in doc["pairs"]] == [True, False, True, True]
    assert doc["pairs"][1]["change"]["quality"] == {"acc": "b"}
    lines = capsys.readouterr().out.strip().splitlines()[-6:]
    assert lines == [
        "w eval_s: parent 2 change 2 better 1/2 gain False verdict -",
        "w ops_ok_ratio: parent 1 change 1 better 0/2 gain False verdict ok",
        "v eval_s: parent 2 change 1.25 better 2/2 gain True verdict -",
        "v ops_ok_ratio: parent 1 change 1 better 0/2 gain False verdict ok",
        "w: reports equal in 1/2 pairs",
        "v: reports equal in 2/2 pairs",
    ]
