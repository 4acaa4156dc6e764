"""Run perfbench on a parent checkout and a change checkout in alternating
pairs, and write every run's result line and provenance to one JSON file.

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload train-small query-long --seeds 1 2 3 --seconds 30 --out BENCH_14.json

Each checkout holds `perfbench/`, `src/` and `BENCHMARK.json`. For each
workload and seed both sides run once, each as
`python3 perfbench/run.py --workload W --seed S --seconds N --trace 0` in its
own checkout; the parent runs first in even-numbered pairs and the change in
odd-numbered ones, so drift of the host's speed does not favour one side.

Each run keeps perfbench's result line, and from its info line the
provenance (git sha, Python, numpy, BLAS, CPU count) and the evaluation
report. It keeps the run's raw samples too (`raw_s`: the set-up, epoch and
per-request times in seconds), which perfbench writes only to
`.perfbench-out/<workload>-seed<S>-trace0.json` in the checkout, so the
spread behind a median can be read from the file. It also keeps the git tree of `src/` when the checkout is a clean git
clone, so a run of an unmerged commit can be matched to the tree that was
merged. The file is rewritten after every pair.
It ends with a per-metric summary of the measured pairs: each side's median
and quartiles, the parent's interquartile range, in how many pairs the
change was better, by the direction BENCHMARK.json gives, and whether that
is a `gain` (see `gain`). A metric with a
`bound` there also gets a verdict: `worse` when the change's median is worse
than the parent's by more than the bound, `unresolved` when the parent's own
spread exceeds the bound and the change did not win every pair, else `ok`.
The run ends by printing that summary, one line per workload and metric.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path


def perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run: its result line, the provenance and the
    evaluation report from its info line, its raw samples from the run's
    JSON file, and its wall time."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    child = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if child.returncode != 0:
        raise RuntimeError(f"perfbench in {checkout} exited with {child.returncode}:\n"
                           f"{child.stderr[-2000:]}")
    *_, info, result = child.stdout.strip().splitlines()
    info = json.loads(info)["info"]
    written = checkout / ".perfbench-out" / f"{workload}-seed{seed}-trace0.json"
    return {"provenance": info["provenance"], "src_tree": src_tree(checkout),
            "quality": info.get("quality"), "wall_s": round(wall, 3),
            "result": json.loads(result),
            "raw_s": json.loads(written.read_text())["info"].get("raw_s")}


def src_tree(checkout: Path) -> str | None:
    """Git tree id of `src/` at HEAD, or None if the checkout is not a git
    clone or its `src/` differs from HEAD."""
    if not (checkout / ".git").exists():
        return None

    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)

    status, tree = git("status", "--porcelain", "--", "src"), git("rev-parse", "HEAD:src")
    if status.returncode or tree.returncode or status.stdout.strip():
        return None
    return tree.stdout.strip()


def quartiles(values: list[float]) -> tuple[float, float]:
    """(q1, q3), interpolated linearly between the sorted values (numpy's
    default percentile); one value is both quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _relative(delta: float, base: float) -> float:
    """delta / |base|; a nonzero delta over a zero base is ±inf."""
    if base:
        return delta / abs(base)
    return math.copysign(math.inf, delta) if delta else 0.0


def verdict(entry: dict, bound: float) -> dict:
    """`worse_by`, the relative difference of the medians with worse positive;
    `parent_spread`, the parent's IQR over its median; and the `verdict`:
    worse, unresolved or ok."""
    parent, change = entry["parent_median"], entry["change_median"]
    worse_by = _relative(change - parent if entry["better"] == "lower" else parent - change,
                         parent)
    spread = _relative(entry["parent_iqr"], entry["parent_median"])
    if worse_by > bound:
        result = "worse"
    elif spread > bound and entry["change_better_pairs"] < entry["pairs"]:
        result = "unresolved"
    else:
        result = "ok"
    return {"worse_by": worse_by, "parent_spread": spread, "verdict": result}


def gain(entry: dict) -> bool:
    """The rule for claiming a gain: the change is better in at least nine of
    every ten pairs (a tie is better for neither side), and its median beats
    the parent's by more than the parent's interquartile range."""
    sign = -1 if entry["better"] == "lower" else 1
    return (10 * entry["change_better_pairs"] >= 9 * entry["pairs"]
            and sign * (entry["change_median"] - entry["parent_median"]) > entry["parent_iqr"])


def summarize(pairs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per workload and metric: the median and quartiles of both sides over
    the pairs, the parent's interquartile range, the number of pairs in which
    the change was strictly better, and whether that makes a `gain`. A metric
    named in `bounds` also gets its `verdict` fields."""
    out: dict = {}
    for pair in pairs:
        for name in pair["parent"]["result"]["metrics"]:
            if name not in better:
                continue
            entry = out.setdefault(pair["workload"], {}).setdefault(
                name, {"better": better[name], "parent": [], "change": []})
            for side in ("parent", "change"):
                entry[side].append(pair[side]["result"]["metrics"][name]["value"])
    for metrics in out.values():
        for name, entry in metrics.items():
            sign = -1 if entry["better"] == "lower" else 1
            entry["change_better_pairs"] = sum(
                sign * (c - p) > 0 for p, c in zip(entry["parent"], entry["change"]))
            entry["pairs"] = len(entry["parent"])
            for side in ("parent", "change"):
                values = entry.pop(side)
                entry[f"{side}_median"] = statistics.median(values)
                entry[f"{side}_q1"], entry[f"{side}_q3"] = quartiles(values)
            entry["parent_iqr"] = entry["parent_q3"] - entry["parent_q1"]
            entry["gain"] = gain(entry)
            if name in bounds:
                entry.update(verdict(entry, bounds[name]))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="extend", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    doc = {"command": "python3 perfbench/run.py --workload W --seed S --seconds N --trace 0",
           "workloads": args.workload, "seeds": args.seeds, "seconds": args.seconds,
           "pairs": [], "summary": {}}
    for workload in args.workload:
        for seed in args.seeds:
            order = ("parent", "change") if len(doc["pairs"]) % 2 == 0 else ("change", "parent")
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = perfbench(getattr(args, side), workload, seed, args.seconds)
                print(f"{workload} seed {seed} {side}: "
                      + json.dumps(pair[side]["result"]["metrics"]), flush=True)
            doc["pairs"].append(pair)
            doc["summary"] = summarize(doc["pairs"], better, bounds)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for line in summary_lines(doc["summary"]):
        print(line)
    return 0


def summary_lines(summary: dict) -> list[str]:
    """One line per workload and metric: both medians, the pairs in which the
    change was better, `gain`, and the verdict of a bounded metric (else -)."""
    return [f"{workload} {name}: parent {e['parent_median']:.6g} change {e['change_median']:.6g}"
            f" better {e['change_better_pairs']}/{e['pairs']} gain {e['gain']}"
            f" verdict {e.get('verdict', '-')}"
            for workload, metrics in summary.items() for name, e in metrics.items()]


if __name__ == "__main__":
    sys.exit(main())
