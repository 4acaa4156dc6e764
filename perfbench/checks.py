"""Output checks. Each returns a list of problems; an operation with any
problem counts as failed."""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

from seqcl import data, encoder, eval as ev

ALIGN_LINE = re.compile(r"alignment cost (\S+), (\d+) steps")
RETRIEVE_LINE = re.compile(r"(\d+)\t(\S+)\tframe (\d+)\tscore (\S+)")


def reference_embeddings(data_dir, checkpoint) -> dict[str, np.ndarray]:
    """Unit-norm frame embeddings of every video under the checkpoint."""
    split = data.load_dataset(data_dir)
    cfg, params, _ = encoder.load_checkpoint(checkpoint)
    records = split.train + split.test
    return {r.id: e for r, e in zip(records, ev.embed_dataset(params, cfg, records))}


def check_fit(curve, csv_path, epochs: int) -> list[str]:
    problems = []
    if len(curve) != epochs:
        problems.append(f"fit returned {len(curve)} epochs, expected {epochs}")
    if not all(math.isfinite(loss) for _, loss, _ in curve):
        problems.append("non-finite training loss")
    with open(csv_path, newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != epochs or not all(math.isfinite(float(r["loss"])) for r in rows):
        problems.append(f"loss CSV has {len(rows)} rows or a non-finite loss")
    return problems


def check_report(stdout: str, first: dict | None) -> tuple[dict | None, list[str]]:
    """EvalReport fields in range, and identical to the first report of the run
    (same checkpoint and data, so evaluation must be deterministic)."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, [f"eval printed no report: {exc}"]
    problems = []
    acc, r2, tau = (report.get(k) for k in ("classification_acc", "progression_r2", "kendalls_tau"))
    ap = report.get("ap_at_k", {})
    if not (isinstance(acc, float) and 0 <= acc <= 1):
        problems.append(f"classification_acc out of range: {acc}")
    if not (isinstance(r2, float) and math.isfinite(r2) and r2 <= 1):
        problems.append(f"progression_r2 out of range: {r2}")
    if not (isinstance(tau, float) and -1 <= tau <= 1):
        problems.append(f"kendalls_tau out of range: {tau}")
    if "5" not in ap or not all(isinstance(v, float) and 0 <= v <= 1 for v in ap.values()):
        problems.append(f"ap_at_k out of range or missing K=5: {ap}")
    if first is not None and report != first:
        problems.append("eval report differs from the first one of the run")
    return report, problems


def check_align(stdout: str, csv_path, pgm_path, emb_a, emb_b) -> list[str]:
    """The path is monotone from (0,0) to (t1-1,t2-1) with unit steps, and the
    printed cost is the sum of 1 - cosine similarity along it."""
    found = ALIGN_LINE.search(stdout)
    if not found:
        return [f"align printed no cost line: {stdout!r}"]
    with open(csv_path) as f:
        rows = f.read().split()
    if rows[0] != "i,j":
        return ["path CSV has no i,j header"]
    path = np.array([[int(v) for v in row.split(",")] for row in rows[1:]])
    t1, t2 = emb_a.shape[0], emb_b.shape[0]
    problems = []
    if len(path) != int(found.group(2)):
        problems.append(f"path has {len(path)} steps, align printed {found.group(2)}")
    if tuple(path[0]) != (0, 0) or tuple(path[-1]) != (t1 - 1, t2 - 1):
        problems.append(f"path runs {tuple(path[0])} -> {tuple(path[-1])}, not to ({t1-1},{t2-1})")
    steps = {tuple(s) for s in np.diff(path, axis=0)}
    if not steps <= {(1, 1), (1, 0), (0, 1)}:
        problems.append(f"path has non-monotone steps {sorted(steps)}")
    if not problems:
        sim = emb_a[path[:, 0]] * emb_b[path[:, 1]]
        cost = float((1.0 - sim.sum(axis=1)).sum())
        if abs(cost - float(found.group(1))) > 1e-5 + 1e-9 * abs(cost):
            problems.append(f"align cost {found.group(1)} != path sum {cost:.6f}")
    with open(pgm_path, "rb") as f:
        if f.readline() != b"P5\n" or f.readline().split() != [str(t2).encode(), str(t1).encode()]:
            problems.append("heatmap PGM header does not match the two videos")
    return problems


def check_retrieve(stdout: str, K: int, query: str, frame: int, embs) -> list[str]:
    """K hits, scores non-increasing, none from the query video, and each score
    the cosine similarity of the named frame."""
    hits = [RETRIEVE_LINE.fullmatch(line) for line in stdout.strip().splitlines()]
    if len(hits) != K or not all(hits):
        return [f"retrieve printed {len(hits)} lines, expected {K} hits: {stdout!r}"]
    problems = []
    scores = [float(h.group(4)) for h in hits]
    if [int(h.group(1)) for h in hits] != list(range(1, K + 1)):
        problems.append("retrieve ranks are not 1..K")
    if any(b > a for a, b in zip(scores, scores[1:])):
        problems.append(f"retrieve scores increase: {scores}")
    q = embs[query][frame]
    for h, score in zip(hits, scores):
        vid, j = h.group(2), int(h.group(3))
        if vid == query:
            problems.append(f"retrieve returned a frame of the query video {query}")
        elif vid not in embs or not 0 <= j < embs[vid].shape[0]:
            problems.append(f"retrieve returned unknown frame {vid}:{j}")
        elif abs(float(q @ embs[vid][j]) - score) > 1e-5:
            problems.append(f"retrieve score {score} for {vid}:{j} is not its cosine similarity")
    return problems
