"""Evaluation of frozen frame-wise representations: linear-probe phase
classification, phase-progression R^2, Kendall's tau over nearest-neighbor
frame matches, AP@K retrieval, DTW alignment, and export of the DTW path and
the similarity heatmap."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import encoder as enc
from .data import DatasetSplit, VideoRecord
from .errors import ConfigError, NumericError
from .loss import cosine_similarities


@dataclass
class ProbeConfig:
    steps: int = 500
    lr: float = 0.1


@dataclass
class EvalReport:
    classification_acc: float
    progression_r2: float
    kendalls_tau: float
    ap_at_k: dict[int, float]

    def __post_init__(self):
        if not 0 <= self.classification_acc <= 1:
            raise NumericError(f"accuracy out of range: {self.classification_acc}")
        if self.progression_r2 > 1 + 1e-9:
            raise NumericError(f"R^2 above 1: {self.progression_r2}")
        if not -1 - 1e-9 <= self.kendalls_tau <= 1 + 1e-9:
            raise NumericError(f"tau out of range: {self.kendalls_tau}")
        for k, v in self.ap_at_k.items():
            if not 0 <= v <= 1:
                raise NumericError(f"AP@{k} out of range: {v}")

    def to_json(self) -> str:
        payload = {
            "classification_acc": self.classification_acc,
            "progression_r2": self.progression_r2,
            "kendalls_tau": self.kendalls_tau,
            "ap_at_k": {str(k): v for k, v in self.ap_at_k.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def embed_dataset(
    params: enc.EncoderParams, cfg: enc.EncoderConfig, records: list[VideoRecord]
) -> list[np.ndarray]:
    """Encode each full video in one eval-mode pass; rows L2-normalized."""
    out = []
    for rec in records:
        emb, _ = enc.forward(params, cfg, rec.features, train=False)
        norms = np.linalg.norm(emb.H, axis=1, keepdims=True)
        bad = np.flatnonzero(norms == 0)
        if bad.size:
            raise NumericError(f"video {rec.id!r}: embedding row {bad[0]} has zero norm")
        out.append(emb.H / norms)
    return out


# --- linear probes ---


def _softmax_rows(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def linear_probe_classification(
    train_X: np.ndarray,
    train_y: np.ndarray,
    test_X: np.ndarray,
    test_y: np.ndarray,
    probe: ProbeConfig = ProbeConfig(),
) -> float:
    """Multinomial logistic regression by full-batch gradient descent on the
    frozen embeddings; returns mean per-frame accuracy on the test frames."""
    classes = np.unique(train_y)
    if classes.size < 2:
        raise ConfigError("probe training data contains a single class")
    num_classes = int(classes.max()) + 1
    n, d = train_X.shape
    W = np.zeros((d, num_classes))
    b = np.zeros(num_classes)
    onehot = np.eye(num_classes)[train_y]
    for _ in range(probe.steps):
        p = _softmax_rows(train_X @ W + b)
        err = (p - onehot) / n
        W -= probe.lr * (train_X.T @ err)
        b -= probe.lr * err.sum(axis=0)
    pred = (test_X @ W + b).argmax(axis=1)
    return float((pred == test_y).mean())


def progression_targets(record: VideoRecord, num_phases: int) -> np.ndarray:
    """(S, P) matrix of signed distances (t - boundary_p) / S, one column per
    phase start boundary. Length-normalized so videos of different durations
    are comparable."""
    if record.phase_labels is None:
        raise ConfigError(f"record {record.id!r} has no phase labels")
    labels = np.asarray(record.phase_labels)
    s = labels.size
    boundaries = np.empty(num_phases)
    prev = 0
    for p in range(num_phases):
        idx = np.flatnonzero(labels == p)
        boundaries[p] = idx[0] if idx.size else prev
        prev = boundaries[p]
    t = np.arange(s)[:, None]
    return (t - boundaries[None, :]) / s


def r_squared(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean R^2 over target components; constant components are skipped."""
    scores = []
    for c in range(target.shape[1]):
        ss_tot = ((target[:, c] - target[:, c].mean()) ** 2).sum()
        if ss_tot == 0:
            continue
        ss_res = ((target[:, c] - pred[:, c]) ** 2).sum()
        scores.append(1.0 - ss_res / ss_tot)
    if not scores:
        raise NumericError("all progression target components are constant")
    return float(np.mean(scores))


def linear_probe_progression(
    train_X: np.ndarray,
    train_Y: np.ndarray,
    test_X: np.ndarray,
    test_Y: np.ndarray,
    probe: ProbeConfig = ProbeConfig(),
) -> float:
    """Linear least-squares regressor fit by gradient descent; average R^2
    over target components on the test frames."""
    n, d = train_X.shape
    k = train_Y.shape[1]
    W = np.zeros((d, k))
    b = np.zeros(k)
    for _ in range(probe.steps):
        err = (train_X @ W + b - train_Y) / n
        W -= probe.lr * (train_X.T @ err)
        b -= probe.lr * err.sum(axis=0)
    return r_squared(test_X @ W + b, test_Y)


# --- rank and retrieval metrics ---


def kendalls_tau(emb1: np.ndarray, emb2: np.ndarray) -> float:
    """Rank correlation between frame order in video 1 and the order of its
    nearest-neighbor frames in video 2. Pairs whose neighbors tie contribute
    zero to the numerator; the denominator stays T1*(T1-1)/2."""
    t1 = emb1.shape[0]
    if t1 < 2:
        raise ConfigError(f"need at least 2 frames, got {t1}")
    # argmax breaks score ties toward the smaller index
    nn = cosine_similarities(emb1, emb2).argmax(axis=1)
    diff = np.sign(nn[None, :] - nn[:, None])
    upper = np.triu_indices(t1, k=1)
    return float(diff[upper].sum() / (t1 * (t1 - 1) / 2))


def _top_k(scores: np.ndarray, K: int) -> np.ndarray:
    """(rows, K) column indices of each row's K highest scores, best first.

    The order is that of a stable descending sort: equal scores rank by lower
    column index and NaN ranks last. A partition finds each row's K-th best
    score; a row where exactly K scores reach it needs only those K sorted,
    and any other row (a tie across the K-th place, or NaN) is fully sorted.
    """
    if K < 1:
        raise ConfigError(f"K must be >= 1, got {K}")
    rows, pool = scores.shape
    if pool < K:
        raise ConfigError(f"K={K} exceeds candidate pool of {pool} frames")
    keep = scores >= np.partition(scores, pool - K, axis=1)[:, [pool - K]]
    counts = keep.sum(axis=1)
    exact, other = np.flatnonzero(counts == K), np.flatnonzero(counts != K)
    top = np.empty((rows, K), dtype=np.intp)
    cols = np.nonzero(keep[exact])[1].reshape(-1, K)  # ascending within a row
    order = np.argsort(-scores[exact[:, None], cols], axis=1, kind="stable")
    top[exact] = np.take_along_axis(cols, order, axis=1)
    top[other] = np.argsort(-scores[other], axis=1, kind="stable")[:, :K]
    return top


def ap_at_k(
    query_emb: np.ndarray,
    query_label: int,
    candidate_embs: np.ndarray,
    candidate_labels: np.ndarray,
    K: int,
) -> float:
    """Fraction of the K nearest candidate frames sharing the query's label."""
    top = _top_k(cosine_similarities(query_emb[None, :], candidate_embs), K)[0]
    return float((np.asarray(candidate_labels)[top] == query_label).mean())


def retrieve_frames(
    query_emb: np.ndarray,
    dataset_embs: dict[str, np.ndarray],
    exclude_video: str,
    K: int,
) -> list[tuple[str, int, float]]:
    """Top-K (video_id, frame_index, score) over all other videos' frames."""
    ids, frames, pool = [], [], []
    for vid in dataset_embs:
        if vid == exclude_video:
            continue
        embs = dataset_embs[vid]
        ids.extend([vid] * embs.shape[0])
        frames.extend(range(embs.shape[0]))
        pool.append(embs)
    if not pool:
        raise ConfigError("empty candidate pool")
    scores = cosine_similarities(query_emb[None, :], np.concatenate(pool))
    return [(ids[i], frames[i], float(scores[0, i])) for i in _top_k(scores, K)[0]]


# --- alignment ---


def dtw_align(sim: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Minimal-cost monotone alignment path on cost 1 - sim with steps
    down/right/diagonal; ties prefer the diagonal, then the vertical step."""
    if sim.size == 0:
        raise ConfigError("empty similarity matrix")
    t1, t2 = sim.shape
    cost = 1.0 - np.asarray(sim, dtype=np.float64)
    acc = np.empty((t1, t2))
    # predecessor: 0 diagonal, 1 vertical (i-1, j), 2 horizontal (i, j-1)
    prev = np.zeros((t1, t2), dtype=np.int8)
    acc[0, :] = np.cumsum(cost[0, :])  # accumulate adds strictly left to right
    acc[:, 0] = np.cumsum(cost[:, 0])
    prev[0, 1:] = 2
    prev[1:, 0] = 1
    # Cells with i + j = d depend only on diagonals d-1 and d-2, so each
    # anti-diagonal is one vector step. In the row-major flat arrays its cells
    # are a slice with stride t2 - 1, and each predecessor is the same slice
    # shifted back by t2 + 1 (diagonal), t2 (vertical) or 1 (horizontal).
    acc_f, prev_f, cost_f = acc.reshape(-1), prev.reshape(-1), cost.reshape(-1)
    interior = range(2, t1 + t2 - 1) if t1 > 1 and t2 > 1 else ()
    for d in interior:
        first, last = max(1, d - t2 + 1), min(t1 - 1, d - 1)
        start, stop = first * t2 + d - first, last * t2 + d - last + 1
        options = np.stack([acc_f[start - back : stop - back : t2 - 1]
                            for back in (t2 + 1, t2, 1)])
        best = options.argmin(axis=0)  # first minimum keeps the preference order
        cells = slice(start, stop, t2 - 1)
        acc_f[cells] = np.take_along_axis(options, best[None], axis=0)[0] + cost_f[cells]
        prev_f[cells] = best

    path = [(t1 - 1, t2 - 1)]
    i, j = t1 - 1, t2 - 1
    while (i, j) != (0, 0):
        step = prev[i, j]
        if step == 0:
            i, j = i - 1, j - 1
        elif step == 1:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    path.reverse()
    return path, float(acc[t1 - 1, t2 - 1])


# --- dataset-level evaluation ---


def _pool_frames(records, embs, num_phases):
    X, y, Yprog = [], [], []
    for rec, emb in zip(records, embs):
        real = rec.real_frames if rec.real_frames is not None else rec.num_frames
        X.append(emb[:real])
        y.append(np.asarray(rec.phase_labels[:real]))
        Yprog.append(progression_targets(rec, num_phases)[:real])
    return np.concatenate(X), np.concatenate(y), np.concatenate(Yprog)


def _same_action(a: VideoRecord, b: VideoRecord) -> bool:
    return a.action_label == b.action_label


def evaluate(
    params: enc.EncoderParams,
    cfg: enc.EncoderConfig,
    dataset: DatasetSplit,
    probe: ProbeConfig = ProbeConfig(),
    Ks: tuple[int, ...] = (5, 10, 15),
) -> EvalReport:
    """All four metrics on a dataset split with frozen encoder parameters."""
    train_embs = embed_dataset(params, cfg, dataset.train)
    test_embs = embed_dataset(params, cfg, dataset.test)
    train_X, train_y, train_Y = _pool_frames(dataset.train, train_embs, dataset.num_phases)
    test_X, test_y, test_Y = _pool_frames(dataset.test, test_embs, dataset.num_phases)

    acc = linear_probe_classification(train_X, train_y, test_X, test_y, probe)
    r2 = linear_probe_progression(train_X, train_Y, test_X, test_Y, probe)

    taus = []
    for i, (rec_i, emb_i) in enumerate(zip(dataset.test, test_embs)):
        for j, (rec_j, emb_j) in enumerate(zip(dataset.test, test_embs)):
            if i != j and _same_action(rec_i, rec_j):
                taus.append(kendalls_tau(emb_i, emb_j))
    tau = float(np.mean(taus)) if taus else float("nan")

    # Every frame of a test video queries the frames of the other test videos
    # of its action; one ranking per frame serves every K.
    for K in Ks:
        if K < 1:
            raise ConfigError(f"K must be >= 1, got {K}")
    ap_frames: dict[int, list[np.ndarray]] = {K: [] for K in Ks}
    for i, rec in enumerate(dataset.test):
        pool = [j for j, other in enumerate(dataset.test) if j != i and _same_action(rec, other)]
        if not pool or not Ks:
            continue
        cands = np.concatenate([test_embs[j] for j in pool])
        labels = np.concatenate([np.asarray(dataset.test[j].phase_labels) for j in pool])
        top = _top_k(cosine_similarities(test_embs[i], cands), max(Ks))
        hits = labels[top] == np.asarray(rec.phase_labels)[:, None]
        for K in Ks:
            ap_frames[K].append(hits[:, :K].mean(axis=1))
    ap = {K: float(np.mean(np.concatenate(v))) if v else float("nan")
          for K, v in ap_frames.items()}

    return EvalReport(
        classification_acc=acc, progression_r2=r2, kendalls_tau=tau, ap_at_k=ap
    )


# --- artifact export ---


def write_pgm(matrix: np.ndarray, path: str | Path) -> None:
    """8-bit grayscale PGM (P5) of a finite matrix, min-max scaled to [0, 255];
    a constant matrix is all black."""
    m = np.asarray(matrix, dtype=np.float64)
    lo, hi = m.min(), m.max()
    m = np.zeros_like(m) if hi == lo else (m - lo) / (hi - lo)
    gray = np.clip(m * 255.0, 0, 255).astype(np.uint8)
    h, w = gray.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(gray.tobytes())


def write_path_csv(path_pairs: list[tuple[int, int]], path: str | Path) -> None:
    with open(path, "w") as f:
        f.write("i,j\n")
        for i, j in path_pairs:
            f.write(f"{i},{j}\n")
