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
from .errors import ConfigError, NumericError, check_fields, rule
from .loss import cosine_similarities, softmax, unit_rows


@dataclass
class ProbeConfig:
    steps: int = rule(500, ge=1)
    lr: float = rule(0.1, gt=0)

    def __post_init__(self):
        check_fields(self)


@dataclass
class EvalReport:
    """Metric values; accuracy is None when the train frames hold fewer than
    two phase labels, tau and AP@K when there was nothing to average."""

    classification_acc: float | None
    progression_r2: float
    kendalls_tau: float | None
    ap_at_k: dict[int, float | None]

    def __post_init__(self):
        if self.classification_acc is not None and not 0 <= self.classification_acc <= 1:
            raise NumericError(f"accuracy out of range: {self.classification_acc}")
        if not self.progression_r2 <= 1 + 1e-9:
            raise NumericError(f"R^2 above 1 or NaN: {self.progression_r2}")
        tau = self.kendalls_tau
        if tau is not None and not -1 - 1e-9 <= tau <= 1 + 1e-9:
            raise NumericError(f"tau out of range: {tau}")
        for k, v in self.ap_at_k.items():
            if k < 1:
                raise ConfigError(f"K must be >= 1, got {k}")
            if v is not None and not 0 <= v <= 1:
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
        emb, _ = enc.forward(params, cfg, rec.features[None], train=False)
        H = emb.H[0].astype(np.float64)  # metrics run in float64 whatever the encoder's dtype
        if not np.isfinite(H).all():  # float32 overflows for features near its range
            raise NumericError(f"video {rec.id!r}: embedding is not finite")
        out.append(unit_rows(H, f"video {rec.id!r}: embedding")[0])
    return out


# --- linear probes ---
# Each fit takes `probe.steps` full-batch gradient descent steps from zero on
# X @ W + b, as theta = [W; b] on Xa = [X, 1] (its transpose, for classes).


def fit_classifier(X: np.ndarray, y: np.ndarray, probe: ProbeConfig) -> tuple[np.ndarray, ...]:
    """(W, b) of multinomial logistic regression on labels 0..max(y), by GD on
    the mean softmax cross-entropy. Class-major: theta is (C, d+1) and the
    logits theta @ Xa^T are (C, n), so the softmax reduces elementwise across
    C contiguous rows instead of over n rows of length C."""
    n = X.shape[0]
    Xa = np.column_stack((X, np.ones(n)))
    XaT = np.ascontiguousarray(Xa.T)
    target = np.eye(int(y.max()) + 1)[:, y]
    theta = np.zeros((target.shape[0], Xa.shape[1]))
    for _ in range(probe.steps):
        err = softmax(theta @ XaT, axis=0)
        err -= target
        theta -= probe.lr / n * (err @ Xa)
    return theta[:, :-1].T, theta[:, -1]


def fit_regressor(X: np.ndarray, Y: np.ndarray, probe: ProbeConfig) -> tuple[np.ndarray, ...]:
    """(W, b) of least squares by GD on half the mean squared error. The step
    theta -= lr * Xa^T (Xa theta - Y) / n is theta -= lr * (G theta - c) with
    G = Xa^T Xa / n and c = Xa^T Y / n, so the n frames enter once and each
    step costs (d+1)^2 per target."""
    n = X.shape[0]
    Xa = np.column_stack((X, np.ones(n)))
    G = Xa.T @ Xa / n
    c = Xa.T @ Y / n
    theta = np.zeros((Xa.shape[1], Y.shape[1]))
    for _ in range(probe.steps):
        theta -= probe.lr * (G @ theta - c)
    return theta[:-1], theta[-1]


def linear_probe_classification(
    train_X: np.ndarray,
    train_y: np.ndarray,
    test_X: np.ndarray,
    test_y: np.ndarray,
    probe: ProbeConfig = ProbeConfig(),
) -> float:
    """Mean per-frame test accuracy of `fit_classifier` on the train frames."""
    if np.unique(train_y).size < 2:
        raise ConfigError("probe training data contains a single class")
    W, b = fit_classifier(train_X, train_y, probe)
    return float(((test_X @ W + b).argmax(axis=1) == test_y).mean())


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
    """Average test R^2 over target components of `fit_regressor` on the train
    frames."""
    W, b = fit_regressor(train_X, train_Y, probe)
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
    rows = 128  # sign(nn[j] - nn[i]) over j > i, summed 128 rows i at a time
    signs = sum(int(np.triu(np.sign(nn[lo + 1 :] - nn[lo : lo + rows, None])).sum())
                for lo in range(0, t1 - 1, rows))
    return float(signs / (t1 * (t1 - 1) / 2))


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
    query_embs: np.ndarray,
    query_labels: np.ndarray | int,
    candidate_embs: np.ndarray,
    candidate_labels: np.ndarray,
    Ks: tuple[int, ...],
) -> dict[int, np.ndarray]:
    """For each K, the fraction of each query frame's K nearest candidate
    frames that share its label. Queries are (Q, d) with Q labels, or one (d,)
    frame with one label; one ranking per query frame serves every K."""
    if not Ks:
        return {}
    if min(Ks) < 1:
        raise ConfigError(f"K must be >= 1, got {min(Ks)}")
    top = _top_k(cosine_similarities(np.atleast_2d(query_embs), candidate_embs), max(Ks))
    hits = np.asarray(candidate_labels)[top] == np.reshape(query_labels, (-1, 1))
    return {K: hits[:, :K].mean(axis=1) for K in Ks}


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
    down/right/diagonal; ties prefer the diagonal, then the vertical step.
    Each cell takes the first minimum of its (diagonal, vertical, horizontal)
    options, and a NaN option counts as the minimum, as `np.argmin` rules.

    Beyond `sim` (as float64), this holds the int8 predecessor of each cell
    and three length-t1 float64 buffers: the accumulated cost on anti-diagonals
    d-2, d-1 and d, indexed by row."""
    if sim.size == 0:
        raise ConfigError("empty similarity matrix")
    sim = np.ascontiguousarray(sim, dtype=np.float64)
    t1, t2 = sim.shape
    # predecessor: 0 diagonal, 1 vertical (i-1, j), 2 horizontal (i, j-1)
    prev = np.zeros((t1, t2), dtype=np.int8)
    prev[0, 1:] = 2
    prev[1:, 0] = 1
    top = np.cumsum(1.0 - sim[0, :])  # accumulate adds strictly left to right
    left = np.cumsum(1.0 - sim[:, 0])
    older, old, new = np.empty(t1), np.empty(t1), np.empty(t1)
    old[0] = top[0]
    # Cells with i + j = d depend only on diagonals d-1 and d-2, so each
    # anti-diagonal is one vector step. Cell (i, d - i) finds its diagonal and
    # vertical options in rows i-1 of diagonals d-2 and d-1, and its horizontal
    # option in row i of diagonal d-1. In the row-major flat arrays the
    # diagonal's interior cells are a slice with stride t2 - 1.
    sim_f, prev_f = sim.reshape(-1), prev.reshape(-1)
    for d in range(1, t1 + t2 - 1):
        first, last = max(1, d - t2 + 1), min(t1 - 1, d - 1)
        if first <= last:
            diag, vert, horiz = older[first - 1 : last], old[first - 1 : last], old[first : last + 1]
            start = first * t2 + d - first
            cells = slice(start, start + (last - first) * (t2 - 1) + 1, t2 - 1)
            # b replaces a when (a == a) & ~(b >= a): b is smaller, or the
            # first NaN. np.minimum yields the same value as that choice: it
            # keeps a NaN, and no cost 1.0 - s is -0.0, so equal options
            # have equal bits.
            take_vert = (diag == diag) & ~(vert >= diag)
            best = np.minimum(diag, vert, out=new[first : last + 1])
            take_horiz = (best == best) & ~(horiz >= best)
            np.minimum(best, horiz, out=best)
            best += 1.0 - sim_f[cells]
            take_vert &= ~take_horiz
            step = prev_f[cells]  # 2 * take_horiz + take_vert
            np.add(take_horiz, take_horiz, out=step, dtype=np.int8)
            step += take_vert
        if d < t2:
            new[0] = top[d]
        if d < t1:
            new[d] = left[d]
        older, old, new = old, new, older

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
    return path, float(old[t1 - 1])


# --- dataset-level evaluation ---


def _pool_frames(records, embs, num_phases):
    labels = [np.asarray(rec.phase_labels) for rec in records]
    progress = [progression_targets(rec, num_phases) for rec in records]
    return np.concatenate(embs), np.concatenate(labels), np.concatenate(progress)


def evaluate(
    params: enc.EncoderParams,
    cfg: enc.EncoderConfig,
    dataset: DatasetSplit,
    probe: ProbeConfig = ProbeConfig(),
    Ks: tuple[int, ...] = (5, 10, 15),
) -> EvalReport:
    """All four metrics on a dataset split with frozen encoder parameters.
    Accuracy is None when the train frames hold a single phase label, tau and
    AP@K when no two test videos share an action label."""
    train_embs = embed_dataset(params, cfg, dataset.train)
    test_embs = embed_dataset(params, cfg, dataset.test)
    train_X, train_y, train_Y = _pool_frames(dataset.train, train_embs, dataset.num_phases)
    test_X, test_y, test_Y = _pool_frames(dataset.test, test_embs, dataset.num_phases)

    acc = (linear_probe_classification(train_X, train_y, test_X, test_y, probe)
           if np.unique(train_y).size > 1 else None)
    r2 = linear_probe_progression(train_X, train_Y, test_X, test_Y, probe)

    # Each test video is compared with the other test videos of its action:
    # tau against each of them, AP@K with every frame querying all their frames.
    taus, ap_frames = [], []
    for i, (rec, emb) in enumerate(zip(dataset.test, test_embs)):
        pool = [j for j, other in enumerate(dataset.test)
                if j != i and other.action_label == rec.action_label]
        if not pool:
            continue
        taus.extend(kendalls_tau(emb, test_embs[j]) for j in pool)
        cands = np.concatenate([test_embs[j] for j in pool])
        labels = np.concatenate([dataset.test[j].phase_labels for j in pool])
        ap_frames.append(ap_at_k(emb, rec.phase_labels, cands, labels, Ks))
    tau = float(np.mean(taus)) if taus else None
    ap = {K: float(np.mean(np.concatenate([f[K] for f in ap_frames]))) if ap_frames else None
          for K in Ks}

    return EvalReport(
        classification_acc=acc, progression_r2=r2, kendalls_tau=tau, ap_at_k=ap
    )


# --- artifact export ---


def write_pgm(matrix: np.ndarray, path: str | Path) -> None:
    """8-bit grayscale PGM (P5) of a finite matrix, min-max scaled to [0, 255];
    a constant matrix is all black. Scales and writes 64 rows at a time, so
    it holds one float64 block of rows beyond the matrix."""
    m = np.asarray(matrix)
    h, w = m.shape
    lo, hi = np.float64(m.min()), np.float64(m.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NumericError(f"heatmap matrix is not finite: min {lo}, max {hi}")
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        rows = 64
        for top in range(0, h, rows):
            block = np.asarray(m[top : top + rows], dtype=np.float64)
            block = np.zeros_like(block) if hi == lo else (block - lo) / (hi - lo)
            f.write(np.clip(block * 255.0, 0, 255).astype(np.uint8).tobytes())


def write_path_csv(path_pairs: list[tuple[int, int]], path: str | Path) -> None:
    with open(path, "w") as f:
        f.write("i,j\n")
        for i, j in path_pairs:
            f.write(f"{i},{j}\n")
