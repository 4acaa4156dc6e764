"""Sequence contrastive loss with a Gaussian prior over timestamp distance.

For frame i of view 1 the target distribution over view-2 frames is a
row-normalized Gaussian in the raw-timestamp gap; the loss is the
cross-entropy between that target and the softmax of temperature-scaled
cosine similarities, averaged over frames and summed over both directions.
Also provides the per-frame contrastive baseline whose only positive is the
timestamp-matched frame in the other view: the same cross-entropy with a
one-hot target.

All gradients here are analytic and exact (verified against central finite
differences in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, check_fields, rule


@dataclass
class SCLConfig:
    sigma2: float = rule(10.0, gt=0)
    tau: float = rule(0.1, gt=0)

    def __post_init__(self):
        check_fields(self)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along `axis`, shifted by the maximum for stability. Works in
    one new array: attention's score tensors are the largest in the encoder.
    `initial` leaves the max as it is, and numpy reduces short rows about
    twice as fast with it."""
    e = x - x.max(axis=axis, keepdims=True, initial=-np.inf)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def unit_rows(Z: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows of Z scaled to unit L2 norm, and the (rows, 1) norms. A zero row
    raises NumericError naming `name` and the first such row."""
    norms = np.linalg.norm(Z, axis=1, keepdims=True)
    bad = np.flatnonzero(norms == 0)
    if bad.size:
        raise NumericError(f"{name} row {bad[0]} has zero norm")
    return Z / norms, norms


def gaussian_weights(s1: np.ndarray, s2: np.ndarray, sigma2: float) -> np.ndarray:
    """Row-stochastic T1 x T2 matrix of normalized Gaussian timestamp weights.

    The Gaussian prefactor cancels in the row normalization and is omitted;
    rows are computed in log space for stability at small sigma2.
    """
    s1 = np.asarray(s1, dtype=np.float64)
    s2 = np.asarray(s2, dtype=np.float64)
    return softmax(-((s1[:, None] - s2[None, :]) ** 2) / (2.0 * sigma2), axis=1)


def cosine_similarities(Z1: np.ndarray, Z2: np.ndarray) -> np.ndarray:
    return unit_rows(Z1, "Z1")[0] @ unit_rows(Z2, "Z2")[0].T


def _contrastive(Z1, Z2, W, tau):
    """Cross-entropy from each target row of W (a distribution over the rows
    of Z2, or all zeros for no target) to the softmax of Z1's cosine
    similarities to Z2 over tau, averaged over the rows that carry a target.
    Returns the loss and its gradients wrt Z1 and Z2."""
    u, n1 = unit_rows(Z1, "Z1")
    v, n2 = unit_rows(Z2, "Z2")
    logits = u @ v.T / tau
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    has_target = W.any(axis=1, keepdims=True)
    n = int(has_target.sum())
    loss = -(W * logp).sum() / n
    # d loss / d cosine; the 0/1 mask keeps rows without a target out exactly
    grad_M = (np.exp(logp) * has_target - W) / (n * tau)
    du, dv = grad_M @ v, grad_M.T @ u
    g1 = (du - (du * u).sum(axis=1, keepdims=True) * u) / n1
    g2 = (dv - (dv * v).sum(axis=1, keepdims=True) * v) / n2
    return float(loss), (g1, g2)


def _both_directions(Z1, Z2, W12, W21, tau):
    """Z1 against Z2 under targets W12 plus Z2 against Z1 under W21."""
    l1, (g1a, g2a) = _contrastive(Z1, Z2, W12, tau)
    l2, (g2b, g1b) = _contrastive(Z2, Z1, W21, tau)
    return l1 + l2, (g1a + g1b, g2a + g2b)


def scl_one_direction(
    Z1: np.ndarray, Z2: np.ndarray, s1: np.ndarray, s2: np.ndarray, cfg: SCLConfig
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """One-direction loss (view 1 frames against view 2) and its gradients."""
    return _contrastive(Z1, Z2, gaussian_weights(s1, s2, cfg.sigma2), cfg.tau)


def scl_loss(
    Z1: np.ndarray, Z2: np.ndarray, s1: np.ndarray, s2: np.ndarray, cfg: SCLConfig
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Symmetric sequence contrastive loss: both directions summed."""
    W12 = gaussian_weights(s1, s2, cfg.sigma2)
    W21 = gaussian_weights(s2, s1, cfg.sigma2)
    return _both_directions(Z1, Z2, W12, W21, cfg.tau)


def timestamp_correspondence(s1: np.ndarray, s2: np.ndarray) -> list[tuple[int, int]]:
    """Pairs (i, j) of frames sharing the identical raw timestamp."""
    pos2 = {int(t): j for j, t in enumerate(s2)}
    return [(i, pos2[int(t)]) for i, t in enumerate(s1) if int(t) in pos2]


def baseline_contrastive_loss(
    Z1: np.ndarray,
    Z2: np.ndarray,
    correspondence: list[tuple[int, int]],
    tau: float,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Per-frame contrastive baseline: the positive of frame i is its
    timestamp-matched frame in the other view; all other frames of that view
    are negatives. Averaged over matched frames, both directions summed.

    This is the SCL cross-entropy with one-hot targets in place of the
    Gaussian rows, so the correspondence must be one-to-one.
    """
    if not correspondence:
        raise NumericError("empty correspondence: views share no timestamps")
    if tau <= 0:
        raise ConfigError(f"tau must be > 0, got {tau}")
    rows, cols = zip(*correspondence)
    if len(set(rows)) < len(rows) or len(set(cols)) < len(cols):
        raise ConfigError("correspondence must be one-to-one")
    W = np.zeros((Z1.shape[0], Z2.shape[0]))
    W[list(rows), list(cols)] = 1.0
    return _both_directions(Z1, Z2, W, W.T, tau)
