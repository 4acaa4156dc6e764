"""Temporal view construction: paired overlapping crops, frame sampling, padding
and feature-space jitter.

Two views of a video are built independently: each is a contiguous crop of
length in [T, alpha*T] frames, the two crops are guaranteed to overlap by at
least a beta fraction of the shorter one, and T frames are sampled from each
crop (uniformly without replacement, or evenly spaced). Every sampled frame
keeps its raw-video timestamp; the contrastive loss consumes those timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import VideoRecord
from .errors import ConfigError, SeqclError, check_fields, rule

MAX_CROP_ATTEMPTS = 1000


@dataclass
class AugmentConfig:
    T: int = rule(240, ge=2)
    alpha: float = rule(1.5, ge=1)
    beta: float = rule(0.20, ge=0, le=1)
    sampling: str = rule("random", choices=("random", "even"))
    jitter_std: float = rule(0.0, ge=0)
    jitter_dropout: float = rule(0.0, ge=0, lt=1)

    def __post_init__(self):
        check_fields(self)


def pad_if_short(features: np.ndarray, T: int) -> np.ndarray:
    """Append zero frames until the (S, D) features have at least T frames."""
    s = features.shape[0]
    if s >= T:
        return features
    return np.concatenate([features, np.zeros((T - s, features.shape[1]), features.dtype)])


def _draw_window(S: int, T: int, alpha: float, rng: np.random.Generator) -> tuple[int, int]:
    max_len = min(int(alpha * T), S)
    length = int(rng.integers(T, max_len + 1))
    start = int(rng.integers(0, S - length + 1))
    return start, length


def _overlap(w1: tuple[int, int], w2: tuple[int, int]) -> int:
    lo = max(w1[0], w2[0])
    hi = min(w1[0] + w1[1], w2[0] + w2[1])
    return max(0, hi - lo)


def crop_pair(
    S: int, cfg: AugmentConfig, rng: np.random.Generator
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Draw two crop windows (start, length) with the overlap guarantee.

    Rejection-samples independent windows; after MAX_CROP_ATTEMPTS failures
    the second window is shifted toward the first until the constraint holds
    (always possible for S >= T, beta <= 1).
    """
    if S < cfg.T:
        raise SeqclError(f"cannot crop {cfg.T} frames from a {S}-frame video; pad first")

    def ok(w1, w2):
        return _overlap(w1, w2) >= cfg.beta * min(w1[1], w2[1])

    w1 = _draw_window(S, cfg.T, cfg.alpha, rng)
    w2 = _draw_window(S, cfg.T, cfg.alpha, rng)
    for _ in range(MAX_CROP_ATTEMPTS):
        if ok(w1, w2):
            return w1, w2
        w2 = _draw_window(S, cfg.T, cfg.alpha, rng)

    # constructive fallback: slide window2 one frame at a time toward window1
    start2, len2 = w2
    step = 1 if w1[0] > start2 else -1
    while not ok(w1, (start2, len2)):
        nxt = start2 + step
        if nxt < 0 or nxt + len2 > S:
            raise SeqclError("crop overlap constraint unsatisfiable")  # pragma: no cover
        start2 = nxt
    return w1, (start2, len2)


def sample_frames(
    window: tuple[int, int], T: int, mode: str, rng: np.random.Generator
) -> np.ndarray:
    """T strictly-increasing timestamps from a (start, length) window."""
    start, length = window
    if length < T:
        raise SeqclError(f"window of {length} frames cannot yield {T} samples")
    if mode == "random":
        ts = rng.choice(np.arange(start, start + length), size=T, replace=False)
        return np.sort(ts)
    if mode == "even":
        k = np.arange(T)
        return start + np.round(k * (length - 1) / (T - 1)).astype(np.int64)
    raise ConfigError(f"unknown sampling mode {mode!r}")


def feature_jitter(
    feats: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator
) -> np.ndarray:
    """Gaussian noise per entry plus a per-view feature-dimension dropout mask.

    One mask is shared by all frames of the view, so the corruption is
    temporally consistent. The noise is drawn and added in float64; the caller
    casts the result to the record's float32 on assignment.
    """
    if cfg.jitter_std > 0:
        feats = feats + rng.normal(0.0, cfg.jitter_std, size=feats.shape)
    if cfg.jitter_dropout > 0:
        keep = rng.random(feats.shape[1]) >= cfg.jitter_dropout
        feats = feats * keep
    return feats


def build_view_pair(
    record: VideoRecord, cfg: AugmentConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Two augmented views of a record: (2, T, D) features in the record's
    dtype and their (2, T) int64 raw-video timestamps, each row strictly
    increasing."""
    feats = pad_if_short(record.features, cfg.T)
    x = np.empty((2, cfg.T, feats.shape[1]), feats.dtype)
    ts = np.empty((2, cfg.T), np.int64)
    for v, w in enumerate(crop_pair(feats.shape[0], cfg, rng)):
        ts[v] = sample_frames(w, cfg.T, cfg.sampling, rng)
        x[v] = feature_jitter(feats[ts[v]], cfg, rng)
    return x, ts
