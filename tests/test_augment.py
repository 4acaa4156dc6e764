import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcl.augment import (
    AugmentConfig,
    build_view_pair,
    crop_pair,
    feature_jitter,
    pad_if_short,
    sample_frames,
)
from seqcl.data import VideoRecord
from seqcl.errors import ConfigError, SeqclError


def make_record(s, d=4):
    return VideoRecord(id="v", features=np.arange(s * d, dtype=np.float32).reshape(s, d))


def test_pad_noop_when_long_enough():
    rec = make_record(300)
    assert pad_if_short(rec.features, 240) is rec.features


def test_pad_appends_zero_frames():
    rec = make_record(100)
    padded = pad_if_short(rec.features, 240)
    assert padded.shape == (240, 4) and padded.dtype == np.float32
    assert np.array_equal(padded[:100], rec.features)
    assert not padded[100:].any()


def test_build_view_pair_pads_a_short_video_with_zero_frames():
    # S < T: timestamps below S pick the record's frames, the rest the zero
    # frames appended after them
    S, T = 10, 16
    rec = make_record(S)
    x, ts = build_view_pair(rec, AugmentConfig(T=T), np.random.default_rng(8))
    assert x.shape == (2, T, 4) and ts.shape == (2, T)
    assert (np.diff(ts, axis=1) > 0).all() and ts.min() >= 0 and ts.max() < T
    real = ts < S
    assert np.array_equal(x[real], rec.features[ts[real]])
    assert not x[~real].any()


def test_crop_constraints_hold():
    cfg = AugmentConfig(T=24, alpha=1.5, beta=0.2)
    rng = np.random.default_rng(0)
    cap = min(int(1.5 * 24), 50)
    for _ in range(2000):
        w1, w2 = crop_pair(50, cfg, rng)
        for start, length in (w1, w2):
            assert 24 <= length <= cap
            assert 0 <= start and start + length <= 50
        lo = max(w1[0], w2[0])
        hi = min(w1[0] + w1[1], w2[0] + w2[1])
        assert (hi - lo) >= 0.2 * min(w1[1], w2[1])


def test_crop_alpha_one_fixes_length():
    cfg = AugmentConfig(T=16, alpha=1.0, beta=0.2)
    rng = np.random.default_rng(1)
    for _ in range(200):
        w1, w2 = crop_pair(40, cfg, rng)
        assert w1[1] == 16 and w2[1] == 16


def test_crop_beta_one_containment():
    cfg = AugmentConfig(T=16, alpha=1.5, beta=1.0)
    rng = np.random.default_rng(2)
    for _ in range(500):
        w1, w2 = crop_pair(60, cfg, rng)
        short, longer = sorted((w1, w2), key=lambda w: w[1])
        assert short[0] >= longer[0] and short[0] + short[1] <= longer[0] + longer[1]


def test_crop_requires_enough_frames():
    with pytest.raises(SeqclError):
        crop_pair(10, AugmentConfig(T=16), np.random.default_rng(0))


def test_sample_even_formula():
    # independent evaluation of round(start + k*(len-1)/(T-1))
    ts = sample_frames((0, 480), 240, "even", np.random.default_rng(0))
    expected = np.round(np.arange(240) * 479 / 239).astype(np.int64)
    assert np.array_equal(ts, expected)
    assert ts[0] == 0 and ts[-1] == 479
    ts2 = sample_frames((10, 25), 5, "even", np.random.default_rng(0))
    assert np.array_equal(ts2, 10 + np.round(np.arange(5) * 24 / 4).astype(np.int64))


def test_sample_random_forced_when_window_equals_T():
    ts = sample_frames((5, 12), 12, "random", np.random.default_rng(0))
    assert np.array_equal(ts, np.arange(5, 17))


def test_sample_strictly_increasing():
    rng = np.random.default_rng(3)
    for mode in ("random", "even"):
        for _ in range(100):
            ts = sample_frames((10, 37), 20, mode, rng)
            assert (np.diff(ts) > 0).all()
            assert ts[0] >= 10 and ts[-1] < 47


def test_sample_window_too_short():
    with pytest.raises(SeqclError):
        sample_frames((0, 5), 10, "random", np.random.default_rng(0))


def test_sample_inclusion_probability():
    # random mode: each window frame appears with probability T/L
    rng = np.random.default_rng(4)
    L, T, trials = 30, 10, 10000
    counts = np.zeros(L)
    for _ in range(trials):
        counts[sample_frames((0, L), T, "random", rng)] += 1
    p = T / L
    bound = 3 * np.sqrt(p * (1 - p) / trials)
    assert (np.abs(counts / trials - p) < bound + 0.01).all()


def test_jitter_identity_when_disabled():
    cfg = AugmentConfig(T=8, jitter_std=0.0, jitter_dropout=0.0)
    out = feature_jitter(np.ones((8, 6)), cfg, np.random.default_rng(0))
    assert np.array_equal(out, np.ones((8, 6)))


def test_jitter_dropout_one_rejected():
    with pytest.raises(ConfigError):
        AugmentConfig(T=8, jitter_dropout=1.0)


def test_jitter_dropout_fraction():
    cfg = AugmentConfig(T=4, jitter_dropout=0.5)
    rng = np.random.default_rng(5)
    zeroed = 0
    trials, d = 10000, 20
    for _ in range(trials):
        out = feature_jitter(np.ones((4, d)), cfg, rng)
        dead = (out == 0).all(axis=0)
        assert ((out == 0).all(axis=0) | (out == 1).all(axis=0)).all()
        zeroed += dead.sum()
    assert abs(zeroed / (trials * d) - 0.5) < 0.02


def test_build_view_pair_deterministic():
    rec = make_record(60)
    cfg = AugmentConfig(T=16, jitter_std=0.1, jitter_dropout=0.1)
    (xa, tsa), (xb, tsb) = (build_view_pair(rec, cfg, np.random.default_rng(9)) for _ in "ab")
    assert np.array_equal(xa, xb) and np.array_equal(tsa, tsb)


def test_view_features_are_the_float32_cast_of_float64_jitter():
    # the noise is drawn and added in float64 and the sum cast once, to the
    # record's float32; a cloned rng replays the draws of build_view_pair
    rec = VideoRecord(id="v", features=np.random.default_rng(6).standard_normal((60, 5)))
    cfg = AugmentConfig(T=16, jitter_std=0.1, jitter_dropout=0.2)
    rng = np.random.default_rng(7)
    clone = copy.deepcopy(rng)
    x, ts = build_view_pair(rec, cfg, rng)
    assert x.dtype == np.float32 and ts.dtype == np.int64
    for v, w in enumerate(crop_pair(rec.num_frames, cfg, clone)):
        s = sample_frames(w, cfg.T, cfg.sampling, clone)
        noisy = rec.features[s] + clone.normal(0.0, cfg.jitter_std, size=(cfg.T, 5))
        expected = (noisy * (clone.random(5) >= cfg.jitter_dropout)).astype(np.float32)
        assert np.array_equal(ts[v], s)
        assert np.array_equal(x[v], expected)


def test_build_view_pair_timestamps_inside_video():
    rec = make_record(60)
    cfg = AugmentConfig(T=16)
    rng = np.random.default_rng(10)
    for _ in range(50):
        x, ts = build_view_pair(rec, cfg, rng)
        assert ts.min() >= 0 and ts.max() < 60
        assert (np.diff(ts, axis=1) > 0).all()
        assert np.array_equal(x, rec.features[ts])


def test_views_sample_independently_inside_overlapping_windows():
    # with alpha=1 and beta=1 the windows coincide and sampling is forced, so
    # views can only differ when the crops may be longer than T
    rec = make_record(30)
    cfg = AugmentConfig(T=8, alpha=1.5, beta=1.0)
    rng = np.random.default_rng(11)
    differing = sum(
        not np.array_equal(*build_view_pair(rec, cfg, rng)[1]) for _ in range(50)
    )
    assert differing > 0


def test_forced_identical_views_at_alpha_one_beta_one():
    rec = make_record(16)
    cfg = AugmentConfig(T=8, alpha=1.0, beta=1.0)
    rng = np.random.default_rng(12)
    for _ in range(20):
        _, ts = build_view_pair(rec, cfg, rng)
        assert np.array_equal(ts[0], ts[1])


@settings(max_examples=50, deadline=None)
@given(
    S=st.integers(20, 200),
    T=st.integers(4, 20),
    alpha=st.floats(1.0, 2.0),
    beta=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
)
def test_crop_pair_property(S, T, alpha, beta, seed):
    if S < T:
        return
    cfg = AugmentConfig(T=T, alpha=alpha, beta=beta)
    w1, w2 = crop_pair(S, cfg, np.random.default_rng(seed))
    cap = min(int(alpha * T), S)
    for start, length in (w1, w2):
        assert T <= length <= cap
        assert 0 <= start and start + length <= S
    lo = max(w1[0], w2[0])
    hi = min(w1[0] + w1[1], w2[0] + w2[1])
    assert max(0, hi - lo) >= beta * min(w1[1], w2[1])
