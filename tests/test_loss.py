import numpy as np
import pytest

from seqcl.errors import ConfigError, NumericError
from seqcl.loss import (
    SCLConfig,
    _contrastive,
    baseline_contrastive_loss,
    cosine_similarities,
    gaussian_weights,
    scl_loss,
    softmax,
)

# frozen with a 40-digit mpmath evaluation of the normalized Gaussian row
ROW_S10 = [0.32773226908211920749, 0.34453546183576158502, 0.32773226908211920749]


def test_gaussian_single_entry():
    assert gaussian_weights([0.0], [5.0], 10.0) == np.array([[1.0]])


def test_gaussian_known_row():
    w = gaussian_weights([0.0], [-1.0, 0.0, 1.0], 10.0)
    assert np.allclose(w[0], ROW_S10, atol=1e-12)


def test_gaussian_rows_stochastic():
    rng = np.random.default_rng(0)
    for sigma2 in (1.0, 10.0, 25.0):
        for _ in range(50):
            s1 = rng.uniform(0, 100, 9)
            s2 = rng.uniform(0, 100, 7)
            w = gaussian_weights(s1, s2, sigma2)
            assert (w >= 0).all()
            assert np.abs(w.sum(axis=1) - 1).max() < 1e-9


def test_gaussian_shift_invariance():
    s1 = np.array([3.0, 8.0, 20.0])
    s2 = np.array([1.0, 9.0, 15.0, 30.0])
    a = gaussian_weights(s1, s2, 10.0)
    b = gaussian_weights(s1 + 17.5, s2 + 17.5, 10.0)
    assert np.array_equal(a, b)


def test_gaussian_symmetric_row():
    w = gaussian_weights([5.0], [3.0, 5.0, 7.0], 4.0)
    assert w[0, 0] == w[0, 2]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("axis", [0, 1])
def test_softmax_in_place_is_bit_identical(dtype, axis):
    x = np.random.default_rng(5).standard_normal((4, 7)).astype(dtype) * 30
    x[1, 2] = x[3, 0] = x[2, 5] = x[3, 5] = -np.inf  # each gets weight 0
    expected = softmax(x, axis=axis)
    assert expected.dtype == dtype and (expected[np.isneginf(x)] == 0).all()
    out = np.empty_like(x)
    assert softmax(x, axis=axis, out=out) is out
    assert out.tobytes() == expected.tobytes()
    assert softmax(x, axis=axis, out=x) is x
    assert x.tobytes() == expected.tobytes()


def test_cosine_identity_and_sign():
    z = np.eye(3)
    assert np.allclose(cosine_similarities(z, z), np.eye(3))
    v = np.array([[1.0, 2.0, 3.0]])
    assert np.allclose(cosine_similarities(v, -v), [[-1.0]])


def test_cosine_scale_invariance():
    rng = np.random.default_rng(1)
    z1, z2 = rng.standard_normal((4, 5)), rng.standard_normal((6, 5))
    m = cosine_similarities(z1, z2)
    z1s = z1.copy()
    z1s[2] *= 7.0
    assert np.allclose(cosine_similarities(z1s, z2), m)


def test_cosine_zero_norm_rejected():
    z = np.zeros((2, 3))
    z[0] = 1.0
    with pytest.raises(NumericError, match="row 1"):
        cosine_similarities(z, np.ones((2, 3)))


def test_uniform_similarity_gives_log_T():
    # all rows identical -> every cosine equals 1 -> uniform softmax
    T = 9
    z = np.tile([[1.0, 2.0, 0.5]], (T, 1))
    s = np.arange(T, dtype=float)
    cfg = SCLConfig(sigma2=10.0, tau=0.1)
    l1, _ = _contrastive(z, z, gaussian_weights(s, s, cfg.sigma2), cfg.tau)
    assert abs(l1 - np.log(T)) < 1e-9
    total, _ = scl_loss(z, z, s, s, cfg)
    assert abs(total - 2 * np.log(T)) < 1e-9


def test_cross_entropy_decomposition():
    rng = np.random.default_rng(2)
    cfg = SCLConfig(sigma2=10.0, tau=0.1)
    for _ in range(200):
        T, d = 6, 8
        z1, z2 = rng.standard_normal((T, d)), rng.standard_normal((T, d))
        s1 = np.sort(rng.uniform(0, 50, T))
        s2 = np.sort(rng.uniform(0, 50, T))
        w = gaussian_weights(s1, s2, cfg.sigma2)
        loss, _ = _contrastive(z1, z2, w, cfg.tau)
        ent = -(w * np.log(w)).sum() / T
        assert loss - ent >= -1e-9  # mean KL(w || p) >= 0


def test_swap_symmetry():
    rng = np.random.default_rng(3)
    z1, z2 = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
    s1, s2 = np.arange(5.0), np.arange(5.0) + 2
    cfg = SCLConfig()
    a, _ = scl_loss(z1, z2, s1, s2, cfg)
    b, _ = scl_loss(z2, z1, s2, s1, cfg)
    assert abs(a - b) < 1e-12


def test_scl_scale_invariance():
    rng = np.random.default_rng(4)
    z1, z2 = rng.standard_normal((6, 5)), rng.standard_normal((6, 5))
    s = np.arange(6.0)
    cfg = SCLConfig()
    base, _ = scl_loss(z1, z2, s, s, cfg)
    z1s = z1 * rng.uniform(0.5, 10, (6, 1))
    scaled, _ = scl_loss(z1s, z2, s, s, cfg)
    assert abs(base - scaled) < 1e-9


def _fd_embedding_grads(fn, z, h=1e-6):
    g = np.zeros_like(z)
    for idx in np.ndindex(z.shape):
        zp = z.copy(); zp[idx] += h
        zm = z.copy(); zm[idx] -= h
        g[idx] = (fn(zp) - fn(zm)) / (2 * h)
    return g


@pytest.mark.parametrize("seed", range(5))
def test_scl_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    T, d = 6, 8
    z1, z2 = rng.standard_normal((T, d)), rng.standard_normal((T, d))
    s1 = np.sort(rng.choice(50, T, replace=False)).astype(float)
    s2 = np.sort(rng.choice(50, T, replace=False)).astype(float)
    cfg = SCLConfig(sigma2=10.0, tau=0.1)
    _, (g1, g2) = scl_loss(z1, z2, s1, s2, cfg)
    f1 = _fd_embedding_grads(lambda z: scl_loss(z, z2, s1, s2, cfg)[0], z1)
    f2 = _fd_embedding_grads(lambda z: scl_loss(z1, z, s1, s2, cfg)[0], z2)
    for a, f in ((g1, f1), (g2, f2)):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
        assert np.max(np.abs(a - f) / denom) < 1e-5


def test_config_validation():
    with pytest.raises(ConfigError):
        SCLConfig(sigma2=0.0)
    with pytest.raises(ConfigError):
        SCLConfig(tau=-0.1)
    with pytest.raises(ConfigError):
        SCLConfig(tau=float("nan"))


def test_baseline_closed_form():
    # identical orthonormal views at tau=0.1: positives score e^10 against T-1 at e^0
    for T in (4, 7):
        z, s = np.eye(T), np.arange(T)
        loss, _ = baseline_contrastive_loss(z, z, s, s, SCLConfig(tau=0.1))
        expected = -np.log(np.exp(10.0) / (np.exp(10.0) + (T - 1)))
        assert abs(loss - 2 * expected) < 1e-12  # both directions


def test_baseline_nonnegative_and_none_without_shared_timestamps():
    rng = np.random.default_rng(5)
    z1, z2 = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
    cfg = SCLConfig(tau=0.5)
    # frames 0 and 2 of view 1 match frames 0 and 3 of view 2
    loss, _ = baseline_contrastive_loss(z1, z2, [0, 1, 4, 5, 6], [0, 2, 3, 4, 7], cfg)
    assert loss >= 0
    assert baseline_contrastive_loss(z1, z2, np.arange(5), np.arange(5) + 5, cfg) is None


def test_baseline_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    z1, z2 = rng.standard_normal((6, 5)), rng.standard_normal((6, 5))
    # frames (0, 1), (2, 2) and (4, 5) share a timestamp
    s1, s2 = [10, 11, 12, 13, 14, 15], [1, 10, 12, 16, 17, 14]
    cfg = SCLConfig(tau=0.3)
    _, (g1, g2) = baseline_contrastive_loss(z1, z2, s1, s2, cfg)
    f1 = _fd_embedding_grads(lambda z: baseline_contrastive_loss(z, z2, s1, s2, cfg)[0], z1)
    f2 = _fd_embedding_grads(lambda z: baseline_contrastive_loss(z1, z, s1, s2, cfg)[0], z2)
    for a, f in ((g1, f1), (g2, f2)):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
        assert np.max(np.abs(a - f) / denom) < 1e-5


def test_baseline_is_small_sigma_limit_of_scl():
    # with exactly matching timestamps and sigma2 -> 0 the Gaussian rows become
    # one-hot and SCL reduces to the per-frame baseline
    rng = np.random.default_rng(7)
    T, d = 5, 4
    z1, z2 = rng.standard_normal((T, d)), rng.standard_normal((T, d))
    s = np.arange(T, dtype=float)
    scl, _ = scl_loss(z1, z2, s, s, SCLConfig(sigma2=1e-6, tau=0.1))
    base, _ = baseline_contrastive_loss(z1, z2, s, s, SCLConfig(tau=0.1))
    assert abs(scl - base) < 1e-6
