"""Acceptance suite: one test per criterion, each prints a PASS line.

Criterion 5 trains two small encoders on the frozen synthetic benchmark
(63 videos, 5 phases, D=32, T=64, 100 epochs) and takes a few minutes of CPU;
everything else is fast. Thresholds for 5(a)/5(c) were calibrated with an
oracle run of this exact configuration before being pinned here.
"""

import json

import numpy as np
import pytest

from conftest import fd_param_grads, max_rel_err
from seqcl import encoder as enc
from seqcl.augment import AugmentConfig, crop_pair
from seqcl.cli import main
from seqcl.data import SyntheticSpec, generate_synthetic
from seqcl.errors import FormatError
from seqcl.eval import ProbeConfig, ap_at_k, dtw_align, evaluate, kendalls_tau
from seqcl.loss import SCLConfig, _contrastive, gaussian_weights, scl_loss
from seqcl.train import OptimConfig, fit
from test_eval import brute_force_dtw_cost, brute_force_tau


def report(n, desc):
    print(f"\n[ACCEPTANCE] criterion {n} ({desc}): PASS")


# ---------------------------------------------------------------- criterion 1


def _relu_margin(cache, params):
    """Smallest |preactivation| feeding a ReLU; a margin below the finite
    difference step's reach means the central difference crosses the kink and
    stops being a valid derivative estimate. The batch norms' outputs are
    rebuilt from their cached xhat, as `backward` does."""
    vals = [enc._scale_shift(cache[bn]["xhat"], params.tensors, f"proj.{bn}")
            for bn in ("bn1", "bn2")]
    vals += [cache["g1"]] + [lc["f1"] for lc in cache["layers"]]
    return min(float(np.abs(v).min()) for v in vals)


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0
    while checked < 20:
        T = int(rng.integers(2, 9))
        D = int(rng.integers(4, 17))
        cfg = enc.EncoderConfig(input_dim=D, model_dim=8, num_layers=1, num_heads=2,
                                ffn_dim=12, out_dim=6, proj_hidden=6, proj_out=4)
        params = enc.init_params(cfg, int(rng.integers(1 << 30)))
        x1 = rng.standard_normal((T, D))
        x2 = rng.standard_normal((T, D))
        s1 = np.sort(rng.choice(40, T, replace=False)).astype(float)
        s2 = np.sort(rng.choice(40, T, replace=False)).astype(float)
        scl = SCLConfig(sigma2=10.0, tau=0.1)

        def loss_of(p):
            e1, _ = enc.forward(p, cfg, x1[None], train=True)
            e2, _ = enc.forward(p, cfg, x2[None], train=True)
            return scl_loss(e1.Z[0], e2.Z[0], s1, s2, scl)[0]

        e1, c1 = enc.forward(params, cfg, x1[None], train=True)
        e2, c2 = enc.forward(params, cfg, x2[None], train=True)
        if min(_relu_margin(c1, params), _relu_margin(c2, params)) < 1e-3:
            continue  # redraw: the h=1e-5 probe would cross a ReLU kink
        _, (g1, g2) = scl_loss(e1.Z[0], e2.Z[0], s1, s2, scl)
        analytic = {name: np.zeros_like(t) for name, t in params.tensors.items()}
        enc.backward(params, cfg, c1, g1[None], analytic)
        enc.backward(params, cfg, c2, g2[None], analytic)
        numeric = fd_param_grads(loss_of, params, h=1e-5)
        worst = max(worst, max_rel_err(analytic, numeric))
        checked += 1
    assert worst < 1e-4, f"worst relative gradient error {worst}"
    report(1, f"full-encoder gradients vs finite differences, worst err {worst:.2e}")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_loss_identities():
    rng = np.random.default_rng(7)
    # uniform similarities
    for T in (2, 5, 11):
        z = np.tile(rng.standard_normal((1, 6)), (T, 1))
        s = np.sort(rng.uniform(0, 30, T))
        loss, _ = scl_loss(z, z, s, s, SCLConfig(sigma2=10.0, tau=0.1))
        assert abs(loss - 2 * np.log(T)) < 1e-9
    # cross-entropy >= entropy, i.e. KL >= 0, on 1000 random instances
    for _ in range(1000):
        T, d = int(rng.integers(2, 8)), int(rng.integers(2, 10))
        z1, z2 = rng.standard_normal((T, d)), rng.standard_normal((T, d))
        s1, s2 = np.sort(rng.uniform(0, 40, T)), np.sort(rng.uniform(0, 40, T))
        cfg = SCLConfig(sigma2=float(rng.choice([1.0, 10.0, 25.0])), tau=0.1)
        w = gaussian_weights(s1, s2, cfg.sigma2)
        loss, _ = _contrastive(z1, z2, w, cfg.tau)
        entropy = -np.where(w > 0, w * np.log(np.where(w > 0, w, 1.0)), 0.0).sum() / T
        assert loss - entropy >= -1e-9
    # row stochasticity across the sigma^2 grid
    for sigma2 in (1.0, 10.0, 25.0):
        for _ in range(100):
            w = gaussian_weights(rng.uniform(0, 100, 8), rng.uniform(0, 100, 6), sigma2)
            assert (w >= 0).all()
            assert np.abs(w.sum(axis=1) - 1).max() < 1e-9
    report(2, "uniform-similarity value, KL >= 0, row-stochastic Gaussian weights")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(11)
    for _ in range(200):  # DTW vs exhaustive enumeration
        t1, t2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        sim = rng.random((t1, t2))
        _, cost = dtw_align(sim)
        assert cost == pytest.approx(brute_force_dtw_cost(1.0 - sim), abs=1e-12)
    for _ in range(200):  # Kendall's tau vs brute force
        t1, t2 = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        e1, e2 = rng.standard_normal((t1, 4)), rng.standard_normal((t2, 4))
        u1 = e1 / np.linalg.norm(e1, axis=1, keepdims=True)
        u2 = e2 / np.linalg.norm(e2, axis=1, keepdims=True)
        nn = [int(np.argmax(u1[u] @ u2.T)) for u in range(t1)]
        assert kendalls_tau(e1, e2) == brute_force_tau(nn)
    for _ in range(200):  # AP@K vs brute-force sort
        n = int(rng.integers(3, 31))
        K = int(rng.integers(1, n + 1))
        q = rng.standard_normal(5)
        cands = rng.standard_normal((n, 5))
        labels = rng.integers(0, 3, n)
        scores = (cands / np.linalg.norm(cands, axis=1, keepdims=True)) @ (q / np.linalg.norm(q))
        top = sorted(range(n), key=lambda i: (-scores[i], i))[:K]
        expected = sum(labels[i] == 1 for i in top) / K
        assert ap_at_k(q, 1, cands, labels, (K,))[K][0] == expected
    report(3, "DTW / tau / AP@K match brute-force oracles exactly")


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_augmentation_constraints():
    rng = np.random.default_rng(13)
    T, S = 24, 60
    for alpha, beta in ((1.0, 0.2), (1.5, 0.2), (1.5, 1.0)):
        cfg = AugmentConfig(T=T, alpha=alpha, beta=beta)
        cap = min(int(alpha * T), S)
        for _ in range(10_000):
            w1, w2 = crop_pair(S, cfg, rng)
            for start, length in (w1, w2):
                assert T <= length <= cap
                assert 0 <= start and start + length <= S
            lo = max(w1[0], w2[0])
            hi = min(w1[0] + w1[1], w2[0] + w2[1])
            assert max(0, hi - lo) >= beta * min(w1[1], w2[1])
    report(4, "30k crop draws satisfy length and overlap constraints")


# ---------------------------------------------------------------- criterion 5

BENCH_SPEC = SyntheticSpec(num_videos=63, num_phases=5, feature_dim=32,
                           min_len=96, max_len=160, noise_std=0.3, seed=0)
BENCH_AUG = AugmentConfig(T=64, alpha=1.5, beta=0.2, jitter_std=0.1)
BENCH_ENC = enc.EncoderConfig(input_dim=32, model_dim=64, num_layers=2, num_heads=4,
                              ffn_dim=128, out_dim=32, proj_hidden=32, proj_out=32)
BENCH_SCL = SCLConfig(sigma2=10.0, tau=0.1)
BENCH_PROBE = ProbeConfig(steps=500, lr=0.1)


def _bench_optim(loss_kind):
    return OptimConfig(lr=1e-4, epochs=100, videos_per_batch=4, seed=0,
                       checkpoint_every=0, loss_kind=loss_kind)


@pytest.fixture(scope="module")
def benchmark_reports():
    split = generate_synthetic(BENCH_SPEC)
    assert len(split.train) == 50 and len(split.test) == 13
    reports = {}
    for kind in ("scl", "frame"):
        state, _ = fit(split, BENCH_AUG, BENCH_ENC, BENCH_SCL, _bench_optim(kind))
        reports[kind] = evaluate(state.params, BENCH_ENC, split, probe=BENCH_PROBE, Ks=(5,))
    random_params = enc.init_params(BENCH_ENC, seed=0)
    reports["random"] = evaluate(random_params, BENCH_ENC, split, probe=BENCH_PROBE, Ks=(5,))
    return reports


def test_criterion_5_synthetic_trend(benchmark_reports):
    scl = benchmark_reports["scl"]
    frame = benchmark_reports["frame"]
    random_init = benchmark_reports["random"]
    gap = scl.classification_acc - random_init.classification_acc
    assert gap >= 0.15, f"probe accuracy gap {gap:.3f} < 0.15"
    assert scl.kendalls_tau >= frame.kendalls_tau, (
        f"SCL tau {scl.kendalls_tau:.3f} < baseline tau {frame.kendalls_tau:.3f}"
    )
    assert scl.kendalls_tau >= 0.8, f"trained tau {scl.kendalls_tau:.3f} < 0.8"
    report(5, "trained vs random gap {:.1f} pts, SCL tau {:.3f} >= baseline {:.3f}".format(
        100 * gap, scl.kendalls_tau, frame.kendalls_tau))


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_determinism(tmp_path):
    cfg = {
        "seed": 17,
        "data": {"num_videos": 8, "num_phases": 3, "feature_dim": 8,
                 "min_len": 20, "max_len": 30, "noise_std": 0.3},
        "augment": {"T": 8, "alpha": 1.5, "beta": 0.5},
        "encoder": {"input_dim": 8, "model_dim": 16, "num_layers": 1, "num_heads": 2,
                    "ffn_dim": 32, "out_dim": 8, "proj_hidden": 8, "proj_out": 6},
        "optim": {"lr": 1e-3, "epochs": 3, "videos_per_batch": 4},
        "probe": {"steps": 50, "lr": 0.1},
        "data_dir": str(tmp_path / "data"),
        "checkpoint": str(tmp_path / "encoder.ckpt"),
        "report": str(tmp_path / "report.json"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    artifacts = []
    for _ in range(2):
        for cmd in ("gen-data", "train", "eval"):
            assert main([cmd, "--config", str(cfg_path)]) == 0
        artifacts.append(((tmp_path / "encoder.ckpt").read_bytes(),
                          (tmp_path / "report.json").read_bytes()))
    assert artifacts[0][0] == artifacts[1][0], "checkpoints differ between runs"
    assert artifacts[0][1] == artifacts[1][1], "reports differ between runs"
    report(6, "two pipeline runs produce byte-identical checkpoint and report")


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_format_golden(tmp_path):
    import struct

    from seqcl.data import VideoRecord, load_features, save_features

    # hand-constructed golden .fseq: 2x3 matrix of known values
    values = np.array([[1.0, -2.5, 3.25], [0.0, 7.5, -1.0]], dtype=np.float32)
    golden = b"FSEQ" + struct.pack("<III", 1, 2, 3) + values.tobytes()
    p = tmp_path / "golden.fseq"
    p.write_bytes(golden)
    rec = load_features(p)
    assert rec.features.tobytes() == values.tobytes()
    p2 = tmp_path / "roundtrip.fseq"
    save_features(rec, p2)
    assert p2.read_bytes() == golden

    # corrupted header rejected with the format error
    bad = tmp_path / "bad.fseq"
    bad.write_bytes(b"FSEX" + golden[4:])
    with pytest.raises(FormatError):
        load_features(bad)

    # checkpoint round trip is bit-exact
    cfg = enc.EncoderConfig(input_dim=4, model_dim=8, num_layers=1, num_heads=2,
                            ffn_dim=16, out_dim=4, proj_hidden=4, proj_out=3)
    params = enc.init_params(cfg, 99)
    c1, c2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    enc.save_checkpoint(c1, cfg, params)
    loaded_cfg, loaded, _ = enc.load_checkpoint(c1)
    enc.save_checkpoint(c2, loaded_cfg, loaded)
    assert c1.read_bytes() == c2.read_bytes()

    # corrupted checkpoint magic -> format error, and exit code 4 via the CLI
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(b"XKPT" + c1.read_bytes()[4:])
    with pytest.raises(FormatError):
        enc.load_checkpoint(broken)
    report(7, "golden file + checkpoint round-trip bit-exact, corruption rejected")
