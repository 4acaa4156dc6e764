import itertools
import json
import tracemalloc

import numpy as np
import pytest

from conftest import tiny_encoder_cfg
from seqcl import encoder as enc
from seqcl.data import SyntheticSpec, VideoRecord, generate_synthetic
from seqcl.errors import ConfigError, NumericError
from seqcl.eval import (
    EvalReport,
    ProbeConfig,
    ap_at_k,
    dtw_align,
    embed_dataset,
    evaluate,
    fit_classifier,
    fit_regressor,
    kendalls_tau,
    linear_probe_classification,
    linear_probe_progression,
    progression_targets,
    r_squared,
    retrieve_frames,
    write_pgm,
)
from seqcl.loss import cosine_similarities, softmax


# --- embedding ---


def _embedded_records(n=3, seed=0):
    cfg = tiny_encoder_cfg(D=6)
    params = enc.init_params(cfg, seed)
    rng = np.random.default_rng(seed)
    recs = [
        VideoRecord(id=f"v{i}", features=rng.standard_normal((10 + 3 * i, 6)).astype(np.float32))
        for i in range(n)
    ]
    return params, cfg, recs


def test_embed_rows_unit_norm_and_full_length():
    params, cfg, recs = _embedded_records()
    embs = embed_dataset(params, cfg, recs)
    for rec, emb in zip(recs, embs):
        assert emb.shape == (rec.num_frames, cfg.out_dim)
        assert np.abs(np.linalg.norm(emb, axis=1) - 1).max() < 1e-6


def test_embed_deterministic():
    params, cfg, recs = _embedded_records()
    a = embed_dataset(params, cfg, recs)
    b = embed_dataset(params, cfg, recs)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


# --- probes ---


def test_classification_probe_separable_data():
    rng = np.random.default_rng(0)
    protos = np.eye(3)
    y = rng.integers(0, 3, 200)
    X = protos[y] + rng.normal(0, 0.01, (200, 3))
    acc = linear_probe_classification(X[:150], y[:150], X[150:], y[150:])
    assert acc == 1.0


def test_classification_probe_chance_on_shuffled_labels():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((3000, 8))
    y = rng.integers(0, 4, 3000)  # labels independent of features
    acc = linear_probe_classification(X[:2500], y[:2500], X[2500:], y[2500:])
    assert abs(acc - 0.25) < 0.05


def test_classification_probe_single_class_rejected():
    X = np.random.default_rng(2).standard_normal((10, 3))
    with pytest.raises(ConfigError):
        linear_probe_classification(X, np.zeros(10, dtype=int), X, np.zeros(10, dtype=int))


def test_r_squared_identities():
    rng = np.random.default_rng(3)
    target = rng.standard_normal((30, 4))
    assert r_squared(target, target) == pytest.approx(1.0)
    mean_pred = np.tile(target.mean(axis=0), (30, 1))
    assert r_squared(mean_pred, target) == pytest.approx(0.0, abs=1e-12)


def test_r_squared_skips_constant_components():
    target = np.column_stack([np.ones(10), np.arange(10.0)])
    pred = np.column_stack([np.zeros(10), np.arange(10.0)])
    assert r_squared(pred, target) == pytest.approx(1.0)


def test_progression_probe_matches_normal_equations():
    rng = np.random.default_rng(4)
    n, d, k = 20, 4, 3
    X = rng.standard_normal((n, d))
    Y = rng.standard_normal((n, k))
    probe = ProbeConfig(steps=20000, lr=0.2)
    r2_gd = linear_probe_progression(X, Y, X, Y, probe)
    # closed-form least squares with intercept
    Xa = np.column_stack([X, np.ones(n)])
    W, *_ = np.linalg.lstsq(Xa, Y, rcond=None)
    r2_ls = r_squared(Xa @ W, Y)
    assert abs(r2_gd - r2_ls) < 1e-3


def reference_fit_linear(X, Y, probe, link=lambda logits: logits):
    """Per-frame full-batch gradient descent from zero on X @ W + b, whose loss
    has gradient (link(X @ W + b) - Y) / n wrt its outputs: the iterates that
    `fit_classifier` (softmax link, one-hot Y) and `fit_regressor` (identity
    link) must reproduce up to rounding."""
    n, d = X.shape
    W = np.zeros((d, Y.shape[1]))
    b = np.zeros(Y.shape[1])
    for _ in range(probe.steps):
        err = (link(X @ W + b) - Y) / n
        W -= probe.lr * (X.T @ err)
        b -= probe.lr * err.sum(axis=0)
    return W, b


def _probe_cases():
    rng = np.random.default_rng(30)
    X, y = rng.standard_normal((80, 6)), rng.integers(0, 3, 80)
    for steps in (1, 7, 500):
        yield pytest.param(X, y, steps, id=f"steps{steps}")
    yield pytest.param(X, np.array([0, 2, 5])[y], 500, id="labels025")
    # a constant and a duplicated column: the Gram matrix is singular
    yield pytest.param(np.column_stack((X, np.full(80, 0.7), X[:, 2])), y, 500, id="singular")
    yield pytest.param(rng.standard_normal((9, 14)), np.arange(9) % 3, 500, id="n_lt_d")


@pytest.mark.parametrize("X, y, steps", _probe_cases())
def test_probes_match_per_frame_reference(X, y, steps):
    rng = np.random.default_rng(31)
    probe = ProbeConfig(steps=steps)
    n, d = X.shape
    Y = rng.standard_normal((n, 3))
    test_X, test_y = rng.standard_normal((50, d)), rng.integers(0, 3, 50)
    test_Y = rng.standard_normal((50, 3))
    fits = [
        (fit_classifier(X, y, probe),
         reference_fit_linear(X, np.eye(y.max() + 1)[y], probe, softmax),
         linear_probe_classification(X, y, test_X, test_y, probe),
         lambda W, b: float(((test_X @ W + b).argmax(axis=1) == test_y).mean())),
        (fit_regressor(X, Y, probe),
         reference_fit_linear(X, Y, probe),
         linear_probe_progression(X, Y, test_X, test_Y, probe),
         lambda W, b: r_squared(test_X @ W + b, test_Y)),
    ]
    for (W, b), (W_ref, b_ref), metric, reference_metric in fits:
        assert W.shape == W_ref.shape and b.shape == b_ref.shape
        scale = np.abs(W_ref).max()
        assert scale > 0
        assert np.abs(W - W_ref).max() <= 1e-12 * scale
        assert np.abs(b - b_ref).max() <= 1e-12 * scale
        assert metric == pytest.approx(reference_metric(W_ref, b_ref), rel=0, abs=1e-12)


def test_progression_targets_shape_and_values():
    rec = VideoRecord(id="p", features=np.zeros((10, 2), dtype=np.float32),
                      phase_labels=[0] * 4 + [1] * 3 + [2] * 3)
    tgt = progression_targets(rec, 3)
    assert tgt.shape == (10, 3)
    # boundaries at frames 0, 4, 7; normalized by S=10
    assert tgt[0, 0] == 0.0
    assert tgt[5, 1] == pytest.approx((5 - 4) / 10)
    assert tgt[2, 2] == pytest.approx((2 - 7) / 10)


# --- Kendall's tau ---


def brute_force_tau(order2):
    n = len(order2)
    num = 0
    for u, v in itertools.combinations(range(n), 2):
        num += np.sign(order2[v] - order2[u])
    return num / (n * (n - 1) / 2)


def test_tau_identity_and_reversal():
    emb = np.random.default_rng(5).standard_normal((8, 4))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    assert kendalls_tau(emb, emb) == pytest.approx(1.0)
    assert kendalls_tau(emb, emb[::-1]) == pytest.approx(-1.0)


def test_tau_matches_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(200):
        t1, t2 = rng.integers(2, 8), rng.integers(2, 8)
        e1 = rng.standard_normal((t1, 5))
        e2 = rng.standard_normal((t2, 5))
        nn = [int(np.argmax([e1[u] @ e2[j] / np.linalg.norm(e1[u]) / np.linalg.norm(e2[j])
                             for j in range(t2)])) for u in range(t1)]
        assert kendalls_tau(e1, e2) == pytest.approx(brute_force_tau(nn))


def test_tau_row_blocks_match_brute_force():
    # signs are summed 128 rows at a time: one block, a full one plus 1-2 rows,
    # and three blocks; a 4-frame palette makes tied neighbours
    rng = np.random.default_rng(20)
    palette = rng.standard_normal((4, 5))
    for t1 in (128, 129, 130, 300):
        e1, e2 = rng.standard_normal((t1, 5)), palette[rng.integers(0, 4, 9)]
        nn = cosine_similarities(e1, e2).argmax(axis=1)
        assert kendalls_tau(e1, e2) == pytest.approx(brute_force_tau(nn), abs=1e-15)


def test_tau_requires_two_frames():
    with pytest.raises(ConfigError):
        kendalls_tau(np.ones((1, 3)), np.ones((4, 3)))


def test_tau_memory_is_the_cosine_matrix():
    # The (T1, T2) cosine matrix is 31 MiB here; a (T1, T1) sign matrix and its
    # triangle gather would add about 45 MiB on top of it.
    rng = np.random.default_rng(19)
    e1, e2 = rng.standard_normal((2000, 8)), rng.standard_normal((2037, 8))
    tracemalloc.start()
    try:
        tau = kendalls_tau(e1, e2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert -1 <= tau <= 1
    assert peak < 48 * 2**20


# --- AP@K ---


def test_ap_extremes():
    q = np.array([1.0, 0.0])
    cands = np.tile(q, (10, 1))
    assert ap_at_k(q, 1, cands, np.ones(10, dtype=int), (5,))[5][0] == 1.0
    assert ap_at_k(q, 1, cands, np.zeros(10, dtype=int), (5,))[5][0] == 0.0


def test_ap_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = rng.integers(5, 30)
        K = int(rng.integers(1, n + 1))
        q = rng.standard_normal(4)
        cands = rng.standard_normal((n, 4))
        labels = rng.integers(0, 3, n)
        scores = cands @ q / (np.linalg.norm(cands, axis=1) * np.linalg.norm(q))
        order = sorted(range(n), key=lambda i: (-scores[i], i))[:K]
        expected = np.mean([labels[i] == 1 for i in order])
        assert ap_at_k(q, 1, cands, labels, (K,))[K][0] == pytest.approx(expected)
    # Several query rows and several Ks in one call, half the time against
    # candidates drawn from a small palette of rows, so that scores tie exactly.
    palette = rng.standard_normal((3, 4))
    for _ in range(100):
        n, rows = int(rng.integers(5, 30)), int(rng.integers(1, 6))
        Ks = tuple(int(k) for k in rng.choice(np.arange(1, n + 1), size=3, replace=False))
        if rng.random() < 0.5:
            cands = palette[rng.integers(0, len(palette), n)]
        else:
            cands = rng.standard_normal((n, 4))
        queries = rng.standard_normal((rows, 4))
        q_labels, labels = rng.integers(0, 3, rows), rng.integers(0, 3, n)
        fractions = ap_at_k(queries, q_labels, cands, labels, Ks)
        assert sorted(fractions) == sorted(Ks)
        units = cands / np.linalg.norm(cands, axis=1, keepdims=True)
        for r, (q, label) in enumerate(zip(queries, q_labels)):
            scores = [float(u @ (q / np.linalg.norm(q))) for u in units]
            order = sorted(range(n), key=lambda i: (-scores[i], i))
            for K in Ks:
                assert fractions[K].shape == (rows,)
                assert fractions[K][r] == sum(labels[i] == label for i in order[:K]) / K


def test_ap_pool_too_small():
    with pytest.raises(ConfigError):
        ap_at_k(np.ones(3), 0, np.ones((2, 3)), np.zeros(2, dtype=int), (5,))


# --- retrieval ---


def test_retrieve_ranked_and_excludes_query_video():
    rng = np.random.default_rng(8)
    embs = {f"v{i}": rng.standard_normal((6, 4)) for i in range(3)}
    hits = retrieve_frames(embs["v0"][0], embs, "v0", K=5)
    assert len(hits) == 5
    assert all(vid != "v0" for vid, _, _ in hits)
    scores = [s for _, _, s in hits]
    assert scores == sorted(scores, reverse=True)


def test_retrieve_errors():
    embs = {"a": np.ones((2, 3)), "b": np.ones((2, 3))}
    with pytest.raises(ConfigError):
        retrieve_frames(np.ones(3), embs, "a", K=5)  # pool of 2 < K
    with pytest.raises(ConfigError):
        retrieve_frames(np.ones(3), {"a": np.ones((2, 3))}, "a", K=1)


def test_retrieve_agrees_with_ap_at_k():
    rng = np.random.default_rng(9)
    embs = {"q": rng.standard_normal((1, 4)),
            "c": rng.standard_normal((20, 4))}
    labels = rng.integers(0, 2, 20)
    K = 5
    hits = retrieve_frames(embs["q"][0], embs, "q", K=K)
    frac = np.mean([labels[f] == 1 for _, f, _ in hits])
    assert ap_at_k(embs["q"][0], 1, embs["c"], labels, (K,))[K][0] == pytest.approx(frac)


# --- similarity matrix / DTW ---


def test_similarity_normalize_rules(tmp_path):
    rng = np.random.default_rng(10)
    a, b = rng.standard_normal((4, 3)), rng.standard_normal((5, 3))
    p = tmp_path / "heat.pgm"
    write_pgm(cosine_similarities(a, b), p)
    gray = np.frombuffer(p.read_bytes()[len(b"P5\n5 4\n255\n"):], dtype=np.uint8)
    assert gray.min() == 0 and gray.max() == 255
    write_pgm(cosine_similarities(np.ones((3, 2)), np.ones((3, 2))), p)
    assert p.read_bytes() == b"P5\n3 3\n255\n" + bytes(9)


def test_dtw_identical_sequences_diagonal():
    emb = np.eye(5)
    path, cost = dtw_align(cosine_similarities(emb, emb))
    assert path == [(i, i) for i in range(5)]
    assert cost == pytest.approx(0.0, abs=1e-12)


def test_dtw_single_row_visits_all_columns():
    sim = np.random.default_rng(11).random((1, 6))
    path, _ = dtw_align(sim)
    assert path == [(0, j) for j in range(6)]


def brute_force_dtw_cost(cost):
    t1, t2 = cost.shape
    best = [np.inf]

    def walk(i, j, acc):
        acc += cost[i, j]
        if acc >= best[0]:
            return
        if (i, j) == (t1 - 1, t2 - 1):
            best[0] = acc
            return
        if i + 1 < t1 and j + 1 < t2:
            walk(i + 1, j + 1, acc)
        if i + 1 < t1:
            walk(i + 1, j, acc)
        if j + 1 < t2:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def test_dtw_matches_enumeration():
    rng = np.random.default_rng(12)
    for _ in range(200):
        t1, t2 = rng.integers(1, 7), rng.integers(1, 7)
        sim = rng.random((t1, t2))
        path, cost = dtw_align(sim)
        assert cost == pytest.approx(brute_force_dtw_cost(1.0 - sim), abs=1e-12)
        # path validity
        assert path[0] == (0, 0) and path[-1] == (t1 - 1, t2 - 1)
        for (i1, j1), (i2, j2) in zip(path, path[1:]):
            assert (i2 - i1, j2 - j1) in {(1, 0), (0, 1), (1, 1)}


def reference_dtw(sim):
    """Cell-by-cell DTW: the recursion `dtw_align` must reproduce bit for bit."""
    t1, t2 = sim.shape
    cost = 1.0 - np.asarray(sim, dtype=np.float64)
    acc = np.full((t1, t2), np.inf)
    # predecessor: 0 diagonal, 1 vertical (i-1, j), 2 horizontal (i, j-1)
    prev = np.zeros((t1, t2), dtype=np.int8)
    acc[0, 0] = cost[0, 0]
    for j in range(1, t2):
        acc[0, j] = acc[0, j - 1] + cost[0, j]
        prev[0, j] = 2
    for i in range(1, t1):
        acc[i, 0] = acc[i - 1, 0] + cost[i, 0]
        prev[i, 0] = 1
    for i in range(1, t1):
        for j in range(1, t2):
            options = (acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])
            best = int(np.argmin(options))  # argmin keeps the preference order
            acc[i, j] = options[best] + cost[i, j]
            prev[i, j] = best

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


def _dtw_cases():
    rng = np.random.default_rng(14)
    for _ in range(40):  # rectangular, continuous scores
        yield rng.random((int(rng.integers(2, 61)), int(rng.integers(2, 91))))
    for n in (1, 2, 7, 40):  # a single row or column
        yield rng.random((1, n))
        yield rng.random((n, 1))
    for levels in (2, 3, 5):  # quantized scores: exact ties in most cells
        for _ in range(10):
            shape = (int(rng.integers(1, 61)), int(rng.integers(1, 91)))
            yield rng.integers(0, levels, shape) / (levels - 1)
    yield np.zeros((30, 45))  # every step ties everywhere
    yield np.asfortranarray(rng.random((17, 23)))
    for shape in ((150, 7), (7, 150), (2, 300), (300, 2)):  # tall and wide
        yield rng.random(shape)
    for cell in ((4, 6), (0, 0), (0, 9), (8, 0), (11, 14)):  # NaN inside, at the edges, last
        with_nan = rng.random((12, 15))
        with_nan[cell] = np.nan
        yield with_nan
    yield rng.random((20, 31)).astype(np.float32)
    yield rng.integers(-1, 2, (13, 17))


def test_dtw_equals_cell_by_cell_reference():
    for sim in _dtw_cases():
        path, cost = dtw_align(sim)
        ref_path, ref_cost = reference_dtw(sim)
        assert path == ref_path, sim.shape
        assert cost == ref_cost or (np.isnan(cost) and np.isnan(ref_cost)), sim.shape


def test_dtw_memory_is_one_byte_per_cell():
    # Beyond sim (31 MiB), the int8 predecessors are 3.9 MiB; float64 cost
    # and accumulated-cost matrices would add 62 MiB.
    rng = np.random.default_rng(15)
    sim = cosine_similarities(rng.standard_normal((2000, 32)), rng.standard_normal((2037, 32)))
    tracemalloc.start()
    try:
        path, _ = dtw_align(sim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path[-1] == (1999, 2036)
    assert peak < 8 * 2**20


# --- report-level ---


def test_report_range_validation():
    with pytest.raises(NumericError):
        EvalReport(classification_acc=1.5, progression_r2=0.5,
                   kendalls_tau=0.0, ap_at_k={5: 0.5})
    with pytest.raises(NumericError):
        EvalReport(classification_acc=0.5, progression_r2=float("nan"),
                   kendalls_tau=0.0, ap_at_k={5: 0.5})


def test_probe_config_validation():
    for bad in (dict(steps=0), dict(steps=5.0), dict(lr=0.0), dict(lr="0.1")):
        with pytest.raises(ConfigError):
            ProbeConfig(**bad)


def test_metrics_invariant_to_row_rescaling():
    rng = np.random.default_rng(13)
    e1 = rng.standard_normal((6, 4))
    e2 = rng.standard_normal((7, 4))
    scale1 = rng.uniform(0.1, 10, (6, 1))
    scale2 = rng.uniform(0.1, 10, (7, 1))
    assert abs(kendalls_tau(e1, e2) - kendalls_tau(e1 * scale1, e2 * scale2)) < 1e-9
    m1 = cosine_similarities(e1, e2)
    m2 = cosine_similarities(e1 * scale1, e2 * scale2)
    assert np.abs(m1 - m2).max() < 1e-9
    labels = rng.integers(0, 2, 7)
    assert (ap_at_k(e1[0], 1, e2, labels, (3,))[3]
            == ap_at_k(e1[0] * 5, 1, e2 * scale2, labels, (3,))[3])


def test_evaluate_full_report_on_zero_noise_synthetic():
    split = generate_synthetic(
        SyntheticSpec(num_videos=8, num_phases=3, feature_dim=6, min_len=15,
                      max_len=25, noise_std=0.0, seed=20)
    )
    cfg = tiny_encoder_cfg(D=6)
    params = enc.init_params(cfg, 0)
    report = evaluate(params, cfg, split, probe=ProbeConfig(steps=100), Ks=(5,))
    assert 0 <= report.classification_acc <= 1
    assert report.progression_r2 <= 1
    assert -1 <= report.kendalls_tau <= 1
    assert 0 <= report.ap_at_k[5] <= 1


def test_evaluate_ap_matches_per_frame_oracle(monkeypatch):
    """Unequal video lengths, a video with no same-action pool, and embeddings
    drawn from a small palette of rows, so most candidate scores tie exactly."""
    split = generate_synthetic(
        SyntheticSpec(num_videos=12, num_phases=3, feature_dim=6, min_len=18,
                      max_len=40, noise_std=0.1, seed=21)
    )
    for n, rec in enumerate(split.test):
        rec.action_label = int(n == 2)
    rng = np.random.default_rng(22)
    palette = rng.standard_normal((4, 5))
    palette /= np.linalg.norm(palette, axis=1, keepdims=True)
    fake = {rec.id: palette[rng.integers(0, len(palette), rec.num_frames)]
            for rec in split.train + split.test}
    monkeypatch.setattr("seqcl.eval.embed_dataset",
                        lambda params, cfg, records: [fake[r.id] for r in records])
    Ks = (1, 5, 15)
    cfg = tiny_encoder_cfg(D=6)
    report = evaluate(enc.init_params(cfg, 0), cfg, split, probe=ProbeConfig(steps=5), Ks=Ks)

    test = split.test
    assert len(test) == 3 and test[0].num_frames != test[1].num_frames
    for K in Ks:
        per_frame = []
        for i, rec in enumerate(test):
            pool = [(fake[o.id][t], o.phase_labels[t]) for j, o in enumerate(test)
                    if j != i and o.action_label == rec.action_label
                    for t in range(o.num_frames)]
            if not pool:
                continue
            for q, label in zip(fake[rec.id], rec.phase_labels):
                scores = [float(q @ c) for c, _ in pool]
                top = sorted(range(len(pool)), key=lambda c: (-scores[c], c))[:K]
                per_frame.append(sum(pool[c][1] == label for c in top) / K)
        assert report.ap_at_k[K] == float(np.mean(per_frame))


def test_evaluate_k_beyond_pool_is_config_error():
    split = generate_synthetic(
        SyntheticSpec(num_videos=8, num_phases=3, feature_dim=6, min_len=15,
                      max_len=25, noise_std=0.0, seed=20)
    )
    cfg = tiny_encoder_cfg(D=6)
    params = enc.init_params(cfg, 0)
    pool = min(r.num_frames for r in split.test)  # each of the two test videos pools the other
    with pytest.raises(ConfigError):
        evaluate(params, cfg, split, probe=ProbeConfig(steps=5), Ks=(5, pool + 1))
    with pytest.raises(ConfigError):
        evaluate(params, cfg, split, probe=ProbeConfig(steps=5), Ks=(0, 5))


def test_evaluate_reports_null_when_no_action_is_shared():
    split = generate_synthetic(
        SyntheticSpec(num_videos=12, num_phases=3, feature_dim=6, min_len=18,
                      max_len=40, noise_std=0.1, seed=21)
    )
    for n, rec in enumerate(split.test):
        rec.action_label = n
    cfg = tiny_encoder_cfg(D=6)
    params = enc.init_params(cfg, 0)
    report = evaluate(params, cfg, split, probe=ProbeConfig(steps=5), Ks=(1, 500))
    assert report.kendalls_tau is None and report.ap_at_k == {1: None, 500: None}
    payload = json.loads(report.to_json())
    assert payload["kendalls_tau"] is None and payload["ap_at_k"] == {"1": None, "500": None}
    with pytest.raises(ConfigError):  # K is checked even with no pool to rank
        evaluate(params, cfg, split, probe=ProbeConfig(steps=5), Ks=(0, 5))


def test_zero_norm_row_is_numeric_error():
    zero = np.zeros((2, 3))
    zero[0, 0] = 1.0
    with pytest.raises(NumericError):
        cosine_similarities(zero, np.ones((2, 3)))
    with pytest.raises(NumericError):
        kendalls_tau(zero, np.ones((2, 3)))
    with pytest.raises(NumericError):
        ap_at_k(np.ones(3), 0, zero, np.zeros(2, dtype=int), (1,))
    with pytest.raises(NumericError):
        retrieve_frames(np.ones(3), {"q": np.ones((1, 3)), "c": zero}, "q", K=1)


def reference_pgm(matrix):
    """The PGM bytes of `write_pgm`, scaled as one float64 matrix."""
    m = np.asarray(matrix, dtype=np.float64)
    lo, hi = m.min(), m.max()
    m = np.zeros_like(m) if hi == lo else (m - lo) / (hi - lo)
    gray = np.clip(m * 255.0, 0, 255).astype(np.uint8)
    return f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode("ascii") + gray.tobytes()


def test_write_pgm_row_blocks_match_one_matrix(tmp_path):
    rng = np.random.default_rng(16)
    p = tmp_path / "heat.pgm"
    for m in (rng.standard_normal((300, 7)), rng.standard_normal((7, 300)),
              rng.standard_normal((129, 40)).astype(np.float32),
              rng.integers(-3, 4, (65, 9)), np.full((70, 3), 0.25),
              np.asfortranarray(rng.random((100, 11)))):
        write_pgm(m, p)
        assert p.read_bytes() == reference_pgm(m), m.shape


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_write_pgm_rejects_non_finite(tmp_path, bad):
    m = np.random.default_rng(17).random((90, 5))
    m[70, 2] = bad
    with pytest.raises(NumericError, match="not finite"):
        write_pgm(m, tmp_path / "heat.pgm")


def test_write_pgm_memory_is_one_block(tmp_path):
    m = np.random.default_rng(18).random((2000, 2037))
    tracemalloc.start()
    try:
        write_pgm(m, tmp_path / "heat.pgm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_write_pgm(tmp_path):
    m = np.linspace(0, 1, 12).reshape(3, 4)
    p = tmp_path / "heat.pgm"
    write_pgm(m, p)
    blob = p.read_bytes()
    assert blob.startswith(b"P5\n4 3\n255\n")
    assert len(blob) == len(b"P5\n4 3\n255\n") + 12
