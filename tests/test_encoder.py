
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import fd_param_grads, max_rel_err, rewrite_config_blob, tiny_encoder_cfg
from seqcl import encoder as enc
from seqcl.errors import ConfigError, FormatError, SeqclError
from seqcl.loss import SCLConfig, scl_loss


def _zero_grads(params):
    return {name: np.zeros_like(t) for name, t in params.tensors.items()}


def _cast(params, dtype):
    return enc.EncoderParams(
        tensors={name: t.astype(dtype) for name, t in params.tensors.items()},
        buffers={name: b.astype(dtype) for name, b in params.buffers.items()},
    )


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_encoder_cfg(model_dim=15)  # not divisible by heads, odd
    with pytest.raises(ConfigError):
        tiny_encoder_cfg(num_layers=0)
    with pytest.raises(ConfigError):
        tiny_encoder_cfg(num_heads=2.0)


def test_odd_model_dim_error_names_the_value():
    with pytest.raises(ConfigError, match="model_dim must be even for sin/cos encoding, got 9"):
        tiny_encoder_cfg(model_dim=9, num_heads=3)


def test_init_deterministic_and_bounded():
    cfg = tiny_encoder_cfg()
    a = enc.init_params(cfg, seed=42)
    b = enc.init_params(cfg, seed=42)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])
    for name, (fan_in, _) in enc._affine_shapes(cfg).items():
        bound = np.sqrt(1.0 / fan_in)
        assert np.abs(a.tensors[f"{name}.W"]).max() <= bound
        assert np.abs(a.tensors[f"{name}.b"]).max() <= bound
    assert np.array_equal(a.tensors["proj.bn1.gamma"], np.ones(cfg.model_dim))
    assert not a.tensors["proj.bn1.beta"].any()


def test_different_seeds_differ():
    cfg = tiny_encoder_cfg()
    a = enc.init_params(cfg, seed=0)
    b = enc.init_params(cfg, seed=1)
    diff = total = 0
    for name, (fan_in, _) in enc._affine_shapes(cfg).items():
        w1, w2 = a.tensors[f"{name}.W"], b.tensors[f"{name}.W"]
        diff += (w1 != w2).sum()
        total += w1.size
    assert diff / total > 0.99


def test_positional_encoding_values():
    pe = enc.positional_encoding(5, 8)
    assert np.array_equal(pe[0, 0::2], np.zeros(4))
    assert np.array_equal(pe[0, 1::2], np.ones(4))
    assert abs(pe[1, 0] - 0.84147098480789650665) < 1e-15  # sin(1), mpmath
    assert np.abs(pe).max() <= 1.0
    with pytest.raises(ConfigError):
        enc.positional_encoding(5, 7)


def test_forward_single_frame_finite():
    cfg = tiny_encoder_cfg()
    params = enc.init_params(cfg, 0)
    emb, cache = enc.forward(params, cfg, np.random.default_rng(0).standard_normal((1, 8))[None],
                             train=True)
    assert emb.H.shape == (1, 1, cfg.out_dim) and emb.Z.shape == (1, 1, cfg.proj_out)
    assert np.isfinite(emb.H).all() and np.isfinite(emb.Z).all()
    for lc in cache["layers"]:
        for _, attn in enc._attn_blocks(lc["attn"]["qh"], lc["attn"]["kh"]):
            assert np.allclose(attn, 1.0)  # softmax over a single key


def test_attention_rows_are_probabilities():
    cfg = tiny_encoder_cfg(num_layers=2)
    params = enc.init_params(cfg, 1)
    _, cache = enc.forward(params, cfg, np.random.default_rng(2).standard_normal((7, 8))[None],
                           train=True)
    for lc in cache["layers"]:
        for _, attn in enc._attn_blocks(lc["attn"]["qh"], lc["attn"]["kh"]):
            assert np.abs(attn.sum(axis=-1) - 1).max() < 1e-6


def test_shape_mismatch_rejected():
    cfg = tiny_encoder_cfg()
    params = enc.init_params(cfg, 0)
    with pytest.raises(ConfigError):
        enc.forward(params, cfg, np.zeros((1, 4, 5)))


def test_sequence_length_independence():
    cfg = tiny_encoder_cfg()
    params = enc.init_params(cfg, 0)
    rng = np.random.default_rng(3)
    a, _ = enc.forward(params, cfg, rng.standard_normal((4, 8))[None])
    b, _ = enc.forward(params, cfg, rng.standard_normal((8, 8))[None])
    assert a.H.shape == (1, 4, cfg.out_dim) and b.H.shape == (1, 8, cfg.out_dim)


def test_permutation_equivariance_with_matched_pe(monkeypatch):
    cfg = tiny_encoder_cfg(num_layers=2)
    params = enc.init_params(cfg, 4)
    rng = np.random.default_rng(5)
    T = 9
    x = rng.standard_normal((T, cfg.input_dim))
    pe = enc.positional_encoding(T, cfg.model_dim)
    perm = rng.permutation(T)
    base, _ = enc.forward(params, cfg, x[None])
    monkeypatch.setattr(enc, "positional_encoding", lambda T, model_dim: pe[perm])
    permuted, _ = enc.forward(params, cfg, x[perm][None])
    assert np.allclose(permuted.H[0], base.H[0][perm], atol=1e-10)


def test_eval_mode_deterministic_after_training_forwards():
    cfg = tiny_encoder_cfg()
    params = enc.init_params(cfg, 6)
    x = np.random.default_rng(7).standard_normal((5, 8))
    enc.forward(params, cfg, x[None], train=True)  # mutate running stats
    a, _ = enc.forward(params, cfg, x[None], train=False)
    b, _ = enc.forward(params, cfg, x[None], train=False)
    assert np.array_equal(a.H, b.H) and np.array_equal(a.Z, b.Z)


def test_residual_wiring_smoke():
    # zeroed transformer sublayers must pass the projection+PE straight through
    cfg = tiny_encoder_cfg(num_layers=2)
    params = enc.init_params(cfg, 8)
    for name in list(params.tensors):
        if name.startswith("layer") and ".ln" not in name:
            params.tensors[name][...] = 0.0
    x = np.random.default_rng(9).standard_normal((6, 8))
    emb, cache = enc.forward(params, cfg, x[None], train=True)
    p = params.tensors
    z1 = x @ p["proj.fc1.W"] + p["proj.fc1.b"]
    bn1 = p["proj.bn1.gamma"] * (z1 - z1.mean(0)) / np.sqrt(z1.var(0) + enc.NORM_EPS)
    a1 = np.maximum(bn1 + p["proj.bn1.beta"], 0)
    z2 = a1 @ p["proj.fc2.W"] + p["proj.fc2.b"]
    bn2 = p["proj.bn2.gamma"] * (z2 - z2.mean(0)) / np.sqrt(z2.var(0) + enc.NORM_EPS)
    a2 = np.maximum(bn2 + p["proj.bn2.beta"], 0)
    expected = (a2 + enc.positional_encoding(6, cfg.model_dim)) @ p["out.W"] + p["out.b"]
    assert np.allclose(emb.H[0], expected, atol=1e-12)


def test_backward_zero_upstream_gives_zero_grads():
    cfg = tiny_encoder_cfg()
    params = enc.init_params(cfg, 10)
    emb, cache = enc.forward(params, cfg, np.random.default_rng(11).standard_normal((5, 8))[None],
                             train=True)
    grads = _zero_grads(params)
    enc.backward(params, cfg, cache, np.zeros_like(emb.Z), grads)
    assert all(not g.any() for g in grads.values())


def test_backward_requires_cache():
    cfg = tiny_encoder_cfg()
    params = enc.init_params(cfg, 0)
    with pytest.raises(SeqclError):
        enc.backward(params, cfg, {}, np.zeros((1, 3, cfg.proj_out)), _zero_grads(params))
    emb, cache = enc.forward(params, cfg, np.zeros((1, 3, 8)), train=False)
    with pytest.raises(SeqclError, match="train=True"):
        enc.backward(params, cfg, cache, np.zeros_like(emb.Z), _zero_grads(params))


@pytest.mark.parametrize("T", [128, 300])
def test_eval_attention_row_blocks_match_full_attention(monkeypatch, T):
    # T=300 runs blocks of 128, 128 and 44 rows; T <= ATTN_ROWS is one block.
    # Eval forwards block, and so do training forwards and their backward.
    cfg = tiny_encoder_cfg(num_layers=2)
    params = enc.init_params(cfg, 14)
    # move the batch-norm running statistics off their initial values
    enc.forward(params, cfg, np.random.default_rng(15).standard_normal((T, 8))[None], train=True)
    rng = np.random.default_rng(16)
    x = rng.standard_normal((T, 8))[None]
    pair = rng.standard_normal((2, T, 8))
    grad_Z = rng.standard_normal((2, T, cfg.proj_out))

    def run():
        evaluated, cache = enc.forward(params, cfg, x)
        assert cache == {}
        trained = _cast(params, np.float64)  # a copy, whose statistics training moves
        emb, cache = enc.forward(trained, cfg, pair, train=True)
        grads = _zero_grads(trained)
        enc.backward(trained, cfg, cache, grad_Z, grads)
        return evaluated, emb, trained.buffers, grads

    blocked = run()
    monkeypatch.setattr(enc, "ATTN_ROWS", T)
    full = run()
    tol = 0.0 if T <= 128 else 1e-12
    for b, f in zip(blocked[:2], full[:2]):
        assert np.abs(b.H - f.H).max() <= tol
        assert np.abs(b.Z - f.Z).max() <= tol
    for name in full[2]:
        assert np.array_equal(blocked[2][name], full[2][name]), name
    scale = max(np.abs(g).max() for g in full[3].values())
    for name in full[3]:
        assert np.abs(blocked[3][name] - full[3][name]).max() <= tol * scale, name


def test_long_video_eval_memory_bounded():
    # The query-long benchmark encoder at T=5000: full (heads, T, T) attention
    # would need about 2.4 GB; row blocks keep the peak under 128 MB.
    cfg = enc.EncoderConfig(input_dim=32, model_dim=64, num_layers=2, num_heads=4,
                            ffn_dim=128, out_dim=32, proj_hidden=32, proj_out=32)
    params = enc.init_params(cfg, 17)
    x = np.random.default_rng(18).standard_normal((5000, 32))[None]
    tracemalloc.start()
    try:
        emb, _ = enc.forward(params, cfg, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(emb.H).all()
    assert peak < 128 * 2**20


def test_backward_deterministic():
    cfg = tiny_encoder_cfg()
    params = enc.init_params(cfg, 12)
    x = np.random.default_rng(13).standard_normal((4, 8))
    emb, cache = enc.forward(params, cfg, x[None], train=True)
    g1, g2 = _zero_grads(params), _zero_grads(params)
    enc.backward(params, cfg, cache, np.ones_like(emb.Z), g1)
    enc.backward(params, cfg, cache, np.ones_like(emb.Z), g2)
    for name in g1:
        assert np.array_equal(g1[name], g2[name])


def _layers_id(num_layers):
    return "" if num_layers == 1 else f"-{num_layers}layers"


@pytest.mark.parametrize("seed,num_layers,views,rows", [
    *(pytest.param(seed, num_layers, 1, None, id=f"{seed}-True{_layers_id(num_layers)}")
      for num_layers in (1, 2) for seed in (0, 1)),
    *(pytest.param(2, num_layers, 2, None, id=f"pair-scl{_layers_id(num_layers)}")
      for num_layers in (1, 2)),
    *(pytest.param(2, num_layers, 2, 2, id=f"pair-scl{_layers_id(num_layers)}-rows2")
      for num_layers in (1, 2)),
])
def test_gradients_match_finite_differences(monkeypatch, seed, num_layers, views, rows):
    if rows:  # T=5 then runs query-row blocks of 2, 2 and 1
        monkeypatch.setattr(enc, "ATTN_ROWS", rows)
    cfg = tiny_encoder_cfg(D=6, model_dim=8, num_heads=2, ffn_dim=12, out_dim=5,
                           proj_hidden=5, proj_out=4, num_layers=num_layers)
    params = enc.init_params(cfg, seed)
    rng = np.random.default_rng(100 + seed)
    if views == 1:
        x = rng.standard_normal((5, 6))[None]
        w = rng.standard_normal((5, 4))  # fixed linear functional of Z

        def loss_and_grad(Z):
            return float((w * Z).sum() + 0.5 * (Z**2).sum()), w + Z
    else:  # two views of unequal content and timestamps through the SCL loss
        x = rng.standard_normal((2, 5, 6))
        s1, s2 = (np.sort(rng.choice(40, 5, replace=False)).astype(float) for _ in range(2))

        def loss_and_grad(Z):
            loss, (g1, g2) = scl_loss(*Z, s1, s2, SCLConfig(sigma2=10.0, tau=0.1))
            return loss, np.stack((g1, g2))

    emb, cache = enc.forward(params, cfg, x, train=True)
    analytic = _zero_grads(params)
    enc.backward(params, cfg, cache, loss_and_grad(emb.Z)[1], analytic)
    numeric = fd_param_grads(
        lambda p: loss_and_grad(enc.forward(p, cfg, x, train=True)[0].Z)[0], params, h=1e-5)
    assert max_rel_err(analytic, numeric) < 1e-4


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_batched_train_forward_matches_single_views(dtype):
    # one (3, T, D) call equals three N=1 calls bit for bit: outputs, running
    # statistics, and gradients added view by view in batch order
    cfg = tiny_encoder_cfg(num_layers=2)
    batched, single = (_cast(enc.init_params(cfg, 22), dtype) for _ in range(2))
    rng = np.random.default_rng(23)
    x = rng.standard_normal((3, 9, 8)).astype(dtype)
    grad_Z = rng.standard_normal((3, 9, cfg.proj_out)).astype(dtype)
    emb, cache = enc.forward(batched, cfg, x, train=True)
    grads, expected = _zero_grads(batched), _zero_grads(single)
    enc.backward(batched, cfg, cache, grad_Z, grads)
    for v in range(3):
        one, one_cache = enc.forward(single, cfg, x[v : v + 1], train=True)
        assert np.array_equal(one.H[0], emb.H[v]) and np.array_equal(one.Z[0], emb.Z[v])
        enc.backward(single, cfg, one_cache, grad_Z[v : v + 1], expected)
    for name in single.buffers:
        assert np.array_equal(batched.buffers[name], single.buffers[name]), name
    for name in expected:
        assert np.array_equal(grads[name], expected[name]), name


def _arrays(tree):
    """Every ndarray in a nest of dicts and lists, such as a forward cache."""
    if isinstance(tree, np.ndarray):
        return [tree]
    children = tree.values() if isinstance(tree, dict) else tree if isinstance(tree, list) else []
    return [a for child in children for a in _arrays(child)]


def test_float32_train_step_stays_float32():
    # float32 parameters, float64 input: everything the step keeps or
    # returns is float32, the cast of x included
    cfg = tiny_encoder_cfg(num_layers=2)
    params = _cast(enc.init_params(cfg, 30), np.float32)
    rng = np.random.default_rng(31)
    emb, cache = enc.forward(params, cfg, rng.standard_normal((2, 9, 8)), train=True)
    grads = _zero_grads(params)
    enc.backward(params, cfg, cache, rng.standard_normal(emb.Z.shape), grads)
    arrays = _arrays(cache) + [emb.H, emb.Z] + list(params.buffers.values()) + list(grads.values())
    assert len(arrays) > 50
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}


PAPER_ENC = enc.EncoderConfig(input_dim=2048, model_dim=256, num_layers=3, num_heads=8,
                              ffn_dim=1024, out_dim=128, proj_hidden=256, proj_out=128)
BENCH_ENC = enc.EncoderConfig(input_dim=32, model_dim=64, num_layers=2, num_heads=4,
                              ffn_dim=128, out_dim=32, proj_hidden=32, proj_out=32)


@pytest.mark.parametrize("cfg, T", [(BENCH_ENC, 64), (PAPER_ENC, 240)], ids=["bench", "paper"])
def test_float32_compute_matches_float64(cfg, T):
    # both sides start from the same float32-representable parameters and
    # input; only the arithmetic differs
    p32 = _cast(enc.init_params(cfg, 32), np.float32)
    p64 = _cast(p32, np.float64)
    rng = np.random.default_rng(33)
    x = rng.standard_normal((2, T, cfg.input_dim)).astype(np.float32)
    s1, s2 = np.arange(T, dtype=float), np.arange(T, dtype=float) + T // 4
    results = []
    for params in (p32, p64):
        emb, cache = enc.forward(params, cfg, x, train=True)
        loss, grad_Z = scl_loss(*emb.Z, s1, s2, SCLConfig(sigma2=10.0, tau=0.1))
        grads = _zero_grads(params)
        enc.backward(params, cfg, cache, np.stack(grad_Z), grads)
        results.append((emb.H, loss, grads))
    (H32, loss32, g32), (H64, loss64, g64) = results
    assert H32.dtype == np.float32 and H64.dtype == np.float64
    assert np.abs(H32 - H64).max() <= 1e-5 * np.abs(H64).max()
    assert abs(loss32 - loss64) <= 1e-6 * abs(loss64)
    # one global scale: some bias gradients are zero by construction (~1e-18)
    scale = max(np.abs(g).max() for g in g64.values())
    assert max(np.abs(g32[n] - g64[n]).max() for n in g64) <= 1e-5 * scale


def test_long_video_training_memory_bounded():
    # One (2, 2000, 32) float32 training forward and backward of the bench
    # encoder: the (2, heads, T, T) weights alone would take 122 MiB per layer;
    # row blocks, recomputed in backward, keep the whole peak under 128 MiB.
    params = _cast(enc.init_params(BENCH_ENC, 34), np.float32)
    rng = np.random.default_rng(35)
    x = rng.standard_normal((2, 2000, BENCH_ENC.input_dim)).astype(np.float32)
    grad_Z = rng.standard_normal((2, 2000, BENCH_ENC.proj_out)).astype(np.float32)
    grads = _zero_grads(params)
    tracemalloc.start()
    try:
        _, cache = enc.forward(params, BENCH_ENC, x, train=True)
        enc.backward(params, BENCH_ENC, cache, grad_Z, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.isfinite(g).all() and g.any() for g in grads.values())
    assert peak < 128 * 2**20


def test_batched_eval_forward_matches_single_views():
    # T=300 runs three query-row blocks per view
    cfg = tiny_encoder_cfg(num_layers=2)
    params = enc.init_params(cfg, 24)
    rng = np.random.default_rng(25)
    enc.forward(params, cfg, rng.standard_normal((1, 300, 8)), train=True)  # move BN stats
    x = rng.standard_normal((2, 300, 8))
    emb, cache = enc.forward(params, cfg, x)
    assert cache == {} and emb.H.shape == (2, 300, cfg.out_dim)
    for v in range(2):
        one, _ = enc.forward(params, cfg, x[v : v + 1])
        assert np.array_equal(one.H[0], emb.H[v]) and np.array_equal(one.Z[0], emb.Z[v])


def test_backward_adds_into_grads():
    cfg = tiny_encoder_cfg()
    params = enc.init_params(cfg, 26)
    rng = np.random.default_rng(27)
    emb, cache = enc.forward(params, cfg, rng.standard_normal((1, 6, 8)), train=True)
    grad_Z = rng.standard_normal(emb.Z.shape)
    alone = _zero_grads(params)
    enc.backward(params, cfg, cache, grad_Z, alone)
    start = {name: rng.standard_normal(t.shape) for name, t in params.tensors.items()}
    grads = {name: g.copy() for name, g in start.items()}
    enc.backward(params, cfg, cache, grad_Z, grads)
    for name in grads:
        assert np.array_equal(grads[name], start[name] + alone[name]), name


@pytest.mark.parametrize("shape", [(6, 8), (8,), (1, 1, 6, 8)])
def test_forward_needs_three_dimensional_input(shape):
    cfg = tiny_encoder_cfg()
    with pytest.raises(ConfigError, match="expected"):
        enc.forward(enc.init_params(cfg, 0), cfg, np.zeros(shape))


def test_checkpoint_round_trip(tmp_path):
    cfg = tiny_encoder_cfg()
    params = enc.init_params(cfg, 20)
    extra = {"adam.step": np.array([17.0])}
    p = tmp_path / "model.ckpt"
    enc.save_checkpoint(p, cfg, params, extra=extra)
    cfg2, params2, extra2 = enc.load_checkpoint(p)
    assert cfg2 == cfg
    for name in params.tensors:
        assert np.allclose(params.tensors[name], params2.tensors[name], atol=1e-7)
    assert extra2["adam.step"][0] == 17.0
    # second save of the loaded state is byte-identical
    p2 = tmp_path / "model2.ckpt"
    enc.save_checkpoint(p2, cfg2, params2, extra=extra2)
    assert p.read_bytes() == p2.read_bytes()


def test_checkpoint_corruption_rejected(tmp_path):
    cfg = tiny_encoder_cfg()
    p = tmp_path / "model.ckpt"
    enc.save_checkpoint(p, cfg, enc.init_params(cfg, 0))
    blob = p.read_bytes()
    p.write_bytes(b"XKPT" + blob[4:])
    with pytest.raises(FormatError):
        enc.load_checkpoint(p)
    p.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        enc.load_checkpoint(p)


def test_checkpoint_every_truncation_rejected(tmp_path):
    cfg = tiny_encoder_cfg(D=2, model_dim=2, num_heads=1, ffn_dim=2, out_dim=2,
                           proj_hidden=2, proj_out=2)
    p = tmp_path / "model.ckpt"
    enc.save_checkpoint(p, cfg, enc.init_params(cfg, 0))
    blob = p.read_bytes()
    for cut in range(len(blob)):
        p.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            enc.load_checkpoint(p)


@pytest.mark.parametrize("tamper, message", [
    (lambda prm: prm.tensors.update({"layer9.ln1.gamma": np.ones(16)}), "unknown tensor"),
    (lambda prm: prm.buffers.update({"proj.bn3.mean": np.zeros(16)}), "unknown tensor"),
    (lambda prm: prm.tensors.update({"out.b": np.zeros(3)}), "has shape"),
    (lambda prm: prm.buffers.pop("proj.bn2.var"), "missing tensors"),
], ids=["tensor", "buffer", "shape", "missing"])
def test_checkpoint_schema_enforced(tmp_path, tamper, message):
    cfg = tiny_encoder_cfg()
    params = enc.init_params(cfg, 0)
    tamper(params)
    p = tmp_path / "model.ckpt"
    enc.save_checkpoint(p, cfg, params, extra={"anything.goes": np.zeros(2)})
    with pytest.raises(FormatError, match=message):
        enc.load_checkpoint(p)


def test_checkpoint_deeply_nested_config_blob_rejected(tmp_path):
    blob = ("[" * 100_000 + "]" * 100_000).encode()
    p = tmp_path / "model.ckpt"
    p.write_bytes(enc.CKPT_MAGIC + struct.pack("<II", enc.CKPT_VERSION, len(blob)) + blob)
    with pytest.raises(FormatError, match="invalid config blob"):
        enc.load_checkpoint(p)


def test_checkpoint_with_legacy_zero_dropout_loads(tmp_path):
    cfg = tiny_encoder_cfg()
    params = enc.init_params(cfg, 21)
    p = tmp_path / "model.ckpt"
    enc.save_checkpoint(p, cfg, params)
    _, expected, _ = enc.load_checkpoint(p)
    rewrite_config_blob(p, dropout=0.0)
    cfg2, params2, _ = enc.load_checkpoint(p)
    assert cfg2 == cfg
    for name in expected.tensors:
        assert np.array_equal(params2.tensors[name], expected.tensors[name])
    for name in expected.buffers:
        assert np.array_equal(params2.buffers[name], expected.buffers[name])


def test_checkpoint_with_nonzero_dropout_rejected(tmp_path):
    cfg = tiny_encoder_cfg()
    p = tmp_path / "model.ckpt"
    enc.save_checkpoint(p, cfg, enc.init_params(cfg, 0))
    rewrite_config_blob(p, dropout=0.5)
    with pytest.raises(FormatError):
        enc.load_checkpoint(p)
