
import json
import struct

import numpy as np
import pytest

from conftest import fd_param_grads, max_rel_err, tiny_encoder_cfg
from seqcl import encoder as enc
from seqcl.errors import ConfigError, SeqclError


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_encoder_cfg(model_dim=15)  # not divisible by heads, odd
    with pytest.raises(ConfigError):
        tiny_encoder_cfg(num_layers=0)


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
    emb, cache = enc.forward(params, cfg, np.random.default_rng(0).standard_normal((1, 8)))
    assert emb.H.shape == (1, cfg.out_dim) and emb.Z.shape == (1, cfg.proj_out)
    assert np.isfinite(emb.H).all() and np.isfinite(emb.Z).all()
    for lc in cache["layers"]:
        assert np.allclose(lc["attn"]["attn"], 1.0)  # softmax over a single key


def test_attention_rows_are_probabilities():
    cfg = tiny_encoder_cfg(num_layers=2)
    params = enc.init_params(cfg, 1)
    _, cache = enc.forward(params, cfg, np.random.default_rng(2).standard_normal((7, 8)))
    for lc in cache["layers"]:
        rows = lc["attn"]["attn"].sum(axis=2)
        assert np.abs(rows - 1).max() < 1e-6


def test_shape_mismatch_rejected():
    cfg = tiny_encoder_cfg()
    params = enc.init_params(cfg, 0)
    with pytest.raises(ConfigError):
        enc.forward(params, cfg, np.zeros((4, 5)))


def test_sequence_length_independence():
    cfg = tiny_encoder_cfg()
    params = enc.init_params(cfg, 0)
    rng = np.random.default_rng(3)
    a, _ = enc.forward(params, cfg, rng.standard_normal((4, 8)))
    b, _ = enc.forward(params, cfg, rng.standard_normal((8, 8)))
    assert a.H.shape == (4, cfg.out_dim) and b.H.shape == (8, cfg.out_dim)


def test_permutation_equivariance_with_matched_pe():
    cfg = tiny_encoder_cfg(num_layers=2)
    params = enc.init_params(cfg, 4)
    rng = np.random.default_rng(5)
    T = 9
    x = rng.standard_normal((T, cfg.input_dim))
    pe = enc.positional_encoding(T, cfg.model_dim)
    perm = rng.permutation(T)
    base, _ = enc.forward(params, cfg, x, pos_encoding=pe)
    permuted, _ = enc.forward(params, cfg, x[perm], pos_encoding=pe[perm])
    assert np.allclose(permuted.H, base.H[perm], atol=1e-10)


def test_eval_mode_deterministic_after_training_forwards():
    cfg = tiny_encoder_cfg()
    params = enc.init_params(cfg, 6)
    x = np.random.default_rng(7).standard_normal((5, 8))
    enc.forward(params, cfg, x, train=True)  # mutate running stats
    a, _ = enc.forward(params, cfg, x, train=False)
    b, _ = enc.forward(params, cfg, x, train=False)
    assert np.array_equal(a.H, b.H) and np.array_equal(a.Z, b.Z)


def test_residual_wiring_smoke():
    # zeroed transformer sublayers must pass the projection+PE straight through
    cfg = tiny_encoder_cfg(num_layers=2)
    params = enc.init_params(cfg, 8)
    for name in list(params.tensors):
        if name.startswith("layer") and ".ln" not in name:
            params.tensors[name][...] = 0.0
    x = np.random.default_rng(9).standard_normal((6, 8))
    emb, cache = enc.forward(params, cfg, x, train=True)
    p = params.tensors
    z1 = x @ p["proj.fc1.W"] + p["proj.fc1.b"]
    bn1 = p["proj.bn1.gamma"] * (z1 - z1.mean(0)) / np.sqrt(z1.var(0) + enc.NORM_EPS)
    a1 = np.maximum(bn1 + p["proj.bn1.beta"], 0)
    z2 = a1 @ p["proj.fc2.W"] + p["proj.fc2.b"]
    bn2 = p["proj.bn2.gamma"] * (z2 - z2.mean(0)) / np.sqrt(z2.var(0) + enc.NORM_EPS)
    a2 = np.maximum(bn2 + p["proj.bn2.beta"], 0)
    expected = (a2 + enc.positional_encoding(6, cfg.model_dim)) @ p["out.W"] + p["out.b"]
    assert np.allclose(emb.H, expected, atol=1e-12)


def test_backward_zero_upstream_gives_zero_grads():
    cfg = tiny_encoder_cfg()
    params = enc.init_params(cfg, 10)
    emb, cache = enc.forward(params, cfg, np.random.default_rng(11).standard_normal((5, 8)),
                             train=True)
    grads = enc.backward(params, cfg, cache, np.zeros_like(emb.Z))
    assert all(not g.any() for g in grads.values())


def test_backward_requires_cache():
    cfg = tiny_encoder_cfg()
    params = enc.init_params(cfg, 0)
    with pytest.raises(SeqclError):
        enc.backward(params, cfg, {}, np.zeros((3, cfg.proj_out)))


def test_backward_deterministic():
    cfg = tiny_encoder_cfg()
    params = enc.init_params(cfg, 12)
    x = np.random.default_rng(13).standard_normal((4, 8))
    emb, cache = enc.forward(params, cfg, x, train=True)
    g1 = enc.backward(params, cfg, cache, np.ones_like(emb.Z))
    g2 = enc.backward(params, cfg, cache, np.ones_like(emb.Z))
    for name in g1:
        assert np.array_equal(g1[name], g2[name])


@pytest.mark.parametrize("seed,train,num_layers", [
    pytest.param(seed, train, num_layers,
                 id=f"{seed}-{train}" + ("" if num_layers == 1 else f"-{num_layers}layers"))
    for num_layers in (1, 2) for train in (True, False) for seed in (0, 1)
])
def test_gradients_match_finite_differences(seed, train, num_layers):
    cfg = tiny_encoder_cfg(D=6, model_dim=8, num_heads=2, ffn_dim=12, out_dim=5,
                           proj_hidden=5, proj_out=4, num_layers=num_layers)
    params = enc.init_params(cfg, seed)
    rng = np.random.default_rng(100 + seed)
    x = rng.standard_normal((5, 6))
    w = rng.standard_normal((5, 4))  # fixed linear functional of Z

    def loss_of(p):
        e, _ = enc.forward(p, cfg, x, train=train)
        return float((w * e.Z).sum() + 0.5 * (e.Z**2).sum())

    emb, cache = enc.forward(params, cfg, x, train=train)
    analytic = enc.backward(params, cfg, cache, w + emb.Z)
    numeric = fd_param_grads(lambda p: loss_of(p), params, h=1e-5)
    assert max_rel_err(analytic, numeric) < 1e-4


def test_grad_H_path():
    cfg = tiny_encoder_cfg(D=6, model_dim=8, num_heads=2, ffn_dim=12, out_dim=5,
                           proj_hidden=5, proj_out=4)
    params = enc.init_params(cfg, 3)
    x = np.random.default_rng(30).standard_normal((4, 6))

    def loss_of(p):
        e, _ = enc.forward(p, cfg, x, train=True)
        return float(0.5 * (e.H**2).sum() + e.Z.sum())

    emb, cache = enc.forward(params, cfg, x, train=True)
    analytic = enc.backward(params, cfg, cache, np.ones_like(emb.Z), grad_H=emb.H)
    numeric = fd_param_grads(loss_of, params, h=1e-5)
    assert max_rel_err(analytic, numeric) < 1e-4


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
    from seqcl.errors import FormatError
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


def _rewrite_config_blob(path, **fields):
    """Rewrite a checkpoint's JSON config blob with extra fields set."""
    blob = path.read_bytes()
    (cfg_len,) = struct.unpack("<I", blob[8:12])
    cfg = json.loads(blob[12 : 12 + cfg_len])
    cfg.update(fields)
    new = json.dumps(cfg, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + cfg_len :])


def test_checkpoint_with_legacy_zero_dropout_loads(tmp_path):
    cfg = tiny_encoder_cfg()
    params = enc.init_params(cfg, 21)
    p = tmp_path / "model.ckpt"
    enc.save_checkpoint(p, cfg, params)
    _, expected, _ = enc.load_checkpoint(p)
    _rewrite_config_blob(p, dropout=0.0)
    cfg2, params2, _ = enc.load_checkpoint(p)
    assert cfg2 == cfg
    for name in expected.tensors:
        assert np.array_equal(params2.tensors[name], expected.tensors[name])
    for name in expected.buffers:
        assert np.array_equal(params2.buffers[name], expected.buffers[name])


def test_checkpoint_with_nonzero_dropout_rejected(tmp_path):
    from seqcl.errors import FormatError
    cfg = tiny_encoder_cfg()
    p = tmp_path / "model.ckpt"
    enc.save_checkpoint(p, cfg, enc.init_params(cfg, 0))
    _rewrite_config_blob(p, dropout=0.5)
    with pytest.raises(FormatError):
        enc.load_checkpoint(p)
