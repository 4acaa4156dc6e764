import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import tiny_encoder_cfg
from seqcl import encoder as enc
from seqcl.augment import AugmentConfig, build_view_pair
from seqcl.data import DatasetSplit, SyntheticSpec, VideoRecord, generate_synthetic
from seqcl.errors import ConfigError, FormatError, NumericError
from seqcl.loss import SCLConfig
from seqcl.train import (
    OptimConfig,
    TrainState,
    _moments_as_tensors,
    _pairs_loss_and_grads,
    adam_step,
    cosine_lr,
    fit,
    load_train_checkpoint,
    save_train_checkpoint,
    train_epoch,
)


def test_cosine_lr_endpoints():
    assert cosine_lr(1e-3, 0, 100) == pytest.approx(1e-3)
    assert cosine_lr(1e-3, 100, 100) == pytest.approx(0.0, abs=1e-18)
    assert cosine_lr(1e-3, 50, 100) == pytest.approx(5e-4)


def test_cosine_lr_monotone_and_clamped():
    vals = [cosine_lr(1.0, s, 40) for s in range(41)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert cosine_lr(1.0, 60, 40) == vals[-1]


def test_cosine_lr_is_a_python_float():
    # an np.float64 lr would promote float32 tensors to float64 in adam_step
    assert all(type(cosine_lr(1e-3, s, 100)) is float for s in (0, 37, 100))


def _scalar_state(value=0.0):
    params = enc.EncoderParams(tensors={"w": np.array([value])}, buffers={})
    return TrainState.fresh(params)


def test_adam_zero_grad_noop():
    state = _scalar_state(1.5)
    adam_step(state, {"w": np.zeros(1)}, OptimConfig(weight_decay=0.0), lr=0.1)
    assert state.params.tensors["w"][0] == 1.5


def test_adam_single_step_hand_value():
    # g=1: m_hat = v_hat = 1, so delta = -lr / (1 + eps)
    state = _scalar_state(0.0)
    cfg = OptimConfig(lr=0.01, weight_decay=0.0)
    adam_step(state, {"w": np.ones(1)}, cfg, lr=cfg.lr)
    assert state.params.tensors["w"][0] == pytest.approx(-0.01 / (1 + cfg.eps), rel=1e-12)
    assert state.step == 1


def test_adam_decoupled_weight_decay():
    state = _scalar_state(2.0)
    cfg = OptimConfig(lr=0.1, weight_decay=0.5)
    adam_step(state, {"w": np.zeros(1)}, cfg, lr=0.1)
    # zero grad: only the decay shrink applies
    assert state.params.tensors["w"][0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))


def test_adam_rejects_nonfinite_grads():
    state = _scalar_state()
    with pytest.raises(NumericError, match="'w'"):
        adam_step(state, {"w": np.array([np.nan])}, OptimConfig(), lr=0.1)


def test_adam_keeps_float32_state():
    w = np.array([0.5, -1.0], dtype=np.float32)
    params = enc.EncoderParams(tensors={"w": w}, buffers={})
    state = TrainState.fresh(params)
    cfg = OptimConfig(lr=0.01, weight_decay=0.1)
    for _ in range(3):
        adam_step(state, {"w": np.array([0.3, -2.0], dtype=np.float32)}, cfg,
                  lr=cosine_lr(cfg.lr, state.step, 10))
    for arr in (state.params.tensors["w"], state.m["w"], state.v["w"]):
        assert arr.dtype == np.float32
    assert state.params.tensors["w"] is w  # updated in place


def test_adam_survives_extreme_grads():
    state = _scalar_state(1.0)
    cfg = OptimConfig(lr=0.1, weight_decay=0.0)
    for g in (1e6, -1e6, 1e-12):
        adam_step(state, {"w": np.array([g])}, cfg, lr=0.1)
        assert np.isfinite(state.params.tensors["w"]).all()


def test_optim_config_validation():
    with pytest.raises(ConfigError):
        OptimConfig(beta1=1.0)
    with pytest.raises(ConfigError):
        OptimConfig(videos_per_batch=0)
    with pytest.raises(ConfigError):
        OptimConfig(loss_kind="nce")
    for bad in (dict(weight_decay=-1e-5), dict(eps=0.0), dict(checkpoint_every=-1),
                dict(seed=-1), dict(epochs=1.0), dict(epochs=True), dict(lr=float("inf"))):
        with pytest.raises(ConfigError):
            OptimConfig(**bad)
    assert type(OptimConfig(lr=1).lr) is int  # kept as given, so the echoed config is too


def _tiny_setup(epochs=2, lr=1e-3, loss_kind="scl"):
    split = generate_synthetic(
        SyntheticSpec(num_videos=6, num_phases=3, feature_dim=8, min_len=20,
                      max_len=30, noise_std=0.2, seed=0)
    )
    aug = AugmentConfig(T=8, alpha=1.5, beta=0.5)
    ecfg = tiny_encoder_cfg(D=8)
    optim = OptimConfig(lr=lr, epochs=epochs, videos_per_batch=3, seed=0,
                        loss_kind=loss_kind, checkpoint_every=0)
    return split, aug, ecfg, SCLConfig(), optim


def test_zero_lr_keeps_params():
    split, aug, ecfg, scl, optim = _tiny_setup(lr=0.0)
    state = TrainState.fresh(enc.init_params(ecfg, 0))
    before = {k: v.copy() for k, v in state.params.tensors.items()}
    loss = train_epoch(state, split, aug, ecfg, scl, optim,
                       np.random.default_rng(0), total_steps=10)
    assert np.isfinite(loss)
    for name in before:
        # weight decay is scaled by lr, so zero lr freezes everything
        assert np.array_equal(before[name], state.params.tensors[name])


def test_deterministic_trajectory():
    results = []
    for _ in range(2):
        split, aug, ecfg, scl, optim = _tiny_setup(epochs=2)
        state, curve = fit(split, aug, ecfg, scl, optim)
        results.append((state, curve))
    (s1, c1), (s2, c2) = results
    assert c1 == c2
    for name in s1.params.tensors:
        assert np.array_equal(s1.params.tensors[name], s2.params.tensors[name])


def test_loss_decreases_over_steps():
    split, aug, ecfg, scl, optim = _tiny_setup(epochs=25, lr=3e-3)
    _, curve = fit(split, aug, ecfg, scl, optim)
    first = np.mean([l for _, l, _ in curve[:3]])
    last = np.mean([l for _, l, _ in curve[-3:]])
    assert last < first


def test_fit_zero_epochs_returns_init(tmp_path):
    split, aug, ecfg, scl, optim = _tiny_setup(epochs=0)
    state, curve = fit(split, aug, ecfg, scl, optim)
    init = enc.init_params(ecfg, optim.seed)
    assert curve == []
    for name in init.tensors:
        assert np.array_equal(state.params.tensors[name], init.tensors[name].astype(np.float32))


def test_fit_writes_curve_and_checkpoint(tmp_path):
    split, aug, ecfg, scl, optim = _tiny_setup(epochs=3)
    ckpt = tmp_path / "m.ckpt"
    curve_path = tmp_path / "loss.csv"
    fit(split, aug, ecfg, scl, optim, checkpoint_path=ckpt, curve_path=curve_path)
    lines = curve_path.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,lr"
    assert len(lines) == 1 + 3
    assert all(float(line.split(",")[2]) >= 0 for line in lines[1:])  # lr is a plain number
    cfg2, state2 = load_train_checkpoint(ckpt)
    assert cfg2 == ecfg
    assert state2.epoch == 3 and state2.step > 0


def test_train_checkpoint_round_trip_is_exact(tmp_path):
    # fit trains float32 state, which the float32 file holds bit for bit
    split, aug, ecfg, scl, optim = _tiny_setup(epochs=2)
    state, _ = fit(split, aug, ecfg, scl, optim)
    ckpt = tmp_path / "m.ckpt"
    save_train_checkpoint(ckpt, ecfg, state)
    cfg2, loaded = load_train_checkpoint(ckpt)
    assert cfg2 == ecfg
    assert (loaded.step, loaded.epoch) == (state.step, state.epoch) == (4, 2)
    groups = [(loaded.params.tensors, state.params.tensors),
              (loaded.params.buffers, state.params.buffers),
              (loaded.m, state.m), (loaded.v, state.v)]
    for back, saved in groups:
        assert back.keys() == saved.keys()
        for name in saved:
            assert back[name].dtype == saved[name].dtype == np.float32, name
            assert back[name].flags.writeable, name  # resume updates in place
            assert np.array_equal(back[name], saved[name]), name


def _small_train_checkpoint(path, extra_edit=None):
    cfg = tiny_encoder_cfg(D=2, model_dim=2, num_heads=1, ffn_dim=2, out_dim=2,
                           proj_hidden=2, proj_out=2)
    state = TrainState.fresh(enc.init_params(cfg, 0))
    state.step, state.epoch = 7, 3
    extra = _moments_as_tensors(state)
    if extra_edit:
        extra_edit(extra)
    enc.save_checkpoint(path, cfg, state.params, extra=extra)
    return state


def test_train_checkpoint_every_truncation_rejected(tmp_path):
    p = tmp_path / "train.ckpt"
    saved = _small_train_checkpoint(p)
    _, state = load_train_checkpoint(p)
    assert (state.step, state.epoch) == (saved.step, saved.epoch)
    assert state.m.keys() == state.v.keys() == saved.params.tensors.keys()
    blob = p.read_bytes()
    for cut in range(len(blob)):
        p.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_train_checkpoint(p)


@pytest.mark.parametrize("edit, message", [
    (lambda extra: extra.pop("adam.m.out.W"), "lacks 'adam.m.out.W'"),
    (lambda extra: extra.pop("adam.step"), "lacks 'adam.step'"),
    (lambda extra: extra.update({"adam.v.out.b": np.zeros(3)}), "'adam.v.out.b' has shape"),
    (lambda extra: extra.update({"adam.epoch": np.zeros((1, 1))}), "'adam.epoch' has shape"),
], ids=["moment", "step", "moment-shape", "epoch-shape"])
def test_train_checkpoint_needs_full_adam_state(tmp_path, edit, message):
    p = tmp_path / "train.ckpt"
    _small_train_checkpoint(p, edit)
    with pytest.raises(FormatError, match=message):
        load_train_checkpoint(p)


def test_fit_resume(tmp_path):
    split, aug, ecfg, scl, optim = _tiny_setup(epochs=4)
    ckpt = tmp_path / "m.ckpt"
    fit(split, aug, ecfg, scl, optim, checkpoint_path=ckpt)
    # resuming a finished run is a no-op
    state, curve = fit(split, aug, ecfg, scl, optim, checkpoint_path=ckpt, resume=True)
    assert curve == []
    assert state.epoch == 4


def test_fit_resume_rejects_a_different_encoder(tmp_path):
    split, aug, ecfg, scl, optim = _tiny_setup(epochs=2)
    ckpt = tmp_path / "m.ckpt"
    fit(split, aug, ecfg, scl, dataclasses.replace(optim, epochs=1), checkpoint_path=ckpt)
    blob = ckpt.read_bytes()
    other = dataclasses.replace(ecfg, num_heads=1, ffn_dim=16)
    with pytest.raises(ConfigError, match=r"num_heads.*ffn_dim|ffn_dim.*num_heads"):
        fit(split, aug, other, scl, optim, checkpoint_path=ckpt, resume=True)
    assert ckpt.read_bytes() == blob  # the checkpoint keeps its encoder
    state, curve = fit(split, aug, ecfg, scl, optim, checkpoint_path=ckpt, resume=True)
    assert [epoch for epoch, _, _ in curve] == [1] and state.epoch == 2


@pytest.mark.parametrize("epochs, every, saves", [(4, 2, 2), (3, 2, 2), (3, 0, 1)])
def test_fit_writes_each_checkpoint_once(tmp_path, monkeypatch, epochs, every, saves):
    # a periodic save after the last epoch would repeat the final save's state
    calls = []

    def counting(path, enc_cfg, state):
        calls.append(state.epoch)
        save_train_checkpoint(path, enc_cfg, state)

    monkeypatch.setattr("seqcl.train.save_train_checkpoint", counting)
    split, aug, ecfg, scl, optim = _tiny_setup(epochs=epochs)
    optim = dataclasses.replace(optim, checkpoint_every=every)
    ckpt = tmp_path / "m.ckpt"
    state, _ = fit(split, aug, ecfg, scl, optim, checkpoint_path=ckpt)
    assert len(calls) == saves and calls[-1] == epochs
    assert calls == sorted(set(calls))
    save_train_checkpoint(tmp_path / "final.ckpt", ecfg, state)
    assert ckpt.read_bytes() == (tmp_path / "final.ckpt").read_bytes()


def test_baseline_loss_training_runs():
    split, aug, ecfg, scl, optim = _tiny_setup(epochs=1, loss_kind="frame")
    state, curve = fit(split, aug, ecfg, scl, optim)
    assert len(curve) == 1 and np.isfinite(curve[0][1])


@pytest.mark.parametrize("loss_kind, steps", [("frame", 0), ("scl", 2)])
def test_pairs_without_shared_timestamps(monkeypatch, loss_kind, steps):
    # view 2 sampled past view 1's last frame: the per-frame baseline has no
    # positive, so it skips every pair, takes no step and reports nan; SCL's
    # Gaussian targets still weigh every frame, so each batch takes a step
    def disjoint_views(rec, cfg, rng):
        x, ts = build_view_pair(rec, cfg, rng)
        ts[1] += ts[0, -1] + 1
        return x, ts

    monkeypatch.setattr("seqcl.train.build_view_pair", disjoint_views)
    split, aug, ecfg, scl, optim = _tiny_setup(loss_kind=loss_kind)
    state = TrainState.fresh(enc.init_params(ecfg, 0))
    before = {k: v.copy() for k, v in state.params.tensors.items()}
    loss = train_epoch(state, split, aug, ecfg, scl, optim,
                       np.random.default_rng(0), total_steps=10)
    assert state.step == steps and np.isnan(loss) == (steps == 0)
    unchanged = [np.array_equal(before[k], t) for k, t in state.params.tensors.items()]
    assert all(unchanged) if steps == 0 else not any(unchanged)


def test_train_epoch_reuses_one_zeroed_gradient_set(monkeypatch):
    # every step hands Adam the same arrays, holding that step's batch alone;
    # Adam is replaced by a recorder, so the parameters stay put and each
    # step's gradients can be recomputed from its own view pairs into zeros
    pairs, steps = [], []

    def recording_pair(rec, cfg, rng):
        pairs.append(build_view_pair(rec, cfg, rng))
        return pairs[-1]

    def recording_step(state, grads, cfg, lr):
        steps.append((dict(grads), {k: g.copy() for k, g in grads.items()}))

    monkeypatch.setattr("seqcl.train.build_view_pair", recording_pair)
    monkeypatch.setattr("seqcl.train.adam_step", recording_step)
    split, aug, ecfg, scl, optim = _tiny_setup()
    optim = dataclasses.replace(optim, videos_per_batch=2)
    state = TrainState.fresh(enc.init_params(ecfg, 0))
    train_epoch(state, split, aug, ecfg, scl, optim, np.random.default_rng(0), total_steps=10)
    assert len(pairs) == len(split.train) >= 4 and len(steps) == -(-len(pairs) // 2)
    first = steps[0][0]
    for step, (arrays, values) in enumerate(steps):
        assert all(arrays[k] is first[k] for k in first)
        batch = pairs[2 * step : 2 * step + 2]
        fresh = {k: np.zeros_like(t) for k, t in state.params.tensors.items()}
        for pair in batch:
            _pairs_loss_and_grads(state, ecfg, scl, optim, [pair], 1.0 / len(batch), fresh)
        assert all(np.array_equal(values[k], fresh[k]) for k in fresh)


@pytest.mark.parametrize("loss_kind, steps", [("scl", 4), ("frame", 3)])
def test_grouped_pairs_match_one_pair_per_call(monkeypatch, loss_kind, steps):
    # T=8 puts a whole batch in one encoder call; STEP_FRAMES=1 gives each
    # pair its own. One record's views share no timestamp, so the frame
    # baseline skips that pair: in the first epoch inside a 3-video call,
    # which backs zero rows through it, and in the second as a batch alone,
    # which takes no step.
    split, aug, ecfg, scl, optim = _tiny_setup(epochs=2, loss_kind=loss_kind)
    disjoint = split.train[1].id

    def views(rec, cfg, rng):
        x, ts = build_view_pair(rec, cfg, rng)
        if rec.id == disjoint:
            ts[1] += ts[0, -1] + 1
        return x, ts

    monkeypatch.setattr("seqcl.train.build_view_pair", views)
    grouped, grouped_curve = fit(split, aug, ecfg, scl, optim)
    monkeypatch.setattr("seqcl.train.STEP_FRAMES", 1)
    single, single_curve = fit(split, aug, ecfg, scl, optim)
    assert grouped_curve == single_curve and grouped.step == single.step == steps
    for group in ("tensors", "buffers"):
        a, b = getattr(grouped.params, group), getattr(single.params, group)
        assert all(np.array_equal(a[k], b[k]) for k in b), group
    for moment in ("m", "v"):
        a, b = getattr(grouped, moment), getattr(single, moment)
        assert all(np.array_equal(a[k], b[k]) for k in b), moment


@pytest.mark.parametrize("T, shape", [(64, (8, 64, 8)), (240, (2, 240, 8))])
def test_encoder_calls_hold_whole_pairs_up_to_step_frames(monkeypatch, T, shape):
    # 8 videos, 4 per batch: at T=64 a step is one (8, T, D) call; at T=240
    # two pairs would exceed STEP_FRAMES, so each pair keeps its own call
    shapes = []
    forward = enc.forward

    def recording(params, cfg, x, **kw):
        shapes.append(x.shape)
        return forward(params, cfg, x, **kw)

    monkeypatch.setattr(enc, "forward", recording)
    split = generate_synthetic(SyntheticSpec(num_videos=10, num_phases=3, feature_dim=8,
                                             min_len=T, max_len=T + 40, seed=0))
    assert len(split.train) == 8
    ecfg = tiny_encoder_cfg(D=8)
    state = TrainState.fresh(enc.init_params(ecfg, 0))
    train_epoch(state, split, AugmentConfig(T=T), ecfg, SCLConfig(),
                OptimConfig(videos_per_batch=4), np.random.default_rng(0), total_steps=2)
    assert shapes == [shape] * (16 // shape[0]) and state.step == 2


def test_paper_shape_training_pair_memory_bounded():
    # One float32 paper-encoder step on a real T=240 view pair, as train_epoch
    # makes it: gradient dict, jittered views, forward, SCL loss, backward.
    # build_view_pair writes both jittered views once into one float32
    # (2, T, D) array, which the forward takes as it is, and the forward
    # caches ReLU inputs, not outputs, and of every norm the normalized xhat;
    # backward releases each temporary once used: 40.9 MiB, against 48.4 MiB
    # with every norm's output cached and the temporaries held, and 70.9 MiB
    # with float64 views and every activation cached (2 vCPU, numpy 2.4).
    cfg = enc.EncoderConfig(input_dim=2048, model_dim=256, num_layers=3, num_heads=8,
                            ffn_dim=1024, out_dim=128, proj_hidden=256, proj_out=128)
    init = enc.init_params(cfg, 41)
    state = TrainState.fresh(enc.EncoderParams(
        tensors={k: t.astype(np.float32) for k, t in init.tensors.items()},
        buffers={k: b.astype(np.float32) for k, b in init.buffers.items()}))
    rec = VideoRecord(id="v", features=np.random.default_rng(42).standard_normal((300, 2048)))
    aug, rng = AugmentConfig(T=240, jitter_std=0.1), np.random.default_rng(43)
    tracemalloc.start()
    try:
        grads = {k: np.zeros_like(t) for k, t in state.params.tensors.items()}
        (loss,) = _pairs_loss_and_grads(state, cfg, SCLConfig(), OptimConfig(),
                                        [build_view_pair(rec, aug, rng)], 1.0, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values())
    assert peak < 44 * 2**20


def test_paper_shape_fit_memory_bounded():
    # A whole one-epoch fit at the paper encoder on two 250-frame videos,
    # one step: float32 parameters, two Adam moments, one gradient set (11.7
    # MiB each) and one view pair's activations peak at 76.0 MiB (2 vCPU,
    # numpy 2.4). The float64 init draws, 23.3 MiB, held for the run make it
    # 98.9 MiB; the bound sits between the two.
    cfg = enc.EncoderConfig(input_dim=2048, model_dim=256, num_layers=3, num_heads=8,
                            ffn_dim=1024, out_dim=128, proj_hidden=256, proj_out=128)
    rng = np.random.default_rng(45)
    videos = [VideoRecord(id=f"v{i}", features=rng.standard_normal((250, 2048)))
              for i in range(2)]
    split = DatasetSplit(train=videos, test=[], num_phases=1, feature_dim=2048)
    tracemalloc.start()
    try:
        state, curve = fit(split, AugmentConfig(T=240, jitter_std=0.1), cfg, SCLConfig(),
                           OptimConfig(epochs=1, videos_per_batch=2, seed=46))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.step == 1 and np.isfinite(curve[0][1])
    assert peak < 86 * 2**20
