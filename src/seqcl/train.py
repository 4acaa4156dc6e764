"""Optimization loop: Adam with decoupled weight decay, cosine learning-rate
decay without restarts, batched view-pair epochs and checkpointing."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import encoder as enc
from .augment import AugmentConfig, build_view_pair
from .data import DatasetSplit
from .errors import ConfigError, NumericError
from .loss import SCLConfig, baseline_contrastive_loss, scl_loss, timestamp_correspondence

# The training rng is np.random.default_rng([seed, TRAIN_STREAM]): a sub-stream
# of the run seed that shuffles batches and draws every view pair.
TRAIN_STREAM = 3


@dataclass
class OptimConfig:
    lr: float = 1e-4
    weight_decay: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 300
    videos_per_batch: int = 4
    seed: int = 0
    checkpoint_every: int = 50
    loss_kind: str = "scl"  # "scl" | "frame" (per-frame contrastive baseline)

    def __post_init__(self):
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("betas must lie in [0, 1)")
        if self.epochs < 0 or self.videos_per_batch < 1:
            raise ConfigError("epochs must be >= 0 and videos_per_batch >= 1")
        if self.loss_kind not in ("scl", "frame"):
            raise ConfigError(f"loss_kind must be 'scl' or 'frame', got {self.loss_kind!r}")


@dataclass
class TrainState:
    params: enc.EncoderParams
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    epoch: int = 0

    @classmethod
    def fresh(cls, params: enc.EncoderParams) -> "TrainState":
        zeros = {k: np.zeros_like(t) for k, t in params.tensors.items()}
        return cls(params=params, m=zeros, v={k: np.zeros_like(t) for k, t in params.tensors.items()})


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Half-cosine decay from base_lr to 0 over total_steps, no restarts."""
    if total_steps <= 0:
        raise ConfigError(f"total_steps must be > 0, got {total_steps}")
    step = min(max(step, 0), total_steps)
    return 0.5 * base_lr * (1.0 + np.cos(np.pi * step / total_steps))


def adam_step(
    state: TrainState, grads: dict[str, np.ndarray], cfg: OptimConfig, lr: float
) -> None:
    """One in-place Adam update with decoupled weight decay."""
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in tensor {name!r}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for name, theta in state.params.tensors.items():
        g = grads[name]
        if cfg.weight_decay > 0:
            theta -= lr * cfg.weight_decay * theta
        state.m[name] = cfg.beta1 * state.m[name] + (1 - cfg.beta1) * g
        state.v[name] = cfg.beta2 * state.v[name] + (1 - cfg.beta2) * (g * g)
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        theta -= lr * m_hat / (np.sqrt(v_hat) + cfg.eps)


def _pair_loss_and_grads(state, enc_cfg, scl_cfg, optim_cfg, pair, scale, grads_out):
    """Forward both views, apply the configured loss, backprop; returns loss or None
    when the baseline loss has no timestamp matches for this pair."""
    emb1, cache1 = enc.forward(state.params, enc_cfg, pair.view1.features, train=True)
    emb2, cache2 = enc.forward(state.params, enc_cfg, pair.view2.features, train=True)
    if optim_cfg.loss_kind == "scl":
        loss, (g1, g2) = scl_loss(
            emb1.Z, emb2.Z, pair.view1.timestamps, pair.view2.timestamps, scl_cfg
        )
    else:
        matches = timestamp_correspondence(pair.view1.timestamps, pair.view2.timestamps)
        if not matches:
            return None
        loss, (g1, g2) = baseline_contrastive_loss(emb1.Z, emb2.Z, matches, scl_cfg.tau)
    for cache, g in ((cache1, g1), (cache2, g2)):
        for name, grad in enc.backward(state.params, enc_cfg, cache, g * scale).items():
            grads_out[name] += grad
    return loss


def train_epoch(
    state: TrainState,
    dataset: DatasetSplit,
    aug_cfg: AugmentConfig,
    enc_cfg: enc.EncoderConfig,
    scl_cfg: SCLConfig,
    optim_cfg: OptimConfig,
    rng: np.random.Generator,
    total_steps: int,
) -> float:
    """One pass over shuffled training videos in batches; returns mean batch loss."""
    if not dataset.train:
        raise ConfigError("empty training set")
    order = rng.permutation(len(dataset.train))
    bs = optim_cfg.videos_per_batch
    batch_losses = []
    for lo in range(0, len(order), bs):
        batch = [dataset.train[i] for i in order[lo : lo + bs]]
        grads = {k: np.zeros_like(t) for k, t in state.params.tensors.items()}
        losses = []
        for rec in batch:
            pair = build_view_pair(rec, aug_cfg, rng)
            loss = _pair_loss_and_grads(
                state, enc_cfg, scl_cfg, optim_cfg, pair, 1.0 / len(batch), grads
            )
            if loss is not None:
                losses.append(loss)
        if not losses:
            continue
        lr = cosine_lr(optim_cfg.lr, state.step, total_steps)
        adam_step(state, grads, optim_cfg, lr)
        batch_losses.append(float(np.mean(losses)))
    state.epoch += 1
    return float(np.mean(batch_losses)) if batch_losses else float("nan")


def _moments_as_tensors(state: TrainState) -> dict[str, np.ndarray]:
    extra = {f"adam.m.{k}": v for k, v in state.m.items()}
    extra.update({f"adam.v.{k}": v for k, v in state.v.items()})
    extra["adam.step"] = np.array([state.step], dtype=np.float64)
    extra["adam.epoch"] = np.array([state.epoch], dtype=np.float64)
    return extra


def save_train_checkpoint(path, enc_cfg, state: TrainState) -> None:
    enc.save_checkpoint(path, enc_cfg, state.params, extra=_moments_as_tensors(state))


def load_train_checkpoint(path) -> tuple[enc.EncoderConfig, TrainState]:
    cfg, params, extra = enc.load_checkpoint(path)
    state = TrainState.fresh(params)
    for name, arr in extra.items():
        if name.startswith("adam.m."):
            state.m[name[len("adam.m."):]] = arr
        elif name.startswith("adam.v."):
            state.v[name[len("adam.v."):]] = arr
    state.step = int(extra.get("adam.step", [0])[0])
    state.epoch = int(extra.get("adam.epoch", [0])[0])
    return cfg, state


def fit(
    dataset: DatasetSplit,
    aug_cfg: AugmentConfig,
    enc_cfg: enc.EncoderConfig,
    scl_cfg: SCLConfig,
    optim_cfg: OptimConfig,
    *,
    checkpoint_path: str | Path | None = None,
    curve_path: str | Path | None = None,
    resume: bool = False,
) -> tuple[TrainState, list[tuple[int, float, float]]]:
    """Full training run. Returns the final state and the (epoch, loss, lr) curve.

    With resume=True and an existing checkpoint, picks up from its recorded
    epoch (optimizer moments included).
    """
    if resume and checkpoint_path and Path(checkpoint_path).exists():
        _, state = load_train_checkpoint(checkpoint_path)
    else:
        state = TrainState.fresh(enc.init_params(enc_cfg, seed=optim_cfg.seed))
    rng = np.random.default_rng([optim_cfg.seed, TRAIN_STREAM])

    batches = -(-len(dataset.train) // optim_cfg.videos_per_batch)
    total_steps = max(1, optim_cfg.epochs * batches)
    curve: list[tuple[int, float, float]] = []
    for epoch in range(state.epoch, optim_cfg.epochs):
        lr_now = cosine_lr(optim_cfg.lr, state.step, total_steps)
        loss = train_epoch(
            state, dataset, aug_cfg, enc_cfg, scl_cfg, optim_cfg, rng, total_steps
        )
        curve.append((epoch, loss, lr_now))
        if checkpoint_path and optim_cfg.checkpoint_every > 0 and (
            (epoch + 1) % optim_cfg.checkpoint_every == 0
        ):
            save_train_checkpoint(checkpoint_path, enc_cfg, state)
    if checkpoint_path:
        save_train_checkpoint(checkpoint_path, enc_cfg, state)
    if curve_path:
        with open(curve_path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["epoch", "loss", "lr"])
            for epoch, loss, lr_now in curve:
                writer.writerow([epoch, repr(loss), repr(lr_now)])
    return state, curve
