"""Optimization loop: Adam with decoupled weight decay, cosine learning-rate
decay without restarts, batched view-pair epochs and checkpointing."""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import encoder as enc
from .augment import AugmentConfig, build_view_pair
from .data import DatasetSplit
from .errors import ConfigError, FormatError, NumericError, check_fields, rule
from .loss import SCLConfig, baseline_contrastive_loss, scl_loss

# The training rng is np.random.default_rng([seed, TRAIN_STREAM]): a sub-stream
# of the run seed that shuffles batches and draws every view pair.
TRAIN_STREAM = 3


@dataclass
class OptimConfig:
    lr: float = rule(1e-4, ge=0)
    weight_decay: float = rule(1e-5, ge=0)
    beta1: float = rule(0.9, ge=0, lt=1)
    beta2: float = rule(0.999, ge=0, lt=1)
    eps: float = rule(1e-8, gt=0)
    epochs: int = rule(300, ge=0)
    videos_per_batch: int = rule(4, ge=1)
    seed: int = rule(0, ge=0)
    checkpoint_every: int = rule(50, ge=0)
    loss_kind: str = rule("scl", choices=("scl", "frame"))  # frame: per-frame baseline

    def __post_init__(self):
        check_fields(self)


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
    # a Python float: an np.float64 would promote float32 tensors in adam_step
    return float(0.5 * base_lr * (1.0 + np.cos(np.pi * step / total_steps)))


def adam_step(
    state: TrainState, grads: dict[str, np.ndarray], cfg: OptimConfig, lr: float
) -> None:
    """One Adam update with decoupled weight decay, in place on params and moments."""
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
        state.m[name] *= cfg.beta1
        state.m[name] += (1 - cfg.beta1) * g
        state.v[name] *= cfg.beta2
        state.v[name] += (1 - cfg.beta2) * (g * g)
        theta -= lr * (state.m[name] / bc1) / (np.sqrt(state.v[name] / bc2) + cfg.eps)


def _pair_loss_and_grads(state, enc_cfg, scl_cfg, optim_cfg, pair, scale, grads_out):
    """One (2, T, D) forward, loss and backward into grads_out; returns the loss,
    or None when the baseline loss has no timestamp matches for this pair."""
    x, (s1, s2) = pair
    emb, cache = enc.forward(state.params, enc_cfg, x, train=True)
    loss_fn = scl_loss if optim_cfg.loss_kind == "scl" else baseline_contrastive_loss
    result = loss_fn(*emb.Z, s1, s2, scl_cfg)
    if result is None:
        return None
    loss, grad_Z = result
    enc.backward(state.params, enc_cfg, cache, np.stack(grad_Z) * scale, grads_out)
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
    """One pass over shuffled training videos in batches; returns mean batch loss.

    One gradient set serves the whole call: each step zeroes it in place and
    `encoder.backward` adds the batch's pairs into it, one pair at a time."""
    if not dataset.train:
        raise ConfigError("empty training set")
    order = rng.permutation(len(dataset.train))
    bs = optim_cfg.videos_per_batch
    batch_losses = []
    grads = {k: np.empty_like(t) for k, t in state.params.tensors.items()}
    for lo in range(0, len(order), bs):
        batch = [dataset.train[i] for i in order[lo : lo + bs]]
        for g in grads.values():
            g.fill(0)
        losses = []
        for rec in batch:
            loss = _pair_loss_and_grads(
                state, enc_cfg, scl_cfg, optim_cfg, build_view_pair(rec, aug_cfg, rng),
                1.0 / len(batch), grads,
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
    """Encoder checkpoint plus the full Adam state: both moments of every
    tensor, in its shape, and the step and epoch counters. A checkpoint that
    lacks any of them is a FormatError."""
    cfg, params, extra = enc.load_checkpoint(path)
    shapes = {f"adam.{kind}.{k}": t.shape for kind in "mv" for k, t in params.tensors.items()}
    shapes.update({"adam.step": (1,), "adam.epoch": (1,)})
    for name, shape in shapes.items():
        if name not in extra:
            raise FormatError(f"{path}: training checkpoint lacks {name!r}")
        if extra[name].shape != shape:
            raise FormatError(f"{path}: {name!r} has shape {extra[name].shape}, expected {shape}")
    state = TrainState(
        params=params,
        m={k: extra[f"adam.m.{k}"] for k in params.tensors},
        v={k: extra[f"adam.v.{k}"] for k in params.tensors},
        step=int(extra["adam.step"][0]),
        epoch=int(extra["adam.epoch"][0]),
    )
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

    Parameters, buffers and Adam moments are float32, so the encoder computes
    in float32 and a checkpoint holds the state exactly. The float64 draws of
    `init_params` are dropped once cast, so the run holds the parameters, two
    moments, one gradient set and one view pair's activations at a time. A
    checkpoint is written every `checkpoint_every` epochs and after the last,
    each state once. With resume=True and an existing checkpoint, picks up
    from its recorded epoch (optimizer moments included); a checkpoint whose
    encoder config differs from enc_cfg is a ConfigError naming the fields
    that differ.
    """
    if resume and checkpoint_path and Path(checkpoint_path).exists():
        stored, state = load_train_checkpoint(checkpoint_path)
        given = asdict(enc_cfg)
        differ = {k: (v, given[k]) for k, v in asdict(stored).items() if v != given[k]}
        if differ:
            raise ConfigError(f"{checkpoint_path}: cannot resume with a different encoder, "
                              f"(checkpoint, given) per field: {differ}")
    else:
        init = enc.init_params(enc_cfg, seed=optim_cfg.seed)
        state = TrainState.fresh(enc.EncoderParams(
            tensors={k: t.astype(np.float32) for k, t in init.tensors.items()},
            buffers={k: b.astype(np.float32) for k, b in init.buffers.items()},
        ))
        del init  # float64, twice the size of the float32 state: not held for the run
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
        done, every = epoch + 1, optim_cfg.checkpoint_every
        # the last epoch's state is left to the final save, so it is written once
        if checkpoint_path and every > 0 and done % every == 0 and done < optim_cfg.epochs:
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
