"""Frame-level temporal encoder: projection block, sine-cosine positional
encoding, a small pre-norm Transformer stack, an output head producing
frame-wise representations H, and a two-layer projection head producing the
latent embeddings Z used by the contrastive loss.

Everything is plain numpy with hand-derived reverse-mode gradients; the
backward pass is exact and is held to a finite-difference contract in the
tests. Normalization in the projection block is batch norm over the T frames
of a view (batch statistics while training, running statistics at eval).

Attention runs ATTN_ROWS query rows at a time, in training and at eval: its
memory per view is O(heads * ATTN_ROWS * T), not O(heads * T^2). A training
forward keeps every layer's activations but not the attention weights, which
`backward` recomputes block by block; an eval forward keeps nothing.

The encoder computes in the dtype of its parameters: `forward` casts x, and
`backward` casts the upstream gradient, to it, and every array it allocates
follows. Training and checkpoints use float32; the float64 parameters that
`init_params` returns are the reference the finite-difference tests hold the
gradients to.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, SeqclError, check_fields, rule
from .loss import softmax

CKPT_MAGIC = b"CKPT"
CKPT_VERSION = 1
NORM_EPS = 1e-5  # batch norm and layer norm
BN_MOMENTUM = 0.1
ATTN_ROWS = 128  # query rows per attention block


@dataclass
class EncoderConfig:
    input_dim: int = rule(ge=1)
    model_dim: int = rule(256, ge=1)
    num_layers: int = rule(3, ge=1)
    num_heads: int = rule(8, ge=1)
    ffn_dim: int = rule(1024, ge=1)
    out_dim: int = rule(128, ge=1)
    proj_hidden: int = rule(256, ge=1)
    proj_out: int = rule(128, ge=1)

    def __post_init__(self):
        check_fields(self)
        if self.model_dim % self.num_heads != 0:
            raise ConfigError(
                f"model_dim={self.model_dim} not divisible by num_heads={self.num_heads}"
            )
        if self.model_dim % 2 != 0:
            raise ConfigError(f"model_dim must be even for sin/cos encoding, got {self.model_dim}")


@dataclass
class EncoderParams:
    tensors: dict[str, np.ndarray]  # learnable
    buffers: dict[str, np.ndarray]  # batch-norm running statistics


@dataclass
class EmbeddingSequence:
    H: np.ndarray  # (N, T, out_dim) frame-wise representations
    Z: np.ndarray  # (N, T, proj_out) latent embeddings for the loss


def _affine_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, int]]:
    m, f = cfg.model_dim, cfg.ffn_dim
    shapes = {
        "proj.fc1": (cfg.input_dim, m),
        "proj.fc2": (m, m),
        "out": (m, cfg.out_dim),
        "head.fc1": (cfg.out_dim, cfg.proj_hidden),
        "head.fc2": (cfg.proj_hidden, cfg.proj_out),
    }
    for i in range(cfg.num_layers):
        shapes[f"layer{i}.attn.q"] = (m, m)
        shapes[f"layer{i}.attn.k"] = (m, m)
        shapes[f"layer{i}.attn.v"] = (m, m)
        shapes[f"layer{i}.attn.o"] = (m, m)
        shapes[f"layer{i}.ffn.fc1"] = (m, f)
        shapes[f"layer{i}.ffn.fc2"] = (f, m)
    return shapes


def _norm_names(cfg: EncoderConfig) -> list[str]:
    names = ["proj.bn1", "proj.bn2"]
    for i in range(cfg.num_layers):
        names += [f"layer{i}.ln1", f"layer{i}.ln2"]
    return names


def init_params(cfg: EncoderConfig, seed: int) -> EncoderParams:
    """Uniform +-sqrt(1/fan_in) affine init; unit-scale zero-shift norms."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, (fan_in, fan_out) in _affine_shapes(cfg).items():
        bound = np.sqrt(1.0 / fan_in)
        tensors[f"{name}.W"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        tensors[f"{name}.b"] = rng.uniform(-bound, bound, size=fan_out)
    for name in _norm_names(cfg):
        width = cfg.model_dim
        tensors[f"{name}.gamma"] = np.ones(width)
        tensors[f"{name}.beta"] = np.zeros(width)
    buffers = {
        "proj.bn1.mean": np.zeros(cfg.model_dim),
        "proj.bn1.var": np.ones(cfg.model_dim),
        "proj.bn2.mean": np.zeros(cfg.model_dim),
        "proj.bn2.var": np.ones(cfg.model_dim),
    }
    return EncoderParams(tensors=tensors, buffers=buffers)


def positional_encoding(T: int, model_dim: int) -> np.ndarray:
    if model_dim % 2 != 0:
        raise ConfigError(f"model_dim must be even, got {model_dim}")
    pos = np.arange(T)[:, None]
    i = np.arange(model_dim // 2)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / model_dim)
    pe = np.empty((T, model_dim))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


# --- layer primitives (forward returns cache for the exact backward) ---


def _affine(x, p, name):
    return x @ p[f"{name}.W"] + p[f"{name}.b"]


def _affine_backward(d, x, p, name, grads, input_grad=True):
    """Add the W and b gradients of `_affine(x, p, name)` under upstream d,
    view by view; return the input gradient unless input_grad is off."""
    for xv, dv in zip(x, d):
        grads[f"{name}.W"] += xv.T @ dv
        grads[f"{name}.b"] += dv.sum(axis=0)
    return d @ p[f"{name}.W"].T if input_grad else None


def _norm_forward(x, p, name, axis, stats=None):
    """Normalize over `axis` (1: batch norm over each view's frames, -1:
    layer norm over each frame's features), then scale and shift. `stats` is a
    fixed (mean, var) used in place of x's own: batch norm's running
    statistics at eval, which has no backward."""
    if stats is None:
        stats = x.mean(axis=axis, keepdims=True), x.var(axis=axis, keepdims=True)
    mu, var = stats
    invstd = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = (x - mu) * invstd
    cache = {"xhat": xhat, "invstd": invstd, "axis": axis, "mean": mu, "var": var}
    return p[f"{name}.gamma"] * xhat + p[f"{name}.beta"], cache


def _norm_backward(dy, cache, p, name, grads):
    xhat, invstd, axis = cache["xhat"], cache["invstd"], cache["axis"]
    for dyv, xv in zip(dy, xhat):
        grads[f"{name}.gamma"] += (dyv * xv).sum(axis=0)
        grads[f"{name}.beta"] += dyv.sum(axis=0)
    dxhat = dy * p[f"{name}.gamma"]
    return invstd * (
        dxhat
        - dxhat.mean(axis=axis, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=axis, keepdims=True)
    )


def _batch_norm(x, params, name, train):
    """Batch norm over each view's frames: its own statistics while training,
    which move the running statistics view by view; running ones at eval."""
    buffers = params.buffers
    stats = None if train else (buffers[f"{name}.mean"], buffers[f"{name}.var"])
    out, cache = _norm_forward(x, params.tensors, name, 1, stats)
    if train:
        for stat in ("mean", "var"):
            key = f"{name}.{stat}"
            for view_stat in cache[stat][:, 0]:
                buffers[key] = (1 - BN_MOMENTUM) * buffers[key] + BN_MOMENTUM * view_stat
    return out, cache


def _attn_blocks(qh, kh):
    """Yield (rows, softmax of their scaled scores) per block of ATTN_ROWS
    query rows. BLAS may round a block's products differently from the whole
    matrix's; forward and backward share the blocks, so they agree bit for bit."""
    T, hd = qh.shape[-2:]
    for start in range(0, T, ATTN_ROWS):
        rows = slice(start, start + ATTN_ROWS)
        yield rows, softmax(qh[:, :, rows] @ kh.swapaxes(-1, -2) / math.sqrt(hd))


def _attn_forward(x, p, prefix, num_heads):
    """Multi-head self-attention over the T frames of each of x's N views, in
    `_attn_blocks`. The cache keeps q, k, v and the context, not the weights."""
    N, T, m = x.shape
    hd = m // num_heads
    # (N, heads, T, head_dim)
    qh, kh, vh = (
        _affine(x, p, f"{prefix}.{name}").reshape(N, T, num_heads, hd).transpose(0, 2, 1, 3)
        for name in "qkv"
    )
    ctx = np.empty((N, T, m), dtype=x.dtype)
    for rows, attn in _attn_blocks(qh, kh):
        ctx[:, rows] = (attn @ vh).transpose(0, 2, 1, 3).reshape(N, -1, m)
    cache = {"x": x, "qh": qh, "kh": kh, "vh": vh, "ctx": ctx}
    return _affine(ctx, p, f"{prefix}.o"), cache


def _attn_backward(dout, cache, p, prefix, num_heads, grads):
    x, qh, kh, vh = cache["x"], cache["qh"], cache["kh"], cache["vh"]
    N, T, m = x.shape
    hd = m // num_heads
    dctx = _affine_backward(dout, cache["ctx"], p, f"{prefix}.o", grads)
    dctx = dctx.reshape(N, T, num_heads, hd).transpose(0, 2, 1, 3)
    dqh, dkh, dvh = np.empty_like(qh), np.zeros_like(kh), np.zeros_like(vh)
    for rows, attn in _attn_blocks(qh, kh):
        dattn = dctx[:, :, rows] @ vh.swapaxes(-1, -2)
        dvh += attn.swapaxes(-1, -2) @ dctx[:, :, rows]
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dscores /= math.sqrt(hd)
        dqh[:, :, rows] = dscores @ kh
        dkh += dscores.swapaxes(-1, -2) @ qh[:, :, rows]
    return sum(
        _affine_backward(d.transpose(0, 2, 1, 3).reshape(N, T, m), x, p, f"{prefix}.{n}", grads)
        for n, d in (("q", dqh), ("k", dkh), ("v", dvh))
    )


def forward(
    params: EncoderParams,
    cfg: EncoderConfig,
    x: np.ndarray,
    *,
    train: bool = False,
) -> tuple[EmbeddingSequence, dict]:
    """Encode N views, x of shape (N, T, input_dim), into (H, Z) of shape
    (N, T, .); one video is N=1. With train=True, batch norm uses (and moves
    the running statistics by) each view's own statistics, and the returned
    cache holds what `backward` needs. At eval the cache is {}, and no
    Transformer layer's activations outlive it."""
    x = np.asarray(x, dtype=params.tensors["proj.fc1.W"].dtype)
    if x.ndim != 3 or x.shape[2] != cfg.input_dim:
        raise ConfigError(f"expected (N, T, {cfg.input_dim}) input, got {x.shape}")
    T = x.shape[1]
    p = params.tensors
    cache: dict = {"x": x, "layers": []}

    bn1, cache["bn1"] = _batch_norm(_affine(x, p, "proj.fc1"), params, "proj.bn1", train)
    a1 = np.maximum(bn1, 0.0)
    bn2, cache["bn2"] = _batch_norm(_affine(a1, p, "proj.fc2"), params, "proj.bn2", train)
    cache["a1"], cache["bn1_out"], cache["bn2_out"] = a1, bn1, bn2

    h = np.maximum(bn2, 0.0)
    h += positional_encoding(T, cfg.model_dim)

    for i in range(cfg.num_layers):
        lc: dict = {}
        norm1, lc["ln1"] = _norm_forward(h, p, f"layer{i}.ln1", -1)
        attn, lc["attn"] = _attn_forward(norm1, p, f"layer{i}.attn", cfg.num_heads)
        h = h + attn

        lc["norm2"], lc["ln2"] = _norm_forward(h, p, f"layer{i}.ln2", -1)
        lc["f1"] = _affine(lc["norm2"], p, f"layer{i}.ffn.fc1")
        lc["fa"] = np.maximum(lc["f1"], 0.0)
        h = h + _affine(lc["fa"], p, f"layer{i}.ffn.fc2")
        if train:
            cache["layers"].append(lc)

    cache["trunk"] = h
    H = _affine(h, p, "out")
    g1 = _affine(H, p, "head.fc1")
    ga = np.maximum(g1, 0.0)
    Z = _affine(ga, p, "head.fc2")
    cache["H"], cache["g1"], cache["ga"] = H, g1, ga
    return EmbeddingSequence(H=H, Z=Z), cache if train else {}


def backward(
    params: EncoderParams,
    cfg: EncoderConfig,
    cache: dict,
    grad_Z: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    """Add the exact gradients of the loss wrt every learnable tensor into
    `grads`, given the upstream gradient on the (N, T, proj_out) latent
    embeddings Z of the matching forward call, view by view in batch order."""
    if "trunk" not in cache:
        raise SeqclError("backward needs the cache returned by a train=True forward")
    p = params.tensors
    grad_Z = np.asarray(grad_Z, dtype=p["proj.fc1.W"].dtype)

    dga = _affine_backward(grad_Z, cache["ga"], p, "head.fc2", grads)
    dH = _affine_backward(dga * (cache["g1"] > 0), cache["H"], p, "head.fc1", grads)
    dh = _affine_backward(dH, cache["trunk"], p, "out", grads)

    for i in reversed(range(cfg.num_layers)):
        lc = cache["layers"][i]
        dfa = _affine_backward(dh, lc["fa"], p, f"layer{i}.ffn.fc2", grads)
        df1 = dfa * (lc["f1"] > 0)
        dnorm2 = _affine_backward(df1, lc["norm2"], p, f"layer{i}.ffn.fc1", grads)
        dh = dh + _norm_backward(dnorm2, lc["ln2"], p, f"layer{i}.ln2", grads)
        dnorm1 = _attn_backward(dh, lc["attn"], p, f"layer{i}.attn", cfg.num_heads, grads)
        dh = dh + _norm_backward(dnorm1, lc["ln1"], p, f"layer{i}.ln1", grads)

    # positional encoding is additive and constant
    dz2 = _norm_backward(dh * (cache["bn2_out"] > 0), cache["bn2"], p, "proj.bn2", grads)
    da1 = _affine_backward(dz2, cache["a1"], p, "proj.fc2", grads)
    dz1 = _norm_backward(da1 * (cache["bn1_out"] > 0), cache["bn1"], p, "proj.bn1", grads)
    _affine_backward(dz1, cache["x"], p, "proj.fc1", grads, input_grad=False)


# --- checkpoint container ---


def _write_tensor(f, name: str, arr: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    arr = np.ascontiguousarray(arr, dtype="<f4")
    f.write(struct.pack("<I", len(encoded)))
    f.write(encoded)
    f.write(struct.pack("<I", arr.ndim))
    for dim in arr.shape:
        f.write(struct.pack("<I", dim))
    f.write(arr.tobytes())


def save_checkpoint(
    path: str | Path,
    cfg: EncoderConfig,
    params: EncoderParams,
    extra: dict[str, np.ndarray] | None = None,
) -> None:
    """Named-tensor container: params, running stats ("buffer.*"), extras."""
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", CKPT_VERSION))
        blob = json.dumps(asdict(cfg), sort_keys=True).encode("utf-8")
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for name in sorted(params.tensors):
            _write_tensor(f, name, params.tensors[name])
        for name in sorted(params.buffers):
            _write_tensor(f, f"buffer.{name}", params.buffers[name])
        for name in sorted(extra or {}):
            _write_tensor(f, f"extra.{name}", extra[name])


def _checkpoint_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Record name and shape of every tensor and buffer an encoder checkpoint
    holds; extras are outside the schema."""
    shapes: dict[str, tuple[int, ...]] = {}
    for name, (fan_in, fan_out) in _affine_shapes(cfg).items():
        shapes[f"{name}.W"], shapes[f"{name}.b"] = (fan_in, fan_out), (fan_out,)
    for name in _norm_names(cfg):
        shapes[f"{name}.gamma"] = shapes[f"{name}.beta"] = (cfg.model_dim,)
    for name in ("proj.bn1", "proj.bn2"):
        shapes[f"buffer.{name}.mean"] = shapes[f"buffer.{name}.var"] = (cfg.model_dim,)
    return shapes


def load_checkpoint(
    path: str | Path,
) -> tuple[EncoderConfig, EncoderParams, dict[str, np.ndarray]]:
    """Read a checkpoint written by `save_checkpoint`. Every read is bounds
    checked, and the tensors and buffers must match the schema of the stored
    config exactly; any violation, or a non-finite value, is a FormatError."""
    path = Path(path)
    blob = path.read_bytes()
    off = 0

    def take(size: int, what: str) -> bytes:
        nonlocal off
        if off + size > len(blob):
            raise FormatError(f"{path}: truncated {what} at byte {off}")
        off += size
        return blob[off - size : off]

    def u32(what: str) -> int:
        return struct.unpack("<I", take(4, what))[0]

    if take(4, "magic") != CKPT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint (bad magic)")
    version = u32("version")
    if version != CKPT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    cfg_blob = take(u32("config length"), "config blob")
    try:
        fields = json.loads(cfg_blob.decode("utf-8"))
        # checkpoints from before dropout was removed carry "dropout": 0.0
        dropout = fields.pop("dropout", 0.0)
        cfg = EncoderConfig(**fields)
    except (ValueError, TypeError, AttributeError, RecursionError, ConfigError) as exc:
        raise FormatError(f"{path}: invalid config blob: {exc}") from exc
    if dropout != 0.0:
        raise FormatError(f"{path}: dropout={dropout!r} is not supported")

    expected = _checkpoint_shapes(cfg)
    records: dict[str, np.ndarray] = {}
    while off < len(blob):
        raw_name = take(u32("tensor name length"), "tensor name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: tensor name {raw_name!r} is not UTF-8") from exc
        rank = u32(f"rank of {name!r}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"shape of {name!r}"))
        if name in records:
            raise FormatError(f"{path}: duplicate tensor {name!r}")
        if not name.startswith("extra."):
            if name not in expected:
                raise FormatError(f"{path}: unknown tensor {name!r}")
            if dims != expected[name]:
                raise FormatError(
                    f"{path}: tensor {name!r} has shape {dims}, expected {expected[name]}"
                )
        payload = take(4 * math.prod(dims), f"payload of {name!r}")
        arr = np.frombuffer(payload, dtype="<f4").reshape(dims)
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: tensor {name!r} has non-finite values")
        records[name] = arr.astype(np.float32)
    missing = sorted(expected.keys() - records.keys())
    if missing:
        raise FormatError(f"{path}: missing tensors {missing}")

    buffers = {n.removeprefix("buffer."): a for n, a in records.items() if n.startswith("buffer.")}
    extra = {n.removeprefix("extra."): a for n, a in records.items() if n.startswith("extra.")}
    tensors = {n: a for n, a in records.items() if not n.startswith(("buffer.", "extra."))}
    return cfg, EncoderParams(tensors=tensors, buffers=buffers), extra
