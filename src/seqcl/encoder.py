"""Frame-level temporal encoder: projection block, sine-cosine positional
encoding, a small pre-norm Transformer stack, an output head producing
frame-wise representations H, and a two-layer projection head producing the
latent embeddings Z used by the contrastive loss.

Everything is plain numpy with hand-derived reverse-mode gradients; the
backward pass is exact and is held to a finite-difference contract in the
tests. Normalization in the projection block is batch norm over the T frames
of a view (batch statistics while training, running statistics at eval).
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, SeqclError

CKPT_MAGIC = b"CKPT"
CKPT_VERSION = 1
NORM_EPS = 1e-5  # batch norm and layer norm
BN_MOMENTUM = 0.1


@dataclass
class EncoderConfig:
    input_dim: int
    model_dim: int = 256
    num_layers: int = 3
    num_heads: int = 8
    ffn_dim: int = 1024
    out_dim: int = 128
    proj_hidden: int = 256
    proj_out: int = 128

    def __post_init__(self):
        dims = (
            self.input_dim, self.model_dim, self.num_layers, self.num_heads,
            self.ffn_dim, self.out_dim, self.proj_hidden, self.proj_out,
        )
        if any(d < 1 for d in dims):
            raise ConfigError(f"all encoder dimensions must be >= 1, got {self}")
        if self.model_dim % self.num_heads != 0:
            raise ConfigError(
                f"model_dim={self.model_dim} not divisible by num_heads={self.num_heads}"
            )
        if self.model_dim % 2 != 0:
            raise ConfigError(f"model_dim must be even for sin/cos encoding")


@dataclass
class EncoderParams:
    tensors: dict[str, np.ndarray]  # learnable
    buffers: dict[str, np.ndarray]  # batch-norm running statistics


@dataclass
class EmbeddingSequence:
    H: np.ndarray  # (T, out_dim) frame-wise representations
    Z: np.ndarray  # (T, proj_out) latent embeddings for the loss


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
    """Accumulate the W and b gradients of `_affine(x, p, name)` under the
    upstream gradient d; return the input gradient unless input_grad is off."""
    grads[f"{name}.W"] += x.T @ d
    grads[f"{name}.b"] += d.sum(axis=0)
    return d @ p[f"{name}.W"].T if input_grad else None


def _norm_forward(x, p, name, axis, stats=None):
    """Normalize over `axis` (0: batch norm over a view's frames, 1: layer
    norm over each frame's features), then scale and shift. `stats` is a
    fixed (mean, var) used in place of x's own, which the backward then treats
    as constants: batch norm's running statistics at eval."""
    fixed = stats is not None
    if not fixed:
        stats = x.mean(axis=axis, keepdims=True), x.var(axis=axis, keepdims=True)
    mu, var = stats
    invstd = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = (x - mu) * invstd
    cache = {"xhat": xhat, "invstd": invstd, "axis": axis, "fixed_stats": fixed,
             "mean": mu, "var": var}
    return p[f"{name}.gamma"] * xhat + p[f"{name}.beta"], cache


def _norm_backward(dy, cache, p, name, grads):
    xhat, invstd, axis = cache["xhat"], cache["invstd"], cache["axis"]
    grads[f"{name}.gamma"] += (dy * xhat).sum(axis=0)
    grads[f"{name}.beta"] += dy.sum(axis=0)
    dxhat = dy * p[f"{name}.gamma"]
    if cache["fixed_stats"]:
        return dxhat * invstd
    return invstd * (
        dxhat
        - dxhat.mean(axis=axis, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=axis, keepdims=True)
    )


def _batch_norm(x, params, name, train):
    """Batch norm over the frames of one view: batch statistics while training,
    which also move the running statistics; running statistics at eval."""
    buffers = params.buffers
    stats = None if train else (buffers[f"{name}.mean"], buffers[f"{name}.var"])
    out, cache = _norm_forward(x, params.tensors, name, 0, stats)
    if train:
        for stat in ("mean", "var"):
            key = f"{name}.{stat}"
            buffers[key] = (1 - BN_MOMENTUM) * buffers[key] + BN_MOMENTUM * cache[stat][0]
    return out, cache


def _attn_forward(x, p, prefix, num_heads):
    T, m = x.shape
    hd = m // num_heads
    # (heads, T, head_dim)
    qh, kh, vh = (
        _affine(x, p, f"{prefix}.{name}").reshape(T, num_heads, hd).transpose(1, 0, 2)
        for name in "qkv"
    )
    scores = qh @ kh.transpose(0, 2, 1) / np.sqrt(hd)
    scores -= scores.max(axis=2, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=2, keepdims=True)
    ctx = (attn @ vh).transpose(1, 0, 2).reshape(T, m)
    cache = {"x": x, "qh": qh, "kh": kh, "vh": vh, "attn": attn, "ctx": ctx}
    return _affine(ctx, p, f"{prefix}.o"), cache


def _attn_backward(dout, cache, p, prefix, num_heads, grads):
    x, qh, kh, vh, attn = cache["x"], cache["qh"], cache["kh"], cache["vh"], cache["attn"]
    T, m = x.shape
    hd = m // num_heads
    dctx = _affine_backward(dout, cache["ctx"], p, f"{prefix}.o", grads)
    dctx = dctx.reshape(T, num_heads, hd).transpose(1, 0, 2)
    dattn = dctx @ vh.transpose(0, 2, 1)
    dvh = attn.transpose(0, 2, 1) @ dctx
    dscores = attn * (dattn - (dattn * attn).sum(axis=2, keepdims=True))
    dscores /= np.sqrt(hd)
    dqh = dscores @ kh
    dkh = dscores.transpose(0, 2, 1) @ qh
    return sum(
        _affine_backward(dmat.transpose(1, 0, 2).reshape(T, m), x, p, f"{prefix}.{name}", grads)
        for name, dmat in (("q", dqh), ("k", dkh), ("v", dvh))
    )


def forward(
    params: EncoderParams,
    cfg: EncoderConfig,
    x: np.ndarray,
    *,
    train: bool = False,
    pos_encoding: np.ndarray | None = None,
) -> tuple[EmbeddingSequence, dict]:
    """Encode one view (T x input_dim) into (H, Z); returns cache for backward."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ConfigError(f"expected (T, {cfg.input_dim}) input, got {x.shape}")
    T = x.shape[0]
    p = params.tensors
    cache: dict = {"x": x, "layers": []}

    bn1, cache["bn1"] = _batch_norm(_affine(x, p, "proj.fc1"), params, "proj.bn1", train)
    a1 = np.maximum(bn1, 0.0)
    bn2, cache["bn2"] = _batch_norm(_affine(a1, p, "proj.fc2"), params, "proj.bn2", train)
    cache["a1"], cache["bn1_out"], cache["bn2_out"] = a1, bn1, bn2

    pe = positional_encoding(T, cfg.model_dim) if pos_encoding is None else pos_encoding
    h = np.maximum(bn2, 0.0) + pe

    for i in range(cfg.num_layers):
        lc: dict = {}
        norm1, lc["ln1"] = _norm_forward(h, p, f"layer{i}.ln1", 1)
        attn, lc["attn"] = _attn_forward(norm1, p, f"layer{i}.attn", cfg.num_heads)
        h = h + attn

        lc["norm2"], lc["ln2"] = _norm_forward(h, p, f"layer{i}.ln2", 1)
        lc["f1"] = _affine(lc["norm2"], p, f"layer{i}.ffn.fc1")
        lc["fa"] = np.maximum(lc["f1"], 0.0)
        h = h + _affine(lc["fa"], p, f"layer{i}.ffn.fc2")
        cache["layers"].append(lc)

    cache["trunk"] = h
    H = _affine(h, p, "out")
    g1 = _affine(H, p, "head.fc1")
    ga = np.maximum(g1, 0.0)
    Z = _affine(ga, p, "head.fc2")
    cache["H"], cache["g1"], cache["ga"] = H, g1, ga
    return EmbeddingSequence(H=H, Z=Z), cache


def backward(
    params: EncoderParams,
    cfg: EncoderConfig,
    cache: dict,
    grad_Z: np.ndarray,
    grad_H: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Exact gradients of the loss wrt every learnable tensor.

    grad_Z (and optionally grad_H) are the upstream gradients on the latent
    embeddings and representations produced by the matching forward call.
    """
    if "trunk" not in cache:
        raise SeqclError("backward needs the cache returned by forward")
    p = params.tensors
    grads = {name: np.zeros_like(t) for name, t in p.items()}

    dga = _affine_backward(grad_Z, cache["ga"], p, "head.fc2", grads)
    dH = _affine_backward(dga * (cache["g1"] > 0), cache["H"], p, "head.fc1", grads)
    if grad_H is not None:
        dH = dH + grad_H
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
    return grads


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


def load_checkpoint(
    path: str | Path,
) -> tuple[EncoderConfig, EncoderParams, dict[str, np.ndarray]]:
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < 12 or blob[:4] != CKPT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint (bad magic)")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != CKPT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<I", blob[8:12])
    off = 12
    if off + cfg_len > len(blob):
        raise FormatError(f"{path}: truncated config blob")
    try:
        fields = json.loads(blob[off : off + cfg_len].decode("utf-8"))
        # checkpoints from before dropout was removed carry "dropout": 0.0
        dropout = fields.pop("dropout", 0.0)
        cfg = EncoderConfig(**fields)
    except (ValueError, TypeError, AttributeError) as exc:
        raise FormatError(f"{path}: invalid config blob: {exc}") from exc
    if dropout != 0.0:
        raise FormatError(f"{path}: dropout={dropout!r} is not supported")
    off += cfg_len

    tensors: dict[str, np.ndarray] = {}
    buffers: dict[str, np.ndarray] = {}
    extra: dict[str, np.ndarray] = {}
    while off < len(blob):
        if off + 4 > len(blob):
            raise FormatError(f"{path}: truncated tensor record at byte {off}")
        (name_len,) = struct.unpack("<I", blob[off : off + 4])
        off += 4
        name = blob[off : off + name_len].decode("utf-8")
        off += name_len
        (rank,) = struct.unpack("<I", blob[off : off + 4])
        off += 4
        dims = struct.unpack(f"<{rank}I", blob[off : off + 4 * rank])
        off += 4 * rank
        count = int(np.prod(dims)) if rank else 1
        end = off + 4 * count
        if end > len(blob):
            raise FormatError(f"{path}: tensor {name!r} payload truncated")
        arr = np.frombuffer(blob[off:end], dtype="<f4").reshape(dims).astype(np.float64)
        off = end
        if name.startswith("buffer."):
            buffers[name[len("buffer."):]] = arr
        elif name.startswith("extra."):
            extra[name[len("extra."):]] = arr
        else:
            tensors[name] = arr
    return cfg, EncoderParams(tensors=tensors, buffers=buffers), extra
