"""Frame-level temporal encoder: projection block, sine-cosine positional
encoding, a small pre-norm Transformer stack, an output head producing
frame-wise representations H, and a two-layer projection head producing the
latent embeddings Z used by the contrastive loss.

Everything is plain numpy with hand-derived reverse-mode gradients; the
backward pass is exact and is held to a finite-difference contract in the
tests. Normalization in the projection block is batch norm over the T frames
of a view (batch statistics while training, running statistics at eval).

Attention runs ATTN_ROWS query rows at a time, in training and at eval: its
memory per view is O(heads * ATTN_ROWS * T), not O(heads * T^2), and it
divides each block's context, not its weights, by the weight sums
(FlashAttention-2). Each block takes three passes: a score GEMM that also
subtracts each query's shift, an in-place exp, and a value GEMM against
[v, 1] whose last column is the weight sum. The shift is a bound, c_i =
‖q_i‖·max_j ‖k_j‖ >= |score|, not the row max: with c <= SHIFT_BOUND = 40
every exp(score - c) lies in [e^-80, 1], a normal float32, so nothing
overflows or underflows to zero. A view whose bound exceeds it, or
overflows, shifts by each query's max score instead, subtracted after the
GEMM in a pass of its own. A training
forward keeps every layer's activations, for attention q, [k, 1], [v, 1] and
the context, with each query's log-sum-exp of its scores in q's extra column,
but not the weights, which `backward` recomputes block by block as
exp(scores - lse), from one GEMM and one exp. Of each ReLU it keeps the
input, not the output, and of each norm the normalized xhat, not the scaled
output, which is also attention's input; `backward` recomputes those, bit
for bit, where a gradient needs them, and drops each temporary once it is
used. An eval forward keeps nothing.

The encoder computes in the dtype of its parameters: `forward` casts x, and
`backward` casts the upstream gradient, to it, and every array it allocates
follows. Training and checkpoints use float32; the float64 parameters that
`init_params` returns are the reference the finite-difference tests hold the
gradients to.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, SeqclError, check_fields, rule

CKPT_MAGIC = b"CKPT"
CKPT_VERSION = 1
NORM_EPS = 1e-5  # batch norm and layer norm
BN_MOMENTUM = 0.1
ATTN_ROWS = 128  # query rows per attention block
SHIFT_BOUND = 40.0  # largest score bound an attention view is shifted by: exp(s - c) >= e^-80


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

    @property
    def dtype(self) -> np.dtype:
        """The dtype the encoder computes in: that of its parameters."""
        return self.tensors["proj.fc1.W"].dtype


@dataclass
class EmbeddingSequence:
    H: np.ndarray  # (N, T, out_dim) frame-wise representations
    Z: np.ndarray  # (N, T, proj_out) latent embeddings for the loss


def _shapes(cfg: EncoderConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Name and shape of every array an encoder holds, in `init_params`' draw
    order: each affine layer's W and b, each norm's gamma and beta, then the
    batch norms' running statistics as "buffer.*". `load_checkpoint` requires
    exactly these records; extras are outside the table. Lazy, so a reader
    can stop before a table that the stored config makes huge is built."""
    m, f, layers = cfg.model_dim, cfg.ffn_dim, range(cfg.num_layers)
    ends = {"proj.fc1": (cfg.input_dim, m), "proj.fc2": (m, m), "out": (m, cfg.out_dim),
            "head.fc1": (cfg.out_dim, cfg.proj_hidden),
            "head.fc2": (cfg.proj_hidden, cfg.proj_out)}
    layer = {**{f"attn.{n}": (m, m) for n in "qkvo"}, "ffn.fc1": (m, f), "ffn.fc2": (f, m)}
    affine = chain(ends.items(),
                   ((f"layer{i}.{n}", shape) for i in layers for n, shape in layer.items()))
    for name, (fan_in, fan_out) in affine:
        yield f"{name}.W", (fan_in, fan_out)
        yield f"{name}.b", (fan_out,)
    norms = chain(("proj.bn1", "proj.bn2"), (f"layer{i}.ln{j}" for i in layers for j in (1, 2)))
    for name in norms:
        yield f"{name}.gamma", (m,)
        yield f"{name}.beta", (m,)
    for name in ("proj.bn1", "proj.bn2"):
        yield f"buffer.{name}.mean", (m,)
        yield f"buffer.{name}.var", (m,)


def init_params(cfg: EncoderConfig, seed: int) -> EncoderParams:
    """Uniform +-sqrt(1/fan_in) affine init, W then b; unit-scale zero-shift
    norms; zero-mean unit-variance running statistics."""
    rng = np.random.default_rng(seed)
    params = EncoderParams(tensors={}, buffers={})
    for name, shape in _shapes(cfg):
        kind = name.rsplit(".", 1)[1]
        if kind == "W":
            bound = np.sqrt(1.0 / shape[0])
        if kind in ("W", "b"):
            arr = rng.uniform(-bound, bound, size=shape)
        else:
            arr = np.ones(shape) if kind in ("gamma", "var") else np.zeros(shape)
        group = params.buffers if name.startswith("buffer.") else params.tensors
        group[name.removeprefix("buffer.")] = arr
    return params


_PE_TABLES: dict[int, np.ndarray] = {}  # model_dim -> table for the longest T asked


def positional_encoding(T: int, model_dim: int) -> np.ndarray:
    """Read-only (T, model_dim) sine-cosine table: the first T rows of one
    table per model_dim, rebuilt only when a longer T is asked for. Each entry
    depends only on its (position, column), so a slice equals a fresh table."""
    if model_dim % 2 != 0:
        raise ConfigError(f"model_dim must be even, got {model_dim}")
    pe = _PE_TABLES.get(model_dim)
    if pe is None or pe.shape[0] < T:
        pos = np.arange(T)[:, None]
        i = np.arange(model_dim // 2)[None, :]
        angle = pos / np.power(10000.0, 2.0 * i / model_dim)
        pe = np.empty((T, model_dim))
        pe[:, 0::2] = np.sin(angle)
        pe[:, 1::2] = np.cos(angle)
        pe.flags.writeable = False
        _PE_TABLES[model_dim] = pe
    return pe[:T]


# --- layer primitives (forward returns cache for the exact backward) ---


def _affine(x, p, name):
    y = x @ p[f"{name}.W"]
    y += p[f"{name}.b"]
    return y


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
    return _scale_shift(xhat, p, name), cache


def _scale_shift(xhat, p, name):
    """A norm's output from its normalized input; `backward` recomputes ln2's."""
    return p[f"{name}.gamma"] * xhat + p[f"{name}.beta"]


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


def _heads(a, num_heads):
    """(N, T, m) to (N, heads, T, head_dim), a view."""
    N, T, m = a.shape
    return a.reshape(N, T, num_heads, m // num_heads).transpose(0, 2, 1, 3)


def _qkv(x, p, prefix, num_heads):
    """The q, k and v affines of x in one GEMM, each (N, heads, T, head_dim + 1)
    with a last column of ones: the weights get a zero column after each head's,
    whose bias is 1. q is scaled by 1/√head_dim through its weights and bias."""
    N, T, m = x.shape
    hd = m // num_heads
    W = np.zeros((m, 3, num_heads, hd + 1), dtype=x.dtype)
    b = np.ones((3, num_heads, hd + 1), dtype=x.dtype)
    for i, name in enumerate("qkv"):
        W[:, i, :, :hd] = p[f"{prefix}.{name}.W"].reshape(m, num_heads, hd)
        b[i, :, :hd] = p[f"{prefix}.{name}.b"].reshape(num_heads, hd)
    scale = 1.0 / math.sqrt(hd)
    W[:, 0] *= scale
    b[0] *= scale
    y = x @ W.reshape(m, -1)
    y += b.reshape(-1)
    return y.reshape(N, T, 3, num_heads, hd + 1).transpose(2, 0, 3, 1, 4)


def _shift_by_bound(qk):
    """Write -c_i into the last column of each query row of q, qk = (q, k),
    where c_i = ‖q_i‖·max_j ‖k_j‖ per head bounds every score |q_i·k_j|
    (Cauchy–Schwarz), and return the views whose c exceeds SHIFT_BOUND
    anywhere: their column is 0, and their blocks take the row-max shift.
    einsum raises no floating-point warnings, so a bound that overflows is
    inf or NaN and sends its view to the row-max path without one."""
    hd = qk.shape[-1] - 1
    sq = np.einsum("snhtd,snhtd->snht", qk[..., :hd], qk[..., :hd])  # squared row norms
    c = np.einsum("nht,nh->nht", sq[0], sq[1].max(axis=-1, initial=0.0))
    np.sqrt(c, out=c)
    row_max = np.flatnonzero(~(c.max(axis=(1, 2), initial=0.0) <= SHIFT_BOUND))
    c[row_max] = 0.0
    np.negative(c, out=qk[0, ..., hd])
    return row_max


def _attn_blocks(q, k):
    """Yield (rows, k @ q_rowsᵀ) per block of ATTN_ROWS query rows: with k's
    last column of ones, q's last column is subtracted from each score, in
    the GEMM. The block is key-major, (T, rows) per head, so that reductions
    over the keys run down the buffer's columns. Each block is written over
    the last in one buffer. Forward and backward share the blocks."""
    N, heads, T, _ = q.shape
    buf = np.empty((N, heads, T, min(T, ATTN_ROWS)), dtype=q.dtype)
    for start in range(0, T, ATTN_ROWS):
        rows = slice(start, start + ATTN_ROWS)
        qT = q[:, :, rows].swapaxes(-1, -2)
        yield rows, np.matmul(k, qT, out=buf[..., : qT.shape[-1]])


def _attn_forward(x, p, prefix, num_heads):
    """Multi-head self-attention over the T frames of each of x's N views, in
    `_attn_blocks`, three passes per block: the score GEMM, already shifted
    by each query's bound c (`_shift_by_bound`), an in-place exp, and the
    value GEMM against [v, 1], whose last column is each query's weight sum.
    The context is the numerator over that sum. A view whose bound exceeds
    SHIFT_BOUND shifts by 0 in the GEMM and subtracts each query's max score
    after it. The cache keeps q, [k, 1], [v, 1] and the context, not the
    weights; q's last column then holds minus each query's log-sum-exp, so
    that the backward's blocks are scores - lse."""
    qkv = _qkv(x, p, prefix, num_heads)
    row_max = _shift_by_bound(qkv[:2])
    q, k, v = qkv
    hd = q.shape[-1] - 1
    shift = q[..., hd]  # -c, then -lse
    ctx = np.empty_like(x)
    ctxh = _heads(ctx, num_heads)
    for rows, e in _attn_blocks(q, k):
        for n in row_max:
            col_max = e[n].max(axis=-2, keepdims=True)
            e[n] -= col_max
            shift[n, :, rows] = -col_max[:, 0]
        np.exp(e, out=e)
        num = e.swapaxes(-1, -2) @ v
        np.divide(num[..., :hd], num[..., hd:], out=ctxh[:, :, rows])
        shift[:, :, rows] -= np.log(num[..., hd])
    cache = {"q": q, "k": k, "v": v, "ctx": ctx}
    return _affine(ctx, p, f"{prefix}.o"), cache


def _attn_backward(dout, x, cache, p, prefix, num_heads, grads):
    """Gradients of `_attn_forward(x, ...)`, whose x the cache does not hold;
    returns the gradient wrt x. The row-block buffers are freed before the q,
    k and v weight gradients, and the input gradients add in q, k, v order."""
    dq, dk, dv = _attn_core_backward(dout, cache, p, prefix, num_heads, grads)
    dx = _affine_backward(dq, x, p, f"{prefix}.q", grads)
    dx += _affine_backward(dk, x, p, f"{prefix}.k", grads)
    dx += _affine_backward(dv, x, p, f"{prefix}.v", grads)
    return dx


def _attn_core_backward(dout, cache, p, prefix, num_heads, grads):
    """The o affine's and the row blocks' backward; returns the gradients wrt
    the q, k and v affine outputs. Each block is exp(scores - lse), the
    weights, from one GEMM and one exp; lse bounds every score, on either
    shift path. The weights' gradient less each query's D comes from one GEMM
    too, [v, 1] @ [dctx, -D]ᵀ."""
    q, k, v, ctx = cache["q"], cache["k"], cache["v"], cache["ctx"]
    hd = q.shape[-1] - 1
    dq, dk, dv = np.empty_like(ctx), np.zeros_like(ctx), np.zeros_like(ctx)
    dctx = _affine_backward(dout, ctx, p, f"{prefix}.o", grads)
    # each query's D = rowsum(dattn ∘ attn) is rowsum(dctx ∘ ctx): once, not per block
    dctx1 = np.empty_like(q)
    np.sum(_heads(dctx * ctx, num_heads), axis=-1, out=dctx1[..., hd])
    np.negative(dctx1[..., hd], out=dctx1[..., hd])
    dctx1[..., :hd] = _heads(dctx, num_heads)
    del dctx
    dqh, dkh, dvh = (_heads(d, num_heads) for d in (dq, dk, dv))
    dbuf = np.empty(q.shape[:-1] + (min(q.shape[2], ATTN_ROWS),), dtype=dq.dtype)
    for rows, attn in _attn_blocks(q, k):  # (N, heads, T, rows): scores - lse, then weights
        np.exp(attn, out=attn)
        dvh += attn @ dctx1[:, :, rows, :hd]
        dscores = np.matmul(v, dctx1[:, :, rows].swapaxes(-1, -2), out=dbuf[..., : attn.shape[-1]])
        dscores *= attn
        np.matmul(dscores.swapaxes(-1, -2), k[..., :hd], out=dqh[:, :, rows])
        dkh += dscores @ q[:, :, rows, :hd]
    dq *= 1.0 / math.sqrt(hd)
    return dq, dk, dv


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
    cache holds what `backward` needs. At eval the cache is {}: the input
    projection's activations die before the first Transformer layer, and no
    layer's activations outlive it."""
    x = np.asarray(x, dtype=params.dtype)
    if x.ndim != 3 or x.shape[2] != cfg.input_dim:
        raise ConfigError(f"expected (N, T, {cfg.input_dim}) input, got {x.shape}")
    T = x.shape[1]
    p = params.tensors
    cache: dict = {"x": x, "layers": []}

    bn1, cache["bn1"] = _batch_norm(_affine(x, p, "proj.fc1"), params, "proj.bn1", train)
    bn2, cache["bn2"] = _batch_norm(
        _affine(np.maximum(bn1, 0.0), p, "proj.fc2"), params, "proj.bn2", train)

    h = np.maximum(bn2, 0.0)
    h += positional_encoding(T, cfg.model_dim)
    del bn1, bn2  # `backward` recomputes both from their caches
    if not train:
        cache = {}  # the batch norms' caches serve only `backward`

    for i in range(cfg.num_layers):
        lc: dict = {}
        norm1, lc["ln1"] = _norm_forward(h, p, f"layer{i}.ln1", -1)
        attn, lc["attn"] = _attn_forward(norm1, p, f"layer{i}.attn", cfg.num_heads)
        h = h + attn
        del norm1, attn

        norm2, lc["ln2"] = _norm_forward(h, p, f"layer{i}.ln2", -1)
        lc["f1"] = _affine(norm2, p, f"layer{i}.ffn.fc1")
        del norm2
        h = h + _affine(np.maximum(lc["f1"], 0.0), p, f"layer{i}.ffn.fc2")
        if train:
            cache["layers"].append(lc)

    cache["trunk"] = h
    H = _affine(h, p, "out")
    g1 = _affine(H, p, "head.fc1")
    Z = _affine(np.maximum(g1, 0.0), p, "head.fc2")
    cache["H"], cache["g1"] = H, g1
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
    embeddings Z of the matching forward call, view by view in batch order.
    Beyond the cache it holds one layer's temporaries at a time: the FFN's
    die before the attention backward starts, and attention's row-block
    buffers before its q, k and v weight gradients."""
    if "trunk" not in cache:
        raise SeqclError("backward needs the cache returned by a train=True forward")
    p = params.tensors
    grad_Z = np.asarray(grad_Z, dtype=params.dtype)

    g1 = cache["g1"]
    dga = _affine_backward(grad_Z, np.maximum(g1, 0.0), p, "head.fc2", grads)
    dH = _affine_backward(dga * (g1 > 0), cache["H"], p, "head.fc1", grads)
    dh = _affine_backward(dH, cache["trunk"], p, "out", grads)

    for i in reversed(range(cfg.num_layers)):
        lc, name = cache["layers"][i], f"layer{i}"
        dh += _ffn_backward(dh, lc, p, name, grads)
        norm1 = _scale_shift(lc["ln1"]["xhat"], p, f"{name}.ln1")
        dnorm1 = _attn_backward(dh, norm1, lc["attn"], p, f"{name}.attn", cfg.num_heads, grads)
        del norm1
        dh += _norm_backward(dnorm1, lc["ln1"], p, f"{name}.ln1", grads)
        del dnorm1

    # positional encoding is additive and constant
    bn2 = _scale_shift(cache["bn2"]["xhat"], p, "proj.bn2")
    dz2 = _norm_backward(dh * (bn2 > 0), cache["bn2"], p, "proj.bn2", grads)
    bn1 = _scale_shift(cache["bn1"]["xhat"], p, "proj.bn1")
    da1 = _affine_backward(dz2, np.maximum(bn1, 0.0), p, "proj.fc2", grads)
    dz1 = _norm_backward(da1 * (bn1 > 0), cache["bn1"], p, "proj.bn1", grads)
    _affine_backward(dz1, cache["x"], p, "proj.fc1", grads, input_grad=False)


def _ffn_backward(dh, lc, p, name, grads):
    """The gradient wrt layer `name`'s ln2 input through its FFN, whose
    activations die when it returns."""
    f1 = lc["f1"]
    df1 = _affine_backward(dh, np.maximum(f1, 0.0), p, f"{name}.ffn.fc2", grads)
    df1 *= f1 > 0
    norm2 = _scale_shift(lc["ln2"]["xhat"], p, f"{name}.ln2")
    dnorm2 = _affine_backward(df1, norm2, p, f"{name}.ffn.fc1", grads)
    del df1, norm2
    return _norm_backward(dnorm2, lc["ln2"], p, f"{name}.ln2", grads)


# --- checkpoint container ---


def _write_tensor(f, name: str, arr: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    arr = np.ascontiguousarray(arr, dtype="<f4")
    f.write(struct.pack("<I", len(encoded)))
    f.write(encoded)
    f.write(struct.pack("<I", arr.ndim))
    for dim in arr.shape:
        f.write(struct.pack("<I", dim))
    f.write(arr)  # its own buffer, not a bytes copy; a zero-size one too


def save_checkpoint(
    path: str | Path,
    cfg: EncoderConfig,
    params: EncoderParams,
    extra: dict[str, np.ndarray] | None = None,
) -> None:
    """Named-tensor container: params, running stats ("buffer.*"), extras.
    The file is written next to `path` and then renamed onto it, so a write
    that fails or is interrupted leaves any earlier checkpoint at `path` whole."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CKPT_MAGIC)
            f.write(struct.pack("<I", CKPT_VERSION))
            blob = json.dumps(asdict(cfg), sort_keys=True).encode("utf-8")
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            for prefix, group in (("", params.tensors), ("buffer.", params.buffers),
                                  ("extra.", extra or {})):
                for name in sorted(group):
                    _write_tensor(f, prefix + name, group[name])
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(
    path: str | Path,
) -> tuple[EncoderConfig, EncoderParams, dict[str, np.ndarray]]:
    """Read a checkpoint written by `save_checkpoint`. Every read is bounds
    checked, and the tensors and buffers must be exactly those `_shapes` gives
    for the stored config; any violation, or a non-finite value, is a FormatError.
    Each payload is read from the file straight into its own float32 array, so
    the file's bytes are held once."""
    path = Path(path)
    with open(path, "rb") as f:
        size, off = os.fstat(f.fileno()).st_size, 0

        def take(nbytes: int, what: str, dims: tuple[int, ...] | None = None):
            """The next nbytes of the file: bytes, or, given dims, a new float32
            array of that shape read in place. A read past the end of the file
            is a FormatError, checked before anything is allocated."""
            nonlocal off
            if off + nbytes > size:
                raise FormatError(f"{path}: truncated {what} at byte {off}")
            if dims is None:
                out = f.read(nbytes)
                got = len(out)
            else:
                out = np.empty(dims, dtype="<f4")
                got = f.readinto(out)
            if got != nbytes:  # the file shrank since it was opened
                raise FormatError(f"{path}: truncated {what} at byte {off + got}")
            off += nbytes
            return out

        def u32(what: str) -> int:
            return struct.unpack("<I", take(4, what))[0]

        if take(4, "magic") != CKPT_MAGIC:
            raise FormatError(f"{path}: not a checkpoint (bad magic)")
        version = u32("version")
        if version != CKPT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        cfg_blob = take(u32("config length"), "config blob")
        try:
            cfg = EncoderConfig(**json.loads(cfg_blob.decode("utf-8")))
        except (ValueError, TypeError, RecursionError, ConfigError) as exc:
            raise FormatError(f"{path}: invalid config blob: {exc}") from exc

        # each record takes 12 bytes and its name at the least (length, rank,
        # one dim): a table the file cannot hold is refused before it is built
        expected: dict[str, tuple[int, ...]] = {}
        need = 0
        for name, shape in _shapes(cfg):
            need += 12 + len(name.encode("utf-8"))
            if need > size - off:
                raise FormatError(f"{path}: truncated: the config's tensors need more than "
                                  f"the {size - off} bytes left")
            expected[name] = shape
        records: dict[str, np.ndarray] = {}
        while off < size:
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
            arr = take(4 * math.prod(dims), f"payload of {name!r}", dims)
            # min and max are NaN if any value is, and hold any infinity
            if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
                raise FormatError(f"{path}: tensor {name!r} has non-finite values")
            records[name] = arr
    missing = sorted(expected.keys() - records.keys())
    if missing:
        raise FormatError(f"{path}: missing tensors {missing}")

    buffers = {n.removeprefix("buffer."): a for n, a in records.items() if n.startswith("buffer.")}
    extra = {n.removeprefix("extra."): a for n, a in records.items() if n.startswith("extra.")}
    tensors = {n: a for n, a in records.items() if not n.startswith(("buffer.", "extra."))}
    return cfg, EncoderParams(tensors=tensors, buffers=buffers), extra
