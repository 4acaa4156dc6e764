import copy
import json
import struct

import numpy as np
import pytest

from seqcl import encoder as enc


def tiny_encoder_cfg(D=8, **kw):
    defaults = dict(
        input_dim=D, model_dim=16, num_layers=1, num_heads=2,
        ffn_dim=32, out_dim=8, proj_hidden=8, proj_out=6,
    )
    defaults.update(kw)
    return enc.EncoderConfig(**defaults)


def fd_param_grads(loss_fn, params, h=1e-5, names=None):
    """Central finite differences of loss_fn(params) over every entry of the
    selected tensors. loss_fn must not mutate params.tensors."""
    grads = {}
    for name in names or params.tensors:
        base = params.tensors[name]
        g = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            probe = copy.deepcopy(params)
            probe.tensors[name][idx] = base[idx] + h
            lp = loss_fn(probe)
            probe.tensors[name][idx] = base[idx] - h
            lm = loss_fn(probe)
            g[idx] = (lp - lm) / (2 * h)
        grads[name] = g
    return grads


def max_rel_err(analytic, numeric, floor=1e-6, noise_atol=1e-8):
    """Worst relative disagreement over matching tensors.

    Disagreements below noise_atol are central-difference cancellation noise
    (loss is O(1), h is 1e-5) and count as exact; the floor guards the
    denominator for near-zero gradients.
    """
    worst = 0.0
    for name in analytic:
        a, n = analytic[name], numeric[name]
        err = np.abs(a - n)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        rel = np.where(err < noise_atol, 0.0, err / denom)
        worst = max(worst, float(rel.max()))
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def rewrite_config_blob(path, **fields):
    """Rewrite a checkpoint's JSON config blob with extra fields set."""
    blob = path.read_bytes()
    (cfg_len,) = struct.unpack("<I", blob[8:12])
    cfg = json.loads(blob[12 : 12 + cfg_len])
    cfg.update(fields)
    new = json.dumps(cfg, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + cfg_len :])
