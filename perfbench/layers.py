"""Which program functions are traced, and how spans become per-layer metrics.

Every `*_s` metric is the summed inclusive duration of its spans unless the
name says `self`; counts are summed over the traced part of the run. Metrics
marked in COMPUTED are operation counts derived from shapes and configs, not
measured.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from pathlib import Path


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _probe_flops(args, kwargs):
    """Full-batch GD probe: two (n x d) by (d x c) products per step, plus the
    test prediction."""
    train_x, train_y, test_x = args[0], args[1], args[2]
    probe = args[4] if len(args) > 4 else kwargs.get("probe")
    n, d = train_x.shape
    c = int(train_y.max()) + 1 if train_y.ndim == 1 else train_y.shape[1]
    return {"flops": (4 * n * d * c * probe.steps + 2 * test_x.shape[0] * d * c)}


def _forward_name(args, kwargs):
    return "encoder.forward_train" if kwargs.get("train", False) else "encoder.forward_eval"


HOOKS = {
    ("seqcl.data", "generate_synthetic"): ("data.generate", None, None),
    ("seqcl.data", "save_dataset"): (
        "data.save", None, lambda a, k, r: {"bytes": _dir_bytes(_arg(a, k, 1, "out_dir"))}),
    ("seqcl.data", "load_dataset"): (
        "data.load", None, lambda a, k, r: {"bytes": _dir_bytes(_arg(a, k, 0, "data_dir"))}),
    ("seqcl.augment", "build_view_pair"): ("augment.view_pair", None, None),
    ("seqcl.encoder", "forward"): (
        _forward_name, lambda a, k: {"frames": _arg(a, k, 2, "x").shape[0]}, None),
    ("seqcl.encoder", "backward"): ("encoder.backward", None, None),
    ("seqcl.encoder", "save_checkpoint"): (
        "encoder.ckpt_save", None,
        lambda a, k, r: {"bytes": Path(_arg(a, k, 0, "path")).stat().st_size}),
    ("seqcl.encoder", "load_checkpoint"): ("encoder.ckpt_load", None, None),
    ("seqcl.loss", "scl_loss"): ("loss.scl", None, None),
    ("seqcl.train", "fit"): ("train.fit", None, None),
    ("seqcl.train", "train_epoch"): (
        "train.epoch",
        lambda a, k: {"batches": -(-len(_arg(a, k, 1, "dataset").train)
                                   // _arg(a, k, 5, "optim_cfg").videos_per_batch)},
        None),
    ("seqcl.train", "adam_step"): ("train.adam_step", None, None),
    ("seqcl.eval", "evaluate"): ("eval.evaluate", None, None),
    ("seqcl.eval", "embed_dataset"): (
        "eval.embed",
        lambda a, k: {"frames": sum(r.num_frames for r in _arg(a, k, 2, "records"))}, None),
    ("seqcl.eval", "linear_probe_classification"): ("eval.probe_cls", _probe_flops, None),
    ("seqcl.eval", "linear_probe_progression"): ("eval.probe_prog", _probe_flops, None),
    ("seqcl.eval", "kendalls_tau"): ("eval.tau", None, None),
    ("seqcl.eval", "ap_at_k"): (
        "eval.ap", lambda a, k: {"comparisons": _arg(a, k, 2, "candidate_embs").shape[0]}, None),
    ("seqcl.eval", "dtw_align"): (
        "eval.dtw", lambda a, k: {"cells": int(_arg(a, k, 0, "sim").size)}, None),
    ("seqcl.eval", "retrieve_frames"): ("eval.retrieve", None, None),
    ("seqcl.eval", "write_path_csv"): ("eval.export", None, None),
    ("seqcl.eval", "write_pgm"): ("eval.export", None, None),
}

# Every workload runs every layer, so each of these spans must fire in every
# traced run; the benchmark's own test checks that.
LAYER_SPANS = (
    "data.generate", "data.save", "data.load", "augment.view_pair",
    "encoder.forward_train", "encoder.backward", "encoder.forward_eval",
    "encoder.ckpt_save", "encoder.ckpt_load", "loss.scl",
    "train.fit", "train.epoch", "train.adam_step",
    "eval.evaluate", "eval.embed", "eval.probe_cls", "eval.probe_prog", "eval.tau", "eval.ap",
    "eval.dtw", "eval.retrieve", "eval.export", "cli.request",
)

COMPUTED = ("encoder.forward_flops", "encoder.backward_flops", "eval.probe_flops",
            "eval.dtw_cells", "eval.ap_comparisons")


def encoder_flops(enc: dict, T: int) -> tuple[int, int]:
    """Matmul FLOPs (2 per multiply-add) of one forward and one backward pass
    over a T-frame view. Backward does two products per forward product (input
    and weight gradients), except that the input itself gets no gradient."""
    D, m, f = enc["input_dim"], enc["model_dim"], enc["ffn_dim"]
    o, ph, po = enc["out_dim"], enc["proj_hidden"], enc["proj_out"]
    per_layer = 4 * T * m * m + 2 * T * T * m + 2 * T * m * f
    fwd = 2 * (T * D * m + T * m * m + enc["num_layers"] * per_layer
               + T * m * o + T * o * ph + T * ph * po)
    return fwd, 2 * fwd - 2 * T * D * m


def layer_metrics(rec, enc: dict, T: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced session's spans."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    attr = defaultdict(float)
    requests = defaultdict(list)
    nonzero = 0
    for (name, start, end, _, attrs), self_s in zip(rec.spans, rec.self_times()):
        total[name] += end - start
        own[name] += self_s
        calls[name] += 1
        for key, value in attrs.items():
            if isinstance(value, (int, float)):
                attr[f"{name}.{key}"] += value
        if name == "cli.request":
            requests[attrs["command"]].append(end - start)
            nonzero += attrs["exit"] != 0
    fwd_flops, bwd_flops = encoder_flops(enc, T)
    busy = total["encoder.forward_train"] + total["encoder.backward"]
    done = fwd_flops * calls["encoder.forward_train"] + bwd_flops * calls["encoder.backward"]
    steps = calls["train.adam_step"]

    def per_request(cmd):
        return statistics.median(requests[cmd]) if requests[cmd] else 0.0

    m = {
        "data.generate_s": (total["data.generate"], "s"),
        "data.save_s": (total["data.save"], "s"),
        "data.save_bytes": (attr["data.save.bytes"], "bytes"),
        "data.load_s": (total["data.load"], "s"),
        "data.load_bytes": (attr["data.load.bytes"], "bytes"),
        "data.load_calls": (calls["data.load"], "count"),
        "augment.view_pair_calls": (calls["augment.view_pair"], "count"),
        "augment.view_pair_s": (total["augment.view_pair"], "s"),
        "encoder.forward_train_calls": (calls["encoder.forward_train"], "count"),
        "encoder.forward_train_s": (total["encoder.forward_train"], "s"),
        "encoder.backward_calls": (calls["encoder.backward"], "count"),
        "encoder.backward_s": (total["encoder.backward"], "s"),
        "encoder.calls_per_step": (
            calls["encoder.forward_train"] / steps if steps else 0.0, "count"),
        "encoder.forward_flops": (fwd_flops, "flop"),
        "encoder.backward_flops": (bwd_flops, "flop"),
        "encoder.gflop_per_s": (done / busy / 1e9 if busy else 0.0, "GFLOP/s"),
        "encoder.forward_eval_calls": (calls["encoder.forward_eval"], "count"),
        "encoder.forward_eval_s": (total["encoder.forward_eval"], "s"),
        "encoder.ckpt_load_s": (total["encoder.ckpt_load"], "s"),
        "encoder.ckpt_save_s": (total["encoder.ckpt_save"], "s"),
        "encoder.ckpt_save_bytes": (attr["encoder.ckpt_save.bytes"], "bytes"),
        "loss.scl_calls": (calls["loss.scl"], "count"),
        "loss.scl_s": (total["loss.scl"], "s"),
        "train.steps": (steps, "count"),
        "train.adam_step_s": (total["train.adam_step"], "s"),
        "train.epoch_self_s": (own["train.epoch"], "s"),
        "train.skipped_batches": (attr["train.epoch.batches"] - steps, "count"),
        "eval.embed_s": (total["eval.embed"], "s"),
        "eval.embed_frames": (attr["eval.embed.frames"], "count"),
        "eval.probe_cls_s": (total["eval.probe_cls"], "s"),
        "eval.probe_prog_s": (total["eval.probe_prog"], "s"),
        "eval.probe_flops": (attr["eval.probe_cls.flops"] + attr["eval.probe_prog.flops"], "flop"),
        "eval.tau_s": (total["eval.tau"], "s"),
        "eval.tau_pairs": (calls["eval.tau"], "count"),
        "eval.ap_s": (total["eval.ap"], "s"),
        "eval.ap_queries": (calls["eval.ap"], "count"),
        "eval.ap_comparisons": (attr["eval.ap.comparisons"], "count"),
        "eval.evaluate_self_s": (own["eval.evaluate"], "s"),
        "eval.dtw_s": (total["eval.dtw"], "s"),
        "eval.dtw_cells": (attr["eval.dtw.cells"], "count"),
        "eval.dtw_cells_per_s": (
            attr["eval.dtw.cells"] / total["eval.dtw"] if total["eval.dtw"] else 0.0, "cell/s"),
        "eval.export_s": (total["eval.export"], "s"),
        "eval.retrieve_s": (total["eval.retrieve"], "s"),
        "cli.request_s.eval": (per_request("eval"), "s"),
        "cli.request_s.align": (per_request("align"), "s"),
        "cli.request_s.retrieve": (per_request("retrieve"), "s"),
        "cli.self_s": (own["cli.request"], "s"),
        "cli.nonzero_exits": (nonzero, "count"),
        "trace.spans": (len(rec.spans), "count"),
    }
    return {k: (float(v), u) for k, (v, u) in m.items()}
