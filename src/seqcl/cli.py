"""Command-line pipeline: gen-data, train, eval, align, retrieve.

Exit codes: 0 success, 2 usage, 3 invalid config, 4 I/O or file format,
5 numerical failure. A `MemoryError`, which a config with sizes too large to
allocate raises, also exits 3, as does any other `SeqclError`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import data as data_mod
from . import eval as eval_mod
from . import train as train_mod
from .config import RunConfig, load_config
from .encoder import load_checkpoint
from .errors import ConfigError, FormatError, NumericError, SeqclError
from .loss import cosine_similarities

EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_NUMERIC = 5

# flag, the config field it overrides, argparse keywords
FLAGS = [
    ("--seed", "seed", {"type": int}),
    ("--frames", "augment.T", {"type": int, "help": "view length T"}),
    ("--alpha", "augment.alpha", {"type": float}),
    ("--beta", "augment.beta", {"type": float}),
    ("--sampling", "augment.sampling", {"choices": ["random", "even"]}),
    ("--sigma2", "loss.sigma2", {"type": float}),
    ("--tau", "loss.tau", {"type": float}),
    ("--lr", "optim.lr", {"type": float}),
    ("--epochs", "optim.epochs", {"type": int}),
]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqcl",
        description="Self-supervised frame-wise sequence representations: "
        "generate data, train, evaluate, align, retrieve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, help="JSON run config")
        for flag, dest, kwargs in FLAGS:
            p.add_argument(flag, dest=dest, **kwargs)
        p.add_argument("--out", type=Path, help="override the command's output path")

    for name, desc in [
        ("gen-data", "generate the synthetic dataset"),
        ("train", "train the encoder"),
        ("eval", "evaluate a checkpoint and write the metric report"),
        ("align", "DTW-align two videos, write path CSV + heatmap PGM"),
        ("retrieve", "nearest-neighbor frame retrieval for one query frame"),
    ]:
        p = sub.add_parser(name, help=desc)
        common(p)
        if name == "align":
            p.add_argument("video_a")
            p.add_argument("video_b")
        if name == "retrieve":
            p.add_argument("video")
            p.add_argument("frame", type=int)
            p.add_argument("-K", type=int, default=5)
    return parser


def _effective_config(args) -> RunConfig:
    return load_config(args.config, {dest: getattr(args, dest) for _, dest, _ in FLAGS})


def _require(path: Path, what: str) -> Path:
    if not Path(path).exists():
        raise FileNotFoundError(f"{what} not found: {path}")
    return Path(path)


def cmd_gen_data(cfg: RunConfig, args) -> None:
    split = data_mod.generate_synthetic(cfg.data)
    out = args.out or cfg.data_dir
    data_mod.save_dataset(split, out)
    print(f"wrote {len(split.train)} train / {len(split.test)} test videos to {out}")


def cmd_train(cfg: RunConfig, args) -> None:
    split = data_mod.load_dataset(_require(Path(cfg.data_dir), "data dir"))
    cfg.encoder.input_dim = split.feature_dim
    ckpt = args.out or cfg.checkpoint
    curve = Path(ckpt).with_suffix(".loss.csv")
    _, history = train_mod.fit(
        split, cfg.augment, cfg.encoder, cfg.loss, cfg.optim,
        checkpoint_path=ckpt, curve_path=curve,
    )
    final = history[-1][1] if history else float("nan")
    print(f"trained {cfg.optim.epochs} epochs, final loss {final:.6f}, checkpoint {ckpt}")


def cmd_eval(cfg: RunConfig, args) -> None:
    split = data_mod.load_dataset(_require(Path(cfg.data_dir), "data dir"))
    enc_cfg, params, _ = load_checkpoint(_require(Path(cfg.checkpoint), "checkpoint"))
    report = eval_mod.evaluate(params, enc_cfg, split, probe=cfg.probe)
    out = Path(args.out or cfg.report)
    payload = json.loads(report.to_json())
    payload["config"] = cfg.to_dict()  # provenance: the effective config
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(report.to_json(), end="")


def _load_videos(cfg: RunConfig, *needed: str):
    """The dataset's records by id, which must include `needed`, and the
    checkpoint's encoder."""
    split = data_mod.load_dataset(_require(Path(cfg.data_dir), "data dir"))
    enc_cfg, params, _ = load_checkpoint(_require(Path(cfg.checkpoint), "checkpoint"))
    records = {r.id: r for r in split.train + split.test}
    for vid in needed:
        if vid not in records:
            raise FileNotFoundError(f"video id not in dataset: {vid}")
    return records, enc_cfg, params


def cmd_align(cfg: RunConfig, args) -> None:
    records, enc_cfg, params = _load_videos(cfg, args.video_a, args.video_b)
    pair = [records[args.video_a], records[args.video_b]]
    sim = cosine_similarities(*eval_mod.embed_dataset(params, enc_cfg, pair))
    path, cost = eval_mod.dtw_align(sim)
    stem = Path(args.out) if args.out else Path(f"align_{args.video_a}_{args.video_b}")
    eval_mod.write_path_csv(path, stem.with_suffix(".csv"))
    eval_mod.write_pgm(sim, stem.with_suffix(".pgm"))
    print(f"alignment cost {cost:.6f}, {len(path)} steps -> {stem}.csv / {stem}.pgm")


def cmd_retrieve(cfg: RunConfig, args) -> None:
    records, enc_cfg, params = _load_videos(cfg, args.video)
    if not 0 <= args.frame < records[args.video].num_frames:
        raise ConfigError(f"frame {args.frame} out of range for {args.video}")
    embs = dict(zip(records, eval_mod.embed_dataset(params, enc_cfg, list(records.values()))))
    hits = eval_mod.retrieve_frames(embs[args.video][args.frame], embs, args.video, args.K)
    for rank, (vid, frame, score) in enumerate(hits, 1):
        print(f"{rank}\t{vid}\tframe {frame}\tscore {score:.6f}")


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "align": cmd_align,
    "retrieve": cmd_retrieve,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _effective_config(args)
        COMMANDS[args.command](cfg, args)
    except (FormatError, FileNotFoundError, OSError) as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"error: config: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG
    except SeqclError as exc:  # ConfigError, and any error of no narrower class
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return 0


if __name__ == "__main__":
    sys.exit(main())
