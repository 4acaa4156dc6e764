"""Workloads, their set-up, and the measured session.

Every workload is the same user session at a different point of the traffic
space (view length T, encoder size, video length, number of videos, number of
requests), repeated in rounds: train the encoder from scratch with
`seqcl.train.fit` (periodic checkpoints and a loss CSV), then send one cycle
of `seqcl eval` / `align` / `retrieve` requests through `seqcl.cli.main`, one
client, closed loop. Each request is a fresh CLI invocation, so it reloads the
dataset and checkpoint and re-embeds every video. Where a workload spends its
time differs:

- train-small: the criterion-5 configuration. Each step makes 8 small
  forward/backward calls, so Python call overhead in encoder, loss, augment
  and adam_step dominates; batching the encoder shows here.
- train-paper: the paper's encoder shape. BLAS matmuls dominate (about 1.4 s
  per 4-video step), so fewer FLOPs or a float32 path show here.
- query-long: long videos and no training in the measured loop (the
  checkpoint is trained for two epochs during set-up). Reads, checkpoint
  loads, eval-mode encoding of 600-700 frames, probes, AP@K and DTW carry the
  work; an embedding cache or a faster DTW shows here and not in train-*.

The benchmark only uses public names of seqcl.data, augment, encoder, loss,
train, eval and cli. Functions are looked up on their module at call time, so
traced runs see the wrapped versions.
"""

from __future__ import annotations

import io
import json
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
from tracing import rebind, restore

from seqcl import cli, data as data_mod, train as train_mod
from seqcl.augment import AugmentConfig
from seqcl.encoder import EncoderConfig
from seqcl.loss import SCLConfig


@dataclass(frozen=True)
class Workload:
    data: dict  # SyntheticSpec fields; the seed comes from --seed
    split_ratio: float | None  # re-split the generated videos train/test
    augment: dict
    encoder: dict
    optim: dict  # OptimConfig fields; the seed comes from --seed
    probe: dict
    train_in_setup: bool  # True: the session only sends requests
    cycle: tuple[str, ...]  # request mix of one round


BENCH_ENC = dict(input_dim=32, model_dim=64, num_layers=2, num_heads=4, ffn_dim=128,
                 out_dim=32, proj_hidden=32, proj_out=32)
PAPER_ENC = dict(input_dim=2048, model_dim=256, num_layers=3, num_heads=8, ffn_dim=1024,
                 out_dim=128, proj_hidden=256, proj_out=128)
BENCH_AUG = dict(T=64, alpha=1.5, beta=0.2, jitter_std=0.1)
PROBE = dict(steps=500, lr=0.1)
K = 5  # hits per retrieve request

WORKLOADS = {
    "train-small": Workload(
        data=dict(num_videos=63, num_phases=5, feature_dim=32, min_len=96, max_len=160,
                  noise_std=0.3),
        split_ratio=None, augment=BENCH_AUG, encoder=BENCH_ENC,
        optim=dict(lr=1e-4, epochs=10, videos_per_batch=4, checkpoint_every=5),
        probe=PROBE, train_in_setup=False,
        cycle=("eval", "align", "retrieve", "align", "retrieve", "align", "retrieve")),
    "train-paper": Workload(
        data=dict(num_videos=8, num_phases=5, feature_dim=2048, min_len=240, max_len=320,
                  noise_std=0.3),
        split_ratio=0.5, augment=dict(BENCH_AUG, T=240), encoder=PAPER_ENC,
        optim=dict(lr=1e-4, epochs=3, videos_per_batch=4, checkpoint_every=2),
        probe=PROBE, train_in_setup=False,
        cycle=("eval", "align", "retrieve", "align", "retrieve")),
    "query-long": Workload(
        data=dict(num_videos=20, num_phases=5, feature_dim=32, min_len=600, max_len=700,
                  noise_std=0.3),
        split_ratio=None, augment=BENCH_AUG, encoder=BENCH_ENC,
        optim=dict(lr=1e-4, epochs=2, videos_per_batch=4, checkpoint_every=0),
        probe=PROBE, train_in_setup=True,
        cycle=("eval", "align", "retrieve", "retrieve", "align", "retrieve", "retrieve")),
}

# Tiny sizes of the same three sessions, for the benchmark's own tests.
TINY_ENC = dict(input_dim=8, model_dim=16, num_layers=1, num_heads=2, ffn_dim=32,
                out_dim=8, proj_hidden=8, proj_out=6)
SMOKE = {
    name: replace(
        w,
        data=dict(w.data, num_videos=6 if w.train_in_setup else 8, feature_dim=8,
                  min_len=40 if w.train_in_setup else 24, max_len=48 if w.train_in_setup else 32),
        augment=dict(w.augment, T=8), encoder=TINY_ENC,
        optim=dict(w.optim, epochs=2, checkpoint_every=1), probe=dict(steps=20, lr=0.1))
    for name, w in WORKLOADS.items()
}


class EpochClock:
    """Start time of every `train_epoch` call. An epoch's time runs to the next
    epoch's start (or the end of fit), so it includes the checkpoint write
    that follows it."""

    def __init__(self):
        self.starts: list[float] = []
        original = train_mod.train_epoch

        def timed(*args, **kwargs):
            self.starts.append(time.perf_counter())
            return original(*args, **kwargs)

        self._sites = rebind("seqcl", original, timed)

    def close(self) -> None:
        restore(self._sites)


@dataclass
class Outcome:
    """What one set-up plus session measured."""

    attempted: int = 0
    failed: int = 0
    epochs: list[float] = field(default_factory=list)
    epoch_frames: int = 0  # view frames through forward + loss + backward per epoch
    requests: dict[str, list[float]] = field(default_factory=dict)
    report: dict | None = None
    fixed_s: float = 0.0  # set-up + first round: the same work in every run

    def op(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        for problem in problems:
            print(f"perfbench: FAILED {what}: {problem}", file=sys.stderr)


class Session:
    def __init__(self, w: Workload, seed: int, clock: EpochClock, recorder=None):
        self.w, self.seed, self.clock, self.rec = w, seed, clock, recorder
        self.out = Outcome()
        self._refs = None

    def _paused(self):
        return self.rec.paused() if self.rec else nullcontext()

    def set_up(self, root: Path):
        """Dataset on disk and run config (plus the checkpoint for query-long)."""
        w, seed = self.w, self.seed
        spec = data_mod.SyntheticSpec(seed=seed, **w.data)
        split = data_mod.generate_synthetic(spec)
        if w.split_ratio is not None:
            split = data_mod.split_train_test(
                split.train + split.test, w.split_ratio, seed, spec.num_phases)
        data_mod.save_dataset(split, root / "data")
        split = data_mod.load_dataset(root / "data")
        config = {
            "seed": seed, "data": w.data, "augment": w.augment, "encoder": w.encoder,
            "optim": w.optim, "probe": w.probe, "data_dir": str(root / "data"),
            "checkpoint": str(root / "encoder.ckpt"), "report": str(root / "report.json"),
        }
        (root / "run.json").write_text(json.dumps(config))
        if w.train_in_setup:
            self.train(split, root)
        return split

    def timed_set_up(self, root: Path):
        root.mkdir(parents=True)
        t0 = time.perf_counter()
        split = self.set_up(root)
        self.out.attempted += 1
        return split, time.perf_counter() - t0

    def train(self, split, root: Path) -> float:
        """Run fit and check its outputs; returns its wall time."""
        w = self.w
        first = len(self.clock.starts)
        t0 = time.perf_counter()
        try:
            _, curve = train_mod.fit(
                split, AugmentConfig(**w.augment), EncoderConfig(**w.encoder), SCLConfig(),
                train_mod.OptimConfig(seed=self.seed, **w.optim),
                checkpoint_path=root / "encoder.ckpt", curve_path=root / "encoder.loss.csv")
        except Exception:
            self.out.op([traceback.format_exc()], "fit")
            return time.perf_counter() - t0
        end = time.perf_counter()
        self.out.epochs += np.diff(self.clock.starts[first:] + [end]).tolist()
        self.out.epoch_frames = 2 * w.augment["T"] * len(split.train)
        with self._paused():
            problems = checks.check_fit(curve, root / "encoder.loss.csv", w.optim["epochs"])
        self.out.op(problems, "fit")
        return end - t0

    def run(self, root: Path, budget: float) -> float:
        """Set up, then repeat rounds of (fit, one request cycle) until `budget`
        seconds have passed since set-up ended; the first round always runs
        whole. Rounds spread every kind of sample over the run, so a slow
        stretch of the host does not land on one metric. Returns set-up time."""
        split, setup_s = self.timed_set_up(root)
        videos = sorted(split.train + split.test, key=lambda r: (-r.num_frames, r.id))
        a, b = videos[0].id, videos[1].id  # the two longest: steady request size
        config = str(root / "run.json")
        start = time.perf_counter()
        first_round = True
        i = 0
        while first_round or time.perf_counter() - start < budget:
            fixed = setup_s if first_round else 0.0
            if not self.w.train_in_setup:
                fixed += self.train(split, root)
            self._refs = None  # reference embeddings of the current checkpoint
            for cmd in self.w.cycle:
                if not first_round and time.perf_counter() - start >= budget:
                    break
                if cmd == "eval":
                    argv = ["eval", "--config", config]
                elif cmd == "align":
                    argv = ["align", "--config", config, a, b, "--out", str(root / "align")]
                else:
                    frame = (7919 * i + 13) % videos[0].num_frames
                    argv = ["retrieve", "--config", config, a, str(frame), "-K", str(K)]
                i += 1
                code, stdout, stderr, wall = self._request(argv)
                self.out.requests.setdefault(cmd, []).append(wall)
                fixed += wall
                if code != 0:
                    problems = [f"exit code {code}: {stderr.strip()}"]
                else:
                    with self._paused():
                        problems = self._check(argv, stdout, root)
                self.out.op(problems, " ".join(argv[:1] + argv[3:]))
            if first_round:
                self.out.fixed_s = fixed
            first_round = False
        return setup_s

    def _check(self, argv, stdout: str, root: Path) -> list[str]:
        """Output checks of one successful request; a crash in them is a problem."""
        try:
            if argv[0] == "eval":
                report, problems = checks.check_report(stdout, self.out.report)
                self.out.report = self.out.report or report
                return problems
            if self._refs is None:
                self._refs = checks.reference_embeddings(root / "data", root / "encoder.ckpt")
            if argv[0] == "align":
                a, b = argv[3], argv[4]
                return checks.check_align(stdout, root / "align.csv", root / "align.pgm",
                                          self._refs[a], self._refs[b])
            return checks.check_retrieve(stdout, K, argv[3], int(argv[4]), self._refs)
        except Exception:
            return [traceback.format_exc()]

    def _request(self, argv):
        """One CLI invocation with its output captured; a crash counts as exit 1."""
        out, err = io.StringIO(), io.StringIO()
        span = self.rec.span("cli.request", command=argv[0]) if self.rec else nullcontext({})
        t0 = time.perf_counter()
        with span as attrs, redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = 1
            attrs["exit"] = code
        return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0
