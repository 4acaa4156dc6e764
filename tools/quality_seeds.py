"""Run criterion 5's configuration at several seeds and write every report.

    python3 tools/quality_seeds.py --seeds 0 1 2 3 --out QUALITY_27.json [--checkout DIR]

Criterion 5 (`tests/test_acceptance.py`) trains an SCL and a frame-baseline
encoder on the synthetic benchmark (`BENCH_SPEC`, `BENCH_AUG`, `BENCH_ENC`,
100 epochs) and evaluates both and a random-init encoder. This tool runs that
configuration with the data, init and training seed all set to s, for each
seed given, and writes the full `EvalReport` of each encoder per seed. The
configuration is read from the checkout's own `tests/test_acceptance.py`,
and each seed runs in a child process on the checkout's `src/`, so the same
tool measures a parent and a change checkout alike. The file records the
seeds, the BLAS thread setting and the git tree of `src/` it ran on (see
`bench_pairs.src_tree`).

It is a tool for reading a metric's spread over seeds; never use it to pick
the seed of a test or of a benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from bench_pairs import src_tree


def seed_reports(seed: int) -> dict:
    """The criterion-5 reports at seed s, as JSON objects keyed by encoder.
    Runs in the child, whose path holds the checkout's `src/` and `tests/`."""
    from dataclasses import replace

    import test_acceptance as c5
    from seqcl import encoder as enc
    from seqcl.data import generate_synthetic
    from seqcl.eval import evaluate
    from seqcl.train import fit

    split = generate_synthetic(replace(c5.BENCH_SPEC, seed=seed))
    params = {}
    for kind in ("scl", "frame"):
        optim = replace(c5._bench_optim(kind), seed=seed)
        params[kind] = fit(split, c5.BENCH_AUG, c5.BENCH_ENC, c5.BENCH_SCL, optim)[0].params
    params["random"] = enc.init_params(c5.BENCH_ENC, seed=seed)
    return {kind: json.loads(evaluate(p, c5.BENCH_ENC, split, probe=c5.BENCH_PROBE,
                                      Ks=(5,)).to_json())
            for kind, p in params.items()}


def run_seed(checkout: Path, seed: int) -> dict:
    """One seed's reports from a child process on the checkout."""
    paths = [str(checkout / "src"), str(checkout / "tests"), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    child = subprocess.run([sys.executable, __file__, "--child", str(seed)], cwd=checkout,
                           env=env, capture_output=True, text=True)
    if child.returncode != 0:
        raise RuntimeError(f"seed {seed} in {checkout} exited with {child.returncode}:\n"
                           f"{child.stderr[-2000:]}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        print(json.dumps(seed_reports(args.child)))
        return 0
    if not args.seeds or args.out is None:
        ap.error("--seeds and --out are required")

    doc = {"command": "python3 tools/quality_seeds.py --seeds S... --out FILE",
           "seeds": args.seeds, "src_tree": src_tree(args.checkout),
           "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "reports": {}}
    for seed in args.seeds:
        doc["reports"][str(seed)] = run_seed(args.checkout, seed)
        print(f"seed {seed}: " + json.dumps(doc["reports"][str(seed)]), flush=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
