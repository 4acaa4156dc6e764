"""seqcl benchmark: one workload per run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1 runs the
workload untraced for half the time in a child process, then traced for the
other half, and reports the per-layer metrics of the traced half plus the
tracing overhead between the two.
--smoke shrinks every workload to toy sizes (for the benchmark's own tests).
Run from anywhere; the program is imported from ../src relative to this file.
Everything the run writes goes under .perfbench-out/ at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
NAMES = ("train-small", "train-paper", "query-long")
SETUPS = 9  # set-ups per run, half before and half after the session; setup_s is their median


def cap_blas_threads() -> int:
    """Cap the BLAS pools at the CPUs this process may use; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        n = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(n, nproc))
    return nproc


def blas_provenance() -> dict:
    import ctypes
    import glob

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
            "threads_source": "openblas" if threads is not None else "env"}


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it, given 30 or
    more samples (so it is p67 or higher)."""
    n = len(values)
    if n < 30:
        return None
    return {"value": sorted(values)[n - 11], "percentile": round(100 * (n - 10) / n, 1),
            "samples": n}


def end_to_end(session, setups: list[float]) -> tuple[dict, dict, dict]:
    import resource

    def med(values):
        return statistics.median(values) if values else None

    out = session.out
    req = out.requests
    ok = (out.attempted - out.failed) / out.attempted
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (med(setups), "s", len(setups)),
        "train_epoch_s.p50": (med(out.epochs), "s", len(out.epochs)),
        "train_frames_per_s": (out.epoch_frames / med(out.epochs) if out.epochs else None,
                               "1/s", len(out.epochs)),
        "eval_s": (med(req["eval"]), "s", len(req["eval"])),
        "align_s.p50": (med(req["align"]), "s", len(req["align"])),
        "retrieve_s.p50": (med(req["retrieve"]), "s", len(req["retrieve"])),
        "peak_rss_mb": (rss, "MB", 1),
        "ops_ok_ratio": (ok, "ratio", out.attempted),
    }
    tails = {name: tail(v) for name, v in
             (("train_epoch_s", out.epochs), ("eval_s", req["eval"]),
              ("align_s", req["align"]), ("retrieve_s", req["retrieve"]))}
    return ({k: (v, u) for k, (v, u, _) in metrics.items()},
            {k: n for k, (_, _, n) in metrics.items()},
            {k: t for k, t in tails.items() if t})


def untraced_reference(args) -> tuple[float, int, int]:
    """The same workload untraced for the same time, in a fresh process like
    the traced one, so both start from the same interpreter and allocator
    state. Returns its fixed-work seconds, attempted and failed operations."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds / 2), "--trace", "0"]
    child = subprocess.run(argv + (["--smoke"] if args.smoke else []),
                           capture_output=True, text=True)
    sys.stderr.write(child.stderr)
    if child.returncode != 0:
        raise RuntimeError(f"untraced reference run exited with {child.returncode}")
    *_, info, result = child.stdout.strip().splitlines()
    result = json.loads(result)
    return json.loads(info)["info"]["fixed_work_s"], result["attempted"], result["failed"]


def run_one(args, work: Path):
    """Set up SETUPS times and run the session on the middle set-up. With
    --trace 1 every layer is traced during that set-up and session, which get
    half the time; the other half goes to the untraced reference, and the
    set-ups after the session are skipped."""
    import layers
    import workloads
    from tracing import Recorder

    w = (workloads.SMOKE if args.smoke else workloads.WORKLOADS)[args.workload]
    reference = untraced_reference(args) if args.trace else None
    clock = workloads.EpochClock()
    rec = Recorder() if args.trace else None
    try:
        session = workloads.Session(w, args.seed, clock)

        def extra_set_ups(first):
            for i in range(first, first + SETUPS // 2):
                setups.append(session.timed_set_up(work / f"setup{i}")[1])
                shutil.rmtree(work / f"setup{i}")

        setups = []
        extra_set_ups(0)
        if rec:
            rec.install("seqcl", layers.HOOKS)
            session.rec = rec
        try:
            setups.append(session.run(work / "run", args.seconds / 2 if rec else args.seconds))
        finally:
            if rec:
                rec.uninstall()
        if not rec:
            extra_set_ups(SETUPS // 2)
    finally:
        clock.close()
    out = session.out
    if not rec:
        metrics, samples, tails = end_to_end(session, setups)
        extra = {"samples": samples, "tails": tails, "quality": out.report,
                 "fixed_work_s": out.fixed_s,
                 "raw_s": {"setup": setups, "epoch": out.epochs, **out.requests}}
        return metrics, extra, out.attempted, out.failed

    untraced_s, attempted, failed = reference
    metrics = layers.layer_metrics(rec, w.encoder, w.augment["T"])
    metrics["trace.overhead_pct"] = (100 * (out.fixed_s / untraced_s - 1), "%")
    spans = OUT / f"{args.workload}{'-smoke' if args.smoke else ''}.spans.jsonl"
    rec.write_jsonl(spans)
    extra = {"computed": list(layers.COMPUTED), "spans_file": str(spans.relative_to(ROOT)),
             "span_names": sorted({s[0] for s in rec.spans}),
             "fixed_work_s": {"untraced": untraced_s, "traced": out.fixed_s}}
    return metrics, extra, out.attempted + attempted, out.failed + failed


def single(args) -> int:
    nproc = cap_blas_threads()
    if not (ROOT / "src" / "seqcl" / "__init__.py").is_file():
        print(f"perfbench: no seqcl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import platform

    # Allocate and free one 16 MB block before measuring. glibc then raises its
    # mmap and trim thresholds, which it otherwise does only after the first
    # large free; until then each training step trims and re-faults the heap.
    # Without this the epochs before the first eval request run ~30% slower
    # than those after it, and the epoch median flips between the two modes.
    numpy.ones(2 << 20)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        metrics, extra, attempted, failed = run_one(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = [k for k, (v, _) in metrics.items() if v is None]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "provenance": {"git_sha": git_sha(), "python": platform.python_version(),
                       "numpy": numpy.__version__, "blas": blas_provenance(),
                       "nproc": nproc, "machine": platform.machine()},
        **extra,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"{stem}.json").write_text(json.dumps({"info": info, **result}, indent=1) + "\n")
    samples = extra.get("samples", {})
    for name, (value, unit) in metrics.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"{args.workload:12s} {name:28s} {value:14.6g} {unit}{n}")
    print(json.dumps({"info": {k: v for k, v in info.items() if k != "raw_s"}}))
    print(json.dumps(result))
    return 0


def every_workload(args) -> int:
    """Each workload in its own child process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv + (["--smoke"] if args.smoke else []),
                               capture_output=True, text=True)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {child.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    return every_workload(args) if args.workload == "all" else single(args)


if __name__ == "__main__":
    sys.exit(main())
