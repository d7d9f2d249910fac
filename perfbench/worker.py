"""One fresh process per set-up or measured run; prints one JSON line.

    python3 perfbench/worker.py --mode setup|run --workload NAME --seed N
                                --scale full|toy --work DIR [--out DIR]
                                [--seconds S] [--trace] [--spans PREFIX]

A measured run repeats the workload's measured part in this one process
until the next repetition would end after ``--seconds``. The first
repetition is a warm-up: it is checked like the others, but the parent
leaves its time out of the medians. Every repetition writes to a fresh
directory under ``--out``; all of them are deleted after the last one, as
deleting thousands of files while a repetition runs slows the file system
it writes to. The package is imported from the checkout's ``src/`` and
nowhere else. An exception or a failed import ends the process with a
non-zero code, which the parent counts as a failed run.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))


def import_package():
    import drcbench
    import drcbench.experiment as ex

    src = (ROOT / "src").resolve()
    if src not in Path(drcbench.__file__).resolve().parents:
        raise SystemExit(f"drcbench was imported from {drcbench.__file__}, not from {src}")
    return ex


def blas_info() -> dict:
    """BLAS library, version and the thread count it actually uses."""
    import ctypes

    import numpy as np

    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps") as fh:  # the shared libraries this process loaded
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                info["threads"] = int(fn())
                return info
    return info


#: repetitions at least: the warm-up and two timed ones
MIN_REPS = 3


def run_rep(ex, workload, cfg: dict, args, index: int) -> dict:
    """One repetition of the measured part, in a fresh output directory."""
    from tracer import Tracer

    out_dir = args.out / f"rep{index}"
    out_dir.mkdir()
    gc.collect()  # every repetition starts without the last one's garbage
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    result = workload.measure(ex, cfg, args.work, out_dir)
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    outcome = workload.check(ex, cfg, args.work, out_dir, result)
    rep = {
        "wall_s": wall_s,
        "n_pairs": outcome.n_pairs,
        "digest": outcome.digest,
        "failures": outcome.failures,
        "mae_pct": outcome.mae_pct,
    }
    if tracer is not None:
        per_layer = tracer.metrics(wall_s)
        per_layer["evaluate.mae_pct"] = outcome.mae_pct or 0.0
        rep["per_layer"] = per_layer
        rep["table"] = tracer.table()
        if args.spans is not None:
            tracer.write_spans(args.spans.with_name(f"{args.spans.name}-rep{index}.jsonl"))
    return rep


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "toy"), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, help="fresh output directory of a measured run")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="length of a measured run")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, help="prefix of the span files, one per repetition")
    args = parser.parse_args()

    ex = import_package()
    from workloads import WORKLOADS, make_config

    import numpy as np

    workload = WORKLOADS[args.workload]
    cfg = make_config(ex, workload, args.scale, args.seed)
    if args.mode == "setup":
        workload.setup(ex, cfg, args.work)
        print(json.dumps({"ok": True}))
        return 0

    args.out.mkdir(parents=True)
    reps: list[dict] = []
    window_start = time.perf_counter()
    durations: list[float] = []  # of each repetition with its check
    while True:
        rep_start = time.perf_counter()
        reps.append(run_rep(ex, workload, cfg, args, len(reps)))
        durations.append(time.perf_counter() - rep_start)
        elapsed = time.perf_counter() - window_start
        if len(reps) >= MIN_REPS and elapsed + statistics.median(durations) > args.seconds:
            break
    shutil.rmtree(args.out, ignore_errors=True)
    out = {
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas_info(),
        },
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
