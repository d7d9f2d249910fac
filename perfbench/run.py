"""drcbench benchmark: one workload, fresh worker processes, one result line.

    python3 perfbench/run.py --workload ds1_pipeline --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one summary table

Set-up runs several times, each in a fresh process, and ``setup_s`` is
the median. Then one more fresh process repeats the measured part until
the next repetition would end after ``--seconds``; end-to-end metrics are
medians over the repetitions after the first, which is a warm-up.
``--trace 1`` wraps the package's public functions (see tracer.py) and
reports per-layer metrics instead; compare its ``trace.wall_s`` with
``wall_s`` of an untraced run for the tracing overhead.

The last line of standard output is the JSON result. Everything else a run
leaves (work directories, result files with the environment block, span
dumps) goes under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import METRIC_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: seed for developing a change, and a second one for confirming its claim
DEV_SEED = 0
CONFIRM_SEED = 1001

#: set-up runs: at least the first number, and more, up to the second, while
#: they took less than SETUP_BUDGET_S together (a set-up that only starts
#: the interpreter is short, so its median needs more runs)
SETUP_RUNS = (3, 9)
SETUP_BUDGET_S = 4.0
#: BLAS threads of the workers, at most nproc. One: on the 2-core machine the
#: benchmark was sized on, a second thread did not make the runs faster, and
#: every extra thread lets the scheduler's noise into the timings.
BLAS_THREADS = 1
#: the whole invocation ends within this many seconds
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "pairs_per_s": "1/s", "peak_rss_mb": "MiB"}


def worker_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("DRCBENCH_CACHE_DIR", None)  # keep representation caches in the work dir
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_worker(args: list[str], env: dict, deadline: float) -> tuple[dict | None, str | None]:
    """Run one worker process; returns (its JSON output, None) or (None, error)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}"
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, "no JSON result"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def seed_role(seed: int) -> str:
    return {DEV_SEED: "dev", CONFIRM_SEED: "confirm"}.get(seed, "other")


def bench(workload: str, args: argparse.Namespace) -> dict | None:
    """Set up and measure one workload; print its block; return its result line."""
    deadline = time.monotonic() + DEADLINE_S
    out_dir = ROOT / ".perfbench"
    tag = f"{workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    work = out_dir / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    nproc = len(os.sched_getaffinity(0))
    env = worker_env(min(BLAS_THREADS, nproc))
    common = ["--workload", workload, "--seed", str(args.seed), "--scale", args.scale,
              "--work", str(work)]

    setup_s: list[float] = []
    while len(setup_s) < SETUP_RUNS[0] or (len(setup_s) < SETUP_RUNS[1]
                                           and sum(setup_s) < SETUP_BUDGET_S):
        start = time.monotonic()
        _, error = run_worker(["--mode", "setup", *common], env, deadline)
        if error is not None:
            print(f"error: {workload} set-up failed: {error}", file=sys.stderr)
            return None
        setup_s.append(time.monotonic() - start)

    # One fresh process repeats the measured part for the whole window.
    extra = ["--out", str(work / "out"), "--seconds", str(args.seconds)]
    if args.trace:
        extra += ["--trace", "--spans", str(out_dir / "spans" / tag)]
    result, error = run_worker(["--mode", "run", *common, *extra], env, deadline)
    shutil.rmtree(work, ignore_errors=True)
    if error is not None:
        print(f"error: measured run of {workload} failed: {error}", file=sys.stderr)
        return None

    # Same seed, same outputs: every repetition must reproduce the first one's
    # bytes. The first, the warm-up, is checked like the others but not timed.
    reps, errors = [], []
    reference = result["reps"][0]["digest"]
    for index, rep in enumerate(result["reps"]):
        if rep["failures"]:
            errors.append(f"repetition {index}: " + "; ".join(rep["failures"]))
        elif rep["digest"] != reference:
            errors.append(f"repetition {index}: output differs from the first one's")
        elif index > 0:
            reps.append(rep)
    attempted = len(result["reps"])
    for error in errors:
        print(f"failed run of {workload}: {error}", file=sys.stderr)
    if not reps:
        print(f"error: no repetition of {workload} succeeded", file=sys.stderr)
        return None

    env_block = {
        **result["env"],
        "nproc": nproc,
        "git_commit": git_commit(),
        "seed": args.seed,
        "seed_role": seed_role(args.seed),
    }

    mae = [r["mae_pct"] for r in reps if r["mae_pct"] is not None]
    summary = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setup_s),
        "pairs_per_s": statistics.median(r["n_pairs"] / r["wall_s"] for r in reps),
        "peak_rss_mb": result["peak_rss_mb"],
        "mae_pct": statistics.median(mae) if mae else None,
        "error_rate": len(errors) / attempted,
    }
    if args.trace:
        metrics = {name: {"value": statistics.median(r["per_layer"][name] for r in reps),
                          "unit": unit} for name, unit in METRIC_UNITS.items()}
    else:
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    print(f"drcbench benchmark: workload={workload} seed={args.seed} "
          f"({env_block['seed_role']}) scale={args.scale} seconds={args.seconds:g} "
          f"trace={args.trace}" + (" (times include the tracing overhead)" if args.trace else ""))
    print("environment: " + json.dumps(env_block, sort_keys=True))
    print(f"repetitions: {attempted} attempted (the warm-up included), {len(errors)} failed; "
          f"set-up runs: {len(setup_s)}; pairs per repetition: {reps[0]['n_pairs']}")
    print_summary({workload: summary})
    if args.trace:
        median_run = sorted(reps, key=lambda r: r["per_layer"]["trace.wall_s"])[len(reps) // 2]
        print(f"\nspans of the median traced repetition "
              f"({median_run['per_layer']['trace.wall_s']:.3f} s):")
        print(f"{'span':<34}{'calls':>9}{'total s':>11}{'self s':>11}")
        for name, calls, total, own in median_run["table"]:
            print(f"{name:<34}{calls:>9}{total:>11.4f}{own:>11.4f}")
        print(f"\n{'per-layer metric':<42}{'value':>16}  unit")
        for name, metric in metrics.items():
            print(f"{name:<42}{metric['value']:>16.6g}  {metric['unit']}")
    print()

    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps({
        "workload": workload, "scale": args.scale, "seconds": args.seconds,
        "trace": args.trace, "environment": env_block, "setup_s": setup_s,
        "summary": summary, "metrics": metrics, "errors": errors,
        "peak_rss_mb": result["peak_rss_mb"],
        "reps": [{k: v for k, v in r.items() if k != "table"} for r in result["reps"]],
    }, indent=2, sort_keys=True) + "\n")
    return {"result": {"correct": not errors, "attempted": attempted, "failed": len(errors),
                       "metrics": metrics},
            "summary": summary}


def print_summary(summaries: dict[str, dict]) -> None:
    """The end-to-end metrics plus mae_pct and error_rate, one column per workload."""
    print(f"{'metric':<14}" + "".join(f"{w:>16}" for w in summaries) + "  unit")
    for name, unit in [*END_TO_END_UNITS.items(), ("mae_pct", "%"), ("error_rate", "ratio")]:
        cells = ["n/a" if s[name] is None else f"{s[name]:.4f}" for s in summaries.values()]
        print(f"{name:<14}" + "".join(f"{c:>16}" for c in cells) + f"  {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy sizes are for the self-test only")
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so run_worker stops its worker on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "drcbench" / "__init__.py").is_file():
        print(f"error: no drcbench package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        done = bench(args.workload, args)
        if done is None:
            return 1
        print(json.dumps(done["result"]))
        return 0

    # Every workload in turn; metric names in the result line get a workload prefix.
    done = {w: bench(w, args) for w in WORKLOADS}
    if any(d is None for d in done.values()):
        return 1
    print_summary({w: d["summary"] for w, d in done.items()})
    results = [d["result"] for d in done.values()]
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{w}.{name}": m for w, d in done.items()
                    for name, m in d["result"]["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
