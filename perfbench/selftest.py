"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

For every workload it runs the benchmark untraced and traced and checks:
the result line has the contracted keys, the run passed its output checks,
every metric BENCHMARK.json names is emitted with its unit, end-to-end
metrics are never zero, and the traced runs wrote byte-identical outputs
to the untraced ones. It prints the tracing overhead (traced minus untraced
``wall_s``, fastest repetition of each). Last, it checks that the benchmark fails,
without a result line, in a directory that holds only BENCHMARK.json and the
benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WHY  # noqa: E402

SEED = 0
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--scale", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []

    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    if declared != WHY:
        problems.append("BENCHMARK.json workloads differ from workloads.WHY")

    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in declared:
        results = {}
        for trace in (0, 1):
            done = run_bench(ROOT, workload, trace)
            where = f"{workload} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit code {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: output checks failed\n{done.stderr}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{where}: metrics or units differ from BENCHMARK.json: "
                                f"{sorted(set(units) ^ set(expected[trace]))}")
            if trace == 0:
                zero = [n for n, m in result["metrics"].items() if m["value"] == 0]
                if zero:
                    problems.append(f"{where}: end-to-end metrics read 0: {zero}")
            tag = f"{workload}-toy-seed{SEED}-trace{trace}"
            saved = json.loads((ROOT / ".perfbench" / "results" / f"{tag}.json").read_text())
            # the fastest timed repetition of each side: toy repetitions are
            # short enough for one slow one (a cold file system, say) to swamp
            # the tracing cost
            results[trace] = ({rep["digest"] for rep in saved["reps"]},
                              min(rep["wall_s"] for rep in saved["reps"][1:]))
        if len(results) == 2:
            (plain_digests, wall), (traced_digests, traced_wall) = results[0], results[1]
            if plain_digests != traced_digests:
                problems.append(f"{workload}: traced outputs differ from untraced outputs")
            print(f"{workload}: wall_s {wall:.4f} s untraced, {traced_wall:.4f} s traced "
                  f"(fastest repetitions), tracing overhead {traced_wall - wall:+.4f} s")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(bare, next(iter(declared)), 0)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("benchmark did not fail cleanly without the package sources")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
