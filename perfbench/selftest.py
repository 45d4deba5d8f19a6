"""Self-test of the benchmark's per-layer counts.

    python3 perfbench/selftest.py

Runs every workload traced for 2 seconds three times: twice with seed 1,
once with seed 2.  Passes when every exact count (`*_calls`,
`forward.field_points`, `reconstruct.points`, `checks.reports`,
`trace.spans`, `moments.csv_bytes`) is identical across the two seed-1
runs, and every count but
`moments.csv_bytes` is identical across the seeds too: the seed changes the
inputs, not the amount of work.  The CSV size depends on how many digits
each sampled value prints with, so across seeds it only has to agree to
within 5 %.  Exit code 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("slice-poly", "slice-smooth", "grid-pipeline", "verify")
DIGIT_DEPENDENT = "moments.csv_bytes"
SEED_A, SEED_B = 1, 2
SECONDS = 2.0


def counts(workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", "1",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] in ("count", "bytes")
    }


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        first = counts(workload, SEED_A, SECONDS)
        again = counts(workload, SEED_A, SECONDS)
        other = counts(workload, SEED_B, SECONDS)
        for name, value in first.items():
            same_seed = again.get(name) == value
            if name == DIGIT_DEPENDENT:
                same_work = abs(other.get(name, 0) - value) <= 0.05 * max(value, 1)
            else:
                same_work = other.get(name) == value
            status = "ok" if same_seed and same_work else "DIFFERS"
            print(f"{workload:14s} {name:30s} {value:>12} {again.get(name):>12} {other.get(name):>12}  {status}")
            if status != "ok":
                problems.append(f"{workload} {name}")
    if problems:
        print("counts that do not repeat: " + ", ".join(problems))
        return 1
    print(f"all counts repeat (seed {SEED_A} twice, seed {SEED_B} once)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
