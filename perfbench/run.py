"""sphradon benchmark: four closed-loop workloads against the library in src/.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is slice-poly, slice-smooth, grid-pipeline, verify, or `all` (each of
the four in turn, in its own process, with one summary at the end).  With
--trace 0 the library is imported unwrapped and the run reports end-to-end
metrics; with --trace 1 it reports per-layer metrics from a traced process
(see spans.py) next to an untraced phase of the same length.  Lines before
the last describe the run; the last line of stdout is one JSON object with
keys correct, attempted, failed and metrics.  Result files and spans go to
.perfbench/ at the root of the checkout.  See README.md for the workloads
and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

# One process on a 2-core box: BLAS gets one thread.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import numpy as np  # noqa: E402  (imported after the BLAS setting)
import workloads as W  # noqa: E402

SETUP_PROBES = 15  # set-up is timed in this many fresh processes per run
MIN_REPS = 3  # repetitions per phase, even when one outlasts --seconds
CHILD_TIMEOUT = 170


class BenchError(Exception):
    """The benchmark cannot run here (no library, a child failed)."""


def import_library():
    """Import sphradon from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "sphradon", "__init__.py")):
        raise BenchError(f"no library at {SRC}/sphradon: run from a full checkout")
    sys.path.insert(0, SRC)
    import sphradon
    import sphradon.cli  # noqa: F401  (the package does not import its CLI)

    if os.path.dirname(os.path.abspath(sphradon.__file__)) != os.path.join(SRC, "sphradon"):
        raise BenchError(f"imported sphradon from {sphradon.__file__}, not from {SRC}")
    return sphradon


def source_digest() -> str:
    """sha256 over src/sphradon/*.py, names and bytes, in sorted order."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "sphradon")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def provenance(args, load_at_start) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "loadavg_at_start": load_at_start,
        "machine": platform.machine(),
    }


def run_child(argv: list[str], timeout: float = CHILD_TIMEOUT) -> tuple[dict, list[str]]:
    """Run this script in a fresh interpreter: its last stdout line parsed
    as JSON, and the lines before it."""
    cmd = [sys.executable, os.path.abspath(__file__), *argv]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {' '.join(argv)} exited with {proc.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def measure(workload_cls, lib, seed: int, seconds: float, tracer=None, after_rep=None) -> list[dict]:
    """Set up, then repeat until `seconds` is spent; check every output.

    `after_rep(elapsed_s)`, when given, runs after every repetition; its own
    time does not count against `seconds`."""
    window = tracer.window if tracer else contextlib.nullcontext
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        wl = workload_cls(lib, seed, workdir)
        with window():
            wl.setup()
        reps = []
        started = time.perf_counter()
        hook_s = 0.0
        while True:
            error = None
            with window():
                t = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        payload, item_s = wl.run()
                except Exception:
                    error = traceback.format_exc()
                wall = time.perf_counter() - t
            max_abs_err = None
            if error is None:
                try:
                    max_abs_err = wl.check(payload)
                except W.CheckFailed as exc:
                    error = str(exc)
            if error is not None:
                sys.stderr.write(f"{wl.name}: repetition {len(reps)} failed: {error}\n")
            reps.append(
                {
                    "wall_s": wall,
                    "items_per_s": wl.items / item_s if error is None else None,
                    "ok": error is None,
                    "max_abs_err": max_abs_err,
                }
            )
            if after_rep is not None:
                t = time.perf_counter()
                after_rep(t - started - hook_s)
                hook_s += time.perf_counter() - t
            if len(reps) >= MIN_REPS and time.perf_counter() - started - hook_s + wall > seconds:
                return reps
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _best(reps, key: str, pick=min):
    """The fastest figure over the repetitions whose output checked out.

    Other tenants of a shared host slow every repetition they overlap, by
    up to 1.9x and for minutes at a time, so medians move with the host.
    A repetition short enough to fall between bursts runs at the program's
    own speed, so the fastest of many is steadier across runs (see
    README.md, "Statistic")."""
    values = [r[key] for r in reps if r["ok"]]
    return pick(values) if values else None


def spread_line(workload: str, reps) -> str:
    """Median and 90th percentile of the repetition times, for the reader."""
    walls = sorted(r["wall_s"] for r in reps if r["ok"])
    if len(walls) < 2:
        return f"{workload:14s} repetition wall_s: too few to summarise"
    p90 = statistics.quantiles(walls, n=10)[-1]
    return (
        f"{workload:14s} repetition wall_s: fastest {walls[0]:.4g}, median "
        f"{statistics.median(walls):.4g}, p90 {p90:.4g} s over {len(walls)}"
    )


def layer_metrics(tracer) -> dict:
    """Each per-layer figure covers the set-up plus one repetition: counts
    add exactly, times add the set-up to the median over repetitions."""
    from spans import LAYER_METRICS

    setup = tracer.totals(*tracer.windows[0])
    reps = [tracer.totals(*w) for w in tracer.windows[1:]]
    out = {}
    for name, value in LAYER_METRICS.items():
        per_rep = [value(t) for t in reps]
        if name.endswith("_s"):
            out[name] = value(setup) + statistics.median(per_rep)
            continue
        if len(set(per_rep)) > 1:
            sys.stderr.write(f"warning: {name} differs between repetitions: {per_rep}\n")
        out[name] = value(setup) + statistics.median_low(per_rep)
    out["trace.spans"] = statistics.median_low(hi - lo for lo, hi in tracer.windows[1:])
    return out


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def phase_traced(args) -> dict:
    """The traced half of --trace 1, in its own process so that lazy rules
    and caches are built again under the wrappers."""
    from spans import Tracer

    lib = import_library()
    tracer = Tracer()
    tracer.install(lib)
    reps = measure(W.WORKLOADS[args.workload], lib, args.seed, args.seconds, tracer)
    tracer.save(os.path.join(OUT_DIR, f"spans-{args.workload}.npz"))
    return {"reps": reps, "metrics": layer_metrics(tracer)}


def phase_probe(args) -> dict:
    """One set-up in a fresh interpreter: import of the library, tables,
    phantoms, lazy rules.  Interpreter start-up and the imports of numpy and
    of the benchmark itself are not part of it."""
    t0 = time.perf_counter()
    lib = import_library()
    wl = W.WORKLOADS[args.workload](lib, args.seed, OUT_DIR)
    wl.setup()
    return {"setup_s": time.perf_counter() - t0}


def run_one(args) -> dict:
    load_at_start = os.getloadavg()
    lib = import_library()
    prov = provenance(args, load_at_start)
    print("provenance " + json.dumps(prov, sort_keys=True))
    child_args = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace == 0:
        setups = []

        def probe_setup(elapsed_s):
            # spread the probes over the run, so that they see the host as
            # the repetitions do, not only during its first seconds
            while len(setups) < SETUP_PROBES * min(1.0, elapsed_s / args.seconds):
                argv = ["--phase", "probe", *child_args, "--seconds", "0", "--trace", "0"]
                setups.append(run_child(argv)[0]["setup_s"])

        reps = measure(W.WORKLOADS[args.workload], lib, args.seed, args.seconds, after_rep=probe_setup)
        probe_setup(args.seconds)
        values = {
            "wall_s": _best(reps, "wall_s"),
            "items_per_s": _best(reps, "items_per_s", max),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups),
        }
        extra = {"setup_samples_s": setups}
        timed = reps
    else:
        half = args.seconds / 2.0
        plain = measure(W.WORKLOADS[args.workload], lib, args.seed, half)
        traced, _ = run_child(
            ["--phase", "traced", *child_args, "--seconds", repr(half), "--trace", "1"]
        )
        reps = plain + traced["reps"]
        timed = plain
        plain_wall = _best(plain, "wall_s")
        traced_wall = _best(traced["reps"], "wall_s")
        values = traced["metrics"]
        values["reconstruct.max_abs_err"] = max((r["max_abs_err"] for r in reps if r["ok"]), default=0.0)
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = None if None in (traced_wall, plain_wall) else traced_wall - plain_wall
        extra = {"untraced_wall_s": plain_wall}
    units = declared_units(args.trace)
    if set(values) != set(units):
        raise BenchError(f"measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    failed = sum(not r["ok"] for r in reps)
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"provenance": prov, "result": result, "reps": reps, **extra}, fh, indent=1)
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:32s} {m['value']!r:>24} {m['unit']}")
    print(spread_line(args.workload, timed))
    print(f"{args.workload:14s} repetitions {len(reps)}, failed {failed}; details in {os.path.relpath(path, ROOT)}")
    return result


def run_all(args) -> dict:
    """Each workload in its own process, as a single-workload run would be."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", repr(args.seconds),
                "--trace", str(args.trace)]
        res, lines = run_child(argv, timeout=CHILD_TIMEOUT + args.seconds)
        print("\n".join(lines))
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("run", "probe", "traced"), default="run", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all" and args.phase != "run":
        parser.error("--phase needs a single workload")
    try:
        if args.phase == "probe":
            out = phase_probe(args)
        elif args.phase == "traced":
            out = phase_traced(args)
        elif args.workload == "all":
            out = run_all(args)
        else:
            out = run_one(args)
    except (BenchError, subprocess.SubprocessError, ImportError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
