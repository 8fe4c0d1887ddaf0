"""Run one benchmark workload, or all of them, and print the result.

    python3 bench/run.py --workload frontend-default --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. Lines before it, starting with ``#``, record the environment
and the figures named for the workload. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
HUGEPAGE_VAR = "NUMPY_MADVISE_HUGEPAGE"
WORKLOAD_NAMES = ("frontend-default", "train-default", "cli-light")


def pin_environment() -> None:
    """Settings every process of a run inherits; they must be set before numpy loads.

    BLAS threads are capped at the usable core count. numpy's huge-page
    advice is turned off: with it on, large temporaries get 2 MB pages only
    when the host has them free, so repeats of the same front-end call
    varied by about 7% instead of about 1%.
    """
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= NPROC:
            os.environ[var] = str(NPROC)
    os.environ[HUGEPAGE_VAR] = "0"


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        **{var: os.environ.get(var) for var in (*BLAS_VARS, HUGEPAGE_VAR)},
        "commit": git_commit(),
        "seed": seed,
    }


def declared_metrics(trace: bool) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(args) -> int:
    import workloads

    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), work)
    except workloads.Aborted:
        result = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed)
    print("# env " + json.dumps(env, sort_keys=True))
    if result is None:
        print("# aborted: an operation raised; see standard error", file=sys.stderr)
        return 1
    ops = result["ops"]
    metrics = result["layers"] if args.trace else result["e2e"]
    names = declared_metrics(bool(args.trace))
    if sorted(metrics) != sorted(names):
        print(f"# metrics {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    for name, (value, unit) in {**result.get("detail", {}), **metrics}.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    for target in result.get("missing", ()):
        print(f"# missing trace target {target}")

    os.makedirs(OUT_ROOT, exist_ok=True)
    stem = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "env": env,
        "workload": args.workload,
        "detail": result.get("detail", {}),
        "metrics": metrics,
        "missing": result.get("missing", []),
        "attempted": ops.attempted,
        "failed": ops.failed,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        import spans

        spans.write_spans(stem + ".spans.json", result["spans"])

    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    }))
    return 0 if ops.failed == 0 else 1


def run_all(args) -> int:
    """Run every workload in its own process and print one table of their figures."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        rows += [line for line in lines if line.startswith(f"# {name} ")]
        if proc.returncode != 0:
            status = 1
            rows.append(f"# {name} FAILED (exit {proc.returncode})")
    print("\n".join(rows))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "chargecast", "__init__.py")):
        print(f"# no chargecast sources under {SRC}; nothing to measure", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, SRC)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
