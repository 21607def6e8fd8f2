#!/usr/bin/env python3
"""End-to-end benchmark for g80tune.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the harness (perfbench/harness,
linked against g80tune's libraries compiled from src/) into .bench_build
(or $CARGO_TARGET_DIR), runs one workload in its own process, and prints
its result as the last line of standard output:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and prints the per-layer span table above the result).  Every result is
checked against the committed references in perfbench/refs; a mismatch
makes the exit status nonzero.  See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("sweep-small", "pareto-large", "adaptive-large", "serve-mixed")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longest a run may take before it is stopped; the workloads aim at
# --seconds plus a few seconds of set-up and checking.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the harness; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    configure = ["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", out, "--target", "g80bench", "-j", jobs]
    for attempt in range(2):
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            if subprocess.run(configure, stdout=sys.stderr).returncode:
                break
        if subprocess.run(compile_, stdout=sys.stderr).returncode == 0:
            return os.path.join(out, "g80bench")
        # A cache left by a checkout elsewhere cannot be reused.
        if attempt == 0:
            log("build failed; reconfiguring from scratch")
            subprocess.run(["cmake", "-E", "rm", "-rf", out])
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--record-refs", help=argparse.SUPPRESS)
    args = p.parse_args()

    binary = build()
    if binary is None:
        log("could not build the harness")
        return 2

    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--refs", os.path.join(HERE, "refs"), "--work", work]
    if args.record_refs:
        cmd += ["--record-refs", os.path.abspath(args.record_refs)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
