#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Takes about a minute on 4 cores:

1. runs every workload in its reduced form (one pass, one 120-request
   serve phase or 2 s serve window, no cp-large search), untraced and
   traced, and checks that each prints
   a correct result with every metric BENCHMARK.json names, in its unit;
2. checks that a perturbed reference optimum, and a perturbed per-search
   reference, each make a run fail;
3. checks that a directory holding only BENCHMARK.json and perfbench/
   (no program sources) fails fast without printing a result.

Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own runner: build + paths)

REF_SEED = 11
failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def harness(binary, workload, trace, refs, tag):
    cmd = [binary, "--workload", workload, "--seed", str(REF_SEED),
           "--seconds", "1", "--trace", str(trace), "--refs", refs,
           "--work", os.path.join(ROOT, ".bench_work", "selftest-" + tag),
           "--reduced", "1"]
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    if binary is None:
        print("FAIL build", file=sys.stderr)
        return 1
    refs = os.path.join(HERE, "refs")

    # 1. Every workload, reduced, prints every named metric in its unit.
    #    adaptive-large runs too: it is kept out of BENCHMARK.json (too
    #    noisy to bound) but must keep working for manual runs.
    for w in [x["name"] for x in spec["workloads"]] + ["adaptive-large"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            r = harness(binary, w, trace, refs, w)
            res = last_json(r.stdout)
            check(r.returncode == 0 and res is not None and res["correct"],
                  f"{w} trace={trace}: correct result, exit 0")
            if res is None:
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"}
                  and res["attempted"] >= 1,
                  f"{w} trace={trace}: result keys and attempted >= 1")
            got = res["metrics"]
            for m in spec[group]:
                ok = (m["name"] in got and got[m["name"]]["unit"] == m["unit"]
                      and isinstance(got[m["name"]]["value"], (int, float)))
                check(ok, f"{w} trace={trace}: {m['name']} [{m['unit']}]")
            check(len(got) == len(spec[group]),
                  f"{w} trace={trace}: no metrics beyond BENCHMARK.json")
            if group == "end_to_end":
                zero = [k for k, v in got.items() if v["value"] == 0]
                check(not zero, f"{w}: no end-to-end metric reads 0 {zero}")

    # 2. Perturbed references make the correctness check fail.
    bad = os.path.join(ROOT, ".bench_work", "selftest-refs")
    for name, perturb in (
            ("optimum", lambda t: t.replace("matmul small 96 94 ",
                                            "matmul small 96 95 ", 1)),
            ("search reference",
             lambda t: t.replace("sweep-small/cp-small-exhaustive 38 7 ",
                                 "sweep-small/cp-small-exhaustive 38 8 ",
                                 1))):
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(refs, bad)
        target = "optima.tsv" if name == "optimum" else "searches.tsv"
        path = os.path.join(bad, target)
        with open(path) as f:
            text = f.read()
        with open(path, "w") as f:
            f.write(perturb(text))
        r = harness(binary, "sweep-small", 0, bad, "perturbed")
        res = last_json(r.stdout)
        check(r.returncode != 0 and (res is None or not res["correct"]),
              f"perturbed {name} fails the run")
    shutil.rmtree(bad, ignore_errors=True)

    # 3. Without the program's sources the benchmark cannot build: it must
    #    fail fast and print no result.
    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    r = subprocess.run(spec["command"] + ["--workload", "sweep-small",
                                          "--seed", "1", "--seconds", "1",
                                          "--trace", "0"],
                       cwd=bare, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=170)
    check(r.returncode != 0 and last_json(r.stdout) is None,
          "bare directory fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
