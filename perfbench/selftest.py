#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

1. A reduced-size smoke (--smoke) of every workload, untraced and traced,
   must exit 0 and print a result whose metric names and units are exactly
   the end-to-end (untraced) or per-layer (traced) metrics BENCHMARK.json
   declares, with every end-to-end value above zero. This covers the
   workloads BENCHMARK.json lists and long-adaptive, which stays runnable
   but is not listed (see README.md).
2. Negative case: churn-broker on databases smaller than the 300-document
   sample must trip its coverage assertion (no posterior eviction) and exit
   non-zero without printing a result.
3. Negative case: a directory holding only BENCHMARK.json and perfbench/
   cannot build the benchmark; the command must exit non-zero without
   printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def run(args, cwd=ROOT, env=None):
    return subprocess.run(["python3", os.path.join("perfbench", "run.py")] +
                          args, cwd=cwd, capture_output=True, text=True,
                          env=env, timeout=900)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def check_smoke(spec, workload, trace, failures):
    proc = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
    label = "%s trace=%d" % (workload, trace)
    if proc.returncode != 0:
        failures.append("%s: exit %d\n%s" % (label, proc.returncode,
                                             proc.stderr[-3000:]))
        return
    result = last_json(proc.stdout)
    if result is None:
        failures.append("%s: last stdout line is not a JSON object" % label)
        return
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append("%s: result keys %s" % (label, sorted(result)))
        return
    if result["correct"] is not True or result["attempted"] < 1:
        failures.append("%s: correct=%s attempted=%s" %
                        (label, result["correct"], result["attempted"]))
    declared = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        failures.append("%s: missing %s, undeclared %s, wrong units %s" %
                        (label, missing, extra, wrong))
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append("%s: %s = %r is not a finite number" %
                            (label, name, value))
        elif not trace and value <= 0:
            failures.append("%s: end-to-end metric %s = %r is not above 0" %
                            (label, name, value))
    print("ok   %s (%d metrics)" % (label, len(got)))


def check_coverage_fires(failures):
    proc = run(["--workload", "churn-broker", "--seed", "1", "--seconds", "1",
                "--trace", "0", "--smoke", "--tiny-databases"])
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        failures.append("churn-broker on tiny databases passed its coverage "
                        "assertion (exit %d)" % proc.returncode)
    elif "evicted no posterior grids" not in proc.stderr:
        failures.append("churn-broker on tiny databases failed for another "
                        "reason:\n%s" % proc.stderr[-3000:])
    else:
        print("ok   coverage assertion fires on databases below the sample")


def check_bare_directory(failures):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bare = os.path.join(ROOT, build_dir, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = run(["--workload", "short-plain", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        failures.append("the benchmark ran without the library sources")
    else:
        print("ok   no result without the library sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]] + ["long-adaptive"]:
        for trace in (0, 1):
            check_smoke(spec, workload, trace, failures)
    check_coverage_fires(failures)
    check_bare_directory(failures)
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
