#!/usr/bin/env python3
"""Self-test for check_bench_regression.py.

Builds synthetic baseline/current report pairs — including a seeded 2x
p95 latency inflation and a qps collapse — and asserts the gate passes
and fails exactly where it promises to. Run by ctest (label: lint/bench)
so a regression in the gate itself fails CI even when real bench numbers
are healthy.
"""

from __future__ import annotations

import copy
import importlib.util
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = importlib.util.spec_from_file_location(
    "check_bench_regression", HERE / "check_bench_regression.py")
CHECK = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(CHECK)

FAILURES: list[str] = []


def check(name: str, condition: bool, detail: str = "") -> None:
    if condition:
        print(f"  ok: {name}")
    else:
        FAILURES.append(name)
        print(f"FAIL: {name} {detail}")


def make_report(**overrides) -> dict:
    report = {
        "schema_version": 1,
        "bench": "serving_throughput",
        "git_sha": "abc1234",
        "config": {"scale": 0.25, "seed": 7},
        "scenarios": [
            {"name": "plain/CORI",
             "values": {"qps_serial": 2000.0, "qps_parallel": 3000.0,
                        "p95_us": 500.0, "speedup": 1.5}},
            {"name": "adaptive/CORI",
             "values": {"qps_serial": 30.0, "qps_parallel": 32.0,
                        "p95_us": 40000.0}},
        ],
        "metrics": {"counters": {"serving.queries": 100},
                    "gauges": {}, "histograms": {}},
    }
    report.update(overrides)
    return report


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = CHECK.main(["check_bench_regression.py"] + argv)
    return status, out.getvalue(), err.getvalue()


def run_pair(baseline: dict, current: dict,
             extra: list[str] | None = None) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        base_path = Path(tmp) / "baseline.json"
        cur_path = Path(tmp) / "current.json"
        base_path.write_text(json.dumps(baseline), encoding="utf-8")
        cur_path.write_text(json.dumps(current), encoding="utf-8")
        return run_main([str(base_path), str(cur_path)] + (extra or []))


# --- schema validation -----------------------------------------------------

check("valid report has no schema errors",
      CHECK.validate_report(make_report()) == [],
      f"(got {CHECK.validate_report(make_report())})")

check("wrong schema_version is rejected",
      any("schema_version" in e
          for e in CHECK.validate_report(make_report(schema_version=2))))

check("missing scenarios is rejected",
      any("scenarios" in e
          for e in CHECK.validate_report(make_report(scenarios=[]))))

check("non-numeric value is rejected",
      any("not a number" in e for e in CHECK.validate_report(make_report(
          scenarios=[{"name": "x", "values": {"qps": "fast"}}]))))

bad_metrics = make_report(metrics={"counters": {}})
check("metrics without gauges/histograms is rejected",
      any("gauges" in e for e in CHECK.validate_report(bad_metrics)))

status, _, err = run_main(["--validate", "/nonexistent/report.json"])
check("--validate on unreadable file exits 2", status == 2, f"(got {status})")

with tempfile.TemporaryDirectory() as tmp:
    good = Path(tmp) / "good.json"
    good.write_text(json.dumps(make_report()), encoding="utf-8")
    status, out, _ = run_main(["--validate", str(good)])
    check("--validate on valid report exits 0", status == 0,
          f"(got {status})")
    check("--validate reports validity", "valid bench report" in out)

# --- gating ----------------------------------------------------------------

status, out, _ = run_pair(make_report(), make_report())
check("identical reports pass", status == 0, f"(got {status}: {out})")

# Small drift inside tolerance.
drift = copy.deepcopy(make_report())
drift["scenarios"][0]["values"]["qps_serial"] *= 0.90   # -10% < 15% limit
drift["scenarios"][0]["values"]["p95_us"] *= 1.20       # +20% < 25% limit
status, out, _ = run_pair(make_report(), drift)
check("drift within tolerance passes", status == 0, f"(got {status}: {out})")

# Seeded 2x latency inflation must trip the p95 gate.
inflated = copy.deepcopy(make_report())
for scenario in inflated["scenarios"]:
    scenario["values"]["p95_us"] *= 2.0
status, out, _ = run_pair(make_report(), inflated)
check("2x p95 inflation fails", status == 1, f"(got {status}: {out})")
check("2x p95 inflation names the gate", "p95" in out, f"(got {out})")

# qps collapse must trip the qps gate.
slow = copy.deepcopy(make_report())
slow["scenarios"][0]["values"]["qps_parallel"] *= 0.5
status, out, _ = run_pair(make_report(), slow)
check("50% qps drop fails", status == 1, f"(got {status}: {out})")
check("50% qps drop names the key", "qps_parallel" in out, f"(got {out})")

# A qps IMPROVEMENT and a p95 improvement must both pass.
better = copy.deepcopy(make_report())
better["scenarios"][0]["values"]["qps_serial"] *= 3.0
better["scenarios"][0]["values"]["p95_us"] *= 0.3
status, out, _ = run_pair(make_report(), better)
check("improvements pass", status == 0, f"(got {status}: {out})")

# Ungated keys (speedup) may move arbitrarily.
wild = copy.deepcopy(make_report())
wild["scenarios"][0]["values"]["speedup"] = 0.01
status, out, _ = run_pair(make_report(), wild)
check("ungated keys are informational", status == 0,
      f"(got {status}: {out})")

# wall_-prefixed variants are informational: wall time gates on machine
# load, not on the code; only the CPU-time keys (qps*, p95*) gate.
base_wall = copy.deepcopy(make_report())
base_wall["scenarios"][0]["values"]["wall_qps_serial"] = 2000.0
base_wall["scenarios"][0]["values"]["wall_p95_us"] = 500.0
loaded = copy.deepcopy(base_wall)
loaded["scenarios"][0]["values"]["wall_qps_serial"] = 400.0
loaded["scenarios"][0]["values"]["wall_p95_us"] = 5000.0
status, out, _ = run_pair(base_wall, loaded)
check("wall_ keys are informational", status == 0, f"(got {status}: {out})")

# A scenario vanishing from the current report is a failure, not a pass.
missing = copy.deepcopy(make_report())
del missing["scenarios"][1]
status, out, _ = run_pair(make_report(), missing)
check("missing scenario fails", status == 1, f"(got {status}: {out})")
check("missing scenario is named", "adaptive/CORI" in out, f"(got {out})")

# Extra scenarios in the current report are fine (no baseline yet).
extra = copy.deepcopy(make_report())
extra["scenarios"].append(
    {"name": "new/scorer", "values": {"qps_serial": 1.0}})
status, out, _ = run_pair(make_report(), extra)
check("extra current scenario passes", status == 0, f"(got {status}: {out})")

# Micro-scale p95 baselines are informational, not gated: at tens of
# microseconds, scheduler jitter alone exceeds the relative threshold.
tiny = copy.deepcopy(make_report())
tiny["scenarios"][0]["values"]["p95_us"] = 25.0
tiny_inflated = copy.deepcopy(tiny)
tiny_inflated["scenarios"][0]["values"]["p95_us"] = 80.0
status, out, _ = run_pair(tiny, tiny_inflated)
check("p95 below the gating floor is informational", status == 0,
      f"(got {status}: {out})")
check("the floor is reported", "gating floor" in out, f"(got {out})")

# ...but the floor is tunable, and zero restores strict gating.
status, out, _ = run_pair(tiny, tiny_inflated, ["--min-gated-p95-us", "0"])
check("zero floor restores p95 gating", status == 1, f"(got {status}: {out})")

# Custom thresholds are honored.
status, out, _ = run_pair(make_report(), drift,
                          ["--max-qps-drop", "0.05"])
check("tightened qps threshold trips on 10% drop", status == 1,
      f"(got {status}: {out})")

# --exact: every non-wall_ value is gated at equality, whatever its key.
status, out, _ = run_pair(make_report(), make_report(), ["--exact"])
check("identical reports pass --exact", status == 0,
      f"(got {status}: {out})")

status, out, _ = run_pair(make_report(), wild, ["--exact"])
check("changed ungated value fails --exact", status == 1,
      f"(got {status}: {out})")
check("--exact names the changed key", "speedup" in out, f"(got {out})")

status, out, _ = run_pair(make_report(), drift, ["--exact"])
check("drift within tolerance fails --exact", status == 1,
      f"(got {status}: {out})")

status, out, _ = run_pair(base_wall, loaded, ["--exact"])
check("changed wall_ values pass --exact", status == 0,
      f"(got {status}: {out})")

dropped = copy.deepcopy(make_report())
del dropped["scenarios"][0]["values"]["speedup"]
status, out, _ = run_pair(make_report(), dropped)
check("missing ungated key passes without --exact", status == 0,
      f"(got {status}: {out})")
status, out, _ = run_pair(make_report(), dropped, ["--exact"])
check("missing non-wall_ key fails --exact", status == 1,
      f"(got {status}: {out})")
check("--exact names the missing key", "speedup" in out, f"(got {out})")

no_wall = copy.deepcopy(base_wall)
del no_wall["scenarios"][0]["values"]["wall_qps_serial"]
status, out, _ = run_pair(base_wall, no_wall, ["--exact"])
check("missing wall_ key passes --exact", status == 0,
      f"(got {status}: {out})")

# Malformed current report is a schema error (2), not a gate failure (1).
status, _, err = run_pair(make_report(), {"schema_version": 1})
check("malformed current report exits 2", status == 2, f"(got {status})")

# --- orphan-baseline detection ---------------------------------------------

CI_FIXTURE = """\
run ./build-ci/release/bench/bench_serving --smoke \\
  --json build-ci/release/BENCH_serving.json
run python3 tools/check_bench_regression.py \\
  bench/baselines/BENCH_serving.json build-ci/release/BENCH_serving.json
"""


def run_orphans(ci_text: str, baselines: list[str]) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        ci = Path(tmp) / "ci.sh"
        ci.write_text(ci_text, encoding="utf-8")
        bdir = Path(tmp) / "baselines"
        bdir.mkdir()
        for name in baselines:
            (bdir / name).write_text("{}", encoding="utf-8")
        return run_main(["--check-orphans", str(ci), str(bdir)])


status, out, _ = run_orphans(CI_FIXTURE, ["BENCH_serving.json"])
check("gated baseline passes orphan check", status == 0,
      f"(got {status}: {out})")

status, _, err = run_orphans(
    CI_FIXTURE, ["BENCH_serving.json", "BENCH_forgotten.json"])
check("ungated baseline fails orphan check", status == 1, f"(got {status})")
check("orphan baseline is named", "BENCH_forgotten.json" in err,
      f"(got {err})")

# A build-output mention (current side of a gate) must NOT count as a
# baseline reference.
status, _, err = run_orphans(
    CI_FIXTURE + "run foo build-ci/release/BENCH_other.json\n",
    ["BENCH_serving.json", "BENCH_other.json"])
check("build-output mention does not gate a baseline", status == 1,
      f"(got {status})")

# The reverse direction: a referenced baseline that is gone from disk.
status, _, err = run_orphans(CI_FIXTURE, [])
check("missing referenced baseline fails", status == 1, f"(got {status})")
check("missing referenced baseline is named", "BENCH_serving.json" in err,
      f"(got {err})")

status, _, err = run_main(
    ["--check-orphans", "/nonexistent/ci.sh", "/nonexistent/baselines"])
check("unreadable ci script exits 2", status == 2, f"(got {status})")

# The repo's own wiring must be clean (run from the repo root by ci.sh,
# from anywhere by ctest — resolve paths relative to this file).
status, out, err = run_main(
    ["--check-orphans", str(HERE.parent / "ci.sh"),
     str(HERE.parent / "bench" / "baselines")])
check("repo baselines are all gated", status == 0,
      f"(got {status}: {out}{err})")

print()
if FAILURES:
    print(f"check_bench_regression_selftest: {len(FAILURES)} check(s) FAILED")
    sys.exit(1)
print("check_bench_regression_selftest: all checks passed")
