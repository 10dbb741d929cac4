#!/usr/bin/env python3
"""Perf-regression gate over schema-versioned BENCH_*.json reports.

Compares a current bench report against a committed baseline
(bench/baselines/) and fails when a gated value regressed beyond
tolerance. The gate semantics live in the value keys, so benches opt
into gating simply by how they name their scenario values:

  * keys starting with "qps"    — higher is better; fail when the
                                  current value drops more than
                                  --max-qps-drop (default 15%),
  * keys starting with "p95"    — lower is better; fail when the current
                                  value grows more than --max-p95-growth
                                  (default 25%). By schema convention p95
                                  keys are microseconds (p95_us); baselines
                                  below --min-gated-p95-us (default 100)
                                  are informational, not gated — at
                                  tens-of-microseconds scale, scheduler
                                  jitter alone exceeds any sane relative
                                  threshold.

Every other key is informational; benches exploit that by prefixing
load-sensitive wall-clock variants (wall_qps_serial, wall_p95_us) so
only their CPU-time counterparts gate. A scenario present in the baseline
must exist in the current report (a silently vanished scenario is a
gate bypass, not a pass). Extra scenarios in the current report are
allowed — they gate nothing until a new baseline is recorded.

--exact is for reports whose every value but the wall_ ones is a
deterministic function of the code (virtual-time and selection-quality
numbers): each non-wall_ value of every baseline scenario must be present
in the current report and equal to the baseline exactly, whatever its
key. wall_ keys stay informational.

Usage:
  check_bench_regression.py BASELINE.json CURRENT.json [options]
  check_bench_regression.py --validate REPORT.json
  check_bench_regression.py --check-orphans CI_SCRIPT BASELINE_DIR

--check-orphans closes the other gate bypass: a committed baseline that
no CI job compares against gates nothing — it silently rots while the
bench it froze regresses. The check cross-references bench/baselines/
against the CI driver script: every BENCH_*.json under the baseline
directory must be referenced by some job, and every baseline path the
script references must exist on disk.

Exit codes: 0 pass, 1 regression / missing scenario / orphan baseline,
2 malformed report / unreadable file. Importable as a module; the
self-test (check_bench_regression_selftest.py) drives main() in-process.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

SCHEMA_VERSION = 1

DEFAULT_MAX_QPS_DROP = 0.15
DEFAULT_MAX_P95_GROWTH = 0.25
DEFAULT_MIN_GATED_P95_US = 100.0


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_report(report) -> list[str]:
    """Structural schema check; returns a list of problems (empty = valid)."""
    errors: list[str] = []
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    if report.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"schema_version is {report.get('schema_version')!r}, "
            f"expected {SCHEMA_VERSION}")
    for key in ("bench", "git_sha"):
        if not isinstance(report.get(key), str) or not report.get(key):
            errors.append(f"missing or non-string {key!r}")
    if not isinstance(report.get("config"), dict):
        errors.append("missing or non-object 'config'")
    scenarios = report.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        errors.append("missing, non-array, or empty 'scenarios'")
        scenarios = []
    seen_names = set()
    for i, scenario in enumerate(scenarios):
        if not isinstance(scenario, dict):
            errors.append(f"scenarios[{i}] is not an object")
            continue
        name = scenario.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"scenarios[{i}] has no name")
            continue
        if name in seen_names:
            errors.append(f"duplicate scenario name {name!r}")
        seen_names.add(name)
        values = scenario.get("values")
        if not isinstance(values, dict):
            errors.append(f"scenario {name!r} has no 'values' object")
            continue
        for key, value in values.items():
            if not is_number(value):
                errors.append(
                    f"scenario {name!r} value {key!r} is not a number")
    metrics = report.get("metrics")
    if not isinstance(metrics, dict):
        errors.append("missing or non-object 'metrics'")
    else:
        for section in ("counters", "gauges", "histograms"):
            if not isinstance(metrics.get(section), dict):
                errors.append(f"metrics has no {section!r} object")
    return errors


def load_report(path: str) -> tuple[dict | None, list[str]]:
    try:
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return None, [f"{path}: {e}"]
    errors = [f"{path}: {e}" for e in validate_report(report)]
    return (report if not errors else None), errors


def gate_for_key(key: str) -> str | None:
    """'qps' (higher-better), 'p95' (lower-better), or None (ungated)."""
    if key.startswith("qps"):
        return "qps"
    if key.startswith("p95"):
        return "p95"
    return None


def compare(baseline: dict, current: dict,
            max_qps_drop: float = DEFAULT_MAX_QPS_DROP,
            max_p95_growth: float = DEFAULT_MAX_P95_GROWTH,
            min_gated_p95_us: float = DEFAULT_MIN_GATED_P95_US,
            exact: bool = False,
            log=print) -> list[str]:
    """Gates `current` against `baseline`; returns failure descriptions."""
    failures: list[str] = []
    current_by_name = {s["name"]: s["values"] for s in current["scenarios"]}
    for scenario in baseline["scenarios"]:
        name = scenario["name"]
        if name not in current_by_name:
            failures.append(f"scenario {name!r} missing from current report")
            log(f"FAIL {name}: missing from current report")
            continue
        values = current_by_name[name]
        for key, base in scenario["values"].items():
            if exact and not key.startswith("wall_"):
                if key not in values:
                    failures.append(f"{name}/{key}: missing from current "
                                    f"report")
                    log(f"FAIL {name}/{key}: missing from current report")
                elif values[key] != base:
                    failures.append(f"{name}/{key}: {base!r} -> "
                                    f"{values[key]!r}, expected exact")
                    log(f"FAIL {name}/{key}: {base!r} -> {values[key]!r} "
                        f"(exact)")
                else:
                    log(f"  ok {name}/{key}: {base!r} (exact)")
                continue
            gate = gate_for_key(key)
            if gate is None or key not in values or base <= 0:
                continue
            cur = values[key]
            if gate == "qps":
                drop = (base - cur) / base
                if drop > max_qps_drop:
                    failures.append(
                        f"{name}/{key}: qps dropped {drop:.1%} "
                        f"({base:.1f} -> {cur:.1f}), limit {max_qps_drop:.0%}")
                    log(f"FAIL {name}/{key}: {base:.1f} -> {cur:.1f} "
                        f"({-drop:+.1%}, limit -{max_qps_drop:.0%})")
                else:
                    log(f"  ok {name}/{key}: {base:.1f} -> {cur:.1f} "
                        f"({-drop:+.1%})")
            else:
                growth = (cur - base) / base
                if base < min_gated_p95_us:
                    log(f"info {name}/{key}: {base:.1f} -> {cur:.1f} "
                        f"({growth:+.1%}; below {min_gated_p95_us:.0f} us "
                        f"gating floor, informational)")
                elif growth > max_p95_growth:
                    failures.append(
                        f"{name}/{key}: p95 grew {growth:.1%} "
                        f"({base:.1f} -> {cur:.1f}), "
                        f"limit {max_p95_growth:.0%}")
                    log(f"FAIL {name}/{key}: {base:.1f} -> {cur:.1f} "
                        f"({growth:+.1%}, limit +{max_p95_growth:.0%})")
                else:
                    log(f"  ok {name}/{key}: {base:.1f} -> {cur:.1f} "
                        f"({growth:+.1%})")
    return failures


def check_orphans(ci_script: str, baseline_dir: str,
                  log=print) -> list[str]:
    """Cross-references committed baselines against the CI driver.

    Returns problem descriptions: baselines on disk that the CI script
    never mentions (ungated — dead weight that LOOKS like a gate), and
    baseline paths the script references that do not exist (the job
    would fail at runtime; catch it in lint instead).
    """
    problems: list[str] = []
    ci_text = Path(ci_script).read_text(encoding="utf-8")
    dir_path = Path(baseline_dir)
    # Only bench/baselines/-style references count: the CI script also
    # names BENCH_*.json build outputs (the CURRENT side of each gate),
    # which say nothing about whether the committed baseline is wired up.
    referenced = set(
        re.findall(rf"{re.escape(dir_path.name)}/(BENCH_\w+\.json)", ci_text))
    on_disk = sorted(p.name for p in dir_path.glob("BENCH_*.json"))
    for name in on_disk:
        if name in referenced:
            log(f"  ok {dir_path / name}: referenced by {ci_script}")
        else:
            problems.append(
                f"orphan baseline {dir_path / name}: no job in {ci_script} "
                f"references it, so it gates nothing")
    # The reverse direction: a referenced baseline whose file is gone
    # (renamed baseline, stale job).
    for ref in sorted(referenced):
        if ref not in on_disk:
            problems.append(
                f"{ci_script} references {ref} but {dir_path / ref} "
                f"does not exist")
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog=argv[0], description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("reports", nargs="*",
                        help="BASELINE.json CURRENT.json")
    parser.add_argument("--validate", metavar="REPORT",
                        help="only schema-check the given report")
    parser.add_argument("--check-orphans", nargs=2,
                        metavar=("CI_SCRIPT", "BASELINE_DIR"),
                        help="fail if a BENCH_*.json under BASELINE_DIR is "
                             "gated by no job in CI_SCRIPT, or a referenced "
                             "baseline is missing")
    parser.add_argument("--max-qps-drop", type=float,
                        default=DEFAULT_MAX_QPS_DROP,
                        help="allowed fractional qps drop (default %(default)s)")
    parser.add_argument("--max-p95-growth", type=float,
                        default=DEFAULT_MAX_P95_GROWTH,
                        help="allowed fractional p95 latency growth "
                             "(default %(default)s)")
    parser.add_argument("--min-gated-p95-us", type=float,
                        default=DEFAULT_MIN_GATED_P95_US,
                        help="p95 baselines below this many microseconds "
                             "are informational, not gated "
                             "(default %(default)s)")
    parser.add_argument("--exact", action="store_true",
                        help="every non-wall_ baseline value must be present "
                             "and equal exactly (deterministic reports)")
    args = parser.parse_args(argv[1:])

    if args.check_orphans is not None:
        if args.reports or args.validate is not None:
            parser.error("--check-orphans takes no other reports")
        ci_script, baseline_dir = args.check_orphans
        try:
            problems = check_orphans(ci_script, baseline_dir)
        except OSError as e:
            print(f"{ci_script}: {e}", file=sys.stderr)
            return 2
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)
        if problems:
            print(f"\ncheck_bench_regression: {len(problems)} orphan "
                  f"check(s) FAILED")
            return 1
        print("\ncheck_bench_regression: every baseline is gated")
        return 0

    if args.validate is not None:
        if args.reports:
            parser.error("--validate takes no positional reports")
        _, errors = load_report(args.validate)
        for error in errors:
            print(error, file=sys.stderr)
        if not errors:
            print(f"{args.validate}: valid bench report "
                  f"(schema_version {SCHEMA_VERSION})")
        return 2 if errors else 0

    if len(args.reports) != 2:
        parser.error("expected BASELINE.json CURRENT.json")
    baseline, errors = load_report(args.reports[0])
    current, current_errors = load_report(args.reports[1])
    errors += current_errors
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        return 2

    print(f"baseline: {args.reports[0]} (git {baseline['git_sha']})")
    print(f"current:  {args.reports[1]} (git {current['git_sha']})")
    failures = compare(baseline, current, args.max_qps_drop,
                       args.max_p95_growth, args.min_gated_p95_us,
                       args.exact)
    if failures:
        print(f"\ncheck_bench_regression: {len(failures)} gate(s) FAILED")
        return 1
    print("\ncheck_bench_regression: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
