#!/usr/bin/env python3
"""CI bench-regression gate.

Compares freshly produced BENCH_*.json files against the committed
baselines under bench/baselines/. Two kinds of field are gated:

- ratio fields (speedups, geomeans) fail when they fall more than the
  tolerance below the baseline (default 40% -- the gate is meant to
  catch real regressions, not runner jitter);
- deterministic counts fail on any difference, in either direction:
  the same spec reproduces them exactly on any machine, so a changed
  count is a changed program, never noise.

Absolute events/sec numbers vary wildly between the committed
baseline's machine and whatever runner CI lands on, so they are
printed for context but never fail the build.

Re-baselining (after an intentional perf change):

    cmake --build build -j && (cd build && ./bench_kernel &&
        ./bench_mem && ./bench_train && ./bench_serve &&
        ./bench_perceptron)
    python3 tools/bench_check.py --results build --update

and commit the refreshed bench/baselines/*.json.
"""

import argparse
import json
import math
import pathlib
import shutil
import sys

# Ratio fields, higher is better, per bench file. Each is a ratio of
# two measurements taken on the same machine in the same run, which
# makes it comparable across machines.
RATIO_FIELDS = {
    "BENCH_kernel.json": ["kernel_speedup", "mixed_speedup"],
    "BENCH_mem.json": [
        "non_coh_dma_speedup",
        "llc_coh_dma_speedup",
        "coh_dma_speedup",
        "full_coh_speedup",
        "burst_speedup_geomean",
    ],
    "BENCH_train.json": ["speedup"],
}

# Deterministic counts, per bench file: they must equal the baseline.
EXACT_FIELDS = {
    # Same spec -> same trace -> same schedule; the latency quantiles
    # stay info-only.
    "BENCH_serve.json": [
        "served",
        "generations",
        "hot_swaps",
        "decision_logs_identical",
    ],
    # Deterministic training-mass and coverage counts; the perceptron
    # entries_covered in particular pins the feature-hash layout, so
    # an accidental hash change trips the gate.
    "BENCH_perceptron.json": [
        "train_invocations",
        "sh4.tabular.q_updates",
        "sh4.perceptron.q_updates",
        "sh4.perceptron.entries_covered",
    ],
}

GATED_FILES = list(dict.fromkeys([*RATIO_FIELDS, *EXACT_FIELDS]))

# Context-only fields shown in the report when present.
INFO_SUFFIXES = ("_per_sec", "_seconds")


def load(path):
    """Parse one JSON file, turning every malformed-input failure into
    a one-line actionable message (no traceback, no silent pass)."""
    try:
        with open(path) as f:
            data = json.load(f)
    except json.JSONDecodeError as e:
        raise SystemExit(
            f"fatal: {path}: malformed JSON at line {e.lineno} "
            f"(truncated bench run?)")
    except OSError as e:
        raise SystemExit(f"fatal: {path}: {e.strerror}")
    if not isinstance(data, dict):
        raise SystemExit(
            f"fatal: {path}: expected a JSON object, got "
            f"{type(data).__name__}")
    return data


def gated_value(name, field, data, where, positive=True):
    """A gated field must be a finite number, and a ratio field a
    positive one: a NaN, zero, or non-numeric value would make every
    floor comparison vacuously pass and turn the gate into a no-op."""
    value = data[field]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SystemExit(
            f"fatal: {name}:{field} in the {where} is not a number "
            f"(got {value!r})")
    value = float(value)
    if not math.isfinite(value):
        raise SystemExit(
            f"fatal: {name}:{field} in the {where} is {value} "
            f"(broken bench run?)")
    if positive and value <= 0.0:
        raise SystemExit(
            f"fatal: {name}:{field} in the {where} is {value}; gated "
            f"speedups are positive ratios, so the gate would pass "
            f"vacuously (broken bench run?)")
    return value


def main():
    parser = argparse.ArgumentParser(
        description="compare BENCH_*.json against committed baselines")
    parser.add_argument("--results", default="build",
                        help="directory holding the fresh BENCH_*.json")
    parser.add_argument("--baselines", default="bench/baselines",
                        help="directory holding the committed baselines")
    parser.add_argument("--tolerance", type=float, default=0.40,
                        help="allowed relative regression of a ratio "
                             "field (0.40 = 40%%)")
    parser.add_argument("--update", action="store_true",
                        help="copy fresh results over the baselines "
                             "instead of checking")
    parser.add_argument("--json", metavar="OUT",
                        help="also write the gate result as JSON, in "
                             "the same shape as the other analysis "
                             "gates, so CI can aggregate one summary "
                             "artifact")
    args = parser.parse_args()

    results = pathlib.Path(args.results)
    baselines = pathlib.Path(args.baselines)

    if args.update:
        baselines.mkdir(parents=True, exist_ok=True)
        for name in GATED_FILES:
            src = results / name
            if not src.exists():
                print(f"warning: {src} missing, baseline not updated")
                continue
            shutil.copy(src, baselines / name)
            print(f"re-baselined {baselines / name}")
        return 0

    failures = []
    warnings = []
    checks = []  # per-field comparison rows for --json
    for name in GATED_FILES:
        base_path = baselines / name
        result_path = results / name
        if not base_path.exists():
            failures.append(f"{base_path}: committed baseline missing")
            continue
        if not result_path.exists():
            failures.append(f"{result_path}: bench output missing "
                            "(did the bench run?)")
            continue
        base = load(base_path)
        result = load(result_path)

        print(f"--- {name} (ratio tolerance {args.tolerance:.0%}, "
              f"counts exact) ---")
        gated = [(f, False) for f in RATIO_FIELDS.get(name, [])] + \
            [(f, True) for f in EXACT_FIELDS.get(name, [])]
        for field, exact in gated:
            if field not in base:
                failures.append(f"{name}:{field} missing from the "
                                "baseline (re-baseline?)")
                continue
            if field not in result:
                failures.append(f"{name}:{field} missing from the "
                                "bench output")
                continue
            b = gated_value(name, field, base, "baseline", not exact)
            r = gated_value(name, field, result, "bench output",
                            not exact)
            if exact:
                ok = r == b
                checks.append({"bench": name, "field": field,
                               "baseline": b, "value": r,
                               "exact": True, "ok": ok})
                print(f"  {field:28s} baseline {b:10.4f}  "
                      f"now {r:10.4f}  exact       "
                      f"{'ok' if ok else 'CHANGED'}")
                if not ok:
                    failures.append(
                        f"{name}:{field} changed: {r:.4f} != "
                        f"{b:.4f} (deterministic count, gated "
                        "exactly)")
                continue
            floor = b * (1.0 - args.tolerance)
            ok = r >= floor
            checks.append({"bench": name, "field": field,
                           "baseline": b, "value": r,
                           "floor": floor, "ok": ok})
            print(f"  {field:28s} baseline {b:10.4f}  "
                  f"now {r:10.4f}  floor {floor:10.4f}  "
                  f"{'ok' if ok else 'REGRESSED'}")
            if not ok:
                failures.append(
                    f"{name}:{field} regressed: {r:.4f} < "
                    f"{floor:.4f} (baseline {b:.4f} - "
                    f"{args.tolerance:.0%})")
        for field, value in result.items():
            if isinstance(value, (int, float)) and \
                    field.endswith(INFO_SUFFIXES):
                print(f"  {field:28s} now {value:14.4f}  (info only)")

    # A committed baseline nothing compares against is a gate hole:
    # usually a renamed bench whose RATIO_FIELDS/EXACT_FIELDS entry (or
    # run step) was not updated. Warn loudly, but do not fail -- the stale file
    # may be intentional during a migration.
    if baselines.is_dir():
        for stray in sorted(baselines.glob("BENCH_*.json")):
            if stray.name not in GATED_FILES:
                warnings.append(
                    f"{stray} has no matching bench in this run "
                    "(stale baseline? update RATIO_FIELDS/EXACT_FIELDS "
                    "or delete it)")
    for w in warnings:
        print(f"warning: {w}")

    if args.json:
        pathlib.Path(args.json).write_text(json.dumps({
            "gate": "bench-regression",
            "passed": not failures,
            "tolerance": args.tolerance,
            "checks": checks,
            "failures": failures,
            "warnings": warnings,
        }, indent=2) + "\n")

    if failures:
        print("\nbench-regression gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nbench-regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
