#!/usr/bin/env python3
"""Diff two smerge-bench-v1 JSON documents and fail on regressions.

Usage:
    tools/bench_compare.py BASELINE.json CANDIDATE.json [--tol 0.25]
        [--series-tol 1e-9] [--require-all] [--data-only]

Two kinds of checks, applied to every bench present in both files:

  * data checks (hard): the `ok` flag must not regress, and every
    non-timing series common to both runs must match elementwise within
    --series-tol relative error — bench data is deterministic for a
    given --quick/--threads configuration, so any drift is a behaviour
    change, not noise;
  * timing checks: metrics and series whose names look like wall-clock
    measurements (*_ns, *_ms, elapsed*, *speedup is excluded as a
    derived ratio) may regress by at most --tol relative (default 25%).
    Timing checks only make sense between runs on the same machine; pass
    --data-only to skip them entirely (what CI does against the
    committed seed, whose timings came from another host).

Benches present only in the candidate (a bench added since the committed
baseline) are reported as notes, never failures: the baseline simply
predates them — regenerate BENCH_seed.json to put them under the gates.

Exit status: 0 clean, 1 regressions found, 2 usage/schema errors.
"""

import argparse
import json
import math
import sys

TIMING_SUFFIXES = ("_ns", "_ms", "_s")
TIMING_KEYWORDS = ("elapsed",)
# Derived ratios and machine-shape metrics: not comparable across hosts
# and not a regression signal.
NONCOMPARABLE_KEYWORDS = ("speedup", "exponent", "threads")


def is_timing(name: str) -> bool:
    lowered = name.lower()
    return lowered.endswith(TIMING_SUFFIXES) or any(
        k in lowered for k in TIMING_KEYWORDS
    )


def is_noncomparable(name: str) -> bool:
    lowered = name.lower()
    return any(k in lowered for k in NONCOMPARABLE_KEYWORDS)


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"error: cannot read {path}: {exc}")
    if doc.get("schema") != "smerge-bench-v1":
        sys.exit(f"error: {path} is not a smerge-bench-v1 document")
    return doc


def rel_excess(old: float, new: float) -> float:
    """How far `new` exceeds `old`, relative to `old` (0 when new <= old)."""
    if new <= old:
        return 0.0
    return (new - old) / old if old > 0 else math.inf


def main() -> int:
    parser = argparse.ArgumentParser(
        description="diff two smerge-bench-v1 files, fail on regressions"
    )
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument(
        "--tol",
        type=float,
        default=0.25,
        help="max relative timing regression (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--series-tol",
        type=float,
        default=1e-9,
        help="max relative elementwise drift for data series",
    )
    parser.add_argument(
        "--require-all",
        action="store_true",
        help="fail if a baseline bench is missing from the candidate",
    )
    parser.add_argument(
        "--data-only",
        action="store_true",
        help="skip all timing comparisons (use when baseline and candidate "
        "ran on different machines, e.g. CI vs the committed seed)",
    )
    args = parser.parse_args()

    base = load(args.baseline)
    cand = load(args.candidate)
    base_benches = {b["name"]: b for b in base.get("benches", [])}
    cand_benches = {b["name"]: b for b in cand.get("benches", [])}

    failures: list[str] = []
    notes: list[str] = []
    compared = 0
    for name, old in sorted(base_benches.items()):
        new = cand_benches.get(name)
        if new is None:
            msg = f"{name}: present in baseline, missing from candidate"
            (failures if args.require_all else notes).append(msg)
            continue
        compared += 1

        if old.get("ok", False) and not new.get("ok", False):
            failures.append(f"{name}: ok regressed true -> false")

        # Data series: deterministic, compared exactly (within fp slack).
        old_series = old.get("series", {})
        new_series = new.get("series", {})
        for sname, old_vals in old_series.items():
            if is_timing(sname) or is_noncomparable(sname):
                continue
            new_vals = new_series.get(sname)
            if new_vals is None:
                failures.append(f"{name}/{sname}: data series disappeared")
                continue
            if len(new_vals) != len(old_vals):
                failures.append(
                    f"{name}/{sname}: length {len(old_vals)} -> {len(new_vals)}"
                )
                continue
            for idx, (a, b) in enumerate(zip(old_vals, new_vals)):
                if abs(a - b) > args.series_tol * max(1.0, abs(a)):
                    failures.append(
                        f"{name}/{sname}[{idx}]: {a!r} -> {b!r} "
                        f"(data drift > {args.series_tol})"
                    )
                    break

        # Timing metrics: allow up to --tol relative regression.
        if args.data_only:
            continue
        old_metrics = old.get("metrics", {})
        new_metrics = new.get("metrics", {})
        for mname, old_val in old_metrics.items():
            if not is_timing(mname) or is_noncomparable(mname):
                continue
            new_val = new_metrics.get(mname)
            if new_val is None or not (
                isinstance(old_val, (int, float)) and old_val > 0
            ):
                continue
            excess = rel_excess(float(old_val), float(new_val))
            if excess > args.tol:
                failures.append(
                    f"{name}/{mname}: {old_val:.0f} -> {new_val:.0f} "
                    f"(+{100 * excess:.1f}% > {100 * args.tol:.0f}%)"
                )

        if "elapsed_ms" in old and "elapsed_ms" in new:
            excess = rel_excess(float(old["elapsed_ms"]), float(new["elapsed_ms"]))
            if excess > args.tol:
                failures.append(
                    f"{name}/elapsed_ms: {old['elapsed_ms']:.1f} -> "
                    f"{new['elapsed_ms']:.1f} (+{100 * excess:.1f}% > "
                    f"{100 * args.tol:.0f}%)"
                )

    # Benches the baseline predates: informational only — the next seed
    # regeneration brings them under the data gates.
    for name in sorted(set(cand_benches) - set(base_benches)):
        notes.append(
            f"{name}: new bench, absent from baseline — regenerate "
            "BENCH_seed.json to gate it"
        )

    for msg in notes:
        print(f"note: {msg}")
    if compared == 0:
        print("error: no benches in common", file=sys.stderr)
        return 2
    if failures:
        print(f"{len(failures)} regression(s) across {compared} benches:")
        for msg in failures:
            print(f"  FAIL {msg}")
        return 1
    print(f"ok: {compared} benches compared, no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
