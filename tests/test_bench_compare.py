#!/usr/bin/env python3
"""Gate test for tools/bench_compare.py --data-only.

Usage:
    tests/test_bench_compare.py BENCH_COMPARE.py BENCH_SEED.json

The committed seed compared with itself must pass (exit 0). A copy with
one data-series value perturbed must fail (exit 1) and name the drifted
point. Exits 0 when both hold, 1 otherwise.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

# A deterministic paper-artifact series: Section 3.3's optimal cost at
# the smallest buffer bound.
BENCH, SERIES = "abl_buffer_sweep", "cost"


def compare(tool: str, baseline: str, candidate: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, tool, baseline, candidate, "--data-only"],
        capture_output=True,
        text=True,
        check=False,
    )


def main() -> int:
    tool, seed = sys.argv[1], sys.argv[2]

    same = compare(tool, seed, seed)
    if same.returncode != 0:
        print(f"seed vs itself: exit {same.returncode}, expected 0\n{same.stdout}")
        return 1

    doc = json.loads(Path(seed).read_text(encoding="utf-8"))
    bench = next(b for b in doc["benches"] if b["name"] == BENCH)
    bench["series"][SERIES][0] += 1.0
    with tempfile.TemporaryDirectory() as tmp:
        perturbed = Path(tmp) / "perturbed.json"
        perturbed.write_text(json.dumps(doc), encoding="utf-8")
        drift = compare(tool, seed, str(perturbed))
    if drift.returncode != 1 or f"{BENCH}/{SERIES}[0]" not in drift.stdout:
        print(f"perturbed copy: exit {drift.returncode}, expected 1\n{drift.stdout}")
        return 1
    print("ok: seed passes against itself, a one-value drift fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
