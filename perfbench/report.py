"""Print every end-to-end metric of every workload in one table.

    python3 perfbench/report.py

Run from the root of a checkout.  Makes one untraced run.py run per
workload on seed 1, one after another, each as long as ``run_seconds`` in
BENCHMARK.json, and prints each metric with its unit and sample count.
Exits 1 if a run fails or reports a wrong answer.  For another seed, call
run.py.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def main():
    seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    ok = True
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w,
             "--seed", "1", "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w}: run failed: {proc.stderr[-500:]}")
            ok = False
            continue
        print("\n".join(lines[:-1]))
        ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
