"""Benchmark runner for xpn.

    python3 perfbench/run.py --workload forward --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; it needs ``src/xpn`` and
``tests/oracles.py`` there and uses only the standard library.  The
workloads (forward, terminate, backward-transform) and the metrics are
described in BENCHMARK.json and perfbench/DESIGN.md.

This process generates the seeded queries and their known answers, writes
the inputs under ``.perfbench_work/``, and starts one child process
(child.py) that answers them in a closed loop from one client.  Peak RSS
is that child's own VmHWM, which the child reports; its ``ru_maxrss``,
read through ``RUSAGE_CHILDREN`` before any other child exists, is printed
beside it only as a cross-check, since it also counts this process's
pages from before the child's exec.  With ``--trace 0`` four more children only set up,
and ``setup_s`` is the median of the five set-up times.  With
``--trace 1`` the child also runs traced passes and the per-layer metrics
are printed instead; spans go to ``.perfbench_work/spans-*.jsonl``.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it print each metric with its unit and sample
count.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("forward", "terminate", "backward-transform")
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150
MAX_STRETCH = 1.5  # a slow machine stops after the pass ending past 1.5x --seconds


def child(root, work, args, out, passes, setup_only=False, spans=None):
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(root),
           "--work", str(work), "--passes", str(passes),
           "--max-seconds", str(MAX_STRETCH * args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    subprocess.run(cmd + ["--started", repr(started)], check=True,
                   timeout=CHILD_TIMEOUT_S)
    return json.loads(out.read_text())


def tail(durations):
    """The highest percentile with at least ten samples beyond it, by
    nearest rank: the eleventh largest sample.  Returns (value,
    percentile)."""
    xs = sorted(durations)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(res, maxrss_mb, setups):
    """Timings at the reference host speed (see child.py), each with the
    value as measured beside it."""
    d, raw = res["scaled"], res["durations"]
    n = res["attempted"]
    failed = len(res["failures"])
    value, pct = tail(d)
    rows = [
        ("queries_per_s", n / sum(d), "1/s",
         f"n={n} queries; measured {n / sum(raw):.4g}"),
        ("query_p50_ms", 1e3 * statistics.median(d), "ms",
         f"n={n}; measured {1e3 * statistics.median(raw):.4g}"),
        ("query_tail_ms", 1e3 * value, "ms",
         f"p{pct:.2f}, n={n}, {min(10, n - 1)} beyond; "
         f"measured {1e3 * tail(raw)[0]:.4g}"),
        ("decided_share", res["decided"] / n, "ratio", f"n={n}"),
        ("correct_share", 1 - failed / n, "ratio", f"n={n}, 1 - failed_share"),
        ("peak_rss_mb", res["peak_rss_mb"], "MB",
         f"n=1 child process, VmHWM; ru_maxrss {maxrss_mb:.4g}"),
        ("setup_s", statistics.median(s["setup_scaled_s"] for s in setups), "s",
         f"n={len(setups)} set-ups; measured "
         f"{statistics.median(s['setup_s'] for s in setups):.4g}"),
    ]
    return rows


def per_layer(res):
    rows = []
    for k, v in res["layers"].items():
        if k.endswith("_per_s"):
            unit = "1/s"
        elif k.endswith("_bytes"):
            unit = "bytes"
        elif k.endswith("_ratio"):
            unit = "ratio"
        elif k.endswith("_s") or k == "bench.trace_overhead":
            unit = "s"
        else:
            unit = "count"
        rows.append((k, v, unit, f"per pass, {res['passes']} traced passes"))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not ((root / "src" / "xpn" / "cli.py").is_file()
            and (root / "tests" / "oracles.py").is_file()):
        print(f"{root} is not an xpn checkout: src/xpn and tests/oracles.py "
              "are needed", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import workloads

    files, warm, queries = workloads.build(args.workload, args.seed)
    base = root / ".perfbench_work"
    work = base / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        for name, text in files.items():
            (work / name).write_text(text)
        (work / "manifest.json").write_text(
            json.dumps({"warmup": warm, "queries": queries}))
        spans = base / f"spans-{args.workload}-{args.seed}.jsonl"
        # whole passes sized to last --seconds at the workload's nominal
        # pass time, so that every run times the same queries; a traced
        # pass counts twice because it follows an untraced one
        nominal = workloads.PASS_SECONDS[args.workload] * (1 + args.trace)
        passes = max(1, round(args.seconds / nominal))
        res = child(root, work, args, work / "result.json", passes,
                    spans=spans if args.trace else None)
        maxrss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        setups = [res]
        if not args.trace:
            for i in range(SETUP_RUNS - 1):
                extra = child(root, work, args, work / f"setup{i}.json", 0,
                              setup_only=True)
                setups.append(extra)
                res["failures"] += extra["failures"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rows = per_layer(res) if args.trace else end_to_end(res, maxrss_mb, setups)
    print(f"xpn benchmark: workload {args.workload}, seed {args.seed}, "
          f"closed loop, 1 client, {res['passes']} passes of "
          f"{len(queries)} queries, trace {args.trace}")
    failed = len(res["failures"])
    for name, value, unit, note in rows:
        print(f"  {name:32s} {value:14.6g} {unit:6s} {note}")
    if not args.trace:
        print(f"  {'failed_share':32s} {failed / res['attempted']:14.6g} "
              f"{'ratio':6s} n={res['attempted']}, {failed} failed")
    for f in res["failures"][:20]:
        print(f"  FAILED {f}")
    print(json.dumps({
        "correct": failed == 0, "attempted": res["attempted"], "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
