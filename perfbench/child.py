"""The measured process of one workload run.

Started by run.py once per run, it imports xpn, reads and parses every
input net once and answers one untimed warm-up query; that set-up time is
measured from the moment the parent started this process.  It then sends
the queries in a closed loop from one client: one in-process call to
``xpn.cli.main(argv)`` at a time, stdout captured, each answer checked
after its timer stops.  It makes ``--passes`` whole passes over the query
list, so every run times the same queries; it stops early only when a
pass ends after ``--max-seconds``.

The host's speed drifts by up to 2x within tens of seconds on a shared
machine, so a fixed pure-Python calibration loop, independent of xpn, runs
between queries (untimed) at least every ``CAL_EVERY_S``.  Each query time
is also reported scaled to the reference host speed: multiplied by
``CAL_REF_S`` over the median of the latest calibration times.  The set-up
time is scaled the same way, by three calibrations right after it.

With ``--trace 1`` each pass runs twice, untraced then traced, and the
per-layer metrics come from the traced passes.  The result goes to
``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import statistics
import sys
import time
from pathlib import Path

# calibrate() takes about CAL_REF_S on a shared 2-vCPU x86-64 virtual
# machine (Intel Xeon, 2.0 GHz, Python 3.11), so that scaled times read
# close to measured ones there
CAL_REF_S = 0.005
CAL_EVERY_S = 0.25
CAL_WINDOW = 5


def calibrate():
    """Seconds a fixed loop of tuple building and dict updates takes now."""
    t = time.perf_counter()
    d = {}
    key = (0,) * 6
    for i in range(9000):
        key = key[1:] + (i % 5,)
        d[key] = d.get(key, 0) + 1
    return time.perf_counter() - t


def peak_rss_mb():
    """This process's own resident-set high-water mark.  VmHWM belongs to
    the address space made at exec, so unlike ``ru_maxrss`` it leaves out
    the parent's pages from before the exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_query(cli, argv, tracer=None):
    """(exit code, stdout, seconds) of one CLI call, inside a "cli.main"
    span when traced; an uncaught exception becomes its type name in place
    of the exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        sp = tracer.open("cli.main") if tracer else None
        t = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # counted as a failed query, never fatal
            rc = type(e).__name__
        dt = time.perf_counter() - t
        if sp:
            tracer.close(sp)
    return rc, out.getvalue(), dt


class Loop:
    def __init__(self, cli, checks, queries, nets):
        self.cli, self.checks = cli, checks
        self.queries, self.nets = queries, nets
        self.durations = []   # seconds as measured
        self.scaled = []      # the same, at the reference host speed
        self.passes = self.attempted = self.decided = 0
        self.failures = []
        self._pending = []
        self._cals = []
        self._cal_at = time.perf_counter()

    def rescale(self):
        """Calibrate now and scale the queries timed since the last
        calibration."""
        self._cals = self._cals[1 - CAL_WINDOW:] + [calibrate()]
        factor = CAL_REF_S / statistics.median(self._cals)
        self.scaled += [d * factor for d in self._pending]
        self._pending = []
        self._cal_at = time.perf_counter()

    def one(self, q, tracer=None):
        rc, out, dt = run_query(self.cli, q["argv"], tracer)
        self.attempted += 1
        self.decided += rc == 0
        why = self.checks.check(q, rc, out, self.nets.get(q["net"]))
        if why is not None:
            self.failures.append(f"{q['tag']} {' '.join(q['argv'])}: {why}")
        return dt

    def run_pass(self, tracer=None):
        """Seconds spent inside the CLI over one pass."""
        total = 0.0
        for i, q in enumerate(self.queries):
            if tracer is None:
                dt = self.one(q)
                self.durations.append(dt)
                self._pending.append(dt)
                if time.perf_counter() - self._cal_at >= CAL_EVERY_S:
                    self.rescale()
            else:
                tracer.query = f"{self.passes}:{i}"
                dt = self.one(q, tracer)
            total += dt
        self.passes += 1
        return total


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() when the parent started us")
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--max-seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced spans here")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    root = Path(args.root)
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(root / "src"), str(root / "tests"), str(here)]
    from xpn import cli
    from xpn.fmt import parse_net
    import checks

    os.chdir(args.work)
    manifest = json.loads(Path("manifest.json").read_text())
    nets = {name: parse_net(Path(name).read_text())
            for name in sorted(os.listdir(".")) if name.endswith(".xpn")}
    warm = Loop(cli, checks, [manifest["warmup"]], nets)
    warm.run_pass()
    # a CLI process holds only its own query's objects; keep the loop's
    # long-lived set-up objects out of every later full collection
    gc.collect()
    gc.freeze()
    setup_s = time.monotonic() - args.started
    cal = statistics.median(calibrate() for _ in range(3))
    result = {"setup_s": setup_s, "setup_scaled_s": setup_s * CAL_REF_S / cal,
              "failures": warm.failures}
    if not args.setup_only:
        loop = Loop(cli, checks, manifest["queries"], nets)
        result.update(measure(loop, args))
        result["failures"] += loop.failures
    result["peak_rss_mb"] = peak_rss_mb()
    Path(args.out).write_text(json.dumps(result))


def measure(loop, args):
    start = time.perf_counter()

    def more(done):
        return done < args.passes and (
            not done or time.perf_counter() - start < args.max_seconds)

    if not args.trace:
        while more(loop.passes):
            loop.run_pass()
        loop.rescale()
        return {"passes": loop.passes, "durations": loop.durations,
                "scaled": loop.scaled,
                "attempted": loop.attempted, "decided": loop.decided}

    import spans
    tracer = spans.Tracer()
    per_pass, plain, traced = [], [], []
    while more(len(per_pass)):
        plain.append(loop.run_pass())
        first = len(tracer.spans)
        tracer.install()
        try:
            traced.append(loop.run_pass(tracer))
        finally:
            tracer.uninstall()
        per_pass.append(spans.layer_metrics(tracer.spans[first:]))
    for k in spans.COUNTS:
        if len({p[k] for p in per_pass}) > 1:
            loop.failures.append(f"count {k} differs between passes: "
                                 f"{[p[k] for p in per_pass]}")
    if args.spans:
        tracer.dump(args.spans)
    overhead = statistics.median(traced) - statistics.median(plain)
    return {"passes": len(per_pass), "attempted": loop.attempted,
            "decided": loop.decided,
            "layers": spans.combine(per_pass, overhead)}


if __name__ == "__main__":
    main()
