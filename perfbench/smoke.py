"""Quick smoke check of the benchmark; never gates on timings.

    python3 perfbench/smoke.py

Run from the root of a checkout.  For every workload it makes one short
traced run twice on the default seed and one short untimed-metric run on
another seed, and checks:

- the last stdout line against the schema and the metric names and units
  of BENCHMARK.json;
- that every known answer held (``correct`` and ``failed``);
- that the exact per-layer counts are identical between the two traced
  runs, and that the query list is the same when generated twice;
- the two anchors: ring (6,12) expands 6,188 markings and countdown (3,4)
  has tree_size 110,251, both computed here without the engines.

It also reports whether the known ``dlf-to-reach`` RecursionError on a
1,200-transition net still occurs, and checks that the runner refuses a
directory with no xpn checkout.  Exits 1 on any failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SEEDS = (1, 7)


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_schema(res, specs):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int)
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in specs}
    assert got == want, f"metrics {sorted(set(got) ^ set(want))} differ"
    for v in res["metrics"].values():
        assert set(v) == {"value", "unit"}
        assert isinstance(v["value"], (int, float))
    assert res["correct"] and res["failed"] == 0, "a known answer failed"


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import spans
    import workloads
    from run import WORKLOADS
    from xpn import cli

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    problems = []

    def step(name, fn):
        try:
            fn()
            print(f"ok    {name}")
        except Exception as e:
            problems.append(name)
            print(f"FAIL  {name}: {type(e).__name__}: {e}")

    def anchors():
        assert workloads.ring_size(6, 12) == 6188
        net = workloads.countdown(3, 4)
        import oracles
        graph = oracles.reach_graph(net, workloads.ORACLE_CAP)
        assert workloads.tree_size(graph, tuple(net.initial)) == 110251
        for seed in SEEDS:
            checks = {q["tag"]: q["check"]
                      for w in ("forward", "terminate")
                      for q in workloads.build(w, seed)[2]}
            assert checks["ring6x12-deadlock"]["expanded"] == 6188
            assert checks["countdown3x4"]["tree_size"] == 110251
    step("anchors", anchors)

    for w in WORKLOADS:
        def same_queries(w=w):
            assert workloads.build(w, 1) == workloads.build(w, 1)
            assert workloads.build(w, 1) != workloads.build(w, 2)
        step(f"{w}: seeded query list", same_queries)

        traced = []

        def traced_run(w=w):
            res = result(run(w, SEEDS[0], 1))
            check_schema(res, bench["per_layer"])
            traced.append({k: res["metrics"][k]["value"] for k in spans.COUNTS})
        step(f"{w}: traced run 1", traced_run)
        step(f"{w}: traced run 2", traced_run)

        def counts_repeat():
            assert len(traced) == 2 and traced[0] == traced[1], traced
        step(f"{w}: exact counts repeat", counts_repeat)

        def other_seed(w=w):
            check_schema(result(run(w, SEEDS[1], 0)), bench["end_to_end"])
        step(f"{w}: seed {SEEDS[1]} end-to-end", other_seed)

    def bare_directory():
        bare = ROOT / ".perfbench_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "forward",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        shutil.rmtree(bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    step("refuses a directory without xpn", bare_directory)

    # ROADMAP item 4 fixes this; the case then joins the transform workload
    path = ROOT / ".perfbench_work" / "line1200.xpn"
    path.write_text(workloads.net_text(workloads.line(1200)))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["transform", "dlf-to-reach", str(path)])
        print(f"note  dlf-to-reach on 1,200 transitions now exits {rc}: "
              "add it to the transform workload")
    except RecursionError:
        print("note  known failure still present: dlf-to-reach on "
              "1,200 transitions raises RecursionError")
    path.unlink()

    print("smoke:", "FAILED " + ", ".join(problems) if problems else "all ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
