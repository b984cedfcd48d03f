"""End-to-end CLI checks, run in process through cli.main."""

import argparse
import ast
import contextlib
import hashlib
import importlib.util
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from xpn import cli, ert as xpn_ert, net as xpn_net, transforms
from xpn.ert import build_ert, ert_dot
from xpn.explore import bounded_cover
from xpn.fmt import parse_net, parse_trace

CHAIN = "places: a b\nmarking: a=2\ntrans t: in a ; out b\n"
LOOP = "places: a\nmarking: a=1\ntrans t: in a ; out a\n"
HIR = "places: a b\nmarking: a=2 b=5\ntrans t: in a, reset b ; out b\n"


@pytest.fixture
def run(capsys, tmp_path):
    def go(*argv, files=None):
        paths = {}
        for name, text in (files or {}).items():
            p = tmp_path / name
            p.write_text(text)
            paths[name] = str(p)
        resolved = [paths.get(a, a) for a in argv]
        code = cli.main(resolved)
        cap = capsys.readouterr()
        return code, cap.out, cap.err, paths
    return go


# ---------------------------------------------------------------------------
# validate / classify

def test_validate_ok(run):
    code, out, err, paths = run("validate", "n.xpn", files={"n.xpn": CHAIN})
    assert code == 0 and err == ""
    assert out == f"{paths['n.xpn']}: ok\n"


def test_validate_warning_exits_zero(run):
    net = "places: a\nmarking: a=1\ntrans t: xfer a->a ;\n"
    code, out, err, _ = run("validate", "n.xpn", files={"n.xpn": net})
    assert code == 0
    assert "warning: self-transfer" in out
    assert "ok" not in out


def test_validate_error_exits_two(run):
    net = "places: a\ntrans t: in ghost ;\n"
    code, out, err, _ = run("validate", "n.xpn", files={"n.xpn": net})
    assert code == 2
    assert "error: unknown-place" in out


def test_parse_error_has_location(run):
    code, out, err, paths = run(
        "classify", "n.xpn", files={"n.xpn": "places: a\nplaces: b\n"})
    assert code == 2 and out == ""
    assert err.startswith(f"{paths['n.xpn']}:2:9: error:")


def test_classify_plain(run):
    code, out, _, _ = run("classify", "n.xpn", files={"n.xpn": CHAIN})
    assert code == 0
    assert out.splitlines() == [
        "class: plain",
        "specials: -",
        "hierarchical: -",
        "constrained-transfer: yes",
        "ert-eligible: yes",
    ]


def test_classify_specials(run):
    net = "places: a b\nmarking: a=1\ntrans t: inh a, in b ; out b\n"
    code, out, _, _ = run("classify", "n.xpn", files={"n.xpn": net})
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "class: inhibitor(hierarchical)"
    assert lines[4] == "ert-eligible: yes"


def test_classify_says_a_transfer_net_is_not_ert_eligible(run):
    # as `terminate` refuses it
    net = "places: a b\nmarking: a=1\ntrans t: xfer a->b ; out a\n"
    code, out, _, _ = run("classify", "n.xpn", files={"n.xpn": net})
    assert code == 0 and out.splitlines()[4] == "ert-eligible: no"
    code, out, err, _ = run("terminate", "n.xpn", files={"n.xpn": net})
    assert code == 2 and err == "error: transfer arcs are not supported\n"


def test_usage_error_is_exit_two():
    with pytest.raises(SystemExit) as err:
        cli.main(["no-such-verb"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# fire

def test_fire_sequence(run):
    code, out, _, _ = run("fire", "n.xpn", "t", "t", files={"n.xpn": CHAIN})
    assert code == 0 and out == "a=0 b=2\n"


def test_fire_with_start_marking(run):
    code, out, _, _ = run("fire", "n.xpn", "t", "-m", "a=5",
                          files={"n.xpn": CHAIN})
    assert code == 0 and out == "a=4 b=1\n"


@pytest.mark.parametrize("argv", [
    ("n.xpn", "-m", "a=5", "t", "t"),
    ("n.xpn", "t", "-m", "a=5", "t"),
    ("n.xpn", "t", "t", "-m", "a=5"),
    ("-m", "a=5", "n.xpn", "t", "t"),
], ids=["marking-before-transitions", "marking-between", "marking-last",
        "marking-before-net"])
def test_fire_takes_transitions_around_its_options(run, argv):
    assert run("fire", *argv, files={"n.xpn": CHAIN})[:3] == (
        0, "a=3 b=2\n", "")


@pytest.mark.parametrize("argv, rest", [
    (("fire", "n.xpn", "--bogus", "t"), "--bogus t"),
    (("fire", "n.xpn", "-m", "a=5", "t", "--bogus"), "t --bogus"),
    (("classify", "n.xpn", "t"), "t"),
], ids=["fire-option", "fire-option-last", "classify-word"])
def test_unrecognized_arguments_exit_2(run, capsys, argv, rest):
    with pytest.raises(SystemExit) as exc:
        run(*argv, files={"n.xpn": CHAIN})
    cap = capsys.readouterr()
    assert (exc.value.code, cap.out, cap.err) == (
        2, "", cli._parser()[0].format_usage()
        + f"xpn: error: unrecognized arguments: {rest}\n")


def test_fire_trace_file(run):
    code, out, _, _ = run("fire", "n.xpn", "--trace-file", "tr",
                          files={"n.xpn": CHAIN, "tr": "t\nt\n"})
    assert code == 0 and out == "a=0 b=2\n"


def test_fire_not_firable_is_definitive(run):
    code, out, _, _ = run("fire", "n.xpn", "t", "t", "t",
                          files={"n.xpn": CHAIN})
    assert code == 0
    assert out.startswith("not firable:")


def test_fire_needs_transitions(run):
    code, _, err, _ = run("fire", "n.xpn", files={"n.xpn": CHAIN})
    assert code == 2 and "no transitions given" in err


def test_fire_bad_marking_literal(run):
    code, _, err, _ = run("fire", "n.xpn", "t", "-m", "ghost=1",
                          files={"n.xpn": CHAIN})
    assert code == 2 and "marking literal" in err


# ---------------------------------------------------------------------------
# explore

def test_explore_reach_found_writes_trace(run, tmp_path):
    tr = tmp_path / "wit.trace"
    code, out, _, _ = run("explore", "reach", "n.xpn", "-m", "a=0 b=2",
                          "--trace", str(tr), files={"n.xpn": CHAIN})
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("FOUND steps=2 expanded=")
    assert lines[1] == "a=0 b=2"
    assert parse_trace(tr.read_text()) == ("t", "t")


@pytest.mark.parametrize("c", [0, 100])
def test_a_trace_names_the_first_transition_of_a_step(run, tmp_path, c):
    # z and y fire (c=0 a=1 b=0) to the same marking: the trace names z,
    # declared first, before and after c's countdown takes the search past
    # the steps after which it runs generated code
    net = (f"places: c a b\nmarking: c={c} a=1\ntrans d: in c ;\n"
           "trans z: in a, inh c ; out b\n"
           "trans y: in a, inh c, reset b ; out b\n")
    tr = tmp_path / "wit.trace"
    code, out, _, _ = run("explore", "reach", "n.xpn", "-m", "b=1",
                          "--trace", str(tr), files={"n.xpn": net})
    assert (code, out) == (
        0, f"FOUND steps={c + 1} expanded={c + 2}\nc=0 a=0 b=1\n")
    assert parse_trace(tr.read_text()) == ("d",) * c + ("z",)


def test_explore_reach_exhausted(run):
    code, out, _, _ = run("explore", "reach", "n.xpn", "-m", "a=2 b=1",
                          files={"n.xpn": CHAIN})
    assert code == 0 and out.startswith("EXHAUSTED expanded=")


def test_explore_out_of_budget(run):
    grow = "places: a\ntrans t: ; out a\n"
    code, out, _, _ = run("explore", "reach", "n.xpn", "-m", "a=1000000",
                          "--max-steps", "10", files={"n.xpn": grow})
    assert code == 1 and out.startswith("OUT_OF_BUDGET expanded=")


def test_explore_cover_and_deadlock(run):
    code, out, _, _ = run("explore", "cover", "n.xpn", "-m", "b=1",
                          files={"n.xpn": CHAIN})
    assert code == 0 and out.startswith("FOUND steps=1")
    code, out, _, _ = run("explore", "deadlock", "n.xpn",
                          files={"n.xpn": CHAIN})
    assert code == 0
    assert out.splitlines()[1] == "a=0 b=2"


def test_explore_needs_marking(run):
    code, _, err, _ = run("explore", "reach", "n.xpn", files={"n.xpn": CHAIN})
    assert code == 2 and "needs a target marking" in err


def test_explore_backward_cover(run):
    code, out, _, _ = run("explore", "backward-cover", "n.xpn", "-m", "b=2",
                          files={"n.xpn": CHAIN})
    assert code == 0
    assert out.splitlines() == ["COVERABLE", "a=0 b=2", "a=1 b=1", "a=2 b=0"]
    code, out, _, _ = run("explore", "backward-cover", "n.xpn", "-m", "b=3",
                          files={"n.xpn": CHAIN})
    assert code == 0 and out.splitlines()[0] == "UNCOVERABLE"


def test_explore_backward_cover_rejects_inhibitors(run):
    net = "places: a b\ntrans t: inh a ; out b\n"
    got = run("explore", "backward-cover", "n.xpn", "-m", "b=1",
              files={"n.xpn": net})
    assert got[:3] == (
        2, "", "error: backward_cover does not support inhibitor arcs\n")


def test_explore_refuses_an_option_its_mode_ignores(run, tmp_path):
    # deadlock has no target and backward-cover no witness trace; each is
    # refused before the net is read, so nothing else is reported
    tr = tmp_path / "t.txt"
    for argv, err in [
            (("deadlock", "n.xpn", "-m", "b=1"),
             "deadlock takes no target marking (-m)\n"),
            (("deadlock", "missing.xpn", "-m", ""),
             "deadlock takes no target marking (-m)\n"),
            (("backward-cover", "n.xpn", "-m", "b=1", "--trace", str(tr)),
             "backward-cover takes no --trace\n"),
            (("backward-cover", "n.xpn", "--trace", ""),
             "backward-cover takes no --trace\n")]:
        got = run("explore", *argv, files={"n.xpn": CHAIN})
        assert got[:3] == (2, "", err), argv
    assert not tr.exists()
    # the options each mode takes still work
    assert run("explore", "deadlock", "n.xpn", "--trace", str(tr),
               files={"n.xpn": CHAIN})[0] == 0
    assert tr.read_text() == "t\nt\n"


# ---------------------------------------------------------------------------
# terminate

def test_terminate_terminating(run):
    code, out, _, _ = run("terminate", "n.xpn", files={"n.xpn": CHAIN})
    assert code == 0 and out == "TERMINATING tree_size=3\n"


def test_terminate_nonterminating_writes_certificates(run, tmp_path):
    stem, pump, dot = (tmp_path / x for x in ("s.trace", "p.trace", "t.dot"))
    code, out, _, _ = run("terminate", "n.xpn",
                          "--stem", str(stem), "--pump", str(pump),
                          "--dot", str(dot), files={"n.xpn": LOOP})
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "NONTERMINATING"
    assert lines[1] == "stem:"  # empty, the loop starts at the root
    assert lines[2] == "pump: t"
    assert parse_trace(stem.read_text()) == ()
    assert parse_trace(pump.read_text()) == ("t",)
    assert dot.read_text().startswith("digraph")


def test_terminate_out_of_budget(run):
    net = "places: a b\nmarking: a=10\ntrans t: in a ; out b\n"
    code, out, _, _ = run("terminate", "n.xpn", "--max-nodes", "5",
                          files={"n.xpn": net})
    assert code == 1 and out.startswith("OUT_OF_BUDGET")


COUNTDOWN_4X3 = ("places: p0 p1 p2 p3\nmarking: p0=3 p1=3 p2=3 p3=3\n"
                 + "".join(f"trans t{i}: in p{i} ;\n" for i in range(4)))


@pytest.mark.parametrize("budget, code, out", [
    ("15000", 1, "OUT_OF_BUDGET tree exceeded 15000 nodes\n"),
    ("1107697", 0, "TERMINATING tree_size=1107697\n"),
    ("1107696", 1, "OUT_OF_BUDGET tree exceeded 1107696 nodes\n"),
])
def test_terminate_budget_counts_paper_tree_nodes(run, budget, code, out):
    # countdown (4,3): 256 markings, a tree of 1,107,697 run prefixes
    got = run("terminate", "n.xpn", "--max-nodes", budget,
              files={"n.xpn": COUNTDOWN_4X3})
    assert got[:3] == (code, out, "")


def test_terminate_dot_and_full_tree_build_the_paper_tree(run, monkeypatch,
                                                         tmp_path):
    calls = []
    real = cli.build_ert

    def spy(net, **kw):
        calls.append(kw)
        return real(net, **kw)

    monkeypatch.setattr(cli, "build_ert", spy)
    files = {"n.xpn": COUNTDOWN_4X3}
    run("terminate", "n.xpn", "--max-nodes", "15000", files=files)
    assert calls == []  # the verdict path builds no tree
    code, out, _, _ = run("terminate", "n.xpn", "--max-nodes", "15000",
                          "--full-tree", files=files)
    assert code == 1 and out == "OUT_OF_BUDGET tree exceeded 15000 nodes\n"
    assert calls.pop() == {"max_nodes": 15000, "stop_early": False}
    dot = tmp_path / "t.dot"
    code, out, _, _ = run("terminate", "n.xpn", "--max-nodes", "15000",
                          "--dot", str(dot), files=files)
    assert code == 1 and not dot.exists()
    assert calls.pop() == {"max_nodes": 15000, "stop_early": True}

    # with room to finish, the DOT file holds every node of the tree
    small = "places: a b\nmarking: a=2 b=2\ntrans s: in a ;\ntrans t: in b ;\n"
    code, out, _, _ = run("terminate", "n.xpn", "--dot", str(dot),
                          files={"n.xpn": small})
    assert (code, out) == (0, "TERMINATING tree_size=19\n")
    assert calls.pop() == {"max_nodes": 1_000_000, "stop_early": True}
    want = ert_dot(parse_net(small), build_ert(parse_net(small),
                                               stop_early=True))
    assert dot.read_text() == want and want.count(" [label=\"") == 19 + 18


@pytest.mark.parametrize("argv, out", [
    (("terminate", "n.xpn", "--max-nodes", "0"),
     "OUT_OF_BUDGET tree exceeded 0 nodes\n"),
    (("terminate", "n.xpn", "--max-nodes", "-1"),
     "OUT_OF_BUDGET tree exceeded -1 nodes\n"),
    (("explore", "deadlock", "n.xpn", "--max-steps", "0"),
     "OUT_OF_BUDGET expanded=0\n"),
    (("explore", "deadlock", "n.xpn", "--max-steps", "-5"),
     "OUT_OF_BUDGET expanded=0\n"),
    # one step short of the run to b=2
    (("explore", "reach", "n.xpn", "-m", "b=2", "--max-steps", "1"),
     "OUT_OF_BUDGET expanded=1\n"),
    (("transform", "dlf-to-reach", "n.xpn", "--clause-cap", "0"),
     "OUT_OF_BUDGET more than 0 deadlock clauses\n"),
    (("transform", "dlf-to-reach", "n.xpn", "--clause-cap", "-1"),
     "OUT_OF_BUDGET more than -1 deadlock clauses\n"),
    (("explore", "backward-cover", "n.xpn", "-m", "b=1", "--max-steps", "0"),
     "OUT_OF_BUDGET backward search exceeded 0 candidate predecessors\n"),
    (("explore", "backward-cover", "n.xpn", "-m", "b=1", "--max-steps", "-1"),
     "OUT_OF_BUDGET backward search exceeded -1 candidate predecessors\n"),
    # the ERT root is the first node the budget counts, even when it is
    # the whole tree
    (("terminate", "dead.xpn", "--max-nodes", "0"),
     "OUT_OF_BUDGET tree exceeded 0 nodes\n"),
    (("terminate", "dead.xpn", "--max-nodes", "-1"),
     "OUT_OF_BUDGET tree exceeded -1 nodes\n"),
    (("terminate", "dead.xpn", "--max-nodes", "0", "--dot", "dead.dot"),
     "OUT_OF_BUDGET tree exceeded 0 nodes\n"),
])
def test_zero_and_negative_budgets_run_out(run, argv, out, tmp_path,
                                           monkeypatch):
    monkeypatch.chdir(tmp_path)  # where --dot would write
    files = {"n.xpn": CHAIN, "dead.xpn": DEAD}
    assert run(*argv, files=files)[:3] == (1, out, "")
    assert not (tmp_path / "dead.dot").exists()


DEAD = "places: a\n"  # the initial marking is a deadlock


@pytest.mark.parametrize("argv, net", [
    # no candidate predecessor is needed: the target is its own basis
    (("explore", "backward-cover", "n.xpn", "-m", "a=1", "--max-steps", "-1"),
     DEAD),
    # a net with no deadlock clause
    (("transform", "dlf-to-reach", "n.xpn", "--clause-cap", "-1"),
     "places: a\ntrans t: ; out a\n"),
])
def test_budgets_below_one_pass_where_no_unit_is_counted(run, argv, net):
    want = run(*argv[:-2], files={"n.xpn": net})[:3]  # default budget
    assert want[0] == 0 and want[2] == ""
    assert run(*argv, files={"n.xpn": net})[:3] == want


# the 3-place transfer chain: x1 can meet a demand on p2 in demand + 1 ways
CHAIN3 = ("places: p0 p1 p2\nmarking: p0=1\n"
          "trans a0: in p0 ; out p1*2\ntrans x0: xfer p0->p1 ;\n"
          "trans a1: in p1 ; out p2*2\ntrans x1: xfer p1->p2, in p0 ;\n")
E18 = 10**18


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def run_capped(*argv):
    """(exit code, stdout, stderr) of `xpn argv` in a child capped at 1 GiB
    and 20 s, so that a blow-up fails there instead of exhausting the
    host's memory."""
    src = str(Path(cli.__file__).parents[1])
    got = subprocess.run(
        [sys.executable, "-m", "xpn.cli", *argv], capture_output=True,
        text=True, timeout=20, preexec_fn=_limit_memory,
        env=dict(os.environ, PYTHONPATH=src))
    return got.returncode, got.stdout, got.stderr


@pytest.mark.parametrize("argv, out", [
    ((f"p2={E18}",),
     "OUT_OF_BUDGET backward search exceeded 1000000 candidate predecessors\n"),
    (("p2=5000", "--max-steps", "10"),
     "OUT_OF_BUDGET backward search exceeded 10 candidate predecessors\n"),
])
def test_backward_cover_runs_out_on_huge_demands(tmp_path, argv, out):
    # building the candidates of a 10**18 demand must fail in the child
    net = tmp_path / "n.xpn"
    net.write_text(CHAIN3)
    t0 = time.monotonic()
    got = run_capped("explore", "backward-cover", str(net), "-m", *argv)
    assert got == (1, out, "")
    assert time.monotonic() - t0 < 5


def test_dlf_to_reach_runs_out_on_huge_weights(tmp_path):
    # one deadlock clause per token count below the weight: the clause cap
    # must stop them before they are listed
    net = tmp_path / "n.xpn"
    net.write_text("places: a\ntrans t: in a*100000000 ;\n")
    assert run_capped("transform", "dlf-to-reach", str(net)) == (
        1, "OUT_OF_BUDGET more than 10000 deadlock clauses\n", "")
    # t1 has one option that agrees with t0's exact 0 on p1: the others are
    # skipped, not rejected one at a time, so one clause comes out at once
    net.write_text("places: p0 p1\nmarking: p0=2\n"
                   "trans t0: in p1*1 ; out p1*2\n"
                   "trans t1: in p1*1999999999999 ; out p1*2\n")
    t0 = time.monotonic()
    code, out, err = run_capped("transform", "dlf-to-reach", str(net),
                                "--clause-cap", "5")
    assert (code, err, out.count("trans c0_check:")) == (0, "", 1)
    assert "c1_" not in out and time.monotonic() - t0 < 5


@pytest.mark.parametrize("text, code, clauses", [
    # every exact value of p at or above 1 is rejected by t1 alike: the
    # first one's subtree completes nothing, so the rest are skipped
    ("places: p\ntrans t0: in p*1000000000000 ;\ntrans t1: in p*1 ;\n",
     0, 1),
    # each value of p completes two clauses, whatever the value: the cap's
    # error comes at once
    ("places: p q\ntrans t0: in p*1000000000000 ;\ntrans t1: in q*2 ;\n",
     1, 0),
    # t1's arc on p tells no value from 2 up to its weight apart, and t2's
    # weight 2 only those below 2 from those above
    ("places: p\ntrans t0: in p*1000000000000 ;\n"
     "trans t1: in p*1000000000000 ;\ntrans t2: in p*2 ;\n", 0, 2),
    # p's values are picked over t0's "at least one"
    ("places: p q\ntrans t0: inh p ;\ntrans t1: in p*1000000000000 ;\n"
     "trans t2: in p*2, in q ;\ntrans t3: inh q ;\n", 0, 1),
    # p0 = 1's subtree skips a state it completed itself; each p1 from 1
    # on completes a clause, so the cap's error comes at once
    ("places: p0 p1\ntrans t0: in p0*2147483648, in p1*10000000000000 ;\n"
     "trans t1: inh p1 ;\ntrans t2: in p0*10000000000000, inh p1 ;\n"
     "trans t3: in p0 ;\n", 1, 0),
])
def test_dlf_to_reach_skips_alike_values_of_a_huge_weight(tmp_path, text,
                                                          code, clauses):
    # `code` and `clauses` are the answer at --clause-cap 5: the same at
    # the default cap, and a run-out at a cap below the clause count
    net = tmp_path / "n.xpn"
    net.write_text(text)
    for cap in ("1", "5", None):
        t0 = time.perf_counter()
        got, out, err = run_capped("transform", "dlf-to-reach", str(net),
                                   *(("--clause-cap", cap) if cap else ()))
        assert time.perf_counter() - t0 < 1
        if code or clauses > int(cap or 10_000):
            assert (got, out, err) == (1, f"OUT_OF_BUDGET more than "
                                          f"{cap or 10_000} deadlock "
                                          "clauses\n", "")
        else:
            assert (got, err, out.count("_check:")) == (0, "", clauses)


N4 = 10**4
# a 10**4-way transfer fan-in into one place, beside a countdown c: t
# fires at every marking and d while c lasts.  A marking is 10**4 fields
# of 32 bits, so t moves its 10**4 transfers from one unpack of the
# marking
FAN_IN = (f"places: c {' '.join(f'p{i}' for i in range(N4 + 1))}\n"
          f"marking: c=100 {' '.join(f'p{i}=1' for i in range(N4))}\n"
          "trans d: in c ;\n"
          f"trans t: {', '.join(f'xfer p{i}->p{N4}' for i in range(N4))} ;\n")
# a token walking a line of 10**4 places; its 10**4 reachable markings of
# 10**4 entries each would not fit the child's cap, so the search is
# budgeted.  A marking is 2,501 words of 32 bits, so the table of its
# 9,999 transitions is indexed by place
LINE = (f"places: {' '.join(f'p{i}' for i in range(N4))}\nmarking: p0=1\n"
        + "".join(f"trans t{i}: in p{i} ; out p{i + 1}\n"
                  for i in range(N4 - 1)))


@pytest.mark.parametrize("net, argv, want", [
    (FAN_IN, (), (0, "EXHAUSTED expanded=202\n", "")),
    (LINE, ("--max-steps", "600"), (1, "OUT_OF_BUDGET expanded=600\n", "")),
], ids=["fan-in", "line"])
def test_generated_successors_scale_to_ten_thousand_places(tmp_path, net,
                                                          argv, want):
    path = tmp_path / "n.xpn"
    path.write_text(net)
    assert run_capped("explore", "deadlock", str(path), *argv) == want


def test_explore_has_no_max_depth(run, capsys):
    # every explore mode has one budget, --max-steps
    for mode in ("reach", "cover", "deadlock", "backward-cover"):
        with pytest.raises(SystemExit) as exc:
            run("explore", mode, "n.xpn", "-m", "p2=1", "--max-depth", "1",
                files={"n.xpn": CHAIN3})
        assert exc.value.code == 2
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err.endswith(
            "xpn: error: unrecognized arguments: --max-depth 1\n")


# a countdown from 2 * 10**18 tokens: t moves a token from b to a, s
# removes one from a
BIG = (f"places: a b\nmarking: a={E18} b={E18}\n"
       "trans s: in a ;\ntrans t: in b ; out a\n")


def test_fire_keeps_huge_counts_exact(run):
    got = run("fire", "n.xpn", "t", "s", "t", files={"n.xpn": BIG})
    assert got[:3] == (0, f"a={E18 + 1} b={E18 - 2}\n", "")


LIMIT = sys.get_int_max_str_digits()
HUGE = "9" * (LIMIT + 1)
no_digit_limit = pytest.mark.skipif(
    not LIMIT, reason="int/str conversion has no digit limit here")


@no_digit_limit
@pytest.mark.parametrize("verb", [("validate",), ("explore", "deadlock"),
                                  ("terminate",)])
@pytest.mark.parametrize("text, at", [
    (f"places: a b\nmarking: a={HUGE}\n", "2:12"),
    (f"places: a b\ntrans t: in a*{HUGE} ; out b\n", "2:15"),
    (f"places: a b\ntrans t: in a ; out b*{HUGE}\n", "2:23"),
], ids=["marking", "pre-weight", "post-weight"])
def test_counts_past_the_digit_limit_are_parse_errors(run, verb, text, at):
    code, out, err, paths = run(*verb, "n.xpn", files={"n.xpn": text})
    assert (code, out, err) == (
        2, "", f"{paths['n.xpn']}:{at}: error: number longer than {LIMIT} "
        "digits\n")


@no_digit_limit
def test_marking_literal_past_the_digit_limit_is_a_usage_error(run):
    got = run("explore", "reach", "n.xpn", "-m", f"a={HUGE}",
              files={"n.xpn": CHAIN})
    assert got[:3] == (
        2, "", f"marking literal: col 3: number longer than {LIMIT} digits\n")


# each firing of t posts 10 ** (LIMIT - 1), a count of LIMIT digits, so
# from the tenth firing on b holds one that cannot be written
POSTS_HUGE = (f"places: a b\nmarking: a=11\n"
              f"trans t: in a ; out b*{10 ** (LIMIT - 1)}\n")


@no_digit_limit
@pytest.mark.parametrize("argv", [
    ("fire", "n.xpn", *["t"] * 11),
    ("explore", "deadlock", "n.xpn"),
    ("explore", "deadlock", "n.xpn", "--trace", "t.tr"),
])
def test_an_unwritable_answer_is_an_error_before_any_output(
        run, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    got = run(*argv, files={"n.xpn": POSTS_HUGE})
    assert got[:3] == (
        2, "", f"error: cannot write a count of more than {LIMIT} digits\n")
    assert not (tmp_path / "t.tr").exists()
    # nine firings still write
    assert run("fire", "n.xpn", *["t"] * 9)[:3] == (
        0, f"a=2 b={9 * 10 ** (LIMIT - 1)}\n", "")


@pytest.mark.parametrize("argv, out", [
    (("explore", "cover", "n.xpn", "-m", f"b={E18 + 1}", "--max-steps",
      "1000"), "OUT_OF_BUDGET expanded=1000\n"),
    (("terminate", "n.xpn", "--max-nodes", "1000"),
     "OUT_OF_BUDGET tree exceeded 1000 nodes\n"),
])
def test_huge_countdowns_run_out(run, argv, out):
    assert run(*argv, files={"n.xpn": BIG})[:3] == (1, out, "")


def test_terminate_rejects_ineligible_net(run):
    net = "places: a b\nmarking: a=1\ntrans t: in a, inh b ;\n"
    code, _, err, _ = run("terminate", "n.xpn", files={"n.xpn": net})
    assert code == 2 and err.startswith("error:")


def wide_net(inhibitor: bool, n: int = 10**4) -> str:
    """n transitions over three places; with `inhibitor` the first one
    carries an inhibitor arc on the least place, so the net stays
    eligible for the termination decider."""
    lines = ["places: a b c", "marking: b=2"]
    if inhibitor:
        lines.append("trans u: inh a, in b ; out a")
    lines += [f"trans t{i}: in b*{1 + i % 2}, reset c ; out c*{1 + i % 7}"
              for i in range(n - inhibitor)]
    return "\n".join(lines) + "\n"


def test_every_verb_handles_ten_thousand_transitions(run):
    files = {"n.xpn": wide_net(True), "plain.xpn": wide_net(False)}
    t0 = time.monotonic()
    for argv in [("validate", "n.xpn"), ("classify", "n.xpn"),
                 ("fire", "n.xpn", "u", "t0"),
                 ("explore", "cover", "n.xpn", "-m", "c=7"),
                 ("explore", "deadlock", "n.xpn"),
                 ("terminate", "n.xpn"),
                 ("explore", "backward-cover", "plain.xpn", "-m", "c=7"),
                 ("transform", "dlf-to-reach", "n.xpn"),
                 ("transform", "reach-to-dlf", "n.xpn", "-m", "c=3"),
                 ("export-dot", "n.xpn")]:
        code, _, err, _ = run(*argv, files=files)
        assert code in (0, 1, 2) and "internal error" not in err, argv
    assert time.monotonic() - t0 < 60


# ---------------------------------------------------------------------------
# transform

@pytest.mark.parametrize("op", list(cli.TRANSFORM_OPS))
def test_transform_op_table_dispatch(run, monkeypatch, op):
    fn = op.replace("-", "_")

    def fake(net, *args, **kwargs):
        raise transforms.TransformError(f"{fn} called")

    monkeypatch.setattr(transforms, fn, fake)
    code, _, err, _ = run("transform", op, "n.xpn", "-m", "b=1",
                          files={"n.xpn": CHAIN})
    assert code == 2 and err == f"{op}: {fn} called\n"


def test_transform_usage_lists_ops_in_order(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["transform", "bogus", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    ops = ("hir-elim", "hirct-elim", "hir-elim-all", "dlf-to-reach",
           "reach-to-dlf", "two-inh-to-reset", "transfer-hierarchize")
    assert "{" + ",".join(ops) + "}" in err
    # argparse quotes the choices in 3.13.0 and before, not in 3.13.13
    assert any(err.endswith(
        "xpn transform: error: argument op: invalid choice: 'bogus' (choose "
        f"from {', '.join(q + op + q for op in ops)})\n") for q in ("'", ""))


def test_transform_stdout_carries_header_and_map(run):
    code, out, _, _ = run("transform", "hir-elim", "n.xpn",
                          files={"n.xpn": HIR})
    assert code == 0
    assert out.startswith("# xpn transform hir-elim\n# query: ")
    assert "# forward:\n# a <- a\n# b <- b\n# t_busy <- 0\n# lock <- 1\n" in out
    assert "trans t_finish: in t_busy*1, inh b ; out b*1, lock*1" in out


def test_transform_output_with_map_sidecar(run, tmp_path):
    outfile = tmp_path / "out.xpn"
    code, out, _, _ = run("transform", "hir-elim", "n.xpn",
                          "-o", str(outfile), files={"n.xpn": HIR})
    assert code == 0
    assert out == f"wrote {outfile} and {outfile}.map\n"
    reparsed = parse_net(outfile.read_text())
    assert reparsed.places == ("a", "b", "t_busy", "lock")
    mapping = (tmp_path / "out.xpn.map").read_text().splitlines()
    assert mapping[0] == "forward:"
    assert mapping[1:5] == ["a <- a", "b <- b", "t_busy <- 0", "lock <- 1"]


def test_transform_dlf_to_reach_on_a_long_line(run):
    # one deadlock clause whatever the length, found by a search that goes
    # one level deeper per transition
    n = 1200
    net = (f"places: {' '.join(f'p{i}' for i in range(n + 1))}\n"
           "marking: p0=1\n"
           + "".join(f"trans t{i}: in p{i} ; out p{i + 1}\n" for i in range(n)))
    code, out, err, _ = run("transform", "dlf-to-reach", "n.xpn",
                            files={"n.xpn": net})
    assert code == 0 and err == ""
    result = parse_net(out)
    assert len(result.places) == n + 4
    assert len(result.transitions) == n + 3


def test_transform_reach_to_dlf_needs_marking(run):
    code, _, err, _ = run("transform", "reach-to-dlf", "n.xpn",
                          files={"n.xpn": CHAIN})
    assert code == 2 and "needs a target marking" in err


def test_transform_goal_line(run):
    code, out, _, _ = run("transform", "dlf-to-reach", "n.xpn",
                          files={"n.xpn": CHAIN})
    assert code == 0 and "# goal: goal=1\n" in out


def test_transform_precondition_failure(run):
    code, _, err, _ = run("transform", "two-inh-to-reset", "n.xpn",
                          files={"n.xpn": CHAIN})
    assert code == 2 and err.startswith("two-inh-to-reset:")


# ---------------------------------------------------------------------------
# compile

MACHINE = "q0: INC 1 -> q1\nq1: JZDEC 1 -> qh / q1\nqh: HALT\n"
SPIN = "q0: JZDEC 1 -> q0 / q0\nqh: HALT\n"


def test_compile_minsky_stdout_is_a_net(run):
    code, out, _, _ = run("compile", "minsky", "m.txt",
                          files={"m.txt": MACHINE})
    assert code == 0
    assert out.startswith("# xpn compile minsky\n# cover: accept=1\n")
    net = parse_net(out)
    assert bounded_cover(net, tuple(
        1 if p == "accept" else 0 for p in net.places)).found


def test_compile_minsky_nonhalting_not_coverable(run):
    code, out, _, _ = run("compile", "minsky", "m.txt", files={"m.txt": SPIN})
    assert code == 0
    net = parse_net(out)
    res = bounded_cover(net, tuple(  # raises if it runs out
        1 if p == "accept" else 0 for p in net.places))
    assert not res.found


def test_compile_minsky_transfer_flag(run, tmp_path):
    outfile = tmp_path / "m.xpn"
    code, out, _, _ = run("compile", "minsky", "m.txt", "--transfer",
                          "-o", str(outfile), files={"m.txt": MACHINE})
    assert code == 0 and out == ""
    text = outfile.read_text()
    assert text.startswith("# xpn compile minsky --transfer\n")
    assert "transfer" in text


def test_compile_machine_parse_error(run):
    code, _, err, paths = run("compile", "minsky", "m.txt",
                              files={"m.txt": "q0: WAT\n"})
    assert code == 2 and err.startswith(f"{paths['m.txt']}:1:")


def test_compile_positivity_census_header(run):
    src = "3\n1 -4 7\n2 -5 -8\n-3 -6 9\n1 1 1\n"
    code, out, _, _ = run("compile", "positivity", "p.txt",
                          files={"p.txt": src})
    assert code == 0
    assert "# census: places=17 transitions=13\n" in out
    net = parse_net(out)
    assert len(net.places) == 17 and len(net.transitions) == 13


def test_compile_positivity_rejects_negative_start(run):
    code, _, err, _ = run("compile", "positivity", "p.txt",
                          files={"p.txt": "1\n2\n-1\n"})
    assert code == 2 and "nonnegative" in err


# ---------------------------------------------------------------------------
# export-dot

def test_export_dot_deterministic(run):
    code, first, _, _ = run("export-dot", "n.xpn", files={"n.xpn": CHAIN})
    assert code == 0
    assert first.startswith("digraph")
    assert 'label="t"' in first and 'label="a\\n2"' in first
    code, second, _, _ = run("export-dot", "n.xpn", files={"n.xpn": CHAIN})
    assert first == second


def test_export_dot_highlight(run, tmp_path):
    outfile = tmp_path / "n.dot"
    code, out, _, _ = run("export-dot", "n.xpn", "-o", str(outfile),
                          "--highlight", "t", files={"n.xpn": CHAIN})
    assert code == 0 and out == ""
    plain_code, plain, _, _ = run("export-dot", "n.xpn",
                                  files={"n.xpn": CHAIN})
    assert plain_code == 0
    assert outfile.read_text() != plain


def test_missing_file_is_exit_two(run):
    code, _, err, _ = run("validate", "/nonexistent/net.xpn")
    assert code == 2 and err != ""


@pytest.mark.parametrize("path, why", [
    ("", "No such file or directory"), ("n.xpn/", "Not a directory")])
def test_a_path_is_opened_as_given(tmp_path, monkeypatch, capsys, path, why):
    # no normalising: "" is not ".", and a trailing slash names a directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "n.xpn").write_text(CHAIN)
    assert cli.main(["validate", path]) == 2
    assert capsys.readouterr().err == f"{path}: {why}\n"


@pytest.mark.parametrize("argv, net", [
    (("terminate", "n.xpn", "--dot"), LOOP),
    (("terminate", "n.xpn", "--stem"), LOOP),
    (("terminate", "n.xpn", "--pump"), LOOP),
    (("explore", "reach", "n.xpn", "-m", "b=2", "--trace"), CHAIN),
    (("export-dot", "n.xpn", "-o"), CHAIN),
    (("transform", "hir-elim", "n.xpn", "-o"), HIR),
    (("compile", "minsky", "n.xpn", "-o"), MACHINE),
], ids=["terminate-dot", "terminate-stem", "terminate-pump", "explore-trace",
        "export-dot-o", "transform-o", "compile-o"])
def test_unwritable_output_is_a_usage_error(run, tmp_path, argv, net):
    # every file is written before anything goes to stdout
    bad = str(tmp_path / "missing" / "out")
    code, out, err, _ = run(*argv, bad, files={"n.xpn": net})
    assert (code, out, err) == (2, "", f"{bad}: No such file or directory\n")


def test_internal_error_is_exit_two(run, monkeypatch):
    def boom(net, target, max_steps):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "backward_cover", boom)
    code, out, err, _ = run("explore", "backward-cover", "n.xpn", "-m", "b=1",
                            files={"n.xpn": CHAIN})
    assert code == 2 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_unverified_pump_is_an_internal_error(run, monkeypatch):
    monkeypatch.setattr(xpn_ert, "_pumped", lambda net, stem, pump: None)
    code, out, err, _ = run("terminate", "n.xpn", files={"n.xpn": LOOP})
    assert code == 2 and out == ""
    assert err.startswith("internal error: AssertionError:")


def test_unverified_pump_writes_no_file(run, monkeypatch, tmp_path):
    # the certificate is checked before --dot, --stem or --pump writes
    monkeypatch.setattr(xpn_ert, "_pumped", lambda net, stem, pump: None)
    outs = [tmp_path / x for x in ("t.dot", "s.trace", "p.trace")]
    code, out, err, _ = run("terminate", "n.xpn", "--dot", str(outs[0]),
                            "--stem", str(outs[1]), "--pump", str(outs[2]),
                            files={"n.xpn": LOOP})
    assert code == 2 and out == ""
    assert err.startswith("internal error: AssertionError:")
    assert not any(p.exists() for p in outs)


def test_terminate_fires_the_stem_once_and_the_pump_twice(run, monkeypatch):
    # the interpreted rule fires a certificate only to check it: the stem
    # s once, then the pump t twice
    fired = []
    apply = xpn_net._apply

    def counted(*args):
        fired.append(args)
        return apply(*args)

    monkeypatch.setattr(xpn_net, "_apply", counted)
    net = ("places: a b\nmarking: a=1\n"
           "trans s: in a ; out b\ntrans t: in b ; out b\n")
    code, out, _, _ = run("terminate", "n.xpn", files={"n.xpn": net})
    assert (code, out) == (0, "NONTERMINATING\nstem: s\npump: t\n")
    assert len(fired) == 3


@pytest.mark.parametrize("text, err", [
    ("places: a\ntrans t: in a ; out b\n",
     "n.xpn: error: unknown-place: post-arc 'b' of 't': no such place"),
    ("places: a\nmarking: a=1\nmarking: a=2\n",
     "n.xpn:3:10: error: duplicate marking line"),
    ("trans t: ;\n", "n.xpn:1:7: error: transition line before places line"),
    ("places: a\ntrans t:\n",
     "n.xpn:2:9: error: expected ';' between pre and post arcs"),
    ("places: a\ntrans t: foo a ;\n", "n.xpn:2:14: error: unknown arc keyword 'foo'"),
    ("places: a\ntrans t: in a ; out a x\n",
     "n.xpn:2:23: error: trailing text after transition"),
    ("places: a 1b\n", "n.xpn:1:11: error: expected a place name"),
])
def test_unreadable_net_is_exit_two(tmp_path, monkeypatch, capsys, text, err):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "n.xpn").write_text(text)
    assert cli.main(["classify", "n.xpn"]) == 2
    cap = capsys.readouterr()
    assert (cap.out, cap.err) == ("", err + "\n")


@pytest.mark.parametrize("argv", [
    ("validate", "bad"), ("classify", "bad"), ("fire", "bad", "t"),
    ("explore", "deadlock", "bad"), ("terminate", "bad"),
    ("transform", "hir-elim", "bad"), ("export-dot", "bad"),
    ("fire", "n.xpn", "--trace-file", "bad"), ("compile", "minsky", "bad"),
    ("compile", "positivity", "bad")], ids=" ".join)
def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, monkeypatch,
                                                    capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "n.xpn").write_text(CHAIN)
    (tmp_path / "bad").write_bytes(b"places: a\xff b\n")
    assert cli.main(list(argv)) == 2
    cap = capsys.readouterr()
    assert (cap.out, cap.err) == ("", "bad: error: not UTF-8 text at byte 9\n")


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_ends_and_utf8_comments_read_as_before(run, end):
    # every reader splits lines itself, so a file is read without newline
    # translation; a comment may hold any UTF-8 text
    net = "places: a b  # café ∎\nmarking: a=2\ntrans t: in a ; out b\n"
    for argv in [("classify", "n.xpn"), ("terminate", "n.xpn"),
                 ("fire", "n.xpn", "--trace-file", "tr")]:
        want = run(*argv, files={"n.xpn": net, "tr": "t\nt\n"})[:3]
        assert want[0] == 0
        assert run(*argv, files={"n.xpn": net.replace("\n", end),
                                 "tr": f"t{end}t{end}"})[:3] == want


@pytest.fixture
def parsed(monkeypatch):
    """The nets `cli` reads from files, in the order it reads them."""
    nets = []
    real = cli.parse_net

    def parsing(text):
        nets.append(real(text))
        return nets[-1]

    monkeypatch.setattr(cli, "parse_net", parsing)
    return nets


# two reset-bearing transitions, so hir-elim-all builds an intermediate net
TWO_RESETS = ("places: a b c\nmarking: a=2 b=1\n"
              "trans t: in a, reset b ; out b\ntrans u: in b, reset c ; out c\n")


@pytest.mark.parametrize("argv", [
    ("terminate", "n.xpn"),
    ("classify", "n.xpn"),
    ("explore", "deadlock", "n.xpn"),
    ("explore", "backward-cover", "n.xpn", "-m", "c=1"),
    ("transform", "hir-elim", "n.xpn"),
    ("transform", "hir-elim-all", "n.xpn"),
    ("transform", "dlf-to-reach", "n.xpn"),
    ("fire", "n.xpn", "t", "u"),
    ("export-dot", "n.xpn"),
])
def test_each_query_validates_the_net_once(run, monkeypatch, parsed, argv):
    """At most once, and never the net read from the file: a clean parsed
    net compiles its plan from its records without `validate`."""
    calls = []
    real = xpn_net.validate

    def counting(net):
        calls.append(net)
        return real(net)

    monkeypatch.setattr(xpn_net, "validate", counting)
    monkeypatch.setattr(cli, "validate", counting)
    code, _, err, _ = run(*argv, files={"n.xpn": TWO_RESETS})
    assert (code, err) == (0, "")
    assert len(parsed) == 1
    assert len(calls) <= 1
    assert not any(net is parsed[0] for net in calls)


@pytest.mark.parametrize("argv", [
    ("terminate", "n.xpn"),
    ("classify", "n.xpn"),
    ("explore", "reach", "n.xpn", "-m", "a=1 c=1"),
    ("explore", "cover", "n.xpn", "-m", "c=1"),
    ("explore", "deadlock", "n.xpn"),
    ("explore", "backward-cover", "n.xpn", "-m", "c=1"),
    ("fire", "n.xpn", "t", "u"),
])
def test_engines_build_no_transitions(run, parsed, argv):
    """The engines read a parsed net through its plan alone, so its
    `Transition` objects are never built."""
    code, _, err, _ = run(*argv, files={"n.xpn": TWO_RESETS})
    assert (code, err) == (0, "")
    assert [net._ops is not None for net in parsed] == [True]
    assert "transitions" not in vars(parsed[0])


# ---------------------------------------------------------------------------
# one parser per process

def test_main_builds_its_parser_once(run, monkeypatch):
    made = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    for argv in [("classify", "n.xpn"), ("terminate", "n.xpn"),
                 ("explore", "deadlock", "n.xpn"), ("classify", "n.xpn")]:
        assert run(*argv, files={"n.xpn": CHAIN})[0] == 0
    # one top-level parser and its one subparser per verb
    assert made.count("xpn") == 1
    assert len(made) == 1 + 8


@pytest.mark.parametrize("calls", [
    [(("terminate", "n.xpn", "--max-nodes", "1"),
      (1, "OUT_OF_BUDGET tree exceeded 1 nodes\n")),
     (("terminate", "n.xpn"), (0, "NONTERMINATING\nstem:\npump: t\n"))],
    [(("explore", "reach", "n.xpn", "-m", "a=1", "--trace", "f.tr"),
      (0, "FOUND steps=0 expanded=1\na=1\n")),
     (("explore", "reach", "n.xpn", "-m", "a=1"),
      (0, "FOUND steps=0 expanded=1\na=1\n"))],
    [(("transform", "dlf-to-reach", "n.xpn", "--clause-cap", "0"),
      (1, "OUT_OF_BUDGET more than 0 deadlock clauses\n")),
     (("transform", "dlf-to-reach", "n.xpn"), (0, None))],
    [(("fire", "n.xpn", "t"), (0, "a=1\n")),
     (("fire", "n.xpn", "t", "-m", "a=5"), (0, "a=5\n")),
     (("fire", "n.xpn", "t"), (0, "a=1\n")),
     (("fire", "n.xpn", "-m", "a=5", "t"), (0, "a=5\n")),
     (("fire", "n.xpn", "t"), (0, "a=1\n"))],
], ids=["max-nodes", "trace", "clause-cap", "marking"])
def test_calls_in_sequence_share_no_arguments(run, tmp_path, monkeypatch,
                                              calls):
    monkeypatch.chdir(tmp_path)
    for argv, (code, out) in calls:
        (tmp_path / "f.tr").unlink(missing_ok=True)
        got = run(*argv, files={"n.xpn": LOOP})
        assert got[0] == code and got[2] == "", argv
        assert out is None or got[1] == out, argv
        assert (tmp_path / "f.tr").exists() == ("--trace" in argv), argv


HELP_AND_USAGE = [("--help",), ("transform", "--help"), (),
                  ("transform", "bogus", "x"), ("terminate",)]


@pytest.mark.parametrize("argv", HELP_AND_USAGE,
                         ids=["help", "transform-help", "no-arguments",
                              "bad-choice", "no-net"])
def test_help_and_usage_errors_repeat_byte_for_byte(capsys, monkeypatch,
                                                    argv):
    monkeypatch.setenv("COLUMNS", "72")
    got = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        cap = capsys.readouterr()
        got.append((exc.value.code, cap.out, cap.err))
    assert got[0] == got[1]
    assert got[0][0] in (0, 2) and (got[0][1] or got[0][2]).startswith(
        "usage: xpn")
    fresh = subprocess.run(
        [sys.executable, "-m", "xpn.cli", *argv], capture_output=True,
        text=True, timeout=20, env=dict(
            os.environ, COLUMNS="72",
            PYTHONPATH=str(Path(cli.__file__).parents[1])))
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == got[0]


# ---------------------------------------------------------------------------
# byte identity: every workload query and every help and usage text, pinned
# by one digest each; an intended change updates the digest and is declared
# in CHANGES.md

ROOT = Path(__file__).resolve().parents[1]


def _outcome(capsys, argv) -> bytes:
    """(argv, exit code, stdout, stderr) of one in-process call, as bytes
    to hash."""
    try:
        code = cli.main(list(argv))
    except SystemExit as e:
        code = e.code
    cap = capsys.readouterr()
    return repr((list(argv), code, cap.out, cap.err)).encode() + b"\0"


# sha256 of _outcome over every query of every benchmark workload, warm-up
# first, at seeds 1 and 7
WORKLOAD_DIGEST = (
    "65f51652e2351abccc6c3d9ec2ce54e5391d5de27d7b264a0f7a0b29415fe87a")


def test_workload_queries_byte_stable(capsys, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for seed in (1, 7):
        for workload in workloads.BUILDERS:
            files, warm, queries = workloads.build(workload, seed)
            for name, text in files.items():
                (tmp_path / name).write_text(text)
            for q in [warm, *queries]:
                h.update(_outcome(capsys, q["argv"]))
    assert h.hexdigest() == WORKLOAD_DIGEST, (
        "an exit code or an output of a workload query changed; if the "
        "change is intended, declare it in CHANGES.md and update "
        "WORKLOAD_DIGEST")


VERBS = ("validate", "classify", "fire", "explore", "terminate", "transform",
         "compile", "export-dot")
# no invalid choice: its message quotes the choices on 3.13.0 and not on
# 3.13.13, so it changes within a minor version
HELP_CASES = [("--help",), *[(verb, "--help") for verb in VERBS], (),
              ("terminate",), ("terminate", "n.xpn", "--max-nodes", "x"),
              ("fire", "n.xpn", "-m"), ("validate", "n.xpn", "--nope")]

# sha256 of _outcome over HELP_CASES at COLUMNS=80, per Python minor version
# (argparse formats help differently across versions); the keys are the
# versions CI runs, as test_help_digest_covers_every_ci_python checks
HELP_DIGEST = {
    "3.10": "505b9ab49e30873f24107ec93f33ee3b71ae841eee6be2029c6803627c9c3197",
    "3.11": "505b9ab49e30873f24107ec93f33ee3b71ae841eee6be2029c6803627c9c3197",
    "3.12": "505b9ab49e30873f24107ec93f33ee3b71ae841eee6be2029c6803627c9c3197",
    "3.13": "505bf280901c0a5f42408c75f1ecb9f2a56848c90b7c52235dcd74c3b33f54e6",
}


def test_help_and_usage_byte_stable(capsys, monkeypatch):
    version = "%d.%d" % sys.version_info[:2]
    if version not in HELP_DIGEST:
        pytest.skip(f"HELP_DIGEST has no digest for Python {version}")
    monkeypatch.setenv("COLUMNS", "80")
    h = hashlib.sha256()
    for argv in HELP_CASES:
        h.update(_outcome(capsys, argv))
    assert h.hexdigest() == HELP_DIGEST[version], (
        "a help or usage text changed; if the change is intended, declare "
        "it in CHANGES.md and update HELP_DIGEST")


def test_help_digest_covers_every_ci_python():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    matrix = re.search(r"python-version:\s*\[([^\]]*)\]", workflow)
    assert matrix, "no python-version matrix in tier1.yml"
    assert sorted(re.findall(r'"([^"]+)"', matrix[1])) == sorted(HELP_DIGEST)


# ---------------------------------------------------------------------------
# argument parsing: `main` must parse every argv as the top-level parser
# alone does, which hands everything after the verb to that verb's parser

# help in several places, `--`, `=`, abbreviated and ambiguous options,
# `fire`'s transitions around its options, bad values and unknown words,
# and every verb bare and with --help
DISPATCH_CASES = [
    (), ("-h",), ("--help",), ("--he",), ("-h", "terminate"),
    ("--", "terminate", "n.xpn"), ("bogus",), ("Terminate", "n.xpn"),
    ("--max-nodes", "5", "terminate", "n.xpn"),
    *[(verb,) for verb in VERBS], *[(verb, "--help") for verb in VERBS],
    ("terminate", "n.xpn"), ("terminate", "n.xpn", "-h"),
    ("terminate", "-h", "n.xpn"), ("terminate", "n.xpn", "--help", "--bogus"),
    ("terminate", "n.xpn", "--max-nodes=5"),
    ("terminate", "n.xpn", "--max-n", "5"),
    ("terminate", "n.xpn", "--max-nodes", "x"),
    ("terminate", "n.xpn", "--max-nodes", "-3"),
    ("terminate", "--", "n.xpn"), ("terminate", "n.xpn", "--", "x"),
    ("terminate", "n.xpn", "--full", "--dot", "t.dot", "--stem=s",
     "--pump", "p"),
    ("terminate", "n.xpn", "n2.xpn"),
    ("fire", "n.xpn", "t", "-m", "a=5", "t"),
    ("fire", "-m", "a=5", "n.xpn", "t"), ("fire", "n.xpn", "t", "--bogus"),
    ("fire", "n.xpn", "--bogus", "t"), ("fire", "n.xpn", "--trace", "tr", "t"),
    ("fire", "n.xpn", "t", "--", "u"), ("fire", "n.xpn", "-m"),
    ("fire", "n.xpn", "-5"),
    ("explore", "reach", "n.xpn", "-ma=1"),
    ("explore", "reach", "-h"), ("explore", "bogus", "n.xpn"),
    ("explore", "cover", "n.xpn", "--m", "c=1"),
    ("explore", "deadlock", "n.xpn", "--max-steps=-5", "--trace", "f.tr"),
    ("explore", "backward-cover", "n.xpn", "-m", "-x"),
    ("transform", "hir-elim", "n.xpn", "-o", "out.xpn"),
    ("transform", "reach-to-dlf", "n.xpn", "--marking=a=1"),
    ("transform", "dlf-to-reach", "n.xpn", "--clause-cap", "1_000"),
    ("compile", "minsky", "m.txt", "--transfer"),
    ("compile", "minsky", "m.txt", "--transfer=1"),
    ("compile", "positivity", "p.txt", "-o", "x"),
    ("export-dot", "n.xpn", "--highlight=t,u", "-o", "x.dot"),
    ("classify", "n.xpn", "extra"), ("validate", "n.xpn", "--nope"),
    ("validate", "--", "-n.xpn"), ("validate", "-n.xpn"),
]


def _top_level_parse(argv):
    """The Namespace `main` hands its verb when the top-level parser alone
    parses `argv`; SystemExit where that parse stops."""
    ap = cli._parser()[0]
    args, extra = ap.parse_known_args(argv)
    if args.verb == "fire" and not any(w.startswith("-") for w in extra):
        args.transition, extra = args.transition + extra, []
    if extra:
        ap.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


@pytest.mark.parametrize("argv", DISPATCH_CASES,
                         ids=[" ".join(a) or "-" for a in DISPATCH_CASES])
def test_main_parses_as_the_top_level_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    given = []  # each verb records the Namespace it is handed
    for p in cli._parser()[1].values():
        monkeypatch.setitem(p._defaults, "func", given.append)

    def outcome(parse):
        given.clear()
        try:
            code = parse(list(argv))
        except SystemExit as e:
            code = e.code
        cap = capsys.readouterr()
        return code, cap.out, cap.err, [list(vars(a).items()) for a in given]

    want = outcome(lambda a: given.append(_top_level_parse(a)))
    assert outcome(cli.main) == want
    assert want[1] or want[2] or want[3]


@pytest.mark.parametrize("argv", [
    ("terminate", "n.xpn"), ("explore", "reach", "n.xpn", "-m", "a=1"),
    ("fire", "n.xpn", "t", "--bogus"), ("validate", "--help"), ("compile",)])
def test_a_verb_first_call_parses_once(run, monkeypatch, argv):
    """The verb's own parser reads it; the top-level parser parses only
    an argv that does not start with a verb."""
    ap = cli._parser()[0]
    top = []
    real = ap.parse_known_args

    def parsing(args, namespace=None):
        top.append(args[0])
        return real(args, namespace)

    monkeypatch.setattr(ap, "parse_known_args", parsing)
    for first in (argv, ("-h", *argv)):
        with contextlib.suppress(SystemExit):
            run(*first, files={"n.xpn": CHAIN})
    assert top == ["-h"]


def _fresh(*args, cwd=None):
    """A new interpreter run with `args`, importing xpn from this tree."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=20,
        cwd=cwd, env=dict(os.environ,
                          PYTHONPATH=str(Path(cli.__file__).parents[1])))


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    """A CLI process answers one query, so its start-up is most of its
    time: importing xpn.cli must not load `dataclasses`, nor `inspect`
    and the modules it imports."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import xpn.cli\n"
            "print(sorted({'dataclasses', 'inspect'}\n"
            "             & (sys.modules.keys() - before)))\n")
    got = _fresh("-c", code)
    assert (got.returncode, got.stdout, got.stderr) == (0, "[]\n", "")


def test_importing_the_cli_loads_no_typing_or_pathlib():
    # without `site`, whose start-up may import both, nothing else does
    got = _fresh("-S", "-c", "import sys, xpn.cli\n"
                 "print(sorted({'typing', 'pathlib'} & sys.modules.keys()))")
    assert (got.returncode, got.stdout, got.stderr) == (0, "[]\n", "")


def test_the_package_holds_no_assert_statement():
    # `python -O` strips an assert; a check the package relies on raises
    # AssertionError explicitly instead
    src = Path(cli.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_the_package_compiles_no_code():
    # the package runs no code it writes: every engine interprets the
    # compiled plan and its firing rows, so no call to exec, eval or
    # compile is left to build a search
    src = Path(cli.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id in ("exec", "eval", "compile")]
    assert found == []


def test_the_package_opens_files_in_binary_or_utf8():
    # text mode without `encoding=` reads and writes in the locale's
    # encoding; the CLI reads bytes and decodes them as UTF-8
    src = Path(cli.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            keywords = {k.arg: k.value for k in node.keywords}
            mode = node.args[1] if len(node.args) > 1 else keywords.get(
                "mode")
            binary = isinstance(mode, ast.Constant) and "b" in mode.value
            if not binary and "encoding" not in keywords:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# a verb form -> the engine modules it loads besides xpn, cli, fmt and net
VERB_MODULES = [
    (("validate", "n.xpn"), ()),
    (("classify", "n.xpn"), ()),
    (("fire", "n.xpn", "t"), ()),
    (("explore", "deadlock", "n.xpn"), ("explore", "packed")),
    (("explore", "backward-cover", "n.xpn", "-m", "b=1"),
     ("explore", "packed")),
    (("terminate", "n.xpn"), ("ert", "packed")),
    (("transform", "dlf-to-reach", "n.xpn"), ("transforms",)),
    (("compile", "minsky", "m.txt"), ("compilers",)),
    (("export-dot", "n.xpn"), ("dot",)),
]


@pytest.mark.parametrize("argv, engines", VERB_MODULES,
                         ids=[" ".join(a[:2]) for a, _ in VERB_MODULES])
def test_a_verb_loads_only_the_modules_it_runs(tmp_path, argv, engines):
    (tmp_path / "n.xpn").write_text(CHAIN)
    (tmp_path / "m.txt").write_text(MACHINE)
    got = _fresh("-c", "import sys\nfrom xpn import cli\n"
                 "code = cli.main(sys.argv[1:])\n"
                 "print(*sorted(m for m in sys.modules if m[:4] == 'xpn.'))\n"
                 "sys.exit(code)", *argv, cwd=tmp_path)
    assert (got.returncode, got.stderr) == (0, "")
    loaded = got.stdout.splitlines()[-1].split()
    assert loaded == sorted(f"xpn.{m}"
                            for m in ("cli", "fmt", "net", *engines))


def test_a_tracer_installed_before_any_verb_keeps_its_wrappers(tmp_path):
    # perfbench/spans.py wraps names such as cli.build_ert by attribute
    # before the first query binds them; the verbs must run the wrappers
    (tmp_path / "n.xpn").write_text(LOOP)
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    script = f"""
import importlib.util, sys
spec = importlib.util.spec_from_file_location("spans", {str(spans)!r})
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
from xpn import cli
tracer = spans.Tracer()
tracer.install()
patched = [(attr, orig) for owner, attr, orig in tracer._patches
           if owner is cli]
for argv in (["terminate", "n.xpn", "--dot", "t.dot"],
             ["explore", "deadlock", "n.xpn"], ["export-dot", "n.xpn"]):
    assert cli.main(argv) == 0, argv
tracer.uninstall()
print(*sorted({{sp.name for sp in tracer.spans}}))
print(*sorted(attr for attr, orig in patched
              if getattr(cli, attr) is not orig
              or not orig.__module__.startswith("xpn.")))
"""
    got = _fresh("-c", script, cwd=tmp_path)
    assert (got.returncode, got.stderr) == (0, "")
    *_, names, unrestored = got.stdout.splitlines()
    assert {"ert.build_ert", "explore.bfs", "dot.export_dot"} <= set(
        names.split())
    assert unrestored == ""


def test_a_file_is_read_as_utf8_whatever_the_locale(tmp_path):
    # the C locale without coercion or UTF-8 mode decodes text files as
    # ASCII; the CLI reads its inputs as UTF-8 all the same
    (tmp_path / "n.xpn").write_text("places: a  # café\n", encoding="utf-8")
    got = subprocess.run(
        [sys.executable, "-c", "import sys\nfrom xpn import cli\n"
         "sys.exit(cli.main(['validate', 'n.xpn']))"],
        capture_output=True, text=True, timeout=20, cwd=tmp_path,
        env=dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
                 PYTHONUTF8="0", PYTHONPATH=str(Path(cli.__file__).parents[1])))
    assert (got.returncode, got.stdout, got.stderr) == (0, "n.xpn: ok\n", "")


def test_a_name_set_before_any_verb_is_kept(tmp_path):
    # a verb's first call binds the names it runs, but none already set
    (tmp_path / "n.xpn").write_text(CHAIN)
    got = _fresh("-c", "from xpn import cli\n"
                 "cli.export_dot = lambda net, highlight: 'stub\\n'\n"
                 "cli.main(['export-dot', 'n.xpn'])", cwd=tmp_path)
    assert (got.returncode, got.stdout, got.stderr) == (0, "stub\n", "")


def _load_tracer():
    """A Tracer from perfbench/spans.py, loaded without changing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Tracer()


def test_benchmark_tracer_sees_layers_after_the_parser_is_built(run,
                                                                tmp_path):
    # the benchmark's warm-up query builds the parser before its tracer
    # wraps the engines, so the parser must look them up when it runs
    assert run("classify", "n.xpn", files={"n.xpn": CHAIN})[0] == 0
    tracer = _load_tracer()
    tracer.install()
    try:
        for argv, net in [
                (("explore", "backward-cover", "n.xpn", "-m", "b=1"), CHAIN),
                (("transform", "dlf-to-reach", "n.xpn"), CHAIN),
                (("terminate", "n.xpn", "--dot", str(tmp_path / "t.dot")),
                 LOOP)]:
            sp = tracer.open("cli.main")
            try:
                assert run(*argv, files={"n.xpn": net})[0] == 0
            finally:
                tracer.close(sp)
    finally:
        tracer.uninstall()
    names = {sp.name for sp in tracer.spans}
    assert {"explore.backward_cover", "transforms.dlf_to_reach",
            "ert.build_ert"} <= names


def test_benchmark_tracer_patches_names_that_exist():
    # perfbench/spans.py wraps library names such as ert.successors and
    # cli.build_ert by attribute; a rename would break its --trace run
    tracer = _load_tracer()
    try:  # a failed install leaves its earlier patches for uninstall
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for owner, attr, orig in patches:
            assert getattr(owner, attr) is not orig, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, orig in patches:
        assert getattr(owner, attr) is orig, (owner, attr)
