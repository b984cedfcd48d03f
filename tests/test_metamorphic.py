"""Metamorphic checks: renaming places while keeping their order, and
reversing the transition order, leave every engine's answer unchanged.
Each net, original or changed, must survive a render/parse round trip
before an engine sees it.  Raising a budget may turn a run-out into an
answer, but never changes an answer, and neither does indexing the
firing table by place in place of scanning it whole."""

import random

import pytest

import fuzz
from xpn.ert import decide_termination
from xpn.explore import (backward_cover, bounded_cover, bounded_deadlock,
                         bounded_reach)
from xpn.fmt import parse_net, render_net
from xpn import packed
from xpn.net import (BudgetExceededError, INHIBITOR_KIND, Net, Transfer,
                     Transition, classify)
from xpn.transforms import dlf_to_reach


def renamed_places(net):
    """Names that sort in the opposite order to the hierarchy, so nothing
    may order places by name."""
    n = len(net.places)
    new = {p: f"q{n - i}" for i, p in enumerate(net.places)}

    def arc(a):
        return Transfer(new[a.target]) if isinstance(a, Transfer) else a

    ts = [Transition(t.name, {new[p]: arc(a) for p, a in t.pre.items()},
                     {new[p]: w for p, w in t.post.items()})
          for t in net.transitions]
    return Net(tuple(new[p] for p in net.places), ts, net.initial)


def reversed_transitions(net):
    return Net(net.places, tuple(reversed(net.transitions)), net.initial)


def answers(net, targets):
    """Every result the check compares, keyed by engine and target."""
    back = parse_net(render_net(net))
    assert back == net
    net = back
    cls = classify(net)
    out = {"classify": cls}
    if cls.ert_eligible:
        v = decide_termination(net)
        out["terminate"] = (type(v).__name__, getattr(v, "tree_size", None))
    # each net's reachable graph fits under the step budget, so every
    # forward answer is definitive (a search that runs out raises)
    out["deadlock"] = bounded_deadlock(net, max_steps=1000).found
    for target in targets:
        out["reach", target] = bounded_reach(net, target, max_steps=1000).found
        out["cover", target] = bounded_cover(net, target, max_steps=1000).found
        if INHIBITOR_KIND not in cls.specials:
            r = backward_cover(net, target)
            out["backward", target] = (r.coverable, sorted(r.basis))
    return out


def test_renaming_places_and_reversing_transitions_change_no_answer():
    rng = random.Random(2017)
    seen = {}
    for i in range(240):
        gen = (fuzz.spiced_net, fuzz.ert_net, fuzz.no_inhibitor_net,
               fuzz.hier_ir_net)[i % 4]
        net, graph = fuzz.finite_net(rng, gen, 300)
        keys = sorted(graph)
        maxima = [max(m[j] for m in keys) for j in range(len(net.places))]
        targets = [rng.choice(keys),
                   tuple(rng.randint(0, x + 1) for x in maxima)]
        want = answers(net, targets)
        assert answers(renamed_places(net), targets) == want, net
        assert answers(reversed_transitions(net), targets) == want, net
        for key, value in want.items():
            seen.setdefault(key if isinstance(key, str) else key[0],
                            []).append(value)
    # every engine ran, and each gave both of its definitive answers
    assert {v[0] for v in seen["terminate"]} >= {"Terminating",
                                                 "NonTerminating"}
    for kind in ("deadlock", "reach", "cover"):
        assert set(seen[kind]) == {True, False}, kind
    assert {v[0] for v in seen["backward"]} == {True, False}


def budgeted_call(engine, rng):
    """One seeded input for `engine`, as a function of its budget."""
    gen = {"backward_cover": fuzz.no_inhibitor_net,
           "decide_termination": fuzz.ert_net,
           "dlf_to_reach": fuzz.hier_ir_net}.get(engine, fuzz.spiced_net)
    graph = {}
    while len(graph) < 6:  # so that most searches need several steps
        net, graph = fuzz.finite_net(rng, gen, 60)
    keys = sorted(graph)
    maxima = [max(m[j] for m in keys) for j in range(len(net.places))]
    target = rng.choice([rng.choice(keys), tuple(x + 1 for x in maxima)])
    return {
        "bounded_reach": lambda b: bounded_reach(net, target, max_steps=b),
        "bounded_cover": lambda b: bounded_cover(net, target, max_steps=b),
        "bounded_deadlock": lambda b: bounded_deadlock(net, max_steps=b),
        "backward_cover": lambda b: backward_cover(net, target, max_steps=b),
        "decide_termination": lambda b: decide_termination(net, max_nodes=b),
        "dlf_to_reach": lambda b: dlf_to_reach(net, clause_cap=b),
    }[engine]


RAN_OUT = "ran out"


def outcome(call, budget):
    try:
        return call(budget)
    except BudgetExceededError:
        return RAN_OUT


@pytest.mark.parametrize("engine", [
    "bounded_reach", "bounded_cover", "bounded_deadlock", "backward_cover",
    "decide_termination", "dlf_to_reach"])
def test_a_larger_budget_never_changes_an_answer(engine):
    """From budget -1 up, each outcome runs out or equals the answer at an
    ample budget, and the three budgets above the first that answers
    answer too."""
    rng = random.Random(engine)
    for _ in range(30):
        call = budgeted_call(engine, rng)
        want = outcome(call, 10**9)
        assert want != RAN_OUT
        budget, answers = -1, 0
        while answers < 4:
            got = outcome(call, budget)
            if got == RAN_OUT:
                assert answers == 0, (engine, budget)
            else:
                assert got == want, (engine, budget)
                answers += 1
            budget += 1


# ring (5,8): 8 tokens circling 5 places, 495 markings, no deadlock;
# countdown (4,3): 4 places emptied one token at a time, 256 markings
RING = ("places: p0 p1 p2 p3 p4\nmarking: p0=8\n"
        + "".join(f"trans t{i}: in p{i} ; out p{(i + 1) % 5}\n"
                  for i in range(5)))
COUNTDOWN = ("places: p0 p1 p2 p3\nmarking: p0=3 p1=3 p2=3 p3=3\n"
             + "".join(f"trans t{i}: in p{i} ;\n" for i in range(4)))


@pytest.mark.parametrize("text, reach, cover", [
    (RING, (0, 0, 0, 0, 8), (0, 0, 0, 0, 9)),
    (COUNTDOWN, (0, 0, 0, 1), (0, 0, 0, 4)),
], ids=["ring5x8", "countdown4x3"])
def test_generated_successors_change_no_answer(text, reach, cover,
                                              monkeypatch):
    """Each engine on a fresh net equals the same engine whatever its
    firing table's index rule (`_INDEX_COST`): at 0 every table is
    indexed by place and every transfer moved from one unpack of the
    marking, at 10**18 every table is scanned whole, and these short
    searches also scan at the module's rule: traces, expansion counts,
    verdicts, tree sizes and budget messages alike.  Each forward search
    builds its memo."""
    engines = [
        lambda n: bounded_reach(n, reach, max_steps=15_000),
        lambda n: bounded_cover(n, cover, max_steps=15_000),
        lambda n: bounded_deadlock(n, max_steps=15_000),
        lambda n: decide_termination(n, max_nodes=15_000),
    ]

    search_at, runs = packed._search_at, []
    monkeypatch.setattr(packed, "_search_at",
                        lambda *args: runs.append(args) or search_at(*args))

    def outcomes():
        got, memo = [], []
        for engine in engines:
            net = parse_net(text)
            del runs[:]
            try:
                got.append(engine(net))
            except BudgetExceededError as e:
                got.append(str(e))
            memo.append(bool(runs))
        return got, memo

    cli = outcomes()
    assert cli[1] == [True] * 3 + [False]
    for cost in (0, 10**18):
        monkeypatch.setattr(packed, "_INDEX_COST", cost)
        assert outcomes() == cli, cost
