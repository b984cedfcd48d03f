"""Metamorphic checks: renaming places while keeping their order, and
reversing the transition order, leave every engine's answer unchanged.
Each net, original or changed, must survive a render/parse round trip
before an engine sees it."""

import random

import fuzz
from xpn.ert import decide_termination
from xpn.explore import (backward_cover, bounded_cover, bounded_deadlock,
                         bounded_reach)
from xpn.fmt import parse_net, render_net
from xpn.net import (INHIBITOR_KIND, TRANSFER_KIND, Net, Transfer, Transition,
                     classify)


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
    if cls.ert_eligible and TRANSFER_KIND not in cls.specials:
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
