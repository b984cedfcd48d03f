import hashlib
import itertools
import math
import random
import re

import pytest

import fuzz
import oracles
from xpn import ert as xpn_ert, packed
from xpn.ert import (
    BudgetExceededError,
    Ert,
    NonTerminating,
    NotEligibleError,
    Terminating,
    build_ert,
    check_eligible,
    decide_termination,
    ert_dot,
    transition_index,
    verify_pump,
)
from xpn.dot import export_dot
from xpn.explore import replay
from xpn.fmt import parse_net
from xpn.net import Net, Numeric, Transition, XpnError, classify

LOOP = parse_net("places: a\nmarking: a=1\ntrans t: in a ; out a")
CHAIN = parse_net("places: a\nmarking: a=3\ntrans t: in a ;")
GROW = parse_net("""\
places: a
marking: a=1
trans grow: in a ; out a*2
trans cut: in a*2 ;
""")

# a pump that opens only once the countdown in front of it has run out:
# cut leaves deep in a tree of 120 nodes, the first one at node 12
IDLE = parse_net("""\
places: p0 p1 p2 q
marking: p0=2 p1=2 p2=1 q=1
trans t0: in p0 ;
trans t1: in p1 ;
trans t2: in p2 ;
trans idle: inh p0, inh p1, inh p2, in q ; out q
""")

# (1,1) is reached from (0,1) and dominates both it and the root (1,0): the
# cut names the nearest, so the stem is t1 and the pump t2
NEAR = parse_net("""\
places: a b
marking: a=1
trans t1: in a ; out b
trans t2: in b ; out a, b
""")
# (1,1,0) dominates the root (0,1,0) and agrees with it on places up to w's
# index 0, but u on the path inhibits a, where they differ: no cut, and
# (1,1,0) is dead
DEEP_LEVEL = parse_net("""\
places: a b c
marking: b=1
trans u: inh a, in b ; out a, c
trans w: in c ; out b
""")


def test_indices():
    n = parse_net("places: a b\ntrans t: inh a, in b ; out b*2")
    assert transition_index(n, "t") == 1
    m = parse_net("places: a b\ntrans u: in a ;")
    assert transition_index(m, "u") == 0


def test_growth_at_an_inhibited_position_blocks_the_pump():
    # u doubles a, and a's index is below u's inhibitor on b: the pump
    # grows a place that must stay equal, so it is no certificate
    m = parse_net("places: a b\nmarking: a=1\ntrans u: inh b, in a ; out a*2")
    pump = NonTerminating(replay(m, m.initial, []),
                          replay(m, m.initial, ["u"]))
    assert not verify_pump(m, pump)
    # without the inhibitor the same run pumps
    free = parse_net("places: a b\nmarking: a=1\ntrans u: in a ; out a*2")
    assert verify_pump(free, NonTerminating(replay(free, free.initial, []),
                                            replay(free, free.initial, ["u"])))
    # the first pump round alone grows a, the second keeps it: rejected
    # from the start, accepted one step later
    once = parse_net("places: a b\ntrans u: inh b, reset a ; out a")
    u = replay(once, once.initial, ["u"])
    assert not verify_pump(once, NonTerminating(replay(once, once.initial, []),
                                                u))
    assert verify_pump(once, NonTerminating(u, replay(once, (1, 0), ["u"])))
    # the first round keeps the prefix (a, b), only the second grows a:
    # (0,0,0) -> (0,0,1) -> (1,0,1)
    late = parse_net("places: a b c\ntrans u: inh b, xfer c->a ; out c")
    stem, pump = (replay(late, late.initial, names) for names in ([], ["u"]))
    assert not verify_pump(late, NonTerminating(stem, pump))


def test_terminating_frozen():
    assert decide_termination(CHAIN) == Terminating(tree_size=4)
    twop = parse_net("""\
places: x y
marking: x=1
trans t1: in x ; out y
trans t2: inh x, in y ;
""")
    assert decide_termination(twop) == Terminating(tree_size=3)


def test_nonterminating_frozen():
    v = decide_termination(LOOP)
    assert isinstance(v, NonTerminating)
    assert v.stem.transitions == ()
    assert v.pump.transitions == ("t",)
    assert verify_pump(LOOP, v)

    v = decide_termination(GROW)
    assert v.pump.transitions == ("grow",)
    assert verify_pump(GROW, v)


def test_reset_cases():
    rst = parse_net("places: a b\nmarking: a=2 b=5\ntrans t1: in a, reset b ; out b")
    assert decide_termination(rst) == Terminating(tree_size=3)
    rpump = parse_net("places: a\ntrans t: reset a ; out a")
    v = decide_termination(rpump)
    assert isinstance(v, NonTerminating) and v.pump.transitions == ("t",)
    assert verify_pump(rpump, v)


def test_inhibitor_blocks_false_pump():
    # t fires exactly once: the successor dominates the root but differs
    # on the inhibited place, so it must not count as a pump
    n = parse_net("places: a b\ntrans t: inh a ; out a")
    assert decide_termination(n) == Terminating(tree_size=2)


def test_eligibility():
    check_eligible(LOOP)
    ok = parse_net("places: a b c\ntrans t: inh a, inh b, reset c ; out c")
    check_eligible(ok)
    with pytest.raises(NotEligibleError):
        check_eligible(parse_net("places: a b\ntrans t: inh b, in a ;"))
    with pytest.raises(NotEligibleError):
        check_eligible(parse_net("places: a b\ntrans t: xfer a->b ;"))
    with pytest.raises(NotEligibleError):
        decide_termination(parse_net("places: a b\ntrans t: inh b, in a ;"))


def test_classify_and_check_eligible_agree_on_the_fuzz_corpora():
    # one predicate decides both, so a net `classify` calls eligible is
    # one the walk takes, on every generator's nets
    gens = [g for name, g in vars(fuzz).items()
            if name.endswith("_net") and name != "finite_net"]
    seen = set()
    for seed, gen in enumerate(gens):
        rng = random.Random(3900 + seed)
        for _ in range(150):
            n = gen(rng)
            try:
                check_eligible(n)
                takes = True
            except NotEligibleError:
                takes = False
            assert classify(n).ert_eligible == takes, (gen.__name__, n)
            seen.add(takes)
    assert seen == {True, False}


def test_budget_is_an_error_not_a_verdict():
    big = parse_net("places: a\nmarking: a=10\ntrans t: in a ;")
    with pytest.raises(BudgetExceededError):
        build_ert(big, max_nodes=5)
    assert decide_termination(big, max_nodes=50) == Terminating(tree_size=11)
    # the root is the first node the budget counts, even as the whole tree
    dead = parse_net("places: a")
    for fn in (decide_termination, build_ert):
        for bad in (0, -1):
            with pytest.raises(BudgetExceededError,
                               match=f"^tree exceeded {bad} nodes$"):
                fn(dead, max_nodes=bad)
    assert decide_termination(dead, max_nodes=1) == Terminating(tree_size=1)
    assert build_ert(dead, max_nodes=1).verdict == Terminating(tree_size=1)


def test_full_tree_structure():
    ert = build_ert(LOOP)
    assert isinstance(ert, Ert)
    assert isinstance(ert.verdict, NonTerminating)
    root, leaf = ert.nodes
    assert root.parent is None and root.status == "inner"
    assert leaf.parent == 0 and leaf.via == "t"
    assert leaf.status == "subsumed" and leaf.subsumed_by == 0
    dot = ert_dot(LOOP, ert)
    assert "peripheries=2" in dot
    assert 'n0 -> n1 [label="t"]' in dot

    ert = build_ert(CHAIN)
    assert ert.verdict == Terminating(tree_size=4)
    kids = {n.parent for n in ert.nodes if n.parent is not None}
    for i, n in enumerate(ert.nodes):
        assert n.status == ("inner" if i in kids else "deadlock")


def test_ert_dot_quotes_names_as_export_dot_does():
    # names the .xpn reader refuses but a net built in code may hold
    names = ['t"x', "a\\b", 'q\\"']
    n = Net(("a",), [Transition(t, {"a": Numeric(1)}, {"a": 1})
                     for t in names], (1,))
    quoted = r'("(?:[^"\\]|\\.)*")'
    boxes = re.findall(r"shape=box label=" + quoted, export_dot(n))
    edges = re.findall(r"-> n\d+ \[label=" + quoted, ert_dot(n, build_ert(n)))
    assert edges == boxes == ['"t\\"x"', '"a\\\\b"', '"q\\\\\\""']


def test_stop_early_tree_leaves_unexpanded_nodes_inner():
    n = parse_net("places: a b\nmarking: a=1 b=1\n"
                  "trans s: in b ;\ntrans t: in a ; out a")
    ert = build_ert(n, stop_early=True)
    assert [(x.marking, x.status, x.subsumed_by) for x in ert.nodes] == [
        ((1, 1), "inner", None),
        ((1, 0), "inner", None),  # created before the cut, never expanded
        ((1, 1), "subsumed", 0),
    ]
    assert ert_dot(n, ert).splitlines()[2:5] == [
        '  n0 [label="1 1"];', '  n1 [label="1 0"];',
        '  n2 [label="1 1" peripheries=2 color=red];']


def test_recorded_nodes_share_one_tuple_per_marking():
    # countdown-like: 4 * 4 markings, far more tree nodes
    net = parse_net("places: a b\nmarking: a=3 b=3\n"
                    "trans s: in a ;\ntrans t: in b ;")
    for stop_early in (False, True):
        ert = build_ert(net, stop_early=stop_early)
        assert len(ert.nodes) == 69
        canon = {}
        for node in ert.nodes:
            assert canon.setdefault(node.marking, node.marking) \
                is node.marking
        assert len(canon) == 16
    # and so do the subsumed leaves and the inner nodes a cut leaves
    ert = build_ert(IDLE, stop_early=True)
    canon = {}
    for node in ert.nodes:
        assert canon.setdefault(node.marking, node.marking) is node.marking
    assert len(canon) < len(ert.nodes)


def test_verify_pump_rejects_wrong_certificates():
    assert not verify_pump(LOOP, Terminating(tree_size=1))
    v = decide_termination(LOOP)
    bad = NonTerminating(v.stem, replay_swap(v.pump, ("zzz",)))
    assert not verify_pump(LOOP, bad)
    empty = NonTerminating(v.stem, type(v.pump)((), (v.stem.markings[-1],)))
    assert not verify_pump(LOOP, empty)


def test_verify_pump_rejects_markings_the_names_do_not_fire_to():
    # LOOP's certificate names, with markings that are not its run
    Trace = type(decide_termination(LOOP).stem)
    forged = NonTerminating(Trace((), ((7,),)), Trace(("t",), ((9,), (9,))))
    assert not verify_pump(LOOP, forged)


def test_unchecked_certificate_is_an_internal_error(monkeypatch):
    # the walk checks the certificate it makes, so no entry point returns
    # one that fails the check
    monkeypatch.setattr(xpn_ert, "_pumped", lambda net, stem, pump: None)
    with pytest.raises(AssertionError, match="failed to verify"):
        decide_termination(LOOP)
    for stop_early in (True, False):
        with pytest.raises(AssertionError, match="failed to verify"):
            build_ert(LOOP, stop_early=stop_early)
    assert decide_termination(CHAIN) == Terminating(tree_size=4)


def replay_swap(trace, names):
    return type(trace)(tuple(names), trace.markings)


def test_verdict_independent_of_child_order():
    rng = random.Random(31337)
    for _ in range(150):
        net = fuzz.ert_net(rng)
        base = decide_termination(net, max_nodes=20_000)
        for seed in (1, 2, 3):
            v = decide_termination(net, max_nodes=20_000,
                                   rng=random.Random(seed))
            assert type(v) is type(base)
            if isinstance(v, NonTerminating):
                assert verify_pump(net, v), (net, v)
            else:
                assert v == base  # memoised sizes are order independent
        if isinstance(base, Terminating):
            full = oracles.ert_tree(net, 20_000, stop_early=False,
                                    rng=random.Random(99))
            # tree size is order independent
            assert full[1] == ("terminating", base.tree_size)


def test_verdict_agrees_with_exhaustive_oracle():
    rng = random.Random(40412)
    for _ in range(150):
        net, graph = fuzz.finite_net(rng, fuzz.ert_net, 400)
        v = decide_termination(net, max_nodes=50_000)
        runs_forever = oracles.has_cycle(graph)
        assert isinstance(v, NonTerminating) == runs_forever, (net, v)
        if runs_forever:
            assert verify_pump(net, v)


# ---------------------------------------------------------------------------
# the walk against the paper tree of tests/oracles.py

def countdown(n, k):
    """n independent places holding k tokens each, one consumer apiece: a
    terminating net whose tree (one node per run prefix) dwarfs its
    (k+1)^n markings."""
    places = " ".join(f"p{i}" for i in range(n))
    marks = " ".join(f"p{i}={k}" for i in range(n))
    trans = "".join(f"trans t{i}: in p{i} ;\n" for i in range(n))
    return parse_net(f"places: {places}\nmarking: {marks}\n{trans}")


def _verdict(v):
    """A verdict in the shape tests/oracles.py gives it."""
    if isinstance(v, Terminating):
        return ("terminating", v.tree_size)
    return ("nonterminating", v.stem.transitions, v.pump.transitions)


def _decided(net, budget):
    try:
        return _verdict(decide_termination(net, budget))
    except BudgetExceededError as e:
        return ("budget", str(e))


def _recorded(net, budget, stop_early, rng):
    try:
        ert = build_ert(net, budget, rng, stop_early)
    except BudgetExceededError as e:
        return ("budget", str(e))
    return ([(n.marking, n.parent, n.via, n.status, n.subsumed_by)
             for n in ert.nodes], _verdict(ert.verdict))


def _deep_flow_nets(seed, count):
    """The first `count` nets of a seeded `fuzz.ert_flow_net` stream with 4
    to 6 tokens whose full paper tree has 10 to 5,000 nodes: nets that add
    no tokens, so the walk looks ancestors up, with deeper trees than
    `fuzz.ert_net` mostly draws."""
    rng = random.Random(seed)
    nets = []
    while len(nets) < count:
        net = fuzz.ert_flow_net(rng, tokens=(4, 6))
        tree = oracles.ert_tree(net, 5_000, stop_early=False)
        if tree[0] != "budget" and len(tree[0]) >= 10:
            nets.append(net)
    return nets


def test_memoised_decider_equals_paper_tree():
    rng = random.Random(20261)
    nets = [fuzz.ert_net(rng) for _ in range(600)] + [NEAR, DEEP_LEVEL]
    grow = random.Random(5)
    nets += [fuzz.ert_grow_net(grow) for _ in range(300)]  # walk scans
    nets += _deep_flow_nets(21, 12)  # walk looks up
    budgets_checked = 0
    for net in nets:
        tree = oracles.ert_tree(net, 50_000)
        if tree[0] == "budget":
            continue
        size = len(tree[0])
        for budget in sorted({-1, 0, 1, 2, size // 2, size - 1, size,
                              size + 1, 50_000}):
            want = oracles.ert_tree(net, budget)
            if want[0] != "budget":
                want = want[1]
            assert _decided(net, budget) == want, (net, budget)
            budgets_checked += 1
    assert budgets_checked > 1_000


def test_recorded_tree_equals_paper_tree():
    # every node, full or stopped early, in declaration order or shuffled
    # (both sides shuffle lists of the same lengths in the same order)
    rng = random.Random(7304)
    nets = [fuzz.ert_net(rng) for _ in range(300)]
    nets += [countdown(3, 2), IDLE, NEAR, DEEP_LEVEL]
    grow = random.Random(6)
    nets += [fuzz.ert_grow_net(grow) for _ in range(150)]  # walk scans
    nets += _deep_flow_nets(22, 8)  # walk looks up
    for net in nets:
        for stop_early, seed, budget in itertools.product(
                (False, True), (None, 11), (0, 12, 20_000)):
            def shuffle():
                return None if seed is None else random.Random(seed)
            want = oracles.ert_tree(net, budget, stop_early, shuffle())
            assert _recorded(net, budget, stop_early, shuffle()) == want, \
                (net, stop_early, seed, budget)


def test_countdown_tree_sizes_are_pinned():
    # (3,4) has 125 markings, (4,3) has 256; the tree counts run prefixes,
    # and (4,3)'s is over the default budget of a million nodes
    assert decide_termination(countdown(3, 4)) == Terminating(110_251)
    big = countdown(4, 3)
    with pytest.raises(BudgetExceededError,
                       match="^tree exceeded 1000000 nodes$"):
        decide_termination(big)
    assert decide_termination(big, max_nodes=1_107_697) == \
        Terminating(1_107_697)
    with pytest.raises(BudgetExceededError,
                       match="^tree exceeded 1107696 nodes$"):
        decide_termination(big, max_nodes=1_107_696)


def line(n):
    """n transitions passing one token down p0 -> p_n."""
    places = " ".join(f"p{i}" for i in range(n + 1))
    trans = "".join(f"trans t{i}: in p{i} ; out p{i + 1}\n" for i in range(n))
    return parse_net(f"places: {places}\nmarking: p0=1\n{trans}")


def test_countdown_and_line_at_decider_scale():
    # the tree holds one node per run prefix: the prefixes that fire
    # place i a_i times number (sum a)! / prod a_i!
    want = sum(math.factorial(sum(a)) // math.prod(map(math.factorial, a))
               for a in itertools.product(range(6), repeat=5))
    assert decide_termination(countdown(5, 5), 10**40).tree_size == want
    assert decide_termination(line(1000), 10**40) == Terminating(1001)


def _adds_no_tokens(net):
    return xpn_ert._adds_no_tokens(net._plan())


def test_adds_no_tokens():
    for net in (LOOP, CHAIN, IDLE, countdown(2, 2), line(3)):
        assert _adds_no_tokens(net)
    rpump = parse_net("places: a\ntrans t: reset a ; out a")
    for net in (GROW, NEAR, DEEP_LEVEL, rpump):
        assert not _adds_no_tokens(net)
    rng = random.Random(1)
    for _ in range(100):
        assert not _adds_no_tokens(fuzz.ert_grow_net(rng))
        assert _adds_no_tokens(fuzz.ert_flow_net(rng))


def _past_the_cap(count):
    """The first `count` nets of a seeded `fuzz.ert_flow_net` stream with
    more than 400 reachable markings."""
    rng = random.Random(8)
    nets = []
    while len(nets) < count:
        net = fuzz.ert_flow_net(rng)
        if oracles.reach_graph(net, 400) is None:
            nets.append(net)
    return nets


PAST_THE_CAP = [countdown(4, 4), line(500), *_past_the_cap(8)]


def _outputs(net, budgets=(1, 2, 300, 5_000, 10**40)):
    """Verdicts of `decide_termination` at `budgets` and shuffled, and
    trees of `build_ert` at two budgets, full and stopped early, in
    declaration order and shuffled."""
    out = [_decided(net, budget) for budget in budgets]
    out.append(_verdict(decide_termination(net, 10**40, random.Random(3))))
    out += [_recorded(net, budget, stop_early, rng)
            for stop_early, budget in ((False, 2), (False, 1_000),
                                       (True, 1_000))
            for rng in (None, random.Random(3))]
    return out


PAST_THE_CAP_IDS = ["countdown4x4", "line500",
                    *(f"flow{i}" for i in range(8))]


@pytest.mark.parametrize("net", PAST_THE_CAP, ids=PAST_THE_CAP_IDS)
def test_lookup_equals_forced_scan(net, monkeypatch):
    """On a net that adds no tokens the walk looks each child up on the
    path; forcing the ancestor scan must draw the same trees, past the
    oracles' cap, budget errors included."""
    assert _adds_no_tokens(net)
    lookup = _outputs(net)
    monkeypatch.setattr(xpn_ert, "_adds_no_tokens", lambda effects: False)
    assert _outputs(net) == lookup


def _index_and_scan(net, monkeypatch, outputs):
    """`outputs(net)` with the walk forced to test only the transitions
    that a marking's marked places index, then forced to test them all."""
    monkeypatch.setattr(packed, "_INDEX_COST", 0)
    indexed = outputs(net)
    monkeypatch.setattr(packed, "_INDEX_COST", 10**18)
    return indexed, outputs(net)


@pytest.mark.parametrize("net", PAST_THE_CAP, ids=PAST_THE_CAP_IDS)
def test_index_equals_full_scan_past_the_cap(net, monkeypatch):
    indexed, scanned = _index_and_scan(net, monkeypatch, _outputs)
    assert indexed == scanned


def test_index_equals_full_scan_on_width_and_growth_nets(monkeypatch):
    rng = random.Random(41)
    nets = _width_nets() + [fuzz.ert_grow_net(rng) for _ in range(200)]
    for net in nets:
        indexed, scanned = _index_and_scan(
            net, monkeypatch, lambda net: _outputs(net, (1, 2, 40, 5_000)))
        assert indexed == scanned, net


def test_line_1000_at_its_budget_boundary():
    # one node per marking; the index tests one transition per marking
    net = line(1000)
    assert decide_termination(net, 1001) == Terminating(1001)
    with pytest.raises(BudgetExceededError,
                       match="^tree exceeded 1000 nodes$"):
        decide_termination(net, 1000)


@pytest.mark.parametrize("net", [countdown(4, 4), countdown(5, 5), line(500),
                                 *PAST_THE_CAP[2:]],
                         ids=["countdown4x4", "countdown5x5", "line500",
                              *PAST_THE_CAP_IDS[2:]])
def test_tree_size_counts_root_paths(net):
    """TERMINATING beyond the oracles' cap: the tree has one node per run
    prefix, so `tree_size` is the number of paths from the root in the
    reachable graph, counted without the walk; a net that does not
    terminate has no such count."""
    v = decide_termination(net, 10**40)
    paths = oracles.path_count(net, 10**5)
    if isinstance(v, Terminating):
        assert paths == v.tree_size
    else:
        assert paths is None and verify_pump(net, v)


# sha256 of ert_fields over the corpus in test_ert_byte_stable
ERT_DIGEST = "a4a873a1ad555d956add688ff8f5f1573e4450daa722376593880626ff241569"


def ert_fields(net) -> str:
    """The DOT text and verdict of every tree `build_ert` draws of `net`
    (full and stopped early, in declaration order and shuffled, at three
    budgets), then the verdict of `decide_termination` with and without a
    shuffle; a budget or eligibility error stands for its message."""
    def text(fn):
        try:
            return fn()
        except XpnError as e:
            return f"{type(e).__name__}: {e}"

    def tree(budget, seed, stop_early):
        rng = None if seed is None else random.Random(seed)
        ert = build_ert(net, budget, rng, stop_early)
        return ert_dot(net, ert) + repr(ert.verdict)

    out = [text(lambda: tree(budget, seed, stop_early))
           for budget in (1, 40, 5_000) for seed in (None, 5)
           for stop_early in (False, True)]
    out += [text(lambda: repr(decide_termination(
        net, budget, None if seed is None else random.Random(seed))))
        for budget in (1, 40, 5_000) for seed in (None, 5)]
    return "\n".join(out)


def test_ert_byte_stable():
    rng = random.Random(2017)
    nets = [fuzz.ert_net(rng) for _ in range(300)] + [countdown(3, 2), IDLE]
    h = hashlib.sha256()
    for net in nets:
        h.update(ert_fields(net).encode() + b"\0")
    assert h.hexdigest() == ERT_DIGEST, (
        "the tree or a verdict changed on the seeded corpus; if the change "
        "is intended, declare it in CHANGES.md and update ERT_DIGEST")


def _width_nets():
    """Nets whose entries cross a field width during the walk (127/128
    and 32767/32768), terminating and pumping, a wide net that adds no
    tokens, and wide nets that add tokens."""
    texts = [
        "places: a b\nmarking: a=3 b=120\ntrans t: in a ; out b*5",
        "places: a b\nmarking: a=3 b=32760\ntrans t: in a ; out b*5",
        # the pump opens once the growth has crossed the limit
        "places: c b\nmarking: c=3 b=118\ntrans t: in c ; out b*5\n"
        "trans p: inh c, in b ; out b*2",
        "places: c b\nmarking: c=3 b=32758\ntrans t: in c ; out b*5\n"
        "trans p: inh c, in b ; out b*2",
        # the cut leaf is the first marking past the limit
        "places: b\nmarking: b=126\ntrans g: in b ; out b*3",
        # growth, resets and an inhibited pump on three places
        "places: a b c\nmarking: a=2 b=125 c=32765\n"
        "trans t: in a ; out b*2, c\ntrans r: in b*3, reset c ; out b*4\n"
        "trans s: inh a, in c ; out c*2",
        "places: a b c\nmarking: a=3 b=126\n"
        "trans t: in a ; out b*2\ntrans u: inh a, in b*2 ; out c*3\n"
        "trans v: inh a, inh b, in c ;",
    ]
    nets = [parse_net(text) for text in texts]
    nets.append(line(300))
    n = 150
    places = " ".join(f"p{i}" for i in range(n + 1))
    # one token walks down the line and doubles near its end: terminating
    trans = "".join(
        f"trans t{i}: in p{i} ; out p{i + 1}{'*2' if i == n - 5 else ''}\n"
        for i in range(n))
    nets.append(parse_net(f"places: {places}\nmarking: p0=1\n{trans}"))
    # two tokens walk down the line; three come back, or an inhibited
    # pump grows the last place once the first two are empty
    trans = "".join(f"trans t{i}: in p{i} ; out p{i + 1}\n" for i in range(n))
    nets.append(parse_net(
        f"places: {places}\nmarking: p0=2\n{trans}"
        f"trans z: inh p0, inh p1, in p{n} ; out p{n}*2\n"
        f"trans back: in p{n}*2 ; out p0*3\n"))
    nets.append(parse_net(
        f"places: {places}\nmarking: p0=2\n{trans}"
        f"trans back: in p{n}*2 ; out p0*3\n"))
    return nets


# sha256 of ert_fields over the nets of _width_nets
ERT_WIDTH_DIGEST = "c22609f0cc8d0cdc72223211847894a7163605f8514f8cc5576c79f0fe70236a"


def test_ert_width_byte_stable():
    h = hashlib.sha256()
    for net in _width_nets():
        h.update(ert_fields(net).encode() + b"\0")
    assert h.hexdigest() == ERT_WIDTH_DIGEST, (
        "a tree or a verdict changed on the width corpus; if the change "
        "is intended, declare it in CHANGES.md and update ERT_WIDTH_DIGEST")


@pytest.fixture
def walk_runs(monkeypatch):
    """The field width of each walk at one width (`ert._walk_at`) that
    the entry points run, in the order run."""
    runs = []
    walk_at = xpn_ert._walk_at

    def spy(*args):
        runs.append(args[-1].width)  # the fields, bound last
        return walk_at(*args)
    monkeypatch.setattr(xpn_ert, "_walk_at", spy)
    return runs


def test_the_walk_runs_once_per_width_in_increasing_order(walk_runs):
    # the first seven nets cross 127/128 or 32767/32768 once each; the
    # four wide nets stay in their first fields, and the full trees of
    # the last two pass the budget there
    want = [[8, 16], [16, 32]] * 3 + [[8, 16]] + [[8]] * 4
    nets = _width_nets()
    assert len(nets) == len(want)
    for net, widths in zip(nets, want):
        del walk_runs[:]
        decide_termination(net)
        assert walk_runs == widths, net
        del walk_runs[:]
        try:
            build_ert(net, 5_000, random.Random(3))
        except BudgetExceededError:
            assert widths == [8]
        assert walk_runs == widths, net
