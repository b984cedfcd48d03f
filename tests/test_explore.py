import contextlib
import copy
import gc
import hashlib
import io
import operator
import pickle
import random
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

import fuzz
import machines
import oracles
from xpn import cli, explore, packed
from xpn.ert import decide_termination
from xpn.explore import (
    BackwardCoverResult,
    UpwardClosedSet,
    backward_cover,
    bounded_cover,
    bounded_deadlock,
    bounded_reach,
    replay,
)
from xpn.fmt import format_marking, parse_net, render_net
from xpn.net import (BudgetExceededError, Net, NotFirableError, Reset,
                     Transfer, XpnError)

CHAIN = parse_net("""\
places: a b
marking: a=2
trans t: in a ; out b
""")


def test_replay():
    tr = replay(CHAIN, (2, 0), ["t", "t"])
    assert tr.markings == ((2, 0), (1, 1), (0, 2))
    assert tr.transitions == ("t", "t")
    with pytest.raises(NotFirableError):
        replay(CHAIN, (2, 0), ["t", "t", "t"])


def test_bounded_reach_frozen():
    r = bounded_reach(CHAIN, (0, 2))
    assert r.found
    assert r.trace.transitions == ("t", "t")
    assert r.trace.markings[-1] == (0, 2)
    r = bounded_reach(CHAIN, (2, 0))
    assert r.found and r.trace.transitions == ()
    r = bounded_reach(CHAIN, (2, 1))
    assert not r.found and r.trace is None
    assert r.expanded == 3


def test_bounded_cover_frozen():
    assert bounded_cover(CHAIN, (0, 1)).found
    assert bounded_cover(CHAIN, (1, 1)).found
    assert not bounded_cover(CHAIN, (0, 3)).found


def test_bounded_deadlock_frozen():
    r = bounded_deadlock(CHAIN)
    assert r.found and r.trace.markings[-1] == (0, 2)
    loop = parse_net("places: a\nmarking: a=1\ntrans t: in a ; out a")
    assert not bounded_deadlock(loop).found
    # empty-start deadlock is the initial marking itself
    dead = parse_net("places: a\ntrans t: in a ; out a")
    r = bounded_deadlock(dead)
    assert r.found and r.trace.transitions == ()


def test_a_found_trace_is_replayed_after_the_visited_markings_are_freed():
    # a token walking a line of places: the trace holds every visited
    # marking again, so keeping both while it is built doubles the peak
    n = 800
    net = parse_net(f"places: {' '.join(f'p{i}' for i in range(n))}\n"
                    "marking: p0=1\n"
                    + "".join(f"trans t{i}: in p{i} ; out p{i + 1}\n"
                              for i in range(n - 1)))
    # run the search once before measuring, so that the net's plan and
    # base fields, which it keeps, are built: that cost is the net's, not
    # the search's
    bounded_deadlock(net)
    tracemalloc.start()
    try:
        r = bounded_deadlock(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(r.trace.markings) == n
    # each packed marking on the path is released once unpacked: holding
    # them all to the end reads about 1.08 here, releasing them 1.01
    assert peak <= 1.04 * sum(map(sys.getsizeof, r.trace.markings))


def test_an_unexplained_step_of_a_found_path_fails_the_trace(monkeypatch):
    # the search's path is checked step by step by the interpreted rule:
    # (2, 0) -> (0, 2) is no firing of t
    def skip_a_step(net, start, goal, target, max_steps):
        expanded, path, fields = packed._search(net, start, goal, target,
                                                max_steps)
        return expanded, [path[0], path[-1]], fields

    assert len(bounded_reach(CHAIN, (0, 2)).trace.transitions) == 2
    monkeypatch.setattr(explore, "_search", skip_a_step)
    with pytest.raises(AssertionError, match="^trace replay mismatch$"):
        bounded_reach(CHAIN, (0, 2))


def test_budget_exhaustion():
    grower = parse_net("places: a\nmarking: a=1\ntrans t: in a ; out a*2")
    with pytest.raises(BudgetExceededError, match="^expanded=50$"):
        bounded_reach(grower, (0,), max_steps=50)
    for bad in (0, -1):
        with pytest.raises(BudgetExceededError, match="^expanded=0$"):
            bounded_deadlock(grower, max_steps=bad)
    # the step budget is the only one
    for search in (lambda **b: bounded_reach(CHAIN, (0, 2), **b),
                   lambda **b: bounded_cover(CHAIN, (0, 2), **b),
                   lambda **b: bounded_deadlock(CHAIN, **b)):
        with pytest.raises(TypeError):
            search(max_depth=1)


def test_forward_budget_boundary_against_the_oracle():
    """An exhausting search expands each reachable marking exactly once, so
    it answers at max_steps = len(graph) and runs out one step below."""
    rng = random.Random(4242)
    for _ in range(60):
        net, graph = fuzz.finite_net(rng, fuzz.spiced_net, 300)
        size = len(graph)
        maxima = [max(m[i] for m in graph) for i in range(len(net.places))]
        miss = tuple(x + 1 for x in maxima)
        searches = [lambda **b: bounded_reach(net, miss, **b),
                    lambda **b: bounded_cover(net, miss, **b)]
        if not oracles.deadlocks(graph):
            searches.append(lambda **b: bounded_deadlock(net, **b))
        for search in searches:
            assert search().expanded == size, net
            r = search(max_steps=size)
            assert not r.found and r.expanded == size, net
            with pytest.raises(BudgetExceededError,
                               match=f"^expanded={size - 1}$"):
                search(max_steps=size - 1)


def bfs_path(graph, start, hit) -> tuple:
    """The transition names of the path to `hit` that a breadth-first
    search over the oracle graph records: each marking is reached first
    from the earliest expanded marking, by the first transition in
    declaration order."""
    via = {start: None}
    for m, edges in graph.items():  # in the order the markings were found
        for name, m2 in edges:
            via.setdefault(m2, (m, name))
    names = []
    while via[hit] is not None:
        hit, name = via[hit]
        names.append(name)
    return tuple(reversed(names))


def test_search_fuzz_against_exhaustive_oracle():
    rng = random.Random(2024)
    for _ in range(120):
        net, graph = fuzz.finite_net(rng, fuzz.spiced_net, 300)
        keys = list(graph)
        maxima = [max(m[i] for m in keys) for i in range(len(net.places))]

        hit = rng.choice(keys)
        r = bounded_reach(net, hit)
        assert r.found, (net, hit)
        assert r.trace.markings[-1] == hit
        assert replay(net, net.initial, r.trace.transitions).markings[-1] == hit
        assert r.trace.transitions == bfs_path(graph, net.initial, hit)

        miss = tuple(x + 1 for x in maxima)
        r = bounded_reach(net, miss)
        assert not r.found

        below = tuple(rng.randint(0, x) for x in rng.choice(keys))
        r = bounded_cover(net, below)
        assert r.found
        got = r.trace.markings[-1]
        assert all(g >= b for g, b in zip(got, below))

        over = list(rng.choice(keys))
        over[rng.randrange(len(over))] = maxima[0] + maxima[-1] + 1
        r = bounded_cover(net, tuple(over))
        if r.found:
            assert all(g >= b for g, b in
                       zip(r.trace.markings[-1], over))
        else:
            assert not any(all(k[i] >= over[i] for i in range(len(over)))
                           for k in keys)

        r = bounded_deadlock(net)
        dead = oracles.deadlocks(graph)
        assert r.found == bool(dead)
        if r.found:
            assert r.trace.markings[-1] in dead


# ---------------------------------------------------------------------------
# packed markings across field widths


def counter(start, steps, weight=1):
    """t adds `weight` to a, `steps` times; b, a's neighbour field, counts
    the firings left, so a carry out of a's field would show in b."""
    return (f"places: a b\nmarking: a={start} b={steps}\n"
            f"trans t: in b ; out a*{weight}\n")


def fan_in(start, steps):
    """u moves d's tokens to b one at a time, and t transfers b and c into
    a, so a new entry of a sums three old entries."""
    return (f"places: a b c d\nmarking: a={start} c=3 d={steps}\n"
            "trans u: in d ; out b\ntrans t: xfer b->a, xfer c->a ;\n")


@pytest.fixture
def memo_runs(monkeypatch):
    """The (goal, field width) of each memo tier (`packed._memo_loop`)
    that searches build, one per search and width, in the order built."""
    runs = []
    memo_loop = packed._memo_loop

    def spy(plan, rows, pick, goal, fields):
        runs.append((goal, fields.width))
        return memo_loop(plan, rows, pick, goal, fields)
    monkeypatch.setattr(packed, "_memo_loop", spy)
    return runs


def run_search(net, goal, target, budget):
    """(expanded, trace names or None) of a search, or its budget
    message."""
    try:
        if goal == "deadlock":
            r = bounded_deadlock(net, max_steps=budget)
        else:
            fn = bounded_reach if goal == "reach" else bounded_cover
            r = fn(net, target, max_steps=budget)
    except BudgetExceededError as e:
        return str(e)
    return r.expanded, r.trace and r.trace.transitions


def oracle_search(graph, start, goal, target, budget):
    """What `run_search` answers, from the oracle graph: the first hit in
    the order the markings were found."""
    for i, m in enumerate(graph):
        if i >= budget:
            return f"expanded={budget}"
        if (not graph[m] if goal == "deadlock" else m == target
                if goal == "reach" else all(map(operator.ge, m, target))):
            return i + 1, bfs_path(graph, start, m)
    return len(graph), None


# (net, an entry value the fields cannot take below the first widening,
# the field widths the search runs the memo tier at); the limits are
# 2**(width - 1), or lower where a transition sums three entries (fan_in)
# or adds a large post weight
GROWING = [
    (counter(120, 20), 128, {8, 16}),
    (counter(0, 20, weight=100), 128, {8, 16}),
    (fan_in(55, 12), 64, {8, 16}),
    (counter(2**15 - 10, 20), 2**15, {16, 32}),
    (fan_in(2**14 - 10, 12), 2**14, {16, 32}),
    (fan_in(2**30 - 10, 12), 2**30, {32, 64}),
    (counter(2**31 - 10, 20), 2**31, {32, 64}),
    (counter(2**63 - 10, 20), 2**63, {64, 128}),
    (counter(2 * 10**18, 20), 0, {64}),
    (counter(3 * 10**40, 20, weight=10**40), 0, {256}),
    (counter(2**255 - 10, 20), 2**255, {256, 512}),
]
WIDTH_CASES = [
    *GROWING,
    # longer searches, where a passes the limit after 68, 65, 64 and 62
    # expansions of 100 at 8 bits, and after 164, 161, 160, 158 and 50 at
    # 16 bits; each search starts again at the wider fields with a memo
    # of its own
    (counter(60, 100), 128, {8, 16}),
    (counter(63, 100), 128, {8, 16}),
    (counter(64, 100), 128, {8, 16}),
    (counter(66, 100), 128, {8, 16}),
    (counter(2**15 - 164, 200), 2**15, {16, 32}),
    (counter(2**15 - 161, 200), 2**15, {16, 32}),
    (counter(2**15 - 160, 200), 2**15, {16, 32}),
    (counter(2**15 - 158, 200), 2**15, {16, 32}),
    (counter(2**15 - 50, 114), 2**15, {16, 32}),
]


@pytest.mark.parametrize("text, cross, widths", WIDTH_CASES)
def test_packed_search_across_field_widths(text, cross, widths, memo_runs):
    """Verdicts, expansion counts and traces equal the oracle's while the
    fields widen, with targets that fit only after a widening or never,
    and with budgets that stop the search just before and just after the
    first marking that needs wider fields."""
    base = parse_net(text)
    graph = oracles.reach_graph(base, 400)
    top = max(graph)  # the marking with the most tokens in a
    miss = (top[0] + 1,) + top[1:]
    huge = (10**600,) + top[1:]
    low = (-5,) + top[1:]
    # above the first limit but inside its field: a guard-bit subtraction
    # with it would borrow from the next field
    over = (cross + cross // 2,) + (0,) * (len(top) - 1)
    k = next(i for i, m in enumerate(graph) if max(m) >= cross)
    net = parse_net(text)
    assert run_search(net, "reach", miss, 10**6) == (len(graph), None)
    assert {width for _, width in memo_runs} == widths
    for goal, target in [("reach", top), ("reach", miss), ("reach", huge),
                         ("cover", top), ("cover", miss), ("cover", huge),
                         ("cover", low), ("cover", over), ("deadlock", None)]:
        for budget in (10**6, k, k + 1):
            assert run_search(net, goal, target, budget) == oracle_search(
                graph, base.initial, goal, target, budget), (goal, target,
                                                             budget)


def ring_text(n, k):
    """k tokens circling n places, all on p0 at the start."""
    return (f"places: {' '.join(f'p{i}' for i in range(n))}\n"
            f"marking: p0={k}\n"
            + "".join(f"trans t{i}: in p{i} ; out p{(i + 1) % n}\n"
                      for i in range(n)))


def test_each_search_runs_its_own_memo(memo_runs):
    """Every search of a net builds its own memo tier and runs it from its
    first expansion, whatever searches of that net ran before: a repeated
    search answers alike and builds one again, and so do a short search
    and one that its budget stops."""
    runs = memo_runs
    text = ring_text(6, 12)  # 6,188 markings
    net = parse_net(text)
    first = bounded_deadlock(net)
    second = bounded_deadlock(net)
    assert first == second == explore.SearchResult(None, 6188)
    assert runs == [("deadlock", 8)] * 2
    last = (0,) * 5 + (12,)
    reach = bounded_reach(net, last)
    assert reach == bounded_reach(parse_net(text), last)
    assert reach.found and runs == [("deadlock", 8)] * 2 + [("reach", 8)] * 2
    del runs[:]
    short = bounded_reach(net, (10, 2, 0, 0, 0, 0))
    assert short == bounded_reach(parse_net(text), (10, 2, 0, 0, 0, 0))
    assert short.trace.transitions == ("t0", "t0")
    with pytest.raises(BudgetExceededError, match="^expanded=10$"):
        bounded_deadlock(net, max_steps=10)
    assert runs == [("reach", 8)] * 2 + [("deadlock", 8)]


def test_a_dropped_net_frees_its_loop_without_the_collector(monkeypatch):
    """The memo tier's loop, and the memo its closure holds, are in no
    reference cycle: with the cyclic collector off, they die with the
    search that built them, and the net keeps only its plan and base
    fields."""
    refs = []
    memo_loop = packed._memo_loop

    def spy(*args):
        run = memo_loop(*args)
        refs.append(weakref.ref(run))
        return run
    monkeypatch.setattr(packed, "_memo_loop", spy)
    net = parse_net(ring_text(6, 12))
    caches = set(net.__dict__)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert bounded_deadlock(net) == explore.SearchResult(None, 6188)
        (dead,) = refs
        assert dead() is None
    finally:
        if enabled:
            gc.enable()
    assert set(net.__dict__) == caches
    assert net._ops is not None and net._base is not None


def test_nets_pickle_and_copy_before_and_after_searches():
    """A net pickles and copies whatever its caches hold: fresh, with the
    plan and base fields a long search leaves, and after the termination
    walk; each copy equals its source and answers alike."""
    text = ring_text(6, 12)
    fresh, searched, decided = (parse_net(text) for _ in range(3))
    assert bounded_deadlock(searched) == explore.SearchResult(None, 6188)
    assert searched._ops is not None and searched._base is not None
    verdict = decide_termination(decided)
    for net in (fresh, searched, decided):
        for clone in (pickle.loads(pickle.dumps(net)), copy.copy(net),
                      copy.deepcopy(net)):
            assert type(clone) is Net and clone is not net
            assert clone == net and repr(clone) == repr(net)
            assert decide_termination(clone) == verdict
            assert bounded_reach(clone, (0,) * 5 + (12,)) \
                == bounded_reach(fresh, (0,) * 5 + (12,))


# hand nets for the firing table: no places; transfers that swap, chain and
# move a place onto itself, beside a reset place that is posted to; and a
# weight above the limit of 8-bit fields (128), whose transition the
# table leaves out until the fields widen
TABLE_NETS = [
    "places:\ntrans t: ;\n",
    ("places: a b c d\nmarking: a=3 b=2 c=1 d=1\n"
     "trans t: xfer a->b, xfer b->a ;\n"
     "trans u: xfer a->b, xfer b->c, in d ; out a\n"
     "trans v: xfer c->c, in b ; out d\n"
     "trans w: reset a, in c, in b ; out a*2\n"),
    "places: a b c\nmarking: b=75\ntrans t: in b ; out a*2\n"
    "trans u: in a*140 ; out c\n",
]


def test_the_search_equals_the_oracle_on_seeded_and_hand_nets(memo_runs):
    """The search answers as the oracle does, with budgets of the whole
    graph and of half of it, and runs the memo tier in each search: on
    seeded nets with all four arc kinds and on TABLE_NETS."""
    rng = random.Random(2206)
    cases = [fuzz.finite_net(rng, gen, 400)
             for gen in (fuzz.busy_net, fuzz.spiced_net, fuzz.hirct_net,
                         fuzz.two_transfer_net) for _ in range(10)]
    cases += [(net, oracles.reach_graph(net, 400))
              for net in map(parse_net, TABLE_NETS)]
    for base, graph in cases:
        marks = list(graph)
        miss = (max([x for m in marks for x in m], default=0) + 1,) * len(
            base.places)
        for goal, target in [("reach", rng.choice(marks)), ("reach", miss),
                             ("cover", rng.choice(marks)), ("cover", miss),
                             ("deadlock", None)]:
            for budget in (10**6, max(1, len(graph) // 2)):
                want = oracle_search(graph, base.initial, goal, target,
                                     budget)
                net = Net(base.places, base.transitions, base.initial)
                del memo_runs[:]
                assert run_search(net, goal, target, budget) == want, (
                    base, goal, target, budget)
                assert memo_runs


@pytest.fixture
def widened(monkeypatch):
    """The packed markings at which searches widen their fields, each
    asserted to come from fields of 8 bits: no entry in the nets that
    use this needs more than 16, so a wider request comes from a
    successor below 0, which borrows from the next field."""
    wider, codes = packed._Fields.wider, []

    def spy(fields, code):
        assert fields.width < 16, fields.decode(code)
        codes.append(code)
        return wider(fields, code)
    monkeypatch.setattr(packed._Fields, "wider", spy)
    return codes


def test_memo_tier_equals_the_oracle_indexed_or_scanned(monkeypatch,
                                                        memo_runs, widened):
    """The memo tier and the oracle answer every search alike, with every
    table scanned whole or indexed, and every transfer moved by a shift or
    from one unpack of the marking (`_INDEX_COST` at 10**18 or 0), and
    with budgets of the whole graph, of half of it and of one marking: on
    seeded `fuzz.threshold_net`s, where one place carries two weights and
    an inhibitor arc, beside resets, transfer fan-ins, chains and
    self-transfers, and where some searches widen their fields."""
    rng = random.Random(4646)
    nets = 40
    wide = 0
    for _ in range(nets):
        base, graph = fuzz.finite_net(rng, fuzz.threshold_net, 400)
        marks = list(graph)
        miss = (max([x for m in marks for x in m]) + 1,) * len(base.places)
        del widened[:]
        for goal, target in [("reach", rng.choice(marks)), ("reach", miss),
                             ("cover", rng.choice(marks)), ("cover", miss),
                             ("deadlock", None)]:
            for budget in (10**6, max(1, len(graph) // 2), 1):
                want = oracle_search(graph, base.initial, goal, target,
                                     budget)
                for index in (0, 10**18):
                    monkeypatch.setattr(packed, "_INDEX_COST", index)
                    net = Net(base.places, base.transitions, base.initial)
                    del memo_runs[:]
                    assert run_search(net, goal, target, budget) == want, (
                        base, goal, target, budget, index)
                    assert memo_runs
        wide += bool(widened)
    assert 0 < wide < nets


def countdown_text(n, k):
    """n places of k tokens each, every transition taking one from its
    place: (k + 1)**n markings, one deadlock."""
    return (f"places: {' '.join(f'p{i}' for i in range(n))}\n"
            f"marking: {' '.join(f'p{i}={k}' for i in range(n))}\n"
            + "".join(f"trans t{i}: in p{i} ;\n" for i in range(n)))


def past_the_cap():
    """(net, its oracle graph) for nets whose graphs pass the oracles'
    400-marking cap: ring (6,12), 6,188 markings; countdown (5,5), 7,776;
    ring (7,14), 38,760; and the first two seeded `fuzz.threshold_net`s
    of 401 to 6,000 markings with both a reset and a transfer arc
    (1,195 and 895)."""
    cases = [(net, oracles.reach_graph(net, 40_000)) for net in map(
        parse_net, [ring_text(6, 12), countdown_text(5, 5),
                    ring_text(7, 14)])]
    rng = random.Random(4700)
    while len(cases) < 5:
        net = fuzz.threshold_net(rng)
        graph = oracles.reach_graph(net, 6000)
        kinds = {type(arc) for t in net.transitions for arc in t.pre.values()}
        if graph and len(graph) > 400 and {Reset, Transfer} <= kinds:
            cases.append((net, graph))
    return cases


def test_memo_tier_equals_the_oracle_past_the_cap(memo_runs, widened):
    """Beyond the 400-marking cap of the other differentials, every search
    equals the oracle's, searched in declaration order: verdict, expansion
    count and the trace of each hit, with budgets of the whole graph, of
    half of it and of one marking, each search in the memo tier from its
    first expansion.  The threshold nets test p0 at 1 (an inhibitor and a
    weight) and at 2, so a class key must count both thresholds there."""
    rng = random.Random(4747)
    cases = past_the_cap()
    assert [len(graph) for _, graph in cases] == [6188, 7776, 38760, 1195,
                                                  895]
    for base, graph in cases:
        marks = list(graph)
        miss = (max([x for m in marks for x in m]) + 1,) * len(base.places)
        for goal, target in [("reach", rng.choice(marks)), ("reach", miss),
                             ("cover", rng.choice(marks)), ("cover", miss),
                             ("deadlock", None)]:
            for budget in (len(graph), len(graph) // 2, 1):
                net = Net(base.places, base.transitions, base.initial)
                del memo_runs[:]
                assert run_search(net, goal, target, budget) == \
                    oracle_search(graph, base.initial, goal, target,
                                  budget), (base, goal, target, budget)
                assert [g for g, _ in memo_runs][:1] == [goal]


def line_text(n):
    """A token walking n + 1 places, one transition per step."""
    return (f"places: {' '.join(f'p{i}' for i in range(n + 1))}\n"
            "marking: p0=1\n"
            + "".join(f"trans t{i}: in p{i} ; out p{i + 1}\n"
                      for i in range(n)))


@pytest.mark.parametrize("text, last, dead", [
    (ring_text(7, 14), (0,) * 6 + (14,), (False, 38760)),
    (line_text(2500), (0,) * 2500 + (1,), (True, 2501)),
], ids=["ring7x14", "line2500"])
def test_long_searches_compile_once_per_goal(text, last, dead, memo_runs):
    """Each goal's search of a long net builds one memo tier, at the
    first field width, and runs it from its first expansion to its end;
    so does a search that a budget of one marking stops.  The line's
    markings are 626 words wide, so its table is indexed by place."""
    runs = memo_runs
    net = parse_net(text)
    found = [bounded_reach(net, last), bounded_cover(net, last),
             bounded_deadlock(net)]
    assert runs == [("reach", 8), ("cover", 8), ("deadlock", 8)]
    assert found[0] == found[1] and found[0].trace.markings[-1] == last
    assert (found[2].found, found[2].expanded) == dead
    del runs[:]
    with pytest.raises(BudgetExceededError, match="^expanded=1$"):
        bounded_deadlock(parse_net(text), max_steps=1)
    assert runs == [("deadlock", 8)]


def forward_queries():
    """(explore argv after the net, net text) for the byte-stability
    corpus: rings, seeded nets with all four arc kinds, the compiled
    counter machines, and budget runs of 0, 1, 64 and 65 expansions."""
    out = []
    for n, k, hit in ((5, 8, "p2=3 p4=5"), (6, 12, "p1=5 p5=7")):
        ring = ring_text(n, k)
        out += [(("deadlock",), ring), (("reach", "-m", hit), ring),
                (("reach", "-m", f"p0={k - 1}"), ring),
                (("cover", "-m", f"p{n - 1}={k + 1}"), ring)]
        for budget in ("0", "1", "64", "65"):
            out += [(("deadlock", "--max-steps", budget), ring),
                    (("reach", "-m", hit, "--max-steps", budget), ring),
                    (("cover", "-m", f"p{n - 1}={k + 1}", "--max-steps",
                      budget), ring)]
    rng = random.Random(1309)
    for _ in range(200):
        net = fuzz.spiced_net(rng)
        text = render_net(net)
        graph = oracles.reach_graph(net, 200)
        for mode in ("reach", "cover", "deadlock"):
            argv = (mode, "--max-steps", "500")
            if mode != "deadlock":
                if graph is not None and rng.random() < 0.7:
                    m = rng.choice(list(graph))
                else:
                    m = tuple(rng.randint(0, 4) for _ in net.places)
                if mode == "cover":
                    m = tuple(rng.randint(0, x) for x in m)
                argv += ("-m", format_marking(net, m, keep_zeros=False))
            out.append((argv, text))
    return out


def run_explore(tmp_path, argv, text):
    """(exit code, stdout, --trace file or None) of `xpn explore`."""
    path, trace = tmp_path / "n.xpn", tmp_path / "t.tr"
    path.write_text(text)
    trace.unlink(missing_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["explore", argv[0], str(path), *argv[1:],
                         "--trace", str(trace)])
    return code, out.getvalue(), trace.read_text() if trace.exists() else None


# sha256 of the outputs over the corpus in test_forward_byte_stable
FORWARD_DIGEST = "a38c68a00dd5486f9b92d9311632a6f79638cdc33f09f45009ca50a25859c0f0"


def test_forward_byte_stable(tmp_path):
    h = hashlib.sha256()
    for argv, text in forward_queries():
        h.update(repr((argv, run_explore(tmp_path, argv, text))).encode())
    for name, machine, _ in machines.SUITE:
        for flags in ((), ("--transfer",)):
            src, net = tmp_path / "m.cm", tmp_path / "c.xpn"
            src.write_text(machine)
            assert cli.main(["compile", "minsky", str(src), "-o", str(net),
                             *flags]) == 0
            text = net.read_text()
            cover = next(line for line in text.splitlines()
                         if line.startswith("# cover: "))[len("# cover: "):]
            argv = ("cover", "-m", cover, "--max-steps", "60000")
            h.update(repr((name, flags, argv,
                           run_explore(tmp_path, argv, text))).encode())
    assert h.hexdigest() == FORWARD_DIGEST, (
        "a forward search's stdout, exit code or trace changed on the "
        "seeded corpus; if the change is intended, declare it in "
        "CHANGES.md and update FORWARD_DIGEST")


def test_table_index_equals_full_scan(tmp_path, monkeypatch):
    """The search gives the same stdout, expansion counts included, exit
    code and trace whether every table is indexed by place (`_INDEX_COST`
    at 0) or scanned whole: on the `forward_queries` corpus, the compiled
    machines the benchmark reads and line(500)."""
    queries = forward_queries()
    minsky = Path(__file__).resolve().parents[1] / "perfbench" / "minsky"
    for path in sorted(minsky.glob("*.xpn")):
        queries.append((("cover", "-m", "accept=1"), path.read_text()))
    line = line_text(500)
    queries += [(("deadlock",), line), (("reach", "-m", "p500=1"), line),
                (("cover", "-m", "p250=1", "--max-steps", "100"), line)]
    table, picked = packed._table, []

    def spy(plan, fields):
        rows, pick = table(plan, fields)
        picked.append(pick is not None)
        return rows, pick
    monkeypatch.setattr(packed, "_table", spy)
    outs = []
    for cost in (0, 10**18):
        monkeypatch.setattr(packed, "_INDEX_COST", cost)
        del picked[:]
        outs.append([run_explore(tmp_path, argv, text)
                     for argv, text in queries])
        assert any(picked) == (cost == 0)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# backward coverability


def test_backward_cover_frozen_basis():
    r = backward_cover(CHAIN, (0, 2))
    assert isinstance(r, BackwardCoverResult)
    assert r.coverable
    assert r.basis == ((0, 2), (1, 1), (2, 0))


def test_backward_cover_widens_the_set_for_a_weight(monkeypatch):
    # the target fits 8-bit fields, the weight 200 does not: the set is
    # laid out at 8 bits, then again at 16 before the first step
    widths = []
    layout = UpwardClosedSet._layout
    monkeypatch.setattr(UpwardClosedSet, "_layout", lambda ucs, fields: (
        widths.append(fields.width), layout(ucs, fields))[1])
    for a, coverable in ((199, False), (200, True)):
        net = parse_net(f"places: a b\nmarking: a={a}\n"
                        "trans t: in a*200 ; out b\n")
        widths.clear()
        r = backward_cover(net, (0, 1))
        assert widths == [8, 16]
        assert r == BackwardCoverResult(coverable, ((0, 1), (200, 0)))
        assert bounded_cover(net, (0, 1)).found == coverable


def test_backward_cover_rejects_inhibitors():
    n = parse_net("places: a b\ntrans t: inh a ; out b")
    with pytest.raises(XpnError):
        backward_cover(n, (0, 1))
    with pytest.raises(XpnError):
        backward_cover(CHAIN, (0, 1, 0))


def test_backward_cover_unreachable():
    r = backward_cover(CHAIN, (0, 3))
    assert not r.coverable
    # basis stays an antichain
    for a in r.basis:
        for b in r.basis:
            if a != b:
                assert not all(x <= y for x, y in zip(a, b))


def test_backward_cover_agrees_with_forward():
    rng = random.Random(5150)
    for _ in range(120):
        net, graph = fuzz.finite_net(rng, fuzz.no_inhibitor_net, 250)
        keys = list(graph)
        maxima = [max(m[i] for m in keys) for i in range(len(net.places))]
        for _ in range(4):
            if rng.random() < 0.5:
                base = rng.choice(keys)
                target = tuple(rng.randint(0, b) for b in base)
            else:
                target = tuple(rng.randint(0, x + 1) for x in maxima)
            want = any(all(k[i] >= target[i] for i in range(len(target)))
                       for k in keys)
            got = backward_cover(net, target)
            assert got.coverable == want, (net, target)
            oracles.check_basis(net, target, got)
            fwd = bounded_cover(net, target)  # raises if it runs out
            assert fwd.found == want
            # a negative entry asks as much as 0, of either search
            low = tuple(x - 3 if x == 0 else x for x in target)
            if low != target:
                assert backward_cover(net, low) == got, (net, low)
                assert bounded_cover(net, low).found == want


def test_check_basis_rejects_an_element_that_is_no_predecessor():
    # t0 empties p0, so no marking fires to one that covers (1, 1); (0, 2)
    # keeps the basis inductive but is no predecessor of anything in it
    net = parse_net("places: p0 p1\ntrans t0: xfer p0->p1, in p1*1 ;\n")
    target = (1, 1)
    with pytest.raises(AssertionError, match="neither the target"):
        oracles.check_basis(net, target, BackwardCoverResult(
            False, ((0, 2), (1, 1))))
    got = backward_cover(net, target)
    assert (got.coverable, got.basis) == (False, ((1, 1),))
    oracles.check_basis(net, target, got)


def _chain(n, with_reset):
    """The transfer/reset chain: p0 starts with one token, a_i doubles a
    token one place up, x_i transfers a whole place one up (paying a p0
    token for i > 0), and r resets the last place to refill p0."""
    lines = ["places: " + " ".join(f"p{i}" for i in range(n)),
             "marking: p0=1"]
    for i in range(n - 1):
        lines.append(f"trans a{i}: in p{i} ; out p{i + 1}*2")
        pay = ", in p0" if i else ""
        lines.append(f"trans x{i}: xfer p{i}->p{i + 1}{pay} ;")
    if with_reset:
        lines.append(f"trans r: reset p{n - 1} ; out p0")
    return parse_net("\n".join(lines) + "\n")


# without r, a token in p_i weighs 2^(n-1-i) and the weight never grows,
# so the minimal basis is every marking of weight above 2^(n-1)
CHAIN_4_12_BASIS = (
    (0, 0, 0, 12), (0, 0, 1, 10), (0, 0, 2, 8), (0, 0, 3, 6), (0, 0, 4, 4),
    (0, 0, 5, 2), (0, 0, 6, 0), (0, 1, 0, 8), (0, 1, 1, 6), (0, 1, 2, 4),
    (0, 1, 3, 2), (0, 1, 4, 0), (0, 2, 0, 4), (0, 2, 1, 2), (0, 2, 2, 0),
    (0, 3, 0, 0), (1, 0, 0, 4), (1, 0, 1, 2), (1, 0, 2, 0), (1, 1, 0, 0),
    (2, 0, 0, 0))
CHAIN_4_10_BASIS = (
    (0, 0, 0, 10), (0, 0, 1, 8), (0, 0, 2, 6), (0, 0, 3, 4), (0, 0, 4, 2),
    (0, 0, 5, 0), (0, 1, 0, 6), (0, 1, 1, 4), (0, 1, 2, 2), (0, 1, 3, 0),
    (0, 2, 0, 2), (0, 2, 1, 0), (0, 3, 0, 0), (1, 0, 0, 2), (1, 0, 1, 0),
    (1, 1, 0, 0), (2, 0, 0, 0))


@pytest.mark.parametrize("k, basis", [(12, CHAIN_4_12_BASIS),
                                      (10, CHAIN_4_10_BASIS)])
def test_backward_cover_chain_without_reset_pinned(k, basis):
    r = backward_cover(_chain(4, False), (0, 0, 0, k))
    assert not r.coverable
    assert r.basis == basis


def test_backward_cover_chain_with_reset():
    r = backward_cover(_chain(5, True), (0, 0, 0, 0, 12))
    assert r.coverable
    assert r.basis == ((0, 0, 0, 0, 0),)


# chain (4,12) with reset generates 1,537 candidate predecessors: every one
# goes through UpwardClosedSet._add, after the add of the target itself
CHAIN_4_12_CANDIDATES = 1537


def test_backward_cover_budget_counts_candidate_predecessors(monkeypatch):
    net, target = _chain(4, True), (0, 0, 0, 12)
    calls = []
    real = UpwardClosedSet._add

    def counting(self, code):
        calls.append(code)
        return real(self, code)

    monkeypatch.setattr(UpwardClosedSet, "_add", counting)
    r = backward_cover(net, target, max_steps=CHAIN_4_12_CANDIDATES)
    assert r.coverable and r.basis == ((0, 0, 0, 0),)
    assert len(calls) == CHAIN_4_12_CANDIDATES + 1
    budget = CHAIN_4_12_CANDIDATES - 1
    with pytest.raises(BudgetExceededError, match=(
            f"^backward search exceeded {budget} candidate predecessors$")):
        backward_cover(net, target, max_steps=budget)


def _candidate_count(net, target, cap):
    """The fewest candidate predecessors `backward_cover` needs for
    `target`, found by doubling `max_steps` and then bisecting; None if
    that is more than `cap`."""
    lo, hi = -1, 0  # lo runs out, hi is tried next
    while True:
        try:
            backward_cover(net, target, max_steps=hi)
            break
        except BudgetExceededError:
            if hi >= cap:
                return None
            lo, hi = hi, min(max(1, 2 * hi), cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            backward_cover(net, target, max_steps=mid)
            hi = mid
        except BudgetExceededError:
            lo = mid
    return hi


def backward_queries():
    """(net, target) pairs: chains and seeded inhibitor-free nets, each
    with a small target and with one entry at either side of the 8- and
    16-bit field limits and at 10**18, so the fields widen before and
    during a saturation."""
    rng = random.Random(2317)
    nets = [_chain(n, r) for n in (2, 3, 4) for r in (False, True)]
    nets += [fuzz.no_inhibitor_net(random.Random(s)) for s in range(24)]
    for net in nets:
        n = len(net.places)
        yield net, tuple(rng.randint(0, 3) for _ in range(n))
        for big in (127, 128, 32767, 32768, 10**18):
            target = [rng.randint(0, 2) for _ in range(n)]
            target[rng.randrange(n)] = big
            yield net, tuple(target)


# sha256 of the outputs over the corpus in test_backward_byte_stable
BACKWARD_DIGEST = \
    "fee8246e9a293cdc488237ee53560b4bc81073362ad8366c7a270d545599ff41"


def test_backward_byte_stable(tmp_path):
    """`explore backward-cover` at budgets 1 and 5, at the exact number
    of candidates a query needs and at one less; 400 where it needs
    more."""
    cap = 400
    path = tmp_path / "n.xpn"
    h = hashlib.sha256()
    for net, target in backward_queries():
        count = _candidate_count(net, target, cap)
        budgets = ({1, 5, cap} if count is None
                   else {1, 5, count, max(count - 1, 0)})
        path.write_text(render_net(net))
        for budget in sorted(budgets):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["explore", "backward-cover", str(path),
                                 "-m", format_marking(net, target),
                                 "--max-steps", str(budget)])
            h.update(repr((code, out.getvalue())).encode())
    assert h.hexdigest() == BACKWARD_DIGEST, (
        "backward-cover's stdout or exit code changed on the seeded corpus; "
        "if the change is intended, declare it in CHANGES.md and update "
        "BACKWARD_DIGEST")


def _packed_predecessors(net, i, target, room=10**9):
    """The candidates of transition i for `target` from its packed row,
    decoded: in fields fitted, as backward_cover fits them, to the target
    and every weight, and widened as it widens them when a candidate
    would not fit.  Returns (candidates or None, whether the fields
    widened)."""
    plan = net._plan()
    top = max([max(target, default=0)] + [w for op in plan
                                          for _, w in op.numeric + op.posts])
    fields = packed._Fields(len(target), 8, spare=1).fitting(top)
    widened = False
    while True:
        row = explore._rows(plan, fields)[i]
        try:
            codes = explore._predecessors(row, fields.encode(target), room)
        except packed._Widen as e:
            fields = fields.wider(e.args[0])
            widened = True
            continue
        if codes is None:
            return None, widened
        return [fields.decode(c) for c in codes], widened


def _fits_exactly(net, i, target):
    """The packed candidates of transition i for `target` fit a room of
    their own number and no less, and equal the tuple rule's, in order;
    returns that number and whether the fields widened."""
    preds, widened = _packed_predecessors(net, i, target)
    shape = oracles.predecessor_shape(net, net.transitions[i])
    assert preds == oracles.min_predecessors(shape, target), (net, i, target)
    assert _packed_predecessors(net, i, target, len(preds))[0] == preds
    if preds:
        assert _packed_predecessors(net, i, target, len(preds) - 1)[0] \
            is None
    return len(preds), widened


def test_min_predecessors_counts_before_building():
    # spiced nets put up to three transfer arcs into one place; the rows
    # ignore inhibitor arcs, which backward_cover refuses beforehand.
    # Entries of 120-127 make candidates pass the 8-bit limit, so the
    # fields widen between building a row and building its candidates
    rng = random.Random(1996)
    widenings = 0
    for i in range(600):
        net = (fuzz.spiced_net if i % 2 else fuzz.no_inhibitor_net)(rng)
        n = len(net.places)
        for j in range(len(net.transitions)):
            for lo, hi in ((0, 5), (0, 5), (0, 5), (120, 127)):
                target = tuple(rng.randint(lo, hi) for _ in range(n))
                widenings += _fits_exactly(net, j, target)[1]
    assert widenings >= 50, widenings
    # d's demand of 4 split over d and three sources: comb(4 + 3, 3) ways
    fan_in = parse_net("places: a b c d\n"
                       "trans t: xfer a->d, xfer b->d, xfer c->d ; out d\n")
    assert _fits_exactly(fan_in, 0, (0, 0, 0, 5)) == (35, False)


class _FlatUpwardClosedSet:
    """Reference: the basis as a flat list, every operation a full scan."""

    def __init__(self):
        self.basis = []

    def contains(self, m):
        return any(all(x <= y for x, y in zip(b, m)) for b in self.basis)

    def add(self, m):
        if self.contains(m):
            return False
        self.basis = [b for b in self.basis
                      if not all(x <= y for x, y in zip(m, b))]
        self.basis.append(m)
        return True


def test_upward_closed_set_matches_flat_reference():
    # from the eleventh add on, some entries take a scale far past the
    # 8-bit fields a set starts with, so the fields widen mid-sequence, and
    # probes reach three times past every stored entry
    rng = random.Random(1996)
    for _ in range(120):
        n = rng.randint(0, 5)
        scale = rng.choice((300, 70_000, 2**40, 10**25, 10**40))
        ucs, ref = UpwardClosedSet(), _FlatUpwardClosedSet()
        added = []
        for step in range(rng.randint(1, 60)):
            top = scale if step >= 10 and rng.random() < 0.3 else 4
            roll = rng.random()
            if added and roll < 0.2:
                m = rng.choice(added)  # duplicate
            elif added and roll < 0.45:  # dominated by an earlier element
                m = tuple(x + rng.randint(0, 2) for x in rng.choice(added))
            elif added and roll < 0.7:  # dominating an earlier element
                m = tuple(max(0, x - rng.randint(0, 2))
                          for x in rng.choice(added))
            else:
                m = tuple(rng.randint(0, top) for _ in range(n))
            added.append(m)
            assert ucs.add(list(m)) == ref.add(m)
            assert sorted(ucs.basis) == sorted(ref.basis)
            assert len(ucs.basis) == len(ref.basis)
            assert all(ucs.minimal(b) for b in ref.basis)
            for probe in added[-3:] + [
                    tuple(rng.randint(0, rng.choice((5, 3 * scale)))
                          for _ in range(n)) for _ in range(4)]:
                assert ucs.contains(probe) == ref.contains(probe)
                assert ucs.minimal(probe) == (probe in ref.basis)
        assert sorted(UpwardClosedSet(added).basis) == sorted(ref.basis)


def test_backward_cover_widens_in_the_middle_of_its_saturation(monkeypatch):
    """Two a-tokens make one b-token, so covering b=100 needs 200 tokens
    in a: the predecessors pass the 8-bit fields' limit of 127 on the way,
    and the fields widen once the saturation is well under way."""
    widenings = []
    real = packed._Fields.wider
    monkeypatch.setattr(packed._Fields, "wider",
                        lambda self, code: widenings.append(code)
                        or real(self, code))
    text = "places: a b\nmarking: a={}\ntrans t: in a*2 ; out b\n"
    basis = tuple(sorted((2 * k, 100 - k) for k in range(101)))
    for a, coverable in ((199, False), (200, True)):
        net = parse_net(text.format(a))
        widenings.clear()
        assert backward_cover(net, (0, 100)) == BackwardCoverResult(
            coverable, basis)
        assert widenings
        assert bounded_cover(net, (0, 100)).found == coverable


def test_backward_cover_widened_at_any_candidate_answers_alike(monkeypatch):
    """A widening forced before the k-th call for candidates, for every k
    of a run, leaves the verdict and the basis as they were: the set, the
    rows, the element being expanded, the frontier and the fresh elements
    are all packed again."""
    rng = random.Random(2026)
    real = explore._predecessors
    forced = 0
    for _ in range(40):
        net = fuzz.no_inhibitor_net(rng)
        target = tuple(rng.randint(0, 3) for _ in net.places)
        calls = []
        monkeypatch.setattr(explore, "_predecessors",
                            lambda *a: calls.append(1) or real(*a))
        want = backward_cover(net, target)
        for k in range(1, min(len(calls), 60) + 1):
            left = [k]

            def widening(row, x, room):
                left[0] -= 1
                if not left[0]:
                    # a field of the row's head is at or above the limit
                    raise packed._Widen(row[9])
                return real(row, x, room)

            monkeypatch.setattr(explore, "_predecessors", widening)
            assert backward_cover(net, target) == want, (net, target, k)
            forced += 1
        monkeypatch.undo()
    assert forced >= 300, forced


def test_backward_cover_agrees_with_forward_beyond_the_oracle_cap():
    """Nets whose forward graph passes the 400-marking oracle cap, where
    bounded_cover still ends definitively: unbounded nets where it finds
    the target, and token-conserving nets whose initial marking is scaled
    up until their finite graph passes the cap, where it may also
    exhaust."""
    rng = random.Random(1301)
    verdicts = {True: 0, False: 0}  # found -> count
    for _ in range(6000):
        if min(verdicts.values()) >= 20:
            break
        net = fuzz.no_inhibitor_net(rng)
        finite = fuzz.conserving(net)
        if finite:
            if len(net.places) < 3:
                continue
            k = rng.randint(6, 16)
            net = Net(net.places, net.transitions,
                      tuple(k * x for x in net.initial))
        elif verdicts[True] >= 20:
            continue
        if oracles.reach_graph(net, 400) is not None:
            continue
        for _ in range(4 if finite else 1):
            target = tuple(rng.randint(0, 6) for _ in net.places)
            try:
                fwd = bounded_cover(net, target, max_steps=5000)
            except BudgetExceededError:
                continue
            verdicts[fwd.found] += 1
            got = backward_cover(net, target)
            assert got.coverable == fwd.found, (net, target)
            oracles.check_basis(net, target, got)
    assert min(verdicts.values()) >= 20, verdicts
