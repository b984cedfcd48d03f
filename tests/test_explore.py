import random
import sys
import tracemalloc

import pytest

import fuzz
import oracles
from xpn import explore
from xpn.explore import (
    BackwardCoverResult,
    UpwardClosedSet,
    backward_cover,
    bounded_cover,
    bounded_deadlock,
    bounded_reach,
    replay,
)
from xpn.fmt import parse_net
from xpn.net import (BudgetExceededError, Net, NotFirableError, XpnError,
                     _COMPILE_AFTER, successors)

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
    # marking again, so keeping both through the replay doubles the peak
    n = 800
    net = parse_net(f"places: {' '.join(f'p{i}' for i in range(n))}\n"
                    "marking: p0=1\n"
                    + "".join(f"trans t{i}: in p{i} ; out p{i + 1}\n"
                              for i in range(n - 1)))
    # generate the successor function before measuring: its transient
    # cost is the net's, not the search's
    for _ in range(_COMPILE_AFTER + 1):
        successors(net, net.initial)
    tracemalloc.start()
    try:
        r = bounded_deadlock(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(r.trace.markings) == n
    assert peak <= 1.3 * sum(map(sys.getsizeof, r.trace.markings))


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
# backward coverability


def test_backward_cover_frozen_basis():
    r = backward_cover(CHAIN, (0, 2))
    assert isinstance(r, BackwardCoverResult)
    assert r.coverable
    assert r.basis == ((0, 2), (1, 1), (2, 0))


def test_backward_cover_rejects_inhibitors():
    n = parse_net("places: a b\ntrans t: inh a ; out b")
    with pytest.raises(XpnError):
        backward_cover(n, (0, 1))
    with pytest.raises(XpnError):
        backward_cover(CHAIN, (0, 1, 0))
    # a packed basis holds nonnegative ints only
    for bad in ((0, -1), (0, 1.5)):
        with pytest.raises(XpnError, match="negative or non-integer entry"):
            backward_cover(CHAIN, bad)
        with pytest.raises(XpnError, match="negative or non-integer entry"):
            UpwardClosedSet().add(bad)


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
            fwd = bounded_cover(net, target)  # raises if it runs out
            assert fwd.found == want
            for a in got.basis:
                for b in got.basis:
                    if a != b:
                        assert not all(x <= y for x, y in zip(a, b))


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
# goes through UpwardClosedSet.add, after the add of the target itself
CHAIN_4_12_CANDIDATES = 1537


def test_backward_cover_budget_counts_candidate_predecessors(monkeypatch):
    net, target = _chain(4, True), (0, 0, 0, 12)
    calls = []
    real = UpwardClosedSet.add

    def counting(self, m):
        calls.append(m)
        return real(self, m)

    monkeypatch.setattr(UpwardClosedSet, "add", counting)
    r = backward_cover(net, target, max_steps=CHAIN_4_12_CANDIDATES)
    assert r.coverable and r.basis == ((0, 0, 0, 0),)
    assert len(calls) == CHAIN_4_12_CANDIDATES + 1
    budget = CHAIN_4_12_CANDIDATES - 1
    with pytest.raises(BudgetExceededError, match=(
            f"^backward search exceeded {budget} candidate predecessors$")):
        backward_cover(net, target, max_steps=budget)


def _fits_exactly(shape, target):
    """The candidates of `shape` for `target` fit a room of their own
    number and no less; returns that number."""
    preds = explore._min_predecessors(shape, target, 10**9)
    assert explore._min_predecessors(shape, target, len(preds)) == preds
    if preds:
        assert explore._min_predecessors(shape, target, len(preds) - 1) \
            is None
    return len(preds)


def test_min_predecessors_counts_before_building():
    # spiced nets put up to three transfer arcs into one place; the shape
    # ignores inhibitor arcs, which backward_cover refuses beforehand
    rng = random.Random(1996)
    for i in range(600):
        net = (fuzz.spiced_net if i % 2 else fuzz.no_inhibitor_net)(rng)
        n = len(net.places)
        for op in net._plan():
            shape = explore._predecessor_shape(n, op)
            for _ in range(3):
                _fits_exactly(shape, tuple(rng.randint(0, 5) for _ in range(n)))
    # d's demand of 4 split over d and three sources: comb(4 + 3, 3) ways
    fan_in = parse_net("places: a b c d\n"
                       "trans t: xfer a->d, xfer b->d, xfer c->d ; out d\n")
    shape = explore._predecessor_shape(4, fan_in._plan()[0])
    assert _fits_exactly(shape, (0, 0, 0, 5)) == 35


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
            assert backward_cover(net, target).coverable == fwd.found, \
                (net, target)
    assert min(verdicts.values()) >= 20, verdicts
