"""Seeded random net generators shared by the test modules.  Every
generator takes a random.Random so a failing case can be replayed from
its seed alone."""

import oracles
from xpn.net import INHIBIT, Inhibitor, Net, Numeric, RESET, Transfer, Transition


def finite_net(rng, gen, cap, tries=400):
    """Draw from `gen` until the full reachable graph fits under `cap`
    markings; returns (net, graph).  The retry loop is a resource guard,
    the drawn nets are still checked exhaustively."""
    for _ in range(tries):
        net = gen(rng)
        graph = oracles.reach_graph(net, cap)
        if graph is not None:
            return net, graph
    raise AssertionError(f"no net under {cap} markings in {tries} draws")


def conserving(net):
    """No transition puts back more tokens than its numeric arcs take, so
    the token total never grows and the reachable graph is finite."""
    return all(sum(t.post.values()) <= sum(a.weight for a in t.pre.values()
                                           if isinstance(a, Numeric))
               for t in net.transitions)


def plain_net(rng, min_places=2, max_places=4, max_trans=4):
    n = rng.randint(min_places, max_places)
    places = [f"p{i}" for i in range(n)]
    transitions = []
    for j in range(rng.randint(1, max_trans)):
        pre = {p: Numeric(rng.randint(1, 2))
               for p in rng.sample(places, rng.randint(1, min(2, n)))}
        post = {p: rng.randint(1, 2)
                for p in rng.sample(places, rng.randint(0, min(2, n)))}
        transitions.append(Transition(f"t{j}", pre, post))
    initial = tuple(rng.randint(0, 2) for _ in places)
    return Net(tuple(places), tuple(transitions), initial)


def spiced_net(rng):
    """All arc kinds mixed freely; used for parser, classifier and DOT
    fuzzing where only well-formedness matters."""
    n = rng.randint(2, 5)
    places = [f"p{i}" for i in range(n)]
    transitions = []
    for j in range(rng.randint(1, 5)):
        pre = {}
        for p in rng.sample(places, rng.randint(0, min(3, n))):
            kind = rng.randrange(4)
            if kind == 0:
                pre[p] = Numeric(rng.randint(1, 3))
            elif kind == 1:
                pre[p] = INHIBIT
            elif kind == 2:
                pre[p] = RESET
            else:
                pre[p] = Transfer(rng.choice(places))
        post = {p: rng.randint(1, 3)
                for p in rng.sample(places, rng.randint(0, min(2, n)))}
        transitions.append(Transition(f"t{j}", pre, post))
    initial = tuple(rng.randint(0, 3) for _ in places)
    return Net(tuple(places), tuple(transitions), initial)


def no_inhibitor_net(rng):
    """Numeric, reset and transfer arcs only; backward coverability
    accepts these."""
    n = rng.randint(2, 4)
    places = [f"p{i}" for i in range(n)]
    transitions = []
    for j in range(rng.randint(1, 4)):
        pre = {}
        for p in rng.sample(places, rng.randint(1, min(2, n))):
            kind = rng.randrange(4)
            if kind == 0:
                pre[p] = RESET
            elif kind == 1:
                pre[p] = Transfer(rng.choice(places))
            else:
                pre[p] = Numeric(rng.randint(1, 2))
        post = {p: rng.randint(1, 2)
                for p in rng.sample(places, rng.randint(0, min(2, n)))}
        transitions.append(Transition(f"t{j}", pre, post))
    initial = tuple(rng.randint(0, 2) for _ in places)
    return Net(tuple(places), tuple(transitions), initial)


def hier_ir_net(rng, need_reset=True):
    """Hierarchical inhibitor+reset net: each transition's special arcs
    occupy a prefix of the place order, so every special place sits above
    special places only."""
    n = rng.randint(2, 4)
    places = [f"p{i}" for i in range(n)]
    transitions = []
    have_reset = False
    for j in range(rng.randint(1, 3)):
        pre = {}
        span = rng.randint(0, min(2, n))
        for i in range(span):
            if rng.random() < 0.5:
                pre[places[i]] = RESET
                have_reset = True
            else:
                pre[places[i]] = INHIBIT
        for p in rng.sample(places[span:], rng.randint(0, min(2, n - span))):
            pre[p] = Numeric(rng.randint(1, 2))
        if not pre:
            pre[places[-1]] = Numeric(1)
        post = {p: rng.randint(1, 2)
                for p in rng.sample(places, rng.randint(0, 2))}
        transitions.append(Transition(f"t{j}", pre, post))
    if need_reset and not have_reset:
        t0 = transitions[0]
        pre = dict(t0.pre)
        pre[places[0]] = RESET
        transitions[0] = Transition(t0.name, pre, t0.post)
    initial = tuple(rng.randint(0, 2) for _ in places)
    return Net(tuple(places), tuple(transitions), initial)


def hirct_net(rng):
    """Hierarchical net mixing inhibitor, reset and constrained transfer
    arcs: specials occupy a place-order prefix and transfer targets sit
    outside it, so the target carries no special arc on that transition."""
    n = rng.randint(3, 4)
    places = [f"p{i}" for i in range(n)]
    transitions = []
    have_special = False
    for j in range(rng.randint(1, 3)):
        pre = {}
        span = rng.randint(0, 2)
        for i in range(span):
            kind = rng.randrange(3)
            if kind == 0:
                pre[places[i]] = INHIBIT
            elif kind == 1:
                pre[places[i]] = RESET
                have_special = True
            else:
                pre[places[i]] = Transfer(rng.choice(places[span:]))
                have_special = True
        for p in rng.sample(places[span:], rng.randint(0, min(2, n - span))):
            pre[p] = Numeric(rng.randint(1, 2))
        if not pre:
            pre[places[-1]] = Numeric(1)
        post = {p: rng.randint(1, 2)
                for p in rng.sample(places, rng.randint(0, 2))}
        transitions.append(Transition(f"t{j}", pre, post))
    if not have_special:
        t0 = transitions[0]
        pre = dict(t0.pre)
        pre[places[0]] = rng.choice([RESET, Transfer(places[-1])])
        transitions[0] = Transition(t0.name, pre, t0.post)
    initial = tuple(rng.randint(0, 2) for _ in places)
    return Net(tuple(places), tuple(transitions), initial)


def ert_net(rng):
    """Inhibitor/reset nets whose inhibitor pre-places form a prefix per
    transition (tree-decider eligible), biased toward small run trees."""
    n = rng.randint(2, 4)
    places = [f"p{i}" for i in range(n)]
    transitions = []
    for j in range(rng.randint(1, 3)):
        pre = {}
        for i in range(rng.randint(0, min(2, n))):
            pre[places[i]] = INHIBIT
        for p in rng.sample(places, min(len(places), rng.randint(1, 2))):
            if p not in pre:
                pre[p] = RESET if rng.random() < 0.25 else Numeric(rng.randint(1, 2))
        if not any(isinstance(a, Numeric) for a in pre.values()):
            free = [p for p in places if p not in pre]
            if not free:
                continue
            pre[rng.choice(free)] = Numeric(1)
        post = {}
        if rng.random() < 0.75:
            post = {p: 1 for p in rng.sample(places, rng.randint(0, 2))}
        transitions.append(Transition(f"t{j}", pre, post))
    if not transitions:
        transitions.append(Transition("t0", {places[0]: Numeric(1)}, {}))
    initial = tuple(rng.randint(0, 2) for _ in places)
    return Net(tuple(places), tuple(transitions), initial)


def ert_grow_net(rng):
    """Tree-decider eligible nets that add tokens: inhibitor pre-places form
    a prefix as in `ert_net`, post weights run from 1 to 3, and one
    transition puts back more than its numeric arcs take, by weight and
    not by arc count, so the termination walk must scan its ancestors.
    The first place mostly starts empty and the others marked, so most
    roots have children."""
    n = rng.randint(2, 4)
    places = [f"p{i}" for i in range(n)]
    transitions = []
    for j in range(rng.randint(2, 4)):
        pre = {places[i]: INHIBIT for i in range(rng.choice((0, 0, 1, 2)))
               if i < n - 1}
        free = [p for p in places if p not in pre]
        for p in rng.sample(free, min(len(free), rng.randint(1, 2))):
            pre[p] = RESET if rng.random() < 0.2 else Numeric(rng.choice((1, 1, 2)))
        if not any(isinstance(a, Numeric) for a in pre.values()):
            pre[rng.choice(free)] = Numeric(1)
        post = {p: rng.randint(1, 3)
                for p in rng.sample(places, rng.randint(0, 2))}
        transitions.append(Transition(f"t{j}", pre, post))
    j = rng.randrange(len(transitions))
    t = transitions[j]
    post = dict(t.post)
    short = sum(a.weight for a in t.pre.values() if isinstance(a, Numeric)) \
        + 1 - sum(post.values())
    if short > 0:
        p = rng.choice(sorted(post) or places)
        post[p] = post.get(p, 0) + short
    transitions[j] = Transition(t.name, t.pre, post)
    initial = (rng.choice((0, 0, 1)), *(rng.randint(1, 3) for _ in places[1:]))
    return Net(tuple(places), tuple(transitions), initial)


def ert_flow_net(rng, tokens=(8, 12)):
    """Tree-decider eligible nets that add no tokens, on 5 or 6 places
    holding `tokens` (from, to) tokens, p0 empty: most transitions put
    back all the tokens their numeric arcs take, so the graph is finite,
    with 8 to 12 tokens often past the oracles' 400-marking cap."""
    places = [f"p{i}" for i in range(rng.randint(5, 6))]
    transitions = []
    for j in range(rng.randint(4, 7)):
        pre = {places[i]: INHIBIT
               for i in range(rng.choice((0, 0, 0, 0, 1, 1, 2)))}
        free = [p for p in places if p not in pre]
        for p in rng.sample(free, rng.randint(1, 2)):
            pre[p] = Numeric(rng.choice((1, 1, 1, 2)))
        rest = [p for p in places if p not in pre]
        if rest and rng.random() < 0.15:
            pre[rng.choice(rest)] = RESET
        taken = sum(a.weight for a in pre.values() if isinstance(a, Numeric))
        post = {}
        for _ in range(taken if rng.random() < 0.8 else rng.randint(0, taken)):
            q = rng.choice(places)
            post[q] = post.get(q, 0) + 1
        transitions.append(Transition(f"t{j}", pre, post))
    initial = [0] * len(places)
    for _ in range(rng.randint(*tokens)):
        initial[rng.randint(1, len(places) - 1)] += 1
    return Net(tuple(places), tuple(transitions), tuple(initial))


def two_inh_net(rng):
    """A plain net plus exactly two inhibitor pre-arcs."""
    net = plain_net(rng, min_places=2, max_places=4, max_trans=4)
    slots = [(j, p) for j, t in enumerate(net.transitions) for p in net.places]
    transitions = list(net.transitions)
    for j, p in rng.sample(slots, 2):
        t = transitions[j]
        pre = dict(t.pre)
        pre[p] = INHIBIT
        transitions[j] = Transition(t.name, pre, t.post)
    out = Net(net.places, tuple(transitions), net.initial)
    assert sum(1 for t in out.transitions for a in t.pre.values()
               if isinstance(a, Inhibitor)) == 2
    return out


def two_transfer_net(rng):
    """A plain net plus exactly two transfer arcs on distinct transitions
    with distinct sources, in the shape the hierarchizer accepts."""
    while True:
        net = plain_net(rng, min_places=3, max_places=4, max_trans=4)
        if len(net.transitions) < 2:
            continue
        i1, i2 = sorted(rng.sample(range(len(net.transitions)), 2))
        p1, p2 = rng.sample(net.places, 2)
        p3 = rng.choice(net.places)
        p4 = rng.choice([p for p in net.places if p != p1])
        transitions = list(net.transitions)

        t1 = transitions[i1]
        pre1 = dict(t1.pre)
        pre1[p1] = Transfer(p3)
        transitions[i1] = Transition(t1.name, pre1, t1.post)

        t2 = transitions[i2]
        pre2 = dict(t2.pre)
        pre2[p2] = Transfer(p4)
        post2 = {p: w for p, w in t2.post.items() if p != p1}
        transitions[i2] = Transition(t2.name, pre2, post2)
        return Net(net.places, tuple(transitions), net.initial)


def busy_net(rng):
    """All arc kinds on 4 or 5 places holding 6 to 8 tokens, each post
    putting back at most the tokens its numeric arcs take, and some
    transitions with no numeric arc and no post: finite, with graphs of
    up to hundreds of markings, where a search may switch to its
    generated loop."""
    places = [f"p{i}" for i in range(rng.randint(4, 5))]
    transitions = []
    for j in range(rng.randint(3, 7)):
        pre = {p: Numeric(rng.randint(1, 2))
               for p in rng.sample(places, rng.choice((0, 1, 1, 2)))}
        free = [p for p in places if p not in pre]
        if rng.random() < 0.7:
            pre[rng.choice(free)] = rng.choice(
                [INHIBIT, RESET, Transfer(rng.choice(places))])
        post = {}
        taken = sum(a.weight for a in pre.values() if isinstance(a, Numeric))
        for _ in range(rng.randint(min(taken, 1), taken)):
            q = rng.choice(places)
            post[q] = post.get(q, 0) + 1
        transitions.append(Transition(f"t{j}", pre, post))
    initial = [0] * len(places)
    for _ in range(rng.randint(6, 8)):
        initial[rng.randrange(len(places))] += 1
    return Net(tuple(places), tuple(transitions), tuple(initial))
