import hashlib
import random
import time

import pytest

import fuzz
import oracles
from xpn.explore import bounded_reach
from xpn.fmt import parse_net, render_net
from xpn.net import (INHIBIT, RESET, BudgetExceededError, Inhibitor, Net,
                     Numeric, Reset, Transfer, Transition, XpnError, classify,
                     successors)
from xpn.transforms import (
    CONST,
    COPY,
    MarkingMap,
    TransformError,
    dlf_to_reach,
    hir_elim,
    hir_elim_all,
    hirct_elim,
    identity_entries,
    reach_to_dlf,
    transfer_hierarchize,
    two_inh_to_reset,
    _deadlock_clauses,
)


def count_arcs(net, cls):
    return sum(1 for t in net.transitions for a in t.pre.values()
               if isinstance(a, cls))


def reset_transitions(net):
    return sum(1 for t in net.transitions
               if any(isinstance(a, Reset) for a in t.pre.values()))


def check_origins(res):
    assert set(res.place_origin) == set(res.net.places)
    assert set(res.trans_origin) == {t.name for t in res.net.transitions}
    assert res.query


def check_equivalent(src, res, src_cap, tgt_cap):
    """Exhaustive two-way check of a reachability-preserving transform:
    every source marking has a reachable representative, and every
    reachable representative-shaped marking comes from a reachable source
    marking."""
    src_graph = oracles.reach_graph(src, src_cap)
    assert src_graph is not None
    tgt_graph = oracles.reach_graph(res.net, tgt_cap)
    assert tgt_graph is not None, "transform blew up the state space"
    maps = (res.forward,) + tuple(res.alt_forwards)
    n = len(src.places)
    for m in src_graph:
        assert any(f(m) in tgt_graph for f in maps), (src, m)
    for x in tgt_graph:
        for f in maps:
            m = oracles.invert_map(f, x, n)
            if m is not None:
                assert m in src_graph, (src, x, m)
    return src_graph, tgt_graph


# ---------------------------------------------------------------------------
# marking maps


def test_marking_map_call():
    f = MarkingMap(((COPY, 1), (CONST, 7), (COPY, 0)))
    assert f((3, 4)) == (4, 7, 3)
    assert MarkingMap(tuple(identity_entries(3)))((5, 6, 7)) == (5, 6, 7)


# ---------------------------------------------------------------------------
# reset elimination


HIR_SRC = parse_net("places: a b\nmarking: a=2 b=5\ntrans t: in a, reset b ; out b")

HIR_OUT = """\
places: a b t_busy lock
marking: a=2 b=5 lock=1
trans t_start: in a*1, in lock*1 ; out t_busy*1
trans t_drain_b: in b*1, in t_busy*1 ; out t_busy*1
trans t_finish: in t_busy*1, inh b ; out b*1, lock*1
"""


def test_hir_elim_frozen():
    res = hir_elim(HIR_SRC)
    assert render_net(res.net) == HIR_OUT
    assert res.forward.entries == ((COPY, 0), (COPY, 1), (CONST, 0), (CONST, 1))
    assert res.goal is None and res.alt_forwards == ()
    check_origins(res)
    # one source step becomes start, drains, finish
    tgt = res.net
    m = res.forward((2, 5))
    for name in ["t_start"] + ["t_drain_b"] * 5 + ["t_finish"]:
        m = tgt.fire(m, name)
    assert m == res.forward(HIR_SRC.fire((2, 5), "t"))


def test_hir_elim_rejections():
    with pytest.raises(TransformError):
        hir_elim(parse_net("places: a b\ntrans t: xfer a->b ;"))
    with pytest.raises(TransformError):
        hir_elim(parse_net("places: a\ntrans t: in a ;"))
    with pytest.raises(TransformError):
        hirct_elim(parse_net("places: a\ntrans t: in a ;"))
    # transfer into a place the same transition resets: unconstrained
    with pytest.raises(TransformError):
        hirct_elim(parse_net("places: a b\ntrans t: xfer a->b, reset b ;"))


def test_hir_elim_equivalence_fuzz():
    rng = random.Random(88)
    for _ in range(30):
        src, _ = fuzz.finite_net(rng, fuzz.hier_ir_net, 120)
        res = hir_elim(src)
        assert reset_transitions(res.net) == reset_transitions(src) - 1
        assert count_arcs(res.net, Transfer) == 0
        check_origins(res)
        check_equivalent(src, res, 120, 20_000)


def test_hirct_elim_equivalence_fuzz():
    rng = random.Random(89)
    seen_transfer = 0
    for _ in range(30):
        src, _ = fuzz.finite_net(rng, fuzz.hirct_net, 120)
        res = hirct_elim(src)
        check_origins(res)
        seen_transfer += count_arcs(src, Transfer) > 0
        check_equivalent(src, res, 120, 20_000)
    assert seen_transfer >= 5


def test_hir_elim_all():
    src = parse_net("""\
places: a b c
marking: a=2 b=1 c=1
trans t1: in a, reset b ; out c
trans t2: in c, reset a ; out b
trans t3: in b ; out a
""")
    res = hir_elim_all(src)
    assert reset_transitions(res.net) == 0
    assert count_arcs(res.net, Reset) == 0
    assert res.forward(src.initial) == res.net.initial
    check_origins(res)
    check_equivalent(src, res, 200, 50_000)
    with pytest.raises(TransformError):
        hir_elim_all(parse_net("places: a\ntrans t: in a ;"))


def test_hir_elim_all_gadgets_keep_their_origins():
    src = parse_net("""\
places: a b c
marking: b=1
trans r1: reset a, in b ; out b
trans t: in b ; out a
trans r2: reset c, in b ; out c
""")
    res = hir_elim_all(src)
    names = [t.name for t in res.net.transitions]
    assert names == ["r1_start", "r1_drain_a", "r1_finish", "t",
                     "r2_start", "r2_drain_c", "r2_finish"]
    assert res.trans_origin == {
        "r1_start": "consumes the numeric pre-arcs of r1 and opens its gadget",
        "r1_drain_a": "discards one token of reset place a",
        "r1_finish": "checks the emptied places and performs the post-arcs "
                     "of r1",
        "t": "original, gated on the lock",
        "r2_start": "consumes the numeric pre-arcs of r2 and opens its gadget",
        "r2_drain_c": "discards one token of reset place c",
        "r2_finish": "checks the emptied places and performs the post-arcs "
                     "of r2"}
    # r1's gadget is gated on r2's lock, and r2's gadget runs under r1's
    # lock as well as its own
    r1_start = res.net.transition("r1_start")
    assert list(r1_start.pre) == ["b", "lock", "lock2"]
    assert res.net.transition("r2_start").pre.keys() == {"b", "lock",
                                                          "lock2"}
    assert res.net.transition("r2_finish").post == {"c": 1, "lock": 1,
                                                    "lock2": 1}


def test_hir_elim_all_fuzz_strictly_decreasing():
    rng = random.Random(90)
    for _ in range(25):
        src, _ = fuzz.finite_net(rng, fuzz.hier_ir_net, 100)
        steps = reset_transitions(src)
        assert steps >= 1
        cur = src
        for k in range(steps):
            cur = hir_elim(cur).net
            assert reset_transitions(cur) == steps - k - 1
        res = hir_elim_all(src)
        assert reset_transitions(res.net) == 0
        assert res.forward(src.initial) == res.net.initial


def test_hir_elim_all_reachability_beyond_the_oracle_cap():
    """bounded_reach(src, M) == bounded_reach(target, forward(M)), both
    definitive, on token-conserving reset nets whose initial marking is
    scaled until the source graph passes the 400-marking oracle cap."""
    rng = random.Random(1996)
    verdicts = {True: 0, False: 0}  # found -> count
    nets = 0
    while nets < 4 or min(verdicts.values()) < 5:
        src = fuzz.hier_ir_net(rng)
        if not fuzz.conserving(src):
            continue
        src = Net(src.places, src.transitions,
                  tuple(rng.randint(4, 10) * x for x in src.initial))
        if oracles.reach_graph(src, 400) is not None:
            continue
        nets += 1
        res = hir_elim_all(src)
        m = src.initial  # a random walk gives a reachable target
        for _ in range(rng.randint(0, 30)):
            succ = successors(src, m)
            if succ:
                m = rng.choice(succ)[1]
        top = max(src.initial)
        for target in (m, *(tuple(rng.randint(0, top) for _ in m)
                            for _ in range(8))):
            # each raises BudgetExceededError unless it is definitive
            want = bounded_reach(src, target, max_steps=200_000)
            got = bounded_reach(res.net, res.forward(target),
                                max_steps=200_000)
            assert got.found == want.found, (src, target)
            verdicts[want.found] += 1


# ---------------------------------------------------------------------------
# deadlock-freedom <-> reachability


DLF_SRC = parse_net("places: a b\nmarking: a=1\ntrans t1: in a*2 ;\ntrans t2: inh b ;")


def test_dlf_to_reach_frozen():
    res = dlf_to_reach(DLF_SRC)
    text = render_net(res.net)
    assert text.startswith("""\
places: a b live goal c0 c0_b c1 c1_a c1_b
marking: a=1 live=1
trans t1: in a*2, in live*1 ; out live*1
trans t2: inh b, in live*1 ; out live*1
trans c0_enter: in live*1 ; out c0*1
""")
    assert "trans c0_check: in c0*1, inh a, inh b, in c0_b*1 ; out goal*1" in text
    assert "trans c1_take_a: in a*1, in c1*1 ; out c1_a*1, c1*1" in text
    assert res.goal == (0, 0, 0, 1, 0, 0, 0, 0, 0)
    assert res.forward.entries[:4] == ((COPY, 0), (COPY, 1), (CONST, 1), (CONST, 0))
    check_origins(res)


def test_dlf_clause_pruning():
    # t1 wants a=0, t2 wants a>=1: contradictory, so no clause and no goal
    n = parse_net("places: a\ntrans t1: in a ;\ntrans t2: inh a ;")
    res = dlf_to_reach(n)
    assert all("goal" not in t.post for t in res.net.transitions)
    # a transition that is never disabled kills every clause
    n = parse_net("places: a\ntrans t: reset a ;")
    res = dlf_to_reach(n)
    assert all("goal" not in t.post for t in res.net.transitions)


def test_dlf_clause_cap_and_rejection():
    with pytest.raises(BudgetExceededError,
                       match="^more than 1 deadlock clauses$"):
        dlf_to_reach(DLF_SRC, clause_cap=1)
    with pytest.raises(TransformError):
        dlf_to_reach(parse_net("places: a b\ntrans t: xfer a->b ;"))


def test_dlf_clauses_of_alike_transitions_are_searched_once():
    # 40 transitions, each disabled by a > 0 or b = 0: three distinct
    # clauses, which a search of every pick sequence would find among 2**40
    net = parse_net("places: a b\n" + "".join(
        f"trans t{i}: inh a, in b ; out b\n" for i in range(40)))
    t0 = time.monotonic()
    res = dlf_to_reach(net, clause_cap=10)
    assert time.monotonic() - t0 < 1
    checks = [t.name for t in res.net.transitions if t.name.endswith("_check")]
    assert checks == ["c0_check", "c1_check", "c2_check"]
    with pytest.raises(BudgetExceededError,
                       match="^more than 2 deadlock clauses$"):
        dlf_to_reach(net, clause_cap=2)
    # no transition at all: one empty clause
    res = dlf_to_reach(parse_net("places: a\n"), clause_cap=1)
    checks = [t.name for t in res.net.transitions if t.name.endswith("_check")]
    assert checks == ["c0_check"]


def test_dlf_clauses_equal_the_naive_enumeration():
    # weights up to 9 on few places, so that many exact values of a place
    # are alike for the transitions after it and their ranges are skipped
    rng = random.Random(2024)
    # t1's exact p1=1 subtree skips states that the search explored
    # before, so its clauses say nothing of the values after it: those
    # must still be searched
    cases = [(parse_net("places: p0 p1\ntrans t0: in p1*2, in p0*3 ;\n"
                        "trans t1: in p1*6 ;\ntrans t2: in p0*4 ;\n"
                        "trans t3: in p1, in p0*4 ;"), 10_000)]
    # the shapes whose huge weights `dlf-to-reach` once tried one value at
    # a time: a later weight that tells only the values below 2 apart, p's
    # values picked over an inhibitor's "at least one", and a subtree
    # that skips a state it completed itself
    cases += [(parse_net(text), cap) for text in (
        "places: p\ntrans t0: in p*12 ;\ntrans t1: in p*12 ;\n"
        "trans t2: in p*2 ;",
        "places: p q\ntrans t0: inh p ;\ntrans t1: in p*12 ;\n"
        "trans t2: in p*2, in q ;\ntrans t3: inh q ;",
        "places: p0 p1\ntrans t0: in p0*8, in p1*12 ;\ntrans t1: inh p1 ;\n"
        "trans t2: in p0*12, inh p1 ;\ntrans t3: in p0 ;")
        for cap in (1, 5, 10_000)]
    for _ in range(1500):
        places = [f"p{i}" for i in range(rng.randint(1, 3))]
        transitions = []
        for j in range(rng.randint(1, 4)):
            pre = {}
            for p in rng.sample(places, rng.randint(1, len(places))):
                r = rng.random()
                pre[p] = (INHIBIT if r < 0.2 else RESET if r < 0.3
                          else Numeric(rng.choice((1, 1, 2, 3, 5, 9))))
            transitions.append(Transition(f"t{j}", pre, {}))
        cases.append((Net(tuple(places), tuple(transitions),
                          (0,) * len(places)),
                      rng.choice((1, 2, 3, 5, 10, 10_000))))
    for net, cap in cases:
        want = oracles.deadlock_clauses(net, cap)
        try:
            got = [list(c.items()) for c in _deadlock_clauses(net, cap)]
        except BudgetExceededError as e:
            assert str(e) == f"more than {cap} deadlock clauses"
            got = "budget"
        if want != "budget":
            want = [list(c.items()) for c in want]
        assert got == want, (net, cap)


def test_dlf_to_reach_fuzz():
    rng = random.Random(91)
    for _ in range(25):
        src, src_graph = fuzz.finite_net(
            rng, lambda r: fuzz.plain_net(r, max_places=3, max_trans=3), 80)
        res = dlf_to_reach(src)
        check_origins(res)
        tgt_graph = oracles.reach_graph(res.net, 40_000)
        assert tgt_graph is not None
        has_deadlock = bool(oracles.deadlocks(src_graph))
        assert (res.goal in tgt_graph) == has_deadlock, (src, has_deadlock)


def test_reach_to_dlf_frozen():
    src = parse_net("places: a b\nmarking: a=2\ntrans t: in a ; out b")
    res = reach_to_dlf(src, (0, 2))
    assert res.net.places == ("a", "b", "gate", "tick", "done")
    assert res.net.initial == (2, 0, 1, 1, 0)
    assert res.goal == (0, 0, 0, 0, 1)
    finish = res.net.transition("finish")
    assert finish.post == {"done": 1}
    names = {t.name for t in res.net.transitions}
    assert {"t", "idle_a", "idle_b", "spin", "finish"} == names
    check_origins(res)


def test_reach_to_dlf_fuzz():
    rng = random.Random(92)
    for _ in range(25):
        src, src_graph = fuzz.finite_net(rng, fuzz.plain_net, 100)
        keys = list(src_graph)
        targets = [rng.choice(keys),
                   tuple(x + 1 for x in
                         [max(m[i] for m in keys) for i in range(len(src.places))])]
        for target in targets:
            res = reach_to_dlf(src, target)
            tgt_graph = oracles.reach_graph(res.net, 20_000)
            assert tgt_graph is not None
            dead = oracles.deadlocks(tgt_graph)
            reachable = target in src_graph
            assert (len(dead) > 0) == reachable, (src, target)
            # the deadlock, when it exists, is unique and is the goal
            assert set(dead) <= {res.goal}


# ---------------------------------------------------------------------------
# two inhibitors -> one reset


def test_two_inh_to_reset_frozen():
    src = parse_net("""\
places: x y
marking: x=1
trans t1: inh y, in x ; out y
trans t2: in y ; out x, y
trans t3: inh y ;
""")
    res = two_inh_to_reset(src)
    assert res.net.places == ("x", "y", "y_copy")
    t1 = res.net.transition("t1")
    assert isinstance(t1.pre["y"], Reset)
    assert t1.post == {"y": 1, "y_copy": 1}
    t2 = res.net.transition("t2")
    assert t2.pre["y_copy"] == t2.pre["y"]
    assert t2.post == {"x": 1, "y": 1, "y_copy": 1}
    # the second inhibitor survives
    assert isinstance(res.net.transition("t3").pre["y"], Inhibitor)
    assert count_arcs(res.net, Inhibitor) == 1
    assert count_arcs(res.net, Reset) == 1
    assert res.forward.entries == ((COPY, 0), (COPY, 1), (COPY, 1))
    check_origins(res)


def test_two_inh_to_reset_rejections():
    with pytest.raises(TransformError):
        two_inh_to_reset(parse_net("places: a b\ntrans t: inh a ;"))
    with pytest.raises(TransformError):
        two_inh_to_reset(parse_net(
            "places: a b c\ntrans t: inh a, inh b, inh c ;"))
    with pytest.raises(TransformError):
        two_inh_to_reset(parse_net(
            "places: a b\ntrans t: inh a, reset b ;\ntrans u: inh b ;"))


def test_two_inh_to_reset_equivalence_fuzz():
    # the target's cheating branch (reset fired on a nonempty place) can
    # grow the copy place without bound, so its state space is explored
    # only up to a slice; the forward direction is checked in lockstep
    rng = random.Random(93)
    for _ in range(40):
        src, src_graph = fuzz.finite_net(rng, fuzz.two_inh_net, 150)
        res = two_inh_to_reset(src)
        check_origins(res)
        tgt = res.net
        for m in src_graph:
            x = res.forward(m)
            for name, m2 in src_graph[m]:
                assert tgt.is_firable(x, name)
                assert tgt.fire(x, name) == res.forward(m2)
        copy_pos = len(tgt.places) - 1
        p2 = next(p for t in src.transitions for p, a in t.pre.items()
                  if isinstance(a, Inhibitor))
        p2_pos = src.place_pos(p2)
        n = len(src.places)
        for x in oracles.reach_set(tgt, 3000):
            # the copy place over-approximates the reset place; equality
            # certifies an honest run
            assert x[copy_pos] >= x[p2_pos]
            m = oracles.invert_map(res.forward, x, n)
            if m is not None:
                assert m in src_graph, (src, x)


# ---------------------------------------------------------------------------
# transfer hierarchization


def test_transfer_hierarchize_frozen():
    src = parse_net("""\
places: p1 p2 p3 p4
marking: p1=2 p2=1
trans t1: xfer p1->p3 ; out p2
trans t2: xfer p2->p4 ;
""")
    res = transfer_hierarchize(src)
    assert res.net.places == ("p1", "p1_alt", "p2", "p3", "p4", "modeA", "modeB")
    cls = classify(res.net)
    assert cls.specials == ("transfer",)
    assert cls.hierarchical == ("transfer",)
    assert len(res.alt_forwards) == 1
    assert res.net.initial == res.forward(src.initial)
    assert res.forward((2, 1, 0, 0)) == (2, 0, 1, 0, 0, 1, 0)
    assert res.alt_forwards[0]((2, 1, 0, 0)) == (0, 2, 1, 0, 0, 0, 1)
    names = {t.name for t in res.net.transitions}
    assert names == {"t1", "t2", "t1_alt", "t2_alt"}
    check_origins(res)


def test_transfer_hierarchize_split_path():
    # the swapping transition consumes from the duplicated place, so it is
    # split into an atomic pair first
    src = parse_net("""\
places: p1 p2 p3
marking: p1=1 p2=2
trans t1: xfer p1->p3 ;
trans t2: in p1, xfer p2->p3 ; out p3
""")
    res = transfer_hierarchize(src)
    assert res.net.places == ("p1", "p1_alt", "p2", "p3", "hold", "mid",
                              "modeA", "modeB")
    assert [t.name for t in res.net.transitions] == [
        "t1", "t2_a", "t2_b", "t1_alt", "t2_a_alt", "t2_b_alt"]
    assert res.forward.entries == (
        (COPY, 0), (CONST, 0), (COPY, 1), (COPY, 2), (CONST, 1), (CONST, 0),
        (CONST, 1), (CONST, 0))
    assert res.alt_forwards[0].entries == (
        (CONST, 0), (COPY, 0), (COPY, 1), (COPY, 2), (CONST, 1), (CONST, 0),
        (CONST, 0), (CONST, 1))
    assert res.net.initial == (1, 0, 2, 0, 1, 0, 1, 0)
    check_origins(res)
    check_equivalent(src, res, 100, 20_000)


def test_transfer_hierarchize_rejections():
    with pytest.raises(TransformError):  # only one transfer arc
        transfer_hierarchize(parse_net("places: a b\ntrans t: xfer a->b ;"))
    with pytest.raises(TransformError):  # same transition
        transfer_hierarchize(parse_net(
            "places: a b c\ntrans t: xfer a->c, xfer b->c ;"))
    with pytest.raises(TransformError):  # same source
        transfer_hierarchize(parse_net(
            "places: a b\ntrans t: xfer a->b ;\ntrans u: xfer a->b ;"))
    with pytest.raises(TransformError):  # swapper transfers into p1
        transfer_hierarchize(parse_net(
            "places: a b\ntrans t: xfer a->b ;\ntrans u: xfer b->a ;"))
    with pytest.raises(TransformError):  # swapper posts into p1
        transfer_hierarchize(parse_net(
            "places: a b c\ntrans t: xfer a->c ;\ntrans u: xfer b->c ; out a"))
    with pytest.raises(TransformError):  # other special kinds present
        transfer_hierarchize(parse_net(
            "places: a b c\ntrans t: xfer a->c ;\ntrans u: xfer b->c, inh c ;"))


def test_transfer_hierarchize_equivalence_fuzz():
    rng = random.Random(94)
    split_seen = 0
    for _ in range(25):
        src, _ = fuzz.finite_net(rng, fuzz.two_transfer_net, 120)
        res = transfer_hierarchize(src)
        cls = classify(res.net)
        assert cls.specials == ("transfer",)
        assert cls.hierarchical == ("transfer",)
        check_origins(res)
        split_seen += "hold" in res.net.places
        check_equivalent(src, res, 120, 40_000)
    assert split_seen >= 1


# ---------------------------------------------------------------------------
# byte stability


PIN_GENERATORS = ("plain_net", "spiced_net", "no_inhibitor_net", "hier_ir_net",
                  "hirct_net", "ert_net", "two_inh_net", "two_transfer_net")
PIN_REDUCTIONS = {
    "hir_elim": hir_elim,
    "hirct_elim": hirct_elim,
    "hir_elim_all": hir_elim_all,
    "dlf_to_reach": dlf_to_reach,
    "reach_to_dlf": lambda net: reach_to_dlf(net, net.initial),
    "two_inh_to_reset": two_inh_to_reset,
    "transfer_hierarchize": transfer_hierarchize,
}
# sha256 of pinned_fields over the corpus in test_reductions_byte_stable
PIN_DIGESTS = {
    "hir_elim":
        "e64836567cd38dc157262022b1b71b8e80732361801767978de85fd01eea4041",
    "hirct_elim":
        "1c157e8c5c8fb8974cbb70b18b71574049f72d8381e39d3e026b346f91788df3",
    "hir_elim_all":
        "f2b7db83fc54450c7c858168796f0feca77e10558944e2465429acb6089d28fc",
    "dlf_to_reach":
        "31d227f611e5479713328919349f4aba4e10379125e0e5095884c242a35ae24d",
    "reach_to_dlf":
        "f25cdd631d057d413d6bbdf9f9672f9288555deccfcdacd8ad3fec3d0f561eb7",
    "two_inh_to_reset":
        "c6c952eff1ef090db7114cd3e9f580712d23e1cfdb4d61902c01053666a67d54",
    "transfer_hierarchize":
        "b4fadf3700c1c7ffdf34219b39e8655c2bd2ef3e64846efc3a23bfd0acb83367",
}


def pinned_fields(reduction, net) -> str:
    """Every output field of one reduction, in order: the rendered net, the
    maps, goal, query and both origin dicts (insertion order included), or
    the error's type and message."""
    try:
        res = reduction(net)
    except XpnError as e:
        return f"{type(e).__name__}: {e}"
    return "\n".join([render_net(res.net), repr(res.forward.entries),
                      repr([m.entries for m in res.alt_forwards]),
                      repr(res.goal), res.query,
                      repr(list(res.place_origin.items())),
                      repr(list(res.trans_origin.items()))])


def test_reductions_byte_stable():
    nets = [getattr(fuzz, gen)(random.Random(seed))
            for gen in PIN_GENERATORS for seed in range(40)]
    digests = {}
    for name, reduction in PIN_REDUCTIONS.items():
        h = hashlib.sha256()
        for net in nets:
            h.update(pinned_fields(reduction, net).encode() + b"\0")
        digests[name] = h.hexdigest()
    assert digests == PIN_DIGESTS, (
        "a reduction's output changed on the seeded corpus; if the change is "
        "intended, declare it in CHANGES.md and update PIN_DIGESTS")


def colliding_names(rng, net):
    """`net` with some places renamed onto the names transfer_hierarchize
    makes (hold, mid, modeA, modeB, <p>_alt of another place) and some
    transitions onto <t>_alt, <t>_a or <t>_b of another transition."""
    places = list(net.places)
    for i in rng.sample(range(len(places)), rng.randint(1, len(places))):
        pool = ["hold", "mid", "modeA", "modeB"] + [
            f"{p}_alt" for j, p in enumerate(places) if j != i]
        places[i] = rng.choice([n for n in pool if n not in places])
    names = [t.name for t in net.transitions]
    for i in rng.sample(range(len(names)), rng.randint(1, len(names))):
        pool = [f"{t}{s}" for j, t in enumerate(names) if j != i
                for s in ("_alt", "_a", "_b")]
        names[i] = rng.choice([n for n in pool if n not in names])
    pmap = dict(zip(net.places, places))
    return Net(places, [
        Transition(name, {pmap[p]: Transfer(pmap[a.target])
                          if isinstance(a, Transfer) else a
                          for p, a in t.pre.items()},
                   {pmap[p]: w for p, w in t.post.items()})
        for name, t in zip(names, net.transitions)], net.initial)


# sha256 of pinned_fields over the corpus in
# test_transfer_hierarchize_colliding_names_byte_stable
COLLISION_DIGEST = (
    "0173f56919fe81c1b95da4be895d9160e83455c5d78fac9030f070d63ba35611")


def test_transfer_hierarchize_colliding_names_byte_stable():
    h = hashlib.sha256()
    split = suffixed = 0
    for seed in range(300):
        rng = random.Random(seed)
        net = colliding_names(rng, fuzz.two_transfer_net(rng))
        h.update(pinned_fields(transfer_hierarchize, net).encode() + b"\0")
        res = transfer_hierarchize(net)
        split += len(res.net.places) == len(net.places) + 5
        new = ({p for p in res.net.places} - set(net.places),
               {t.name for t in res.net.transitions}
               - {t.name for t in net.transitions})
        suffixed += all(any(n[-1].isdigit() for n in ns) for ns in new)
    # the corpus runs the split path, and fresh names step past a taken one
    assert split >= 50 and suffixed >= 50, (split, suffixed)
    assert h.hexdigest() == COLLISION_DIGEST, (
        "transfer_hierarchize's output changed on the colliding-name corpus; "
        "if the change is intended, declare it in CHANGES.md and update "
        "COLLISION_DIGEST")
