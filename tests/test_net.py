import io
import operator
import random
import re
import tokenize

import pytest

import fuzz
import oracles
from xpn import packed
from xpn.ert import transition_index
from xpn.explore import (
    BackwardCoverResult,
    UpwardClosedSet,
    backward_cover,
    bounded_cover,
    bounded_reach,
)
from xpn.fmt import parse_net, render_net
from xpn.net import (
    INHIBIT,
    KIND_ORDER,
    InvalidNetError,
    Net,
    NotFirableError,
    Numeric,
    RESET,
    Transfer,
    Transition,
    UnknownTransitionError,
    XpnError,
    BudgetExceededError,
    classify,
    fire,
    has_errors,
    is_firable,
    replay,
    require_valid,
    successors,
    validate,
)
from xpn.packed import _search, _search_source
from xpn.transforms import reach_to_dlf


def net_of(places, transitions, initial):
    return Net(tuple(places), tuple(transitions), tuple(initial))


# ---------------------------------------------------------------------------
# firing semantics


def test_numeric_fire_and_enabling():
    n = net_of(["a", "b"], [Transition("t", {"a": Numeric(2)}, {"b": 3})], [5, 0])
    assert is_firable(n, (5, 0), "t")
    assert fire(n, (5, 0), "t") == (3, 3)
    assert not is_firable(n, (1, 0), "t")
    with pytest.raises(NotFirableError):
        fire(n, (1, 0), "t")


def test_inhibitor_blocks_but_never_consumes():
    n = net_of(["a", "b"], [Transition("t", {"a": INHIBIT}, {"b": 1})], [0, 0])
    assert is_firable(n, (0, 7), "t")
    assert fire(n, (0, 7), "t") == (0, 8)
    assert not is_firable(n, (1, 0), "t")


def test_reset_needs_no_tokens_and_post_lands_after():
    n = net_of(["p"], [Transition("t", {"p": RESET}, {"p": 2})], [5])
    assert is_firable(n, (0,), "t")
    # reset empties first, the post arrives afterwards
    assert fire(n, (5,), "t") == (2,)
    assert fire(n, (0,), "t") == (2,)


def test_transfer_moves_everything():
    n = net_of(["a", "b"], [Transition("t", {"a": Transfer("b")}, {})], [4, 1])
    assert is_firable(n, (0, 0), "t")  # transfers impose no enabling bound
    assert fire(n, (4, 1), "t") == (0, 5)


def test_transfer_snapshot_after_numeric_subtraction():
    t = Transition("t", {"a": Numeric(2), "b": Transfer("c")}, {})
    n = net_of(["a", "b", "c"], [t], [5, 3, 0])
    assert fire(n, (5, 3, 0), "t") == (3, 0, 3)
    n2 = net_of(["a", "b"],
                [Transition("u", {"a": Numeric(2)}, {}),
                 Transition("v", {"a": Transfer("b")}, {})], [5, 0])
    assert fire(n2, (5, 0), "u") == (3, 0)
    assert fire(n2, (5, 0), "v") == (0, 5)


def test_transfers_never_chain():
    # a -> b and b -> c in one step: b receives a's tokens, c receives
    # b's original tokens, nothing flows a -> c
    t = Transition("t", {"a": Transfer("b"), "b": Transfer("c")}, {})
    n = net_of(["a", "b", "c"], [t], [2, 3, 1])
    assert fire(n, (2, 3, 1), "t") == (0, 2, 4)


def test_transfer_swap():
    t = Transition("t", {"a": Transfer("b"), "b": Transfer("a")}, {})
    n = net_of(["a", "b"], [t], [2, 3])
    assert fire(n, (2, 3), "t") == (3, 2)


def test_reset_then_incoming_transfer():
    # x is reset in the same step that y moves onto it: y's snapshot wins
    t = Transition("t", {"x": RESET, "y": Transfer("x")}, {})
    n = net_of(["x", "y"], [t], [4, 3])
    assert fire(n, (4, 3), "t") == (3, 0)


def test_self_transfer_is_noop():
    t = Transition("t", {"a": Transfer("a")}, {"b": 1})
    n = net_of(["a", "b"], [t], [5, 0])
    assert fire(n, (5, 0), "t") == (5, 1)
    codes = [d.code for d in validate(n)]
    assert codes == ["self-transfer"]
    require_valid(n)  # warnings never block


def test_successors_in_declaration_order():
    ts = [
        Transition("u", {"a": Numeric(1)}, {}),
        Transition("v", {"a": Numeric(1)}, {"b": 1}),
        Transition("w", {"b": Numeric(1)}, {}),
    ]
    n = net_of(["a", "b"], ts, [1, 0])
    assert successors(n, (1, 0)) == [("u", (0, 0)), ("v", (0, 1))]
    assert n.successors((0, 1)) == [("w", (0, 0))]


@pytest.mark.parametrize("places, t, code", [
    (["a", "b"], Transition("t", {"a": Numeric(-1)}, {"b": 1}),
     "negative-weight"),
    (["a", "a"], Transition("t", {"a": Numeric(1)}, {"a": 2}),
     "duplicate-place"),
    (["a", "b"], Transition("t", {"ghost": Numeric(1)}, {"b": 1}),
     "unknown-place"),
    (["a", "b"], Transition("t", {}, {"ghost": 1}), "unknown-place"),
    (["a", "b"], Transition("t", {"a": 5}, {}), "bad-arc"),
    (["a", "b"], Transition("t", {"a": Numeric(1.5)}, {}),
     "non-integer-weight"),
    (["a", "b"], Transition("t", {"a": Numeric("x")}, {}),
     "non-integer-weight"),
    (["a", "b"], Transition("t", {}, {"b": "2"}), "non-integer-weight"),
])
def test_invalid_nets_can_be_validated_but_not_fired(places, t, code):
    n = net_of(places, [t], [1, 1])
    assert code in codes_of(n)
    for step in (lambda: fire(n, (1, 1), "t"),
                 lambda: is_firable(n, (1, 1), "t"),
                 lambda: successors(n, (1, 1))):
        with pytest.raises(InvalidNetError) as e:
            step()
        assert [d.code for d in e.value.errors] == [
            d.code for d in validate(n) if d.severity == "error"]


def test_marking_helpers_and_errors():
    n = net_of(["a", "b"], [Transition("t", {"a": Numeric(1)}, {})], [0, 0])
    assert n.marking({"b": 2}) == (0, 2)
    assert n.marking() == (0, 0)
    assert n.as_dict((1, 2)) == {"a": 1, "b": 2}
    with pytest.raises(XpnError, match="^unknown place 'zzz'$"):
        n.marking({"zzz": 1})
    with pytest.raises(XpnError, match="^unknown place 'zzz'$"):
        n.place_pos("zzz")
    with pytest.raises(UnknownTransitionError,
                       match="^unknown transition 'nope'$"):
        n.transition("nope")
    with pytest.raises(UnknownTransitionError):
        fire(n, (0, 0), "nope")
    with pytest.raises(XpnError):
        fire(n, (0, 0, 0), "t")
    with pytest.raises(XpnError):
        is_firable(n, (0,), "t")


# every public entry point that takes a marking: its name, what the
# marking is to it (a state, or a search's target, whose entries may be
# negative) and a call
MARKED = parse_net("""\
places: a b
marking: a=2
trans t: in a ; out b
trans r: in b, reset a ; out b
""")
ENTRY_POINTS = {
    "fire": ("state", lambda m: fire(MARKED, m, "t")),
    "is_firable": ("state", lambda m: is_firable(MARKED, m, "t")),
    "successors": ("state", lambda m: successors(MARKED, m)),
    "replay": ("state", lambda m: replay(MARKED, m, ["t", "r"])),
    "replay-nothing": ("state", lambda m: replay(MARKED, m, [])),
    "Net.fire": ("state", lambda m: MARKED.fire(m, "r")),
    "Net.is_firable": ("state", lambda m: MARKED.is_firable(m, "r")),
    "Net.successors": ("state", lambda m: MARKED.successors(m)),
    "Net.as_dict": ("target", lambda m: MARKED.as_dict(m)),
    "reach_to_dlf": ("state", lambda m: reach_to_dlf(MARKED, m)),
    "UpwardClosedSet.add": (
        "state", lambda m: UpwardClosedSet([(1, 2)]).add(m)),
    "UpwardClosedSet.contains": (
        "state", lambda m: UpwardClosedSet([(1, 2)]).contains(m)),
    "UpwardClosedSet.minimal": (
        "state", lambda m: UpwardClosedSet([(1, 2)]).minimal(m)),
    "bounded_reach": ("target", lambda m: bounded_reach(MARKED, m)),
    "bounded_cover": ("target", lambda m: bounded_cover(MARKED, m)),
    "backward_cover": ("target", lambda m: backward_cover(MARKED, m)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_checks_a_marking_alike(entry):
    kind, call = ENTRY_POINTS[entry]
    # one check in `net` (`_target`, and `_marking` for a state) words
    # every fault alike, wherever the marking comes in
    bad = [((0,), "has 1 entries for 2 places"),
           ((0, 1, 0), "has 3 entries for 2 places"),
           ((1.5, 0), "{} has a non-integer entry"),
           ((0, "1"), "{} has a non-integer entry"),
           ((None, 0), "{} has a non-integer entry"),
           ((2.5, -1), "{} has a non-integer entry")]
    if kind == "state":
        bad += [((-1, 0), "{} has a negative entry"),
                ((0, -4), "{} has a negative entry")]
    for m, why in bad:
        with pytest.raises(XpnError, match=(
                "^" + re.escape("marking " + why.format(m)) + "$")):
            call(m)
        with pytest.raises(XpnError):
            call(list(m))
    call([1, 1])  # any sequence of ints is a marking
    if kind == "target":
        call((-1, 0))


def test_the_marking_check_by_example():
    # the firing functions compute on markings in N^P only
    n = MARKED
    with pytest.raises(XpnError, match=r"^marking \(1\.5, 0\) has a non"):
        fire(n, (1.5, 0), "t")
    with pytest.raises(XpnError, match=r"^marking \(-4, 0\) has a neg"):
        fire(n, (-4, 0), "r")
    with pytest.raises(XpnError, match=r"^marking \(2\.5, -1\) has a non"):
        successors(n, (2.5, -1))
    # a marking built from counts is checked as it is built
    for counts, why in (({"a": 1.5}, "(1.5, 0) has a non-integer"),
                        ({"a": -1}, "(-1, 0) has a negative"),
                        ({"a": None}, "(None, 0) has a non-integer")):
        with pytest.raises(XpnError, match=(
                "^" + re.escape(f"marking {why} entry") + "$")):
            n.marking(counts)
    # a search's target may hold a negative entry: every marking covers
    # it as it covers 0 there, and none reaches it
    assert bounded_cover(n, (-1, 0)).trace.transitions == ()
    assert not bounded_reach(n, (-1, 3)).found
    assert backward_cover(n, (-1, 0)) == BackwardCoverResult(True, ((0, 0),))
    assert backward_cover(n, (-7, 2)) == backward_cover(n, (0, 2))
    # an empty set holds nothing, and knows no length yet, but checks a
    # probe's entries as `add` does; a probe entry past the set's fields
    # lays the set out again, in wider fields
    for m in ((1.5, 2), (-1, 2)):
        with pytest.raises(XpnError, match=r"^marking \(.*\) has a n"):
            UpwardClosedSet().contains(m)
        with pytest.raises(XpnError, match=r"^marking \(.*\) has a n"):
            UpwardClosedSet().minimal(m)
    assert not UpwardClosedSet().contains((1, 2, 3))
    assert not UpwardClosedSet().minimal((1, 2, 3))
    ucs = UpwardClosedSet([(1, 2)])
    assert ucs.contains((2, 10**30)) and not ucs.minimal((2, 10**30))
    assert ucs._fields.limit > 10**30
    assert ucs.basis == [(1, 2)]
    assert ucs.contains((1, 2)) and ucs.minimal([1, 2])


def test_fire_fuzz_against_oracle():
    rng = random.Random(101)
    for _ in range(300):
        net = fuzz.spiced_net(rng)
        m = {p: rng.randint(0, 3) for p in net.places}
        mt = oracles.as_tuple(net, m)
        got = {name: succ for name, succ in successors(net, mt)}
        want = {name: oracles.as_tuple(net, succ)
                for name, succ in oracles.successor_pairs(net, m)}
        assert got == want


# ---------------------------------------------------------------------------
# the interpreted successors and every tier of the search, against the oracle

# the module constants that searches of each copy from `tiers` run under:
# none, as the CLI runs, which is the table tier for these short searches
# unless the marking is wide enough that the rent reaches the buy at once;
# the table tier alone; the table tier alone with every table indexed by
# place; the generated loop from the first expansion; and that loop with
# every successor of more than one term built as a list (with _RUN at 0 a
# lone transfer would be sum((a3)))
PATCHES = ({}, {"_COMPILE_COST": 10**12},
           {"_COMPILE_COST": 10**12, "_INDEX_COST": 0}, {"_COMPILE_COST": 0},
           {"_COMPILE_COST": 0, "_RUN": 1})


def tiers(net):
    """Five copies of `net`, `cli`, `table`, `indexed`, `hot` and
    `listed`, searched under the entries of PATCHES in turn (see
    `first_level`); each keeps its own compiled loops."""
    return tuple(Net(net.places, net.transitions, net.initial)
                 for _ in PATCHES)


def first_level(net, m, goal, target, budget, patch):
    """What `_search` of `net` from `m` does within `budget` steps, with
    the `xpn.packed` constants in `patch` set: the markings expanded and the
    path to the hit, unpacked, or the budget message."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in patch.items():
            mp.setattr(packed, name, value)
        try:
            expanded, path, fields = _search(net, m, goal, target, budget)
        except BudgetExceededError as e:
            return str(e)
    return expanded, path and [fields.decode(x) for x in path]


def assert_first_level(net, m, want, patch):
    """Searches from `m` stopping within its successors `want`, from the
    oracle: one reach per new successor, at its place in declaration
    order, one cover of each, and a deadlock search of one step."""
    fresh = list(dict.fromkeys(s for _, s in want if s != m))
    budget = len(fresh) + 1
    for j, s in enumerate(fresh):
        assert first_level(net, m, "reach", s, budget, patch) == (
            j + 2, [m, s])
        k = next(k for k, x in enumerate([m] + fresh)
                 if all(map(operator.ge, x, s)))
        assert first_level(net, m, "cover", s, budget, patch) == (
            k + 1, [m] if k == 0 else [m, fresh[k - 1]])
    assert first_level(net, m, "deadlock", None, 1, patch) == (
        (1, [m]) if not want else "expanded=1" if fresh else (1, None))


def assert_tiers_match_oracle(net, markings):
    copies = tiers(net)
    for m in markings:
        md = oracles.as_dict(net, m)
        want = [(name, oracles.as_tuple(net, succ))
                for name, succ in oracles.successor_pairs(net, md)]
        assert successors(copies[0], m) == want, (net, m)
        for copy, patch in zip(copies, PATCHES):
            assert_first_level(copy, m, want, patch)
    _, table, indexed, *compiled = copies
    assert not table._loops and not indexed._loops
    assert all(copy._loops for copy in compiled)


HUGE = (10**18, 10**18 + 1, 3 * 10**40 + 2)


@pytest.mark.parametrize("gen", [
    fuzz.plain_net, fuzz.spiced_net, fuzz.no_inhibitor_net, fuzz.hier_ir_net,
    fuzz.hirct_net, fuzz.ert_net, fuzz.two_inh_net, fuzz.two_transfer_net])
def test_generated_successors_match_the_oracle(gen):
    rng = random.Random(gen.__name__)
    values = (0, 1, 2, 3) + HUGE
    for _ in range(60):
        net = gen(rng)
        markings = [tuple(rng.choice(values) for _ in net.places)
                    for _ in range(12)]
        markings.append(tuple(10**18 * n for n in net.initial))
        assert_tiers_match_oracle(net, markings)


def _line(n):
    return [f"p{i}" for i in range(n)]


@pytest.mark.parametrize("places, transitions", [
    # self-transfer, transfer into a reset place
    (["a", "b"], [Transition("t", {"a": Transfer("a")}, {"b": 1}),
                  Transition("u", {"a": RESET, "b": Transfer("a")}, {})]),
    # a transfer target that also has a numeric arc and a post
    (["a", "b"], [Transition("t", {"a": Numeric(2), "b": Transfer("a")},
                             {"a": 3})]),
    # two transfers into one target, and eleven (a flat sum)
    (["a", "b", "c"], [Transition("t", {"a": Transfer("c"),
                                        "b": Transfer("c")}, {"c": 1})]),
    (_line(12), [Transition("t", {p: Transfer("p11") for p in _line(11)},
                            {"p0": 2})]),
    # no places, no transitions, one place; v fires m to m itself, which the
    # search step counts but does not push once m is visited
    ([], [Transition("t"), Transition("u")]),
    (["a", "b"], []),
    (["a"], [Transition("t", {"a": Numeric(1)}, {"a": 2}),
             Transition("u", {"a": INHIBIT}, {"a": 1}), Transition("v")]),
    # untouched runs of 8 and of more than 8 at the start, middle and end
    (_line(40), [Transition("t", {"p10": Numeric(1)}, {"p20": 1}),
                 Transition("u", {"p8": INHIBIT}, {"p17": 1}),
                 Transition("v", {"p0": Numeric(2), "p39": RESET}, {}),
                 Transition("w", {"p5": Transfer("p35"), "p20": Numeric(1)},
                            {"p5": 1}),
                 Transition("x", {"p20": Numeric(1)}, {"p20": 1}),
                 Transition("y")]),
    # two transitions with one effect: the search step pushes it once
    (["a", "b"], [Transition("t", {"a": Numeric(1)}, {"b": 1}),
                  Transition("u", {"a": Numeric(1)}, {"b": 1})]),
    # no places and no transitions
    ([], []),
    # transfers that swap two places and that chain a -> b -> c, each
    # source read before any is emptied; a reset place posted to
    (["a", "b", "c"], [Transition("t", {"a": Transfer("b"),
                                        "b": Transfer("a")}, {}),
                       Transition("u", {"a": Transfer("b"),
                                        "b": Transfer("c")}, {"a": 1}),
                       Transition("v", {"a": RESET, "c": Numeric(1)},
                                  {"a": 2, "c": 1})]),
    # weights at or above the limit of 8-bit fields (128), which enable
    # their transition only once the fields are wide
    (["a", "b"], [Transition("t", {"a": Numeric(200)}, {"b": 1}),
                  Transition("u", {"b": Numeric(10**20), "a": INHIBIT},
                             {"a": 1}),
                  Transition("v", {"a": Numeric(1)}, {"b": 1})]),
])
def test_generated_successors_hand_cases(places, transitions):
    net = net_of(places, transitions, [0] * len(places))
    rng = random.Random(len(places))
    values = (0, 1, 2, 3) + HUGE
    markings = [tuple(rng.choice(values) for _ in places) for _ in range(20)]
    markings += [(0,) * len(places), (HUGE[-1],) * len(places)]
    assert_tiers_match_oracle(net, markings)


def test_generated_source_holds_no_text_of_the_net():
    # names that are Python code reach no generated source: a place is its
    # local a{q}, and the search loop names no transition.  The last
    # transition changes more than _RUN places, so its successor is built
    # as a list
    code = ["__import__('os').system('exit 3')", "a0", "m", '"""', "x\ny"]
    pre = {code[1]: Numeric(1), code[2]: Transfer(code[3]),
           code[0]: INHIBIT, code[4]: RESET}
    ts = [Transition(name, pre, {code[0]: 1, code[3]: 2}) for name in code]
    wide = [f"z[{i}]" for i in range(packed._RUN + 1)]
    ts.append(Transition("import os", {**dict.fromkeys(wide, RESET),
                                      code[2]: Transfer(code[3])},
                         {code[1]: 1}))
    net = net_of(code + wide, ts, [0, 1, 0, 0, 0] + [1] * len(wide))
    keywords = {"def", "m", "if", "and", "not", "append", "return", "run",
                "P", "Q", "i", "stop", "T", "push", "for", "in", "enumerate",
                "islice", "H", "None", "G", "U", "B", "E", "to_bytes", "k",
                "s", "u", "v", "X", "sum", "raise", "W"}
    sources = [_search_source(len(net.places), net._plan(), goal, width)
               for goal in ("reach", "cover", "deadlock") for width in (8, 256)]
    for src in sources:
        assert "v = [*u]" in src
        toks = list(tokenize.generate_tokens(io.StringIO(src).readline))
        assert not [t for t in toks if t.type == tokenize.STRING]
        names = {t.string for t in toks if t.type == tokenize.NAME} - keywords
        assert all(re.fullmatch(r"a\d+", n) for n in names), names
    copies = tiers(net)
    want = successors(copies[0], net.initial)
    assert [name for name, _ in want] == code + ["import os"]
    for copy, patch in zip(copies, PATCHES):
        assert_first_level(copy, net.initial, want, patch)


# ---------------------------------------------------------------------------
# validation


def codes_of(net):
    return sorted(d.code for d in validate(net))


def test_validate_duplicates():
    n = net_of(["a", "a"], [], [0, 0])
    assert "duplicate-place" in codes_of(n)
    ts = [Transition("t", {}, {}), Transition("t", {}, {})]
    n = net_of(["a"], ts, [0])
    assert "duplicate-transition" in codes_of(n)


def test_validate_marking():
    assert "marking-length-mismatch" in codes_of(net_of(["a"], [], [0, 0]))
    assert "negative-marking" in codes_of(net_of(["a"], [], [-1]))
    fractional = net_of(["a"], [], [1.5])
    assert codes_of(fractional) == ["non-integer-marking"]
    with pytest.raises(InvalidNetError):
        require_valid(fractional)


def test_validate_arcs():
    t = Transition("t", {"ghost": Numeric(1)}, {})
    assert "unknown-place" in codes_of(net_of(["a"], [t], [0]))
    t = Transition("t", {}, {"ghost": 1})
    assert "unknown-place" in codes_of(net_of(["a"], [t], [0]))
    t = Transition("t", {"a": Numeric(-2)}, {})
    assert "negative-weight" in codes_of(net_of(["a"], [t], [0]))
    t = Transition("t", {}, {"a": -2})
    assert "negative-weight" in codes_of(net_of(["a"], [t], [0]))
    t = Transition("t", {"a": Numeric(0)}, {})
    assert "zero-weight-arc" in codes_of(net_of(["a"], [t], [0]))
    t = Transition("t", {}, {"a": 0})
    assert "zero-weight-arc" in codes_of(net_of(["a"], [t], [0]))
    t = Transition("t", {"a": Transfer("ghost")}, {})
    assert "dangling-transfer-target" in codes_of(net_of(["a"], [t], [0]))


def test_require_valid_raises_on_errors_only():
    bad = net_of(["a"], [Transition("t", {"a": Numeric(0)}, {})], [0])
    assert has_errors(validate(bad))
    with pytest.raises(InvalidNetError):
        require_valid(bad)
    ok = net_of(["a"], [Transition("t", {"a": Numeric(1)}, {})], [0])
    assert validate(ok) == []
    require_valid(ok)


def test_built_nets_compile_as_their_parsed_twins():
    """One compiler makes every plan: a net built in code and the net
    parsed from its text have equal plans, transfer arcs included, and an
    arc on an undeclared place raises the same InvalidNetError in both."""
    rng = random.Random(34)
    transfers = 0
    for _ in range(30):
        for gen in (fuzz.spiced_net, fuzz.hirct_net, fuzz.two_transfer_net,
                    fuzz.busy_net, fuzz.ert_net):
            net = gen(rng)
            assert parse_net(render_net(net))._plan() == net._plan()
            transfers += any(op.xfers for op in net._plan())
    assert transfers > 30
    for t in (Transition("t", {"a": Numeric(1), "ghost": INHIBIT}, {"a": 1}),
              Transition("t", {"a": Transfer("ghost")}, {}),
              Transition("t", {}, {"ghost": 2})):
        built = net_of(["a"], [t], [1])
        with pytest.raises(InvalidNetError) as want:
            built._plan()
        with pytest.raises(InvalidNetError) as got:
            parse_net(render_net(built))._plan()
        assert got.value.errors == want.value.errors


# ---------------------------------------------------------------------------
# taxonomy


def test_classify_plain():
    n = net_of(["a"], [Transition("t", {"a": Numeric(1)}, {})], [0])
    c = classify(n)
    assert c.specials == ()
    assert c.label() == "plain"
    assert c.ert_eligible
    assert c.constrained_transfer


def test_classify_hierarchical_inhibitor():
    # inhibitor on the least place: nothing sits below it
    t = Transition("t", {"a": INHIBIT, "b": Numeric(1)}, {})
    c = classify(net_of(["a", "b"], [t], [0, 0]))
    assert c.specials == ("inhibitor",)
    assert c.hierarchical == ("inhibitor",)
    assert c.ert_eligible
    assert c.label() == "inhibitor(hierarchical)"


def test_classify_unrestricted_inhibitor():
    # inhibitor above a place with no special arc breaks the order
    t = Transition("t", {"b": INHIBIT, "a": Numeric(1)}, {})
    c = classify(net_of(["a", "b"], [t], [0, 0]))
    assert c.hierarchical == ()
    assert not c.ert_eligible
    assert c.label() == "inhibitor(unrestricted)"


def test_classify_hierarchy_is_per_kind_but_specials_count():
    # reset below the inhibitor keeps the inhibitor hierarchical, yet the
    # inhibitor places alone are not downward closed
    t = Transition("t", {"a": RESET, "b": INHIBIT}, {})
    c = classify(net_of(["a", "b", "c"], [t], [0, 0, 0]))
    assert c.specials == ("inhibitor", "reset")
    assert c.hierarchical == ("inhibitor", "reset")
    assert not c.ert_eligible
    assert c.label() == "inhibitor(hierarchical)+reset(hierarchical)"


def test_classify_hierarchy_is_per_transition():
    ts = [
        Transition("t1", {"a": INHIBIT}, {}),
        Transition("t2", {"b": INHIBIT, "a": Numeric(1)}, {}),
    ]
    c = classify(net_of(["a", "b"], ts, [0, 0]))
    assert c.hierarchical == ()
    assert not c.ert_eligible


def test_classify_constrained_transfer():
    # target carries no arc on the same transition: constrained
    t = Transition("t", {"a": Transfer("b")}, {})
    assert classify(net_of(["a", "b"], [t], [0, 0])).constrained_transfer
    # numeric arc on the target: still constrained
    t = Transition("t", {"a": Transfer("b"), "b": Numeric(1)}, {})
    assert classify(net_of(["a", "b"], [t], [0, 0])).constrained_transfer
    # reset on the target: not constrained
    t = Transition("t", {"a": Transfer("b"), "b": RESET}, {})
    c = classify(net_of(["a", "b"], [t], [0, 0]))
    assert not c.constrained_transfer


def test_classify_rejects_invalid():
    n = net_of(["a"], [Transition("t", {"ghost": Numeric(1)}, {})], [0])
    with pytest.raises(InvalidNetError):
        classify(n)


def test_classify_matches_the_dict_walking_reference():
    gens = (fuzz.spiced_net, fuzz.hier_ir_net, fuzz.hirct_net, fuzz.ert_net,
            fuzz.two_transfer_net)
    seen = set()
    for seed, gen in enumerate(gens):
        rng = random.Random(4000 + seed)
        for _ in range(300):
            n = gen(rng)
            c = classify(n)
            assert c == oracles.classify(n), (gen.__name__, n)
            for t in n.transitions:
                assert transition_index(n, t.name) == \
                    oracles.transition_index(n, t)
            seen |= {("constrained", c.constrained_transfer),
                     ("eligible", c.ert_eligible)}
            for k in KIND_ORDER:
                seen.add(("special", k, k in c.specials))
                if k in c.specials:
                    seen.add(("hierarchical", k, k in c.hierarchical))
    # every value of every field occurs somewhere in the corpora
    want = {(f, v) for f in ("constrained", "eligible") for v in (True, False)}
    want |= {(f, k, v) for f in ("special", "hierarchical")
             for k in KIND_ORDER for v in (True, False)}
    assert seen == want


def test_package_exports_names_not_submodules():
    import types

    import xpn
    assert "successors" in xpn.__all__ and "decide_termination" in xpn.__all__
    modules = [n for n in xpn.__all__
               if isinstance(getattr(xpn, n), types.ModuleType)]
    assert modules == []


def test_package_surface():
    # the public names are imported from their modules on first use
    import xpn
    assert xpn.__all__ == [
        "Arc", "BackwardCoverResult", "BudgetExceededError", "CounterMachine",
        "Diagnostic", "Ert", "ErtNode", "Halt", "INHIBIT", "INHIBITOR_KIND",
        "Inc", "Inhibitor", "InvalidNetError", "JzDec", "KIND_ORDER",
        "Marking", "MarkingMap", "MinskyCompilation", "Net", "NetClass",
        "NonTerminating", "NotEligibleError", "NotFirableError", "Numeric",
        "ParseError", "PositivityCompilation", "PositivityInstance", "RESET",
        "RESET_KIND", "Reset", "SearchResult", "TRANSFER_KIND", "Terminating",
        "Trace", "Transfer", "TransformError", "TransformResult",
        "Transition", "UnknownTransitionError", "UpwardClosedSet", "XpnError",
        "backward_cover", "bounded_cover", "bounded_deadlock",
        "bounded_reach", "build_ert", "check_eligible", "classify",
        "compile_minsky", "compile_positivity", "decide_termination",
        "dlf_to_reach", "ert_dot", "export_dot", "fire", "format_marking",
        "has_errors", "hir_elim", "hir_elim_all", "hirct_elim", "is_firable",
        "parse_machine", "parse_marking", "parse_net", "parse_positivity",
        "parse_trace", "reach_to_dlf", "render_net", "render_trace", "replay",
        "require_valid", "successors", "transfer_hierarchize",
        "two_inh_to_reset", "validate", "verify_pump"]
    star = {}
    exec("from xpn import *", star)
    assert set(xpn.__all__) <= star.keys() and set(xpn.__all__) <= set(dir(xpn))
    assert all(star[n] is getattr(xpn, n) for n in xpn.__all__)
    with pytest.raises(AttributeError):
        xpn.no_such_name
