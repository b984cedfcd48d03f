import random

import pytest

import fuzz
import oracles
from xpn.ert import transition_index
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
    classify,
    fire,
    has_errors,
    is_firable,
    require_valid,
    successors,
    validate,
)


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
