"""Compilers: counter machines to coverability, matrix positivity to
termination-flavoured reachability."""

import pytest

import machines
import oracles
from xpn.compilers import (
    CounterMachine,
    Halt,
    Inc,
    JzDec,
    PositivityInstance,
    compile_minsky,
    compile_positivity,
    parse_machine,
    parse_positivity,
)
from xpn.explore import bounded_cover
from xpn.fmt import ParseError
from xpn.net import InvalidNetError, NotFirableError, Transition

MACHINE_TEXT = dict((name, text) for name, text, _ in machines.SUITE)

FIG3 = PositivityInstance(((1, -4, 7), (2, -5, -8), (-3, -6, 9)), (1, 1, 1))
FIB = PositivityInstance(((0, 1), (1, 1)), (1, 1))


def oracle_program(cm: CounterMachine) -> dict:
    prog = {}
    for q, instr in cm.program.items():
        if isinstance(instr, Halt):
            prog[q] = ("halt",)
        elif isinstance(instr, Inc):
            prog[q] = ("inc", instr.counter, instr.goto)
        else:
            prog[q] = ("jzdec", instr.counter, instr.goto_zero,
                       instr.goto_nonzero)
    return prog


# ---------------------------------------------------------------------------
# counter machine parsing

def test_parse_machine_basics():
    cm = parse_machine(MACHINE_TEXT["count_down"])
    assert cm.states == ("q0", "q1", "q2", "qh")
    assert cm.start == "q0"
    assert cm.program["q0"] == Inc(1, "q1")
    assert cm.program["q2"] == JzDec(1, "qh", "q2")
    assert cm.program["qh"] == Halt()


def test_parse_machine_comments_and_blanks():
    cm = parse_machine(
        "# warm up\n\nq0: INC 2 -> qh   # bump then stop\n\nqh: HALT\n")
    assert cm.states == ("q0", "qh")
    assert cm.program["q0"] == Inc(2, "qh")


@pytest.mark.parametrize("text,fragment,line", [
    ("q0 INC 1 -> qh\nqh: HALT", "expected 'STATE: INSTRUCTION'", 1),
    ("q0: INC 1 -> qh\nq0: HALT\nqh: HALT", "duplicate state q0", 2),
    ("q0: INC 3 -> qh\nqh: HALT", "counter 1 or 2", 1),
    ("q0: JZDEC 1 -> qh\nqh: HALT", "counter 1 or 2", 1),
    ("q0: INC 1 -> q0", "exactly one HALT state, found 0", 1),
    ("q0: HALT\nq1: HALT", "exactly one HALT state, found 2", 1),
    ("q0: INC 1 -> nowhere\nqh: HALT", "undefined state nowhere", 1),
    ("qh: HALT\nq0: INC 1 -> nowhere", "undefined state nowhere", 2),
    ("qh: HALT\n\nq0: JZDEC 2 -> qh / nowhere", "undefined state nowhere", 3),
    ("", "empty machine", 1),
    ("   \n# only noise\n", "empty machine", 1),
])
def test_parse_machine_errors(text, fragment, line):
    with pytest.raises(ParseError) as err:
        parse_machine(text)
    assert fragment in str(err.value)
    assert err.value.line == line


def test_parse_machine_undefined_target_column():
    # the error points at the target's name, where the jump names it
    with pytest.raises(ParseError) as err:
        parse_machine("qh: HALT\n  q0: JZDEC 1 -> qh /nowhere")
    assert (err.value.line, err.value.col) == (2, 22)


def test_simulate_machine_matches_oracle():
    # the oracle's direct run of every suite machine agrees with its label
    for name, text, halts in machines.SUITE:
        cm = parse_machine(text)
        assert oracles.run_machine(oracle_program(cm), cm.start,
                                   10_000) is halts, name


# ---------------------------------------------------------------------------
# counter machine compilation

def census(net) -> dict:
    out: dict = {}
    for t in net.transitions:
        for arc in t.pre.values():
            out[type(arc).__name__] = out.get(type(arc).__name__, 0) + 1
    return out


def test_compile_minsky_frozen_shape():
    comp = compile_minsky(parse_machine(MACHINE_TEXT["count_down"]))
    net = comp.net
    assert net.places == (
        "S", "C1", "C2", "q0", "q1", "q2", "q2_mid",
        "qh_merge", "qh_drain", "qh_check", "z1_pick", "z1_done", "accept")
    assert len(net.transitions) == 11
    assert census(net) == {"Numeric": 17, "Inhibitor": 1, "Reset": 1}
    assert comp.budget == "S"
    assert comp.counters == ("C1", "C2")
    assert comp.state_place == {
        "q0": "q0", "q1": "q1", "q2": "q2", "qh": "qh_merge"}
    # only the start state is marked; the budget fills as INCs fire
    assert oracles.as_dict(net, net.initial) == {
        p: (1 if p == "q0" else 0) for p in net.places}
    assert tuple(comp.cover_target) == tuple(
        1 if p == comp.accept else 0 for p in net.places)


def test_compile_minsky_transfer_variant_shape():
    comp = compile_minsky(parse_machine(MACHINE_TEXT["count_down"]),
                          transfer=True)
    assert census(comp.net) == {"Numeric": 17, "Inhibitor": 1, "Transfer": 1}
    assert len(comp.net.places) == 14  # extra sink place for swept tokens


def test_the_compilers_build_no_transition_by_its_constructor(
        monkeypatch):
    # `Transition(...)` copies its pre and post dicts; a compiler builds
    # them for the transition alone and hands them over
    # (`net._transition_of`)
    calls = []
    init = Transition.__init__
    monkeypatch.setattr(Transition, "__init__", lambda self, *args, **kw:
                        calls.append(args) or init(self, *args, **kw))
    for _, text, _ in machines.SUITE:
        for transfer in (False, True):
            compile_minsky(parse_machine(text), transfer=transfer)
    compile_positivity(FIG3)
    assert calls == []


def test_compile_minsky_rejects_colliding_state_names():
    cm = parse_machine("S: INC 1 -> qh\nqh: HALT")
    with pytest.raises(InvalidNetError):
        compile_minsky(cm)


def test_halting_iff_coverable():
    for name, text, halts in machines.SUITE:
        cm = parse_machine(text)
        for transfer in (False, True):
            comp = compile_minsky(cm, transfer=transfer)
            # raises BudgetExceededError unless the answer is definitive
            res = bounded_cover(comp.net, comp.cover_target, max_steps=60_000)
            assert res.found is halts, (name, transfer)


def test_budget_dominates_counters():
    # every reachable marking keeps S >= C1 + C2, cheat branches included
    for name, text, _ in machines.SUITE:
        comp = compile_minsky(parse_machine(text))
        graph = oracles.reach_graph(comp.net, 5_000)
        assert graph is not None, name
        s = comp.net.place_pos(comp.budget)
        c1 = comp.net.place_pos(comp.counters[0])
        c2 = comp.net.place_pos(comp.counters[1])
        for m in graph:
            assert m[s] >= m[c1] + m[c2], (name, m)


# ---------------------------------------------------------------------------
# positivity parsing

def test_parse_positivity_round_trip():
    inst = parse_positivity(
        "3\n# matrix rows\n1 -4 7\n2 -5 -8\n-3 -6 9\n1 1 1\n")
    assert inst == FIG3
    assert inst.n == 3


@pytest.mark.parametrize("text,fragment,line", [
    ("", "empty positivity instance", 1),
    ("# nothing\n", "empty positivity instance", 1),
    ("2\n1 x\n3 4\n5 6", "expected an integer, got 'x'", 2),
    ("0\n", "dimension must be positive, got 0", 1),
    ("-1\n", "dimension must be positive", 1),
    ("2\n1 2 3 4\n5", "expected 7 integers for dimension 2, got 6", 3),
    ("2\n1 2 3 4\n5 6 7", "expected 7 integers for dimension 2, got 8", 3),
])
def test_parse_positivity_errors(text, fragment, line):
    with pytest.raises(ParseError) as err:
        parse_positivity(text)
    assert fragment in str(err.value)
    assert err.value.line == line


def test_first_violation_frozen():
    assert oracles.first_violation(FIG3, 10) == 1  # M v0 = (4, -11, 0)
    assert oracles.first_violation(FIB, 50) is None
    assert oracles.first_violation(
        PositivityInstance(((1, -1), (1, 0)), (3, 1)), 10) == 2


# ---------------------------------------------------------------------------
# positivity compilation

def test_compile_positivity_fig3_census():
    comp = compile_positivity(FIG3)
    net = comp.net
    assert len(net.places) == 17   # fuel, 3 nv, refuel, 3 v, 9 w
    assert len(net.transitions) == 13  # 3 mul, 9 acc, restart
    assert comp.colsums == (6, 15, 24)
    assert net.initial[net.place_pos(comp.fuel)] == 45
    assert sorted(comp.acc_names) == [
        (i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    for i in (1, 2, 3):
        assert net.initial[net.place_pos(comp.v_places[i - 1])] == 1


def test_compile_positivity_skips_zero_entries():
    comp = compile_positivity(FIB)
    assert comp.net.places == (
        "fuel", "nv1", "nv2", "refuel", "v1", "v2",
        "w1_1", "w1_2", "w2_1", "w2_2")
    assert tuple(t.name for t in comp.net.transitions) == (
        "mul1", "mul2", "acc1_2", "acc2_1", "acc2_2", "restart")
    assert sorted(comp.acc_names) == [(1, 2), (2, 1), (2, 2)]
    assert comp.colsums == (1, 2)
    assert comp.net.initial[0] == 3  # fuel0 = 1*1 + 2*1


def test_compile_positivity_rejects_negative_start():
    with pytest.raises(ValueError):
        compile_positivity(PositivityInstance(((1,),), (-1,)))


def test_simulate_phases_fibonacci():
    vectors = oracles.positivity_phases(compile_positivity(FIB), 8)
    assert vectors == oracles.mat_iterates(FIB.matrix, FIB.v0, 8)
    assert vectors[-1] == (34, 55)


def test_simulate_phases_rejects_violating_instance():
    # M v0 = (4, -11, 0): the first phase's negative accumulators starve
    with pytest.raises(NotFirableError, match="^acc"):
        oracles.positivity_phases(compile_positivity(FIG3), 3)


@pytest.mark.parametrize("inst,k0,cap", [
    (PositivityInstance(((1, -1), (0, 1)), (0, 1)), 1, 5_000),
    (PositivityInstance(((1, -1), (1, 0)), (3, 1)), 2, 50_000),
])
def test_violating_instance_jams(inst, k0, cap):
    # a negative iterate starves the accumulators mid-phase: the net has a
    # finite acyclic state space and the restart fires at most k0 - 1 times
    assert oracles.first_violation(inst, 10) == k0
    comp = compile_positivity(inst)
    graph = oracles.reach_graph(comp.net, cap)
    assert graph is not None
    assert not oracles.has_cycle(graph)
    assert oracles.longest_edge_count(
        graph, comp.net.initial, lambda name: name == "restart") == k0 - 1
