"""Acceptance gate: ten end-to-end properties at fixed fuzz scales.

One test per criterion, so `pytest -v` shows one pass/fail line each.
Every check compares the library against the independent naive oracles
in oracles.py; nothing here trusts the code under test to judge itself.
"""

import random
import time

import fuzz
import machines
import oracles
from xpn.compilers import (
    Halt,
    Inc,
    PositivityInstance,
    compile_minsky,
    compile_positivity,
    first_violation,
    parse_machine,
    simulate_machine,
    simulate_phases,
)
from xpn.dot import export_dot
from xpn.ert import NonTerminating, decide_termination, verify_pump
from xpn.explore import bounded_cover
from xpn.fmt import parse_net, render_net
from xpn.net import BudgetExceededError, Inhibitor, Numeric, Transfer
from xpn.transforms import (
    CONST,
    COPY,
    dlf_to_reach,
    hir_elim,
    reach_to_dlf,
    transfer_hierarchize,
    two_inh_to_reset,
)


def const_positions(mapping, value=None):
    return [i for i, (k, v) in enumerate(mapping.entries)
            if k == CONST and (value is None or v == value)]


def image_equivalent(src, res, src_graph, tgt_graph):
    """Exact two-way containment between a source reach set and the
    representative-shaped part of a target reach set."""
    maps = (res.forward,) + tuple(res.alt_forwards)
    n = len(src.places)
    for m in src_graph:
        assert any(f(m) in tgt_graph for f in maps), (src, m)
    for x in tgt_graph:
        for f in maps:
            m = oracles.invert_map(f, x, n)
            if m is not None:
                assert m in src_graph, (src, x)


def test_criterion_01_firing_semantics_oracle():
    t0 = time.monotonic()
    rng = random.Random(11)
    checked = 0
    for _ in range(1000):
        net = fuzz.plain_net(rng, max_places=5, max_trans=6)
        m = tuple(rng.randint(0, 3) for _ in net.places)
        md = oracles.as_dict(net, m)
        for t in net.transitions:
            ok = oracles.enabled(t, md)
            assert net.is_firable(m, t.name) == ok
            if ok:
                assert net.fire(m, t.name) == oracles.as_tuple(
                    net, oracles.fire(t, md))
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    print(f"[PASS] criterion 1: 1000 nets, {checked} firings match the "
          f"naive semantics, {elapsed:.1f}s")


def test_criterion_02_termination_decider():
    t0 = time.monotonic()
    rng = random.Random(12)
    n_term = n_pump = 0
    for _ in range(1000):
        net = fuzz.ert_net(rng)
        verdict = decide_termination(net)  # (a) always halts with a verdict
        if isinstance(verdict, NonTerminating):
            # (b) the stem+pump certificate replays concretely
            assert verify_pump(net, verdict)
            n_pump += 1
        else:
            # (c) a complete tree bounds the whole reachable state space:
            # enumerate it and confirm no run can loop
            graph = oracles.reach_graph(net, verdict.tree_size + 1)
            assert graph is not None
            assert not oracles.has_cycle(graph)
            n_term += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    assert n_term > 0 and n_pump > 0
    print(f"[PASS] criterion 2: 1000 nets, {n_term} terminating confirmed "
          f"exhaustively, {n_pump} pumps verified, {elapsed:.1f}s")


def test_criterion_03_reset_elimination_round_trip():
    rng = random.Random(13)
    for _ in range(200):
        src, src_graph = fuzz.finite_net(rng, fuzz.hier_ir_net, 150)
        res = hir_elim(src)
        gadget = const_positions(res.forward)
        for m1 in (src.initial, rng.choice(sorted(src_graph))):
            sg = oracles.reach_graph(src, 10_000, start=m1)
            tg = oracles.reach_graph(res.net, 10_000, start=res.forward(m1))
            assert sg is not None and tg is not None
            image_equivalent(src, res, sg, tg)
            for x in tg:
                # exactly one control token: the lock or one busy place
                assert sum(x[i] for i in gadget) == 1
    print("[PASS] criterion 3: 200 nets, reachability preserved from the "
          "initial and a random start, control-token invariant holds")


def test_criterion_04_deadlock_to_reachability():
    t0 = time.monotonic()
    rng = random.Random(14)
    done = with_deadlock = 0
    while done < 100:
        src, src_graph = fuzz.finite_net(rng, fuzz.hier_ir_net, 200)
        try:
            res = dlf_to_reach(src, clause_cap=500)
        except BudgetExceededError:  # more than 500 deadlock clauses
            continue
        tgt_graph = oracles.reach_graph(res.net, 60_000)
        assert tgt_graph is not None
        has_deadlock = bool(oracles.deadlocks(src_graph))
        assert (res.goal in tgt_graph) == has_deadlock, src
        with_deadlock += has_deadlock
        done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    print(f"[PASS] criterion 4: 100 nets ({with_deadlock} with deadlocks), "
          f"deadlock existence == goal reachability, {elapsed:.1f}s")


def test_criterion_05_reachability_to_deadlock():
    rng = random.Random(15)
    hits = 0
    for _ in range(100):
        src, src_graph = fuzz.finite_net(rng, fuzz.hier_ir_net, 200)
        keys = sorted(src_graph)
        ceiling = tuple(max(m[i] for m in keys) + 1
                        for i in range(len(src.places)))
        for target in (rng.choice(keys), ceiling):
            res = reach_to_dlf(src, target)
            tgt_graph = oracles.reach_graph(res.net, 60_000)
            assert tgt_graph is not None
            dead = oracles.deadlocks(tgt_graph)
            reachable = target in src_graph
            assert (len(dead) > 0) == reachable, (src, target)
            assert set(dead) <= {res.goal}  # the deadlock is unique
            hits += reachable
    print(f"[PASS] criterion 5: 100 nets x 2 targets, reachability == "
          f"deadlock existence, {hits} unique deadlocks seen")


def test_criterion_06_two_inhibitors_to_one_reset():
    rng = random.Random(16)
    for _ in range(100):
        src, src_graph = fuzz.finite_net(rng, fuzz.two_inh_net, 150)
        res = two_inh_to_reset(src)
        tgt = res.net
        # forward: the target mirrors every source step in lockstep, so
        # image reachability follows by induction from the start marking
        for m in src_graph:
            x = res.forward(m)
            for name, m2 in src_graph[m]:
                assert tgt.is_firable(x, name)
                assert tgt.fire(x, name) == res.forward(m2)
        # backward, on a truncated slice: the copy place dominates the
        # eliminated place everywhere, and every representative-shaped
        # marking inverts to a reachable source marking
        copy_pos = len(tgt.places) - 1
        kind, p2_pos = res.forward.entries[copy_pos]
        assert kind == COPY
        n = len(src.places)
        for x in oracles.reach_set(tgt, 3000):
            assert x[copy_pos] >= x[p2_pos]
            m = oracles.invert_map(res.forward, x, n)
            if m is not None:
                assert m in src_graph, (src, x)
    print("[PASS] criterion 6: 100 nets, lockstep image reachability and "
          "reverse slice agree, copy-place domination holds")


def test_criterion_07_transfer_hierarchization():
    rng = random.Random(17)
    for _ in range(50):
        src, src_graph = fuzz.finite_net(rng, fuzz.two_transfer_net, 120)
        res = transfer_hierarchize(src)
        tgt_graph = oracles.reach_graph(res.net, 40_000)
        assert tgt_graph is not None
        image_equivalent(src, res, src_graph, tgt_graph)
        mode_a = [i for i in const_positions(res.forward, 1)
                  if res.alt_forwards[0].entries[i] == (CONST, 0)]
        mode_b = [i for i in const_positions(res.forward, 0)
                  if res.alt_forwards[0].entries[i] == (CONST, 1)]
        p1 = [i for i, (k, _) in enumerate(res.forward.entries)
              if k == COPY and res.alt_forwards[0].entries[i] == (CONST, 0)]
        (a_pos,), (b_pos,), (p1_pos,) = mode_a, mode_b, p1
        for x in tgt_graph:
            assert x[a_pos] + x[b_pos] == 1
            if x[a_pos] == 0:  # duplicated place empty outside its mode
                assert x[p1_pos] == 0
    print("[PASS] criterion 7: 50 nets, A/B image reachability exact, "
          "mode-place invariant holds everywhere")


def machine_program(cm) -> dict:
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


def test_criterion_08_counter_machine_compiler():
    for name, text, halts in machines.SUITE:
        cm = parse_machine(text)
        # the machine itself stays within 50 configurations
        direct = oracles.run_machine(machine_program(cm), cm.start, 50)
        assert direct is halts, name
        assert simulate_machine(cm) is halts, name
        verdicts = []
        for transfer in (False, True):
            comp = compile_minsky(cm, transfer=transfer)
            # raises BudgetExceededError unless the answer is definitive
            res = bounded_cover(comp.net, comp.cover_target, max_steps=60_000)
            verdicts.append(res.found)
            graph = oracles.reach_graph(comp.net, 5_000)
            assert graph is not None, (name, transfer)
            s = comp.net.place_pos(comp.budget)
            c1 = comp.net.place_pos(comp.counters[0])
            c2 = comp.net.place_pos(comp.counters[1])
            for m in graph:
                assert m[s] >= m[c1] + m[c2], (name, transfer, m)
        assert verdicts[0] == verdicts[1] == halts, name
    print(f"[PASS] criterion 8: {len(machines.SUITE)} machines, halting == "
          "coverability in both variants, budget invariant exhaustive")


FIG3 = PositivityInstance(((1, -4, 7), (2, -5, -8), (-3, -6, 9)), (1, 1, 1))

POSITIVE = [
    (PositivityInstance(((1, 0), (0, 1)), (2, 3))),
    (PositivityInstance(((0, 1), (1, 0)), (1, 2))),
    (PositivityInstance(((1, 1), (0, 1)), (1, 1))),
    (PositivityInstance(((0, 1), (1, 1)), (1, 1))),
    (PositivityInstance(((0, 1, 0), (0, 0, 1), (1, 0, 0)), (1, 2, 3))),
]

VIOLATING = [
    (PositivityInstance(((1, -1), (0, 1)), (0, 1)), 1),
    (PositivityInstance(((1, -1), (0, 1)), (1, 1)), 2),
    (PositivityInstance(((1, -1), (1, 0)), (3, 1)), 2),
    (PositivityInstance(((1, -1), (0, 1)), (3, 1)), 4),
    (PositivityInstance(((1, -1), (0, 1)), (4, 1)), 5),
]


def test_criterion_09_positivity_net():
    t0 = time.monotonic()
    # (a) structural census of the 3x3 example: the nine multiplier
    # weights 1..9 and the column sums 6/15/24 appear exactly
    comp = compile_positivity(FIG3)
    net = comp.net
    assert len(net.places) == 17 and len(net.transitions) == 13
    assert comp.colsums == (6, 15, 24)
    assert net.initial[net.place_pos(comp.fuel)] == 45
    mul_weights = []
    for i in (1, 2, 3):
        t = net.transition(f"mul{i}")
        assert set(t.pre) == {f"v{i}"} and isinstance(t.pre[f"v{i}"], Numeric)
        mul_weights += sorted(t.post.values())
    assert mul_weights == [1, 2, 3, 4, 5, 6, 7, 8, 9]
    for (i, j), name in comp.acc_names.items():
        t = net.transition(name)
        entry = FIG3.matrix[j - 1][i - 1]
        fold = t.post if entry > 0 else {p: a.weight for p, a in t.pre.items()
                                         if isinstance(a, Numeric)}
        assert fold.get(comp.refuel) == comp.colsums[j - 1], name
    restart = net.transition(comp.restart)
    assert isinstance(restart.pre[comp.fuel], Inhibitor)
    assert all(isinstance(restart.pre[p], Transfer) for p in comp.nv_places)

    # (b) positive instances: the net reproduces the exact iterates
    for inst in POSITIVE:
        assert first_violation(inst, 25) is None
        rep = simulate_phases(compile_positivity(inst), 25)
        assert rep.u_vectors == tuple(
            oracles.mat_iterates(inst.matrix, inst.v0, 25))

    # (c) violating instances: every run is finite and the restart never
    # completes the violating phase
    for inst, k0 in VIOLATING:
        assert first_violation(inst, 10) == k0
        cv = compile_positivity(inst)
        graph = oracles.reach_graph(cv.net, 400_000)
        assert graph is not None
        assert not oracles.has_cycle(graph)
        assert oracles.longest_edge_count(
            graph, cv.net.initial, lambda n: n == cv.restart) == k0 - 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(f"[PASS] criterion 9: census exact, 5 positive instances track "
          f"25 iterates, 5 violating instances jam after k0-1 restarts, "
          f"{elapsed:.1f}s")


def test_criterion_10_format_stability():
    rng = random.Random(110)
    for _ in range(500):
        first = parse_net(render_net(fuzz.spiced_net(rng)))
        second = parse_net(render_net(first))
        assert second == first
        assert export_dot(first) == export_dot(second)
        assert export_dot(first) == export_dot(first)
    print("[PASS] criterion 10: 500 files, parse-render-parse stable, "
          "DOT output byte-identical")
