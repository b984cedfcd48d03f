"""Compilers from counter machines and matrix-positivity instances.

compile_minsky turns a two-counter machine into a net with two reset arcs
(or two transfer arcs) and one inhibitor arc such that the machine halts
iff the accept marking is coverable.  compile_positivity turns an integer
matrix iteration into a transfer net whose restart transition fires once
per iteration exactly while all iterates stay nonnegative.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .fmt import ParseError, _NAME_RE
from .net import (BudgetExceededError, INHIBIT, Marking, Net, Numeric, RESET,
                  Transfer, Transition, require_valid)


# ---------------------------------------------------------------------------
# two-counter machines

@dataclass(frozen=True)
class Inc:
    counter: int
    goto: str


@dataclass(frozen=True)
class JzDec:
    counter: int
    goto_zero: str
    goto_nonzero: str


@dataclass(frozen=True)
class Halt:
    pass


@dataclass(frozen=True)
class CounterMachine:
    states: tuple          # state names in declaration order
    program: dict          # name -> Inc | JzDec | Halt

    @property
    def start(self) -> str:
        return self.states[0]


def parse_machine(text: str) -> CounterMachine:
    """One instruction per line:
        q0: INC 1 -> q1
        q1: JZDEC 2 -> qz / qnz      (qz taken on zero, qnz decrements)
        q2: HALT
    Exactly one HALT; counters are 1 or 2."""
    states = []
    program: dict = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"(\w[\w.]*)\s*:\s*(.*)$", line)
        if not m or not _NAME_RE.fullmatch(m.group(1)):
            raise ParseError("expected 'STATE: INSTRUCTION'", ln, 1)
        name, body = m.group(1), m.group(2).strip()
        if name in program:
            raise ParseError(f"duplicate state {name}", ln, 1)
        if body == "HALT":
            instr: object = Halt()
        else:
            m = re.fullmatch(r"INC\s+([12])\s*->\s*(\w[\w.]*)", body)
            if m:
                instr = Inc(int(m.group(1)), m.group(2))
            else:
                m = re.fullmatch(
                    r"JZDEC\s+([12])\s*->\s*(\w[\w.]*)\s*/\s*(\w[\w.]*)", body)
                if not m:
                    raise ParseError(
                        "expected 'INC c -> q', 'JZDEC c -> qz / qnz' or "
                        "'HALT' (counter 1 or 2)", ln, len(name) + 2)
                instr = JzDec(int(m.group(1)), m.group(2), m.group(3))
        states.append(name)
        program[name] = instr
    if not states:
        raise ParseError("empty machine", 1, 1)
    halts = [q for q, i in program.items() if isinstance(i, Halt)]
    if len(halts) != 1:
        raise ParseError(f"expected exactly one HALT state, found {len(halts)}",
                         1, 1)
    for q, instr in program.items():
        targets = ()
        if isinstance(instr, Inc):
            targets = (instr.goto,)
        elif isinstance(instr, JzDec):
            targets = (instr.goto_zero, instr.goto_nonzero)
        for tgt in targets:
            if tgt not in program:
                raise ParseError(f"state {q} jumps to undefined state {tgt}",
                                 1, 1)
    return CounterMachine(tuple(states), program)


def simulate_machine(cm: CounterMachine, max_configs: int = 10_000):
    """True if the machine halts, False if it provably loops (a
    configuration repeats); raises BudgetExceededError when a configuration
    past the `max_configs`-th would need visiting."""
    q, c = cm.start, {1: 0, 2: 0}
    seen = set()
    for _ in range(max_configs):
        config = (q, c[1], c[2])
        if config in seen:
            return False
        seen.add(config)
        instr = cm.program[q]
        if isinstance(instr, Halt):
            return True
        if isinstance(instr, Inc):
            c[instr.counter] += 1
            q = instr.goto
        elif c[instr.counter] == 0:
            q = instr.goto_zero
        else:
            c[instr.counter] -= 1
            q = instr.goto_nonzero
    raise BudgetExceededError(f"machine exceeded {max_configs} configurations")


@dataclass(frozen=True)
class MinskyCompilation:
    net: Net
    cover_target: Marking
    accept: str
    budget: str
    counters: tuple
    state_place: dict


def compile_minsky(cm: CounterMachine, transfer: bool = False) -> MinskyCompilation:
    """Counter values live in C1/C2, mirrored into the budget place S.
    Zero tests wipe the counter instead of testing it: a wrongly taken
    zero branch strands the wiped tokens in S, and the final check (the
    single inhibitor arc) only accepts runs where S drains to nothing.
    With transfer=True the two wipe resets become transfers into dumps."""
    halt = next(q for q, i in cm.program.items() if isinstance(i, Halt))
    state_place = {q: (f"{q}_merge" if q == halt else q) for q in cm.states}
    counters = ("C1", "C2")
    used = sorted({i.counter for i in cm.program.values()
                   if isinstance(i, JzDec)})

    places = ["S", "C1", "C2"]
    for q in cm.states:
        places.append(state_place[q])
        instr = cm.program[q]
        if isinstance(instr, JzDec):
            places.append(f"{q}_mid")
        elif isinstance(instr, Halt):
            places += [f"{q}_drain", f"{q}_check"]
    for r in used:
        places += [f"z{r}_pick", f"z{r}_done"]
    places.append("accept")
    if transfer:
        places += [f"dump{r}" for r in used]

    transitions = []
    for q in cm.states:
        instr = cm.program[q]
        here = state_place[q]
        if isinstance(instr, Inc):
            c = counters[instr.counter - 1]
            transitions.append(Transition(
                f"{q}_inc", {here: Numeric(1)},
                {state_place[instr.goto]: 1, c: 1, "S": 1}))
        elif isinstance(instr, JzDec):
            c = counters[instr.counter - 1]
            transitions.append(Transition(
                f"{q}_dec", {here: Numeric(1), c: Numeric(1), "S": Numeric(1)},
                {state_place[instr.goto_nonzero]: 1}))
            transitions.append(Transition(
                f"{q}_go", {here: Numeric(1)},
                {f"{q}_mid": 1, f"z{instr.counter}_pick": 1}))
            transitions.append(Transition(
                f"{q}_zero",
                {f"{q}_mid": Numeric(1), f"z{instr.counter}_done": Numeric(1)},
                {state_place[instr.goto_zero]: 1}))
        else:
            transitions.append(Transition(
                "merge", {here: Numeric(1), "C1": Numeric(1)},
                {here: 1, "C2": 1}))
            transitions.append(Transition(
                "to_drain", {here: Numeric(1)}, {f"{q}_drain": 1}))
            transitions.append(Transition(
                "drain",
                {f"{q}_drain": Numeric(1), "S": Numeric(1), "C2": Numeric(1)},
                {f"{q}_drain": 1}))
            transitions.append(Transition(
                "to_check", {f"{q}_drain": Numeric(1)}, {f"{q}_check": 1}))
            transitions.append(Transition(
                "accept_now", {f"{q}_check": Numeric(1), "S": INHIBIT},
                {"accept": 1}))
    for r in used:
        c = counters[r - 1]
        wipe_arc = Transfer(f"dump{r}") if transfer else RESET
        transitions.append(Transition(
            f"wipe{r}", {f"z{r}_pick": Numeric(1), c: wipe_arc},
            {f"z{r}_done": 1}))

    initial = tuple(1 if p == state_place[cm.start] else 0 for p in places)
    net = Net(tuple(places), tuple(transitions), initial)
    # a state named like a control place (S, C1, accept, ...) would silently
    # corrupt the construction
    require_valid(net)
    cover_target = tuple(1 if p == "accept" else 0 for p in places)
    return MinskyCompilation(
        net=net, cover_target=cover_target, accept="accept", budget="S",
        counters=counters, state_place=state_place)


# ---------------------------------------------------------------------------
# matrix positivity

@dataclass(frozen=True)
class PositivityInstance:
    matrix: tuple    # rows; entry [j][i] feeds component j from component i
    v0: tuple

    @property
    def n(self) -> int:
        return len(self.v0)


def parse_positivity(text: str) -> PositivityInstance:
    """Whitespace separated integers: n, then n rows of n matrix entries,
    then the n entries of the start vector."""
    tokens = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for tok in line.split():
            tokens.append((tok, ln))
    if not tokens:
        raise ParseError("empty positivity instance", 1, 1)
    vals = []
    for tok, ln in tokens:
        try:
            vals.append(int(tok))
        except ValueError:
            raise ParseError(f"expected an integer, got {tok!r}", ln, 1)
    n = vals[0]
    if n <= 0:
        raise ParseError(f"dimension must be positive, got {n}", tokens[0][1], 1)
    need = 1 + n * n + n
    if len(vals) != need:
        raise ParseError(
            f"expected {need} integers for dimension {n}, got {len(vals)}",
            tokens[-1][1], 1)
    rows = tuple(tuple(vals[1 + j * n: 1 + (j + 1) * n]) for j in range(n))
    v0 = tuple(vals[1 + n * n:])
    return PositivityInstance(rows, v0)


def iterate(matrix, v):
    return tuple(sum(row[i] * v[i] for i in range(len(v))) for row in matrix)


def iterates(inst: PositivityInstance, k: int) -> list:
    """[v0, M v0, ..., M^k v0] with exact integer arithmetic."""
    out = [tuple(inst.v0)]
    for _ in range(k):
        out.append(iterate(inst.matrix, out[-1]))
    return out


def first_violation(inst: PositivityInstance, limit: int):
    """Smallest k <= limit with M^k v0 not entrywise nonnegative, or None."""
    v = tuple(inst.v0)
    for k in range(1, limit + 1):
        v = iterate(inst.matrix, v)
        if any(x < 0 for x in v):
            return k
    return None


@dataclass(frozen=True)
class PositivityCompilation:
    net: Net
    instance: PositivityInstance
    fuel: str
    refuel: str
    v_places: tuple
    nv_places: tuple
    w_places: dict        # (i, j) -> place, 1-based
    mul_names: tuple
    acc_names: dict       # (i, j) -> transition, nonzero entries only
    restart: str
    colsums: tuple


def compile_positivity(inst: PositivityInstance) -> PositivityCompilation:
    """One phase multiplies the vector held in v1..vn by the matrix: mul_i
    explodes a v_i token into w_ij tokens, acc_ij folds each into nv_j
    (adding or removing by the entry's sign) while moving the fuel the
    next phase will need into refuel.  The restart fires only on empty
    fuel, which happens exactly when a phase finished cleanly."""
    n = inst.n
    if any(x < 0 for x in inst.v0):
        raise ValueError("start vector must be nonnegative")
    colsums = tuple(sum(abs(inst.matrix[j][i]) for j in range(n))
                    for i in range(n))

    places = ["fuel"]
    nv = tuple(f"nv{j}" for j in range(1, n + 1))
    places += list(nv)
    places.append("refuel")
    v = tuple(f"v{i}" for i in range(1, n + 1))
    places += list(v)
    w = {(i, j): f"w{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)}
    places += [w[i, j] for i in range(1, n + 1) for j in range(1, n + 1)]

    transitions = []
    mul_names = []
    for i in range(1, n + 1):
        post = {w[i, j]: abs(inst.matrix[j - 1][i - 1])
                for j in range(1, n + 1) if inst.matrix[j - 1][i - 1] != 0}
        mul_names.append(f"mul{i}")
        transitions.append(Transition(f"mul{i}", {v[i - 1]: Numeric(1)}, post))
    acc_names = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entry = inst.matrix[j - 1][i - 1]
            if entry == 0:
                continue
            name = f"acc{i}_{j}"
            acc_names[i, j] = name
            pre = {w[i, j]: Numeric(1), "fuel": Numeric(1)}
            post = {}
            if entry > 0:
                post[nv[j - 1]] = 1
                if colsums[j - 1]:
                    post["refuel"] = colsums[j - 1]
            else:
                pre[nv[j - 1]] = Numeric(1)
                if colsums[j - 1]:
                    pre["refuel"] = Numeric(colsums[j - 1])
            transitions.append(Transition(name, pre, post))
    restart_pre = {"fuel": INHIBIT, "refuel": Transfer("fuel")}
    for j in range(1, n + 1):
        restart_pre[nv[j - 1]] = Transfer(v[j - 1])
    transitions.append(Transition("restart", restart_pre, {}))

    fuel0 = sum(colsums[i] * inst.v0[i] for i in range(n))
    counts = {"fuel": fuel0}
    for i in range(1, n + 1):
        counts[v[i - 1]] = inst.v0[i - 1]
    initial = tuple(counts.get(p, 0) for p in places)
    net = Net(tuple(places), tuple(transitions), initial)
    return PositivityCompilation(
        net=net, instance=inst, fuel="fuel", refuel="refuel",
        v_places=v, nv_places=nv, w_places=w, mul_names=tuple(mul_names),
        acc_names=acc_names, restart="restart", colsums=colsums)


@dataclass(frozen=True)
class PhaseReport:
    u_vectors: tuple      # u_vectors[k] = vector held in v1..vn after k phases
    trace: tuple          # transition names fired, in order


def simulate_phases(comp: PositivityCompilation, k: int) -> PhaseReport:
    """Drive k full phases on the canonical schedule (all mul firings,
    then sign-positive acc firings, then sign-negative ones, then the
    restart) and report the vector after each phase.  Requires every
    iterate up to M^k v0 to be nonnegative; the schedule would jam
    otherwise, that case is for reachability analysis, not this driver."""
    inst = comp.instance
    n = inst.n
    vecs = iterates(inst, k)
    for idx, vec in enumerate(vecs):
        if any(x < 0 for x in vec):
            raise ValueError(f"iterate {idx} has a negative entry: {vec}")

    net = comp.net
    m = net.initial
    trace = []
    vpos = [net.place_pos(p) for p in comp.v_places]

    def fire(name, times):
        nonlocal m
        for _ in range(times):
            m = net.fire(m, name)
            trace.append(name)

    for phase in range(k):
        u = vecs[phase]
        for i in range(1, n + 1):
            fire(comp.mul_names[i - 1], u[i - 1])
        for positive in (True, False):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    entry = inst.matrix[j - 1][i - 1]
                    if entry == 0 or (entry > 0) != positive:
                        continue
                    fire(comp.acc_names[i, j], abs(entry) * u[i - 1])
        fire(comp.restart, 1)
        got = tuple(m[p] for p in vpos)
        if got != tuple(vecs[phase + 1]):
            raise AssertionError(
                f"phase {phase + 1} ended at {got}, expected {vecs[phase + 1]}")

    return PhaseReport(u_vectors=tuple(vecs), trace=tuple(trace))
