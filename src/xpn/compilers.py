"""Compilers from counter machines and matrix-positivity instances.

compile_minsky turns a two-counter machine into a net with two reset arcs
(or two transfer arcs) and one inhibitor arc such that the machine halts
iff the accept marking is coverable.  compile_positivity turns an integer
matrix iteration into a transfer net whose restart transition fires once
per iteration exactly while all iterates stay nonnegative.
"""

from __future__ import annotations

import re

from .fmt import ParseError, _NAME_RE
from .net import (INHIBIT, Net, Numeric, RESET, Transfer, _ONE, _Value,
                  _transition_of, require_valid)


# ---------------------------------------------------------------------------
# two-counter machines

class Inc(_Value):
    """Add one to `counter`, then go to state `goto`."""

    __slots__ = _fields = ("counter", "goto")


class JzDec(_Value):
    """Go to `goto_zero` if `counter` is 0, else take one from it and go to
    `goto_nonzero`."""

    __slots__ = _fields = ("counter", "goto_zero", "goto_nonzero")


class Halt(_Value):
    __slots__ = ()


class CounterMachine(_Value):
    """`states` are the state names in declaration order, the first the
    start; `program` maps each name to its Inc | JzDec | Halt."""

    __slots__ = _fields = ("states", "program")

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


class MinskyCompilation(_Value):
    """`compile_minsky`'s net: `cover_target` marks the `accept` place, and
    `state_place` maps a state name to its place."""

    __slots__ = _fields = ("net", "cover_target", "accept", "budget",
                           "counters", "state_place")


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
            transitions.append(_transition_of(
                f"{q}_inc", {here: _ONE},
                {state_place[instr.goto]: 1, c: 1, "S": 1}))
        elif isinstance(instr, JzDec):
            c = counters[instr.counter - 1]
            transitions.append(_transition_of(
                f"{q}_dec", {here: _ONE, c: _ONE, "S": _ONE},
                {state_place[instr.goto_nonzero]: 1}))
            transitions.append(_transition_of(
                f"{q}_go", {here: _ONE},
                {f"{q}_mid": 1, f"z{instr.counter}_pick": 1}))
            transitions.append(_transition_of(
                f"{q}_zero",
                {f"{q}_mid": _ONE, f"z{instr.counter}_done": _ONE},
                {state_place[instr.goto_zero]: 1}))
        else:
            transitions.append(_transition_of(
                "merge", {here: _ONE, "C1": _ONE}, {here: 1, "C2": 1}))
            transitions.append(_transition_of(
                "to_drain", {here: _ONE}, {f"{q}_drain": 1}))
            transitions.append(_transition_of(
                "drain", {f"{q}_drain": _ONE, "S": _ONE, "C2": _ONE},
                {f"{q}_drain": 1}))
            transitions.append(_transition_of(
                "to_check", {f"{q}_drain": _ONE}, {f"{q}_check": 1}))
            transitions.append(_transition_of(
                "accept_now", {f"{q}_check": _ONE, "S": INHIBIT},
                {"accept": 1}))
    for r in used:
        c = counters[r - 1]
        wipe_arc = Transfer(f"dump{r}") if transfer else RESET
        transitions.append(_transition_of(
            f"wipe{r}", {f"z{r}_pick": _ONE, c: wipe_arc}, {f"z{r}_done": 1}))

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

class PositivityInstance(_Value):
    """The iteration of `matrix`, a tuple of rows whose entry [j][i] feeds
    component j from component i, from the start vector `v0`."""

    __slots__ = _fields = ("matrix", "v0")

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


class PositivityCompilation(_Value):
    """`compile_positivity`'s net and its names: `w_places` maps (i, j),
    1-based, to a place, `acc_names` to a transition (nonzero entries)."""

    __slots__ = _fields = ("net", "instance", "fuel", "refuel", "v_places",
                           "nv_places", "w_places", "mul_names", "acc_names",
                           "restart", "colsums")


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
        transitions.append(_transition_of(f"mul{i}", {v[i - 1]: _ONE}, post))
    acc_names = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entry = inst.matrix[j - 1][i - 1]
            if entry == 0:
                continue
            name = f"acc{i}_{j}"
            acc_names[i, j] = name
            pre = {w[i, j]: _ONE, "fuel": _ONE}
            post = {}
            if entry > 0:
                post[nv[j - 1]] = 1
                if colsums[j - 1]:
                    post["refuel"] = colsums[j - 1]
            else:
                pre[nv[j - 1]] = _ONE
                if colsums[j - 1]:
                    pre["refuel"] = Numeric(colsums[j - 1])
            transitions.append(_transition_of(name, pre, post))
    restart_pre = {"fuel": INHIBIT, "refuel": Transfer("fuel")}
    for j in range(1, n + 1):
        restart_pre[nv[j - 1]] = Transfer(v[j - 1])
    transitions.append(_transition_of("restart", restart_pre, {}))

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

