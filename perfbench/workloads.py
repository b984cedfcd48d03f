"""Seeded query lists for the benchmark workloads, each query with an
answer known independently of the engine it checks.

An answer comes from how the instance is built (rings, countdowns,
transfer/reset chains, transform output sizes) or from the naive oracles
in ``tests/oracles.py`` on instances within their 400-marking cap.  The
same ``(workload, seed)`` always gives the same query list.

Nets are built as ``xpn.net.Net`` values, because the oracles read that
structure, and written out with ``net_text`` below rather than the
library's renderer, so that the inputs do not depend on the code under
test.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import fuzz
import machines
import oracles
from xpn.net import INHIBIT, RESET, Inhibitor, Net, Numeric, Reset, \
    Transfer, Transition

ORACLE_CAP = 400
# seconds one untraced pass over each workload's queries takes on a shared
# 2-vCPU x86-64 virtual machine (Intel Xeon, 2.0 GHz, Python 3.11); run.py
# sizes runs by these
PASS_SECONDS = {"forward": 1.2, "terminate": 6.5, "backward-transform": 3.0}


def net_text(net: Net) -> str:
    """The .xpn text of `net`, written without the library's renderer."""
    lines = ["places: " + " ".join(net.places)]
    marked = [f"{p}={n}" for p, n in zip(net.places, net.initial) if n]
    if marked:
        lines.append("marking: " + " ".join(marked))
    for t in net.transitions:
        pre = []
        for p, a in t.pre.items():
            if isinstance(a, Numeric):
                pre.append(f"in {p}*{a.weight}")
            elif isinstance(a, Inhibitor):
                pre.append(f"inh {p}")
            elif isinstance(a, Reset):
                pre.append(f"reset {p}")
            else:
                pre.append(f"xfer {p}->{a.target}")
        post = ", ".join(f"{p}*{w}" for p, w in t.post.items())
        lines.append(f"trans {t.name}: {', '.join(pre)} ; "
                     + (f"out {post}" if post else ""))
    return "\n".join(lines) + "\n"


def _places(n):
    return [f"p{i}" for i in range(n)]


# ---------------------------------------------------------------------------
# structured families

def ring(n, k):
    """k tokens circling n places: every distribution of k tokens is
    reachable, C(k+n-1, n-1) markings, and none is a deadlock."""
    ps = _places(n)
    ts = [Transition(f"t{i}", {ps[i]: Numeric(1)}, {ps[(i + 1) % n]: 1})
          for i in range(n)]
    return Net(ps, ts, [k] + [0] * (n - 1))


def ring_size(n, k):
    return math.comb(k + n - 1, n - 1)


def countdown(n, k):
    """n independent countdowns of k tokens each: terminating, with a
    reachability tree far larger than its (k+1)^n markings."""
    ps = _places(n)
    ts = [Transition(f"t{i}", {ps[i]: Numeric(1)}, {}) for i in range(n)]
    return Net(ps, ts, [k] * n)


def chain(n, with_reset):
    """The transfer/reset chain: p0 starts with one token, a_i doubles a
    token one place up, x_i transfers a whole place one up (paying a p0
    token for i > 0).  With the reset r, which refills p0 for free, every
    target is coverable.  Without it, weighting a token in p_i by
    2^(n-1-i) shows that the weight never grows, so p_{n-1} = k is
    coverable iff k <= 2^(n-1)."""
    ps = _places(n)
    ts = []
    for i in range(n - 1):
        ts.append(Transition(f"a{i}", {ps[i]: Numeric(1)}, {ps[i + 1]: 2}))
        pre = {ps[i]: Transfer(ps[i + 1])}
        if i > 0:
            pre[ps[0]] = Numeric(1)
        ts.append(Transition(f"x{i}", pre, {}))
    if with_reset:
        ts.append(Transition("r", {ps[-1]: RESET}, {ps[0]: 1}))
    return Net(ps, ts, [1] + [0] * (n - 1))


def chain_coverable(n, k, with_reset):
    return with_reset or k <= 2 ** (n - 1)


def line(n):
    """A line of n transitions moving one token p0 -> p_n.  Each
    transition can only be disabled one way, so the deadlock DNF of
    dlf-to-reach has a single clause whatever n is."""
    ps = _places(n + 1)
    ts = [Transition(f"t{i}", {ps[i]: Numeric(1)}, {ps[i + 1]: 1})
          for i in range(n)]
    return Net(ps, ts, [1] + [0] * n)


# ---------------------------------------------------------------------------
# seeded random nets; every one keeps its token total from growing (posts
# never exceed the numeric tokens consumed, resets and transfers add
# nothing), so its reachable set is finite and the oracles can close it

def _conservative_post(rng, places, consumed):
    post = {}
    for _ in range(rng.randint(1, consumed)):
        q = rng.choice(places)
        post[q] = post.get(q, 0) + 1
    return post


def mixed_net(rng, n, tokens, n_trans):
    """All four arc kinds mixed freely."""
    ps = _places(n)
    ts = []
    for j in range(n_trans):
        pre = {}
        for p in rng.sample(ps, rng.randint(1, 2)):
            pre[p] = Numeric(rng.randint(1, 2))
        consumed = sum(a.weight for a in pre.values())
        others = [p for p in ps if p not in pre]
        if others and rng.random() < 0.7:
            p = rng.choice(others)
            kind = rng.randrange(3)
            if kind == 0:
                pre[p] = INHIBIT
            elif kind == 1:
                pre[p] = RESET
            else:
                pre[p] = Transfer(rng.choice([q for q in ps if q != p]))
        ts.append(Transition(f"t{j}", pre, _conservative_post(rng, ps, consumed)))
    return Net(ps, ts, _spread(rng, n, tokens))


def eligible_net(rng, n, tokens, n_trans):
    """Inhibitor pre-places form a prefix p0..p_{j-1} of the place order,
    resets anywhere, no transfers: the class the ERT decides."""
    ps = _places(n)
    ts = []
    for j in range(n_trans):
        pre = {}
        depth = rng.choice([0, 0, 1, 1, 2])
        for i in range(depth):
            pre[ps[i]] = INHIBIT
        free = ps[depth:]
        for p in rng.sample(free, min(len(free), rng.randint(1, 2))):
            pre[p] = Numeric(rng.randint(1, 2))
        rest = [p for p in ps if p not in pre]
        if rest and rng.random() < 0.4:
            pre[rng.choice(rest)] = RESET
        consumed = sum(a.weight for a in pre.values() if isinstance(a, Numeric))
        post = _conservative_post(rng, ps, consumed) if rng.random() < 0.8 else {}
        ts.append(Transition(f"t{j}", pre, post))
    return Net(ps, ts, _spread(rng, n, tokens))


def no_inhibitor_net(rng, n, tokens, n_trans):
    """Numeric, reset and transfer arcs only, as backward-cover needs."""
    ps = _places(n)
    ts = []
    for j in range(n_trans):
        pre = {}
        for p in rng.sample(ps, rng.randint(1, 2)):
            pre[p] = Numeric(rng.randint(1, 2))
        consumed = sum(a.weight for a in pre.values())
        others = [p for p in ps if p not in pre]
        if others and rng.random() < 0.6:
            p = rng.choice(others)
            pre[p] = RESET if rng.random() < 0.5 else Transfer(
                rng.choice([q for q in ps if q != p]))
        ts.append(Transition(f"t{j}", pre, _conservative_post(rng, ps, consumed)))
    return Net(ps, ts, _spread(rng, n, tokens))


def _spread(rng, n, tokens):
    m = [0] * n
    for _ in range(tokens):
        m[rng.randrange(n)] += 1
    return m


def _closed(rng, make, lo, hi=ORACLE_CAP):
    """``fuzz.finite_net`` with a floor: a net whose oracle reachability
    graph has between `lo` and `hi` markings; returns (net, graph)."""
    for _ in range(1000):
        net, graph = fuzz.finite_net(rng, make, hi)
        if len(graph) >= lo:
            return net, graph
    raise RuntimeError("no net in the requested size range")


def tree_size(graph, root) -> int:
    """Nodes of the reachability tree of an acyclic graph: one node per
    path from the root, that is P(m) = 1 + sum of P over the edges of m.
    For a terminating net this is the full ERT, which has no subsumed
    leaf."""
    size = {}
    stack = [(root, False)]
    while stack:
        m, done = stack.pop()
        if m in size:
            continue
        if done:
            size[m] = 1 + sum(size[m2] for _, m2 in graph[m])
            continue
        stack.append((m, True))
        stack.extend((m2, False) for _, m2 in graph[m] if m2 not in size)
    return size[root]


# ---------------------------------------------------------------------------
# counter machines

# compile_minsky is code under test, so its output for the SUITE machines
# and the movers is committed under MINSKY_DIR (written by make_minsky.py)
# rather than compiled while the inputs are generated
MINSKY_DIR = Path(__file__).resolve().parent / "minsky"


def minsky_nets():
    """(machine name, halts, .xpn text) of every committed compiled
    machine; a file is named ``<machine>-halt.xpn`` or ``-loop.xpn``."""
    for path in sorted(MINSKY_DIR.glob("*.xpn")):
        name, end = path.stem.rsplit("-", 1)
        yield name, end == "halt", path.read_text()


def minsky_census(text):
    """Places and transitions of compile_minsky's output, counted from the
    machine text by the construction the compiler documents."""
    states, jz, used = 0, 0, set()
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        states += 1
        instr = body.split(":", 1)[1].split()
        if instr[0] == "JZDEC":
            jz += 1
            used.add(instr[1])
    halt_extra = 2
    places = 3 + states + jz + halt_extra + 2 * len(used) + 1
    inc = states - jz - 1
    transitions = inc + 3 * jz + 5 + len(used)
    return places, transitions


def machine_lines(rng, n_states):
    """A random straight-line machine: each state increments or
    decrement-tests a counter and moves on; the last state halts."""
    lines = []
    for i in range(n_states - 1):
        c = rng.choice("12")
        if rng.random() < 0.5:
            lines.append(f"q{i}: INC {c} -> q{i + 1}")
        else:
            lines.append(f"q{i}: JZDEC {c} -> q{i + 1} / q{i + 1}")
    lines.append(f"q{n_states - 1}: HALT")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the query lists

class Builder:
    """Collects input files and queries for one workload run."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.files = {}   # relative name -> text
        self.queries = []

    def file(self, text, ext):
        name = f"in{len(self.files):03d}.{ext}"
        self.files[name] = text
        return name

    def net(self, net):
        return self.file(net_text(net), "xpn")

    def add(self, tag, argv, check, net=None):
        self.queries.append({"tag": tag, "argv": argv, "net": net,
                             "check": check})


def _literal(places, m):
    return " ".join(f"{p}={n}" for p, n in zip(places, m) if n)


def _search(b, tag, places, path, mode, target=None, max_steps=None, **check):
    argv = ["explore", mode, path]
    if target is not None:
        argv += ["-m", _literal(places, target)]
    if max_steps is not None:
        argv += ["--max-steps", str(max_steps)]
    b.add(tag, argv, dict(kind="search", **check), net=path)


def forward(b: Builder):
    rng = b.rng
    # rings: anchors and exhaustive searches, sizes fixed, targets seeded
    r6 = ring(6, 12)
    p6 = b.net(r6)
    _search(b, "ring6x12-deadlock", r6.places, p6, "deadlock",
            status="EXHAUSTED", expanded=ring_size(6, 12))
    for _ in range(2):
        t = _spread(rng, 6, 11)
        _search(b, "ring6x12-reach-miss", r6.places, p6, "reach", t,
                status="EXHAUSTED", expanded=ring_size(6, 12))
        t = _spread(rng, 6, 12)
        _search(b, "ring6x12-reach-hit", r6.places, p6, "reach", t,
                status="FOUND", final={"eq": t})
    t = [0] * 5 + [13]
    _search(b, "ring6x12-cover-miss", r6.places, p6, "cover", t,
            status="EXHAUSTED", expanded=ring_size(6, 12))
    r7 = ring(7, 14)
    p7 = b.net(r7)
    _search(b, "ring7x14-deadlock", r7.places, p7, "deadlock",
            status="EXHAUSTED", expanded=ring_size(7, 14))
    _search(b, "ring7x14-deadlock-budget", r7.places, p7, "deadlock",
            max_steps=5000, status="OUT_OF_BUDGET", expanded=5000)
    _search(b, "ring6x12-reach-budget", r6.places, p6, "reach",
            _spread(rng, 6, 11), max_steps=2000, status="OUT_OF_BUDGET", expanded=2000)
    # random nets mixing all four arc kinds, answers from the oracle graph
    for i in range(72):
        net, graph = _closed(
            rng, lambda r: mixed_net(r, r.randint(4, 5), r.randint(6, 8),
                                     r.randint(4, 7)), 120)
        path = b.net(net)
        marks = sorted(graph)
        mode = ("deadlock", "reach", "cover")[i % 3]
        hit = rng.random() < 0.5
        if mode == "deadlock":
            dead = oracles.deadlocks(graph)
            if dead:
                _search(b, "mixed-deadlock-hit", net.places, path, "deadlock",
                        status="FOUND", final={"dead": sorted(dead)})
            else:
                _search(b, "mixed-deadlock-miss", net.places, path, "deadlock",
                        status="EXHAUSTED", expanded=len(graph))
        elif hit:
            t = list(rng.choice(marks))
            if mode == "cover":
                t = [rng.randint(0, x) for x in t]
            _search(b, f"mixed-{mode}-hit", net.places, path, mode, t,
                    status="FOUND", final={"eq" if mode == "reach" else "geq": t})
        else:
            # the token total never grows, so one token more than the
            # initial total is out of reach
            t = [0] * len(net.places)
            t[rng.randrange(len(t))] = sum(net.initial) + 1
            _search(b, f"mixed-{mode}-miss", net.places, path, mode, t,
                    status="EXHAUSTED", expanded=len(graph))
    # compiled counter machines: cover the accept place iff the machine
    # halts; the SUITE and two seeded movers, read from MINSKY_DIR
    movers = {f"mover{c}" for c in (rng.randint(3, 5), rng.randint(6, 8))}
    for name, halts, text in minsky_nets():
        if name.startswith("mover") and name not in movers:
            continue
        places = text.split("\n", 1)[0].split()[1:]
        target = [int(p == "accept") for p in places]
        _search(b, f"minsky-{'halt' if halts else 'loop'}", places,
                b.file(text, "xpn"), "cover", target,
                status="FOUND" if halts else "EXHAUSTED",
                final={"geq": target} if halts else None)


def terminate(b: Builder):
    rng = b.rng

    def decided(tag, net, graph=None, **extra):
        path = b.net(net)
        graph = graph or oracles.reach_graph(net, ORACLE_CAP)
        if oracles.has_cycle(graph):
            check = dict(kind="terminate", verdict="NONTERMINATING")
        else:
            check = dict(kind="terminate", verdict="TERMINATING",
                         tree_size=tree_size(graph, tuple(net.initial)))
        b.add(tag, ["terminate", path, *extra.get("argv", [])], check, net=path)

    # countdown (3,4) is the pinned anchor: tree_size 110,251
    decided("countdown3x4", countdown(3, 4))
    for n, k, reps in ((3, 3, 3), (4, 2, 3), (2, 6, 3)):
        for _ in range(reps):
            decided(f"countdown{n}x{k}", countdown(n, k))
    # (4,3) has a 1,107,697-node tree for 256 markings; the budget stops it.
    # Four per pass, so that the tail (the eleventh largest time) falls
    # inside this class rather than at the edge of the next one
    big = countdown(4, 3)
    path = b.net(big)
    for _ in range(4):
        b.add("countdown4x3-budget", ["terminate", path, "--max-nodes", "15000"],
              dict(kind="terminate", verdict="OUT_OF_BUDGET"), net=path)
    n_loop = n_term = 0
    while n_loop < 48 or n_term < 48:
        net, graph = _closed(
            rng, lambda r: eligible_net(r, r.randint(3, 4), r.randint(3, 5),
                                        r.randint(3, 5)), 8, 60)
        if oracles.has_cycle(graph):
            if n_loop >= 48:
                continue
            n_loop += 1
            decided("eligible-loop", net, graph)
        else:
            if n_term >= 48 or tree_size(graph, tuple(net.initial)) > 4000:
                continue
            n_term += 1
            decided("eligible-term", net, graph)


def backward(b: Builder):
    rng = b.rng

    def query(tag, net, target, coverable):
        path = b.net(net)
        b.add(tag, ["explore", "backward-cover", path, "-m",
                    _literal(net.places, target)],
              dict(kind="backward", verdict="COVERABLE" if coverable
                   else "UNCOVERABLE", target=list(target)), net=path)

    # chain (4,12) twice, so that the tail (the eleventh largest time)
    # falls inside its class rather than at the edge of the next one
    for n, k, with_reset in ((5, 8, True), (4, 12, True), (4, 12, True),
                             (6, 6, True), (4, 12, False), (4, 10, False),
                             (4, 8, False)):
        net = chain(n, with_reset)
        tgt = [0] * (n - 1) + [k]
        query(f"chain{n}x{k}{'' if with_reset else '-noreset'}", net, tgt,
              chain_coverable(n, k, with_reset))
    for i in range(80):
        net, graph = _closed(
            rng, lambda r: no_inhibitor_net(r, r.randint(3, 4), r.randint(3, 5),
                                            r.randint(3, 4)), 10, 150)
        n = len(net.places)
        if i % 2 == 0:
            t = [rng.randint(0, x) for x in rng.choice(sorted(graph))]
            query("random-cover", net, t, True)
        else:
            p = rng.randrange(n)
            t = [0] * n
            t[p] = max(m[p] for m in graph) + 1
            query("random-uncover", net, t, False)


def reset_net(rng, n_trans, n_reset):
    """`n_trans` transitions over n_trans/4 places, the first `n_reset` of
    them carrying one or two reset arcs."""
    ps = _places(max(4, n_trans // 4))
    ts = []
    for j in range(n_trans):
        pre = {rng.choice(ps): Numeric(1)}
        if j < n_reset:
            for p in rng.sample(ps, rng.randint(1, 2)):
                pre[p] = RESET
        ts.append(Transition(f"t{j}", pre, {rng.choice(ps): 1}))
    return Net(ps, ts, [1] * len(ps))


def inh_net(rng, n_trans):
    """Plain net with exactly two inhibitor arcs, for two-inh-to-reset."""
    ps = _places(max(4, n_trans // 4))
    ts = []
    for j in range(n_trans):
        p, q = rng.sample(ps, 2)
        pre = {p: Numeric(rng.randint(1, 2))}
        if j < 2:
            pre[q] = INHIBIT
        ts.append(Transition(f"t{j}", pre, {rng.choice(ps): 1}))
    return Net(ps, ts, [1] * len(ps))


def transfer_net(rng, n_trans):
    """Plain net with two transfer arcs on t0 and t1, with distinct
    sources p0 and p1, that transfer-hierarchize accepts without the
    swapper split."""
    ps = _places(max(5, n_trans // 4))
    ts = []
    for j in range(n_trans):
        if j == 0:
            pre = {"p0": Transfer("p2"), "p3": Numeric(1)}
        elif j == 1:
            pre = {"p1": Transfer("p4"), "p3": Numeric(1)}
        else:
            pre = {rng.choice(ps): Numeric(rng.randint(1, 2))}
        post = {rng.choice(ps[2:]): 1}
        ts.append(Transition(f"t{j}", pre, post))
    return Net(ps, ts, [1] * len(ps))


def dot_census(net):
    edges = sum(2 if isinstance(a, Transfer) else 1
                for t in net.transitions for a in t.pre.values())
    edges += sum(len(t.post) for t in net.transitions)
    return len(net.places) + len(net.transitions), edges


def transform(b: Builder):
    rng = b.rng

    def out(tag, argv, places, transitions, no_reset=False):
        b.add(tag, argv, dict(kind="net_out", places=places,
                              transitions=transitions, no_reset=no_reset))

    for n_trans, n_reset in ((60, 4), (120, 6), (200, 8), (280, 10)):
        net = reset_net(rng, n_trans, n_reset)
        resets = sum(isinstance(a, Reset) for t in net.transitions
                     for a in t.pre.values())
        # each reset-bearing transition becomes start + one drain per reset
        # + finish, and adds a busy and a lock place
        out(f"hir-elim-all-{n_trans}", ["transform", "hir-elim-all", b.net(net)],
            len(net.places) + 2 * n_reset, n_trans + n_reset + resets,
            no_reset=True)
    for size, n in (("s", 120), ("m", 300), ("l", 580)):
        # one clause (all numeric places empty): live, goal and the clause
        # place; gated originals, enter, one drop for p_n, and the check
        out(f"dlf-to-reach-{size}", ["transform", "dlf-to-reach", b.net(line(n))],
            n + 4, n + 3)
    for size, n_trans in (("s", 100), ("l", 275)):
        net = reset_net(rng, n_trans, 0)
        tgt = _spread(rng, len(net.places), 3)
        out(f"reach-to-dlf-{size}",
            ["transform", "reach-to-dlf", b.net(net), "-m", _literal(net.places, tgt)],
            len(net.places) + 3, n_trans + len(net.places) + 2)
    for size, n_trans in (("s", 100), ("l", 275)):
        net = inh_net(rng, n_trans)
        out(f"two-inh-to-reset-{size}",
            ["transform", "two-inh-to-reset", b.net(net)],
            len(net.places) + 1, n_trans)
    for size, n_trans in (("s", 100), ("l", 220)):
        net = transfer_net(rng, n_trans)
        out(f"transfer-hierarchize-{size}",
            ["transform", "transfer-hierarchize", b.net(net)],
            len(net.places) + 3, 2 * n_trans)
    for size, n_states in (("s", 50), ("l", 150)):
        src = machine_lines(rng, n_states)
        places, transitions = minsky_census(src)
        out(f"compile-minsky-{size}",
            ["compile", "minsky", b.file(src, "cm")], places, transitions)
    for name, src, _ in machines.SUITE[:4]:
        places, transitions = minsky_census(src)
        out("compile-minsky-suite", ["compile", "minsky", b.file(src, "cm")],
            places, transitions)
    for n in (6, 10, 14):
        rows = [[rng.choice((0, rng.randint(-3, 3), rng.randint(1, 3)))
                 for _ in range(n)] for _ in range(n)]
        v0 = [rng.randint(0, 4) for _ in range(n)]
        text = f"{n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows) \
            + " ".join(map(str, v0)) + "\n"
        nnz = sum(x != 0 for r in rows for x in r)
        out(f"compile-positivity-{n}", ["compile", "positivity", b.file(text, "pos")],
            2 + 2 * n + n * n, n + nnz + 1)
    for size, n_trans in (("s", 120), ("l", 320)):
        export_dot(b, f"export-dot-{size}", mixed_net(rng, n_trans // 5, 10, n_trans))
    # the bulk: small nets through every reduction, so that the median
    # query falls inside one class of like queries
    for i in range(60):
        n_trans = rng.randint(30, 40)
        op = i % 5
        if op == 0:
            n = n_trans
            out("small-dlf-to-reach", ["transform", "dlf-to-reach",
                                       b.net(line(n))], n + 4, n + 3)
        elif op == 1:
            net = reset_net(rng, n_trans, 0)
            out("small-reach-to-dlf", ["transform", "reach-to-dlf", b.net(net),
                                       "-m", _literal(net.places, _spread(
                                           rng, len(net.places), 2))],
                len(net.places) + 3, n_trans + len(net.places) + 2)
        elif op == 2:
            net = inh_net(rng, n_trans)
            out("small-two-inh-to-reset", ["transform", "two-inh-to-reset",
                                           b.net(net)],
                len(net.places) + 1, n_trans)
        elif op == 3:
            net = transfer_net(rng, n_trans)
            out("small-transfer-hierarchize", ["transform", "transfer-hierarchize",
                                               b.net(net)],
                len(net.places) + 3, 2 * n_trans)
        else:
            export_dot(b, "small-export-dot", mixed_net(rng, 6, 6, n_trans))


def export_dot(b, tag, net):
    nodes, edges = dot_census(net)
    b.add(tag, ["export-dot", b.net(net)], dict(kind="dot", nodes=nodes, edges=edges))


def warmup(b: Builder, workload):
    """One small untimed query of the workload's own kind."""
    if workload == "forward":
        net = ring(4, 4)
        _search(b, "warmup", net.places, b.net(net), "deadlock",
                status="EXHAUSTED", expanded=ring_size(4, 4))
    elif workload == "terminate":
        net = countdown(2, 2)
        path = b.net(net)
        b.add("warmup", ["terminate", path],
              dict(kind="terminate", verdict="TERMINATING", tree_size=19),
              net=path)
    else:
        net = chain(3, False)
        path = b.net(net)
        b.add("warmup", ["explore", "backward-cover", path, "-m", "p2=5"],
              dict(kind="backward", verdict="UNCOVERABLE", target=[0, 0, 5]),
              net=path)


def backward_transform(b: Builder):
    """Backward saturation and the net-to-net transforms in one workload:
    neither fires a transition.  They share one so that each run can be
    long enough to be steady on a shared host (see DESIGN.md)."""
    backward(b)
    transform(b)


BUILDERS = {"forward": forward, "terminate": terminate,
            "backward-transform": backward_transform}


def build(workload, seed):
    """(files, warm-up query, query list) for one run; the query order is
    shuffled by the seed."""
    b = Builder(seed)
    BUILDERS[workload](b)
    b.rng.shuffle(b.queries)
    queries = b.queries
    b.queries = []
    warmup(b, workload)
    return b.files, b.queries[0], queries
