"""Independent reference implementations the tests check the library
against.  Everything here works on plain dicts and the public net
structure only; none of it shares code with the library's firing plan,
search engines or tree walk.  The one exception, `positivity_phases`,
fires a schedule through the library's `fire`: it checks what the
positivity compiler builds, not the firing rule."""

from itertools import product
from math import comb, prod

from xpn.net import (INHIBITOR_KIND, KIND_ORDER, RESET_KIND, TRANSFER_KIND,
                     Inhibitor, NetClass, Numeric, Reset, Transfer)
from xpn.net import fire as lib_fire


def enabled(t, m: dict) -> bool:
    for place, arc in t.pre.items():
        if isinstance(arc, Numeric) and m[place] < arc.weight:
            return False
        if isinstance(arc, Inhibitor) and m[place] != 0:
            return False
    return True


def fire(t, m: dict) -> dict:
    """Five stages: numeric subtraction, transfer snapshot, zeroing of
    reset and transfer sources, snapshot delivery, posts."""
    out = dict(m)
    for place, arc in t.pre.items():
        if isinstance(arc, Numeric):
            out[place] -= arc.weight
    snapshot = {place: out[place] for place, arc in t.pre.items()
                if isinstance(arc, Transfer)}
    for place, arc in t.pre.items():
        if isinstance(arc, (Reset, Transfer)):
            out[place] = 0
    for place, arc in t.pre.items():
        if isinstance(arc, Transfer):
            out[arc.target] += snapshot[place]
    for place, w in t.post.items():
        out[place] += w
    return out


def successor_pairs(net, m: dict) -> list:
    return [(t.name, fire(t, m)) for t in net.transitions if enabled(t, m)]


def as_tuple(net, m: dict) -> tuple:
    return tuple(m[p] for p in net.places)


def as_dict(net, m) -> dict:
    return {p: m[i] for i, p in enumerate(net.places)}


def reach_graph(net, cap: int, start=None):
    """Breadth-first closure of the reachable markings, as
    {marking: [(transition, successor), ...]}; None if more than `cap`
    markings are reachable."""
    first = as_dict(net, net.initial if start is None else start)
    frontier = [first]
    graph = {as_tuple(net, first): None}
    while frontier:
        nxt = []
        for m in frontier:
            edges = []
            for name, m2 in successor_pairs(net, m):
                key = as_tuple(net, m2)
                edges.append((name, key))
                if key not in graph:
                    if len(graph) >= cap:
                        return None
                    graph[key] = None
                    nxt.append(m2)
            graph[as_tuple(net, m)] = edges
        frontier = nxt
    return graph


def has_cycle(graph) -> bool:
    """Any cycle in the reachable graph witnesses an infinite run."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {k: WHITE for k in graph}
    for root in graph:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(graph[root]))]
        color[root] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for _, nxt in it:
                if color[nxt] == GREY:
                    return True
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, iter(graph[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return False


def path_count(net, cap: int):
    """The number of paths from the initial marking in the reachable
    graph, the empty one included: the node count of a full reachability
    tree.  None if more than `cap` markings are reachable or the graph has
    a cycle, so that no count is finite."""
    graph = reach_graph(net, cap)
    if graph is None:
        return None
    size = {}  # marking -> its path count; None while on the stack
    root = as_tuple(net, as_dict(net, net.initial))
    size[root] = None
    stack = [(root, iter(graph[root]))]
    while stack:
        node, it = stack[-1]
        for _, nxt in it:
            if nxt not in size:
                size[nxt] = None
                stack.append((nxt, iter(graph[nxt])))
                break
            if size[nxt] is None:
                return None  # on the stack: a cycle
        else:
            stack.pop()
            size[node] = 1 + sum(size[nxt] for _, nxt in graph[node])
    return size[root]


def deadlock_clauses(net, cap: int):
    """The DNF of "no transition can fire" as `dlf_to_reach` lists it,
    from every combination of one way per transition to be disabled:
    in arc order, a numeric pre-place holding exactly j tokens for each j
    below its weight, or an inhibited place holding at least one.  The
    distinct consistent combinations in lexicographic order, each as
    {position: ("exact", j) or ("atleast",)} in the order its places are
    first met; "budget" if there are more than `cap`."""
    options = []
    for t in net.transitions:
        ways = []
        for place, arc in t.pre.items():
            p = net.places.index(place)
            if isinstance(arc, Numeric):
                ways += [(p, ("exact", j)) for j in range(arc.weight)]
            elif isinstance(arc, Inhibitor):
                ways.append((p, ("atleast",)))
        if not ways:
            return []
        options.append(ways)
    clauses, seen = [], set()
    for combo in product(*options):
        clause = {}
        for p, way in combo:
            prev = clause.get(p)
            if way == ("atleast",):
                if prev == ("exact", 0):
                    break
                clause[p] = prev or way
            elif prev is not None and prev != way and (
                    prev != ("atleast",) or way == ("exact", 0)):
                break
            else:
                clause[p] = way
        else:
            key = frozenset(clause.items())
            if key not in seen:
                if len(clauses) == cap:
                    return "budget"
                seen.add(key)
                clauses.append(clause)
    return clauses


def terminates(net, cap: int):
    """True / False by exhaustive analysis, None if over `cap` markings.
    A finite reachable graph admits an infinite run iff it has a cycle."""
    graph = reach_graph(net, cap)
    if graph is None:
        return None
    return not has_cycle(graph)


def ert_tree(net, max_nodes: int, stop_early: bool = True, rng=None):
    """The extended reachability tree, built naively from its definition.

    A node's children are made, in declaration order (shuffled by `rng`),
    when it is expanded, and the first child made is expanded first.  A
    child is a subsumed leaf, not expanded, when an ancestor's marking is
    <= its own on every place and equal to it on the first k places, k
    being the largest transition index on the path from that ancestor down
    to it; the nearest such ancestor is recorded.  `stop_early` makes no
    node after the first subsumed leaf.

    Returns (nodes, verdict).  nodes[i] = (marking, parent, via, status,
    subsumed_by) in the order made, status "inner", "deadlock" or
    "subsumed".  verdict is ("terminating", node count) or
    ("nonterminating", stem, pump), the transition names from the root to
    the first leaf's subsuming ancestor and on to the leaf.  Returns
    ("budget", message) instead if more than `max_nodes` nodes are made."""
    index = {t.name: transition_index(net, t) for t in net.transitions}
    over = ("budget", f"tree exceeded {max_nodes} nodes")
    if max_nodes < 1:
        return over
    # [marking dict, parent, via, status, subsumed_by]
    nodes = [[as_dict(net, net.initial), None, None, "inner", None]]
    first_leaf = None
    stack = [0]
    while stack and not (stop_early and first_leaf is not None):
        i = stack.pop()
        pairs = successor_pairs(net, nodes[i][0])
        if rng is not None:
            rng.shuffle(pairs)
        if not pairs:
            nodes[i][3] = "deadlock"
        kids = []
        for name, m in pairs:
            if len(nodes) == max_nodes:
                return over
            nodes.append([m, i, name, "inner", None])
            anc = _subsuming_ancestor(net, nodes, len(nodes) - 1, index)
            if anc is None:
                kids.append(len(nodes) - 1)
                continue
            nodes[-1][3:] = ["subsumed", anc]
            if first_leaf is None:
                first_leaf = len(nodes) - 1
            if stop_early:
                break
        stack.extend(reversed(kids))
    out = [(as_tuple(net, n[0]), *n[1:]) for n in nodes]
    if first_leaf is None:
        return out, ("terminating", len(nodes))
    run = _names_from_root(nodes, first_leaf)
    k = len(_names_from_root(nodes, nodes[first_leaf][4]))
    return out, ("nonterminating", tuple(run[:k]), tuple(run[k:]))


def _subsuming_ancestor(net, nodes, j, index):
    m = nodes[j][0]
    level = 0
    below, anc = j, nodes[j][1]
    while anc is not None:
        level = max(level, index[nodes[below][2]])
        ma = nodes[anc][0]
        if all(ma[p] <= m[p] for p in net.places) and \
                all(ma[p] == m[p] for p in net.places[:level]):
            return anc
        below, anc = anc, nodes[anc][1]
    return None


def _names_from_root(nodes, i) -> list:
    names = []
    while nodes[i][1] is not None:
        names.append(nodes[i][2])
        i = nodes[i][1]
    return names[::-1]


def deadlocks(graph) -> list:
    return [m for m, edges in graph.items() if not edges]


def longest_edge_count(graph, start, pred) -> int:
    """Max number of edges satisfying `pred(transition name)` on any path
    from `start`.  The graph must be acyclic."""
    order = []
    state = {}  # 0 in progress, 1 done
    stack = [(start, 0)]
    while stack:
        node, phase = stack.pop()
        if phase == 0:
            if node in state:
                continue
            state[node] = 0
            stack.append((node, 1))
            for _, nxt in graph[node]:
                if nxt not in state:
                    stack.append((nxt, 0))
                elif state[nxt] == 0:
                    raise AssertionError("cycle found in supposed DAG")
            continue
        state[node] = 1
        order.append(node)
    best = {m: 0 for m in order}
    for m in order:  # reverse topological: successors already final
        for name, nxt in graph[m]:
            cand = best[nxt] + (1 if pred(name) else 0)
            if cand > best[m]:
                best[m] = cand
    return best[start]


# ---------------------------------------------------------------------------
# counter machines and integer matrices

def run_machine(program: dict, start: str, max_configs: int):
    """program maps a state name to ("inc", c, goto),
    ("jzdec", c, goto_zero, goto_nonzero) or ("halt",)."""
    q, counters = start, [0, 0]
    seen = set()
    for _ in range(max_configs):
        cfg = (q, counters[0], counters[1])
        if cfg in seen:
            return False
        seen.add(cfg)
        instr = program[q]
        if instr[0] == "halt":
            return True
        if instr[0] == "inc":
            counters[instr[1] - 1] += 1
            q = instr[2]
        else:
            _, c, qz, qnz = instr
            if counters[c - 1] == 0:
                q = qz
            else:
                counters[c - 1] -= 1
                q = qnz
    return None


def mat_apply(rows, v):
    return tuple(sum(w * x for w, x in zip(row, v)) for row in rows)


def mat_iterates(rows, v0, k):
    out = [tuple(v0)]
    for _ in range(k):
        out.append(mat_apply(rows, out[-1]))
    return out


def first_violation(inst, limit: int):
    """Smallest k <= limit with M^k v0 not entrywise nonnegative, or None,
    for a `PositivityInstance`."""
    return next((k for k, v in enumerate(mat_iterates(
        inst.matrix, inst.v0, limit)) if min(v) < 0), None)


def positivity_phases(comp, k: int) -> list:
    """The vector in v1..vn of a `compile_positivity` result's net after
    each of `k` phases, from v0 on.  A phase fires the canonical schedule
    for the vector u it starts from through the library's `fire`, keeping
    only the current marking: each mul_i u_i times, then each acc_ij of a
    positive entry |m_ji| u_i times, then those of negative entries, then
    the restart.  A phase whose iterate has a negative entry jams, and
    `fire` raises NotFirableError."""
    net, rows = comp.net, comp.instance.matrix
    vpos = [net.place_pos(p) for p in comp.v_places]
    m = net.initial
    out = [tuple(m[p] for p in vpos)]
    for _ in range(k):
        u = out[-1]
        runs = list(zip(comp.mul_names, u))
        for positive in (True, False):
            runs += [(name, abs(rows[j - 1][i - 1]) * u[i - 1])
                     for (i, j), name in comp.acc_names.items()
                     if (rows[j - 1][i - 1] > 0) == positive]
        runs.append((comp.restart, 1))
        for name, times in runs:
            for _ in range(times):
                m = lib_fire(net, m, name)
        out.append(tuple(m[p] for p in vpos))
    return out


def invert_map(mapping, x, src_len: int):
    """The unique source marking M with mapping(M) == x, or None when x
    is not in the map's image."""
    out = {}
    for tpos, (kind, a) in enumerate(mapping.entries):
        if kind == "const":
            if x[tpos] != a:
                return None
        elif a in out:
            if out[a] != x[tpos]:
                return None
        else:
            out[a] = x[tpos]
    if set(out) != set(range(src_len)):
        return None
    return tuple(out[i] for i in range(src_len))


def reach_set(net, cap: int) -> set:
    """Breadth-first set of reachable markings, truncated at roughly
    `cap`; complete whenever fewer are reachable."""
    first = as_dict(net, net.initial)
    seen = {as_tuple(net, first)}
    frontier = [first]
    while frontier and len(seen) < cap:
        nxt = []
        for m in frontier:
            for _, m2 in successor_pairs(net, m):
                key = as_tuple(net, m2)
                if key not in seen:
                    seen.add(key)
                    nxt.append(m2)
        frontier = nxt
    return seen


def _kind_of(arc) -> str:
    if isinstance(arc, Inhibitor):
        return INHIBITOR_KIND
    if isinstance(arc, Reset):
        return RESET_KIND
    if isinstance(arc, Transfer):
        return TRANSFER_KIND
    return ""


def classify(net) -> NetClass:
    """The class taxonomy walked straight off the `pre` dicts of a valid
    net, place by place."""
    present = set()
    hier_ok = {k: True for k in KIND_ORDER}
    constrained = True
    eligible = True

    for t in net.transitions:
        special_pos = set()
        kind_pos = {k: [] for k in KIND_ORDER}
        for place, arc in t.pre.items():
            k = _kind_of(arc)
            if not k:
                continue
            p = net.places.index(place)
            special_pos.add(p)
            kind_pos[k].append(p)
            present.add(k)
            if isinstance(arc, Transfer):
                below = t.pre.get(arc.target)
                if below is not None and not isinstance(below, Numeric):
                    constrained = False
        for k, positions in kind_pos.items():
            for p in positions:
                if not all(q in special_pos for q in range(p)):
                    hier_ok[k] = False
                    break
        # the termination walk takes no transfer arc, and inhibitor
        # pre-places only as a downward-closed set
        inh = sorted(kind_pos[INHIBITOR_KIND])
        if kind_pos[TRANSFER_KIND] or inh != list(range(len(inh))):
            eligible = False

    specials = tuple(k for k in KIND_ORDER if k in present)
    hierarchical = tuple(k for k in specials if hier_ok[k])
    return NetClass(specials, hierarchical, constrained, eligible)


def transition_index(net, t) -> int:
    """1 + the highest position of an inhibitor pre-place of `t`, or 0."""
    return max((net.places.index(p) + 1 for p, a in t.pre.items()
                if isinstance(a, Inhibitor)), default=0)


def compositions(total: int, parts: int):
    """All ways, in lexicographic order, to write `total` as an ordered sum
    of `parts` >= 1 nonnegative ints."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def predecessor_shape(net, t) -> tuple:
    """Transition `t` of `net`, read off its arcs, for `min_predecessors`;
    inhibitor arcs are ignored, as backward coverability refuses them.

    Returns (pre_w, post_w, plain, killed, groups): the numeric weights
    taken and the tokens put back per place; the places neither zeroed nor
    fed by a transfer; the zeroed places no transfer refills; and, per
    transfer target p in place order, the slots whose tokens can meet p's
    demand (p itself unless it is zeroed, then its transfer sources in arc
    order)."""
    pos = {p: i for i, p in enumerate(net.places)}
    n = len(net.places)
    pre_w, post_w = [0] * n, [0] * n
    zeroed, incoming = set(), {}
    for place, arc in t.pre.items():
        p = pos[place]
        if isinstance(arc, Numeric):
            pre_w[p] = arc.weight
        elif isinstance(arc, Reset):
            zeroed.add(p)
        elif isinstance(arc, Transfer):
            zeroed.add(p)
            incoming.setdefault(pos[arc.target], []).append(p)
    for place, w in t.post.items():
        post_w[pos[place]] += w
    plain = [p for p in range(n) if p not in zeroed and p not in incoming]
    killed = [p for p in range(n) if p in zeroed and p not in incoming]
    groups = [(p, ([] if p in zeroed else [p]) + incoming[p])
              for p in sorted(incoming)]
    return pre_w, post_w, plain, killed, groups


def min_predecessors(shape, target, room=float("inf")):
    """Minimal markings m with fire(m, t) >= target, for the transition
    read into `shape` by `predecessor_shape`, as tuples; None, before any
    is built, when there are more than `room` of them.

    A transfer target's demand can be met partly by tokens already in the
    target place and partly by tokens arriving from each source, and the
    minimal ways to split that demand are exactly the integer
    compositions, comb(d + k - 1, k - 1) of them for a demand d over k
    slots."""
    pre_w, post_w, plain, killed, groups = shape
    for p in killed:
        if target[p] > post_w[p]:
            return []  # this transition cannot refill a zeroed place
    splits = [(slots, max(0, target[p] - post_w[p])) for p, slots in groups]
    if prod(comb(d + len(s) - 1, len(s) - 1) for s, d in splits) > room:
        return None
    base = list(pre_w)  # zeroed places take no numeric arc, so stay 0
    for p in plain:
        demand = target[p] - post_w[p]
        if demand > 0:
            base[p] += demand
    out = [base]
    for slots, demand in splits:
        split_axes = list(compositions(demand, len(slots)))
        nxt = []
        for m in out:
            for split in split_axes:
                m2 = list(m)
                for slot, extra in zip(slots, split):
                    m2[slot] += extra
                nxt.append(m2)
        out = nxt
    return [tuple(m) for m in out]


def check_basis(net, target, result):
    """Re-check an answer of backward coverability for `target` from its
    basis B alone, by the tuple rule: B is an antichain, the target is in
    ↑B, every minimal predecessor of every element of B under every
    transition is in ↑B (so ↑B holds every marking that covers the target
    after some run), every element of B is the target or such a
    predecessor (so ↑B holds no other marking), and the answer is
    COVERABLE exactly when the initial marking is in ↑B.  Raises
    AssertionError on the first failure.

    A correct basis passes, although a search drops an element c once it
    finds a smaller c': each minimal predecessor m of c that B keeps is
    at or above a minimal predecessor of c', which is in ↑B, so at or
    above an element of B; B is an antichain, so that element is m, and
    m is a minimal predecessor of c'."""
    basis = [tuple(b) for b in result.basis]

    def up(m):
        return any(all(x <= y for x, y in zip(b, m)) for b in basis)

    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            assert i == j or not all(x <= y for x, y in zip(a, b)), \
                f"basis not an antichain: {a} <= {b}"
    assert up(tuple(target)), f"target {target} not in the basis' up-set"
    shapes = [predecessor_shape(net, t) for t in net.transitions]
    preds = {tuple(target)}
    for b in basis:
        for t, shape in zip(net.transitions, shapes):
            for m in min_predecessors(shape, b):
                assert up(m), (f"predecessor {m} of {b} under {t.name} "
                               "not in the basis' up-set")
                preds.add(tuple(m))
    for b in basis:
        assert b in preds, (f"basis element {b} is neither the target nor a "
                            "minimal predecessor of a basis element")
    assert result.coverable == up(tuple(net.initial)), \
        "the verdict disagrees with the basis"
