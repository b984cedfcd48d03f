"""Termination decider over an extended reachability tree.

The tree unrolls runs depth-first in declaration order.  A node is cut as a
subsumed leaf when some ancestor marking is componentwise <= it AND agrees
with it exactly on every place whose index is at most the largest
transition index used along the connecting path.  Place index is position
plus one (the least place has index 1); a transition's index is the largest
index among its inhibitor pre-places, 0 if it has none.

A subsumed leaf certifies a pumpable non-terminating run (stem to the
ancestor, pump down to the leaf).  If the tree completes without one, every
branch ends in a deadlock and the net terminates.  The tree is finite for
eligible nets, so running out of node budget is a resource error, not a
verdict.

The walk runs on markings packed into one int each (`packed._Fields`), from
the root on.  It reads the firing table of the forward search's table tier
(`packed._table`): one row of packed ints per transition, where one
guard-bit subtraction tests its numeric arcs, one AND its inhibitor arcs,
and a child is one addition less one AND for its reset places; the table's
one cost rule decides when a marking tests only the transitions whose
first numeric pre-place it marks (and those with none).  An ancestor
subsumes a child when one guard-bit subtraction finds it <= the child and
one AND finds them equal on the prefix.  A child with an entry near its
field's limit starts the walk again at a wider field (the widening
protocol of `packed`).  Markings are decoded only for the recorded nodes,
once per distinct marking.  The walk checks a certificate where it makes
it, by the interpreted firing rule.

If no transition adds tokens, the token sum never rises along a run, so
an ancestor <= a child equals it, and the walk looks the child up among
the path's markings instead of scanning the path.  No marking repeats on
a path, so both find the same ancestor and every output is the same.

One depth-first walk serves both entry points, and it keeps only the
current path.  `decide_termination` runs it for the verdict: the walk stops
at the first cut and memoises each marking whose subtree completed, so a
marking met again is counted, not expanded.  `build_ert` runs it to record
the tree: the walk memoises nothing, stores every node, and goes on past
the first cut unless told to stop there.  Both number and count the same
tree nodes against one node budget, so without a shuffle they reach the
same verdict, budget error included.

Eligible nets: every transition's inhibitor pre-places form a downward
closed set, reset arcs are unrestricted, transfer arcs are absent.
"""

from __future__ import annotations

# `classify` and `successors` are no longer called here; they stay
# importable from this module because the benchmark's tracer wraps
# `ert.classify` and `ert.successors`
from .net import (BudgetExceededError, Marking, Net, XpnError, _Value,
                  _ert_fault, _leq, classify, replay, successors)
from .packed import _Fields, _Widen, _table, _widening
from .fmt import _q, _writes_counts


class NotEligibleError(XpnError):
    """The net is outside the class this decider handles."""


def transition_index(net: Net, tname: str) -> int:
    return net._plan_for(tname).index


class Terminating(_Value):
    """The verdict that every run ends; the tree has `tree_size` nodes."""

    __slots__ = _fields = ("tree_size",)


class NonTerminating(_Value):
    """The verdict of an infinite run: the `Trace` `stem`, then `pump`."""

    __slots__ = _fields = ("stem", "pump")


class ErtNode(_Value):
    """A tree node, entered from node `parent` by the transition `via`, of
    index `via_index`; `status` is "inner" | "deadlock" | "subsumed", and
    `subsumed_by` the node that subsumes it, None by default."""

    __slots__ = _fields = ("marking", "parent", "via", "via_index", "status",
                           "subsumed_by")

    def __init__(self, marking: Marking, parent: int | None, via: str | None,
                 via_index: int, status: str, subsumed_by: int | None = None):
        super().__init__(marking, parent, via, via_index, status, subsumed_by)


class Ert(_Value):
    """A recorded tree's `nodes`; `verdict` is Terminating | NonTerminating."""

    __slots__ = _fields = ("nodes", "verdict")


def check_eligible(net: Net):
    """Raise NotEligibleError, with the reason `_ert_fault` gives, unless
    `classify(net).ert_eligible`: no transfer arc, and every transition's
    inhibitor pre-places downward closed."""
    fault = _ert_fault(net._plan())
    if fault:
        raise NotEligibleError(fault)


def _over(max_nodes: int) -> BudgetExceededError:
    """The error of a walk whose tree passes `max_nodes` nodes."""
    return BudgetExceededError(f"tree exceeded {max_nodes} nodes")


def _adds_no_tokens(plan) -> bool:
    """Whether no op of `plan` puts back more tokens than its numeric
    arcs take (resets only remove, transfers only move): then the token
    sum never rises along a run."""
    for op in plan:
        gain = 0
        for _, w in op.posts:
            gain += w
        for _, w in op.numeric:
            gain -= w
        if gain > 0:
            return False
    return True


# A node on the current path of the walk, a frame, is a list (cheaper to
# make and read than an object): [id, marking, via, via_index, todo,
# size], its number in the tree, its packed marking, the transition into
# it and that transition's index, the children still to visit (next one
# last) as (id, op position, packed marking), and the tree nodes of its
# subtree finished so far.


def _scan(path, m1: int, level: int, prefix: dict, guard: int) -> int | None:
    """Position on `path` of the nearest frame that subsumes a new child of
    the top frame with packed marking `m1`, reached by a transition of
    index `level`; None if there is none.  A frame subsumes it when one
    guard-bit subtraction finds its marking <= `m1` and they agree on
    `prefix[level]`, the fields of the first `level` places.  Used only
    on nets that add tokens; elsewhere `_walk` looks `m1` up."""
    for i in range(len(path) - 1, -1, -1):
        a = path[i]
        m2 = a[1]
        if ((m1 | guard) - m2 & guard == guard
                and not (m1 ^ m2) & prefix[level]):
            return i
        if a[3] > level:  # its via_index
            level = a[3]
    return None


def _pumped(net: Net, stem, pump):
    """The one check of a NONTERMINATING certificate, by the interpreted
    firing rule: NonTerminating(stem trace, pump trace) if the names `stem`
    fire from the initial marking and the nonempty `pump` twice after them,
    each round ending >= its start and equal to it up to the pump's largest
    transition index; None otherwise."""
    if not pump:
        return None
    try:
        stem = replay(net, net.initial, stem)
        pump = replay(net, stem.markings[-1], pump)
        again = replay(net, pump.markings[-1], pump.transitions)
    except XpnError:
        return None
    level = max(transition_index(net, n) for n in pump.transitions)
    kept = all(_leq(start, end) and start[:level] == end[:level]
               for start, *_, end in (pump.markings, again.markings))
    return NonTerminating(stem, pump) if kept else None


def _certificate(net: Net, path, anc: int, leaf_via: str):
    """The NonTerminating that `_pumped` checks for a leaf reached by
    `leaf_via` from the top frame of `path`, cut by the frame at `anc`."""
    names = [f[2] for f in path[1:]] + [leaf_via]
    if (verdict := _pumped(net, names[:anc], names[anc:])) is None:
        raise AssertionError("pump certificate failed to verify")
    return verdict


def _walk(net: Net, max_nodes: int, rng, nodes, stop_early: bool):
    """Walk the tree depth-first, keeping only the current path, and return
    Terminating(tree_size) or the checked certificate of the first cut
    (AssertionError if it fails).  `rng` shuffles each node's children.

    Markings are packed ints (`_Fields`) from the root on, and children
    come from the firing table (`packed._table`).  When a child needs
    wider fields, the walk starts again there (`packed._widening`) with
    `rng` and `nodes` as they were given, so it draws, numbers and counts
    as one walk at that width would.

    `seen` maps each marking on the path to ~its position (a negative
    int), and each memoised marking to its subtree's node count: one
    lookup of a child answers both.  On nets that add no tokens
    (`_adds_no_tokens`, once per walk) a child's ancestor is the path
    position `seen` holds for it: the frame `_scan` would find, as only an
    equal marking can subsume the child and none repeats on the path.

    With `nodes` None the walk memoises each marking whose subtree
    completed, with that subtree's node count; this is sound only up to
    the first cut, so it needs `stop_early`.  Before the first cut a
    completed subtree holds no cut, so every run from its marking is
    finite.  A cut certifies an infinite run from its leaf, so no node at
    or below that marking can be cut whatever its ancestors, and its
    subtree (one node per run prefix) has the same size everywhere.  A
    later occurrence therefore skips the ancestor search and is not
    expanded: its size is added instead.

    With a list `nodes` (holding one slot for the root) the walk memoises
    nothing, so a marking leaves `seen` with the path, and records the
    tree: node i's ErtNode goes to `nodes[i]` once its status is final,
    when it is expanded or made as a cut leaf.  It goes on past the first
    cut unless `stop_early`, and the nodes made but never expanded stay
    "inner".  The nodes share one tuple per distinct marking.  Either way
    `max_nodes` bounds the number of tree nodes made, the root included."""
    check_eligible(net)
    if max_nodes < 1:  # the root is the first node counted
        raise _over(max_nodes)
    plan = net._plan()
    lookup = _adds_no_tokens(plan)
    state = None if rng is None else rng.getstate()

    def attempt(fields):
        if rng is not None:
            rng.setstate(state)
        if nodes is not None:
            nodes[:] = [None]
        return _walk_at(net, plan, fields, lookup, max_nodes, rng, nodes,
                        stop_early)
    return _widening(_Fields.for_net(net, max(net.initial, default=0)),
                     attempt)


def _walk_at(net: Net, plan, fields: _Fields, lookup: bool, max_nodes: int,
             rng, nodes, stop_early: bool):
    """`_walk` at the width of `fields`, on the firing table (`_table`)
    of `plan` there."""
    names = [op.name for op in plan]
    levels = [op.index for op in plan]
    width, guard, head = fields.width, fields.guard, fields.head
    prefix = None if lookup else {i: (1 << i * width) - 1
                                  for i in {0, *levels}}
    rows, pick = _table(plan, fields)
    seen: dict = {}
    path: list = []
    marking: dict = {}  # each packed marking the recorded nodes hold, decoded
    count = 1  # tree nodes made so far
    cut = None

    def decoded(m):
        t = marking.get(m)
        if t is None:
            t = marking[m] = fields.decode(m)
        return t

    def push(nid, m, via, via_index):
        """Put node `m`, already in `seen` at the path's end, on the path
        and make its children, raising `_Widen` with one that needs wider
        fields; return whether the walk stops at a cut among them."""
        nonlocal count, cut
        succ = []
        for k, g, w, inhib, d, zero, _ in rows if pick is None else pick(m):
            if (m | g) - w & g == g and not m & inhib:
                s = m + d
                if zero:
                    s -= m & zero
                if s & head:
                    raise _Widen(s)
                succ.append((k, s))
        if rng is not None:
            rng.shuffle(succ)
        if nodes is not None:
            nodes[nid] = ErtNode(decoded(m), path[-1][0] if path else None,
                                 via, via_index,
                                 "inner" if succ else "deadlock")
        todo = []
        path.append([nid, m, via, via_index, todo, 1])
        for k, m2 in succ:
            count += 1
            if count > max_nodes:
                raise _over(max_nodes)
            at = seen.get(m2)
            if at is None or at < 0:  # not memoised
                if lookup:
                    anc = None if at is None else ~at
                else:
                    anc = _scan(path, m2, levels[k], prefix, guard)
                if anc is not None:
                    if nodes is not None:
                        nodes.append(ErtNode(decoded(m2), nid, names[k],
                                             levels[k], "subsumed",
                                             path[anc][0]))
                    cut = cut or _certificate(net, path, anc, names[k])
                    if stop_early:
                        return True
                    continue
            if nodes is not None:
                nodes.append(None)
            todo.append((count - 1, k, m2))
        todo.reverse()
        return False

    root = fields.encode(net.initial)
    seen[root] = ~0
    stop = push(0, root, None, 0)
    while not stop and path:
        top = path[-1]
        todo, here = top[4], ~len(path)
        while todo:
            nid, k, m2 = todo.pop()
            # a child is never on the path here, or it would have been cut
            size = seen.setdefault(m2, here)
            if size < 0:
                stop = push(nid, m2, names[k], levels[k])
                break
            # the tree makes the size - 1 nodes below it here
            count += size - 1
            if count > max_nodes:
                raise _over(max_nodes)
            top[5] += size
        else:
            path.pop()
            if nodes is None:
                seen[top[1]] = top[5]
            else:
                del seen[top[1]]
            if path:
                path[-1][5] += top[5]
    if nodes is not None:
        for f in path:
            for nid, k, m2 in f[4]:  # made, never expanded
                nodes[nid] = ErtNode(decoded(m2), f[0], names[k], levels[k],
                                     "inner")
    return cut or Terminating(count)


def build_ert(net: Net, max_nodes: int = 1_000_000, rng=None,
              stop_early: bool = False) -> Ert:
    """Expand the full tree (or stop at the first subsumed leaf when
    `stop_early`).  `rng` shuffles child order; the verdict, checked if
    NonTerminating, is order independent, which tests exploit."""
    nodes = [None]
    verdict = _walk(net, max_nodes, rng, nodes, stop_early)
    return Ert(tuple(nodes), verdict)


def decide_termination(net: Net, max_nodes: int = 1_000_000, rng=None):
    """Terminating(tree_size) or NonTerminating(stem, pump), checked (else
    AssertionError), by the walk that memoises; with `rng=None`, budget
    errors too, as `build_ert(net, max_nodes, stop_early=True).verdict`."""
    return _walk(net, max_nodes, rng, None, True)


def verify_pump(net: Net, verdict) -> bool:
    """Whether `verdict` is the NonTerminating that `_pumped` makes from its
    names: the check, with its traces' markings compared to the fired ones."""
    return isinstance(verdict, NonTerminating) and verdict == _pumped(
        net, verdict.stem.transitions, verdict.pump.transitions)


@_writes_counts
def ert_dot(net: Net, ert: Ert) -> str:
    """DOT rendering of the tree; subsumed leaves are doubled and linked to
    the ancestor that cuts them."""
    lines = ["digraph ert {", "  node [fontname=\"Helvetica\"];"]
    # each transition name quoted once
    label_of = {v: _q(v) for v in {n.via for n in ert.nodes} - {None}}
    for i, n in enumerate(ert.nodes):
        label = " ".join(str(c) for c in n.marking)
        extra = ""
        if n.status == "subsumed":
            extra = " peripheries=2 color=red"
        elif n.status == "deadlock":
            extra = " shape=box"
        lines.append(f"  n{i} [label=\"{label}\"{extra}];")
    for i, n in enumerate(ert.nodes):
        if n.parent is not None:
            lines.append(f"  n{n.parent} -> n{i} [label={label_of[n.via]}];")
        if n.subsumed_by is not None:
            lines.append(
                f"  n{i} -> n{n.subsumed_by} [style=dashed color=red "
                f"label=\"subsumed\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
