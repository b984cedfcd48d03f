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

from dataclasses import dataclass

from .net import (BudgetExceededError, Marking, Net, TRANSFER_KIND, XpnError,
                  _effects, classify, successors)
from .explore import Trace, replay, _leq
from .fmt import _writes_counts


class NotEligibleError(XpnError):
    """The net is outside the class this decider handles."""


def transition_index(net: Net, tname: str) -> int:
    return net._plan_for(tname).index


@dataclass(frozen=True)
class Terminating:
    tree_size: int


@dataclass(frozen=True)
class NonTerminating:
    stem: Trace
    pump: Trace


@dataclass(frozen=True, slots=True)
class ErtNode:
    marking: Marking
    parent: int | None
    via: str | None  # transition into this node
    via_index: int  # its transition index
    status: str  # "inner" | "deadlock" | "subsumed"
    subsumed_by: int | None = None


@dataclass(frozen=True)
class Ert:
    nodes: tuple
    verdict: object  # Terminating | NonTerminating


def check_eligible(net: Net):
    cls = classify(net)
    if TRANSFER_KIND in cls.specials:
        raise NotEligibleError("transfer arcs are not supported")
    if not cls.ert_eligible:
        raise NotEligibleError(
            "some transition's inhibitor pre-places are not downward closed")


def _fit(nodes: int, max_nodes: int) -> int:
    """Return the tree node count `nodes`; raise BudgetExceededError if it
    would pass `max_nodes`."""
    if nodes > max_nodes:
        raise BudgetExceededError(f"tree exceeded {max_nodes} nodes")
    return nodes


def _support(m: Marking) -> int:
    """The places `m` marks, as a mask with bit 8*i set for place i."""
    return int.from_bytes(bytes(map(bool, m)), "little")


def _adds_no_tokens(net: Net) -> bool:
    """Whether no transition of `net` puts back more tokens than its
    numeric arcs take (resets only remove, transfers only move), read off
    each transition's effect: then the token sum never rises along a
    run."""
    return all(sum(_effects(op)[0].values()) <= 0 for op in net._plan())


class _Frame:
    """A node on the current path of the walk.  `id` is its number in the
    tree, `mask` the support of its marking for `_scan` (None when the
    walk looks ancestors up instead), `todo` holds the children still to
    visit (next one last) as (id, via, marking), and `size` counts the
    tree nodes of its subtree finished so far."""
    __slots__ = ("id", "marking", "mask", "via", "via_index", "todo", "size")

    def __init__(self, nid, marking, mask, via, via_index):
        self.id = nid
        self.marking = marking
        self.mask = mask
        self.via = via
        self.via_index = via_index
        self.todo = []
        self.size = 1


def _scan(path, m1: Marking, level: int) -> int | None:
    """Position on `path` of the nearest frame that subsumes a new child of
    the top frame with marking `m1`, reached by a transition of index
    `level`; None if there is none.  A frame marking a place `m1` leaves
    empty cannot be <= `m1`, so one AND of support masks skips it.  Used
    only on nets that add tokens; elsewhere `_walk` looks `m1` up."""
    outside = ~_support(m1)
    for i in range(len(path) - 1, -1, -1):
        a = path[i]
        m2 = a.marking
        if (not a.mask & outside and m2[:level] == m1[:level]
                and _leq(m2, m1)):
            return i
        if a.via_index > level:
            level = a.via_index
    return None


def _certificate(net: Net, path, anc: int, leaf_via: str):
    """NonTerminating for a leaf reached by `leaf_via` from the top frame of
    `path` and cut by the frame at position `anc`."""
    names = [f.via for f in path[1:]] + [leaf_via]
    stem = replay(net, net.initial, names[:anc])
    pump = replay(net, stem.markings[-1], names[anc:])
    return NonTerminating(stem, pump)


def _walk(net: Net, max_nodes: int, rng, nodes, stop_early: bool):
    """Walk the tree depth-first, keeping only the current path, and return
    Terminating(tree_size) or the certificate of the first cut.  `rng`
    shuffles each node's children.

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
    _fit(1, max_nodes)
    tidx = {op.name: op.index for op in net._plan()}
    seen: dict = {}
    path: list = []
    lookup = _adds_no_tokens(net)
    canon: dict = {}  # each marking the recorded nodes hold, to itself
    count = 1  # tree nodes made so far
    cut = None

    def push(nid, m, via, via_index):
        """Put node `m`, already in `seen` at the path's end, on the path
        and make its children; return whether the walk stops at a cut
        among them."""
        nonlocal count, cut
        succ = successors(net, m)
        if rng is not None:
            rng.shuffle(succ)
        if nodes is not None:
            succ = [(name, canon.setdefault(m2, m2)) for name, m2 in succ]
            nodes[nid] = ErtNode(m, path[-1].id if path else None, via,
                                 via_index, "inner" if succ else "deadlock")
        frame = _Frame(nid, m, None if lookup else _support(m), via,
                       via_index)
        path.append(frame)
        for name, m2 in succ:
            count = _fit(count + 1, max_nodes)
            at = seen.get(m2)
            if at is None or at < 0:  # not memoised
                if lookup:
                    anc = None if at is None else ~at
                else:
                    anc = _scan(path, m2, tidx[name])
                if anc is not None:
                    if nodes is not None:
                        nodes.append(ErtNode(m2, nid, name, tidx[name],
                                             "subsumed", path[anc].id))
                    cut = cut or _certificate(net, path, anc, name)
                    if stop_early:
                        return True
                    continue
            if nodes is not None:
                nodes.append(None)
            frame.todo.append((count - 1, name, m2))
        frame.todo.reverse()
        return False

    root = tuple(net.initial)
    canon[root] = root
    seen[root] = ~0
    stop = push(0, root, None, 0)
    while not stop and path:
        top = path[-1]
        if not top.todo:
            path.pop()
            if nodes is None:
                seen[top.marking] = top.size
            else:
                del seen[top.marking]
            if path:
                path[-1].size += top.size
            continue
        nid, name, m2 = top.todo.pop()
        # a child is never on the path here, or it would have been cut
        size = seen.setdefault(m2, ~len(path))
        if size < 0:
            stop = push(nid, m2, name, tidx[name])
            continue
        # the tree makes the size - 1 nodes below it here
        count = _fit(count + size - 1, max_nodes)
        top.size += size
    if nodes is not None:
        for f in path:
            for nid, name, m2 in f.todo:  # made, never expanded
                nodes[nid] = ErtNode(m2, f.id, name, tidx[name], "inner")
    return cut or Terminating(count)


def build_ert(net: Net, max_nodes: int = 1_000_000, rng=None,
              stop_early: bool = False) -> Ert:
    """Expand the full tree (or stop at the first subsumed leaf when
    `stop_early`).  `rng` shuffles child order; the verdict is order
    independent, which tests exploit."""
    nodes = [None]
    verdict = _walk(net, max_nodes, rng, nodes, stop_early)
    return Ert(tuple(nodes), verdict)


def decide_termination(net: Net, max_nodes: int = 1_000_000, rng=None):
    """Terminating(tree_size) or NonTerminating(stem, pump), from the walk
    that memoises; for `rng=None` the result, budget error included,
    equals `build_ert(net, max_nodes, stop_early=True).verdict`."""
    return _walk(net, max_nodes, rng, None, True)


def verify_pump(net: Net, verdict) -> bool:
    """Independent certificate check: replay the stem, replay the pump
    twice, and confirm the subsumption conditions recur."""
    if not isinstance(verdict, NonTerminating):
        return False
    if not verdict.pump.transitions:
        return False
    try:
        m2 = replay(net, net.initial, verdict.stem.transitions).markings[-1]
        m1 = replay(net, m2, verdict.pump.transitions).markings[-1]
        level = max(transition_index(net, n) for n in verdict.pump.transitions)
        if not (_leq(m2, m1) and m2[:level] == m1[:level]):
            return False
        m1b = replay(net, m1, verdict.pump.transitions).markings[-1]
        return _leq(m1, m1b) and m1[:level] == m1b[:level]
    except XpnError:
        return False


@_writes_counts
def ert_dot(net: Net, ert: Ert) -> str:
    """DOT rendering of the tree; subsumed leaves are doubled and linked to
    the ancestor that cuts them."""
    lines = ["digraph ert {", "  node [fontname=\"Helvetica\"];"]
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
            lines.append(f"  n{n.parent} -> n{i} [label=\"{n.via}\"];")
        if n.subsumed_by is not None:
            lines.append(
                f"  n{i} -> n{n.subsumed_by} [style=dashed color=red "
                f"label=\"subsumed\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
