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

Eligible nets: every transition's inhibitor pre-places form a downward
closed set, reset arcs are unrestricted, transfer arcs are absent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .net import (BudgetExceededError, Marking, Net, TRANSFER_KIND, XpnError,
                  classify, successors)
from .explore import Trace, replay, _leq


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


@dataclass(frozen=True)
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


def _prepare(net: Net, max_nodes: int) -> dict:
    """Check that the decider applies and that the root fits the node
    budget (the root is the first node it counts); return each
    transition's index by name."""
    check_eligible(net)
    _fit(1, max_nodes)
    return {op.name: op.index for op in net._plan()}


def _scan(nodes, anc, m1: Marking, level: int) -> int | None:
    """Nearest subsuming ancestor of a new child with marking `m1`, reached
    by a transition of index `level` from node `anc`; None if there is none.
    `nodes[i]` has `.marking`, `.via_index` and `.parent`."""
    while anc is not None:
        a = nodes[anc]
        m2 = a.marking
        if m2[:level] == m1[:level] and _leq(m2, m1):
            return anc
        level = max(level, a.via_index)
        anc = a.parent
    return None


def _path_names(nodes, top: int, bottom: int) -> list:
    """Transition names along the tree path from node `top` down to
    `bottom` (via edges of every node strictly below `top`)."""
    names = []
    at = bottom
    while at != top:
        names.append(nodes[at].via)
        at = nodes[at].parent
    names.reverse()
    return names


def _certificate(net: Net, nodes, anc: int, parent: int, leaf_via: str):
    """NonTerminating for a leaf reached by `leaf_via` from node `parent`
    and cut by its ancestor `anc`."""
    stem = replay(net, net.initial, _path_names(nodes, 0, anc))
    pump = replay(net, stem.markings[-1],
                  _path_names(nodes, anc, parent) + [leaf_via])
    return NonTerminating(stem, pump)


def build_ert(net: Net, max_nodes: int = 1_000_000, rng=None,
              stop_early: bool = False) -> Ert:
    """Expand the full tree (or stop at the first subsumed leaf when
    `stop_early`).  `rng` shuffles child order; the verdict is order
    independent, which tests exploit."""
    tidx = _prepare(net, max_nodes)

    # A node's ErtNode is built once its status is final: when it is
    # expanded, or at creation for a subsumed leaf.  Until then its slot in
    # `nodes` is None and its fields wait on the stack.
    nodes = [None]
    stack = [(0, tuple(net.initial), None, None, 0)]
    verdict = None

    while stack and not (stop_early and verdict is not None):
        nid, m, parent, via, vidx = stack.pop()
        succ = successors(net, m)
        if rng is not None:
            rng.shuffle(succ)
        nodes[nid] = ErtNode(m, parent, via, vidx,
                             "inner" if succ else "deadlock")
        kids = []
        for name, m2 in succ:
            _fit(len(nodes) + 1, max_nodes)
            cid = len(nodes)
            anc = _scan(nodes, nid, m2, tidx[name])
            if anc is None:
                nodes.append(None)
                kids.append((cid, m2, nid, name, tidx[name]))
                continue
            nodes.append(ErtNode(m2, nid, name, tidx[name], "subsumed", anc))
            if verdict is None:
                verdict = _certificate(net, nodes, anc, nid, name)
                if stop_early:
                    break
        stack.extend(reversed(kids))

    for cid, m, parent, via, vidx in stack:  # created, never expanded
        nodes[cid] = ErtNode(m, parent, via, vidx, "inner")
    if verdict is None:
        verdict = Terminating(len(nodes))
    return Ert(tuple(nodes), verdict)


class _Frame:
    """A node on the current path of `decide_termination`.  `parent` is the
    position of the frame below it, `todo` holds the children still to
    visit (next one last) and `size` counts the tree nodes of its subtree
    finished so far."""
    __slots__ = ("marking", "parent", "via", "via_index", "todo", "size")

    def __init__(self, marking, parent, via, via_index):
        self.marking = marking
        self.parent = parent
        self.via = via
        self.via_index = via_index
        self.todo = []
        self.size = 1


def decide_termination(net: Net, max_nodes: int = 1_000_000, rng=None):
    """Terminating(tree_size) or NonTerminating(stem, pump).  For
    `rng=None` the result, budget error included, equals
    `build_ert(net, max_nodes, stop_early=True).verdict`.

    The walk visits the tree in build_ert's order but keeps only the
    current path, and memoises in `done` each marking whose subtree
    completed, with that subtree's node count.  Before the first cut a
    completed subtree holds no cut, so every run from its marking is
    finite.  A cut certifies an infinite run from its leaf, so no node at
    or below that marking can be cut whatever its ancestors, and its
    subtree (one node per run prefix) has the same size everywhere.  A
    later occurrence therefore skips the ancestor scan and is not
    expanded: its size is added instead.  `max_nodes` still bounds the
    paper tree's node count."""
    tidx = _prepare(net, max_nodes)
    done: dict = {}
    path: list = []
    count = 1  # tree nodes created so far, counted as build_ert counts

    def push(m, via, via_index):
        """Put node `m` on the path and create its children; return the
        certificate if one of them is cut."""
        nonlocal count
        here = len(path)
        frame = _Frame(m, here - 1 if here else None, via, via_index)
        path.append(frame)
        succ = successors(net, m)
        if rng is not None:
            rng.shuffle(succ)
        for name, m2 in succ:
            count = _fit(count + 1, max_nodes)
            if m2 not in done:
                anc = _scan(path, here, m2, tidx[name])
                if anc is not None:
                    return _certificate(net, path, anc, here, name)
            frame.todo.append((name, m2))
        frame.todo.reverse()
        return None

    cut = push(tuple(net.initial), None, 0)
    while cut is None and path:
        top = path[-1]
        if not top.todo:
            path.pop()
            done[top.marking] = top.size
            if path:
                path[-1].size += top.size
            continue
        name, m2 = top.todo.pop()
        size = done.get(m2)
        if size is None:
            cut = push(m2, name, tidx[name])
            continue
        # build_ert would create the size - 1 nodes below it right now
        count = _fit(count + size - 1, max_nodes)
        top.size += size
    return cut or Terminating(count)


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
