"""Bounded forward exploration and exact backward coverability.

Forward search is breadth-first over exact markings with a visited set and
deterministic successor order (transition declaration order), so traces are
reproducible.  Its one budget counts node expansions: a search that would
expand more markings than it allows raises BudgetExceededError, since
nothing can be concluded.  A larger budget can turn a run-out into an
answer but never changes an answer.

backward_cover saturates minimal bases of upward-closed predecessor sets
and is exact, but only supports nets without inhibitor arcs; its budget
counts candidate predecessors and raises BudgetExceededError.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import comb, prod
from operator import le

from .net import (BudgetExceededError, Marking, Net, XpnError, fire,
                  require_valid, successors)


@dataclass(frozen=True)
class Trace:
    """A replayed run: markings[0] is the start, markings[i+1] the marking
    after transitions[i]."""

    transitions: tuple
    markings: tuple


def replay(net: Net, start: Marking, names) -> Trace:
    """Fire `names` in order from `start`; raises NotFirableError if the
    sequence is not a run."""
    ms = [tuple(start)]
    for name in names:
        ms.append(fire(net, ms[-1], name))
    return Trace(tuple(names), tuple(ms))


@dataclass(frozen=True)
class SearchResult:
    trace: Trace | None  # None when the search exhausted the state space
    expanded: int

    @property
    def found(self) -> bool:
        return self.trace is not None


def _leq(a: Marking, b: Marking) -> bool:
    return all(map(le, a, b))


def _bfs(net: Net, goal, max_steps: int) -> SearchResult:
    """Shared engine from the initial marking: `goal(marking,
    successor_list)` decides hits.  The hit trace is replayed before
    returning, as a postcondition check.  Raises BudgetExceededError when
    a marking past the `max_steps`-th would need expanding."""
    require_valid(net)  # so the initial marking fits the places
    start = net.initial
    parent = {start: None}
    queue = deque([start])
    expanded = 0

    def finish(m: Marking) -> SearchResult:
        names = []
        at = m
        while parent[at] is not None:
            prev, via = parent[at]
            names.append(via)
            at = prev
        names.reverse()
        trace = replay(net, start, names)
        if trace.markings[-1] != m:
            raise AssertionError("trace replay mismatch")
        return SearchResult(trace, expanded)

    while queue:
        if expanded >= max_steps:
            raise BudgetExceededError(f"expanded={expanded}")
        m = queue.popleft()
        expanded += 1
        succ = successors(net, m)
        if goal(m, succ):
            return finish(m)
        for name, m2 in succ:
            if m2 not in parent:
                parent[m2] = (m, name)
                queue.append(m2)
    return SearchResult(None, expanded)


def bounded_reach(net: Net, target: Marking,
                  max_steps: int = 1_000_000) -> SearchResult:
    """Is `target` reachable (exact equality) from the initial marking?"""
    target = tuple(target)
    return _bfs(net, lambda m, s: m == target, max_steps)


def bounded_cover(net: Net, target: Marking,
                  max_steps: int = 1_000_000) -> SearchResult:
    """Is some marking >= `target` reachable from the initial marking?"""
    target = tuple(target)
    return _bfs(net, lambda m, s: _leq(target, m), max_steps)


def bounded_deadlock(net: Net, max_steps: int = 1_000_000) -> SearchResult:
    """Is a marking with no firable transition reachable?"""
    return _bfs(net, lambda m, s: not s, max_steps)


# ---------------------------------------------------------------------------
# backward coverability

class UpwardClosedSet:
    """An upward-closed set of markings kept as its minimal basis.

    The basis is stored by token sum, since b <= m needs sum(b) <= sum(m):
    `contains` tests only the buckets at or below the probe's sum, and
    `add` looks for elements it dominates only above it.
    """

    def __init__(self, basis=()):
        self._by_sum: dict = {}  # token sum -> basis elements with that sum
        for m in basis:
            self.add(m)

    @property
    def basis(self) -> list:
        """The minimal basis, as a new list."""
        return [b for bucket in self._by_sum.values() for b in bucket]

    def contains(self, m: Marking) -> bool:
        total = sum(m)
        for s, bucket in self._by_sum.items():
            if s <= total:
                for b in bucket:
                    if _leq(b, m):
                        return True
        return False

    def minimal(self, m: Marking) -> bool:
        """Is `m` itself an element of the current minimal basis?"""
        return m in self._by_sum.get(sum(m), ())

    def add(self, m: Marking) -> bool:
        """Add ↑m; returns False if already covered."""
        m = tuple(m)
        if self.contains(m):
            return False
        total = sum(m)
        # an element with the same sum that m covers would equal m
        dead = [b for s, bucket in self._by_sum.items() if s > total
                for b in bucket if _leq(m, b)]
        for b in dead:
            s = sum(b)
            bucket = self._by_sum[s]
            bucket.remove(b)
            if not bucket:
                del self._by_sum[s]
        self._by_sum.setdefault(total, []).append(m)
        return True


@dataclass(frozen=True)
class BackwardCoverResult:
    coverable: bool
    basis: tuple  # minimal basis of the backward-reachable upward-closed set


def _compositions(total: int, parts: int):
    """All ways, in lexicographic order, to write `total` as an ordered sum
    of `parts` >= 1 nonnegative ints."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _predecessor_shape(n: int, op) -> tuple:
    """Compile one transition (a `Net._plan` entry) for `_min_predecessors`.

    Returns (pre_w, post_w, plain, killed, groups): the numeric weights
    taken and the tokens put back per place; the places neither zeroed nor
    fed by a transfer; the zeroed places no transfer refills; and, per
    transfer target p, the slots whose tokens can meet p's demand (p
    itself unless it is zeroed, then its transfer sources).
    """
    pre_w = [0] * n
    for p, w in op.numeric:
        pre_w[p] = w
    post_w = [0] * n
    for p, w in op.posts:
        post_w[p] += w
    zeroed = set(op.resets) | {src for src, _ in op.xfers}
    incoming: dict = {}
    for src, tgt in op.xfers:
        incoming.setdefault(tgt, []).append(src)
    plain = [p for p in range(n) if p not in zeroed and p not in incoming]
    killed = [p for p in range(n) if p in zeroed and p not in incoming]
    groups = [(p, ([] if p in zeroed else [p]) + incoming[p])
              for p in sorted(incoming)]
    return pre_w, post_w, plain, killed, groups


def _min_predecessors(shape, target: Marking, room: int):
    """Minimal markings m with fire(m, t) >= target, for the transition
    compiled into `shape` by `_predecessor_shape`; None, before any is
    built, when there are more than `room` of them.

    Reset and transfer arcs make the predecessor basis non-singleton: a
    transfer target's demand can be met partly by tokens already in the
    target place and partly by tokens arriving from each source, and the
    minimal ways to split that demand are exactly the integer compositions,
    comb(d + k - 1, k - 1) of them for a demand d over k slots.
    """
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
        split_axes = list(_compositions(demand, len(slots)))
        nxt = []
        for m in out:
            for split in split_axes:
                m2 = list(m)
                for slot, extra in zip(slots, split):
                    m2[slot] += extra
                nxt.append(m2)
        out = nxt
    return [tuple(m) for m in out]


def backward_cover(net: Net, target: Marking,
                   max_steps: int = 1_000_000) -> BackwardCoverResult:
    """Exact coverability via backward saturation; inhibitor arcs are not
    supported (raises).  Raises BudgetExceededError once the search needs
    more than `max_steps` candidate predecessors."""
    plan = net._plan()
    target = tuple(target)
    if len(target) != len(net.places):
        raise XpnError("target marking length mismatch")
    if any(op.inhib for op in plan):
        raise XpnError("backward_cover does not support inhibitor arcs")

    shapes = [_predecessor_shape(len(net.places), op) for op in plan]
    ucs = UpwardClosedSet([target])
    frontier = [target]
    steps = 0
    while frontier:
        fresh = []
        for b in frontier:
            # b left the basis when a later add put some m <= b in `fresh`;
            # pred(↑b) is contained in pred(↑m), so b has nothing to add
            if not ucs.minimal(b):
                continue
            for shape in shapes:
                preds = _min_predecessors(shape, b, max_steps - steps)
                if preds is None:
                    raise BudgetExceededError(
                        f"backward search exceeded {max_steps} candidate "
                        "predecessors")
                steps += len(preds)
                for p in preds:
                    if ucs.add(p):
                        fresh.append(p)
        frontier = fresh
    return BackwardCoverResult(ucs.contains(net.initial), tuple(sorted(ucs.basis)))
