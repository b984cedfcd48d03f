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
from struct import Struct, error as StructError

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
        # the replay builds its own markings: free the visited ones first
        parent.clear()
        queue.clear()
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

# struct codes, standard sizes, for fields of 1, 2, 4 and 8 bytes; wider
# fields are packed entry by entry
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


class UpwardClosedSet:
    """An upward-closed set of markings kept as its minimal basis.

    The basis is one int, read as a row of equal byte-aligned segments, one
    per element.  A segment holds the element's n entries in fields of
    `_width` bits (8, 16, 32, ...; the width doubles when an added entry
    needs more), then one more field whose top bit is the segment's flag.
    Every stored entry is below 2**(width - 1), so the top bit of each
    field is free as a guard.

    That lets one pass of big-int arithmetic compare a probe with every
    element at once (SWAR, SIMD within a register).  Subtract the basis
    from the probe replicated into every segment with its guards set: a
    field keeps its guard exactly where the probe's entry is at least the
    element's, and no borrow leaves a field.  Adding flag-minus-guards per
    segment then carries into a flag exactly where all the guards survived.
    A probe entry past the field is clamped to 2**(width - 1) - 1 first,
    which still exceeds every stored entry.
    """

    def __init__(self, basis=()):
        self._n = None  # places per element, fixed by the first add
        self._count = 0  # elements, i.e. segments
        self._bits = 0  # the basis, guard and flag bits clear
        for m in basis:
            self.add(m)

    def _layout(self, width: int):
        """Lay the basis out again with fields of `width` bits."""
        elems = self.basis
        n, nb = self._n, width // 8
        self._width = width
        code = _STRUCT_CODES.get(nb)
        self._struct = Struct(f"<{n}{code}{nb}x") if code else None
        self._seg = (n + 1) * nb  # bytes per segment
        guards = (bytes(nb - 1) + b"\x80") * n + bytes(nb)
        flags = bytes(n * nb + nb - 1) + b"\x80"
        self._guard = int.from_bytes(guards, "little")
        self._masks = (guards, flags)  # one segment's
        self._bits = int.from_bytes(b"".join(map(self._pack, elems)), "little")
        self._replicate()

    def _replicate(self):
        """Guard, flag and flag-minus-guard masks over `_count` segments."""
        guards, flags = self._masks
        self._guards = int.from_bytes(guards * self._count, "little")
        self._flags = int.from_bytes(flags * self._count, "little")
        self._fill = self._flags - self._guards

    def _pack(self, m) -> bytes:
        """One segment holding `m`; raises if an entry is negative or does
        not fit a field."""
        if self._struct:
            return self._struct.pack(*m)
        nb = self._width // 8
        return b"".join([int.to_bytes(x, nb, "little") for x in m]) + bytes(nb)

    def _unpack(self, raw: bytes) -> list:
        if self._struct:
            return list(self._struct.iter_unpack(raw))
        nb, seg = self._width // 8, self._seg
        return [tuple(int.from_bytes(raw[s + i:s + i + nb], "little")
                      for i in range(0, seg - nb, nb))
                for s in range(0, len(raw), seg)]

    @property
    def basis(self) -> list:
        """The minimal basis, as a new list."""
        if not self._count:
            return []
        return self._unpack(self._bits.to_bytes(self._count * self._seg,
                                                "little"))

    def _below(self, m: Marking) -> int:
        """The flags of the segments whose element is <= m."""
        if not self._count:
            return 0
        if len(m) != self._n:
            raise XpnError("marking length mismatch")
        try:
            probe = int.from_bytes(self._pack(m), "little")
        except (StructError, OverflowError):
            probe = self._guard  # an entry past the field, or negative
        if probe & self._guard:
            if min(m) < 0:
                return 0
            cap = (1 << (self._width - 1)) - 1
            probe = int.from_bytes(self._pack([min(x, cap) for x in m]),
                                   "little")
        probe = (probe | self._guard).to_bytes(self._seg, "little")
        diff = int.from_bytes(probe * self._count, "little") - self._bits
        return ((diff & self._guards) + self._fill) & self._flags

    def contains(self, m: Marking) -> bool:
        return bool(self._below(m))

    def minimal(self, m: Marking) -> bool:
        """Is `m` itself an element of the current minimal basis?"""
        flags = self._below(m)
        # in an antichain, an element m has no other element below it
        if not flags or flags & (flags - 1):
            return False
        bits = 8 * self._seg
        at = (flags.bit_length() - 1) // bits * bits
        one = (self._bits >> at) & ((1 << bits) - 1)
        return self._unpack(one.to_bytes(self._seg, "little"))[0] == tuple(m)

    def add(self, m: Marking) -> bool:
        """Add ↑m; returns False if already covered."""
        m = tuple(m)
        if self._n is None:
            self._n = len(m)
            self._layout(8)
        elif len(m) != self._n:
            raise XpnError("marking length mismatch")
        seg = self._fit(m)
        if self.contains(m):
            return False
        if self._count:
            # the test of contains with the roles swapped: m replicated,
            # subtracted from the basis with its guards set
            diff = ((self._bits | self._guards)
                    - int.from_bytes(seg * self._count, "little"))
            dead = ((diff & self._guards) + self._fill) & self._flags
            if dead:
                self._drop(dead)
        self._bits |= int.from_bytes(seg, "little") << (8 * self._seg
                                                        * self._count)
        self._count += 1
        self._replicate()
        return True

    def _fit(self, m: Marking) -> bytes:
        """The segment holding `m`, the fields widened first if an entry
        needs it; raises XpnError on a negative or non-integer entry."""
        try:
            seg = self._pack(m)
        except (StructError, OverflowError, TypeError):
            seg = None
        if seg is None or int.from_bytes(seg, "little") & self._guard:
            if not all(isinstance(x, int) and x >= 0 for x in m):
                raise XpnError(
                    f"marking {m} has a negative or non-integer entry")
            width = self._width
            while max(m) >> (width - 1):
                width *= 2
            self._layout(width)
            seg = self._pack(m)
        return seg

    def _drop(self, dead: int):
        """Splice out the segments whose flag is set in `dead`."""
        size, seg = self._count * self._seg, self._seg
        raw = self._bits.to_bytes(size, "little")
        flags = dead.to_bytes(size, "little")
        kept, start = [], 0
        at = flags.find(0x80)
        while at >= 0:
            kept.append(raw[start:at + 1 - seg])
            start = at + 1
            at = flags.find(0x80, start)
        kept.append(raw[start:])
        raw = b"".join(kept)
        self._count = len(raw) // seg
        self._bits = int.from_bytes(raw, "little")


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
