"""Bounded forward exploration and exact backward coverability.

Forward search is breadth-first over exact markings with a visited set and
deterministic successor order (transition declaration order), so traces are
reproducible.  Its one budget counts node expansions: a search that would
expand more markings than it allows raises BudgetExceededError, since
nothing can be concluded.  A larger budget can turn a run-out into an
answer but never changes an answer.

backward_cover saturates minimal bases of upward-closed predecessor sets
and is exact, but only supports nets without inhibitor arcs; its budget
counts candidate predecessors and raises BudgetExceededError.  It runs on
packed markings throughout: the basis is one int (`UpwardClosedSet`), and
each transition's minimal predecessors of a packed element are built from
one row of packed ints per transition (`_predecessors`), which `_rows`
builds from the transition's firing row (`packed._firing_rows`).  Both
searches widen their fields by the protocol of `packed`.
"""

from __future__ import annotations

from itertools import product
from math import comb

# forward search runs `_search`; `explore.successors` stays a name because
# perfbench/spans.py wraps it.  `Trace` serves this module; callers import
# it and `replay` from here too
from .net import (BudgetExceededError, Marking, Net, Trace, XpnError, _Value,
                  _apply, _effects, _enabled, _marking, _target, replay,
                  require_valid, successors)
from .packed import _Fields, _Widen, _firing_rows, _search


class SearchResult(_Value):
    """A forward search's answer: the `trace` to a hit, None when the
    search exhausted the space, and the markings it `expanded`."""

    __slots__ = _fields = ("trace", "expanded")

    @property
    def found(self) -> bool:
        return self.trace is not None


def _covered(net: Net, target) -> tuple:
    """A cover's `target`, checked, each negative entry read as 0."""
    return tuple([x if x > 0 else 0 for x in _target(target, len(net.places))])


def _bfs(net: Net, goal: str, target, max_steps: int) -> SearchResult:
    """Shared engine from the initial marking, `goal` and `target` as in
    `packed._search`, the target checked by the caller.  A hit's
    trace is built in one pass over the packed path, each marking popped
    off it and unpacked once, and each step fired by the interpreted rule:
    the first transition in declaration order that fires the predecessor
    to the marking, the one whose successor the search stored.  The two
    differ, as the search stores no marking twice, and only a transition
    acting on a place where they differ can, so just those acting on the
    first such place, the lowest set bit of their XOR, are tried; a step
    none explains raises AssertionError."""
    require_valid(net)  # so the initial marking fits the places
    expanded, path, fields = _search(net, net.initial, goal, target,
                                     max_steps)
    if path is None:
        return SearchResult(None, expanded)
    plan, names, markings, acting = net._plan(), [], [net.initial], None
    path.reverse()
    x = path.pop()
    while path:
        y = path.pop()
        prev, at, diff = markings[-1], fields.decode(y), x ^ y
        if acting is None:  # per place, the ops acting on it, in order
            acting = [[] for _ in net.places]
            for op in plan:
                for p in set().union(*_effects(op)):
                    acting[p].append(op)
        d = ((diff & -diff).bit_length() - 1) // fields.width
        for name, numeric, inhib, resets, xfers, posts, _ in acting[d]:
            if (_enabled(prev, numeric, inhib)
                    and _apply(prev, numeric, resets, xfers, posts) == at):
                break
        else:
            raise AssertionError("trace replay mismatch")
        names.append(name)
        markings.append(at)
        x = y
    return SearchResult(Trace(tuple(names), tuple(markings)), expanded)


def bounded_reach(net: Net, target: Marking,
                  max_steps: int = 1_000_000) -> SearchResult:
    """Is `target` reachable (exact equality) from the initial marking?"""
    return _bfs(net, "reach", _target(target, len(net.places)), max_steps)


def bounded_cover(net: Net, target: Marking,
                  max_steps: int = 1_000_000) -> SearchResult:
    """Is some marking >= `target` reachable from the initial marking?"""
    return _bfs(net, "cover", _covered(net, target), max_steps)


def bounded_deadlock(net: Net, max_steps: int = 1_000_000) -> SearchResult:
    """Is a marking with no firable transition reachable?"""
    return _bfs(net, "deadlock", None, max_steps)


# ---------------------------------------------------------------------------
# backward coverability

# `UpwardClosedSet._spread` replicates by one multiplication while a
# segment has at most _MUL_BYTES bytes and copies bytes beyond.  Over 20-600
# segments (2-vCPU x86-64, CPython 3.11) multiplying takes 0.3-0.8x the
# copy's time at 9 bytes a segment, 0.8-1.4x at 17 and 1.7-2.4x at 33
_MUL_BYTES = 12


class UpwardClosedSet:
    """An upward-closed set of markings kept as its minimal basis.

    The basis is one int, read as a row of equal byte-aligned segments, one
    per element.  A segment holds the element's n entries in the fields of
    `_fields` (widths 8, 16, 32, ... bits; the width doubles when an added
    entry needs more), then one spare field whose top bit is the segment's
    flag.  Every stored entry is below 2**(width - 1), so the top bit of
    each field is free as a guard.

    That lets one pass of big-int arithmetic compare a probe with every
    element at once (SWAR, SIMD within a register).  Subtract the basis
    from the probe replicated into every segment with its guards set: a
    field keeps its guard exactly where the probe's entry is at least the
    element's, and no borrow leaves a field.  Adding flag-minus-guards per
    segment then carries into a flag exactly where all the guards survived.
    `_ones` holds a 1 at the start of each segment, so the probe packed as
    `code` replicates as `code * _ones` while a segment spans a few digits
    of an int; a wider one is copied as bytes (`_spread`).  The guard,
    flag and fill masks grow by one segment's with each element.

    The methods on codes (`_below`, `_minimal`, `_add`) take a marking
    packed by `_fields` with every entry below the limit; `backward_cover`
    calls them directly.  The tuple methods `add`, `contains` and `minimal`
    check their argument as `fire` checks a marking (`net._marking`), pack
    it (`_code`) and call the same ones; where an entry of the argument is
    at or above the limit, the set is first laid out again in wider fields.
    """

    def __init__(self, basis=()):
        self._n = None  # places per element, fixed by the first add
        self._count = 0  # elements, i.e. segments
        self._bits = 0  # the basis, guard and flag bits clear
        for m in basis:
            self.add(m)

    def _layout(self, fields: _Fields):
        """Lay the basis out again in `fields`: the element's n fields
        and one spare for the flag."""
        elems = self.basis
        self._fields = fields
        self._seg = fields.size  # bytes per segment
        self._guard = fields.guard  # one segment's guard and flag bits
        self._flag = 0x80 << 8 * self._seg - 8
        self._ones = int.from_bytes(
            (b"\x01" + bytes(fields.size - 1)) * self._count, "little")
        self._bits = int.from_bytes(b"".join(map(fields.pack, elems)),
                                    "little")
        self._guards = self._spread(self._guard)
        self._flags = self._spread(self._flag)
        self._fill = self._flags - self._guards

    def _spread(self, x: int) -> int:
        """`x`, one segment, in each of the `_count` segments."""
        if self._seg <= _MUL_BYTES:
            return x * self._ones
        return int.from_bytes(x.to_bytes(self._seg, "little") * self._count,
                              "little")

    @property
    def basis(self) -> list:
        """The minimal basis, as a new list."""
        if not self._count:
            return []
        return self._fields.unpack(self._bits.to_bytes(
            self._count * self._seg, "little"))

    def _below(self, code: int) -> int:
        """The flags of the segments whose element is <= the marking
        packed as `code`."""
        diff = (self._spread(code) | self._guards) - self._bits
        return ((diff & self._guards) + self._fill) & self._flags

    def _minimal(self, code: int) -> bool:
        """Is the marking packed as `code` an element of the basis?"""
        flags = self._below(code)
        # in an antichain, an element m has no other element below it
        if not flags or flags & (flags - 1):
            return False
        bits = 8 * self._seg
        at = flags.bit_length() - bits  # the flag tops its segment
        return (self._bits >> at) & ((1 << bits) - 1) == code

    def _add(self, code: int) -> bool:
        """Add the up-set of the marking packed as `code`; returns False
        if it is already covered."""
        guards, fill, flags = self._guards, self._fill, self._flags
        rep = self._spread(code)
        if (((rep | guards) - self._bits & guards) + fill) & flags:
            return False
        if self._count:
            # the test of `_below` with the roles swapped: the basis with
            # its guards set, less the replicated code
            dead = (((self._bits | guards) - rep & guards) + fill) & flags
            if dead:
                self._drop(dead)
        at = 8 * self._seg * self._count
        self._bits |= code << at
        self._ones |= 1 << at
        self._guards |= self._guard << at
        self._flags |= self._flag << at
        self._fill = self._flags - self._guards
        self._count += 1
        return True

    def _code(self, m) -> int | None:
        """`m`, checked by `net._marking`, packed by `_fields`, which
        widen first where an entry of `m` needs it; None for a set never
        added to, which holds nothing and knows no length to check."""
        if self._n is None:
            _marking(m := tuple(m), len(m))
            return None
        m = _marking(m, self._n)
        if (top := max(m, default=0)) >= self._fields.limit:
            self._layout(self._fields.fitting(top))
        return self._fields.encode(m)

    def contains(self, m: Marking) -> bool:
        """Is `m` in the set?  Raises XpnError as `add` does."""
        return (code := self._code(m)) is not None and bool(self._below(code))

    def minimal(self, m: Marking) -> bool:
        """Is `m` itself an element of the current minimal basis?  Raises
        XpnError as `add` does."""
        return (code := self._code(m)) is not None and self._minimal(code)

    def add(self, m: Marking) -> bool:
        """Add ↑m; returns False if already covered.  Raises XpnError as
        `fire` does unless `m` is a marking of the set's length."""
        if self._n is None:
            self._n = len(m := tuple(m))
            self._layout(_Fields(self._n, 8, spare=1))
        return self._add(self._code(m))

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
        low = (1 << 8 * len(raw)) - 1  # the masks over the segments kept
        self._ones &= low
        self._guards &= low
        self._flags &= low
        self._fill = self._flags - self._guards


class BackwardCoverResult(_Value):
    """`backward_cover`'s answer, and the minimal `basis` of the
    backward-reachable upward-closed set."""

    __slots__ = _fields = ("coverable", "basis")


def _rows(plan, fields: _Fields) -> list:
    """One row per op of `plan` for `_predecessors`, packed at the width
    of `fields`, whose limit exceeds every weight, and built from the op's
    firing row (`packed._firing_rows`): its weights `w`, its posts
    `d + w`, its zeroed fields `zero` and its transfers `xfers`.  A place
    is plain if it is neither zeroed nor fed by a transfer, and killed if
    it is zeroed and not fed.  The row holds:

    - the numeric weights;
    - full fields over the plain places, and the posts there;
    - full fields over the killed places, the posts there with the guard
      bits set, and those guard bits;
    - per transfer target q, in place order: q's shift, q's post, and the
      shifts of the slots whose tokens can meet q's demand (q itself
      unless zeroed, then its sources in arc order), also as one bit at
      the bottom of each slot;
    - the fields' guard bits, width and head, and a cache of the packed
      splits of a demand over a target's slots."""
    w, guard = fields.width, fields.guard
    full = (1 << w) - 1
    rows = []
    for _, _, pre, _, d, zero, xfers in _firing_rows(plan, fields):
        posts, fed = d + pre, {}  # target shift -> its source shifts
        for src, q in xfers:
            fed.setdefault(q, []).append(src)
        targets = sum([full << q for q in fed])
        plain = fields.ones * full & ~(zero | targets)
        kill = zero & ~targets
        kguard = kill & guard
        groups = []
        for q, srcs in sorted(fed.items()):
            slots = srcs if zero >> q & 1 else [q] + srcs
            groups.append((q, posts >> q & full, slots,
                           sum([1 << s for s in slots])))
        rows.append((pre, plain, posts & plain, kill, posts & kill | kguard,
                     kguard, groups, guard, w, fields.head, {}))
    return rows


def _split_codes(demand: int, shifts: list) -> list:
    """Every way to split `demand` over the fields at `shifts`, packed, in
    lexicographic order of the parts."""
    if len(shifts) == 1:
        return [demand << shifts[0]]
    first, rest = shifts[0], shifts[1:]
    return [(e << first) + r for e in range(demand + 1)
            for r in _split_codes(demand - e, rest)]


def _predecessors(row, x: int, room: int):
    """The minimal markings m with fire(m, t) >= the marking packed as `x`,
    packed, for the op t of `row` (`_rows`); None, before any is built,
    when there are more than `room` of them.  Raises `packed._Widen`,
    before any is built too, when an entry of one would reach the fields'
    limit: args[0] has, in each field, the largest entry any would have.

    A plain place needs t's weight plus what its post leaves of x's entry,
    a saturating subtraction by guard bits, and a killed place at most
    t's post.  A transfer target q's demand, what its post leaves of x's
    entry, can be met partly by tokens already in q and partly by tokens
    arriving from each source: the minimal ways to split it are exactly
    the integer compositions, comb(d + k - 1, k - 1) of them for a demand
    d over k slots.  Candidates come in the order of the splits, the first
    target's slowest.  Every addend is below 2**(width - 1) and a field
    takes at most two, so no sum carries out of its field."""
    pre, plain, post, kill, kpost, kguard, groups, guard, w, head, cache = row
    if kill and (kpost - (x & kill)) & kguard != kguard:
        return []  # t cannot refill a zeroed place
    c = x & plain
    if post:
        c = (c | guard) - post
        keep = c & guard  # the fields where x's entry is at least the post
        c &= keep - (keep >> w - 1)
    c += pre
    if not groups:
        if c & head:
            raise _Widen(c)
        return [c] if room >= 1 else None
    full = (1 << w) - 1
    demands, most, count = [], c, 1
    for at, gpost, shifts, ones in groups:
        d = (x >> at & full) - gpost
        d = d if d > 0 else 0
        demands.append(d)
        most += d * ones
        count *= comb(d + len(shifts) - 1, len(shifts) - 1)
    if most & head:
        raise _Widen(most)
    if count > room:
        return None
    splits = []
    for i, ((_, _, shifts, _), d) in enumerate(zip(groups, demands)):
        codes = cache.get((i, d))
        if codes is None:
            codes = cache[i, d] = _split_codes(d, shifts)
        splits.append(codes)
    if len(splits) == 1:
        return [c + s for s in splits[0]]
    return [c + sum(s) for s in product(*splits)]


def backward_cover(net: Net, target: Marking,
                   max_steps: int = 1_000_000) -> BackwardCoverResult:
    """Exact coverability via backward saturation; inhibitor arcs are not
    supported (raises).  Raises BudgetExceededError once the search needs
    more than `max_steps` candidate predecessors.  The target is checked,
    and a negative entry is 0, as for `bounded_cover`.

    The saturation runs on packed markings: the set's fields start wide
    enough for the target and every weight of the net, and each op's
    candidates are built from its row (`_predecessors`).  When one would
    not fit, the fields widen by the protocol of `packed`, and the rows,
    the frontier and the fresh elements are packed again.  Unlike the
    forward search and the walk, it does not start again: a late widening
    would repeat most of its work (2.8x the time on the doubling ring
    `t_i: in p_i*2 ; out p_{i+1}`, `r: in p2 ; out p0` to `p2=40`)."""
    plan = net._plan()
    target = _covered(net, target)
    if any(op.inhib for op in plan):
        raise XpnError("backward_cover does not support inhibitor arcs")

    ucs = UpwardClosedSet([target])
    top = max([w for op in plan for _, w in op.numeric + op.posts], default=0)
    if (fields := ucs._fields.fitting(top)) is not ucs._fields:
        ucs._layout(fields)
    rows = _rows(plan, fields)
    frontier = [fields.encode(target)]
    steps = 0
    while frontier:
        fresh = []
        for x in frontier:
            # x left the basis when a later add put some m <= x in `fresh`;
            # pred(↑x) is contained in pred(↑m), so x has nothing to add
            if not ucs._minimal(x):
                continue
            for i in range(len(rows)):
                try:
                    preds = _predecessors(rows[i], x, max_steps - steps)
                except _Widen as e:
                    old, fields = fields, fields.wider(e.args[0])
                    ucs._layout(fields)
                    rows = _rows(plan, fields)
                    x, = fields.recode(old, [x])
                    for codes in (frontier, fresh):
                        codes[:] = fields.recode(old, codes)
                    preds = _predecessors(rows[i], x, max_steps - steps)
                if preds is None:
                    raise BudgetExceededError(
                        f"backward search exceeded {max_steps} candidate "
                        "predecessors")
                steps += len(preds)
                for c in preds:
                    if ucs._add(c):
                        fresh.append(c)
        frontier = fresh
    return BackwardCoverResult(ucs.contains(net.initial),
                               tuple(sorted(ucs.basis)))
