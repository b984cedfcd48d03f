"""The packed search kernel: markings packed into one int each, firing
rows of packed ints, and the forward search.

`_search`, the breadth-first search behind `explore`'s forward searches,
packs every visited marking into one int (`_Fields`: a field of 8, 16,
32, ... bits per place, in place order).  It reads one firing row of
packed ints per transition (`_firing_rows`, also read by the termination
walk and, through `explore._rows`, backward coverability): one
guard-bit subtraction tests the numeric arcs, one AND the inhibitor
arcs, and a successor is one addition, one AND for the emptied places
and one shift per transfer.  The search and the walk read one firing
table (`_table`), where one cost rule (`_INDEX_COST`) decides when a
marking tests every row and when only those its marked places index.
The search (`_search_at`) tests each row once per class of markings,
keeping the rows each class enables in a memo.  `net._apply` reads
the arcs on its own, so recovering each step of a found trace by it
(`explore._bfs`) checks the search.

Widening, one protocol for the forward search, the termination walk
(`ert`) and backward coverability (`explore`).  Each field keeps spare top
bits, so one AND with `_Fields.head` finds an entry at or above the limit.
The engine that meets one raises `_Widen` with its packed marking: the
forward search for the marking it would expand, the walk for a child,
the saturation for a predecessor.  The search and the walk start again at
`_Fields.wider` of it (`_widening`), the walk with its draws and node
numbers as they were; the saturation packs what it keeps again by
`_Fields.recode` and goes on where it stopped.
"""

from __future__ import annotations

import sys
from functools import partial
from itertools import compress, islice
from struct import Struct

from .net import BudgetExceededError, Marking, Net, _effects, _set


def _search(net: Net, start: Marking, goal: str, target, max_steps: int):
    """Breadth-first search of `net` from `start`, successors in
    declaration order.  `goal` is "reach" (a marking equal to `target`),
    "cover" (one at least `target` entry by entry) or "deadlock" (one
    where no transition is enabled); `target` is a tuple of ints as long
    as `start` (nonnegative for a cover), or None for a deadlock.

    Returns (expanded, path, fields): the number of markings expanded,
    then None if no marking is a hit, else the markings from the first
    hit back to `start`, packed by the `_Fields` `fields`.  Raises
    BudgetExceededError when a marking past the `max_steps`-th would need
    expanding.  `start` and `target` come checked, by `explore`'s
    searches.  It runs at one width (`_search_at`), and from the start
    again at each wider one (`_widening`)."""
    stop = min(max(max_steps, 0), sys.maxsize)
    return _widening(_Fields.for_net(net, max(start, default=0)),
                     partial(_search_at, net, start, goal, target, stop))


def _search_at(net: Net, start: Marking, goal: str, target, stop: int,
               fields: "_Fields"):
    """`_search` at the width of `fields`, expanding at most `stop`
    markings, on that width's firing table (`_table`).  It raises
    `_Widen(m)` before expanding an m with an entry at or above the limit.

    It tests each row once per class of markings.  Per place, the class
    says which of the thresholds the arcs test there (each numeric weight,
    and 1 for an inhibitor arc) the entry meets.  With the j-th threshold
    of each place in layer j, as guard bits g and g less the thresholds c,
    the key is m + c & g summed over the layers: per place, the count of
    thresholds met times the guard bit.  Entries, thresholds and so counts
    are below the limit, so m + c carries out of no field and the counts
    stay apart in the sum: markings with one key enable the same rows.

    A class keeps acts and incs for the rows it enables, in order: per row
    that zeroes a place, the increments d of the rows before it that zero
    none, then its own (d, keep, shifts, groups), and the increments after
    the last such row.  Its successor is m & keep, its zeroed fields
    cleared, plus d plus its transfers, by a shift each when they cost no
    more than unpacking the marking (`_INDEX_COST`), else from one unpack,
    as (target shift, source places) `groups`."""
    plan = net._plan()
    rows, pick = _table(plan, fields)
    width, size, read = fields.width, fields.size, fields.read
    full, head, guard = (1 << width) - 1, fields.head, fields.guard
    reach, cover = goal == "reach", goal == "cover"
    deadlock = goal == "deadlock"
    target = _packed_target(goal, target, fields)
    marks = {(p, 1) for row in rows for p in plan[row[0]].inhib}
    for row in rows:
        marks.update(plan[row[0]].numeric)
    top, layers, seen = 1 << width - 1, [[0, 0]], {}
    for p, x in marks:  # the j-th threshold of each place in layer j
        j = seen[p] = seen.get(p, -1) + 1
        if j == len(layers):
            layers.append([0, 0])
        layers[j][0] |= top << p * width
        layers[j][1] |= top - x << p * width
    (g0, c0), *layers = layers
    cheap = _INDEX_COST * fields.n // (size // 4 + 1)
    every = fields.ones * full  # every field's bits
    steps = {}  # position of a row that zeroes -> (d, keep, shifts, groups)
    for k, _, _, _, d, zero, xfers in rows:
        if zero and len(xfers) <= cheap:
            steps[k] = d, every ^ zero, xfers, ()
        elif zero:
            groups = {}
            for src, q in xfers:
                groups.setdefault(q, []).append(src // width)
            steps[k] = d, every ^ zero, (), list(groups.items())
    # class key -> [acts, incs] of the rows it enables: lists, as the
    # interpreter keeps up to 2,000 freed tuples of each length for reuse
    memo = {}
    parent = {fields.encode(start): None}  # marking -> its predecessor
    queue = list(parent)  # every visited marking, in the order of expansion
    push = queue.append
    for i, m in enumerate(islice(queue, stop)):
        if m & head:
            raise _Widen(m)
        if (m == target if reach
                else cover and (m | guard) - target & guard == guard):
            return i + 1, _path(parent, m), fields
        key = m + c0 & g0
        if layers:
            for g, c in layers:
                key += m + c & g
        known = memo.get(key)
        if known is None:  # the class's first marking: test each row
            acts, incs = [], []
            for k, g, w, inhib, d, zero, _ in (
                    rows if pick is None else pick(m)):
                if (m | g) - w & g == g and not m & inhib:
                    if zero:
                        acts.append((incs, steps[k]))
                        incs = []
                    else:
                        incs.append(d)
            memo[key] = [acts, incs]
        else:
            acts, incs = known
        if acts:
            for before, (d, keep, shifts, groups) in acts:
                for e in before:
                    s = m + e
                    if s not in parent:
                        parent[s] = m
                        push(s)
                s = (m & keep) + d
                for src, q in shifts:
                    s += (m >> src & full) << q
                if groups:
                    u = read(m.to_bytes(size, "little"))
                    for q, srcs in groups:
                        s += sum([u[p] for p in srcs]) << q
                if s not in parent:
                    parent[s] = m
                    push(s)
        elif deadlock and not incs:
            return i + 1, _path(parent, m), fields
        for d in incs:
            s = m + d
            if s not in parent:
                parent[s] = m
                push(s)
    if len(queue) > stop:
        raise BudgetExceededError(f"expanded={stop}")
    return len(queue), None, fields


def _widening(fields: "_Fields", attempt):
    """`attempt(fields)`, run again from the start at `_Fields.wider` of
    each `_Widen` it raises: the one retry loop of the protocol."""
    while True:
        try:
            return attempt(fields)
        except _Widen as e:
            fields = fields.wider(e.args[0])


def _firing_rows(plan, fields: "_Fields") -> list:
    """Per op of `plan`, its firing row of packed ints at the width of
    `fields`, led by its position k: (k, g, w, inhib, d, zero, xfers).
    The op is enabled at m when (m | g) - w & g == g, g the guard bits of
    its numeric pre-places and w their weights, and not m & inhib, its
    inhibited fields.  Its successor is m + d, d its packed posts less w
    (its `_effects` const, packed), less m & zero, its reset places and
    transfer sources, plus each transfer source's entry in m shifted to
    its target, as (source shift, target shift) in `xfers` (a source has
    no numeric arc, so m holds the snapshot `_apply` takes).  An op with a
    weight at or above the limit has no row: no marking below the limit
    enables it."""
    width, limit, full = fields.width, fields.limit, (1 << fields.width) - 1
    top = 1 << (width - 1)
    rows = []
    for k, op in enumerate(plan):
        g = w = 0
        for p, x in op.numeric:
            if x >= limit:
                break
            g |= top << p * width
            w |= x << p * width
        else:
            inhib = d = zero = 0
            for p in op.inhib:
                inhib |= full << p * width
            for p, x in op.posts:
                d += x << p * width
            for p in op.resets:
                zero |= full << p * width
            xfers = []
            for src, q in op.xfers:
                zero |= full << src * width
                xfers.append((src * width, q * width))
            rows.append((k, g, w, inhib, d - w, zero, xfers))
    return rows


# A table indexes its rows by place when they, each tested in about one
# step per 32-bit word of the packed marking, cost more than _INDEX_COST
# steps per place to unpack the marking and merge the candidates.  The
# search weighs a row's transfers, one shift each, by the same rule.
_INDEX_COST = 4


def _table(plan, fields: "_Fields"):
    """(rows, pick), the firing table of `plan` at the width of `fields`
    that the search and the termination walk read.  `rows`
    are its firing rows (`_firing_rows`).  `pick` is None if testing them
    all is cheaper (`_INDEX_COST`); else `pick(m)` gives the rows of the
    ops with no numeric pre-arc and of those whose first numeric pre-place
    the packed m marks, in declaration order."""
    rows = _firing_rows(plan, fields)
    at, size = range(fields.n), fields.size
    if len(rows) * (size // 4 + 1) <= _INDEX_COST * fields.n:
        return rows, None
    always, by_place, read = [], [[] for _ in at], fields.read
    for row in rows:
        numeric = plan[row[0]].numeric
        (by_place[numeric[0][0]] if numeric else always).append(row)

    def pick(m):
        # rows are (position, ...) tuples: sorting merges by position
        return sorted(always + [row for p in compress(at, read(m.to_bytes(
            size, "little"))) for row in by_place[p]])
    return rows, pick


def _path(parent: dict, m) -> list:
    """The markings `parent` records from `m` back to the start."""
    path = [m]
    while (m := parent[m]) is not None:
        path.append(m)
    return path


def _packed_target(goal: str, target, fields: "_Fields"):
    """`target` packed for the search.  Every marking it tests has its
    entries below `fields.limit`, so a target with an entry
    at or above it never matches: reach then gets -1, which equals no packed
    marking, and cover the guard bits, which cover no marking below the
    limit."""
    if goal == "deadlock":
        return None
    if min(target, default=0) >= 0 and max(target, default=0) < fields.limit:
        return fields.encode(target)
    return fields.guard if goal == "cover" else -1


class _Widen(Exception):
    """The widening request (see the module): args[0] is a marking, packed
    by the raiser's fields, with an entry at or above their limit."""


# struct codes, standard sizes, for fields of 1, 2, 4 and 8 bytes; wider
# fields are packed entry by entry
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


class _Fields:
    """A row of `n` unsigned fields of `width` bits (8, 16, 32, ...),
    least significant byte first, then `spare` fields left zero.  A
    marking is packed into one row as bytes (`pack`, `unpack`, `read`) or
    as one int (`encode`, `decode`), entry q in field q.

    `limit` is the largest power of two, at most 2**(width - 1), with
    `fan` * (limit - 1) + `post` < 2**width.  So the top bit of a field
    holding an entry below the limit is free as a guard, and a field that
    sums at most `fan` such entries and adds at most `post` still fits.
    `head` has the bits at and above the limit set in every field: an int
    ANDed with it is 0 exactly when all its entries are below the limit.
    `guard` has the top bit of every field set, and `ones` the bottom bit:
    x * ones holds x in every field, for x below 2**width."""

    def __init__(self, n: int, width: int, spare: int = 0, fan: int = 1,
                 post: int = 0):
        nb = width // 8
        code = _STRUCT_CODES.get(nb)
        self.n, self.width, self.spare, self.fan, self.post = \
            n, width, spare, fan, post
        self.size = (n + spare) * nb  # bytes per row
        self.struct = Struct(f"<{n}{code}{spare * nb}x") if code else None
        # one row's entries from bytes; bound to the Struct, or to no
        # object, so that the fields hold no reference to themselves
        self.read = (self.struct.unpack if code
                     else partial(_read_wide, n, nb))
        room = ((1 << width) - 1 - post) // fan + 1
        self.limit = (1 << min(width - 1, room.bit_length() - 1)
                      if room > 0 else 0)
        self.ones = ((1 << width * n) - 1) // ((1 << width) - 1)
        self.head = self.ones * ((1 << width) - max(self.limit, 1))
        self.guard = self.ones << (width - 1)

    @classmethod
    def for_net(cls, net: Net, top: int) -> "_Fields":
        """The search's fields for `net`, with a limit above `top`: its
        fields of 8 bits (kept on it as `_base`) fitted.  `fan` is the most
        entries a transition sums into one place (the place's own unless
        zeroed, plus its transfer sources), `post` the largest post weight."""
        if net._base is not None:
            return net._base.fitting(top)
        plan = net._plan()
        fan, post = 1, max([w for op in plan for _, w in op.posts], default=0)
        for op in plan:
            if op.xfers:  # else no entry sums into another
                _, zeroed, moved = _effects(op)
                fan = max([fan] + [len(srcs) + (tgt not in zeroed)
                                   for tgt, srcs in moved.items()])
        _set(net, "_base", cls(len(net.places), 8, fan=fan, post=post))
        return net._base.fitting(top)

    def fitting(self, top: int) -> "_Fields":
        """These fields, or the first doubling of their width whose limit
        exceeds `top`."""
        fields = self
        while fields.limit <= top:
            fields = _Fields(self.n, 2 * fields.width, self.spare, self.fan,
                             self.post)
        return fields

    def wider(self, code: int) -> "_Fields":
        """`fitting` for the entries of the marking packed as `code`; raises
        AssertionError if no wider, as a refit that widens nothing spins."""
        top = max(self.decode(code))
        fields = self.fitting(top)
        if fields.width <= self.width:
            raise AssertionError(f"no wider fields for an entry of {top}")
        return fields

    def pack(self, m) -> bytes:
        """One row holding `m`; raises struct.error or OverflowError if an
        entry is negative or does not fit a field."""
        if self.struct:
            return self.struct.pack(*m)
        nb = self.width // 8
        return (b"".join([int.to_bytes(x, nb, "little") for x in m])
                + bytes(self.spare * nb))

    def unpack(self, raw: bytes) -> list:
        """The markings in a run of rows."""
        if self.struct:
            return list(self.struct.iter_unpack(raw))
        return [self.read(raw[s:s + self.size])
                for s in range(0, len(raw), self.size)]

    def encode(self, m) -> int:
        return int.from_bytes(self.pack(m), "little")

    def decode(self, x: int) -> tuple:
        return self.read(x.to_bytes(self.size, "little"))

    def recode(self, old: "_Fields", codes) -> list:
        """The markings packed as `codes` by `old`, packed by these
        fields."""
        return [self.encode(old.decode(code)) for code in codes]



def _read_wide(n: int, nb: int, raw: bytes) -> tuple:
    """The first `n` fields of `nb` bytes in `raw`, for widths struct
    has no code for."""
    return tuple([int.from_bytes(raw[i:i + nb], "little")
                  for i in range(0, n * nb, nb)])
