"""The packed search kernel: markings packed into one int each, firing
rows of packed ints, and the forward search with its generated loops.

`_search`, the breadth-first search behind `explore`'s forward searches,
packs every visited marking into one int from the start (`_Fields`: a
field of 8, 16, 32, ... bits per place, in place order).  Its table tier
(`_table_loop`) reads one row of packed ints per transition
(`_firing_rows`, which all three packed engines read: this search, the
termination walk, and backward coverability, whose rows `explore._rows`
builds from them): one guard-bit subtraction tests the numeric arcs, one
AND the inhibitor arcs, and a successor is one addition, one AND for the
emptied places and one shift per transfer.  The table tier and the
termination walk read one firing table (`_table`), and one cost rule
(`_INDEX_COST`) decides for both when a marking tests every row and when
only the rows its marked places index.  Once compiling pays
(`_COMPILE_COST`) the search goes on in one loop generated per net, goal
and field width: one unpack per marking, one `if` per transition, one int
expression per successor (one list, for a transition that changes many
places), and the goal test on the packed marking.  Each loop is compiled
at most once per net, goal and width.  The generator and the field
widths read what a transition does to each place from `net._effects`,
and a firing row packs the same effect from the arcs; `net._apply` reads
the arcs on its own, so recovering each step of a found trace by it
(`explore._bfs`) is an independent check of both tiers.

Widening, one protocol for the forward search, the termination walk
(`ert`) and backward coverability (`explore`).  Each field keeps spare top
bits, so one AND with `_Fields.head` finds an entry at or above the limit.
The engine that meets one raises `_Widen` with its packed marking: the
forward loops for the marking they would expand, the walk for a child,
the saturation for a predecessor.  The search and the walk start again at
`_Fields.wider` of it (`_widening`), the walk with its draws and node
numbers as they were; the saturation packs what it keeps again by
`_Fields.recode` and goes on where it stopped.
"""

from __future__ import annotations

import sys
from functools import partial
from itertools import compress, groupby, islice
from struct import Struct

from .net import BudgetExceededError, Marking, Net, _effects, _set


def _search(net: Net, start: Marking, goal: str, target, max_steps: int):
    """Breadth-first search of `net` from `start`, successors in
    declaration order.  `goal` is "reach" (a marking equal to `target`),
    "cover" (one at least `target` entry by entry) or "deadlock" (one
    where no transition is enabled); `target` is a tuple of ints as long
    as `start` (nonnegative for a cover), or None for a deadlock.

    Returns (expanded, path, fields): the number of markings expanded,
    then None if no marking is a hit, else the markings from `start` to
    the first hit, packed by the `_Fields` `fields`.  Raises
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
    markings: the table tier (`_table_loop`) until its rent reaches the
    buy (`_COMPILE_COST`), then the loop generated for the goal and the
    width, both on one queue and one dict."""
    plan = net._plan()
    parent = {fields.encode(start): None}  # marking -> its predecessor
    queue = list(parent)  # every visited marking, in the order of expansion
    aim = _packed_target(goal, target, fields)
    words = fields.size // 4 + 1
    # the buy less the rent of building the table, a test per op
    left = _COMPILE_COST * (len(plan) + 1) - len(plan) * words
    i, hit = 0, None
    if left > 0:
        run, tests = _table_loop(plan, goal, fields)
        i = min(stop, -(-left // (tests * words))) if tests else stop
        hit = run(queue, parent, 0, i, aim)
        del run  # so that a compile next frees the table first
    if hit is None and i < min(stop, len(queue)):
        hit = _search_loop(net, goal, fields)(queue, parent, i, stop, aim)
    if hit is not None:
        return hit[0] + 1, _path(parent, hit[1]), fields
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
    weight at or above the limit gets None: no marking below the limit
    enables it."""
    width, limit, full = fields.width, fields.limit, (1 << fields.width) - 1
    top = 1 << (width - 1)
    rows = []
    for k, op in enumerate(plan):
        g = w = 0
        for p, x in op.numeric:
            if x >= limit:
                rows.append(None)
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
# steps per place to unpack the marking and merge the candidates.
_INDEX_COST = 4


def _table(plan, fields: "_Fields"):
    """(rows, pick), the firing table of `plan` at the width of `fields`
    that the table tier and the termination walk read.  `rows` are the
    firing rows (`_firing_rows`) of the ops some marking below the limit
    enables.  `pick` is None if testing them all is cheaper
    (`_INDEX_COST`); else `pick(m)` gives the rows of the ops with no
    numeric pre-arc and of those whose first numeric pre-place the packed
    m marks, in declaration order."""
    rows = list(filter(None, _firing_rows(plan, fields)))
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


def _table_loop(plan, goal: str, fields: "_Fields"):
    """(run, tests): `run(Q, P, i, stop, T)` with the contract of the
    generated loop (`_search_source`) for `plan`, `goal` and `fields`,
    and the number of ops it tests per expansion.  It tests the rows of
    the table (`_table`) that each marking picks, or all of them."""
    rows, pick = _table(plan, fields)
    full = (1 << fields.width) - 1
    head, guard = fields.head, fields.guard
    reach, cover = goal == "reach", goal == "cover"
    deadlock = goal == "deadlock"

    def run(Q, P, i, stop, T):
        push = Q.append
        for i, m in enumerate(islice(Q, i, stop), i):
            if m & head:
                raise _Widen(m)
            if (m == T if reach
                    else cover and (m | guard) - T & guard == guard):
                return i, m
            k = 0
            for _, g, w, inhib, d, zero, xfers in (
                    rows if pick is None else pick(m)):
                if (m | g) - w & g == g and not m & inhib:
                    k = 1
                    s = m + d
                    if zero:
                        s -= m & zero
                        for src, q in xfers:
                            s += (m >> src & full) << q
                    if s not in P:
                        P[s] = m
                        push(s)
            if deadlock and not k:
                return i, m
        return None

    return run, len(rows)


def _path(parent: dict, m) -> list:
    """The markings `parent` records from the start to `m`."""
    path = [m]
    while (m := parent[m]) is not None:
        path.append(m)
    path.reverse()
    return path


def _packed_target(goal: str, target, fields: "_Fields"):
    """`target` packed for either tier of the search.  Every marking they
    test has its entries below `fields.limit`, so a target with an entry
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


# ---------------------------------------------------------------------------
# generated code

# Rent-or-buy (Karlin et al. 1988): a search at one width compiles its
# loop once its rent, the work done in the table tier at that width,
# reaches the buy, the cost of compiling: 45-115 us per transition
# (2-vCPU x86-64, CPython 3.11).  The
# rent counts tests, each weighed by the packed marking's size in 32-bit
# words: one per transition to build the table, then one per transition
# in the table at each expansion; the buy is _COMPILE_COST per transition
# and one more.  A test-word costs the table 15-90 ns more than the loop,
# so compiling pays after 900-1,300 test-words per transition on rings of
# 5-7 places, the nets that search long enough to switch, and after
# 2,300-4,000 on counter machines of 17-24, whose tests the weight
# overstates.  A net whose table would cost the buy to build compiles at
# once, which bounds the table's memory by the compile's.
# Counts, not a clock: answers match on any host.
_COMPILE_COST = 1000

# _RUN bounds the terms of a successor's int expression (more are packed
# from a list) and of a `+` chain of transfers into one place (more are one
# flat sum()), so the source stays linear in places plus arcs and its syntax
# tree shallow
_RUN = 8


def _lit(n: int) -> str:
    """An int literal; hexadecimal because int-to-decimal conversion refuses
    ints beyond 4,300 digits, and through int's own method so that an int
    subclass cannot put other text into the source."""
    return int.__format__(n, "#x")


def _entries(op) -> dict:
    """{position: expression} for each successor entry `op` changes.  A
    position's value is its own local, or 0 once zeroed, plus the transfer
    snapshots it receives, plus its const; a zeroed place has no numeric
    arc, so its snapshot is its own local."""
    const, zeroed, moved = _effects(op)
    exprs = {}
    for q in const.keys() | zeroed | moved.keys():
        terms = [] if q in zeroed else [f"a{q}"]
        terms += [f"a{src}" for src in moved.get(q, ())]
        if len(terms) > _RUN:
            e = f"sum(({', '.join(terms)}))"
        else:
            e = " + ".join(terms)
        c = const.get(q, 0)
        if not e:
            e = _lit(c)
        elif c:
            e += f" {'+' if c > 0 else '-'} {_lit(abs(c))}"
        if e != f"a{q}":  # else the arcs cancel, as in `in p ; out p`
            exprs[q] = e
    return exprs


def _test_source(op) -> str:
    """The enabling test of `op` on the locals, "" if always enabled.  The
    entries are unsigned, so a weight of 1 is tested by truth, which is
    cheaper."""
    return " and ".join(
        [f"a{p}" if w == 1 else f"a{p} >= {_lit(w)}" for p, w in op.numeric]
        + [f"not a{p}" for p in op.inhib])


def _search_loop(net: Net, goal: str, fields: _Fields):
    """`_search_source` for `net`, `goal` and the width of `fields`,
    compiled once and kept on the net.  `run` is taken out of the
    namespace that is its globals, so that no reference cycle holds it:
    a dropped net frees its loops by reference counting."""
    key = (goal, fields.width)
    run = net._loops.get(key)
    if run is None:
        pack = fields.struct and fields.struct.pack
        namespace = {"islice": islice, "W": _Widen, "H": fields.head,
                     "G": fields.guard, "U": fields.read, "B": fields.size,
                     "E": "little",
                     # X packs a list successor, in one call where struct can
                     "X": (lambda v: int.from_bytes(pack(*v), "little"))
                     if pack else fields.encode}
        exec(compile(_search_source(len(net.places), net._plan(), goal,
                                    fields.width), "<xpn search>", "exec"),
             namespace)
        run = net._loops[key] = namespace.pop("run")
    return run


def _packed_successor(op, width: int) -> list:
    """The lines that set `s` to the successor of the packed marking `m`
    under `op`, or [] if it is `m` itself.  Mostly one line, one int
    expression: the constant change of a run of adjacent places is written
    (d << shift), which CPython folds when small; a zeroed place subtracts
    (a{p} << shift) and a transfer target adds its sources' locals shifted
    to it.  With more than _RUN such terms the successor is packed (`X`)
    from a list instead, the unpacked `u` with each changed entry
    (`_entries`) set, a long run of adjacent literals by one slice, so
    the work stays linear in the places."""
    const, zeroed, moved = _effects(op)
    consts = []  # [first place, last place, change from the first on]
    for q, d in sorted(const.items()):
        if d and consts and consts[-1][1] == q - 1:
            first, _, change = consts[-1]
            consts[-1][1:] = q, change + (d << (q - first) * width)
        elif d:
            consts.append([q, q, d])
    # a self-transfer moves a place's tokens onto itself
    minus = [p for p in sorted(zeroed) if p not in moved.get(p, ())]
    plus = [(q, [src for src in srcs if src != q])
            for q, srcs in sorted(moved.items())]
    plus = [(q, srcs) for q, srcs in plus if srcs]
    if len(consts) + len(minus) + len(plus) > _RUN:
        lines = ["v = [*u]"]
        # more than 2 * _RUN adjacent literals (the only entries whose text
        # starts with 0) are one slice store of one folded constant, faster
        # to compile and run than as many stores
        for (_, lit), run in groupby(
                enumerate(sorted(_entries(op).items())),
                lambda x: (x[1][0] - x[0], x[1][1][0] == "0")):
            qs, es = zip(*(qe for _, qe in run))
            lines += ([f"v[{qs[0]}:{qs[-1] + 1}] = {', '.join(es)},"]
                      if lit and len(qs) > 2 * _RUN
                      else map("v[{}] = {}".format, qs, es))
        return lines + ["s = X(v)"]

    def shifted(value: str, q: int) -> str:
        return f"({value} << {_lit(q * width)})" if q else value

    out = "m"
    if consts:
        out += f" + ({' + '.join(shifted(_lit(d), q) for q, _, d in consts)})"
    for q, srcs in plus:
        total = " + ".join(f"a{s}" for s in srcs)
        out += f" + {shifted(f'({total})', q)}"
    for p in minus:
        out += f" - {shifted(f'a{p}', p)}"
    return [] if out == "m" else [f"s = {out}"]


def _search_source(n_places: int, plan, goal: str, width: int) -> str:
    """Python source of `run(Q, P, i, stop, T)`, the breadth-first loop of
    `_search` over markings packed in fields of `width` bits.

    It expands Q[i], Q[i + 1], ... up to but not including Q[stop], while
    Q grows: each successor not yet a key of P is stored there with its
    predecessor as value and appended to Q.  Before expanding a marking m
    it raises W(m), the module's widening request `_Widen`, if an entry
    is at or above the fields' limit (an AND with `H`).  It returns (i, m)
    at the first hit m, the i-th marking: one equal to T for "reach", one
    covering T for "cover" (the guard-bit subtraction of
    `UpwardClosedSet`), or one where no transition is enabled for
    "deadlock".  It returns None when it runs out of queue or reaches
    `stop`.

    A marking's fields are unpacked into locals a0 ... a{n-1}, kept as
    the tuple `u` too where a successor is built from a list, each
    transition is one `if` on its numeric and inhibitor arcs, and each
    successor is set by the lines of `_packed_successor`.  The source
    holds no text of the net."""
    succs = [_packed_successor(op, width) for op in plan]
    lines = ["def run(Q, P, i, stop, T):",
             "    push = Q.append",
             "    for i, m in enumerate(islice(Q, i, stop), i):",
             "        if m & H:",
             "            raise W(m)"]
    if goal == "reach":
        lines += ["        if m == T:", "            return i, m"]
    elif goal == "cover":
        lines += ["        if (m | G) - T & G == G:",
                  "            return i, m"]
    else:
        lines.append("        k = 0")
    unpacked = "U(m.to_bytes(B, E))"
    if any("v = [*u]" in succ for succ in succs):
        lines.append(f"        u = {unpacked}")
        unpacked = "u"
    if n_places:
        names = ", ".join(f"a{q}" for q in range(n_places))
        lines.append(f"        {names}, = {unpacked}")
    for op, succ in zip(plan, succs):
        body = ["k = 1"] if goal == "deadlock" else []
        if succ:
            body += succ + ["if s not in P:", "    P[s] = m", "    push(s)"]
        test = _test_source(op)
        if body and test:
            lines.append(f"        if {test}:")
            lines += [f"            {b}" for b in body]
        elif body:
            lines += [f"        {b}" for b in body]
    if goal == "deadlock":
        lines += ["        if not k:", "            return i, m"]
    return "\n".join(lines) + "\n"
