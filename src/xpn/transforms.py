"""Net-to-net reductions between the special-arc classes.

Every operation returns a TransformResult holding the constructed net, a
total injective map from source markings to target markings (plus
alternates when one source marking has several representatives), a
sentence saying how the source question reads off the target, and origin
notes covering every output place and transition.

Each construction builds its output net with a _Builder: the source
places come first, in their order, each mapped to itself and noted
"original"; every new place is appended above them together with its
forward-map entry and origin note, so the map cannot drift out of line
with the place list.
"""

from __future__ import annotations

from bisect import bisect_right

from .net import (BudgetExceededError, INHIBIT, INHIBITOR_KIND, Inhibitor,
                  Marking, Net, Numeric, RESET, Reset, TRANSFER_KIND, Transfer,
                  Transition, XpnError, _ONE, _Value, _marking, _transition_of,
                  classify, require_valid)

COPY = "copy"
CONST = "const"


class TransformError(XpnError):
    pass


class MarkingMap(_Value):
    """Per target position either ("copy", source_pos) or ("const", n)."""

    __slots__ = _fields = ("entries",)

    def __call__(self, m: Marking) -> Marking:
        return tuple(m[a] if k == COPY else a for k, a in self.entries)


def identity_entries(n: int) -> list:
    return [(COPY, i) for i in range(n)]


class TransformResult(_Value):
    __slots__ = _fields = ("net", "forward", "query", "goal", "alt_forwards",
                           "place_origin", "trans_origin")

    def __init__(self, net: Net, forward: MarkingMap, query: str,
                 goal: Marking | None = None, alt_forwards: tuple = (),
                 place_origin: dict | None = None,
                 trans_origin: dict | None = None):
        super().__init__(net, forward, query, goal, alt_forwards,
                         {} if place_origin is None else place_origin,
                         {} if trans_origin is None else trans_origin)


def _fresh(base: str, taken: set) -> str:
    name = base
    k = 2
    while name in taken:
        name = f"{base}{k}"
        k += 1
    taken.add(name)
    return name


class _Builder:
    """The output net of one reduction under construction.  `lead` moves
    places to the bottom of the order, and `result` can make the one
    alternate map; each keeps the map entries in line with the places."""

    def __init__(self, net: Net):
        self.source = net
        self.places = list(net.places)
        self.entries = identity_entries(len(net.places))
        self.place_origin = {p: "original" for p in net.places}
        self.transitions = []
        self.trans_origin = {}
        self._ptaken = set(net.places)
        self._ttaken = {t.name for t in net.transitions}

    def place(self, base: str, origin: str, value=(CONST, 0)) -> str:
        """Append a fresh place whose forward-map entry is `value`."""
        name = _fresh(base, self._ptaken)
        self.places.append(name)
        self.entries.append(value)
        self.place_origin[name] = origin
        return name

    def trans(self, base: str, pre: dict, post: dict, origin: str):
        """Add a new transition under a fresh name; it owns `pre`, `post`."""
        self.keep(_transition_of(_fresh(base, self._ttaken), pre, post),
                  origin)

    def keep(self, t: Transition, origin: str):
        """Add a rewritten source transition under its own name."""
        self.transitions.append(t)
        self.trans_origin[t.name] = origin

    def lead(self, *names: str):
        """Move `names` to the bottom of the place order, in that order,
        each with its forward-map entry."""
        entry = dict(zip(self.places, self.entries))
        self.places = [*names, *(p for p in self.places if p not in names)]
        self.entries = [entry[p] for p in self.places]

    def result(self, query: str, goal: Marking | None = None,
               alt: dict | None = None) -> TransformResult:
        """The finished reduction; `alt` ({place: entry}) makes the one
        alternate map, the forward map with those places' entries
        replaced."""
        fmap = MarkingMap(tuple(self.entries))
        out = Net(tuple(self.places), tuple(self.transitions),
                  fmap(self.source.initial))
        alts = () if alt is None else (MarkingMap(tuple(
            alt.get(p, e) for p, e in zip(self.places, self.entries))),)
        return TransformResult(
            net=out, forward=fmap, query=query, goal=goal, alt_forwards=alts,
            place_origin=self.place_origin, trans_origin=self.trans_origin)


def _numeric_pre(t: Transition) -> dict:
    return {p: a for p, a in t.pre.items() if isinstance(a, Numeric)}


def _gated(name: str, pre: dict, post: dict, *gates: str) -> Transition:
    """The transition `name` with arcs `pre` and `post`, taking one token
    from each of `gates` and putting it back; it owns dicts of its own."""
    post = dict(post)
    for gate in gates:
        post[gate] = post.get(gate, 0) + 1
    return _transition_of(name, {**pre, **dict.fromkeys(gates, _ONE)}, post)


# ---------------------------------------------------------------------------
# reset elimination

def _specials(net: Net, kinds) -> list:
    """The transitions of `net` with a pre-arc of one of `kinds`, in
    declaration order."""
    return [t for t in net.transitions
            if any(isinstance(a, kinds) for a in t.pre.values())]


def _elim_one(net: Net, with_transfer: bool) -> TransformResult:
    cls = classify(net)
    if with_transfer:
        if not cls.constrained_transfer:
            raise TransformError(
                "a transfer arc targets a place with a non-numeric arc on "
                "the same transition")
        kinds = (Reset, Transfer)
        what = "reset or transfer"
    else:
        if TRANSFER_KIND in cls.specials:
            raise TransformError("transfer arcs present; use hirct_elim")
        kinds = (Reset,)
        what = "reset"
    elim = _specials(net, kinds)[:1]
    if not elim:
        raise TransformError(f"no transition with a {what} pre-arc")
    return _gadgets(net, elim)


def _gadgets(net: Net, elim: list) -> TransformResult:
    """Replace each transition of `elim`, in declaration order, by the
    start/drain/move/finish gadget under a lock of its own, in one pass.

    The output is the net that eliminating them one at a time would give:
    each r_j of `elim` gets a busy and a lock place, in order; every other
    transition is gated on every lock; and r_j's gadget is built from r_j
    gated on the locks of r_1 ... r_{j-1}, then gated on the later locks.
    Each gadget's names are fresh against the names in the net at its
    step, so r_j's own name is free again once its gadget is named."""
    b = _Builder(net)
    busy_of, locks = {}, []  # name -> (position in `elim`, busy place)
    for j, t in enumerate(elim):
        busy_of[t.name] = j, b.place(
            f"{t.name}_busy", f"token held while the phases of {t.name} run")
        locks.append(b.place(
            "lock", "token held while any other transition may fire",
            (CONST, 1)))

    for u in net.transitions:
        if u.name not in busy_of:
            b.keep(_gated(u.name, u.pre, u.post, *locks),
                   "original, gated on the lock")
            continue
        j, busy = busy_of[u.name]
        lock, later = locks[j], locks[j + 1:]
        t = _gated(u.name, u.pre, u.post, *locks[:j])
        resets = [p for p, a in t.pre.items() if isinstance(a, Reset)]
        xfers = [(p, a.target) for p, a in t.pre.items()
                 if isinstance(a, Transfer)]
        inhibs = [p for p, a in t.pre.items() if isinstance(a, Inhibitor)]

        def add(base, pre, post, origin):
            b.keep(_gated(_fresh(base, b._ttaken), pre, post, *later), origin)

        pre = _numeric_pre(t)
        pre[lock] = _ONE
        add(f"{t.name}_start", pre, {busy: 1},
            f"consumes the numeric pre-arcs of {t.name} and opens its gadget")
        for p in resets:
            add(f"{t.name}_drain_{p}", {p: _ONE, busy: _ONE},
                {busy: 1}, f"discards one token of reset place {p}")
        for p, target in xfers:
            add(f"{t.name}_move_{p}", {p: _ONE, busy: _ONE},
                {target: 1, busy: 1}, f"moves one token from {p} to {target}")
        pre = {busy: _ONE}
        for p in inhibs + resets + [p for p, _ in xfers]:
            pre[p] = INHIBIT
        post = dict(t.post)
        post[lock] = post.get(lock, 0) + 1
        add(f"{t.name}_finish", pre, post,
            f"checks the emptied places and performs the post-arcs of {t.name}")
        b._ttaken.discard(t.name)

    return b.result("a marking M is reachable in the source iff forward(M) is "
                    "reachable here; forward sets busy=0 lock=1")


def hir_elim(net: Net) -> TransformResult:
    """Replace the first reset-bearing transition by a start/drain/finish
    gadget guarded by a lock place.  Inhibitor and reset arcs only."""
    return _elim_one(net, with_transfer=False)


def hirct_elim(net: Net) -> TransformResult:
    """Like hir_elim but also accepts constrained transfer arcs: each
    transfer arc of the chosen transition becomes a one-token mover, and
    the finish transition additionally requires the sources empty."""
    return _elim_one(net, with_transfer=True)


def hir_elim_all(net: Net) -> TransformResult:
    """Replace every reset-bearing transition by its gadget, as iterating
    hir_elim until none remains would, in one pass (`_gadgets`)."""
    require_valid(net)
    elim = _specials(net, (Reset,))
    if not elim:
        raise TransformError("no transition with a reset pre-arc")
    if TRANSFER_KIND in classify(net).specials:
        raise TransformError("transfer arcs present; use hirct_elim")
    # each gadget adds numeric and inhibitor arcs only, so iterating
    # hir_elim would pass its checks at every later step as well
    return _gadgets(net, elim)


# ---------------------------------------------------------------------------
# deadlock-freedom <-> reachability

def _deadlock_clauses(net: Net, cap: int) -> list:
    """DNF of "no transition can fire": per transition pick one way to be
    disabled (a numeric pre-place held under its weight, or an inhibited
    place held nonempty); prune contradictory picks, deduplicate, cap."""
    # a transition's options, in arc order, are ("exact", p, j) for each
    # j below a numeric arc's weight on p and ("atleast", p, 1) for an
    # inhibitor arc on p; they are indexed, not listed, so a huge weight
    # costs nothing before the cap applies.  Per transition: the index of
    # each arc's first option, (kind, p, low) per arc, and the option
    # count.  `low` is the least j at or above every numeric weight on p
    # of a later transition, and at least 1: every later option on p
    # rejects each exact j >= low alike (an exact j' < weight differs
    # from it, an inhibitor's "at least 1" holds), so those values draw
    # subtrees that differ only in p's value.
    per_t = []
    top = 0  # the largest j of any option
    later: dict = {}  # place -> its largest numeric weight further on
    for t in reversed(net.transitions):
        starts, arcs, total = [], [], 0
        for place, arc in t.pre.items():
            p = net.place_pos(place)
            low = max(later.get(p, 0), 1)
            if isinstance(arc, Numeric):
                kind, count, top = "exact", arc.weight, max(top, arc.weight - 1)
                # t has no other arc on p, so its other arcs read `later`
                # as it was
                later[p] = max(low, arc.weight)
            elif isinstance(arc, Inhibitor):
                kind, count, top = "atleast", 1, max(top, 1)
            else:
                continue
            starts.append(total)
            arcs.append((kind, p, low))
            total += count
        if not total:
            return []  # that transition is never disabled: no deadlock
        per_t.append((starts, arcs, total))
    per_t.reverse()

    # depth-first over one option per transition, with an explicit stack of
    # (option index, place, previous assignment, previous state, mark) so
    # long nets cannot exhaust the interpreter's recursion limit.  The
    # completions of a (level, assignment) state depend on nothing else, so
    # a state already fully explored has all of them in `seen` and is
    # skipped: many transitions disabled the same way no longer multiply the
    # search.  `state` encodes `assign` exactly as one int, `width` bits per
    # place (0 unset, 1 at least one, j + 2 exactly j), updated in place of
    # hashing the whole assignment at each step.  Up to the first
    # transition with two ways to be disabled there is one path to each
    # level, so those levels are neither stored nor looked up.
    #
    # So the clauses are the distinct completions in depth-first order,
    # and `done` only saves work: a state it skips had every completion
    # seen.  An exact pick j >= low of a place left unset draws the
    # completions of the other values >= low of its arc with p's value
    # changed.  If its subtree reached no completion and skipped no state
    # (`leaves`, `skips`), neither do theirs, and the arc's rest is
    # skipped.  If it added c clauses, the rest adds at least c distinct
    # ones per value, so once c times the values left passes the cap the
    # cap's error is raised at once.
    width = (top + 2).bit_length()

    def code(v):
        return 0 if v is None else 1 if v == ("atleast",) else v[1] + 2

    branch = next((i for i, (_, _, total) in enumerate(per_t) if total > 1),
                  len(per_t))
    clauses = []
    seen = set()
    done = set()  # (level, state) fully explored
    assign: dict = {}
    state = 0
    picks = []
    leaves = skips = 0
    k = 0  # next option to try for transition len(picks)
    while True:
        i = len(picks)
        if i == len(per_t):
            leaves += 1
            key = frozenset(assign.items())
            if key not in seen:
                seen.add(key)
                if len(clauses) >= cap:
                    raise BudgetExceededError(
                        f"more than {cap} deadlock clauses")
                clauses.append(dict(assign))
        elif k < per_t[i][2]:
            starts, arcs, total = per_t[i]
            a = bisect_right(starts, k) - 1
            kind, p, low = arcs[a]
            j = k - starts[a] if kind == "exact" else 1
            prev = assign.get(p)
            if kind == "exact":
                ok = not ((prev == ("atleast",) and j == 0)
                          or (isinstance(prev, tuple) and prev[0] == "exact"
                              and prev[1] != j))
                new = ("exact", j)
            else:
                ok = prev != ("exact", 0)
                new = prev or ("atleast",)
            if ok:
                nxt = state + ((code(new) - code(prev)) << (p * width))
                if i >= branch and (i + 1, nxt) in done:
                    ok, skips = False, skips + 1
            if ok:
                mark = None  # an exact value past `low`, more to come
                if prev is None and low <= j:
                    end = starts[a + 1] if a + 1 < len(starts) else total
                    if k + 1 < end:
                        mark = (leaves, skips, len(clauses), end)
                picks.append((k, p, prev, state, mark))
                assign[p] = new
                state = nxt
                k = 0
            elif kind == "exact" and prev and prev[0] == "exact":
                # only option prev[1] of this arc agrees with `prev`: go
                # to it if it is still ahead, else past the arc
                end = starts[a + 1] if a + 1 < len(starts) else total
                k = min(starts[a] + prev[1] if prev[1] > j else end, end)
            else:
                k += 1
            continue
        elif i > branch:
            done.add((i, state))
        if not picks:
            return clauses
        k, p, prev, state, mark = picks.pop()
        if prev is None:
            del assign[p]
        else:
            assign[p] = prev
        if mark is not None and mark[1] == skips:
            if mark[0] == leaves:
                k = mark[3] - 1  # no other value of the arc completes
            elif (len(clauses) - mark[2]) * (mark[3] - 1 - k) > cap:
                raise BudgetExceededError(
                    f"more than {cap} deadlock clauses")
        k += 1


def dlf_to_reach(net: Net, clause_cap: int = 10_000) -> TransformResult:
    """Source has a reachable deadlock iff the constructed net reaches the
    goal marking (goal place holding the only token).  More than
    `clause_cap` deadlock clauses raise BudgetExceededError."""
    cls = classify(net)
    if TRANSFER_KIND in cls.specials:
        raise TransformError("transfer arcs are not supported here")

    clauses = _deadlock_clauses(net, clause_cap)
    b = _Builder(net)
    live = b.place("live", "token held while the source net still runs",
                   (CONST, 1))
    goalp = b.place("goal", "token placed once a deadlock clause is certified")
    for t in net.transitions:
        b.keep(_gated(t.name, t.pre, t.post, live),
               "original, gated on live")

    for k, clause in enumerate(clauses):
        cplace = b.place(f"c{k}", f"clause {k} in progress")
        b.trans(f"c{k}_enter", {live: _ONE}, {cplace: 1},
                f"commits to deadlock clause {k}")

        check_pre = {cplace: _ONE}
        for p in net.places:
            check_pre[p] = INHIBIT
        for pos in sorted(clause):
            place = net.places[pos]
            lit = clause[pos]
            if lit == ("atleast",) or lit[1] >= 1:
                companion = b.place(
                    f"c{k}_{place}",
                    f"clause {k}: witness that {place} held the right count")
                check_pre[companion] = _ONE
                weight = 1 if lit == ("atleast",) else lit[1]
                b.trans(f"c{k}_take_{place}",
                        {place: Numeric(weight), cplace: _ONE},
                        {companion: 1, cplace: 1},
                        f"clause {k}: moves {weight} token(s) out of {place}")
                if lit == ("atleast",):
                    b.trans(f"c{k}_drop_{place}",
                            {place: _ONE, cplace: _ONE}, {cplace: 1},
                            f"clause {k}: discards surplus tokens of {place}")
            # an exact-zero literal needs no mover: the check transition
            # already inhibits on the place
        for pos in range(len(net.places)):
            if pos not in clause:
                place = net.places[pos]
                b.trans(f"c{k}_drop_{place}",
                        {place: _ONE, cplace: _ONE}, {cplace: 1},
                        f"clause {k}: empties unconstrained place {place}")
        b.trans(f"c{k}_check", check_pre, {goalp: 1},
                f"certifies clause {k} and places the goal token")

    return b.result(
        "the source has a reachable deadlock iff this net reaches the goal "
        "marking (goal=1, all else 0)",
        goal=tuple(int(p == goalp) for p in b.places))


def reach_to_dlf(net: Net, target: Marking) -> TransformResult:
    """Target reachable in the source iff the constructed net has a
    reachable deadlock; that deadlock is unique (done=1, all else 0).
    The target is a state, checked as `fire` checks one (XpnError)."""
    require_valid(net)
    target = _marking(target, len(net.places))

    b = _Builder(net)
    gate = b.place("gate", "token the source transitions borrow per firing",
                   (CONST, 1))
    tick = b.place("tick", "keeps the net live until the final check",
                   (CONST, 1))
    done = b.place("done", "marks that the target was hit exactly")
    for t in net.transitions:
        b.keep(_gated(t.name, t.pre, t.post, gate), "original, gated")
    for p in net.places:
        b.trans(f"idle_{p}", {p: _ONE}, {p: 1},
                f"keeps the net live while {p} is nonempty")
    b.trans("spin", {tick: _ONE}, {tick: 1},
            "keeps the net live until the final check")
    pre = {p: Numeric(n) for p, n in zip(net.places, target) if n > 0}
    pre[gate] = _ONE
    pre[tick] = _ONE
    b.trans("finish", pre, {done: 1},
            "consumes the target marking plus both control tokens")

    return b.result(
        "the target is reachable in the source iff this net has a reachable "
        "deadlock; the only reachable deadlock is the goal marking (done=1, "
        "all else 0)",
        goal=tuple(int(p == done) for p in b.places))


# ---------------------------------------------------------------------------
# two inhibitors -> one inhibitor + one reset

def two_inh_to_reset(net: Net) -> TransformResult:
    """Trade the first of exactly two inhibitor arcs for a reset arc, using
    a copy place that shadows the reset place's numeric traffic."""
    cls = classify(net)
    if cls.specials not in ((), (INHIBITOR_KIND,)):
        raise TransformError("only inhibitor arcs are allowed here")
    arcs = [(i, p) for i, t in enumerate(net.transitions)
            for p, a in t.pre.items() if isinstance(a, Inhibitor)]
    if len(arcs) != 2:
        raise TransformError(f"expected exactly two inhibitor arcs, found {len(arcs)}")
    (i1, p2), (_i4, _q) = arcs
    t1_name = net.transitions[i1].name

    b = _Builder(net)
    copy = b.place(
        f"{p2}_copy",
        f"mirrors the numeric traffic of {p2}; equality certifies that the "
        f"reset on {t1_name} only ever fired on empty",
        (COPY, net.place_pos(p2)))

    for i, t in enumerate(net.transitions):
        pre = dict(t.pre)
        if i == i1:
            pre[p2] = RESET
        a = t.pre.get(p2)
        if isinstance(a, Numeric):
            pre[copy] = a
        post = dict(t.post)
        if p2 in post:
            post[copy] = post[p2]
        b.keep(_transition_of(t.name, pre, post),
               "inhibitor traded for a reset" if i == i1
               else "original, numeric arcs mirrored onto the copy")

    return b.result("M is reachable in the source iff forward(M) is reachable "
                    f"here, where forward duplicates {p2} into {copy}")


# ---------------------------------------------------------------------------
# two transfers -> hierarchical transfers

def transfer_hierarchize(net: Net) -> TransformResult:
    """Reorder and duplicate so that both transfer arcs respect the place
    order: the first transfer's source gets a shadow copy, and a mode token
    says which of the two currently represents it.  M is reachable in the
    source iff either representative marking is reachable here."""
    cls = classify(net)
    if cls.specials != (TRANSFER_KIND,):
        raise TransformError("exactly the transfer kind must be present")
    arcs = [(i, p, a.target) for i, t in enumerate(net.transitions)
            for p, a in t.pre.items() if isinstance(a, Transfer)]
    if len(arcs) != 2:
        raise TransformError(f"expected exactly two transfer arcs, found {len(arcs)}")
    (i1, p1, p3), (i2, p2, p4) = arcs
    if i1 == i2:
        raise TransformError("the two transfer arcs must sit on distinct transitions")
    if p1 == p2:
        raise TransformError("the two transfer arcs must have distinct sources")
    if p4 == p1:
        raise TransformError(
            f"the swapping transition may not transfer into {p1}")
    t2 = net.transitions[i2]
    if t2.post.get(p1):
        raise TransformError(
            f"a post-arc from {t2.name} into {p1} is not supported")

    b = _Builder(net)
    ts = net.transitions
    if isinstance(t2.pre.get(p1), Numeric):
        # the swapper may not consume from the duplicated place: split it
        # into an atomic consume/act pair, the others gated on hold
        hold = b.place("hold", "atomic split of the swapping transition",
                       (CONST, 1))
        mid = b.place("mid", "atomic split of the swapping transition")
        pre_a = _numeric_pre(t2)
        pre_a[hold] = _ONE
        pre_b = {p: a for p, a in t2.pre.items() if isinstance(a, Transfer)}
        pre_b[mid] = _ONE
        post_b = dict(t2.post)
        post_b[hold] = post_b.get(hold, 0) + 1
        ts = [_gated(t.name, t.pre, t.post, hold) for t in ts]
        ts[i2:i2 + 1] = [
            _transition_of(_fresh(f"{t2.name}_a", b._ttaken), pre_a, {mid: 1}),
            _transition_of(_fresh(f"{t2.name}_b", b._ttaken), pre_b, post_b)]
        b._ttaken.discard(t2.name)
        i2 += 1

    alt = b.place(f"{p1}_alt", f"shadow of {p1}; holds it while mode B is "
                  "active")
    mode_a = b.place("modeA", f"mode token: {p1} is the live representative",
                     (CONST, 1))
    mode_b = b.place("modeB", f"mode token: {alt} is the live representative")
    b.lead(p1, alt, p2)

    def arcs_of(t: Transition, i: int, b_side: bool):
        """The pre and post arcs of `t`'s copy for mode B or mode A."""
        if b_side:
            pre = {alt if p == p1 else p:
                   Transfer(alt if a.target == p1 else a.target)
                   if isinstance(a, Transfer) else a
                   for p, a in t.pre.items()}
            post = {alt if p == p1 else p: w for p, w in t.post.items()}
        else:
            pre, post = dict(t.pre), dict(t.post)
        if i == i1:
            # shadow transfer so the source pair stays downward closed
            pre[p1 if b_side else alt] = Transfer(p3)
        elif i == i2:
            pre[p1] = Transfer(alt)
            pre[alt] = Transfer(p1)
        gate_in = mode_b if b_side else mode_a
        gate_out = (mode_a if b_side else mode_b) if i == i2 else gate_in
        pre[gate_in] = _ONE
        post[gate_out] = post.get(gate_out, 0) + 1
        return pre, post

    for i, t in enumerate(ts):
        role = ("first transfer, shadow arc added" if i == i1 else
                "second transfer, swaps the mode and the representatives"
                if i == i2 else "original")
        b.keep(_transition_of(t.name, *arcs_of(t, i, False)),
               f"{role} (mode A copy)")
        b.trans(f"{t.name}_alt", *arcs_of(t, i, True), f"{role} (mode B copy)")
    # the origins alternate between the modes, the net lists mode A first
    b.transitions = b.transitions[::2] + b.transitions[1::2]

    return b.result(
        "M is reachable in the source iff forward(M) or alt_forward(M) is "
        "reachable here (mode A and mode B representatives)",
        alt={p1: (CONST, 0), alt: (COPY, net.place_pos(p1)),
             mode_a: (CONST, 0), mode_b: (CONST, 1)})
