"""Core model: Petri nets extended with inhibitor, reset and transfer pre-arcs.

Places carry a total "hierarchy" order encoded positionally: the place at
list position 0 is the least place, the last place is the greatest.  A
transition consumes through typed pre-arcs (at most one descriptor per
place) and produces through plain weighted post-arcs.  Markings are dense
tuples of non-negative ints indexed by hierarchy position; token counts are
unbounded Python ints.

`Net` is immutable after construction and all operations here are pure
functions of (net, marking).  Engines read a net only through its compiled
plan (`Net._plan`), and compiling validates: an invalid net can be built and
passed to `validate`, but firing or analysing it raises InvalidNetError.
A net read from text (`Net._of_records`) holds one flat record per
transition; its plan is compiled from the records, and its `Transition`s
are built only when `transitions` is first read.

`fire`, `is_firable` and `successors` interpret the plan (`_enabled` and
`_apply`, the reference firing rule), and `replay` fires a sequence into a
`Trace`, the check every engine's certificate passes.  A marking given to
any entry point is checked by `_target`, or by `_marking` for a state.
The packed search kernel that `explore` and `ert` run is in `packed`,
which this module does not import: a verb that runs no search does not
compile it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from operator import le


class XpnError(Exception):
    """Base class for all library errors."""


class BudgetExceededError(XpnError):
    """A step, node or clause budget ran out before an answer."""


class InvalidNetError(XpnError):
    """The operation needs a net with no validation errors; `errors` holds
    the error diagnostics in `validate` order."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("; ".join(f"{d.code}: {d.message}" for d in self.errors))


class UnknownTransitionError(XpnError):
    pass


class NotFirableError(XpnError):
    pass


# ---------------------------------------------------------------------------
# value classes

_set = object.__setattr__


class _Value:
    """Base of the immutable value classes.  A subclass names its fields in
    order in `_fields` (its `__slots__` too, except `Net`), and `__init__`
    binds them by position, then by keyword; a subclass overrides it only
    to convert an argument or supply a default.  Assigning or deleting an
    attribute raises AttributeError; `==` holds between two instances of
    one class with equal fields; the hash is the hash of the field tuple,
    so an instance whose fields hold a dict is unhashable; `repr` reads
    `Name(field=value, ...)`; pickling and copying rebuild an instance
    from its fields, passed by position."""

    __slots__ = ()
    _fields = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} "
                            f"fields but {len(args)} were given")
        i = 0  # an index, not zip(), whose object costs more per call
        for value in args:
            _set(self, fields[i], value)
            i += 1
        for name in fields[i:]:
            if name not in kwargs:
                raise TypeError(
                    f"{type(self).__name__}() missing field {name!r}")
            _set(self, name, kwargs.pop(name))
        for name in kwargs:  # left over: given twice, or no field
            why = "got {!r} twice" if name in fields else "has no field {!r}"
            raise TypeError(f"{type(self).__name__}() " + why.format(name))

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple()


# ---------------------------------------------------------------------------
# arc descriptors

class Numeric(_Value):
    """Ordinary weighted pre-arc.  Weight 0 means "no arc" and is dropped by
    the parser; validate() flags it if constructed directly."""

    __slots__ = _fields = ("weight",)


class Inhibitor(_Value):
    """Enables the transition only while the place is empty."""

    __slots__ = ()


class Reset(_Value):
    """Empties the place when the transition fires; never disables it."""

    __slots__ = ()


class Transfer(_Value):
    """Moves the whole content of the place to `target` when the transition
    fires; never disables it."""

    __slots__ = _fields = ("target",)


Arc = Numeric | Inhibitor | Reset | Transfer

INHIBIT = Inhibitor()
RESET = Reset()
_ONE = Numeric(1)  # the weight-1 arc that the reductions and compilers build

Marking = tuple  # tuple[int, ...] indexed by hierarchy position


class Transition(_Value):
    """One transition: `pre` maps place name to an arc descriptor, `post`
    maps place name to a positive weight.  Each is copied into a dict of
    the transition's own."""

    __slots__ = _fields = ("name", "pre", "post")

    def __init__(self, name: str, pre: Mapping[str, Arc] = (),
                 post: Mapping[str, int] = ()):
        # stored here, not by the slower `_Value.__init__`: the compilers
        # build thousands of transitions per run
        _set(self, "name", name)
        _set(self, "pre", dict(pre))
        _set(self, "post", dict(post))


class Net(_Value):
    """`places` is a tuple of names, whose positions are the hierarchy
    order; `transitions` a tuple of `Transition`s in declaration order;
    `initial` the initial marking.  The fields live in the instance's
    `__dict__`, beside the caches: the index of names, the plan, the
    packed search's base fields and its generated loops."""

    _fields = ("places", "transitions", "initial")

    def __init__(self, places: tuple, transitions: tuple, initial: Marking):
        super().__init__(tuple(places), tuple(transitions), tuple(initial))
        self._index(t.name for t in self.transitions)

    @classmethod
    def _of_records(cls, places: tuple, records: tuple, initial: tuple):
        """The net `fmt.parse_net` reads, one `_record` per transition in
        `records`; `transitions` is built from them when first read."""
        net = object.__new__(cls)
        net.__dict__.update(places=places, initial=initial, _records=records)
        net._index(rec[0] for rec in records)
        return net

    def _index(self, names):
        tpos = {}
        for i, name in enumerate(names):
            tpos.setdefault(name, i)
        self.__dict__.update(_pos={p: i for i, p in enumerate(self.places)},
                             _tpos=tpos, _ops=None, _base=None, _loops={})

    def __getattr__(self, name):
        # only a net read from records lacks `transitions`, until read
        if name != "transitions" or "_records" not in self.__dict__:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        ts = tuple(map(_from_record, self._records))
        _set(self, "transitions", ts)
        return ts

    # -- lookups -----------------------------------------------------------

    def place_pos(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise XpnError(f"unknown place {name!r}") from None

    def transition(self, name: str) -> Transition:
        try:
            return self.transitions[self._tpos[name]]
        except KeyError:
            raise UnknownTransitionError(f"unknown transition {name!r}") from None

    def marking(self, counts: Mapping[str, int] | None = None) -> Marking:
        """Build a marking tuple from a {place: count} mapping, checked by
        `_marking`; absent places get 0."""
        counts = counts or {}
        for name in counts:
            self.place_pos(name)  # raises on an unknown place
        return _marking([counts.get(p, 0) for p in self.places],
                        len(self.places))

    def as_dict(self, m: Marking) -> dict:
        return dict(zip(self.places, _target(m, len(self.places))))

    # -- firing, delegating to the module-level functions --------------------

    def is_firable(self, m: Marking, tname: str) -> bool:
        return is_firable(self, m, tname)

    def fire(self, m: Marking, tname: str) -> Marking:
        return fire(self, m, tname)

    def successors(self, m: Marking) -> list:
        return successors(self, m)

    # -- compiled firing plan ------------------------------------------------

    def _plan(self):
        """The compiled form every engine reads, one `_Op` per transition in
        declaration order.  The first call runs `validate` and raises
        InvalidNetError on errors; a valid net's plan is cached, so each
        `Net` is validated at most once.  A net read from records is
        compiled from them and validated only when a transition name
        repeats or an arc names no place, the errors the reader leaves to
        `validate`; a net built in code is validated, then compiled from
        the records of its transitions.  Construction compiles nothing, so
        an invalid net can still be built and validated."""
        if self._ops is None:
            plan = self._records_plan()
            if plan is None:
                bad = [d for d in validate(self) if d.severity == "error"]
                if bad:
                    raise InvalidNetError(bad)
                # one record at a time, each freed once compiled
                plan = _compile(self._pos, map(_to_record, self.transitions))
            _set(self, "_ops", plan)
        return self._ops

    def _records_plan(self):
        """The plan of a net read from records, or None for a net built in
        code and for one whose transition names repeat or whose arc names
        an undeclared place."""
        records = self.__dict__.get("_records")
        if records is None or len(self._tpos) < len(records):
            return None
        try:
            return _compile(self._pos, records)
        except KeyError:
            return None

    def _plan_for(self, tname: str):
        plan = self._plan()
        try:
            return plan[self._tpos[tname]]
        except KeyError:
            raise UnknownTransitionError(f"unknown transition {tname!r}") from None


def _record(name: str, pre: list, post: list) -> tuple:
    """The record of a transition: one flat tuple of its name, its number
    of pre-arcs, then the items of `pre` and `post`, its pre-arcs as place
    and descriptor and its post-arcs as place and weight, in arc order."""
    return (name, len(pre) // 2, *pre, *post)


# `Transition`'s slot setters: called directly, they skip the lookup by
# name that `object.__setattr__` makes
_set_name, _set_pre, _set_post = (
    Transition.name.__set__, Transition.pre.__set__, Transition.post.__set__)


def _to_record(t: Transition) -> tuple:
    """The record (`_record`) of the `Transition` `t`."""
    pre, post = [], []
    for item in t.pre.items():
        pre += item
    for item in t.post.items():
        post += item
    return _record(t.name, pre, post)


def _transition_of(name: str, pre: dict, post: dict) -> Transition:
    """The `Transition` owning `pre` and `post`, dicts its caller built
    for it alone, without the copies `Transition.__init__` makes."""
    t = object.__new__(Transition)
    _set_name(t, name)
    _set_pre(t, pre)
    _set_post(t, post)
    return t


def _from_record(rec) -> Transition:
    """The `Transition` of the record `rec`."""
    k = 2 + 2 * rec[1]
    return _transition_of(rec[0], dict(zip(rec[2:k:2], rec[3:k:2])),
                          dict(zip(rec[k::2], rec[k + 1::2])))


# one compiled transition, arcs given by hierarchy position: `numeric` and
# `posts` hold (position, weight) pairs, `xfers` (source, target) pairs;
# `index` is the transition index, 1 + the highest inhibitor position, or 0
# without inhibitor arcs
_Op = namedtuple("_Op", "name numeric inhib resets xfers posts index")


def _compile(pos: dict, records) -> tuple:
    """The `_Op` of each record in `records` (`_record`), its places
    numbered by `pos`; KeyError on a place or transfer target that is not
    in `pos`.  Every plan is compiled here."""
    plan = []
    for rec in records:
        numeric, inhib, resets, xfers, posts = [], [], [], [], []
        k = 2 + 2 * rec[1]
        for i in range(2, k, 2):
            p, arc = pos[rec[i]], rec[i + 1]
            if isinstance(arc, Numeric):
                numeric.append((p, arc.weight))
            elif isinstance(arc, Inhibitor):
                inhib.append(p)
            elif isinstance(arc, Reset):
                resets.append(p)
            else:  # validate has rejected every other descriptor
                xfers.append((p, pos[arc.target]))
        for i in range(k, len(rec), 2):
            posts.append((pos[rec[i]], rec[i + 1]))
        plan.append(_Op(rec[0], numeric, inhib, resets, xfers, posts,
                        max(inhib) + 1 if inhib else 0))
    return tuple(plan)


def _effects(op):
    """The effect of firing `op` per place, the one derivation of it that
    the generator, `_Fields` and `explore` read: (const, zeroed, moved),
    the posts minus the numeric weights, the reset places and transfer
    sources, and per transfer target its sources in arc order."""
    const, zeroed, moved = {}, set(op.resets), {}
    for p, w in op.numeric:
        const[p] = -w
    for src, tgt in op.xfers:
        zeroed.add(src)
        moved.setdefault(tgt, []).append(src)
    for p, w in op.posts:
        const[p] = const.get(p, 0) + w
    return const, zeroed, moved


# ---------------------------------------------------------------------------
# firing semantics

def _target(m, n: int) -> Marking:
    """`m` as a tuple, once it has `n` entries, all ints (XpnError if
    not): the one check of a search's target, and through `_marking` of a
    state."""
    m = tuple(m)
    if len(m) != n:
        raise XpnError(f"marking has {len(m)} entries for {n} places")
    if not all([isinstance(x, int) for x in m]):
        raise XpnError(f"marking {m} has a non-integer entry")
    return m


def _marking(m, n: int) -> Marking:
    """`_target` of `m`, a state: it also refuses a negative entry."""
    m = _target(m, n)
    if m and min(m) < 0:
        raise XpnError(f"marking {m} has a negative entry")
    return m


def _enabled(m, numeric, inhib) -> bool:
    for p, w in numeric:
        if m[p] < w:
            return False
    for p in inhib:
        if m[p] != 0:
            return False
    return True


def _apply(m, numeric, resets, xfers, posts) -> Marking:
    out = list(m)
    for p, w in numeric:
        out[p] -= w
    for p in resets:
        out[p] = 0
    if xfers:
        # snapshot transfer sources after numeric consumption (a reset place
        # is no source), then zero the sources, then deliver; transfers
        # therefore never chain
        moved = [(tgt, out[src]) for src, tgt in xfers]
        for src, _ in xfers:
            out[src] = 0
        for tgt, n in moved:
            out[tgt] += n
    for p, w in posts:
        out[p] += w
    return tuple(out)


def is_firable(net: Net, m: Marking, tname: str) -> bool:
    m = _marking(m, len(net.places))
    op = net._plan_for(tname)
    return _enabled(m, op.numeric, op.inhib)


def _fire(net: Net, m: Marking, tname: str) -> Marking:
    """`fire` of a marking already checked by `_marking`."""
    _, numeric, inhib, resets, xfers, posts, _ = net._plan_for(tname)
    if not _enabled(m, numeric, inhib):
        raise NotFirableError(f"{tname} is not firable at {m}")
    return _apply(m, numeric, resets, xfers, posts)


def fire(net: Net, m: Marking, tname: str) -> Marking:
    """Fire `tname` at `m`; raises NotFirableError when disabled."""
    return _fire(net, _marking(m, len(net.places)), tname)


def successors(net: Net, m: Marking) -> list:
    """All (transition name, successor marking) pairs in declaration order."""
    m = _marking(m, len(net.places))
    return [(name, _apply(m, numeric, resets, xfers, posts))
            for name, numeric, inhib, resets, xfers, posts, _ in net._plan()
            if _enabled(m, numeric, inhib)]


class Trace(_Value):
    """A replayed run: markings[0] is the start, markings[i+1] the marking
    after transitions[i]."""

    __slots__ = _fields = ("transitions", "markings")


def replay(net: Net, start: Marking, names) -> Trace:
    """Fire `names` in order from `start`; raises NotFirableError if the
    sequence is not a run.  `start` is checked once, not each step."""
    ms = [_marking(start, len(net.places))]
    for name in names:
        ms.append(_fire(net, ms[-1], name))
    return Trace(tuple(names), tuple(ms))


def _leq(a: Marking, b: Marking) -> bool:
    return all(map(le, a, b))


# ---------------------------------------------------------------------------
# validation

class Diagnostic(_Value):
    """A finding of `validate`; `severity` is "error" | "warning"."""

    __slots__ = _fields = ("severity", "code", "message")


def validate(net: Net) -> list:
    """Structural diagnostics; empty list means fully well-formed.  Only
    "error" severity blocks analysis operations."""
    diags = []

    def err(code, msg):
        diags.append(Diagnostic("error", code, msg))

    def warn(code, msg):
        diags.append(Diagnostic("warning", code, msg))

    def weight(where, w):
        if not isinstance(w, int):
            err("non-integer-weight", f"{where}: weight {w!r}")
        elif w < 0:
            err("negative-weight", f"{where}: weight {w}")
        elif w == 0:
            err("zero-weight-arc", f"{where}: weight 0 must be dropped")

    seen = set()
    for p in net.places:
        if p in seen:
            err("duplicate-place", f"place {p!r} declared twice")
        seen.add(p)
    tseen = set()
    for t in net.transitions:
        if t.name in tseen:
            err("duplicate-transition", f"transition {t.name!r} declared twice")
        tseen.add(t.name)

    if len(net.initial) != len(net.places):
        err("marking-length-mismatch",
            f"initial marking has {len(net.initial)} entries for "
            f"{len(net.places)} places")
    for i, n in enumerate(net.initial[:len(net.places)]):
        if not isinstance(n, int):
            err("non-integer-marking",
                f"place {net.places[i]!r} starts with {n!r} tokens")
        elif n < 0:
            err("negative-marking",
                f"place {net.places[i]!r} starts with {n} tokens")

    for t in net.transitions:
        for place, arc in t.pre.items():
            where = f"pre-arc {place!r} of {t.name!r}"
            if place not in net._pos:
                err("unknown-place", f"{where}: no such place")
            if isinstance(arc, Numeric):
                weight(where, arc.weight)
            elif isinstance(arc, Transfer):
                if arc.target not in net._pos:
                    err("dangling-transfer-target",
                        f"{where}: target {arc.target!r} is not a place")
                elif arc.target == place:
                    warn("self-transfer",
                         f"{where}: transfer onto itself is a no-op")
            elif not isinstance(arc, (Inhibitor, Reset)):
                err("bad-arc", f"{where}: {arc!r} is not an arc descriptor")
        for place, w in t.post.items():
            where = f"post-arc {place!r} of {t.name!r}"
            if place not in net._pos:
                err("unknown-place", f"{where}: no such place")
            weight(where, w)
    return diags


def has_errors(diags) -> bool:
    return any(d.severity == "error" for d in diags)


def require_valid(net: Net):
    """Raise InvalidNetError if `validate` reports errors.  This compiles
    the net's plan, so it validates each `Net` at most once."""
    net._plan()


# ---------------------------------------------------------------------------
# taxonomy

INHIBITOR_KIND = "inhibitor"
RESET_KIND = "reset"
TRANSFER_KIND = "transfer"
KIND_ORDER = (INHIBITOR_KIND, RESET_KIND, TRANSFER_KIND)


class NetClass(_Value):
    """Which special arc kinds occur, and how disciplined they are.

    A kind is hierarchical when every arc of that kind sits above an
    unbroken run of special arcs: if place p carries such an arc into t,
    every place below p carries some non-numeric arc into t too.
    `specials` is the subset of KIND_ORDER that occurs, in that order, and
    `hierarchical` the kinds from `specials` that respect the order.
    `ert_eligible` says whether the termination walk takes the net: no
    transfer arc, and each transition's inhibitor pre-places form a
    downward-closed set on their own (`_ert_fault`).
    """

    __slots__ = _fields = ("specials", "hierarchical", "constrained_transfer",
                           "ert_eligible")

    def label(self) -> str:
        if not self.specials:
            return "plain"
        parts = []
        for k in self.specials:
            parts.append(f"{k}({'hierarchical' if k in self.hierarchical else 'unrestricted'})")
        return "+".join(parts)


def classify(net: Net) -> NetClass:
    plan = net._plan()
    present = set()
    hier_ok = dict.fromkeys(KIND_ORDER, True)
    constrained = True
    for op in plan:
        sources = [src for src, _ in op.xfers]
        special = set(op.inhib) | set(op.resets) | set(sources)
        low = 0  # every position below `low` carries a special arc
        while low in special:
            low += 1
        for k, positions in zip(KIND_ORDER, (op.inhib, op.resets, sources)):
            if positions:
                present.add(k)
                if max(positions) > low:
                    hier_ok[k] = False
        if any(tgt in special for _, tgt in op.xfers):
            constrained = False

    specials = tuple(k for k in KIND_ORDER if k in present)
    hierarchical = tuple(k for k in specials if hier_ok[k])
    return NetClass(specials, hierarchical, constrained,
                    _ert_fault(plan) is None)


def _ert_fault(plan):
    """Why the termination walk refuses `plan`, or None if it takes it:
    the one definition of ERT eligibility, for `classify` and
    `ert.check_eligible`."""
    if any([op.xfers for op in plan]):
        return "transfer arcs are not supported"
    # inhibitor places are downward closed iff they fill 0 .. index - 1
    if any([op.index != len(op.inhib) for op in plan]):
        return "some transition's inhibitor pre-places are not downward closed"
    return None
