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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Union


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
# arc descriptors

@dataclass(frozen=True)
class Numeric:
    """Ordinary weighted pre-arc.  Weight 0 means "no arc" and is dropped by
    the parser; validate() flags it if constructed directly."""

    weight: int


@dataclass(frozen=True)
class Inhibitor:
    """Enables the transition only while the place is empty."""


@dataclass(frozen=True)
class Reset:
    """Empties the place when the transition fires; never disables it."""


@dataclass(frozen=True)
class Transfer:
    """Moves the whole content of the place to `target` when the transition
    fires; never disables it."""

    target: str


Arc = Union[Numeric, Inhibitor, Reset, Transfer]

INHIBIT = Inhibitor()
RESET = Reset()

Marking = tuple  # tuple[int, ...] indexed by hierarchy position


@dataclass(frozen=True)
class Transition:
    """One transition: `pre` maps place name to an arc descriptor, `post`
    maps place name to a positive weight."""

    name: str
    pre: Mapping[str, Arc] = field(default_factory=dict)
    post: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "pre", dict(self.pre))
        object.__setattr__(self, "post", dict(self.post))


@dataclass(frozen=True)
class Net:
    places: tuple  # tuple[str, ...]; position is the hierarchy order
    transitions: tuple  # tuple[Transition, ...] in declaration order
    initial: Marking

    def __post_init__(self):
        object.__setattr__(self, "places", tuple(self.places))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        object.__setattr__(self, "initial", tuple(self.initial))
        pos = {p: i for i, p in enumerate(self.places)}
        tpos = {}
        for i, t in enumerate(self.transitions):
            tpos.setdefault(t.name, i)
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_tpos", tpos)
        object.__setattr__(self, "_ops", None)

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
        """Build a marking tuple from a {place: count} mapping; absent
        places get 0."""
        counts = counts or {}
        for name in counts:
            if name not in self._pos:
                raise XpnError(f"unknown place {name!r}")
        return tuple(counts.get(p, 0) for p in self.places)

    def as_dict(self, m: Marking) -> dict:
        return {p: m[i] for i, p in enumerate(self.places)}

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
        `Net` is validated once.  Construction compiles nothing, so an
        invalid net can still be built and validated."""
        if self._ops is None:
            bad = [d for d in validate(self) if d.severity == "error"]
            if bad:
                raise InvalidNetError(bad)
            plan = []
            for t in self.transitions:
                numeric, inhib, resets, xfers = [], [], [], []
                for place, arc in t.pre.items():
                    p = self._pos[place]
                    if isinstance(arc, Numeric):
                        numeric.append((p, arc.weight))
                    elif isinstance(arc, Inhibitor):
                        inhib.append(p)
                    elif isinstance(arc, Reset):
                        resets.append(p)
                    else:  # validate has rejected every other descriptor
                        xfers.append((p, self._pos[arc.target]))
                posts = [(self._pos[place], w) for place, w in t.post.items()]
                plan.append(_Op(t.name, numeric, inhib, resets, xfers, posts,
                                max(inhib, default=-1) + 1))
            object.__setattr__(self, "_ops", tuple(plan))
        return self._ops

    def _plan_for(self, tname: str):
        plan = self._plan()
        try:
            return plan[self._tpos[tname]]
        except KeyError:
            raise UnknownTransitionError(f"unknown transition {tname!r}") from None


class _Op(NamedTuple):
    """One compiled transition, arcs given by hierarchy position: `numeric`
    and `posts` hold (position, weight) pairs, `xfers` (source, target)
    pairs.  `index` is the transition index, 1 + the highest inhibitor
    position, or 0 without inhibitor arcs."""

    name: str
    numeric: list
    inhib: list
    resets: list
    xfers: list
    posts: list
    index: int


# ---------------------------------------------------------------------------
# firing semantics

def _check_len(net: Net, m: Marking):
    if len(m) != len(net.places):
        raise XpnError(
            f"marking has {len(m)} entries, net has {len(net.places)} places")


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
    # snapshot transfer sources after numeric consumption, then zero all
    # reset/transfer sources, then deliver; transfers therefore never chain
    moved = [(tgt, out[src]) for src, tgt in xfers]
    for p in resets:
        out[p] = 0
    for src, _ in xfers:
        out[src] = 0
    for tgt, n in moved:
        out[tgt] += n
    for p, w in posts:
        out[p] += w
    return tuple(out)


def is_firable(net: Net, m: Marking, tname: str) -> bool:
    _check_len(net, m)
    op = net._plan_for(tname)
    return _enabled(m, op.numeric, op.inhib)


def fire(net: Net, m: Marking, tname: str) -> Marking:
    """Fire `tname` at `m`; raises NotFirableError when disabled."""
    _check_len(net, m)
    _, numeric, inhib, resets, xfers, posts, _ = net._plan_for(tname)
    if not _enabled(m, numeric, inhib):
        raise NotFirableError(f"{tname} is not firable at {m}")
    return _apply(m, numeric, resets, xfers, posts)


def successors(net: Net, m: Marking) -> list:
    """All (transition name, successor marking) pairs in declaration order."""
    _check_len(net, m)
    out = []
    for name, numeric, inhib, resets, xfers, posts, _ in net._plan():
        if _enabled(m, numeric, inhib):
            out.append((name, _apply(m, numeric, resets, xfers, posts)))
    return out


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str


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


@dataclass(frozen=True)
class NetClass:
    """Which special arc kinds occur, and how disciplined they are.

    A kind is hierarchical when every arc of that kind sits above an
    unbroken run of special arcs: if place p carries such an arc into t,
    every place below p carries some non-numeric arc into t too.
    `ert_eligible` is the stricter per-transition condition that inhibitor
    pre-places form a downward-closed set on their own.
    """

    specials: tuple  # subset of KIND_ORDER, in that order
    hierarchical: tuple  # the kinds from `specials` that respect the order
    constrained_transfer: bool
    ert_eligible: bool

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
    # inhibitor places are downward closed iff they fill 0 .. index - 1
    eligible = all(op.index == len(op.inhib) for op in plan)
    return NetClass(specials, hierarchical, constrained, eligible)
