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

`fire` and `is_firable` interpret the plan (`_enabled`/`_apply`, the
reference firing rule).  `successors` and `expand`, the breadth-first
search's step, interpret it too for a net's first calls; once a net is hot
each runs a function generated from the plan as Python source and cached on
the net.  The two keep separate call counts, so each is generated at most
once per net.  Every replayed trace is therefore an independent check of
the generated code.
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
        object.__setattr__(self, "_calls", 0)
        object.__setattr__(self, "_hot", None)
        object.__setattr__(self, "_steps", 0)
        object.__setattr__(self, "_step", None)

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
    """All (transition name, successor marking) pairs in declaration order.
    A net's first `_COMPILE_AFTER` calls interpret its plan; later calls
    run the successor function generated from it."""
    _check_len(net, m)
    hot = net._hot
    if hot is not None:
        return hot(m)
    plan = net._plan()
    calls = net._calls + 1
    object.__setattr__(net, "_calls", calls)
    if calls > _COMPILE_AFTER:
        hot = _generate(net, bfs=False)
        object.__setattr__(net, "_hot", hot)
        return hot(m)
    out = []
    for name, numeric, inhib, resets, xfers, posts, _ in plan:
        if _enabled(m, numeric, inhib):
            out.append((name, _apply(m, numeric, resets, xfers, posts)))
    return out


def expand(net: Net, m: Marking, parent: dict, push) -> int:
    """One breadth-first step at `m`, a marking of `net`: every successor
    not yet a key of `parent` is stored there with `m` as its value and
    passed to `push`, in declaration order.  Returns the number of enabled
    transitions, so 0 means `m` is dead.  A net's first `_COMPILE_AFTER`
    steps interpret its plan; later steps run the step generated from it."""
    step = net._step
    if step is not None:
        return step(m, parent, push)
    plan = net._plan()
    steps = net._steps + 1
    object.__setattr__(net, "_steps", steps)
    if steps > _COMPILE_AFTER:
        step = _generate(net, bfs=True)
        object.__setattr__(net, "_step", step)
        return step(m, parent, push)
    k = 0
    for _, numeric, inhib, resets, xfers, posts, _ in plan:
        if _enabled(m, numeric, inhib):
            k += 1
            s = _apply(m, numeric, resets, xfers, posts)
            if s not in parent:
                parent[s] = m
                push(s)
    return k


# ---------------------------------------------------------------------------
# the generated successor function

# compile() costs about 55-85 us per transition for the `successors` body and
# 60-105 us for the longer search step; either saves about 0.9-1.5 us per
# enabled and 0.15-0.3 us per disabled transition per expansion.  So either
# pays back after about 40-140 expansions where a good share of transitions
# fire, and after 250-550 on a line net where one in hundreds does, whatever
# the net's size.  One threshold serves both: nets expanded fewer times (most
# termination queries expand 8 to 125 markings) stay interpreted.
_COMPILE_AFTER = 64

# a run of more than _RUN untouched places is copied as one slice of `m`, and
# more than _RUN transfers into one place are added by one flat sum(), so the
# source stays linear in places plus arcs and its syntax tree stays shallow
_RUN = 8


def _lit(n: int) -> str:
    """An int literal; hexadecimal because int-to-decimal conversion refuses
    ints beyond 4,300 digits, and through int's own method so that an int
    subclass cannot put other text into the source."""
    return int.__format__(n, "#x")


def _generate(net: Net, bfs: bool):
    """Compile `_successor_source` for `net` and return its `succ`."""
    plan = net._plan()
    namespace = {"N": tuple(op.name for op in plan)}
    exec(compile(_successor_source(len(net.places), plan, bfs),
                 "<xpn successors>", "exec"), namespace)
    return namespace["succ"]


def _successor_source(n_places: int, plan, bfs: bool = False) -> str:
    """Python source of `succ(m)`, which returns what `successors` returns,
    or with `bfs` of `succ(m, P, Q)`, which does what `expand(net, m, P,
    Q)` does.  It unpacks `m` into locals a0 ... a{n-1}; each transition
    is one `if` on its numeric and inhibitor arcs, and each successor
    position is one expression folding the five firing stages.  Transition
    names are read from the tuple `N`, so the source holds no text of the
    net."""
    lines = ["def succ(m, P, Q):" if bfs else "def succ(m):"]
    if n_places:
        lines.append(f"    {', '.join(f'a{q}' for q in range(n_places))}, = m")
    lines.append("    k = 0" if bfs else "    out = []")
    for j, (_, numeric, inhib, resets, xfers, posts, _) in enumerate(plan):
        const, zeroed, moved = {}, set(resets), {}
        for p, w in numeric:
            const[p] = -w
        for src, tgt in xfers:
            zeroed.add(src)
            moved.setdefault(tgt, []).append(src)
        for p, w in posts:
            const[p] = const.get(p, 0) + w
        # a position's value is its own local, or 0 once zeroed, plus the
        # transfer snapshots it receives, plus posts minus numeric weight; a
        # reset place or transfer source has no numeric arc, so its snapshot
        # is its own local
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
        parts, items, i = [], [], 0
        for q in sorted(exprs) + [n_places]:
            if q - i > _RUN:
                if items:
                    parts.append(f"({', '.join(items)},)")
                    items = []
                parts.append(f"m[{i}:{q}]")
            else:
                items += [f"a{k}" for k in range(i, q)]
            if q < n_places:
                items.append(exprs[q])
            i = q + 1
        if items:
            parts.append(f"({', '.join(items)},)")
        succ = " + ".join(parts) if exprs else "m"
        test = " and ".join([f"a{p} >= {_lit(w)}" for p, w in numeric]
                            + [f"not a{p}" for p in inhib])
        indent = "    "
        if test:
            lines.append(f"    if {test}:")
            indent = "        "
        if bfs:
            lines += [f"{indent}k += 1", f"{indent}s = {succ}",
                      f"{indent}if s not in P:", f"{indent}    P[s] = m",
                      f"{indent}    Q(s)"]
        else:
            lines.append(f"{indent}out.append((N[{j}], {succ}))")
    lines.append("    return k" if bfs else "    return out")
    return "\n".join(lines) + "\n"


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
