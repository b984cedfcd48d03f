"""Text formats: the .xpn net format, marking literals and trace files.

A .xpn file looks like::

    # lines starting with # are comments
    places: p1 p2 p3 p4 p5
    marking: p1=3
    trans t1: in p1*2, inh p2, reset p3, xfer p4->p5 ; out p5*1, p3*2

The places line is required and comes first; its order is the hierarchy
order (leftmost is least).  The marking line is optional (default all
zero).  Weight 0 arcs are treated as absent.  render_net() emits a
canonical form that parses back to an equal net.

parse_net and parse_marking split a line into tokens by one pattern and
read it in one walk over them; a ParseError's 1-based column, that of the
token the walk stopped at, is worked out only on failure.
"""

from __future__ import annotations

import functools
import itertools
import re
import string
import sys

from .net import (Arc, INHIBIT, Inhibitor, Marking, Net, Numeric, RESET,
                  Reset, Transfer, Transition, XpnError, require_valid)

_NAME = r"[A-Za-z_][A-Za-z0-9_.]*"
_NAME_RE = re.compile(_NAME)
# One token: a name, a count, "->" or any other non-blank character.  The
# empty match at the end closes every token list; finditer, run from the
# same offset, gives the k-th token's column.
_TOKEN = re.compile(rf"{_NAME}|[0-9]+|->|[^ \t]|\Z")
_NAME_START = frozenset(string.ascii_letters + "_")
_DIGITS = frozenset(string.digits)
_PRE_KINDS = frozenset(("in", "inh", "reset", "xfer"))
# one numeric arc per weight, shared as INHIBIT and RESET are
_numeric = functools.lru_cache(maxsize=256)(Numeric)


class ParseError(XpnError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class _Fault(Exception):
    """A parse fault: its message and the index of the token it is at."""


def _fail(fault: _Fault, text: str, pos: int, lineno: int):
    """Raise `fault`, met in the tokens of `text` from offset `pos`, as a
    ParseError at that token's column."""
    message, k = fault.args
    at = next(itertools.islice(_TOKEN.finditer(text, pos), k, None))
    raise ParseError(message, lineno, at.start() + 1) from None


def _too_long(toks: list) -> _Fault:
    """The fault of a count whose int() raised ValueError, being past the
    interpreter's int/str digit limit.  It is the first such count in
    `toks`: the walk reads tokens in order and converts each count it
    reads."""
    limit = sys.get_int_max_str_digits()
    k = next(k for k, tok in enumerate(toks)
             if tok[:1] in _DIGITS and len(tok) > limit)
    return _Fault(f"number longer than {limit} digits", k)


def _counts(toks: list, known, unknown: str, twice: str) -> dict:
    """The "place=count" pairs of `toks`; `unknown` and `twice` word the
    faults of a place not in `known` and of one given twice."""
    counts: dict = {}
    i = 0
    while p := toks[i]:
        if p[0] not in _NAME_START:
            raise _Fault("expected a place name", i)
        if p not in known:
            raise _Fault(unknown.format(p), i + 1)
        if p in counts:
            raise _Fault(twice.format(p), i + 1)
        if toks[i + 1] != "=":
            raise _Fault("expected '='", i + 1)
        if (n := toks[i + 2])[:1] not in _DIGITS:
            raise _Fault("expected a number", i + 2)
        counts[p] = int(n)
        i += 3
    return counts


def _transition(toks: list) -> Transition:
    """The transition whose tokens, after "trans", are `toks`."""
    if (name := toks[0])[:1] not in _NAME_START:
        raise _Fault("expected a transition name", 0)
    if toks[1] != ":":
        raise _Fault("expected ':'", 1)
    pre: dict = {}
    i = 2
    while (kw := toks[i]) != ";":
        if kw not in _PRE_KINDS:
            if not kw:
                raise _Fault("expected ';' between pre and post arcs", i)
            if kw[0] not in _NAME_START:
                raise _Fault("expected an arc keyword", i)
            raise _Fault(f"unknown arc keyword {kw!r}", i + 1)
        if (p := toks[i + 1])[:1] not in _NAME_START:
            raise _Fault("expected a place name", i + 1)
        i += 2
        if kw == "in":
            w = 1
            if toks[i] == "*":
                if (w := toks[i + 1])[:1] not in _DIGITS:
                    raise _Fault("expected a number", i + 1)
                w = int(w)
                i += 2
            arc = _numeric(w) if w else None  # weight 0: no arc
        elif kw == "xfer":
            if toks[i] != "->":
                raise _Fault("expected '->'", i)
            if (target := toks[i + 1])[:1] not in _NAME_START:
                raise _Fault("expected a place name", i + 1)
            arc = Transfer(target)
            i += 2
        else:
            arc = INHIBIT if kw == "inh" else RESET
        if arc:
            if p in pre:
                raise _Fault(f"place {p!r} has two pre-arc descriptors", i)
            pre[p] = arc
        if toks[i] != ",":
            break
        i += 1
    if toks[i] != ";":
        raise _Fault("expected ';'", i)
    i += 1
    post: dict = {}
    while p := toks[i]:
        if p[0] not in _NAME_START:
            raise _Fault("expected a place name", i)
        i += 1
        if p == "out" and toks[i][:1] in _NAME_START:
            p = toks[i]
            i += 1
        w = 1
        if toks[i] == "*":
            if (w := toks[i + 1])[:1] not in _DIGITS:
                raise _Fault("expected a number", i + 1)
            w = int(w)
            i += 2
        if p in post:
            raise _Fault(f"place {p!r} has two post-arcs", i)
        if w:
            post[p] = w
        if toks[i] != ",":
            break
        i += 1
    if toks[i]:
        raise _Fault("trailing text after transition", i)
    return Transition(name, pre, post)


def parse_net(text: str) -> Net:
    places: list = []
    place_set: set = set()
    initial = None
    transitions = []
    saw_places = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        # `pos` is the offset the line's tokens are read from
        pos = len(line) - len(line.lstrip(" \t"))
        try:
            if line.startswith("trans", pos):
                pos += 5
                toks = _TOKEN.findall(line, pos)
                if not saw_places:
                    raise _Fault("transition line before places line", 0)
                transitions.append(_transition(toks))
            elif line.startswith("places:", pos):
                pos += 7
                toks = _TOKEN.findall(line, pos)
                if saw_places:
                    raise _Fault("duplicate places line", 0)
                saw_places = True
                places = toks[:-1]
                for k, p in enumerate(places):
                    if p[0] not in _NAME_START:
                        raise _Fault("expected a place name", k)
                    if p in place_set:
                        raise _Fault(f"place {p!r} declared twice", k)
                    place_set.add(p)
            elif line.startswith("marking:", pos):
                pos += 8
                toks = _TOKEN.findall(line, pos)
                if not saw_places:
                    raise _Fault("marking line before places line", 0)
                if initial is not None:
                    raise _Fault("duplicate marking line", 0)
                initial = _counts(toks, place_set,
                                  "unknown place {!r} in marking",
                                  "place {!r} marked twice")
            else:
                raise _Fault("expected 'places:', 'marking:' or 'trans'", 0)
        except _Fault as fault:
            _fail(fault, line, pos, lineno)
        except ValueError:
            _fail(_too_long(toks), line, pos, lineno)
    if not saw_places:
        raise ParseError("missing places line", 1, 1)
    initial = initial or {}
    marking = tuple(initial.get(p, 0) for p in places)
    return Net(tuple(places), tuple(transitions), marking)


def _writes_counts(fn):
    """Make `fn`, which writes counts as decimal text, raise XpnError
    instead of ValueError on a count past the interpreter's int/str
    conversion limit."""
    @functools.wraps(fn)
    def writer(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValueError:
            raise XpnError(f"cannot write a count of more than "
                           f"{sys.get_int_max_str_digits()} digits") from None
    return writer


def _check_name(name: str) -> str:
    m = _NAME_RE.fullmatch(name)
    if not m:
        raise XpnError(f"name {name!r} cannot be written to the text format")
    return name


@_writes_counts
def render_net(net: Net, header=()) -> str:
    """Canonical text for `net`; `header` lines are emitted as comments."""
    lines = [f"# {h}" if h else "#" for h in header]
    checked = set()  # names already known to be writable

    def name(n: str) -> str:
        if n not in checked:
            checked.add(_check_name(n))
        return n

    lines.append("places: " + " ".join(map(name, net.places)))
    marked = [(p, n) for p, n in zip(net.places, net.initial) if n]
    if marked:
        lines.append("marking: " + " ".join(f"{p}={n}" for p, n in marked))
    for t in net.transitions:
        pre_items = []
        for place, arc in t.pre.items():
            name(place)
            if isinstance(arc, Numeric):
                pre_items.append(f"in {place}*{arc.weight}")
            elif isinstance(arc, Inhibitor):
                pre_items.append(f"inh {place}")
            elif isinstance(arc, Reset):
                pre_items.append(f"reset {place}")
            elif isinstance(arc, Transfer):
                pre_items.append(f"xfer {place}->{name(arc.target)}")
            else:  # validate reports it, so this raises InvalidNetError
                require_valid(net)
        post_items = [f"{name(p)}*{w}" for p, w in t.post.items()]
        if post_items:
            post_items[0] = "out " + post_items[0]
        lines.append(
            f"trans {_check_name(t.name)}: " + ", ".join(pre_items)
            + (" ; " if pre_items else "; ")
            + ", ".join(post_items))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# marking literals ("p1=3 p2=0") and trace files

def parse_marking(net: Net, literal: str) -> Marking:
    toks = _TOKEN.findall(literal)
    try:
        counts = _counts(toks, net._pos,
                         "unknown place {!r}", "place {!r} given twice")
    except _Fault as fault:
        _fail(fault, literal, 0, 1)
    except ValueError:
        _fail(_too_long(toks), literal, 0, 1)
    return net.marking(counts)


@_writes_counts
def format_marking(net: Net, m: Marking, keep_zeros: bool = True) -> str:
    pairs = [(p, n) for p, n in zip(net.places, m) if keep_zeros or n]
    return " ".join(f"{p}={n}" for p, n in pairs)


def parse_trace(text: str) -> tuple:
    names = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            names.append(line)
    return tuple(names)


def render_trace(names) -> str:
    return "".join(f"{n}\n" for n in names)
