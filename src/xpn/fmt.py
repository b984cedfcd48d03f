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
"""

from __future__ import annotations

import functools
import re
import sys

from .net import (Arc, INHIBIT, Inhibitor, Marking, Net, Numeric, RESET,
                  Reset, Transfer, Transition, XpnError, require_valid)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_INT_RE = re.compile(r"[0-9]+")


class ParseError(XpnError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class _Cursor:
    """Single-line scanner that reports 1-based columns on failure."""

    def __init__(self, text: str, lineno: int, start: int = 0):
        self.text = text
        self.lineno = lineno
        self.i = start

    def _skip_ws(self):
        while self.i < len(self.text) and self.text[self.i] in " \t":
            self.i += 1

    def done(self) -> bool:
        self._skip_ws()
        return self.i >= len(self.text)

    def fail(self, message: str):
        self._skip_ws()
        raise ParseError(message, self.lineno, self.i + 1)

    def peek(self, s: str) -> bool:
        self._skip_ws()
        return self.text.startswith(s, self.i)

    def lit(self, s: str):
        if not self.peek(s):
            self.fail(f"expected {s!r}")
        self.i += len(s)

    def try_lit(self, s: str) -> bool:
        if self.peek(s):
            self.i += len(s)
            return True
        return False

    def peek_name(self) -> bool:
        self._skip_ws()
        return bool(_NAME_RE.match(self.text, self.i))

    def name(self, what: str = "name") -> str:
        self._skip_ws()
        m = _NAME_RE.match(self.text, self.i)
        if not m:
            self.fail(f"expected a {what}")
        self.i = m.end()
        return m.group()

    def integer(self) -> int:
        self._skip_ws()
        m = _INT_RE.match(self.text, self.i)
        if not m:
            self.fail("expected a number")
        try:
            n = int(m.group())
        except ValueError:  # past the interpreter's int/str digit limit
            self.fail(f"number longer than {sys.get_int_max_str_digits()} "
                      "digits")
        self.i = m.end()
        return n


def _strip_comment(raw: str) -> str:
    return raw.split("#", 1)[0]


# One pattern per line kind, each accepting a subset of what the _Cursor
# code accepts and meaning the same net by it; every other line, and every
# line that breaks a rule a pattern cannot see, is read by the _Cursor code,
# the one place that reports errors.
_W = r"[ \t]*"
_N = _NAME_RE.pattern
_IN = rf"in[ \t]+{_N}(?:{_W}\*{_W}[0-9]+)?"
_PRE = rf"(?:{_IN}|inh[ \t]+{_N}|reset[ \t]+{_N}|xfer[ \t]+{_N}{_W}->{_W}{_N})"
_POST = rf"(?:out[ \t]+)?{_N}(?:{_W}\*{_W}[0-9]+)?"
_PLACES_LINE = re.compile(rf"{_W}places:{_W}((?:{_N}(?:[ \t]+{_N})*)?){_W}")
_MARKING_LINE = re.compile(rf"{_W}marking:((?:{_W}{_N}{_W}={_W}[0-9]+)*){_W}")
_TRANS_LINE = re.compile(
    rf"{_W}trans{_W}({_N}){_W}:{_W}((?:{_PRE}{_W},{_W})*(?:{_PRE})?){_W};"
    rf"{_W}((?:{_POST}{_W},{_W})*(?:{_POST})?){_W}")
_MARK_ITEM = re.compile(rf"({_N}){_W}={_W}([0-9]+)")
_PRE_ITEM = re.compile(
    rf"(inh|in|reset|xfer)[ \t]+({_N})(?:{_W}\*{_W}([0-9]+)|{_W}->{_W}({_N}))?")
_POST_ITEM = re.compile(rf"(?:out[ \t]+)?({_N})(?:{_W}\*{_W}([0-9]+))?")


class _NetReader:
    """The parts of a net read so far, one line at a time."""

    def __init__(self):
        self.places: list = []
        self.place_set: set = set()
        self.initial: dict = {}
        self.transitions: list = []
        self.saw_places = False
        self.saw_marking = False

    def fast(self, line: str) -> bool:
        """Read a well-formed line by pattern; False, having changed
        nothing, for any line the _Cursor code must read, one with a count
        too long for int() included."""
        try:
            return self._by_pattern(line)
        except ValueError:  # the _Cursor code reports where
            return False

    def _by_pattern(self, line: str) -> bool:
        m = _TRANS_LINE.fullmatch(line)
        if m:
            if not self.saw_places:
                return False
            pre: dict = {}
            for kw, p, weight, target in _PRE_ITEM.findall(m[2]):
                if kw == "in":
                    w = int(weight) if weight else 1
                    if not w:
                        continue
                    arc = Numeric(w)
                else:
                    arc = (INHIBIT if kw == "inh" else RESET if kw == "reset"
                           else Transfer(target))
                if p in pre:
                    return False
                pre[p] = arc
            post: dict = {}
            for p, weight in _POST_ITEM.findall(m[3]):
                if p in post:
                    return False
                w = int(weight) if weight else 1
                if w:
                    post[p] = w
            self.transitions.append(Transition(m[1], pre, post))
            return True
        m = _MARKING_LINE.fullmatch(line)
        if m:
            if not self.saw_places or self.saw_marking:
                return False
            counts = {}
            for p, n in _MARK_ITEM.findall(m[1]):
                if p not in self.place_set or p in counts:
                    return False
                counts[p] = int(n)
            self.saw_marking = True
            self.initial = counts
            return True
        m = _PLACES_LINE.fullmatch(line)
        if m:
            names = m[1].split()
            if self.saw_places or len(set(names)) != len(names):
                return False
            self.saw_places = True
            self.places = names
            self.place_set = set(names)
            return True
        return False

    def cursor(self, line: str, lineno: int):
        """Read any line with the _Cursor scanner, raising ParseError at
        the first fault."""
        cur = _Cursor(line, lineno)
        places, place_set, initial = self.places, self.place_set, self.initial

        if cur.try_lit("places:"):
            if self.saw_places:
                cur.fail("duplicate places line")
            self.saw_places = True
            while not cur.done():
                col = cur.i
                p = cur.name("place name")
                if p in place_set:
                    raise ParseError(f"place {p!r} declared twice", lineno, col + 1)
                place_set.add(p)
                places.append(p)
            return

        if cur.try_lit("marking:"):
            if not self.saw_places:
                cur.fail("marking line before places line")
            if self.saw_marking:
                cur.fail("duplicate marking line")
            self.saw_marking = True
            while not cur.done():
                p = cur.name("place name")
                if p not in place_set:
                    cur.fail(f"unknown place {p!r} in marking")
                if p in initial:
                    cur.fail(f"place {p!r} marked twice")
                cur.lit("=")
                initial[p] = cur.integer()
            return

        if cur.try_lit("trans"):
            if not self.saw_places:
                cur.fail("transition line before places line")
            tname = cur.name("transition name")
            cur.lit(":")
            pre: dict = {}
            post: dict = {}

            def add_pre(place: str, arc: Arc, at: _Cursor):
                if place in pre:
                    at.fail(f"place {place!r} has two pre-arc descriptors")
                pre[place] = arc

            while not cur.peek(";"):
                if cur.done():
                    cur.fail("expected ';' between pre and post arcs")
                kw = cur.name("arc keyword")
                if kw == "in":
                    p = cur.name("place name")
                    w = cur.integer() if cur.try_lit("*") else 1
                    if w > 0:
                        add_pre(p, Numeric(w), cur)
                elif kw == "inh":
                    add_pre(cur.name("place name"), INHIBIT, cur)
                elif kw == "reset":
                    add_pre(cur.name("place name"), RESET, cur)
                elif kw == "xfer":
                    p = cur.name("place name")
                    cur.lit("->")
                    add_pre(p, Transfer(cur.name("place name")), cur)
                else:
                    cur.fail(f"unknown arc keyword {kw!r}")
                if not cur.try_lit(","):
                    break
            cur.lit(";")
            while not cur.done():
                w = cur.name("place name")
                if w == "out" and cur.peek_name():
                    p = cur.name("place name")
                else:
                    p = w
                weight = cur.integer() if cur.try_lit("*") else 1
                if p in post:
                    cur.fail(f"place {p!r} has two post-arcs")
                if weight > 0:
                    post[p] = weight
                if not cur.try_lit(","):
                    break
            if not cur.done():
                cur.fail("trailing text after transition")
            self.transitions.append(Transition(tname, pre, post))
            return

        cur.fail("expected 'places:', 'marking:' or 'trans'")


def parse_net(text: str) -> Net:
    reader = _NetReader()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if line.strip() and not reader.fast(line):
            reader.cursor(line, lineno)
    if not reader.saw_places:
        raise ParseError("missing places line", 1, 1)
    marking = tuple(reader.initial.get(p, 0) for p in reader.places)
    return Net(tuple(reader.places), tuple(reader.transitions), marking)


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
    counts: dict = {}
    cur = _Cursor(literal, 1)
    while not cur.done():
        p = cur.name("place name")
        if p not in net._pos:
            cur.fail(f"unknown place {p!r}")
        if p in counts:
            cur.fail(f"place {p!r} given twice")
        cur.lit("=")
        counts[p] = cur.integer()
    return net.marking(counts)


@_writes_counts
def format_marking(net: Net, m: Marking, keep_zeros: bool = True) -> str:
    pairs = [(p, n) for p, n in zip(net.places, m) if keep_zeros or n]
    return " ".join(f"{p}={n}" for p, n in pairs)


def parse_trace(text: str) -> tuple:
    names = []
    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if line:
            names.append(line)
    return tuple(names)


def render_trace(names) -> str:
    return "".join(f"{n}\n" for n in names)
