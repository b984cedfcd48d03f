import hashlib
import random
import sys
from pathlib import Path

import pytest

import fuzz
from xpn import fmt
from xpn.dot import export_dot
from xpn.ert import build_ert, ert_dot
from xpn.fmt import (
    ParseError,
    format_marking,
    parse_marking,
    parse_net,
    parse_trace,
    render_net,
    render_trace,
)
from xpn.net import (INHIBIT, InvalidNetError, Net, Numeric, RESET, Transfer,
                     Transition, XpnError, validate)

SAMPLE = """\
# a net using every arc form
places: p1 p2 p3 p4 p5
marking: p1=3 p4=2

trans t1: in p1*2, inh p2, reset p3, xfer p4->p5 ; out p5*1, p3*2
trans t2: in p1 ; p2   # 'out' keyword and *1 are optional
trans t3: ; out p1
trans t4: in p2 ;
"""


def test_parse_sample():
    n = parse_net(SAMPLE)
    assert n.places == ("p1", "p2", "p3", "p4", "p5")
    assert n.initial == (3, 0, 0, 2, 0)
    t1 = n.transition("t1")
    assert t1.pre == {"p1": Numeric(2), "p2": INHIBIT, "p3": RESET,
                      "p4": Transfer("p5")}
    assert t1.post == {"p5": 1, "p3": 2}
    assert n.transition("t2").pre == {"p1": Numeric(1)}
    assert n.transition("t2").post == {"p2": 1}
    assert n.transition("t3").pre == {}
    assert n.transition("t4").post == {}


def test_zero_weight_arcs_dropped_at_parse():
    n = parse_net("places: a b\ntrans t: in a*0 ; out b*0")
    t = n.transition("t")
    assert t.pre == {} and t.post == {}


def test_unknown_arc_place_is_a_validation_matter():
    # syntax accepts it; validate() reports it
    n = parse_net("places: a\ntrans t: in b ;")
    assert [d.code for d in validate(n)] == ["unknown-place"]


@pytest.mark.parametrize("text,line,col,needle", [
    ("marking: a=1", 1, 10, "before places"),
    ("places: a b\nmarking: c=1", 2, 11, "unknown place"),
    ("places: a a", 1, 11, "declared twice"),
    ("places: a\ntrans t: in a, inh a ;", 2, 22, "two pre-arc descriptors"),
    ("places: a\ntrans t: in a", 2, 14, "expected ';'"),
    ("places: a\ntrans t: in a ; out a*2, a*3", 2, 29, "two post-arcs"),
    ("places: a\nbogus", 2, 1, "expected"),
    ("places: a\nmarking: a=1 a=2", 2, 15, "marked twice"),
    ("places: a\ntrans t: xfer a - b ;", 2, 17, "expected '->'"),
    ("", 1, 1, "missing places line"),
    ("places: a\nplaces: b", 2, 9, "duplicate places line"),
    ("places: a\ntrans t in a ;", 2, 9, "expected ':'"),
    ("places: a\ntrans : ;", 2, 7, "expected a transition name"),
    ("places: a\ntrans1: ;", 2, 6, "expected a transition name"),
    ("trans t: ;", 1, 7, "transition line before places line"),
    ("transt: ;", 1, 6, "transition line before places line"),
    ("places: a\ntrans t: in a* ;", 2, 16, "expected a number"),
    ("places: a\nmarking: a 1", 2, 12, "expected '='"),
    ("places: a\nmarking: a=x", 2, 12, "expected a number"),
    ("places: a\ntrans t: in a ; a b", 2, 19,
     "trailing text after transition"),
    ("places: a\nmarking: a=1\nmarking: a=2", 3, 10, "duplicate marking line"),
    ("places: a 1", 1, 11, "expected a place name"),
    ("places : a", 1, 1, "expected 'places:', 'marking:' or 'trans'"),
    ("places: a\ntrans t: 5 ;", 2, 10, "expected an arc keyword"),
])
def test_parse_errors_carry_positions(text, line, col, needle):
    with pytest.raises(ParseError) as exc:
        parse_net(text)
    assert exc.value.line == line
    assert exc.value.col == col
    assert needle in exc.value.message


def test_render_is_canonical():
    n = parse_net(SAMPLE)
    once = render_net(n)
    again = render_net(parse_net(once))
    assert once == again
    assert parse_net(once) == n


def test_render_header_comments():
    n = parse_net("places: a")
    text = render_net(n, header=("first", "", "second"))
    assert text.splitlines()[:3] == ["# first", "#", "# second"]
    assert parse_net(text) == n


def test_render_refuses_what_it_cannot_write():
    with pytest.raises(XpnError, match="^name 'a b' cannot be written to "
                                      "the text format$"):
        render_net(Net(("a b",), (), (0,)))
    # a name that only an arc of an invalid net carries is checked too
    for arcs in (({"a b": Numeric(1)}, {}), ({}, {"a b": 1}),
                 ({"a": Transfer("a b")}, {})):
        with pytest.raises(XpnError, match="^name 'a b' cannot be written"):
            render_net(Net(("a",), (Transition("t", *arcs),), (0,)))
    # a non-descriptor pre-arc is reported as firing reports it
    bad = Net(("a",), (Transition("t", {"a": 5}, {}),), (0,))
    with pytest.raises(InvalidNetError) as exc:
        render_net(bad)
    assert [d.code for d in exc.value.errors] == ["bad-arc"]


def test_render_checks_each_name_once(monkeypatch):
    checked = []

    def check(name):
        checked.append(name)
        return name

    monkeypatch.setattr(fmt, "_check_name", check)
    ts = [Transition(f"t{i}", {"a": Numeric(1), "b": Transfer("a")},
                     {"a": 1, "b": 2}) for i in range(3)]
    render_net(Net(("a", "b"), ts, (1, 0)))
    assert checked == ["a", "b", "t0", "t1", "t2"]


def test_roundtrip_fuzz():
    rng = random.Random(7)
    for _ in range(400):
        n = fuzz.spiced_net(rng)
        text = render_net(n)
        assert parse_net(text) == n
        assert render_net(parse_net(text)) == text


def _outcome(text):
    """The net read from `text`, arcs in their order, or the ParseError's
    message, line and column."""
    try:
        net = parse_net(text)
    except ParseError as e:
        return e.message, e.line, e.col
    return net.places, net.initial, [
        (t.name, list(t.pre.items()), list(t.post.items()))
        for t in net.transitions]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MUTATION_CHARS = " \t\n#,;:*=->.0_aintx"

# Whole texts beside the fuzz nets: lines on the edges of the grammar.
HAND_TEXTS = [f"places: a b out\n{line}\n" for line in (
    "trans t: ; out a, a*0", "trans t: in a, in a*0 ;", "transt:;out",
    "trans t: ; out out, out*2", "trans t: inh a*2 ;", "trans t: in a, ;",
    "trans t: xfer a -> b, reset out ; outa", "marking: a=1b=02",
    "marking: a=1 a=2", "places: c", "transt1: ;", "transfer: ;",
    "trans t: in a*0, in a ;", "trans t: ; out a, a*0, a",
    "trans t: ; out a*0, a", "trans\tt\t:\tin\ta\t;\tb\t \t",
    "marking:a=1 b=2  ", "marking: a = 1", "marking : a=1", "places : a",
    "trans t: in a *2 ; b * 3", "trans t: out a ;", "trans t: ; out",
    "trans t: ; out*2", "trans t: ; out b*2, out out", "trans t: ; a b",
    "trans t: in a b ;", "trans t: xfer a->b->a ;", "trans t: in a*01 ;",
    "trans t:: ;", "trans t: ; ;", "trans t: in a ,; b ,", "trans  : ;",
    "trans t: in 1a ;", "trans t: in a*-1 ;", "trans t: in a ; b=1",
    "marking: a=1, b=2", "marking: =1", "marking: a=", "marking:",
    "trans t: in a, inh a ;", "trans t: reset a, xfer a->b ;",
    "trans t: inh a, in a*0 ;", "trans t: xfer a->b, xfer a->a ;",
    "trans.t: ;", "trans_t: ;", "trans9: ;", "trans t: é ;", "places:",
)] + ["", "# only a comment\n", "\n\n  \t\n", "places:\n",
      "trans t: ;\nplaces: a", "marking: a=1\nplaces: a",
      "places: a\n  trans t: in a ;  # comment ; b\n",
      "places: a#b\nmarking: a=2", "places a", "places: a b c a",
      "places: a\n\xa0\n", "places: a\xa0", "\xa0places: a",
      "places: a\ntrans t: in a ;\u3000", "places: a\r\nmarking: a=1\r",
      "places: a\nmarking: a=1\nmarking: a=2", "places: é"]


def _parse_corpus():
    """Fuzz nets rendered to text, the hand texts, and single-character
    deletions, insertions and swaps in windows of the fuzz texts."""
    rng = random.Random(2017)
    texts = [render_net(gen(rng)) for gen in (
        fuzz.plain_net, fuzz.spiced_net, fuzz.no_inhibitor_net,
        fuzz.hier_ir_net, fuzz.hirct_net, fuzz.ert_net, fuzz.ert_grow_net,
        fuzz.ert_flow_net, fuzz.two_inh_net, fuzz.two_transfer_net,
        fuzz.busy_net) for _ in range(12)]
    inputs = texts + HAND_TEXTS
    for text in texts:
        lines = text.splitlines(keepends=True)
        for _ in range(6):
            # a window of three lines after the places and marking lines
            at = rng.randrange(len(lines))
            excerpt = "".join(lines[:2] + lines[max(2, at - 1):at + 2])
            i = rng.randrange(len(excerpt) - 1)
            inputs += [excerpt[:i] + excerpt[i + 1:],
                       excerpt[:i] + rng.choice(MUTATION_CHARS) + excerpt[i:],
                       excerpt[:i] + excerpt[i + 1] + excerpt[i]
                       + excerpt[i + 2:]]
    return inputs


# sha256 of _outcome over the corpus in test_parse_byte_stable
PARSE_DIGEST = "252660b7dce609db1a6a243f66a35ea8c2dbda84ec444b47bd8a00d406cc6593"


def test_parse_byte_stable():
    """Every net and every error (message, line, column) that parse_net
    reads from the seeded corpus is pinned by one digest."""
    outcomes = [_outcome(t) for t in _parse_corpus()]
    assert sum(isinstance(o[0], str) for o in outcomes) > len(outcomes) // 4
    h = hashlib.sha256()
    for o in outcomes:
        h.update(repr(o).encode() + b"\0")
    assert h.hexdigest() == PARSE_DIGEST, (
        "a net or an error changed on the seeded corpus; if the change is "
        "intended, declare it in CHANGES.md and update PARSE_DIGEST")


def test_workload_nets_round_trip(monkeypatch):
    """Every counter-machine and benchmark workload net parses, renders
    and parses back to the same net and the same text."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    texts = [p.read_text() for p in sorted(PERFBENCH.glob("minsky/*.xpn"))]
    for workload in workloads.BUILDERS:
        files = workloads.build(workload, 1)[0]
        texts += [t for name, t in files.items() if name.endswith(".xpn")]
    assert texts
    for text in texts:
        net = parse_net(text)
        once = render_net(net)
        assert parse_net(once) == net
        assert render_net(parse_net(once)) == once


def test_marking_literals():
    n = parse_net("places: a b c")
    assert parse_marking(n, "b=2") == (0, 2, 0)
    assert parse_marking(n, "a=1 b=2 c=0") == (1, 2, 0)
    assert parse_marking(n, "") == (0, 0, 0)
    assert format_marking(n, (1, 0, 2)) == "a=1 b=0 c=2"
    assert format_marking(n, (1, 0, 2), keep_zeros=False) == "a=1 c=2"
    assert parse_marking(n, format_marking(n, (4, 5, 6))) == (4, 5, 6)
    with pytest.raises(ParseError):
        parse_marking(n, "zzz=1")
    with pytest.raises(ParseError):
        parse_marking(n, "a=1 a=2")
    with pytest.raises(ParseError):
        parse_marking(n, "a=-1")


def test_trace_files():
    text = "# fired in order\nt1\n\nt2  \nt1\n"
    assert parse_trace(text) == ("t1", "t2", "t1")
    assert render_trace(("t1", "t2")) == "t1\nt2\n"
    assert parse_trace(render_trace(("a", "b", "a"))) == ("a", "b", "a")


LIMIT = sys.get_int_max_str_digits()
HUGE = "9" * (LIMIT + 1)
no_digit_limit = pytest.mark.skipif(
    not LIMIT, reason="int/str conversion has no digit limit here")


@no_digit_limit
@pytest.mark.parametrize("text, line, col", [
    (f"places: a\nmarking: a={HUGE}\n", 2, 12),
    (f"places: a\nmarking: a={HUGE} a=1\n", 2, 12),
    (f"places: a\ntrans t: in a*{HUGE} ;\n", 2, 15),
    (f"places: a\ntrans t: ; out a*{HUGE}\n", 2, 18),
    # the count is read before the second post-arc on a is refused
    (f"places: a\ntrans t: ; out a*1, a*{HUGE}\n", 2, 23),
    # of two long counts, the first is reported
    (f"places: a b\ntrans t: in a*1 ; out b*{HUGE}, a*{HUGE}\n", 2, 25),
])
def test_counts_past_the_digit_limit_are_parse_errors(text, line, col):
    # the count is reported where it starts
    with pytest.raises(ParseError) as exc:
        parse_net(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (
        f"number longer than {LIMIT} digits", line, col)
    with pytest.raises(ParseError) as exc:
        parse_marking(parse_net("places: a b"), f"b = {HUGE}")
    assert (exc.value.message, exc.value.col) == (
        f"number longer than {LIMIT} digits", 5)


@no_digit_limit
def test_counts_at_the_digit_limit_round_trip():
    most = "9" * LIMIT
    text = (f"places: a\nmarking: a={most}\n"
            f"trans t: in a*{most} ; out a*{most}\n")
    assert render_net(parse_net(text)) == text


@no_digit_limit
def test_unwritable_counts_are_xpn_errors():
    big = 10 ** LIMIT
    net = Net(("a",), (Transition("t", {"a": Numeric(1)}, {"a": big}),), (1,))
    tree = build_ert(net, stop_early=True)
    for write in (lambda: format_marking(net, (big,)),
                  lambda: render_net(net), lambda: export_dot(net),
                  lambda: ert_dot(net, tree)):
        with pytest.raises(XpnError,
                           match=f"^cannot write a count of more than {LIMIT} "
                           "digits$"):
            write()
