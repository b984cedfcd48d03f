import random
from pathlib import Path

import pytest

import fuzz
from xpn import fmt
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


def test_line_patterns_read_what_the_cursor_reads(monkeypatch):
    """parse_net reads well-formed lines by pattern: every fuzz and
    workload net, and single-character deletions, insertions and swaps of
    them, give the same net or the same error as the _Cursor code alone."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    rng = random.Random(2017)
    texts = [render_net(gen(rng)) for gen in (
        fuzz.plain_net, fuzz.spiced_net, fuzz.no_inhibitor_net,
        fuzz.hier_ir_net, fuzz.hirct_net, fuzz.ert_net, fuzz.two_inh_net,
        fuzz.two_transfer_net) for _ in range(10)]
    texts += [p.read_text() for p in sorted(PERFBENCH.glob("minsky/*.xpn"))]
    for workload in workloads.BUILDERS:
        files = workloads.build(workload, 1)[0]
        texts += [t for name, t in files.items() if name.endswith(".xpn")]

    inputs = texts + [f"places: a b out\n{line}\n" for line in (
        "trans t: ; out a, a*0", "trans t: in a, in a*0 ;", "transt:;out",
        "trans t: ; out out, out*2", "trans t: inh a*2 ;", "trans t: in a, ;",
        "trans t: xfer a -> b, reset out ; outa", "marking: a=1b=02",
        "marking: a=1 a=2", "places: c")]
    for text in texts:
        lines = text.splitlines(keepends=True)
        for _ in range(4):
            # a window of three lines after the places and marking lines
            at = rng.randrange(len(lines))
            excerpt = "".join(lines[:2] + lines[max(2, at - 1):at + 2])
            i = rng.randrange(len(excerpt) - 1)
            inputs += [excerpt[:i] + excerpt[i + 1:],
                       excerpt[:i] + rng.choice(MUTATION_CHARS) + excerpt[i:],
                       excerpt[:i] + excerpt[i + 1] + excerpt[i]
                       + excerpt[i + 2:]]
    fast = [_outcome(t) for t in inputs]
    monkeypatch.setattr(fmt._NetReader, "fast", lambda self, line: False)
    assert [_outcome(t) for t in inputs] == fast
    assert sum(isinstance(o[0], str) for o in fast) > len(inputs) // 4


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
