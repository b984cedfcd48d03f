"""Known-answer checks on the CLI's captured output.

Each check gets the query's exit code, its stdout and the parsed input net
and returns None when the answer is right, else a one-line reason.  Traces
and pump certificates are replayed with the naive firing rule of
``tests/oracles.py``, not with the library's.
"""

from __future__ import annotations

import oracles
from xpn.fmt import parse_net
from xpn.net import Inhibitor, Reset, XpnError


def _marking(net, line):
    counts = dict(kv.split("=") for kv in line.split())
    return tuple(int(counts.get(p, 0)) for p in net.places)


def _leq(a, b):
    return all(x <= y for x, y in zip(a, b))


def _head(out):
    lines = out.splitlines()
    return (lines[0].split() if lines else [""]), lines


def search(c, rc, out, net):
    want_rc = 1 if c["status"] == "OUT_OF_BUDGET" else 0
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}"
    head, lines = _head(out)
    if head[0] != c["status"]:
        return f"{head[0]}, expected {c['status']}"
    fields = dict(kv.split("=") for kv in head[1:])
    if c.get("expanded") is not None and int(fields["expanded"]) != c["expanded"]:
        return f"expanded={fields['expanded']}, expected {c['expanded']}"
    if c["status"] != "FOUND":
        return None
    final = _marking(net, lines[1])
    want = c["final"]
    if "eq" in want and final != tuple(want["eq"]):
        return f"final {final} is not the target"
    if "geq" in want and not _leq(want["geq"], final):
        return f"final {final} does not cover the target"
    if "dead" in want:
        if list(final) not in want["dead"]:
            return f"final {final} is not a reachable deadlock"
        m = oracles.as_dict(net, final)
        if any(oracles.enabled(t, m) for t in net.transitions):
            return f"final {final} enables a transition"
    return None


def _level(net, names):
    """Largest transition index along `names`: the highest position + 1
    of an inhibitor pre-place."""
    pos = {p: i for i, p in enumerate(net.places)}
    return max((pos[p] + 1 for n in names for p, a in net.transition(n).pre.items()
                if isinstance(a, Inhibitor)), default=0)


def _replay(net, m, names):
    for name in names:
        t = net.transition(name)
        if not oracles.enabled(t, m):
            return None
        m = oracles.fire(t, m)
    return m


def terminate(c, rc, out, net):
    want_rc = 1 if c["verdict"] == "OUT_OF_BUDGET" else 0
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}"
    head, lines = _head(out)
    if head[0] != c["verdict"]:
        return f"{head[0]}, expected {c['verdict']}"
    if c["verdict"] == "TERMINATING":
        got = int(head[1].split("=")[1])
        return None if got == c["tree_size"] else \
            f"tree_size={got}, expected {c['tree_size']}"
    if c["verdict"] != "NONTERMINATING":
        return None
    stem = lines[1].split()[1:]
    pump = lines[2].split()[1:]
    if not pump:
        return "empty pump"
    m2 = _replay(net, oracles.as_dict(net, net.initial), stem)
    m1 = None if m2 is None else _replay(net, m2, pump)
    if m1 is None:
        return "stem or pump does not replay"
    a, b = oracles.as_tuple(net, m2), oracles.as_tuple(net, m1)
    level = _level(net, pump)
    if not (_leq(a, b) and a[:level] == b[:level]):
        return f"pump {a} -> {b} does not recur at level {level}"
    return None


def backward(c, rc, out, net):
    if rc != 0:
        return f"exit {rc}, expected 0"
    head, lines = _head(out)
    if head[0] != c["verdict"]:
        return f"{head[0]}, expected {c['verdict']}"
    basis = [_marking(net, ln) for ln in lines[1:]]
    if not any(_leq(b, c["target"]) for b in basis):
        return "the target is not in the basis' upward closure"
    if any(_leq(x, y) for i, x in enumerate(basis)
           for j, y in enumerate(basis) if i != j):
        return "the basis is not an antichain"
    if any(_leq(b, net.initial) for b in basis) != (c["verdict"] == "COVERABLE"):
        return "the verdict disagrees with the basis"
    return None


def net_out(c, rc, out, net):
    if rc != 0:
        return f"exit {rc}, expected 0"
    got = parse_net(out)
    size = (len(got.places), len(got.transitions))
    if size != (c["places"], c["transitions"]):
        return f"output has {size}, expected {(c['places'], c['transitions'])}"
    if c["no_reset"] and any(isinstance(a, Reset) for t in got.transitions
                             for a in t.pre.values()):
        return "output still has reset arcs"
    return None


def dot(c, rc, out, net):
    if rc != 0:
        return f"exit {rc}, expected 0"
    lines = out.splitlines()
    nodes = sum("[shape=" in ln for ln in lines)
    edges = sum(" -> " in ln for ln in lines)
    if (nodes, edges) != (c["nodes"], c["edges"]):
        return f"dot has {(nodes, edges)}, expected {(c['nodes'], c['edges'])}"
    return None


CHECKS = {"search": search, "terminate": terminate, "backward": backward,
          "net_out": net_out, "dot": dot}


def check(query, rc, out, net):
    try:
        return CHECKS[query["check"]["kind"]](query["check"], rc, out, net)
    except (IndexError, KeyError, ValueError, XpnError) as e:
        return f"unreadable output: {type(e).__name__}: {e}"
