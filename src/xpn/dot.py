"""Graphviz export.  Output is byte-stable for a given net: nodes are
emitted in declaration order with positional ids, so rerunning the export
never reorders or renames anything."""

from __future__ import annotations

from .fmt import _esc, _q, _writes_counts
from .net import Inhibitor, Net, Numeric, Reset, Transfer


@_writes_counts
def export_dot(net: Net, highlight=()) -> str:
    """Places are circles (marking in the label), transitions boxes.
    Inhibitor arcs get a dot arrowhead, reset arcs a dashed R edge,
    transfer arcs a dashed edge into the source plus a grey edge on to
    the target.  Transitions named in highlight are drawn red."""
    hi = set(highlight)
    out = ["digraph net {", "  rankdir=LR;"]
    for i, p in enumerate(net.places):
        n = net.initial[i]
        # \n must survive as a DOT line break, so it stays outside _esc
        label = _esc(p) + (f"\\n{n}" if n else "")
        out.append(f'  p{i} [shape=circle label="{label}"];')
    for i, t in enumerate(net.transitions):
        style = " color=red penwidth=2" if t.name in hi else ""
        out.append(f"  t{i} [shape=box label={_q(t.name)}{style}];")
    pos = {p: i for i, p in enumerate(net.places)}
    for i, t in enumerate(net.transitions):
        for p in sorted(t.pre, key=pos.__getitem__):
            arc = t.pre[p]
            if isinstance(arc, Numeric):
                w = f" [label={_q(str(arc.weight))}]" if arc.weight != 1 else ""
                out.append(f"  p{pos[p]} -> t{i}{w};")
            elif isinstance(arc, Inhibitor):
                out.append(f"  p{pos[p]} -> t{i} [arrowhead=odot];")
            elif isinstance(arc, Reset):
                out.append(f"  p{pos[p]} -> t{i} [label=\"R\" style=dashed];")
            elif isinstance(arc, Transfer):
                out.append(
                    f"  p{pos[p]} -> t{i} "
                    f"[label={_q('to ' + arc.target)} style=dashed];")
                out.append(
                    f"  t{i} -> p{pos[arc.target]} [style=dashed color=grey];")
        for p in sorted(t.post, key=pos.__getitem__):
            w = t.post[p]
            lab = f" [label={_q(str(w))}]" if w != 1 else ""
            out.append(f"  t{i} -> p{pos[p]}{lab};")
    out.append("}")
    return "\n".join(out) + "\n"
