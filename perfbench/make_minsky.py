"""Write the compiled counter machines that the forward workload reads.

    python3 perfbench/make_minsky.py

Run from the root of a checkout.  Compiles every machine of the SUITE in
``tests/machines.py`` and the mover machines below with
``compile_minsky`` and writes each net, in the benchmark's own .xpn
writer, to ``perfbench/minsky/<machine>-halt.xpn`` or ``-loop.xpn``.
The files are committed, so forward's inputs stay the same when the
compiler changes; run this only when those machines change.
"""

from __future__ import annotations

import sys
from pathlib import Path

# forward draws one mover count from 3..5 and one from 6..8
MOVER_COUNTS = range(3, 9)


def mover_machine(c, halts):
    """Count counter 1 up to c, move it into counter 2, count counter 2
    down.  If `halts` is false the last loop spins on zero forever and the
    HALT state is unreachable.  Every loop decrements first or spins on
    zero, so the compiled net stays finite."""
    lines = [f"u{i}: INC 1 -> u{i + 1}" for i in range(c)]
    lines.append(f"u{c}: JZDEC 1 -> d / m")
    lines.append(f"m: INC 2 -> u{c}")
    lines.append("d: JZDEC 2 -> " + ("h / d" if halts else "d / d"))
    lines.append("h: HALT")
    return "\n".join(lines) + "\n"


def main():
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import machines
    import workloads
    from xpn.compilers import compile_minsky, parse_machine

    progs = list(machines.SUITE)
    progs += [(f"mover{c}", mover_machine(c, halts), halts)
              for c in MOVER_COUNTS for halts in (True, False)]
    workloads.MINSKY_DIR.mkdir(exist_ok=True)
    for old in workloads.MINSKY_DIR.glob("*.xpn"):
        old.unlink()
    for name, src, halts in progs:
        comp = compile_minsky(parse_machine(src))
        assert comp.cover_target == tuple(int(p == "accept")
                                          for p in comp.net.places)
        path = workloads.MINSKY_DIR / f"{name}-{'halt' if halts else 'loop'}.xpn"
        path.write_text(workloads.net_text(comp.net))
    return 0


if __name__ == "__main__":
    sys.exit(main())
