"""Command line front end.

Exit codes: 0 for an answer (a no included), 1 when a budget ran out
first (engines raise BudgetExceededError, which `main` alone prints as
`OUT_OF_BUDGET <message>`), 2 for usage, parse, validation or
precondition problems, and for internal errors: any other exception is
reported as `internal error: <Type>: <message>` on stderr.

An argv that starts with a verb is parsed by that verb's own subparser
alone, into the Namespace and with the messages the top-level parser
would give; any other argv (empty, `-h`, `--`, an unknown word) goes
through the top-level parser.  Input files are read as UTF-8 whatever the
locale, their line ends as they are; a file that is not UTF-8 text is an
input problem (`<path>: error: not UTF-8 text at byte <n>`, exit 2).

A verb imports the engine modules it runs on its first call, so `explore`,
say, never compiles `ert`, `transforms`, `compilers` or `dot`.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import _EXPORTS, _HOME
from .fmt import ParseError, format_marking, parse_marking, parse_net, \
    parse_trace, render_net, render_trace
from .net import (BudgetExceededError, InvalidNetError, NotFirableError,
                  XpnError, classify, has_errors, replay, require_valid,
                  validate)


def _need(module: str):
    """Bind `module` and its names in `xpn._EXPORTS` as globals here,
    keeping a name already bound, such as a tracer's wrapper."""
    if module in globals():
        return
    __import__(f"{__package__}.{module}")
    mod = sys.modules[f"{__package__}.{module}"]
    for name in _EXPORTS[module].split():
        globals().setdefault(name, getattr(mod, name))
    globals()[module] = mod


def __getattr__(name):
    module = _HOME.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _need(module)
    return globals()[name]


class _Fail(Exception):
    """A usage or input problem: its message goes to stderr, exit 2."""


def _read_text(path: str) -> str:
    """The UTF-8 text of the file `path`, whatever the locale; its line
    ends stay as they are, as every reader splits with `splitlines`."""
    try:
        with open(path, "rb", buffering=0) as f:
            data = f.read()
    except OSError as e:
        raise _Fail(f"{path}: {e.strerror or e}")
    try:
        return data.decode()
    except UnicodeDecodeError as e:
        raise _Fail(f"{path}: error: not UTF-8 text at byte {e.start}")


def _write_file(path: str, text: str):
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        raise _Fail(f"{path}: {e.strerror or e}")


def _parse_or_fail(path: str, text: str, parser):
    try:
        return parser(text)
    except ParseError as e:
        raise _Fail(f"{path}:{e.line}:{e.col}: error: {e.message}")


def _read_net(path: str):
    net = _parse_or_fail(path, _read_text(path), parse_net)
    try:
        require_valid(net)
    except InvalidNetError as e:
        d = e.errors[0]
        raise _Fail(f"{path}: error: {d.code}: {d.message}")
    return net


def _marking_arg(net, literal: str):
    try:
        return parse_marking(net, literal)
    except ParseError as e:
        raise _Fail(f"marking literal: col {e.col}: {e.message}")


def _target(net, args, verb: str):
    if args.marking is None:
        raise _Fail(f"{verb} needs a target marking (-m)")
    return _marking_arg(net, args.marking)


def _write_out(args, text: str):
    if getattr(args, "output", None):
        _write_file(args.output, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verbs

def cmd_validate(args) -> int:
    net = _parse_or_fail(args.net, _read_text(args.net), parse_net)
    diags = validate(net)
    for d in diags:
        print(f"{args.net}: {d.severity}: {d.code}: {d.message}")
    if has_errors(diags):
        return 2
    if not diags:
        print(f"{args.net}: ok")
    return 0


def cmd_classify(args) -> int:
    net = _read_net(args.net)
    cls = classify(net)
    print(f"class: {cls.label()}")
    print(f"specials: {' '.join(cls.specials) if cls.specials else '-'}")
    print("hierarchical: "
          + (" ".join(cls.hierarchical) if cls.hierarchical else "-"))
    print(f"constrained-transfer: {'yes' if cls.constrained_transfer else 'no'}")
    print(f"ert-eligible: {'yes' if cls.ert_eligible else 'no'}")
    return 0


def cmd_fire(args) -> int:
    net = _read_net(args.net)
    start = net.initial
    if args.marking is not None:
        start = _marking_arg(net, args.marking)
    names = list(args.transition)
    if args.trace_file:
        names += list(parse_trace(_read_text(args.trace_file)))
    if not names:
        raise _Fail("no transitions given")
    try:
        trace = replay(net, start, names)
    except NotFirableError as e:
        print(f"not firable: {e}")
        return 0
    print(format_marking(net, trace.markings[-1]))
    return 0


def cmd_explore(args) -> int:
    _need("explore")
    if args.mode == "deadlock" and args.marking is not None:
        raise _Fail("deadlock takes no target marking (-m)")
    if args.mode == "backward-cover" and args.trace is not None:
        raise _Fail("backward-cover takes no --trace")
    net = _read_net(args.net)
    if args.mode == "backward-cover":
        res = backward_cover(net, _target(net, args, args.mode),
                             max_steps=args.max_steps)
        lines = ["COVERABLE" if res.coverable else "UNCOVERABLE"]
        print("\n".join(lines + [format_marking(net, b) for b in res.basis]))
        return 0

    if args.mode == "deadlock":
        res = bounded_deadlock(net, max_steps=args.max_steps)
    else:
        fn = bounded_reach if args.mode == "reach" else bounded_cover
        res = fn(net, _target(net, args, args.mode), max_steps=args.max_steps)
    if not res.found:
        print(f"EXHAUSTED expanded={res.expanded}")
        return 0
    # the whole answer is text before anything is written
    answer = (f"FOUND steps={len(res.trace.transitions)} "
              f"expanded={res.expanded}\n"
              + format_marking(net, res.trace.markings[-1]))
    if args.trace:
        _write_file(args.trace, render_trace(res.trace.transitions))
    print(answer)
    return 0


def cmd_terminate(args) -> int:
    _need("ert")
    net = _read_net(args.net)
    if args.dot or args.full_tree:
        ert = build_ert(net, max_nodes=args.max_nodes,
                        stop_early=not args.full_tree)
        v = ert.verdict
    else:
        v = decide_termination(net, max_nodes=args.max_nodes)
    if args.dot:
        _write_file(args.dot, ert_dot(net, ert))
    if isinstance(v, Terminating):
        print(f"TERMINATING tree_size={v.tree_size}")
        return 0
    if args.stem:
        _write_file(args.stem, render_trace(v.stem.transitions))
    if args.pump:
        _write_file(args.pump, render_trace(v.pump.transitions))
    print("NONTERMINATING")
    print(("stem: " + " ".join(v.stem.transitions)).rstrip())
    print(("pump: " + " ".join(v.pump.transitions)).rstrip())
    return 0


def _map_lines(net_in, result: transforms.TransformResult) -> list:
    lines = []
    maps = [("forward", result.forward)]
    maps += [(f"alt{i if i > 1 else ''}", m)
             for i, m in enumerate(result.alt_forwards, start=1)]
    for name, mm in maps:
        lines.append(f"{name}:")
        for place, (kind, val) in zip(result.net.places, mm.entries):
            src = net_in.places[val] if kind == transforms.COPY else str(val)
            lines.append(f"{place} <- {src}")
    return lines


# op name -> run(net, args), in the order `--help` lists them; each entry
# looks its reduction up on `transforms` when called
TRANSFORM_OPS = {
    "hir-elim": lambda net, args: transforms.hir_elim(net),
    "hirct-elim": lambda net, args: transforms.hirct_elim(net),
    "hir-elim-all": lambda net, args: transforms.hir_elim_all(net),
    "dlf-to-reach": lambda net, args: transforms.dlf_to_reach(
        net, clause_cap=args.clause_cap),
    "reach-to-dlf": lambda net, args: transforms.reach_to_dlf(
        net, _target(net, args, "reach-to-dlf")),
    "two-inh-to-reset": lambda net, args: transforms.two_inh_to_reset(net),
    "transfer-hierarchize":
        lambda net, args: transforms.transfer_hierarchize(net),
}


def cmd_transform(args) -> int:
    _need("transforms")
    net = _read_net(args.net)
    try:
        result = TRANSFORM_OPS[args.op](net, args)
    except transforms.TransformError as e:
        raise _Fail(f"{args.op}: {e}")

    header = [f"xpn transform {args.op}", f"query: {result.query}"]
    if result.goal is not None:
        header.append(
            "goal: " + format_marking(result.net, result.goal, keep_zeros=False))
    map_lines = _map_lines(net, result)
    if args.output:
        _write_file(args.output, render_net(result.net, header=header))
        _write_file(args.output + ".map", "\n".join(map_lines) + "\n")
        print(f"wrote {args.output} and {args.output}.map")
    else:
        sys.stdout.write(render_net(
            result.net, header=header + ["map:"] + map_lines))
    return 0


def cmd_compile(args) -> int:
    _need("compilers")
    text = _read_text(args.source)
    if args.kind == "minsky":
        cm = _parse_or_fail(args.source, text, compilers.parse_machine)
        comp = compilers.compile_minsky(cm, transfer=args.transfer)
        cover = format_marking(comp.net, comp.cover_target, keep_zeros=False)
        header = [f"xpn compile minsky{' --transfer' if args.transfer else ''}",
                  f"cover: {cover}",
                  "the machine halts iff the cover target is coverable"]
        _write_out(args, render_net(comp.net, header=header))
    else:
        inst = _parse_or_fail(args.source, text, compilers.parse_positivity)
        try:
            comp = compilers.compile_positivity(inst)
        except ValueError as e:
            raise _Fail(str(e))
        header = ["xpn compile positivity",
                  f"census: places={len(comp.net.places)} "
                  f"transitions={len(comp.net.transitions)}",
                  "restart fires once per phase while every iterate stays "
                  "nonnegative"]
        _write_out(args, render_net(comp.net, header=header))
    return 0


def cmd_export_dot(args) -> int:
    _need("dot")
    net = _read_net(args.net)
    highlight = tuple(x for x in (args.highlight or "").split(",") if x)
    _write_out(args, export_dot(net, highlight=highlight))
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def _parser() -> tuple:
    """(the top-level parser, {verb: its subparser}): the one parser of
    this process, built on the first call.  Reuse keeps no state between
    calls: each parse makes a fresh Namespace, no default is mutable,
    `func` binds a `cmd_*` handler that looks every engine up on this
    module when it runs, and help is formatted at the terminal width of
    the moment."""
    ap = argparse.ArgumentParser(
        prog="xpn",
        description="Petri nets with inhibitor, reset and transfer arcs")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="parse and check a net file")
    p.add_argument("net")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="report the net's arc-kind class")
    p.add_argument("net")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("fire", help="fire a transition sequence")
    p.add_argument("net")
    p.add_argument("transition", nargs="*")
    p.add_argument("-m", "--marking", help='start marking, e.g. "p=2 q=0"')
    p.add_argument("--trace-file", help="file with one transition per line")
    p.set_defaults(func=cmd_fire)

    p = sub.add_parser("explore", help="bounded forward / backward search")
    p.add_argument("mode",
                   choices=["reach", "cover", "deadlock", "backward-cover"])
    p.add_argument("net")
    p.add_argument("-m", "--marking", help="target marking literal")
    p.add_argument("--max-steps", type=int, default=1_000_000)
    p.add_argument("--trace", help="write the witness trace here")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("terminate", help="decide termination via the "
                                         "extended reachability tree")
    p.add_argument("net")
    p.add_argument("--max-nodes", type=int, default=1_000_000)
    p.add_argument("--full-tree", action="store_true",
                   help="expand the whole tree even after a verdict")
    p.add_argument("--dot", help="write the tree as DOT here")
    p.add_argument("--stem", help="write the stem trace here")
    p.add_argument("--pump", help="write the pump trace here")
    p.set_defaults(func=cmd_terminate)

    p = sub.add_parser("transform", help="apply a net-to-net reduction")
    p.add_argument("op", choices=list(TRANSFORM_OPS))
    p.add_argument("net")
    p.add_argument("-o", "--output", help="output net file (.map written "
                   "alongside)")
    p.add_argument("-m", "--marking", help="target marking (reach-to-dlf)")
    p.add_argument("--clause-cap", type=int, default=10_000)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("compile", help="compile a counter machine or a "
                                       "positivity instance to a net")
    p.add_argument("kind", choices=["minsky", "positivity"])
    p.add_argument("source")
    p.add_argument("-o", "--output")
    p.add_argument("--transfer", action="store_true",
                   help="minsky: use transfer arcs instead of resets")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("export-dot", help="render a net as Graphviz DOT")
    p.add_argument("net")
    p.add_argument("-o", "--output")
    p.add_argument("--highlight", help="comma separated transition names")
    p.set_defaults(func=cmd_export_dot)

    return ap, sub.choices


def main(argv=None) -> int:
    ap, verbs = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser would hand all after the verb to the verb's
    # parser; one pass makes the same Namespace and the same messages
    verb = verbs.get(argv[0]) if argv else None
    if verb is None:
        args, extra = ap.parse_known_args(argv)
    else:
        args, extra = verb.parse_known_args(
            argv[1:], argparse.Namespace(verb=argv[0]))
    # an option ends `fire`'s positionals, so its transitions may follow it
    if args.verb == "fire" and not any(w.startswith("-") for w in extra):
        args.transition, extra = args.transition + extra, []
    if extra:
        ap.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except BudgetExceededError as e:
        print(f"OUT_OF_BUDGET {e}")
        return 1
    except _Fail as e:
        print(str(e), file=sys.stderr)
        return 2
    except XpnError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a bug, never to be mistaken for exit 1
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
