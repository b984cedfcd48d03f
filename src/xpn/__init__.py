"""Petri nets with inhibitor, reset and transfer arcs: exact semantics,
class taxonomy, bounded exploration, a termination decider, structural
reductions between the arc-kind classes, and hardness compilers."""

# module -> the public names it gives this package, each imported on first
# use (PEP 562): a process compiles only the modules it reads names from
_EXPORTS = {
    "net": "Arc BudgetExceededError Diagnostic INHIBIT INHIBITOR_KIND "
           "Inhibitor InvalidNetError KIND_ORDER Marking Net NetClass "
           "NotFirableError Numeric RESET RESET_KIND Reset TRANSFER_KIND "
           "Trace Transfer Transition UnknownTransitionError XpnError "
           "classify fire has_errors is_firable replay require_valid "
           "successors validate",
    "fmt": "ParseError format_marking parse_marking parse_net parse_trace "
           "render_net render_trace",
    "explore": "BackwardCoverResult SearchResult UpwardClosedSet "
               "backward_cover bounded_cover bounded_deadlock bounded_reach",
    "ert": "Ert ErtNode NonTerminating NotEligibleError Terminating build_ert "
           "check_eligible decide_termination ert_dot verify_pump",
    "transforms": "MarkingMap TransformError TransformResult dlf_to_reach "
                  "hir_elim hir_elim_all hirct_elim reach_to_dlf "
                  "transfer_hierarchize two_inh_to_reset",
    "compilers": "CounterMachine Halt Inc JzDec MinskyCompilation "
                 "PositivityCompilation PositivityInstance compile_minsky "
                 "compile_positivity parse_machine parse_positivity",
    "dot": "export_dot",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    """A public name or a module above, imported on first use and kept."""
    module = _HOME.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # binds the module here
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
