"""Petri nets with inhibitor, reset and transfer arcs: exact semantics,
class taxonomy, bounded exploration, a termination decider, structural
reductions between the arc-kind classes, and hardness compilers."""

from types import ModuleType as _ModuleType

from .net import (Arc, BudgetExceededError, Diagnostic, INHIBIT,
                  INHIBITOR_KIND, Inhibitor, InvalidNetError, KIND_ORDER,
                  Marking, Net, NetClass, NotFirableError, Numeric, RESET,
                  RESET_KIND, Reset, TRANSFER_KIND, Transfer, Transition,
                  UnknownTransitionError, XpnError, classify, fire,
                  has_errors, is_firable, require_valid, successors, validate)
from .fmt import (ParseError, format_marking, parse_marking, parse_net,
                  parse_trace, render_net, render_trace)
from .explore import (BackwardCoverResult, SearchResult, Trace,
                      UpwardClosedSet, backward_cover, bounded_cover,
                      bounded_deadlock, bounded_reach, replay)
from .ert import (Ert, ErtNode, NonTerminating, NotEligibleError, Terminating,
                  build_ert, check_eligible, decide_termination, ert_dot,
                  verify_pump)
from .transforms import (MarkingMap, TransformError, TransformResult,
                         dlf_to_reach, hir_elim, hir_elim_all, hirct_elim,
                         reach_to_dlf, transfer_hierarchize, two_inh_to_reset)
from .compilers import (CounterMachine, Halt, Inc, JzDec, MinskyCompilation,
                        PhaseReport, PositivityCompilation, PositivityInstance,
                        compile_minsky, compile_positivity, first_violation,
                        iterates, parse_machine, parse_positivity,
                        simulate_machine, simulate_phases)
from .dot import export_dot

__all__ = sorted(n for n, v in globals().items()
                 if not n.startswith("_") and not isinstance(v, _ModuleType))
