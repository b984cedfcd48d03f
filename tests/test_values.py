"""The contract of every public value class: construction by position and
by keyword with its defaults, equality only within one class, the hash of
the fields (a TypeError where a field holds a dict), no assignment or
deletion, the exact repr, and pickle and copy round trips."""

import copy
import pickle

import pytest

from xpn import (BackwardCoverResult, CounterMachine, Diagnostic, Ert,
                 ErtNode, Halt, INHIBIT, Inc, Inhibitor, JzDec, MarkingMap,
                 MinskyCompilation, Net, NetClass, NonTerminating, Numeric,
                 PositivityCompilation, PositivityInstance, RESET,
                 Reset, SearchResult, Terminating, Trace, Transfer,
                 TransformResult, Transition)

T = Transition("t", {"a": Numeric(1)}, {"b": 2})
NET = Net(("a", "b"), (T,), (1, 0))
EMPTY = Net(("a",), (), (0,))
TRACE = Trace(("t",), ((1, 0), (0, 2)))
INST = PositivityInstance(((1,),), (2,))
MAP = MarkingMap((("copy", 0), ("const", 3)))

T_REPR = "Transition(name='t', pre={'a': Numeric(weight=1)}, post={'b': 2})"
NET_REPR = f"Net(places=('a', 'b'), transitions=({T_REPR},), initial=(1, 0))"
TRACE_REPR = "Trace(transitions=('t',), markings=((1, 0), (0, 2)))"
INST_REPR = "PositivityInstance(matrix=((1,),), v0=(2,))"

# (class, its fields in order with a value each, repr, hashable)
CASES = [
    (Numeric, {"weight": 2}, "Numeric(weight=2)", True),
    (Inhibitor, {}, "Inhibitor()", True),
    (Reset, {}, "Reset()", True),
    (Transfer, {"target": "q"}, "Transfer(target='q')", True),
    (Transition, {"name": "t", "pre": {"a": Numeric(1)}, "post": {"b": 2}},
     T_REPR, False),
    (Net, {"places": ("a", "b"), "transitions": (T,), "initial": (1, 0)},
     NET_REPR, False),
    (Net, {"places": ("a",), "transitions": (), "initial": (0,)},
     "Net(places=('a',), transitions=(), initial=(0,))", True),
    (Diagnostic, {"severity": "error", "code": "c", "message": "m"},
     "Diagnostic(severity='error', code='c', message='m')", True),
    (NetClass, {"specials": ("reset",), "hierarchical": (),
                "constrained_transfer": True, "ert_eligible": False},
     "NetClass(specials=('reset',), hierarchical=(), "
     "constrained_transfer=True, ert_eligible=False)", True),
    (Trace, {"transitions": ("t",), "markings": ((1, 0), (0, 2))},
     TRACE_REPR, True),
    (SearchResult, {"trace": TRACE, "expanded": 3},
     f"SearchResult(trace={TRACE_REPR}, expanded=3)", True),
    (BackwardCoverResult, {"coverable": False, "basis": ((0, 1),)},
     "BackwardCoverResult(coverable=False, basis=((0, 1),))", True),
    (Terminating, {"tree_size": 4}, "Terminating(tree_size=4)", True),
    (NonTerminating, {"stem": TRACE, "pump": TRACE},
     f"NonTerminating(stem={TRACE_REPR}, pump={TRACE_REPR})", True),
    (ErtNode, {"marking": (1, 0), "parent": 0, "via": "t", "via_index": 1,
               "status": "subsumed", "subsumed_by": 0},
     "ErtNode(marking=(1, 0), parent=0, via='t', via_index=1, "
     "status='subsumed', subsumed_by=0)", True),
    (Ert, {"nodes": (), "verdict": Terminating(1)},
     "Ert(nodes=(), verdict=Terminating(tree_size=1))", True),
    (MarkingMap, {"entries": (("copy", 0), ("const", 3))},
     "MarkingMap(entries=(('copy', 0), ('const', 3)))", True),
    (TransformResult, {"net": EMPTY, "forward": MAP, "query": "reach",
                       "goal": (1,), "alt_forwards": (MAP,),
                       "place_origin": {"a": "a"}, "trans_origin": {}},
     "TransformResult(net=Net(places=('a',), transitions=(), initial=(0,)), "
     "forward=MarkingMap(entries=(('copy', 0), ('const', 3))), "
     "query='reach', goal=(1,), "
     "alt_forwards=(MarkingMap(entries=(('copy', 0), ('const', 3))),), "
     "place_origin={'a': 'a'}, trans_origin={})", False),
    (Inc, {"counter": 1, "goto": "q"}, "Inc(counter=1, goto='q')", True),
    (JzDec, {"counter": 2, "goto_zero": "z", "goto_nonzero": "n"},
     "JzDec(counter=2, goto_zero='z', goto_nonzero='n')", True),
    (Halt, {}, "Halt()", True),
    (CounterMachine, {"states": ("q",), "program": {"q": Halt()}},
     "CounterMachine(states=('q',), program={'q': Halt()})", False),
    (MinskyCompilation, {"net": EMPTY, "cover_target": (1,),
                         "accept": "accept", "budget": "S",
                         "counters": ("C1", "C2"), "state_place": {}},
     "MinskyCompilation(net=Net(places=('a',), transitions=(), "
     "initial=(0,)), cover_target=(1,), accept='accept', budget='S', "
     "counters=('C1', 'C2'), state_place={})", False),
    (PositivityInstance, {"matrix": ((1,),), "v0": (2,)}, INST_REPR, True),
    (PositivityCompilation, {"net": EMPTY, "instance": INST, "fuel": "fuel",
                             "refuel": "refuel", "v_places": ("v1",),
                             "nv_places": ("nv1",), "w_places": {},
                             "mul_names": ("mul1",), "acc_names": {},
                             "restart": "restart", "colsums": (1,)},
     "PositivityCompilation(net=Net(places=('a',), transitions=(), "
     f"initial=(0,)), instance={INST_REPR}, fuel='fuel', refuel='refuel', "
     "v_places=('v1',), nv_places=('nv1',), w_places={}, "
     "mul_names=('mul1',), acc_names={}, restart='restart', colsums=(1,))",
     False),
]

IDS = [f"{cls.__name__}-{i}" for i, (cls, *_) in enumerate(CASES)]


def test_every_public_value_class_has_a_case():
    import xpn
    from xpn.explore import UpwardClosedSet
    exported = {v for v in (getattr(xpn, n) for n in xpn.__all__)
                if isinstance(v, type) and v.__module__.startswith("xpn.")
                and not issubclass(v, Exception) and v is not UpwardClosedSet}
    assert exported == {cls for cls, *_ in CASES}
    assert len(exported) == 24


@pytest.mark.parametrize("cls, fields, text, hashable", CASES, ids=IDS)
def test_construction_equality_and_repr(cls, fields, text, hashable):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert type(by_position) is cls
    for name, value in fields.items():
        assert getattr(by_position, name) == value
    assert repr(by_position) == repr(by_keyword) == text
    assert by_position != object() and by_position != tuple(fields.values())
    if hashable:
        assert hash(by_position) == hash(by_keyword)
        assert hash(by_position) == hash(tuple(fields.values()))
    else:
        with pytest.raises(TypeError):
            hash(by_position)


@pytest.mark.parametrize("cls, fields, text, hashable", CASES, ids=IDS)
def test_no_assignment_or_deletion(cls, fields, text, hashable):
    obj = cls(*fields.values())
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 0
    assert obj == cls(*fields.values())


@pytest.mark.parametrize("cls, fields, text, hashable", CASES, ids=IDS)
def test_pickle_and_copy_round_trips(cls, fields, text, hashable):
    obj = cls(*fields.values())
    for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj),
                  copy.deepcopy(obj)):
        assert type(clone) is cls
        assert clone == obj
        assert repr(clone) == text


def test_equality_is_per_class():
    assert INHIBIT == Inhibitor() and RESET == Reset()
    assert INHIBIT != RESET and Inhibitor() != Reset()
    assert Numeric(1) != Transfer("p")
    assert Numeric(1) == Numeric(1) and Numeric(1) != Numeric(2)
    assert Numeric(3) != Terminating(3)
    assert Halt() == Halt() and Halt() != Inhibitor()
    assert Trace((), ()) != PositivityInstance((), ())
    assert len({INHIBIT, Inhibitor(), RESET, Reset()}) == 2


def test_defaults():
    t = Transition("t")
    assert t.pre == {} and t.post == {}
    assert Transition("t").pre is not t.pre
    assert Transition("t").post is not t.post
    assert repr(t) == "Transition(name='t', pre={}, post={})"
    node = ErtNode((0,), None, None, 0, "inner")
    assert node.subsumed_by is None
    assert node == ErtNode((0,), None, None, 0, "inner", None)
    r = TransformResult(EMPTY, MAP, "reach")
    assert (r.goal, r.alt_forwards, r.place_origin, r.trans_origin) \
        == (None, (), {}, {})
    other = TransformResult(EMPTY, MAP, "reach")
    assert r.place_origin is not other.place_origin
    assert r.trans_origin is not other.trans_origin


def test_transition_and_net_copy_their_arguments():
    pre, post = {"a": Numeric(1)}, {"b": 2}
    t = Transition("t", pre, post)
    pre["c"], post["c"] = INHIBIT, 1
    assert t.pre == {"a": Numeric(1)} and t.post == {"b": 2}
    assert t.pre is not pre and t.post is not post
    t = Transition("t", pre=[("a", Numeric(1))], post=[("b", 2)])
    assert t.pre == {"a": Numeric(1)} and t.post == {"b": 2}
    net = Net(["a", "b"], [T], [1, 0])
    assert net == NET
    assert (net.places, net.transitions, net.initial) \
        == (("a", "b"), (T,), (1, 0))


# the classes that bind their fields through `_Value.__init__` alone
SHARED = [case for case in CASES if "__init__" not in vars(case[0])]


@pytest.mark.parametrize("cls, fields, text, hashable", SHARED,
                         ids=[cls.__name__ for cls, *_ in SHARED])
def test_the_shared_initializer_rejects_a_bad_binding(cls, fields, text,
                                                      hashable):
    values = list(fields.values())
    with pytest.raises(TypeError, match="takes"):
        cls(*values, 0)
    with pytest.raises(TypeError, match="has no field 'extra'"):
        cls(*values, extra=0)
    if not fields:
        return
    first, last = next(iter(fields)), list(fields)[-1]
    with pytest.raises(TypeError, match=f"missing field '{last}'"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match=f"missing field '{first}'"):
        cls(**dict(list(fields.items())[1:]))
    with pytest.raises(TypeError, match=f"got '{first}' twice"):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError, match=f"got '{first}' twice"):
        cls(*values[:1], **fields)


def test_only_classes_that_convert_or_default_define_init():
    import xpn.compilers, xpn.ert, xpn.explore, xpn.transforms  # noqa: F401
    from xpn.net import _Value
    classes, todo = set(), [_Value]
    while todo:
        for sub in todo.pop().__subclasses__():
            classes.add(sub)
            todo.append(sub)
    assert {cls for cls in classes if "__init__" in vars(cls)} \
        == {Net, Transition, TransformResult, ErtNode}
    assert classes == {cls for cls, *_ in CASES}
