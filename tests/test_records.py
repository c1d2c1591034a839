"""Value records behave as the frozen dataclasses they were: the same repr,
equality within one type only with a hash consistent with it, positional
and keyword construction with the same defaults, copies and pickles equal
to the original, and no assignment or deletion of a field."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from caretkit.proof import (
    MP, AxiomInstance, GenAbsNext, GenNext, IndAbsUntil, IndUntil,
    ProofScript, ProofStep, Schema, Taut, Verdict,
)
from caretkit.syntax import TRUE, Prop
from caretkit.tableau import Atom, AtomGraph, ChainWitness, SatResult
from caretkit.trace import FiniteTrace, LassoTrace, StructuredLassoTrace, _Trace

E = frozenset()
P = Prop("p")
ATOM = ("Atom(members=frozenset({Prop('p')}), terminal=True, fin_viable=True,"
        " props=frozenset({'p'}))")


def _atom():
    return Atom((P,), (True,), True, True, frozenset({"p"}))


def _witness():
    return ChainWitness(kind="finite", atoms=(_atom(),))


# one factory per record, and the repr of what it builds
RECORDS = [
    (lambda: FiniteTrace((E,)), "FiniteTrace(prefix=(frozenset(),), loop=())"),
    (lambda: LassoTrace((), ({"q"},)),
     "LassoTrace(prefix=(), loop=(frozenset({'q'}),))"),
    (lambda: StructuredLassoTrace([({"p"}, "call")], [(E, "ret")]),
     "StructuredLassoTrace(prefix=((frozenset({'p'}), <StateTag.CALL: 'call'>),),"
     " loop=((frozenset(), <StateTag.RET: 'ret'>),))"),
    (_witness, f"ChainWitness(kind='finite', atoms=({ATOM},), loop=())"),
    (lambda: ChainWitness("lasso", (), (_atom(),)),
     f"ChainWitness(kind='lasso', atoms=(), loop=({ATOM},))"),
    (lambda: AtomGraph("fin", (_atom(),), ((0,),)),
     f"AtomGraph(class_label='fin', nodes=({ATOM},), successors=((0,),))"),
    (lambda: SatResult(False),
     "SatResult(satisfiable=False, witness=None, model=None)"),
    (lambda: SatResult(True, _witness(), FiniteTrace(({"p"},))),
     f"SatResult(satisfiable=True, witness=ChainWitness(kind='finite', "
     f"atoms=({ATOM},), loop=()), "
     "model=FiniteTrace(prefix=(frozenset({'p'}),), loop=()))"),
    (lambda: Schema("A1", ("phi",), (), "X phi -> phi"),
     "Schema(name='A1', metavars=('phi',), params=(), text='X phi -> phi')"),
    (lambda: AxiomInstance("C5", {"n": 1, "c": 2}, {"psi": P}),
     "AxiomInstance(schema='C5', params=(('c', 2), ('n', 1)), "
     "bindings=(('psi', Prop('p')),))"),
    (lambda: AxiomInstance("A1"),
     "AxiomInstance(schema='A1', params=(), bindings=())"),
    (Taut, "Taut()"),
    (lambda: MP(1, implication=2), "MP(antecedent=1, implication=2)"),
    (lambda: GenNext(1), "GenNext(premise=1)"),
    (lambda: IndUntil(1), "IndUntil(premise=1)"),
    (lambda: GenAbsNext(premise=1), "GenAbsNext(premise=1)"),
    (lambda: IndAbsUntil(1), "IndAbsUntil(premise=1)"),
    (lambda: ProofStep(1, TRUE, justification=Taut()),
     "ProofStep(number=1, formula=TrueConst(), justification=Taut())"),
    (lambda: ProofScript("ax", (ProofStep(1, TRUE, Taut()),)),
     "ProofScript(system='ax', steps=(ProofStep(number=1, formula=TrueConst(),"
     " justification=Taut()),))"),
    (lambda: Verdict(True), "Verdict(ok=True, step=None, reason=None)"),
    (lambda: Verdict(False, 3, reason="bad"),
     "Verdict(ok=False, step=3, reason='bad')"),
]
NAMES = [text.split("(", 1)[0] for _, text in RECORDS]


@pytest.mark.parametrize("make, text", RECORDS, ids=NAMES)
def test_record_repr_copy_and_pickle(make, text):
    record = make()
    assert repr(record) == text
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record


def test_records_equal_only_within_one_type_with_a_consistent_hash():
    built = [make() for make, _ in RECORDS]
    again = [make() for make, _ in RECORDS]
    for k, (a, b) in enumerate(zip(built, again)):
        assert a is not b and a == b and not a != b, repr(a)
        assert hash(a) == hash(b), repr(a)
        for other in built[k + 1:]:
            assert a != other and other != a, (repr(a), repr(other))
    assert GenNext(1) != IndUntil(1) and GenAbsNext(1) != IndAbsUntil(1)
    assert MP(1, 2) != MP(2, 1) and Verdict(True) != Verdict(True, 1)
    # a lasso of a finite trace's shape is still not that trace
    lasso = LassoTrace.__new__(LassoTrace)
    _Trace.__init__(lasso, (E,), ())
    assert FiniteTrace((E,)) != lasso and lasso != FiniteTrace((E,))
    assert FiniteTrace((E,)) == FiniteTrace([set()])
    assert hash(FiniteTrace((E,))) == hash(FiniteTrace([set()]))


def test_records_take_keywords_and_defaults():
    assert SatResult(False) == SatResult(satisfiable=False, witness=None,
                                         model=None)
    assert Verdict(True) == Verdict(ok=True, step=None, reason=None)
    w = ChainWitness(kind="finite", atoms=())
    assert (w.kind, w.atoms, w.loop) == ("finite", (), ())
    assert AtomGraph(class_label="gen", nodes=(), successors=()).nodes == ()
    step = ProofStep(number=2, formula=P, justification=MP(antecedent=1,
                                                          implication=1))
    assert ProofScript(system="ax", steps=(step,)).steps[0] is step
    assert Schema(name="A", metavars=(), params=(), text="true").text == "true"


def test_axiom_instances_normalise_dicts():
    by_dict = AxiomInstance("C5", {"n": 1, "c": 2}, {"psi": P, "a": TRUE})
    assert by_dict.params == (("c", 2), ("n", 1))
    assert by_dict.bindings == (("a", TRUE), ("psi", P))
    assert by_dict == AxiomInstance(schema="C5", params=(("c", 2), ("n", 1)),
                                    bindings=(("a", TRUE), ("psi", P)))


def test_schema_parts_are_computed_once():
    s = Schema("A1", ("phi",), (), "X phi -> phi")
    assert s._parts is s._parts


@pytest.mark.parametrize("make, text", RECORDS, ids=NAMES)
def test_records_refuse_assignment_and_deletion(make, text):
    record = make()
    name = text[text.index("(") + 1:].split("=", 1)[0]
    if name.endswith(")"):  # no fields
        name = "anything"
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, name)
