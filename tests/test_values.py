"""Terms, records and ``Sequent`` as values: the repr text, ``==`` and
``hash`` over the field tuple, copies and pickles, and refused assignment."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from twoseq.calculus import (STRUCTURAL, TABLE, SCHEMAS, Active, Premise, ProofScript,
                             ScriptNode, SystemId, Violation, report)
from twoseq.positions import Interned, LtlPos, PastPos, SeqPos, SetPos
from twoseq.semantics import GraphModel, LassoWord, Verdict
from twoseq.syntax import And, Not, Prop, Sequent, pf, seq

P, X, Y = Prop("p"), frozenset("x"), frozenset("y")
AX = seq((pf(P, SeqPos()),), (pf(P, SeqPos()),))

# a sequent, one term of each interned class, every record, and its repr
_VALUES = [
    (seq((pf(P, SeqPos(("x",))),), (pf(Not(P), SeqPos()),)),
     "Sequent(ant=(PFormula(formula=Prop(name='p'), pos=SeqPos(items=('x',))),), "
     "suc=(PFormula(formula=Not(sub=Prop(name='p')), pos=SeqPos(items=())),))"),
    (SeqPos(("x", "y")), "SeqPos(items=('x', 'y'))"),
    (SetPos(X), "SetPos(items=frozenset({'x'}))"),
    (LtlPos(2, X), "LtlPos(steps=2, future=frozenset({'x'}))"),
    (PastPos(-1, X, Y), "PastPos(offset=-1, future=frozenset({'x'}), past=frozenset({'y'}))"),
    (P, "Prop(name='p')"),
    (Not(P), "Not(sub=Prop(name='p'))"),
    (And(P, Not(P)), "And(left=Prop(name='p'), right=Not(sub=Prop(name='p')))"),
    (pf(P, SeqPos(("x",))), "PFormula(formula=Prop(name='p'), pos=SeqPos(items=('x',)))"),
    (TABLE[SystemId.K], "ConstraintTable(family=<class 'twoseq.positions.SeqPos'>, "
     "box_left_shape='singleton', context_demand=True, induction='none')"),
    (STRUCTURAL["excL"], "StructuralRule(param='at', error='index out of range', "
     "message='conclusion is not the declared adjacent swap')"),
    (Active("+x"), "Active(shift='+x', operand='sub')"),
    (Premise(right=Active()), "Premise(left=None, right=Active(shift='', operand='sub'))"),
    (SCHEMAS["negL"], "RuleSchema(side='L', connective=<class 'twoseq.syntax.Not'>, "
     "premises=(Premise(left=None, right=Active(shift='', operand='sub')),), "
     "kind='a negation', noun='negation-left', params=(), hooks=(), based=False, "
     "expose=('premises do not expose the two operands',))"),
    (Violation((0, 1), "boxL", "schema", "m"),
     "Violation(path=(0, 1), rule='boxL', condition='schema', message='m')"),
    (report([Violation((), "ax", "schema", "m")]), "CheckReport(verdict='rejected', "
     "failures=(Violation(path=(), rule='ax', condition='schema', message='m'),))"),
    (ProofScript(SystemId.S4, ScriptNode("ax", (), AX)),
     "ProofScript(system=<SystemId.S4: 'S4'>, root=ScriptNode(rule='ax', params=(), "
     "conclusion=Sequent(ant=(PFormula(formula=Prop(name='p'), pos=SeqPos(items=())),), "
     "suc=(PFormula(formula=Prop(name='p'), pos=SeqPos(items=())),)), children=()))"),
    (GraphModel(("n0",), frozenset({("n0", "n0")}), "n0", {"n0": frozenset("p")}),
     "GraphModel(nodes=('n0',), edges=frozenset({('n0', 'n0')}), root='n0', "
     "valuation={'n0': frozenset({'p'})})"),
    (LassoWord((), (frozenset("p"),)), "LassoWord(prefix=(), loop=(frozenset({'p'}),))"),
    (Verdict(True, 5), "Verdict(ok=True, tried=5, model=None, rho=None)"),
]


@pytest.mark.parametrize("x, text", _VALUES, ids=[type(x).__name__ for x, _ in _VALUES])
def test_a_value_keeps_its_repr_equality_hash_copies_and_fields(x, text):
    if isinstance(x, Sequent):
        x.program           # a filled cache changes none of what follows
    assert repr(x) == text
    fields = tuple(getattr(x, k) for k in x.__match_args__)
    twin = type(x)(*fields)
    assert twin == x and not twin != x
    assert (twin is x) == isinstance(x, Interned)
    # records are tuples, so they equal their field tuple; terms and sequents do not
    assert (x == fields) == isinstance(x, tuple)
    if isinstance(x, GraphModel):
        with pytest.raises(TypeError, match="unhashable type: 'GraphModel'"):
            hash(x)
    else:
        assert hash(twin) == hash(x) == hash(fields)
    for back in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(back) is type(x) and back == x and repr(back) == text
    frozen = FrozenInstanceError if isinstance(x, (Interned, Sequent)) else AttributeError
    name = x.__match_args__[0]
    with pytest.raises(frozen):
        setattr(x, name, getattr(x, name))
    with pytest.raises(frozen):
        delattr(x, name)
    assert repr(x) == text


@pytest.mark.parametrize("build", [
    lambda: LassoWord((frozenset(),), ()),
    lambda: LassoWord((), (frozenset("p"),))._replace(loop=()),
    lambda: LassoWord._make(((), ())),
], ids=["call", "replace", "make"])
def test_an_empty_lasso_loop_is_refused(build):
    with pytest.raises(ValueError, match="^lasso loop must be nonempty$"):
        build()
