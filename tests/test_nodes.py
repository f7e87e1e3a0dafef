"""Proof nodes, double-line bridge nodes among them: stored fields and
measures, ill-formed parameters, immutability, equality, hashing and repr;
and the checker's report on a one-node proof of every rule name of every
system.

The one-node reports are pinned in ``tests/golden/one_node.json``; run
``PYTHONPATH=src python tests/test_nodes.py`` to rewrite it.
"""

import copy
import json
import pickle
from pathlib import Path

import pytest

from twoseq.calculus import (ProofNode, RULES_BY_SYSTEM, ScriptNode, SystemId, TABLE,
                             apply_rule, apply_structural, ax, box_right, check_proof,
                             check_rule_instance, imp_right, weak_left)
from twoseq.positions import LtlPos, PastPos, SeqPos, SetPos, seqpos
from twoseq.syntax import Box, Next, Prop, Sequent, pf, seq

GOLDEN = Path(__file__).parent / "golden" / "one_node.json"

P0, P1 = Prop("p0"), Prop("p1")
E, X = seqpos(), seqpos("x")


def _boxed() -> ProofNode:
    # p0 at [x], box p0 at [] |- box p0 at [] by boxR over a weakened axiom
    return box_right(_boxed_premise(), "x")


def _boxed_premise() -> ProofNode:
    return weak_left(ax(pf(P0, X)), pf(Box(P0), E))


def _measures(n) -> tuple:
    return n.height, n.size, n.eigens, n.cut_rank


# -- stored fields and measures --

def test_proof_node_fields_and_measures():
    leaf = ax(pf(P0, E))
    assert (leaf.rule, leaf.params, leaf.premises) == ("ax", (), ())
    assert leaf.conclusion == seq((pf(P0, E),), (pf(P0, E),))
    assert _measures(leaf) == (1, 1, 0, 0)

    boxed = _boxed()
    assert boxed.rule == "boxR"
    assert boxed.params == (("alpha", E), ("x", "x"))
    assert boxed.conclusion == seq((pf(P0, X), pf(Box(P0), E)), (pf(Box(P0), E),))
    assert boxed.premises == (_boxed_premise(),)
    assert _measures(boxed) == (3, 3, 1, 0)

    swapped = apply_structural("excL", weak_left(boxed, pf(P1, E)), 0)
    assert _measures(swapped) == (5, 5, 1, 0)
    assert swapped.params == (("at", 0),)

    # cut rank: one past the cut formula's degree, the largest over the tree
    c = apply_rule("cut", (boxed, ax(pf(Box(P0), E))), cutf=pf(Box(P0), E))
    assert c.params == (("cutf", pf(Box(P0), E)),)
    assert _measures(c) == (4, 5, 1, 2)
    cc = apply_rule("cut", (c, ax(pf(Box(P0), E))), cutf=pf(Box(P0), E))
    assert _measures(cc) == (5, 7, 1, 2)


def test_temporal_cut_formula_has_rank_minus_one():
    a = pf(Next(P0), LtlPos())
    c = apply_rule("cut", (ax(a), ax(a)), cutf=a)
    assert c.cut_rank == -1
    # and a rank of -1 below wins over any cut above
    b = pf(P0, LtlPos())
    above = ProofNode("cut", (("cutf", b),), c.conclusion, (c, ax(a)))
    assert above.cut_rank == -1


def test_script_node_fields():
    # a double line is a ProofNode of rule "bridge", measured like any node
    leaf = ProofNode("ax", (), seq((pf(P0, E),), (pf(P0, E),)))
    top = ProofNode("bridge", (("k", 1),), seq((pf(P0, E), pf(P1, E)), (pf(P0, E),)),
                    (leaf,))
    assert (top.rule, top.params, top.premises) == ("bridge", (("k", 1),), (leaf,))
    assert _measures(top) == (2, 2, 0, 0)
    # ScriptNode, as bench/ builds it: the same constructor, read through children
    sleaf = ScriptNode("ax", (), leaf.conclusion)
    stop = ScriptNode("bridge", top.params, top.conclusion, (sleaf,))
    assert sleaf.children == () and stop.children == (sleaf,)
    assert stop.children is stop.premises
    assert isinstance(stop, ProofNode) and _measures(stop) == _measures(top)
    assert stop != top and sleaf != leaf


# -- nodes with ill-formed parameters, as tests/mutants.py builds them --

def test_duplicate_eigen_key_reads_the_first():
    prem = (_boxed_premise(),)
    concl = _boxed().conclusion
    first = ProofNode("boxR", (("x", "x"), ("x", None)), concl, prem)
    assert _measures(first) == (3, 3, 1, 0)
    second = ProofNode("boxR", (("x", None), ("x", "x")), concl, prem)
    assert _measures(second) == (3, 3, 0, 0)


def test_parameter_given_twice_is_a_params_violation():
    # |- box (p0 -> p0) at [] by boxR over a valid premise, with a second x
    prem = imp_right(ax(pf(P0, X)))
    assert check_proof(box_right(prem, "x"), SystemId.K).accepted
    n = ProofNode("boxR", (("x", "x"), ("x", "y")), box_right(prem, "x").conclusion,
                  (prem,))
    assert [(v.condition, v.message) for v in check_rule_instance(n, SystemId.K)] \
        == [("params", "parameter 'x' given twice")]
    assert not check_proof(n, SystemId.K).accepted


def test_missing_eigen_token_counts_no_eigen_rule():
    n = ProofNode("boxR", (("alpha", E),), _boxed().conclusion, (_boxed_premise(),))
    assert _measures(n) == (3, 3, 0, 0)
    assert [(v.condition, v.message) for v in check_rule_instance(n, SystemId.K)] \
        == [("params", "missing eigen token")]


def test_missing_or_ill_typed_cut_formula_has_rank_minus_one():
    good = apply_rule("cut", (_boxed(), ax(pf(Box(P0), E))), cutf=pf(Box(P0), E))
    for params in ((), (("cutf", "box p0"),), (("cutf", None), ("cutf", pf(Box(P0), E)))):
        n = ProofNode("cut", params, good.conclusion, good.premises)
        assert _measures(n) == (4, 5, 1, -1), params
    dup = ProofNode("cut", (("cutf", pf(P0, E)), ("cutf", None)),
                    good.conclusion, good.premises)
    assert _measures(dup) == (4, 5, 1, 1)


# -- immutability, equality, hashing, repr --

@pytest.mark.parametrize("make", [lambda: ax(pf(P0, E)),
                                  lambda: ScriptNode("ax", (), seq())],
                         ids=["proof", "script"])
def test_nodes_refuse_assignment(make):
    n = make()
    names = ("rule", "params", "conclusion", "premises" if isinstance(n, ProofNode)
             else "children", "height", "other")
    for name in names:
        with pytest.raises(AttributeError):
            setattr(n, name, None)
    with pytest.raises(AttributeError):
        del n.rule
    assert n.rule == "ax"


def test_equality_and_hash_read_the_tree():
    a, b = _boxed(), _boxed()
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.rule, a.params, a.conclusion, 1))
    other = ProofNode("boxR", a.params, a.conclusion, (ax(pf(P0, X)),))
    assert a != other
    assert ProofNode("ax", (), a.conclusion) != ScriptNode("ax", (), a.conclusion)
    s1 = ScriptNode("ax", (), a.conclusion)
    assert s1 == ScriptNode("ax", (), a.conclusion)
    assert hash(s1) == hash(("ax", (), a.conclusion, 0))
    assert len({a, b, other}) == 2


def test_copies_and_pickles_rebuild_the_node():
    a = apply_rule("cut", (_boxed(), ax(pf(Box(P0), E))), cutf=pf(Box(P0), E))
    s = ScriptNode("bridge", (), a.conclusion, (ScriptNode("ax", (), a.conclusion),))
    for n in (a, s):
        for b in (copy.copy(n), copy.deepcopy(n), pickle.loads(pickle.dumps(n))):
            assert type(b) is type(n) and b == n
    assert _measures(pickle.loads(pickle.dumps(a))) == _measures(a)


def test_repr_of_a_small_node():
    leaf = ax(pf(P0, E))
    side = "(PFormula(formula=Prop(name='p0'), pos=SeqPos(items=())),)"
    concl = f"Sequent(ant={side}, suc={side})"
    assert repr(leaf) == f"ProofNode(rule='ax', params=(), conclusion={concl}, premises=())"
    assert repr(ProofNode("bridge", (), leaf.conclusion, (leaf,))) == \
        f"ProofNode(rule='bridge', params=(), conclusion={concl}, premises=({repr(leaf)},))"
    up = ProofNode("weakL", (("pf", pf(P0, E)),), leaf.conclusion, (leaf,))
    assert repr(up) == (f"ProofNode(rule='weakL', params=(('pf', {side[1:-2]}),), "
                        f"conclusion={concl}, premises=({repr(leaf)},))")


# -- one-node proofs of every rule name --

_EMPTY = {SeqPos: SeqPos(), SetPos: SetPos(), LtlPos: LtlPos(), PastPos: PastPos()}
EXTRA = ("bridge", "premise", "nosuch")


def one_node_cases():
    """(system, rule, variant, node) for every name of every system plus
    ``bridge``, ``premise`` and an unknown name: an axiom-shaped and an
    empty conclusion without parameters, and the axiom shape with an
    eigen token declared."""
    for sys in SystemId:
        e = _EMPTY[TABLE[sys].family]
        axiom = Sequent((pf(P0, e),), (pf(P0, e),))
        for rule in RULES_BY_SYSTEM[sys] + EXTRA:
            yield sys, rule, "axiom", ProofNode(rule, (), axiom)
            yield sys, rule, "empty", ProofNode(rule, (), Sequent())
            yield sys, rule, "x", ProofNode(rule, (("x", "a"),), axiom)


def record() -> list[dict]:
    return [{"system": sys.value, "rule": rule, "variant": variant,
             "failures": [[list(v.path), v.rule, v.condition, v.message]
                          for v in check_proof(n, sys).failures]}
            for sys, rule, variant, n in one_node_cases()]


def test_one_node_proofs_match_golden():
    gold = json.loads(GOLDEN.read_text())
    got = record()
    assert len(got) == len(gold) == 3 * sum(len(r) + 3 for r in RULES_BY_SYSTEM.values())
    for have, want in zip(got, gold):
        assert have == want


if __name__ == "__main__":
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in record()) + "\n]\n")
