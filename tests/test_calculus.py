"""Rule engine: local instances, constraint matrix, bridges, token discipline."""

import pytest

from twoseq.calculus import (ProofNode, SystemId, ax, box_left, box_right,
                             bridge_proof, check_proof, check_rule_instance,
                             cut, expand_double_lines, node, seq,
                             structural_bridge, weak_left)
from twoseq.errors import BridgeError
from twoseq.parser import parse_proof
from twoseq.positions import seqpos
from twoseq.syntax import Box, Prop, pf
from twoseq.transform import canonical_rename
import twoseq.corpus as corpus

P0, P1 = Prop("p0"), Prop("p1")
E = seqpos()
X = seqpos("x")


def find_node(p: ProofNode, rule: str) -> ProofNode:
    if p.rule == rule:
        return p
    for c in p.premises:
        try:
            return find_node(c, rule)
        except LookupError:
            pass
    raise LookupError(rule)


# -- local rule instances --

def test_dia_right_of_axiom_d_per_system():
    # box A at [] |- A at [x]  ==>  box A at [] |- dia A at []
    step = find_node(corpus.axiom_d(), "diaR")
    assert check_rule_instance(step, SystemId.D) == []
    bad = check_rule_instance(step, SystemId.K)
    assert [v.condition for v in bad] == ["context-demand"]
    assert check_rule_instance(step, SystemId.K4) != []
    assert check_rule_instance(step, SystemId.T) == []
    assert check_rule_instance(step, SystemId.S4) == []


def test_box_left_empty_step_per_system():
    step = find_node(corpus.axiom_t(), "boxL")
    assert check_rule_instance(step, SystemId.T) == []
    assert [v.condition for v in check_rule_instance(step, SystemId.D)] == \
        ["beta-shape"]
    assert check_rule_instance(step, SystemId.S4) == []


def test_unconstrained_cut_rejected_in_restricted_systems():
    root = corpus.diamond_taut_cut()
    assert root.rule == "cut"
    assert [v.condition for v in check_rule_instance(root, SystemId.K)] == \
        ["cut-position"]
    assert check_rule_instance(root, SystemId.D) == []


def test_malformed_parameters_are_violations_not_crashes():
    base = ax(pf(P0, E))
    wide = weak_left(base, pf(P1, E))
    bad = node("excL", {"at": 7}, wide.conclusion, (wide,))
    out = check_rule_instance(bad, SystemId.K)
    assert out and out[0].condition == "params"
    no_x = node("boxR", {"alpha": E},
                seq((), (pf(Box(P0), E),)),
                (node("ax", {}, seq((pf(P0, X),), (pf(P0, X),))),))
    assert any(v.condition == "params" for v in check_rule_instance(no_x, SystemId.S4))


def test_stray_parameters_are_params_violations():
    script = parse_proof("(proof K (rule negR (beta [x]) (x y) (concl |- ~p0 @ [], p0 @ [])"
                         " (rule ax (concl p0 @ [] |- p0 @ []))))")
    rep = check_proof(expand_double_lines(script), script.system)
    assert [(v.path, v.rule, v.condition, v.message) for v in rep.failures] == [
        ((), "negR", "params", "rule negR takes no parameter beta"),
        ((), "negR", "params", "rule negR takes no parameter x")]
    leaf = node("ax", {"at": 0}, seq((pf(P0, E),), (pf(P0, E),)))
    assert [v.message for v in check_rule_instance(leaf, SystemId.K)] == \
        ["rule ax takes no parameter at"]
    boxed = find_node(corpus.axiom_k(), "boxR")
    stray = node("boxR", dict(boxed.params, pf=pf(P0, E)), boxed.conclusion,
                 boxed.premises)
    assert check_rule_instance(boxed, SystemId.K) == []
    assert [v.message for v in check_rule_instance(stray, SystemId.K)] == \
        ["rule boxR takes no parameter pf"]


def test_eigen_condition_is_positional():
    # context formula extending the eigen position blocks the rule
    inner = ax(pf(P0, X))
    ctx = weak_left(inner, pf(P1, X))       # p1 at [x], context shares [x]
    bad = box_right(ctx, "x")
    out = check_rule_instance(bad, SystemId.S4)
    assert [v.condition for v in out] == ["eigen-position"]


# -- whole-proof checking --

def test_corpus_positive_matrix():
    for sysid in SystemId:
        for name, proof in corpus.entries(sysid):
            assert check_proof(proof, sysid).accepted, (sysid, name)


def test_corpus_negative_matrix():
    matrix = [
        (corpus.axiom_d(), (SystemId.K, SystemId.K4)),
        (corpus.axiom_t(), (SystemId.K, SystemId.D, SystemId.K4)),
        (corpus.axiom_4(), (SystemId.K, SystemId.D, SystemId.T)),
        (corpus.diamond_taut_cut(), (SystemId.K, SystemId.K4)),
    ]
    for proof, systems in matrix:
        for sysid in systems:
            assert not check_proof(proof, sysid).accepted, sysid


def test_axiom_d_rejection_names_the_dia_step():
    rep = check_proof(corpus.axiom_d(), SystemId.K)
    assert any(v.rule == "diaR" and v.condition == "context-demand"
               for v in rep.failures)


def test_axiom_4_rejected_in_k_for_its_two_token_step():
    rep = check_proof(corpus.axiom_4(), SystemId.K)
    assert any(v.rule == "boxL" and v.condition == "beta-shape"
               for v in rep.failures)


def test_token_condition_rejects_shared_eigen_tokens():
    # two box-right rules with the same eigen token
    left = box_right(box_left(ax(pf(P0, X)), X), "x")
    right = box_right(box_left(ax(pf(P0, X)), X), "x")
    from twoseq.calculus import and_right
    both = and_right(left, right)
    rep = check_proof(both, SystemId.S4)
    assert not rep.accepted
    assert any(v.condition == "token-condition" for v in rep.failures)
    # after renaming apart the proof is fine
    assert check_proof(canonical_rename(both), SystemId.S4).accepted


def test_check_proof_invariant_under_renaming():
    for sysid in SystemId:
        for name, proof in corpus.entries(sysid):
            renamed = canonical_rename(proof)
            assert check_proof(renamed, sysid).verdict == \
                check_proof(proof, sysid).verdict, (sysid, name)
    neg = corpus.axiom_4()
    assert not check_proof(canonical_rename(neg), SystemId.K).accepted


def test_temporal_connectives_rejected_in_modal_systems():
    from twoseq.syntax import Next
    from twoseq.positions import LtlPos
    n = node("ax", {}, seq((pf(Next(P0), LtlPos()),), (pf(Next(P0), LtlPos()),)))
    rep = check_proof(n, SystemId.LTL)
    assert rep.accepted
    rep_k = check_proof(node("ax", {}, seq((pf(Next(P0), E),), (pf(Next(P0), E),))),
                        SystemId.K)
    assert any(v.condition == "connective" for v in rep_k.failures)


def test_past_connectives_rejected_in_plain_ltl():
    from twoseq.syntax import Prev
    from twoseq.positions import LtlPos
    n = node("ax", {}, seq((pf(Prev(P0), LtlPos()),), (pf(Prev(P0), LtlPos()),)))
    assert any(v.condition == "connective"
               for v in check_proof(n, SystemId.LTL).failures)
    # and accepted with past positions in the past system
    from twoseq.positions import PastPos
    n2 = node("ax", {}, seq((pf(Prev(P0), PastPos()),), (pf(Prev(P0), PastPos()),)))
    assert check_proof(n2, SystemId.LTLP).accepted


def test_arity_violation():
    n = node("cut", {"cutf": pf(P0, E)}, seq(), (ax(pf(P0, E)),))
    assert any(v.condition == "arity" for v in check_rule_instance(n, SystemId.S4))


# -- bridges --

def test_bridge_single_weakening():
    frm = seq((pf(P0, X),), (pf(P1, X),))
    to = seq((pf(P0, X), pf(P1, E)), (pf(P1, X),))
    steps = structural_bridge(frm, to)
    assert [r for r, _ in steps] == ["weakL"]


def test_bridge_single_contraction():
    frm = seq((), (pf(P0, X), pf(P0, X)))
    to = seq((), (pf(P0, X),))
    steps = structural_bridge(frm, to)
    assert [r for r, _ in steps] == ["contrR"]


def test_bridge_cannot_delete():
    frm = seq((pf(P0, X),), ())
    to = seq((), (pf(P0, X),))
    with pytest.raises(BridgeError) as e:
        structural_bridge(frm, to)
    assert e.value.missing == pf(P0, X)


def test_bridge_proof_reorders_and_rechecks():
    base = ax(pf(P0, E))
    widened = weak_left(weak_left(base, pf(P1, E)), pf(Box(P0), E))
    target = seq((pf(Box(P0), E), pf(P0, E), pf(P1, E)), (pf(P0, E),))
    out = bridge_proof(widened, target)
    assert out.conclusion == target
    assert check_proof(out, SystemId.K).accepted


def test_bridge_duplication_via_weakening():
    base = ax(pf(P0, E))
    to = seq((pf(P0, E), pf(P0, E)), (pf(P0, E), pf(P1, X)))
    out = bridge_proof(base, to)
    assert out.conclusion == to
    assert check_proof(out, SystemId.S4).accepted


def test_expand_rejects_impossible_bridge():
    from twoseq.parser import parse_proof
    from twoseq.calculus import expand_double_lines
    text = """
    (proof K
      (bridge (concl |- p1 @ [])
        (rule ax (concl p0 @ [] |- p0 @ []))))
    """
    with pytest.raises(BridgeError) as e:
        expand_double_lines(parse_proof(text))
    assert "root" in str(e.value)
