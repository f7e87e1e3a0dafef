"""Proof transformations: each output re-checks and relates to its input."""

import pytest

from twoseq.calculus import (ProofNode, SystemId, and_right, apply_rule, ax, box_right,
                             check_proof, eigen_token, iter_nodes, seq)
from twoseq.errors import TransformError
from twoseq.positions import (LtlPos, PastPos, SetPos, prefix_replace,
                              seqpos)
from twoseq.syntax import Box, Imp, Prop, Sequent, pf
from twoseq.transform import (canonical_rename, compose_mp, ind_to_axiom,
                              lift_proof, necessitate, prefix_replace_proof,
                              rename_eigen)
import twoseq.corpus as corpus

P0, P1 = Prop("p0"), Prop("p1")
E = seqpos()


def eigen_tokens(p):
    return [eigen_token(n) for _, n in iter_nodes(p) if eigen_token(n)]


def subst_sequent(s: Sequent, u, v) -> Sequent:
    return Sequent(tuple(pf(q.formula, prefix_replace(q.pos, u, v)) for q in s.ant),
                   tuple(pf(q.formula, prefix_replace(q.pos, u, v)) for q in s.suc))


# -- renaming --

def test_rename_single_eigen_gets_b0():
    out = rename_eigen(corpus.axiom_k(), SystemId.K)
    assert eigen_tokens(out) == ["b0"]
    assert check_proof(out, SystemId.K).accepted
    assert out.conclusion == corpus.axiom_k().conclusion


def test_rename_duplicated_subproofs_get_distinct_tokens():
    half = box_right(apply_rule("boxL", (ax(pf(P0, seqpos("x"))),), step=seqpos("x")), "x")
    both = and_right(half, half)
    assert not check_proof(both, SystemId.S4).accepted
    out = canonical_rename(both)
    assert sorted(eigen_tokens(out)) == ["b0", "b1"]
    assert check_proof(out, SystemId.S4).accepted
    assert out.conclusion == both.conclusion


def test_rename_idempotent():
    for sysid in (SystemId.K, SystemId.S4, SystemId.LTL):
        for name, p in corpus.entries(sysid):
            once = rename_eigen(p, sysid)
            assert rename_eigen(once, sysid) == once, (sysid, name)


def test_rename_no_eigens_is_stable():
    p = corpus.axiom_t()
    assert rename_eigen(p, SystemId.T) == p


def test_rename_rejects_ill_formed():
    from twoseq.calculus import node
    bad = node("boxR", {"alpha": E, "x": "x"},
               seq((), (pf(Box(P0), E),)), (ax(pf(P1, E)),))
    with pytest.raises(TransformError):
        rename_eigen(bad, SystemId.S4)


# -- prefix replacement --

def test_prefix_replace_axiom_base_case():
    p = ax(pf(P0, seqpos("x")))
    out = prefix_replace_proof(p, seqpos("x"), seqpos("y", "w"), SystemId.S4)
    assert out.conclusion == seq((pf(P0, seqpos("y", "w")),),
                                 (pf(P0, seqpos("y", "w")),))


def test_prefix_replace_absent_position_is_identity_mod_renaming():
    p = corpus.axiom_k()
    out = prefix_replace_proof(p, seqpos("nope"), seqpos("z"), SystemId.K)
    assert out == rename_eigen(p, SystemId.K)


def test_prefix_replace_rewrites_conclusion_and_rechecks():
    p = corpus.axiom_d()
    lifted = lift_proof(p, seqpos("v"), SystemId.D)     # everything under [v]
    out = prefix_replace_proof(lifted, seqpos("v"), seqpos("a", "b"), SystemId.D)
    want = subst_sequent(lifted.conclusion, seqpos("v"), seqpos("a", "b"))
    assert out.conclusion == want
    assert check_proof(out, SystemId.D).accepted


def test_prefix_replace_needs_nonempty_source():
    with pytest.raises(TransformError):
        prefix_replace_proof(corpus.axiom_d(), seqpos(), seqpos("y"), SystemId.D)


@pytest.mark.parametrize("sysid,build", [(SystemId.S42, corpus.s42_axiom),
                                         (SystemId.LTL, corpus.ltl_a2),
                                         (SystemId.LTLP, corpus.tense_hist_dia)],
                         ids=["S42", "LTL", "LTLP"])
def test_prefix_replace_refuses_non_sequence_systems(sysid, build):
    with pytest.raises(TransformError, match="sequence-position systems"):
        prefix_replace_proof(build(), seqpos("e"), seqpos("f", "g"), sysid)


# -- lifting --

def test_lift_modal_example():
    p = corpus.axiom_d()
    out = lift_proof(p, seqpos("y"), SystemId.D)
    assert out.conclusion == subst_sequent(p.conclusion, seqpos(), seqpos("y"))
    assert check_proof(out, SystemId.D).accepted


def test_lift_by_empty_is_identity():
    p = corpus.axiom_k()
    assert lift_proof(p, seqpos(), SystemId.K) == p


_UNITS = [(SystemId.K, seqpos(), corpus.axiom_k),
          (SystemId.S42, SetPos(), corpus.s42_axiom),
          (SystemId.LTL, LtlPos(), corpus.ltl_a8)]


def _bad_axiom(pos) -> ProofNode:
    # an axiom whose two sides differ
    return ProofNode("ax", (), seq((pf(P0, pos),), (pf(P1, pos),)), ())


@pytest.mark.parametrize("sysid, unit, build", _UNITS, ids=[s.value for s, *_ in _UNITS])
def test_lift_by_the_unit_returns_the_proof_itself(sysid, unit, build):
    p = build()
    assert lift_proof(p, unit, sysid) is p
    with pytest.raises(TransformError, match="^ill-formed proof"):
        lift_proof(_bad_axiom(unit), unit, sysid)


@pytest.mark.parametrize("by", [PastPos(), PastPos(1, frozenset("x"))])
def test_lift_in_ltlp_is_refused_after_the_repair_check(by):
    with pytest.raises(TransformError, match="^ill-formed proof"):
        lift_proof(_bad_axiom(PastPos()), by, SystemId.LTLP)
    with pytest.raises(TransformError,
                       match="^lifting is not defined for past positions$"):
        lift_proof(corpus.tense_next_prev(), by, SystemId.LTLP)


def test_lift_ltl_example():
    p = corpus.ltl_a8()
    out = lift_proof(p, LtlPos(1, frozenset()), SystemId.LTL)
    assert out.conclusion.suc[0].pos == LtlPos(1, frozenset())
    assert check_proof(out, SystemId.LTL).accepted


def test_lift_all_corpus_modal():
    for sysid in (SystemId.K, SystemId.D, SystemId.T, SystemId.K4, SystemId.S4):
        for name, p in corpus.entries(sysid):
            out = lift_proof(p, seqpos("v"), sysid)
            assert check_proof(out, sysid).accepted, (sysid, name)


def test_lift_family_mismatch():
    with pytest.raises(TransformError):
        lift_proof(corpus.axiom_d(), LtlPos(1, frozenset()), SystemId.D)
    with pytest.raises(TransformError):
        lift_proof(corpus.tense_next_prev(), LtlPos(), SystemId.LTLP)


def test_lift_s42_by_union():
    p = corpus.s42_axiom()
    from twoseq.positions import setpos
    out = lift_proof(p, setpos("v"), SystemId.S42)
    assert out.conclusion.suc[0].pos == setpos("v")
    assert check_proof(out, SystemId.S42).accepted


# -- necessitation --

def test_necessitate_axiom_t():
    out = necessitate(corpus.axiom_t(), SystemId.T)
    assert out.conclusion == seq((), (pf(Box(Imp(Box(P0), P0)), E),))
    assert check_proof(out, SystemId.T).accepted


def test_necessitate_twice():
    once = necessitate(corpus.axiom_t(), SystemId.T)
    twice = necessitate(once, SystemId.T)
    assert isinstance(twice.conclusion.suc[0].formula, Box)
    assert isinstance(twice.conclusion.suc[0].formula.sub, Box)
    assert check_proof(twice, SystemId.T).accepted


def test_necessitate_rejects_wrong_shape():
    with pytest.raises(TransformError):
        necessitate(ax(pf(P0, E)), SystemId.K)      # nonempty antecedent
    with pytest.raises(TransformError):
        necessitate(ax(pf(P0, seqpos("x"))), SystemId.K)


def test_necessitate_all_systems():
    for sysid in (SystemId.K, SystemId.D, SystemId.T, SystemId.K4, SystemId.S4):
        out = necessitate(corpus.axiom_k(), sysid)
        assert check_proof(out, sysid).accepted, sysid


# -- modus ponens --

def test_compose_mp_examples():
    for sysid in (SystemId.K, SystemId.S4):
        out = corpus.mp_example(sysid)
        assert out.conclusion == seq((), (pf(Imp(P0, P0), E),))
        assert check_proof(out, sysid).accepted


def test_compose_mp_at_nonempty_position():
    x = seqpos("x")
    pab = corpus.taut(Imp(P0, P0), x)
    pa = corpus.taut(P0, x)
    out = compose_mp(pab, pa, SystemId.K)
    assert out.conclusion == seq((), (pf(Imp(P0, P0), x),))
    assert check_proof(out, SystemId.K).accepted


def test_compose_mp_rejects_mismatch():
    with pytest.raises(TransformError):
        compose_mp(corpus.taut(P0), corpus.taut(P1), SystemId.K)


# -- induction translation --

def test_ind_to_axiom_a8():
    src = corpus.ltl_a8()
    out = ind_to_axiom(src)
    assert out.conclusion == src.conclusion
    assert check_proof(out, SystemId.LTL_INDAX).accepted
    assert all(n.rule != "ind" for _, n in iter_nodes(out))


def test_ind_to_axiom_blocked_cut():
    src = corpus.ltl_blocked_cut()
    out = ind_to_axiom(src)
    assert out.conclusion == src.conclusion
    assert check_proof(out, SystemId.LTL_INDAX).accepted


def test_ind_to_axiom_identity_on_ind_free():
    src = corpus.ltl_a4()
    assert ind_to_axiom(src) == src


def test_prefix_replace_inverse_composition_gives_canonical_form():
    # a same-length replacement is a renaming; undoing it lands on the
    # canonical form of the input
    p = corpus.axiom_d()
    there = prefix_replace_proof(p, seqpos("x"), seqpos("y"), SystemId.D)
    back = prefix_replace_proof(there, seqpos("y"), seqpos("x"), SystemId.D)
    assert back == rename_eigen(p, SystemId.D)


# -- pinned outputs --

def test_transform_pins():
    import json
    import transform_pins
    want = json.loads(transform_pins.GOLDEN.read_text())
    got = transform_pins.record()
    assert len(got) == len(want) == 215
    for g, w in zip(got, want):
        assert g == w


# sha256 prefix of every rendered output of two scoped renamings in a row,
# through one fresh-token source per proof, over the seed-2026 suite
_SCOPED_DIGESTS = {
    SystemId.K: "ae6e7f3acdb9603d",
    SystemId.D: "ec5734a721b03afb",
    SystemId.T: "da38e2f38d5a3e17",
    SystemId.K4: "68fdb627854a6c5c",
    SystemId.S4: "d0e0d1cd19d76f79",
}


@pytest.mark.parametrize("sysid", list(_SCOPED_DIGESTS), ids=lambda s: s.value)
def test_scoped_rename_is_pinned(sysid):
    from proofgen import generate_suite
    from transform_pins import digest
    from twoseq.calculus import proof_tokens
    from twoseq.parser import render_proof
    from twoseq.transform import FreshTokenSource, _scoped_rename
    out = []
    for p in generate_suite(sysid, 100, seed=2026):
        source = FreshTokenSource(proof_tokens(p))
        # the second renaming draws on from where the first stopped
        for _ in range(2):
            out.append(render_proof(sysid, _scoped_rename(p, source)))
    assert digest("\n".join(out)) == _SCOPED_DIGESTS[sysid]


@pytest.mark.parametrize("sysid", list(_SCOPED_DIGESTS), ids=lambda s: s.value)
def test_pending_rename_reads_like_the_eager_one(sysid):
    """At every node of a pending renaming, what is read, what is
    materialised and a second renaming equal the eager renaming's, from
    the same draws; a second renaming keeps the node, so it rebuilt
    nothing."""
    import copy
    from proofgen import generate_suite
    from twoseq.calculus import ProofNode, proof_tokens
    from twoseq.transform import FreshTokenSource, _scoped_rename, materialise

    def state(src):
        return src._n, src._avoid

    nodes = views = 0
    for p in generate_suite(sysid, 100, seed=2026):
        lazy = FreshTokenSource(proof_tokens(p))
        eager = copy.deepcopy(lazy)
        todo = [(_scoped_rename(p, lazy, True), _scoped_rename(p, eager))]
        while todo:
            view, built = todo.pop()
            assert materialise(view) == built
            assert (view.rule, view.params, view.conclusion, view.height,
                    view.size, view.eigens, view.cut_rank) == \
                (built.rule, built.params, built.conclusion, built.height,
                 built.size, built.eigens, built.cut_rank)
            again = _scoped_rename(view, lazy, True)
            assert materialise(again) == _scoped_rename(built, eager)
            assert state(lazy) == state(eager)
            if type(view) is ProofNode:
                # nothing to rename: the subtree passes through as it is
                assert view is built and again is view
            else:
                assert again.node is view.node and again.scope is view.scope
                views += 1
            nodes += 1
            todo.extend(zip(view.premises, built.premises))
    assert views > 300 and nodes > views


# -- depth: every walk keeps its own stack --

_DEEP = """
import sys
from twoseq.calculus import (SystemId, apply_rule, apply_structural, ax, box_right,
                             check_proof, proof_tokens, weak_left)
from twoseq.cutelim import is_cut_free
from twoseq.positions import seqpos
from twoseq.syntax import Not, Prop, is_subformula, pf
from twoseq.transform import canonical_rename, lift_proof

N = 100_000
P0, P1, E = Prop("p0"), Prop("p1"), seqpos()


def chain(eigen):
    # box p0 @ [], p1 @ [] |- box p0 @ []: a boxL/boxR leaf, then N exchanges
    leaf = box_right(apply_rule("boxL", (ax(pf(P0, seqpos(eigen))),), step=seqpos(eigen)), eigen)
    p = weak_left(leaf, pf(P1, E))
    for _ in range(N):
        p = apply_structural("excL", p, 0)
    return p


def leaf(p):
    while p.rule != "boxR":
        p = p.premises[0]
    return p


op = sys.argv[1]
if op == "is_subformula":
    f = P0
    for _ in range(N):
        f = Not(f)
    assert is_subformula(pf(P0, E), pf(f, E))
    assert not is_subformula(pf(P1, E), pf(f, E))
    sys.exit(0)
p = chain("x")
if op == "canonical_rename":
    out = canonical_rename(p)
    assert out.conclusion == p.conclusion and leaf(out).param("x") == "b0"
elif op == "lift_proof":
    out = lift_proof(p, seqpos("e"), SystemId.S4)
    assert {q.pos for q in out.conclusion.pformulas()} == {seqpos("e")}
    assert check_proof(out, SystemId.S4).accepted
elif op == "ProofNode ==":
    q = chain("x")
    assert p is not q and p == q and hash(p) == hash(q)
    assert p != chain("y")
elif op == "is_cut_free":
    assert is_cut_free(p)
elif op == "proof_tokens":
    assert proof_tokens(p) == {"x"}
"""


@pytest.mark.parametrize("op", ["canonical_rename", "lift_proof", "ProofNode ==",
                                "is_subformula", "is_cut_free", "proof_tokens"])
def test_depth_100k_in_a_fresh_interpreter(op):
    import os
    import subprocess
    import sys
    from pathlib import Path
    import twoseq
    src = str(Path(twoseq.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _DEEP, op], capture_output=True,
                         text=True, timeout=300, env={**os.environ, "PYTHONPATH": src})
    assert (out.returncode, out.stderr) == (0, "")
