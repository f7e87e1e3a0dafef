"""Lasso-word semantics and the temporal checking entry points."""

import random

import pytest

from strategies import random_ltl_formula
from twoseq.calculus import (ProofNode, SystemId, check_proof, check_rule_instance,
                             pind, seq, weak_left)
from twoseq.cutelim import eliminate_cuts
from twoseq.errors import TwoseqError, UnsupportedSystemError
from twoseq.ltl import (LassoWord, a_value, check_ltl_proof, check_past_proof,
                        eval_at, exhaustive_valuations, ltl_soundness_fuzz,
                        random_lasso, sequent_satisfied)
from twoseq.positions import LtlPos, ltl_token, pastpos
from twoseq.syntax import (And, Box, Dia, Imp, Next, Not, Once, Prop, pf,
                           temporal_depth)
import twoseq.corpus as corpus

P = Prop("p")
P0 = Prop("p0")
L0 = LtlPos()


def eval_unrolled(w: LassoWord, m: int, f) -> bool:
    """Oracle: brute-force unrolling, each box/dia checking one full
    prefix-plus-two-loops window from its own time point."""
    horizon = len(w.prefix) + 2 * len(w.loop)
    if isinstance(f, Prop):
        return f.name in w.letter(m)
    if isinstance(f, Not):
        return not eval_unrolled(w, m, f.sub)
    if isinstance(f, And):
        return eval_unrolled(w, m, f.left) and eval_unrolled(w, m, f.right)
    if isinstance(f, Imp):
        return (not eval_unrolled(w, m, f.left)) or eval_unrolled(w, m, f.right)
    if isinstance(f, Next):
        return eval_unrolled(w, m + 1, f.sub)
    if isinstance(f, Box):
        return all(eval_unrolled(w, n, f.sub) for n in range(m, m + horizon + 1))
    if isinstance(f, Dia):
        return any(eval_unrolled(w, n, f.sub) for n in range(m, m + horizon + 1))
    from twoseq.syntax import Or
    if isinstance(f, Or):
        return eval_unrolled(w, m, f.left) or eval_unrolled(w, m, f.right)
    raise AssertionError(f)


def test_a_value_examples():
    assert a_value({"x": 2}, LtlPos(1, frozenset("x"))) == 3
    assert a_value({}, L0) == 0
    assert a_value({"x": 1, "y": 4}, LtlPos(2, frozenset({"x", "y"}))) == 7


def test_eval_at_examples():
    const = LassoWord((), (frozenset({"p"}),))
    assert eval_at(const, 0, Box(P))
    once = LassoWord((frozenset({"p"}),), (frozenset(),))
    assert eval_at(once, 0, P)
    assert not eval_at(once, 0, Box(P))
    assert eval_at(once, 0, Dia(P))
    shifted = LassoWord((frozenset(), frozenset({"p"})), (frozenset(),))
    assert eval_at(shifted, 0, Next(P))


def test_eval_at_rejects_past():
    with pytest.raises(TwoseqError):
        eval_at(LassoWord((), (frozenset(),)), 0, Once(P))


def test_negative_times_and_token_values_are_refused():
    w = LassoWord((frozenset(),), (frozenset({"p0"}),))
    with pytest.raises(TwoseqError, match="time point must be at least 0, not -1"):
        eval_at(w, -1, P0)
    s = seq((), (pf(P0, LtlPos(0, frozenset("x"))),))
    with pytest.raises(TwoseqError, match="time point must be at least 0, not -1"):
        sequent_satisfied(w, {"x": -1}, s)
    with pytest.raises(TwoseqError, match="not -2"):
        sequent_satisfied(w, {"x": -3}, seq((), (pf(P0, LtlPos(1, frozenset("x"))),)))


def test_eval_at_next_shift_law():
    rng = random.Random(9)
    for _ in range(200):
        w = random_lasso(rng, ("p0", "p1"))
        f = random_ltl_formula(rng, 2)
        m = rng.randint(0, len(w.prefix) + len(w.loop))
        assert eval_at(w, m, Next(f)) == eval_at(w, m + 1, f)
        if eval_at(w, m, Box(f)):
            n = rng.randint(m, m + 6)
            assert eval_at(w, n, f)


def run_eval_oracle_fuzz(iterations: int, seed: int) -> int:
    rng = random.Random(seed)
    for i in range(iterations):
        w = random_lasso(rng, ("p0", "p1"))
        f = random_ltl_formula(rng, 3)
        m = rng.randint(0, len(w.prefix) + len(w.loop))
        assert eval_at(w, m, f) == eval_unrolled(w, m, f), (w, m, f)
    return iterations


def test_eval_agrees_with_unrolling_oracle_small():
    assert run_eval_oracle_fuzz(300, 4) == 300


def test_check_ltl_variants():
    a8 = corpus.ltl_a8()
    assert check_ltl_proof(a8, "ind").accepted
    rep = check_ltl_proof(a8, "indax")
    assert not rep.accepted
    assert any(v.rule == "ind" for v in rep.failures)
    translated = corpus.ltl_a8_via_axiom()
    assert check_ltl_proof(translated, "indax").accepted
    assert not check_ltl_proof(corpus.indax_instance(), "ind").accepted


def test_check_ltl_a2_and_friends():
    for name, proof in corpus.entries(SystemId.LTL):
        assert check_ltl_proof(proof, "ind").accepted, name


def test_check_past_proofs():
    for name, proof in corpus.entries(SystemId.LTLP):
        assert check_past_proof(proof).accepted, name


def test_pind_constructor_builds_a_past_induction_instance():
    # A at s-x |- A at s-x-1 over one node: pind reads s off the premise
    # and concludes A at s |- A at s-t
    a, down = Prop("p0"), pastpos(0, ("x",))
    prem = ProofNode("premise", (), seq((pf(a, down),), (pf(a, pastpos(-1, ("x",))),)))
    n = pind(prem, "x", ltl_token("z"))
    assert n.conclusion == seq((pf(a, pastpos()),), (pf(a, pastpos(0, ("z",))),))
    assert dict(n.params) == {"alpha": pastpos(), "x": "x", "t": ltl_token("z")}
    assert check_rule_instance(n, SystemId.LTLP) == []
    rep = check_proof(n, SystemId.LTL)
    assert [v.message for v in rep.failures if v.path == () and v.condition == "schema"] \
        == ["rule pind is not part of this system"]


def test_past_proof_with_reused_eigen_token_rejected():
    from twoseq.calculus import ax, box_right, imp_right, once_right
    base = pastpos()
    n = once_right(ax(pf(P0, base)), pastpos(0, (), ("x",)),
                   LtlPos(0, frozenset("x")))
    n = weak_left(n, pf(Prop("p1"), pastpos(0, ("x",))))
    n = box_right(n, "x")                   # eigen token already in context
    rep = check_past_proof(n)
    assert not rep.accepted
    assert any(v.condition == "eigen-position" for v in rep.failures)


def test_ltl_fuzz_axioms_clean():
    for name, proof in corpus.entries(SystemId.LTL):
        if name == "blocked-cut":
            continue
        v = ltl_soundness_fuzz(proof.conclusion, 150, 1)
        assert v.ok, name


def test_ltl_fuzz_finds_next_counterexample():
    s = seq((), (pf(Imp(Next(P0), P0), L0),))
    v = ltl_soundness_fuzz(s, 50, 1)
    assert not v.ok and v.tried <= 50
    assert not sequent_satisfied(v.word, v.valuation, s)


def test_hand_counterexample_for_next():
    w = LassoWord((frozenset(),), (frozenset({"p0"}),))
    s = seq((), (pf(Imp(Next(P0), P0), L0),))
    assert not sequent_satisfied(w, {}, s)


def test_indax_semantically_valid():
    rng = random.Random(6)
    for _ in range(300):
        w = random_lasso(rng, ("p0", "p1"))
        f = random_ltl_formula(rng, 2)
        m = rng.randint(0, len(w.prefix) + 2 * len(w.loop))
        indax_formula = Imp(And(f, Box(Imp(f, Next(f)))), Box(f))
        assert eval_at(w, m, indax_formula)


def run_subltl_check(iterations: int, seed: int) -> int:
    rng = random.Random(seed)
    for _ in range(iterations):
        w = random_lasso(rng, ("p0", "p1"))
        f = random_ltl_formula(rng, 2)
        s = LtlPos(rng.randint(0, 2), frozenset(rng.sample(["x", "y"],
                                                           rng.randint(0, 2))))
        a = {t: rng.randint(0, 3) for t in s.future}
        base = a_value(a, s)
        bound = len(w.prefix) + 2 * len(w.loop) + temporal_depth(f)
        lhs = eval_at(w, base, Box(f))
        rhs = all(eval_at(w, a_value({**a, "fresh": n},
                                     LtlPos(s.steps, s.future | {"fresh"})), f)
                  for n in range(bound + 1))
        assert lhs == rhs
    return iterations


def test_subltl_lemma_small():
    assert run_subltl_check(300, 7) == 300


def test_ind_to_axiom_round_trip_recheck():
    for name, proof in corpus.entries(SystemId.LTL):
        if name == "blocked-cut":
            continue
        from twoseq.transform import ind_to_axiom
        out = ind_to_axiom(proof)
        assert out.conclusion == proof.conclusion, name
        assert check_ltl_proof(out, "indax").accepted, name


def test_blocked_cut_checks_but_elimination_refused():
    p = corpus.ltl_blocked_cut()
    assert check_ltl_proof(p, "ind").accepted
    with pytest.raises(UnsupportedSystemError):
        eliminate_cuts(p, SystemId.LTL)


def _valuations(tokens, bound):
    # the first token varies fastest; keys are added last token first
    if not tokens:
        yield {}
        return
    for a in _valuations(tokens[1:], bound):
        for v in range(bound + 1):
            yield {**a, tokens[0]: v}


@pytest.mark.parametrize("bound", range(4))
@pytest.mark.parametrize("n", range(4))
def test_exhaustive_valuations_order_and_key_order(n, bound):
    tokens = ("x", "y", "z")[:n]
    got = list(exhaustive_valuations(tokens, bound))
    want = list(_valuations(tokens, bound))
    assert got == want and [list(a) for a in got] == [list(a) for a in want]
    assert len(got) == (bound + 1) ** n


def test_exhaustive_valuations():
    out = list(exhaustive_valuations(("x", "y"), 1))
    assert len(out) == 4
    assert {"x": 0, "y": 1} in out
