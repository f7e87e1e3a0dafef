"""Lasso-word semantics and the temporal checking entry points."""

import random

import pytest

from strategies import random_ltl_formula
from twoseq.calculus import (ProofNode, SystemId, check_proof, check_rule_instance,
                             pind, seq, weak_left)
from twoseq.cutelim import eliminate_cuts
from twoseq.errors import TwoseqError, UnsupportedSystemError
from twoseq.ltl import (LassoWord, a_value, eval_at, exhaustive_valuations,
                        ltl_soundness_fuzz, sequent_satisfied)
from twoseq.positions import LtlPos, ltl_token, pastpos
from twoseq.semantics import _Lasso, forces
from twoseq.syntax import (And, Box, Dia, Imp, Next, Not, Once, Prop, pf,
                           temporal_depth)
import twoseq.corpus as corpus

P = Prop("p")
P0 = Prop("p0")
L0 = LtlPos()


def _lasso(rng: random.Random) -> LassoWord:
    """A word over p0 and p1 as the fuzzer draws it."""
    return _Lasso.draw(rng, SystemId.LTL, ("p0", "p1")).model()


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
    # a negative token value is refused, also where the steps would outweigh it
    for steps, value in ((0, -1), (1, -3), (5, -3)):
        s = seq((), (pf(P0, LtlPos(steps, frozenset("x"))),))
        with pytest.raises(TwoseqError, match=f"a token value must be at least 0, not {value}"):
            sequent_satisfied(w, {"x": value}, s)


def test_times_that_are_no_natural_numbers_are_refused():
    w = LassoWord((frozenset(),), (frozenset({"p0"}),))
    for t in ("n0", 1.5, True):
        with pytest.raises(TwoseqError, match=f"time point is a natural number, not {t!r}"):
            forces(w, SystemId.LTL, t, P0)
        with pytest.raises(TwoseqError, match=f"not {t!r}"):
            eval_at(w, t, P0)
    s = seq((), (pf(P0, LtlPos(1, frozenset("x"))),))
    for v in ("n0", 0.5, True):
        with pytest.raises(TwoseqError, match=f"a token value is a natural number, not {v!r}"):
            sequent_satisfied(w, {"x": v}, s)


def test_eval_at_next_shift_law():
    rng = random.Random(9)
    for _ in range(200):
        w = _lasso(rng)
        f = random_ltl_formula(rng, 2)
        m = rng.randint(0, len(w.prefix) + len(w.loop))
        assert eval_at(w, m, Next(f)) == eval_at(w, m + 1, f)
        if eval_at(w, m, Box(f)):
            n = rng.randint(m, m + 6)
            assert eval_at(w, n, f)


def run_eval_oracle_fuzz(iterations: int, seed: int) -> int:
    rng = random.Random(seed)
    for i in range(iterations):
        w = _lasso(rng)
        f = random_ltl_formula(rng, 3)
        m = rng.randint(0, len(w.prefix) + len(w.loop))
        assert eval_at(w, m, f) == eval_unrolled(w, m, f), (w, m, f)
    return iterations


def test_eval_agrees_with_unrolling_oracle_small():
    assert run_eval_oracle_fuzz(300, 4) == 300


def test_check_ltl_variants():
    a8 = corpus.ltl_a8()
    assert check_proof(a8, SystemId.LTL).accepted
    rep = check_proof(a8, SystemId.LTL_INDAX)
    assert not rep.accepted
    assert any(v.rule == "ind" for v in rep.failures)
    translated = corpus.ltl_a8_via_axiom()
    assert check_proof(translated, SystemId.LTL_INDAX).accepted
    assert not check_proof(corpus.indax_instance(), SystemId.LTL).accepted


def test_check_ltl_a2_and_friends():
    for name, proof in corpus.entries(SystemId.LTL):
        assert check_proof(proof, SystemId.LTL).accepted, name


def test_check_past_proofs():
    for name, proof in corpus.entries(SystemId.LTLP):
        assert check_proof(proof, SystemId.LTLP).accepted, name


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
    rep = check_proof(n, SystemId.LTLP)
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
        w = _lasso(rng)
        f = random_ltl_formula(rng, 2)
        m = rng.randint(0, len(w.prefix) + 2 * len(w.loop))
        indax_formula = Imp(And(f, Box(Imp(f, Next(f)))), Box(f))
        assert eval_at(w, m, indax_formula)


def run_subltl_check(iterations: int, seed: int) -> int:
    rng = random.Random(seed)
    for _ in range(iterations):
        w = _lasso(rng)
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
        assert check_proof(out, SystemId.LTL_INDAX).accepted, name


def test_blocked_cut_checks_but_elimination_refused():
    p = corpus.ltl_blocked_cut()
    assert check_proof(p, SystemId.LTL).accepted
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
