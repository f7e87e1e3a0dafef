"""Formula measures: degree, the subformula decision, token extraction;
the hash-consing of terms."""

import copy
import dataclasses
import gc
import pickle
import sys
import threading

import pytest

from strategies import formula_st, pformula_st, position_st, seqpos_st
from hypothesis import given
from hypothesis import strategies as st

from twoseq.errors import DegreeUndefinedError
from twoseq.parser import (parse_formula, parse_pformula, parse_position,
                           render_formula, render_pformula)
from twoseq.positions import (TABLE, LtlPos, PastPos, SeqPos, SetPos, _drop, _Ref,
                              concat, seqpos)
from twoseq.syntax import (And, Box, Dia, Imp, Next, Not, Once, Or, PFormula,
                           Prop, degree, has_past, has_temporal, is_subformula,
                           pf, positions_of, seq, tokens_of)

P, Q = Prop("p"), Prop("q")


def enumerate_sub(root: PFormula, pool: list[SeqPos]) -> set[PFormula]:
    """The subformula set restricted to a finite position pool (oracle)."""
    out = {root}
    f, alpha = root.formula, root.pos
    if isinstance(f, Not):
        out |= enumerate_sub(pf(f.sub, alpha), pool)
    elif isinstance(f, (And, Or, Imp)):
        out |= enumerate_sub(pf(f.left, alpha), pool)
        out |= enumerate_sub(pf(f.right, alpha), pool)
    elif isinstance(f, (Box, Dia)):
        for beta in pool:
            out |= enumerate_sub(pf(f.sub, concat(alpha, beta)), pool)
    return out


def test_degree_examples():
    assert degree(P) == 0
    assert degree(Box(Imp(P, Q))) == 2
    assert degree(Not(Not(P))) == 2


def test_degree_rejects_temporal():
    with pytest.raises(DegreeUndefinedError):
        degree(Next(P))


def test_subformula_examples():
    x, xy, y = seqpos("x"), seqpos("x", "y"), seqpos("y")
    root = pf(Box(P), x)
    pool = [seqpos(), seqpos("y")]
    assert pf(P, xy) in enumerate_sub(root, pool)
    assert is_subformula(pf(P, xy), root)
    assert is_subformula(root, root)
    assert pf(P, y) not in enumerate_sub(root, pool + [seqpos("x")])
    assert not is_subformula(pf(P, y), root)


def test_subformula_nested_boxes():
    root = pf(Box(Dia(P)), seqpos())
    assert is_subformula(pf(Dia(P), seqpos("a", "b")), root)
    assert is_subformula(pf(P, seqpos("a", "b", "c")), root)
    assert not is_subformula(pf(Q, seqpos("a")), root)


def test_subformula_binary_keeps_position():
    root = pf(And(P, Box(Q)), seqpos("x"))
    assert is_subformula(pf(P, seqpos("x")), root)
    assert not is_subformula(pf(P, seqpos("x", "y")), root)
    assert is_subformula(pf(Q, seqpos("x", "y")), root)


@given(formula_st("modal", depth=2), seqpos_st)
def test_subformula_reflexive(f, pos):
    assert is_subformula(pf(f, pos), pf(f, pos))


@given(formula_st("modal", depth=2), seqpos_st, formula_st("modal", depth=1),
       seqpos_st)
def test_subformula_decision_matches_the_enumeration(f, alpha, g, cpos):
    # every box/dia step of a candidate at cpos extends by a segment of cpos
    items = cpos.items
    pool = [SeqPos(items[i:j]) for i in range(len(items) + 1)
            for j in range(i, len(items) + 1)]
    root = pf(f, alpha)
    subs = enumerate_sub(root, pool)
    assert is_subformula(pf(g, cpos), root) == (pf(g, cpos) in subs)
    assert all(is_subformula(q, root) for q in subs)


def test_subformula_transitive_chain():
    outer = pf(Box(Box(P)), seqpos())
    mid = pf(Box(P), seqpos("x"))
    inner = pf(P, seqpos("x", "y"))
    assert is_subformula(mid, outer)
    assert is_subformula(inner, mid)
    assert is_subformula(inner, outer)


def test_tokens_and_positions_of():
    s = seq((), (pf(P, seqpos("x")),))
    assert tokens_of(s) == frozenset("x")
    assert tokens_of(seq((pf(P, seqpos()),), ())) == frozenset()
    s2 = seq((pf(P, LtlPos(1, frozenset("x"))),),
             (pf(Q, LtlPos(0, frozenset({"x", "y"}))),))
    assert tokens_of(s2) == frozenset({"x", "y"})
    assert positions_of(s2) == (LtlPos(1, frozenset("x")),
                                LtlPos(0, frozenset({"x", "y"})))


@given(st.one_of(formula_st("past"), pformula_st("past", PastPos),
                 *[position_st(f) for f in (SeqPos, SetPos, LtlPos, PastPos)]))
def test_hash_is_the_hash_of_the_field_tuple(x):
    # the hash of the field tuple, as it always was, so set and dict orders do not move
    fields = tuple(getattr(x, k) for k in x.__match_args__)
    assert hash(x) == hash(fields)
    assert type(x)(*fields) is x


# --- hash-consing ---

def test_equal_terms_parsed_apart_are_one_object():
    text = "box (p0 -> dia ~q) & X p0"
    f, g = parse_formula(text), parse_formula("(" + text + ")")
    assert f is g
    assert f.left is parse_formula("box (p0 -> dia ~q)")
    assert parse_position("[x,y]") is seqpos("x", "y")
    assert parse_position("(2;{y,x})") is LtlPos(2, frozenset("xy"))
    assert parse_position("(-1;{x};{})") is PastPos(-1, frozenset("x"))
    assert parse_position("{y,x}") is SetPos(frozenset("xy"))
    assert parse_pformula("p0 @ [x]") is pf(Prop("p0"), seqpos("x"))


def test_copies_and_pickles_are_the_term_itself():
    f = pf(Box(And(Prop("p0"), Once(Prop("q")))), seqpos("x"))
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.pos = seqpos()
    assert f.pos is seqpos("x")


def test_the_table_forgets_dropped_terms():
    gc.collect()
    before = len(TABLE)
    f = parse_pformula("box (fresh0 -> fresh1) & ~fresh2 @ [fresh_x, fresh_y]")
    assert len(TABLE) > before
    del f
    gc.collect()
    assert len(TABLE) == before


@given(st.one_of(formula_st("past"), pformula_st("past", PastPos),
                 pformula_st("modal", SeqPos), pformula_st("ltl", LtlPos)))
def test_parse_of_render_is_the_term_itself(x):
    if isinstance(x, PFormula):
        assert parse_pformula(render_pformula(x)) is x
    else:
        assert parse_formula(render_formula(x)) is x


def test_stored_measures_match_their_definitions():
    P = Prop("p")
    f = And(Box(Not(P)), Imp(Dia(Dia(P)), P))
    assert degree(f) == 4
    assert not has_temporal(f) and not has_past(f)
    g = And(f, Next(Not(P)))
    assert has_temporal(g) and not has_past(g)
    with pytest.raises(DegreeUndefinedError):
        degree(g)
    h = Not(Once(P))
    assert has_temporal(h) and has_past(h)


def test_deep_terms_compare_and_hash_in_constant_depth():
    f = g = Prop("p0")
    for i in range(100_000):
        f = (Box, Next, Not)[i % 3](f)
        g = (Box, Next, Not)[i % 3](g)
    assert f is g and f == g and hash(f) == hash(g)
    assert {pf(f, seqpos()): 1}[pf(g, seqpos())] == 1
    assert has_temporal(f) and not has_past(f)


def test_threads_racing_to_build_a_term_get_one_object():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(40):
            gc.collect()
            baseline = len(TABLE)
            names = [f"race{r}_{i}" for i in range(40)]
            built = [None] * 8
            start = threading.Barrier(len(built))

            def build(k):
                start.wait()
                built[k] = [pf(Box(And(Prop(n), Prop(n))), seqpos(n)) for n in names]

            threads = [threading.Thread(target=build, args=(k,))
                       for k in range(len(built))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            for terms in built[1:]:
                assert all(a is b for a, b in zip(built[0], terms))
            # no entry outlives the terms: a loser's term never entered
            built.clear()
            del terms
            gc.collect()
            assert len(TABLE) == baseline
    finally:
        sys.setswitchinterval(old)


def test_a_dead_reference_under_a_key_gives_way_to_a_new_term():
    f = Prop("planted_operand")
    for key, build in (((Prop, "planted"), lambda: Prop("planted")),
                       ((Box, id(f)), lambda: Box(f)),
                       ((SeqPos, ("planted",)), lambda: seqpos("planted"))):
        assert key not in TABLE
        dead = _Ref(set())
        dead.key = key
        TABLE[key] = dead
        term = build()
        assert TABLE[key] is not dead and TABLE[key]() is term
        assert build() is term
        # the dead reference's callback, run late, leaves the live entry
        _drop(dead)
        assert TABLE[key]() is term
        del term
        gc.collect()
        assert key not in TABLE


def test_a_constructor_that_raises_leaves_no_entry():
    gc.collect()
    before = len(TABLE)
    x = frozenset("x")
    for build, error, key in (
            (lambda: LtlPos(-1), ValueError, (LtlPos, -1, frozenset())),
            (lambda: PastPos(0, x, x), ValueError, (PastPos, 0, x, x)),
            (lambda: Box(3), TypeError, (Box, id(3))),
            (lambda: And(P, "q"), TypeError, (And, id(P), id("q"))),
            (lambda: pf(P, "[]"), TypeError, (PFormula, id(P), id("[]")))):
        with pytest.raises(error) as raised:
            build()
        # checked while the traceback still holds the constructor's frame
        assert key not in TABLE and raised.traceback
    gc.collect()
    assert len(TABLE) == before
