"""Position algebra: frozen examples plus algebraic laws."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import ltlpos_st, pastpos_st, seqpos_st, token_names
from twoseq.positions import (LtlPos, PastPos, SeqPos, concat, initials,
                              ltl_add, past_add, past_sub,
                              prefix_replace, seqpos, setpos)


# independent oracles for the derived examples

def replace_by_splitting(s: SeqPos, u: SeqPos, v: SeqPos) -> SeqPos:
    for i in range(len(s.items) + 1):
        if SeqPos(s.items[:i]) == u:
            return concat(v, SeqPos(s.items[i:]))
    return s


def prefixes_by_length(p: SeqPos):
    return {SeqPos(p.items[:i]) for i in range(len(p.items) + 1)}


def test_concat_examples():
    assert concat(seqpos("x"), seqpos("y", "z")) == seqpos("x", "y", "z")
    s = seqpos("x", "y")
    assert concat(s, seqpos()) == s
    assert concat(seqpos(), s) == s
    a, b, c = seqpos("x"), seqpos("y"), seqpos("z")
    assert concat(concat(a, b), c) == concat(a, concat(b, c)) == seqpos("x", "y", "z")


def test_prefix_replace_examples():
    assert prefix_replace(seqpos("x", "y", "z"), seqpos("x", "y"),
                          seqpos("a")) == seqpos("a", "z")
    assert prefix_replace(seqpos("x"), seqpos("y"), seqpos("a")) == seqpos("x")
    s, u, v = seqpos("x", "y"), seqpos(), seqpos("b")
    assert replace_by_splitting(s, u, v) == seqpos("b", "x", "y")
    assert prefix_replace(s, u, v) == seqpos("b", "x", "y")


def test_initials_examples():
    assert prefixes_by_length(seqpos("x", "y")) == \
        {seqpos(), seqpos("x"), seqpos("x", "y")}
    assert initials([seqpos("x", "y")]) == \
        frozenset({seqpos(), seqpos("x"), seqpos("x", "y")})
    assert initials([]) == frozenset()
    union = prefixes_by_length(seqpos("x")) | prefixes_by_length(seqpos("x", "z"))
    assert initials([seqpos("x"), seqpos("x", "z")]) == frozenset(union)


def test_ltl_add_examples():
    assert ltl_add(LtlPos(1, frozenset("x")), LtlPos(2, frozenset("y"))) == \
        LtlPos(3, frozenset("xy"))
    s = LtlPos(2, frozenset("x"))
    assert ltl_add(s, LtlPos()) == s
    a = LtlPos(0, frozenset("x"))
    assert ltl_add(a, a) == LtlPos(0, frozenset("x") | frozenset("x"))




def test_past_add_sub_examples():
    # forward shift consumes pending future tokens, the rest goes to the past
    assert past_add(PastPos(0, frozenset(), frozenset("x")), 0, {"x"}) == \
        PastPos(0, frozenset(), frozenset("x"))
    assert past_sub(PastPos(0, frozenset("x"), frozenset()), 0, {"x"}) == \
        PastPos(0, frozenset("x"), frozenset())
    assert past_add(PastPos(-1, frozenset(), frozenset()), 1, ()) == PastPos(0)


def test_pastpos_disjointness_enforced():
    with pytest.raises(ValueError):
        PastPos(0, frozenset("x"), frozenset("x"))


def test_ltlpos_rejects_negative_steps():
    with pytest.raises(ValueError):
        LtlPos(-1)


@given(seqpos_st, seqpos_st, seqpos_st)
def test_concat_associative_with_unit(a, b, c):
    assert concat(concat(a, b), c) == concat(a, concat(b, c))
    assert concat(a, seqpos()) == a
    assert concat(seqpos(), a) == a


@given(seqpos_st, seqpos_st, seqpos_st)
def test_prefix_replace_round_trip(s, u, v):
    assert prefix_replace(s, u, u) == s
    if u in prefixes_by_length(s) and (v == u or v not in prefixes_by_length(u)):
        there = prefix_replace(s, u, v)
        if v in prefixes_by_length(there):
            assert prefix_replace(there, v, u) == s


@given(st.lists(seqpos_st, max_size=4))
def test_initials_prefix_closed(ps):
    out = initials(ps)
    for beta in out:
        for i in range(len(beta.items) + 1):
            assert SeqPos(beta.items[:i]) in out
    if ps:
        assert seqpos() in out


@given(ltlpos_st, ltlpos_st, ltlpos_st)
def test_ltl_add_monoid(a, b, c):
    assert ltl_add(ltl_add(a, b), c) == ltl_add(a, ltl_add(b, c))
    assert ltl_add(a, b) == ltl_add(b, a)
    assert ltl_add(a, LtlPos()) == a


@given(pastpos_st(), st.integers(0, 3), st.sets(token_names, max_size=2))
def test_past_round_trip_guarded(s, m, toks):
    # tokens already pending in s's future set are consumed by the forward
    # shift rather than restored, so the round trip needs them fresh
    down = past_sub(s, m, toks)
    if frozenset(toks) & s.future:
        return
    if frozenset(toks) <= down.future:
        assert past_add(down, m, toks) == s


def test_rendering():
    assert str(seqpos("x", "y")) == "[x,y]"
    assert str(seqpos()) == "[]"
    assert str(setpos("y", "x")) == "{x,y}"
    assert str(LtlPos(2, frozenset("x"))) == "(2;{x})"
    assert str(PastPos(-1, frozenset("x"), frozenset("y"))) == "(-1;{x};{y})"
