"""The Kripke forcing, assignment search and lasso evaluation of the
kernel against the recursive reference copies in ``semantics_oracle``,
and the fuzzer verdicts against ``tests/golden/fuzz_verdicts.json``."""

import itertools
import json
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fuzz_verdicts
import semantics_oracle as oracle
from strategies import formula_st, prop_names
from twoseq.calculus import CORE_SYSTEMS, SystemId
from twoseq.ltl import LassoWord, eval_at
from twoseq.positions import SeqPos, initials
from twoseq.semantics import (GraphModel, admissible_assignments,
                              check_sequent_on_model, forces, random_model,
                              sequent_holds)
from twoseq.syntax import Box, Dia, Next, Not, PFormula, Prop, Sequent

ATOMS = ("p0", "p1")
PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# up to three positions of length at most three
positions_st = st.lists(
    st.lists(st.sampled_from(["x", "y"]), max_size=3).map(
        lambda xs: SeqPos(tuple(xs))),
    min_size=1, max_size=3)


@st.composite
def drawn_model(draw, max_nodes: int) -> GraphModel:
    """Any graph on up to ``max_nodes`` nodes, serial or not."""
    nodes = tuple(f"n{i}" for i in range(draw(st.integers(1, max_nodes))))
    edges = draw(st.sets(st.tuples(st.sampled_from(nodes),
                                   st.sampled_from(nodes))))
    val = {n: frozenset(draw(st.sets(st.sampled_from(ATOMS)))) for n in nodes}
    return GraphModel(nodes, frozenset(edges), nodes[0], val)


@st.composite
def model_case(draw):
    """A core system, a model, and a sequent over up to three positions.

    With few assignable positions the model may come from the fuzzers'
    own sampler (2-6 nodes, seriality repaired for D); otherwise it is
    drawn on up to three nodes, so the unpruned reference stays quick.
    """
    sys = draw(st.sampled_from(CORE_SYSTEMS))
    positions = draw(positions_st)
    if len(initials(positions)) <= 5 and draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        m = random_model(rng, sys, frozenset(ATOMS))
    else:
        m = draw(drawn_model(3))
    side = st.lists(st.builds(PFormula, formula_st("modal"),
                              st.sampled_from(positions)), max_size=3)
    return sys, m, positions, Sequent(tuple(draw(side)), tuple(draw(side)))


@PROPERTY
@given(model_case())
def test_first_falsifying_assignment_matches_oracle(case):
    sys, m, _, s = case
    got = check_sequent_on_model(m, sys, s)
    want = oracle.check_sequent_on_model(m, sys, s)
    # compared as ordered items: the CLI prints the assignment in this order
    assert (got is None) == (want is None)
    if got is not None:
        assert list(got.items()) == list(want.items())


@PROPERTY
@given(model_case())
def test_assignments_and_forcing_match_oracle(case):
    sys, m, positions, s = case
    positions = positions + [q.pos for q in s.pformulas()]
    got = list(itertools.islice(admissible_assignments(m, sys, positions), 500))
    want = list(itertools.islice(
        oracle.admissible_assignments(m, sys, positions), 500))
    assert [list(r.items()) for r in got] == [list(r.items()) for r in want]
    if sys is SystemId.D and not oracle.is_serial(m):
        return
    for rho in got[:20]:
        assert sequent_holds(m, sys, rho, s) == \
            oracle.sequent_holds(m, sys, rho, s)
    for q in s.pformulas():
        for n in m.nodes:
            assert forces(m, sys, n, q.formula) == \
                oracle.forces(m, sys, n, q.formula)


letter_st = st.frozensets(prop_names, max_size=2)
lasso_st = st.builds(lambda p, l: LassoWord(tuple(p), tuple(l)),
                     st.lists(letter_st, max_size=4),
                     st.lists(letter_st, min_size=1, max_size=3))


@PROPERTY
@given(lasso_st, formula_st("ltl"))
def test_eval_at_matches_oracle_at_times_0_to_12(w, f):
    for t in range(13):
        assert eval_at(w, t, f) == oracle.eval_at(w, t, f), t


def _tower(ops, depth: int):
    """``depth`` unary connectives over p0, built without the parser."""
    f = Prop("p0")
    for i in range(depth):
        f = ops[i % len(ops)](f)
    return f


def test_forces_and_eval_at_return_at_depth_100000():
    # such formulas are never compared or hashed here: both would recurse
    double_neg = lambda g: Not(Not(g))
    f = _tower((Box, Dia, double_neg), 100_000)
    # n1 sees only itself and forces p0, so it forces every such tower;
    # n0 sees only n1 and the top connective is a box
    m = GraphModel(("n0", "n1"), frozenset({("n0", "n1"), ("n1", "n1")}),
                   "n0", {"n0": frozenset(), "n1": frozenset({"p0"})})
    assert forces(m, SystemId.K, "n0", f) is True
    assert forces(m, SystemId.D, "n1", Not(f)) is False
    # p0 holds from time 1 on, and so does every tower over it
    g = _tower((Box, Next, Dia, double_neg), 100_000)
    w = LassoWord((frozenset(),), (frozenset({"p0"}),))
    assert eval_at(w, 1, g) is True
    assert eval_at(w, 7, Not(g)) is False


def test_fuzz_verdicts_match_golden():
    want = json.loads(fuzz_verdicts.GOLDEN.read_text())
    got = fuzz_verdicts.record()
    assert len(got) == len(want) == 249
    for g, w in zip(got, want):
        assert g == w
