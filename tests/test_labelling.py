"""The Kripke forcing, assignment search, lasso evaluation and model
sampler of the kernel against the reference copies in
``semantics_oracle``, and the fuzzer verdicts against
``tests/golden/fuzz_verdicts.json``."""

import itertools
import json
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fuzz_verdicts
import semantics_oracle as oracle
from strategies import formula_st, prop_names
from twoseq import ltl, semantics
from twoseq.calculus import CORE_SYSTEMS, SystemId
from twoseq.errors import TwoseqError
from twoseq.ltl import (LassoWord, a_value, eval_at, ltl_soundness_fuzz,
                        sequent_satisfied)
from twoseq.parser import parse_model, parse_sequent, render_model
from twoseq.positions import LtlPos, SeqPos, initials, seqpos
from twoseq.semantics import (GraphModel, _Compiled, _Frame, _Lasso, admissible_assignments,
                              check_sequent_on_model, forces, sequent_atoms,
                              sequent_holds, soundness_fuzz)
from twoseq.syntax import Box, Dia, Next, Not, PFormula, Prop, Sequent, tokens_of

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
    """Any graph on up to ``max_nodes`` nodes, serial or not, whose node
    names are in no particular order: name order is not index order."""
    names = draw(st.permutations(("b", "a", "n10", "n2")))
    nodes = tuple(names[:draw(st.integers(1, max_nodes))])
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
        m = _Frame.draw(rng, sys, frozenset(ATOMS)).model()
    else:
        m = draw(drawn_model(3))
    side = st.lists(st.builds(PFormula, formula_st("modal"),
                              st.sampled_from(positions)), max_size=3)
    return sys, m, positions, Sequent(tuple(draw(side)), tuple(draw(side)))


def _unforced(nodes: tuple, edges: set) -> GraphModel:
    return GraphModel(nodes, frozenset(edges), nodes[0], {n: frozenset() for n in nodes})


@PROPERTY
@given(model_case())
# [x] goes to the successor whose name sorts first: a before b, n10 before n2
@example((SystemId.K, _unforced(("n2", "b", "a", "n10"), {("n2", "b"), ("n2", "a"), ("n2", "n10")}),
          [seqpos("x")], parse_sequent("|- p0 @ [x]")))
@example((SystemId.K, _unforced(("b", "n2", "n10"), {("b", "n2"), ("b", "n10")}),
          [seqpos("x")], parse_sequent("|- p0 @ [x]")))
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


def test_random_model_matches_the_reference_sampler():
    # the same model from the same random numbers, and none drawn beyond
    for sys in SystemId:
        for atoms in (frozenset(), frozenset({"p0"}),
                      frozenset({"p1", "p3", "q"})):
            for seed in range(300):
                rng, ref = random.Random(seed), random.Random(seed)
                assert _Frame.draw(rng, sys, atoms).model() == \
                    oracle.random_model(ref, sys, atoms), (sys, atoms, seed)
                assert rng.getstate() == ref.getstate(), (sys, atoms, seed)


def test_modal_fuzz_work_over_the_verdict_subjects(monkeypatch):
    """Models tried, witness searches and assignments yielded over every
    modal record of the verdict golden.  The models are read off the
    verdicts; searches and yields are counted through module attributes
    as the benchmark's tracer counts them, and a pack reads its first
    falsified model's witness off its masks, so the fuzzer searches none."""
    counts = {"models": 0, "searches": 0, "assignments": 0}
    check = semantics.check_sequent_on_model
    search = semantics.admissible_assignments

    def counted_check(*args, **kwargs):
        counts["searches"] += 1
        return check(*args, **kwargs)

    def counted_search(*args, **kwargs):
        for rho in search(*args, **kwargs):
            counts["assignments"] += 1
            yield rho

    monkeypatch.setattr(semantics, "check_sequent_on_model", counted_check)
    monkeypatch.setattr(semantics, "admissible_assignments", counted_search)
    for _, family, s in fuzz_verdicts.subjects():
        if family is SeqPos:
            for sys in CORE_SYSTEMS:
                for seed in fuzz_verdicts.SEEDS:
                    counts["models"] += fuzz_verdicts.verdict(s, sys, seed)["tried"]
    assert counts == {"models": 6532, "searches": 0, "assignments": 0}


def test_linear_time_fuzz_work_over_the_verdict_subjects(monkeypatch):
    """Words tried, `sequent_satisfied` calls and counterexamples over
    every linear-time record of the verdict golden.  The words are read
    off the verdicts; a pack decides its words without that per-word
    check, so the fuzzer makes none of those calls."""
    counts = {"words": 0, "satisfied": 0, "counterexamples": 0}
    satisfied = ltl.sequent_satisfied

    def counted(*args):
        counts["satisfied"] += 1
        return satisfied(*args)

    monkeypatch.setattr(ltl, "sequent_satisfied", counted)
    for _, family, s in fuzz_verdicts.subjects():
        if family is LtlPos:
            for seed in fuzz_verdicts.SEEDS:
                v = fuzz_verdicts.verdict(s, SystemId.LTL, seed)
                counts["words"] += v["tried"]
                counts["counterexamples"] += v["kind"] == "counterexample"
    assert counts == {"words": 4228, "satisfied": 0, "counterexamples": 12}


def _decisions(pack: _Frame, s: Sequent, count: int) -> list[bool]:
    """The pack's verdict for each of its models: falsified or not."""
    hits = pack.falsified(_Compiled(s))
    return [bool(hits >> k * pack.width & 1) for k in range(count)]


@st.composite
def pack_case(draw):
    """A core system, a sequent over up to three positions with at most
    five initial segments (so the reference stays quick on six nodes),
    and a pack of drawn models."""
    sys, _, positions, s = draw(model_case().filter(
        lambda c: len(initials(c[2])) <= 5))
    count = draw(st.integers(1, 12))
    return sys, s, _Frame.draw(random.Random(draw(st.integers(0, 2 ** 32))),
                               sys, frozenset(ATOMS), count), count


@PROPERTY
@given(pack_case())
def test_a_pack_decides_each_model_like_the_oracle(case):
    sys, s, pack, count = case
    want = [oracle.check_sequent_on_model(pack.model(k), sys, s) is not None
            for k in range(count)]
    assert _decisions(pack, s, count) == want


# the empty sequent (falsified by the empty map, unless a serial system
# meets a dead end), sibling and parent-child positions, a formula every
# serial model forces, and a chain of three positions
PACK_SEQUENTS = [parse_sequent(t) for t in (
    "|-", "p0 @ [x] |- p0 @ [y]", "box p0 @ [] |- p0 @ [x]",
    "|- dia (p0 -> p0) @ []", "p0 @ [x,y,z], box p1 @ [x] |- p1 @ [x,y,z], p0 @ [y]",
)]


@pytest.mark.parametrize("sys", CORE_SYSTEMS, ids=lambda s: s.value)
def test_packs_of_64_decide_like_the_oracle_with_dead_ends(sys):
    """Drawn packs, dead ends included: the serial systems admit no map
    on a model with one, K and K4 still admit partial ones."""
    pack = _Frame.draw(random.Random(29), sys, frozenset(ATOMS), 64)
    dead = [bool(pack.dead_ends >> k * pack.width & 1) for k in range(64)]
    assert any(dead) == (sys in (SystemId.K, SystemId.K4))
    for s in PACK_SEQUENTS:
        want = [oracle.check_sequent_on_model(pack.model(k), sys, s) is not None
                for k in range(64)]
        assert _decisions(pack, s, 64) == want, s
        if sys is SystemId.K and not s.pformulas():
            assert all(want) and any(dead)


@st.composite
def wide_model(draw):
    """A parsed graph on 9 to 12 nodes, wider than a drawn block."""
    nodes = tuple(f"n{i}" for i in range(draw(st.integers(9, 12))))
    edges = draw(st.sets(st.tuples(st.sampled_from(nodes),
                                   st.sampled_from(nodes)), max_size=40))
    val = {n: frozenset(draw(st.sets(st.sampled_from(ATOMS)))) for n in nodes}
    return parse_model(render_model(GraphModel(nodes, frozenset(edges), nodes[0], val)))


@PROPERTY
@given(st.sampled_from(CORE_SYSTEMS), wide_model(),
       st.lists(st.builds(PFormula, formula_st("modal"),
                          st.sampled_from([seqpos(), seqpos("x"), seqpos("y")])),
                max_size=4))
def test_a_wide_model_is_a_pack_of_one(sys, m, pfs):
    s = Sequent(tuple(pfs[:len(pfs) // 2]), tuple(pfs[len(pfs) // 2:]))
    pack = semantics._frame(m, sys)
    assert pack.width == len(m.nodes) + 1
    assert _decisions(pack, s, 1) == [
        oracle.check_sequent_on_model(m, sys, s) is not None]
    for q in s.pformulas():
        for n in m.nodes:
            assert forces(m, sys, n, q.formula) == \
                oracle.forces(m, sys, n, q.formula)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(SystemId)), st.integers(0, 2 ** 32),
       st.integers(1, 40), st.sampled_from([(), ("p0",), ("p1", "p3", "q")]))
def test_a_drawn_pack_is_its_models_drawn_in_turn(sys, seed, count, atoms):
    rng, ref = random.Random(seed), random.Random(seed)
    pack = _Frame.draw(rng, sys, frozenset(atoms), count)
    want = [oracle.random_model(ref, sys, frozenset(atoms)) for _ in range(count)]
    assert [pack.model(k) for k in range(count)] == want
    assert rng.getstate() == ref.getstate()


class _BitsOnly(random.Random):
    """A generator that refuses the integer draws, so a pack drawn from it
    draws through ``random`` and ``getrandbits`` alone."""

    def randint(self, *args):
        raise AssertionError("drawn through randint, randrange or choice")

    randrange = choice = randint


def test_packs_draw_from_random_and_getrandbits_alone():
    for seed, count in ((3, 40), (8, 1), (21, 256)):
        for sys, atoms in ((SystemId.K, ()), (SystemId.D, ("p0",)), (SystemId.S4, ATOMS)):
            rng, ref = _BitsOnly(seed), random.Random(seed)
            pack = _Frame.draw(rng, sys, frozenset(atoms), count)
            want = [oracle.random_model(ref, sys, frozenset(atoms)) for _ in range(count)]
            assert [pack.model(k) for k in range(count)] == want
            assert rng.getstate() == ref.getstate()
        for tokens, bound in (((), 4), (("x",), 0), (("x", "y"), 4)):
            rng, ref = _BitsOnly(seed), random.Random(seed)
            pack = _Lasso.draw(rng, SystemId.LTL, ATOMS, count, tokens, bound)
            want = [(oracle.random_lasso(ref, ATOMS), {x: ref.randint(0, bound) for x in tokens})
                    for _ in range(count)]
            assert [(pack.model(k), pack.shapes[k][2]) for k in range(count)] == want
            assert rng.getstate() == ref.getstate()


def _reference_fuzz(s: Sequent, sys: SystemId, budget: int, seed: int):
    rng, atoms = random.Random(seed), sequent_atoms(s)
    for i in range(budget):
        m = oracle.random_model(rng, sys, atoms)
        rho = oracle.check_sequent_on_model(m, sys, s)
        if rho is not None:
            return "counterexample", i + 1, render_model(m), list(rho.items())
    return "valid-so-far", budget, None, None


# per core system: a valid sequent, and an invalid one with a seed whose
# first counterexample lies past the first pack (at 17, 32, 116, 20, 173)
BOUNDARY_CASES = {
    SystemId.K: ("box (p0 -> p1) @ [], box p0 @ [] |- box p1 @ []",
                 "dia dia dia p0 @ [] |- dia dia p0 @ []", 8),
    SystemId.D: ("|- dia (p0 -> p0) @ []",
                 "dia box p0 @ [] |- box dia p0 @ [], p0 @ []", 11),
    SystemId.T: ("box p0 @ [] |- p0 @ []",
                 "dia dia dia p0 @ [] |- dia dia p0 @ []", 6),
    SystemId.K4: ("box p0 @ [] |- box box p0 @ []",
                  "dia box p0 @ [] |- box dia p0 @ [], p0 @ []", 9),
    SystemId.S4: ("dia dia p0 @ [] |- dia p0 @ []",
                  "dia box p0 @ [] |- box dia p0 @ [], p0 @ []", 19),
}


@pytest.mark.parametrize("sys", CORE_SYSTEMS, ids=lambda s: s.value)
def test_pack_boundaries_keep_the_verdict_of_one_model_at_a_time(sys):
    valid, invalid, seed = BOUNDARY_CASES[sys]
    for text in (valid, invalid):
        s = parse_sequent(text)
        for budget in (1, 15, 16, 17, 60, 200, 1000):
            v = soundness_fuzz(s, sys, budget, seed)
            got = (v.kind, v.tried, v.model and render_model(v.model),
                   v.rho and list(v.rho.items()))
            assert got == _reference_fuzz(s, sys, budget, seed), (text, budget)
    assert soundness_fuzz(parse_sequent(invalid), sys, 1000, seed).tried > 16


# sequents whose positions, with FRAME_EXTRA, have at most four initial
# segments, so the unpruned reference stays quick on six nodes
FRAME_SEQUENTS = [parse_sequent(t) for t in (
    "|- dia (p0 -> p0) @ []",
    "box p0 @ [] |- box box p0 @ []",
    "p0 @ [x] |- p0 @ [y]",
    "box p0 @ [] |- p0 @ [x]",
    "p0 @ [x], box p1 @ [] |- dia p1 @ [x, y]",
)]
FRAME_EXTRA = [seqpos("x", "y"), seqpos("z")]


def _items(rhos) -> list:
    return [list(r.items()) for r in rhos]


@pytest.mark.parametrize("sys", CORE_SYSTEMS, ids=lambda s: s.value)
def test_drawn_frames_search_like_their_models_and_the_reference(sys):
    """The search on a drawn frame, on the model it builds, and by the
    reference, over a sequent's positions with and without extra ones;
    and the witness of every block of a drawn pack, read off its masks,
    against the reference's first falsifying assignment on that model."""
    rng = random.Random(17)
    for _ in range(8):
        frame = _Frame.draw(rng, sys, frozenset(ATOMS))
        m = frame.model()
        for s in FRAME_SEQUENTS:
            for extra in ([], FRAME_EXTRA):
                everything = extra + [q.pos for q in s.pformulas()]
                want = _items(oracle.admissible_assignments(m, sys, everything))
                assert _items(admissible_assignments(frame, sys, everything)) == want
                assert _items(admissible_assignments(m, sys, everything)) == want
    pack = _Frame.draw(rng, sys, frozenset(ATOMS), 40)
    for s in FRAME_SEQUENTS + PACK_SEQUENTS[:1]:
        hits = pack.falsified(c := _Compiled(s))
        for k in range(40):
            got = pack.witness(k, c)
            want = oracle.check_sequent_on_model(pack.model(k), sys, s)
            assert (got is None) == (want is None) == (not hits >> k * pack.width & 1)
            assert got is None or list(got.items()) == list(want.items()), (s, k)


def test_a_frame_is_read_only_under_the_system_it_was_drawn_for():
    frame = _Frame.draw(random.Random(3), SystemId.K, frozenset(ATOMS))
    with pytest.raises(TwoseqError, match="drawn for K cannot be read under S4"):
        check_sequent_on_model(frame, SystemId.S4, FRAME_SEQUENTS[0])


TOKEN_SETS = [(), ("x",), ("x", "y")]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 40),
       st.sampled_from([("p0",), ("p0", "p1"), ("p1", "p3", "q")]),
       st.sampled_from(TOKEN_SETS), st.sampled_from([0, 1, 4]))
def test_a_drawn_lasso_pack_is_its_words_drawn_in_turn(seed, count, atoms, tokens, bound):
    """The pack's words and valuations are those of ``count`` calls of the
    sampler, each followed by its valuation's draws, and no number more
    is drawn."""
    rng, ref, one = (random.Random(seed) for _ in range(3))
    pack = _Lasso.draw(rng, SystemId.LTL, atoms, count, tokens, bound)
    want = []
    for _ in range(count):
        w = oracle.random_lasso(ref, atoms)
        want.append((w, {x: ref.randint(0, bound) for x in tokens}))
        assert _Lasso.draw(one, SystemId.LTL, atoms).model() == w
        assert {x: one.randint(0, bound) for x in tokens} == want[-1][1]
    assert [(pack.model(k), pack.shapes[k][2]) for k in range(count)] == want
    assert rng.getstate() == ref.getstate() == one.getstate()


LTL_POSITIONS = [LtlPos(0), LtlPos(1), LtlPos(0, frozenset("x")),
                 LtlPos(2, frozenset("y")), LtlPos(1, frozenset("xy"))]


@st.composite
def lasso_pack_case(draw):
    """A sequent over step and token-set positions, a bound and a drawn
    pack of words with their valuations."""
    side = st.lists(st.builds(PFormula, formula_st("ltl"),
                              st.sampled_from(LTL_POSITIONS)), max_size=3)
    s = Sequent(tuple(draw(side)), tuple(draw(side)))
    bound, count = draw(st.sampled_from([0, 1, 4])), draw(st.integers(1, 12))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    atoms = tuple(sorted(sequent_atoms(s))) or ("p0",)
    return s, count, _Lasso.draw(rng, SystemId.LTL, atoms, count,
                                 tuple(sorted(tokens_of(s))), bound)


@PROPERTY
@given(lasso_pack_case())
def test_a_lasso_pack_decides_each_word_like_the_oracle(case):
    s, count, pack = case
    hits = pack.falsified(c := _Compiled(s))
    for k in range(count):
        w, a = pack.model(k), pack.witness(k, c)
        sat = [oracle.eval_at(w, a_value(a, q.pos), q.formula) for q in s.pformulas()]
        holds = not all(sat[:len(s.ant)]) or any(sat[len(s.ant):])
        assert bool(hits >> k * pack.width & 1) == (not holds) == \
            (not sequent_satisfied(w, a, s)), k


@PROPERTY
@given(st.lists(letter_st, min_size=6, max_size=6),
       st.lists(letter_st, min_size=5, max_size=5), formula_st("ltl"))
def test_a_wide_parsed_word_is_a_pack_of_one(prefix, loop, f):
    w = parse_model(render_model(LassoWord(tuple(prefix), tuple(loop))))
    assert semantics._frame(w, SystemId.LTL).width == 12
    for t in range(21):
        assert eval_at(w, t, f) == oracle.eval_at(w, t, f), t


def _block_sums(pack: _Frame, count: int) -> tuple[int, int, int]:
    """``low``, ``ones`` and ``guard`` of a pack of ``count`` models, summed
    block by block."""
    blocks = range(0, count * pack.width, pack.width)
    return (sum(1 << b for b in blocks),
            sum((1 << pack.width - 1) - 1 << b for b in blocks),
            sum(1 << b + pack.width - 1 for b in blocks))


def _layout(pack: _Frame) -> tuple[int, int, int]:
    return pack.low, pack.ones, pack.guard


def test_pack_layouts_equal_their_block_sums():
    """Drawn packs of every size up to the cap in both families, and parsed
    graphs and words (packs of one) of 1 to 40 points."""
    rng = random.Random(20)
    for count in range(1, 257):
        for pack in (_Frame.draw(rng, CORE_SYSTEMS[count % 5], frozenset(ATOMS), count),
                     _Lasso.draw(rng, SystemId.LTL, ATOMS, count)):
            assert _layout(pack) == _block_sums(pack, count), (pack.noun, count)
    for n in range(1, 41):
        nodes = tuple(f"n{i}" for i in range(n))
        graph = GraphModel(nodes, frozenset(zip(nodes, nodes[1:])), "n0",
                           {x: frozenset() for x in nodes})
        word = LassoWord((frozenset(),) * (n // 2), (frozenset({"p0"}),) * (n - n // 2))
        for m, sys in ((graph, SystemId.S4), (word, SystemId.LTL)):
            pack = semantics._frame(parse_model(render_model(m)), sys)
            assert pack.width == n + 1
            assert _layout(pack) == _block_sums(pack, 1), (pack.noun, n)


def _warshall(pack: _Frame) -> list[int]:
    """The reflexive-transitive closure of a pack's edges by Warshall's
    passes: each node sees itself, and where i sees k, i sees all k sees."""
    data = (1 << pack.width - 1) - 1
    rows = [e | (pack.low << i & pack.full) for i, e in enumerate(pack.edges)]
    for k in range(len(rows)):
        rows = [r | ((r >> k & pack.low) * data & rows[k]) for r in rows]
    return rows


@PROPERTY
@given(st.integers(0, 2 ** 32), st.integers(1, 40),
       st.sampled_from([SystemId.LTL, SystemId.LTL_INDAX]))
def test_a_drawn_lasso_pack_closes_its_edges_like_warshall(seed, count, sys):
    pack = _Lasso.draw(random.Random(seed), sys, ("p0",), count)
    assert pack.rows == _warshall(pack)
    assert _layout(pack) == _block_sums(pack, count)


@PROPERTY
@given(st.lists(letter_st, max_size=30), st.lists(letter_st, min_size=1, max_size=30))
def test_a_parsed_word_closes_its_edges_like_warshall(prefix, loop):
    w = parse_model(render_model(LassoWord(tuple(prefix), tuple(loop))))
    pack = semantics._frame(w, SystemId.LTL)
    assert pack.width == len(prefix) + len(loop) + 1
    assert pack.rows == _warshall(pack)
    assert _layout(pack) == _block_sums(pack, 1)


def _reference_lasso_fuzz(s: Sequent, budget: int, seed: int, bound: int = 4):
    rng = random.Random(seed)
    atoms, tokens = tuple(sorted(sequent_atoms(s))) or ("p0",), tuple(sorted(tokens_of(s)))
    for i in range(budget):
        w = _Lasso.draw(rng, SystemId.LTL, atoms).model()
        a = {x: rng.randint(0, bound) for x in tokens}
        if not sequent_satisfied(w, a, s):
            return False, i + 1, w, list(a.items())
    return True, budget, None, None


# a valid sequent, and an invalid one whose first counterexample lies in
# the second pack at seed 18 (word 38) and in the third at seed 47 (word 50)
LASSO_BOUNDARY = ("box p0 @ (0;{x}) |- p0 @ (1;{x,y})",
                  "X p0 @ (0;{x}), p0 @ (0;{x}), p1 @ (2;{y}) |- dia (p0 & p1) @ (0;{})")


@pytest.mark.parametrize("seed", [18, 47])
def test_lasso_pack_boundaries_keep_the_verdict_of_one_word_at_a_time(seed):
    for text in LASSO_BOUNDARY:
        s = parse_sequent(text)
        for budget in (1, 15, 16, 17, 48, 49, 500):
            v = ltl_soundness_fuzz(s, budget, seed)
            got = (v.ok, v.tried, v.word, None if v.ok else list(v.valuation.items()))
            assert got == _reference_lasso_fuzz(s, budget, seed), (text, budget)
    assert ltl_soundness_fuzz(parse_sequent(LASSO_BOUNDARY[1]), 500, seed).tried \
        == {18: 38, 47: 50}[seed]
