"""Graph Kripke semantics: forcing, the two satisfaction relations,
assignment enumeration, soundness fuzzing, and the substitution lemmas."""

import itertools
import random

import pytest

from semantics_oracle import is_serial
from strategies import random_formula
from twoseq.calculus import SystemId, shift
from twoseq.errors import TwoseqError
from twoseq.ltl import exhaustive_valuations, ltl_soundness_fuzz
from twoseq.positions import LtlPos, SeqPos, initials, seqpos
from twoseq.semantics import (GraphModel, LassoWord, _Frame, accessibility,
                              admissible_assignments, check_sequent_on_model,
                              forces, sequent_holds, soundness_fuzz)
from twoseq.syntax import (Box, Dia, Imp, Next, Prop, pf, seq)
import twoseq.corpus as corpus

P = Prop("p0")
E = seqpos()
X = seqpos("x")

SINGLE = GraphModel(("n0",), frozenset(), "n0", {"n0": frozenset()})
CHAIN = GraphModel(("n0", "n1"), frozenset({("n0", "n1")}), "n0",
                   {"n0": frozenset(), "n1": frozenset({"p0"})})
CORE = (SystemId.K, SystemId.D, SystemId.T, SystemId.K4, SystemId.S4)


def test_forces_vacuous_box():
    assert forces(SINGLE, SystemId.K, "n0", Box(P))


def test_forces_reflexive_closure():
    assert not forces(SINGLE, SystemId.T, "n0", Box(P))
    lit = GraphModel(("n0",), frozenset(), "n0", {"n0": frozenset({"p0"})})
    assert forces(lit, SystemId.T, "n0", Box(P))


def test_forces_chain_closures():
    assert forces(CHAIN, SystemId.K, "n0", Dia(P))
    assert not forces(CHAIN, SystemId.K, "n1", Dia(P))
    assert forces(CHAIN, SystemId.S4, "n1", Dia(P))


def test_forces_rejects_temporal():
    with pytest.raises(TwoseqError):
        forces(SINGLE, SystemId.K, "n0", Next(P))


def test_satisfaction_with_partial_assignment():
    q = pf(P, X)
    rho = {}
    # on the left a formula must be assigned and forced, on the right
    # only forced where it is assigned
    assert sequent_holds(CHAIN, SystemId.K, rho, seq((q,), ()))
    assert sequent_holds(CHAIN, SystemId.K, rho, seq((), (q,)))
    total = {X: "n1"}
    assert (not sequent_holds(CHAIN, SystemId.K, total, seq((q,), ()))) == \
        sequent_holds(CHAIN, SystemId.K, total, seq((), (q,))) == \
        forces(CHAIN, SystemId.K, "n1", P)


def test_sequent_holds_axiom_and_empty():
    axiom = seq((pf(P, E),), (pf(P, E),))
    for n in SINGLE.nodes:
        assert sequent_holds(SINGLE, SystemId.K, {E: n}, axiom)
    empty = seq()
    for rho in ({}, {E: "n0"}):
        assert not sequent_holds(SINGLE, SystemId.K, rho, empty)


def all_small_serial_models(max_nodes=3, atoms=("p0",)):
    """Every pointed graph up to the size bound whose nodes all have
    successors, with every valuation over the given atoms (oracle pool)."""
    for size in range(1, max_nodes + 1):
        nodes = tuple(f"n{i}" for i in range(size))
        pairs = [(a, b) for a in nodes for b in nodes]
        for bits in range(2 ** len(pairs)):
            edges = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
            m = GraphModel(nodes, edges, nodes[0],
                           {n: frozenset() for n in nodes})
            if not is_serial(m):
                continue
            for vbits in range(2 ** size):
                val = {n: (frozenset(atoms) if vbits >> i & 1 else frozenset())
                       for i, n in enumerate(nodes)}
                yield GraphModel(nodes, edges, nodes[0], val)


def test_axiom_d_sequent_on_all_small_serial_models():
    s = seq((pf(Box(P), E),), (pf(Dia(P), E),))
    count = 0
    for m in all_small_serial_models(3):
        assert check_sequent_on_model(m, SystemId.D, s) is None
        count += 1
    assert count > 1000


def test_admissible_assignments_d_needs_serial_models():
    assert list(admissible_assignments(SINGLE, SystemId.D, [E])) == []
    looped = GraphModel(("n0",), frozenset({("n0", "n0")}), "n0",
                        {"n0": frozenset()})
    assert list(admissible_assignments(looped, SystemId.D, [E])) == [{E: "n0"}]


def test_admissible_assignments_total_on_singleton():
    out = list(admissible_assignments(CHAIN, SystemId.S4, [E]))
    assert sorted(r[E] for r in out) == ["n0", "n1"]


def brute_force_k_assignments(m, positions):
    """Oracle: all downward-closed partial maps filtered by the edge step."""
    req = sorted(initials(positions), key=lambda p: (len(p.items), p.items))
    options = [dict()]
    for pos in req:
        new = []
        for rho in options:
            new.append(dict(rho))
            for n in m.nodes:
                cand = dict(rho)
                cand[pos] = n
                new.append(cand)
        options = new
    out = []
    for rho in options:
        ok = True
        for pos in rho:
            if pos.items:
                parent = SeqPos(pos.items[:-1])
                if parent not in rho:
                    ok = False
                    break
                if (rho[parent], rho[pos]) not in m.edges:
                    ok = False
                    break
        if ok:
            out.append(rho)
    return out


def test_admissible_assignments_k_partial_matches_oracle():
    positions = [E, X]
    got = list(admissible_assignments(CHAIN, SystemId.K, positions))
    want = brute_force_k_assignments(CHAIN, positions)
    canon = lambda rs: sorted(sorted((str(k), v) for k, v in r.items()) for r in rs)
    assert canon(got) == canon(want)
    assert {E: "n0"} in got                # defined only on the root position


def test_soundness_fuzz_corpus_clean():
    for sysid in CORE:
        for name, proof in corpus.entries(sysid):
            v = soundness_fuzz(proof.conclusion, sysid, 60, 1)
            assert v.ok, (sysid, name)


def test_soundness_fuzz_finds_dia_taut_counterexample():
    s = seq((), (pf(Dia(Imp(P, P)), E),))
    v = soundness_fuzz(s, SystemId.K, 50, 1)
    assert not v.ok and v.tried <= 50
    # the counterexample replays: some admissible assignment falsifies it
    assert not sequent_holds(v.model, SystemId.K, v.rho, s)
    # and in the restricted system only a successor-free point refutes it
    assert v.rho.get(E) is not None
    assert not accessibility(v.model, SystemId.K)[v.rho[E]]


def test_soundness_fuzz_finds_reflexivity_counterexample():
    s = seq((), (pf(Imp(Box(P), P), E),))
    v = soundness_fuzz(s, SystemId.K, 50, 1)
    assert not v.ok
    assert not sequent_holds(v.model, SystemId.K, v.rho, s)


def test_valid_in_t_not_in_k():
    s = seq((), (pf(Imp(Box(P), P), E),))
    v = soundness_fuzz(s, SystemId.T, 100, 1)
    assert v.ok


def test_bisimulation_invariance_under_duplication():
    rng = random.Random(5)
    for _ in range(40):
        m = _Frame.draw(rng, SystemId.K, frozenset({"p0", "p1"})).model()
        v = m.nodes[-1]
        twin = v + "_twin"
        nodes = m.nodes + (twin,)
        edges = set(m.edges)
        edges |= {(twin, b) for a, b in m.edges if a == v}
        edges |= {(a, twin) for a, b in m.edges if b == v}
        val = dict(m.valuation)
        val[twin] = m.valuation[v]
        m2 = GraphModel(nodes, frozenset(edges), m.root, val)
        f = random_formula(rng, 3)
        for sysid in CORE:
            if sysid is SystemId.D and not (is_serial(m) and is_serial(m2)):
                continue
            assert forces(m, sysid, m.root, f) == forces(m2, sysid, m2.root, f)


def sub1_oracle(m, sysid, rho, alpha, x, f):
    """Right satisfaction of a boxed formula via literal step enumeration."""
    node = rho.get(alpha)
    ext = shift(alpha, "+", seqpos(x))
    if node is None:
        return True
    out = True
    for t in accessibility(m, sysid)[node]:
        rho2 = dict(rho)
        rho2[ext] = t
        out = out and sequent_holds(m, sysid, rho2, seq((), (pf(f, ext),)))
    return out


def run_sub1_check(iterations, seed) -> int:
    rng = random.Random(seed)
    ran = 0
    for _ in range(iterations):
        sysid = rng.choice(CORE)
        m = _Frame.draw(rng, sysid, frozenset({"p0", "p1"})).model()
        f = random_formula(rng, 2)
        alpha = seqpos(*["x"] * rng.randint(0, 1))
        rhos = list(itertools.islice(
            admissible_assignments(m, sysid, [alpha]), 40))
        if not rhos:
            continue
        rho = rng.choice(rhos)
        lhs = sequent_holds(m, sysid, rho, seq((), (pf(Box(f), alpha),)))
        assert lhs == sub1_oracle(m, sysid, rho, alpha, "fresh", f)
        ran += 1
    return ran


def test_sub1_lemma_small():
    assert run_sub1_check(150, 2) > 100


def run_sub2_check(iterations, seed) -> int:
    rng = random.Random(seed)
    ran = 0
    shapes = {SystemId.K: (1,), SystemId.D: (1,), SystemId.T: (0, 1),
              SystemId.K4: (1, 2), SystemId.S4: (0, 1, 2)}
    for _ in range(iterations):
        sysid = rng.choice(CORE)
        m = _Frame.draw(rng, sysid, frozenset({"p0", "p1"})).model()
        f = random_formula(rng, 2)
        alpha = seqpos()
        beta = seqpos(*[f"b{i}" for i in range(rng.choice(shapes[sysid]))])
        full = shift(alpha, "+", beta)
        rhos = list(itertools.islice(
            admissible_assignments(m, sysid, [full]), 40))
        if not rhos:
            continue
        rho = rng.choice(rhos)
        lhs = sequent_holds(m, sysid, rho, seq((), (pf(f, full),)))
        rho2 = dict(rho)
        ext = shift(alpha, "+", seqpos("fresh"))
        if rho.get(full) is not None:
            rho2[ext] = rho[full]
        rhs = sequent_holds(m, sysid, rho2, seq((), (pf(f, ext),)))
        assert lhs == rhs
        ran += 1
    return ran


def test_sub2_lemma_small():
    assert run_sub2_check(150, 3) > 100


def test_accessibility_matches_table():
    acc_k = accessibility(CHAIN, SystemId.K)
    assert acc_k["n0"] == frozenset({"n1"}) and acc_k["n1"] == frozenset()
    acc_t = accessibility(CHAIN, SystemId.T)
    assert acc_t["n1"] == frozenset({"n1"})
    three = GraphModel(("a", "b", "c"),
                       frozenset({("a", "b"), ("b", "c")}), "a",
                       {"a": frozenset(), "b": frozenset(), "c": frozenset()})
    assert accessibility(three, SystemId.K4)["a"] == frozenset({"b", "c"})
    assert accessibility(three, SystemId.S4)["a"] == frozenset({"a", "b", "c"})


def test_partial_assignment_extension_stays_undefined():
    # extending an undefined point leaves every dependent point undefined,
    # so both satisfaction relations fall back to their vacuous readings
    q_box = pf(Box(P), E)
    q_sub = pf(P, X)
    rho = {}
    assert sequent_holds(CHAIN, SystemId.K, rho, seq((), (q_box,)))
    assert sequent_holds(CHAIN, SystemId.K, rho, seq((), (q_sub,)))
    assert sequent_holds(CHAIN, SystemId.K, rho, seq((q_sub,), ()))
    for rho2 in admissible_assignments(CHAIN, SystemId.K, [X]):
        if rho2.get(E) is None:
            assert rho2.get(X) is None


def test_graph_semantics_refuses_other_position_families():
    from twoseq.positions import LtlPos
    s = seq((), (pf(P, LtlPos()),))
    with pytest.raises(TwoseqError, match="sequence positions"):
        check_sequent_on_model(CHAIN, SystemId.K, s)
    with pytest.raises(TwoseqError, match="no graph semantics"):
        check_sequent_on_model(CHAIN, SystemId.LTL, seq((), (pf(P, E),)))
    # a word is no graph, even under a system that reads words
    word = LassoWord((), (frozenset(),))
    for graph_only in (accessibility, lambda m, sys: list(admissible_assignments(m, sys, []))):
        with pytest.raises(TwoseqError, match="no graph semantics for system LTL"):
            graph_only(word, SystemId.LTL)


def test_a_node_outside_the_model_is_refused():
    # n5 is a node name of the drawn frame, but its first model has 5 nodes
    frame = _Frame.draw(random.Random(0), SystemId.K, frozenset({"p0"}))
    assert frame.model().nodes == ("n0", "n1", "n2", "n3", "n4")
    for m, n in ((CHAIN, "zz"), (CHAIN, 0), (frame, "n5")):
        with pytest.raises(TwoseqError, match=f"the model has no node {n!r}"):
            forces(m, SystemId.K, n, P)
    with pytest.raises(TwoseqError, match="no node 'zz'"):
        sequent_holds(CHAIN, SystemId.K, {E: "zz"}, seq((pf(P, E),), ()))


def test_fuzzers_refuse_budgets_below_1_and_bounds_below_0():
    modal, linear = seq((), (pf(P, E),)), seq((), (pf(P, LtlPos()),))
    for budget in (0, -5):
        with pytest.raises(TwoseqError, match="budget must be at least 1"):
            soundness_fuzz(modal, SystemId.K, budget, 1)
        with pytest.raises(TwoseqError, match="budget must be at least 1"):
            ltl_soundness_fuzz(linear, budget, 1)
    with pytest.raises(TwoseqError, match="bound must be at least 0"):
        ltl_soundness_fuzz(linear, 10, 1, -1)
    with pytest.raises(TwoseqError, match="bound must be at least 0"):
        list(exhaustive_valuations((), -1))
