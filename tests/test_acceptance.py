"""Acceptance suite: the eight exit criteria, one test per criterion.

Each test prints a single PASS line on success; tolerances and budgets are
pinned here and nowhere else.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import hashlib
import time

import pytest

from proofgen import generate_suite
from test_ltl import run_eval_oracle_fuzz, run_subltl_check
from test_semantics import run_sub1_check, run_sub2_check
from twoseq.calculus import SystemId, check_proof, seq
from twoseq.cutelim import (eliminate_cuts, is_cut_free,
                            verify_subformula_property)
from twoseq.errors import UnsupportedSystemError
from twoseq.ltl import ltl_soundness_fuzz, sequent_satisfied
from twoseq.parser import render_proof
from twoseq.positions import LtlPos, SeqPos, seqpos
from twoseq.semantics import sequent_holds, soundness_fuzz
from twoseq.syntax import (And, Box, Dia, Imp, Next, Not, Or, Prop,
                           Sequent, pf)
from twoseq.transform import ind_to_axiom
import twoseq.corpus as corpus

CORE = (SystemId.K, SystemId.D, SystemId.T, SystemId.K4, SystemId.S4)


def test_criterion_1_corpus_positive_matrix():
    t0 = time.perf_counter()
    expected = {
        SystemId.K: ["axiom-K"],
        SystemId.D: ["axiom-D"],
        SystemId.T: ["axiom-T"],
        SystemId.K4: ["axiom-4"],
        SystemId.S4: ["axiom-T", "axiom-4"],
        SystemId.S42: ["axiom-S42"],
        SystemId.LTL: ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8"],
        SystemId.LTLP: ["tense-hist-dia", "tense-box-once",
                        "tense-next-prev", "tense-prev-next"],
    }
    for sysid, names in expected.items():
        entries = dict(corpus.entries(sysid))
        for name in names:
            assert check_proof(entries[name], sysid).accepted, (sysid, name)
    # and the whole home corpus self-checks
    for sysid in SystemId:
        for name, proof in corpus.entries(sysid):
            assert check_proof(proof, sysid).accepted, (sysid, name)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"corpus matrix took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 corpus-positive-matrix: PASS ({elapsed:.2f}s)")


def test_criterion_2_corpus_negative_matrix():
    reject = [
        ("axiom-D", corpus.axiom_d(), (SystemId.K, SystemId.K4)),
        ("axiom-T", corpus.axiom_t(), (SystemId.K, SystemId.D, SystemId.K4)),
        ("axiom-4", corpus.axiom_4(), (SystemId.K, SystemId.D, SystemId.T)),
        ("dia-cut", corpus.diamond_taut_cut(), (SystemId.K, SystemId.K4)),
    ]
    for name, proof, systems in reject:
        for sysid in systems:
            rep = check_proof(proof, sysid)
            assert not rep.accepted, (name, sysid)
    # the rejection of the possibility axiom names the dia-right step
    rep = check_proof(corpus.axiom_d(), SystemId.K)
    assert any(v.rule == "diaR" for v in rep.failures)
    # the unconstrained cut is fine in the unrestricted systems
    for sysid in (SystemId.D, SystemId.T, SystemId.S4):
        assert check_proof(corpus.diamond_taut_cut(), sysid).accepted
    print("\nACCEPTANCE 2 corpus-negative-matrix: PASS")


def test_criterion_3_cut_elimination_suite():
    # sha256 over the concatenated rendered outputs: the eliminated proofs
    # themselves, not just their verdicts, are pinned
    digests = {
        SystemId.K: "066292648d4feb47",
        SystemId.D: "22228bd8dc2109c4",
        SystemId.T: "bc29d6e7f1309008",
        SystemId.K4: "56ae1b6577eb4577",
        SystemId.S4: "6766cecfd7f91b2e",
    }
    t0 = time.perf_counter()
    per_system = 100
    total = 0
    for sysid in CORE:
        digest = hashlib.sha256()
        for p in generate_suite(sysid, per_system, seed=2026):
            assert check_proof(p, sysid).accepted
            out = eliminate_cuts(p, sysid)
            assert is_cut_free(out), sysid
            assert out.conclusion == p.conclusion, sysid
            assert check_proof(out, sysid).accepted, sysid
            assert verify_subformula_property(out), sysid
            digest.update(render_proof(sysid, out).encode())
            total += 1
        assert digest.hexdigest()[:16] == digests[sysid], sysid
    elapsed = time.perf_counter() - t0
    assert total >= 500
    assert elapsed < 30.0, f"elimination suite took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 3 cut-elimination ({total} proofs): PASS ({elapsed:.2f}s)")


def _derivable_conclusions(max_height: int) -> set[Sequent]:
    """Exhaustive forward closure of the cut-free rules, bounded.

    Bounds: one proposition symbol, the seven connective applications over
    it, positions [] and [x], at most two formulas per side.  The closure
    over-approximates derivability (eigen conditions are not enforced),
    which only strengthens the conclusion that the empty sequent is out of
    reach.  The most permissive constraint row is used for the same reason.
    """
    p0 = Prop("p0")
    forms = [p0, Not(p0), Box(p0), Dia(p0), And(p0, p0), Or(p0, p0),
             Imp(p0, p0)]
    poss = [seqpos(), seqpos("x")]
    pfs = [pf(f, s) for f in forms for s in poss]
    formset = set(forms)
    cap = 2

    def unary(s: Sequent):
        out = []
        if len(s.ant) < cap:
            out += [Sequent(s.ant + (q,), s.suc) for q in pfs]
        if len(s.suc) < cap:
            out += [Sequent(s.ant, (q,) + s.suc) for q in pfs]
        if len(s.ant) >= 2 and s.ant[-1] == s.ant[-2]:
            out.append(Sequent(s.ant[:-1], s.suc))
        if len(s.suc) >= 2 and s.suc[0] == s.suc[1]:
            out.append(Sequent(s.ant, s.suc[1:]))
        for i in range(len(s.ant) - 1):
            ant = list(s.ant)
            ant[i], ant[i + 1] = ant[i + 1], ant[i]
            out.append(Sequent(tuple(ant), s.suc))
        for i in range(len(s.suc) - 1):
            suc = list(s.suc)
            suc[i], suc[i + 1] = suc[i + 1], suc[i]
            out.append(Sequent(s.ant, tuple(suc)))
        if s.suc and Not(s.suc[0].formula) in formset and len(s.ant) < cap:
            out.append(Sequent(s.ant + (pf(Not(s.suc[0].formula), s.suc[0].pos),),
                               s.suc[1:]))
        if s.ant and Not(s.ant[-1].formula) in formset and len(s.suc) < cap:
            out.append(Sequent(s.ant[:-1],
                               (pf(Not(s.ant[-1].formula), s.ant[-1].pos),) + s.suc))
        if s.ant:
            a = s.ant[-1]
            for g in forms:
                if isinstance(g, And) and (g.left == a.formula or g.right == a.formula):
                    out.append(Sequent(s.ant[:-1] + (pf(g, a.pos),), s.suc))
            if isinstance(a.pos, SeqPos):
                for i in range(len(a.pos.items) + 1):
                    alpha = SeqPos(a.pos.items[:i])
                    if Box(a.formula) in formset:
                        out.append(Sequent(s.ant[:-1] + (pf(Box(a.formula), alpha),),
                                           s.suc))
                if a.pos.items and Dia(a.formula) in formset:
                    alpha = SeqPos(a.pos.items[:-1])
                    out.append(Sequent(s.ant[:-1] + (pf(Dia(a.formula), alpha),),
                                       s.suc))
        if s.suc:
            b = s.suc[0]
            for g in forms:
                if isinstance(g, Or) and (g.left == b.formula or g.right == b.formula):
                    out.append(Sequent(s.ant, (pf(g, b.pos),) + s.suc[1:]))
            for i in range(len(b.pos.items) + 1):
                alpha = SeqPos(b.pos.items[:i])
                if Dia(b.formula) in formset:
                    out.append(Sequent(s.ant, (pf(Dia(b.formula), alpha),) + s.suc[1:]))
            if b.pos.items and Box(b.formula) in formset:
                alpha = SeqPos(b.pos.items[:-1])
                out.append(Sequent(s.ant, (pf(Box(b.formula), alpha),) + s.suc[1:]))
        if s.ant and s.suc and s.ant[-1].pos == s.suc[0].pos and \
                Imp(s.ant[-1].formula, s.suc[0].formula) in formset:
            out.append(Sequent(
                s.ant[:-1],
                (pf(Imp(s.ant[-1].formula, s.suc[0].formula), s.ant[-1].pos),)
                + s.suc[1:]))
        return out

    def binary(level: set[Sequent]):
        out = []
        and_right_ready = {}
        or_left_ready = {}
        imp_b_ready = {}
        imp_a_ready = {}
        for s in level:
            if s.suc:
                and_right_ready.setdefault(s.suc[0], []).append(s)
                imp_a_ready.setdefault(s.suc[0], []).append(s)
            if s.ant:
                or_left_ready.setdefault(s.ant[-1], []).append(s)
                imp_b_ready.setdefault(s.ant[-1], []).append(s)
        for g in forms:
            if isinstance(g, And):
                for pos in poss:
                    xs = and_right_ready.get(pf(g.left, pos), [])
                    ys = and_right_ready.get(pf(g.right, pos), [])
                    for s1 in xs:
                        for s2 in ys:
                            if len(s1.ant) + len(s2.ant) <= cap and \
                                    len(s1.suc) + len(s2.suc) - 1 <= cap:
                                out.append(Sequent(
                                    s1.ant + s2.ant,
                                    (pf(g, pos),) + s1.suc[1:] + s2.suc[1:]))
            if isinstance(g, Or):
                for pos in poss:
                    xs = or_left_ready.get(pf(g.left, pos), [])
                    ys = or_left_ready.get(pf(g.right, pos), [])
                    for s1 in xs:
                        for s2 in ys:
                            if len(s1.ant) + len(s2.ant) - 1 <= cap and \
                                    len(s1.suc) + len(s2.suc) <= cap:
                                out.append(Sequent(
                                    s1.ant[:-1] + s2.ant[:-1] + (pf(g, pos),),
                                    s1.suc + s2.suc))
            if isinstance(g, Imp):
                for pos in poss:
                    xs = imp_b_ready.get(pf(g.right, pos), [])
                    ys = imp_a_ready.get(pf(g.left, pos), [])
                    for s1 in xs:
                        for s2 in ys:
                            if len(s1.ant) + len(s2.ant) <= cap and \
                                    len(s1.suc) + len(s2.suc) - 1 <= cap:
                                out.append(Sequent(
                                    s1.ant[:-1] + s2.ant + (pf(g, pos),),
                                    s1.suc + s2.suc[1:]))
        return out

    seen = {Sequent((q,), (q,)) for q in pfs}
    for _ in range(max_height - 1):
        new = set()
        for s in seen:
            new.update(unary(s))
        new.update(binary(seen))
        seen |= new
    return seen


def test_criterion_4_consistency_enumeration():
    t0 = time.perf_counter()
    conclusions = _derivable_conclusions(4)
    assert Sequent() not in conclusions
    assert all(s.ant or s.suc for s in conclusions)
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 4 consistency ({len(conclusions)} cut-free conclusions "
          f"up to height 4): PASS ({elapsed:.2f}s)")


def test_criterion_5_modal_soundness_fuzz():
    t0 = time.perf_counter()
    runs = 0
    for sysid in CORE:
        proofs = [p for _, p in corpus.entries(sysid)]
        proofs += generate_suite(sysid, 2, seed=41)
        for p in proofs:
            assert check_proof(p, sysid).accepted
            for seed in range(1, 6):
                v = soundness_fuzz(p.conclusion, sysid, 200, seed)
                assert v.ok, (sysid, seed)
                runs += 1
    # known-invalid sequents are refuted quickly
    p0 = Prop("p0")
    bad1 = seq((), (pf(Dia(Imp(p0, p0)), seqpos()),))
    v1 = soundness_fuzz(bad1, SystemId.K, 50, 1)
    assert not v1.ok and not sequent_holds(v1.model, SystemId.K, v1.rho, bad1)
    bad2 = seq((), (pf(Imp(Box(p0), p0), seqpos()),))
    v2 = soundness_fuzz(bad2, SystemId.K, 50, 1)
    assert not v2.ok and not sequent_holds(v2.model, SystemId.K, v2.rho, bad2)
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 5 modal-soundness-fuzz ({runs} clean runs, "
          f"2 counterexamples): PASS ({elapsed:.2f}s)")


def test_criterion_6_ltl_soundness_fuzz():
    t0 = time.perf_counter()
    runs = 0
    for name, p in corpus.entries(SystemId.LTL):
        if name == "blocked-cut":
            continue
        assert check_proof(p, SystemId.LTL).accepted
        v = ltl_soundness_fuzz(p.conclusion, 500, 1)
        assert v.ok, name
        runs += 1
        translated = ind_to_axiom(p)
        assert check_proof(translated, SystemId.LTL_INDAX).accepted
        v = ltl_soundness_fuzz(translated.conclusion, 500, 1)
        assert v.ok, name
        runs += 1
    p0 = Prop("p0")
    bad = seq((), (pf(Imp(Next(p0), p0), LtlPos()),))
    v = ltl_soundness_fuzz(bad, 50, 1)
    assert not v.ok and v.words_tried <= 50
    assert not sequent_satisfied(v.word, v.valuation, bad)
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 6 ltl-soundness-fuzz ({runs} clean runs at budget 500, "
          f"1 counterexample): PASS ({elapsed:.2f}s)")


def test_criterion_7_lemma_level_properties():
    t0 = time.perf_counter()
    n1 = run_sub1_check(1500, seed=101)
    assert n1 >= 1000, n1
    n2 = run_sub2_check(1500, seed=102)
    assert n2 >= 1000, n2
    n3 = run_subltl_check(1000, seed=103)
    assert n3 >= 1000
    n4 = run_eval_oracle_fuzz(1000, seed=104)
    assert n4 >= 1000
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 7 lemma-properties (sub1={n1}, sub2={n2}, "
          f"subLTL={n3}, evalAt={n4}): PASS ({elapsed:.2f}s)")


def test_criterion_8_blocked_cut():
    p = corpus.ltl_blocked_cut()
    cuts = [n for n in _all_nodes(p) if n.rule == "cut"]
    assert cuts and cuts[0].param("cutf").formula == And(Prop("p0"),
                                                         Next(Prop("p0")))
    assert check_proof(p, SystemId.LTL).accepted
    with pytest.raises(UnsupportedSystemError):
        eliminate_cuts(p, SystemId.LTL)
    print("\nACCEPTANCE 8 blocked-cut: PASS")


def _all_nodes(p):
    stack = [p]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(n.premises)
