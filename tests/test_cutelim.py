"""Degree bookkeeping, mix cases, elimination, subformula property."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from proofgen import generate_suite
from twoseq.calculus import (SystemId, apply_rule, apply_structural, ax, box_right,
                             check_proof, height, seq, subproofs, weak_left)
from twoseq.cutelim import (eliminate_cuts, is_cut_free, mix, proof_degree,
                            verify_subformula_property)
from twoseq.errors import (MixHypothesisError, RejectedProofError,
                           TwoseqError, UnsupportedSystemError)
from twoseq.positions import seqpos
from twoseq.syntax import (And, Box, Dia, Imp, Not, Or, Prop, degree,
                           is_subformula, pf)
import twoseq.corpus as corpus
import twoseq.cutelim as cutelim

P0, P1 = Prop("p0"), Prop("p1")
E = seqpos()
CORE = (SystemId.K, SystemId.D, SystemId.T, SystemId.K4, SystemId.S4)


# -- degree --

def test_proof_degree_cut_free():
    assert proof_degree(corpus.axiom_k()) == 0


def test_proof_degree_is_sup_of_cut_formula_degrees():
    # assemble cuts on p0 (degree 0) and p0 -> p1 (degree 1): sup(deg+1) = 2
    imp = pf(Imp(P0, P1), E)
    inner = apply_rule("cut", (ax(imp), ax(imp)), cutf=imp)
    atom = pf(P0, E)
    outer = apply_rule("cut", (ax(atom), weak_left(apply_structural("weakR", inner, atom), atom)),
                       cutf=atom)
    assert proof_degree(outer) == 2


def test_proof_degree_single_boxed_cut():
    boxed = pf(Box(P0), E)
    assert proof_degree(apply_rule("cut", (ax(boxed), ax(boxed)), cutf=boxed)) == 2


def test_proof_degree_mp_example():
    # cut formulas (p0 -> p0) -> (p0 -> p0) and p0 -> p0: degrees 2 and 1
    assert proof_degree(corpus.mp_example(SystemId.S4)) == 3


# -- mix --

def test_mix_left_axiom_case():
    cutf = pf(P0, E)
    p1 = ax(cutf)
    p2 = apply_structural("weakR", apply_rule("boxL", (ax(pf(P0, E)),), step=E),
                          cutf)                         # box p0, |- p0, p0
    p2 = weak_left(p2, cutf)                            # box p0, p0 |- p0, p0
    # wrong shape for a direct cut; mix handles occurrences wholesale
    out = mix(p1, p2, cutf, SystemId.S4)
    assert out.conclusion == seq((cutf, pf(Box(P0), E)), (cutf, cutf))
    assert check_proof(out, SystemId.S4).accepted


def test_mix_axiom_on_other_formula():
    cutf = pf(P0, E)
    other = pf(P1, E)
    p1 = ax(other)
    p2 = weak_left(ax(other), cutf)
    out = mix(p1, p2, cutf, SystemId.S4)
    assert out.conclusion == seq((other, other), (other, other))
    assert check_proof(out, SystemId.S4).accepted


def test_mix_principal_box_case():
    # |- box p0 against box p0 |- p0 at [y]
    left = box_right(apply_rule("boxL", (ax(pf(P0, seqpos("x"))),), step=seqpos("x")), "x")
    assert left.conclusion == seq((pf(Box(P0), E),), (pf(Box(P0), E),))
    right = apply_rule("boxL", (ax(pf(P0, seqpos("y"))),), step=seqpos("y"))
    cutf = pf(Box(P0), E)
    out = mix(left, right, cutf, SystemId.S4)
    assert out.conclusion == seq((pf(Box(P0), E),), (pf(P0, seqpos("y")),))
    assert check_proof(out, SystemId.S4).accepted
    assert proof_degree(out) <= 1


def test_mix_degree_precondition():
    boxed = pf(Box(P0), E)
    deep = apply_rule("cut", (ax(boxed), ax(boxed)), cutf=boxed)    # degree 2
    with pytest.raises(TwoseqError):
        mix(deep, ax(pf(P0, E)), pf(P0, E), SystemId.S4)


def test_mix_and_eliminate_check_their_inputs():
    # p0 @ [x] |- box p0 @ []: the boxR eigen position [x] is among the
    # context initials; unchecked, the principal reduction fails to bridge
    bad = box_right(ax(pf(P0, seqpos("x"))), "x")
    right = apply_rule("boxL", (ax(pf(P0, seqpos("z"))),), step=seqpos("z"))
    cutf = pf(Box(P0), E)
    lines = []
    with pytest.raises(TwoseqError) as e:
        mix(bad, right, cutf, SystemId.S4, lines.append)
    assert type(e.value) is RejectedProofError and lines == []
    assert str(e.value) == ("mix: the left proof is rejected in S4: at root [boxR] "
                            "eigen-position: eigenposition [x] occurs among the "
                            "context initials")
    with pytest.raises(TwoseqError) as e:
        eliminate_cuts(apply_rule("cut", (bad, right), cutf=cutf), SystemId.S4, lines.append)
    assert type(e.value) is RejectedProofError and lines == []
    assert str(e.value) == ("cut elimination: the input proof is rejected in S4: "
                            "at 0 [boxR] eigen-position: eigenposition [x] occurs "
                            "among the context initials")
    assert e.value.report == check_proof(apply_rule("cut", (bad, right), cutf=cutf), SystemId.S4)


def test_mix_refused_outside_core():
    with pytest.raises(UnsupportedSystemError):
        mix(ax(pf(P0, E)), ax(pf(P0, E)), pf(P0, E), SystemId.S42)


# an accepted proof of each system outside the core
_NON_CORE = ((SystemId.S42, corpus.s42_axiom), (SystemId.LTL, corpus.ltl_a1),
             (SystemId.LTL_INDAX, corpus.indax_instance),
             (SystemId.LTLP, corpus.tense_hist_dia))


@pytest.mark.parametrize("sysid, build", _NON_CORE, ids=[s.value for s, _ in _NON_CORE])
def test_refusal_texts_outside_core(sysid, build):
    p = build()
    assert check_proof(p, sysid).accepted
    with pytest.raises(UnsupportedSystemError) as e:
        mix(p, p, pf(P0, E), sysid)
    assert str(e.value) == f"mix is defined for the five core modal systems, not {sysid.value}"
    with pytest.raises(UnsupportedSystemError) as e:
        eliminate_cuts(p, sysid)
    extra = {SystemId.S42: "",
             SystemId.LTL_INDAX: ": cuts against the induction axiom cannot be permuted away",
             }.get(sysid, ": cuts against the induction rule cannot be permuted away")
    assert str(e.value) == \
        f"cut elimination unsupported for this system ({sysid.value}){extra}"


def test_mix_position_hypothesis_in_the_restricted_systems():
    # the premises of diamond-taut-cut: the cut position [x] is an initial
    # of neither cut-free context, which only K and K4 demand
    x = seqpos("x")
    aa = pf(Imp(P0, P0), x)
    left, right = corpus.taut(P0, x), apply_rule("diaR", (ax(aa),), step=x)
    for sysid in (SystemId.K, SystemId.K4):
        with pytest.raises(MixHypothesisError) as e:
            mix(left, right, aa, sysid)
        assert str(e.value) == ("mix position [x] is not an initial segment of "
                                "either cut-free context")
    out = mix(left, right, aa, SystemId.D)
    assert out.conclusion == seq((), (pf(Dia(Imp(P0, P0)), E),))
    assert check_proof(out, SystemId.D).accepted


# -- elimination --

def test_eliminate_cut_free_is_identity():
    p = corpus.axiom_k()
    assert eliminate_cuts(p, SystemId.K) == p


def test_eliminate_mp_per_system():
    for sysid in CORE:
        p = corpus.mp_example(sysid)
        out = eliminate_cuts(p, sysid)
        assert is_cut_free(out)
        assert out.conclusion == p.conclusion
        assert check_proof(out, sysid).accepted
        assert verify_subformula_property(out)


def test_eliminate_diamond_taut_where_legal():
    for sysid in (SystemId.D, SystemId.T, SystemId.S4):
        p = corpus.diamond_taut_cut()
        out = eliminate_cuts(p, sysid)
        assert is_cut_free(out)
        assert out.conclusion == p.conclusion
        assert check_proof(out, sysid).accepted


def test_eliminate_refuses_ltl_blocked_cut():
    p = corpus.ltl_blocked_cut()
    assert check_proof(p, SystemId.LTL).accepted
    with pytest.raises(UnsupportedSystemError) as e:
        eliminate_cuts(p, SystemId.LTL)
    assert "unsupported" in str(e.value)
    assert "induction" in str(e.value)


def test_eliminate_k_bypass_when_cut_formula_recurs():
    # cut formula also sits in the first premise's right context, so the
    # restricted systems bypass the mix with a weakening gadget
    cutf = pf(P0, E)
    p1 = apply_structural("weakR", ax(cutf), cutf)      # p0 |- p0, p0  (head is cutf)
    p1 = apply_structural("excR", p1, 0)
    p2 = ax(cutf)
    p = apply_rule("cut", (p1, p2), cutf=cutf)
    assert check_proof(p, SystemId.K).accepted
    out = eliminate_cuts(p, SystemId.K)
    assert is_cut_free(out)
    assert out.conclusion == p.conclusion
    assert check_proof(out, SystemId.K).accepted


def test_eliminate_generated_small_suite():
    for sysid in CORE:
        for p in generate_suite(sysid, 10, seed=11):
            out = eliminate_cuts(p, sysid)
            assert is_cut_free(out)
            assert out.conclusion == p.conclusion
            assert check_proof(out, sysid).accepted, sysid
            assert verify_subformula_property(out)


def test_trace_reports_cases():
    lines = []
    eliminate_cuts(corpus.mp_example(SystemId.S4), SystemId.S4, lines.append)
    assert any(line.startswith("eliminate: mixing") for line in lines)
    assert any(line.startswith("mix:") for line in lines)


# -- subformula property --

def test_outputs_hold_no_pending_renaming():
    # ProofNode accepts any premise object, so a view left in the output
    # would only show here; mix gets every cut of a suite proof whose
    # premises are within the cut formula's degree
    from twoseq.calculus import ProofNode, and_right, subproofs
    # an eigen rule in a cut-free premise beside a cut, and one in a
    # bypassed cut (K and K4), reach elimination's cut-free return
    bb = pf(Box(P0), E)
    beside = and_right(corpus.mp_example(SystemId.S4), _boxed(P0, (), "x"))
    bypass = apply_rule("cut", (apply_structural("excR", apply_structural(
        "weakR", _boxed(P0, (), "x"), bb), 0), ax(bb)), cutf=bb)
    extra = {SystemId.S4: [beside], SystemId.K: [bypass], SystemId.K4: [bypass]}
    mixed = 0
    for sysid in CORE:
        for p in generate_suite(sysid, 100, seed=2026) + extra.get(sysid, []):
            outs = [eliminate_cuts(p, sysid)]
            for c in subproofs(p):
                if c.rule == "cut" and max(q.cut_rank for q in c.premises) \
                        <= degree(c.param("cutf").formula):
                    try:
                        outs.append(mix(*c.premises, c.param("cutf"), sysid))
                    except MixHypothesisError:
                        continue
            mixed += len(outs) - 1
            assert all(type(n) is ProofNode for out in outs for n in subproofs(out))
    assert mixed > 800


def test_subformula_property_on_cut_free_corpus():
    for sysid in CORE:
        for name, p in corpus.entries(sysid):
            if is_cut_free(p):
                assert verify_subformula_property(p), (sysid, name)


def test_subformula_property_negative_control():
    # a cut splices in a formula foreign to the conclusion, so the scan
    # fails on proofs that still carry cuts (precondition violation path)
    alien = pf(P1, E)
    prem1 = apply_structural("weakR", ax(pf(P0, E)), alien)    # p0 |- p1, p0
    prem2 = weak_left(ax(pf(P0, E)), alien)         # p0, p1 |- p0
    p = apply_rule("cut", (prem1, prem2), cutf=alien)
    assert check_proof(p, SystemId.S4).accepted
    assert not verify_subformula_property(p)
    assert verify_subformula_property(eliminate_cuts(p, SystemId.S4))


def _per_occurrence_verdict(p):
    """The subformula scan deciding every occurrence, the reference for
    the scan that decides each distinct formula once: the verdict or the
    refusal."""
    ends = p.conclusion.pformulas()
    try:
        for n in subproofs(p):
            for q in n.conclusion.pformulas():
                if not any(is_subformula(q, e) for e in ends):
                    return False
        return True
    except TwoseqError as e:
        return type(e), str(e)


def _verdict(p):
    try:
        return verify_subformula_property(p)
    except TwoseqError as e:
        return type(e), str(e)


def test_subformula_scan_decides_as_every_occurrence_would():
    proofs = [p for sysid in SystemId for _, p in corpus.entries(sysid)]
    for sysid in CORE:
        for p in generate_suite(sysid, 30, seed=77):
            proofs += [p, eliminate_cuts(p, sysid)]
    verdicts = [_verdict(p) for p in proofs]
    assert verdicts == [_per_occurrence_verdict(p) for p in proofs]
    # every outcome occurs: holds, fails, and refused off the box/dia fragment
    assert {True, False} <= set(verdicts) and any(type(v) is tuple for v in verdicts)


def test_eliminated_proofs_never_conclude_empty():
    for sysid in CORE:
        for p in generate_suite(sysid, 5, seed=3):
            out = eliminate_cuts(p, sysid)
            assert out.conclusion.pformulas()


def test_mix_principal_not_case():
    cutf = pf(Not(P0), E)
    p1 = apply_rule("negR", (ax(pf(P0, E)),))    # |- ~p0, p0
    p2 = apply_rule("negL", (ax(pf(P0, E)),))    # p0, ~p0 |-
    out = mix(p1, p2, cutf, SystemId.S4)
    assert out.conclusion == seq((pf(P0, E),), (pf(P0, E),))
    assert check_proof(out, SystemId.S4).accepted
    assert proof_degree(out) <= 1


def test_mix_principal_and_case():
    from twoseq.calculus import and_right
    cutf = pf(And(P0, P1), E)
    p1 = and_right(ax(pf(P0, E)), ax(pf(P1, E)))    # p0, p1 |- p0 & p1
    for left_side in (True, False):
        if left_side:
            p2 = apply_rule("andL1", (ax(pf(P0, E)),), other=P1)    # p0 & p1 |- p0
            want = seq((pf(P0, E), pf(P1, E)), (pf(P0, E),))
        else:
            p2 = apply_rule("andL2", (ax(pf(P1, E)),), other=P0)    # p0 & p1 |- p1
            want = seq((pf(P0, E), pf(P1, E)), (pf(P1, E),))
        out = mix(p1, p2, cutf, SystemId.S4)
        assert out.conclusion == want
        assert check_proof(out, SystemId.S4).accepted
        assert proof_degree(out) <= 1


def test_mix_principal_or_case():
    cutf = pf(Or(P0, P1), E)
    p2 = apply_rule("orL", (ax(pf(P0, E)), ax(pf(P1, E))))      # p0 | p1 |- p0, p1
    for right_side in (True, False):
        p1 = (apply_rule("orR1", (ax(pf(P0, E)),), other=P1) if right_side
              else apply_rule("orR2", (ax(pf(P1, E)),), other=P0))
        out = mix(p1, p2, cutf, SystemId.S4)
        base = pf(P0, E) if right_side else pf(P1, E)
        assert out.conclusion == seq((base,), (pf(P0, E), pf(P1, E)))
        assert check_proof(out, SystemId.S4).accepted
        assert proof_degree(out) <= 1


def test_mix_principal_dia_case():
    cutf = pf(Dia(P0), E)
    p1 = apply_rule("diaR", (ax(pf(P0, seqpos("y"))),), step=seqpos("y"))    # p0 at [y] |- dia p0
    p2 = apply_rule("diaL", (apply_rule("diaR", (ax(pf(P0, seqpos("x"))),), step=seqpos("x")),),
                    x="x")
    assert p2.conclusion == seq((cutf,), (cutf,))
    out = mix(p1, p2, cutf, SystemId.S4)
    assert out.conclusion == seq((pf(P0, seqpos("y")),), (cutf,))
    assert check_proof(out, SystemId.S4).accepted
    assert proof_degree(out) <= 1


def test_mix_right_rule_reapplied():
    # the second proof ends with a right rule, so its last step is rebuilt
    # over the mixed premise with the cut occurrence weakened back
    from twoseq.calculus import and_right
    p5 = Prop("p5")
    cutf = pf(And(P0, P1), E)
    p1 = and_right(ax(pf(P0, E)), ax(pf(P1, E)))
    p2 = apply_rule("negR", (weak_left(ax(pf(p5, E)), cutf),))    # p5 |- ~(p0 & p1), p5
    out = mix(p1, p2, cutf, SystemId.S4)
    assert out.conclusion == seq(
        (pf(P0, E), pf(P1, E), pf(p5, E)),
        (pf(Not(And(P0, P1)), E), pf(p5, E)))
    assert check_proof(out, SystemId.S4).accepted


def test_mix_removes_context_occurrences_wholesale():
    from twoseq.calculus import imp_right
    cutf = pf(Imp(P0, P0), E)
    p1 = apply_structural("excR", apply_structural("weakR", imp_right(ax(pf(P0, E))), cutf), 0)
    assert p1.conclusion.suc == (cutf, cutf)
    p2 = apply_rule("impL", (ax(pf(P0, E)), ax(pf(P0, E))))    # p0, p0 -> p0 |- p0
    out = mix(p1, p2, cutf, SystemId.S4)
    assert out.conclusion == seq((pf(P0, E),), (pf(P0, E),))
    assert check_proof(out, SystemId.S4).accepted
    assert proof_degree(out) <= degree(cutf.formula)


def _random_cut_proof_pool(sysid, rng):
    """Grow a pool of accepted proofs by random forward rule application,
    including cuts whose formula is weakened into or shared with a partner."""
    from twoseq.calculus import and_right, bridge_proof, check_rule_instance, imp_right
    from twoseq.errors import BridgeError
    from strategies import random_formula

    def rand_pf():
        return pf(random_formula(rng, 1), seqpos(*rng.choice(((), ("u",), ("u", "v")))))

    pool = [ax(rand_pf()) for _ in range(4)]
    for _ in range(25):
        p = rng.choice(pool)
        kind = rng.randrange(12)
        try:
            if kind == 0:
                q = weak_left(p, rand_pf())
            elif kind == 1:
                q = apply_structural("weakR", p, rand_pf())
            elif kind == 2:
                q = apply_rule("negL", (p,))
            elif kind == 3:
                q = apply_rule("negR", (p,))
            elif kind == 4:
                q = apply_rule("andL1", (p,), other=rand_pf().formula)
            elif kind == 5:
                q = apply_rule("orR1", (p,), other=rand_pf().formula)
            elif kind == 6:
                q = imp_right(p)
            elif kind == 7:
                q = and_right(p, rng.choice(pool))
            elif kind == 8:
                q = apply_rule("impL", (p, rng.choice(pool)))
            elif kind == 9:
                q = apply_rule("orL", (p, rng.choice(pool)))
            else:
                a = p.conclusion.suc[0]
                partner = rng.choice(pool)
                ant = partner.conclusion.ant
                if kind == 11 and a in ant:
                    tgt = seq(tuple(x for x in ant if x != a) + (a,),
                              partner.conclusion.suc)
                else:
                    tgt = seq(ant + (a,), partner.conclusion.suc)
                q = apply_rule("cut", (p, bridge_proof(partner, tgt)), cutf=a)
            if height(q) > 14 or len(q.conclusion.ant) > 4 \
                    or len(q.conclusion.suc) > 4 or check_rule_instance(q, sysid):
                continue
            pool.append(q)
        except (TwoseqError, BridgeError, IndexError):
            continue
    return pool


def test_eliminate_randomized_forward_proofs():
    rng = random.Random(424242)
    tested = 0
    for sysid in CORE:
        for _ in range(12):
            for p in _random_cut_proof_pool(sysid, rng):
                if is_cut_free(p) or not check_proof(p, sysid).accepted:
                    continue
                out = eliminate_cuts(p, sysid)
                assert is_cut_free(out)
                assert out.conclusion == p.conclusion
                assert check_proof(out, sysid).accepted
                assert verify_subformula_property(out)
                tested += 1
    assert tested > 200


_BROKEN_DEGREE = """
import sys
from twoseq import corpus, cutelim
from twoseq.calculus import SystemId, iter_nodes
from twoseq.errors import KernelInvariantError

if __debug__:
    sys.exit("not running under python -O")
proof = dict(corpus.entries(SystemId.D))["diamond-taut-cut"]
c = next(n for _, n in iter_nodes(proof) if n.rule == "cut")
p1, p2 = c.premises
real = cutelim.proof_degree
# the inputs read their true degree, the mix output one past any bound
cutelim.proof_degree = lambda p: real(p) if p is p1 or p is p2 else 99
try:
    cutelim.mix(p1, p2, c.param("cutf"), SystemId.D)
except KernelInvariantError as e:
    print(e)
    sys.exit(0)
sys.exit("the broken degree bound went unnoticed")
"""


def test_degree_bound_is_checked_under_python_O():
    src = str(Path(cutelim.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", _BROKEN_DEGREE],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "mix exceeded its degree bound"


# -- pinned output: trace text and one principal case per connective --

def _digest(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# sha256 prefix of every trace line of eliminate_cuts over the seed-2026
# acceptance suite, then the system's corpus entries, in order
_TRACE_DIGESTS = {
    SystemId.K: "233691597fcb9a27",
    SystemId.D: "63332930e727f067",
    SystemId.T: "93c5ddda2fb8ea3a",
    SystemId.K4: "1febeaad9627055b",
    SystemId.S4: "129ad505cff9e560",
}


def _trace_lines(sysid):
    lines = []
    proofs = list(generate_suite(sysid, 100, seed=2026))
    proofs += [p for _, p in corpus.entries(sysid)]
    for p in proofs:
        eliminate_cuts(p, sysid, lines.append)
    return lines


@pytest.mark.parametrize("sysid", CORE, ids=lambda s: s.value)
def test_trace_text_is_pinned(sysid):
    assert _digest(_trace_lines(sysid)) == _TRACE_DIGESTS[sysid]


# sha256 prefix of the rendered output of eliminate_cuts over the same
# proofs, in the same order: the cut-free proofs themselves, byte for byte
_OUTPUT_DIGESTS = {
    SystemId.K: "66e304b5f0e2453d",
    SystemId.D: "459a684580783da9",
    SystemId.T: "b9d9bfb25ff8f720",
    SystemId.K4: "fb146da34464872f",
    SystemId.S4: "448e5a9866285182",
}


@pytest.mark.parametrize("sysid", CORE, ids=lambda s: s.value)
def test_cut_free_output_is_pinned(sysid):
    from twoseq.parser import render_proof
    proofs = list(generate_suite(sysid, 100, seed=2026))
    proofs += [p for _, p in corpus.entries(sysid)]
    outs = [render_proof(sysid, eliminate_cuts(p, sysid)) for p in proofs]
    assert _digest(outs) == _OUTPUT_DIGESTS[sysid]


def _boxed(atom, at, x):
    """box atom @ at |- box atom @ at, by boxL then boxR with eigen x."""
    inner = seqpos(*at, x)
    return box_right(apply_rule("boxL", (ax(pf(atom, inner)),), step=seqpos(x),
                                alpha=seqpos(*at)), x)


def _principal_pairs():
    """Per connective, a proof introducing the cut formula on the right,
    one introducing it on the left, and the cut formula; every premise
    carries an eigen token, so a change in renaming order shows."""
    from twoseq.calculus import and_right, imp_right
    bb = Box(P0)
    out = {
        "not": (apply_rule("negR", (_boxed(P0, (), "x"),)),
                apply_rule("negL", (_boxed(P0, (), "y"),)), pf(Not(bb), E)),
        "andL1": (and_right(_boxed(P0, (), "x"), _boxed(P0, (), "y")),
                  apply_rule("andL1", (_boxed(P0, (), "z"),), other=bb), pf(And(bb, bb), E)),
        "andL2": (and_right(_boxed(P0, (), "x"), _boxed(P0, (), "y")),
                  apply_rule("andL2", (_boxed(P0, (), "z"),), other=bb), pf(And(bb, bb), E)),
        "imp": (imp_right(_boxed(P0, (), "x")),
                apply_rule("impL", (_boxed(P0, (), "y"), _boxed(P0, (), "z"))),
                pf(Imp(bb, bb), E)),
        # box p0 |- box box p0 against box box p0 |- box p0 @ [z]
        "box": (box_right(box_right(apply_rule("boxL", (ax(pf(P0, seqpos("x", "y"))),),
                                               step=seqpos("x", "y")), "y"), "x"),
                apply_rule("boxL", (_boxed(P0, ("z",), "w"),), step=seqpos("z")),
                pf(Box(bb), E)),
    }
    # dia p0 @ [z] |- dia dia p0 against dia dia p0 |- dia p0
    inner = apply_rule("diaL", (apply_rule("diaR", (ax(pf(P0, seqpos("z", "w"))),),
                                           step=seqpos("w"), alpha=seqpos("z")),), x="w")
    eig = apply_rule("diaL", (apply_rule("diaR", (ax(pf(P0, seqpos("x", "y"))),),
                                         step=seqpos("x", "y")),), x="y")
    out["dia"] = (apply_rule("diaR", (inner,), step=seqpos("z")),
                  apply_rule("diaL", (eig,), x="x"), pf(Dia(Dia(P0)), E))
    return out


# sha256 prefix of the rendered mix output, per system and case
_PRINCIPAL_DIGESTS = {
    (SystemId.S4, "not"): "de4e93dd4c62e575",
    (SystemId.S4, "andL1"): "ff225acb6d55f764",
    (SystemId.S4, "andL2"): "15e4c836ff3fb606",
    (SystemId.S4, "imp"): "e28aa6e37dea4920",
    (SystemId.S4, "box"): "99374f5ad9f7464d",
    (SystemId.S4, "dia"): "25e8ee4106345b56",
    (SystemId.K4, "not"): "841192ace5af74fa",
    (SystemId.K4, "andL1"): "e4dcb747c12cc5fc",
    (SystemId.K4, "andL2"): "d46b5635d03264e3",
    (SystemId.K4, "imp"): "70d01a7b301300fd",
    (SystemId.K4, "box"): "dfa1832357acf087",
    (SystemId.K4, "dia"): "852f59c30fe7ae8a",
}


@pytest.mark.parametrize("sysid,case", list(_PRINCIPAL_DIGESTS),
                         ids=lambda v: getattr(v, "value", v))
def test_principal_mix_output_is_pinned(sysid, case):
    from twoseq.parser import render_proof
    p1, p2, cutf = _principal_pairs()[case]
    for p in (p1, p2):
        assert check_proof(p, sysid).accepted
    lines = []
    out = mix(p1, p2, cutf, sysid, lines.append)
    assert lines[0].startswith("mix: principal case")
    assert check_proof(out, sysid).accepted
    assert _digest([render_proof(sysid, out)]) == _PRINCIPAL_DIGESTS[sysid, case]


def _or_pair():
    """box p0 |- box p0 | p1 against p2, box p0 | p1 |- box p0, p1."""
    p1 = apply_rule("orR1", (_boxed(P0, (), "x"),), other=P1)
    p2 = apply_rule("orL", (ax(pf(Box(P0), E)),
                            apply_structural("excL", weak_left(ax(pf(P1, E)),
                                                               pf(Prop("p2"), E)), 0)))
    return p1, p2, pf(Or(Box(P0), P1), E)


# the generic principal reduction mixes only the orL premise that carries
# the operand, so the output is smaller than the 22 nodes the hand-written
# Or case built
_OR_DIGESTS = {SystemId.S4: "fd9bd23456bf56b0", SystemId.K4: "71fa7023f31e1a16"}


@pytest.mark.parametrize("sysid", list(_OR_DIGESTS), ids=lambda s: s.value)
def test_principal_or_mix(sysid):
    from twoseq.calculus import iter_nodes
    from twoseq.parser import render_proof
    p1, p2, cutf = _or_pair()
    for p in (p1, p2):
        assert check_proof(p, sysid).accepted
    lines = []
    out = mix(p1, p2, cutf, sysid, lines.append)
    assert lines[0] == "mix: principal case on Or"
    b = pf(Box(P0), E)
    assert out.conclusion == seq((b, pf(Prop("p2"), E)), (b, pf(P1, E)))
    assert check_proof(out, sysid).accepted
    assert sum(1 for _ in iter_nodes(out)) <= 22
    assert _digest([render_proof(sysid, out)]) == _OR_DIGESTS[sysid]
