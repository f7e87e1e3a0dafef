"""The built-in derivation corpus.

One constructor per concrete derivation the kernel is exercised against:
the characteristic modal axioms, the modus-ponens detour, the directed
axiom over set positions, the eight linear-time axioms, the blocked-cut
example, and the four tense axioms with past.  Each system maps to the
corpus entries that are legal in it.
"""

from __future__ import annotations

from typing import Callable

from .calculus import (ProofNode, SystemId, apply_rule, apply_structural, ax,
                       bridge_proof, indax, seq)
from .positions import LtlPos, ltl_token, pastpos, seqpos, setpos
from .syntax import And, Box, Formula, Imp, Next, Not, Prop, pf
from .transform import compose_mp, ind_to_axiom

P0 = Prop("p0")
P1 = Prop("p1")
E = seqpos()
L0 = LtlPos()


def _l(steps=0, *tokens) -> LtlPos:
    return LtlPos(steps, frozenset(tokens))


def taut(a: Formula = P0, pos=E) -> ProofNode:
    """|- (A -> A) at the given position."""
    return apply_rule("impR", (ax(pf(a, pos)),))


def axiom_k(a: Formula = P0, b: Formula = P1) -> ProofNode:
    """|- box(A -> B) -> (box A -> box B), double lines expanded."""
    x = seqpos("x")
    n = apply_rule("impL", (ax(pf(b, x)), ax(pf(a, x))))
    n = apply_rule("boxL", (n,), step=x)        # A, box(A->B) |- B
    n = bridge_proof(n, seq((pf(Box(Imp(a, b)), E), pf(a, x)), (pf(b, x),)))
    n = apply_rule("boxL", (n,), step=x)        # box(A->B), box A |- B
    n = bridge_proof(n, seq((pf(Box(a), E), pf(Box(Imp(a, b)), E)), (pf(b, x),)))
    n = apply_rule("boxR", (n,), x="x")         # ... |- box B
    n = bridge_proof(n, seq((pf(Box(Imp(a, b)), E), pf(Box(a), E)),
                            (pf(Box(b), E),)))
    return apply_rule("impR", (apply_rule("impR", (n,)),))


def axiom_d(a: Formula = P0) -> ProofNode:
    """|- box A -> dia A."""
    x = seqpos("x")
    n = apply_rule("boxL", (ax(pf(a, x)),), step=x)     # box A |- A at [x]
    n = apply_rule("diaR", (n,), step=x)                # box A |- dia A
    return apply_rule("impR", (n,))


def axiom_t(a: Formula = P0) -> ProofNode:
    """|- box A -> A, via an empty step."""
    n = apply_rule("boxL", (ax(pf(a, E)),), step=E)
    return apply_rule("impR", (n,))


def axiom_4(a: Formula = P0) -> ProofNode:
    """|- box A -> box box A, via a two-token step."""
    yx = seqpos("y", "x")
    n = apply_rule("boxL", (ax(pf(a, yx)),), step=yx)   # box A |- A at [y,x]
    n = apply_rule("boxR", (n,), x="x")                 # box A |- box A at [y]
    n = apply_rule("boxR", (n,), x="y")                 # box A |- box box A
    return apply_rule("impR", (n,))


def diamond_taut_cut(a: Formula = P0) -> ProofNode:
    """The cut concluding |- dia(A -> A); its contexts are empty, which is
    exactly what the restricted systems' cut condition rejects."""
    x = seqpos("x")
    aa = Imp(a, a)
    left = taut(a, x)                                   # |- A -> A at [x]
    right = apply_rule("diaR", (ax(pf(aa, x)),), step=x)    # A -> A at [x] |- dia(A -> A)
    return apply_rule("cut", (left, right), cutf=pf(aa, x))


def mp_example(sys: SystemId) -> ProofNode:
    """Modus ponens composed out of two tautology proofs."""
    return compose_mp(taut(Imp(P0, P0)), taut(P0), sys)


def s42_axiom(a: Formula = P0) -> ProofNode:
    """|- dia box A -> box dia A over set positions."""
    xy = setpos("x", "y")
    n = apply_rule("boxL", (ax(pf(a, xy)),), step=setpos("x"), alpha=setpos("y"))
    n = apply_rule("diaR", (n,), step=setpos("y"), alpha=setpos("x"))
    n = apply_rule("boxR", (n,), x="x")         # box A at {y} |- box dia A
    n = apply_rule("diaL", (n,), x="y")         # dia box A |- box dia A
    return apply_rule("impR", (n,))


def ltl_a1(a: Formula = P0, b: Formula = P1) -> ProofNode:
    """|- X(A -> B) -> (X A -> X B)."""
    s1 = _l(1)
    n = apply_rule("impL", (ax(pf(b, s1)), ax(pf(a, s1))))
    n = apply_rule("nextL", (n,))               # A, X(A->B) |- B
    n = bridge_proof(n, seq((pf(Next(Imp(a, b)), L0), pf(a, s1)), (pf(b, s1),)))
    n = apply_rule("nextL", (n,))
    n = bridge_proof(n, seq((pf(Next(a), L0), pf(Next(Imp(a, b)), L0)),
                            (pf(b, s1),)))
    n = apply_rule("nextR", (n,))
    n = bridge_proof(n, seq((pf(Next(Imp(a, b)), L0), pf(Next(a), L0)),
                            (pf(Next(b), L0),)))
    return apply_rule("impR", (apply_rule("impR", (n,)),))


def ltl_a2(a: Formula = P0) -> ProofNode:
    """|- ~X A -> X ~A: the next step is its own dual."""
    s1 = _l(1)
    n = apply_rule("negR", (ax(pf(a, s1)),))   # |- ~A, A at step 1
    n = bridge_proof(n, seq((), (pf(a, s1), pf(Not(a), s1))))
    n = apply_rule("nextR", (n,))               # |- X A, ~A at step 1
    n = bridge_proof(n, seq((), (pf(Not(a), s1), pf(Next(a), L0))))
    n = apply_rule("nextR", (n,))               # |- X ~A, X A
    n = bridge_proof(n, seq((), (pf(Next(a), L0), pf(Next(Not(a)), L0))))
    n = apply_rule("negL", (n,))                # ~X A |- X ~A
    return apply_rule("impR", (n,))


def ltl_a3(a: Formula = P0, b: Formula = P1) -> ProofNode:
    """|- box(A -> B) -> (box A -> box B)."""
    sx = _l(0, "x")
    n = apply_rule("impL", (ax(pf(b, sx)), ax(pf(a, sx))))
    n = apply_rule("boxL", (n,), step=ltl_token("x"), alpha=L0)
    n = bridge_proof(n, seq((pf(Box(Imp(a, b)), L0), pf(a, sx)), (pf(b, sx),)))
    n = apply_rule("boxL", (n,), step=ltl_token("x"), alpha=L0)
    n = bridge_proof(n, seq((pf(Box(a), L0), pf(Box(Imp(a, b)), L0)),
                            (pf(b, sx),)))
    n = apply_rule("boxR", (n,), x="x")
    n = bridge_proof(n, seq((pf(Box(Imp(a, b)), L0), pf(Box(a), L0)),
                            (pf(Box(b), L0),)))
    return apply_rule("impR", (apply_rule("impR", (n,)),))


def ltl_a4(a: Formula = P0) -> ProofNode:
    """|- box A -> A, with a zero step."""
    n = apply_rule("boxL", (ax(pf(a, L0)),), step=_l(0), alpha=L0)
    return apply_rule("impR", (n,))


def ltl_a5(a: Formula = P0) -> ProofNode:
    """|- box A -> box box A."""
    syx = _l(0, "y", "x")
    n = apply_rule("boxL", (ax(pf(a, syx)),), step=syx, alpha=L0)
    n = apply_rule("boxR", (n,), x="x")         # box A |- box A at (0;{y})
    n = apply_rule("boxR", (n,), x="y")
    return apply_rule("impR", (n,))


def ltl_a6(a: Formula = P0) -> ProofNode:
    """|- box A -> X A."""
    n = apply_rule("nextR", (ax(pf(a, _l(1))),))
    n = apply_rule("boxL", (n,), step=_l(1), alpha=L0)
    return apply_rule("impR", (n,))


def ltl_a7(a: Formula = P0) -> ProofNode:
    """|- box A -> X box A."""
    sx1 = _l(1, "x")
    n = apply_rule("boxL", (ax(pf(a, sx1)),), step=sx1, alpha=L0)   # box A |- A at (1;{x})
    n = apply_rule("boxR", (n,), x="x")         # box A |- box A at (1;{})
    n = apply_rule("nextR", (n,))
    return apply_rule("impR", (n,))


def ltl_a8(a: Formula = P0) -> ProofNode:
    """|- A & box(A -> X A) -> box A, through the induction rule."""
    sx = _l(0, "x")
    sx1 = _l(1, "x")
    step = Box(Imp(a, Next(a)))
    n = apply_rule("nextL", (ax(pf(a, sx1)),))  # X A at s+x |- A at s+x+1
    n = apply_rule("impL", (n, ax(pf(a, sx))))  # A, A -> X A |- A at s+x+1
    n = apply_rule("boxL", (n,), step=ltl_token("x"), alpha=L0)     # A, box(A -> X A) |- ...
    n = bridge_proof(n, seq((pf(step, L0), pf(a, sx)), (pf(a, sx1),)))
    n = apply_rule("ind", (n,), x="x", step=ltl_token("z"))    # box(...), A |- A at (0;{z})
    n = apply_rule("andL1", (n,), other=step)
    n = apply_structural("excL", n, 0)
    n = apply_rule("andL2", (n,), other=a)
    n = apply_structural("contrL", n)           # A & box(...) |- A at (0;{z})
    n = apply_rule("boxR", (n,), x="z")
    return apply_rule("impR", (n,))


def indax_instance(a: Formula = P0) -> ProofNode:
    return indax(a, L0)


def ltl_a8_via_axiom() -> ProofNode:
    return ind_to_axiom(ltl_a8())


def ltl_blocked_cut() -> ProofNode:
    """The induction proof with a cut on (p & X p) that cannot be pushed
    past the induction rule."""
    p = P0
    x0 = _l(0, "x")
    x1 = _l(1, "x")
    z0 = _l(0, "z")
    pxp = And(p, Next(p))
    stepf = Imp(p, Next(Next(p)))

    n = apply_rule("nextL", (ax(pf(Next(p), x1)),))     # X X p |- X p at s+x+1
    n = apply_rule("impL", (n, ax(pf(p, x0))))          # p, p -> X X p |- X p
    n = apply_rule("andR", (ax(pf(p, x1)), n))          # ... |- p & X p at s+x+1
    n = bridge_proof(n, seq((pf(p, x0), pf(p, x1), pf(stepf, x0)),
                            (pf(pxp, x1),)))
    n = apply_rule("boxL", (n,), step=ltl_token("x"), alpha=L0)
    n = bridge_proof(n, seq((pf(p, x0), pf(Box(stepf), L0), pf(p, x1)),
                            (pf(pxp, x1),)))
    n = apply_rule("nextL", (n,))               # ..., X p at s+x |- ...
    n = bridge_proof(n, seq((pf(Next(p), x0), pf(Box(stepf), L0), pf(p, x0)),
                            (pf(pxp, x1),)))
    n = apply_rule("andL1", (n,), other=Next(p))
    n = bridge_proof(n, seq((pf(pxp, x0), pf(Box(stepf), L0), pf(Next(p), x0)),
                            (pf(pxp, x1),)))
    n = apply_rule("andL2", (n,), other=p)
    n = bridge_proof(n, seq((pf(Box(stepf), L0), pf(pxp, x0), pf(pxp, x0)),
                            (pf(pxp, x1),)))
    n = apply_structural("contrL", n)           # box(...), p & X p |- at s+x+1
    n = apply_rule("ind", (n,), x="x", step=ltl_token("z"))    # box(...), p & X p |- at z
    right = apply_rule("andL1", (ax(pf(p, z0)),), other=Next(p))    # p & X p at z |- p at z
    n = apply_rule("cut", (n, right), cutf=pf(pxp, z0))
    n = bridge_proof(n, seq((pf(pxp, L0), pf(Box(stepf), L0)), (pf(p, z0),)))
    return apply_rule("boxR", (n,), x="z")      # ... |- box p


def tense_hist_dia(a: Formula = P0) -> ProofNode:
    """|- A -> H dia A."""
    base = pastpos()
    n = apply_rule("diaR", (ax(pf(a, base)),), step=ltl_token("x"), alpha=pastpos(0, ("x",)))
    n = apply_rule("histR", (n,), x="x")
    return apply_rule("impR", (n,))


def tense_box_once(a: Formula = P0) -> ProofNode:
    """|- A -> box P A."""
    base = pastpos()
    n = apply_rule("onceR", (ax(pf(a, base)),), step=ltl_token("x"), alpha=pastpos(0, (), ("x",)))
    n = apply_rule("boxR", (n,), x="x")
    return apply_rule("impR", (n,))


def tense_next_prev(a: Formula = P0) -> ProofNode:
    """|- A -> X Y A."""
    n = apply_rule("prevR", (ax(pf(a, pastpos())),))    # A |- Y A at offset 1
    n = apply_rule("nextR", (n,))
    return apply_rule("impR", (n,))


def tense_prev_next(a: Formula = P0) -> ProofNode:
    """|- A -> Y X A."""
    n = apply_rule("nextR", (ax(pf(a, pastpos())),))    # A |- X A at offset -1
    n = apply_rule("prevR", (n,))
    return apply_rule("impR", (n,))


HOME: dict[SystemId, tuple[tuple[str, Callable[[], ProofNode]], ...]] = {
    SystemId.K: (("axiom-K", axiom_k),
                 ("mp-example", lambda: mp_example(SystemId.K))),
    SystemId.D: (("axiom-K", axiom_k), ("axiom-D", axiom_d),
                 ("diamond-taut-cut", diamond_taut_cut),
                 ("mp-example", lambda: mp_example(SystemId.D))),
    SystemId.T: (("axiom-K", axiom_k), ("axiom-D", axiom_d),
                 ("axiom-T", axiom_t), ("diamond-taut-cut", diamond_taut_cut),
                 ("mp-example", lambda: mp_example(SystemId.T))),
    SystemId.K4: (("axiom-K", axiom_k), ("axiom-4", axiom_4),
                  ("mp-example", lambda: mp_example(SystemId.K4))),
    SystemId.S4: (("axiom-K", axiom_k), ("axiom-D", axiom_d),
                  ("axiom-T", axiom_t), ("axiom-4", axiom_4),
                  ("diamond-taut-cut", diamond_taut_cut),
                  ("mp-example", lambda: mp_example(SystemId.S4))),
    SystemId.S42: (("axiom-S42", s42_axiom),),
    SystemId.LTL: (("A1", ltl_a1), ("A2", ltl_a2), ("A3", ltl_a3),
                   ("A4", ltl_a4), ("A5", ltl_a5), ("A6", ltl_a6),
                   ("A7", ltl_a7), ("A8", ltl_a8),
                   ("blocked-cut", ltl_blocked_cut)),
    SystemId.LTL_INDAX: (("A1", ltl_a1), ("A2", ltl_a2), ("A3", ltl_a3),
                         ("A4", ltl_a4), ("A5", ltl_a5), ("A6", ltl_a6),
                         ("A7", ltl_a7), ("A8-via-axiom", ltl_a8_via_axiom),
                         ("indax-instance", indax_instance)),
    SystemId.LTLP: (("tense-hist-dia", tense_hist_dia),
                    ("tense-box-once", tense_box_once),
                    ("tense-next-prev", tense_next_prev),
                    ("tense-prev-next", tense_prev_next)),
}


def entries(sys: SystemId) -> list[tuple[str, ProofNode]]:
    """Build every corpus derivation that is home in the given system."""
    return [(name, build()) for name, build in HOME[sys]]
