"""Degree bookkeeping, the mix procedure, and cut elimination with
subformula verification, for the five sequence-position systems.

The mix of two proofs removes every occurrence of the cut formula from
the right side of the first and the left side of the second, recursing on
the lexicographic pair of heights; elimination then inducts on the pair
of proof degree and height.  Both measures are checked at runtime, and a
failure raises `KernelInvariantError` (also under ``python -O``).  For
the two restricted systems the mix carries a position hypothesis mirroring
their cut condition; it is checked on every entry and a violation is
reported as an error, never patched over.
"""

from __future__ import annotations

from typing import Callable, Optional

from .calculus import (CORE_SYSTEMS, SCHEMAS, STRUCTURAL_RULES, ProofNode,
                       Sequent, SystemId, TABLE, bridge_proof, cut,
                       cut_position_holds, edge, height, iter_nodes, node,
                       proof_tokens, reapply, seq)
from .errors import (KernelInvariantError, MixHypothesisError, TwoseqError,
                     UnsupportedSystemError)
from .positions import SeqPos, prefix_replace
from .syntax import (And, Box, Dia, Imp, Not, Or, PFormula, degree,
                     is_subformula, pf)
from .transform import FreshTokenSource, _map_positions, _scoped_rename

Trace = Optional[Callable[[str], None]]


def _ensure(holds: bool, invariant: str) -> None:
    if not holds:
        raise KernelInvariantError(invariant)


def proof_degree(p: ProofNode) -> int:
    """Zero for cut-free proofs, else one past the largest cut-formula degree."""
    best = 0
    for _, n in iter_nodes(p):
        if n.rule == "cut":
            best = max(best, degree(n.param("cutf").formula) + 1)
    return best


def is_cut_free(p: ProofNode) -> bool:
    return all(n.rule != "cut" for _, n in iter_nodes(p))


def verify_subformula_property(p: ProofNode) -> bool:
    """Every formula anywhere in the proof is a subformula of the conclusion."""
    ends = p.conclusion.pformulas()
    for _, n in iter_nodes(p):
        for q in n.conclusion.pformulas():
            if not any(is_subformula(q, e) for e in ends):
                return False
    return True


def _removed(xs: tuple[PFormula, ...], cutf: PFormula) -> tuple[PFormula, ...]:
    return tuple(q for q in xs if q != cutf)


def _mix_target(p1: ProofNode, p2: ProofNode, cutf: PFormula) -> Sequent:
    return seq(p1.conclusion.ant + _removed(p2.conclusion.ant, cutf),
               _removed(p1.conclusion.suc, cutf) + p2.conclusion.suc)


def _introduces(p: ProofNode, cutf: PFormula, side: str) -> bool:
    """Whether p's rule is a logical one making cutf its principal on side."""
    s = SCHEMAS.get(p.rule)
    return s is not None and s.side == side and edge(p.conclusion, side) == cutf


class _Mixer:
    def __init__(self, cutf: PFormula, sys: SystemId, src: FreshTokenSource,
                 trace: Trace):
        self.cutf = cutf
        self.sys = sys
        self.src = src
        self.trace = trace
        self.degree = degree(cutf.formula)

    def strip(self, xs) -> tuple[PFormula, ...]:
        return _removed(tuple(xs), self.cutf)

    def run(self, p1: ProofNode, p2: ProofNode,
            parent: Optional[tuple[int, int]]) -> ProofNode:
        measure = (height(p1), height(p2))
        _ensure(parent is None or measure < parent,
                "mix height measure failed to decrease")
        want = _mix_target(p1, p2, self.cutf)
        # when one side carries no occurrence at all, nothing is removed
        # from it and the spliced sequent is reachable by weakening alone;
        # recursion below a two-premise rule can land here with the other
        # premise holding the only position witness, where the restricted
        # hypothesis is silent
        if self.cutf not in p2.conclusion.ant:
            if self.trace:
                self.trace("mix: no occurrences on the left of the right proof")
            return bridge_proof(p2, want)
        if self.cutf not in p1.conclusion.suc:
            if self.trace:
                self.trace("mix: no occurrences on the right of the left proof")
            return bridge_proof(p1, want)
        out = self._dispatch(p1, p2, measure)
        _ensure(out.conclusion == want, "mix produced the wrong sequent")
        return out

    def sub(self, a: ProofNode, b: ProofNode,
            measure: tuple[int, int]) -> ProofNode:
        # fresh copies keep every eigen token unique across duplicated sides
        return self.run(_scoped_rename(a, self.src),
                        _scoped_rename(b, self.src), measure)

    def _dispatch(self, p1: ProofNode, p2: ProofNode, measure) -> ProofNode:
        cutf = self.cutf
        E = _mix_target(p1, p2, cutf)
        r, rp = p1.rule, p2.rule
        t = self.trace or (lambda s: None)

        if r == "ax":
            t("mix: left axiom")
            base = p2 if p1.conclusion.ant[0] == cutf else p1
            return bridge_proof(base, E)
        if rp == "ax":
            t("mix: right axiom")
            base = p1 if p2.conclusion.ant[0] == cutf else p2
            return bridge_proof(base, E)
        if r in STRUCTURAL_RULES:
            t(f"mix: left structural {r}")
            return bridge_proof(self.sub(p1.premises[0], p2, measure), E)
        if rp in STRUCTURAL_RULES:
            t(f"mix: right structural {rp}")
            return bridge_proof(self.sub(p1, p2.premises[0], measure), E)
        # from here on rules are rebuilt over removal-damaged contexts,
        # which is where the restricted systems' position hypothesis does
        # its work; the axiom and structural cases above never consume it
        if TABLE[self.sys].cut_guard and \
                not cut_position_holds(cutf, p1.conclusion, p2.conclusion):
            raise MixHypothesisError(
                f"mix position {cutf.pos} is not an initial segment of either "
                f"cut-free context")
        c1, c2, strip = p1.conclusion, p2.conclusion, self.strip
        if r == "cut" or not _introduces(p1, cutf, "R"):
            t(f"mix: left rule {r} does not introduce the cut formula")
            return self._reapply(p1, lambda c: self.sub(c, p2, measure),
                                 lambda ant, suc: (ant + strip(c2.ant), strip(suc) + c2.suc), E)
        if rp == "cut" or not _introduces(p2, cutf, "L"):
            t(f"mix: right rule {rp} does not introduce the cut formula")
            return self._reapply(p2, lambda c: self.sub(p1, c, measure),
                                 lambda ant, suc: (c1.ant + strip(ant), strip(c1.suc) + suc), E)
        t(f"mix: principal case on {type(cutf.formula).__name__}")
        return self._case_principal(p1, p2, E, measure)

    # -- a non-principal rule is reapplied over its mixed premises --

    def _reapply(self, p: ProofNode, mixed, widen, E) -> ProofNode:
        """Mix each premise of p (``mixed``), bridge the result to the
        premise's shape around the same active formulas, with the contexts
        ``widen`` gives, then rebuild p's rule and bridge to E."""
        s = SCHEMAS.get(p.rule)
        if s is None:
            raise TwoseqError(f"mix: unexpected rule {p.rule}")
        prems = []
        for c, shape in zip(p.premises, s.premises):
            q = c.conclusion
            ant, suc = widen(q.ant[:-1] if shape.left else q.ant,
                             q.suc[1:] if shape.right else q.suc)
            target = seq(ant + q.ant[-1:] if shape.left else ant,
                         q.suc[:1] + suc if shape.right else suc)
            prems.append(bridge_proof(mixed(c), target))
        return bridge_proof(reapply(p, prems), E)

    # -- both rules introduce the cut formula principally --

    def _case_principal(self, p1, p2, E, measure) -> ProofNode:
        cutf, strip = self.cutf, self.strip
        f, alpha = cutf.formula, cutf.pos

        def to(m, ant, suc):
            return bridge_proof(m, seq(tuple(ant), tuple(suc)))

        def ren(q):
            return _scoped_rename(q, self.src)

        if isinstance(f, Not):
            sub = pf(f.sub, alpha)
            g, d1 = p1.premises[0].conclusion.ant[:-1], p1.conclusion.suc[1:]
            gp, dp = p2.conclusion.ant[:-1], p2.conclusion.suc
            m1 = self.run(p1, ren(p2.premises[0]), measure)
            m2 = self.run(ren(p1.premises[0]), ren(p2), measure)
            left = g + strip(gp)
            m1 = to(m1, left, (sub,) + strip(d1) + dp)
            m2 = to(m2, left + (sub,), strip(d1) + dp)
            return bridge_proof(cut(m1, m2, sub), E)

        if isinstance(f, And):
            use_left = p2.rule == "andL1"
            comp = pf(f.left if use_left else f.right, alpha)
            pc = p1.premises[0] if use_left else p1.premises[1]
            m1 = self.run(pc, ren(p2), measure)
            m2 = self.run(ren(p1), ren(p2.premises[0]), measure)
            m1 = to(m1, pc.conclusion.ant + strip(p2.conclusion.ant[:-1]),
                    (comp,) + strip(pc.conclusion.suc[1:]) + p2.conclusion.suc)
            m2 = to(m2, p1.conclusion.ant + strip(p2.conclusion.ant[:-1]) + (comp,),
                    strip(p1.conclusion.suc[1:]) + p2.conclusion.suc)
            return bridge_proof(cut(m1, m2, comp), E)

        if isinstance(f, Or):
            use_left = p1.rule == "orR1"
            comp = pf(f.left if use_left else f.right, alpha)
            pc = p2.premises[0] if use_left else p2.premises[1]
            m1 = self.run(ren(p1.premises[0]), ren(p2), measure)
            m2 = self.run(p1, ren(pc), measure)
            m1 = to(m1, p1.conclusion.ant + strip(p2.conclusion.ant[:-1]),
                    (comp,) + strip(p1.conclusion.suc[1:]) + p2.conclusion.suc)
            m2 = to(m2, p1.conclusion.ant + strip(p2.conclusion.ant[:-1]) + (comp,),
                    strip(p1.conclusion.suc[1:]) + pc.conclusion.suc)
            return bridge_proof(cut(m1, m2, comp), E)

        if isinstance(f, Imp):
            a_pf, b_pf = pf(f.left, alpha), pf(f.right, alpha)
            pa, pb = p2.premises[1], p2.premises[0]   # |- A side, B |- side
            d1 = p1.conclusion.suc[1:]
            m1 = self.run(p1, ren(pa), measure)
            m3 = self.run(ren(p1.premises[0]), ren(p2), measure)
            m2 = self.run(ren(p1), ren(pb), measure)
            left1 = p1.conclusion.ant + strip(pa.conclusion.ant)
            m1 = to(m1, left1, (a_pf,) + strip(d1) + pa.conclusion.suc[1:])
            left3 = p1.conclusion.ant + strip(p2.conclusion.ant[:-1])
            m3 = to(m3, left3 + (a_pf,),
                    (b_pf,) + strip(d1) + p2.conclusion.suc)
            k1 = cut(m1, m3, a_pf)
            k1 = to(k1, k1.conclusion.ant,
                    (b_pf,) + tuple(q for q in k1.conclusion.suc if q != b_pf))
            left2 = p1.conclusion.ant + strip(pb.conclusion.ant[:-1])
            m2 = to(m2, left2 + (b_pf,), strip(d1) + pb.conclusion.suc)
            return bridge_proof(cut(k1, m2, b_pf), E)

        if isinstance(f, (Box, Dia)):
            # the eigen side (boxR, diaL) is moved to the position where the
            # other side (boxL, diaR) reads the operand
            box = isinstance(f, Box)
            eigen, other = (p1, p2) if box else (p2, p1)
            up = pf(f.sub, edge(other.premises[0].conclusion, "L" if box else "R").pos)
            shifted = _map_positions(eigen.premises[0], lambda q: prefix_replace(
                q, SeqPos(alpha.items + (eigen.param("x"),)), up.pos))
            q1, q2 = (shifted, p2.premises[0]) if box else (p1.premises[0], shifted)
            m1 = self.run(q1, ren(p2), measure)
            m2 = self.run(ren(p1), ren(q2), measure)
            left = p1.conclusion.ant + strip(p2.conclusion.ant[:-1])
            m1 = to(m1, left, (up,) + strip(p1.conclusion.suc[1:]) + p2.conclusion.suc)
            m2 = to(m2, left + (up,),
                    strip(p1.conclusion.suc[1:]) + p2.conclusion.suc)
            return bridge_proof(cut(m1, m2, up), E)

        raise TwoseqError("mix: principal case on an atomic cut formula")


def mix(p1: ProofNode, p2: ProofNode, cutf: PFormula, sys: SystemId,
        trace: Trace = None) -> ProofNode:
    """Effective simultaneous cut on every occurrence of the cut formula.

    Yields a proof of the spliced sequent with degree at most the cut
    formula's; both input degrees must already be within that bound.
    """
    if sys not in CORE_SYSTEMS:
        raise UnsupportedSystemError(
            f"mix is defined for the five core modal systems, not {sys.value}")
    n = degree(cutf.formula)
    if proof_degree(p1) > n or proof_degree(p2) > n:
        raise TwoseqError("mix: input proof degrees exceed the cut formula degree")
    src = FreshTokenSource(proof_tokens(p1) | proof_tokens(p2)
                           | cutf.pos.tokens())
    p1r, p2r = _scoped_rename(p1, src), _scoped_rename(p2, src)
    out = _Mixer(cutf, sys, src, trace).run(p1r, p2r, None)
    _ensure(proof_degree(out) <= n, "mix exceeded its degree bound")
    return out


def eliminate_cuts(p: ProofNode, sys: SystemId, trace: Trace = None) -> ProofNode:
    """A cut-free proof of the same end sequent, for the five core systems.

    Other systems are refused: the temporal induction rule blocks the cut
    permutations this procedure relies on.
    """
    if sys not in CORE_SYSTEMS:
        extra = ""
        if sys in (SystemId.LTL, SystemId.LTL_INDAX, SystemId.LTLP):
            extra = ": cuts against the induction rule cannot be permuted away"
        raise UnsupportedSystemError(
            f"cut elimination unsupported for this system ({sys.value}){extra}")
    if is_cut_free(p):
        return p
    src = FreshTokenSource(proof_tokens(p))
    q = _scoped_rename(p, src)
    out = _eliminate(q, sys, src, trace, None)
    _ensure(out.conclusion == p.conclusion, "elimination changed the end sequent")
    _ensure(is_cut_free(out), "elimination left a cut")
    _ensure(not out.conclusion.is_empty(),
            "cut-free proof of the empty sequent; the kernel is inconsistent")
    return out


def _eliminate(p: ProofNode, sys: SystemId, src: FreshTokenSource,
               trace: Trace, parent: Optional[tuple[int, int]]) -> ProofNode:
    my = (proof_degree(p), height(p))
    _ensure(parent is None or my < parent,
            "elimination measure failed to decrease")
    if my[0] == 0:
        return p
    t = trace or (lambda s: None)
    if p.rule != "cut":
        prems = tuple(_eliminate(c, sys, src, trace, my) for c in p.premises)
        return node(p.rule, dict(p.params), p.conclusion, prems)

    cutf = p.param("cutf")
    p1, p2 = p.premises
    if TABLE[sys].cut_guard:
        if cutf in p1.conclusion.suc[1:]:
            t("eliminate: cut formula recurs on the right, bypassing mix")
            q1 = _eliminate(p1, sys, src, trace, my)
            return bridge_proof(q1, p.conclusion)
        if cutf in p2.conclusion.ant[:-1]:
            t("eliminate: cut formula recurs on the left, bypassing mix")
            q2 = _eliminate(p2, sys, src, trace, my)
            return bridge_proof(q2, p.conclusion)
    q1 = _eliminate(p1, sys, src, trace, my)
    q2 = _eliminate(p2, sys, src, trace, my)
    t(f"eliminate: mixing on {type(cutf.formula).__name__} at {cutf.pos}")
    mixer = _Mixer(cutf, sys, src, trace)
    mixed = mixer.run(q1, q2, None)
    # the mix dropped the degree below the eliminated cut's, so the pair
    # (degree, height) still decreases even though the height grew
    flat = _eliminate(mixed, sys, src, trace, my)
    return bridge_proof(flat, p.conclusion)
