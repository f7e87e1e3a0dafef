"""Degree bookkeeping, the mix procedure, and cut elimination with
subformula verification, for the five sequence-position systems.

The mix of two proofs removes every occurrence of the cut formula from
the right side of the first and the left side of the second, recursing on
the lexicographic pair of heights; elimination then inducts on the pair
of proof degree and height.  Both measures are checked at runtime, and a
failure raises `KernelInvariantError` (also under ``python -O``).  For
the two restricted systems the mix carries a position hypothesis mirroring
their cut condition; it is checked on every entry and a violation is
reported as an error, never patched over.  Both entry points check
their input proofs first and refuse a rejected one, naming its first
failure, since the mix assumes well-formed proofs.

The mix reads rule shapes only from `calculus.SCHEMAS`: one step mixes a
premise of either proof with the other proof, both to re-apply a rule
that does not introduce the cut formula and to reduce a principal pair,
which cuts each operand both schemas expose.
"""

from __future__ import annotations

from typing import Callable, Optional

from .calculus import (CORE_SYSTEMS, SCHEMAS, STRUCTURAL_RULES, ProofNode,
                       Sequent, SystemId, TABLE, bridge_proof, check_proof,
                       cut, cut_position_holds, edge, height, node,
                       proof_tokens, reapply, seq, subproofs)
from .errors import (KernelInvariantError, MixHypothesisError, TwoseqError,
                     UnsupportedSystemError)
from .positions import SeqPos, prefix_replace
from .syntax import PFormula, degree, is_subformula
from .transform import FreshTokenSource, _map_positions, _scoped_rename

Trace = Optional[Callable[[str], None]]


def _ensure(holds: bool, invariant: str) -> None:
    if not holds:
        raise KernelInvariantError(invariant)


def proof_degree(p: ProofNode) -> int:
    """Zero for cut-free proofs, else one past the largest cut-formula degree."""
    best = 0
    for n in subproofs(p):
        if n.rule == "cut":
            best = max(best, degree(n.param("cutf").formula) + 1)
    return best


def is_cut_free(p: ProofNode) -> bool:
    return all(n.rule != "cut" for n in subproofs(p))


def verify_subformula_property(p: ProofNode) -> bool:
    """Every formula anywhere in the proof is a subformula of the conclusion."""
    ends = p.conclusion.pformulas()
    for n in subproofs(p):
        for q in n.conclusion.pformulas():
            if not any(is_subformula(q, e) for e in ends):
                return False
    return True


def _check_input(p: ProofNode, sys: SystemId, what: str) -> None:
    rep = check_proof(p, sys)
    if not rep.accepted:
        raise TwoseqError(f"{what} is rejected in {sys.value}: {rep.failures[0]}")


def _removed(xs: tuple[PFormula, ...], cutf: PFormula) -> tuple[PFormula, ...]:
    return tuple(q for q in xs if q != cutf)


def _mix_target(s1: Sequent, s2: Sequent, cutf: PFormula) -> Sequent:
    return seq(s1.ant + _removed(s2.ant, cutf), _removed(s1.suc, cutf) + s2.suc)


# the two proofs of a cut or a mix, by index k: the left one (0) carries
# the cut formula in its succedent (side R), the right one (1) in its
# antecedent (side L)
_NAMES = ("left", "right")


def _cut_side(s: Sequent, k: int) -> tuple[PFormula, ...]:
    return s.ant if k else s.suc


def _gathered(p: ProofNode, f: PFormula, side: str) -> ProofNode:
    """p with every copy of f contracted into one at its edge on side."""
    s = p.conclusion
    if side == "L":
        return bridge_proof(p, seq(_removed(s.ant, f) + (f,), s.suc))
    return bridge_proof(p, seq(s.ant, (f,) + _removed(s.suc, f)))


class _Mixer:
    def __init__(self, cutf: PFormula, sys: SystemId, src: FreshTokenSource,
                 trace: Trace):
        self.cutf = cutf
        self.sys = sys
        self.src = src
        self.trace = trace

    def run(self, p1: ProofNode, p2: ProofNode,
            parent: Optional[tuple[int, int]]) -> ProofNode:
        measure = (height(p1), height(p2))
        _ensure(parent is None or measure < parent,
                "mix height measure failed to decrease")
        want = _mix_target(p1.conclusion, p2.conclusion, self.cutf)
        # when one side carries no occurrence at all, nothing is removed
        # from it and the spliced sequent is reachable by weakening alone;
        # recursion below a two-premise rule can land here with the other
        # premise holding the only position witness, where the restricted
        # hypothesis is silent
        pair = (p1, p2)
        for k in (1, 0):
            if self.cutf not in _cut_side(pair[k].conclusion, k):
                if self.trace:
                    self.trace(f"mix: no occurrences on the {_NAMES[1 - k]} "
                               f"of the {_NAMES[k]} proof")
                return bridge_proof(pair[k], want)
        out = self._dispatch(pair, want, measure)
        _ensure(out.conclusion == want, "mix produced the wrong sequent")
        return out

    def _dispatch(self, pair: tuple[ProofNode, ProofNode], E: Sequent,
                  measure) -> ProofNode:
        cutf = self.cutf
        t = self.trace or (lambda s: None)

        for k, p in enumerate(pair):
            if p.rule == "ax":
                t(f"mix: {_NAMES[k]} axiom")
                base = pair[1 - k] if p.conclusion.ant[0] == cutf else p
                return bridge_proof(base, E)
        for k, p in enumerate(pair):
            if p.rule in STRUCTURAL_RULES:
                t(f"mix: {_NAMES[k]} structural {p.rule}")
                args = list(pair)
                args[k] = p.premises[0]
                return bridge_proof(self._sub(args, measure), E)
        # from here on rules are rebuilt over removal-damaged contexts,
        # which is where the restricted systems' position hypothesis does
        # its work; the axiom and structural cases above never consume it
        if TABLE[self.sys].cut_guard and \
                not cut_position_holds(cutf, pair[0].conclusion, pair[1].conclusion):
            raise MixHypothesisError(
                f"mix position {cutf.pos} is not an initial segment of either "
                f"cut-free context")
        for k, p in enumerate(pair):
            # a logical rule introduces cutf when it is its principal formula
            s = SCHEMAS.get(p.rule)
            if s is None or s.side != "RL"[k] or edge(p.conclusion, s.side) != cutf:
                t(f"mix: {_NAMES[k]} rule {p.rule} does not introduce the cut formula")
                if s is None:
                    raise TwoseqError(f"mix: unexpected rule {p.rule}")
                prems = [self._premise(pair, k, i, measure)
                         for i in range(len(p.premises))]
                return bridge_proof(reapply(p, prems), E)
        t(f"mix: principal case on {type(cutf.formula).__name__}")
        return bridge_proof(self._principal(pair, measure), E)

    def _sub(self, args, measure, keep_left: bool = False) -> ProofNode:
        # fresh copies keep every eigen token unique across duplicated sides
        a, b = args
        return self.run(a if keep_left else _scoped_rename(a, self.src),
                        _scoped_rename(b, self.src), measure)

    def _premise(self, pair, k: int, i: int, measure, prem=None,
                 keep_left: bool = False) -> ProofNode:
        """Mix premise i of pair[k] (or ``prem`` standing in for it) with
        the whole other proof, then bridge the result so that the
        premise's active formulas stay at its edges, around the contexts
        the mix splices."""
        shape = SCHEMAS[pair[k].rule].premises[i]
        prem = prem or pair[k].premises[i]
        q = prem.conclusion
        args = list(pair)
        args[k] = prem
        ends = [r.conclusion for r in pair]
        ends[k] = seq(q.ant[:-1] if shape.left else q.ant,
                      q.suc[1:] if shape.right else q.suc)
        w = _mix_target(*ends, self.cutf)
        target = seq(w.ant + q.ant[-1:] if shape.left else w.ant,
                     q.suc[:1] + w.suc if shape.right else w.suc)
        return bridge_proof(self._sub(args, measure, keep_left), target)

    def _principal(self, pair, measure) -> ProofNode:
        """Both rules introduce the cut formula: cut, once per operand both
        schemas expose, the premise carrying it on the right against the
        premise carrying it on the left, each mixed with the other proof.
        An eigen premise first moves to the position the other side reads
        the operand at; a premise already cut is reused from that cut."""
        carriers = {}       # (operand, side) -> (proof k, premise i, its shift)
        for k, p in enumerate(pair):
            for i, shape in enumerate(SCHEMAS[p.rule].premises):
                for side, act in (("L", shape.left), ("R", shape.right)):
                    if act is not None:
                        carriers[act.operand, side] = (k, i, act.shift)
        mixed: set[tuple[int, int]] = set()     # premises already cut into out
        for operand in ("sub", "left", "right"):
            ends = [carriers.get((operand, side)) for side in "RL"]
            if None in ends:
                continue
            prems = [pair[k].premises[i] for k, i, _ in ends]
            eigen = [j for j, (_, _, shift) in enumerate(ends) if shift == "+x"]
            o = 1 - eigen[0] if eigen else 1     # the carrier the position is read off
            f = edge(prems[o].conclusion, "RL"[o])
            for j in eigen:
                old = SeqPos(self.cutf.pos.items + (pair[ends[j][0]].param("x"),))
                prems[j] = _map_positions(prems[j], lambda q: prefix_replace(
                    q, old, f.pos))
            sides = []
            for (k, i, _), prem, side in zip(ends, prems, "RL"):
                if (k, i) in mixed:
                    sides.append(_gathered(out, f, side))
                else:
                    sides.append(self._premise(pair, k, i, measure, prem,
                                               keep_left=not mixed))
                    mixed.add((k, i))
            out = cut(sides[0], sides[1], f)
        return out


def mix(p1: ProofNode, p2: ProofNode, cutf: PFormula, sys: SystemId,
        trace: Trace = None) -> ProofNode:
    """Effective simultaneous cut on every occurrence of the cut formula.

    Yields a proof of the spliced sequent with degree at most the cut
    formula's; both input degrees must already be within that bound.
    """
    if sys not in CORE_SYSTEMS:
        raise UnsupportedSystemError(
            f"mix is defined for the five core modal systems, not {sys.value}")
    for k, p in enumerate((p1, p2)):
        _check_input(p, sys, f"mix: the {_NAMES[k]} proof")
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
    _check_input(p, sys, "cut elimination: the input proof")
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
        for k, q in enumerate((p1, p2)):
            # a second copy besides the one at the cut edge
            if _cut_side(q.conclusion, k).count(cutf) > 1:
                t(f"eliminate: cut formula recurs on the {_NAMES[1 - k]}, bypassing mix")
                return bridge_proof(_eliminate(q, sys, src, trace, my), p.conclusion)
    q1 = _eliminate(p1, sys, src, trace, my)
    q2 = _eliminate(p2, sys, src, trace, my)
    t(f"eliminate: mixing on {type(cutf.formula).__name__} at {cutf.pos}")
    mixer = _Mixer(cutf, sys, src, trace)
    mixed = mixer.run(q1, q2, None)
    # the mix dropped the degree below the eliminated cut's, so the pair
    # (degree, height) still decreases even though the height grew
    flat = _eliminate(mixed, sys, src, trace, my)
    return bridge_proof(flat, p.conclusion)
