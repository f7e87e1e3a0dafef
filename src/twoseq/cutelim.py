"""Degree bookkeeping, the mix procedure, and cut elimination with
subformula verification, for the five sequence-position systems.

The mix of two proofs removes every occurrence of the cut formula from
the right side of the first and the left side of the second, descending
the lexicographic pair of heights; elimination then descends the pair of
proof degree and height.  Both measures are checked at runtime, and a
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

Each mix step is one generator, `_Mixer.run`, and each elimination step
one `_eliminate`: a step yields the sub-mix or sub-elimination it needs
as a fresh step and is sent back its result; one driver loop, `_drive`,
runs the steps depth first over an explicit stack, so the effects (fresh
names, trace lines, checks) come in the order of a recursive descent
while a proof of any depth takes a bounded number of Python frames.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from .calculus import (CORE_SYSTEMS, SCHEMAS, STRUCTURAL_RULES, ProofNode,
                       Sequent, SystemId, TABLE, apply_rule, bridge_proof,
                       check_proof, cut_position_holds, edge, height,
                       proof_tokens, reapply, seq, subproofs)
from .errors import (DegreeUndefinedError, KernelInvariantError,
                     MixHypothesisError, RejectedProofError, TwoseqError,
                     UnsupportedSystemError)
from .positions import SeqPos, prefix_replace
from .syntax import PFormula, degree, is_subformula
from .transform import (FreshTokenSource, _map_positions, _scoped_rename,
                        materialise)

Trace = Optional[Callable[[str], None]]
Step = Generator["Step", ProofNode, ProofNode]   # yields the steps it needs


def _ensure(holds: bool, invariant: str) -> None:
    if not holds:
        raise KernelInvariantError(invariant)


def _drive(step: Step) -> ProofNode:
    """Run a step to its result: a step it yields is run next, and its
    result is sent back to the step that yielded it."""
    stack, result = [step], None
    while stack:
        try:
            sub = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(sub)
            result = None
    return result


def proof_degree(p: ProofNode) -> int:
    """Zero for cut-free proofs, else one past the largest cut-formula degree."""
    if p.cut_rank < 0:
        raise DegreeUndefinedError("a cut formula is temporal or missing")
    return p.cut_rank


def is_cut_free(p: ProofNode) -> bool:
    return p.cut_rank == 0


def verify_subformula_property(p: ProofNode) -> bool:
    """Every formula anywhere in the proof is a subformula of the conclusion;
    each distinct (interned) one is decided once, at its first occurrence."""
    ends = p.conclusion.pformulas()
    firsts = dict.fromkeys(q for n in subproofs(p) for q in n.conclusion.pformulas())
    return all(any(is_subformula(q, e) for e in ends) for q in firsts)


def _check_input(p: ProofNode, sys: SystemId, what: str) -> None:
    rep = check_proof(p, sys)
    if not rep.accepted:
        raise RejectedProofError(
            f"{what} is rejected in {sys.value}: {rep.failures[0]}", rep)


def _removed(xs: tuple[PFormula, ...], cutf: PFormula) -> tuple[PFormula, ...]:
    return tuple([q for q in xs if q != cutf]) if cutf in xs else xs


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
            parent: Optional[tuple[int, int]]) -> Step:
        """One mix step: the proof its case builds, bridged to the spliced
        sequent.  Each sub-mix it needs is yielded as a fresh step."""
        measure = (height(p1), height(p2))
        _ensure(parent is None or measure < parent,
                "mix height measure failed to decrease")
        cutf, pair = self.cutf, (p1, p2)
        want = _mix_target(p1.conclusion, p2.conclusion, cutf)
        trace = self.trace
        # when one side carries no occurrence at all, nothing is removed
        # from it and the spliced sequent is reachable by weakening alone;
        # a sub-mix below a two-premise rule can land here with the other
        # premise holding the only position witness, where the restricted
        # hypothesis is silent
        for k in (1, 0):
            if cutf not in _cut_side(pair[k].conclusion, k):
                if trace:
                    trace(f"mix: no occurrences on the {_NAMES[1 - k]} of the {_NAMES[k]} proof")
                return bridge_proof(materialise(pair[k]), want)
        for k, p in enumerate(pair):
            if p.rule == "ax":
                if trace:
                    trace(f"mix: {_NAMES[k]} axiom")
                return bridge_proof(materialise(pair[1 - k]), want)
        for k, p in enumerate(pair):
            if p.rule in STRUCTURAL_RULES:
                if trace:
                    trace(f"mix: {_NAMES[k]} structural {p.rule}")
                # a structural rule's premise has no active formulas
                mixed = yield self.run(*self._operands(pair, k, p.premises[0]), measure)
                return bridge_proof(mixed, want)
        # from here on rules are rebuilt over removal-damaged contexts,
        # which is where the restricted systems' position hypothesis does
        # its work; the axiom and structural cases above never consume it
        if TABLE[self.sys].context_demand and \
                not cut_position_holds(cutf, p1.conclusion, p2.conclusion):
            raise MixHypothesisError(
                f"mix position {cutf.pos} is not an initial segment of either "
                f"cut-free context")
        for k, p in enumerate(pair):
            # a logical rule introduces cutf when it is its principal formula
            s = SCHEMAS.get(p.rule)
            if s is None or s.side != "RL"[k] or edge(p.conclusion, s.side) != cutf:
                if trace:
                    trace(f"mix: {_NAMES[k]} rule {p.rule} does not introduce the cut formula")
                if s is None:
                    raise TwoseqError(f"mix: unexpected rule {p.rule}")
                prems = []
                for i, prem in enumerate(p.premises):
                    mixed = yield self.run(*self._operands(pair, k, prem), measure)
                    prems.append(self._at_edges(mixed, pair, k, i, prem))
                return bridge_proof(reapply(p, prems), want)
        # the principal case: both rules introduce the cut formula.  Cut,
        # once per operand both schemas expose, the premise carrying it on
        # the right against the premise carrying it on the left, each
        # mixed with the other proof.  An eigen premise first moves to the
        # position the other side reads the operand at; a premise already
        # cut is reused from that cut
        if trace:
            trace(f"mix: principal case on {type(cutf.formula).__name__}")
        carriers = {}       # (operand, side) -> (proof k, premise i, its shift)
        for k, p in enumerate(pair):
            for i, shape in enumerate(SCHEMAS[p.rule].premises):
                for side, act in (("L", shape.left), ("R", shape.right)):
                    if act is not None:
                        carriers[act.operand, side] = (k, i, act.shift)
        done: set[tuple[int, int]] = set()     # premises already cut into out
        for operand in ("sub", "left", "right"):
            ends = [carriers.get((operand, side)) for side in "RL"]
            if None in ends:
                continue
            prems = [pair[k].premises[i] for k, i, _ in ends]
            eigen = [j for j, (_, _, shift) in enumerate(ends) if shift == "+x"]
            o = 1 - eigen[0] if eigen else 1     # the carrier the position is read off
            f = edge(prems[o].conclusion, "RL"[o])
            for j in eigen:
                old = SeqPos(cutf.pos.items + (pair[ends[j][0]].param("x"),))
                prems[j] = _map_positions(materialise(prems[j]), lambda q:
                                          prefix_replace(q, old, f.pos))
            sides = []
            for (k, i, _), prem, side in zip(ends, prems, "RL"):
                if (k, i) in done:
                    sides.append(_gathered(out, f, side))
                else:
                    mixed = yield self.run(*self._operands(pair, k, prem, not done),
                                           measure)
                    sides.append(self._at_edges(mixed, pair, k, i, prem))
                    done.add((k, i))
            out = apply_rule("cut", sides, cutf=f)
        return bridge_proof(out, want)

    def _operands(self, pair, k: int, prem, keep_left: bool = False) -> tuple:
        """The pair a sub-mix takes: ``prem``, a premise of pair[k] or one
        standing in for it, and the whole other proof, both fresh copies
        (bar the left one under ``keep_left``) so that eigen tokens stay
        unique across duplicated sides."""
        a, b = (prem, pair[1]) if k == 0 else (pair[0], prem)
        return (a if keep_left else _scoped_rename(a, self.src, True),
                _scoped_rename(b, self.src, True))

    def _at_edges(self, mixed: ProofNode, pair, k: int, i: int, prem) -> ProofNode:
        """The sub-mix of premise i of pair[k] (``prem`` standing in for
        it) bridged so that the premise's active formulas stay at its
        edges, around the contexts the mix splices."""
        shape, q = SCHEMAS[pair[k].rule].premises[i], prem.conclusion
        ends = [r.conclusion for r in pair]
        ends[k] = seq(q.ant[:-1] if shape.left else q.ant,
                      q.suc[1:] if shape.right else q.suc)
        w = _mix_target(*ends, self.cutf)
        return bridge_proof(mixed, seq(w.ant + q.ant[-1:] if shape.left else w.ant,
                                       q.suc[:1] + w.suc if shape.right else w.suc))


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
    p1r, p2r = _scoped_rename(p1, src, True), _scoped_rename(p2, src, True)
    out = _drive(_Mixer(cutf, sys, src, trace).run(p1r, p2r, None))
    _ensure(proof_degree(out) <= n, "mix exceeded its degree bound")
    return out


def eliminate_cuts(p: ProofNode, sys: SystemId, trace: Trace = None) -> ProofNode:
    """A cut-free proof of the same end sequent, for the five core systems.

    Other systems are refused; in the temporal ones the induction rule or
    axiom blocks the cut permutations this procedure relies on.  The input
    is checked first, in any system, so a rejected proof is reported as such.
    """
    _check_input(p, sys, "cut elimination: the input proof")
    if sys not in CORE_SYSTEMS:
        ind = TABLE[sys].induction
        extra = f": cuts against the induction {ind} cannot be permuted away" \
            if ind != "none" else ""
        raise UnsupportedSystemError(
            f"cut elimination unsupported for this system ({sys.value}){extra}")
    if is_cut_free(p):
        return p
    src = FreshTokenSource(proof_tokens(p))
    q = _scoped_rename(p, src, True)
    out = _drive(_eliminate(q, sys, src, trace, None))
    _ensure(out.conclusion == p.conclusion, "elimination changed the end sequent")
    _ensure(is_cut_free(out), "elimination left a cut")
    _ensure(out.conclusion.ant or out.conclusion.suc,
            "cut-free proof of the empty sequent; the kernel is inconsistent")
    return out


def _eliminate(p: ProofNode, sys: SystemId, src: FreshTokenSource,
               trace: Trace, parent: Optional[tuple[int, int]]) -> Step:
    """One elimination step.  A premise that is cut-free is only
    materialised: its measure (0, h) is below any that has a cut."""
    my = (proof_degree(p), height(p))
    _ensure(parent is None or my < parent,
            "elimination measure failed to decrease")
    if p.rule != "cut":
        prems = []
        for c in p.premises:
            prems.append((yield _eliminate(c, sys, src, trace, my)) if c.cut_rank
                         else materialise(c))
        return ProofNode(p.rule, p.params, p.conclusion, tuple(prems))

    cutf = p.param("cutf")
    p1, p2 = p.premises
    if TABLE[sys].context_demand:
        for k, q in enumerate((p1, p2)):
            # a second copy besides the one at the cut edge
            if _cut_side(q.conclusion, k).count(cutf) > 1:
                if trace:
                    trace(f"eliminate: cut formula recurs on the {_NAMES[1 - k]}, bypassing mix")
                return bridge_proof((yield _eliminate(q, sys, src, trace, my))
                                    if q.cut_rank else materialise(q), p.conclusion)
    q1 = (yield _eliminate(p1, sys, src, trace, my)) if p1.cut_rank else materialise(p1)
    q2 = (yield _eliminate(p2, sys, src, trace, my)) if p2.cut_rank else materialise(p2)
    if trace:
        trace(f"eliminate: mixing on {type(cutf.formula).__name__} at {cutf.pos}")
    mixed = yield _Mixer(cutf, sys, src, trace).run(q1, q2, None)
    # the mix dropped the degree below the eliminated cut's, so the pair
    # (degree, height) still decreases even though the height grew
    return bridge_proof((yield _eliminate(mixed, sys, src, trace, my))
                        if mixed.cut_rank else materialise(mixed), p.conclusion)
