"""Effective proof transformations: eigen renaming, prefix replacement,
lifting, necessitation, modus-ponens composition, and the translation of
the induction rule into its axiom form.

Every transformation returns a proof that re-checks in the target system;
eigen tokens are renamed apart first whenever a construction could make
two scopes collide.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .calculus import (SCHEMAS, OccurrenceIndex, ProofNode, SystemId, TABLE,
                       ax, and_right, box_left, box_right, bridge_proof,
                       check_proof, cut, edge, eigen_token, imp_left,
                       imp_right, indax, next_right, node, proof_tokens, seq)
from .errors import TransformError
from .positions import (LtlPos, PastPos, Position, SeqPos, SetPos, Token,
                        concat, ltl_add, prefix_replace, seqpos)
from .syntax import Box, Imp, Next, PFormula, Sequent, pf


class FreshTokenSource:
    """Deterministic allocator of tokens b0, b1, ... skipping an avoid set."""

    def __init__(self, avoid: Iterable[Token] = ()):
        self._avoid = set(avoid)
        self._n = 0

    def reserve(self, tokens: Iterable[Token]) -> None:
        self._avoid |= set(tokens)

    def take(self) -> Token:
        while True:
            t = f"b{self._n}"
            self._n += 1
            if t not in self._avoid:
                self._avoid.add(t)
                return t


def _rename_pos(p: Position, mapping: dict[Token, Token]) -> Position:
    if isinstance(p, SeqPos):
        return SeqPos(tuple(mapping.get(t, t) for t in p.items))
    if isinstance(p, SetPos):
        return SetPos(frozenset(mapping.get(t, t) for t in p.items))
    if isinstance(p, LtlPos):
        return LtlPos(p.steps, frozenset(mapping.get(t, t) for t in p.future))
    return PastPos(p.offset, frozenset(mapping.get(t, t) for t in p.future),
                   frozenset(mapping.get(t, t) for t in p.past))


def _rename_pf(q: PFormula, mapping) -> PFormula:
    return PFormula(q.formula, _rename_pos(q.pos, mapping))


def _rename_seq(s: Sequent, mapping) -> Sequent:
    return Sequent(tuple(_rename_pf(q, mapping) for q in s.ant),
                   tuple(_rename_pf(q, mapping) for q in s.suc))


def _rename_tree(n: ProofNode, mapping: dict[Token, Token]) -> ProofNode:
    prems = tuple(_rename_tree(c, mapping) for c in n.premises)
    params = {}
    for k, v in n.params:
        if isinstance(v, (SeqPos, SetPos, LtlPos, PastPos)):
            params[k] = _rename_pos(v, mapping)
        elif isinstance(v, PFormula):
            params[k] = _rename_pf(v, mapping)
        elif k == "x" and isinstance(v, str):
            params[k] = mapping.get(v, v)
        else:
            params[k] = v
    return node(n.rule, params, _rename_seq(n.conclusion, mapping), prems)


def _scoped_rename(n: ProofNode, source: FreshTokenSource) -> ProofNode:
    """Rename every eigen token to a fresh one within its own scope.

    Two phases: eigen tokens first move to temporaries no input can
    contain (children first, so an inner rule that reused an outer token
    has already stepped aside when the outer scope is rewritten), then one
    flat bijection takes the temporaries to their allocated names.  Going
    through temporaries keeps a new name from ever being captured by the
    rewrite of an enclosing scope that still carries it as its old name.
    """
    temps: list[Token] = []

    def pass1(m: ProofNode) -> ProofNode:
        prems = tuple(pass1(c) for c in m.premises)
        cur = node(m.rule, dict(m.params), m.conclusion, prems)
        x = eigen_token(cur)
        if x is None:
            return cur
        tmp = f"\x00eig{len(temps)}"
        temps.append(tmp)
        mapping = {x: tmp}
        new_prems = tuple(_rename_tree(c, mapping) for c in cur.premises)
        params = {k: (tmp if k == "x" else v) for k, v in cur.params}
        return node(cur.rule, params, cur.conclusion, new_prems)

    mid = pass1(n)
    if not temps:
        return mid
    final = {tmp: source.take() for tmp in temps}
    return _rename_tree(mid, final)


def _free_tokens(p: ProofNode) -> frozenset[Token]:
    """Tokens with an occurrence outside every scope of an eigen rule
    carrying that token; these must survive a canonical renaming."""
    index = OccurrenceIndex(p)
    scopes: dict[Token, list[int]] = {}
    for i, x in index.eigens:
        scopes.setdefault(x, []).append(i)
    return frozenset(t for t in index.at
                     if index.first_outside(t, scopes.get(t, ())) is not None)


def canonical_rename(p: ProofNode,
                     avoid: Iterable[Token] = ()) -> ProofNode:
    """Scoped renaming into the numbered b-scheme; idempotent."""
    source = FreshTokenSource(_free_tokens(p))
    source.reserve(avoid)
    return _scoped_rename(p, source)


def rename_eigen(p: ProofNode, sys: SystemId) -> ProofNode:
    """Canonical alpha-normal form of a proof.

    Eigen tokens are numbered in leftmost-innermost order; a proof whose
    only defect is eigen-token sharing is repaired in passing, anything
    else is rejected.
    """
    rep = check_proof(p, sys)
    hard = [v for v in rep.failures if v.condition != "token-condition"]
    if hard:
        raise TransformError("ill-formed proof: " + hard[0].message)
    return canonical_rename(p)


def rename_apart(proofs: list[ProofNode]) -> list[ProofNode]:
    """Rename the eigen tokens of several proofs into disjoint fresh sets."""
    source = FreshTokenSource()
    for q in proofs:
        source.reserve(proof_tokens(q))
    return [_scoped_rename(q, source) for q in proofs]


def _strip_prefix(pos: SeqPos, pre: SeqPos) -> SeqPos:
    if pos.items[:len(pre.items)] != pre.items:
        raise TransformError(f"{pos} does not extend {pre}")
    return SeqPos(pos.items[len(pre.items):])


def prefix_replace_proof(p: ProofNode, source: SeqPos, target: SeqPos,
                         sys: SystemId) -> ProofNode:
    """Rewrite a proof under the replacement of one position prefix.

    The source must be nonempty (a position delta+z); eigen tokens are
    first renamed away from both the source and the target so the
    replacement commutes with every rule.
    """
    if not isinstance(source, SeqPos) or not source.items:
        raise TransformError("replacement source must be a nonempty sequence position")
    renamed = rename_eigen(p, sys)
    fresh = FreshTokenSource(_free_tokens(renamed))
    fresh.reserve(source.tokens() | target.tokens())
    renamed = _scoped_rename(renamed, fresh)
    return _map_positions(renamed, lambda q: prefix_replace(q, source, target))


def _map_positions(p: ProofNode, fn: Callable[[Position], Position]) -> ProofNode:
    """Apply ``fn`` to every position of a proof tree (the caller has
    arranged the eigen side conditions); a sequence step ``beta`` is read
    off again from the rewritten active and principal formulas."""

    def sub_pf(q: PFormula) -> PFormula:
        return PFormula(q.formula, fn(q.pos))

    def sub_seq(s: Sequent) -> Sequent:
        return Sequent(tuple(sub_pf(q) for q in s.ant),
                       tuple(sub_pf(q) for q in s.suc))

    def rec(n: ProofNode) -> ProofNode:
        prems = tuple(rec(c) for c in n.premises)
        concl = sub_seq(n.conclusion)
        params = dict(n.params)
        if "alpha" in params:
            params["alpha"] = fn(params["alpha"])
        if isinstance(params.get("cutf"), PFormula):
            params["cutf"] = sub_pf(params["cutf"])
        if isinstance(params.get("pf"), PFormula):
            params["pf"] = sub_pf(params["pf"])
        s = SCHEMAS.get(n.rule)
        if s and "step" in s.params and isinstance(params.get("beta"), SeqPos):
            side = "L" if s.premises[0].left else "R"
            params["beta"] = _strip_prefix(edge(prems[0].conclusion, side).pos,
                                           edge(concl, s.side).pos)
        return node(n.rule, params, concl, prems)

    return rec(p)


def lift_proof(p: ProofNode, by: Position, sys: SystemId) -> ProofNode:
    """Shift every position of an accepted proof by a fixed amount.

    Sequence positions are prefixed, set positions are united, and linear
    time positions are added; the rule constraints survive because the
    shift commutes with every step operation.
    """
    family = TABLE[sys].family
    if not isinstance(by, family):
        raise TransformError(
            f"lift position {by} is not in the {family.__name__} family of {sys.value}")
    identity = (isinstance(by, SeqPos) and not by.items) or \
        (isinstance(by, SetPos) and not by.items) or \
        (isinstance(by, LtlPos) and by.steps == 0 and not by.future)
    if identity:
        rep = check_proof(p, sys)
        if not rep.accepted:
            raise TransformError("ill-formed proof: " + rep.failures[0].message)
        return p
    renamed = rename_eigen(p, sys)
    fresh = FreshTokenSource(_free_tokens(renamed))
    fresh.reserve(by.tokens())
    renamed = _scoped_rename(renamed, fresh)
    if isinstance(by, SeqPos):
        return _map_positions(renamed, lambda q: concat(by, q))
    if isinstance(by, SetPos):
        return _map_positions(renamed, lambda q: SetPos(q.items | by.items))
    if isinstance(by, LtlPos):
        return _map_positions(renamed, lambda q: ltl_add(q, by))
    raise TransformError("lifting is not defined for past positions")


def necessitate(p: ProofNode, sys: SystemId) -> ProofNode:
    """From a proof of the bare sequent of A, one of the boxed A."""
    if TABLE[sys].family is not SeqPos:
        raise TransformError("necessitation is defined for the modal systems")
    end = p.conclusion
    if end.ant or len(end.suc) != 1 or end.suc[0].pos != SeqPos():
        raise TransformError("necessitation needs an end sequent |- A at []")
    x = FreshTokenSource(proof_tokens(p)).take()
    lifted = lift_proof(p, seqpos(x), sys)
    return box_right(lifted, x)


def compose_mp(pab: ProofNode, pa: ProofNode, sys: SystemId) -> ProofNode:
    """Detour through two cuts realizing modus ponens.

    Both cuts keep a formula at the implication's position in the residual
    context, so the restricted systems' cut condition is met.
    """
    eab, ea = pab.conclusion, pa.conclusion
    if eab.ant or len(eab.suc) != 1 or not isinstance(eab.suc[0].formula, Imp):
        raise TransformError("first proof must conclude |- A -> B at some position")
    if ea.ant or len(ea.suc) != 1:
        raise TransformError("second proof must conclude |- A at some position")
    imp = eab.suc[0]
    a_f, b_f, alpha = imp.formula.left, imp.formula.right, imp.pos
    if ea.suc[0] != pf(a_f, alpha):
        raise TransformError("second proof does not prove the antecedent at the "
                             "implication's position")
    pab2, pa2 = rename_apart([pab, pa])
    gadget = imp_left(ax(pf(b_f, alpha)), ax(pf(a_f, alpha)))
    c1 = cut(pab2, gadget, imp)
    return cut(pa2, c1, pf(a_f, alpha))


def ind_to_axiom(p: ProofNode) -> ProofNode:
    """Replace every induction-rule node by its axiom-form derivation."""

    def rec(n: ProofNode) -> ProofNode:
        prems = tuple(rec(c) for c in n.premises)
        if n.rule != "ind":
            return node(n.rule, dict(n.params), n.conclusion, prems)
        x, t = n.param("x"), n.param("t")
        concl = n.conclusion
        a_pf = concl.ant[-1]
        a_f, s_pos = a_pf.formula, a_pf.pos
        gamma, delta = concl.ant[:-1], concl.suc[1:]
        box_step = Box(Imp(a_f, Next(a_f)))
        n1 = next_right(prems[0])
        n2 = imp_right(n1)
        n3 = box_right(n2, x)                  # Gamma |- box(A -> X A) at s, Delta
        leaf = indax(a_f, s_pos)
        g1 = and_right(ax(pf(a_f, s_pos)), ax(pf(box_step, s_pos)))
        g2 = imp_left(ax(pf(Box(a_f), s_pos)), g1)
        g3 = cut(leaf, g2, leaf.conclusion.suc[0])
        c1 = cut(n3, g3, pf(box_step, s_pos))  # Gamma, A at s |- Delta, box A at s
        c1 = bridge_proof(c1, seq(gamma + (a_pf,), (pf(Box(a_f), s_pos),) + delta))
        g4 = box_left(ax(pf(a_f, ltl_add(s_pos, t))), t, alpha=s_pos)
        c2 = cut(c1, g4, pf(Box(a_f), s_pos))
        return bridge_proof(c2, concl)

    return rec(p)
