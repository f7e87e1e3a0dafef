"""Effective proof transformations: eigen renaming, prefix replacement,
lifting, necessitation, modus-ponens composition, and the translation of
the induction rule into its axiom form.

Every transformation returns a proof that re-checks in the target system;
eigen tokens are renamed apart first whenever a construction could make
two scopes collide.

Each rewrite is one ``calculus.rebuild`` walk (premises left to right,
then the node, over an explicit stack) with one per-node map,
``_map_node``.  Scoped renaming takes fresh names in that children-first
order; each node stores its count of eigen rules, so a rule's name is
known when its premises are entered.  Cut elimination leaves a scoped
renaming pending, as a view renamed where it is read; materialising it is
one such walk over plain (scope, base) contexts, each node made by the
step a view reads (explicit substitutions: Abadi, Cardelli, Curien and Levy).
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterable, Optional

from .calculus import (SCHEMAS, OccurrenceIndex, ProofNode, SystemId, TABLE,
                       apply_rule, ax, bridge_proof, check_proof, edge,
                       eigen_token, indax, node, proof_tokens, rebuild, seq,
                       shift)
from .errors import TransformError
from .positions import (LtlPos, PastPos, Position, SeqPos, SetPos, Token,
                        ltl_add, prefix_replace, seqpos)
from .syntax import Box, Imp, Next, PFormula, Sequent, pf


class FreshTokenSource:
    """Deterministic allocator of tokens b0, b1, ... skipping an avoid set."""

    def __init__(self, avoid: Iterable[Token] = ()):
        self._avoid = set(avoid)
        self._n = 0

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


def _map_node(n: ProofNode, prems: tuple[ProofNode, ...],
              fn: Optional[Callable[[Position], Position]] = None,
              tokens: Optional[dict[Token, Token]] = None) -> ProofNode:
    """``n`` over ``prems`` with ``fn`` applied to every position of its
    conclusion and parameters.  A renaming (``tokens`` given, which also
    renames the eigen token ``x``) maps the steps beta and t as well; any
    other map reads a sequence beta off the new premise and conclusion."""
    concl, params = n.conclusion, dict(n.params)
    if fn is not None:
        concl = Sequent(tuple(PFormula(q.formula, fn(q.pos)) for q in concl.ant),
                        tuple(PFormula(q.formula, fn(q.pos)) for q in concl.suc))
        for k, v in n.params:
            if isinstance(v, PFormula):
                params[k] = PFormula(v.formula, fn(v.pos))
            elif isinstance(v, Position) and (tokens is not None or k not in ("beta", "t")):
                params[k] = fn(v)
        s = SCHEMAS.get(n.rule) if tokens is None else None
        if s and "step" in s.params and isinstance(params.get("beta"), SeqPos):
            side = "L" if s.premises[0].left else "R"
            pos, pre = edge(prems[0].conclusion, side).pos, edge(concl, s.side).pos
            if pos.items[:len(pre.items)] != pre.items:
                raise TransformError(f"{pos} does not extend {pre}")
            params["beta"] = SeqPos(pos.items[len(pre.items):])
    if tokens and isinstance(params.get("x"), str):
        params["x"] = tokens.get(params["x"], params["x"])
    return node(n.rule, params, concl, prems)


def _renamed(m: ProofNode, names: list, scope: dict, base: int, prems: tuple) -> ProofNode:
    """``m`` over ``prems`` under a scoped renaming (see ``_Renamed``)."""
    own = scope if (x := eigen_token(m)) is None else {x: names[base + m.eigens - 1]}
    return _map_node(m, prems, (lambda q: _rename_pos(q, scope)) if scope else None, own)


def _inner(m: ProofNode, names: list[Token], scope: dict, base: int) -> list:
    """The premises of ``m``, each with its (scope, base)."""
    if (x := eigen_token(m)) is not None:
        scope = {**scope, x: names[base + m.eigens - 1]}
    bases = accumulate((c.eigens for c in m.premises), initial=base)
    return [(c, (scope, b)) for c, b in zip(m.premises, bases)]


class _Renamed:
    """``node`` under a pending scoped renaming: ``scope`` maps the tokens
    bound below it, and its eigen rules take ``names`` from ``base`` on.
    Only what is read is renamed: this node, and premises as views."""

    def __init__(self, node: ProofNode, names: list[Token], scope: dict, base: int):
        self.node, self.names, self.scope, self.base = node, names, scope, base
        self.rule, self.height, self.size = node.rule, node.height, node.size
        self.eigens, self.cut_rank = node.eigens, node.cut_rank

    @cached_property
    def head(self) -> ProofNode:
        """This node renamed, without premises; the node itself where the
        view renames nothing at it (an empty scope, no eigen rule)."""
        m = self.node
        return m if not self.scope and eigen_token(m) is None else \
            _renamed(m, self.names, self.scope, self.base, ())

    conclusion = property(lambda v: v.head.conclusion)
    params = property(lambda v: v.head.params)
    param = ProofNode.param

    @cached_property
    def premises(self) -> tuple:
        return tuple(_pending(c, self.names, *ctx)
                     for c, ctx in _inner(self.node, self.names, self.scope, self.base))


def _pending(n: ProofNode, names: list[Token], scope: dict, base: int):
    # a subtree with nothing to rename is read as it is
    return n if not scope and not n.eigens else _Renamed(n, names, scope, base)


def materialise(p) -> ProofNode:
    """The proof a pending renaming stands for, built in one rebuild pass
    over plain (scope, base) contexts, each node by the step a view reads."""
    return p if type(p) is not _Renamed else rebuild(
        p.node, lambda m, ctx, prems: _renamed(m, p.names, *ctx, prems), (p.scope, p.base),
        lambda m, ctx: _inner(m, p.names, *ctx) if ctx[0] or m.eigens else None)


def _scoped_rename(n, source: FreshTokenSource, pending: bool = False):
    """Rename every eigen token to a fresh one within its own scope: a
    token takes the name of the nearest eigen rule below it that binds
    it.  The names are drawn now; with ``pending`` the renaming is left
    as a view, and renaming a view only draws new names for its node."""
    names = [source.take() for _ in range(n.eigens)]
    n, scope = (n.node, n.scope) if type(n) is _Renamed else (n, {})
    v = _pending(n, names, scope, 0)
    return v if pending else materialise(v)


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
    return _scoped_rename(p, FreshTokenSource(_free_tokens(p) | set(avoid)))


def _repairable(p: ProofNode, sys: SystemId) -> ProofNode:
    """``p``, once checked to have no defect but eigen-token sharing."""
    hard = [v for v in check_proof(p, sys).failures
            if v.condition != "token-condition"]
    if hard:
        raise TransformError("ill-formed proof: " + hard[0].message)
    return p


def rename_eigen(p: ProofNode, sys: SystemId) -> ProofNode:
    """Canonical alpha-normal form of a proof.

    Eigen tokens are numbered in leftmost-innermost order; a proof whose
    only defect is eigen-token sharing is repaired in passing, anything
    else is rejected.
    """
    return canonical_rename(_repairable(p, sys))


def _map_positions(p: ProofNode, fn: Callable[[Position], Position]) -> ProofNode:
    """Apply ``fn`` to every position of a proof tree (the caller has
    arranged the eigen side conditions); a sequence step ``beta`` is read
    off again from the rewritten active and principal formulas."""
    return rebuild(p, lambda n, _, prems: _map_node(n, prems, fn))


def prefix_replace_proof(p: ProofNode, source: SeqPos, target: SeqPos,
                         sys: SystemId) -> ProofNode:
    """Rewrite a proof under the replacement of one position prefix.

    The source must be nonempty (a position delta+z); eigen tokens are
    first renamed away from both the source and the target so the
    replacement commutes with every rule.
    """
    if TABLE[sys].family is not SeqPos:
        raise TransformError("prefix replacement is defined for the sequence-position systems")
    if not isinstance(source, SeqPos) or not source.items:
        raise TransformError("replacement source must be a nonempty sequence position")
    renamed = canonical_rename(_repairable(p, sys),
                               source.tokens() | target.tokens())
    return _map_positions(renamed, lambda q: prefix_replace(q, source, target))


def lift_proof(p: ProofNode, by: Position, sys: SystemId) -> ProofNode:
    """Shift every position of an accepted proof by a fixed amount.

    Each position moves by the rule engine's step, ``calculus.shift``:
    sequence positions are prefixed, set positions united, linear time
    positions added.  The rule constraints survive because the shift
    commutes with every step operation.
    """
    family = TABLE[sys].family
    if not isinstance(by, family):
        raise TransformError(
            f"lift position {by} is not in the {family.__name__} family of {sys.value}")
    if by is type(by)() and type(by) is not PastPos:    # the unit, by interning
        rep = check_proof(p, sys)
        if not rep.accepted:
            raise TransformError("ill-formed proof: " + rep.failures[0].message)
        return p
    renamed = canonical_rename(_repairable(p, sys), by.tokens())
    if type(by) is PastPos:
        raise TransformError("lifting is not defined for past positions")
    return _map_positions(renamed, lambda q: shift(by, "+", q))


def necessitate(p: ProofNode, sys: SystemId) -> ProofNode:
    """From a proof of the bare sequent of A, one of the boxed A."""
    if TABLE[sys].family is not SeqPos:
        raise TransformError("necessitation is defined for the modal systems")
    end = p.conclusion
    if end.ant or len(end.suc) != 1 or end.suc[0].pos != SeqPos():
        raise TransformError("necessitation needs an end sequent |- A at []")
    x = FreshTokenSource(proof_tokens(p)).take()
    lifted = lift_proof(p, seqpos(x), sys)
    return apply_rule("boxR", (lifted,), x=x)


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
    # eigen tokens renamed apart, into disjoint fresh sets
    source = FreshTokenSource(proof_tokens(pab) | proof_tokens(pa))
    pab2, pa2 = _scoped_rename(pab, source), _scoped_rename(pa, source)
    gadget = apply_rule("impL", (ax(pf(b_f, alpha)), ax(pf(a_f, alpha))))
    c1 = apply_rule("cut", (pab2, gadget), cutf=imp)
    return apply_rule("cut", (pa2, c1), cutf=pf(a_f, alpha))


def ind_to_axiom(p: ProofNode) -> ProofNode:
    """Replace every induction-rule node by its axiom-form derivation."""

    def leave(n: ProofNode, _, prems: tuple[ProofNode, ...]) -> ProofNode:
        if n.rule != "ind":
            return _map_node(n, prems)
        x, t = n.param("x"), n.param("t")
        concl = n.conclusion
        a_pf = concl.ant[-1]
        a_f, s_pos = a_pf.formula, a_pf.pos
        gamma, delta = concl.ant[:-1], concl.suc[1:]
        box_step = Box(Imp(a_f, Next(a_f)))
        n1 = apply_rule("nextR", (prems[0],))
        n2 = apply_rule("impR", (n1,))
        n3 = apply_rule("boxR", (n2,), x=x)    # Gamma |- box(A -> X A) at s, Delta
        leaf = indax(a_f, s_pos)
        g1 = apply_rule("andR", (ax(pf(a_f, s_pos)), ax(pf(box_step, s_pos))))
        g2 = apply_rule("impL", (ax(pf(Box(a_f), s_pos)), g1))
        g3 = apply_rule("cut", (leaf, g2), cutf=leaf.conclusion.suc[0])
        c1 = apply_rule("cut", (n3, g3),
                        cutf=pf(box_step, s_pos))   # Gamma, A at s |- Delta, box A at s
        c1 = bridge_proof(c1, seq(gamma + (a_pf,), (pf(Box(a_f), s_pos),) + delta))
        g4 = apply_rule("boxL", (ax(pf(a_f, ltl_add(s_pos, t))),), step=t, alpha=s_pos)
        c2 = apply_rule("cut", (c1, g4), cutf=pf(Box(a_f), s_pos))
        return bridge_proof(c2, concl)

    return rebuild(p, leave)
