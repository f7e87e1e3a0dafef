"""Formula trees, positioned formulas, and 2-sequents.

The formula language covers the propositional connectives, the modal
operators box/dia, and the temporal operators next/prev and the past
closures.  Whether a temporal connective is legal is a property of the
system a proof is checked against, not of formula construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Union

from .errors import DegreeUndefinedError, TwoseqError
from .positions import Position, SeqPos, Token


@dataclass(frozen=True)
class Prop:
    name: str


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class Box:
    sub: "Formula"


@dataclass(frozen=True)
class Dia:
    sub: "Formula"


@dataclass(frozen=True)
class Next:
    sub: "Formula"


@dataclass(frozen=True)
class Prev:
    sub: "Formula"


@dataclass(frozen=True)
class Hist:
    """Always in the past."""

    sub: "Formula"


@dataclass(frozen=True)
class Once:
    """Sometime in the past."""

    sub: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Imp:
    left: "Formula"
    right: "Formula"


Formula = Union[Prop, Not, Box, Dia, Next, Prev, Hist, Once, And, Or, Imp]

UNARY = (Not, Box, Dia, Next, Prev, Hist, Once)
BINARY = (And, Or, Imp)
TEMPORAL = (Next, Prev, Hist, Once)
PAST = (Prev, Hist, Once)


@dataclass(frozen=True)
class PFormula:
    """A formula paired with the position it is asserted at."""

    formula: Formula
    pos: Position


@dataclass(frozen=True)
class Sequent:
    """Ordered antecedent and succedent lists of positioned formulas."""

    ant: tuple[PFormula, ...] = ()
    suc: tuple[PFormula, ...] = ()

    def pformulas(self) -> tuple[PFormula, ...]:
        return self.ant + self.suc

    def is_empty(self) -> bool:
        return not self.ant and not self.suc

    @cached_property
    def program(self) -> tuple[list[tuple], list[int]]:
        """`compile_formulas` of the formulas, antecedent first, cached."""
        return compile_formulas(q.formula for q in self.pformulas())


def pf(formula: Formula, pos: Position) -> PFormula:
    return PFormula(formula, pos)


def seq(ant=(), suc=()) -> Sequent:
    return Sequent(tuple(ant), tuple(suc))


def subformula_trees(f: Formula):
    """All structural subterms of f, including f itself."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, UNARY):
            stack.append(g.sub)
        elif isinstance(g, BINARY):
            stack.append(g.left)
            stack.append(g.right)


def compile_formulas(roots: Iterable[Formula]) -> tuple[list[tuple], list[int]]:
    """One post-order program for the formulas, and each root's index.

    Instruction i is ``(class, a, b)``: a ``Prop``'s name twice, else the
    indices of the (earlier) operand instructions, the same one twice for
    a unary connective.  Shared subformula objects get one instruction,
    memoised by identity, so nothing is hashed or compared; the walk
    keeps its own stack, so depth costs no recursion.
    """
    roots = list(roots)
    code: list[tuple] = []
    slot: dict[int, int] = {}
    for root in roots:
        stack = [root]
        while stack:
            f = stack[-1]
            if id(f) in slot:
                stack.pop()
                continue
            if isinstance(f, UNARY):
                kids: tuple = (f.sub,)
            elif isinstance(f, BINARY):
                kids = (f.left, f.right)
            elif isinstance(f, Prop):
                kids = ()
            else:
                raise TwoseqError(f"unknown formula {f!r}")
            todo = [k for k in kids if id(k) not in slot]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            slot[id(f)] = len(code)
            ops = [slot[id(k)] for k in kids] or [f.name]
            code.append((type(f), ops[0], ops[-1]))
    return code, [slot[id(r)] for r in roots]


def label_program(code: list[tuple], full: int, atoms: dict[str, int],
                  step: Callable[[type, int], int]) -> list[int]:
    """The truth set of each instruction, as a bitmask over the points of
    one structure (``full`` is all of them): ``atoms`` gives those of the
    propositions, ``step(class, x)`` that of a modal or temporal
    connective whose operand's is x."""
    out: list[int] = []
    for op, a, b in code:
        if op is Prop:
            v = atoms.get(a, 0)
        elif op is Not:
            v = full ^ out[a]
        elif op is And:
            v = out[a] & out[b]
        elif op is Or:
            v = out[a] | out[b]
        elif op is Imp:
            v = (full ^ out[a]) | out[b]
        else:
            v = step(op, out[a])
        out.append(v)
    return out


def atoms(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformula_trees(f) if isinstance(g, Prop))


def sequent_atoms(s: Sequent) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for p in s.pformulas():
        out |= atoms(p.formula)
    return out


def has_temporal(f: Formula) -> bool:
    return any(isinstance(g, TEMPORAL) for g in subformula_trees(f))


def has_past(f: Formula) -> bool:
    return any(isinstance(g, PAST) for g in subformula_trees(f))


def temporal_depth(f: Formula) -> int:
    """Maximal nesting of box/dia/next along one branch."""
    if isinstance(f, Prop):
        return 0
    if isinstance(f, (Box, Dia, Next, Prev, Hist, Once)):
        return 1 + temporal_depth(f.sub)
    if isinstance(f, Not):
        return temporal_depth(f.sub)
    return max(temporal_depth(f.left), temporal_depth(f.right))


def degree(f: Formula) -> int:
    """Connective count driving the cut-elimination induction.

    Atoms weigh 0; negation and the modal operators add one; the binary
    connectives add one to the larger operand.  The measure is only
    defined on the box/dia fragment.
    """
    if isinstance(f, TEMPORAL):
        raise DegreeUndefinedError("degree undefined for temporal formula")
    if isinstance(f, Prop):
        return 0
    if isinstance(f, (Not, Box, Dia)):
        return degree(f.sub) + 1
    return max(degree(f.left), degree(f.right)) + 1


def is_subformula(cand: PFormula, root: PFormula) -> bool:
    """Decide membership of cand in the subformula set of root.

    The subformula set of a boxed or diamonded formula closes the operand
    over every position extension, so the set itself is infinite; the
    decision procedure instead recurses structurally and, at each box/dia
    step, lets the tracked position grow by any prefix of the candidate's
    position.  Only the box/dia fragment over sequence positions is
    supported, which is all cut elimination needs.
    """
    for p in (cand, root):
        if not isinstance(p.pos, SeqPos):
            raise TwoseqError("subformula decision requires sequence positions")
        if has_temporal(p.formula):
            raise TwoseqError("subformula decision requires the box/dia fragment")

    def rec(f: Formula, alpha: SeqPos) -> bool:
        if cand == PFormula(f, alpha):
            return True
        if isinstance(f, Prop):
            return False
        if isinstance(f, Not):
            return rec(f.sub, alpha)
        if isinstance(f, (And, Or, Imp)):
            return rec(f.left, alpha) or rec(f.right, alpha)
        # box/dia: the operand may sit at any extension of alpha, and any
        # extension relevant to cand is a prefix of cand's position
        cpos: SeqPos = cand.pos  # type: ignore[assignment]
        if cpos.items[:len(alpha.items)] != alpha.items:
            return False
        for i in range(len(alpha.items), len(cpos.items) + 1):
            if rec(f.sub, SeqPos(cpos.items[:i])):
                return True
        return False

    return rec(root.formula, root.pos)


def tokens_of(s: Sequent) -> frozenset[Token]:
    """Every token occurring in any position of the sequent."""
    out: frozenset[Token] = frozenset()
    for p in s.pformulas():
        out |= p.pos.tokens()
    return out


def positions_of(s: Sequent) -> tuple[Position, ...]:
    return tuple(p.pos for p in s.pformulas())
