"""Formula trees, positioned formulas, and 2-sequents.

The formula language covers the propositional connectives, the modal
operators box/dia, and the temporal operators next/prev and the past
closures.  Whether a temporal connective is legal is a property of the
system a proof is checked against, not of formula construction.

Hash-consing.  Formulas, positions and positioned formulas are interned
(Filliâtre and Conchon, "Type-safe modular hash-consing", 2006): every
constructor call, wherever it happens (the parser, the rule
constructors, the transformations, ``dataclasses.replace``), looks its
key up in one table, ``positions.TABLE``, and returns the live term
there if there is one.  The key is the class and the identities of the
children, or the field values for ``Prop`` and the positions.  So:

- ``==`` is identity, and two equal terms are the same object;
- ``hash(x)`` is the hash of the tuple of its field values, the value a
  frozen dataclass gives, computed once from the children's stored
  hashes; neither ever recurses, however deep the term;
- each formula also stores whether it contains a temporal or a past
  connective, its degree and its temporal depth, derived from its
  children at construction, so ``has_temporal``, ``has_past``,
  ``degree`` and ``temporal_depth`` are O(1) reads;
- the table is a ``weakref.WeakValueDictionary``: a term leaves it when
  its last user drops it;
- lookups take no lock, and a new term is made under one, so threads
  racing to build the same term get one object.

Terms must be built only by calling their class.  ``object.__new__``
would make a term the table does not know, which compares unequal to
its interned twin; ``copy.copy``, ``copy.deepcopy`` and pickling return
or rebuild the interned term.  Attributes cannot be assigned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Union

from .errors import DegreeUndefinedError, TwoseqError
from .positions import (_LIVE, Interned, Position, SeqPos, Token, _no_term,
                        _Position, intern)


class _Formula(Interned):
    """Stored facts of a formula: whether it contains a temporal or a past
    connective, its degree (-1 where undefined) and its temporal depth."""

    __slots__ = ("_temporal", "_past", "_degree", "_depth")


def _facts(temporal: bool, past: bool, degree: int, depth: int) -> dict:
    return dict(_temporal=temporal, _past=past, _degree=-1 if temporal else degree,
                _depth=depth)


def _operand(cls: type, x) -> None:
    if not isinstance(x, _Formula):
        raise TypeError(f"{cls.__name__} operand must be a formula, not {x!r}")


@dataclass(eq=False, init=False)
class Prop(_Formula):
    __slots__ = ("name",)
    name: str

    def __new__(cls, name: str):
        key = (cls, name)
        self = _LIVE.get(key, _no_term)()
        if self is None:
            self = intern(key, cls, (name,), **_facts(False, False, 0, 0))
        return self


@dataclass(eq=False, init=False)
class _Unary(_Formula):
    """A unary connective; the class says whether it is temporal, past or
    modal (counts towards the temporal depth)."""

    __slots__ = ("sub",)
    sub: "Formula"
    IS_TEMPORAL = IS_PAST = False
    IS_MODAL = True

    def __new__(cls, sub: "Formula"):
        key = (cls, id(sub))
        self = _LIVE.get(key, _no_term)()
        if self is None:
            _operand(cls, sub)
            self = intern(key, cls, (sub,), **_facts(
                cls.IS_TEMPORAL or sub._temporal, cls.IS_PAST or sub._past,
                sub._degree + 1, sub._depth + cls.IS_MODAL))
        return self


@dataclass(eq=False, init=False)
class _Binary(_Formula):
    __slots__ = ("left", "right")
    left: "Formula"
    right: "Formula"

    def __new__(cls, left: "Formula", right: "Formula"):
        key = (cls, id(left), id(right))
        self = _LIVE.get(key, _no_term)()
        if self is None:
            _operand(cls, left)
            _operand(cls, right)
            self = intern(key, cls, (left, right), **_facts(
                left._temporal or right._temporal, left._past or right._past,
                max(left._degree, right._degree) + 1, max(left._depth, right._depth)))
        return self


class Not(_Unary):
    __slots__ = ()
    IS_MODAL = False


class Box(_Unary):
    __slots__ = ()


class Dia(_Unary):
    __slots__ = ()


class Next(_Unary):
    __slots__ = ()
    IS_TEMPORAL = True


class Prev(_Unary):
    __slots__ = ()
    IS_TEMPORAL = IS_PAST = True


class Hist(_Unary):
    """Always in the past."""

    __slots__ = ()
    IS_TEMPORAL = IS_PAST = True


class Once(_Unary):
    """Sometime in the past."""

    __slots__ = ()
    IS_TEMPORAL = IS_PAST = True


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Imp(_Binary):
    __slots__ = ()


Formula = Union[Prop, Not, Box, Dia, Next, Prev, Hist, Once, And, Or, Imp]

TEMPORAL = (Next, Prev, Hist, Once)
PAST = (Prev, Hist, Once)


@dataclass(eq=False, init=False)
class PFormula(Interned):
    """A formula paired with the position it is asserted at."""

    __slots__ = ("formula", "pos")
    formula: Formula
    pos: Position

    def __new__(cls, formula: Formula, pos: Position):
        key = (cls, id(formula), id(pos))
        self = _LIVE.get(key, _no_term)()
        if self is None:
            _operand(cls, formula)
            if not isinstance(pos, _Position):
                raise TypeError(f"PFormula position must be a position, not {pos!r}")
            self = intern(key, cls, (formula, pos))
        return self


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
        if isinstance(g, _Unary):
            stack.append(g.sub)
        elif isinstance(g, _Binary):
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
            if isinstance(f, _Unary):
                kids: tuple = (f.sub,)
            elif isinstance(f, _Binary):
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
    return f._temporal


def has_past(f: Formula) -> bool:
    return f._past


def temporal_depth(f: Formula) -> int:
    """Maximal nesting of box/dia/next along one branch."""
    return f._depth


def degree(f: Formula) -> int:
    """Connective count driving the cut-elimination induction.

    Atoms weigh 0; negation and the modal operators add one; the binary
    connectives add one to the larger operand.  The measure is only
    defined on the box/dia fragment.
    """
    if f._degree < 0:
        raise DegreeUndefinedError("degree undefined for temporal formula")
    return f._degree


def is_subformula(cand: PFormula, root: PFormula) -> bool:
    """Decide membership of cand in the subformula set of root.

    The subformula set of a boxed or diamonded formula closes the operand
    over every position extension, so the set itself is infinite; the
    decision procedure instead walks the formula over an explicit stack
    and, at each box/dia step, lets the tracked position grow by any
    prefix of the candidate's position.  Only the box/dia fragment over
    sequence positions is supported, which is all cut elimination needs.
    """
    for p in (cand, root):
        if not isinstance(p.pos, SeqPos):
            raise TwoseqError("subformula decision requires sequence positions")
        if has_temporal(p.formula):
            raise TwoseqError("subformula decision requires the box/dia fragment")

    cpos: SeqPos = cand.pos  # type: ignore[assignment]
    stack: list[tuple[Formula, SeqPos]] = [(root.formula, root.pos)]
    while stack:
        f, alpha = stack.pop()
        if cand.formula is f and cand.pos is alpha:
            return True
        if isinstance(f, Not):
            stack.append((f.sub, alpha))
        elif isinstance(f, (And, Or, Imp)):
            stack += ((f.right, alpha), (f.left, alpha))
        elif not isinstance(f, Prop) and \
                cpos.items[:len(alpha.items)] == alpha.items:
            # box/dia: the operand may sit at any extension of alpha, and
            # any extension relevant to cand is a prefix of cand's position
            stack += ((f.sub, SeqPos(cpos.items[:i]))
                      for i in range(len(cpos.items), len(alpha.items) - 1, -1))
    return False


def tokens_of(s: Sequent) -> frozenset[Token]:
    """Every token occurring in any position of the sequent."""
    out: frozenset[Token] = frozenset()
    for p in s.pformulas():
        out |= p.pos.tokens()
    return out


def positions_of(s: Sequent) -> tuple[Position, ...]:
    return tuple(p.pos for p in s.pformulas())
