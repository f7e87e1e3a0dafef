"""Formula trees, positioned formulas, and 2-sequents.

The formula language covers the propositional connectives, the modal
operators box/dia, and the temporal operators next/prev and the past
closures.  Whether a temporal connective is legal is a property of the
system a proof is checked against, not of formula construction.

Hash-consing.  Formulas, positions and positioned formulas are interned
(Filliâtre and Conchon, "Type-safe modular hash-consing", 2006): every
constructor call, wherever it happens, looks its key (the class and the
identities of the children, or the field values for ``Prop`` and the
positions) up in one table, ``positions.TABLE``, and returns the live
term there if there is one.  So:

- ``==`` is identity, and two equal terms are the same object;
- ``hash(x)`` is the hash of the tuple of its field values (named by
  ``__match_args__``), computed once from the children's stored
  hashes; neither ever recurses, however deep the term;
- each formula also stores whether it contains a temporal or a past
  connective and its degree, derived from its children at construction,
  so ``has_temporal``, ``has_past`` and ``degree`` are O(1) reads;
- the table holds weak references that remove their own entries when
  their terms die, so a term leaves it when its last user drops it;
- no lock is taken: a new term is built in full, then published with
  ``dict.setdefault``, so threads racing to build one term get one object.

Terms must be built only by calling their class; ``type(x)(*fields)``
rebuilds one (a named-tuple record rebuilds with ``_replace``), while
``object.__new__`` would make a term the table does not know, unequal
to its interned twin.  ``copy.copy``, ``copy.deepcopy`` and pickling
return or rebuild the interned term.  Assigning an attribute raises
``dataclasses.FrozenInstanceError``, a module imported only to raise it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Union

from .errors import DegreeUndefinedError, TwoseqError
from .positions import (TABLE, Interned, Position, SeqPos, Token, _no_term,
                        _Position, initials, intern)


class _Formula(Interned):
    """Stored facts of a formula: whether it contains a temporal or a past
    connective, and its degree (undefined if it does)."""

    __slots__ = _FACTS = ("_temporal", "_past", "_degree")


def _operand(cls: type, x) -> None:
    if not isinstance(x, _Formula):
        raise TypeError(f"{cls.__name__} operand must be a formula, not {x!r}")


class Prop(_Formula):
    __slots__ = __match_args__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        self = TABLE.get(key, _no_term)()
        if self is None:
            self = intern(key, cls, (name,), (False, False, 0))
        return self


class _Unary(_Formula):
    """A unary connective; the class says whether it is temporal or past."""

    __slots__ = __match_args__ = ("sub",)
    IS_TEMPORAL = IS_PAST = False

    def __new__(cls, sub: "Formula"):
        key = (cls, id(sub))
        self = TABLE.get(key, _no_term)()
        if self is None:
            _operand(cls, sub)
            self = intern(key, cls, (sub,), (
                cls.IS_TEMPORAL or sub._temporal, cls.IS_PAST or sub._past, sub._degree + 1))
        return self


class _Binary(_Formula):
    __slots__ = __match_args__ = ("left", "right")

    def __new__(cls, left: "Formula", right: "Formula"):
        key = (cls, id(left), id(right))
        self = TABLE.get(key, _no_term)()
        if self is None:
            _operand(cls, left)
            _operand(cls, right)
            self = intern(key, cls, (left, right), (
                left._temporal or right._temporal, left._past or right._past,
                max(left._degree, right._degree) + 1))
        return self


class Not(_Unary):
    __slots__ = ()


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


class PFormula(Interned):
    """A formula paired with the position it is asserted at."""

    __slots__ = __match_args__ = ("formula", "pos")

    def __new__(cls, formula: Formula, pos: Position):
        key = (cls, id(formula), id(pos))
        self = TABLE.get(key, _no_term)()
        if self is None:
            _operand(cls, formula)
            if not isinstance(pos, _Position):
                raise TypeError(f"PFormula position must be a position, not {pos!r}")
            self = intern(key, cls, (formula, pos))
        return self


class _SequentFields:
    __slots__ = ("ant", "suc", "__dict__")      # the dict holds the cached properties


class Sequent(_SequentFields):
    """Ordered antecedent and succedent lists of positioned formulas, frozen as
    `ProofNode` is; `program` and `segments` are cached, as fuzzers read them per model."""

    __slots__ = ()
    __match_args__ = _SequentFields.__slots__[:2]
    __repr__, __setattr__, __delattr__, __reduce__ = \
        Interned.__repr__, Interned.__setattr__, Interned.__delattr__, Interned.__reduce__

    def __new__(cls, ant: tuple[PFormula, ...] = (), suc: tuple[PFormula, ...] = ()):
        self = _SequentFields()
        self.ant, self.suc = ant, suc
        self.__class__ = cls
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ant == other.ant and self.suc == other.suc

    def __hash__(self):
        return hash((self.ant, self.suc))

    def pformulas(self) -> tuple[PFormula, ...]:
        return self.ant + self.suc

    @cached_property
    def program(self) -> tuple[list[tuple], list[int]]:
        """`compile_formulas` of the formulas, antecedent first, cached."""
        return compile_formulas(q.formula for q in self.pformulas())

    @cached_property
    def segments(self) -> tuple[tuple, tuple, tuple]:
        """`segment_plan` of the positions, antecedent first, cached."""
        return segment_plan([q.pos for q in self.pformulas()])


def segment_plan(positions: list[Position]) -> tuple[tuple, tuple, tuple]:
    """The initial segments of sequence positions, shortest first, with each
    one's parent slot (-1 for the empty one), and each position's slot."""
    if not all(isinstance(p, SeqPos) for p in positions):
        raise TwoseqError("graph semantics needs sequence positions")
    req = sorted(initials(positions), key=lambda p: (len(p.items), p.items))
    slot = {p: i for i, p in enumerate(req)}
    parent = tuple(slot[SeqPos(p.items[:-1])] if p.items else -1 for p in req)
    return tuple(req), parent, tuple(slot[p] for p in positions)


def pf(formula: Formula, pos: Position) -> PFormula:
    return PFormula(formula, pos)


def seq(ant=(), suc=()) -> Sequent:
    return Sequent(tuple(ant), tuple(suc))


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


def sequent_atoms(s: Sequent) -> frozenset[str]:
    """The proposition names of the sequent, read off its cached program."""
    return frozenset(a for op, a, _ in s.program[0] if op is Prop)


def has_temporal(f: Formula) -> bool:
    return f._temporal


def has_past(f: Formula) -> bool:
    return f._past


def degree(f: Formula) -> int:
    """Connective count driving the cut-elimination induction.

    Atoms weigh 0; negation and the modal operators add one; the binary
    connectives add one to the larger operand.  The measure is only
    defined on the box/dia fragment.
    """
    if f._temporal:
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
