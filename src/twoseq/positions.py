"""Position algebras underlying the 2-sequent calculi.

Four families: token sequences (the modal systems), finite token sets
(the directed extension of S4), step/token-set pairs (linear time), and
offset/future/past triples (linear time with past operators), each moved by
a step through ``calculus.shift``.  All values are immutable and shareable.

Positions, like formulas and positioned formulas (``syntax``), are
hash-consed through ``Interned``: the constructor returns the one live
object with the given fields, so ``==`` is identity and ``hash`` is a
value fixed at construction (see the ``syntax`` docstring).
"""

from __future__ import annotations

import weakref
from typing import Iterable, Union

Token = str

# the intern table: (class, field values or child identities) -> a weak
# reference to the live term, which removes its own entry when the term
# dies; ``TABLE.get(key, _no_term)()`` is the live term under key, or None
TABLE: "dict[tuple, _Ref]" = {}
_no_term = weakref.ref(set())   # a dead reference, so calling it gives None


class _Ref(weakref.ref):
    """A weak reference that knows its term's key.  It has no ``__init__``,
    so ``_Ref(term, _drop)`` runs in C; the key is set after."""

    __slots__ = ("key",)


def _drop(ref: _Ref, table=TABLE, remove=weakref._remove_dead_weakref) -> None:
    remove(table, ref.key)      # only a dead entry: a newer live term stays


class Interned:
    """A hash-consed term: built only through its class's ``__new__``,
    which returns the live term with the same key if there is one.

    Equality is the inherited identity; ``_hash`` is the hash of the tuple
    of field values (``__match_args__``), stored at construction so that
    neither ``==`` nor ``hash`` ever recurses.
    """

    __slots__ = ("_hash", "__weakref__")
    _FACTS: tuple[str, ...] = ()     # the names of the stored facts

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        shown = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__match_args__)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    # copies are the term itself, pickles rebuild through the table
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return type(self), tuple(getattr(self, k) for k in self.__match_args__)


_new, _setattr = object.__new__, object.__setattr__


def intern(key: tuple, cls: type, values: tuple, facts: tuple = ()) -> Interned:
    """The live term under ``key``, else a new term of ``cls`` with the
    field ``values`` and the stored ``facts`` (named by ``cls._FACTS``).

    Called after a lookup missed.  The new term is built in full, then
    published with ``setdefault``, with no lock: threads racing to build
    one term get the one published first.  A dead reference found there,
    whose callback has not run yet, is removed and publishing retried.
    """
    obj = _new(cls)
    for name, value in zip(cls.__match_args__ + cls._FACTS, values + facts):
        _setattr(obj, name, value)
    _setattr(obj, "_hash", hash(values))
    ref = _Ref(obj, _drop)
    ref.key = key
    while (old := TABLE.setdefault(key, ref)) is not ref:
        if (term := old()) is not None:
            return term
        weakref._remove_dead_weakref(TABLE, key)
    return obj


class _Position(Interned):
    __slots__ = ()


class SeqPos(_Position):
    """An ordered, possibly empty sequence of tokens."""

    __slots__ = __match_args__ = ("items",)

    def __new__(cls, items: tuple[Token, ...] = ()):
        key = (cls, items)
        self = TABLE.get(key, _no_term)()
        return intern(key, cls, (items,)) if self is None else self

    def __str__(self) -> str:
        return "[" + ",".join(self.items) + "]"

    def __len__(self) -> int:
        return len(self.items)

    def tokens(self) -> frozenset[Token]:
        return frozenset(self.items)


class SetPos(_Position):
    """A finite set of tokens; duplication and order are quotiented away."""

    __slots__ = __match_args__ = ("items",)

    def __new__(cls, items: frozenset[Token] = frozenset()):
        key = (cls, items)
        self = TABLE.get(key, _no_term)()
        return intern(key, cls, (items,)) if self is None else self

    def __str__(self) -> str:
        return "{" + ",".join(sorted(self.items)) + "}"

    def tokens(self) -> frozenset[Token]:
        return self.items


class LtlPos(_Position):
    """A pair of a step count and a finite token set."""

    __slots__ = __match_args__ = ("steps", "future")

    def __new__(cls, steps: int = 0, future: frozenset[Token] = frozenset()):
        key = (cls, steps, future)
        self = TABLE.get(key, _no_term)()
        if self is None:
            if steps < 0:
                raise ValueError("step count must be a natural number")
            self = intern(key, cls, (steps, future))
        return self

    def __str__(self) -> str:
        return f"({self.steps};{{{','.join(sorted(self.future))}}})"

    def tokens(self) -> frozenset[Token]:
        return self.future


class PastPos(_Position):
    """An integer offset with disjoint future and past token sets."""

    __slots__ = __match_args__ = ("offset", "future", "past")

    def __new__(cls, offset: int = 0, future: frozenset[Token] = frozenset(),
                past: frozenset[Token] = frozenset()):
        key = (cls, offset, future, past)
        self = TABLE.get(key, _no_term)()
        if self is None:
            if future & past:
                raise ValueError("future and past token sets must be disjoint")
            self = intern(key, cls, (offset, future, past))
        return self

    def __str__(self) -> str:
        fut = ",".join(sorted(self.future))
        pst = ",".join(sorted(self.past))
        return f"({self.offset};{{{fut}}};{{{pst}}})"

    def tokens(self) -> frozenset[Token]:
        return self.future | self.past


Position = Union[SeqPos, SetPos, LtlPos, PastPos]


def seqpos(*items: Token) -> SeqPos:
    return SeqPos(tuple(items))


def setpos(*items: Token) -> SetPos:
    return SetPos(frozenset(items))


def pastpos(offset: int = 0,
            future: Iterable[Token] = (),
            past: Iterable[Token] = ()) -> PastPos:
    return PastPos(offset, frozenset(future), frozenset(past))


def prefix_replace(s: SeqPos, u: SeqPos, v: SeqPos) -> SeqPos:
    """Replace the prefix u of s by v; s is returned unchanged otherwise.

    When u and v have the same length the operation is a renaming.
    """
    if s.items[:len(u.items)] == u.items:
        return SeqPos(v.items + s.items[len(u.items):])
    return s


def initials(positions: Iterable[SeqPos]) -> frozenset[SeqPos]:
    """The prefix-closed set of initial segments of the given positions."""
    out: set[SeqPos] = set()
    for p in positions:
        for i in range(len(p.items) + 1):
            out.add(SeqPos(p.items[:i]))
    return frozenset(out)


def ltl_step(n: int = 1) -> LtlPos:
    return LtlPos(n, frozenset())


def ltl_token(x: Token) -> LtlPos:
    return LtlPos(0, frozenset((x,)))

