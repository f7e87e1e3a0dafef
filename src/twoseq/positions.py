"""Position algebras underlying the 2-sequent calculi.

Four families: token sequences (the modal systems), finite token sets
(the directed extension of S4), step/token-set pairs (linear time), and
offset/future/past triples (linear time with past operators).  All values
are immutable and freely shareable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

Token = str

RELATED_MODES = ("one-step", "reflexive-one-step", "strict-prefix", "prefix")


@dataclass(frozen=True, order=True)
class SeqPos:
    """An ordered, possibly empty sequence of tokens."""

    items: tuple[Token, ...] = ()

    def __str__(self) -> str:
        return "[" + ",".join(self.items) + "]"

    def __len__(self) -> int:
        return len(self.items)

    def tokens(self) -> frozenset[Token]:
        return frozenset(self.items)


@dataclass(frozen=True)
class SetPos:
    """A finite set of tokens; duplication and order are quotiented away."""

    items: frozenset[Token] = frozenset()

    def __str__(self) -> str:
        return "{" + ",".join(sorted(self.items)) + "}"

    def tokens(self) -> frozenset[Token]:
        return self.items


@dataclass(frozen=True)
class LtlPos:
    """A pair of a step count and a finite token set."""

    steps: int = 0
    future: frozenset[Token] = frozenset()

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("step count must be a natural number")

    def __str__(self) -> str:
        return f"({self.steps};{{{','.join(sorted(self.future))}}})"

    def tokens(self) -> frozenset[Token]:
        return self.future


@dataclass(frozen=True)
class PastPos:
    """An integer offset with disjoint future and past token sets."""

    offset: int = 0
    future: frozenset[Token] = frozenset()
    past: frozenset[Token] = frozenset()

    def __post_init__(self):
        if self.future & self.past:
            raise ValueError("future and past token sets must be disjoint")

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


def concat(s: SeqPos, t: SeqPos) -> SeqPos:
    """Concatenation of sequence positions; associative with unit []."""
    return SeqPos(s.items + t.items)


def related(s: SeqPos, t: SeqPos, mode: str) -> bool:
    """Order relations on sequence positions.

    one-step: t extends s by exactly one token; reflexive-one-step adds
    equality; strict-prefix and prefix are the transitive and the
    reflexive-transitive closures of one-step.
    """
    if mode not in RELATED_MODES:
        raise ValueError(f"unknown relation mode: {mode!r}")
    if t.items[:len(s.items)] != s.items:
        return False
    gap = len(t.items) - len(s.items)
    if mode == "one-step":
        return gap == 1
    if mode == "reflexive-one-step":
        return gap in (0, 1)
    if mode == "strict-prefix":
        return gap >= 1
    return True


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


def ltl_add(s: LtlPos, t: LtlPos) -> LtlPos:
    """Componentwise sum: step counts add, token sets unite."""
    return LtlPos(s.steps + t.steps, s.future | t.future)


def ltl_step(n: int = 1) -> LtlPos:
    return LtlPos(n, frozenset())


def ltl_token(x: Token) -> LtlPos:
    return LtlPos(0, frozenset((x,)))


def ltl_subst(s: LtlPos, t: LtlPos, x: Token) -> LtlPos:
    """Substitute t for the token x in s; s is unchanged when x is absent."""
    if x in s.future:
        return LtlPos(s.steps + t.steps, (s.future - {x}) | t.future)
    return s


def past_add(s: PastPos, m: int, toks: Iterable[Token]) -> PastPos:
    """Forward shift of a past/future position.

    Tokens already pending in the future set are consumed; the remainder
    moves to the past set.
    """
    t = frozenset(toks)
    return PastPos(s.offset + m, s.future - t, s.past | (t - s.future))


def past_sub(s: PastPos, m: int, toks: Iterable[Token]) -> PastPos:
    """Backward shift, the dual of past_add."""
    t = frozenset(toks)
    return PastPos(s.offset - m, s.future | (t - s.past), s.past - t)
