"""Temporal layer: lasso-word semantics for the linear-time calculus and
the checking entry points for the temporal systems.

A lasso word is the finite stand-in for an arbitrary valuation of the
natural numbers: evaluation beyond the prefix is periodic.  Time m is
one of |prefix|+|loop| canonical points (m in the prefix, else
(m-|prefix|) mod |loop| into the loop).  Words are blocks of a
`semantics._Frame` pack: a point's drawn edge goes to the next point,
the last one's back to the loop start, ``Next`` steps over those edges
and box and dia over their reflexive-transitive closure.  A parsed word
is a pack of one; the fuzzer decides a drawn pack of words at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

from .calculus import CheckReport, ProofNode, SystemId, check_proof
from .errors import TwoseqError
from .positions import LtlPos, Token
from .semantics import _FIRST_PACK, _PACK_CAP, _Frame
from .syntax import Formula, Sequent, compile_formulas, sequent_atoms, tokens_of

_WIDTH = 8      # a drawn word's block: 4 prefix and 3 loop points, a guard bit


@dataclass(frozen=True)
class LassoWord:
    """Ultimately periodic valuation: prefix letters then a repeated loop."""

    prefix: tuple[frozenset[str], ...]
    loop: tuple[frozenset[str], ...]

    def __post_init__(self):
        if not self.loop:
            raise ValueError("lasso loop must be nonempty")

    def letter(self, m: int) -> frozenset[str]:
        if m < len(self.prefix):
            return self.prefix[m]
        return self.loop[(m - len(self.prefix)) % len(self.loop)]

    def point(self, m: int) -> int:
        """The canonical point of time m."""
        return _point(len(self.prefix), len(self.loop), m)

    def label(self, code: list[tuple]) -> list[int]:
        """The mask of canonical points satisfying each instruction of a
        program; bit i stands for point i."""
        return _one(self).truth_sets(code, range(len(code)))


TokenValuation = dict[Token, int]


def _point(p: int, loop: int, m: int) -> int:
    """The canonical point of time m on a word with a prefix of p points."""
    return m if m < p else p + (m - p) % loop


def _pack(width: int, shapes: list[tuple], atoms: dict[str, int]) -> _Frame:
    """Words as a pack, word k's point i at bit k*width + i; ``shapes``
    holds each word's prefix length, loop length and token valuation."""
    full, low, edges = 0, 0, [0] * (width - 1)
    for base, (p, loop, _) in zip(range(0, len(shapes) * width, width), shapes):
        full, low = full | (1 << p + loop) - 1 << base, low | 1 << base
        edges[p + loop - 1] |= 1 << base + p
    edges = [e | (low << i + 1 & full) for i, e in enumerate(edges)]
    return _Frame(SystemId.LTL, (), width, full, edges, atoms)


def _one(w: LassoWord) -> _Frame:
    """A parsed word as a pack of one."""
    letters = w.prefix + w.loop
    atoms = {a: sum(1 << i for i, x in enumerate(letters) if a in x)
             for a in frozenset().union(*letters)}
    return _pack(len(letters) + 1, [(len(w.prefix), len(w.loop), {})], atoms)


def _draw(rng: random.Random, atoms: tuple[str, ...], count: int,
          tokens: tuple[Token, ...] = (), bound: int = 0) -> tuple[_Frame, list]:
    """A pack of ``count`` words and their shapes.  Each word draws its
    prefix length (0..4), a coin per prefix point and atom, its loop length
    (1..3) and a coin per loop point and atom, then its token valuation."""
    coin, masks, shapes = rng.random, dict.fromkeys(atoms, 0), []

    def letters(lo: int, k: int) -> int:
        for i in range(lo, lo + k):
            for a in atoms:
                if coin() < 0.5:
                    masks[a] |= 1 << i
        return k
    for base in range(0, count * _WIDTH, _WIDTH):
        p = letters(base, rng.randint(0, 4))
        loop = letters(base + p, rng.randint(1, 3))
        shapes.append((p, loop, {x: rng.randint(0, bound) for x in tokens}))
    return _pack(_WIDTH, shapes, masks), shapes


def _word(pack: _Frame, shapes: list[tuple], k: int) -> LassoWord:
    (p, loop, _), base = shapes[k], k * pack.width
    letters = tuple(frozenset(a for a, x in pack.atoms.items() if x >> base + i & 1)
                    for i in range(p + loop))
    return LassoWord(letters[:p], letters[p:])


def _falsified(pack: _Frame, truth: list[int], shapes: list[tuple], s: Sequent) -> int:
    """Bit 0 of each block whose word falsifies s under its valuation;
    ``truth`` is the pack's truth set of each formula of s."""
    out, picked = pack.low, {}     # per position: its point in each block
    for j, (q, t) in enumerate(zip(s.pformulas(), truth)):
        if q.pos not in picked:
            picked[q.pos] = sum(1 << k * pack.width + _point(p, loop, a_value(a, q.pos))
                                for k, (p, loop, a) in enumerate(shapes))
        hit = pack.some(t & picked[q.pos])
        out &= hit if j < len(s.ant) else ~hit
    return out


def _need_ltl_positions(s: Sequent) -> None:
    if not all(isinstance(q.pos, LtlPos) for q in s.pformulas()):
        raise TwoseqError("lasso semantics needs step/token-set positions")


def a_value(a: TokenValuation, s: LtlPos) -> int:
    """The time point a position denotes under a token valuation."""
    return s.steps + sum(a.get(x, 0) for x in s.future)


def eval_at(w: LassoWord, m: int, f: Formula) -> bool:
    """Satisfaction at time m."""
    code, (root,) = compile_formulas((f,))
    return bool(w.label(code)[root] >> w.point(m) & 1)


def sequent_checker(w: LassoWord,
                    s: Sequent) -> Callable[[TokenValuation], bool]:
    """Whether s holds on w under a token valuation; w is labelled once."""
    _need_ltl_positions(s)
    pack = _one(w)
    truth = pack.truth_sets(*s.program)
    return lambda a: not _falsified(pack, truth, [(len(w.prefix), len(w.loop), a)], s)


def sequent_satisfied(w: LassoWord, a: TokenValuation, s: Sequent) -> bool:
    return sequent_checker(w, s)(a)


def check_ltl_proof(p: ProofNode, variant: str = "ind") -> CheckReport:
    """Check under the induction-rule or the induction-axiom formulation."""
    if variant not in ("ind", "indax"):
        raise TwoseqError("variant must be 'ind' or 'indax'")
    sys = SystemId.LTL if variant == "ind" else SystemId.LTL_INDAX
    return check_proof(p, sys)


def check_past_proof(p: ProofNode) -> CheckReport:
    return check_proof(p, SystemId.LTLP)


@dataclass
class LtlVerdict:
    ok: bool
    words_tried: int
    word: Optional[LassoWord] = None
    valuation: Optional[TokenValuation] = None

    @property
    def kind(self) -> str:
        return "valid-so-far" if self.ok else "counterexample"


def random_lasso(rng: random.Random, atoms: tuple[str, ...]) -> LassoWord:
    """A prefix of 0..4 and a loop of 1..3 letters, each atom in each
    letter with probability 1/2."""
    return _word(*_draw(rng, atoms, 1), 0)


def ltl_soundness_fuzz(target, budget: int, seed: int,
                       bound: int = 4) -> LtlVerdict:
    """Random lassos and token valuations against a proof's end sequent
    (or a bare sequent).  The words are drawn in packs of doubling size,
    each decided at once; the first falsified one is the counterexample."""
    if budget < 1:
        raise TwoseqError(f"fuzz budget must be at least 1, not {budget}")
    if bound < 0:
        raise TwoseqError(f"token bound must be at least 0, not {bound}")
    end_sequent = target if isinstance(target, Sequent) else target.conclusion
    _need_ltl_positions(end_sequent)
    rng = random.Random(seed)
    atoms = tuple(sorted(sequent_atoms(end_sequent))) or ("p0",)
    tokens = tuple(sorted(tokens_of(end_sequent)))
    tried, count = 0, _FIRST_PACK
    while tried < budget:
        count = min(count, budget - tried)
        pack, shapes = _draw(rng, atoms, count, tokens, bound)
        hits = _falsified(pack, pack.truth_sets(*end_sequent.program), shapes, end_sequent)
        if hits:
            k = ((hits & -hits).bit_length() - 1) // _WIDTH
            return LtlVerdict(False, tried + k + 1, _word(pack, shapes, k), shapes[k][2])
        tried, count = tried + count, min(2 * count, _PACK_CAP)
    return LtlVerdict(True, budget)


def exhaustive_valuations(tokens: tuple[Token, ...], bound: int):
    """Every token valuation with values up to the bound, the first token
    varying fastest."""
    if bound < 0:
        raise TwoseqError(f"token bound must be at least 0, not {bound}")
    keys = tuple(reversed(tokens))
    for values in product(range(bound + 1), repeat=len(keys)):
        yield dict(zip(keys, values))
