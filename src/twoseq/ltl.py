"""Temporal layer: lasso-word semantics for the linear-time calculus and
the checking entry points for the temporal systems.

A lasso word is the finite stand-in for an arbitrary valuation of the
natural numbers: evaluation beyond the prefix is periodic.  Time m is
one of |prefix|+|loop| canonical points (m in the prefix, else
(m-|prefix|) mod |loop| into the loop; the last point steps back to the
loop start), and evaluation is labelling: each subformula gets one
bitmask over those points, in O(|f| * (|prefix|+|loop|)).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from .calculus import CheckReport, ProofNode, SystemId, check_proof
from .errors import TwoseqError
from .positions import LtlPos, Token
from .syntax import (Box, Dia, Formula, Next, Sequent,
                     compile_formulas, label_program, sequent_atoms, tokens_of)


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
        p = len(self.prefix)
        return m if m < p else p + (m - p) % len(self.loop)

    def label(self, code: list[tuple]) -> list[int]:
        """The mask of canonical points satisfying each instruction of a
        program; bit i stands for point i."""
        letters = self.prefix + self.loop
        p, n = len(self.prefix), len(letters)
        full = (1 << n) - 1
        loop = full ^ ((1 << p) - 1)
        atoms: dict[str, int] = {}
        for i, letter in enumerate(letters):
            for a in letter:
                atoms[a] = atoms.get(a, 0) | 1 << i

        def step(op: type, x: int) -> int:
            if op is Next:
                return x >> 1 | (x >> p & 1) << (n - 1)
            # a loop point sees the whole loop; a prefix point also sees
            # the rest of the prefix
            if op is Box:
                x ^= full
                return 0 if x & loop else full ^ ((1 << x.bit_length()) - 1)
            if op is Dia:
                return full if x & loop else (1 << x.bit_length()) - 1
            raise TwoseqError("the natural-number semantics has no past")
        return label_program(code, full, atoms, step)


TokenValuation = dict[Token, int]


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
    if not all(isinstance(q.pos, LtlPos) for q in s.pformulas()):
        raise TwoseqError("lasso semantics needs step/token-set positions")
    code, roots = s.program
    truth = w.label(code)
    marked = [(q.pos, truth[r]) for q, r in zip(s.pformulas(), roots)]
    ant, suc = marked[:len(s.ant)], marked[len(s.ant):]

    def holds(a: TokenValuation) -> bool:
        def sat(pos: LtlPos, mask: int) -> bool:
            return bool(mask >> w.point(a_value(a, pos)) & 1)
        return not all(sat(*x) for x in ant) or any(sat(*x) for x in suc)
    return holds


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
    def letters(k: int) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(a for a in atoms if rng.random() < 0.5)
                     for _ in range(k))

    return LassoWord(letters(rng.randint(0, 4)), letters(rng.randint(1, 3)))


def ltl_soundness_fuzz(target, budget: int, seed: int,
                       bound: int = 4) -> LtlVerdict:
    """Random lassos and token valuations against a proof's end sequent
    (or a bare sequent)."""
    end_sequent = target if isinstance(target, Sequent) else target.conclusion
    rng = random.Random(seed)
    atoms = tuple(sorted(sequent_atoms(end_sequent))) or ("p0",)
    tokens = tuple(sorted(tokens_of(end_sequent)))
    for i in range(budget):
        w = random_lasso(rng, atoms)
        a = {x: rng.randint(0, bound) for x in tokens}
        if not sequent_satisfied(w, a, end_sequent):
            return LtlVerdict(False, i + 1, w, a)
    return LtlVerdict(True, budget)


def exhaustive_valuations(tokens: tuple[Token, ...], bound: int):
    """Every token valuation with values up to the bound."""
    if not tokens:
        yield {}
        return
    first, rest = tokens[0], tokens[1:]
    for a in exhaustive_valuations(rest, bound):
        for v in range(bound + 1):
            out = dict(a)
            out[first] = v
            yield out
