"""Seeded cut-bearing proofs for the cut-elimination workload.

The construction of the elimination suite the tests use: modus-ponens
compositions and necessitations of corpus pieces, kept within a height
bound.  It is kept here, separate from the tests, so that the benchmark's
inputs for a given seed do not change when the tests do.  One thing
differs: the tests draw the number of growth steps of each proof
uniformly from 0..3, while a suite here takes them from the fixed mix
`STEP_MIX`.  Every seed then holds the same mix of proof sizes, and the
median latency falls inside one size class instead of on the edge
between two, where it would jump from seed to seed.
"""

from __future__ import annotations

import random

from twoseq import corpus
from twoseq.calculus import ProofNode, SystemId, height, iter_nodes
from twoseq.syntax import And, Box, Formula, Imp, Not, Prop
from twoseq.transform import compose_mp, necessitate

MAX_HEIGHT = 12

_BASES: tuple[Formula, ...] = (
    Prop("p0"), Prop("p1"), Imp(Prop("p0"), Prop("p0")),
    And(Prop("p0"), Prop("p1")), Not(Prop("p0")),
)

# which boxed axioms may consume a boxed goal, per system
_AXIOM_STEPS = (
    ("mp_t", corpus.axiom_t, (SystemId.T, SystemId.S4)),
    ("mp_d", corpus.axiom_d, (SystemId.D, SystemId.T, SystemId.S4)),
    ("mp_4", corpus.axiom_4, (SystemId.K4, SystemId.S4)),
)


def _extend(p: ProofNode, g: Formula, sys: SystemId,
            rng: random.Random) -> tuple[ProofNode, Formula]:
    """One random growth step: the new proof and its succedent formula."""
    ops = ["mp_taut", "nec"]
    if isinstance(g, Box):
        ops += [name for name, _, systems in _AXIOM_STEPS if sys in systems]
        if isinstance(g.sub, Imp):
            ops.append("mp_k")
    op = rng.choice(ops)
    if op == "mp_taut":
        return compose_mp(corpus.taut(g), p, sys), g
    if op == "nec":
        return necessitate(p, sys), Box(g)
    if op == "mp_k":
        out = compose_mp(corpus.axiom_k(g.sub.left, g.sub.right), p, sys)
    else:
        builder = next(b for name, b, _ in _AXIOM_STEPS if name == op)
        out = compose_mp(builder(g.sub), p, sys)
    return out, out.conclusion.suc[0].formula


# growth steps per proof, in shares of a suite: (steps, weight)
STEP_MIX = ((0, 20), (1, 25), (2, 30), (3, 25))


def generate_one(sys: SystemId, rng: random.Random, steps: int) -> ProofNode:
    base = rng.choice(_BASES)
    g: Formula = Imp(base, base)
    p = compose_mp(corpus.taut(g), corpus.taut(base), sys)   # height 4, cuts
    for _ in range(steps):
        cand, cg = _extend(p, g, sys, rng)
        if height(cand) > MAX_HEIGHT:
            break
        p, g = cand, cg
    if not any(n.rule == "cut" for _, n in iter_nodes(p)):
        raise AssertionError("generated proof carries no cut")
    return p


def step_counts(count: int) -> list[int]:
    """`count` step numbers in the proportions of `STEP_MIX`."""
    total = sum(w for _, w in STEP_MIX)
    out = [k for k, w in STEP_MIX for _ in range(count * w // total)]
    out += [k for k, _ in STEP_MIX][:count - len(out)]
    return out


def generate_suite(sys: SystemId, count: int,
                   seed: int | str) -> list[ProofNode]:
    rng = random.Random(seed)
    return [generate_one(sys, rng, k) for k in step_counts(count)]
