"""Temporal layer: the checking entry points for the temporal systems, and
the linear-time names of the lasso-word semantics, which `semantics`
holds next to the graph semantics as one layer."""

import random

from .calculus import CheckReport, ProofNode, SystemId, check_proof
from .errors import TwoseqError
from .semantics import (LassoWord, TokenValuation, Verdict, _Lasso, _point, a_value,  # noqa: F401
                        exhaustive_valuations, forces, sequent_holds, soundness_fuzz)
from .syntax import Formula, Sequent


def eval_at(w: LassoWord, m: int, f: Formula) -> bool:
    """Satisfaction at time m."""
    return forces(w, SystemId.LTL, m, f)


def sequent_satisfied(w: LassoWord, a: TokenValuation, s: Sequent) -> bool:
    return sequent_holds(w, SystemId.LTL, a, s)


def check_ltl_proof(p: ProofNode, variant: str = "ind") -> CheckReport:
    """Check under the induction-rule or the induction-axiom formulation."""
    if variant not in ("ind", "indax"):
        raise TwoseqError("variant must be 'ind' or 'indax'")
    sys = SystemId.LTL if variant == "ind" else SystemId.LTL_INDAX
    return check_proof(p, sys)


def check_past_proof(p: ProofNode) -> CheckReport:
    return check_proof(p, SystemId.LTLP)


def random_lasso(rng: random.Random, atoms: tuple[str, ...]) -> LassoWord:
    """A word as `_Lasso.draw` draws it, each atom in each letter at 1/2."""
    return _Lasso.draw(rng, SystemId.LTL, atoms).model()


def ltl_soundness_fuzz(target, budget: int, seed: int, bound: int = 4) -> Verdict:
    """`soundness_fuzz` under LTL, called through this module's own binding
    so that a trace of `semantics.soundness_fuzz` counts graph runs only."""
    return soundness_fuzz(target, SystemId.LTL, budget, seed, bound)
