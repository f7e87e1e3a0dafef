"""Temporal layer: the linear-time names of the lasso-word semantics, which
`semantics` holds next to the graph semantics as one layer.  The temporal
systems are checked by `calculus.check_proof` under their `SystemId`."""

from .calculus import SystemId
from .semantics import (LassoWord, TokenValuation, Verdict, a_value,  # noqa: F401
                        exhaustive_valuations, forces, sequent_holds, soundness_fuzz)
from .syntax import Formula, Sequent


def eval_at(w: LassoWord, m: int, f: Formula) -> bool:
    """Satisfaction at time m."""
    return forces(w, SystemId.LTL, m, f)


def sequent_satisfied(w: LassoWord, a: TokenValuation, s: Sequent) -> bool:
    return sequent_holds(w, SystemId.LTL, a, s)


def ltl_soundness_fuzz(target, budget: int, seed: int, bound: int = 4) -> Verdict:
    """`soundness_fuzz` under LTL, called through this module's own binding
    so that a trace of `semantics.soundness_fuzz` counts graph runs only."""
    return soundness_fuzz(target, SystemId.LTL, budget, seed, bound)
