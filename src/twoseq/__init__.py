"""Verification kernel for 2-sequent modal and temporal proof systems."""

from .calculus import (CheckReport, ProofNode, ProofScript, SystemId,
                       check_proof, check_rule_instance, expand_double_lines,
                       structural_bridge)
from .cutelim import (eliminate_cuts, mix, proof_degree,
                      verify_subformula_property)
from .errors import TwoseqError
from .ltl import LassoWord, a_value, eval_at, ltl_soundness_fuzz
from .parser import (parse_formula, parse_model, parse_proof, parse_sequent,
                     render_model, render_proof, render_sequent)
from .semantics import (GraphModel, admissible_assignments, forces,
                        sequent_holds, soundness_fuzz)
from .syntax import Formula, PFormula, Sequent, degree, is_subformula
from .transform import (compose_mp, ind_to_axiom, lift_proof, necessitate,
                        prefix_replace_proof, rename_eigen)

__all__ = [
    "CheckReport", "ProofNode", "ProofScript", "SystemId", "TwoseqError",
    "check_proof", "check_rule_instance", "expand_double_lines",
    "structural_bridge", "eliminate_cuts", "mix", "proof_degree",
    "verify_subformula_property", "LassoWord", "a_value", "eval_at",
    "ltl_soundness_fuzz", "parse_formula", "parse_model", "parse_proof",
    "parse_sequent", "render_model", "render_proof", "render_sequent",
    "GraphModel", "admissible_assignments", "forces", "sequent_holds",
    "soundness_fuzz", "Formula", "PFormula", "Sequent", "degree",
    "is_subformula", "compose_mp", "ind_to_axiom", "lift_proof", "necessitate",
    "prefix_replace_proof", "rename_eigen",
]
