"""Verification kernel for 2-sequent modal and temporal proof systems.

``import twoseq`` loads no submodule: a public name or a submodule is
imported on first access (PEP 562), with what its home module imports.
Checker names load ``calculus``, ``syntax``, ``positions`` and ``errors``;
parser names add ``parser``; semantic names add ``semantics`` (and ``ltl``
for ``eval_at`` and ``ltl_soundness_fuzz``); transformations add
``transform``, and cut elimination ``transform`` and ``cutelim``.
"""

import importlib

_HOMES = {
    "calculus": "CheckReport ProofNode ProofScript SystemId check_proof "
                "check_rule_instance expand_double_lines structural_bridge",
    "cutelim": "eliminate_cuts mix proof_degree verify_subformula_property",
    "errors": "TwoseqError",
    "ltl": "eval_at ltl_soundness_fuzz",
    "parser": "parse_formula parse_model parse_proof parse_sequent "
              "render_model render_proof render_sequent",
    "semantics": "GraphModel LassoWord a_value admissible_assignments forces "
                 "sequent_holds soundness_fuzz",
    "syntax": "Formula PFormula Sequent degree is_subformula",
    "transform": "compose_mp ind_to_axiom lift_proof necessitate "
                 "prefix_replace_proof rename_eigen",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
_SUBMODULES = frozenset(_HOMES) | {"cli", "corpus", "positions"}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list:
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
