"""Batch command-line driver.

Exit codes are part of the contract: 0 for acceptance/validity, 1 for a
rejection, counterexample, or failed property, 2 for usage and I/O
problems.  ``--json`` switches every subcommand to a stable JSON schema.
Each subcommand imports the modules that only it uses, so ``check``
loads no more than the parser and the checker.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from typing import Optional

from .calculus import (TABLE, LtlPos, ProofNode, SeqPos, SystemId, check_proof,
                       expand_double_lines)
from .errors import RejectedProofError, TwoseqError
from .parser import (parse_model, parse_position, parse_proof, parse_sequent,
                     render_model, render_proof)

DEFAULT_SEED = 1

# the output's nouns per position family, a contract: an assignment's key,
# eval's texts with a counterexample and without, fuzz's noun for a model
# and a counterexample's key and lines after the verdict
_NOUNS = {SeqPos: ("assignment", "fails under the assignment ",
                   "holds in every admissible assignment", "models", "model", "\n{}\n# rho {}"),
          LtlPos: ("valuation", "fails under the token valuation ",
                   "holds for every token valuation up to {}", "words", "word", "")}


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise TwoseqError(f"{path} is not UTF-8 text") from None


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _load_proof(path: str, system: Optional[str]) -> tuple[SystemId, ProofNode]:
    script = parse_proof(_read(path))
    sys_id = SystemId.parse(system) if system else script.system
    return sys_id, expand_double_lines(script)


def _load_checked(args) -> tuple[SystemId, ProofNode]:
    sys_id, proof = _load_proof(args.proof, args.system)
    rep = check_proof(proof, sys_id)
    if not rep.accepted:
        raise RejectedProofError(rep.render_text(), rep)
    return sys_id, proof


def _write_checked(args, sys_id: SystemId, out: ProofNode, what: str) -> int:
    """Write a produced proof only once the kernel has re-checked it."""
    rep = check_proof(out, sys_id)
    if not rep.accepted:
        print(f"internal error: {what} proof was rejected", file=_sys.stderr)
        print(rep.render_text(), file=_sys.stderr)
        return 2
    _write(args.output, render_proof(sys_id, out))
    return 0


def _emit(args, payload: dict, text: str) -> None:
    print(json.dumps(payload, indent=2) if args.json else text)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    value = os.environ.get("TWOSEQ_SEED") or str(DEFAULT_SEED)
    try:
        return int(value)
    except ValueError:
        raise TwoseqError(f"TWOSEQ_SEED must be an integer, not {value!r}") from None


def cmd_check(args) -> int:
    sys_id, proof = _load_proof(args.proof, args.system)
    rep = check_proof(proof, sys_id)
    _emit(args, {"system": sys_id.value, **rep.to_json_dict()},
          f"{sys_id.value}: {rep.render_text()}")
    return 0 if rep.accepted else 1


def cmd_cutelim(args) -> int:
    # eliminate_cuts checks its input and raises the rejection report
    from .cutelim import eliminate_cuts
    sys_id, proof = _load_proof(args.proof, args.system)
    trace = (lambda s: print(s, file=_sys.stderr)) if args.trace else None
    return _write_checked(args, sys_id, eliminate_cuts(proof, sys_id, trace),
                          "cut-free")


def cmd_subformula(args) -> int:
    from .cutelim import is_cut_free, verify_subformula_property
    sys_id, proof = _load_checked(args)
    if not is_cut_free(proof):
        print("subformula verification needs a cut-free proof", file=_sys.stderr)
        return 2
    ok = verify_subformula_property(proof)
    _emit(args, {"system": sys_id.value, "subformula_property": ok},
          "subformula property holds" if ok else "subformula property fails")
    return 0 if ok else 1


def cmd_eval(args) -> int:
    from .semantics import counterexample
    sys_id = SystemId.parse(args.system)
    model = parse_model(_read(args.model))
    found = counterexample(model, sys_id, parse_sequent(_read(args.sequent)), args.bound)
    key, fails, holds = _NOUNS[TABLE[sys_id].family][:3]
    detail = None if found is None else {str(k): v for k, v in found.items()}
    _emit(args, {"holds": found is None, key: detail},
          holds.format(args.bound) if found is None else fails + json.dumps(detail))
    return 0 if found is None else 1


def cmd_fuzz(args) -> int:
    from .semantics import soundness_fuzz
    sys_id, proof = _load_checked(args)
    verdict = soundness_fuzz(proof.conclusion, sys_id, args.budget, _seed(args), args.bound)
    key, _, _, noun, model_key, lines = _NOUNS[TABLE[sys_id].family]
    payload = {"verdict": verdict.kind, "models": verdict.tried, "counterexample": None}
    text = f"{verdict.kind} after {verdict.tried} {noun}"
    if not verdict.ok:
        rho = {str(k): v for k, v in verdict.rho.items()}
        model = render_model(verdict.model)
        payload["counterexample"] = {model_key: model, key: rho}
        text += lines.format(model, json.dumps(rho))
    _emit(args, payload, text)
    return 0 if verdict.ok else 1


def cmd_axioms(args) -> int:
    from . import corpus
    sys_id = SystemId.parse(args.system)
    results = []
    for name, proof in corpus.entries(sys_id):
        rep = check_proof(proof, sys_id)
        results.append({"name": name, "verdict": rep.verdict})
        if args.output_dir:
            os.makedirs(args.output_dir, exist_ok=True)
            path = os.path.join(args.output_dir, f"{name}.2sp")
            _write(path, render_proof(sys_id, proof))
    ok = all(r["verdict"] == "accepted" for r in results)
    _emit(args, {"system": sys_id.value, "proofs": results},
          "\n".join(f"{sys_id.value} {r['name']}: {r['verdict']}"
                    for r in results))
    return 0 if ok else 1


def cmd_transform(args) -> int:
    from .transform import (compose_mp, ind_to_axiom, lift_proof, necessitate,
                            rename_eigen)
    sys_id, proof = _load_proof(args.proof, args.system)
    if args.op == "rename":
        out = rename_eigen(proof, sys_id)
    elif args.op == "lift":
        if not args.by:
            print("--by POSITION is required for lift", file=_sys.stderr)
            return 2
        out = lift_proof(proof, parse_position(args.by), sys_id)
    elif args.op == "nec":
        out = necessitate(proof, sys_id)
    elif args.op == "mp":
        if not args.with_proof:
            print("--with PROOF is required for mp", file=_sys.stderr)
            return 2
        _, other = _load_proof(args.with_proof, args.system)
        out = compose_mp(proof, other, sys_id)
    else:                       # ind2ax; argparse refuses any other --op
        out = ind_to_axiom(proof)
        sys_id = SystemId.LTL_INDAX
    return _write_checked(args, sys_id, out, "transformed")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="twoseq",
        description="verification kernel for 2-sequent modal proof systems")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("proof", help="proof script (.2sp)")
        p.add_argument("--system", help="override the script's system")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("check", help="check a proof script")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("cutelim", help="eliminate cuts from a proof")
    common(p)
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.add_argument("--trace", action="store_true",
                   help="log each reduction step to stderr")
    p.set_defaults(fn=cmd_cutelim)

    p = sub.add_parser("subformula", help="verify the subformula property")
    common(p)
    p.set_defaults(fn=cmd_subformula)

    p = sub.add_parser("eval", help="evaluate a sequent on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--sequent", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--bound", type=int, default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("fuzz", help="search models for a soundness failure")
    common(p)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--seed", type=int)
    p.add_argument("--bound", type=int, default=4,
                   help="token valuation bound (linear time)")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("axioms", help="emit and self-check the corpus")
    p.add_argument("--system", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output-dir",
                   help="also write each corpus proof to this directory")
    p.set_defaults(fn=cmd_axioms)

    p = sub.add_parser("transform", help="apply a proof transformation")
    common(p)
    p.add_argument("--op", required=True,
                   choices=("rename", "lift", "nec", "mp", "ind2ax"))
    p.add_argument("--by", help="lift position")
    p.add_argument("--with", dest="with_proof", help="second proof for mp")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(fn=cmd_transform)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "bound", 0) < 0:
            raise TwoseqError(f"token bound must be at least 0, not {args.bound}")
        return args.fn(args)
    except RejectedProofError as e:
        print(e.report.render_text(), file=_sys.stderr)
        return 2
    except (TwoseqError, OSError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 2
    except Exception as e:
        # exit 1 means rejection or counterexample, so a crash must not
        # escape as an uncaught exception with that code
        print(f"internal error: {type(e).__name__}: {e}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
