"""Soundness-fuzzer verdicts at fixed seeds.

Every corpus end sequent over sequence positions is fuzzed in each of the
five core systems, and every one over linear-time positions with the
lasso fuzzer.  A few sequents outside the corpus are fuzzed the same
way: most are invalid in some system, and some can only be refuted by a
partial assignment.  Corpus sequents recur across home systems, so each
distinct end sequent appears once, under the first home that has it.  A
record holds the verdict kind, the number of models (or words) tried and
the counterexample: the rendered model with the assignment as ordered
(position, node) pairs, or the rendered word with the token valuation.

Run ``PYTHONPATH=src python tests/fuzz_verdicts.py`` to rewrite
``tests/golden/fuzz_verdicts.json``; ``test_fuzz_verdicts`` recomputes
every record and compares.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from twoseq import corpus
from twoseq.calculus import CORE_SYSTEMS, TABLE, SystemId
from twoseq.ltl import ltl_soundness_fuzz
from twoseq.parser import parse_sequent, render_model, render_sequent
from twoseq.positions import LtlPos, SeqPos
from twoseq.semantics import soundness_fuzz
from twoseq.syntax import Sequent

GOLDEN = Path(__file__).parent / "golden" / "fuzz_verdicts.json"

SEEDS = (1, 2, 3)
MODAL_BUDGET = 60
LTL_BUDGET = 150

# sequents outside the corpus: (label, sequent, position family)
EXTRA = (
    ("box-p0-implies-p0", "|- box p0 -> p0 @ []", SeqPos),
    ("dia-true", "|- dia (p0 -> p0) @ []", SeqPos),
    ("four", "box p0 @ [] |- box box p0 @ []", SeqPos),
    ("brouwer", "p0 @ [] |- box dia p0 @ []", SeqPos),
    ("sibling-points", "p0 @ [x] |- p0 @ [y]", SeqPos),
    ("child-to-parent", "p0 @ [x] |- box p0 @ []", SeqPos),
    ("deep-chain", "p0 @ [x,y,z], box p1 @ [x] |- p1 @ [x,y,z], p0 @ [y]",
     SeqPos),
    ("parent-box-child", "box p0 @ [] |- p0 @ [x]", SeqPos),
    ("next-p0-implies-p0", "|- X p0 -> p0 @ (0;{})", LtlPos),
    ("dia-p0-implies-p0", "|- dia p0 -> p0 @ (0;{})", LtlPos),
    ("token-step", "p0 @ (0;{x}) |- p0 @ (1;{x})", LtlPos),
    ("two-tokens", "box p0 @ (0;{x}) |- X p0 @ (0;{y})", LtlPos),
)


def subjects() -> Iterator[tuple[str, type, Sequent]]:
    seen = set()
    for home in SystemId:
        family = TABLE[home].family
        if family not in (SeqPos, LtlPos):
            continue
        for name, proof in corpus.entries(home):
            key = render_sequent(proof.conclusion)
            if key not in seen:
                seen.add(key)
                yield f"{home.value}/{name}", family, proof.conclusion
    for label, text, family in EXTRA:
        yield label, family, parse_sequent(text)


def verdict(s: Sequent, sys: SystemId, seed: int) -> dict:
    if sys is SystemId.LTL:
        v = ltl_soundness_fuzz(s, LTL_BUDGET, seed)
        cex = None if v.ok else {
            "word": render_model(v.word),
            "valuation": [[x, n] for x, n in sorted(v.valuation.items())]}
        return {"kind": v.kind, "tried": v.tried, "counterexample": cex}
    v = soundness_fuzz(s, sys, MODAL_BUDGET, seed)
    cex = None if v.ok else {
        "model": render_model(v.model),
        "assignment": [[str(k), n] for k, n in v.rho.items()]}
    return {"kind": v.kind, "tried": v.tried, "counterexample": cex}


def record() -> list[dict]:
    rows = []
    for label, family, s in subjects():
        systems = CORE_SYSTEMS if family is SeqPos else (SystemId.LTL,)
        for sys in systems:
            for seed in SEEDS:
                rows.append({"subject": label, "system": sys.value,
                             "seed": seed, **verdict(s, sys, seed)})
    return rows


def dump(rows: list[dict]) -> str:
    """One record per line, so a changed verdict is a one-line diff."""
    return "[\n" + ",\n".join(" " + json.dumps(r) for r in rows) + "\n]\n"


if __name__ == "__main__":
    GOLDEN.write_text(dump(record()))
