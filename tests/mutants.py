"""Single-node mutants of the corpus proofs, and the checker diagnostics
they draw.

A mutant changes one node of an accepted proof in one way: it drops one
parameter, swaps the two premises of a binary rule, or flips the top
connective (box/dia, and/or) of the formula at one of the node's rule
edges (last antecedent, first succedent).  The rest of the tree is
shared with the original.

Run ``PYTHONPATH=src python tests/mutants.py`` to rewrite
``tests/golden/diagnostics.json``; the golden pins the full failure list
of every corpus proof against every system, and of every mutant in the
proof's home system.  Pairs on which the checker raises are left out;
the committed golden has 291 of the 387 pairs, and the counts pinned in
``test_diagnostics`` move with any rewrite.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from twoseq import corpus
from twoseq.calculus import ProofNode, SystemId, check_proof, iter_nodes
from twoseq.syntax import And, Box, Dia, Or, PFormula, Sequent

GOLDEN = Path(__file__).parent / "golden" / "diagnostics.json"

_FLIP = {Box: Dia, Dia: Box, And: Or, Or: And}


def _flip(q: PFormula) -> PFormula:
    f = q.formula
    if isinstance(f, (Box, Dia)):
        return PFormula(_FLIP[type(f)](f.sub), q.pos)
    return PFormula(_FLIP[type(f)](f.left, f.right), q.pos)


def replace_at(p: ProofNode, path: tuple[int, ...], new: ProofNode) -> ProofNode:
    """The proof with the node at ``path`` replaced."""
    if not path:
        return new
    prems = list(p.premises)
    prems[path[0]] = replace_at(prems[path[0]], path[1:], new)
    return ProofNode(p.rule, p.params, p.conclusion, tuple(prems))


def node_mutants(n: ProofNode) -> Iterator[tuple[str, ProofNode]]:
    """Every one-change variant of one node, with a label."""
    for key, _ in n.params:
        params = tuple(kv for kv in n.params if kv[0] != key)
        yield f"drop {key}", ProofNode(n.rule, params, n.conclusion, n.premises)
    if len(n.premises) == 2:
        yield "swap premises", ProofNode(n.rule, n.params, n.conclusion,
                                         n.premises[::-1])
    c = n.conclusion
    if c.ant and type(c.ant[-1].formula) in _FLIP:
        flipped = Sequent(c.ant[:-1] + (_flip(c.ant[-1]),), c.suc)
        yield "flip left", ProofNode(n.rule, n.params, flipped, n.premises)
    if c.suc and type(c.suc[0].formula) in _FLIP:
        flipped = Sequent(c.ant, (_flip(c.suc[0]),) + c.suc[1:])
        yield "flip right", ProofNode(n.rule, n.params, flipped, n.premises)


def mutants(p: ProofNode) -> Iterator[tuple[str, ProofNode]]:
    """Every single-node mutant of a proof, labelled by path and change."""
    for path, n in iter_nodes(p):
        where = "/".join(map(str, path)) or "root"
        for label, m in node_mutants(n):
            yield f"{where} {label}", replace_at(p, path, m)


def failures(p: ProofNode, sys: SystemId) -> list[list]:
    return [[list(v.path), v.rule, v.condition, v.message]
            for v in check_proof(p, sys).failures]


def corpus_proofs() -> Iterator[tuple[SystemId, str, ProofNode]]:
    for home in SystemId:
        for name, proof in corpus.entries(home):
            yield home, name, proof


def record() -> dict:
    """The golden payload, computed with the checker at hand."""
    pairs, muts = [], []
    for home, name, proof in corpus_proofs():
        for sys in SystemId:
            try:
                fs = failures(proof, sys)
            except Exception:
                continue
            pairs.append({"home": home.value, "name": name,
                          "system": sys.value, "failures": fs})
        for label, m in mutants(proof):
            muts.append({"home": home.value, "name": name, "mutant": label,
                         "failures": failures(m, home)})
    return {"pairs": pairs, "mutants": muts}


def dump(payload: dict) -> str:
    """JSON with one record per line, so a changed diagnostic is a one-line diff."""
    parts = []
    for key, rows in payload.items():
        body = ",\n".join("  " + json.dumps(r) for r in rows)
        parts.append(f' "{key}": [\n{body}\n ]')
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.write_text(dump(record()))
