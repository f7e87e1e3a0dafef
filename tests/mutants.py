"""Single-node mutants of the corpus proofs, and the checker diagnostics
they draw.

A mutant changes one node of an accepted proof in one way: it drops one
parameter, swaps the two premises of a binary rule, or flips the top
connective (box/dia, and/or) of the formula at one of the node's rule
edges (last antecedent, first succedent).  The rest of the tree is
shared with the original.

An eigen mutant renames the eigen token of one eigen rule, in the rule
and throughout its premise subtree, to a token that is already taken:
the eigen token of another eigen rule of the same proof, or a token of
the end sequent.  No corpus end sequent carries a token, so the second
kind is drawn from the proof lifted by a fresh token ``e``.  Every eigen
mutant breaks the token condition; where the new token
also sits in the rule's base or context position, it breaks
``eigen-position`` as well.

Run ``PYTHONPATH=src python tests/mutants.py`` to rewrite
``tests/golden/diagnostics.json``; the golden pins the full failure list
of every corpus proof against every system (all 387 pairs), of every
mutant and of every eigen mutant in the proof's home system.  The counts
pinned in ``test_diagnostics`` move with any rewrite.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from twoseq import corpus
from twoseq.calculus import (TABLE, ProofNode, SystemId, check_proof,
                             eigen_token, iter_nodes, rebuild)
from twoseq.positions import LtlPos, SeqPos, SetPos, Token
from twoseq.syntax import And, Box, Dia, Or, PFormula, Sequent, tokens_of
from twoseq.transform import _map_node, _rename_pos, lift_proof

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


def node_at(p: ProofNode, path: tuple[int, ...]) -> ProofNode:
    for i in path:
        p = p.premises[i]
    return p


def _rename_tree(n: ProofNode, mapping: dict[Token, Token]) -> ProofNode:
    return rebuild(n, lambda m, _, prems: _map_node(
        m, prems, lambda q: _rename_pos(q, mapping), mapping))


def rename_eigen_at(p: ProofNode, path: tuple[int, ...], target: Token) -> ProofNode:
    """The proof with the eigen token of the rule at ``path`` renamed to
    ``target`` in the rule and throughout its premise subtree."""
    n = node_at(p, path)
    mapping = {eigen_token(n): target}
    params = tuple((k, target if k == "x" else v) for k, v in n.params)
    prems = tuple(_rename_tree(c, mapping) for c in n.premises)
    return replace_at(p, path, ProofNode(n.rule, params, n.conclusion, prems))


def eigen_mutants(p: ProofNode) -> Iterator[tuple[str, ProofNode]]:
    """Every eigen token of ``p`` renamed to each token it must not be."""
    eigens = [(path, x) for path, n in iter_nodes(p)
              if (x := eigen_token(n)) is not None]
    taken = sorted({x for _, x in eigens})
    end = sorted(tokens_of(p.conclusion))
    for path, x in eigens:
        where = "/".join(map(str, path)) or "root"
        for kind, targets in (("eigen", taken), ("end", end)):
            for y in targets:
                if y != x:
                    yield f"{where} {kind} {x}->{y}", rename_eigen_at(p, path, y)


# the lift that gives an end sequent a token, per position family
_LIFT_BY = {SeqPos: SeqPos(("e",)), SetPos: SetPos(frozenset("e")),
            LtlPos: LtlPos(0, frozenset("e"))}


def eigen_subjects(home: SystemId, p: ProofNode) -> Iterator[tuple[str, ProofNode]]:
    """The proof, and the proof lifted by ``e`` where its family lifts."""
    if not any(eigen_token(n) is not None for _, n in iter_nodes(p)):
        return
    yield "", p
    by = _LIFT_BY.get(TABLE[home].family)
    if by is not None:
        yield "lifted ", lift_proof(p, by, home)


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
    pairs, muts, eigen = [], [], []
    for home, name, proof in corpus_proofs():
        for sys in SystemId:
            pairs.append({"home": home.value, "name": name,
                          "system": sys.value, "failures": failures(proof, sys)})
        for label, m in mutants(proof):
            muts.append({"home": home.value, "name": name, "mutant": label,
                         "failures": failures(m, home)})
        for prefix, subject in eigen_subjects(home, proof):
            for label, m in eigen_mutants(subject):
                eigen.append({"home": home.value, "name": name,
                              "mutant": prefix + label,
                              "failures": failures(m, home)})
    return {"pairs": pairs, "mutants": muts, "eigen_mutants": eigen}


def dump(payload: dict) -> str:
    """JSON with one record per line, so a changed diagnostic is a one-line diff."""
    parts = []
    for key, rows in payload.items():
        body = ",\n".join("  " + json.dumps(r) for r in rows)
        parts.append(f' "{key}": [\n{body}\n ]')
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.write_text(dump(record()))
