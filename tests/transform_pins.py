"""Transformation outputs pinned per corpus entry.

Every corpus entry goes through each of the five transformations in its
home system: canonical eigen renaming, lifting, prefix replacement,
necessitation and ind->axiom.  A record holds the sha256 prefix of the
rendered output, or of the error (class and message) the transformation
raised, so any change in the fresh names drawn, in their order or in
how positions and steps are rewritten shows as a one-line diff.

Lifting moves by one fresh token ``e`` of the home family.  Prefix
replacement takes ``[e]`` to ``[f,g]``; over sequence positions its input
is the entry lifted by ``[e]`` first, so every position is rewritten.

Run ``PYTHONPATH=src python tests/transform_pins.py`` to rewrite
``tests/golden/transform_pins.json``; ``test_transform_pins`` recomputes
every record and compares.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable

from twoseq import corpus
from twoseq.calculus import TABLE, ProofNode, SystemId
from twoseq.parser import render_proof
from twoseq.positions import LtlPos, PastPos, SeqPos, SetPos
from twoseq.transform import (ind_to_axiom, lift_proof, necessitate,
                              prefix_replace_proof, rename_eigen)

GOLDEN = Path(__file__).parent / "golden" / "transform_pins.json"

LIFT_BY = {SeqPos: SeqPos(("e",)), SetPos: SetPos(frozenset("e")),
           LtlPos: LtlPos(0, frozenset("e")), PastPos: PastPos(0, frozenset("e"))}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _prefix(p: ProofNode, sys: SystemId) -> ProofNode:
    if TABLE[sys].family is SeqPos:
        p = lift_proof(p, LIFT_BY[SeqPos], sys)
    return prefix_replace_proof(p, SeqPos(("e",)), SeqPos(("f", "g")), sys)


OPS: dict[str, Callable[[ProofNode, SystemId], ProofNode]] = {
    "rename": rename_eigen,
    "lift": lambda p, sys: lift_proof(p, LIFT_BY[TABLE[sys].family], sys),
    "prefix": _prefix,
    "nec": necessitate,
    "ind2ax": lambda p, sys: ind_to_axiom(p),
}


def outcome(op: str, p: ProofNode, sys: SystemId) -> str:
    """The digest of the rendered output, or ``!`` and that of the error."""
    try:
        out = OPS[op](p, sys)
    except Exception as e:      # a crash is pinned too, so it cannot move silently
        return "!" + digest(f"{type(e).__name__}: {e}")
    return digest(render_proof(sys, out))


def record() -> list[dict]:
    rows = []
    for sys in SystemId:
        for name, p in corpus.entries(sys):
            for op in OPS:
                rows.append({"entry": f"{sys.value}/{name}", "op": op,
                             "out": outcome(op, p, sys)})
    return rows


def dump(rows: list[dict]) -> str:
    """One record per line, so a changed output is a one-line diff."""
    return "[\n" + ",\n".join(" " + json.dumps(r) for r in rows) + "\n]\n"


if __name__ == "__main__":
    GOLDEN.write_text(dump(record()))
