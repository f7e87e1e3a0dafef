"""Seeded corruptions of the rendered corpus scripts, and the parse
errors they draw.

Each corpus proof is rendered in its home system and corrupted in one
way: a ``$`` inserted, one token deleted, the text truncated, or a
comment line inserted and the text then truncated after it.  Offsets are
drawn from a generator seeded by the proof's name, so the corruptions are
the same on every run.

Run ``PYTHONPATH=src python tests/corruptions.py`` to rewrite
``tests/golden/parse_errors.json``; the golden pins the (message, line,
col) of every corruption's ``ParseError``, or null where the corrupted
text still parses.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path
from typing import Iterator, Optional

from mutants import corpus_proofs
from twoseq.errors import ParseError
from twoseq.parser import parse_proof, render_proof

GOLDEN = Path(__file__).parent / "golden" / "parse_errors.json"

_TOKEN = re.compile(r"\|-|->|-?[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[()\[\]{};,@&|~]")
_COMMENT = "  # note: (rule $\n"
PER_KIND = 3


def corruptions(text: str, rng: random.Random) -> Iterator[tuple[str, str]]:
    """Labelled one-change corruptions of a script."""
    for _ in range(PER_KIND):
        i = rng.randrange(len(text) + 1)
        yield f"insert $ at {i}", text[:i] + "$" + text[i:]
    spans = [m.span() for m in _TOKEN.finditer(text)]
    for _ in range(PER_KIND):
        a, b = rng.choice(spans)
        yield f"delete {text[a:b]!r} at {a}", text[:a] + text[b:]
    for _ in range(PER_KIND):
        i = rng.randrange(len(text))
        yield f"truncate at {i}", text[:i]
    starts = [0] + [m.end() for m in re.finditer("\n", text)]
    for _ in range(PER_KIND - 1):
        i = rng.choice(starts)
        commented = text[:i] + _COMMENT + text[i:]
        j = rng.randrange(i + len(_COMMENT), len(commented))
        yield f"comment at {i}, truncate at {j}", commented[:j]


def parse_error(text: str) -> Optional[list]:
    try:
        parse_proof(text)
    except ParseError as e:
        return [e.message, e.line, e.col]
    return None


def record() -> list[dict]:
    rows = []
    for home, name, proof in corpus_proofs():
        rng = random.Random(f"{home.value}:{name}")
        for label, text in corruptions(render_proof(home, proof), rng):
            rows.append({"home": home.value, "name": name, "corruption": label,
                         "error": parse_error(text)})
    return rows


if __name__ == "__main__":
    GOLDEN.write_text("[\n" + ",\n".join(" " + json.dumps(r) for r in record())
                      + "\n]\n")
