"""Reference copies of the recursive, memoised Kripke forcing, assignment
enumeration and lasso evaluation that the labelling kernel replaced, and
of the samplers that drew names, edge pairs and valuation sets, and
lasso letters.

The bodies are kept verbatim from the last recursive version of
``twoseq.semantics`` and ``twoseq.ltl`` (and from the last samplers that
built a ``GraphModel`` or a ``LassoWord`` directly); only the imports
differ, and a word's letter at a time, which ``letter`` reads off the
word itself rather than through the kernel's time arithmetic.  The
property tests compare the kernel with them: the same forcing verdicts,
the same admissible assignments in the same order, the same first
falsifying assignment, the same lasso truth values, and the same drawn
model or word from the same random numbers.  They are slow
(``eval_at`` is exponential in box/dia nesting), so keep inputs small.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Optional

from twoseq.calculus import SystemId
from twoseq.errors import TwoseqError
from twoseq.ltl import LassoWord
from twoseq.positions import SeqPos, initials
from twoseq.semantics import GraphModel
from twoseq.syntax import (And, Box, Dia, Formula, Hist, Imp, Next, Not, Once, Or,
                           PFormula, Prev, Prop, Sequent)

TEMPORAL = (Next, Prev, Hist, Once)
PAST = (Prev, Hist, Once)


def letter(w: LassoWord, m: int) -> frozenset[str]:
    """The letter at time m: the prefix's, then the loop's over and over."""
    p = len(w.prefix)
    return w.prefix[m] if m < p else w.loop[(m - p) % len(w.loop)]


def is_serial(m: GraphModel) -> bool:
    return all(any(a == n for a, _ in m.edges) for n in m.nodes)


def _reach(m: GraphModel, start: str, reflexive: bool) -> frozenset[str]:
    seen: set[str] = set()
    frontier = [b for a, b in m.edges if a == start]
    while frontier:
        n = frontier.pop()
        if n in seen:
            continue
        seen.add(n)
        frontier.extend(b for a, b in m.edges if a == n)
    if reflexive:
        seen.add(start)
    return frozenset(seen)


def accessibility(m: GraphModel, sys: SystemId) -> dict[str, frozenset[str]]:
    """Successor sets under the system's closure of the edge relation."""
    out: dict[str, frozenset[str]] = {}
    for n in m.nodes:
        if sys in (SystemId.K, SystemId.D):
            out[n] = frozenset(b for a, b in m.edges if a == n)
        elif sys is SystemId.T:
            out[n] = frozenset(b for a, b in m.edges if a == n) | {n}
        elif sys is SystemId.K4:
            out[n] = _reach(m, n, reflexive=False)
        elif sys is SystemId.S4:
            out[n] = _reach(m, n, reflexive=True)
        else:
            raise TwoseqError(f"no graph semantics for system {sys.value}")
    return out


def forces(m: GraphModel, sys: SystemId, n: str, f: Formula,
           _acc: Optional[dict] = None, _memo: Optional[dict] = None) -> bool:
    """Standard forcing with the system-specific accessibility."""
    if isinstance(f, TEMPORAL):
        raise TwoseqError("graph forcing covers only the box/dia fragment")
    acc = _acc if _acc is not None else accessibility(m, sys)
    memo = _memo if _memo is not None else {}
    key = (n, f)
    if key in memo:
        return memo[key]
    if isinstance(f, Prop):
        out = f.name in m.valuation[n]
    elif isinstance(f, Not):
        out = not forces(m, sys, n, f.sub, acc, memo)
    elif isinstance(f, And):
        out = forces(m, sys, n, f.left, acc, memo) and forces(m, sys, n, f.right, acc, memo)
    elif isinstance(f, Or):
        out = forces(m, sys, n, f.left, acc, memo) or forces(m, sys, n, f.right, acc, memo)
    elif isinstance(f, Imp):
        out = (not forces(m, sys, n, f.left, acc, memo)) or forces(m, sys, n, f.right, acc, memo)
    elif isinstance(f, Box):
        out = all(forces(m, sys, t, f.sub, acc, memo) for t in acc[n])
    elif isinstance(f, Dia):
        out = any(forces(m, sys, t, f.sub, acc, memo) for t in acc[n])
    else:
        raise TwoseqError(f"unknown formula {f!r}")
    memo[key] = out
    return out


Rho = dict[SeqPos, str]


def satisfies_left(m: GraphModel, sys: SystemId, rho: Rho, q: PFormula,
                   _acc=None, _memo=None) -> bool:
    """Left satisfaction: the position must be assigned and the node forced."""
    n = rho.get(q.pos)
    return n is not None and forces(m, sys, n, q.formula, _acc, _memo)


def satisfies_right(m: GraphModel, sys: SystemId, rho: Rho, q: PFormula,
                    _acc=None, _memo=None) -> bool:
    """Right satisfaction: forcing is only demanded where the map is defined."""
    n = rho.get(q.pos)
    return n is None or forces(m, sys, n, q.formula, _acc, _memo)


def sequent_holds(m: GraphModel, sys: SystemId, rho: Rho, s: Sequent,
                  _acc=None, _memo=None) -> bool:
    acc = _acc if _acc is not None else accessibility(m, sys)
    memo = _memo if _memo is not None else {}
    if all(satisfies_left(m, sys, rho, q, acc, memo) for q in s.ant):
        return any(satisfies_right(m, sys, rho, q, acc, memo) for q in s.suc)
    return True


def admissible_assignments(m: GraphModel, sys: SystemId,
                           positions: Iterable[SeqPos]) -> Iterator[Rho]:
    """Enumerate the position-to-node maps the system's table row allows.

    The serial systems require total maps; the subset systems also allow
    partial maps with downward-closed domains.  Consecutive assigned
    positions must step along the closure matching the system.
    """
    req = sorted(initials(positions), key=lambda p: (len(p.items), p.items))
    if sys is SystemId.D and not is_serial(m):
        return
    total = sys in (SystemId.D, SystemId.T, SystemId.S4)
    acc = accessibility(m, sys)

    def rec(i: int, rho: Rho) -> Iterator[Rho]:
        if i == len(req):
            yield dict(rho)
            return
        pos = req[i]
        if not pos.items:
            parent_val: Optional[str] = None
            parent_defined = True
        else:
            parent = SeqPos(pos.items[:-1])
            parent_defined = parent in rho
            parent_val = rho.get(parent)
        if not total:
            # leaving the position undefined keeps the domain downward closed
            yield from rec(i + 1, rho)
        if not parent_defined:
            return
        if parent_val is None:
            choices: Iterable[str] = m.nodes
        else:
            choices = sorted(acc[parent_val])
        for n in choices:
            rho[pos] = n
            yield from rec(i + 1, rho)
            del rho[pos]

    yield from rec(0, {})


def random_model(rng: random.Random, sys: SystemId,
                 atoms: frozenset[str]) -> GraphModel:
    """Edge sampling at density 0.4 over 2..6 nodes; seriality is repaired
    for the serial system by adding one outgoing edge where missing."""
    size = rng.randint(2, 6)
    nodes = tuple(f"n{i}" for i in range(size))
    edges = {(a, b) for a in nodes for b in nodes if rng.random() < 0.4}
    if sys is SystemId.D:
        for n in nodes:
            if not any(a == n for a, _ in edges):
                edges.add((n, rng.choice(nodes)))
    pool = sorted(atoms) or ["p0"]
    valuation = {
        n: frozenset(a for a in pool if rng.random() < 0.5) for n in nodes
    }
    return GraphModel(nodes, frozenset(edges), nodes[0], valuation)


def random_lasso(rng: random.Random, atoms: tuple[str, ...]) -> LassoWord:
    def letters(k: int) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(a for a in atoms if rng.random() < 0.5)
                     for _ in range(k))

    return LassoWord(letters(rng.randint(0, 4)), letters(rng.randint(1, 3)))


def check_sequent_on_model(m: GraphModel, sys: SystemId,
                           s: Sequent) -> Optional[Rho]:
    """First admissible assignment falsifying the sequent, if any."""
    if sys is SystemId.D and not is_serial(m):
        return None
    acc = accessibility(m, sys)
    memo: dict = {}
    for rho in admissible_assignments(m, sys, [q.pos for q in s.pformulas()]):
        if not sequent_holds(m, sys, rho, s, acc, memo):
            return rho
    return None


def eval_at(w: LassoWord, m: int, f: Formula) -> bool:
    """Satisfaction at time m.

    Box at m is decided by checking every offset up to one loop beyond
    max(m, prefix end): suffixes of the word repeat with the loop period
    from the prefix end on, so those offsets cover all later behaviour.
    """
    if isinstance(f, PAST):
        raise TwoseqError("the natural-number semantics has no past")
    if isinstance(f, Prop):
        return f.name in letter(w, m)
    if isinstance(f, Not):
        return not eval_at(w, m, f.sub)
    if isinstance(f, And):
        return eval_at(w, m, f.left) and eval_at(w, m, f.right)
    if isinstance(f, Or):
        return eval_at(w, m, f.left) or eval_at(w, m, f.right)
    if isinstance(f, Imp):
        return (not eval_at(w, m, f.left)) or eval_at(w, m, f.right)
    if isinstance(f, Next):
        return eval_at(w, m + 1, f.sub)
    hi = max(len(w.prefix), m) + len(w.loop) - 1
    if isinstance(f, Box):
        return all(eval_at(w, n, f.sub) for n in range(m, hi + 1))
    if isinstance(f, Dia):
        return any(eval_at(w, n, f.sub) for n in range(m, hi + 1))
    raise TwoseqError(f"unknown formula {f!r}")
