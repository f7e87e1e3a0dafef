"""Kripke semantics over finite pointed graphs.

The intended models are trees; a finite graph stands in for the tree
obtained by unfolding it from any node, which is faithful because forcing
is invariant under bisimulation and the serial systems need infinite
trees.  A position assignment maps sequence positions to graph nodes so
that consecutive positions step along the system's accessibility flavour.

Forcing is labelling: node i is bit i, each node's successors are one
mask (closed by Warshall's algorithm for K4/S4, reflexive for T/S4), and
each subformula of a compiled program (`Sequent.program`) gets the mask
of the nodes forcing it.  The assignment search reads those masks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .calculus import CORE_SYSTEMS, SystemId
from .errors import TwoseqError
from .positions import SeqPos, initials
from .syntax import (Box, Dia, Formula, PFormula, Sequent, compile_formulas,
                     label_program, positions_of, sequent_atoms)


@dataclass
class GraphModel:
    """Finite pointed Kripke structure with a per-node valuation."""

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    root: str
    valuation: dict[str, frozenset[str]]


class _Frame:
    """A model under one system, as node masks: ``succ[i]`` for the nodes
    accessible from node i, ``atoms[a]`` for the nodes where a holds."""

    def __init__(self, m: GraphModel, sys: SystemId):
        if sys not in CORE_SYSTEMS:
            raise TwoseqError(f"no graph semantics for system {sys.value}")
        self.names = names = tuple(dict.fromkeys(m.nodes))
        self.index = {n: i for i, n in enumerate(names)}
        self.full = (1 << len(names)) - 1
        self.atoms: dict[str, int] = {}
        for i, n in enumerate(names):
            for a in m.valuation[n]:
                self.atoms[a] = self.atoms.get(a, 0) | 1 << i
        succ = [0] * len(names)
        for a, b in m.edges:
            succ[self.index[a]] |= 1 << self.index[b]
        if sys in (SystemId.K4, SystemId.S4):
            for k in range(len(succ)):
                for i, s in enumerate(succ):
                    if s >> k & 1:
                        succ[i] = s | succ[k]
        if sys in (SystemId.T, SystemId.S4):
            succ = [s | 1 << i for i, s in enumerate(succ)]
        self.succ = succ

    def _step(self, op: type, x: int) -> int:
        if op is Box:
            x ^= self.full
            return sum(1 << i for i, s in enumerate(self.succ) if not s & x)
        if op is Dia:
            return sum(1 << i for i, s in enumerate(self.succ) if s & x)
        raise TwoseqError("graph forcing covers only the box/dia fragment")

    def truth_sets(self, code: list[tuple], roots: list[int]) -> list[int]:
        """The mask of nodes forcing each root of a program."""
        masks = label_program(code, self.full, self.atoms, self._step)
        return [masks[r] for r in roots]


def accessibility(m: GraphModel, sys: SystemId) -> dict[str, frozenset[str]]:
    """Successor sets under the system's closure of the edge relation."""
    f = _Frame(m, sys)
    return {n: frozenset(x for j, x in enumerate(f.names) if s >> j & 1)
            for n, s in zip(f.names, f.succ)}


def forces(m: GraphModel, sys: SystemId, n: str, f: Formula) -> bool:
    """Standard forcing with the system-specific accessibility."""
    frame = _Frame(m, sys)
    (mask,) = frame.truth_sets(*compile_formulas((f,)))
    return bool(mask >> frame.index[n] & 1)


Rho = dict[SeqPos, str]


def satisfies_left(m: GraphModel, sys: SystemId, rho: Rho,
                   q: PFormula) -> bool:
    """Left satisfaction: the position must be assigned and the node forced."""
    n = rho.get(q.pos)
    return n is not None and forces(m, sys, n, q.formula)


def satisfies_right(m: GraphModel, sys: SystemId, rho: Rho,
                    q: PFormula) -> bool:
    """Right satisfaction: forcing is only demanded where the map is defined."""
    n = rho.get(q.pos)
    return n is None or forces(m, sys, n, q.formula)


def sequent_holds(m: GraphModel, sys: SystemId, rho: Rho, s: Sequent) -> bool:
    if all(satisfies_left(m, sys, rho, q) for q in s.ant):
        return any(satisfies_right(m, sys, rho, q) for q in s.suc)
    return True


def admissible_assignments(m: GraphModel, sys: SystemId,
                           positions: Iterable[SeqPos], *,
                           falsifying: Optional[Sequent] = None
                           ) -> Iterator[Rho]:
    """Enumerate the position-to-node maps the system's table row allows.

    The serial systems require total maps; the subset systems also allow
    partial maps with downward-closed domains.  Consecutive assigned
    positions must step along the closure matching the system.  Shorter
    positions are decided first, each left undefined (where allowed)
    before it takes any node, or for a nonempty one each successor of its
    parent's node in name order.  With ``falsifying``, the search also
    covers that sequent's positions and yields only the maps falsifying
    it: a branch is cut where a position fails one of its antecedent
    formulas, forces a succedent one, or stays undefined but carries one.
    """
    frame = _Frame(m, sys)
    if sys is SystemId.D and not all(frame.succ):
        return
    positions = list(positions)
    if falsifying is not None:
        positions += positions_of(falsifying)
    if not all(isinstance(p, SeqPos) for p in positions):
        raise TwoseqError("graph semantics needs sequence positions")
    req = sorted(initials(positions), key=lambda p: (len(p.items), p.items))
    slot = {p: i for i, p in enumerate(req)}
    parent = [slot[SeqPos(p.items[:-1])] if p.items else -1 for p in req]
    allowed = [frame.full] * len(req)   # the nodes each position may take
    blank = [sys in (SystemId.K, SystemId.K4)] * len(req)  # may stay undefined
    if falsifying is not None:
        masks = frame.truth_sets(*falsifying.program)
        for k, (q, mask) in enumerate(zip(falsifying.pformulas(), masks)):
            blank[slot[q.pos]] = False
            allowed[slot[q.pos]] &= mask if k < len(falsifying.ant) else ~mask
    by_name = sorted(range(len(frame.names)), key=frame.names.__getitem__)
    node = [-1] * len(req)              # the node taken, -1 if undefined

    def options(i: int) -> Iterator[int]:
        p, out = parent[i], [-1] if blank[i] else []
        if p < 0:
            out += [j for j in range(len(frame.names)) if allowed[i] >> j & 1]
        elif node[p] >= 0:
            mask = allowed[i] & frame.succ[node[p]]
            out += [j for j in by_name if mask >> j & 1]
        return iter(out)

    if not req:
        yield {}
        return
    stack = [options(0)]
    while stack:
        i = len(stack) - 1
        j = next(stack[i], None)
        if j is None:
            stack.pop()
            continue
        node[i] = j
        if i + 1 < len(req):
            stack.append(options(i + 1))
        else:
            yield {req[k]: frame.names[n] for k, n in enumerate(node) if n >= 0}


@dataclass
class Verdict:
    ok: bool
    models_tried: int
    model: Optional[GraphModel] = None
    rho: Optional[Rho] = None

    @property
    def kind(self) -> str:
        return "valid-so-far" if self.ok else "counterexample"


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


def check_sequent_on_model(m: GraphModel, sys: SystemId,
                           s: Sequent) -> Optional[Rho]:
    """First admissible assignment falsifying the sequent, if any."""
    return next(admissible_assignments(m, sys, (), falsifying=s), None)


def soundness_fuzz(target, sys: SystemId, budget: int,
                   seed: int) -> Verdict:
    """Search random models for a falsifying admissible assignment.

    The target is an accepted proof (its end sequent is tested) or a bare
    sequent.  Accepted proofs must survive any budget; a counterexample
    witnesses a kernel bug (or an unprovable sequent, when one is passed
    directly).
    """
    end_sequent = target if isinstance(target, Sequent) else target.conclusion
    rng = random.Random(seed)
    atoms = sequent_atoms(end_sequent)
    for i in range(budget):
        m = random_model(rng, sys, atoms)
        rho = check_sequent_on_model(m, sys, end_sequent)
        if rho is not None:
            return Verdict(False, i + 1, m, rho)
    return Verdict(True, budget)
