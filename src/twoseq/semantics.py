"""Kripke semantics over finite pointed graphs.

The intended models are trees; a finite graph stands in for the tree
obtained by unfolding it from any node, which is faithful because forcing
is invariant under bisimulation and the serial systems need infinite
trees.  A position assignment maps sequence positions to graph nodes so
that consecutive positions step along the accessibility relation, whose
class the system's table row gives: reflexive where box-left admits an
empty step (T, S4), transitive where it admits two tokens (K4, S4), and
serial, with total maps, where there is no context demand (not K, K4).

Forcing is labelling: node i is bit i, each node's successors are one
mask (closed as the frame class asks), and each subformula of a compiled
program (`Sequent.program`) gets the mask of the nodes forcing it.  The
assignment search reads those masks in an order planned once per
sequent (`Sequent.segments`).  The fuzzer draws each model straight into
masks, building a `GraphModel` only to report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .calculus import CORE_SYSTEMS, TABLE, SystemId
from .errors import TwoseqError
from .positions import SeqPos
from .syntax import (Box, Dia, Formula, PFormula, Sequent, compile_formulas,
                     label_program, positions_of, segment_plan, sequent_atoms)


@dataclass
class GraphModel:
    """Finite pointed Kripke structure with a per-node valuation."""

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    root: str
    valuation: dict[str, frozenset[str]]


class _Frame:
    """A model under one system, as node masks: ``edges[i]`` and ``succ[i]``
    for node i's successors as drawn and as closed for the system,
    ``atoms[a]`` for the nodes where a holds."""

    def __init__(self, sys: SystemId, names: tuple[str, ...],
                 edges: list[int], atoms: dict[str, int]):
        self.sys, self.names, self.edges, self.atoms = sys, names, edges, atoms
        self.full = (1 << len(names)) - 1
        succ, row = list(edges), TABLE[sys]
        if row.admits(2):
            for k in range(len(succ)):
                for i, s in enumerate(succ):
                    if s >> k & 1:
                        succ[i] = s | succ[k]
        if row.admits(0):
            succ = [s | 1 << i for i, s in enumerate(succ)]
        self.succ = succ

    @classmethod
    def draw(cls, rng: random.Random, sys: SystemId,
             atoms: frozenset[str]) -> _Frame:
        """The model `random_model` describes, drawn straight into masks."""
        size, coin = rng.randint(2, 6), rng.random
        edges = [0] * size
        for i in range(size):
            for j in range(size):
                if coin() < 0.4:
                    edges[i] |= 1 << j
        if not (TABLE[sys].context_demand or TABLE[sys].admits(0)):  # D: serial, not reflexive
            edges = [s or 1 << rng.randrange(size) for s in edges]
        masks = dict.fromkeys(sorted(atoms) or ["p0"], 0)
        for i in range(size):
            for a in masks:
                if coin() < 0.5:
                    masks[a] |= 1 << i
        return cls(sys, tuple(f"n{i}" for i in range(size)), edges, masks)

    def model(self) -> GraphModel:
        """The drawn edges and valuation as a model rooted at node 0."""
        ns, bits = self.names, list(enumerate(self.names))
        edges = frozenset((a, b) for a, s in zip(ns, self.edges)
                          for j, b in bits if s >> j & 1)
        return GraphModel(ns, edges, ns[0], {n: frozenset(
            a for a, x in self.atoms.items() if x >> i & 1) for i, n in bits})

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


def _frame(m: GraphModel | _Frame, sys: SystemId) -> _Frame:
    """A model as a frame under the system; a frame must be drawn for it."""
    if sys not in CORE_SYSTEMS:
        raise TwoseqError(f"no graph semantics for system {sys.value}")
    if isinstance(m, _Frame) and m.sys is not sys:
        raise TwoseqError(f"a frame drawn for {m.sys.value} cannot be read under {sys.value}")
    if isinstance(m, _Frame):
        return m
    names = tuple(dict.fromkeys(m.nodes))
    index = {n: i for i, n in enumerate(names)}
    atoms: dict[str, int] = {}
    for i, n in enumerate(names):
        for a in m.valuation[n]:
            atoms[a] = atoms.get(a, 0) | 1 << i
    edges = [0] * len(names)
    for a, b in m.edges:
        edges[index[a]] |= 1 << index[b]
    return _Frame(sys, names, edges, atoms)


def accessibility(m: GraphModel | _Frame, sys: SystemId) -> dict[str, frozenset[str]]:
    """Successor sets under the system's closure of the edge relation."""
    f = _frame(m, sys)
    return {n: frozenset(x for j, x in enumerate(f.names) if s >> j & 1)
            for n, s in zip(f.names, f.succ)}


def forces(m: GraphModel | _Frame, sys: SystemId, n: str, f: Formula) -> bool:
    """Standard forcing with the system-specific accessibility."""
    frame = _frame(m, sys)
    (mask,) = frame.truth_sets(*compile_formulas((f,)))
    return bool(mask >> frame.names.index(n) & 1)


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


def admissible_assignments(m: GraphModel | _Frame, sys: SystemId,
                           positions: Iterable[SeqPos], *,
                           falsifying: Optional[Sequent] = None
                           ) -> Iterator[Rho]:
    """Enumerate the position-to-node maps the system's table row allows.

    The serial systems require total maps, which a dead end admits none
    of; the others also allow partial maps with downward-closed domains.
    Consecutive assigned positions step along the system's closure.  Shorter
    positions are decided first, each left undefined (where allowed)
    before it takes any node, or for a nonempty one each successor of its
    parent's node in name order.  With ``falsifying``, the search also
    covers that sequent's positions and yields only the maps falsifying
    it: a branch is cut where a position fails one of its antecedent
    formulas, forces a succedent one, or stays undefined but carries one.
    """
    frame, partial = _frame(m, sys), TABLE[sys].context_demand
    if not (partial or all(frame.succ)):
        return
    positions = list(positions)
    if falsifying is None:
        req, parent, slots = segment_plan(positions)
    elif positions:
        req, parent, slots = segment_plan(positions + list(positions_of(falsifying)))
    else:
        req, parent, slots = falsifying.segments
    allowed = [frame.full] * len(req)   # the nodes each position may take
    blank = [partial] * len(req)        # may stay undefined
    if falsifying is not None:
        masks = frame.truth_sets(*falsifying.program)
        for k, (i, mask) in enumerate(zip(slots[len(positions):], masks)):
            blank[i] = False
            allowed[i] &= mask if k < len(falsifying.ant) else ~mask
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
    """Edge sampling at density 0.4 over 2..6 nodes; a serial frame that is
    not reflexive (D) is repaired by adding one outgoing edge where missing."""
    return _Frame.draw(rng, sys, atoms).model()


def check_sequent_on_model(m: GraphModel | _Frame, sys: SystemId,
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
    if budget < 1:
        raise TwoseqError(f"fuzz budget must be at least 1, not {budget}")
    end_sequent = target if isinstance(target, Sequent) else target.conclusion
    rng = random.Random(seed)
    atoms = sequent_atoms(end_sequent)
    for i in range(budget):
        frame = _Frame.draw(rng, sys, atoms)
        rho = check_sequent_on_model(frame, sys, end_sequent)
        if rho is not None:
            return Verdict(False, i + 1, frame.model(), rho)
    return Verdict(True, budget)
