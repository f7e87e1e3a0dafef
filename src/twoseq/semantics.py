"""Kripke semantics over finite pointed graphs.

The intended models are trees; a finite graph stands in for the tree
obtained by unfolding it from any node, which is faithful because forcing
is invariant under bisimulation and the serial systems need infinite
trees.  A position assignment maps sequence positions to graph nodes so
that consecutive positions step along the accessibility relation, whose
class the system's table row gives: reflexive where box-left admits an
empty step (T, S4), transitive where it admits two tokens (K4, S4), and
serial, with total maps, where there is no context demand (not K, K4).

Forcing is labelling over a pack of models in integer masks: model k's
node i is bit ``k*W + i``, W being one more than the most nodes a model
of the pack may have, so each block ends in a guard bit.  Each subformula
of a compiled program (`Sequent.program`) gets the mask of the nodes
forcing it, and each model's falsifiability is decided for the whole pack,
bottom-up over the sequent's positions (`Sequent.segments`).  A
`GraphModel` is a pack of one.  The fuzzer draws packs and searches for a
witness assignment only on the first falsified model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .calculus import CORE_SYSTEMS, TABLE, SystemId
from .errors import TwoseqError
from .positions import LtlPos, SeqPos
from .syntax import (Box, Dia, Formula, Next, PFormula, Sequent, compile_formulas,
                     label_program, positions_of, segment_plan, sequent_atoms)

_FIRST_PACK, _PACK_CAP = 16, 256    # the fuzzer's pack sizes double between these


@dataclass
class GraphModel:
    """Finite pointed Kripke structure with a per-node valuation."""

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    root: str
    valuation: dict[str, frozenset[str]]


class _Frame:
    """Models under one system as a pack: ``edges[i]`` and ``rows[i]``
    hold node i's successors in every block, as drawn and as closed for
    the system, ``atoms[a]`` the nodes where a holds, ``full`` all nodes,
    ``low`` bit 0 of each block and ``ones`` all bits but the guard."""

    def __init__(self, sys: SystemId, names: tuple[str, ...], width: int,
                 full: int, edges: list[int], atoms: dict[str, int]):
        self.sys, self.names, self.width, self.full = sys, names, width, full
        self.edges, self.atoms = edges, atoms
        low, data = sum(1 << b for b in range(0, full.bit_length(), width)), (1 << width - 1) - 1
        self.low, self.ones, self.guard = low, low * data, low << width - 1
        rows, row = list(edges), TABLE[sys]
        if row.admits(2):       # Warshall: where i sees k, i sees all k sees
            for k in range(len(rows)):
                rows = [r | ((r >> k & low) * data & rows[k]) for r in rows]
        if row.admits(0):
            rows = [r | (low << i & full) for i, r in enumerate(rows)]
        self.rows = rows
        self.dead_ends = self.some(full & ~self.step(Dia, full))     # per block

    @classmethod
    def draw(cls, rng: random.Random, sys: SystemId, atoms: frozenset[str],
             count: int = 1) -> _Frame:
        """``count`` models as `random_model` describes them, drawn in its
        order of random numbers straight into one pack."""
        coin, width, full, edges = rng.random, 7, 0, [0] * 6    # up to 6 nodes
        repair = not (TABLE[sys].context_demand or TABLE[sys].admits(0))
        masks = dict.fromkeys(sorted(atoms) or ["p0"], 0)
        for base in range(0, count * width, width):
            size = rng.randint(2, 6)
            full |= (1 << size) - 1 << base
            for i in range(size):
                for j in range(size):
                    if coin() < 0.4:
                        edges[i] |= 1 << base + j
            for i in range(size):       # D: serial, not reflexive
                if repair and not edges[i] >> base:
                    edges[i] |= 1 << base + rng.randrange(size)
            for i in range(size):
                for a in masks:
                    if coin() < 0.5:
                        masks[a] |= 1 << base + i
        return cls(sys, tuple(f"n{i}" for i in range(6)), width, full, edges, masks)

    def model(self, k: int = 0) -> GraphModel:
        """Model k's drawn edges and valuation, rooted at its node 0."""
        base = k * self.width
        ns = self.names[:(self.full >> base & (1 << self.width) - 1).bit_length()]
        edges = frozenset((a, b) for i, a in enumerate(ns) for j, b in enumerate(ns)
                          if self.edges[i] >> base + j & 1)
        val = {n: frozenset(a for a, x in self.atoms.items() if x >> base + i & 1)
               for i, n in enumerate(ns)}
        return GraphModel(ns, edges, ns[0], val)

    def some(self, x: int) -> int:
        """Bit 0 of each block where x (no guard bit set) is nonzero."""
        return (x + self.ones & self.guard) >> self.width - 1

    def step(self, op: type, x: int) -> int:
        """The nodes with a successor in x (dia) or none outside it (box);
        on a lasso pack (`ltl`), Next is dia over the drawn edges."""
        linear = TABLE[self.sys].family is LtlPos
        if op is Box:
            x ^= self.full
        elif op is not Dia and not (op is Next and linear):
            raise TwoseqError("the natural-number semantics has no past" if linear
                              else "graph forcing covers only the box/dia fragment")
        rows = self.edges if op is Next else self.rows
        y = sum(self.some(r & x) << i for i, r in enumerate(rows))
        return self.full ^ y if op is Box else y

    def truth_sets(self, code: list[tuple], roots: list[int]) -> list[int]:
        """The mask of nodes forcing each root of a program."""
        masks = label_program(code, self.full, self.atoms, self.step)
        return [masks[r] for r in roots]

    def falsified(self, s: Sequent) -> int:
        """Bit 0 of each block whose model has an admissible assignment
        falsifying s.  ``ok[i]``, children first, is where position i may go
        with its subtree below it; each position leads to one with a formula,
        so none stays undefined (an empty s falls to the empty map)."""
        req, parent, slots = s.segments
        ok = [self.full] * len(req)
        for k, (i, mask) in enumerate(zip(slots, self.truth_sets(*s.program))):
            ok[i] &= mask if k < len(s.ant) else ~mask
        for c in range(len(req) - 1, 0, -1):
            ok[parent[c]] &= self.step(Dia, ok[c])
        out = self.some(ok[0]) if req else self.low
        return out if TABLE[self.sys].context_demand else out & ~self.dead_ends


def _core(sys: SystemId) -> None:
    if sys not in CORE_SYSTEMS:
        raise TwoseqError(f"no graph semantics for system {sys.value}")


def _frame(m: GraphModel | _Frame, sys: SystemId) -> _Frame:
    """A model as a pack of one under the system, or a pack drawn for the
    system; the readers below read a pack's first model."""
    _core(sys)
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
    return _Frame(sys, names, len(names) + 1, (1 << len(names)) - 1, edges, atoms)


def accessibility(m: GraphModel | _Frame, sys: SystemId) -> dict[str, frozenset[str]]:
    """Successor sets under the system's closure of the edge relation."""
    f = _frame(m, sys)
    return {n: frozenset(x for j, x in enumerate(f.names) if s >> j & 1)
            for i, (n, s) in enumerate(zip(f.names, f.rows)) if f.full >> i & 1}


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
    if not partial and frame.dead_ends & 1:
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
            mask = allowed[i] & frame.rows[node[p]]
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
    directly).  The models are drawn in packs of doubling size, each
    decided at once; the first falsified one is searched for its witness.
    """
    if budget < 1:
        raise TwoseqError(f"fuzz budget must be at least 1, not {budget}")
    _core(sys)
    end_sequent = target if isinstance(target, Sequent) else target.conclusion
    rng, atoms = random.Random(seed), sequent_atoms(end_sequent)
    tried, count = 0, _FIRST_PACK
    while tried < budget:
        count = min(count, budget - tried)
        pack = _Frame.draw(rng, sys, atoms, count)
        hits = pack.falsified(end_sequent)
        if hits:
            k = ((hits & -hits).bit_length() - 1) // pack.width
            m = pack.model(k)
            return Verdict(False, tried + k + 1, m, check_sequent_on_model(m, sys, end_sequent))
        tried, count = tried + count, min(2 * count, _PACK_CAP)
    return Verdict(True, budget)
