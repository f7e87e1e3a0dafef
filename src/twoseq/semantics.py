"""Semantics of sequence positions on finite pointed graphs (K, D, T, K4,
S4) and of step/token-set positions on lasso words (LTL).

A finite graph stands in for the tree unfolding it from any node (forcing
is invariant under bisimulation).  A position assignment maps positions
to nodes so that consecutive ones step along the system's accessibility:
reflexive where box-left admits an empty step (T, S4), transitive where
it admits two tokens (K4, S4), and serial, with total maps, where there
is no context demand (not K, K4).  A lasso word stands in for a valuation
of the natural numbers: time m is one of |prefix|+|loop| canonical
points, each point's edge goes to the next (the last one's to the loop
start), ``Next`` steps over those edges and box and dia over their
reflexive-transitive closure; a token valuation puts positions at times.

A family is one pack class, `_Frame` for graphs and `_Lasso` for words:
model k's point i is bit ``k*W + i``, W being one more than the most
points a model of the pack may have, so each block ends in a guard bit.
Each subformula of a compiled program (`Sequent.program`) gets the mask
of the points forcing it, and each model's falsifiability is decided for
the whole pack at once.  A parsed model is a pack of one; the fuzzer
draws packs of doubling size and reads back the first falsified model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator, Optional

from .calculus import TABLE, SystemId
from .errors import TwoseqError
from .positions import LtlPos, SeqPos, Token
from .syntax import (Box, Dia, Formula, Next, Sequent, compile_formulas, label_program,
                     positions_of, segment_plan, sequent_atoms, tokens_of)

_FIRST_PACK, _PACK_CAP = 16, 256    # the fuzzer's pack sizes double between these


@dataclass
class GraphModel:
    """Finite pointed Kripke structure with a per-node valuation."""

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    root: str
    valuation: dict[str, frozenset[str]]


@dataclass(frozen=True)
class LassoWord:
    """Ultimately periodic valuation: prefix letters then a repeated loop."""

    prefix: tuple[frozenset[str], ...]
    loop: tuple[frozenset[str], ...]

    def __post_init__(self):
        if not self.loop:
            raise ValueError("lasso loop must be nonempty")

    def letter(self, m: int) -> frozenset[str]:
        return (self.prefix + self.loop)[_point(len(self.prefix), len(self.loop), m)]


Rho = dict[SeqPos, str]
TokenValuation = dict[Token, int]


def _point(p: int, loop: int, m: int) -> int:
    """The canonical point of time m on a word with a prefix of p points."""
    if m < 0:
        raise TwoseqError(f"time point must be at least 0, not {m}")
    return m if m < p else p + (m - p) % loop


def a_value(a: TokenValuation, s: LtlPos) -> int:
    """The time point a position denotes under a token valuation."""
    if not isinstance(s, LtlPos):
        raise TwoseqError("lasso semantics needs step/token-set positions")
    return s.steps + sum(a.get(x, 0) for x in s.future)


def _masks(letters: list[frozenset[str]]) -> dict[str, int]:
    """Each atom's points, given each point's atoms."""
    return {a: sum(1 << i for i, x in enumerate(letters) if a in x)
            for a in frozenset().union(*letters)}


class _Frame:
    """Graphs under one system as a pack: ``edges[i]`` and ``rows[i]``
    hold node i's successors in every block, as drawn and as closed for
    the system, ``atoms[a]`` the nodes where a holds, ``full`` all nodes,
    ``low`` bit 0 of each block and ``ones`` all bits but the guard."""

    family, noun = SeqPos, "graph"      # the positions it reads, its models' name

    def __init__(self, sys: SystemId, names: tuple[str, ...], width: int,
                 full: int, edges: list[int], atoms: dict[str, int]):
        self.sys, self.names, self.width, self.full = sys, names, width, full
        self.edges, self.atoms = edges, atoms
        low, data = sum(1 << b for b in range(0, full.bit_length(), width)), (1 << width - 1) - 1
        self.low, self.ones, self.guard = low, low * data, low << width - 1
        row = TABLE[sys]
        rows = self._closed(edges) if row.admits(2) else list(edges)
        if row.admits(0):
            rows = [r | (low << i & full) for i, r in enumerate(rows)]
        self.rows = rows
        self.dead_ends = self.some(full & ~self.step(Dia, full))     # per block

    def _closed(self, edges: list[int]) -> list[int]:
        """Warshall's transitive closure: where i sees k, i sees all k sees."""
        rows, low, data = list(edges), self.low, (1 << self.width - 1) - 1
        for k in range(len(rows)):
            rows = [r | ((r >> k & low) * data & rows[k]) for r in rows]
        return rows

    @classmethod
    def of(cls, m: GraphModel, sys: SystemId) -> _Frame:
        """A parsed graph as a pack of one."""
        names = tuple(dict.fromkeys(m.nodes))
        index, edges = {n: i for i, n in enumerate(names)}, [0] * len(names)
        for a, b in m.edges:
            edges[index[a]] |= 1 << index[b]
        atoms = _masks([m.valuation[n] for n in names])
        return cls(sys, names, len(names) + 1, (1 << len(names)) - 1, edges, atoms)

    @classmethod
    def draw(cls, rng: random.Random, sys: SystemId, atoms: Iterable[str],
             count: int = 1, tokens: tuple[Token, ...] = (), bound: int = 0) -> _Frame:
        """``count`` models as `random_model` describes them, drawn in its
        order of random numbers straight into one pack (a graph draws no
        token values)."""
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

    def witness(self, k: int, s: Sequent) -> Optional[Rho]:
        """The first admissible assignment falsifying s on model k."""
        return check_sequent_on_model(self.model(k), self.sys, s)

    def counterexample(self, s: Sequent, bound: int) -> Optional[Rho]:
        return check_sequent_on_model(self, self.sys, s)

    def point(self, n: str) -> int:
        """Node n's bit in the first model."""
        return self.names.index(n)

    def at(self, rho: Rho, pos) -> int:
        """The mask of the node an assignment puts a position at in the
        first model, 0 where it puts it nowhere."""
        n = rho.get(pos)
        return 0 if n is None else 1 << self.point(n)

    def some(self, x: int) -> int:
        """Bit 0 of each block where x (no guard bit set) is nonzero."""
        return (x + self.ones & self.guard) >> self.width - 1

    def step(self, op: type, x: int) -> int:
        """The points with a successor in x (dia) or none outside it (box);
        on a lasso pack, Next is dia over the drawn edges."""
        linear = self.family is LtlPos
        if op is Box:
            x ^= self.full
        elif op is not Dia and not (op is Next and linear):
            raise TwoseqError("the natural-number semantics has no past" if linear
                              else "graph forcing covers only the box/dia fragment")
        rows = self.edges if op is Next else self.rows
        y = sum(self.some(r & x) << i for i, r in enumerate(rows))
        return self.full ^ y if op is Box else y

    def truth_sets(self, code: list[tuple], roots: list[int]) -> list[int]:
        """The mask of points forcing each root of a program."""
        masks = label_program(code, self.full, self.atoms, self.step)
        return [masks[r] for r in roots]

    def holds(self, s: Sequent) -> Callable[[dict], bool]:
        """Whether s holds on the first model, labelled once, under an assignment:
        it fails where each antecedent formula's point is in its truth set and
        each succedent one's outside it."""
        truth, n = self.truth_sets(*s.program), len(s.ant)
        return lambda a: not all(self.at(a, q.pos) & (t if j < n else ~t)
                                 for j, (q, t) in enumerate(zip(s.pformulas(), truth)))

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


class _Lasso(_Frame):
    """Lasso words as a pack, word k's point i at bit k*width + i, and
    ``loops`` the loop points; ``shapes`` holds each word's prefix length,
    loop length and token valuation."""

    family, noun = LtlPos, "lasso"

    def __init__(self, sys: SystemId, width: int, shapes: list[tuple],
                 atoms: dict[str, int]):
        full, low, edges, self.loops, self.shapes = 0, 0, [0] * (width - 1), 0, shapes
        for base, (p, loop, _) in zip(range(0, len(shapes) * width, width), shapes):
            full, low = full | (1 << p + loop) - 1 << base, low | 1 << base
            self.loops |= (1 << loop) - 1 << base + p
            edges[p + loop - 1] |= 1 << base + p
        edges = [e | (low << i + 1 & full) for i, e in enumerate(edges)]
        super().__init__(sys, (), width, full, edges, atoms)

    def _closed(self, edges: list[int]) -> list[int]:
        """The reflexive-transitive closure in closed form: a prefix point
        sees itself, the rest of the prefix and the loop, a loop point the
        loop."""
        low, loops, data = self.low, self.loops, (1 << self.width - 1) - 1
        return [self.full & (self.ones ^ low * ((1 << i) - 1) | (loops >> i & low) * data & loops)
                for i in range(len(edges))]

    @classmethod
    def of(cls, w: LassoWord, sys: SystemId) -> _Lasso:
        """A parsed word as a pack of one."""
        return cls(sys, len(w.prefix + w.loop) + 1, [(len(w.prefix), len(w.loop), {})],
                   _masks(w.prefix + w.loop))

    @classmethod
    def draw(cls, rng: random.Random, sys: SystemId, atoms: Iterable[str],
             count: int = 1, tokens: tuple[Token, ...] = (), bound: int = 0) -> _Lasso:
        """``count`` words, each drawing a prefix length (0..4), a coin per prefix
        point and atom, a loop length (1..3), a coin per loop point and atom,
        then a value up to the bound per token."""
        coin, width, masks, shapes = rng.random, 8, dict.fromkeys(atoms, 0), []

        def letters(lo: int, k: int) -> int:
            for i in range(lo, lo + k):
                for a in masks:
                    if coin() < 0.5:
                        masks[a] |= 1 << i
            return k
        for base in range(0, count * width, width):     # up to 4 + 3 points
            p = letters(base, rng.randint(0, 4))
            loop = letters(base + p, rng.randint(1, 3))
            shapes.append((p, loop, {x: rng.randint(0, bound) for x in tokens}))
        return cls(sys, width, shapes, masks)

    def model(self, k: int = 0) -> LassoWord:
        (p, loop, _), base = self.shapes[k], k * self.width
        letters = tuple(frozenset(a for a, x in self.atoms.items() if x >> base + i & 1)
                        for i in range(p + loop))
        return LassoWord(letters[:p], letters[p:])

    def witness(self, k: int, s: Sequent) -> TokenValuation:
        """The token valuation drawn with word k."""
        return self.shapes[k][2]

    def counterexample(self, s: Sequent, bound: int) -> Optional[TokenValuation]:
        """The first token valuation up to the bound under which s fails on
        the first word."""
        holds = self.holds(s)
        return next((a for a in exhaustive_valuations(tuple(sorted(tokens_of(s))), bound)
                     if not holds(a)), None)

    def point(self, m: int) -> int:
        """Time m's bit in the first word."""
        return _point(*self.shapes[0][:2], m)

    def at(self, a: TokenValuation, pos) -> int:
        return 1 << self.point(a_value(a, pos))

    def falsified(self, s: Sequent) -> int:
        """Bit 0 of each block whose word falsifies s under its valuation."""
        picked = {pos: sum(1 << k * self.width + _point(p, loop, a_value(a, pos))
                           for k, (p, loop, a) in enumerate(self.shapes))
                  for pos in dict.fromkeys(positions_of(s))}
        out = self.low
        for j, (q, t) in enumerate(zip(s.pformulas(), self.truth_sets(*s.program))):
            hit = self.some(t & picked[q.pos])
            out &= hit if j < len(s.ant) else ~hit
        return out


def _reader(sys: SystemId, model: Optional[type] = None) -> type[_Frame]:
    """The pack class reading a model of the given type (or of the system's family)."""
    cls = _Lasso if (model or TABLE[sys].family) in (LassoWord, LtlPos) else _Frame
    if TABLE[sys].family is not cls.family:
        raise TwoseqError(f"no {cls.noun} semantics for system {sys.value}")
    return cls


def _frame(m: GraphModel | LassoWord | _Frame, sys: SystemId, kind: type | None = None) -> _Frame:
    """A parsed model (read as a ``kind``) as a pack of one, or a pack drawn for the system."""
    if not isinstance(m, _Frame):
        return _reader(sys, kind or type(m)).of(m, sys)
    if m.sys is not sys:
        raise TwoseqError(f"a frame drawn for {m.sys.value} cannot be read under {sys.value}")
    return m


def accessibility(m: GraphModel | _Frame, sys: SystemId) -> dict[str, frozenset[str]]:
    """Successor sets under the system's closure of the edge relation."""
    f = _frame(m, sys, GraphModel)
    return {n: frozenset(x for j, x in enumerate(f.names) if s >> j & 1)
            for i, (n, s) in enumerate(zip(f.names, f.rows)) if f.full >> i & 1}


def forces(m: GraphModel | LassoWord | _Frame, sys: SystemId, n, f: Formula) -> bool:
    """Standard forcing with the system's accessibility; on a word, n is a time."""
    frame = _frame(m, sys)
    (mask,) = frame.truth_sets(*compile_formulas((f,)))
    return bool(mask >> frame.point(n) & 1)


def sequent_holds(m: GraphModel | LassoWord, sys: SystemId, assignment: dict,
                  s: Sequent) -> bool:
    """Whether s holds on m under an assignment: on a graph a map from
    positions to nodes (an antecedent formula must be assigned and forced,
    a succedent one forced where assigned), on a word a token valuation."""
    return _frame(m, sys).holds(s)(assignment)


def counterexample(m: GraphModel | LassoWord, sys: SystemId, s: Sequent,
                   bound: int = 4) -> Optional[dict]:
    """The first admissible assignment under which s fails on m, or on a
    word the first token valuation up to the bound, if any."""
    return _frame(m, sys).counterexample(s, bound)


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
    frame, partial = _frame(m, sys, GraphModel), TABLE[sys].context_demand
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


def check_sequent_on_model(m: GraphModel | _Frame, sys: SystemId,
                           s: Sequent) -> Optional[Rho]:
    """First admissible assignment falsifying the sequent, if any."""
    return next(admissible_assignments(m, sys, (), falsifying=s), None)


def random_model(rng: random.Random, sys: SystemId,
                 atoms: frozenset[str]) -> GraphModel:
    """Edge sampling at density 0.4 over 2..6 nodes; a serial frame that is
    not reflexive (D) is repaired by adding one outgoing edge where missing."""
    return _Frame.draw(rng, sys, atoms).model()


def exhaustive_valuations(tokens: tuple[Token, ...], bound: int) -> Iterator[TokenValuation]:
    """Every token valuation with values up to the bound, the first token
    varying fastest."""
    if bound < 0:
        raise TwoseqError(f"token bound must be at least 0, not {bound}")
    keys = tuple(reversed(tokens))
    return (dict(zip(keys, values)) for values in product(range(bound + 1), repeat=len(keys)))


@dataclass
class Verdict:
    """``tried`` models drawn, and a counterexample's model and witness."""

    ok: bool
    tried: int
    model: Optional[GraphModel | LassoWord] = None
    rho: Optional[dict] = None

    kind = property(lambda self: "valid-so-far" if self.ok else "counterexample")
    # the linear-time names, kept read-only for the benchmark's verifier
    word = property(lambda self: self.model)
    valuation = property(lambda self: self.rho)


def soundness_fuzz(target, sys: SystemId, budget: int, seed: int,
                   bound: int = 4) -> Verdict:
    """Search random graphs (or words, with token valuations up to the
    bound) for a falsifying assignment, in packs of doubling size.  The
    target is an accepted proof, whose end sequent must survive any budget
    (a counterexample witnesses a kernel bug), or a bare sequent."""
    if budget < 1:
        raise TwoseqError(f"fuzz budget must be at least 1, not {budget}")
    if bound < 0:
        raise TwoseqError(f"token bound must be at least 0, not {bound}")
    cls = _reader(sys)
    s = target if isinstance(target, Sequent) else target.conclusion
    rng, atoms = random.Random(seed), tuple(sorted(sequent_atoms(s))) or ("p0",)
    tokens = tuple(sorted(tokens_of(s)))
    tried, count = 0, _FIRST_PACK
    while tried < budget:
        count = min(count, budget - tried)
        pack = cls.draw(rng, sys, atoms, count, tokens, bound)
        hits = pack.falsified(s)
        if hits:
            k = ((hits & -hits).bit_length() - 1) // pack.width
            return Verdict(False, tried + k + 1, pack.model(k), pack.witness(k, s))
        tried, count = tried + count, min(2 * count, _PACK_CAP)
    return Verdict(True, budget)
