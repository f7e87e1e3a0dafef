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
Each entry call reads its sequent once, as a `_Compiled`: a program of
its formulas, each instruction of which gets the mask of the points
forcing it, and for graphs a plan of its positions.  Each model's
falsifiability is decided for the whole pack at once.  A parsed model is
a pack of one; the fuzzer draws packs of doubling size and reads back
the first falsified model.
It draws only through ``rng.random`` and ``rng.getrandbits``, each integer
exactly as `random.Random.randint`/``randrange`` would (`_below`), so
`_Frame.draw`, `_Lasso.draw` and each seed's verdict equal those of
samplers that call those methods.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .calculus import TABLE, SystemId
from .errors import TwoseqError
from .positions import LtlPos, Position, SeqPos, Token, initials
from .syntax import (And, Box, Dia, Formula, Imp, Next, Not, Or, Prop, Sequent, _Binary,
                     _Unary, tokens_of)

_FIRST_PACK, _PACK_CAP = 16, 256    # the fuzzer's pack sizes double between these
_NODES = tuple(f"n{i}" for i in range(6))   # a drawn graph's node names
_COLUMNS = tuple(1 << j for j in range(6))  # their bits in an adjacency row


class GraphModel(NamedTuple):
    """Finite pointed Kripke structure with a per-node valuation."""

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    root: str
    valuation: dict[str, frozenset[str]]

    __hash__ = None     # unhashable: the valuation is a dict


class LassoWord(NamedTuple("LassoWord", [("prefix", tuple), ("loop", tuple)])):
    """Ultimately periodic valuation: prefix letters then a repeated loop."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))    # so `_replace` checks too

    def __new__(cls, prefix: tuple[frozenset[str], ...], loop: tuple[frozenset[str], ...]):
        if not loop:
            raise ValueError("lasso loop must be nonempty")
        return super().__new__(cls, prefix, loop)


Rho = dict[SeqPos, str]
TokenValuation = dict[Token, int]


def _natural(n: int, what: str) -> int:
    """n, refused unless it is a natural number (an ``int``, not a ``bool``)."""
    if type(n) is not int:
        raise TwoseqError(f"{what} is a natural number, not {n!r}")
    if n < 0:
        raise TwoseqError(f"{what} must be at least 0, not {n}")
    return n


def _point(p: int, loop: int, m: int) -> int:
    """The canonical point of time m on a word with a prefix of p points."""
    m = _natural(m, "a time point")
    return m if m < p else p + (m - p) % loop


def a_value(a: TokenValuation, s: LtlPos) -> int:
    """The time point a position denotes under a token valuation."""
    if not isinstance(s, LtlPos):
        raise TwoseqError("lasso semantics needs step/token-set positions")
    return s.steps + sum(_natural(a.get(x, 0), "a token value") for x in s.future)


def _below(bits: Callable[[int], int], n: int) -> int:
    """What ``rng.randrange(n)`` draws (n at least 1), from ``bits = rng.getrandbits``."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _masks(letters: list[frozenset[str]]) -> dict[str, int]:
    """Each atom's points, given each point's atoms."""
    return {a: sum(1 << i for i, x in enumerate(letters) if a in x)
            for a in frozenset().union(*letters)}


def compile_formulas(roots: Iterable[Formula]) -> tuple[list[tuple], list[int]]:
    """One post-order program for the formulas, and each root's index.

    Instruction i is ``(class, a, b)``: a ``Prop``'s name twice, else the
    indices of the (earlier) operand instructions, the same one twice for
    a unary connective.  Shared subformula objects get one instruction,
    memoised by identity, so nothing is hashed or compared; the walk
    keeps its own stack, so depth costs no recursion.
    """
    roots = list(roots)
    code: list[tuple] = []
    slot: dict[int, int] = {}
    for root in roots:
        stack = [root]
        while stack:
            f = stack[-1]
            if id(f) in slot:
                stack.pop()
                continue
            if isinstance(f, _Unary):
                kids: tuple = (f.sub,)
            elif isinstance(f, _Binary):
                kids = (f.left, f.right)
            elif isinstance(f, Prop):
                kids = ()
            else:
                raise TwoseqError(f"unknown formula {f!r}")
            todo = [k for k in kids if id(k) not in slot]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            slot[id(f)] = len(code)
            ops = [slot[id(k)] for k in kids] or [f.name]
            code.append((type(f), ops[0], ops[-1]))
    return code, [slot[id(r)] for r in roots]


def segment_plan(positions: list[Position]) -> tuple[tuple, tuple, tuple]:
    """The initial segments of sequence positions, shortest first, with each
    one's parent slot (-1 for the empty one), and each position's slot."""
    if not all(isinstance(p, SeqPos) for p in positions):
        raise TwoseqError("graph semantics needs sequence positions")
    req = sorted(initials(positions), key=lambda p: (len(p.items), p.items))
    slot = {p: i for i, p in enumerate(req)}
    parent = tuple(slot[SeqPos(p.items[:-1])] if p.items else -1 for p in req)
    return tuple(req), parent, tuple(slot[p] for p in positions)


class _Compiled:
    """A sequent as the packs read it: ``pfs`` its positioned formulas,
    antecedent first, ``n`` how many are antecedent, ``program`` their formulas
    compiled, and ``segments`` the plan of their positions, made on first read."""

    def __init__(self, s: Sequent):
        self.sequent, self.pfs, self.n = s, s.pformulas(), len(s.ant)
        self.program = compile_formulas(q.formula for q in self.pfs)

    @cached_property
    def segments(self) -> tuple[tuple, tuple, tuple]:
        return segment_plan([q.pos for q in self.pfs])


def sequent_atoms(s: Sequent | _Compiled) -> frozenset[str]:
    """The proposition names of a sequent, read off its compiled program."""
    code = (s if isinstance(s, _Compiled) else _Compiled(s)).program[0]
    return frozenset(a for op, a, _ in code if op is Prop)


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
        low = ((1 << width * -(-full.bit_length() // width)) - 1) // ((1 << width) - 1)
        self.low, self.ones, self.guard = low, (low << width - 1) - low, low << width - 1
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
        """``count`` graphs, each drawing its node count (2..6), a coin per
        ordered pair of nodes for an edge at density 0.4, then, where the
        frame is serial but not reflexive (D), one edge out of each node
        left without one, then a coin per node and atom; a graph draws no
        token values."""
        coin, bits, width, full, edges = rng.random, rng.getrandbits, 7, 0, [0] * 6
        repair = not (TABLE[sys].context_demand or TABLE[sys].admits(0))
        names = dict.fromkeys(sorted(atoms) or ["p0"])
        vals, ids = [0] * len(names), range(len(names))
        for base in range(0, count * width, width):
            size = 2 + _below(bits, 5)
            full |= (1 << size) - 1 << base
            cols, rows = _COLUMNS[:size], []
            for _ in cols:
                r = 0
                for c in cols:
                    if coin() < 0.4:
                        r |= c
                rows.append(r)
            for i, r in enumerate(rows):
                if repair and not r:        # D: serial, not reflexive
                    r = cols[_below(bits, size)]
                edges[i] |= r << base
            for i in range(base, base + size):
                for a in ids:
                    if coin() < 0.5:
                        vals[a] |= 1 << i
        return cls(sys, _NODES, width, full, edges, dict(zip(names, vals)))

    def model(self, k: int = 0) -> GraphModel:
        """Model k's drawn edges and valuation, rooted at its node 0."""
        base = k * self.width
        ns = self.names[:(self.full >> base & (1 << self.width) - 1).bit_length()]
        edges = frozenset((a, b) for i, a in enumerate(ns) for j, b in enumerate(ns)
                          if self.edges[i] >> base + j & 1)
        val = {n: frozenset(a for a, x in self.atoms.items() if x >> base + i & 1)
               for i, n in enumerate(ns)}
        return GraphModel(ns, edges, ns[0], val)

    def witness(self, k: int, c: _Compiled) -> Optional[Rho]:
        """The first admissible assignment falsifying c on model k: the first
        map of the walk over the masks of `_ok`, which never backtracks, as
        each mask keeps only the nodes its subtree of positions can follow."""
        return next(self.walk(k, *c.segments[:2], self._ok(c), False), None)

    def counterexample(self, c: _Compiled, bound: int) -> Optional[Rho]:
        return self.witness(0, c)

    def point(self, n: str) -> int:
        """Node n's bit in the first model."""
        if n not in self.names[:(self.full & (1 << self.width) - 1).bit_length()]:
            raise TwoseqError(f"the model has no node {n!r}")
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
        """The mask of points forcing each root of a program: a proposition's from
        ``atoms``, a connective's from its operands', a modal or temporal one's by `step`."""
        full, atoms, step, out = self.full, self.atoms, self.step, []
        for op, a, b in code:
            if op is Prop:
                v = atoms.get(a, 0)
            elif op is Not:
                v = full ^ out[a]
            elif op is And:
                v = out[a] & out[b]
            elif op is Or:
                v = out[a] | out[b]
            elif op is Imp:
                v = (full ^ out[a]) | out[b]
            else:
                v = step(op, out[a])
            out.append(v)
        return [out[r] for r in roots]

    def holds(self, c: _Compiled) -> Callable[[dict], bool]:
        """Whether c holds on the first model, labelled once, under an assignment:
        it fails where each antecedent formula's point is in its truth set and
        each succedent one's outside it."""
        truth, n = self.truth_sets(*c.program), c.n
        return lambda a: not all(self.at(a, q.pos) & (t if j < n else ~t)
                                 for j, (q, t) in enumerate(zip(c.pfs, truth)))

    def _ok(self, c: _Compiled) -> list[int]:
        """``ok[i]``, children first, is where position i of c's plan may go
        with its subtree below it, in every block; each position leads to one
        with a formula, so none stays undefined."""
        req, parent, slots = c.segments
        ok = [self.full] * len(req)
        for k, (i, mask) in enumerate(zip(slots, self.truth_sets(*c.program))):
            ok[i] &= mask if k < c.n else ~mask
        for j in range(len(req) - 1, 0, -1):
            ok[parent[j]] &= self.step(Dia, ok[j])
        return ok

    def falsified(self, c: _Compiled) -> int:
        """Bit 0 of each block whose model has an admissible assignment
        falsifying c (an empty sequent falls to the empty map)."""
        ok = self._ok(c)
        out = self.some(ok[0]) if ok else self.low
        return out if TABLE[self.sys].context_demand else out & ~self.dead_ends

    def walk(self, k: int, req: tuple, parent: tuple, allowed: list[int],
             blank: bool) -> Iterator[Rho]:
        """Model k's maps of the positions ``req`` of a `segment_plan` (with
        their parent slots) to nodes in ``allowed`` stepping along ``rows``,
        none on a dead end under a serial system.  Shorter positions are
        decided first, each left undefined (where ``blank`` allows; always
        under an undefined parent) before it takes nodes: the empty one by
        index, another its parent's node's successors by name."""
        base = k * self.width
        if not TABLE[self.sys].context_demand and self.dead_ends >> base & 1:
            return
        by_name = sorted(range(len(self.names)), key=self.names.__getitem__)
        node = [-1] * len(req)              # the node taken, -1 if undefined

        def options(i: int) -> Iterator[int]:
            p, out = parent[i], [-1] if blank else []
            if p < 0:
                mask = allowed[i] >> base
                out += [j for j in range(len(self.names)) if mask >> j & 1]
            elif node[p] >= 0:
                mask = (allowed[i] & self.rows[node[p]]) >> base
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
                yield {req[c]: self.names[n] for c, n in enumerate(node) if n >= 0}


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
        coin, bits, width, shapes, names = rng.random, rng.getrandbits, 8, [], dict.fromkeys(atoms)
        vals, ids = [0] * len(names), range(len(names))

        def letters(lo: int, k: int) -> int:
            for i in range(lo, lo + k):
                for a in ids:
                    if coin() < 0.5:
                        vals[a] |= 1 << i
            return k
        for base in range(0, count * width, width):     # up to 4 + 3 points
            p = letters(base, _below(bits, 5))
            loop = letters(base + p, 1 + _below(bits, 3))
            shapes.append((p, loop, {x: _below(bits, bound + 1) for x in tokens}))
        return cls(sys, width, shapes, dict(zip(names, vals)))

    def model(self, k: int = 0) -> LassoWord:
        (p, loop, _), base = self.shapes[k], k * self.width
        letters = tuple(frozenset(a for a, x in self.atoms.items() if x >> base + i & 1)
                        for i in range(p + loop))
        return LassoWord(letters[:p], letters[p:])

    def witness(self, k: int, c: _Compiled) -> TokenValuation:
        """The token valuation drawn with word k."""
        return self.shapes[k][2]

    def counterexample(self, c: _Compiled, bound: int) -> Optional[TokenValuation]:
        """The first token valuation up to the bound under which c fails on
        the first word."""
        holds = self.holds(c)
        return next((a for a in exhaustive_valuations(tuple(sorted(tokens_of(c.sequent))), bound)
                     if not holds(a)), None)

    def point(self, m: int) -> int:
        """Time m's bit in the first word."""
        return _point(*self.shapes[0][:2], m)

    def at(self, a: TokenValuation, pos) -> int:
        return 1 << self.point(a_value(a, pos))

    def falsified(self, c: _Compiled) -> int:
        """Bit 0 of each block whose word falsifies c under its valuation."""
        picked = {pos: sum(1 << k * self.width + _point(p, loop, a_value(a, pos))
                           for k, (p, loop, a) in enumerate(self.shapes))
                  for pos in dict.fromkeys(q.pos for q in c.pfs)}
        out = self.low
        for j, (q, t) in enumerate(zip(c.pfs, self.truth_sets(*c.program))):
            hit = self.some(t & picked[q.pos])
            out &= hit if j < c.n else ~hit
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
    return _frame(m, sys).holds(_Compiled(s))(assignment)


def counterexample(m: GraphModel | LassoWord, sys: SystemId, s: Sequent,
                   bound: int = 4) -> Optional[dict]:
    """The first admissible assignment under which s fails on m, or on a
    word the first token valuation up to the bound, if any."""
    return _frame(m, sys).counterexample(_Compiled(s), bound)


def admissible_assignments(m: GraphModel | _Frame, sys: SystemId,
                           positions: Iterable[SeqPos]) -> Iterator[Rho]:
    """Enumerate the position-to-node maps the system's table row allows.

    The serial systems require total maps, which a dead end admits none
    of; the others also allow partial maps with downward-closed domains.
    Consecutive assigned positions step along the system's closure, in the
    order of `_Frame.walk`.
    """
    frame = _frame(m, sys, GraphModel)
    req, parent, _ = segment_plan(list(positions))
    yield from frame.walk(0, req, parent, [frame.full] * len(req), TABLE[sys].context_demand)


def check_sequent_on_model(m: GraphModel | _Frame, sys: SystemId,
                           s: Sequent) -> Optional[Rho]:
    """First admissible assignment falsifying the sequent, if any."""
    return _frame(m, sys, GraphModel).witness(0, _Compiled(s))


def exhaustive_valuations(tokens: tuple[Token, ...], bound: int) -> Iterator[TokenValuation]:
    """Every token valuation with values up to the bound, the first token
    varying fastest."""
    if bound < 0:
        raise TwoseqError(f"token bound must be at least 0, not {bound}")
    keys = tuple(reversed(tokens))
    return (dict(zip(keys, values)) for values in product(range(bound + 1), repeat=len(keys)))


class Verdict(NamedTuple):
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
    c = _Compiled(s)
    rng, atoms = random.Random(seed), tuple(sorted(sequent_atoms(c))) or ("p0",)
    tokens = tuple(sorted(tokens_of(s)))
    tried, count = 0, _FIRST_PACK
    while tried < budget:
        count = min(count, budget - tried)
        pack = cls.draw(rng, sys, atoms, count, tokens, bound)
        hits = pack.falsified(c)
        if hits:
            k = ((hits & -hits).bit_length() - 1) // pack.width
            return Verdict(False, tried + k + 1, pack.model(k), pack.witness(k, c))
        tried, count = tried + count, min(2 * count, _PACK_CAP)
    return Verdict(True, budget)
