"""The rule engine: per-system constraint tables, local rule checking,
the global eigen-token discipline, and structural-bridge synthesis.

Sequents are ordered lists and every rule is anchored at a list edge:
left rules consume the last antecedent formula, right rules produce the
first succedent formula, and explicit exchange steps recover any other
arrangement.  Rule parameters are stored on the node and validated, never
inferred.

Every logical rule and the cut is written once, as a ``RuleSchema`` in
``SCHEMAS``: the side and connective of its principal formula, the active
formulas at each premise's edges (the operand each carries and the map
from the principal position to its own), its parameter kinds and its
hooks into the constraint table.  That entry drives the forward
constructor, the checker and both mix steps of cut elimination
(``reapply``, and the principal reduction, which cuts the operands
``Active`` names).  A new rule is one entry here and its name in the rule
lists ``_rules`` draws from a system's table row; a new side condition is
a hook.  Every rule is built by the name the checker knows it by:
``apply_rule`` builds the schema rules and induction, ``apply_structural``
the structural ones, ``ax`` and ``indax`` the axioms.

The six structural rules share one step function, ``structural`` (a
rule's conclusion from its premise), and a row each in ``STRUCTURAL``
(parameter, constructor error, checker message); ``apply_structural``, the
checker and bridge synthesis all go through it.  Induction and the axioms
are written out.  The first check in a system compiles each of
its rules (``_compile``) into one checker with the schema entry and table
row read once, so checking a rule instance is one dict lookup and one call.
"""

from __future__ import annotations

from bisect import bisect_right
from enum import Enum
from operator import attrgetter, is_
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import BridgeError, KernelInvariantError, TwoseqError
from .positions import (Interned, LtlPos, PastPos, Position, SeqPos, SetPos,
                        Token, initials, ltl_step, ltl_token, seqpos)
from .syntax import (And, Box, Dia, Formula, Hist, Imp, Next, Not, Once, Or,
                     PFormula, Prev, Sequent, degree, has_past, has_temporal,
                     pf, seq, tokens_of)


class SystemId(Enum):
    K = "K"
    D = "D"
    T = "T"
    K4 = "K4"
    S4 = "S4"
    S42 = "S42"
    LTL = "LTL"
    LTL_INDAX = "LTL_IndAx"
    LTLP = "LTLP"

    # members are singletons, so identity hashing agrees with ==; Enum's
    # own __hash__ is a Python-level call on every table lookup
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, text: str) -> "SystemId":
        key = text.strip().upper().replace(".", "").replace("-", "_")
        key = {"LTLI": "LTL_INDAX", "LTL_P": "LTLP"}.get(key, key)
        if key not in cls.__members__:      # each member's name is its value, upper-cased
            raise TwoseqError(f"unknown system: {text!r}")
        return cls[key]


# the box-left step sizes each shape admits
_SHAPES = {"any": lambda k: True, "singleton": lambda k: k == 1,
           "empty-or-singleton": lambda k: k <= 1, "nonempty": lambda k: k >= 1}


class ConstraintTable(NamedTuple):
    """One row of the constraint table: the four parameters the systems differ in.
    The family admits the temporal and past rules; the context demand (K, K4) guards the cut too."""

    family: type
    box_left_shape: str        # any | empty-or-singleton | singleton | nonempty
    context_demand: bool       # boxL/diaR need a context formula below the step
    induction: str             # none | rule | axiom

    def admits(self, k: int) -> bool:      # a box-left step of k tokens
        return _SHAPES[self.box_left_shape](k)

    def __le__(self, other):    # same family and induction, more steps, no new demand
        return (self.family, self.induction) == (other.family, other.induction) \
            and all(other.admits(k) for k in range(3) if self.admits(k)) \
            and other.context_demand <= self.context_demand

    __lt__ = lambda a, b: ConstraintTable.__le__(a, b) and a != b
    __ge__ = lambda a, b: ConstraintTable.__le__(b, a)
    __gt__ = lambda a, b: ConstraintTable.__lt__(b, a)


TABLE: dict[SystemId, ConstraintTable] = {
    SystemId.K: ConstraintTable(SeqPos, "singleton", True, "none"),
    SystemId.D: ConstraintTable(SeqPos, "singleton", False, "none"),
    SystemId.T: ConstraintTable(SeqPos, "empty-or-singleton", False, "none"),
    SystemId.K4: ConstraintTable(SeqPos, "nonempty", True, "none"),
    SystemId.S4: ConstraintTable(SeqPos, "any", False, "none"),
    SystemId.S42: ConstraintTable(SetPos, "any", False, "none"),
    SystemId.LTL: ConstraintTable(LtlPos, "any", False, "rule"),
    SystemId.LTL_INDAX: ConstraintTable(LtlPos, "any", False, "axiom"),
    SystemId.LTLP: ConstraintTable(PastPos, "any", False, "rule"),
}

CORE_SYSTEMS = tuple(sys for sys, t in TABLE.items() if t.family is SeqPos)
_LINEAR_TIME = (LtlPos, PastPos)        # the families admitting temporal connectives
_STEP_KEY = dict.fromkeys(_LINEAR_TIME, "t")    # the declared step's name there, else beta


class StructuralRule(NamedTuple):
    param: str          # pf (the formula weakened in), at (the swap index) or ""
    error: str          # why the constructor refuses a premise
    message: str        # the checker's schema violation


STRUCTURAL: dict[str, StructuralRule] = {
    "weakL": StructuralRule("pf", "missing weakening formula",
                            "weakening must append one antecedent formula"),
    "weakR": StructuralRule("pf", "missing weakening formula",
                            "weakening must prepend one succedent formula"),
    "contrL": StructuralRule("", "last two antecedent formulas must agree",
                             "contraction must merge the last two antecedent formulas"),
    "contrR": StructuralRule("", "first two succedent formulas must agree",
                             "contraction must merge the first two succedent formulas"),
    "excL": StructuralRule("at", "index out of range",
                           "conclusion is not the declared adjacent swap"),
    "excR": StructuralRule("at", "index out of range",
                           "conclusion is not the declared adjacent swap"),
}

STRUCTURAL_RULES = tuple(STRUCTURAL)

_COMMON = ("ax", "cut") + STRUCTURAL_RULES + (
    "negL", "negR", "andL1", "andL2", "andR", "orL", "orR1", "orR2",
    "impL", "impR", "boxL", "boxR", "diaL", "diaR")


def _rules(t: ConstraintTable) -> tuple[str, ...]:
    """A system's rules, read off its table row."""
    nxt = ("nextL", "nextR") if t.family in _LINEAR_TIME else ()
    past = ("prevL", "prevR", "histL", "histR", "onceL", "onceR") if t.family is PastPos else ()
    induction = {"none": (), "axiom": ("indax",), "rule": ("ind", "pind") if past else ("ind",)}
    return _COMMON + nxt + past + induction[t.induction]


RULES_BY_SYSTEM: dict[SystemId, tuple[str, ...]] = {k: _rules(t) for k, t in TABLE.items()}


class _ProofFields:
    __slots__ = ("rule", "params", "conclusion", "premises",
                 "height", "size", "eigens", "cut_rank")

    def param(self, key: str):
        for k, v in self.params:
            if k == key:
                return v
        return None


class ProofNode(_ProofFields):
    """A rule instance (identifier, explicit parameters, conclusion, premises)
    and its tree's height, size, eigen rules and cut rank: 0 if cut-free, else
    1 + the largest cut-formula degree; -1 if a cut formula is temporal or missing.
    A script's double line is a node of rule "bridge" until it is expanded.
    ``==`` walks an explicit stack, and the hash reads the root alone.  A node is
    built as its writable twin (the bare slots), then switched to its class: frozen."""

    __slots__ = ()
    __match_args__ = _ProofFields.__slots__[:4]

    def __new__(cls, rule: str, params: tuple, conclusion: Sequent, premises: tuple = ()):
        self = _ProofFields()
        self.rule, self.params, self.conclusion, self.premises = rule, params, conclusion, premises
        h = s = e = rank = 0
        for q in premises:      # the measures without max/min calls: this runs per parsed node
            if q.height > h:
                h = q.height
            s, e, r = s + q.size, e + q.eigens, q.cut_rank
            if r > rank >= 0 or r < 0:
                rank = r
        if rule == "cut" and rank >= 0:
            f = self.param("cutf")
            rank = -1 if not isinstance(f, PFormula) or has_temporal(f.formula) \
                else max(rank, degree(f.formula) + 1)
        self.height, self.size, self.cut_rank = h + 1, s + 1, rank
        self.eigens = e + (rule in _BINDERS and self.param("x") is not None)
        self.__class__ = cls
        return self

    def _root(self) -> tuple:
        return self.rule, self.params, self.conclusion, len(self.premises)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is not b:
                if a._root() != b._root():
                    return False
                stack.extend(zip(a.premises, b.premises))
        return True

    def __hash__(self):
        return hash(self._root())

    __repr__, __setattr__, __delattr__, __reduce__ = \
        Interned.__repr__, Interned.__setattr__, Interned.__delattr__, Interned.__reduce__


class ScriptNode(ProofNode):
    """A ``ProofNode`` read through ``children``, kept for ``bench/`` (ROADMAP item 13)."""
    __slots__ = ()
    children = property(attrgetter("premises"))


class Violation(NamedTuple):
    path: tuple[int, ...]
    rule: str
    condition: str
    message: str

    def __str__(self) -> str:
        where = "/".join(map(str, self.path)) or "root"
        return f"at {where} [{self.rule}] {self.condition}: {self.message}"


class CheckReport(NamedTuple):
    verdict: str
    failures: tuple[Violation, ...]

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"

    def to_json_dict(self) -> dict:
        return {"verdict": self.verdict,
                "failures": [v._asdict() | {"path": list(v.path)} for v in self.failures]}

    def render_text(self) -> str:
        if self.accepted:
            return "accepted"
        lines = [f"rejected: {len(self.failures)} failure(s)"]
        lines.extend(f"  {v}" for v in self.failures)
        return "\n".join(lines)


class ProofScript(NamedTuple):
    system: SystemId
    root: ProofNode


def node(rule: str, params: dict, conclusion: Sequent,
         premises: Iterable[ProofNode] = ()) -> ProofNode:
    return ProofNode(rule, tuple(sorted(params.items())), conclusion, tuple(premises))


def height(p: ProofNode) -> int:
    return p.height


def iter_nodes(p: ProofNode):
    """Yield (path, node) pairs over the whole tree."""
    stack: list[tuple[tuple[int, ...], ProofNode]] = [((), p)]
    while stack:
        path, n = stack.pop()
        yield path, n
        stack.extend((path + (i,), c) for i, c in enumerate(n.premises))


def subproofs(p: ProofNode):
    """Yield every node of the tree, in the order of ``iter_nodes``."""
    stack = [p]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(n.premises)


def rebuild(root, leave, ctx=None,
            enter=lambda n, ctx: [(q, None) for q in n.premises]):
    """``root`` rebuilt bottom-up over an explicit stack, the premises of
    a node left to right and then the node: ``leave(n, ctx, new_premises)``
    makes each node.  ``enter(n, ctx)`` lists the (premise, context) pairs
    to descend into, or gives None to keep the subtree as it is."""
    done: list = []
    stack: list = [(root, ctx, None)]
    while stack:
        n, c, k = stack.pop()
        if k is not None:
            i = len(done) - k
            done[i:] = [leave(n, c, tuple(done[i:]))]
        elif (inner := enter(n, c)) is None:
            done.append(n)
        else:
            stack.append((n, c, len(inner)))
            stack.extend((q, qc, None) for q, qc in reversed(inner))
    return done[0]


class OccurrenceIndex:
    """One preorder pass over a proof, in the order of ``iter_nodes``.

    Node ``i`` in preorder has the strict descendants ``(i, end[i]]``, read
    off its stored ``size``; ``at`` maps each token to the sorted preorder
    indices of the nodes whose conclusion carries it, ``formulas`` is the
    set of their positioned formulas, and ``eigens`` lists the eigen rules
    as (index, token).  Paths are rebuilt on demand.
    """

    def __init__(self, p: ProofNode):
        self.nodes: list[ProofNode] = []
        self.at: dict[Token, list[int]] = {}
        self.formulas: set[PFormula] = set()
        self.eigens: list[tuple[int, Token]] = []
        self.end: list[int] = []
        stack = [p]
        while stack:
            n = stack.pop()
            i = len(self.nodes)
            self.nodes.append(n)
            self.end.append(i + n.size - 1)
            self.formulas.update(n.conclusion.ant, n.conclusion.suc)
            for t in tokens_of(n.conclusion):
                self.at.setdefault(t, []).append(i)
            if (x := eigen_token(n)) is not None:
                self.eigens.append((i, x))
            stack.extend(n.premises)

    def path(self, i: int) -> tuple[int, ...]:
        out, j = [], 0
        while j < i:    # a node's premises follow it, last first, in size blocks
            prems, j, k = self.nodes[j].premises, j + 1, -1
            while i >= j + prems[k].size:
                j, k = j + prems[k].size, k - 1
            out.append(len(prems) + k)
        return tuple(out)

    def first_outside(self, token: Token, scopes: Iterable[int]) -> Optional[int]:
        """The first node in preorder whose conclusion carries ``token``
        and that lies in the premise subtree of none of ``scopes``."""
        occ = self.at.get(token, ())
        j, reach = 0, -1
        for s in sorted(scopes):
            hi = self.end[s]
            if hi <= reach:     # inside a scope passed: subtrees nest or are disjoint
                continue
            if j < len(occ) and occ[j] <= s:
                return occ[j]
            j = bisect_right(occ, hi, j)
            reach = hi
        return occ[j] if j < len(occ) else None


def proof_tokens(p: ProofNode) -> frozenset[Token]:
    """Every token of the proof's conclusions: once a node's local check
    holds, each token of its parameters occurs in its own conclusion or
    in a premise's."""
    out: set[Token] = set()
    for n in subproofs(p):
        out |= tokens_of(n.conclusion)
    return frozenset(out)


def eigen_token(n: ProofNode) -> Optional[Token]:
    return n.param("x") if n.rule in _BINDERS else None


# --- position plumbing shared by the rule schemas ---

# the family of the steps a position moves forward by
_STEP_FAMILY = {SeqPos: SeqPos, SetPos: SetPos, LtlPos: LtlPos, PastPos: LtlPos}


def _fits(pos, sign: str, step) -> bool:
    if sign == "-":
        return type(pos) is PastPos and type(step) is LtlPos
    return type(step) is _STEP_FAMILY.get(type(pos))


def shift(pos: Position, sign: str, step) -> Optional[Position]:
    """``pos`` moved forward (``+``) or back (``-``) by ``step``, or None
    when the step is not of a family that moves the position.

    Sequences concatenate (associative, unit ``[]``); token sets unite and
    step counts add.  A past position moved forward consumes the step's
    tokens pending in its future set and moves the rest to its past set;
    moved back, the dual."""
    if not _fits(pos, sign, step):
        return None
    if isinstance(pos, SeqPos):
        return SeqPos(pos.items + step.items)
    if isinstance(pos, SetPos):
        return SetPos(pos.items | step.items)
    if isinstance(pos, LtlPos):
        return LtlPos(pos.steps + step.steps, pos.future | step.future)
    t, fut, past = step.future, pos.future, pos.past
    if sign == "-":
        return PastPos(pos.offset - step.steps, fut | (t - past), past - t)
    return PastPos(pos.offset + step.steps, fut - t, past | (t - fut))


def _unshift(pos: Position, sign: str, step) -> Position:
    """The position ``step`` moves to ``pos``; callers check the result by
    shifting it back, since token-set shifts are not injective."""
    if not _fits(pos, sign, step):
        raise TwoseqError(f"step {step} does not apply to position {pos}")
    if isinstance(pos, PastPos):
        return shift(pos, "+" if sign == "-" else "-", step)
    if isinstance(pos, SeqPos):
        k = len(pos.items) - len(step.items)
        if pos.items[k:] != step.items:
            raise TwoseqError("position does not end with the declared step")
        return SeqPos(pos.items[:k])
    if isinstance(pos, SetPos):
        return SetPos(pos.items - step.items)
    if pos.steps < step.steps:
        raise TwoseqError(f"position {pos} has no step to consume")
    return LtlPos(pos.steps - step.steps, pos.future - step.future)


# --- the rule schemas ---

class Active(NamedTuple):
    """An active formula of a premise, read off the principal formula.

    ``shift`` maps the principal position to its own: empty for the
    identity, else ``+`` or ``-`` and the step moved by, which is the
    declared ``step`` (beta or t), the eigen token ``x`` or one tick
    ``1``.  ``operand`` names what it carries: the operand of a unary
    connective (``sub``), one side of a binary one (``left``, ``right``),
    or the cut formula (``cutf``).
    """

    shift: str = ""
    operand: str = "sub"


class Premise(NamedTuple):
    left: Optional[Active] = None       # the last antecedent formula
    right: Optional[Active] = None      # the first succedent formula


class RuleSchema(NamedTuple):
    side: str                           # L or R, where the principal sits; "" for cut
    connective: Optional[type]
    premises: tuple[Premise, ...]
    kind: str = ""                      # "principal formula must be <kind>"
    noun: str = ""                      # "premise does not match the <noun> schema"
    params: tuple[str, ...] = ()        # required parameter kinds: step, x, cutf
    hooks: tuple[str, ...] = ()         # constraint-table checks, by condition name
    based: bool = False                 # declares its principal position as alpha
    expose: tuple[str, ...] = ("premises do not expose the two operands",)


def _one(side: str, connective: type, kind: str, noun: str,
         left: Optional[Active] = None, right: Optional[Active] = None,
         **rest) -> RuleSchema:
    return RuleSchema(side, connective, (Premise(left, right),), kind, noun, **rest)


_SUB, _LEFT, _RIGHT = Active(), Active(operand="left"), Active(operand="right")
_CUTF = Active(operand="cutf")
_STEP = dict(params=("step",), based=True)
_BOX_LEFT = dict(_STEP, hooks=("beta-shape", "context-demand"))
_EIGEN = dict(params=("x",), hooks=("eigen-position",), based=True)

SCHEMAS: dict[str, RuleSchema] = {
    "cut": RuleSchema("", None, (Premise(right=_CUTF), Premise(left=_CUTF)),
                      params=("cutf",), hooks=("cut-position",),
                      expose=("cut formula must head the first premise's succedent",
                              "cut formula must end the second premise's antecedent")),
    "negL": _one("L", Not, "a negation", "negation-left", right=_SUB),
    "negR": _one("R", Not, "a negation", "negation-right", left=_SUB),
    "andL1": _one("L", And, "a conjunction", "conjunction-left", left=_LEFT),
    "andL2": _one("L", And, "a conjunction", "conjunction-left", left=_RIGHT),
    "andR": RuleSchema("R", And, (Premise(right=_LEFT), Premise(right=_RIGHT)), "a conjunction"),
    "orL": RuleSchema("L", Or, (Premise(left=_LEFT), Premise(left=_RIGHT)), "a disjunction"),
    "orR1": _one("R", Or, "a disjunction", "disjunction-right", right=_LEFT),
    "orR2": _one("R", Or, "a disjunction", "disjunction-right", right=_RIGHT),
    # the first premise holds the consequent, the second the antecedent
    "impL": RuleSchema("L", Imp, (Premise(left=_RIGHT), Premise(right=_LEFT)), "an implication"),
    "impR": _one("R", Imp, "an implication", "implication-right", left=_LEFT, right=_RIGHT),
    "boxL": _one("L", Box, "boxed", "box-left", left=Active("+step"), **_BOX_LEFT),
    "diaR": _one("R", Dia, "diamonded", "dia-right", right=Active("+step"), **_BOX_LEFT),
    "boxR": _one("R", Box, "boxed", "box-right", right=Active("+x"), **_EIGEN),
    "diaL": _one("L", Dia, "diamonded", "dia-left", left=Active("+x"), **_EIGEN),
    "nextL": _one("L", Next, "a next", "next", left=Active("+1")),
    "nextR": _one("R", Next, "a next", "next", right=Active("+1")),
    "prevL": _one("L", Prev, "a prev", "prev", left=Active("-1")),
    "prevR": _one("R", Prev, "a prev", "prev", right=Active("-1")),
    "histL": _one("L", Hist, "a past-box", "past-box-left", left=Active("-step"), **_STEP),
    "onceR": _one("R", Once, "a past-dia", "past-dia-right", right=Active("-step"), **_STEP),
    "histR": _one("R", Hist, "a past-box", "past-box-right", right=Active("-x"), **_EIGEN),
    "onceL": _one("L", Once, "a past-dia", "past-dia-left", left=Active("-x"), **_EIGEN),
}

_BINDERS = frozenset([r for r, s in SCHEMAS.items() if "x" in s.params] + ["ind", "pind"])


def _stepper(what: str, family: type):
    """The step a position map moves by, made from the rule's parameter: the
    declared step, one tick, or the eigen token as a step of the family."""
    if what == "step":
        return lambda v: v
    if what == "1":
        return lambda v, tick=ltl_step(1): tick
    return {SeqPos: seqpos, SetPos: lambda x: SetPos(frozenset((x,)))}.get(family, ltl_token)


def edge(s: Sequent, side: str) -> Optional[PFormula]:
    """The formula a rule acts on: the last antecedent (L) or the first
    succedent (R) formula, if any."""
    xs = s.ant[-1:] if side == "L" else s.suc[:1]
    return xs[0] if xs else None


def _splice(s: RuleSchema, prems: Sequence[Sequent],
            principal: Optional[PFormula]) -> Sequent:
    """The conclusion: the premise contexts in order around the principal."""
    ant = sum((q.ant[:-1] if shape.left else q.ant for q, shape in zip(prems, s.premises)), ())
    suc = sum((q.suc[1:] if shape.right else q.suc for q, shape in zip(prems, s.premises)), ())
    return Sequent(ant + (principal,) * (s.side == "L"), (principal,) * (s.side == "R") + suc)


def _base(rule: str, pos: Position, act: Active, values: dict,
          alpha: Optional[Position]) -> Position:
    """The principal position an active formula at ``pos`` comes from."""
    if not act.shift:
        return pos
    sign, what = act.shift[0], act.shift[1:]
    step = _stepper(what, type(pos))(values.get(what))
    if alpha is None:
        if what == "step" and not isinstance(pos, SeqPos):
            raise TwoseqError(f"{rule} off sequence positions needs an explicit alpha")
        alpha = _unshift(pos, sign, step)
    if shift(alpha, sign, step) != pos:
        raise TwoseqError(f"{rule}: alpha and the step do not reach the premise position")
    return alpha


def _require(rule: str, kinds: Iterable[str], values: dict) -> None:
    """Refuse to build ``rule`` without a parameter of each of ``kinds``."""
    for kind in kinds:
        if values[kind] is None:
            raise TwoseqError(f"{rule}: {_PARAM_KINDS[kind][1]}")


def apply_rule(rule: str, premises: Sequence[ProofNode], *,
               alpha: Optional[Position] = None, step=None,
               x: Optional[Token] = None, cutf: Optional[PFormula] = None,
               other: Optional[Formula] = None) -> ProofNode:
    """Forward application of a schema rule, or of induction (eigen token
    ``x``, target ``step``), by name: the principal formula is built from the
    premises' active formulas (``other`` supplies a binary operand no premise
    carries) at the position the inverted position maps give (``alpha`` where
    a declared step leaves it ambiguous); the conclusion is spliced around it."""
    s = SCHEMAS.get(rule)
    if s is None and rule not in ("ind", "pind"):
        raise TwoseqError(f"apply_rule builds no rule {rule!r}")
    if len(premises) != (arity := len(s.premises) if s else 1):
        raise TwoseqError(f"{rule}: expected {arity} premise(s), found {len(premises)}")
    if s is None:
        return _induction(rule, premises[0], x, step)
    values = {"step": step, "x": x, "cutf": cutf}
    _require(rule, s.params, values)
    operands: dict[str, Formula] = {}
    base = None
    for i, (p, shape) in enumerate(zip(premises, s.premises)):
        for side, act in (("L", shape.left), ("R", shape.right)):
            q = edge(p.conclusion, side)
            if act is None or (act.operand == "cutf" and q == cutf):
                continue
            if q is None or act.operand == "cutf":
                raise TwoseqError(f"{rule}: premise {i + 1} does not expose its "
                                  f"active formula")
            here = _base(rule, q.pos, act, values, alpha)
            if base is not None and here != base:
                raise TwoseqError(f"{rule}: operand positions differ")
            base = here
            operands[act.operand] = q.formula
    principal = None
    if "sub" in operands:
        principal = pf(s.connective(operands["sub"]), base)
    elif s.connective is not None:
        if other is None and len(operands) < 2:
            raise TwoseqError(f"{rule}: the operand no premise carries is missing (other)")
        principal = pf(s.connective(operands.get("left", other),
                                    operands.get("right", other)), base)
    params = {"alpha": base} if s.based else {}
    for kind in s.params:
        params[_STEP_KEY.get(type(base), "beta") if kind == "step" else kind] = values[kind]
    return node(rule, params, _splice(s, [p.conclusion for p in premises], principal),
                premises)


def reapply(p: ProofNode, premises: Sequence[ProofNode]) -> ProofNode:
    """The rule and principal formula of ``p`` over new premises that
    expose the same active formulas."""
    s = SCHEMAS[p.rule]
    principal = edge(p.conclusion, s.side) if s.side else None
    params = dict(p.params)
    if s.based:
        params["alpha"] = principal.pos
    return node(p.rule, params,
                _splice(s, [q.conclusion for q in premises], principal), premises)


# --- forward constructors: build a node and compute its conclusion ---

def ax(p: PFormula) -> ProofNode:
    return node("ax", {}, seq((p,), (p,)))


def structural(rule: str, s: Sequent, value=None) -> Optional[Sequent]:
    """The conclusion a structural rule draws from the premise ``s``, or
    None where it does not apply; ``value`` is the formula weakened in or
    the index of the exchanged pair."""
    left = rule[-1] == "L"
    xs = s.ant if left else s.suc
    if rule.startswith("weak"):
        if not isinstance(value, PFormula):
            return None
        xs = xs + (value,) if left else (value,) + xs
    elif rule.startswith("contr"):
        pair = xs[-2:] if left else xs[:2]
        if len(pair) < 2 or pair[0] != pair[1]:
            return None
        xs = xs[:-1] if left else xs[1:]
    else:
        if not (isinstance(value, int) and 0 <= value < len(xs) - 1):
            return None
        xs = xs[:value] + (xs[value + 1], xs[value]) + xs[value + 2:]
    return Sequent(xs, s.suc) if left else Sequent(s.ant, xs)


def apply_structural(rule: str, p: ProofNode, value=None) -> ProofNode:
    """Forward application of a structural rule."""
    if (r := STRUCTURAL.get(rule)) is None:
        raise TwoseqError(f"apply_structural builds no rule {rule!r}")
    s = structural(rule, p.conclusion, value)
    if s is None:
        raise TwoseqError(f"{rule}: {r.error}")
    return ProofNode(rule, ((r.param, value),) if r.param else (), s, (p,))


# named constructors kept for ``bench/`` (ROADMAP item 13); ``src/`` names the rule
def weak_left(p: ProofNode, extra: PFormula) -> ProofNode:
    return apply_structural("weakL", p, extra)


def and_right(p1: ProofNode, p2: ProofNode) -> ProofNode:
    return apply_rule("andR", (p1, p2))


def imp_right(p: ProofNode) -> ProofNode:
    return apply_rule("impR", (p,))


def box_right(p: ProofNode, x: Token) -> ProofNode:
    return apply_rule("boxR", (p,), x=x)


def _induction(rule: str, p: ProofNode, x: Token, t: LtlPos) -> ProofNode:
    s, sign = p.conclusion, "-" if rule == "pind" else "+"
    a, b = edge(s, "L"), edge(s, "R")
    if a is None or b is None or a.formula != b.formula:
        raise TwoseqError(f"{rule}: premise edge formulas differ or are missing")
    _require(rule, ("x", "step"), {"x": x, "step": t})
    base = _base(rule, a.pos, Active(sign + "x"), {"x": x}, None)
    if shift(a.pos, sign, ltl_step(1)) != b.pos:
        raise TwoseqError(f"{rule}: premise positions are not s{sign}x and s{sign}x{sign}1")
    if (to := shift(base, sign, t)) is None:
        raise TwoseqError(f"{rule}: step {t} does not apply to position {base}")
    return node(rule, {"alpha": base, "x": x, "t": t},
                seq(s.ant[:-1] + (pf(a.formula, base),), (pf(a.formula, to),) + s.suc[1:]), (p,))


def indax(formula: Formula, s_pos: LtlPos) -> ProofNode:
    return node("indax", {}, seq((), (pf(_induction_axiom(formula), s_pos),)))


def _induction_axiom(a: Formula) -> Formula:
    return Imp(And(a, Box(Imp(a, Next(a)))), Box(a))


# --- local rule checking: one checker per (system, rule), compiled on first use ---

def _seq_positions(pfs: Iterable[PFormula]) -> list[SeqPos]:
    # positions of another family are reported by the family check; they
    # never witness a sequence-position side condition
    return [q.pos for q in pfs if isinstance(q.pos, SeqPos)]


# constraint-table hooks: (table row, node, principal, the rule's parameter,
# context of the principal) -> the violation message, if any
def _beta_shape(table, n, a, beta, ctx) -> Optional[str]:
    k = len(beta.items) if isinstance(beta, SeqPos) else len(beta.tokens())
    if table.admits(k):
        return None
    return f"step {beta} violates the '{table.box_left_shape}' shape"


def _context_demand(table, n, a, beta, ctx) -> Optional[str]:
    """K/K4: some context formula sits at or below alpha+beta."""
    ab = shift(a.pos, "+", beta)
    if isinstance(ab, SeqPos) and any(q.items[:len(ab.items)] == ab.items
                                      for q in _seq_positions(ctx)):
        return None
    return f"no context formula has a position starting with {ab}"


def cut_position_holds(cutf: PFormula, s1: Sequent, s2: Sequent) -> bool:
    """The K/K4 cut condition: the cut position is an initial segment of a
    position in the left or the right context, once every occurrence of
    the cut formula is taken out of both."""
    left = list(s1.ant) + [q for q in s1.suc if q != cutf]
    right = [q for q in s2.ant if q != cutf] + list(s2.suc)
    return cutf.pos in initials(_seq_positions(left)) or \
        cutf.pos in initials(_seq_positions(right))


def _eigen_position(table, n, a, x, ctx) -> Optional[str]:
    if table.family is SeqPos:
        # the eigenposition is an initial of the context if it begins a position there
        eig = a.pos.items + (x,)
        if any(p.items[:len(eig)] == eig for p in _seq_positions(ctx)):
            return f"eigenposition {SeqPos(eig)} occurs among the context initials"
        return None
    if x in a.pos.tokens():
        return f"eigen token {x} occurs in the base position"
    if any(x in q.pos.tokens() for q in ctx):
        return f"eigen token {x} occurs in a context position"
    return None


def _cut_position(table, n, a, cutf, ctx) -> Optional[str]:
    if cut_position_holds(cutf, *(q.conclusion for q in n.premises)):
        return None
    return f"cut position {cutf.pos} is not an initial of either context"


# each hook, and the table rows where it can fail
_HOOKS = {"beta-shape": (_beta_shape, lambda t: t.box_left_shape != "any"),
          "context-demand": (_context_demand, attrgetter("context_demand")),
          "eigen-position": (_eigen_position, lambda t: True),
          "cut-position": (_cut_position, attrgetter("context_demand"))}

# the parameter keys each rule takes: a schema rule its base position
# (alpha) if it declares one and its parameters, a step under either name
_KEY_NAMES = {"step": ("beta", "t"), "x": ("x",), "cutf": ("cutf",)}
_TAKES = {r: frozenset(("alpha",) * s.based + sum((_KEY_NAMES[k] for k in s.params), ()))
          for r, s in SCHEMAS.items()}
_TAKES.update((r, frozenset((s.param,) if s.param else ())) for r, s in STRUCTURAL.items())
_TAKES.update((r, frozenset(("alpha", "x", "t"))) for r in ("ind", "pind"))

_PARAM_KINDS = {"step": ((SeqPos, SetPos, LtlPos, PastPos), "missing step parameter"),
                "x": (str, "missing eigen token"),
                "cutf": (PFormula, "missing cut formula")}

# the part of a sequent side a rule keeps: all, all but the last or all but the first formula
_ALL, _BUT_LAST, _BUT_FIRST = slice(None), slice(None, -1), slice(1, None)


def _bad(rule: str, condition: str, message: str) -> Violation:
    return Violation((), rule, condition, message)


def _schema_checker(rule: str, table: ConstraintTable):
    """Principal formula, parameter, the active formulas each premise
    exposes, the context splice, then the hooks the table row can fail."""
    s = SCHEMAS[rule]
    side, conn, kind = s.side, s.connective, s.params[0] if s.params else None
    key = _STEP_KEY.get(table.family, "beta") if kind == "step" else kind
    types, missing = _PARAM_KINDS.get(kind, (object, ""))
    # per premise: the part of each side the conclusion keeps, and each
    # active formula as (side, operand getter or False for the cut formula,
    # shift sign, step maker, the condition a step that does not apply fails)
    shapes = [(_BUT_LAST if p.left else _ALL, _BUT_FIRST if p.right else _ALL, [
        (at, act.operand != "cutf" and attrgetter(act.operand), act.shift[:1],
         act.shift and _stepper(act.shift[1:], table.family),
         "params" if act.shift[1:] == "step" else "family")
        for at, act in (("L", p.left), ("R", p.right)) if act]) for p in s.premises]
    keep = _BUT_LAST if side == "L" else _ALL, _BUT_FIRST if side == "R" else _ALL
    hooks = [(h, fn) for h in s.hooks for fn, fails in [_HOOKS[h]] if fails(table)]
    unary = len(s.premises) == 1
    expose = (f"premise does not match the {s.noun} schema",) if unary else s.expose

    def check(n: ProofNode) -> list[Violation]:
        c, out = n.conclusion, []
        a = edge(c, side) if side else None
        ok = conn is None or (a is not None and isinstance(a.formula, conn))
        if not ok:
            out.append(_bad(rule, "schema", f"principal formula must be {s.kind}"))
        v = n.param(key) if key else None
        if not isinstance(v, types):
            out.append(_bad(rule, "params", missing))
        if out:
            return out
        exposed, ant, suc = [], (), ()
        for p, (pa, ps, acts) in zip(n.premises, shapes):
            q = p.conclusion
            ant, suc, shown = ant + q.ant[pa], suc + q.suc[ps], True
            for at, operand, sign, make, fails in acts:
                f, pos = (operand(a.formula), a.pos) if operand else (v.formula, v.pos)
                if sign and (pos := shift(pos, sign, step := make(v))) is None:
                    return [_bad(rule, fails, f"step {step} does not apply to position {a.pos}")]
                e = edge(q, at)
                shown = shown and e is not None and e.formula is f and e.pos is pos
            exposed.append(shown)
        spliced = c.ant[keep[0]] == ant and c.suc[keep[1]] == suc
        if len(expose) == 1:    # one message for the exposure, and a unary rule's splice
            exposed = [all(exposed) and (spliced or not unary)]
        out = [_bad(rule, "schema", m) for shown, m in zip(exposed, expose) if not shown]
        if out:
            return out
        if not spliced:
            out.append(_bad(rule, "schema", "conclusion does not splice the premise contexts"))
        ctx = hooks and c.ant[keep[0]] + c.suc[keep[1]]
        return out + [_bad(rule, h, m) for h, hook in hooks
                      if (m := hook(table, n, a, v, ctx)) is not None]
    return check


def _structural_checker(rule: str, table: ConstraintTable):
    """The conclusion recomputed from the premise: a weakening's formula is read
    off the conclusion (a declared one must agree), an exchange index is declared."""
    r = STRUCTURAL[rule]

    def check(n: ProofNode) -> list[Violation]:
        c = n.conclusion
        value = edge(c, rule[-1]) if r.param == "pf" else n.param(r.param)
        got = structural(rule, n.premises[0].conclusion, value)
        if got is None and r.param == "at":
            return [_bad(rule, "params", "exchange index out of range")]
        if got != c:
            return [_bad(rule, "schema", r.message)]
        if r.param == "pf" and n.param("pf") not in (None, value):
            return [_bad(rule, "params", "declared formula differs from the weakened one")]
        return []
    return check


def _induction_checker(rule: str, table: ConstraintTable):
    sign, noun = ("+", "induction") if rule == "ind" else ("-", "past-induction")

    def check(n: ProofNode) -> list[Violation]:
        c, out = n.conclusion, []
        x, t = n.param("x"), n.param("t")
        if not (isinstance(x, str) and t is not None):
            out.append(_bad(rule, "params", "induction needs an eigen token and a target step"))
        if not (c.ant and c.suc):
            out.append(_bad(rule, "schema",
                            "induction conclusion needs principal formulas on both sides"))
        if out:
            return out
        a, b = c.ant[-1], c.suc[0]
        if a.formula != b.formula:
            return [_bad(rule, "schema", "left and right principal formulas differ")]
        if shift(a.pos, sign, t) != b.pos:
            return [_bad(rule, "schema", "right principal is not at the declared target step")]
        if (down := shift(a.pos, sign, step := ltl_token(x))) is None:
            return [_bad(rule, "family", f"step {step} does not apply to position {a.pos}")]
        if n.premises[0].conclusion != seq(c.ant[:-1] + (pf(a.formula, down),), (
                pf(a.formula, shift(down, sign, ltl_step(1))),) + c.suc[1:]):
            return [_bad(rule, "schema", f"premise does not match the {noun} schema")]
        m = _eigen_position(table, n, a, x, c.ant[:-1] + c.suc[1:])
        return [] if m is None else [_bad(rule, "eigen-position", m)]
    return check


def _axiom_checker(rule: str, table: ConstraintTable):
    """``ax``: A at p |- A at p; ``indax``: an induction-axiom instance."""
    def check(n: ProofNode) -> list[Violation]:
        c = n.conclusion
        if rule == "ax":
            ok = len(c.ant) == len(c.suc) == 1 and c.ant[0] == c.suc[0]
            return [] if ok else [_bad(rule, "schema", "axiom must be of shape A at p |- A at p")]
        if c.ant or len(c.suc) != 1:
            return [_bad(rule, "schema",
                         "induction axiom must conclude a single succedent formula")]
        f = c.suc[0].formula
        if isinstance(f, Imp) and isinstance(f.right, Box) and f == _induction_axiom(f.right.sub):
            return []
        return [_bad(rule, "schema", "formula is not an induction-axiom instance")]
    return check


def _compile(rule: str, table: ConstraintTable):
    """The checker of one rule under one table row: the arity, the rule's
    own conditions, then a declared base position against the principal
    formula (once nothing else failed) and the parameter keys; a step
    rule naming its step twice is read under the family's name alone."""
    s = SCHEMAS.get(rule)
    arity = len(s.premises) if s else 0 if rule in ("ax", "indax") else 1
    body = (_schema_checker if s else _structural_checker if rule in STRUCTURAL else
            _induction_checker if rule in ("ind", "pind") else _axiom_checker)(rule, table)
    side = "L" if rule in ("ind", "pind") else s.side if s and s.based else ""
    takes = _TAKES.get(rule, frozenset())
    both = takes - {"beta", "t"} | {_STEP_KEY.get(table.family, "beta")}

    def check(n: ProofNode) -> list[Violation]:
        if len(n.premises) != arity:
            return [_bad(rule, "arity", f"expected {arity} premise(s), found {len(n.premises)}")]
        out, params = body(n), n.params
        if not params:
            return out
        principal = edge(n.conclusion, side) if side and not out else None
        if principal is not None and n.param("alpha") not in (None, principal.pos):
            out.append(_bad(rule, "params", "declared base position differs from the conclusion"))
        named = both if "beta" in takes and n.param("beta") is not None \
            and n.param("t") is not None else takes
        seen: set = set()       # the keys taken so far; seen.add returns None
        return out + [_bad(rule, "params", f"parameter {k!r} given twice" if k in seen
                           else f"rule {rule} takes no parameter {k}")
                      for k, _ in params if k in seen or k not in named or seen.add(k)]
    return check


class _Checkers(dict):
    """System -> rule name -> its checker; a system's are compiled on first use."""

    def __missing__(self, sys: SystemId) -> dict:
        out = self[sys] = {r: _compile(r, TABLE[sys]) for r in RULES_BY_SYSTEM[sys]}
        out["bridge"] = lambda n: [_bad("bridge", "schema", "unexpanded double-line node")]
        return out


_CHECKERS = _Checkers()


def check_rule_instance(n: ProofNode, sys: SystemId) -> list[Violation]:
    """Local validity of one rule instance against the system's table row."""
    if check := _CHECKERS[sys].get(n.rule):
        return check(n)
    return [_bad(n.rule, "schema", f"rule {n.rule} is not part of this system")]


def _misfit(q: PFormula, fam: type) -> tuple[bool, Optional[str]]:
    """Whether ``q``'s position is off the family, and the connectives ``q`` has that it lacks."""
    lacks = "temporal" if fam not in _LINEAR_TIME and has_temporal(q.formula) else \
        "past" if fam is LtlPos and has_past(q.formula) else None
    return not isinstance(q.pos, fam), lacks


def _family_violations(n: ProofNode, sys: SystemId) -> list[Violation]:
    fam, out = TABLE[sys].family, []
    found = [(q.pos, *_misfit(q, fam)) for q in n.conclusion.pformulas()]
    if wrong := [pos for pos, off, _ in found if off]:
        out.append(_bad(n.rule, "family",
                        f"position {wrong[0]} is not in the {fam.__name__} family"))
    if lacks := [kind for _, _, kind in found if kind]:
        out.append(_bad(n.rule, "connective",
                        f"{lacks[0]} connectives are not part of this system"))
    return out


def check_proof(p: ProofNode, sys: SystemId) -> CheckReport:
    """Full proof check: every rule instance plus the global token condition.

    The token condition asks that each eigen token belong to exactly one
    rule and occur nowhere outside that rule's premise subtree.  It is
    read off an ``OccurrenceIndex``, whose one preorder pass also feeds
    the local checks: the premise subtree of the rule at preorder index i
    is the index range (i, end[i]], so the occurrence reported for its
    eigen token is the first one in preorder outside that range: the
    token's first occurrence, or else the first one past end[i].  Family
    and connectives are decided once per distinct positioned formula.
    """
    failures: list[Violation] = []
    index, fam = OccurrenceIndex(p), TABLE[sys].family
    bad = {q for q in index.formulas if any(_misfit(q, fam))}
    for i, n in enumerate(index.nodes):
        found = check_rule_instance(n, sys)
        if bad and not bad.isdisjoint(n.conclusion.pformulas()):
            found = _family_violations(n, sys) + found
        if found:
            path = index.path(i)
            failures += [Violation(path, v.rule, v.condition, v.message) for v in found]

    seen: set[Token] = set()
    for i, x in index.eigens:
        if x in seen:
            failures.append(Violation(index.path(i), "", "token-condition",
                                      f"token {x} is the eigen token of two rules"))
        seen.add(x)
    for i, x in index.eigens:
        w = index.first_outside(x, (i,))
        if w is not None:
            failures.append(Violation(
                index.path(i), "", "token-condition",
                f"eigen token {x} occurs outside its rule's premises (at "
                f"{'/'.join(map(str, index.path(w))) or 'root'})"))

    failures.sort(key=lambda v: v.path)
    return CheckReport("rejected" if failures else "accepted", tuple(failures))


# --- structural bridges (the double-deduction-line convention) ---

def _carry(xs: list, side: str, i: int, j: int, steps: list) -> None:
    """Carry the formula at index i of a side to index j by adjacent swaps."""
    xs.insert(j, xs.pop(i))
    steps += [("exc" + side, {"at": k})
              for k in (range(i, j) if i < j else range(i - 1, j - 1, -1))]


def structural_bridge(frm: Sequent, to: Sequent) -> tuple[tuple[str, dict], ...]:
    """Plan an explicit weakening/contraction/exchange chain from one sequent
    to another, as (rule, parameters) steps from the premise down; fails
    if a formula would have to be deleted.  Each side, the antecedent
    first and unless it equals its target, is planned on a list."""
    steps: list[tuple[str, dict]] = []
    for side, have, target in (("L", frm.ant, to.ant), ("R", frm.suc, to.suc)):
        if have == target:
            continue
        xs = list(have)
        for q in xs:
            if q not in target:
                raise BridgeError(q, "antecedent" if side == "L" else "succedent")
        # contract surplus occurrences: carry the two nearest the rule's
        # edge (the end of the antecedent, the head of the succedent) there
        for q in dict.fromkeys(xs):
            while xs.count(q) > max(target.count(q), 1):
                for k in (0, 1):
                    at = [i for i, y in enumerate(xs) if y == q]
                    _carry(xs, side, *((at[-1 - k], len(xs) - 1 - k)
                                       if side == "L" else (at[k], k)), steps)
                del xs[-1 if side == "L" else 0]
                steps.append(("contr" + side, {}))
        # weaken in what is missing
        for q in dict.fromkeys(target):
            for _ in range(target.count(q) - xs.count(q)):
                xs.insert(len(xs) if side == "L" else 0, q)
                steps.append(("weak" + side, {"pf": q}))
        # sort into the target order by adjacent swaps
        for k, q in enumerate(target):
            if xs[k] != q:
                _carry(xs, side, xs.index(q, k + 1), k, steps)
    return tuple(steps)


def bridge_proof(p: ProofNode, to: Sequent) -> ProofNode:
    """Extend a proof by a structural chain up to the requested sequent;
    the planned chain is built through `apply_structural`, and where it
    ends is checked."""
    if p.conclusion == to:
        return p
    for rule, params in structural_bridge(p.conclusion, to):
        p = apply_structural(rule, p, *params.values())
    if p.conclusion != to:
        raise KernelInvariantError("bridge did not reach the requested sequent")
    return p


def expand_double_lines(script: ProofScript) -> ProofNode:
    """Replace every double-line node of a script by a primitive chain.

    A node is built (a bridge by its chain) after its children, left to right,
    so the first bad bridge is the one reported.  Only the nodes above a bridge
    are built anew: bridge-free subtrees, and bridge-free scripts, are kept."""
    if all(n.rule != "bridge" for n in subproofs(script.root)):
        return script.root

    def enter(sn: ProofNode, ctx) -> list:
        if sn.rule == "bridge" and len(sn.premises) != 1:
            raise TwoseqError("double-line node must have exactly one child")
        return [(c, None) for c in sn.premises]

    def leave(sn: ProofNode, ctx, kids: tuple[ProofNode, ...]) -> ProofNode:
        if sn.rule != "bridge":
            same = all(map(is_, kids, sn.premises))
            return sn if same else ProofNode(sn.rule, sn.params, sn.conclusion, kids)
        try:
            return bridge_proof(kids[0], sn.conclusion)
        except BridgeError as e:     # a node in two places is built first at the leftmost
            path = min(path for path, m in iter_nodes(script.root) if m is sn)
            where = "/".join(map(str, path)) or "root"
            raise BridgeError(e.missing, f"{e.side} (at {where})") from e

    return rebuild(script.root, leave, None, enter)
