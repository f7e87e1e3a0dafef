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
constructor (``apply_rule``, behind the named wrappers), the checker
(``_check_schema``) and both mix steps of cut elimination (``reapply``,
and the principal reduction, which cuts the operands ``Active`` names).
A new rule is one entry here, its name in ``RULES_BY_SYSTEM`` and, for
building proofs by hand, a wrapper; a new side condition is a hook.

The six structural rules share one step function, ``structural`` (a
rule's conclusion from its premise), and a row each in ``STRUCTURAL``
(parameter, constructor error, checker message); their constructors, the
checker and bridge synthesis all go through it.  Induction and the
axioms are written out.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .errors import BridgeError, KernelInvariantError, TwoseqError
from .positions import (LtlPos, PastPos, Position, SeqPos, SetPos, Token,
                        concat, initials, ltl_add, ltl_step, ltl_token,
                        past_add, past_sub, related, seqpos)
from .syntax import (And, Box, Dia, Formula, Hist, Imp, Next, Not, Once, Or,
                     PFormula, Prev, Sequent, has_past, has_temporal, pf,
                     seq, tokens_of)


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
        aliases = {
            "K": cls.K, "D": cls.D, "T": cls.T, "K4": cls.K4, "S4": cls.S4,
            "S42": cls.S42, "LTL": cls.LTL,
            "LTL_INDAX": cls.LTL_INDAX, "LTLI": cls.LTL_INDAX,
            "LTLP": cls.LTLP, "LTL_P": cls.LTLP,
        }
        if key not in aliases:
            raise TwoseqError(f"unknown system: {text!r}")
        return aliases[key]


CORE_SYSTEMS = (SystemId.K, SystemId.D, SystemId.T, SystemId.K4, SystemId.S4)


@dataclass(frozen=True)
class ConstraintTable:
    """One row of the per-system constraint table."""

    family: type
    box_left_shape: str        # any | empty-or-singleton | singleton | nonempty
    context_demand: bool       # boxL/diaR need a context formula below the step
    cut_guard: bool            # cut position must be an initial of a context
    allow_next: bool
    allow_past: bool
    induction: str             # none | rule | axiom


TABLE: dict[SystemId, ConstraintTable] = {
    SystemId.K: ConstraintTable(SeqPos, "singleton", True, True, False, False, "none"),
    SystemId.D: ConstraintTable(SeqPos, "singleton", False, False, False, False, "none"),
    SystemId.T: ConstraintTable(SeqPos, "empty-or-singleton", False, False, False, False, "none"),
    SystemId.K4: ConstraintTable(SeqPos, "nonempty", True, True, False, False, "none"),
    SystemId.S4: ConstraintTable(SeqPos, "any", False, False, False, False, "none"),
    SystemId.S42: ConstraintTable(SetPos, "any", False, False, False, False, "none"),
    SystemId.LTL: ConstraintTable(LtlPos, "any", False, False, True, False, "rule"),
    SystemId.LTL_INDAX: ConstraintTable(LtlPos, "any", False, False, True, False, "axiom"),
    SystemId.LTLP: ConstraintTable(PastPos, "any", False, False, True, True, "rule"),
}


@dataclass(frozen=True)
class StructuralRule:
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

RULES_BY_SYSTEM: dict[SystemId, tuple[str, ...]] = {
    SystemId.K: _COMMON, SystemId.D: _COMMON, SystemId.T: _COMMON,
    SystemId.K4: _COMMON, SystemId.S4: _COMMON, SystemId.S42: _COMMON,
    SystemId.LTL: _COMMON + ("nextL", "nextR", "ind"),
    SystemId.LTL_INDAX: _COMMON + ("nextL", "nextR", "indax"),
    SystemId.LTLP: _COMMON + ("nextL", "nextR", "prevL", "prevR",
                              "histL", "histR", "onceL", "onceR",
                              "ind", "pind"),
}

_ARITY = {"ax": 0, "indax": 0}       # rules outside the schema table


class _RuleTree:
    """Structural ``==`` over an explicit stack, so comparing deep trees
    costs no C stack, and a hash of the root alone, which equal trees
    share."""

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


@dataclass(frozen=True, eq=False)
class ProofNode(_RuleTree):
    """A rule instance: identifier, explicit parameters, conclusion, premises."""

    rule: str
    params: tuple[tuple[str, object], ...]
    conclusion: Sequent
    premises: tuple["ProofNode", ...] = ()

    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class Violation:
    path: tuple[int, ...]
    rule: str
    condition: str
    message: str

    def __str__(self) -> str:
        where = "/".join(map(str, self.path)) or "root"
        return f"at {where} [{self.rule}] {self.condition}: {self.message}"


@dataclass(frozen=True)
class CheckReport:
    verdict: str
    failures: tuple[Violation, ...]

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "failures": [
                {"path": list(v.path), "rule": v.rule,
                 "condition": v.condition, "message": v.message}
                for v in self.failures
            ],
        }

    def render_text(self) -> str:
        if self.accepted:
            return "accepted"
        lines = [f"rejected: {len(self.failures)} failure(s)"]
        lines.extend(f"  {v}" for v in self.failures)
        return "\n".join(lines)


def report(failures: Iterable[Violation]) -> CheckReport:
    fs = tuple(failures)
    return CheckReport("accepted" if not fs else "rejected", fs)


# --- script trees (textual proofs may contain double-line bridge nodes) ---

@dataclass(frozen=True, eq=False)
class ScriptNode(_RuleTree):
    rule: str                       # a rule name or "bridge"
    params: tuple[tuple[str, object], ...]
    conclusion: Sequent
    children: tuple["ScriptNode", ...] = ()

    @property
    def premises(self) -> tuple["ScriptNode", ...]:
        return self.children


@dataclass(frozen=True)
class ProofScript:
    system: SystemId
    root: ScriptNode


def node(rule: str, params: dict, conclusion: Sequent,
         premises: Iterable[ProofNode] = ()) -> ProofNode:
    items = tuple(sorted(params.items()))
    return ProofNode(rule, items, conclusion, tuple(premises))


def height(p: ProofNode) -> int:
    best: dict[int, int] = {}
    stack = [(p, False)]
    while stack:
        n, done = stack.pop()
        if done:
            best[id(n)] = 1 + max((best[id(c)] for c in n.premises), default=0)
        else:
            stack.append((n, True))
            stack.extend((c, False) for c in n.premises)
    return best[id(p)]


def iter_nodes(p: ProofNode):
    """Yield (path, node) pairs over the whole tree."""
    stack: list[tuple[tuple[int, ...], ProofNode]] = [((), p)]
    while stack:
        path, n = stack.pop()
        yield path, n
        for i, c in enumerate(n.premises):
            stack.append((path + (i,), c))


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

    Node ``i`` in preorder has the strict descendants ``(i, end[i]]``;
    ``at`` maps each token to the sorted preorder indices of the nodes
    whose conclusion carries it, and ``eigens`` lists the eigen rules as
    (index, token).  Paths are rebuilt from parent links on demand.
    """

    def __init__(self, p: ProofNode):
        self.nodes: list[ProofNode] = []
        self.parent: list[int] = []
        self.slot: list[int] = []           # which premise of its parent
        self.at: dict[Token, list[int]] = {}
        self.eigens: list[tuple[int, Token]] = []
        stack = [(p, -1, 0)]
        while stack:
            n, up, k = stack.pop()
            i = len(self.nodes)
            self.nodes.append(n)
            self.parent.append(up)
            self.slot.append(k)
            for t in tokens_of(n.conclusion):
                self.at.setdefault(t, []).append(i)
            x = eigen_token(n)
            if x is not None:
                self.eigens.append((i, x))
            stack.extend((c, i, k) for k, c in enumerate(n.premises))
        self.end = list(range(len(self.nodes)))
        for i in range(len(self.nodes) - 1, 0, -1):
            up = self.parent[i]
            if self.end[i] > self.end[up]:
                self.end[up] = self.end[i]

    def path(self, i: int) -> tuple[int, ...]:
        out = []
        while i > 0:
            out.append(self.slot[i])
            i = self.parent[i]
        return tuple(reversed(out))

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
    out: set[Token] = set()
    for n in subproofs(p):
        out |= tokens_of(n.conclusion)
        for _, v in n.params:
            if isinstance(v, Position):
                out |= v.tokens()
            elif isinstance(v, PFormula):
                out |= v.pos.tokens()
            elif n.rule in EIGEN_RULES and isinstance(v, str):
                out.add(v)
    return frozenset(out)


def eigen_token(n: ProofNode) -> Optional[Token]:
    if n.rule in EIGEN_RULES:
        return n.param("x")
    return None


# --- position plumbing shared by the rule schemas ---

# the family of the steps a position moves forward by
_STEP_FAMILY = {SeqPos: SeqPos, SetPos: SetPos, LtlPos: LtlPos, PastPos: LtlPos}


def _fits(pos, sign: str, step) -> bool:
    if sign == "-":
        return type(pos) is PastPos and type(step) is LtlPos
    return type(step) is _STEP_FAMILY.get(type(pos))


def shift(pos: Position, sign: str, step) -> Optional[Position]:
    """``pos`` moved forward (``+``) or back (``-``) by ``step``, or None
    when the step is not of a family that moves the position."""
    if not _fits(pos, sign, step):
        return None
    if sign == "-":
        return past_sub(pos, step.steps, step.future)
    if isinstance(pos, SeqPos):
        return concat(pos, step)
    if isinstance(pos, SetPos):
        return SetPos(pos.items | step.items)
    if isinstance(pos, LtlPos):
        return ltl_add(pos, step)
    return past_add(pos, step.steps, step.future)


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

@dataclass(frozen=True)
class Active:
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


@dataclass(frozen=True)
class Premise:
    left: Optional[Active] = None       # the last antecedent formula
    right: Optional[Active] = None      # the first succedent formula


@dataclass(frozen=True)
class RuleSchema:
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

EIGEN_RULES = tuple(r for r, s in SCHEMAS.items() if "x" in s.params) + ("ind", "pind")


# the name the declared step goes by: t over linear time, beta otherwise
_STEP_KEY = {LtlPos: "t", PastPos: "t"}


def _step(what: str, values: dict, family: type):
    """The step a position map moves by: the declared one, one tick, or
    the eigen token as a step of the position family."""
    if what == "step":
        return values["step"]
    if what == "1":
        return ltl_step(1)
    if family is SeqPos:
        return seqpos(values["x"])
    return SetPos(frozenset((values["x"],))) if family is SetPos else ltl_token(values["x"])


def edge(s: Sequent, side: str) -> Optional[PFormula]:
    """The formula a rule acts on: the last antecedent (L) or the first
    succedent (R) formula, if any."""
    xs = s.ant[-1:] if side == "L" else s.suc[:1]
    return xs[0] if xs else None


def _splice(s: RuleSchema, prems: Sequence[Sequent],
            principal: Optional[PFormula]) -> Sequent:
    """The conclusion: the premise contexts in order around the principal."""
    ant: tuple[PFormula, ...] = ()
    suc: tuple[PFormula, ...] = ()
    for q, shape in zip(prems, s.premises):
        ant += q.ant[:-1] if shape.left else q.ant
        suc += q.suc[1:] if shape.right else q.suc
    if s.side == "L":
        ant += (principal,)
    elif s.side == "R":
        suc = (principal,) + suc
    return Sequent(ant, suc)


def _base(rule: str, pos: Position, act: Active, values: dict,
          alpha: Optional[Position]) -> Position:
    """The principal position an active formula at ``pos`` comes from."""
    if not act.shift:
        return pos
    sign, what = act.shift[0], act.shift[1:]
    step = _step(what, values, type(pos))
    if alpha is None:
        if what == "step" and not isinstance(pos, SeqPos):
            raise TwoseqError(f"{rule} off sequence positions needs an explicit alpha")
        alpha = _unshift(pos, sign, step)
    if shift(alpha, sign, step) != pos:
        raise TwoseqError(f"{rule}: alpha and the step do not reach the premise position")
    return alpha


def apply_rule(rule: str, premises: Sequence[ProofNode], *,
               alpha: Optional[Position] = None, step=None,
               x: Optional[Token] = None, cutf: Optional[PFormula] = None,
               other: Optional[Formula] = None) -> ProofNode:
    """Forward application of a schema rule: the principal formula is built
    from the premises' active formulas (``other`` supplies a binary operand
    no premise carries) at the position the inverted position maps give
    (``alpha`` where a declared step leaves it ambiguous), and the
    conclusion is spliced around it."""
    s = SCHEMAS[rule]
    values = {"step": step, "x": x, "cutf": cutf}
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


def cut(p1: ProofNode, p2: ProofNode, cutf: PFormula) -> ProofNode:
    return apply_rule("cut", (p1, p2), cutf=cutf)


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
    r = STRUCTURAL[rule]
    s = structural(rule, p.conclusion, value)
    if s is None:
        raise TwoseqError(f"{rule}: {r.error}")
    return ProofNode(rule, ((r.param, value),) if r.param else (), s, (p,))


def weak_left(p: ProofNode, extra: PFormula) -> ProofNode:
    return apply_structural("weakL", p, extra)


def weak_right(p: ProofNode, extra: PFormula) -> ProofNode:
    return apply_structural("weakR", p, extra)


def contr_left(p: ProofNode) -> ProofNode:
    return apply_structural("contrL", p)


def contr_right(p: ProofNode) -> ProofNode:
    return apply_structural("contrR", p)


def exc_left(p: ProofNode, at: int) -> ProofNode:
    return apply_structural("excL", p, at)


def exc_right(p: ProofNode, at: int) -> ProofNode:
    return apply_structural("excR", p, at)


def neg_left(p: ProofNode) -> ProofNode:
    return apply_rule("negL", (p,))


def neg_right(p: ProofNode) -> ProofNode:
    return apply_rule("negR", (p,))


def and_left1(p: ProofNode, other: Formula) -> ProofNode:
    return apply_rule("andL1", (p,), other=other)


def and_left2(p: ProofNode, other: Formula) -> ProofNode:
    return apply_rule("andL2", (p,), other=other)


def and_right(p1: ProofNode, p2: ProofNode) -> ProofNode:
    return apply_rule("andR", (p1, p2))


def or_left(p1: ProofNode, p2: ProofNode) -> ProofNode:
    return apply_rule("orL", (p1, p2))


def or_right1(p: ProofNode, other: Formula) -> ProofNode:
    return apply_rule("orR1", (p,), other=other)


def or_right2(p: ProofNode, other: Formula) -> ProofNode:
    return apply_rule("orR2", (p,), other=other)


def imp_left(p1: ProofNode, p2: ProofNode) -> ProofNode:
    # p1 holds the conclusion-side operand, p2 the antecedent-side one
    return apply_rule("impL", (p1, p2))


def imp_right(p: ProofNode) -> ProofNode:
    return apply_rule("impR", (p,))


def box_left(p: ProofNode, beta, alpha=None) -> ProofNode:
    """Box-left: the premise operand sits one declared step up."""
    return apply_rule("boxL", (p,), step=beta, alpha=alpha)


def box_right(p: ProofNode, x: Token) -> ProofNode:
    return apply_rule("boxR", (p,), x=x)


def dia_left(p: ProofNode, x: Token) -> ProofNode:
    return apply_rule("diaL", (p,), x=x)


def dia_right(p: ProofNode, beta, alpha=None) -> ProofNode:
    return apply_rule("diaR", (p,), step=beta, alpha=alpha)


def once_right(p: ProofNode, s_pos: PastPos, t: LtlPos) -> ProofNode:
    return apply_rule("onceR", (p,), step=t, alpha=s_pos)


def hist_right(p: ProofNode, x: Token) -> ProofNode:
    return apply_rule("histR", (p,), x=x)


def next_left(p: ProofNode) -> ProofNode:
    return apply_rule("nextL", (p,))


def next_right(p: ProofNode) -> ProofNode:
    return apply_rule("nextR", (p,))


def prev_right(p: ProofNode) -> ProofNode:
    return apply_rule("prevR", (p,))


def ind(p: ProofNode, x: Token, t: LtlPos) -> ProofNode:
    """Temporal induction: base position read off the premise eigen step."""
    return _induction("ind", "+", p, x, t)


def pind(p: ProofNode, x: Token, t: LtlPos) -> ProofNode:
    return _induction("pind", "-", p, x, t)


def _induction(rule: str, sign: str, p: ProofNode, x: Token, t: LtlPos) -> ProofNode:
    s = p.conclusion
    a, b = s.ant[-1], s.suc[0]
    if a.formula != b.formula:
        raise TwoseqError(f"{rule}: premise formulas differ")
    base = _base(rule, a.pos, Active(sign + "x"), {"x": x}, None)
    if shift(a.pos, sign, ltl_step(1)) != b.pos:
        raise TwoseqError(f"{rule}: premise positions are not s{sign}x and s{sign}x{sign}1")
    new_l = pf(a.formula, base)
    new_r = pf(a.formula, shift(base, sign, t))
    return node(rule, {"alpha": base, "x": x, "t": t},
                seq(s.ant[:-1] + (new_l,), (new_r,) + s.suc[1:]), (p,))


def indax(formula: Formula, s_pos: LtlPos) -> ProofNode:
    shape = Imp(And(formula, Box(Imp(formula, Next(formula)))), Box(formula))
    return node("indax", {}, seq((), (pf(shape, s_pos),)))


# --- local rule checking ---

def _seq_positions(pfs: Iterable[PFormula]) -> list[SeqPos]:
    # positions of another family are reported by the family check; they
    # never witness a sequence-position side condition
    return [q.pos for q in pfs if isinstance(q.pos, SeqPos)]


# the box-left step sizes each shape admits
_SHAPES = {"any": lambda k: True, "singleton": lambda k: k == 1,
           "empty-or-singleton": lambda k: k <= 1, "nonempty": lambda k: k >= 1}


# constraint-table hooks: (table row, node, principal, parameters, context
# of the principal) -> the violation message, if any
def _beta_shape(table, n, a, values, ctx) -> Optional[str]:
    beta = values["step"]
    if table.family is not SeqPos:
        return None
    k = len(beta.items) if isinstance(beta, SeqPos) else len(beta.tokens())
    if _SHAPES[table.box_left_shape](k):
        return None
    return f"step {beta} violates the '{table.box_left_shape}' shape"


def _context_demand(table, n, a, values, ctx) -> Optional[str]:
    """K/K4: some context formula sits at or below alpha+beta."""
    if table.family is not SeqPos or not table.context_demand:
        return None
    ab = shift(a.pos, "+", values["step"])
    if isinstance(ab, SeqPos):
        for q in _seq_positions(ctx):
            if related(ab, q, "prefix"):
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


def _eigen_position(table, n, a, values, ctx) -> Optional[str]:
    x, base = values["x"], a.pos
    if table.family is SeqPos:
        eig = concat(base, seqpos(x))
        if eig in initials(_seq_positions(ctx)):
            return f"eigenposition {eig} occurs among the context initials"
        return None
    if x in base.tokens():
        return f"eigen token {x} occurs in the base position"
    if any(x in q.pos.tokens() for q in ctx):
        return f"eigen token {x} occurs in a context position"
    return None


def _cut_position(table, n, a, values, ctx) -> Optional[str]:
    cutf = values["cutf"]
    p1, p2 = (q.conclusion for q in n.premises)
    if not table.cut_guard or cut_position_holds(cutf, p1, p2):
        return None
    return f"cut position {cutf.pos} is not an initial of either context"


_HOOKS = {"beta-shape": _beta_shape, "context-demand": _context_demand,
          "eigen-position": _eigen_position, "cut-position": _cut_position}

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


def _check_schema(n: ProofNode, s: RuleSchema, sys: SystemId,
                  prems: list[Sequent], expect) -> None:
    """The generic check: principal formula, parameters, the expected
    active formulas of each premise, the context splice, then the hooks."""
    table = TABLE[sys]
    family = table.family
    c = n.conclusion
    a = edge(c, s.side) if s.side else None
    # messages are formatted only on failure: this runs once per node
    ok = s.connective is None or (a is not None and isinstance(a.formula, s.connective))
    if not ok:
        expect(False, "schema", f"principal formula must be {s.kind}")
    values = {}
    for kind in s.params:
        values[kind] = v = n.param(_STEP_KEY.get(family, "beta") if kind == "step" else kind)
        types, message = _PARAM_KINDS[kind]
        ok &= expect(isinstance(v, types), "params", message)
    if not ok:
        return

    exposed = []
    for q, shape in zip(prems, s.premises):
        shown = True
        for side, act in (("L", shape.left), ("R", shape.right)):
            if act is None:
                continue
            if act.operand == "cutf":
                want = values["cutf"]
            else:
                pos = a.pos
                if act.shift:
                    sign, what = act.shift[0], act.shift[1:]
                    step = _step(what, values, family)
                    pos = shift(a.pos, sign, step)
                    if pos is None:
                        expect(False, "params" if what == "step" else "family",
                               f"step {step} does not apply to position {a.pos}")
                        return
                want = pf(getattr(a.formula, act.operand), pos)
            shown = shown and edge(q, side) == want
        exposed.append(shown)
    if len(prems) == 1:
        ok = exposed[0] and c == _splice(s, prems, a)
        if not ok:
            expect(False, "schema", f"premise does not match the {s.noun} schema")
    else:
        checks = zip(exposed, s.expose) if len(s.expose) > 1 else \
            [(all(exposed), s.expose[0])]
        for shown, message in checks:
            ok &= expect(shown, "schema", message)
        if ok:
            expect(c == _splice(s, prems, a), "schema",
                   "conclusion does not splice the premise contexts")
    if ok and s.hooks:
        ctx = list(c.ant[:-1]) + list(c.suc) if s.side == "L" else \
            list(c.ant) + list(c.suc[1:])
        for condition in s.hooks:
            message = _HOOKS[condition](table, n, a, values, ctx)
            expect(message is None, condition, message or "")


def check_rule_instance(n: ProofNode, sys: SystemId) -> list[Violation]:
    """Local validity of one rule instance against the system's table row."""
    out: list[Violation] = []

    def bad(condition: str, message: str):
        out.append(Violation((), n.rule, condition, message))

    if n.rule == "bridge":
        bad("schema", "unexpanded double-line node")
        return out
    if n.rule not in RULES_BY_SYSTEM[sys]:
        bad("schema", f"rule {n.rule} is not part of this system")
        return out
    s = SCHEMAS.get(n.rule)
    want = len(s.premises) if s is not None else _ARITY.get(n.rule, 1)
    if len(n.premises) != want:
        bad("arity", f"expected {want} premise(s), found {len(n.premises)}")
        return out

    c = n.conclusion
    prems = [q.conclusion for q in n.premises]

    def expect(cond: bool, condition: str, message: str) -> bool:
        if not cond:
            bad(condition, message)
        return cond

    if s is not None:
        _check_schema(n, s, sys, prems, expect)

    elif n.rule == "ax":
        expect(len(c.ant) == 1 and len(c.suc) == 1 and c.ant[0] == c.suc[0],
               "schema", "axiom must be of shape A at p |- A at p")

    elif n.rule in STRUCTURAL:
        # recompute the conclusion: a weakening's formula is read off the
        # conclusion (a declared one must agree), an exchange index is declared
        r = STRUCTURAL[n.rule]
        value = edge(c, n.rule[-1]) if r.param == "pf" else n.param(r.param)
        got = structural(n.rule, prems[0], value)
        if got is None and r.param == "at":
            bad("params", "exchange index out of range")
        elif expect(got == c, "schema", r.message) and r.param == "pf":
            declared = n.param("pf")
            expect(declared is None or declared == value, "params",
                   "declared formula differs from the weakened one")

    elif n.rule in ("ind", "pind"):
        p1, = prems
        sign = "+" if n.rule == "ind" else "-"
        x, t = n.param("x"), n.param("t")
        ok = expect(isinstance(x, str) and t is not None, "params",
                    "induction needs an eigen token and a target step")
        ok &= expect(bool(c.ant) and bool(c.suc), "schema",
                     "induction conclusion needs principal formulas on both sides")
        if ok:
            a, b = c.ant[-1], c.suc[0]
            ok = expect(a.formula == b.formula, "schema",
                        "left and right principal formulas differ")
        if ok:
            ok = expect(shift(a.pos, sign, t) == b.pos, "schema",
                        "right principal is not at the declared target step")
        if ok:
            down = shift(a.pos, sign, ltl_token(x))
            up_l = pf(a.formula, down)
            up_r = pf(a.formula, shift(down, sign, ltl_step(1)))
            noun = "induction" if sign == "+" else "past-induction"
            ok = expect(p1 == seq(c.ant[:-1] + (up_l,), (up_r,) + c.suc[1:]),
                        "schema", f"premise does not match the {noun} schema")
        if ok:
            msg = _eigen_position(TABLE[sys], n, a, {"x": x},
                                  list(c.ant[:-1]) + list(c.suc[1:]))
            expect(msg is None, "eigen-position", msg or "")
    elif n.rule == "indax":
        ok = expect(not c.ant and len(c.suc) == 1, "schema",
                    "induction axiom must conclude a single succedent formula")
        if ok:
            f = c.suc[0].formula
            good = (isinstance(f, Imp) and isinstance(f.left, And)
                    and isinstance(f.right, Box)
                    and isinstance(f.left.right, Box)
                    and isinstance(f.left.right.sub, Imp)
                    and isinstance(f.left.right.sub.right, Next)
                    and f.left.left == f.right.sub
                    and f.left.right.sub.left == f.left.left
                    and f.left.right.sub.right.sub == f.left.left)
            expect(good, "schema", "formula is not an induction-axiom instance")
    else:
        bad("schema", f"unknown rule {n.rule}")

    # declared base positions, when present, must agree with the conclusion
    alpha = n.param("alpha")
    side = "L" if n.rule in ("ind", "pind") else s.side if s and s.based else ""
    if side and alpha is not None and not out:
        principal = edge(c, side)
        if principal is not None and principal.pos != alpha:
            bad("params", "declared base position differs from the conclusion")
    takes = _TAKES.get(n.rule, frozenset())
    if "beta" in takes and n.param("beta") is not None and n.param("t") is not None:
        # a step rule naming its step twice: only the family's name is read
        takes = takes - {"beta", "t"} | {_STEP_KEY.get(TABLE[sys].family, "beta")}
    for key, _ in n.params:
        if key not in takes:
            bad("params", f"rule {n.rule} takes no parameter {key}")
    return out



def _family_violations(n: ProofNode, sys: SystemId) -> list[Violation]:
    table = TABLE[sys]
    out = []
    for q in n.conclusion.pformulas():
        if not isinstance(q.pos, table.family):
            out.append(Violation((), n.rule, "family",
                                 f"position {q.pos} is not in the {table.family.__name__} family"))
            break
    for q in n.conclusion.pformulas():
        f = q.formula
        if not table.allow_next and has_temporal(f):
            out.append(Violation((), n.rule, "connective",
                                 "temporal connectives are not part of this system"))
            break
        if table.allow_next and not table.allow_past and has_past(f):
            out.append(Violation((), n.rule, "connective",
                                 "past connectives are not part of this system"))
            break
    return out


def check_proof(p: ProofNode, sys: SystemId) -> CheckReport:
    """Full proof check: every rule instance plus the global token condition.

    The token condition asks that each eigen token belong to exactly one
    rule and occur nowhere outside that rule's premise subtree.  It is
    read off an ``OccurrenceIndex``, whose one preorder pass also feeds
    the local checks: the premise subtree of the rule at preorder index i
    is the index range (i, end[i]], so the occurrence reported for its
    eigen token is the first one in preorder outside that range: the
    token's first occurrence, or else the first one past end[i].
    """
    failures: list[Violation] = []
    index = OccurrenceIndex(p)
    for i, n in enumerate(index.nodes):
        found = _family_violations(n, sys) + check_rule_instance(n, sys)
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
    return report(failures)


# --- structural bridges (the double-deduction-line convention) ---

class _BridgeBuilder:
    """Extends a proof one structural step at a time, reading the sequent
    it has reached off the proof."""

    def __init__(self, proof: ProofNode):
        self.proof = proof

    def _side(self, side: str) -> tuple[PFormula, ...]:
        s = self.proof.conclusion
        return s.ant if side == "L" else s.suc

    def _move(self, side: str, i: int, j: int):
        """Carry the formula at index i to index j by adjacent swaps."""
        for k in (range(i, j) if i < j else range(i - 1, j - 1, -1)):
            self.proof = apply_structural("exc" + side, self.proof, k)

    def run(self, to: Sequent) -> ProofNode:
        for side, target in (("L", to.ant), ("R", to.suc)):
            for q in self._side(side):
                if q not in target:
                    raise BridgeError(q, "antecedent" if side == "L" else "succedent")
            # contract surplus occurrences: carry the two nearest the rule's
            # edge (the end of the antecedent, the head of the succedent) there
            for q in dict.fromkeys(self._side(side)):
                while self._side(side).count(q) > max(target.count(q), 1):
                    for k in (0, 1):
                        xs = self._side(side)
                        at = [i for i, y in enumerate(xs) if y == q]
                        self._move(side, *((at[-1 - k], len(xs) - 1 - k)
                                           if side == "L" else (at[k], k)))
                    self.proof = apply_structural("contr" + side, self.proof)
            # weaken in what is missing
            for q in dict.fromkeys(target):
                for _ in range(target.count(q) - self._side(side).count(q)):
                    self.proof = apply_structural("weak" + side, self.proof, q)
            # sort into the target order by adjacent swaps
            for k, q in enumerate(target):
                xs = self._side(side)
                if xs[k] != q:
                    self._move(side, xs.index(q, k + 1), k)
        if self.proof.conclusion != to:
            raise KernelInvariantError("bridge did not reach the requested sequent")
        return self.proof


def structural_bridge(frm: Sequent, to: Sequent) -> tuple[tuple[str, dict], ...]:
    """Plan an explicit weakening/contraction/exchange chain from one sequent
    to another, as (rule, parameters) steps from the premise down; fails
    if a formula would have to be deleted."""
    leaf = ProofNode("premise", (), frm)
    p, steps = _BridgeBuilder(leaf).run(to), []
    while p is not leaf:
        steps.append((p.rule, dict(p.params)))
        p = p.premises[0]
    return tuple(reversed(steps))


def bridge_proof(p: ProofNode, to: Sequent) -> ProofNode:
    """Extend a proof by a structural chain up to the requested sequent."""
    return p if p.conclusion == to else _BridgeBuilder(p).run(to)


def expand_double_lines(script: ProofScript) -> ProofNode:
    """Replace every double-line node of a script by a primitive chain.

    A node is built (a bridge by its chain) after its children, left to
    right, so the first bad bridge is the one reported; the path in its
    message is read off the parent links the walk's contexts hold.
    """
    def enter(sn: ScriptNode, ctx) -> list:
        if sn.rule == "bridge" and len(sn.children) != 1:
            raise TwoseqError("double-line node must have exactly one child")
        return [(c, (ctx, k)) for k, c in enumerate(sn.children)]

    def leave(sn: ScriptNode, ctx, kids: tuple[ProofNode, ...]) -> ProofNode:
        if sn.rule != "bridge":
            return ProofNode(sn.rule, sn.params, sn.conclusion, kids)
        try:
            return bridge_proof(kids[0], sn.conclusion)
        except BridgeError as e:
            path = []
            while ctx is not None:
                ctx, k = ctx
                path.append(k)
            where = "/".join(map(str, reversed(path))) or "root"
            raise BridgeError(e.missing, f"{e.side} (at {where})") from e

    return rebuild(script.root, leave, None, enter)
