"""Text front end: formulas, positions, sequents, proof scripts, models.

Connectives are spelled ``~ & | ->`` with ``box dia`` for the modal pair
and ``X Y H P`` for next, prev, always-past, sometime-past.  Unary
operators bind tighter than ``&``, which binds tighter than ``|``, which
binds tighter than the right-associative ``->``.  Proof scripts are
nested s-expressions carrying explicit rule parameters and one conclusion
sequent per node.  The renderer is canonical: token sets print in
lexicographic order and ``parse(render(v)) == v`` for every value.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from .calculus import (ProofNode, ProofScript, RULES_BY_SYSTEM, ScriptNode,
                       SystemId, TABLE)
from .errors import ParseError, TwoseqError
from .positions import (LtlPos, PastPos, Position, SeqPos, SetPos)
from .syntax import (And, Box, Dia, Formula, Hist, Imp, Next, Not, Once, Or,
                     PFormula, Prev, Prop, Sequent)

_UNARY_WORDS = {"box": Box, "dia": Dia, "X": Next, "Y": Prev, "H": Hist, "P": Once}
_PARAM_KEYS = ("alpha", "beta", "t", "x", "at", "cutf", "pf")


class _Tok:
    """A token: its kind (punctuation is its own kind), text and offset."""

    __slots__ = ("kind", "value", "offset")

    def __init__(self, kind: str, value: str, offset: int):
        self.kind = kind
        self.value = value
        self.offset = offset


# what lies between tokens; a comment runs to the end of its line, so
# each stretch of whitespace and comments matches in exactly one way
_SKIP = r"[ \t\r\n]*(?:\#[^\n]*(?:\n[ \t\r\n]*|\Z))*"
_SKIP_RE = re.compile(_SKIP)
_TOKEN_RE = re.compile(_SKIP + r"""(?:
    (?P<turnstile>\|-)
  | (?P<arrow>->)
  | (?P<int>-?[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[()\[\]{};,@&|~])
  | (?P<eof>\Z))
""", re.VERBOSE)


def _error_at(text: str, offset: int, message: str) -> ParseError:
    """A ParseError at an offset; lines and columns are counted only here."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _lex(text: str) -> list[_Tok]:
    """The tokens of ``text``, each match taking the whitespace and comments
    before its token, padded with two ``eof`` tokens for one-token lookahead."""
    toks: list[_Tok] = []
    match = _TOKEN_RE.match
    i = 0
    while True:
        m = match(text, i)
        if m is None:
            j = _SKIP_RE.match(text, i).end()
            raise _error_at(text, j, f"unexpected character {text[j]!r}")
        kind = m.lastgroup
        i = m.end()
        if kind == "eof":
            break
        value = m.group(kind)
        toks.append(_Tok(value if kind == "punct" else kind, value, i - len(value)))
    end = _Tok("eof", "", len(text))
    toks += (end, end)
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text.replace("\u2212", "-")     # accept the unicode minus sign
        self.toks = _lex(self.text)
        self.i = 0

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[self.i + ahead]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def error(self, msg: str, tok: Optional[_Tok] = None) -> ParseError:
        """A ParseError at ``tok``, by default the next token."""
        return _error_at(self.text, (tok or self.peek()).offset, msg)

    def fail(self, msg: str):
        raise self.error(msg)

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            self.fail(f"expected {kind!r}, found {t.value!r}")
        return self.next()

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    # -- formulas --

    def formula(self) -> Formula:
        left = self.or_formula()
        if self.peek().kind == "arrow":
            self.next()
            return Imp(left, self.formula())
        return left

    def or_formula(self) -> Formula:
        left = self.and_formula()
        while self.peek().kind == "|":
            self.next()
            left = Or(left, self.and_formula())
        return left

    def and_formula(self) -> Formula:
        left = self.unary_formula()
        while self.peek().kind == "&":
            self.next()
            left = And(left, self.unary_formula())
        return left

    def unary_formula(self) -> Formula:
        t = self.peek()
        if t.kind == "~":
            self.next()
            return Not(self.unary_formula())
        if t.kind == "ident" and t.value in _UNARY_WORDS:
            self.next()
            return _UNARY_WORDS[t.value](self.unary_formula())
        if t.kind == "ident":
            self.next()
            return Prop(t.value)
        if t.kind == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        self.fail(f"expected a formula, found {t.value!r}")

    # -- positions --

    def token_name(self) -> str:
        t = self.expect("ident")
        return t.value

    def token_list(self, closer: str) -> tuple[str, ...]:
        items: list[str] = []
        if self.peek().kind != closer:
            items.append(self.token_name())
            while self.peek().kind == ",":
                self.next()
                items.append(self.token_name())
        self.expect(closer)
        return tuple(items)

    def position(self) -> Position:
        t = self.peek()
        if t.kind == "[":
            self.next()
            return SeqPos(self.token_list("]"))
        if t.kind == "{":
            self.next()
            return SetPos(frozenset(self.token_list("}")))
        if t.kind == "(":
            self.next()
            n = int(self.expect("int").value)
            self.expect(";")
            self.expect("{")
            first = frozenset(self.token_list("}"))
            if self.peek().kind == ";":
                self.next()
                self.expect("{")
                second = frozenset(self.token_list("}"))
                self.expect(")")
                try:
                    return PastPos(n, first, second)
                except ValueError as e:
                    self.fail(str(e))
            self.expect(")")
            if n < 0:
                self.fail("step count must be a natural number")
            return LtlPos(n, first)
        self.fail(f"expected a position, found {t.value!r}")

    # -- sequents --

    def pformula(self) -> PFormula:
        f = self.formula()
        self.expect("@")
        return PFormula(f, self.position())

    def pformula_list(self) -> tuple[PFormula, ...]:
        out = [self.pformula()]
        while self.peek().kind == ",":
            self.next()
            out.append(self.pformula())
        return tuple(out)

    def sequent(self) -> Sequent:
        ant: tuple[PFormula, ...] = ()
        if self.peek().kind not in ("turnstile",):
            ant = self.pformula_list()
        self.expect("turnstile")
        suc: tuple[PFormula, ...] = ()
        if self.peek().kind not in (")", "eof"):
            suc = self.pformula_list()
        return Sequent(ant, suc)

    # -- proof scripts --

    def script(self) -> ProofScript:
        self.expect("(")
        head = self.expect("ident")
        if head.value != "proof":
            raise self.error("proof file must start with (proof SYSTEM ...)", head)
        name = self.expect("ident")
        try:
            sys = SystemId.parse(name.value)
        except TwoseqError:
            raise self.error(f"unknown system {name.value!r}", name)
        root = self.script_node(sys)
        self.expect(")")
        return ProofScript(sys, root)

    def script_node(self, sys: SystemId) -> ScriptNode:
        opener = self.expect("(")
        head = self.expect("ident")
        if head.value == "bridge":
            concl = self._concl(sys)
            children = []
            while self.peek().kind == "(":
                children.append(self.script_node(sys))
            self.expect(")")
            if len(children) != 1:
                raise self.error("bridge nodes take exactly one child", opener)
            return ScriptNode("bridge", (), concl, tuple(children))
        if head.value != "rule":
            raise self.error("expected (rule ...) or (bridge ...)", head)
        name = self.expect("ident")
        if name.value not in RULES_BY_SYSTEM[sys]:
            raise self.error(f"unknown rule {name.value!r} for system {sys.value}", name)
        params: dict[str, object] = {}
        concl: Optional[Sequent] = None
        while self.peek().kind == "(" and self.peek(1).kind == "ident" \
                and self.peek(1).value in _PARAM_KEYS + ("concl",):
            self.next()
            key = self.expect("ident").value
            if key == "concl":
                concl = self.sequent()
                self.expect(")")
                break
            params[key] = self._param_value(key, sys)
            self.expect(")")
        if concl is None:
            self.fail("rule node is missing its (concl ...) sequent")
        children = []
        while self.peek().kind == "(":
            children.append(self.script_node(sys))
        self.expect(")")
        self._check_family(concl, sys, opener)
        return ScriptNode(name.value, tuple(sorted(params.items())), concl,
                          tuple(children))

    def _concl(self, sys: SystemId) -> Sequent:
        self.expect("(")
        key = self.expect("ident")
        if key.value != "concl":
            raise self.error("bridge nodes start with their (concl ...) sequent", key)
        out = self.sequent()
        self.expect(")")
        self._check_family(out, sys, key)
        return out

    def _param_value(self, key: str, sys: SystemId):
        if key == "x":
            return self.token_name()
        if key == "at":
            return int(self.expect("int").value)
        if key in ("cutf", "pf"):
            return self.pformula()
        if key == "t":
            pos = self.position()
            if not isinstance(pos, LtlPos):
                self.fail("step parameters are (n;{tokens}) pairs")
            return pos
        return self.position()          # alpha, beta

    def _check_family(self, s: Sequent, sys: SystemId, tok) -> None:
        fam = TABLE[sys].family
        for q in s.ant + s.suc:
            if not isinstance(q.pos, fam):
                raise self.error(f"position {q.pos} is not in the {fam.__name__} "
                                 f"family of system {sys.value}", tok)

    # -- models --


def _finish(p: _Parser, value):
    if not p.at_end():
        p.fail(f"trailing input {p.peek().value!r}")
    return value


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    return _finish(p, p.formula())


def parse_pformula(text: str) -> PFormula:
    p = _Parser(text)
    return _finish(p, p.pformula())


def parse_position(text: str) -> Position:
    p = _Parser(text)
    return _finish(p, p.position())


def parse_sequent(text: str) -> Sequent:
    p = _Parser(text)
    return _finish(p, p.sequent())


def parse_proof(text: str) -> ProofScript:
    p = _Parser(text)
    return _finish(p, p.script())


# --- rendering (canonical) ---

_PREC = {"imp": 1, "or": 2, "and": 3, "unary": 4}


def render_formula(f: Formula, prec: int = 0) -> str:
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, Not):
        return "~" + render_formula(f.sub, _PREC["unary"])
    for cls, word in ((Box, "box"), (Dia, "dia"), (Next, "X"), (Prev, "Y"),
                      (Hist, "H"), (Once, "P")):
        if isinstance(f, cls):
            return word + " " + render_formula(f.sub, _PREC["unary"])
    if isinstance(f, And):
        s = render_formula(f.left, _PREC["and"]) + " & " + \
            render_formula(f.right, _PREC["and"] + 1)
        mine = _PREC["and"]
    elif isinstance(f, Or):
        s = render_formula(f.left, _PREC["or"]) + " | " + \
            render_formula(f.right, _PREC["or"] + 1)
        mine = _PREC["or"]
    else:
        s = render_formula(f.left, _PREC["imp"] + 1) + " -> " + \
            render_formula(f.right, _PREC["imp"])
        mine = _PREC["imp"]
    return "(" + s + ")" if mine < prec else s


def render_pformula(p: PFormula) -> str:
    f = render_formula(p.formula)
    if isinstance(p.formula, (And, Or, Imp)):
        f = "(" + f + ")" if not f.startswith("(") else f
    return f"{f} @ {p.pos}"


def render_sequent(s: Sequent) -> str:
    ant = ", ".join(render_pformula(q) for q in s.ant)
    suc = ", ".join(render_pformula(q) for q in s.suc)
    if ant and suc:
        return f"{ant} |- {suc}"
    if ant:
        return f"{ant} |-"
    if suc:
        return f"|- {suc}"
    return "|-"


def _render_param(key: str, value) -> str:
    if key in ("cutf", "pf"):
        return f"({key} {render_pformula(value)})"
    return f"({key} {value})"


def render_proof(sys: SystemId, p: Union[ProofNode, ScriptNode]) -> str:
    lines: list[str] = [f"(proof {sys.value}"]

    def rec(n, depth: int):
        pad = "  " * depth
        if n.rule == "bridge":
            lines.append(f"{pad}(bridge (concl {render_sequent(n.conclusion)})")
        else:
            params = " ".join(_render_param(k, v) for k, v in
                              sorted(n.params, key=lambda kv: _PARAM_KEYS.index(kv[0])))
            head = f"{pad}(rule {n.rule}"
            if params:
                head += " " + params
            lines.append(head + f" (concl {render_sequent(n.conclusion)})")
        kids = n.premises if isinstance(n, ProofNode) else n.children
        for c in kids:
            rec(c, depth + 1)
        lines[-1] += ")"

    rec(p, 1)
    lines[-1] += ")"
    return "\n".join(lines)


# --- model files ---

_PROPSET_RE = re.compile(r"\{[^}]*\}")


def _parse_propset(text: str, line_no: int) -> frozenset[str]:
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ParseError("expected a {..} proposition set", line_no, 1)
    inner = body[1:-1].strip()
    if not inner:
        return frozenset()
    return frozenset(x.strip() for x in inner.split(",") if x.strip())


def parse_model(text: str):
    """Parse a `.2sm` file into a graph model or a lasso word."""
    from .ltl import LassoWord
    from .semantics import GraphModel

    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty model file", 1, 1)

    if lines[0][1].startswith("prefix:"):
        no, ln = lines[0]
        m = re.match(r"prefix:(.*);\s*loop:(.*)$", ln)
        if not m:
            raise ParseError("lasso line must be 'prefix: ... ; loop: ...'", no, 1)
        prefix = tuple(_parse_propset(x, no) for x in _PROPSET_RE.findall(m.group(1)))
        loop = tuple(_parse_propset(x, no) for x in _PROPSET_RE.findall(m.group(2)))
        if not loop:
            raise ParseError("lasso loop must be nonempty", no, 1)
        return LassoWord(prefix, loop)

    nodes: tuple[str, ...] = ()
    root: Optional[str] = None
    edges: set[tuple[str, str]] = set()
    valuation: dict[str, frozenset[str]] = {}
    for no, ln in lines:
        if ln.startswith("nodes:"):
            nodes = tuple(ln[len("nodes:"):].split())
        elif ln.startswith("root:"):
            root = ln[len("root:"):].strip()
        elif ln.startswith("edges:"):
            for part in ln[len("edges:"):].split():
                if "->" not in part:
                    raise ParseError(f"bad edge {part!r}", no, 1)
                a, b = part.split("->", 1)
                edges.add((a, b))
        elif ln.startswith("val:"):
            rest = ln[len("val:"):].strip()
            name, _, setpart = rest.partition(" ")
            valuation[name] = _parse_propset(setpart, no)
        else:
            raise ParseError(f"unknown model line {ln!r}", no, 1)
    if not nodes:
        raise ParseError("graph model needs a nodes: line", lines[0][0], 1)
    if root is None:
        root = nodes[0]
    if root not in nodes:
        raise ParseError(f"root {root!r} is not a node", lines[0][0], 1)
    for a, b in edges:
        if a not in nodes or b not in nodes:
            raise ParseError(f"edge {a}->{b} mentions unknown nodes", lines[0][0], 1)
    for n in nodes:
        valuation.setdefault(n, frozenset())
    return GraphModel(nodes, frozenset(edges), root, valuation)


def render_model(model) -> str:
    from .ltl import LassoWord
    from .semantics import GraphModel

    def propset(s) -> str:
        return "{" + ",".join(sorted(s)) + "}"

    if isinstance(model, LassoWord):
        pre = " ".join(propset(s) for s in model.prefix)
        loop = " ".join(propset(s) for s in model.loop)
        return f"prefix: {pre} ; loop: {loop}".replace("prefix:  ;", "prefix: ;")
    assert isinstance(model, GraphModel)
    lines = ["nodes: " + " ".join(model.nodes), "root: " + model.root]
    if model.edges:
        lines.append("edges: " + " ".join(
            f"{a}->{b}" for a, b in sorted(model.edges)))
    for n in model.nodes:
        lines.append(f"val: {n} {propset(model.valuation[n])}")
    return "\n".join(lines)
