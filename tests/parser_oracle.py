"""The recursive-descent parser of the text formats, as it was before the
parser kept its own stacks: the oracle the stack-based parser in
``twoseq.parser`` is compared with (same values, same errors at the same
line and column).

It lexes every token into an object with its offset and recurses once
per nesting level of a formula or a proof script, so compare it only on
inputs of modest depth.  Its entry points raise the recursion limit for
the length of the call, and only then: the kernel runs under Python's
default limit everywhere else in the tests.
"""

from __future__ import annotations

import re
import sys
from typing import NamedTuple, Optional

from twoseq.calculus import (ProofScript, RULES_BY_SYSTEM, ScriptNode,
                             SystemId, TABLE)
from twoseq.errors import ParseError, TwoseqError
from twoseq.positions import LtlPos, PastPos, Position, SeqPos, SetPos
from twoseq.syntax import (And, Box, Dia, Formula, Hist, Imp, Next, Not, Once,
                           Or, PFormula, Prev, Prop, Sequent)

_UNARY_WORDS = {"box": Box, "dia": Dia, "X": Next, "Y": Prev, "H": Hist, "P": Once}
_PARAM_KEYS = ("alpha", "beta", "t", "x", "at", "cutf", "pf")


class Token(NamedTuple):
    """A token: its kind (punctuation is its own kind), text and offset."""

    kind: str
    value: str
    offset: int


# what lies between tokens; a comment runs to the end of its line, so
# each stretch of whitespace and comments matches in exactly one way
_SKIP = r"[ \t\r\n]*(?:\#[^\n]*(?:\n[ \t\r\n]*|\Z))*"
_SKIP_RE = re.compile(_SKIP)
_TOKEN_RE = re.compile(_SKIP + r"""(?:
    (?P<turnstile>\|-)
  | (?P<arrow>->)
  | (?P<int>-?[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[()\[\]{};:,@&|~])
  | (?P<eof>\Z))
""", re.VERBOSE)


def _error_at(text: str, offset: int, message: str) -> ParseError:
    """A ParseError at an offset; lines and columns are counted only here."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _lex(text: str) -> list[Token]:
    """The tokens of ``text``, each match taking the whitespace and comments
    before its token, padded with two ``eof`` tokens for one-token lookahead."""
    toks: list[Token] = []
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
        toks.append(Token(value if kind == "punct" else kind, value, i - len(value)))
    end = Token("eof", "", len(text))
    toks += (end, end)
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text.replace("\u2212", "-")     # accept the unicode minus sign
        self.toks = _lex(self.text)
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.i + ahead]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def error(self, msg: str, tok: Optional[Token] = None) -> ParseError:
        """A ParseError at ``tok``, by default the next token."""
        return _error_at(self.text, (tok or self.peek()).offset, msg)

    def fail(self, msg: str):
        raise self.error(msg)

    def expect(self, kind: str) -> Token:
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
            key_tok = self.expect("ident")
            key = key_tok.value
            if key == "concl":
                concl = self.sequent()
                self.expect(")")
                break
            if key in params:
                raise self.error(f"parameter {key!r} given twice", key_tok)
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


def _finish(p: _Parser, read):
    """``read()``, under a recursion limit for inputs some hundreds deep
    (a few frames per nesting level), then the end of the input."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        value = read()
    finally:
        sys.setrecursionlimit(limit)
    if not p.at_end():
        p.fail(f"trailing input {p.peek().value!r}")
    return value


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    return _finish(p, p.formula)


def parse_pformula(text: str) -> PFormula:
    p = _Parser(text)
    return _finish(p, p.pformula)


def parse_position(text: str) -> Position:
    p = _Parser(text)
    return _finish(p, p.position)


def parse_sequent(text: str) -> Sequent:
    p = _Parser(text)
    return _finish(p, p.sequent)


def parse_proof(text: str) -> ProofScript:
    p = _Parser(text)
    return _finish(p, p.script)
