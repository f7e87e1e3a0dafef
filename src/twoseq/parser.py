"""Text front end: formulas, positions, sequents, proof scripts, models.

Connectives are spelled ``~ & | ->`` with ``box dia`` for the modal pair
and ``X Y H P`` for next, prev, always-past, sometime-past.  Unary
operators bind tighter than ``&``, which binds tighter than ``|``, which
binds tighter than the right-associative ``->``.  Proof scripts are
nested s-expressions carrying explicit rule parameters and one conclusion
sequent per node.  A parse reads each distinct formula text once, since a
rule's premises write again the operands of the formulas its conclusion
wrote (see `_Parser`), and a rendering writes each distinct positioned
formula once.  The renderer is canonical: token sets print in
lexicographic order and ``parse(render(v)) == v`` for every value.
The model classes of ``semantics`` are imported where models are read
and written, so that reading proofs does not load the semantics.
"""

from __future__ import annotations

import functools
import re
from typing import TYPE_CHECKING, Optional, Union

from .calculus import ProofNode, ProofScript, RULES_BY_SYSTEM, SystemId, TABLE
from .errors import ParseError, TwoseqError
from .positions import (LtlPos, PastPos, Position, SeqPos, SetPos)
from .syntax import (And, Box, Dia, Formula, Hist, Imp, Next, Not, Once, Or,
                     PFormula, Prev, Prop, Sequent)

if TYPE_CHECKING:
    from .semantics import GraphModel, LassoWord

_UNARY_WORDS = {"box": Box, "dia": Dia, "X": Next, "Y": Prev, "H": Hist, "P": Once,
                "~": Not}
_PARAM_KEYS = ("alpha", "beta", "t", "x", "at", "cutf", "pf")
_NODE_KEYS = frozenset(_PARAM_KEYS + ("concl",))
# binary connectives: precedence (higher binds tighter) and class; all but
# the implication associate to the left
_BINARY = {"&": (3, And), "|": (2, Or), "->": (1, Imp)}
_PREFIX, _OPEN = 4, 0           # precedence slots of the operator stack

# what lies between tokens; a comment runs to the end of its line, so
# each stretch of whitespace and comments matches in exactly one way
_SKIP = r"[ \t\r\n]*(?:\#[^\n]*(?:\n[ \t\r\n]*|\Z))*"
_SKIP_RE = re.compile(_SKIP)
_TOKEN = r"\|-|->|-?[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[()\[\]{};:,@&|~]"
# one token and the gap after it, or one character no token starts with
# (which yields ""); every match ends where the next one must start
_LEX_RE = re.compile(rf"(?:({_TOKEN})|[^ \t\r\n#]){_SKIP}")
_COMMENT_RE = re.compile(r"#[^\n]*")
# one-character tokens no other token holds, bar ':'; what only str.split() skips
_PUNCT, _ODD_SPACE = "()[]{};,@&~", "\x0b\x0c\x1c\x1d\x1e\x1f"

_EOF = ""           # the token past the end (two pad the list)
_CLOSERS = {"[": "]", "{": "}", "(": ")"}      # a position's opener and closer


def _error_at(text: str, offset: int, message: str) -> ParseError:
    """A ParseError at an offset; lines and columns are counted only here."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _offsets(text: str) -> list[int]:
    """The start offset of each token, then the end of the text; raises
    the ParseError of the first character no token starts with."""
    out: list[int] = []
    for m in _LEX_RE.finditer(text, _SKIP_RE.match(text).end()):
        if m.group(1) is None:
            j = m.start()
            raise _error_at(text, j, f"unexpected character {text[j]!r}")
        out.append(m.start())
    return out + [len(text)]


def _lex(text: str) -> list[str]:
    """The tokens of ``text`` as strings, padded with two end tokens for
    one-token lookahead.  Comments dropped and punctuation padded, the text
    is cut by ``str.split()``; the token regex splits only the distinct
    chunks that are not identifiers (``p0->q``).  `_offsets` lexes ``text``
    itself to raise where a character is bad or ``split()`` would skip it."""
    s = _COMMENT_RE.sub("", text) if "#" in text else text
    if not s.isascii() or any(c in s for c in _ODD_SPACE):
        _offsets(text)
    for c in _PUNCT:
        s = s.replace(c, f" {c} ")
    toks = s.split()
    glued = {c: _LEX_RE.findall(c) for c in set(toks) if not c.isidentifier()}
    if any(_EOF in parts for parts in glued.values()):
        _offsets(text)
    if any(parts != [c] for c, parts in glued.items()):
        toks = [t for c in toks for t in glued.get(c, (c,))]
    toks += (_EOF, _EOF)
    return toks


_NAMED_KINDS = frozenset(("ident", "int", "turnstile", "arrow", "eof"))


def _kind(tok: str) -> str:
    """A token's kind, as error messages name it: punctuation is its own."""
    if tok.isidentifier():
        return "ident"
    if tok[-1:].isdigit():
        return "int"
    return {"|-": "turnstile", "->": "arrow", _EOF: "eof"}.get(tok, tok)


class _Parser:
    """Recursive-descent grammar run over explicit stacks: nesting depth
    costs list entries, not Python frames.  A sequent's ``@``, one-token
    ``[x]``, ``,`` and ``|-``, and a script node's header up to its
    parameter values and conclusion, are read by indexing the token list.

    ``memo`` keeps text read so far, as tokens joined by spaces (which no
    token holds), so that it is not read again.  It holds each positioned
    formula under its span, which ends at the first ``@`` (no formula holds
    one) and then at the first closer of the position's bracket (no
    position nests them); and, for each formula placed at a position, the
    node of each immediate operand under the operand's text ``K`` and under
    ``( K )``.  A positioned formula whose text up to its ``@`` is such a
    key has only its position read.  The memo is exact: each key is a
    phrase the grammar built, or that phrase in parentheses, so reading it
    gives that term and ends where the key does; terms are hash-consed, so a
    hit gives the object a fresh read would; and a failed read stores
    nothing.  It is linear: placing a formula adds its span and twice its
    operands' text, not a key per nesting level."""

    def __init__(self, text: str):
        self.text = text.replace("\u2212", "-")     # accept the unicode minus sign
        self.toks = _lex(self.text)
        self.i = 0
        self.memo: dict[str, Union[PFormula, tuple]] = {}

    def peek(self, ahead: int = 0) -> str:
        return self.toks[self.i + ahead]

    def error(self, msg: str, at: Optional[int] = None) -> ParseError:
        """A ParseError at token index ``at``, by default the next token."""
        k = self.i if at is None else at
        offsets = _offsets(self.text)
        return _error_at(self.text, offsets[min(k, len(offsets) - 1)], msg)

    def expect(self, kind: str) -> str:
        """The next token, which must be of ``kind`` (a punctuation token
        is its own kind)."""
        t = self.toks[self.i]
        if (t != kind or kind in _NAMED_KINDS) and _kind(t) != kind:
            raise self.error(f"expected {kind!r}, found {t!r}")
        self.i += 1
        return t

    # -- formulas --

    def formula(self) -> tuple:
        """Precedence climbing: ``ops`` holds, innermost last, the prefix
        connectives and open parentheses not yet closed (with their token
        index) and the binary connectives still waiting for their right
        operand (with their left one and where its text starts).  Gives the
        formula's node ``(formula, start, end, *operand nodes)``: each term
        with the token span of its text, outer parentheses left out."""
        toks, i = self.toks, self.i
        ops: list[tuple] = []
        while True:
            t = toks[i]
            while t in _UNARY_WORDS or t == "(":
                ops.append((_PREFIX, _UNARY_WORDS[t], i) if t != "(" else (_OPEN, i))
                i += 1
                t = toks[i]
            if not t.isidentifier():
                raise self.error(f"expected a formula, found {t!r}", i)
            f, lo = (Prop(t), i, i + 1), i      # lo: where f's text starts, parentheses in
            i += 1
            while True:             # f is a complete operand
                while ops and ops[-1][0] == _PREFIX:
                    _, cls, lo = ops.pop()
                    f = (cls(f[0]), lo, i, f)
                t = toks[i]
                op = _BINARY.get(t)
                if op is not None:
                    # fold the waiting connectives that bind tighter, and an
                    # equal one unless it is the right-associative -> (1)
                    prec = op[0]
                    while ops and (ops[-1][0] > prec or ops[-1][0] == prec > 1):
                        _, cls, left, lo = ops.pop()
                        f = (cls(left[0], f[0]), lo, i, left, f)
                    ops.append((prec, op[1], f, lo))
                    i += 1
                    break
                while ops and ops[-1][0] != _OPEN:
                    _, cls, left, lo = ops.pop()
                    f = (cls(left[0], f[0]), lo, i, left, f)
                if not ops:
                    self.i = i
                    return f
                if t != ")":
                    raise self.error(f"expected ')', found {t!r}", i)
                lo = ops.pop()[1]
                i += 1

    # -- positions --

    def token_list(self, closer: str) -> tuple[str, ...]:
        items: list[str] = []
        if self.peek() != closer:
            items.append(self.expect("ident"))
            while self.peek() == ",":
                self.i += 1
                items.append(self.expect("ident"))
        self.expect(closer)
        return tuple(items)

    def position(self) -> Position:
        t = self.peek()
        if t == "[":
            self.i += 1
            return SeqPos(self.token_list("]"))
        if t == "{":
            return SetPos(self._set())
        if t == "(":
            self.i += 1
            n = int(self.expect("int"))
            self.expect(";")
            first = self._set()
            if self.peek() == ";":
                self.i += 1
                second = self._set()
                self.expect(")")
                try:
                    return PastPos(n, first, second)
                except ValueError as e:
                    raise self.error(str(e))
            self.expect(")")
            if n < 0:
                raise self.error("step count must be a natural number")
            return LtlPos(n, first)
        raise self.error(f"expected a position, found {t!r}")

    # -- sequents --

    def pformula(self) -> PFormula:
        toks, i = self.toks, self.i
        try:
            at = toks.index("@", i)
            j = toks.index(_CLOSERS[toks[at + 1]], at) + 1
        except (KeyError, ValueError):      # no span, so the parse below raises
            return self._placed(self.formula())
        key = " ".join(toks[i:j])
        q = self.memo.get(key)
        if q is not None:
            self.i = j
            return q
        # the text of its formula (no position holds an @), if an operand before
        node = self.memo.get(key.rpartition(" @ ")[0])
        if node is None:
            q = self._placed(self.formula())
        else:
            self.i = at
            q = self._placed(node)
        self.memo[key] = q      # a read that returns ends at j: its position's closer
        return q

    def _placed(self, node: tuple) -> PFormula:
        """The formula of ``node`` at the position read from the ``@`` on;
        then the formula's operands go into the memo."""
        toks, i = self.toks, self.i
        if toks[i] != "@":
            raise self.error(f"expected '@', found {toks[i]!r}")
        if toks[i + 1] == "[" and toks[i + 3] == "]" and toks[i + 2].isidentifier():
            self.i = i + 4              # the one-token [x], read in place
            pos = SeqPos((toks[i + 2],))
        else:
            self.i = i + 1
            pos = self.position()
        for sub in node[3:]:
            text = " ".join(toks[sub[1]:sub[2]])
            self.memo[text] = self.memo[f"( {text} )"] = sub
        return PFormula(node[0], pos)

    def pformula_list(self) -> tuple[PFormula, ...]:
        out = [self.pformula()]
        toks = self.toks
        while toks[self.i] == ",":
            self.i += 1
            out.append(self.pformula())
        return tuple(out)

    def sequent(self) -> Sequent:
        toks = self.toks
        ant = () if toks[self.i] == "|-" else self.pformula_list()
        if toks[self.i] != "|-":
            raise self.error(f"expected 'turnstile', found {toks[self.i]!r}")
        self.i += 1
        suc = () if toks[self.i] in (")", _EOF) else self.pformula_list()
        return Sequent(ant, suc)

    # -- proof scripts --

    def script(self) -> ProofScript:
        self.expect("(")
        if self.expect("ident") != "proof":
            raise self.error("proof file must start with (proof SYSTEM ...)", self.i - 1)
        name = self.expect("ident")
        try:
            sys = SystemId.parse(name)
        except TwoseqError:
            raise self.error(f"unknown system {name!r}", self.i - 1)
        root = self.script_tree(sys)
        self.expect(")")
        return ProofScript(sys, root)

    def script_tree(self, sys: SystemId) -> ProofNode:
        """The node tree, with the nodes still open on an explicit stack:
        a node's header is read when it opens, its children while it is
        on top, and it is built when its ``)`` closes it."""
        toks, stack = self.toks, [self._node_header(sys)]
        while True:
            if toks[self.i] == "(":
                stack.append(self._node_header(sys))
                continue
            if toks[self.i] != ")":
                self.expect(")")
            self.i += 1
            opener, rule, params, concl, children = stack.pop()
            if rule == "bridge":
                if len(children) != 1:
                    raise self.error("bridge nodes take exactly one child", opener)
            else:
                self._check_family(concl, sys, opener)
            built = ProofNode(rule, params, concl, tuple(children))
            if not stack:
                return built
            stack[-1][-1].append(built)

    def _node_header(self, sys: SystemId) -> tuple:
        """Read ``(rule NAME params (concl ...)`` or ``(bridge (concl ...)``:
        (opener index, rule, sorted parameters, conclusion, children so far).
        The tokens are read by indexing; ``self.i`` is left at the first
        one out of place, for ``expect`` or ``_param_value`` to raise on."""
        toks, opener = self.toks, self.i
        if toks[opener] != "(" or toks[opener + 1] not in ("rule", "bridge"):
            self.expect("(")
            self.expect("ident")
            raise self.error("expected (rule ...) or (bridge ...)", opener + 1)
        if toks[opener + 1] == "bridge":
            self.i = opener + 2
            return opener, "bridge", (), self._concl(sys), []
        name = toks[opener + 2]
        if name not in RULES_BY_SYSTEM[sys]:
            self.i = opener + 2
            self.expect("ident")
            raise self.error(f"unknown rule {name!r} for system {sys.value}", opener + 2)
        params: dict[str, object] = {}
        i = opener + 3
        while toks[i] == "(" and (key := toks[i + 1]) in _NODE_KEYS:
            if key == "concl":
                self.i = i + 2
                concl = self.sequent()
                self.expect(")")
                return opener, name, tuple(sorted(params.items())), concl, []
            if key in params:
                raise self.error(f"parameter {key!r} given twice", i + 1)
            self.i = i + 2
            params[key] = self._param_value(key, sys)
            self.expect(")")
            i = self.i
        self.i = i
        raise self.error("rule node is missing its (concl ...) sequent")

    def _concl(self, sys: SystemId) -> Sequent:
        key = self.i + 1
        if self.toks[self.i] != "(" or self.toks[key] != "concl":
            self.expect("(")
            self.expect("ident")
            raise self.error("bridge nodes start with their (concl ...) sequent", key)
        self.i = key + 1
        out = self.sequent()
        self.expect(")")
        self._check_family(out, sys, key)
        return out

    def _param_value(self, key: str, sys: SystemId):
        if key == "x":
            return self.expect("ident")
        if key == "at":
            return int(self.expect("int"))
        if key in ("cutf", "pf"):
            return self.pformula()
        if key == "t":
            pos = self.position()
            if not isinstance(pos, LtlPos):
                raise self.error("step parameters are (n;{tokens}) pairs")
            return pos
        return self.position()          # alpha, beta

    # -- models --

    def model(self) -> Union[GraphModel, LassoWord]:
        """A lasso word, ``prefix: SET* ; loop: SET+``, or a graph model:
        ``nodes: NAME+``, then ``root: NAME``, ``edges: (NAME -> NAME)*``
        and ``val: NAME SET`` sections, naming listed nodes, one root and
        one valuation per node at most."""
        from .semantics import GraphModel, LassoWord
        if self._label("prefix", "nodes") == "prefix":
            prefix = self._sets()
            self.expect(";")
            self._label("loop")
            return LassoWord(prefix, (self._set(True),) + self._sets())
        nodes = [self.expect("ident")]
        while self.peek(1) != ":" and self.peek() != _EOF:
            nodes.append(self._node(nodes, listed=False))
        root, edges, val = None, set(), {}
        while self.peek() != _EOF:
            label = self._label("root", "edges", "val")
            if label == "root" and root is not None:
                raise self.error("root given twice", self.i - 2)
            if label == "root":
                root = self._node(nodes)
            while label == "edges" and self.peek(1) != ":" and self.peek() != _EOF:
                a = self._node(nodes)
                self.expect("->")
                edges.add((a, self._node(nodes)))
            if label == "val":
                n = self._node(nodes)
                if n in val:
                    raise self.error(f"valuation of node {n!r} given twice", self.i - 1)
                val[n] = self._set(True)
        return GraphModel(tuple(nodes), frozenset(edges), root or nodes[0],
                          {n: val.get(n, frozenset()) for n in nodes})

    def _label(self, *words: str) -> str:
        """A section label: ``WORD :`` for one of ``words``."""
        t = self.peek()
        if t not in words:
            raise self.error(f"expected {' or '.join(repr(w + ':') for w in words)}, found {t!r}")
        self.i += 1
        self.expect(":")
        return t

    def _node(self, nodes: list[str], listed: bool = True) -> str:
        """A node name, listed already (or if not ``listed``, not yet)."""
        name = self.expect("ident")
        if (name in nodes) != listed:
            raise self.error(f"unknown node {name!r}" if listed else
                             f"node {name!r} listed twice", self.i - 1)
        return name

    def _set(self, props: bool = False) -> frozenset[str]:
        """A token set; with ``props``, a model's, which may name no connective."""
        self.expect("{")
        start, names = self.i, self.token_list("}")
        for k in range(start, self.i):
            if props and self.toks[k] in _UNARY_WORDS:
                raise self.error(f"{self.toks[k]!r} is a connective, not a proposition", k)
        return frozenset(names)

    def _sets(self) -> tuple[frozenset[str], ...]:
        out = []
        while self.peek() == "{":
            out.append(self._set(True))
        return tuple(out)

    def _check_family(self, s: Sequent, sys: SystemId, at: int) -> None:
        fam = TABLE[sys].family
        for q in s.ant + s.suc:
            if not isinstance(q.pos, fam):
                raise self.error(f"position {q.pos} is not in the {fam.__name__} "
                                 f"family of system {sys.value}", at)


def _finish(p: _Parser, value):
    if p.peek() != _EOF:
        raise p.error(f"trailing input {p.peek()!r}")
    return value


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    return _finish(p, p.formula()[0])


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


def parse_model(text: str) -> Union[GraphModel, LassoWord]:
    """Parse a `.2sm` file into a graph model or a lasso word."""
    p = _Parser(text)
    return _finish(p, p.model())


# --- rendering (canonical) ---

MAX_INDENT = 64     # deeper proof nodes are rendered at this indentation

# prefix connectives, and each binary one's infix, precedence (it is
# parenthesised below a higher one) and the precedences of its operands
_PREFIXES = {Not: "~", Box: "box ", Dia: "dia ", Next: "X ", Prev: "Y ",
             Hist: "H ", Once: "P "}
_INFIXES = {And: (" & ", 3, 3, 4), Or: (" | ", 2, 2, 3), Imp: (" -> ", 1, 2, 1)}


def render_formula(f: Formula, prec: int = 0) -> str:
    """The text of ``f`` where a connective of precedence ``prec`` sits
    above it, written piece by piece from an explicit stack of subterms
    (with the precedence above each) and pieces still to write."""
    out: list[str] = []
    todo: list = [(f, prec)]
    while todo:
        job = todo.pop()
        if type(job) is str:
            out.append(job)
            continue
        g, above = job
        word = _PREFIXES.get(type(g))
        if word is not None:
            out.append(word)
            todo.append((g.sub, 4))
        elif isinstance(g, Prop):
            out.append(g.name)
        else:
            infix, mine, left, right = _INFIXES[type(g)]
            if mine < above:
                out.append("(")
                todo.append(")")
            todo += ((g.right, right), infix, (g.left, left))
    return "".join(out)


def render_pformula(p: PFormula) -> str:
    f = render_formula(p.formula)
    if isinstance(p.formula, (And, Or, Imp)):
        f = "(" + f + ")" if not f.startswith("(") else f
    return f"{f} @ {p.pos}"


def render_sequent(s: Sequent, text=render_pformula) -> str:
    ant = ", ".join(map(text, s.ant))
    suc = ", ".join(map(text, s.suc))
    return " ".join(filter(None, (ant, "|-", suc)))


def render_proof(sys: SystemId, p: ProofNode) -> str:
    """One line per node, indented by depth up to `MAX_INDENT` levels (so
    the text grows linearly with depth); a node's closing parenthesis ends
    the line of its last descendant.  The walk keeps its own stack, where
    None closes a node."""
    text = functools.cache(render_pformula)     # each p-formula's text made once
    out: list[str] = [f"(proof {sys.value}"]
    todo: list = [(p, 1)]
    while todo:
        job = todo.pop()
        if job is None:
            out.append(")")
            continue
        n, depth = job
        pad = "  " * min(depth, MAX_INDENT)
        head = "bridge" if n.rule == "bridge" else "rule " + n.rule
        try:
            ordered = sorted(n.params, key=lambda kv: _PARAM_KEYS.index(kv[0]))
        except ValueError:
            key = next(k for k, _ in n.params if k not in _PARAM_KEYS)
            raise TwoseqError(f"{n.rule}: parameter key {key!r} has no script syntax") from None
        params = "".join(f" ({k} {text(v) if k in ('cutf', 'pf') else v})" for k, v in ordered)
        out.append(f"\n{pad}({head}{params} (concl {render_sequent(n.conclusion, text)})")
        todo.append(None)
        todo += ((c, depth + 1) for c in reversed(n.premises))
    out.append(")")
    return "".join(out)


# --- model files ---


def render_model(model) -> str:
    from .semantics import GraphModel, LassoWord

    def propset(s) -> str:
        return "{" + ",".join(sorted(s)) + "}"

    if isinstance(model, LassoWord):
        pre = " ".join(propset(s) for s in model.prefix)
        loop = " ".join(propset(s) for s in model.loop)
        return f"prefix: {pre} ; loop: {loop}".replace("prefix:  ;", "prefix: ;")
    if not isinstance(model, GraphModel):
        raise TwoseqError(f"not a model: {model!r}")
    lines = ["nodes: " + " ".join(model.nodes), "root: " + model.root]
    if model.edges:
        lines.append("edges: " + " ".join(
            f"{a}->{b}" for a, b in sorted(model.edges)))
    for n in model.nodes:
        lines.append(f"val: {n} {propset(model.valuation[n])}")
    return "\n".join(lines)
