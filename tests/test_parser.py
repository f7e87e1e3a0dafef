"""Text front end: grammar instances, round trips, diagnostics."""

import gc
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import parser_oracle as oracle
from corruptions import GOLDEN as PARSE_ERRORS, corruptions, parse_error
from mutants import corpus_proofs
from proofgen import generate_suite
from strategies import formula_st, pformula_st, sequent_st
from twoseq.calculus import (STRUCTURAL_RULES, ProofNode, SystemId, and_right, ax,
                             box_right, check_proof, expand_double_lines, imp_right,
                             iter_nodes, subproofs, weak_left)
from twoseq.cutelim import eliminate_cuts
from twoseq.errors import ParseError, TwoseqError
from twoseq.ltl import LassoWord
from twoseq.parser import (parse_formula, parse_model, parse_pformula,
                           parse_position, parse_proof, parse_sequent,
                           render_formula, render_model, render_pformula,
                           render_proof, render_sequent)
from twoseq.positions import LtlPos, PastPos, SeqPos, SetPos, seqpos
from twoseq.semantics import GraphModel
from twoseq.syntax import (And, Box, Dia, Imp, Next, Not, Or, Prop, pf, seq,
                           subformula_trees)
import twoseq.corpus as corpus
import twoseq.parser as parser
import twoseq.positions as positions

CORE = (SystemId.K, SystemId.D, SystemId.T, SystemId.K4, SystemId.S4)

PROPERTY = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def test_formula_grammar_instances():
    assert parse_formula("box (p0 -> p1)") == Box(Imp(Prop("p0"), Prop("p1")))
    assert parse_pformula("box (p0 -> p1) @ []") == \
        pf(Box(Imp(Prop("p0"), Prop("p1"))), seqpos())
    s = parse_sequent("p0 @ [x] |- p0 @ [x]")
    assert s.ant == s.suc and len(s.ant) == 1


def test_precedence_and_associativity():
    assert parse_formula("~p0 & p1 | p2 -> q") == \
        Imp(parse_formula("(((~p0) & p1) | p2)"), Prop("q"))
    assert parse_formula("p0 -> p1 -> p2") == \
        Imp(Prop("p0"), Imp(Prop("p1"), Prop("p2")))
    assert parse_formula("box p0 & p1") == And(Box(Prop("p0")), Prop("p1"))
    assert parse_formula("dia dia p0") == Dia(Dia(Prop("p0")))
    assert parse_formula("X ~p0") == Next(Not(Prop("p0")))


def test_position_grammar():
    assert parse_position("[x,y]") == seqpos("x", "y")
    assert parse_position("[]") == seqpos()
    assert parse_position("{x,y}") == SetPos(frozenset({"x", "y"}))
    assert parse_position("(2;{x})") == LtlPos(2, frozenset("x"))
    assert parse_position("(-1;{x};{y})") == \
        PastPos(-1, frozenset("x"), frozenset("y"))


def test_empty_sequent_forms():
    assert parse_sequent("|-").is_empty()
    assert parse_sequent("|- p0 @ []").ant == ()
    assert parse_sequent("p0 @ [] |-").suc == ()


def test_diagnostics_have_locations_and_are_deterministic():
    bad = "p0 @@ [x] |- p0 @ [x]"
    with pytest.raises(ParseError) as e1:
        parse_sequent(bad)
    with pytest.raises(ParseError) as e2:
        parse_sequent(bad)
    assert str(e1.value) == str(e2.value)
    assert e1.value.line == 1 and e1.value.col >= 4


def test_error_positions_match_golden():
    # (message, line, col) of seeded corruptions of every rendered corpus script
    want = json.loads(PARSE_ERRORS.read_text())
    got = []
    for home, name, proof in corpus_proofs():
        rng = random.Random(f"{home.value}:{name}")
        for label, text in corruptions(render_proof(home, proof), rng):
            got.append({"home": home.value, "name": name, "corruption": label,
                        "error": parse_error(text)})
    assert len(got) == 473
    for g, w in zip(got, want):
        assert g == w
    assert len(got) == len(want)


def test_unknown_rule_and_system_rejected():
    with pytest.raises(ParseError):
        parse_proof("(proof K (rule frobnicate (concl |- p0 @ [])))")
    with pytest.raises(ParseError):
        parse_proof("(proof K9 (rule ax (concl p0 @ [] |- p0 @ []))))")
    # temporal rules are not part of the modal systems
    with pytest.raises(ParseError):
        parse_proof("(proof K (rule ind (x x) (t (0;{})) (concl p0 @ [] |- p0 @ [])))")


def test_family_mismatch_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_proof("(proof K (rule ax (concl p0 @ (0;{}) |- p0 @ (0;{}))))")
    with pytest.raises(ParseError):
        parse_proof("(proof LTL (rule ax (concl p0 @ [x] |- p0 @ [x])))")


def test_parameter_given_twice_is_a_parse_error():
    # reported at the second key, whatever the two values
    text = ("(proof K (rule boxR (x a)\n  (x b) (concl |- box p0 @ [])\n"
            "  (rule ax (concl p0 @ [a] |- p0 @ [a]))))")
    for parse in (parse_proof, oracle.parse_proof):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert (e.value.message, e.value.line, e.value.col) == \
            ("parameter 'x' given twice", 2, 4)


@given(formula_st("past"))
def test_formula_round_trip(f):
    assert parse_formula(render_formula(f)) == f


@given(pformula_st("modal", SeqPos))
def test_pformula_round_trip(q):
    assert parse_pformula(render_pformula(q)) == q


@settings(max_examples=60)
@given(sequent_st("modal", SeqPos))
def test_sequent_round_trip_modal(s):
    assert parse_sequent(render_sequent(s)) == s


@settings(max_examples=60)
@given(sequent_st("ltl", LtlPos))
def test_sequent_round_trip_ltl(s):
    assert parse_sequent(render_sequent(s)) == s


@settings(max_examples=60)
@given(sequent_st("past", PastPos))
def test_sequent_round_trip_past(s):
    assert parse_sequent(render_sequent(s)) == s


def test_every_corpus_proof_round_trips():
    for sysid in SystemId:
        for name, proof in corpus.entries(sysid):
            text = render_proof(sysid, proof)
            assert expand_double_lines(parse_proof(text)) == proof, (sysid, name)


def test_render_grows_linearly_with_depth():
    from twoseq.calculus import ax, exc_left, weak_left
    p = weak_left(ax(pf(Prop("p0"), seqpos())), pf(Prop("p1"), seqpos()))
    for _ in range(10_000):
        p = exc_left(p, 0)
    text = render_proof(SystemId.K, p)
    assert len(text) < 200 * p.size
    assert expand_double_lines(parse_proof(text)) == p


def test_script_with_double_lines_expands():
    text = """
    (proof D
      (rule impR (concl |- box p0 -> dia p0 @ [])
        (rule diaR (alpha []) (beta [x]) (concl box p0 @ [] |- dia p0 @ [])
          (bridge (concl box p0 @ [] |- p0 @ [x])
            (rule boxL (alpha []) (beta [x]) (concl box p0 @ [] |- p0 @ [x])
              (rule ax (concl p0 @ [x] |- p0 @ [x])))))))
    """
    proof = expand_double_lines(parse_proof(text))
    assert proof == corpus.axiom_d()


def test_model_round_trips():
    g = parse_model("nodes: n0 n1\nroot: n0\nedges: n0->n1\nval: n0 {p0}\nval: n1 {}")
    assert parse_model(render_model(g)) == g
    lasso = parse_model("prefix: {p0} {} ; loop: {p1}")
    assert lasso == LassoWord((frozenset({"p0"}), frozenset()),
                              (frozenset({"p1"}),))
    assert parse_model(render_model(lasso)) == lasso
    empty_prefix = parse_model("prefix: ; loop: {p1} {p0,p1}")
    assert parse_model(render_model(empty_prefix)) == empty_prefix


def test_model_errors():
    with pytest.raises(ParseError):
        parse_model("")
    with pytest.raises(ParseError):
        parse_model("prefix: {p0} ; loop:")
    with pytest.raises(ParseError):
        parse_model("nodes: n0\nedges: n0->n9")


@pytest.mark.parametrize("model", [None, "nodes: n0", seq(), ("n0",)])
def test_rendering_a_non_model_is_refused(model):
    with pytest.raises(TwoseqError, match="not a model"):
        render_model(model)


def test_rendering_a_non_model_is_refused_under_python_O():
    code = ("from twoseq.errors import TwoseqError\n"
            "from twoseq.parser import render_model\n"
            "assert False, 'not running under python -O'\n"
            "try:\n    render_model(None)\n"
            "except TwoseqError as e:\n    print(e)\n")
    src = str(Path(parser.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert (out.returncode, out.stdout, out.stderr) == (0, "not a model: None\n", "")


def test_rendering_a_parameter_key_with_no_script_syntax_is_refused():
    a = pf(Prop("p0"), seqpos())
    p = ProofNode("ax", (("at", 0), ("k", 1)), seq((a,), (a,)), ())
    with pytest.raises(TwoseqError, match="ax: parameter key 'k' has no script syntax"):
        render_proof(SystemId.K, p)


@pytest.mark.parametrize("text, message, line, col", [
    ("prefix: {p0} junk ; loop: {p1}", "expected ';', found 'junk'", 1, 14),
    ("prefix: ; loop: {p1}\nnodes: n0 n1", "trailing input 'nodes'", 2, 1),
    ("nodes: n0\nval: n9 {p}", "unknown node 'n9'", 2, 6),
    ("nodes: n0 n0", "node 'n0' listed twice", 1, 11),
    ("prefix: {p0 p1} ; loop: {p1}", "expected '}', found 'p1'", 1, 13),
    ("nodes: n0 n1\n  root: n2", "unknown node 'n2'", 2, 9),
    ("nodes: n0\nedges: n0->n0 n0 n0", "expected '->', found 'n0'", 2, 18),
    ("nodes: n0\nval: n0 {p0} {p1}", "expected 'root:' or 'edges:' or 'val:', found '{'", 2, 14),
    ("# a comment\nnodes:\n", "expected 'ident', found ''", 3, 1),
    ("edges: n0->n0", "expected 'prefix:' or 'nodes:', found 'edges'", 1, 1),
    ("nodes: a b\nroot: a\nroot: b\nval: a {p}\nval: a {q}", "root given twice", 3, 1),
    ("nodes: a b\nval: a {p}\nroot: b\nval: a {q}",
     "valuation of node 'a' given twice", 4, 6),
    ("nodes: a\nval: a {box, X}", "'box' is a connective, not a proposition", 2, 9),
    ("prefix: {p0} ; loop: {p1, dia}", "'dia' is a connective, not a proposition", 1, 27),
])
def test_malformed_models_are_refused_at_the_token(text, message, line, col):
    with pytest.raises(ParseError) as e:
        parse_model(text)
    assert (e.value.message, e.value.line, e.value.col) == (message, line, col)


@pytest.mark.parametrize("word", ["box", "dia", "X", "Y", "H", "P"])
def test_model_propositions_may_not_be_connective_words(word):
    for text in (f"nodes: n0\nval: n0 {{p0, {word}}}", f"prefix: ; loop: {{{word}}}"):
        with pytest.raises(ParseError, match=f"'{word}' is a connective"):
            parse_model(text)
    # a node or a position token is never read as a formula, so may be one
    assert parse_model(f"nodes: {word}\nval: {word} {{p0}}").nodes == (word,)
    assert parse_position(f"[{word}]") == seqpos(word)


def test_models_follow_the_common_lexical_rules():
    # comments anywhere, free whitespace, and a node may be named like a label
    text = ("# a model\nnodes: n0 val # two nodes\n  root : val\n"
            "edges: n0 -> val val->n0\nval: val {p1 , p0} # two atoms")
    want = GraphModel(("n0", "val"), frozenset({("n0", "val"), ("val", "n0")}),
                      "val", {"n0": frozenset(), "val": frozenset({"p0", "p1"})})
    assert parse_model(text) == want
    assert parse_model(render_model(want)) == want
    assert parse_model("prefix:;loop:{}# empty letters") == \
        LassoWord((), (frozenset(),))


# --- the parser against the recursive-descent oracle ---

# pieces of text, most of them tokens of some format, some not tokens at all
FRAGMENTS = ["p0", "q", "box", "dia", "X", "Y", "H", "P", "~", "&", "|", "->",
             "(", ")", "@", "[", "]", "{", "}", ";", ":", ",", "|-", "x", "y", "0",
             "2", "-1", "\u22121", "$", "-", ">", "#c\n", "\n", " ", "\t",
             "proof", "K", "S42", "LTLP", "rule", "bridge", "concl", "ax",
             "boxR", "alpha", "beta", "t", "at", "pf", "cutf", "int", "ident",
             # whitespace to str.split() but not to the lexer, non-ASCII in
             # and out of a comment, and tokens glued without a gap
             "\x0b", "\x0c", "\x1c", "\xa0", "\u00e9", "#\u00e9\n", "p0->q",
             "|-p0", "[x]"]
ENTRY_POINTS = ("parse_formula", "parse_pformula", "parse_position",
                "parse_sequent", "parse_proof")


def _outcome(parse, text: str):
    """What parsing ``text`` gives: the value, or the error's type and text
    (for a ParseError its message, line and column)."""
    try:
        return "value", parse(text)
    except ParseError as e:
        return "ParseError", e.message, e.line, e.col
    except Exception as e:      # any other exception must match as well
        return type(e).__name__, str(e)


def _same_as_oracle(text: str, entries=ENTRY_POINTS) -> None:
    for name in entries:
        assert _outcome(getattr(parser, name), text) == \
            _outcome(getattr(oracle, name), text), (name, text)


soup_st = st.lists(st.sampled_from(FRAGMENTS), max_size=24).flatmap(
    lambda xs: st.lists(st.sampled_from(["", " "]), min_size=len(xs),
                        max_size=len(xs)).map(
        lambda gaps: "".join(g + x for g, x in zip(gaps, xs))))


@st.composite
def edited_st(draw, texts):
    """A valid text with one piece deleted, one fragment inserted, or a
    piece doubled."""
    text = draw(texts)
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 8)))
    how = draw(st.sampled_from(("delete", "insert", "double")))
    if how == "delete":
        return text[:i] + text[j:]
    if how == "insert":
        return text[:i] + draw(st.sampled_from(FRAGMENTS)) + text[i:]
    return text[:j] + text[i:j] + text[j:]


@PROPERTY
@given(soup_st)
def test_token_soup_parses_as_the_oracle_does(text):
    _same_as_oracle(text)


def _oracle_lex(text: str) -> list[str]:
    return [t.value for t in oracle._lex(text)]


@PROPERTY
@given(soup_st)
def test_lexer_gives_the_oracles_tokens(text):
    # the token values, or the same ParseError at the same line and column
    assert _outcome(parser._lex, text) == _outcome(_oracle_lex, text)


@PROPERTY
@given(edited_st(sequent_st("past", PastPos).map(render_sequent)
                 | sequent_st("modal", SeqPos).map(render_sequent)
                 | formula_st("past").map(render_formula)))
def test_edited_sequents_parse_as_the_oracle_does(text):
    _same_as_oracle(text)


def _script_texts():
    return [render_proof(home, proof) for home, _, proof in corpus_proofs()]


@PROPERTY
@given(edited_st(st.sampled_from(_script_texts())))
def test_edited_scripts_parse_as_the_oracle_does(text):
    _same_as_oracle(text, ("parse_proof",))


# the pieces of a node header: the opener with its head word, the rule
# name, a key with its parenthesis, a whole one-line parameter, and the
# parenthesis that closes a parameter or a conclusion
_HEADER_PIECES = tuple(map(re.compile, (
    r"\((?:rule|bridge)\b", r"(?<=\(rule )\w+", r"\((?:alpha|beta|t|x|at|cutf|pf|concl)\b",
    r"\((?:alpha|beta|x|at) [^()]*\)", r"(?<=[\]\w])\)")))
_HEADER_SWAPS = ("(x", "(alpha", "(beta", "(at", "(cutf", "(concl", "(rule",
                 "(bridge", "rule", "boxR", "(x y)", "(alpha [])", "(at 1)", ")")


@st.composite
def header_edited_st(draw, texts):
    """A valid script with one node-header piece dropped, doubled (a
    whole parameter doubled repeats its key), or swapped for another."""
    text = draw(texts)
    m = draw(st.sampled_from([m for r in _HEADER_PIECES for m in r.finditer(text)]))
    how = draw(st.sampled_from(("drop", "double", "swap")))
    piece = "" if how == "drop" else f"{m.group()} {m.group()}" if how == "double" \
        else draw(st.sampled_from(_HEADER_SWAPS))
    return text[:m.start()] + piece + text[m.end():]


def _bridge_texts():
    """The corpus scripts that use a structural rule, each such rule
    written as a one-step double-line node."""
    def script(p):
        kids = tuple(script(c) for c in p.premises)
        return ProofNode("bridge", (), p.conclusion, kids) if p.rule in STRUCTURAL_RULES \
            else ProofNode(p.rule, p.params, p.conclusion, kids)
    return [render_proof(home, script(proof)) for home, _, proof in corpus_proofs()
            if any(n.rule in STRUCTURAL_RULES for _, n in iter_nodes(proof))]


@PROPERTY
@given(header_edited_st(st.sampled_from(_script_texts())
                        | st.sampled_from(_bridge_texts())))
def test_header_edited_scripts_parse_as_the_oracle_does(text):
    _same_as_oracle(text, ("parse_proof",))


def test_parsed_bridges_are_rejected_until_they_are_expanded():
    for text in _bridge_texts():
        script = parse_proof(text)
        got = check_proof(script.root, script.system).failures
        bridges = sorted(path for path, n in iter_nodes(script.root) if n.rule == "bridge")
        assert bridges and [tuple(v) for v in got] == \
            [(path, "bridge", "schema", "unexpanded double-line node") for path in bridges]
    for text in _script_texts():
        script = parse_proof(text)
        assert check_proof(script.root, script.system) == \
            check_proof(expand_double_lines(script), script.system)


def _counterparts(parsed: ProofNode, out: ProofNode):
    """(parsed node, the node standing for it in the expansion), bridges
    skipped: below a run of bridges, the first non-bridge node is paired
    with the first node below the chain of structural rules they became."""
    stack = [(parsed, out)]
    while stack:
        n, m = stack.pop()
        if n.rule == "bridge":
            while n.rule == "bridge":
                n = n.premises[0]
            while m.rule in STRUCTURAL_RULES:
                m = m.premises[0]
        yield n, m
        stack.extend(zip(n.premises, m.premises))


def test_expansion_keeps_every_bridge_free_subtree_as_parsed():
    for text in _script_texts():
        script = parse_proof(text)
        assert expand_double_lines(script) is script.root
    for text in _bridge_texts():
        script = parse_proof(text)
        pairs = list(_counterparts(script.root, expand_double_lines(script)))
        for n, m in pairs:
            if all(k.rule != "bridge" for k in subproofs(n)):
                assert m is n
            else:       # rebuilt, on the path to a bridge
                assert m is not n and (m.rule, m.params, m.conclusion) == \
                    (n.rule, n.params, n.conclusion)
        assert any(m is n for n, m in pairs) and any(m is not n for n, m in pairs)


def test_a_parsed_root_counts_one_node_per_opener():
    # bench/cases.count_nodes(script.root), a bridge as one node, is the
    # denominator of output_nodes_ratio
    for text in _script_texts() + _bridge_texts():
        openers = len(re.findall(r"\((?:rule|bridge)\b", text))
        assert sum(1 for _ in subproofs(parse_proof(text).root)) == openers


def test_scripts_and_their_corruptions_parse_as_the_oracle_does():
    for text in _script_texts():
        _same_as_oracle(text, ("parse_proof",))
    for home, name, proof in corpus_proofs():
        rng = random.Random(f"oracle:{home.value}:{name}")
        for _, text in corruptions(render_proof(home, proof), rng):
            _same_as_oracle(text, ("parse_proof",))


@pytest.mark.parametrize("text", [
    "(" * 300 + "p0" + ")" * 300,
    "(" * 300 + "p0" + ")" * 299,
    "(" * 300 + "p0" + ")" * 301,
    "~" * 300 + "box dia X Y H P p0 & q -> q | ~(p0 -> q)",
    " -> ".join(["p0"] * 300) + " & q",
    " & ".join(["(p0 | q)"] * 300),
    "p0 @ [] |- " + ", ".join(["(p0 -> (q & p0)) @ [x, y]"] * 100),
    "p0 @ [] |- p0 @ [x] # trailing comment",
    "p0 @ [] |- p0 @ [x]" + " " * 300,
    "p0 @ (\u22121;{x};{y}) |- q @ (1;{x})",
    "|- p0 @ (1;{x};{x})",
    "|- p0 @ (-1;{x})",
])
def test_deep_and_wide_inputs_parse_as_the_oracle_does(text):
    _same_as_oracle(text)


def test_render_and_parse_round_trip_at_depth_100000():
    q = Prop("q")
    wraps = (Box, Not, lambda g: And(g, q), lambda g: Imp(q, g),
             lambda g: Or(Dia(g), q), lambda g: Imp(g, q))
    f = Prop("p0")
    for i in range(100_000):
        f = wraps[i % len(wraps)](f)
    assert parse_formula(render_formula(f)) is f
    assert parse_pformula(render_pformula(pf(f, seqpos("x")))) is pf(f, seqpos("x"))


def test_nested_scripts_parse_as_the_oracle_does():
    leaf = "(rule ax (concl p0 @ [] |- p0 @ []))"
    text = leaf
    for _ in range(200):
        text = f"(bridge (concl p0 @ [] |- p0 @ [], p0 @ [])\n  {text})"
    _same_as_oracle(f"(proof K {text})", ("parse_proof",))
    _same_as_oracle(f"(proof K {text}", ("parse_proof",))
    _same_as_oracle(f"(proof K (bridge (concl p0 @ [] |-) {leaf} {leaf}))",
                    ("parse_proof",))


# --- the span memo: repeated positioned formulas are read once ---

# spans that parse, and spans whose first occurrence already fails (a
# negative step count, a past position with overlapping sets, a missing
# closer or token), in the four position families
SPANS = ["p0 @ [x]", "(p0 -> q) @ [x, y]", "box p0 @ []", "p0 & q @ [x]",
         "dia q @ {x, y}", "X p0 @ (1;{x})", "p0 @ (0;{x};{y})", "~q @ (\u22122;{};{x})",
         "p0 @ (-1;{x})", "q @ (1;{x};{x})", "p0 @ [x,]", "p0 @ {x", "p0 @ (1;{x}",
         "p0 @ [[x]]", "(p0 @ [x]", "p0 @ x"]
pformula_texts = st.one_of(
    st.sampled_from(SPANS),
    *(pformula_st(conn, fam).map(render_pformula)
      for conn, fam in (("modal", SeqPos), ("modal", SetPos),
                        ("ltl", LtlPos), ("past", PastPos))))


@st.composite
def repeating_st(draw, script: bool):
    """A sequent, or a proof script whose nodes' conclusions are sequents,
    drawn from a pool of at most three positioned formulas, so that spans
    repeat; maybe with a fragment inserted straight after a span that
    occurred before."""
    pool = draw(st.lists(pformula_texts, min_size=1, max_size=3))
    pieces: list[tuple[str, bool]] = []         # (text, is a span)

    def spans(most: int) -> None:
        for n, q in enumerate(draw(st.lists(st.sampled_from(pool), max_size=most))):
            pieces.append((", " if n else "", False))
            pieces.append((q, True))

    def sequent() -> None:
        spans(3)
        pieces.append((" |- ", False))
        spans(3)

    if not script:
        sequent()
    else:
        pieces.append((f"(proof {draw(st.sampled_from(['K', 'S42', 'LTL', 'LTLP']))}", False))
        kinds = draw(st.lists(st.sampled_from(["bridge", "cut"]), max_size=4))
        for kind in kinds + ["ax"]:
            if kind == "cut":
                pieces.append(("\n(rule cut (cutf ", False))
                spans(1)
                pieces.append((") (concl ", False))
            else:
                pieces.append((f"\n({'bridge' if kind == 'bridge' else 'rule ax'} (concl ",
                               False))
            sequent()
            pieces.append((")", False))
        pieces.append((")" * (len(kinds) + 2), False))
    repeats = [k for k, (text, span) in enumerate(pieces)
               if span and (text, True) in pieces[:k]]
    if repeats and draw(st.booleans()):
        k = draw(st.sampled_from(repeats))
        pieces.insert(k + 1, (draw(st.sampled_from(FRAGMENTS)), False))
    return "".join(text for text, _ in pieces)


@PROPERTY
@given(repeating_st(script=False))
def test_sequents_with_repeated_spans_parse_as_the_oracle_does(text):
    _same_as_oracle(text, ("parse_sequent",))


@PROPERTY
@given(repeating_st(script=True))
def test_scripts_with_repeated_spans_parse_as_the_oracle_does(text):
    _same_as_oracle(text, ("parse_proof",))


@pytest.mark.parametrize("text", [
    "|- p0 @ (-1;{x}), p0 @ (-1;{x})",
    "|- p0 @ (1;{x};{x}), p0 @ (1;{x};{x})",
    "p0 @ [x] |- p0 @ [x] p0 @ [x]",
    "p0 @ [x] |- p0 @ [x]]",
    "p0 @ [x], p0 @ [x] @ [x] |-",
    "p0 @ {x}, p0 @ {x} |- , p0 @ {x}",
])
def test_errors_at_and_after_repeated_spans_are_the_oracles(text):
    _same_as_oracle(text, ("parse_sequent",))


def _reads(monkeypatch) -> list:
    """Record each positioned formula the parser reads in full."""
    reads = []
    full = parser._Parser._pformula

    def counted(self):
        reads.append(self.i)
        return full(self)

    monkeypatch.setattr(parser._Parser, "_pformula", counted)
    return reads


def test_a_repeated_span_is_read_once_and_gives_the_same_object(monkeypatch):
    reads = _reads(monkeypatch)
    s = parse_sequent("p0 & q @ [x], box p0 @ {x} |- p0 & q @ [x], box p0 @ {x}, "
                      "(p0 & q) @ [x]")
    assert len(reads) == 3      # the third span differs in text, not in value
    assert s.suc[0] is s.ant[0] and s.suc[1] is s.ant[1] and s.suc[2] is s.ant[0]
    reads.clear()
    script = parse_proof("(proof K (bridge (concl p0 @ [x] |- p0 @ [x], p0 @ [x])\n"
                         "  (rule ax (concl p0 @ [x] |- p0 @ [x]))))")
    assert len(reads) == 1
    assert script.root.premises[0].conclusion.ant[0] is script.root.conclusion.suc[1]


def test_a_deep_formula_written_twice_is_read_once(monkeypatch):
    q = Prop("q")
    wraps = (Box, Not, lambda g: And(g, q), lambda g: Imp(q, g),
             lambda g: Or(Dia(g), q), lambda g: Imp(g, q))
    f = Prop("p0")
    for i in range(100_000):
        f = wraps[i % len(wraps)](f)
    text = render_pformula(pf(f, seqpos("x")))
    reads = _reads(monkeypatch)
    s = parse_sequent(f"|- {text}, {text}")
    assert len(reads) == 1
    assert s.suc[0] is s.suc[1] is pf(f, seqpos("x"))


def test_the_memo_keeps_nothing_alive_past_the_parse(monkeypatch):
    # names no other term holds, so that every term the parse makes is new;
    # the leaf's antecedent is the right operand of the span's formula
    span = "(memo_a -> box memo_b) @ [memo_x]"
    operand = "box memo_b @ [memo_y]"
    text = (f"(proof K (bridge (concl {span} |- {span}, {span})\n"
            f"  (rule ax (concl {operand} |- {span}))))")
    reads = _reads(monkeypatch)
    gc.collect()
    baseline = len(positions.TABLE)
    script = parse_proof(text)
    assert len(reads) == 1      # the operand was looked up, not read
    assert len(positions.TABLE) > baseline
    del script
    gc.collect()
    assert len(positions.TABLE) == baseline
    for broken in (f"{operand} |- {span} ~))))", f"{operand} ~ |- {span}))))"):
        with pytest.raises(ParseError):
            parse_proof(text.replace(f"{operand} |- {span}))))", broken))
        gc.collect()
        assert len(positions.TABLE) == baseline


# --- operands: a formula read once is looked up under its operands' text ---

def _write(draw, f, above: int = 0) -> str:
    """A text of ``f`` below a connective of precedence ``above``: the
    parentheses the grammar needs, and maybe redundant ones around any term."""
    word = parser._PREFIXES.get(type(f))
    if word is not None:
        text = word + _write(draw, f.sub, 4)
    elif isinstance(f, Prop):
        text = f.name
    else:
        infix, mine, left, right = parser._INFIXES[type(f)]
        text = _write(draw, f.left, left) + infix + _write(draw, f.right, right)
        if mine < above:
            text = f"({text})"
    extra = draw(st.sampled_from((0, 0, 0, 0, 1, 2)))
    return "(" * extra + text + ")" * extra


@st.composite
def operand_repeats_st(draw, script: bool):
    """A sequent, or a script of nested bridge nodes, whose first
    positioned formula holds a drawn formula and whose later ones hold its
    subterms, so operands of formulas read before.  Each is written with
    the parentheses it needs (chains left bare, as in ``a & b & c``), with
    redundant ones (``((A))``), or with none at all (``box p & q`` for
    ``box (p & q)``); maybe a fragment follows a later one."""
    f = draw(formula_st("modal", depth=4))
    terms = list(subformula_trees(f))

    def span(g) -> str:
        text = _write(draw, g)
        if draw(st.integers(0, 4)) == 0:
            text = text.replace("(", "").replace(")", "")
        return f"{text} @ {draw(st.sampled_from(('[x]', '[]', '[x, y]')))}"

    spans = [span(f)] + [span(draw(st.sampled_from(terms)))
                         for _ in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        k = draw(st.integers(1, len(spans) - 1))
        spans[k] += " " + draw(st.sampled_from(FRAGMENTS))
    cuts = sorted(draw(st.lists(st.integers(0, len(spans)), max_size=3 if script else 0)))
    bounds = [0] + cuts + [len(spans)]
    sequents = []
    for a, b in zip(bounds, bounds[1:]):
        k = draw(st.integers(a, b))
        sequents.append(f"{', '.join(spans[a:k])} |- {', '.join(spans[k:b])}")
    if not script:
        return sequents[0]
    nodes = "".join(f"\n(bridge (concl {s})" for s in sequents[:-1])
    return f"(proof K{nodes}\n(rule ax (concl {sequents[-1]}))" + ")" * len(sequents)


def _memo_is_exact(text: str) -> None:
    """Read ``text`` as a sequent or a script, to the end or to a
    ParseError; then each key of the memo is text the oracle reads as the
    value stored under it, and a formula's node holds the span of that
    text, parentheses left out."""
    try:
        p = parser._Parser(text)
    except ParseError:      # the lexer made no parser
        return
    try:
        p.script() if text.startswith("(proof") else p.sequent()
    except ParseError:
        pass
    for key, value in p.memo.items():
        if "@" in key:
            assert _outcome(oracle.parse_pformula, key) == ("value", value), key
        else:
            assert _outcome(oracle.parse_formula, key) == ("value", value[0]), key
            own = " ".join(p.toks[value[1]:value[2]])
            assert key in (own, f"( {own} )"), key


# half the examples of PROPERTY: the pinned cases below cover each form too
OPERANDS = settings(PROPERTY, max_examples=150)


@OPERANDS
@given(operand_repeats_st(script=False))
def test_sequents_with_operand_repeats_parse_as_the_oracle_does(text):
    _same_as_oracle(text, ("parse_sequent",))


@OPERANDS
@given(operand_repeats_st(script=True))
def test_scripts_with_operand_repeats_parse_as_the_oracle_does(text):
    _same_as_oracle(text, ("parse_proof",))


@OPERANDS
@given(operand_repeats_st(script=False) | operand_repeats_st(script=True)
       | edited_st(operand_repeats_st(script=False))
       | edited_st(operand_repeats_st(script=True)))
def test_every_memo_key_reads_as_its_value_after_a_parse_or_a_failure(text):
    _memo_is_exact(text)


OPERAND_REPEATS = [
    # a left-associated chain: its left operand bare and parenthesised, its
    # right one in redundant parentheses
    "|- p0 & q & (p1) @ [x], p0 & q @ [x], (p0 & q) @ [], ((p1)) @ [x], p1 @ [y]",
    # prefix operands, and the same tokens without the operand's parentheses
    "box (p0 & q) -> dia ~q @ [x] |- box (p0 & q) @ [x], p0 & q @ [], "
    "box p0 & q @ [x], dia ~q @ [x], ~q @ [x], q @ [y]",
    # the right operand of a right-nested implication, and a left-nested one
    "|- p0 -> q -> p0 @ [x], (q -> p0) @ [x], q -> p0 @ [x, y], (p0 -> q) -> p0 @ [x], "
    "p0 -> q @ [x]",
    # a repeat, then what makes its read fail
    "|- (p0 | q) & q @ [x], p0 | q @ [x] ~",
    "|- (p0 | q) & q @ [x], p0 | q @ [x",
    "|- (p0 | q) & q @ [x], p0 | q ~ @ [x]",
    "|- (p0 | q) & q @ [x], (p0 | q)) @ [x]",
    "|- (p0 | q) & q @ [x], p0 | q @ [x], p0 | q @ {x}",
    "|- box (p0 | q) @ [x], p0 | q @ (1;{x}",
]


@pytest.mark.parametrize("text", OPERAND_REPEATS)
def test_operand_repeats_parse_as_the_oracle_does_and_leave_an_exact_memo(text):
    _same_as_oracle(text, ("parse_sequent",))
    _memo_is_exact(text)


def _formula_tokens(monkeypatch) -> list:
    """Record how many tokens each formula the parser reads takes."""
    counts = []
    full = parser._Parser.formula

    def counted(self):
        i = self.i
        node = full(self)
        counts.append(self.i - i)
        return node

    monkeypatch.setattr(parser._Parser, "formula", counted)
    return counts


def test_an_operand_read_before_is_not_read_again(monkeypatch):
    counts = _formula_tokens(monkeypatch)
    s = parse_sequent("|- (box (p0 -> q) & q) @ [], box (p0 -> q) @ [], (p0 -> q) @ [x], "
                      "q @ [x], p0 -> q @ [y]")
    assert len(counts) == 1
    conj = s.suc[0].formula
    assert s.suc[1].formula is conj.left and s.suc[2].formula is conj.left.sub
    assert s.suc[3].formula is conj.right and s.suc[4].formula is conj.left.sub


def _wide_proof(leaves: int) -> ProofNode:
    """A balanced andR over ``leaves`` boxR proofs of box (p -> (r -> p))."""
    level = []
    for i in range(leaves):
        x = f"x{i}"
        at = seqpos(x)
        p, r = Prop(f"p{i % 3}"), Prop(f"p{i * 7 % 5}")
        level.append(box_right(imp_right(imp_right(weak_left(ax(pf(p, at)), pf(r, at)))), x))
    while len(level) > 1:
        level = [and_right(a, b) for a, b in zip(level[::2], level[1::2])]
    return level[0]


def test_a_wide_and_script_reads_its_formulas_once(monkeypatch):
    proof = _wide_proof(64)
    assert check_proof(proof, SystemId.S4).accepted
    text = render_proof(SystemId.S4, proof)
    counts = _formula_tokens(monkeypatch)
    assert parse_proof(text).root == proof
    # a memo of whole positioned formulas alone read 4 418 tokens in 303
    # formulas here; the conclusion's operands are looked up instead
    assert sum(counts) <= 4_418 // 4, (len(counts), sum(counts))


def test_the_memo_stays_linear_under_an_impR_chain_over_a_deep_implication():
    # |- a0 -> a1 -> ... -> a100000, then impR moving a0, a1, a2 to the left,
    # each conclusion's succedent the right operand of the one below it
    # (a parse only: the leaf is no axiom)
    f = Prop("a100000")
    for k in range(99_999, -1, -1):
        f = Imp(Prop(f"a{k}"), f)
    texts = [render_formula(f)]
    for _ in range(3):
        texts.append(texts[-1].split(" -> ", 1)[1])
    body = "(rule ax (concl p0 @ [] |- p0 @ []))"
    for k in range(3, -1, -1):
        ant = ", ".join(f"a{j} @ []" for j in range(k))
        body = f"(rule impR (concl {ant} |- {texts[k]} @ [])\n{body})"
    text = f"(proof K\n{body})"
    p = parser._Parser(text)
    root = p.script().root
    assert root.conclusion.suc[0].formula is f
    assert root.premises[0].premises[0].conclusion.suc[0].formula is f.right.right
    # each formula placed adds its span and its operands' text with and
    # without parentheses, about 3 x its own text; a key for every nested
    # term would add thousands of times the text here
    assert sum(map(len, p.memo)) <= 3 * len(text)


# --- rendering: each positioned formula's text is made once per proof ---

def _sequent_per_occurrence(s) -> str:
    ant = ", ".join(render_pformula(q) for q in s.ant)
    suc = ", ".join(render_pformula(q) for q in s.suc)
    if ant and suc:
        return f"{ant} |- {suc}"
    if ant:
        return f"{ant} |-"
    if suc:
        return f"|- {suc}"
    return "|-"


def _render_per_occurrence(sys: SystemId, p) -> str:
    """`render_proof` as it was before it kept the text of each positioned
    formula: one `render_pformula` call per occurrence."""
    sequent = _sequent_per_occurrence

    def param(key, value):
        if key in ("cutf", "pf"):
            return f"({key} {render_pformula(value)})"
        return f"({key} {value})"

    out = [f"(proof {sys.value}"]
    todo: list = [(p, 1)]
    while todo:
        job = todo.pop()
        if job is None:
            out.append(")")
            continue
        n, depth = job
        pad = "  " * min(depth, parser.MAX_INDENT)
        if n.rule == "bridge":
            out.append(f"\n{pad}(bridge (concl {sequent(n.conclusion)})")
        else:
            params = " ".join(param(k, v) for k, v in
                              sorted(n.params, key=lambda kv: parser._PARAM_KEYS.index(kv[0])))
            head = f"\n{pad}(rule {n.rule}"
            if params:
                head += " " + params
            out.append(head + f" (concl {sequent(n.conclusion)})")
        todo.append(None)
        todo += ((c, depth + 1) for c in reversed(n.premises))
    out.append(")")
    return "".join(out)


def test_render_proof_matches_the_per_occurrence_renderer():
    proofs = list(corpus_proofs())
    for sysid in CORE:
        for p in generate_suite(sysid, 30, seed=5):
            proofs += [(sysid, "proofgen", p), (sysid, "cut-free", eliminate_cuts(p, sysid))]
    assert {home for home, _, _ in proofs} == set(SystemId)
    for home, name, p in proofs:
        assert render_proof(home, p) == _render_per_occurrence(home, p), (home, name)
        assert render_sequent(p.conclusion) == _sequent_per_occurrence(p.conclusion)
    q = pf(Prop("p0"), seqpos())
    for s in (seq(), seq([q]), seq([], [q]), seq([q, q], [q])):
        assert render_sequent(s) == _sequent_per_occurrence(s)
