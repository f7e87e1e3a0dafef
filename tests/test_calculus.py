"""Rule engine: local instances, constraint matrix, bridges, token discipline."""

import ast
import hashlib
import inspect
import json
import os
import textwrap
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridge_oracle import reference_bridge
from proofgen import generate_suite
from strategies import pformula_st
from twoseq.calculus import (CORE_SYSTEMS, TABLE, ProofNode, SystemId, apply_rule,
                             apply_structural, ax, box_right, bridge_proof, check_proof,
                             check_rule_instance, expand_double_lines, indax, node, seq,
                             structural_bridge, weak_left)
from twoseq.errors import BridgeError, TwoseqError
from twoseq.parser import parse_proof, render_proof
from twoseq.positions import (LtlPos, PastPos, Position, SeqPos, SetPos, ltl_step, ltl_token,
                              pastpos, seqpos, setpos)
from twoseq.syntax import Box, Imp, Next, PFormula, Prop, is_subformula, pf, tokens_of
from twoseq.transform import canonical_rename, compose_mp
import twoseq.calculus as calculus
import twoseq.cli as cli
import twoseq.cutelim as cutelim
import twoseq.ltl as ltl
import twoseq.semantics as semantics
import twoseq.corpus as corpus

P0, P1 = Prop("p0"), Prop("p1")
E = seqpos()
X = seqpos("x")


def find_node(p: ProofNode, rule: str) -> ProofNode:
    if p.rule == rule:
        return p
    for c in p.premises:
        try:
            return find_node(c, rule)
        except LookupError:
            pass
    raise LookupError(rule)


# -- local rule instances --

def test_dia_right_of_axiom_d_per_system():
    # box A at [] |- A at [x]  ==>  box A at [] |- dia A at []
    step = find_node(corpus.axiom_d(), "diaR")
    assert check_rule_instance(step, SystemId.D) == []
    bad = check_rule_instance(step, SystemId.K)
    assert [v.condition for v in bad] == ["context-demand"]
    assert check_rule_instance(step, SystemId.K4) != []
    assert check_rule_instance(step, SystemId.T) == []
    assert check_rule_instance(step, SystemId.S4) == []


def test_box_left_empty_step_per_system():
    step = find_node(corpus.axiom_t(), "boxL")
    assert check_rule_instance(step, SystemId.T) == []
    assert [v.condition for v in check_rule_instance(step, SystemId.D)] == \
        ["beta-shape"]
    assert check_rule_instance(step, SystemId.S4) == []


def test_unconstrained_cut_rejected_in_restricted_systems():
    root = corpus.diamond_taut_cut()
    assert root.rule == "cut"
    assert [v.condition for v in check_rule_instance(root, SystemId.K)] == \
        ["cut-position"]
    assert check_rule_instance(root, SystemId.D) == []


def test_malformed_parameters_are_violations_not_crashes():
    base = ax(pf(P0, E))
    wide = weak_left(base, pf(P1, E))
    bad = node("excL", {"at": 7}, wide.conclusion, (wide,))
    out = check_rule_instance(bad, SystemId.K)
    assert out and out[0].condition == "params"
    no_x = node("boxR", {"alpha": E},
                seq((), (pf(Box(P0), E),)),
                (node("ax", {}, seq((pf(P0, X),), (pf(P0, X),))),))
    assert any(v.condition == "params" for v in check_rule_instance(no_x, SystemId.S4))


def test_stray_parameters_are_params_violations():
    script = parse_proof("(proof K (rule negR (beta [x]) (x y) (concl |- ~p0 @ [], p0 @ [])"
                         " (rule ax (concl p0 @ [] |- p0 @ []))))")
    rep = check_proof(expand_double_lines(script), script.system)
    assert [(v.path, v.rule, v.condition, v.message) for v in rep.failures] == [
        ((), "negR", "params", "rule negR takes no parameter beta"),
        ((), "negR", "params", "rule negR takes no parameter x")]
    leaf = node("ax", {"at": 0}, seq((pf(P0, E),), (pf(P0, E),)))
    assert [v.message for v in check_rule_instance(leaf, SystemId.K)] == \
        ["rule ax takes no parameter at"]
    boxed = find_node(corpus.axiom_k(), "boxR")
    stray = node("boxR", dict(boxed.params, pf=pf(P0, E)), boxed.conclusion,
                 boxed.premises)
    assert check_rule_instance(boxed, SystemId.K) == []
    assert [v.message for v in check_rule_instance(stray, SystemId.K)] == \
        ["rule boxR takes no parameter pf"]


A0, A1 = pf(P0, E), pf(P1, E)
AX0 = ax(A0)                                    # p0 |- p0
TWO_L = weak_left(AX0, A1)                      # p0, p1 |- p0
TWO_R = apply_structural("weakR", AX0, A1)      # p0 |- p1, p0
SAME_R = apply_structural("weakR", AX0, A0)     # p0 |- p0, p0


@pytest.mark.parametrize("rule, params, conclusion, premise, want", [
    ("weakL", {"pf": A1}, seq((A1, A0), (A0,)), AX0,
     [("schema", "weakening must append one antecedent formula")]),
    ("weakL", {}, seq((), (A0,)), AX0,
     [("schema", "weakening must append one antecedent formula")]),
    ("weakL", {"pf": A0}, seq((A0, A1), (A0,)), AX0,
     [("params", "declared formula differs from the weakened one")]),
    ("weakL", {}, seq((A0, A1), (A0,)), AX0, []),
    ("weakR", {"pf": A1}, seq((A0,), (A0, A1)), AX0,
     [("schema", "weakening must prepend one succedent formula")]),
    ("weakR", {"pf": A0}, seq((A0,), (A1, A0)), AX0,
     [("params", "declared formula differs from the weakened one")]),
    ("contrR", {}, seq((A0,), (A1,)), TWO_R,
     [("schema", "contraction must merge the first two succedent formulas")]),
    ("contrR", {}, seq((A0,), (A1,)), SAME_R,
     [("schema", "contraction must merge the first two succedent formulas")]),
    ("contrR", {"at": 0}, seq((A0,), (A0,)), SAME_R,
     [("params", "rule contrR takes no parameter at")]),
    ("excR", {"at": 0}, TWO_R.conclusion, TWO_R,
     [("schema", "conclusion is not the declared adjacent swap")]),
    ("excR", {"at": 1}, seq((A0,), (A0, A1)), TWO_R,
     [("params", "exchange index out of range")]),
    ("excR", {"at": "0"}, seq((A0,), (A0, A1)), TWO_R,
     [("params", "exchange index out of range")]),
    ("excR", {}, seq((A0,), (A0, A1)), TWO_R,
     [("params", "exchange index out of range")]),
    ("excL", {"at": 0, "pf": A0}, seq((A1, A0), (A0,)), TWO_L,
     [("params", "rule excL takes no parameter pf")]),
])
def test_structural_rule_diagnostics(rule, params, conclusion, premise, want):
    n = node(rule, params, conclusion, (premise,))
    assert [(v.condition, v.message) for v in check_rule_instance(n, SystemId.K)] == want


@pytest.mark.parametrize("build, message", [
    (lambda: apply_structural("contrL", TWO_L), "contrL: last two antecedent formulas must agree"),
    (lambda: apply_structural("contrR", TWO_R), "contrR: first two succedent formulas must agree"),
    (lambda: apply_structural("contrR", AX0), "contrR: first two succedent formulas must agree"),
    (lambda: apply_structural("excL", TWO_L, 1), "excL: index out of range"),
    (lambda: apply_structural("excR", TWO_R, 1), "excR: index out of range"),
    (lambda: apply_structural("excR", TWO_R, -1), "excR: index out of range"),
    (lambda: apply_structural("foo", AX0), "apply_structural builds no rule 'foo'"),
    (lambda: apply_structural("boxL", AX0), "apply_structural builds no rule 'boxL'"),
])
def test_structural_constructor_errors(build, message):
    with pytest.raises(TwoseqError) as e:
        build()
    assert str(e.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: apply_rule("foo", (AX0,)), "apply_rule builds no rule 'foo'"),
    (lambda: apply_rule("weakL", (AX0,)), "apply_rule builds no rule 'weakL'"),
    (lambda: apply_rule("ax", ()), "apply_rule builds no rule 'ax'"),
    (lambda: apply_rule("andR", (AX0,)), "andR: expected 2 premise(s), found 1"),
    (lambda: apply_rule("negR", (AX0, AX0)), "negR: expected 1 premise(s), found 2"),
    (lambda: apply_rule("cut", (AX0,), cutf=A0), "cut: expected 2 premise(s), found 1"),
    (lambda: apply_rule("ind", (), x="x"), "ind: expected 1 premise(s), found 0"),
    (lambda: apply_rule("ind", (apply_rule("negL", (AX0,)),), x="x"),
     "ind: premise edge formulas differ or are missing"),
    (lambda: apply_rule("andL1", (AX0,)),
     "andL1: the operand no premise carries is missing (other)"),
    (lambda: apply_rule("ind", (_built_by_name(SystemId.LTL, "ind").premises[0],), x="x"),
     "ind: missing step parameter"),
    (lambda: apply_rule("ind", (_built_by_name(SystemId.LTL, "ind").premises[0],),
                        step=ltl_token("z")), "ind: missing eigen token"),
    (lambda: apply_rule("cut", (AX0, AX0)), "cut: missing cut formula"),
    (lambda: apply_rule("boxL", (ax(pf(P0, seqpos("x"))),)), "boxL: missing step parameter"),
    (lambda: apply_rule("diaR", (ax(pf(P0, seqpos("x"))),)), "diaR: missing step parameter"),
    (lambda: apply_rule("boxR", (ax(pf(P0, seqpos("x"))),)), "boxR: missing eigen token"),
    (lambda: apply_rule("diaL", (ax(pf(P0, seqpos("x"))),)), "diaL: missing eigen token"),
    # no position the active one comes from
    (lambda: apply_rule("boxL", (ax(pf(P0, X)),), step=setpos("x")),
     "step {x} does not apply to position [x]"),
    (lambda: apply_rule("boxL", (ax(pf(P0, X)),), step=seqpos("y")),
     "position does not end with the declared step"),
    (lambda: apply_rule("nextL", (ax(pf(P0, LtlPos())),)), "position (0;{}) has no step to consume"),
    (lambda: apply_rule("boxL", (ax(pf(P0, LtlPos(1))),), step=ltl_step(1)),
     "boxL off sequence positions needs an explicit alpha"),
    (lambda: apply_rule("boxL", (ax(pf(P0, X)),), step=X, alpha=seqpos("y")),
     "boxL: alpha and the step do not reach the premise position"),
    (lambda: apply_rule("ind", (ax(pf(P0, LtlPos(0, frozenset("x")))),), x="x",
                        step=ltl_token("z")), "ind: premise positions are not s+x and s+x+1"),
    (lambda: apply_rule("ind", (_built_by_name(SystemId.LTL, "ind").premises[0],), x="x",
                        step=seqpos("z")), "ind: step [z] does not apply to position (0;{})"),
    # the other producers' refusals
    (lambda: compose_mp(AX0, AX0, SystemId.K),
     "first proof must conclude |- A -> B at some position"),
    (lambda: compose_mp(apply_rule("impR", (AX0,)), AX0, SystemId.K),
     "second proof must conclude |- A at some position"),
    (lambda: semantics.a_value({}, E), "lasso semantics needs step/token-set positions"),
    (lambda: is_subformula(pf(Next(P0), E), A0),
     "subformula decision requires the box/dia fragment"),
])
def test_apply_rule_refuses_what_it_cannot_build(build, message):
    with pytest.raises(TwoseqError) as e:
        build()
    assert str(e.value) == message


def test_step_named_twice_is_read_under_the_family_name_only():
    text = ("(proof LTL (rule boxL (alpha (0;{{}})) (beta [x]) (t (1;{{}}))"
            " (concl box p0 @ (0;{{}}) |- p0 @ (1;{{}})){}"
            " (rule ax (concl p0 @ (1;{{}}) |- p0 @ (1;{{}})))))")
    script = parse_proof(text.format(""))
    rep = check_proof(expand_double_lines(script), script.system)
    assert [(v.path, v.rule, v.condition, v.message) for v in rep.failures] == [
        ((), "boxL", "params", "rule boxL takes no parameter beta")]
    # one name alone is left as it was: the family's name is read, the
    # other one is taken but leaves the step missing
    premise = expand_double_lines(script).premises[0]
    for drop, want in (("beta", []), ("t", [("params", "missing step parameter")])):
        single = tuple((k, v) for k, v in script.root.params if k != drop)
        n = ProofNode("boxL", single, script.root.conclusion, (premise,))
        assert [(v.condition, v.message) for v in check_rule_instance(n, SystemId.LTL)] \
            == want, drop
    boxed = apply_rule("boxL", (ax(pf(P0, X)),), step=X)
    both = node("boxL", dict(boxed.params, t=X), boxed.conclusion, boxed.premises)
    assert check_rule_instance(boxed, SystemId.K) == []
    assert [(v.condition, v.message) for v in check_rule_instance(both, SystemId.K)] == \
        [("params", "rule boxL takes no parameter t")]


def test_eigen_condition_is_positional():
    # context formula extending the eigen position blocks the rule
    inner = ax(pf(P0, X))
    ctx = weak_left(inner, pf(P1, X))       # p1 at [x], context shares [x]
    bad = box_right(ctx, "x")
    out = check_rule_instance(bad, SystemId.S4)
    assert [v.condition for v in out] == ["eigen-position"]


# -- whole-proof checking --

_MODAL = ("ax", "cut", "weakL", "weakR", "contrL", "contrR", "excL", "excR",
          "negL", "negR", "andL1", "andL2", "andR", "orL", "orR1", "orR2",
          "impL", "impR", "boxL", "boxR", "diaL", "diaR")


def test_rules_by_system_are_pinned_in_order():
    # the parser's "not part of this system" check and every report read
    # these tuples, so each system's list and its order are fixed
    want = {sysid: _MODAL for sysid in calculus.CORE_SYSTEMS + (SystemId.S42,)}
    want[SystemId.LTL] = _MODAL + ("nextL", "nextR", "ind")
    want[SystemId.LTL_INDAX] = _MODAL + ("nextL", "nextR", "indax")
    want[SystemId.LTLP] = _MODAL + ("nextL", "nextR", "prevL", "prevR", "histL",
                                    "histR", "onceL", "onceR", "ind", "pind")
    assert calculus.RULES_BY_SYSTEM == want
    assert list(calculus.RULES_BY_SYSTEM) == list(SystemId)


def test_core_systems_are_pinned_in_order():
    assert calculus.CORE_SYSTEMS == (SystemId.K, SystemId.D, SystemId.T,
                                     SystemId.K4, SystemId.S4)


@pytest.mark.parametrize("text, want", [
    *((m.value, m) for m in SystemId), *((m.value.lower(), m) for m in SystemId),
    (" S4.2 ", SystemId.S42), ("LTL-IndAx", SystemId.LTL_INDAX),
    ("LTLI", SystemId.LTL_INDAX), ("ltl_p", SystemId.LTLP)])
def test_system_spellings_are_pinned(text, want):
    assert SystemId.parse(text) is want


def test_unknown_system_spelling_is_refused():
    with pytest.raises(TwoseqError, match="^unknown system: 'K5'$"):
        SystemId.parse("K5")


# each column of the table, a pair of systems whose rows differ in it
# alone, a corpus proof the first accepts, and what the second rejects it for
_COLUMNS = [
    ("family", SystemId.S4, SystemId.S42, corpus.axiom_k, "family"),
    ("box_left_shape", SystemId.T, SystemId.D, corpus.axiom_t, "beta-shape"),
    ("context_demand", SystemId.D, SystemId.K, corpus.diamond_taut_cut, "cut-position"),
    ("induction", SystemId.LTL, SystemId.LTL_INDAX, corpus.ltl_a8, "schema"),
]


def test_the_table_has_the_four_columns():
    assert list(calculus.ConstraintTable._fields) == [column for column, *_ in _COLUMNS]


@pytest.mark.parametrize("column, accepts, rejects, build, condition", _COLUMNS,
                         ids=[c[0] for c in _COLUMNS])
def test_each_column_is_load_bearing(column, accepts, rejects, build, condition):
    rows = calculus.TABLE[accepts], calculus.TABLE[rejects]
    assert [f for f in calculus.ConstraintTable._fields
            if getattr(rows[0], f) != getattr(rows[1], f)] == [column]
    p = build()
    assert check_proof(p, accepts).accepted
    assert {v.condition for v in check_proof(p, rejects).failures} == {condition}


def test_the_table_rows_order_the_spectrum():
    rows = [(sys.value, calculus.TABLE[sys]) for sys in SystemId]
    strict = {(a, b) for a, r in rows for b, q in rows if r < q}
    assert strict == {("K", "D"), ("K", "T"), ("K", "K4"), ("K", "S4"), ("D", "T"),
                      ("D", "S4"), ("T", "S4"), ("K4", "S4")}
    for a, r in rows:
        for b, q in rows:
            assert (r <= q) == (a == b or (a, b) in strict), (a, b)
            assert (r >= q, r > q) == (q <= r, q < r), (a, b)


def test_acceptance_is_monotone_along_the_table_order():
    # a higher row only widens box-left shapes or drops the context demand,
    # so a proof accepted in a system is accepted in every system above it
    pairs = [(lo, hi) for lo in CORE_SYSTEMS for hi in CORE_SYSTEMS
             if calculus.TABLE[lo] < calculus.TABLE[hi]]
    assert len(pairs) == 8
    proofs = [p for sys in CORE_SYSTEMS for p in
              [q for _, q in corpus.entries(sys)] + generate_suite(sys, 100, 7)]
    accepted = [{sys for sys in CORE_SYSTEMS if check_proof(p, sys).accepted} for p in proofs]
    assert len(proofs) == 520
    broken = [(i, lo.value, hi.value) for i, ok in enumerate(accepted)
              for lo, hi in pairs if lo in ok and hi not in ok]
    assert broken == []


def test_per_system_decisions_name_no_system():
    # semantics, cut elimination and the fuzz dispatch read the table row
    members = set(SystemId.__members__)
    sources = [Path(m.__file__).read_text() for m in (semantics, cutelim)]
    sources += [textwrap.dedent(inspect.getsource(f)) for f in (cli.cmd_eval, cli.cmd_fuzz)]
    for text in sources:
        named = [n.attr for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name) and n.value.id == "SystemId"
                 and n.attr in members]
        assert named == []


def test_the_temporal_module_holds_no_pack_and_no_loop():
    # one fuzz loop and one pack class per family live in `semantics`;
    # `ltl` only names them for the linear-time systems
    tree = ast.parse(Path(ltl.__file__).read_text())
    kinds = (ast.ClassDef, ast.For, ast.While, ast.ListComp, ast.SetComp,
             ast.DictComp, ast.GeneratorExp)
    assert [type(n).__name__ for n in ast.walk(tree) if isinstance(n, kinds)] == []


def test_corpus_positive_matrix():
    for sysid in SystemId:
        for name, proof in corpus.entries(sysid):
            assert check_proof(proof, sysid).accepted, (sysid, name)


def test_corpus_negative_matrix():
    matrix = [
        (corpus.axiom_d(), (SystemId.K, SystemId.K4)),
        (corpus.axiom_t(), (SystemId.K, SystemId.D, SystemId.K4)),
        (corpus.axiom_4(), (SystemId.K, SystemId.D, SystemId.T)),
        (corpus.diamond_taut_cut(), (SystemId.K, SystemId.K4)),
    ]
    for proof, systems in matrix:
        for sysid in systems:
            assert not check_proof(proof, sysid).accepted, sysid


def test_corpus_renderings_match_their_digests():
    """Every corpus derivation, rendered, against the sha256 pinned in
    ``golden/corpus_digests.json``: a refactoring of the corpus builds
    the same derivations node for node."""
    want = json.loads((Path(__file__).parent / "golden" / "corpus_digests.json").read_text())
    got = {f"{sysid.value}/{name}": hashlib.sha256(render_proof(sysid, p).encode()).hexdigest()
           for sysid in SystemId for name, p in corpus.entries(sysid)}
    assert len(got) == 43
    assert got == want


_ORIGIN = {SeqPos: seqpos(), SetPos: setpos(), LtlPos: LtlPos(), PastPos: pastpos()}


def _built_by_name(sys: SystemId, rule: str) -> ProofNode:
    """A small proof whose last rule is ``rule``, every node built by its
    name through ``apply_rule``, ``apply_structural``, ``ax`` or ``indax``."""
    fam = TABLE[sys].family
    o, tick = _ORIGIN[fam], ltl_step(1)
    a, b = pf(P0, o), pf(P1, o)
    step = {SeqPos: seqpos, SetPos: setpos}.get(fam, ltl_token)("x")
    up = calculus.shift(o, "+", step)               # where a step or an eigen token x leads
    back = calculus.shift(o, "-", ltl_token("x")) if fam is PastPos else None

    def stepped(r, at):                            # boxL, diaR, histL, onceR
        return apply_rule(r, (ax(pf(P0, at)),), step=step, alpha=o)

    def induction():                               # T at s+x |- T at s+x+1, T = p0 -> p0
        sign = "-" if rule == "pind" else "+"
        s = calculus.shift(o, sign, ltl_token("x"))
        top = apply_rule("impR", (ax(pf(P0, calculus.shift(s, sign, tick))),))
        prem = apply_structural("weakL", top, pf(Imp(P0, P0), s))
        return apply_rule(rule, (prem,), x="x", step=ltl_token("z"))

    build = {
        "ax": lambda: ax(a),
        "cut": lambda: apply_rule("cut", (ax(a), ax(a)), cutf=a),
        "weakL": lambda: apply_structural("weakL", ax(a), b),
        "weakR": lambda: apply_structural("weakR", ax(a), b),
        "contrL": lambda: apply_structural("contrL", apply_structural("weakL", ax(a), a)),
        "contrR": lambda: apply_structural("contrR", apply_structural("weakR", ax(a), a)),
        "excL": lambda: apply_structural("excL", apply_structural("weakL", ax(a), b), 0),
        "excR": lambda: apply_structural("excR", apply_structural("weakR", ax(a), b), 0),
        "negL": lambda: apply_rule("negL", (ax(a),)),
        "negR": lambda: apply_rule("negR", (ax(a),)),
        "andL1": lambda: apply_rule("andL1", (ax(a),), other=P1),
        "andL2": lambda: apply_rule("andL2", (ax(b),), other=P0),
        "andR": lambda: apply_rule("andR", (ax(a), ax(b))),
        "orL": lambda: apply_rule("orL", (ax(a), ax(b))),
        "orR1": lambda: apply_rule("orR1", (ax(a),), other=P1),
        "orR2": lambda: apply_rule("orR2", (ax(b),), other=P0),
        "impL": lambda: apply_rule("impL", (ax(b), ax(a))),
        "impR": lambda: apply_rule("impR", (ax(a),)),
        "boxL": lambda: stepped("boxL", up),
        "boxR": lambda: apply_rule("boxR", (stepped("boxL", up),), x="x"),
        "diaR": lambda: stepped("diaR", up),
        "diaL": lambda: apply_rule("diaL", (stepped("diaR", up),), x="x"),
        "nextL": lambda: apply_rule("nextL", (ax(pf(P0, calculus.shift(o, "+", tick))),)),
        "nextR": lambda: apply_rule("nextR", (build["nextL"](),)),
        "prevL": lambda: apply_rule("prevL", (ax(a),)),
        "prevR": lambda: apply_rule("prevR", (apply_rule("prevL", (ax(a),)),)),
        "histL": lambda: stepped("histL", back),
        "histR": lambda: apply_rule("histR", (stepped("histL", back),), x="x"),
        "onceR": lambda: stepped("onceR", back),
        "onceL": lambda: apply_rule("onceL", (stepped("onceR", back),), x="x"),
        "ind": induction,
        "pind": induction,
        "indax": lambda: indax(P0, o),
    }
    return build[rule]()


@pytest.mark.parametrize("sys_id", list(SystemId), ids=lambda s: s.value)
def test_every_rule_is_built_by_name_and_accepted(sys_id):
    fuzzed = sys_id in CORE_SYSTEMS or sys_id is SystemId.LTL
    for rule in calculus.RULES_BY_SYSTEM[sys_id]:
        p = _built_by_name(sys_id, rule)
        assert p.rule == rule
        rep = check_proof(p, sys_id)
        assert rep.accepted, (rule, rep.render_text())
        if fuzzed:
            assert semantics.soundness_fuzz(p, sys_id, budget=200, seed=1).ok, rule


def _scanned_tokens(p: ProofNode) -> tuple[set, set]:
    """`proof_tokens` as it once was, every conclusion's tokens and every
    parameter's, and the parameters' alone."""
    binders = {r for r, s in calculus.SCHEMAS.items() if "x" in s.params} | {"ind", "pind"}
    seen, params = set(), set()
    for n in calculus.subproofs(p):
        seen |= tokens_of(n.conclusion)
        for _, v in n.params:
            if isinstance(v, Position):
                params |= v.tokens()
            elif isinstance(v, PFormula):
                params |= v.pos.tokens()
            elif n.rule in binders and isinstance(v, str):
                params.add(v)
    return seen | params, params


def test_proof_tokens_of_an_accepted_proof_equal_the_old_parameter_scan():
    # once a node's local check holds, each token of its parameters occurs in
    # its own conclusion or a premise's, so reading conclusions alone loses none
    cases = [(sys, p) for sys in SystemId for _, p in corpus.entries(sys)]
    cases += [(sys, p) for sys in CORE_SYSTEMS for p in generate_suite(sys, 100, 7)]
    cases += [(sys, _built_by_name(sys, rule))
              for sys in SystemId for rule in calculus.RULES_BY_SYSTEM[sys]]
    assert len(cases) == 43 + 500 + 214
    with_params = 0
    for sys, p in cases:
        assert check_proof(p, sys).accepted
        old, params = _scanned_tokens(p)
        assert calculus.proof_tokens(p) == old, (sys, p.rule)
        with_params += bool(params)
    assert with_params > 300


def test_axiom_d_rejection_names_the_dia_step():
    rep = check_proof(corpus.axiom_d(), SystemId.K)
    assert any(v.rule == "diaR" and v.condition == "context-demand"
               for v in rep.failures)


def test_axiom_4_rejected_in_k_for_its_two_token_step():
    rep = check_proof(corpus.axiom_4(), SystemId.K)
    assert any(v.rule == "boxL" and v.condition == "beta-shape"
               for v in rep.failures)


def test_token_condition_rejects_shared_eigen_tokens():
    # two box-right rules with the same eigen token
    left = box_right(apply_rule("boxL", (ax(pf(P0, X)),), step=X), "x")
    right = box_right(apply_rule("boxL", (ax(pf(P0, X)),), step=X), "x")
    from twoseq.calculus import and_right
    both = and_right(left, right)
    rep = check_proof(both, SystemId.S4)
    assert not rep.accepted
    assert any(v.condition == "token-condition" for v in rep.failures)
    # after renaming apart the proof is fine
    assert check_proof(canonical_rename(both), SystemId.S4).accepted


def test_check_proof_invariant_under_renaming():
    for sysid in SystemId:
        for name, proof in corpus.entries(sysid):
            renamed = canonical_rename(proof)
            assert check_proof(renamed, sysid).verdict == \
                check_proof(proof, sysid).verdict, (sysid, name)
    neg = corpus.axiom_4()
    assert not check_proof(canonical_rename(neg), SystemId.K).accepted


def test_temporal_connectives_rejected_in_modal_systems():
    from twoseq.syntax import Next
    from twoseq.positions import LtlPos
    n = node("ax", {}, seq((pf(Next(P0), LtlPos()),), (pf(Next(P0), LtlPos()),)))
    rep = check_proof(n, SystemId.LTL)
    assert rep.accepted
    rep_k = check_proof(node("ax", {}, seq((pf(Next(P0), E),), (pf(Next(P0), E),))),
                        SystemId.K)
    assert any(v.condition == "connective" for v in rep_k.failures)


def test_past_connectives_rejected_in_plain_ltl():
    from twoseq.syntax import Prev
    from twoseq.positions import LtlPos
    n = node("ax", {}, seq((pf(Prev(P0), LtlPos()),), (pf(Prev(P0), LtlPos()),)))
    assert any(v.condition == "connective"
               for v in check_proof(n, SystemId.LTL).failures)
    # and accepted with past positions in the past system
    from twoseq.positions import PastPos
    n2 = node("ax", {}, seq((pf(Prev(P0), PastPos()),), (pf(Prev(P0), PastPos()),)))
    assert check_proof(n2, SystemId.LTLP).accepted


@pytest.mark.parametrize("base, t", [(seqpos(), seqpos("z")), (setpos(), setpos("z"))],
                         ids=["sequence", "set"])
def test_ind_off_linear_time_positions_is_a_family_violation(base, t):
    # the target step applies to these positions, the eigen step does not
    up = calculus.shift(base, "+", t)
    s = seq((pf(P0, base),), (pf(P0, up),))
    n = node("ind", {"alpha": base, "x": "a", "t": t}, s, (ProofNode("premise", (), s),))
    at_root = [(v.condition, v.message) for v in check_proof(n, SystemId.LTL).failures
               if v.path == ()]
    assert at_root == [("family", f"position {base} is not in the LtlPos family"),
                       ("family", f"step (0;{{a}}) does not apply to position {base}")]


def test_arity_violation():
    n = node("cut", {"cutf": pf(P0, E)}, seq(), (ax(pf(P0, E)),))
    assert any(v.condition == "arity" for v in check_rule_instance(n, SystemId.S4))


# -- bridges --

def test_bridge_single_weakening():
    frm = seq((pf(P0, X),), (pf(P1, X),))
    to = seq((pf(P0, X), pf(P1, E)), (pf(P1, X),))
    steps = structural_bridge(frm, to)
    assert [r for r, _ in steps] == ["weakL"]


def test_bridge_single_contraction():
    frm = seq((), (pf(P0, X), pf(P0, X)))
    to = seq((), (pf(P0, X),))
    steps = structural_bridge(frm, to)
    assert [r for r, _ in steps] == ["contrR"]


def test_bridge_cannot_delete():
    frm = seq((pf(P0, X),), ())
    to = seq((), (pf(P0, X),))
    with pytest.raises(BridgeError) as e:
        structural_bridge(frm, to)
    assert e.value.missing == pf(P0, X)


def test_bridge_proof_reorders_and_rechecks():
    base = ax(pf(P0, E))
    widened = weak_left(weak_left(base, pf(P1, E)), pf(Box(P0), E))
    target = seq((pf(Box(P0), E), pf(P0, E), pf(P1, E)), (pf(P0, E),))
    out = bridge_proof(widened, target)
    assert out.conclusion == target
    assert check_proof(out, SystemId.K).accepted


def test_bridge_duplication_via_weakening():
    base = ax(pf(P0, E))
    to = seq((pf(P0, E), pf(P0, E)), (pf(P0, E), pf(P1, X)))
    out = bridge_proof(base, to)
    assert out.conclusion == to
    assert check_proof(out, SystemId.S4).accepted


def test_expand_rejects_impossible_bridge():
    from twoseq.parser import parse_proof
    from twoseq.calculus import expand_double_lines
    text = """
    (proof K
      (bridge (concl |- p1 @ [])
        (rule ax (concl p0 @ [] |- p0 @ []))))
    """
    with pytest.raises(BridgeError) as e:
        expand_double_lines(parse_proof(text))
    assert "root" in str(e.value)


def _bridge_tree(*children):
    """A script whose root has the given children; expansion checks no rule."""
    return calculus.ProofScript(SystemId.K, calculus.ProofNode(
        "andR", (), seq((), (pf(P0, E),)), children))


def test_expand_reports_the_first_bad_bridge_with_its_path():
    leaf = calculus.ProofNode("ax", (), seq((pf(P0, E),), (pf(P0, E),)))

    def bridge(to, *kids):
        return calculus.ProofNode("bridge", (), to, kids)

    good = bridge(seq((pf(P0, E), pf(P1, E)), (pf(P0, E),)), leaf)
    drops = bridge(seq((), (pf(P0, E),)), leaf)        # drops the antecedent
    twins = bridge(seq((pf(P0, E),), (pf(P0, E),)), leaf, leaf)
    inner = calculus.ProofNode("negR", (), seq(), (good, drops))
    cases = [
        # children finish left to right, each bridge after its own subtree
        (_bridge_tree(good, inner, drops), BridgeError,
         "cannot bridge: antecedent (at 1/1) side would need to drop "
         "PFormula(formula=Prop(name='p0'), pos=SeqPos(items=()))"),
        (_bridge_tree(bridge(seq(), good)), BridgeError,
         "cannot bridge: antecedent (at 0) side would need to drop "
         "PFormula(formula=Prop(name='p0'), pos=SeqPos(items=()))"),
        (_bridge_tree(drops, twins), BridgeError,
         "cannot bridge: antecedent (at 0) side would need to drop "
         "PFormula(formula=Prop(name='p0'), pos=SeqPos(items=()))"),
        (_bridge_tree(twins, drops), TwoseqError,
         "double-line node must have exactly one child"),
        (_bridge_tree(good, good, inner), BridgeError,
         "cannot bridge: antecedent (at 2/1) side would need to drop "
         "PFormula(formula=Prop(name='p0'), pos=SeqPos(items=()))"),
    ]
    for script, kind, message in cases:
        with pytest.raises(kind) as e:
            expand_double_lines(script)
        assert str(e.value) == message
    ok = expand_double_lines(_bridge_tree(good, calculus.ProofNode(
        "negR", (), seq(), (good,))))
    assert [n.rule for n in (ok.premises[0], ok.premises[1].premises[0])] == \
        ["weakL", "weakL"]


@st.composite
def bridge_ends(draw):
    """Two sequents over a small shared pool of formulas; about half of
    them can be bridged (every formula of the first occurs in the second)."""
    pool = draw(st.lists(pformula_st(), min_size=1, max_size=4))
    side = st.lists(st.sampled_from(pool), max_size=5)
    frm = seq(draw(side), draw(side))
    ant, suc = draw(side), draw(side)
    if draw(st.booleans()):
        ant += list(dict.fromkeys(frm.ant))
        suc += list(dict.fromkeys(frm.suc))
    return frm, seq(draw(st.permutations(ant)), draw(st.permutations(suc)))


@given(bridge_ends())
@settings(max_examples=150, deadline=None)
def test_bridge_plan_is_the_chain_bridge_proof_builds(ends):
    frm, to = ends
    leaf = ProofNode("leaf", (), frm)
    try:
        steps = structural_bridge(frm, to)
    except BridgeError as e:
        with pytest.raises(BridgeError) as again:
            bridge_proof(leaf, to)
        assert (again.value.missing, again.value.side) == (e.missing, e.side)
        return
    out = bridge_proof(leaf, to)
    assert out.conclusion == to
    chain = []
    while out is not leaf:
        assert check_rule_instance(out, SystemId.S4) == [], out.rule
        chain.append((out.rule, dict(out.params)))
        out, = out.premises
    assert tuple(reversed(chain)) == steps


@st.composite
def wide_bridge_ends(draw):
    """Two sequents of up to 8 formulas a side over a pool of at most 3, so
    that formulas repeat; at least half of them can be bridged (the first
    draws only from the second's formulas, side by side)."""
    pool = draw(st.lists(pformula_st(), min_size=1, max_size=3))
    to = seq(draw(st.lists(st.sampled_from(pool), max_size=8)),
             draw(st.lists(st.sampled_from(pool), max_size=8)))
    if draw(st.booleans()):
        frm = [draw(st.lists(st.sampled_from(xs), max_size=8)) if xs else []
               for xs in (to.ant, to.suc)]
    else:
        frm = [draw(st.lists(st.sampled_from(pool), max_size=8)) for _ in "LR"]
    return seq(*frm), to


@given(wide_bridge_ends())
@settings(max_examples=500, deadline=None)
def test_bridge_plan_matches_the_reference_builder(ends):
    frm, to = ends
    assert structural_bridge(to, to) == ()
    try:
        want = reference_bridge(frm, to)
    except BridgeError as e:
        with pytest.raises(BridgeError) as got:
            structural_bridge(frm, to)
        assert (got.value.missing, got.value.side) == (e.missing, e.side)
        return
    assert structural_bridge(frm, to) == want


def test_identity_bridge_is_empty_and_keeps_the_proof():
    a, b = pf(P0, E), pf(P1, X)
    for p in (ax(a), apply_structural("weakR", weak_left(weak_left(ax(a), b), a), b)):
        s = p.conclusion
        assert structural_bridge(s, s) == ()
        assert bridge_proof(p, s) is p


_BROKEN_BRIDGE = """
import sys
from twoseq import calculus
from twoseq.calculus import ProofNode, ProofScript, SystemId, seq
from twoseq.errors import KernelInvariantError
from twoseq.positions import seqpos
from twoseq.syntax import Prop, pf

if __debug__:
    sys.exit("not running under python -O")
a, b = pf(Prop("p0"), seqpos()), pf(Prop("p1"), seqpos())
leaf = ProofNode("ax", (), seq((a,), (a,)))
script = ProofScript(SystemId.S4, ProofNode("bridge", (), seq((a, b), (a,)), (leaf,)))
real = calculus.apply_structural
# each weakening adds its formula twice, so the bridge overshoots its target
calculus.apply_structural = lambda rule, p, value=None: (
    real(rule, real(rule, p, value), value) if rule.startswith("weak")
    else real(rule, p, value))
try:
    calculus.expand_double_lines(script)
except KernelInvariantError as e:
    print(e)
    sys.exit(0)
sys.exit("the bridge that missed its target went unnoticed")
"""


def test_bridge_target_is_checked_under_python_O():
    src = str(Path(calculus.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", _BROKEN_BRIDGE],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "bridge did not reach the requested sequent"
