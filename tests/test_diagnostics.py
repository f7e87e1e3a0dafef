"""Checker diagnostics pinned against a golden file.

The golden (``tests/golden/diagnostics.json``, written by ``tests/mutants.py``)
holds the full (path, rule, condition, message) failure list of every
corpus proof against every system, of every single-node mutant of it in
its home system, and of every eigen mutant (an eigen token renamed to
one already taken), which pins the token-condition diagnostics.
"""

import json

import pytest

from mutants import (GOLDEN, corpus_proofs, eigen_mutants, eigen_subjects,
                     failures, mutants)
from twoseq.calculus import (TABLE, OccurrenceIndex, ProofNode, SystemId,
                             Violation, _family_violations, ax, check_proof,
                             check_rule_instance, expand_double_lines, ind, indax)
from twoseq.parser import parse_proof
from twoseq.positions import LtlPos, ltl_token, seqpos
from twoseq.syntax import And, Box, Imp, Prev, Prop, Sequent, pf

GOLD = json.loads(GOLDEN.read_text())
PROOFS = {(home.value, name): proof for home, name, proof in corpus_proofs()}


def test_corpus_against_every_system_matches_golden():
    assert len(GOLD["pairs"]) == 387
    assert {(r["home"], r["name"], r["system"]) for r in GOLD["pairs"]} == \
        {(home, name, sys.value) for home, name in PROOFS for sys in SystemId}
    for rec in GOLD["pairs"]:
        proof = PROOFS[rec["home"], rec["name"]]
        got = failures(proof, SystemId(rec["system"]))
        assert got == rec["failures"], (rec["home"], rec["name"], rec["system"])


def test_mutants_match_golden():
    want = {(r["home"], r["name"], r["mutant"]): r["failures"]
            for r in GOLD["mutants"]}
    assert len(want) == len(GOLD["mutants"]) == 416
    seen = []
    for (home, name), proof in PROOFS.items():
        for label, m in mutants(proof):
            key = (home, name, label)
            seen.append(key)
            assert failures(m, SystemId(home)) == want[key], key
    assert seen == list(want)
    assert sum(1 for fs in want.values() if fs) == 341


def test_eigen_mutants_match_golden():
    want = {(r["home"], r["name"], r["mutant"]): r["failures"]
            for r in GOLD["eigen_mutants"]}
    assert len(want) == len(GOLD["eigen_mutants"]) == 57
    seen = []
    for (home, name), proof in PROOFS.items():
        for prefix, subject in eigen_subjects(SystemId(home), proof):
            for label, m in eigen_mutants(subject):
                key = (home, name, prefix + label)
                seen.append(key)
                assert failures(m, SystemId(home)) == want[key], key
    assert seen == list(want)
    for key, fs in want.items():
        assert any(f[2] == "token-condition" for f in fs), key
    assert sum(1 for fs in want.values()
               if any("two rules" in f[3] for f in fs)) == 32
    assert sum(1 for fs in want.values()
               if any("occurs outside" in f[3] for f in fs)) == 57


def test_checker_is_total_on_cross_family_input():
    # every corpus proof against every system yields a report, and one of
    # another position family than its home system is rejected
    for (home, name), proof in PROOFS.items():
        for sys in SystemId:
            rep = check_proof(proof, sys)
            if TABLE[sys].family is not TABLE[SystemId(home)].family:
                assert not rep.accepted, (home, name, sys.value)


_OTHER_FAMILY_SCRIPTS = (
    """(proof K (rule boxL (alpha []) (beta {x}) (concl box p0 @ [] |- p0 @ [x])
          (rule ax (concl p0 @ [x] |- p0 @ [x]))))""",
    """(proof S42 (rule boxL (alpha {y}) (beta (1;{x}))
          (concl box p0 @ {y} |- p0 @ {x,y})
          (rule ax (concl p0 @ {x,y} |- p0 @ {x,y}))))""",
    """(proof K (rule diaR (alpha []) (beta (0;{x};{}))
          (concl p0 @ [x] |- dia p0 @ [])
          (rule ax (concl p0 @ [x] |- p0 @ [x]))))""",
)


def _per_node_failures(p, sys):
    """The failures as a loop over every node finds them: its family and
    connective violations, then its local ones; then the token condition,
    then the sort by path."""
    index, out = OccurrenceIndex(p), []
    for i, n in enumerate(index.nodes):
        found = _family_violations(n, sys) + check_rule_instance(n, sys)
        out += [Violation(index.path(i), v.rule, v.condition, v.message) for v in found]
    seen = set()
    for i, x in index.eigens:
        if x in seen:
            out.append(Violation(index.path(i), "", "token-condition",
                                 f"token {x} is the eigen token of two rules"))
        seen.add(x)
    for i, x in index.eigens:
        w = index.first_outside(x, (i,))
        if w is not None:
            out.append(Violation(
                index.path(i), "", "token-condition",
                f"eigen token {x} occurs outside its rule's premises (at "
                f"{'/'.join(map(str, index.path(w))) or 'root'})"))
    return sorted(out, key=lambda v: v.path)


def test_family_check_per_formula_matches_the_per_node_loop():
    cases = [(proof, sys) for proof in PROOFS.values() for sys in SystemId]
    assert len(cases) == 387
    for text in _OTHER_FAMILY_SCRIPTS:
        script = parse_proof(text)
        cases += [(expand_double_lines(script), sys) for sys in SystemId]
    past = pf(Prev(Prop("p0")), LtlPos())     # a past connective at a future position
    cases += [(ProofNode("ax", (), Sequent((past,), (past,))), sys) for sys in SystemId]
    for (home, _), proof in PROOFS.items():
        cases += [(m, SystemId(home)) for _, m in mutants(proof)]
        for _, subject in eigen_subjects(SystemId(home), proof):
            cases += [(m, SystemId(home)) for _, m in eigen_mutants(subject)]
    assert sum(1 for p, sys in cases if any(
        v.condition in ("family", "connective") for v in _per_node_failures(p, sys))) > 100
    for p, sys in cases:
        assert list(check_proof(p, sys).failures) == _per_node_failures(p, sys)


@pytest.mark.parametrize("text, step, base", [
    (text, step, base) for text, (step, base) in
    zip(_OTHER_FAMILY_SCRIPTS, [("{x}", "[]"), ("(1;{x})", "{y}"), ("(0;{x};{})", "[]")])])
def test_step_of_another_family_is_a_params_violation(text, step, base):
    script = parse_proof(text)
    rep = check_proof(expand_double_lines(script), script.system)
    assert [(v.condition, v.message) for v in rep.failures] == \
        [("params", f"step {step} does not apply to position {base}")]


# --- rule instances that only a few corpus nodes reach, each with its one fault ---

_P0, _Q = Prop("p0"), Prop("q")


def _at(steps: int, *tokens: str) -> LtlPos:
    return LtlPos(steps, frozenset(tokens))


def _only(n: ProofNode, sys: SystemId) -> list[tuple[str, str, str]]:
    return [(v.rule, v.condition, v.message) for v in check_rule_instance(n, sys)]


def test_an_implication_that_is_no_induction_axiom_instance_is_rejected():
    # implications that are no instance, the first two into a box as an instance is
    for f in (Imp(_P0, Box(_P0)), Imp(And(_P0, Box(_P0)), Box(_P0)), Imp(_P0, _P0)):
        n = ProofNode("indax", (), Sequent((), (pf(f, _at(0)),)))
        assert _only(n, SystemId.LTL_INDAX) == \
            [("indax", "schema", "formula is not an induction-axiom instance")]
    instance = indax(_P0, _at(0))
    assert _only(instance, SystemId.LTL_INDAX) == []


def test_an_induction_with_an_empty_side_is_rejected():
    premise = ax(pf(_P0, _at(0, "x")))
    params = (("t", ltl_token("z")), ("x", "x"))
    for s in (Sequent((pf(_P0, _at(0)),), ()), Sequent((), (pf(_P0, _at(0, "z")),))):
        assert _only(ProofNode("ind", params, s, (premise,)), SystemId.LTL) == \
            [("ind", "schema", "induction conclusion needs principal formulas on both sides")]


def _induction(ant, suc) -> ProofNode:
    """``ind`` over a premise with the principal formulas p0 at s+x and s+x+1
    between the given contexts."""
    premise = ProofNode("ax", (), Sequent(ant + (pf(_P0, _at(0, "x")),),
                                          (pf(_P0, _at(1, "x")),) + suc))
    return ind(premise, "x", ltl_token("z"))


def test_an_induction_with_context_on_both_sides_is_accepted_and_its_context_read():
    n = _induction((pf(_Q, _at(0, "y")),), (pf(_Q, _at(2, "y")),))
    assert n.conclusion.ant[0] == pf(_Q, _at(0, "y")) and \
        n.conclusion.suc[1] == pf(_Q, _at(2, "y"))
    assert _only(n, SystemId.LTL) == []
    # the premise must carry the succedent context after the principal formula
    above = n.premises[0].conclusion
    dropped = ProofNode("ind", n.params, n.conclusion,
                        (ProofNode("ax", (), Sequent(above.ant, above.suc[:1])),))
    assert _only(dropped, SystemId.LTL) == \
        [("ind", "schema", "premise does not match the induction schema")]
    # the eigen token may occur in neither context, next to the principal formula or not
    for ant, suc in (((pf(_Q, _at(0, "x")),), ()), ((), (pf(_Q, _at(0, "x")),)),
                     ((pf(_Q, _at(0, "x")), pf(_Q, _at(0, "y"))), ()),
                     ((), (pf(_Q, _at(0, "y")), pf(_Q, _at(0, "x"))))):
        assert _only(_induction(ant, suc), SystemId.LTL) == \
            [("ind", "eigen-position", "eigen token x occurs in a context position")]


def test_a_wrong_declared_base_position_is_reported_once_nothing_else_fails():
    premise = ProofNode("ax", (), Sequent((), (pf(_P0, seqpos("x")),)))

    def box_r(alpha, f) -> ProofNode:
        return ProofNode("boxR", (("alpha", alpha), ("x", "x")),
                         Sequent((), (pf(Box(f), seqpos()),)), (premise,))

    assert _only(box_r(seqpos(), _P0), SystemId.K) == []
    assert _only(box_r(seqpos("y"), _P0), SystemId.K) == \
        [("boxR", "params", "declared base position differs from the conclusion")]
    # with a schema fault the declared position is not compared
    for alpha in (seqpos(), seqpos("y")):
        assert _only(box_r(alpha, _Q), SystemId.K) == \
            [("boxR", "schema", "premise does not match the box-right schema")]
    # a rule with no base position reads no principal formula for an alpha
    conj = ProofNode("andR", (("alpha", seqpos()),), Sequent((), (pf(And(_P0, _P0), seqpos()),)),
                     (ProofNode("ax", (), Sequent((), (pf(_P0, seqpos()),))),) * 2)
    assert _only(conj, SystemId.K) == [("andR", "params", "rule andR takes no parameter alpha")]
