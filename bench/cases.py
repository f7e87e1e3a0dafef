"""Seeded inputs, with their known answers, for the three workloads.

Every case holds the text one CLI pipeline reads, the system it runs in,
and the answer fixed when the text was generated.  A pipeline function
(`run_*`) does what the matching ``twoseq`` subcommand does on that text;
a verifier (`verify_*`) compares its outcome with the answer.  Pipelines
reach the library through module attributes (``calculus.check_proof``,
not a name imported from it), so that the tracer in ``spans`` sees every
call once it has wrapped those attributes.

A seed changes the content of the inputs (atoms, eigen tokens, formula
shapes, fuzzing seeds, case order) but not their sizes, so every seed
asks for about the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from twoseq import calculus, corpus, cutelim, ltl, parser, semantics
from twoseq.calculus import (CORE_SYSTEMS, STRUCTURAL_RULES, ProofNode,
                             ScriptNode, SystemId, and_right, ax, box_right,
                             imp_right, weak_left)
from twoseq.positions import LtlPos, seqpos
from twoseq.syntax import Box, Dia, Formula, Imp, Next, Prop, Sequent, pf, seq

import proofsuite

MODAL_BUDGET = 200          # acceptance budget of the modal fuzzer
LTL_BUDGET = 500            # acceptance budget of the lasso fuzzer
LTL_BOUND = 4               # token valuation bound of `twoseq fuzz`
ATOMS = tuple(f"p{i}" for i in range(6))
LINEAR = (SystemId.LTL, SystemId.LTL_INDAX)


@dataclass(frozen=True)
class Sizes:
    """Family sizes of one benchmark scale."""

    wide: tuple[tuple[int, int], ...]   # (leaves, copies) of wide S4 scripts
    shared_eigen: tuple[int, ...]   # leaves of the known-reject wide scripts
    suite_per_system: int           # cut-elimination proofs per core system
    fuzz_suite_per_system: int      # proofgen conclusions fuzzed per system
    deep: tuple[tuple[int, int], ...]   # (box/dia depth, copies)
    nesting: tuple[int, ...]        # dia/box nesting of the LTL tautologies
    chains: tuple[int, ...]         # length of the chained positions


# The tail latency is the eleventh largest, so the heaviest inputs come in
# copies that put it inside one size class, not on the edge between two:
# the wide scripts of 48 leaves, and the box/dia formulas of depth 16
FULL = Sizes(wide=((192, 1), (128, 1), (96, 2), (64, 3), (48, 4), (32, 4),
                   (16, 4), (8, 4)),
             shared_eigen=(8, 16), suite_per_system=100,
             fuzz_suite_per_system=4, deep=((4, 1), (8, 1), (12, 1), (16, 16)),
             nesting=(2, 3, 4, 5, 6), chains=(2, 3, 4))

TINY = Sizes(wide=((2, 1), (4, 1)), shared_eigen=(4,),
             suite_per_system=2, fuzz_suite_per_system=1,
             deep=((2, 1), (4, 1)), nesting=(1, 2), chains=(2,))


@dataclass
class Case:
    family: str
    size: int
    system: SystemId
    text: str
    expect: object          # the known answer; its form depends on the family
    fuzz_seed: int = 0


@dataclass
class Outcome:
    """What one pipeline run produced; read by the verifier and the metrics."""

    script_nodes: int = 0
    proof: Optional[ProofNode] = None
    report: Optional[calculus.CheckReport] = None
    output: Optional[ProofNode] = None
    recheck: Optional[calculus.CheckReport] = None
    subformula: Optional[bool] = None
    sequent: Optional[Sequent] = None
    rendered: Optional[str] = None
    verdict: object = None

    def node_counts(self) -> "NodeCounts":
        return NodeCounts(
            self.script_nodes,
            count_nodes(self.proof) if self.proof is not None else 0,
            count_nodes(self.output) if self.output is not None else 0)


@dataclass(frozen=True)
class NodeCounts:
    """Proof sizes of one operation: the script it read, the proof after
    bridge expansion, and the cut-free output (0 when there is none)."""

    script: int
    expanded: int
    output: int

    @property
    def final(self) -> int:
        return self.output or self.expanded


def count_nodes(p) -> int:
    kids = "children" if isinstance(p, ScriptNode) else "premises"
    total, stack = 0, [p]
    while stack:
        n = stack.pop()
        total += 1
        stack.extend(getattr(n, kids))
    return total


def with_bridges(p: ProofNode) -> ScriptNode:
    """The script of a proof with each maximal run of structural rules
    written as one double-line bridge node, as a person would write it."""
    if p.rule in STRUCTURAL_RULES:
        top = p
        while p.rule in STRUCTURAL_RULES:
            p = p.premises[0]
        return ScriptNode("bridge", (), top.conclusion, (with_bridges(p),))
    return ScriptNode(p.rule, p.params, p.conclusion,
                      tuple(with_bridges(c) for c in p.premises))


# --- pipelines: one per CLI subcommand, on text input ---

def _load(text: str, out: Outcome) -> tuple[SystemId, ProofNode]:
    script = parser.parse_proof(text)
    out.script_nodes = count_nodes(script.root)
    out.proof = calculus.expand_double_lines(script)
    return script.system, out.proof


def run_check(case: Case) -> Outcome:
    """`twoseq check`: parse, expand double lines, check."""
    out = Outcome()
    sys_id, proof = _load(case.text, out)
    out.report = calculus.check_proof(proof, sys_id)
    return out


def run_cutelim(case: Case) -> Outcome:
    """`twoseq cutelim` then `twoseq subformula` on its output."""
    out = Outcome()
    sys_id, proof = _load(case.text, out)
    out.report = calculus.check_proof(proof, sys_id)
    if not out.report.accepted:
        return out
    out.output = cutelim.eliminate_cuts(proof, sys_id)
    out.rendered = parser.render_proof(sys_id, out.output)
    out.recheck = calculus.check_proof(out.output, sys_id)
    out.subformula = cutelim.verify_subformula_property(out.output)
    return out


def run_fuzz(case: Case) -> Outcome:
    """`twoseq fuzz`: parse, expand, check, then fuzz the end sequent."""
    out = Outcome()
    sys_id, proof = _load(case.text, out)
    out.report = calculus.check_proof(proof, sys_id)
    if not out.report.accepted:
        return out
    out.sequent = proof.conclusion
    out.verdict = _fuzz(out.sequent, sys_id, case.fuzz_seed)
    return out


def run_fuzz_sequent(case: Case) -> Outcome:
    """The fuzzer on a bare sequent, which has no proof to check."""
    out = Outcome()
    out.sequent = parser.parse_sequent(case.text)
    out.verdict = _fuzz(out.sequent, case.system, case.fuzz_seed)
    return out


def _fuzz(s: Sequent, sys_id: SystemId, seed: int):
    if sys_id in LINEAR:
        return ltl.ltl_soundness_fuzz(s, LTL_BUDGET, seed, LTL_BOUND)
    return semantics.soundness_fuzz(s, sys_id, MODAL_BUDGET, seed)


# --- verifiers: outside the timed region ---

def verify_check(case: Case, out: Outcome) -> Optional[str]:
    verdict, condition = case.expect
    if verdict == "accept":
        return None if out.report.accepted else "rejected an accepted proof"
    conditions = {v.condition for v in out.report.failures}
    if out.report.accepted or conditions != {condition}:
        return f"expected rejection by {condition}, got {sorted(conditions)}"
    return None


def verify_cutelim(case: Case, out: Outcome) -> Optional[str]:
    if not out.report.accepted:
        return "rejected the input proof"
    if not out.recheck.accepted:
        return "the cut-free output does not check"
    if not cutelim.is_cut_free(out.output):
        return "the output still has a cut"
    if out.output.conclusion != case.expect:
        return "the output proves another end sequent"
    if not out.subformula:
        return "the output breaks the subformula property"
    return None


def verify_fuzz(case: Case, out: Outcome) -> Optional[str]:
    if out.report is not None and not out.report.accepted:
        return "rejected an accepted proof"
    if out.verdict.kind != case.expect:
        return f"expected {case.expect}, got {out.verdict.kind}"
    if out.verdict.ok:
        return None
    if case.system in LINEAR:
        holds = ltl.sequent_satisfied(out.verdict.word, out.verdict.valuation,
                                      out.sequent)
    else:
        holds = semantics.sequent_holds(out.verdict.model, case.system,
                                        out.verdict.rho, out.sequent)
    return "the counterexample satisfies the sequent" if holds else None


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[Case], Outcome]
    verify: Callable[[Case, Outcome], Optional[str]]
    build: Callable[[int, Sizes], list[Case]]


# --- generators ---

def _render(sys_id: SystemId, p: ProofNode) -> str:
    return parser.render_proof(sys_id, with_bridges(p))


def wide_proof(leaves: int, rng: random.Random,
               shared_eigen: bool = False) -> ProofNode:
    """Balanced andR over `leaves` boxR subproofs of |- box(q -> (s -> q)).

    Each leaf weakens its axiom once, which the script writes as a bridge.
    With `shared_eigen` every boxR uses the same eigen token, which the
    token condition must reject.
    """
    level = []
    for i in range(leaves):
        x = "x" if shared_eigen else f"x{i}"
        q, s = Prop(rng.choice(ATOMS)), Prop(rng.choice(ATOMS))
        at = seqpos(x)
        leaf = weak_left(ax(pf(q, at)), pf(s, at))
        level.append(box_right(imp_right(imp_right(leaf)), x))
    while len(level) > 1:
        nxt = [and_right(level[j], level[j + 1])
               for j in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


# the corpus negative matrix: each proof fails in these systems on the
# condition the constraint table predicts
NEGATIVE_MATRIX = (
    ("axiom-D", corpus.axiom_d, (SystemId.K, SystemId.K4), "context-demand"),
    ("axiom-T", corpus.axiom_t, (SystemId.K, SystemId.D, SystemId.K4),
     "beta-shape"),
    ("axiom-4", corpus.axiom_4, (SystemId.K, SystemId.D, SystemId.T),
     "beta-shape"),
    ("dia-cut", corpus.diamond_taut_cut, (SystemId.K, SystemId.K4),
     "cut-position"),
)


def build_check(seed: int, sizes: Sizes) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for n, copies in sizes.wide:
        for _ in range(copies):
            p = wide_proof(n, rng)
            cases.append(Case("wide", n, SystemId.S4, _render(SystemId.S4, p),
                              ("accept", None)))
    for n in sizes.shared_eigen:
        p = wide_proof(n, rng, shared_eigen=True)
        cases.append(Case("shared-eigen", n, SystemId.S4,
                          _render(SystemId.S4, p), ("reject", "token-condition")))
    for sys_id in SystemId:
        for _, p in corpus.entries(sys_id):
            cases.append(Case("corpus", 0, sys_id, _render(sys_id, p),
                              ("accept", None)))
    for _, build, systems, condition in NEGATIVE_MATRIX:
        for sys_id in systems:
            cases.append(Case("negative-matrix", 0, sys_id,
                              _render(sys_id, build()), ("reject", condition)))
    rng.shuffle(cases)
    return cases


def build_cutelim(seed: int, sizes: Sizes) -> list[Case]:
    # one seed per system, so that the five suites are independent samples
    suites = [(s, proofsuite.generate_suite(s, sizes.suite_per_system,
                                            f"{seed}:{s.value}"))
              for s in CORE_SYSTEMS]
    cases = []
    for i in range(sizes.suite_per_system):
        for sys_id, suite in suites:
            p = suite[i]
            cases.append(Case("proofgen", 0, sys_id,
                              parser.render_proof(sys_id, p), p.conclusion))
    return cases


def _nested(depth: int, rng: random.Random) -> Formula:
    """A box/dia tower over a random atom, with a random connective at
    each level."""
    f: Formula = Prop(rng.choice(ATOMS))
    for _ in range(depth):
        f = rng.choice((Box, Dia))(f)
    return f


def alternating(depth: int, rng: random.Random) -> Formula:
    """dia box dia ... over a random atom.  Lasso evaluation costs depend
    on the pattern of the nesting, so this family fixes the pattern."""
    f: Formula = Prop(rng.choice(ATOMS))
    for i in range(depth):
        f = (Dia if (depth - i) % 2 else Box)(f)
    return f


def chain_proof(length: int, rng: random.Random) -> ProofNode:
    """q@[x1..xk] |- q@[x1..xk] weakened by a formula at every shorter
    prefix of the chain, so an assignment must map the whole chain."""
    toks = tuple(f"c{i}" for i in range(length))
    at = seqpos(*toks)
    p = ax(pf(Prop(rng.choice(ATOMS)), at))
    for k in range(1, length):
        p = weak_left(p, pf(Prop(rng.choice(ATOMS)), seqpos(*toks[:k])))
    return p


# sequents no fuzzer seed can miss: each is refuted by a random model (or
# lasso) with probability at least 0.18, so the budget leaves a chance
# below 1e-17 of finding none
INVALID = (
    ("box-q-implies-q", lambda q: Imp(Box(q), q),
     (SystemId.K, SystemId.D, SystemId.K4)),
    ("dia-true", lambda q: Dia(Imp(q, q)), (SystemId.K, SystemId.K4)),
    ("box-q-implies-box-box-q", lambda q: Imp(Box(q), Box(Box(q))),
     (SystemId.K, SystemId.D, SystemId.T)),
    ("q-implies-box-dia-q", lambda q: Imp(q, Box(Dia(q))), (SystemId.S4,)),
    ("next-q-implies-q", lambda q: Imp(Next(q), q), (SystemId.LTL,)),
    ("dia-q-implies-q", lambda q: Imp(Dia(q), q), (SystemId.LTL,)),
    ("q-implies-box-q", lambda q: Imp(q, Box(q)), (SystemId.LTL,)),
)


def build_fuzz(seed: int, sizes: Sizes) -> list[Case]:
    rng = random.Random(seed)

    def add(family, size, sys_id, text, expect):
        cases.append(Case(family, size, sys_id, text, expect,
                          fuzz_seed=rng.randrange(1, 2 ** 31)))

    cases: list[Case] = []
    for sys_id in CORE_SYSTEMS:
        for _, p in corpus.entries(sys_id):
            add("corpus", 0, sys_id, _render(sys_id, p), "valid-so-far")
        for p in proofsuite.generate_suite(sys_id, sizes.fuzz_suite_per_system,
                                           rng.randrange(2 ** 31)):
            add("proofgen", 0, sys_id, _render(sys_id, p), "valid-so-far")
    for d, copies in sizes.deep:
        for _ in range(copies):
            p = corpus.taut(_nested(d, rng))
            add("deep", d, SystemId.S4, _render(SystemId.S4, p), "valid-so-far")
    for k in sizes.nesting:
        p = corpus.taut(alternating(k, rng), LtlPos())
        add("nesting", k, SystemId.LTL, _render(SystemId.LTL, p), "valid-so-far")
    for k in sizes.chains:
        for sys_id in (SystemId.K, SystemId.T):
            add("chain", k, sys_id, _render(sys_id, chain_proof(k, rng)),
                "valid-so-far")
    for _, make, systems in INVALID:
        for sys_id in systems:
            at = LtlPos() if sys_id in LINEAR else seqpos()
            s = seq((), (pf(make(Prop(rng.choice(ATOMS))), at),))
            add("invalid", 0, sys_id, parser.render_sequent(s), "counterexample")
    rng.shuffle(cases)
    return cases


def run_fuzz_case(case: Case) -> Outcome:
    return run_fuzz_sequent(case) if case.family == "invalid" else run_fuzz(case)


WORKLOADS = {w.name: w for w in (
    Workload("check-scripts", run_check, verify_check, build_check),
    Workload("cutelim-suite", run_cutelim, verify_cutelim, build_cutelim),
    Workload("fuzz-soundness", run_fuzz_case, verify_fuzz, build_fuzz),
)}
