"""The global token condition and the free-token scan against
brute-force oracles, and a count that keeps both linear."""

import random

from mutants import rename_eigen_at
from proofgen import generate_suite
from token_oracle import free_tokens, preorder, token_condition_failures
from twoseq import calculus
from twoseq.calculus import (CORE_SYSTEMS, ProofNode, SystemId, and_right,
                             ax, box_right, check_proof, eigen_token,
                             imp_right, iter_nodes, proof_tokens, weak_left)
from twoseq.positions import seqpos
from twoseq.syntax import Prop, pf, seq, tokens_of
from twoseq.transform import _free_tokens, canonical_rename


def collide(p, rng: random.Random):
    """``p`` with one to three eigen tokens renamed, each to a token the
    proof already uses (another eigen token, a token of the end sequent,
    any token) or, now and then, to a fresh one."""
    for _ in range(rng.randint(1, 3)):
        eigens = [(path, x) for path, n in iter_nodes(p)
                  if (x := eigen_token(n)) is not None]
        if not eigens:
            return p
        path, x = rng.choice(eigens)
        pools = [[y for _, y in eigens], sorted(tokens_of(p.conclusion)),
                 sorted(proof_tokens(p)), ["fresh"]]
        pool = [y for y in rng.choice(pools) if y != x]
        if pool:
            p = rename_eigen_at(p, path, rng.choice(pool))
    return p


def witness_sides(p, failures) -> set[str]:
    """Where each reported outside occurrence lies in preorder: at or
    before the eigen rule, or after its premise subtree."""
    index = {path: i for i, (path, _) in enumerate(preorder(p))}
    out = set()
    for v in failures:
        if "outside" in v.message:
            at = v.message.rsplit("(at ", 1)[1][:-1]
            w = () if at == "root" else tuple(map(int, at.split("/")))
            out.add("before" if index[w] <= index[v.path] else "after")
    return out


def test_token_condition_agrees_with_brute_force_oracle():
    messages, mutated, sides = set(), 0, set()
    for sysid in CORE_SYSTEMS:
        rng = random.Random(f"token-condition:{sysid.value}")
        for p in generate_suite(sysid, 40, seed=5):
            assert check_proof(p, sysid).accepted
            for _ in range(8):
                q = collide(p, rng)
                got = [v for v in check_proof(q, sysid).failures
                       if v.condition == "token-condition"]
                assert got == token_condition_failures(q)
                messages |= {v.message.split(" ")[0] for v in got}
                mutated += q is not p
                sides |= witness_sides(q, got)
    # both diagnostics are drawn: "token ... of two rules", "eigen token ... outside"
    assert messages == {"token", "eigen"}
    assert mutated >= 500
    assert sides == {"before", "after"}


def random_tree(rng: random.Random, depth: int) -> ProofNode:
    """A tree of boxR and andR nodes, not a proof: random arities, random
    eigen tokens and random tokens in the conclusions, from a small set."""
    tokens = "abcde"
    k = rng.choice((0, 1, 1, 2, 2, 3)) if depth else 0
    prems = tuple(random_tree(rng, depth - 1) for _ in range(k))
    concl = seq(tuple(pf(Prop("p0"), seqpos(*rng.sample(tokens, rng.randint(0, 2))))
                      for _ in range(rng.randint(0, 2))))
    if rng.random() < 0.4:
        return ProofNode("boxR", (("x", rng.choice(tokens)),), concl, prems)
    return ProofNode("andR", (), concl, prems)


def test_occurrence_index_agrees_with_oracles_on_random_trees():
    rng = random.Random(3)
    for _ in range(1500):
        p = random_tree(rng, rng.randint(1, 6))
        got = [v for v in check_proof(p, SystemId.S4).failures
               if v.condition == "token-condition"]
        assert got == token_condition_failures(p)
        assert _free_tokens(p) == free_tokens(p)


def wide_proof(leaves: int) -> ProofNode:
    """Balanced andR over ``leaves`` boxR subproofs of |- box(p0 -> (p1 -> p0)),
    each with its own eigen token."""
    level = []
    for i in range(leaves):
        at = seqpos(f"x{i}")
        leaf = weak_left(ax(pf(Prop("p0"), at)), pf(Prop("p1"), at))
        level.append(box_right(imp_right(imp_right(leaf)), f"x{i}"))
    while len(level) > 1:
        level = [and_right(*level[j:j + 2]) if j + 1 < len(level) else level[j]
                 for j in range(0, len(level), 2)]
    return level[0]


def test_token_scans_read_each_conclusion_once(monkeypatch):
    # the free-token scan of canonical_rename reaches tokens_of through the
    # checker's occurrence index, so one counter covers both
    p = wide_proof(256)
    nodes = sum(1 for _ in iter_nodes(p))
    assert nodes == 5 * 256 + 255
    calls = []
    real = calculus.tokens_of
    monkeypatch.setattr(calculus, "tokens_of", lambda s: calls.append(s) or real(s))
    assert check_proof(p, SystemId.S4).accepted
    assert 0 < len(calls) <= nodes
    calls.clear()
    canonical_rename(p)
    assert 0 < len(calls) <= nodes
