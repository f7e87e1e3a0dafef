"""Proof measures against a test-side reference walker.

The cut-elimination measures (height, proof degree, cut-freeness) and
the subtree sizes and eigen-rule counts that the token condition and
scoped renaming rely on are recomputed here by plain recursion over
every subtree, for every corpus entry in its home system and for the
seed-2026 generated suite, and compared with the measures each
``ProofNode`` stores and with the functions that read them.
"""

import pytest

from proofgen import generate_suite
from twoseq import corpus
from twoseq.calculus import (CORE_SYSTEMS, OccurrenceIndex, ProofNode,
                             SystemId, ax, eigen_token, exc_left, height,
                             iter_nodes, node, subproofs, weak_left)
from twoseq.cutelim import is_cut_free, proof_degree
from twoseq.errors import DegreeUndefinedError
from twoseq.positions import LtlPos, seqpos
from twoseq.syntax import Formula, Hist, Next, Once, PFormula, Prev, Prop, pf

SYSTEMS = ["corpus"] + [s.value for s in CORE_SYSTEMS]


def ref_height(p: ProofNode) -> int:
    return 1 + max((ref_height(c) for c in p.premises), default=0)


def ref_size(p: ProofNode) -> int:
    return 1 + sum(ref_size(c) for c in p.premises)


def ref_eigens(p: ProofNode) -> int:
    return (eigen_token(p) is not None) + sum(ref_eigens(c) for c in p.premises)


def _connectives(f: Formula):
    """The degree of a formula counted from its fields, or None when it
    has a temporal connective."""
    if isinstance(f, (Next, Prev, Hist, Once)):
        return None
    subs = [_connectives(g) for g in (getattr(f, k, None)
                                      for k in ("sub", "left", "right")) if g is not None]
    if None in subs:
        return None
    return 1 + max(subs) if subs else 0


def ref_degree(p: ProofNode):
    """Zero without cuts, one past the largest cut-formula degree, or None
    when a cut formula is temporal or missing."""
    best = 0
    for n in _nodes(p):
        if n.rule == "cut":
            f = n.param("cutf")
            d = _connectives(f.formula) if isinstance(f, PFormula) else None
            if d is None:
                return None
            best = max(best, d + 1)
    return best


def _nodes(p: ProofNode):
    yield p
    for c in p.premises:
        yield from _nodes(c)


def proofs(source: str) -> list[ProofNode]:
    """Every corpus entry (each in its home system), or the seed-2026
    generated suite of one core system."""
    if source == "corpus":
        return [p for sys in SystemId for _, p in corpus.entries(sys)]
    return generate_suite(SystemId.parse(source), 100, seed=2026)


def test_the_proofs_cover_cuts_eigens_and_temporal_cuts():
    every = [p for source in SYSTEMS for p in proofs(source)]
    degrees = [ref_degree(p) for p in every]
    assert 0 in degrees and None in degrees and max(d or 0 for d in degrees) >= 3
    assert any(ref_eigens(p) >= 2 for p in every)


@pytest.mark.parametrize("source", SYSTEMS)
def test_measures_match_the_reference_on_every_subtree(source):
    for n in (n for p in proofs(source) for n in subproofs(p)):
        assert height(n) == ref_height(n)
        assert (n.height, n.size, n.eigens) == \
            (ref_height(n), ref_size(n), ref_eigens(n))
        d = ref_degree(n)
        assert n.cut_rank == (-1 if d is None else d)
        if d is None:
            with pytest.raises(DegreeUndefinedError):
                proof_degree(n)
        else:
            assert proof_degree(n) == d
        assert is_cut_free(n) == (d == 0)


@pytest.mark.parametrize("source", SYSTEMS)
def test_occurrence_index_subtrees_match_the_reference(source):
    for p in proofs(source):
        index = OccurrenceIndex(p)
        paths = [path for path, _ in iter_nodes(p)]
        for i, n in enumerate(index.nodes):
            assert index.path(i) == paths[i]
            assert index.end[i] - i + 1 == ref_size(n)
            inside = [j for j, _ in index.eigens if i <= j <= index.end[i]]
            assert len(inside) == ref_eigens(n)


def test_cut_rank_of_a_missing_or_temporal_cut_formula_is_minus_one():
    p0 = pf(Prop("p0"), seqpos())
    missing = node("cut", {}, ax(p0).conclusion, (ax(p0), ax(p0)))
    assert missing.cut_rank == -1
    assert node("weakL", {}, missing.conclusion, (missing,)).cut_rank == -1
    x = pf(Next(Prop("p0")), LtlPos())
    temporal = node("cut", {"cutf": x}, ax(x).conclusion, (ax(x), ax(x)))
    assert temporal.cut_rank == -1
    for p in (missing, temporal):
        with pytest.raises(DegreeUndefinedError):
            proof_degree(p)
        assert not is_cut_free(p)


def test_measures_of_a_100k_deep_chain_are_read_not_walked():
    n = 100_000
    p = weak_left(ax(pf(Prop("p0"), seqpos())), pf(Prop("p1"), seqpos()))
    for _ in range(n - 1):
        p = exc_left(p, 0)
    assert height(p) == p.height == p.size == n + 1
    assert (p.eigens, proof_degree(p), is_cut_free(p)) == (0, 0, True)
    assert OccurrenceIndex(p).end[0] == n
