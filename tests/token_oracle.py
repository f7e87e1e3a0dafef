"""Brute-force statements of the global token condition and of the free
tokens of a proof, kept as oracles for the occurrence index.

For each eigen rule the token condition walks the whole tree in the
checker's preorder and reports the first node outside the rule's premise
subtree whose conclusion carries the eigen token: O(eigen rules x nodes).
The messages and their order are those of ``check_proof``.
"""

from __future__ import annotations

from twoseq.calculus import ProofNode, Violation, eigen_token
from twoseq.syntax import tokens_of


def preorder(p: ProofNode):
    """(path, node) pairs, the last premise of a node visited first."""
    stack = [((), p)]
    while stack:
        path, n = stack.pop()
        yield path, n
        for i, c in enumerate(n.premises):
            stack.append((path + (i,), c))


def token_condition_failures(p: ProofNode) -> list[Violation]:
    eigens = [(path, x) for path, n in preorder(p)
              if (x := eigen_token(n)) is not None]
    out: list[Violation] = []
    seen = set()
    for path, x in eigens:
        if x in seen:
            out.append(Violation(path, "", "token-condition",
                                 f"token {x} is the eigen token of two rules"))
        seen.add(x)
    for path, x in eigens:
        for other_path, n in preorder(p):
            inside = len(other_path) > len(path) and other_path[:len(path)] == path
            if not inside and x in tokens_of(n.conclusion):
                out.append(Violation(
                    path, "", "token-condition",
                    f"eigen token {x} occurs outside its rule's premises (at "
                    f"{'/'.join(map(str, other_path)) or 'root'})"))
                break
    out.sort(key=lambda v: v.path)
    return out


def free_tokens(p: ProofNode) -> frozenset:
    """Tokens of a conclusion outside every premise subtree of an eigen
    rule carrying that token."""
    scopes: dict = {}
    for path, n in preorder(p):
        x = eigen_token(n)
        if x is not None:
            scopes.setdefault(x, []).append(path)
    free = set()
    for path, n in preorder(p):
        for t in tokens_of(n.conclusion):
            if not any(len(path) > len(ep) and path[:len(ep)] == ep
                       for ep in scopes.get(t, ())):
                free.add(t)
    return frozenset(free)
