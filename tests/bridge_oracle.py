"""Structural bridge synthesis as it was before bridges were planned on
lists: the reference ``calculus.structural_bridge`` is compared with.

It extends a proof one structural step at a time, reading the sequent it
has reached off the proof, and reads the plan back off the chain it built
on a placeholder leaf.  It shares ``apply_structural`` (and so the step
function ``structural``) with the kernel, and nothing else.
"""

from __future__ import annotations

from twoseq.calculus import ProofNode, apply_structural
from twoseq.errors import BridgeError, KernelInvariantError
from twoseq.syntax import PFormula, Sequent


class BridgeBuilder:
    """Extends a proof one structural step at a time, reading the sequent
    it has reached off the proof."""

    def __init__(self, proof: ProofNode):
        self.proof = proof

    def _side(self, side: str) -> tuple[PFormula, ...]:
        s = self.proof.conclusion
        return s.ant if side == "L" else s.suc

    def _move(self, side: str, i: int, j: int):
        """Carry the formula at index i to index j by adjacent swaps."""
        for k in (range(i, j) if i < j else range(i - 1, j - 1, -1)):
            self.proof = apply_structural("exc" + side, self.proof, k)

    def run(self, to: Sequent) -> ProofNode:
        for side, target in (("L", to.ant), ("R", to.suc)):
            for q in self._side(side):
                if q not in target:
                    raise BridgeError(q, "antecedent" if side == "L" else "succedent")
            # contract surplus occurrences: carry the two nearest the rule's
            # edge (the end of the antecedent, the head of the succedent) there
            for q in dict.fromkeys(self._side(side)):
                while self._side(side).count(q) > max(target.count(q), 1):
                    for k in (0, 1):
                        xs = self._side(side)
                        at = [i for i, y in enumerate(xs) if y == q]
                        self._move(side, *((at[-1 - k], len(xs) - 1 - k)
                                           if side == "L" else (at[k], k)))
                    self.proof = apply_structural("contr" + side, self.proof)
            # weaken in what is missing
            for q in dict.fromkeys(target):
                for _ in range(target.count(q) - self._side(side).count(q)):
                    self.proof = apply_structural("weak" + side, self.proof, q)
            # sort into the target order by adjacent swaps
            for k, q in enumerate(target):
                xs = self._side(side)
                if xs[k] != q:
                    self._move(side, xs.index(q, k + 1), k)
        if self.proof.conclusion != to:
            raise KernelInvariantError("bridge did not reach the requested sequent")
        return self.proof


def reference_bridge(frm: Sequent, to: Sequent) -> tuple[tuple[str, dict], ...]:
    """The (rule, parameters) steps of the chain the builder makes from
    ``frm`` to ``to``, from the premise down; raises `BridgeError` where a
    formula would have to be deleted."""
    leaf = ProofNode("premise", (), frm)
    p, steps = BridgeBuilder(leaf).run(to), []
    while p is not leaf:
        steps.append((p.rule, dict(p.params)))
        p = p.premises[0]
    return tuple(reversed(steps))
