"""Growth series of the three phases the roadmap expects to be linear.

Each family is timed at fixed sizes, with content drawn from the seed:
the token-condition check over wide scripts (seconds against nodes), Kripke
forcing of a deep box/dia formula (seconds against depth) and lasso
evaluation of nested dia/box formulas (seconds against nesting level).
From the series come `calculus.check_exponent` and
`semantics.forces_exponent`, slopes of log time against log size, and
`ltl.eval_growth`, the factor the time grows by per nesting level.
"""

from __future__ import annotations

import math
import random
import statistics
from time import perf_counter

from twoseq import calculus, ltl, semantics
from twoseq.calculus import SystemId
from twoseq.ltl import LassoWord
from twoseq.semantics import GraphModel
from twoseq.syntax import Imp

import cases

WIDE = (16, 32, 64, 128)
DEEP = (40, 80, 160, 320)
NESTING = (2, 3, 4, 5, 6)
TINY_WIDE, TINY_DEEP, TINY_NESTING = (4, 8), (10, 20), (1, 2)
REPEATS = 3
MIN_BATCH_S = 0.002


def _seconds(fn) -> float:
    """Median over repeats of the time of one call, batching fast calls."""
    t0 = perf_counter()
    fn()
    once = perf_counter() - t0
    batch = max(1, math.ceil(MIN_BATCH_S / once)) if once > 0 else 1
    samples = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(batch):
            fn()
        samples.append((perf_counter() - t0) / batch)
    return statistics.median(samples)


def _slope(xs, ys) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _letter(rng: random.Random) -> frozenset[str]:
    return frozenset(a for a in cases.ATOMS if rng.random() < 0.5)


def series(seed: int, tiny: bool = False) -> dict[str, list[list[float]]]:
    rng = random.Random(seed)
    out: dict[str, list[list[float]]] = {"wide_check": [], "deep_forcing": [],
                                         "temporal_nesting": []}
    for n in TINY_WIDE if tiny else WIDE:
        p = cases.wide_proof(n, rng)
        nodes = cases.count_nodes(p)
        out["wide_check"].append(
            [nodes, _seconds(lambda: calculus.check_proof(p, SystemId.S4))])

    # each family keeps one atom at every size, so only the size changes
    worlds = tuple(f"n{i}" for i in range(4))
    edges = frozenset({(a, b) for a in worlds for b in worlds
                       if rng.random() < 0.5}
                      | {(a, b) for a, b in zip(worlds, worlds[1:])})
    model = GraphModel(worlds, edges, worlds[0],
                       {w: _letter(rng) for w in worlds})
    for d in TINY_DEEP if tiny else DEEP:
        f = cases.alternating(d, random.Random(seed))
        out["deep_forcing"].append([d, _seconds(
            lambda: semantics.forces(model, SystemId.S4, model.root, Imp(f, f)))])

    word = LassoWord(tuple(_letter(rng) for _ in range(4)),
                     tuple(_letter(rng) for _ in range(3)))
    for k in TINY_NESTING if tiny else NESTING:
        f = cases.alternating(k, random.Random(seed))
        out["temporal_nesting"].append(
            [k, _seconds(lambda: ltl.eval_at(word, 0, f))])
    return out


def fitted(s: dict[str, list[list[float]]]) -> dict[str, float]:
    def loglog(points):
        return _slope([math.log(x) for x, _ in points],
                      [math.log(t) for _, t in points])
    nest = s["temporal_nesting"]
    return {
        "calculus.check_exponent": loglog(s["wide_check"]),
        "semantics.forces_exponent": loglog(s["deep_forcing"]),
        "ltl.eval_growth": math.exp(_slope([k for k, _ in nest],
                                           [math.log(t) for _, t in nest])),
    }
