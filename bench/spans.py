"""Layer spans recorded from outside the library.

`Tracer.install` replaces module attributes through which one layer calls
another (or the benchmark calls a layer) with wrappers that record a span
for each call: name, start, end, parent span and operation id.  Spans stay
in memory, in flat arrays, until the run ends; `Tracer.summary` then turns
them into per-layer self times and counts.  Self-recursive functions
(`forces`, `eval_at`) are never wrapped: their time is the self time of
the span that called them.  Outside an operation the wrappers only call
through, so verification and the scaling probe are not traced.
"""

from __future__ import annotations

import statistics
from array import array
from contextlib import contextmanager
from time import perf_counter

from twoseq import calculus, cutelim, ltl, parser, semantics

# (module, attribute) pairs wrapped with a span named "<module>.<attribute>"
SPANNED = (
    (parser, "parse_proof"), (parser, "parse_sequent"), (parser, "render_proof"),
    (calculus, "expand_double_lines"), (calculus, "check_proof"),
    (calculus, "check_rule_instance"),
    (cutelim, "eliminate_cuts"), (cutelim, "verify_subformula_property"),
    (cutelim, "height"), (cutelim, "bridge_proof"), (cutelim, "_scoped_rename"),
    (semantics, "soundness_fuzz"), (semantics, "check_sequent_on_model"),
    (semantics, "accessibility"),
    (ltl, "ltl_soundness_fuzz"), (ltl, "sequent_satisfied"),
)
# generators wrapped to count what they yield, with no span of their own
COUNTED = ((semantics, "admissible_assignments"),)

OP = "op"           # the span around one whole operation

# per-layer metric -> the spans whose self times it sums
SELF_TIMES = {
    "parser.parse_s": ("parser.parse_proof", "parser.parse_sequent"),
    "parser.render_s": ("parser.render_proof",),
    "calculus.expand_s": ("calculus.expand_double_lines",),
    "calculus.check_s": ("calculus.check_proof",),
    "calculus.rule_instance_s": ("calculus.check_rule_instance",),
    "calculus.height_s": ("cutelim.height",),
    "calculus.bridge_proof_s": ("cutelim.bridge_proof",),
    "transform.rename_s": ("cutelim._scoped_rename",),
    "cutelim.eliminate_s": ("cutelim.eliminate_cuts",),
    "cutelim.subformula_s": ("cutelim.verify_subformula_property",),
    "semantics.fuzz_s": ("semantics.soundness_fuzz",),
    "semantics.check_model_s": ("semantics.check_sequent_on_model",),
    "semantics.accessibility_s": ("semantics.accessibility",),
    "ltl.fuzz_s": ("ltl.ltl_soundness_fuzz",),
    "ltl.satisfied_s": ("ltl.sequent_satisfied",),
}
# per-layer metric -> the span whose calls it counts
CALLS = {
    "calculus.nodes_checked": "calculus.check_rule_instance",
    "calculus.height_calls": "cutelim.height",
    "transform.rename_calls": "cutelim._scoped_rename",
    "semantics.models": "semantics.check_sequent_on_model",
    "ltl.words": "ltl.sequent_satisfied",
}
YIELDS = {"semantics.assignments": "semantics.admissible_assignments"}


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP]
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_of = array("l")
        self.yields: dict[tuple[str, int], int] = {}
        self.op = -1                # current operation id, -1 outside one
        self._stack: list[int] = []

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, op_id: int):
        self.op = op_id
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)
            self.op = -1

    def _span(self, name: str, fn):
        self.names.append(name)
        name_id = len(self.names) - 1

        def wrapped(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapped

    def _counted(self, name: str, fn):
        def wrapped(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if self.op >= 0:
                    key = (name, self.op)
                    self.yields[key] = self.yields.get(key, 0) + 1
                yield item
        return wrapped

    @contextmanager
    def install(self):
        """Wrap the layer bindings for the duration of the block."""
        saved = []
        try:
            for mod, attr in SPANNED + COUNTED:
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                name = f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}"
                wrap = self._counted if (mod, attr) in COUNTED else self._span
                setattr(mod, attr, wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def summary(self, ops_per_pass: int) -> dict[str, float]:
        """Per-layer self times and counts, each the median over passes of
        its total in one pass; plus the share of operation time that no
        layer span covers."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        passes = max(self.op_of[i] for i in range(n)) // ops_per_pass + 1
        self_by = {name: [0.0] * passes for name in self.names}
        calls_by = {name: [0] * passes for name in self.names}
        op_wall = 0.0
        for i in range(n):
            name = self.names[self.name_of[i]]
            k = self.op_of[i] // ops_per_pass
            dur = self.end[i] - self.start[i]
            self_by[name][k] += dur - child[i]
            calls_by[name][k] += 1
            if name == OP:
                op_wall += dur
        yields_by = {}
        for (name, op), count in self.yields.items():
            per = yields_by.setdefault(name, [0] * passes)
            per[op // ops_per_pass] += count

        out: dict[str, float] = {}
        for metric, names in SELF_TIMES.items():
            out[metric] = statistics.median(
                sum(self_by.get(nm, [0.0] * passes)[k] for nm in names)
                for k in range(passes))
        for metric, name in CALLS.items():
            out[metric] = statistics.median(calls_by[name])
        for metric, name in YIELDS.items():
            out[metric] = statistics.median(yields_by.get(name, [0] * passes))
        outside = sum(self_by[OP])
        out["trace.outside_share"] = outside / op_wall if op_wall else 0.0
        return out
