"""No function under ``src/`` recurses.

Python bounds its frame stack, so every walk of a formula, a position, a
text or a proof keeps its own stack, and the package leaves the recursion
limit as it finds it.  Cut elimination's steps are generators, one per
mix step and one per elimination step: each yields the step it needs,
as ``yield self.run(...)`` or ``yield _eliminate(...)``, to
``cutelim._drive``, which runs it over an explicit stack and sends back
its result; a plain helper that returned that new step would count as
a call, and so as a cycle.  This test draws the call graph of the
source from its syntax trees and asserts that it has no cycle, so that
no recursion lands unnoticed.

Calls are resolved by name: a bare name to a function defined in an
enclosing function, in the module, or imported from a sibling module;
``self.f`` and ``cls.f`` to a method of the enclosing class; ``mod.f``
to a function of a sibling module imported as ``mod``.  A call inside a
lambda counts as a call of the function around it.  Calls through other
objects, through callbacks and through dunder methods are not followed.
A call of a generator function whose value is yielded directly
(``yield f(...)``) hands the new generator to a driver and adds no
frame, so it is no edge; ``yield from f(...)`` and every other call are.
"""

import ast
from pathlib import Path

import twoseq

SRC = Path(twoseq.__file__).parent


def _module_graph(module: str, tree: ast.Module, graph: dict) -> None:
    """Add the functions of one module and the calls they make to ``graph``
    (qualified name -> names called, resolved later), and each generator
    function's name to ``graph["generators"]``."""
    imported = {}       # local name -> "module.name" or "module"
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.level == 1:
            for a in n.names:
                imported[a.asname or a.name] = \
                    f"{n.module}.{a.name}" if n.module else a.name

    def visit(node, scope: list, cls, owner) -> None:
        """Walk ``node``'s children; ``scope`` is the qualified name of the
        innermost function (or class) around them, ``cls`` that of the
        innermost class, ``owner`` the function the calls are charged to."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = ".".join(scope + [child.name])
                graph[name] = []
                visit(child, scope + [child.name], cls, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], ".".join(scope + [child.name]), None)
            else:
                if isinstance(child, (ast.Yield, ast.YieldFrom)) and owner is not None:
                    graph["generators"].add(owner)
                if isinstance(child, ast.Call) and owner is not None:
                    yielded = isinstance(node, ast.Yield)
                    graph[owner].append((scope, cls, child.func, yielded))
                visit(child, scope, cls, owner)

    visit(tree, [module], None, None)
    graph[f"{module}.imports"] = imported


def _callee(graph: dict, scope: list, cls, func, yielded: bool) -> str:
    """The qualified name a call resolves to, or "" if it is not followed
    or is a generator handed to a driver."""
    name = _resolved(graph, scope, cls, func)
    return "" if yielded and name in graph["generators"] else name


def _resolved(graph: dict, scope: list, cls, func) -> str:
    module = scope[0]
    if isinstance(func, ast.Name):
        for k in range(len(scope), 0, -1):
            name = ".".join(scope[:k] + [func.id])
            if name in graph:
                return name
        return graph[f"{module}.imports"].get(func.id, "")
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        base = func.value.id
        if base in ("self", "cls") and cls is not None:
            return f"{cls}.{func.attr}"
        if graph[f"{module}.imports"].get(base) == base:
            return f"{base}.{func.attr}"
    return ""


def _recursive_functions() -> set[str]:
    graph: dict = {"generators": set()}
    for path in sorted(SRC.glob("*.py")):
        _module_graph(path.stem, ast.parse(path.read_text()), graph)
    calls = {f: {_callee(graph, *c) for c in cs} & graph.keys()
             for f, cs in graph.items()
             if f != "generators" and not f.endswith(".imports")}
    out = set()
    for start in calls:
        seen, todo = set(), list(calls[start])
        while todo:
            f = todo.pop()
            if f not in seen:
                seen.add(f)
                todo.extend(calls.get(f, ()))
        if start in seen:
            out.add(start)
    return out


def test_nothing_recurses():
    assert _recursive_functions() == set()
