"""No code in ``src/`` that only the tests call.

Every module-level name and every method (dunders aside) defined under
``src/twoseq`` must be named somewhere that is not a test: in ``src/``
outside its own definition, in ``bench/`` (whose ``spans`` names what it
wraps as strings), or in the package's public names, ``twoseq._HOMES``.
A name whose only callers are tests is dead weight in the kernel: the
tests should call the code behind it, and the name should go.  Names are
matched by identifier, not resolved, so a method counts as used when any
attribute of that name is read, and dead code that shares its name with
live code goes unseen.
"""

import ast
from pathlib import Path

import twoseq

SRC = Path(twoseq.__file__).parent
BENCH = SRC.parents[1] / "bench"

# names kept with no caller outside the tests, each with its reason
EXEMPT = {
    # the text format has one parse entry point per production; a
    # positioned formula is one, and the tests read it through this
    ("parser", "parse_pformula"),
}


def _definitions(tree: ast.Module):
    """Each module-level name and method with its definition (the node
    whose lines a use inside does not count), dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                found += [(f.name, f) for f in node.body if isinstance(f, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found = [(n.id, node) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, d) for name, d in found
                    if not (name.startswith("__") and name.endswith("__")))


def _uses(tree: ast.AST, bench: bool = False):
    """Each identifier the code names, with its line: read or bound as a
    name or an attribute, and in the bench also imported or written as a
    string (an import in ``src/`` keeps nothing alive that goes unused)."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.id, n.lineno
        elif isinstance(n, ast.Attribute):
            yield n.attr, n.lineno
        elif bench and isinstance(n, ast.alias):
            yield n.name.rpartition(".")[2], n.lineno
        elif bench and isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value, n.lineno


def test_every_src_name_has_a_caller_outside_the_tests():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    elsewhere = {name for p in BENCH.glob("*.py")
                 for name, _ in _uses(ast.parse(p.read_text()), bench=True)}
    elsewhere |= {name for names in twoseq._HOMES.values() for name in names.split()}
    used = {stem: list(_uses(tree)) for stem, tree in trees.items()}
    unused = []
    for stem, tree in trees.items():
        for name, node in _definitions(tree):
            if name in elsewhere or (stem, name) in EXEMPT:
                continue
            if any(n == name and (other != stem or not node.lineno <= line <= node.end_lineno)
                   for other, uses in used.items() for n, line in uses):
                continue
            unused.append(f"{stem}.{name}")
    assert unused == []


# the constructors every rule is built through, by its name
_BY_NAME = {"apply_rule", "apply_structural", "_induction"}


def _forward(body) -> bool:
    """Whether an expression is one call to a by-name constructor whose
    arguments build nothing: the caller's values, passed on."""
    if not isinstance(body, ast.Call):
        return False
    called = getattr(body.func, "id", getattr(body.func, "attr", None))
    args = body.args + [k.value for k in body.keywords]
    return called in _BY_NAME and not any(isinstance(n, ast.Call)
                                          for a in args for n in ast.walk(a))


def test_no_src_function_only_forwards_to_a_by_name_constructor():
    """A rule is built by naming it to ``apply_rule`` or ``apply_structural``;
    a function (or lambda) whose whole body passes its arguments on to one
    of them is a wrapper that hides the name, kept only while ``bench/``
    imports it."""
    kept = {a.name for p in BENCH.glob("*.py") for n in ast.walk(ast.parse(p.read_text()))
            if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    wrappers = []
    for p in sorted(SRC.glob("*.py")):
        for f in ast.walk(ast.parse(p.read_text())):
            if isinstance(f, ast.Lambda):
                name, body = "<lambda>", f.body
            elif isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stmts = f.body[1:] if ast.get_docstring(f) is not None else f.body
                if len(stmts) != 1 or not isinstance(stmts[0], ast.Return):
                    continue
                name, body = f.name, stmts[0].value
            else:
                continue
            if _forward(body) and name not in kept:
                wrappers.append(f"{p.stem}.{name}")
    assert wrappers == []
