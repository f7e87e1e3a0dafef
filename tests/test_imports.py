"""Import footprint: ``import twoseq`` loads no submodule, a public name
loads its home module's imports and no more, and each CLI subcommand
loads only the modules it uses.  Each footprint is taken in a fresh
interpreter, since this process has long since imported the whole
package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twoseq
from twoseq.calculus import SystemId
from twoseq.corpus import axiom_k, mp_example
from twoseq.parser import render_proof

SRC = str(Path(twoseq.__file__).resolve().parents[1])
CHECK = {"twoseq", "cli", "calculus", "parser", "syntax", "positions", "errors"}

# runs the code, then writes the twoseq modules it loaded (package prefix
# dropped), and those of HEAVY it loaded, to stderr as its last line, also
# when the code exits
HEAVY = ("dataclasses", "inspect")      # slow imports (inspect loads ast and dis) that no command needs
_PROBE = """
import json, sys
try:
{}
finally:
    names = sorted(m.partition(".")[2] or m for m in sys.modules
                   if m == "twoseq" or m.startswith("twoseq."))
    print(json.dumps(names + [m for m in {!r} if m in sys.modules]), file=sys.stderr)
"""


def _loaded(code: str, *argv: str) -> tuple[set, subprocess.CompletedProcess]:
    body = "\n".join("    " + line for line in code.splitlines())
    out = subprocess.run([sys.executable, "-c", _PROBE.format(body, HEAVY), *argv],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": SRC})
    return set(json.loads(out.stderr.splitlines()[-1])), out


def test_bare_import_loads_no_submodule():
    assert _loaded("import twoseq")[0] == {"twoseq"}


def test_the_corpus_loads_its_closure_and_neither_dataclasses_nor_inspect():
    names, out = _loaded("from twoseq import corpus")
    assert out.returncode == 0, out.stderr
    assert names == {"twoseq", "corpus", "calculus", "transform", "syntax", "positions",
                     "errors"}


def test_a_parser_name_loads_the_parser_closure():
    names = _loaded("from twoseq import parse_proof")[0]
    assert names == {"twoseq", "parser", "calculus", "syntax", "positions", "errors"}


@pytest.fixture
def inputs(tmp_path):
    paths = {"mp": render_proof(SystemId.S4, mp_example(SystemId.S4)),
             "k": render_proof(SystemId.K, axiom_k()),
             "model": "nodes: n0 n1\nedges: n0->n1\nval: n1 {p0}\n",
             "sequent": "|- box p0 @ []\n"}
    for name, text in paths.items():
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    return paths


@pytest.mark.parametrize("argv, more", [
    (["check", "{mp}"], set()),
    (["cutelim", "{mp}"], {"cutelim", "transform"}),
    (["fuzz", "--budget", "5", "{k}"], {"semantics"}),
    (["eval", "--model", "{model}", "--sequent", "{sequent}", "--system", "K"],
     {"semantics"}),
    (["--help"], set()),
], ids=["check", "cutelim", "fuzz", "eval", "help"])
def test_each_subcommand_loads_only_its_modules(inputs, argv, more):
    run = "from twoseq import cli\nsys.exit(cli.main(sys.argv[1:]))"
    names, out = _loaded(run, *(a.format(**inputs) for a in argv))
    assert out.returncode == 0, out.stderr
    assert not names & set(HEAVY)
    assert names == CHECK | more


def test_every_public_name_is_its_home_modules_object():
    check = """
import importlib, twoseq
names = {}
exec("from twoseq import *", names)
for name in twoseq.__all__:
    home = importlib.import_module("twoseq." + twoseq._HOME[name])
    assert names[name] is getattr(home, name) is getattr(twoseq, name), name
assert set(twoseq.__all__) <= set(dir(twoseq))
assert {"calculus", "cli", "corpus"} <= set(dir(twoseq))
"""
    names, out = _loaded(check)
    assert out.returncode == 0, out.stderr
    assert "ltl" in names and "cli" not in names


def test_a_submodule_loads_on_first_access():
    names, out = _loaded("import twoseq\nassert twoseq.calculus.check_proof")
    assert out.returncode == 0, out.stderr
    assert names == {"twoseq", "calculus", "syntax", "positions", "errors"}


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        twoseq.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from twoseq import no_such_name  # noqa: F401
