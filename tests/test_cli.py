"""Command-line driver: exit codes and the stable JSON schema."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twoseq
from twoseq.calculus import TABLE, SystemId
from twoseq.cli import main
from twoseq.positions import LtlPos
from twoseq.parser import parse_proof, render_proof
from twoseq.calculus import check_proof, expand_double_lines
import twoseq.corpus as corpus


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def proof_file(files, name, sysid, proof):
    return files(name, render_proof(sysid, proof))


def test_check_accept_and_reject(files, capsys):
    path = proof_file(files, "d.2sp", SystemId.D, corpus.axiom_d())
    assert main(["check", path]) == 0
    assert main(["check", "--system", "K", path]) == 1
    out = capsys.readouterr().out
    assert "diaR" in out


def test_check_json_schema(files, capsys):
    path = proof_file(files, "d.2sp", SystemId.D, corpus.axiom_d())
    assert main(["check", "--system", "K", "--json", path]) == 1
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"system", "verdict", "failures"}
    assert data["verdict"] == "rejected"
    f = data["failures"][0]
    assert set(f) == {"path", "rule", "condition", "message"}
    assert f["rule"] == "diaR" and f["condition"] == "context-demand"


def test_check_usage_error_on_missing_file(capsys):
    assert main(["check", "/nonexistent/path.2sp"]) == 2


def test_axioms_self_check(files, capsys):
    assert main(["axioms", "--system", "D"]) == 0
    out = capsys.readouterr().out
    assert out.count("accepted") == 4
    assert main(["axioms", "--system", "LTL", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["proofs"]) == 9
    assert all(p["verdict"] == "accepted" for p in data["proofs"])


def test_cutelim_pipeline(files, tmp_path, capsys):
    path = proof_file(files, "mp.2sp", SystemId.S4, corpus.mp_example(SystemId.S4))
    out_path = str(tmp_path / "out.2sp")
    assert main(["cutelim", path, "-o", out_path]) == 0
    script = parse_proof(open(out_path).read())
    proof = expand_double_lines(script)
    assert check_proof(proof, SystemId.S4).accepted
    assert main(["check", out_path]) == 0
    assert main(["subformula", out_path]) == 0


def test_cutelim_refuses_ltl(files, capsys):
    path = proof_file(files, "blocked.2sp", SystemId.LTL, corpus.ltl_blocked_cut())
    assert main(["cutelim", path]) == 2
    assert "unsupported" in capsys.readouterr().err


def test_cutelim_rechecks_its_output(files, tmp_path, monkeypatch, capsys):
    import twoseq.cutelim as cutelim
    from twoseq.calculus import ProofNode, seq

    def tampered(p, sys_id, trace=None):
        return ProofNode(p.rule, p.params, seq(), p.premises)

    monkeypatch.setattr(cutelim, "eliminate_cuts", tampered)
    path = proof_file(files, "mp.2sp", SystemId.S4, corpus.mp_example(SystemId.S4))
    out_path = tmp_path / "out.2sp"
    assert main(["cutelim", path, "-o", str(out_path)]) == 2
    assert main(["cutelim", path]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("internal error:") == 2
    assert captured.out == ""
    assert not out_path.exists()


def test_check_system_override_across_families(files, capsys):
    path = proof_file(files, "k.2sp", SystemId.K, corpus.axiom_k())
    assert main(["check", "--system", "S42", "--json", path]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "rejected"
    assert {f["condition"] for f in data["failures"]} <= {"family", "params", "schema"}


_CHECKED = [["cutelim"], ["subformula"], ["fuzz", "--budget", "5"],
            ["cutelim", "--json"]]


def _prints_the_report_and_exits_2(files, capsys, command, system):
    path = proof_file(files, "d.2sp", SystemId.D, corpus.axiom_d())
    rep = check_proof(corpus.axiom_d(), SystemId.parse(system))
    assert not rep.accepted
    assert main(command + ["--system", system, path]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", rep.render_text() + "\n")


@pytest.mark.parametrize("command", _CHECKED)
def test_rejected_input_prints_the_report_and_exits_2(files, capsys, command):
    # the D axiom is not derivable in K: the report goes to stderr, verbatim
    _prints_the_report_and_exits_2(files, capsys, command, "K")


@pytest.mark.parametrize("command", _CHECKED)
def test_rejected_input_outside_the_core_systems_prints_the_report(files, capsys,
                                                                 command):
    # sequence positions are not linear-time ones; the rejection is reported
    # before cut elimination refuses the system
    _prints_the_report_and_exits_2(files, capsys, command, "LTL")


def test_cutelim_checks_its_input_once(files, capsys, monkeypatch):
    # one check of the input (inside eliminate_cuts) and one of the output
    from twoseq import calculus
    from twoseq.calculus import iter_nodes
    p = corpus.mp_example(SystemId.S4)
    path = proof_file(files, "mp.2sp", SystemId.S4, p)
    calls = []
    real = calculus.check_rule_instance
    monkeypatch.setattr(calculus, "check_rule_instance",
                        lambda n, sys: calls.append(n) or real(n, sys))
    assert main(["cutelim", path]) == 0
    out = expand_double_lines(parse_proof(capsys.readouterr().out))
    size = lambda q: sum(1 for _ in iter_nodes(q))
    assert len(calls) == size(p) + size(out)


def test_subformula_needs_cut_free(files, capsys):
    path = proof_file(files, "cutty.2sp", SystemId.S4, corpus.diamond_taut_cut())
    assert main(["subformula", path]) == 2


def test_eval_graph_counterexample(files, capsys):
    model = files("m.2sm", "nodes: n0\nroot: n0\nval: n0 {}")
    sequent = files("s.2sq", "|- dia (p0 -> p0) @ []")
    assert main(["eval", "--model", model, "--sequent", sequent,
                 "--system", "K"]) == 1
    assert main(["eval", "--model", model, "--sequent", sequent,
                 "--system", "T"]) == 0


def test_eval_lasso(files, capsys):
    model = files("w.2sm", "prefix: {} ; loop: {p0}")
    sequent = files("s.2sq", "|- X p0 -> p0 @ (0;{})")
    assert main(["eval", "--model", model, "--sequent", sequent,
                 "--system", "LTL"]) == 1
    good = files("s2.2sq", "|- box p0 -> X p0 @ (0;{x})")
    assert main(["eval", "--model", model, "--sequent", good,
                 "--system", "LTL"]) == 0


@pytest.mark.parametrize("system", [s.value for s in SystemId
                                    if TABLE[s].family is not LtlPos])
def test_eval_refuses_a_lasso_under_a_system_without_lasso_semantics(files, capsys, system):
    model = files("w.2sm", "prefix: {p0} ; loop: {}")
    sequent = files("s.2sq", "|- p0 @ (0;{})")
    assert main(["eval", "--model", model, "--sequent", sequent,
                 "--system", system]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: no lasso semantics for system {system}\n"


def test_fuzz_modal_and_json(files, capsys):
    path = proof_file(files, "k.2sp", SystemId.K, corpus.axiom_k())
    assert main(["fuzz", "--budget", "40", "--seed", "3", "--json", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"verdict", "models", "counterexample"}
    assert data["verdict"] == "valid-so-far" and data["models"] == 40


def test_fuzz_seed_env_override(files, monkeypatch, capsys):
    path = proof_file(files, "k.2sp", SystemId.K, corpus.axiom_k())
    monkeypatch.setenv("TWOSEQ_SEED", "9")
    assert main(["fuzz", "--budget", "10", path]) == 0


@pytest.mark.parametrize("value", ["abc", "1.5", "0x10"])
def test_fuzz_refuses_a_seed_variable_that_is_not_an_integer(files, monkeypatch,
                                                              capsys, value):
    path = proof_file(files, "k.2sp", SystemId.K, corpus.axiom_k())
    monkeypatch.setenv("TWOSEQ_SEED", value)
    assert main(["fuzz", "--budget", "10", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: TWOSEQ_SEED must be an integer, not {value!r}\n"


@pytest.mark.parametrize("bad", ["proof", "model", "sequent"])
def test_a_file_that_is_not_utf8_is_an_error_not_a_crash(files, tmp_path, capsys, bad):
    path = tmp_path / f"{bad}.bin"
    path.write_bytes(b"\xff\xfe")
    if bad == "proof":
        argv = ["check", str(path)]
    else:
        model = files("m.2sm", "nodes: n0\nroot: n0\nval: n0 {}")
        sequent = files("s.2sq", "|- p0 -> p0 @ []")
        argv = ["eval", "--system", "K", "--model", model, "--sequent", sequent]
        argv[argv.index(model if bad == "model" else sequent)] = str(path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path} is not UTF-8 text\n"


def test_fuzz_ltl(files, capsys):
    path = proof_file(files, "a6.2sp", SystemId.LTL, corpus.ltl_a6())
    assert main(["fuzz", "--budget", "80", "--seed", "1", path]) == 0


def test_transform_roundtrip(files, tmp_path, capsys):
    a8 = proof_file(files, "a8.2sp", SystemId.LTL, corpus.ltl_a8())
    out = str(tmp_path / "a8ax.2sp")
    assert main(["transform", "--op", "ind2ax", a8, "-o", out]) == 0
    assert main(["check", out]) == 0

    d = proof_file(files, "d.2sp", SystemId.D, corpus.axiom_d())
    lifted = str(tmp_path / "lifted.2sp")
    assert main(["transform", "--op", "lift", "--by", "[v]", d,
                 "-o", lifted]) == 0
    assert "[v]" in open(lifted).read()

    nec = str(tmp_path / "nec.2sp")
    assert main(["transform", "--op", "nec", d, "-o", nec]) == 0
    assert main(["check", nec]) == 0

    t1 = proof_file(files, "t1.2sp", SystemId.K, corpus.taut(corpus.P0))
    from twoseq.syntax import Imp
    t2 = proof_file(files, "t2.2sp", SystemId.K,
                    corpus.taut(Imp(corpus.P0, corpus.P0)))
    mp = str(tmp_path / "mp.2sp")
    assert main(["transform", "--op", "mp", t2, "--with", t1, "-o", mp]) == 0
    assert main(["check", mp]) == 0

    renamed = str(tmp_path / "renamed.2sp")
    assert main(["transform", "--op", "rename", d, "-o", renamed]) == 0


def test_transform_usage_errors(files, capsys):
    d = proof_file(files, "d.2sp", SystemId.D, corpus.axiom_d())
    assert main(["transform", "--op", "lift", d]) == 2
    assert main(["transform", "--op", "mp", d]) == 2


def test_check_variant_flag(files, capsys):
    # the linear-time formulation is picked by --system, as any system is
    a8 = proof_file(files, "a8.2sp", SystemId.LTL, corpus.ltl_a8())
    assert main(["check", "--system", "LTL", a8]) == 0
    assert main(["check", "--system", "LTL_IndAx", a8]) == 1
    out = capsys.readouterr().out
    assert "LTL_IndAx" in out
    with pytest.raises(SystemExit) as e:
        main(["check", "--variant", "ind", a8])
    assert e.value.code == 2


def test_axioms_emits_scripts(tmp_path, capsys):
    outdir = str(tmp_path / "emitted")
    assert main(["axioms", "--system", "K4", "-o", outdir]) == 0
    import os
    names = sorted(os.listdir(outdir))
    assert names == ["axiom-4.2sp", "axiom-K.2sp", "mp-example.2sp"]
    assert main(["check", str(tmp_path / "emitted" / "axiom-4.2sp")]) == 0


@pytest.mark.parametrize("case", ["modal-budget", "eval-bound", "ltl-bound",
                                  "graph-eval-bound", "modal-bound"])
def test_meaningless_budgets_and_bounds_exit_2(files, capsys, case):
    if case == "eval-bound":
        argv = ["eval", "--system", "LTL", "--bound", "-1",
                "--model", files("w.2sm", "prefix: {} ; loop: {p0}"),
                "--sequent", files("s.2sq", "|- box p0 -> X p0 @ (0;{x})")]
    elif case == "graph-eval-bound":
        argv = ["eval", "--system", "K", "--bound", "-1",
                "--model", files("m.2sm", "nodes: n0\nroot: n0\nval: n0 {}"),
                "--sequent", files("s.2sq", "|- p0 -> p0 @ []")]
    elif case == "ltl-bound":
        p = proof_file(files, "a6.2sp", SystemId.LTL, corpus.ltl_a6())
        argv = ["fuzz", "--bound", "-3", p]
    elif case == "modal-bound":
        p = proof_file(files, "ax.2sp", SystemId.K, corpus.axiom_k())
        argv = ["fuzz", "--bound", "-3", "--budget", "5", p]
    else:
        p = proof_file(files, "ax.2sp", SystemId.K, corpus.axiom_k())
        argv = ["fuzz", "--budget", "-5", p]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "must be at least" in err
    assert "Traceback" not in err


def test_fuzz_has_no_semantics_for_past(files, capsys):
    p = proof_file(files, "tense.2sp", SystemId.LTLP, corpus.tense_next_prev())
    assert main(["fuzz", "--budget", "5", p]) == 2


GOLDEN = __import__("pathlib").Path(__file__).parent / "golden"


def _run_capture(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def test_golden_json_outputs(files, capsys, tmp_path):
    """The JSON schema is frozen byte-for-byte against golden files."""
    axd = proof_file(files, "axiomD.2sp", SystemId.D, corpus.axiom_d())
    model = files("model.2sm", "nodes: n0\nroot: n0\nval: n0 {}")
    sq = files("seq.2sq", "|- dia (p0 -> p0) @ []")
    cases = {
        "check_reject.json": (1, ["check", "--system", "K", "--json", axd]),
        "check_accept.json": (0, ["check", "--json", axd]),
        "axioms_d.json": (0, ["axioms", "--system", "D", "--json"]),
        "eval_counterexample.json":
            (1, ["eval", "--model", model, "--sequent", sq,
                 "--system", "K", "--json"]),
        "fuzz_valid.json":
            (0, ["fuzz", "--budget", "20", "--seed", "3", "--json", axd]),
    }
    for name, (want_code, argv) in cases.items():
        code, out = _run_capture(argv, capsys)
        assert code == want_code, name
        assert out == (GOLDEN / name).read_text(), name


def _run_cli(*argv, entry=("-m", "twoseq.cli")):
    """The CLI in a fresh interpreter, so stderr shows any traceback."""
    src = str(Path(twoseq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *entry, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


# the CLI with `eval` replaced by a subcommand that dies of an exception
# no handler expects
_CRASHING_EVAL = """
import sys
from twoseq import cli

def crash(args):
    raise RecursionError("maximum recursion depth exceeded")

cli.cmd_eval = crash
sys.exit(cli.main(sys.argv[1:]))
"""


def test_unexpected_exception_exits_2_without_traceback(files):
    model = files("m.2sm", "nodes: n0\nval: n0 {p0}\n")
    sequent = files("s.2sq", "|- p0 @ []\n")
    out = _run_cli("eval", "--model", model, "--sequent", sequent,
                   "--system", "K", entry=("-c", _CRASHING_EVAL))
    assert out.returncode == 2
    assert out.stderr.startswith("internal error: RecursionError")
    assert "Traceback" not in out.stderr


def _deep_ax(depth: int) -> str:
    f = "box " * depth + "p0"
    return f"(proof K (rule ax (concl {f} @ [] |- {f} @ [])))"


@pytest.mark.parametrize("depth", [20_000, 100_000])
def test_check_of_a_deep_axiom_exits_0(files, depth):
    # equal deep formulas are one interned term: comparing them is O(1)
    out = _run_cli("check", files("deep.2sp", _deep_ax(depth)))
    assert (out.returncode, out.stdout, out.stderr) == (0, "K: accepted\n", "")


def test_cutelim_of_a_deep_axiom_writes_it_back(files):
    out = _run_cli("cutelim", files("deep.2sp", _deep_ax(100_000)))
    assert (out.returncode, out.stderr) == (0, "")
    assert parse_proof(out.stdout) == parse_proof(_deep_ax(100_000))


def test_check_of_a_deep_proof_exits_0(files):
    # 100 000 exchanges over one weakened axiom, written without indentation
    n = 100_000
    a, b = "p0 @ [], q @ [] |- p0 @ []", "q @ [], p0 @ [] |- p0 @ []"
    leaf = f"(rule weakL (concl {a}) (rule ax (concl p0 @ [] |- p0 @ [])))"
    chain = "".join(f"(rule excL (at 0) (concl {b if (n - i) % 2 else a})\n"
                    for i in range(n))
    out = _run_cli("check", files("chain.2sp", f"(proof K\n{chain}{leaf}"
                                  + ")" * n + ")\n"))
    assert (out.returncode, out.stdout, out.stderr) == (0, "K: accepted\n", "")


def test_eval_of_a_deeply_parenthesised_sequent_exits_0(files):
    model = files("m.2sm", "nodes: n0\nval: n0 {p0}\n")
    deep = files("deep.2sq", "|- " + "(" * 50_000 + "p0" + ")" * 50_000
                 + " @ []\n")
    out = _run_cli("eval", "--model", model, "--sequent", deep,
                   "--system", "K")
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == "holds in every admissible assignment\n"


def test_deep_unclosed_parentheses_are_parse_errors(files):
    model = files("m.2sm", "nodes: n0\n")
    sequent = files("open.2sq", "|- " + "(" * 100_000 + "p0 @ []\n")
    out = _run_cli("eval", "--model", model, "--sequent", sequent,
                   "--system", "K")
    assert out.returncode == 2
    assert out.stderr == "error: line 1, col 100007: expected ')', found '@'\n"
    node = "(rule ax (concl p0 @ [] |- p0 @ [])\n"
    script = files("open.2sp", "(proof K\n" + node * 100_000)
    out = _run_cli("check", script)
    assert out.returncode == 2
    assert out.stderr == "error: line 100002, col 1: expected ')', found ''\n"


# the CLI in an interpreter that keeps Python's default recursion limit
_DEFAULT_LIMIT_CLI = """
import sys
import twoseq
assert sys.getrecursionlimit() == 1000, sys.getrecursionlimit()
from twoseq.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _cut_chain(height: int) -> str:
    """A cut on p0 of an excL chain over weakL(ax p0, p1) against
    weakR(ax p0, p1), ``height`` levels in all."""
    n = height - 3
    a, b = "p0 @ [], p1 @ []", "p1 @ [], p0 @ []"
    ants = [b if (n - i) % 2 else a for i in range(n)]     # top exchange first
    return (f"(proof K\n(rule cut (cutf p0 @ []) (concl {ants[0]} |- p1 @ [], p0 @ [])\n"
            + "".join(f"(rule excL (at 0) (concl {x} |- p0 @ [])\n" for x in ants)
            + "(rule weakL (pf p1 @ []) (concl p0 @ [], p1 @ [] |- p0 @ [])"
              " (rule ax (concl p0 @ [] |- p0 @ [])))" + ")" * n + "\n"
              "(rule weakR (pf p1 @ []) (concl p0 @ [] |- p1 @ [], p0 @ [])"
              " (rule ax (concl p0 @ [] |- p0 @ []))))\n)\n")


def test_deep_inputs_run_under_the_default_recursion_limit(files, tmp_path):
    # five times the default limit in proof height, twenty times in formula depth
    deep = "box ~ " * 10_000 + "p0"
    chain = files("chain.2sp", _cut_chain(5_001))
    axiom = files("deep.2sp", f"(proof K (rule ax (concl {deep} @ [] |- {deep} @ [])))")
    model = files("m.2sm", "nodes: n0 n1\nedges: n0->n1\nval: n1 {p0}\n")
    sequent = files("deep.2sq", f"|- {deep} @ []\n")
    flat = str(tmp_path / "flat.2sp")
    runs = [("check", chain), ("cutelim", chain, "-o", flat), ("subformula", flat),
            ("subformula", chain), ("fuzz", "--budget", "3", chain)]
    runs += [(cmd, axiom) for cmd in ("check", "cutelim", "subformula")]
    runs += [("fuzz", "--budget", "3", axiom),
             ("eval", "--model", model, "--sequent", sequent, "--system", "K")]
    for argv in runs:
        out = _run_cli(*argv, entry=("-c", _DEFAULT_LIMIT_CLI))
        assert out.returncode in (0, 1, 2), (argv, out.stderr)
        assert "Traceback" not in out.stderr, argv
        assert out.returncode == 0 or argv[0] in ("subformula", "eval"), (argv, out.stderr)
    text = Path(flat).read_text()
    proof = expand_double_lines(parse_proof(text))
    assert check_proof(proof, SystemId.K).accepted
    assert proof.size == 5_001 and len(text) < 200 * proof.size


# the CLI in a child of a fresh interpreter, which prints the child's peak
# RSS in bytes (Linux counts ru_maxrss in KiB) and exits with its status:
# RUSAGE_CHILDREN is the largest over every child reaped so far, so it
# is read where no earlier test has spawned one
_PEAK_RSS = """
import resource, subprocess, sys
out = subprocess.run([sys.executable, "-m", "twoseq.cli", *sys.argv[1:]], capture_output=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024)
sys.exit(out.returncode)
"""


def test_deep_inputs_peak_within_a_bound_per_node(files, tmp_path):
    # measured at height 20 001 (Linux, Python 3.11.7): check 1 449 and cutelim
    # 2 621 bytes a node above the --help baseline; each bound leaves about 25 %
    height, bounds = 20_001, {"check": 1_800, "cutelim": 3_300}
    chain = files("chain.2sp", _cut_chain(height))

    def peak(*argv) -> int:
        out = _run_cli(*argv, entry=("-c", _PEAK_RSS))
        assert out.returncode == 0, out.stderr
        return int(out.stdout)

    base = peak("--help")
    for argv in (("check", chain), ("cutelim", chain, "-o", str(tmp_path / "flat.2sp"))):
        per_node = (peak(*argv) - base) / height
        assert per_node <= bounds[argv[0]], (argv[0], per_node)


# --- stdout and exit codes of eval and fuzz, byte for byte ---

PIN_GRAPH = "nodes: n0 n1\nroot: n0\nedges: n0->n1\nval: n0 {p0}\nval: n1 {}"
PIN_WORD = "prefix: {p0} {} ; loop: {p0}"
PIN_EVAL = {        # model, system, sequent
    "graph-holds": (PIN_GRAPH, "K", "p0 @ [] |- p0 @ []"),
    "graph-fails": (PIN_GRAPH, "K", "p0 @ [] |- box p0 @ [], p0 @ [x]"),
    "lasso-holds": (PIN_WORD, "LTL", "|- box p0 -> X p0 @ (0;{x})"),
    "lasso-fails": (PIN_WORD, "LTL", "|- p0 @ (0;{x,y})"),
}


def _pin_verdict(family: str):
    """A counterexample verdict no accepted proof yields, readable through
    every attribute name the CLI has read a verdict by."""
    from types import SimpleNamespace
    from twoseq.parser import parse_model
    from twoseq.positions import seqpos
    model = parse_model(PIN_WORD if family == "lasso" else PIN_GRAPH)
    rho = ({"y": 0, "x": 3} if family == "lasso"
           else {seqpos(): "n0", seqpos("x"): "n1"})
    return SimpleNamespace(ok=False, kind="counterexample", tried=7,
                           models_tried=7, words_tried=7, model=model,
                           word=model, rho=rho, valuation=rho)


def _pin_outputs(files, capsys, monkeypatch) -> dict:
    import twoseq.semantics as semantics
    out = {}
    for name, (model, system, sequent) in PIN_EVAL.items():
        argv = ["eval", "--model", files("pin.2sm", model), "--sequent",
                files("pin.2sq", sequent), "--system", system]
        out[f"eval-{name}"] = _run_capture(argv, capsys)
        out[f"eval-{name}-json"] = _run_capture(argv + ["--json"], capsys)
    proofs = {"graph": proof_file(files, "k.2sp", SystemId.K, corpus.axiom_k()),
              "lasso": proof_file(files, "a6.2sp", SystemId.LTL, corpus.ltl_a6())}
    for family, path in proofs.items():
        argv = ["fuzz", "--budget", "80", "--seed", "1", path]
        out[f"fuzz-{family}"] = _run_capture(argv, capsys)
        out[f"fuzz-{family}-json"] = _run_capture(argv + ["--json"], capsys)
    for family, path in proofs.items():
        fake = lambda *args, _v=_pin_verdict(family), **kwargs: _v
        monkeypatch.setattr(semantics, "soundness_fuzz", fake)
        argv = ["fuzz", "--budget", "80", "--seed", "1", path]
        out[f"fuzz-{family}-counterexample"] = _run_capture(argv, capsys)
        out[f"fuzz-{family}-counterexample-json"] = _run_capture(argv + ["--json"], capsys)
    return {k: list(v) for k, v in out.items()}


def test_eval_and_fuzz_print_their_pinned_bytes(files, capsys, monkeypatch):
    """Exit code and stdout of `eval` on a graph and a word, where the
    sequent holds and where it fails, and of `fuzz` on a K and an LTL
    proof, valid and (through a stand-in fuzzer) with a counterexample,
    each as text and as JSON, against ``golden/cli_pins.json``."""
    want = json.loads((GOLDEN / "cli_pins.json").read_text())
    assert _pin_outputs(files, capsys, monkeypatch) == want
