"""The import graph follows the subcommand: nothing loads numpy, and the
decider runs where numpy cannot be imported; only check-proof, axioms and
fuzz load proof; only eval and fuzz load the evaluator; no cold call loads
the dataclass machinery, or json without --json; and the package's public
names are the ones it always exported."""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import caretkit
from caretkit import cli
from caretkit.syntax import Not, Prop, WeakNext, closure, parse_formula

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
HEAVY = ("numpy", "caretkit.tableau", "caretkit.proof", "caretkit.fuzz",
         "caretkit.semantics")

# Every name caretkit/__init__ exported when it imported all submodules
# eagerly, by the submodule that defines it.
PUBLIC = {
    "syntax": ("AbsUntil", "AbsWeakNext", "And", "FALSE", "Formula", "Not",
               "ParseError", "Prop", "TRUE", "TrueConst", "Until", "WeakNext",
               "closure", "ClosureSet", "formula_size", "is_ltl",
               "parse_formula", "print_formula", "props_of"),
    "trace": ("FiniteTrace", "LassoTrace", "StateTag", "StructuredLassoTrace",
              "TraceFormatError", "abstract_successor",
              "abstract_successor_map", "matching_return", "parse_trace",
              "trace_to_text"),
    "semantics": ("EvalContext", "EvalError", "eval_caret", "eval_everywhere",
                  "eval_ltl"),
    "tableau": ("Atom", "AtomGraph", "ChainWitness", "ClosureCapError",
                "SatResult", "brute_force_sat", "build_atom_graph",
                "decide_sat", "decide_valid", "enumerate_atoms",
                "extract_model"),
    "proof": ("ProofError", "ProofFormatError", "ProofScript", "Verdict",
              "check_axiom_instance", "check_proof", "check_tautology",
              "expand_cr", "list_axioms", "parse_proof"),
    "fuzz": ("CampaignReport", "GenConfig", "cross_check_campaign",
             "gen_formula", "gen_trace", "soundness_campaign"),
}


def _child(code: str, flags=()) -> list[str]:
    """Run `code` in a fresh interpreter started with `flags`; the lines it
    printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, *flags, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _loaded_after(code: str, modules=HEAVY, flags=()) -> dict:
    """Run `code` in a fresh interpreter started with `flags`; which of
    `modules` it left loaded."""
    script = (code + "\nimport sys\nprint(sorted(m for m in"
              f" {modules!r} if m in sys.modules))")
    loaded = ast.literal_eval(_child(script, flags)[-1])
    return {m: m in loaded for m in modules}


def _after_main(*calls, **how) -> dict:
    code = "from caretkit.cli import main\n" + "".join(
        f"assert main({argv!r}) == {expected}, {argv!r}\n"
        for argv, expected in calls)
    return _loaded_after(code, **how)


def test_bare_import_loads_no_decider_proof_or_fuzz():
    # nor the evaluator, also when naming the errors the CLI catches
    names = "caretkit.EvalError, caretkit.ProofError, caretkit.ProofFormatError"
    assert _loaded_after(f"import caretkit\n{names}") \
        == dict.fromkeys(HEAVY, False)
    loaded = _loaded_after(
        "import caretkit\nassert caretkit.tableau.decide_sat is caretkit.decide_sat")
    assert loaded["caretkit.tableau"]
    assert not loaded["numpy"] and not loaded["caretkit.semantics"]
    assert not loaded["caretkit.proof"] and not loaded["caretkit.fuzz"]


def test_non_decider_subcommands_never_load_numpy(tmp_path):
    caret = tmp_path / "call.trace"
    caret.write_text("@call -\n@int p\n@ret -\nloop:\n@int -\n")
    loaded = _after_main(
        (["eval", "--formula", "p", "--trace", str(FIXTURES / "m1.trace")], 0),
        (["eval", "--mode", "caret", "--formula", "Xa p",
          "--trace", str(caret)], 1),
        (["check-proof", str(FIXTURES / "derivation_caret.prf")], 0),
        (["axioms", "--system", "ax"], 0),
        (["fuzz", "--system", "ax", "--instances", "20"], 0),
    )
    assert not loaded["numpy"] and not loaded["caretkit.tableau"]


def test_eval_and_decider_subcommands_never_load_proof(tmp_path):
    caret = tmp_path / "call.trace"
    caret.write_text("@call -\n@int p\n@ret -\nloop:\n@int -\n")
    loaded = _after_main(
        (["eval", "--formula", "p", "--trace", str(FIXTURES / "m1.trace")], 0),
        (["eval", "--mode", "caret", "--formula", "Xa p",
          "--trace", str(caret)], 1),
        (["sat", "--formula", "p", "--class", "fin"], 0),
        (["valid", "--formula", "p | !p", "--class", "inf"], 0),
    )
    assert loaded["caretkit.tableau"]
    assert not loaded["caretkit.proof"] and not loaded["caretkit.fuzz"]


# What a cold call pays for only when it runs it: the evaluator, and json
# for --json.  No subcommand here runs typing, or dataclasses and what it
# imports (inspect, ast, dis, tokenize).  The interpreter starts without
# site (-S), which may import any of them itself.
COLD = ("dataclasses", "inspect", "typing", "json", "caretkit.semantics")


@pytest.mark.parametrize("calls, loaded", [
    ([(["eval", "--formula", "p", "--trace", str(FIXTURES / "m1.trace")], 0),
      (["eval", "--mode", "caret", "--formula", "Xa p",
        "--trace", str(FIXTURES / "call.trace")], 1)], {"caretkit.semantics"}),
    ([(["sat", "--formula", "p", "--class", "fin"], 0)], set()),
    ([(["valid", "--formula", "p | !p", "--class", "inf"], 0)], set()),
    ([(["sat", "--formula", "p", "--class", "fin", "--json"], 0)], {"json"}),
    ([(["check-proof", str(FIXTURES / "derivation_caret.prf")], 0)], set()),
    ([(["axioms", "--system", "ax-cr"], 0)], set()),
    ([(["fuzz", "--system", "ax", "--instances", "3"], 0)],
     {"caretkit.semantics"}),
], ids=["eval", "sat", "valid", "sat-json", "check-proof", "axioms", "fuzz"])
def test_cold_calls_load_only_what_their_subcommand_runs(calls, loaded):
    assert _after_main(*calls, modules=COLD, flags=("-S",)) \
        == {m: m in loaded for m in COLD}


def _table_bits(text: str) -> int:
    """The free bits of the decider's table for the formula: one per
    proposition and one per group of weak nexts whose operands are one
    formula once their negations are stripped."""
    core = closure(parse_formula(text)).core
    bases = set()
    for m in core:
        if type(m) is WeakNext:
            g = m.operand
            while type(g) is Not:
                g = g.operand
            bases.add(g)
    return sum(type(m) is Prop for m in core) + len(bases)


def _letters_above_the_int_tables() -> str:
    """A conjunction of letters with 14 free bits, one above the widest
    table once pruned on int masks: each letter is a bit, and every closure
    has two groups of weak nexts, the terminal marker's and the finiteness
    until's."""
    text = " & ".join(f"x{i}" for i in range(12))
    assert _table_bits(text) == 14
    return text


@pytest.mark.parametrize("argv, expected", [
    (["sat", "--formula", "p", "--class", "fin"], 0),
    (["valid", "--formula", "p | !p", "--class", "inf"], 0),
])
def test_small_decisions_load_the_decider_but_not_numpy(argv, expected):
    loaded = _after_main((argv, expected))
    assert loaded["caretkit.tableau"] and not loaded["numpy"]


@pytest.mark.parametrize("command, expected", [("sat", 0), ("valid", 1)])
def test_decisions_above_the_int_tables_load_numpy(command, expected):
    # tables above 13 free bits were pruned by numpy; they are pruned on int
    # masks like every other now, and the decision leaves numpy unloaded
    text = _letters_above_the_int_tables()
    argv = [command, "--formula", text, "--class", "gen", "--cap", "0"]
    loaded = _after_main((argv, expected))
    assert loaded["caretkit.tableau"] and not loaded["numpy"]


@pytest.mark.parametrize("text, raw, bits", [
    ("G (p -> X q) & G (q -> X r) & F (s & X X p)", 18, 13),
    ("G F p & G F q & G (p -> X q)", 17, 10),
])
def test_grouped_tables_up_to_the_int_builder_load_no_numpy(
        tmp_path, capsys, text, raw, bits):
    # counted one bit per weak next these have more than 13 free bits; the
    # table's own bits do not, and the model of every class holds
    core = closure(parse_formula(text)).core
    assert sum(type(m) in (Prop, WeakNext) for m in core) == raw
    assert _table_bits(text) == bits
    calls = []
    for cls in ("fin", "inf", "gen"):
        argv = ["sat", "--formula", text, "--class", cls, "--cap", "0"]
        assert cli.main([*argv, "--json"]) == 0
        model = tmp_path / f"{cls}.trace"
        model.write_text(json.loads(capsys.readouterr().out)["witness"])
        calls += [(argv, 0), (["eval", "--formula", text,
                               "--trace", str(model)], 0)]
    loaded = _after_main(*calls)
    assert loaded["caretkit.tableau"] and not loaded["numpy"]


def test_cross_check_loads_numpy_only_for_tables_above_the_int_builder():
    # every table the campaign builds is recorded by its free bits; they
    # stay within 13, the widest once pruned on int masks, and the campaign
    # leaves numpy unloaded
    loaded = _loaded_after(
        "from caretkit import tableau\n"
        "from caretkit.cli import main\n"
        "bits = []\n"
        "init = tableau._Table.__init__\n"
        "def recording(tab, *args, **kwargs):\n"
        "    init(tab, *args, **kwargs)\n"
        "    bits.append(len(tab.free))\n"
        "tableau._Table.__init__ = recording\n"
        "argv = ['fuzz', '--system', 'cross-check', '--instances', '3']\n"
        "assert main(argv) == 0\n"
        "assert bits and max(bits) <= 13, bits\n")
    assert loaded["caretkit.tableau"] and loaded["caretkit.fuzz"]
    assert not loaded["numpy"]


# A meta-path finder that refuses numpy, whatever the path holds
NO_NUMPY = (
    "import sys\n"
    "class NoNumpy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.partition('.')[0] == 'numpy':\n"
    "            raise ImportError('numpy is refused')\n"
    "sys.meta_path.insert(0, NoNumpy())\n")


def test_widest_tables_decide_without_numpy(capsys):
    # X^13 p and a conjunction of 14 letters have tables of 16 free bits,
    # the most the refusal lets through: a child that cannot import numpy
    # decides them in every class as this process does
    texts = ["X " * 13 + "p", " & ".join(f"x{i}" for i in range(14))]
    assert [_table_bits(text) for text in texts] == [16, 16]
    argvs = [[command, "--formula", text, "--class", cls, "--cap", "0"]
             for text in texts for command in ("sat", "valid")
             for cls in ("fin", "inf", "gen")]
    expected = []
    for argv in argvs:
        code = cli.main(argv)
        expected.append((code, capsys.readouterr().out))
    script = NO_NUMPY + (
        "import contextlib, io\n"
        "from caretkit.cli import main\n"
        "out = []\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as buf:\n"
        "        out.append((main(argv), buf.getvalue()))\n"
        "print(repr(out))\n")
    assert ast.literal_eval(_child(script, ("-S",))[-1]) == expected
    assert {code for code, _ in expected} == {0, 1}


def _imports():
    """(file, top-level module names, line, whether inside a function) of
    every import statement in the package's sources."""
    for path in sorted((ROOT / "src" / "caretkit").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        in_functions = {id(node) for fn in ast.walk(tree)
                        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            yield (path.name, {n.split(".")[0] for n in names}, node.lineno,
                   id(node) in in_functions)


def test_numpy_is_imported_only_inside_tableau_functions():
    # the cold-start contract at the source: no module imports numpy, when
    # it is loaded or inside a function
    found = [(name, line) for name, modules, line, inside in _imports()
             if "numpy" in modules]
    assert found == []


def test_only_fuzz_imports_dataclasses_when_loaded():
    # the records, the fuzz command's config and report among them, are
    # plain classes, and import dataclasses only to raise
    # FrozenInstanceError: no module imports it when loaded
    found = [(name, line) for name, modules, line, inside in _imports()
             if "dataclasses" in modules and not inside]
    assert found == []


def test_lazy_names_are_the_submodules_own():
    names = dir(caretkit)
    for module, attrs in PUBLIC.items():
        owner = importlib.import_module(f"caretkit.{module}")
        for name in attrs:
            assert getattr(caretkit, name) is getattr(owner, name), name
            assert name in names, name
    from caretkit import tableau
    assert tableau is sys.modules["caretkit.tableau"] is caretkit.tableau


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        caretkit.no_such_name


def test_closure_cap_error_is_the_one_cli_catches(capsys, monkeypatch):
    from caretkit import syntax, tableau

    assert tableau.ClosureCapError is syntax.ClosureCapError is cli.ClosureCapError
    assert (tableau.CLASSES, tableau.DEFAULT_CLOSURE_CAP) \
        == (cli.CLASSES, cli.DEFAULT_CLOSURE_CAP)
    code = cli.main(["sat", "--formula", "p", "--class", "fin", "--cap", "3"])
    assert (code, capsys.readouterr().err) == (
        3, "error: closure of size 14 exceeds the cap 3; "
           "raise it with --cap (closure_cap in Python)\n")

    def refuse(*args, **kwargs):
        raise tableau.ClosureCapError("refused")
    monkeypatch.setattr(tableau, "decide_sat", refuse)
    code = cli.main(["valid", "--formula", "p", "--class", "gen"])
    assert (code, capsys.readouterr().err) == (3, "error: refused\n")
