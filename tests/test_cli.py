"""Command line surface: verdicts, exit codes, JSON stability."""

from __future__ import annotations

import io
import json
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caretkit.cli import main
from caretkit.semantics import eval_ltl
from caretkit.syntax import parse_formula
from caretkit.trace import parse_trace
from test_syntax import _token_strings

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eval

def test_eval_regression_instances(capsys):
    for name in ("t2_instance_m1.ltl", "t3_instance_m1.ltl"):
        formula = (FIXTURES / name).read_text().strip()
        code, out, _ = run(
            capsys, "eval", "--formula", formula,
            "--trace", str(FIXTURES / "m1.trace"),
        )
        assert code == 1
        assert out == "false\n"


def test_eval_true_exit_zero(capsys):
    code, out, _ = run(
        capsys, "eval", "--formula", "X false",
        "--trace", str(FIXTURES / "m1.trace"),
    )
    assert code == 0 and out == "true\n"


def test_eval_caret_mode(capsys, tmp_path):
    tr = tmp_path / "s.trace"
    tr.write_text("@int -\n@ret -\nloop:\n@int -\n")
    code, out, _ = run(
        capsys, "eval", "--formula", "Xa false", "--trace", str(tr),
        "--mode", "caret",
    )
    assert code == 0 and out == "true\n"


@pytest.mark.parametrize("trace, mode", [("m1.trace", ["--mode", "caret"]),
                                         ("call.trace", [])])
def test_eval_mode_mismatch_names_the_flag(capsys, trace, mode):
    # a plain trace under --mode caret, and a structured one without it
    code, out, err = run(capsys, "eval", "--formula", "p",
                         "--trace", str(FIXTURES / trace), *mode)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--mode caret" in err, err


def test_eval_json(capsys):
    code, out, _ = run(
        capsys, "eval", "--formula", "p", "--trace", str(FIXTURES / "m1.trace"),
        "--json",
    )
    assert code == 0
    assert json.loads(out) == {"command": "eval", "verdict": "true"}


def test_eval_position_flag(capsys, tmp_path):
    tr = tmp_path / "t.trace"
    tr.write_text("p\n-\n")
    code, out, _ = run(capsys, "eval", "--formula", "p", "--trace", str(tr), "--pos", "1")
    assert code == 1 and out == "false\n"


# ---------------------------------------------------------------------------
# sat / valid

def test_sat_witness_roundtrips_through_eval(capsys, tmp_path):
    code, out, _ = run(
        capsys, "sat", "--formula", "G (p -> F q) & p", "--class", "inf",
        "--cap", "0",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "SAT"
    witness = tmp_path / "w.trace"
    witness.write_text("\n".join(lines[1:]) + "\n")
    t = parse_trace(witness.read_text())
    assert eval_ltl(t, 0, parse_formula("G (p -> F q) & p")) is True


def test_sat_unsat_exit_one(capsys):
    code, out, _ = run(capsys, "sat", "--formula", "p & !p", "--class", "gen")
    assert code == 1 and out == "UNSAT\n"


def test_sat_json_has_fixed_key_order(capsys):
    code, out, _ = run(
        capsys, "sat", "--formula", "p", "--class", "fin", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["command", "verdict", "witness"]
    assert payload["command"] == "sat" and payload["verdict"] == "sat"
    assert eval_ltl(parse_trace(payload["witness"]), 0, parse_formula("p")) is True


def test_valid_verdicts(capsys):
    code, out, _ = run(capsys, "valid", "--formula", "X !p -> !X p", "--class", "inf")
    assert code == 0 and out == "VALID\n"

    code, out, _ = run(capsys, "valid", "--formula", "X !p -> !X p", "--class", "fin")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "INVALID"
    # the countermodel falsifies the formula at position 0
    t = parse_trace("\n".join(lines[1:]) + "\n")
    assert eval_ltl(t, 0, parse_formula("X !p -> !X p")) is False


def test_valid_json(capsys):
    code, out, _ = run(
        capsys, "valid", "--formula", "F (X false)", "--class", "fin", "--json"
    )
    assert code == 0
    assert json.loads(out) == {"command": "valid", "verdict": "valid"}


def test_cap_zero_lifts_default(capsys):
    code, _, err = run(capsys, "sat", "--formula", "G (p -> F q)", "--class", "inf")
    assert code == 3 and "closure" in err.lower()
    code, out, _ = run(
        capsys, "sat", "--formula", "G (p -> F q)", "--class", "inf", "--cap", "0"
    )
    assert code == 0


# ---------------------------------------------------------------------------
# check-proof

def test_check_proof_ok(capsys):
    code, out, _ = run(capsys, "check-proof", str(FIXTURES / "derivation_caret.prf"))
    assert code == 0 and out == "OK\n"


def test_check_proof_failure_names_step(capsys, tmp_path):
    bad = tmp_path / "bad.prf"
    text = (FIXTURES / "derivation_caret.prf").read_text()
    bad.write_text(text.replace("14. !(X false)", "14. !(X true)"))
    code, out, _ = run(capsys, "check-proof", str(bad))
    assert code == 1
    assert out.startswith("FAIL step 14:")


def test_check_proof_of_a_deep_family_instance_is_quick(capsys, tmp_path):
    # the C5 body has about 4 ** n paths; built as a DAG it takes
    # milliseconds
    script = tmp_path / "c5.prf"
    script.write_text("system: ax-cr\n1. p ; axiom C5 n=13 bind phi=p\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "check-proof", str(script))
    assert time.perf_counter() - start < 5.0
    assert code == 1 and out == "FAIL step 1: formula is not an instance of C5\n"


@pytest.mark.parametrize("step", [
    "axiom C5 n=200 bind phi=p", "axiom C6 m=200 n=199"])
def test_check_proof_at_the_family_bound_answers(capsys, tmp_path, step):
    script = tmp_path / "family.prf"
    script.write_text(f"system: ax-cr\n1. p ; {step}\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "check-proof", str(script))
    assert time.perf_counter() - start < 5.0
    assert code == 1 and out.startswith("FAIL step 1: formula is not an instance")
    assert err == ""


@pytest.mark.parametrize("step, name", [
    ("axiom C5 n=201 bind phi=p", "n=201"), ("axiom C5 n=520 bind phi=p", "n=520"),
    ("axiom C6 m=201 n=3", "m=201")])
def test_check_proof_above_the_family_bound_exits_three(capsys, tmp_path,
                                                        step, name):
    script = tmp_path / "family.prf"
    script.write_text(f"system: ax-cr\n1. p ; {step}\n")
    code, out, err = run(capsys, "check-proof", str(script))
    assert code == 3 and out == ""
    assert err.count("\n") == 1
    assert "MAX_CR_PARAM" in err and "<= 200" in err and name in err


def _taut_script(tmp_path, letters):
    conj = " & ".join(f"X p{i}" for i in range(letters))
    script = tmp_path / "taut.prf"
    script.write_text(f"system: ax\n1. ({conj}) -> X p0 ; taut\n")
    return str(script)


def test_check_proof_at_the_tautology_letter_bound_answers(capsys, tmp_path):
    code, out, err = run(capsys, "check-proof", _taut_script(tmp_path, 20))
    assert (code, out, err) == (0, "OK\n", "")


def test_check_proof_above_the_tautology_letter_bound_exits_three(capsys,
                                                                 tmp_path):
    # a true tautology the checker refuses, so no FAIL verdict
    code, out, err = run(capsys, "check-proof", _taut_script(tmp_path, 21))
    assert code == 3 and out == ""
    assert err.count("\n") == 1
    assert "MAX_TAUT_LETTERS" in err and "<= 20" in err and "21 letters" in err


def test_check_proof_json(capsys, tmp_path):
    code, out, _ = run(
        capsys, "check-proof", str(FIXTURES / "derivation_caret.prf"), "--json"
    )
    assert json.loads(out) == {"command": "check-proof", "verdict": "ok"}
    bad = tmp_path / "bad.prf"
    bad.write_text("system: ax\n1. p ; taut\n")
    code, out, _ = run(capsys, "check-proof", str(bad), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["command"] == "check-proof"
    assert payload["verdict"] == "failed"
    assert payload["report"]["step"] == 1


# ---------------------------------------------------------------------------
# fuzz / axioms

def test_fuzz_small_campaign(capsys):
    code, out, _ = run(
        capsys, "fuzz", "--system", "ax-inf", "--instances", "20", "--seed", "4"
    )
    assert code == 0
    assert "failures: 0" in out


def test_fuzz_json_stable_for_fixed_seed(capsys):
    args = ("fuzz", "--system", "ax-fin", "--instances", "15", "--seed", "9", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["command"] == "fuzz" and payload["verdict"] == "ok"


def test_fuzz_ax_cr_json_frozen(capsys):
    code, out, _ = run(capsys, "fuzz", "--system", "ax-cr", "--json")
    counts = ", ".join(f'"{name}": 1000' for name in (
        "G1", "G2", "G3", "G4", "A1", "A2", "A3",
        "C1", "C2", "C3", "C4", "C5", "C6"))
    assert code == 0
    assert out == ('{"command": "fuzz", "verdict": "ok", "report": '
                   f'{{"counts": {{{counts}}}, "failures": 0}}}}\n')


def test_fuzz_cross_check(capsys):
    code, out, _ = run(
        capsys, "fuzz", "--system", "cross-check", "--instances", "10"
    )
    assert code == 0


def test_axioms_listing(capsys):
    code, out, _ = run(capsys, "axioms", "--system", "ax-inf")
    assert code == 0
    assert "Inf" in out and "Fin" not in out
    code, out, _ = run(capsys, "axioms", "--system", "ax-cr", "--json")
    payload = json.loads(out)
    assert payload["command"] == "axioms"
    assert len(payload["report"]["axioms"]) == 19


def _readme_examples():
    """(argv, stdout lines) of every `$ caretkit ...` example in the README
    whose output is shown in full, not cut short by a `...` line."""
    examples, out = [], None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("$ caretkit "):
            out = []
            examples.append((shlex.split(line)[2:], out))
        elif line.startswith("```"):
            out = None
        elif out is not None:
            out.append(line)
    return [(argv, lines) for argv, lines in examples if "..." not in lines]


README_EXAMPLES = _readme_examples()
_VERDICT_CODES = {"true": 0, "false": 1, "SAT": 0, "UNSAT": 1, "VALID": 0,
                  "INVALID": 1, "OK": 0}


def test_readme_shows_five_full_examples():
    assert len(README_EXAMPLES) == 5


@pytest.mark.parametrize("argv, lines", README_EXAMPLES,
                         ids=[argv[0] + str(k) for k, (argv, _)
                              in enumerate(README_EXAMPLES)])
def test_readme_example_prints_what_the_readme_shows(capsys, monkeypatch,
                                                     argv, lines):
    # the README's paths are relative to the repository root
    monkeypatch.chdir(ROOT)
    code, out, err = run(capsys, *argv)
    # a witness ends in a newline that print follows with another; the
    # README does not show that empty last line
    assert out.rstrip("\n").split("\n") == lines
    assert (code, err) == (_VERDICT_CODES[lines[0]], "")


# ---------------------------------------------------------------------------
# Exit codes

def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sat", "--formula", "p", "--class", "nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["fuzz", "--system", "ax", "--instances", "-5"], "--instances"),
    (["sat", "--formula", "p", "--class", "fin", "--cap", "-1"], "--cap"),
    (["valid", "--formula", "p", "--class", "fin", "--cap", "-1"], "--cap"),
    (["eval", "--formula", "p", "--trace", "t.trace", "--pos", "-1"], "--pos"),
])
def test_negative_count_is_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        f"error: argument {flag}: expected a non-negative integer, "
        f"got '{argv[-1]}'")


# str.isdecimal admits the digits of other scripts, which int() reads
@pytest.mark.parametrize("argv, flag", [
    (["sat", "--class", "gen", "--cap", "\u0663", "--formula", "p"], "--cap"),
    (["fuzz", "--system", "ax", "--instances", "\uff13"], "--instances"),
    (["eval", "--formula", "p", "--trace", "t.trace", "--pos", "\u0663"],
     "--pos"),
    (["eval", "--formula", "p", "--trace", "t.trace", "--pos", "1_0"], "--pos"),
])
def test_non_ascii_count_is_usage_error(capsys, argv, flag):
    value = argv[argv.index(flag) + 1]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        f"error: argument {flag}: expected a non-negative integer, "
        f"got '{value}'")


@pytest.mark.parametrize("seed", ["\u0663", "1_0", "+3", "3.0", "-"])
def test_seed_must_be_an_ascii_integer(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--system", "ax", "--instances", "5", "--seed", seed])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        f"error: argument --seed: expected an integer, got '{seed}'")


def test_negative_seed_is_a_seed(capsys):
    code, out, _ = run(capsys, "fuzz", "--system", "ax", "--instances", "5",
                       "--seed", "-3", "--json")
    assert code == 0 and json.loads(out)["verdict"] == "ok"


def test_input_errors_exit_three(capsys):
    code, _, err = run(capsys, "sat", "--formula", "p &", "--class", "gen")
    assert code == 3 and err
    code, _, err = run(
        capsys, "eval", "--formula", "p", "--trace", "/nonexistent/file.trace"
    )
    assert code == 3
    code, _, err = run(
        capsys, "eval", "--formula", "p", "--trace", str(FIXTURES / "m1.trace"),
        "--pos", "5",
    )
    assert code == 3


# The parser and the evaluator hold nesting on explicit stacks, so input of
# any depth parses and evaluates; sat and valid are bounded by the closure
# cap instead.  Run in a fresh interpreter, so the recursion limit is the
# one a user's call sees.
_EVAL = ["eval", "--trace", str(FIXTURES / "m1.trace"), "--formula"]
# each with the shallow formula of the same verdict
DEEP_EVALUATION = {
    "eval-400-implications": ("p -> " * 400 + "p", "p -> p"),
    "eval-1200-conjuncts": (" & ".join(["p"] * 1200), "p"),
    "eval-400-parentheses": ("(" * 400 + "p" + ")" * 400, "p"),
}


def _fresh_cli(argv, stdout=subprocess.PIPE):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "caretkit.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=env, timeout=60)


@pytest.mark.parametrize("argv, code", [
    (["axioms", "--system", "ax-cr"], 0),
    (["eval", "--formula", "p U q", "--trace", str(FIXTURES / "m1.trace")], 1),
])
def test_closed_stdout_exits_quietly_with_the_verdict(argv, code):
    # the reader is gone before the child writes, as when `| head -1` has
    # read its line: no diagnostic, and the verdict's own exit code, not
    # exit 3 with "error: [Errno 32] Broken pipe"
    r, w = os.pipe()
    os.close(r)
    try:
        proc = _fresh_cli(argv, stdout=w)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (code, "")


@pytest.mark.parametrize("case", list(DEEP_EVALUATION))
def test_deep_nesting_evaluates(case, capsys):
    deep, shallow = DEEP_EVALUATION[case]
    proc = _fresh_cli(_EVAL + [deep])
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert len(proc.stdout.splitlines()) == 1
    assert run(capsys, *_EVAL, shallow) == (0, proc.stdout, "")


def test_deep_nesting_meets_the_closure_cap(capsys):
    sat = ["sat", "--class", "gen", "--formula", "!" * 1200 + "p"]
    proc = _fresh_cli(sat)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == ("error: closure of size 1213 exceeds the cap 24; "
                           "raise it with --cap (closure_cap in Python)\n")
    # 1200 negations of p are p
    proc = _fresh_cli(sat + ["--cap", "0"])
    assert run(capsys, "sat", "--class", "gen", "--formula", "p") == (
        0, proc.stdout, proc.stderr)
    assert proc.returncode == 0


# ---------------------------------------------------------------------------
# Totality: whatever formula or trace text it is given, main answers with a
# verdict (exit 0 or 1) or one error line (exit 3), never a traceback.

def _nest(prefix: str, depth: int) -> str:
    return prefix * depth + "p" + (")" * depth if prefix == "(" else "")


_formula_texts = st.one_of(
    st.text(max_size=30),
    st.text(alphabet="pq_ ()!&|-<>UXNFGa", max_size=30),
    _token_strings,
    st.builds(_nest, st.sampled_from(["!", "X ", "(", "p -> ", "p U ", "p & "]),
              st.integers(0, 3000)),
)
_trace_texts = st.one_of(
    st.text(max_size=60),
    st.lists(st.sampled_from(["p", "q", "p q", "-", "p -", "@call p",
                              "@ret -", "@int q", "@call", "loop:", "# note",
                              "", "P", "\u017f", "p\u00e9"]),
             max_size=8).map("\n".join),
)


def _assert_total(argv):
    """main answers argv; an exception escaping it fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 3)
    if code == 3:
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")
    else:
        assert err.getvalue() == "" and out.getvalue()


@settings(max_examples=150, deadline=None)
@given(_formula_texts, st.sampled_from(["ltl", "caret"]), st.integers(0, 4))
def test_eval_of_any_formula_text_is_total(tmp_path_factory, text, mode, pos):
    trace = FIXTURES / "m1.trace"
    if mode == "caret":
        trace = tmp_path_factory.getbasetemp() / "structured.trace"
        trace.write_text("@call p\n@int q\nloop:\n@call -\n@ret p q\n")
    _assert_total(["eval", "--trace", str(trace), f"--formula={text}",
                   "--mode", mode, "--pos", str(pos)])


@settings(max_examples=150, deadline=None)
@given(_formula_texts, st.sampled_from(["sat", "valid"]),
       st.sampled_from(["gen", "fin", "inf"]))
def test_sat_and_valid_of_any_formula_text_are_total(text, command, cls):
    _assert_total([command, "--class", cls, f"--formula={text}"])


@settings(max_examples=150, deadline=None)
@given(_trace_texts, st.sampled_from(["p", "X q", "p Ua q"]),
       st.sampled_from(["ltl", "caret"]))
def test_eval_on_any_trace_text_is_total(tmp_path_factory, text, formula, mode):
    path = tmp_path_factory.getbasetemp() / "any.trace"
    path.write_text(text, encoding="utf-8")
    _assert_total(["eval", "--trace", str(path), "--formula", formula,
                   "--mode", mode])
