"""Golden outputs: exact exit codes and stdout of the byte-stable CLI
invocations, and the exact text of one trace of each shape.

Criterion 8 checks that two runs of one build agree; these literals were
captured once and catch drift between builds.  A deliberate format change
updates them in the same change.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from caretkit.cli import main
from caretkit.trace import (
    FiniteTrace, LassoTrace, StateTag, StructuredLassoTrace, trace_to_text,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

_AXIOMS_AX_CR = (
    '{"command": "axioms", "verdict": "ok", "report": {"system": "ax-cr", "axioms": ['
    '["Prop", "all instances of propositional tautologies"]'
    ', ["MP", "from phi and phi -> psi infer psi"]'
    ', ["G1", "X phi & X (phi -> psi) -> X psi"]'
    ', ["G2", "(phi U psi) <-> (psi | (phi & N (phi U psi)))"]'
    ', ["G3", "X phi <-> (X false | N phi)"]'
    ', ["G4", "!(X false)"]'
    ', ["RG1", "from phi infer X phi"]'
    ', ["RG2", "from phi\' -> (!psi & X phi\') infer phi\' -> !(phi U psi)"]'
    ', ["A1", "Xa phi & Xa (phi -> psi) -> Xa psi"]'
    ', ["A2", "(phi Ua psi) <-> (psi | (phi & Na (phi Ua psi)))"]'
    ', ["A3", "Xa phi <-> (Xa false | Na phi)"]'
    ', ["RA1", "from phi infer Xa phi"]'
    ', ["RA2", "from phi\' -> (!psi & Xa phi\') infer phi\' -> !(phi Ua psi)"]'
    ', ["C1", "(call & !ret & !int) | (!call & ret & !int) | (!call & !ret & int)"]'
    ', ["C2", "!call & X !ret -> (X phi <-> Na phi)"]'
    ', ["C3", "!call & X ret -> Xa false"]'
    ', ["C4", "Na phi -> F phi"]'
    ', ["C5", "call & X CR[0,n,n](ret & phi) -> Na phi  (family, n >= 0)"]'
    ', ["C6", "call & X CR[0,m,n](G !ret) -> Xa false  (family, m > n >= 0)"]]}}\n'
)

GOLDEN_CLI = [
    (("fuzz", "--system", "ax-gen", "--instances", "40", "--seed", "7",
      "--json"),
     0,
     '{"command": "fuzz", "verdict": "ok", "report": {"counts": '
     '{"T1": 40, "T2\'": 40, "T3\'": 40}, "failures": 0}}\n'),
    (("fuzz", "--system", "ax-cr", "--instances", "25", "--seed", "3",
      "--json"),
     0,
     '{"command": "fuzz", "verdict": "ok", "report": {"counts": '
     '{"G1": 25, "G2": 25, "G3": 25, "G4": 25, "A1": 25, "A2": 25, '
     '"A3": 25, "C1": 25, "C2": 25, "C3": 25, "C4": 25, "C5": 25, '
     '"C6": 25}, "failures": 0}}\n'),
    (("sat", "--formula", "G (p -> F q) & p", "--class", "inf", "--cap",
      "0", "--json"),
     0,
     '{"command": "sat", "verdict": "sat", "witness": "loop:\\np\\nq\\n"}\n'),
    (("valid", "--formula", "X !p -> !(X p)", "--class", "fin", "--json"),
     1,
     '{"command": "valid", "verdict": "invalid", "witness": "-\\n"}\n'),
    (("eval", "--formula", "p U q", "--trace", str(FIXTURES / "m1.trace"),
      "--json"),
     1,
     '{"command": "eval", "verdict": "false"}\n'),
    (("axioms", "--system", "ax-cr", "--json"), 0, _AXIOMS_AX_CR),
]


@pytest.mark.parametrize("argv,code,out", GOLDEN_CLI,
                         ids=["fuzz-ax-gen", "fuzz-ax-cr", "sat", "valid",
                              "eval", "axioms"])
def test_cli_json_matches_golden(capsys, argv, code, out):
    assert main(list(argv)) == code
    assert capsys.readouterr().out == out


C, R, I = StateTag.CALL, StateTag.RET, StateTag.INT

GOLDEN_TEXT = [
    (FiniteTrace(({"q", "p"}, set(), {"r"})), "p q\n-\nr\n"),
    (LassoTrace(({"p"},), (set(), {"q", "p"})), "p\nloop:\n-\np q\n"),
    (LassoTrace((), ({"q"},)), "loop:\nq\n"),
    (StructuredLassoTrace((({"p"}, C), (set(), I)), ((set(), R), ({"q"}, I))),
     "@call p\n@int -\nloop:\n@ret -\n@int q\n"),
]


@pytest.mark.parametrize("trace,text", GOLDEN_TEXT,
                         ids=["finite", "lasso", "empty-prefix", "structured"])
def test_trace_text_matches_golden(trace, text):
    assert trace_to_text(trace) == text
