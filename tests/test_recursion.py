"""No formula walk recurses: every computation over a formula is one fold
on an explicit stack (syntax._fold), so only memory bounds the nesting
depth it handles.  Only the parser still recurses."""

from __future__ import annotations

import ast
from pathlib import Path

from caretkit.proof import check_tautology
from caretkit.semantics import eval_ltl
from caretkit.syntax import And, Not, Prop, WeakNext, formula_size, lor
from caretkit.trace import LassoTrace

SRC = Path(__file__).resolve().parent.parent / "src" / "caretkit"

# The functions and methods that call themselves by name, each with the
# bound on its depth:
# - the parser's rules, as deep as the input nests (exit 3 past the limit);
# - _Table.witness: gen asks fin and inf, depth 1;
# - _draw_formula's draw: as deep as GenConfig.max_formula_size.
SELF_CALLING = [
    "fuzz._draw_formula.draw",
    "syntax._Parser.imp",
    "syntax._Parser.unary",
    "syntax._Parser.until",
    "tableau._Table.witness",
]


def _self_calling(tree: ast.Module, prefix: str):
    """The qualified names of the functions under tree whose bodies call
    them by name: ``f(...)``, or ``self.f(...)`` or ``cls.f(...)`` in a
    method.  Two functions that call each other are not caught."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _self_calling(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                fn = call.func
                if (isinstance(fn, ast.Name) and fn.id == name
                        or isinstance(fn, ast.Attribute) and fn.attr == name
                        and isinstance(fn.value, ast.Name)
                        and fn.value.id in ("self", "cls")):
                    yield prefix + name
                    break
            yield from _self_calling(node, f"{prefix}{name}.")


def test_only_the_parser_and_bounded_walks_call_themselves():
    found = [name for path in sorted(SRC.glob("*.py"))
             for name in _self_calling(ast.parse(path.read_text()),
                                       f"{path.stem}.")]
    assert sorted(found) == SELF_CALLING


def test_folds_answer_far_past_the_recursion_limit():
    depth = 10_000
    f = Prop("p")
    for _ in range(depth):
        f = Not(WeakNext(f))
    assert formula_size(f) == 2 * depth + 1
    # next is strong on a lasso, so f holds at i iff p holds at i + depth
    # (the negations cancel): p holds at every even position from 2 on
    t = LassoTrace([{"p"}], [set(), {"p"}])
    assert eval_ltl(t, 0, f) is True
    assert eval_ltl(t, 1, f) is False

    g = Prop("q")
    for k in range(depth):
        g = Not(And(g, Prop(f"x{k % 3}")))
    assert check_tautology(lor(g, Not(g))) is True
    assert check_tautology(And(g, Not(g))) is False
