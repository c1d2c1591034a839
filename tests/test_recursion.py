"""No formula walk recurses: the parser is one loop over an explicit stack
(syntax.parse_formula), and every computation over a formula is one fold
on an explicit stack (syntax._fold), so only memory bounds the nesting
depth they handle.  The functions that still recurse, directly or through
each other, are pinned here with the bound on their depth."""

from __future__ import annotations

import ast
from pathlib import Path

from caretkit.proof import check_tautology
from caretkit.semantics import eval_ltl
from caretkit.syntax import And, Not, Prop, WeakNext, formula_size, lor
from caretkit.trace import LassoTrace

SRC = Path(__file__).resolve().parent.parent / "src" / "caretkit"

# The functions and methods that call themselves, directly or through a
# cycle of calls, each with the bound on its depth:
# - _Table.witness: gen asks fin and inf, depth 1;
# - _draw_formula's draw: as deep as GenConfig.max_formula_size.
SELF_CALLING = [
    "fuzz._draw_formula.draw",
    "tableau._Table.witness",
]


def _functions(tree: ast.AST, prefix: str):
    """(qualified name, node) of every function and method under tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, f"{prefix}{node.name}.")


def _called_names(fn: ast.AST):
    """The names fn's own body calls: ``f(...)``, or ``self.f(...)`` or
    ``cls.f(...)``; the bodies of functions and classes it defines are
    theirs, not its."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                yield f.id
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    and f.value.id in ("self", "cls")):
                yield f.attr
        stack.extend(ast.iter_child_nodes(node))


def _on_call_cycles(tree: ast.Module, prefix: str) -> list[str]:
    """The qualified names of the functions under tree that can reach
    themselves by calls, where a call by name may reach every function of
    the module with that name."""
    functions = dict(_functions(tree, prefix))
    by_name: dict[str, list[str]] = {}
    for qual in functions:
        by_name.setdefault(qual.rsplit(".", 1)[1], []).append(qual)
    callees = {qual: {c for name in _called_names(fn)
                      for c in by_name.get(name, ())}
               for qual, fn in functions.items()}
    found = []
    for qual in functions:
        seen, stack = set(), list(callees[qual])
        while stack:
            c = stack.pop()
            if c not in seen:
                seen.add(c)
                stack.extend(callees[c])
        if qual in seen:
            found.append(qual)
    return found


def test_only_bounded_walks_call_themselves():
    found = [name for path in sorted(SRC.glob("*.py"))
             for name in _on_call_cycles(ast.parse(path.read_text()),
                                         f"{path.stem}.")]
    assert sorted(found) == SELF_CALLING


def test_call_cycles_through_other_functions_are_found():
    tree = ast.parse(
        "def even(n):\n    return n == 0 or odd(n - 1)\n"
        "def odd(n):\n    return n != 0 and even(n - 1)\n"
        "def main():\n    return even(4)\n"
        "class Walker:\n"
        "    def walk(self, g):\n        return self.step(g)\n"
        "    def step(self, g):\n        return g and self.walk(g[1:])\n"
        # inner's call is inner's: outer only defines it
        "def outer():\n"
        "    def inner():\n        return outer()\n"
        "    return inner\n")
    assert sorted(_on_call_cycles(tree, "m.")) == [
        "m.Walker.step", "m.Walker.walk", "m.even", "m.odd"]


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
