"""Syntax layer: grammar goldens, print/parse round-trip, closure vs a naive oracle."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caretkit.syntax import (
    FALSE,
    TRUE,
    AbsUntil,
    AbsWeakNext,
    And,
    ClosureSet,
    Not,
    ParseError,
    Prop,
    TrueConst,
    Until,
    WeakNext,
    _Unary,
    closure,
    formula_size,
    formula_sort_key,
    iff,
    implies,
    is_ltl,
    lor,
    negate,
    parse_formula,
    print_formula,
    props_of,
)
from caretkit import syntax, tableau
from caretkit.fuzz import GenConfig, gen_formula
from caretkit.proof import build_schema_instance, expand_cr
from caretkit.tableau import ClosureCapError, decide_sat

from exhaustive_oracle import enumerate_formulas

# ---------------------------------------------------------------------------
# Strategies

_NAMES = st.sampled_from(["p", "q", "r", "spin"])
_base = st.one_of(st.just(TRUE), _NAMES.map(Prop))


def _extend_ltl(inner):
    return st.one_of(
        inner.map(Not),
        inner.map(WeakNext),
        st.tuples(inner, inner).map(lambda ab: And(*ab)),
        st.tuples(inner, inner).map(lambda ab: Until(*ab)),
    )


def _extend_caret(inner):
    return st.one_of(
        _extend_ltl(inner),
        inner.map(AbsWeakNext),
        st.tuples(inner, inner).map(lambda ab: AbsUntil(*ab)),
    )


ltl_formulas = st.recursive(_base, _extend_ltl, max_leaves=10)
caret_formulas = st.recursive(_base, _extend_caret, max_leaves=10)


# ---------------------------------------------------------------------------
# Parser goldens

def test_parse_until():
    assert parse_formula("p U q") == Until(Prop("p"), Prop("q"))


def test_parse_eventually_sugar():
    assert parse_formula("F p") == Until(TRUE, Prop("p"))


def test_parse_strong_next_sugar():
    # N is the dual of the weak next, stored desugared
    assert parse_formula("N p") == Not(WeakNext(Not(Prop("p"))))


def test_parse_abstract_weak_next_of_false():
    assert parse_formula("Xa false", mode="caret") == AbsWeakNext(Not(TRUE))


def test_false_desugars_to_negated_true():
    assert parse_formula("false") == Not(TRUE)
    assert FALSE == Not(TRUE)


def test_or_imp_iff_shapes():
    p, q = Prop("p"), Prop("q")
    assert parse_formula("p | q") == Not(And(Not(p), Not(q)))
    assert parse_formula("p -> q") == lor(Not(p), q)
    assert parse_formula("p <-> q") == And(implies(p, q), implies(q, p))


def test_always_desugar():
    assert parse_formula("G p") == Not(Until(TRUE, Not(Prop("p"))))


def test_caret_sugar():
    p = Prop("p")
    assert parse_formula("Fa p", mode="caret") == AbsUntil(TRUE, p)
    assert parse_formula("Ga p", mode="caret") == Not(AbsUntil(TRUE, Not(p)))
    assert parse_formula("Na p", mode="caret") == Not(AbsWeakNext(Not(p)))


def test_precedence_or_binds_looser_than_and():
    p, q, r = Prop("p"), Prop("q"), Prop("r")
    assert parse_formula("p | q & r") == lor(p, And(q, r))


def test_imp_right_assoc():
    p, q, r = Prop("p"), Prop("q"), Prop("r")
    assert parse_formula("p -> q -> r") == implies(p, implies(q, r))


def test_iff_left_assoc():
    p, q, r = Prop("p"), Prop("q"), Prop("r")
    assert parse_formula("p <-> q <-> r") == iff(iff(p, q), r)


def test_until_right_assoc():
    p, q, r = Prop("p"), Prop("q"), Prop("r")
    assert parse_formula("p U q U r") == Until(p, Until(q, r))


def test_unary_chain():
    assert parse_formula("! X p") == Not(WeakNext(Prop("p")))


def test_tag_names_are_ordinary_identifiers():
    assert parse_formula("call") == Prop("call")
    assert parse_formula("int & ret") == And(Prop("int"), Prop("ret"))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_formula("")
    with pytest.raises(ParseError):
        parse_formula("p &")
    with pytest.raises(ParseError):
        parse_formula("p $ q")
    with pytest.raises(ParseError):
        parse_formula("(p U q")
    with pytest.raises(ParseError):
        parse_formula("p q")


@pytest.mark.parametrize("word", ["p\u00e9", "p\u00b2", "p\u0661", "\u017f"])
def test_non_ascii_identifiers_are_parse_errors(word):
    # str.isalpha and its kin accept these; a proposition name is ASCII
    # [a-z_][a-z0-9_]*, as in trace files, so each is refused
    for mode in ("ltl", "caret"):
        with pytest.raises(ParseError):
            parse_formula(word, mode)


def test_abstract_operators_rejected_in_ltl_mode():
    with pytest.raises(ParseError):
        parse_formula("Xa p", mode="ltl")
    with pytest.raises(ParseError):
        parse_formula("p Ua q")
    # but fine in caret mode
    assert parse_formula("p Ua q", mode="caret") == AbsUntil(Prop("p"), Prop("q"))


# ---------------------------------------------------------------------------
# Printer goldens and round trip

def test_print_goldens():
    p, q = Prop("p"), Prop("q")
    assert print_formula(Until(TRUE, p)) == "(true U p)"
    assert print_formula(Not(WeakNext(Not(p)))) == "!(X !(p))"
    assert print_formula(AbsUntil(p, q)) == "(p Ua q)"


@given(ltl_formulas)
def test_roundtrip_ltl(f):
    assert parse_formula(print_formula(f), mode="ltl") == f


@given(caret_formulas)
def test_roundtrip_caret(f):
    assert parse_formula(print_formula(f), mode="caret") == f


def test_structural_equality_and_hash():
    a = Until(Prop("p"), And(Prop("q"), TRUE))
    b = Until(Prop("p"), And(Prop("q"), TRUE))
    assert a == b and hash(a) == hash(b)
    assert a != Until(Prop("p"), And(TRUE, Prop("q")))


def test_deep_equality_does_not_recurse():
    def chain(n, name="p"):
        f = Prop(name)
        for k in range(n):
            f = Not(f) if k % 2 else And(f, TRUE)
        return f

    # two distinct 3,000-deep formulas, far past the recursion limit
    assert chain(3000) == chain(3000)
    assert chain(3000) != chain(3000, "q")

    # two separately built counting formulas share subterms as DAGs, so a
    # walk over paths takes time exponential in n.  Copies that differ only
    # at the deepest leaf must still compare unequal: the leaf q takes p's
    # hash, so every hash above it agrees and only the walk tells them apart
    q = Prop("q")
    q._hash = Prop("p")._hash
    start = time.perf_counter()
    assert expand_cr(0, 20, 20, Prop("p")) == expand_cr(0, 20, 20, Prop("p"))
    assert expand_cr(0, 20, 20, Prop("p")) != expand_cr(0, 20, 20, q)
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# Sizes and negation

def test_size_goldens():
    p, q = Prop("p"), Prop("q")
    assert formula_size(p) == 1
    assert formula_size(Until(p, q)) == 3
    assert formula_size(Not(WeakNext(Not(p)))) == 4


def _tree_size(f):
    # the tree walk formula_size replaced: one count per path to a node
    n, stack = 0, [f]
    while stack:
        g = stack.pop()
        n += 1
        if isinstance(g, (Not, WeakNext, AbsWeakNext)):
            stack.append(g.operand)
        elif isinstance(g, (And, Until, AbsUntil)):
            stack += [g.left, g.right]
    return n


def test_size_matches_the_tree_walk():
    for n, formulas in enumerate_formulas(5).items():
        for f in formulas:
            assert formula_size(f) == _tree_size(f) == n
    phi = parse_formula("p U X q", mode="caret")
    instances = [build_schema_instance("C5", {"n": n}, {"phi": phi})
                 for n in range(7)]
    instances += [build_schema_instance("C6", {"m": m, "n": n}, {})
                  for m in range(5) for n in range(m)]
    for f in instances:
        assert formula_size(f) == _tree_size(f)


def test_size_of_a_deep_family_instance_is_quick():
    f = expand_cr(0, 40, 40, Prop("p"))
    start = time.perf_counter()
    size = formula_size(f)
    assert time.perf_counter() - start < 1.0
    # a tree of that size would not fit in memory
    assert size > 2 ** 64


def test_negate_collapses_single_negation():
    p = Prop("p")
    assert negate(p) == Not(p)
    assert negate(Not(p)) == p
    assert negate(Not(Not(p))) == Not(p)


# ---------------------------------------------------------------------------
# Closure.  The oracle below is a second, deliberately naive engine: it
# applies every rule to every member in repeated full passes until the set
# stops growing, then adds single-collapsed negations.

def naive_closure(f, mode="ltl"):
    core = {f, Until(TRUE, WeakNext(Not(TRUE)))}
    changed = True
    while changed:
        changed = False
        for g in list(core):
            new = []
            if isinstance(g, Not):
                new.append(g.operand)
            if isinstance(g, And):
                new += [g.left, g.right]
            if isinstance(g, WeakNext):
                new.append(g.operand)
                if isinstance(g.operand, Not):
                    new.append(WeakNext(g.operand.operand))
            if isinstance(g, Until):
                new += [g.left, g.right, Not(WeakNext(Not(g)))]
            if mode == "caret":
                if isinstance(g, AbsWeakNext):
                    new.append(g.operand)
                    if isinstance(g.operand, Not):
                        new.append(AbsWeakNext(g.operand.operand))
                if isinstance(g, AbsUntil):
                    new += [g.left, g.right, Not(AbsWeakNext(Not(g)))]
            for h in new:
                if h not in core:
                    core.add(h)
                    changed = True
    return core | {negate(g) for g in core}


# Every signed member of closure(p), frozen from the naive oracle.
CLOSURE_P_LISTING = [
    "p",
    "true",
    "!(p)",
    "!(true)",
    "X true",
    "!(X true)",
    "X !(true)",
    "!(X !(true))",
    "(true U X !(true))",
    "!((true U X !(true)))",
    "X (true U X !(true))",
    "!(X (true U X !(true)))",
    "X !((true U X !(true)))",
    "!(X !((true U X !(true))))",
]


def test_closure_of_p_full_listing():
    clo = closure(Prop("p"))
    assert [print_formula(m) for m in clo.members] == CLOSURE_P_LISTING


def test_closure_contains_terminal_markers():
    # the terminal marker and its negation, plus the finiteness until
    clo = closure(And(Prop("p"), Prop("q")))
    assert WeakNext(FALSE) in clo
    assert Not(WeakNext(FALSE)) in clo
    assert Until(TRUE, WeakNext(FALSE)) in clo


@settings(max_examples=150)
@given(ltl_formulas)
def test_closure_matches_naive_oracle_ltl(f):
    assert set(closure(f).members) == naive_closure(f)


@settings(max_examples=150)
@given(caret_formulas)
def test_closure_matches_naive_oracle_caret(f):
    assert set(closure(f, "caret").members) == naive_closure(f, "caret")


@given(caret_formulas)
def test_closure_size_bound(f):
    clo = closure(f, "caret")
    assert clo.size_bound == 8 * formula_size(f) + 20
    assert len(clo.members) <= clo.size_bound


def _subformulas(f):
    out = [f]
    if isinstance(f, (Not, WeakNext, AbsWeakNext)):
        out += _subformulas(f.operand)
    elif isinstance(f, (And, Until, AbsUntil)):
        out += _subformulas(f.left) + _subformulas(f.right)
    return out


@settings(max_examples=80)
@given(caret_formulas)
def test_closure_monotone_over_subformulas(f):
    big = closure(f, "caret").member_set
    for g in _subformulas(f):
        assert closure(g, "caret").member_set <= big


def test_closure_deterministic_and_sorted():
    f = parse_formula("(p U q) & X r")
    a, b = closure(f), closure(f)
    assert a.members == b.members
    assert list(a.members) == sorted(a.members, key=formula_sort_key)
    assert a.core == b.core and set(a.core) <= a.member_set


def test_closure_ltl_mode_rejects_abstract():
    with pytest.raises(ValueError):
        closure(AbsWeakNext(Prop("p")), "ltl")
    with pytest.raises(ValueError):
        closure(Prop("p"), "weird")


# ---------------------------------------------------------------------------
# Sort keys and deep nesting.  The closure prints each node once, bottom-up;
# the reference below is the plain recursive printer it replaced.

def _print_recursive(f):
    if f == TRUE:
        return "true"
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, Not):
        return "!(" + _print_recursive(f.operand) + ")"
    if isinstance(f, AbsWeakNext):
        return "Xa " + _print_recursive(f.operand)
    if isinstance(f, WeakNext):
        return "X " + _print_recursive(f.operand)
    op = {And: " & ", Until: " U ", AbsUntil: " Ua "}[type(f)]
    return "(" + _print_recursive(f.left) + op + _print_recursive(f.right) + ")"


def test_closure_sort_keys_match_recursive_printer():
    by_size = enumerate_formulas(6)
    for f in (g for n in sorted(by_size) for g in by_size[n]):
        clo = closure(f)
        keys = [formula_sort_key(m) for m in clo.members]
        assert keys == [(formula_size(m), _print_recursive(m))
                         for m in clo.members]
        assert keys == sorted(keys)


@settings(max_examples=100)
@given(caret_formulas)
def test_sort_key_matches_recursive_printer_caret(f):
    assert formula_sort_key(f) == (formula_size(f), _print_recursive(f))


@pytest.mark.parametrize("wrap, text", [
    (WeakNext, lambda d: "X " * d + "p"),
    (Not, lambda d: "!(" * d + "p" + ")" * d),
])
def test_deep_nesting_needs_no_recursion(wrap, text):
    # far past the interpreter's recursion limit
    depth = 5000
    f = Prop("p")
    for _ in range(depth):
        f = wrap(f)
    assert print_formula(f) == text(depth)
    assert parse_formula(text(depth)) == f
    clo = closure(f)
    assert clo.core[-1] is f
    assert formula_sort_key(f) == (depth + 1, text(depth))
    assert Prop("p") in clo and len(clo.core) > depth


@pytest.mark.parametrize("op, build", [("->", implies), ("U", Until)])
def test_long_right_associative_chains_parse(op, build):
    length = 5000
    f = Prop("p0")
    for k in range(length, 0, -1):
        f = build(Prop(f"p{k}"), f)
    text = f" {op} ".join(f"p{k}" for k in range(1, length + 1)) + f" {op} p0"
    assert parse_formula(text) == f


def test_non_formula_is_a_type_error():
    for run in (closure, print_formula, formula_sort_key):
        with pytest.raises(TypeError, match="not a formula node: 42"):
            run(42)


# ---------------------------------------------------------------------------
# The closure against the one it replaced: a walk over Formula objects that
# hashes and compares every node, then a second walk that prints every
# member to sort.  Both are kept verbatim, with a copy of their print table.

_REFERENCE_PARTS = {
    Not: ("!(", "", ")"),
    WeakNext: ("X ", "", ""),
    AbsWeakNext: ("Xa ", "", ""),
    And: ("(", " & ", ")"),
    Until: ("(", " U ", ")"),
    AbsUntil: ("(", " Ua ", ")"),
}


def _reference_sort_keys(roots):
    keys = {}
    stack = list(roots)
    while stack:
        g = stack[-1]
        if g in keys:
            stack.pop()
            continue
        t = type(g)
        if t is TrueConst:
            keys[g] = (1, "true")
        elif t is Prop:
            keys[g] = (1, g.name)
        elif t not in _REFERENCE_PARTS:
            raise TypeError(f"not a formula node: {g!r}")
        elif isinstance(g, _Unary):
            sub = keys.get(g.operand)
            if sub is None:
                stack.append(g.operand)
                continue
            before, _, after = _REFERENCE_PARTS[t]
            keys[g] = (sub[0] + 1, before + sub[1] + after)
        else:
            left = keys.get(g.left)
            right = keys.get(g.right)
            if left is None or right is None:
                stack.append(g.left)
                stack.append(g.right)
                continue
            before, mid, after = _REFERENCE_PARTS[t]
            keys[g] = (left[0] + right[0] + 1,
                       before + left[1] + mid + right[1] + after)
        stack.pop()
    return keys


def _reference_closure(f, mode="ltl"):
    if mode not in ("ltl", "caret"):
        raise ValueError(f"unknown mode {mode!r}")

    core = set()
    stack = [f, Until(TRUE, WeakNext(FALSE))]
    while stack:
        g = stack.pop()
        if g in core:
            continue
        core.add(g)
        t = type(g)
        if t is Not:
            stack.append(g.operand)
        elif t is And:
            stack.append(g.left)
            stack.append(g.right)
        elif t is WeakNext:
            stack.append(g.operand)
            if type(g.operand) is Not:
                stack.append(WeakNext(g.operand.operand))
        elif t is Until:
            stack.append(g.left)
            stack.append(g.right)
            stack.append(Not(WeakNext(Not(g))))
        elif mode == "ltl" and t in (AbsWeakNext, AbsUntil):
            raise ValueError(
                "formula uses abstract operators; closure needs caret mode")
        elif t is AbsWeakNext:
            stack.append(g.operand)
            if type(g.operand) is Not:
                stack.append(AbsWeakNext(g.operand.operand))
        elif t is AbsUntil:
            stack.append(g.left)
            stack.append(g.right)
            stack.append(Not(AbsWeakNext(Not(g))))

    members = set(core)
    members.update(negate(g) for g in core)
    key = _reference_sort_keys(members).__getitem__
    core_sorted = tuple(sorted(core, key=key))
    members_sorted = tuple(sorted(members, key=key))
    bound = 8 * key(f)[0] + 20
    return ClosureSet(f, mode, core_sorted, members_sorted, bound)


def _assert_reference_closure(f, mode="ltl"):
    want, got = _reference_closure(f, mode), closure(f, mode)
    # the size is counted before the members are built, on first read
    assert got.size == len(want.members) == want.size
    # tuple equality compares element by element, in order
    assert got.core == want.core
    assert got.members == want.members
    assert got.member_set == want.member_set
    assert got.size_bound == want.size_bound
    # the reference is built by hand, so it numbers its core on first use
    assert got.numbering == want.numbering


def test_decisions_build_no_members(monkeypatch):
    signed, original = [], syntax._signed

    def counting(nodes, core):
        signed.append(core)
        return original(nodes, core)

    monkeypatch.setattr(tableau, "_memo", None)
    monkeypatch.setattr(syntax, "_signed", counting)
    for text in ("p & !p", "(p U q) & X X p", "G (p -> X q) & F !q",
                 "G (p -> X q) & G (q -> X r) & F (s & X X p)"):
        for cls in ("gen", "fin", "inf"):
            decide_sat(parse_formula(text), cls, closure_cap=None)
    assert signed == []
    # reading them is what builds them
    assert len(closure(Prop("p")).members) == 14 and len(signed) == 1


def test_cap_error_names_the_member_count(monkeypatch):
    f = parse_formula("p & !p")     # !p is already in the core
    clo = closure(f)
    assert Not(Prop("p")) in clo.core
    n = len(clo.members)
    assert clo.size == n
    monkeypatch.setattr(tableau, "_memo", None)
    with pytest.raises(ClosureCapError,
                       match=f"closure of size {n} exceeds the cap {n - 1}"):
        decide_sat(f, "gen", closure_cap=n - 1)
    assert not decide_sat(f, "gen", closure_cap=n).satisfiable


def test_closure_matches_reference_small_formulas():
    by_size = enumerate_formulas(6)
    for f in (g for n in sorted(by_size) for g in by_size[n]):
        _assert_reference_closure(f)


def test_closure_matches_reference_caret_fuzz():
    for seed in range(300):
        cfg = GenConfig(seed=seed, max_formula_size=10,
                        alphabet=("p", "q", "r"), mode="caret")
        _assert_reference_closure(gen_formula(cfg), "caret")


@settings(max_examples=200)
@given(ltl_formulas)
def test_closure_matches_reference_ltl(f):
    _assert_reference_closure(f)
    _assert_reference_closure(f, "caret")


@settings(max_examples=200)
@given(caret_formulas)
def test_closure_matches_reference_caret(f):
    _assert_reference_closure(f, "caret")


@pytest.mark.parametrize("text", [
    "(p U q) & (p U q)",
    "X (p U q) & !(p U q) & X !(p U q)",
    "G (p -> X q) & F (p -> X q) & (X q U X q)",
    "(p <-> q) U (q <-> p)",
])
def test_closure_matches_reference_equal_distinct_subterms(text):
    _assert_reference_closure(parse_formula(text))


def test_equal_distinct_subterms_are_one_member():
    # two objects for p U q, which the closure interns as one member
    twice = parse_formula("(p U q) & (p U q)")
    assert twice.left is not twice.right and twice.left == twice.right
    once = closure(twice.left)
    assert len(closure(twice).members) == len(once.members) + 2


@pytest.mark.parametrize("cmn", [
    (c, m, n) for c in range(3) for m in range(3) for n in range(3)
    if c + m >= n])
def test_closure_matches_reference_counting_formulas(cmn):
    _assert_reference_closure(expand_cr(*cmn, Prop("p")))
    _assert_reference_closure(expand_cr(*cmn, AbsWeakNext(Not(Prop("q")))),
                              "caret")


@pytest.mark.parametrize("name, params", [
    ("C5", {"n": 0}), ("C5", {"n": 2}),
    ("C6", {"m": 1, "n": 0}), ("C6", {"m": 3, "n": 2}),
])
def test_closure_matches_reference_cr_families(name, params):
    bindings = {"phi": parse_formula("p U X q")} if name == "C5" else {}
    instance = build_schema_instance(name, params, bindings)
    _assert_reference_closure(instance, "caret")
    _assert_reference_closure(Not(instance), "caret")


def test_closure_matches_reference_heavy_instances():
    from test_tableau import CEILING, HEAVY_INSTANCES, _negated_instance
    for inst in HEAVY_INSTANCES:
        _assert_reference_closure(_negated_instance(*inst))
    _assert_reference_closure(CEILING)


def test_deep_members_of_equal_size_sort_without_recursion():
    # X^1500 p and X^1500 q have equal sizes: a key of nested tuples would
    # compare them recursively, past the recursion limit
    depth = 1500
    deep_p, deep_q = Prop("p"), Prop("q")
    for _ in range(depth):
        deep_p, deep_q = WeakNext(deep_p), WeakNext(deep_q)
    f = And(deep_p, deep_q)
    clo = closure(f)
    assert clo.core[-1] is f
    assert deep_p in clo and Not(deep_q) in clo
    _assert_reference_closure(f)


# ---------------------------------------------------------------------------
# Walks over shared subterms

def test_props_and_ltl_walk_a_dag_once():
    # expand_cr shares equal subterms: as a tree this instance has more
    # than 3 ** 40 nodes, as a DAG a few thousand
    dag = expand_cr(0, 40, 40, Prop("p"))
    assert props_of(dag) == {"p", "call", "ret", "int"}
    assert is_ltl(dag)
    deep_abstract = expand_cr(0, 40, 40, AbsWeakNext(Prop("q")))
    assert props_of(deep_abstract) == {"q", "call", "ret", "int"}
    assert not is_ltl(deep_abstract)


@given(caret_formulas)
@settings(max_examples=200)
def test_props_and_ltl_agree_with_a_tree_walk(f):
    def nodes(g):
        yield g
        for k in (getattr(g, "operand", None), getattr(g, "left", None),
                  getattr(g, "right", None)):
            if k is not None:
                yield from nodes(k)

    assert props_of(f) == {g.name for g in nodes(f) if type(g) is Prop}
    assert is_ltl(f) == all(type(g) not in (AbsWeakNext, AbsUntil)
                            for g in nodes(f))


# ---------------------------------------------------------------------------
# The parser against the recursive-descent parser it replaced, kept verbatim
# as a reference and fed the same tokens: equal formulas, or the same error
# message at the same offset.

class _ReferenceParser:
    def __init__(self, toks, mode):
        self.toks = toks
        self.pos = 0
        self.mode = mode

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def formula(self):
        f = self.imp()
        while self.peek()[0] == "<->":
            self.advance()
            f = iff(f, self.imp())
        return f

    def imp(self):
        f = self.disj()
        if self.peek()[0] == "->":
            self.advance()
            f = implies(f, self.imp())
        return f

    def disj(self):
        f = self.conj()
        while self.peek()[0] == "|":
            self.advance()
            f = lor(f, self.conj())
        return f

    def conj(self):
        f = self.until()
        while self.peek()[0] == "&":
            self.advance()
            f = And(f, self.until())
        return f

    def until(self):
        f = self.unary()
        kind, word, at = self.peek()
        if kind == "op" and word in ("U", "Ua"):
            self.advance()
            self._check_mode(word, at)
            rhs = self.until()
            f = Until(f, rhs) if word == "U" else AbsUntil(f, rhs)
        return f

    def unary(self):
        kind, word, at = self.peek()
        if kind == "!":
            self.advance()
            return Not(self.unary())
        if kind == "op":
            if word in ("U", "Ua"):
                raise ParseError(f"{word!r} needs a left operand", at)
            self.advance()
            self._check_mode(word, at)
            return syntax._UNARY_BUILDERS[word](self.unary())
        return self.atom()

    def atom(self):
        kind, word, at = self.advance()
        if kind == "const":
            return TRUE if word == "true" else FALSE
        if kind == "ident":
            return Prop(word)
        if kind == "(":
            f = self.formula()
            self.expect(")")
            return f
        raise ParseError(f"unexpected token {word!r}", at)

    def _check_mode(self, word, at):
        if self.mode == "ltl" and word in syntax._ABSTRACT_OPS:
            raise ParseError(f"abstract operator {word!r} requires caret mode", at)


def _reference_parse(text, mode):
    p = _ReferenceParser(syntax._tokenize(text), mode)
    f = p.formula()
    kind, word, at = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {word!r}", at)
    return f


def _outcome(parse, text, mode):
    """The formula, or the error's (message, offset)."""
    try:
        return parse(text, mode)
    except ParseError as e:
        return str(e), e.position


_PREFIX = ["!", "X", "N", "F", "G", "Xa", "Na", "Fa", "Ga"]
_INFIX = ["&", "|", "->", "<->", "U", "Ua"]
_ATOMS = ["p", "q", "true", "false"]
_modes = st.sampled_from(["ltl", "caret"])
# any sequence of tokens: mostly errors, each at some offset
_token_strings = st.lists(st.sampled_from(_PREFIX + _INFIX + _ATOMS + ["(", ")"]),
                          max_size=24).map(" ".join)


def _derive(inner):
    return st.one_of(
        st.tuples(st.sampled_from(_PREFIX), inner).map(" ".join),
        st.tuples(inner, st.sampled_from(_INFIX), inner).map(" ".join),
        inner.map(lambda t: f"({t})"),
    )


# text the grammar derives, unparenthesised where precedence decides
_grammar_strings = st.recursive(st.sampled_from(_ATOMS), _derive, max_leaves=12)


@settings(max_examples=2000)
@given(st.one_of(_token_strings, _grammar_strings), _modes)
def test_parser_matches_recursive_reference(text, mode):
    assert (_outcome(parse_formula, text, mode)
            == _outcome(_reference_parse, text, mode))
