"""Proof checking: CR expansion, tautology certification, scripts, mutations."""

from __future__ import annotations

import itertools
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caretkit.proof import (
    MAX_CR_PARAM,
    AxiomInstance,
    GenNext,
    MP,
    ProofError,
    ProofFormatError,
    ProofLimitError,
    ProofScript,
    ProofStep,
    SCHEMAS,
    Taut,
    _compile,
    axiom_schemas,
    build_schema_instance,
    check_axiom_instance,
    check_proof,
    check_tautology,
    expand_cr,
    list_axioms,
    parse_proof,
)
from caretkit.semantics import eval_everywhere, eval_ltl
from caretkit.syntax import (
    FALSE,
    TRUE,
    AbsWeakNext,
    And,
    Not,
    Prop,
    TrueConst,
    Until,
    WeakNext,
    abs_strong_next,
    always,
    implies,
    lor,
    parse_formula,
    print_formula,
)
from caretkit.tableau import decide_valid

from test_syntax import _extend_caret, caret_formulas, ltl_formulas
from test_trace import finite_traces, lasso_traces

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DERIVATION = (FIXTURES / "derivation_caret.prf").read_text()


# ---------------------------------------------------------------------------
# CR expansion.  The oracle rebuilds the recursion through the concrete
# grammar instead of constructors, so the two implementations share nothing
# but the parser.

def expand_cr_oracle(c, m, n, leaf_text):
    if c + m < n:
        raise ValueError("c + m < n")
    if m == 0 and n == 0:
        return f"(int U {leaf_text})"
    arms = []
    if m > 0:
        arms.append(f"(int U (call & X {expand_cr_oracle(c + 1, m - 1, n, leaf_text)}))")
    if n > 0 and (m == 0 or c > 0):
        arms.append(f"(int U (ret & X {expand_cr_oracle(c - 1, m, n - 1, leaf_text)}))")
    return arms[0] if len(arms) == 1 else f"({arms[0]} | {arms[1]})"


def test_expand_cr_base_case():
    f = Prop("q")
    assert expand_cr(0, 0, 0, f) == Until(Prop("int"), f)


def test_expand_cr_one_call_one_return_frozen():
    got = expand_cr(0, 1, 1, Prop("q"))
    want = parse_formula(
        "int U (call & X (int U (ret & X (int U q))))", mode="caret"
    )
    assert got == want


def test_expand_cr_pending_return():
    got = expand_cr(1, 0, 1, Prop("q"))
    assert got == parse_formula("int U (ret & X (int U q))", mode="caret")


@pytest.mark.parametrize(
    "c,m,n",
    [(c, m, n) for c in range(3) for m in range(4) for n in range(4)],
)
def test_expand_cr_matches_oracle(c, m, n):
    f = Prop("q")
    if c + m < n:
        with pytest.raises(ValueError):
            expand_cr(c, m, n, f)
        return
    assert expand_cr(c, m, n, f) == parse_formula(
        expand_cr_oracle(c, m, n, "q"), mode="caret"
    )


# The tree the recursion used to build, one subformula per path of calls and
# returns; expand_cr builds each (c, m, n) once and shares it.

def _expand_cr_tree(c, m, n, f):
    if m == 0 and n == 0:
        return Until(Prop("int"), f)
    call_branch = None
    if m > 0:
        call_branch = Until(Prop("int"), And(
            Prop("call"), WeakNext(_expand_cr_tree(c + 1, m - 1, n, f))))
    if n == 0 or (m > 0 and c == 0):
        return call_branch
    ret_branch = Until(Prop("int"), And(
        Prop("ret"), WeakNext(_expand_cr_tree(c - 1, m, n - 1, f))))
    if m == 0:
        return ret_branch
    return lor(call_branch, ret_branch)


def _call_into(body):
    return And(Prop("call"), WeakNext(body))


def test_family_instances_match_tree_built_ones():
    # the compiled C5/C6 programs, run over nodes, against the tree built by
    # a recursion that shares no code with them
    phi = parse_formula("p U X q", mode="caret")
    for n in range(9):
        tree = _expand_cr_tree(0, n, n, And(Prop("ret"), phi))
        assert build_schema_instance("C5", {"n": n}, {"phi": phi}) == \
            implies(_call_into(tree), abs_strong_next(phi))
    for m in range(9):
        for n in range(m):
            tree = _expand_cr_tree(0, m, n, always(Not(Prop("ret"))))
            assert build_schema_instance("C6", {"m": m, "n": n}, {}) == \
                implies(_call_into(tree), AbsWeakNext(FALSE))
    for c, m, n in itertools.product(range(4), range(6), range(6)):
        if c + m >= n:
            assert expand_cr(c, m, n, phi) == _expand_cr_tree(c, m, n, phi)


def test_expand_cr_shares_subformulas():
    # a tree would hold hundreds of thousands of nodes; the DAG holds a few
    # per (c, m, n)
    seen = set()
    stack = [expand_cr(0, 10, 10, Prop("q"))]
    while stack:
        g = stack.pop()
        if id(g) in seen:
            continue
        seen.add(id(g))
        stack.extend(getattr(g, k) for k in ("operand", "left", "right")
                     if hasattr(g, k))
    assert len(seen) < 10 * 11 ** 2


def test_expand_cr_rejects_negative_parameters():
    with pytest.raises(ValueError):
        expand_cr(-1, 1, 0, TRUE)
    with pytest.raises(ValueError):
        expand_cr(0, -1, 0, TRUE)
    with pytest.raises(ValueError):
        expand_cr(0, 0, -1, TRUE)


# ---------------------------------------------------------------------------
# Tautology checking

def test_tautology_goldens():
    p, q = Prop("p"), Prop("q")
    np_ = WeakNext(p)
    assert check_tautology(parse_formula("p -> p")) is True
    # the weak next is abstracted to a single letter
    f = parse_formula("(X p & (X p -> q)) -> q")
    assert check_tautology(f) is True
    assert check_tautology(parse_formula("X p -> p")) is False
    assert check_tautology(parse_formula("p | !p")) is True
    assert check_tautology(parse_formula("((p -> q) -> p) -> p")) is True
    assert check_tautology(parse_formula("p -> q")) is False
    assert check_tautology(parse_formula("(p U q) -> (p U q)")) is True
    assert check_tautology(parse_formula("(p U q) -> (q U p)")) is False
    assert check_tautology(TRUE) is True
    assert check_tautology(Not(TRUE)) is False
    assert check_tautology(And(np_, Not(np_))) is False


def _taut_oracle(f):
    # independent letter collection and direct recursive evaluation
    letters: list = []

    def scan(g):
        if isinstance(g, TrueConst):
            return
        if isinstance(g, Not):
            scan(g.operand)
        elif isinstance(g, And):
            scan(g.left)
            scan(g.right)
        elif g not in letters:
            letters.append(g)

    scan(f)

    def ev(g, env):
        if isinstance(g, TrueConst):
            return True
        if isinstance(g, Not):
            return not ev(g.operand, env)
        if isinstance(g, And):
            return ev(g.left, env) and ev(g.right, env)
        return env[g]

    return all(
        ev(f, dict(zip(letters, bits)))
        for bits in itertools.product((False, True), repeat=len(letters))
    )


@settings(max_examples=300)
@given(caret_formulas)
def test_tautology_matches_brute_valuation(f):
    assert check_tautology(f) == _taut_oracle(f)


def test_tautology_letter_cap():
    f = parse_formula(" & ".join(f"x{i}" for i in range(21)))
    with pytest.raises(ProofError):
        check_tautology(f)
    # 20 letters is within the cap
    check_tautology(parse_formula(" & ".join(f"x{i}" for i in range(20))))


def test_tautology_of_a_deep_negation_chain():
    # built in code, past the parser's nesting limit: the columns are
    # computed without recursion
    f = Prop("p")
    for _ in range(3000):
        f = Not(f)
    assert check_tautology(And(f, Not(f))) is False
    assert check_tautology(lor(f, Not(f))) is True
    assert check_tautology(f) is False


# ---------------------------------------------------------------------------
# Axiom instances

def test_next_choice_instance():
    f = parse_formula("X p <-> (X false | N p)")
    assert check_axiom_instance("ax-gen", "T3'", {}, {"phi": Prop("p")}, f) is True
    assert check_axiom_instance("ax-gen", "T3'", {}, {"phi": Prop("q")}, f) is False


def test_tag_partition_instance():
    f = parse_formula(
        "(call & !ret & !int) | (!call & ret & !int) | (!call & !ret & int)",
        mode="caret",
    )
    assert check_axiom_instance("ax-cr", "C1", {}, {}, f) is True


def test_abs_next_from_matched_body_instance():
    f = parse_formula("call & X (int U (ret & q)) -> Na q", mode="caret")
    assert check_axiom_instance("ax-cr", "C5", {"n": 0}, {"phi": Prop("q")}, f) is True
    # the CR argument comes from the expansion oracle
    body = expand_cr(0, 0, 0, And(Prop("ret"), Prop("q")))
    assert body == parse_formula("int U (ret & q)", mode="caret")


def test_unfolding_instance_per_system():
    p, q = Prop("p"), Prop("q")
    strong = parse_formula("(p U q) <-> (q | (p & N (p U q)))")
    weak = parse_formula("(p U q) <-> (q | (p & X (p U q)))")
    b = {"phi": p, "psi": q}
    assert check_axiom_instance("ax-gen", "T2'", {}, b, strong) is True
    assert check_axiom_instance("ax", "T2", {}, b, weak) is True
    assert check_axiom_instance("ax", "T2", {}, b, strong) is False
    with pytest.raises(ProofError):
        check_axiom_instance("ax", "T2'", {}, b, strong)
    with pytest.raises(ProofError):
        check_axiom_instance("ax-gen", "Inf", {}, {}, parse_formula("!(X false)"))


def test_instance_errors():
    with pytest.raises(ValueError):
        check_axiom_instance("nope", "T1", {}, {}, TRUE)
    with pytest.raises(ProofError):
        build_schema_instance("T1", {}, {})  # missing binding
    with pytest.raises(ProofError):
        build_schema_instance("T1", {"n": 1}, {"phi": TRUE, "psi": TRUE})
    with pytest.raises(ProofError):
        build_schema_instance("C6", {"m": 1, "n": 1}, {})  # needs m > n
    with pytest.raises(ProofError):
        build_schema_instance("C5", {"n": -1}, {"phi": TRUE})
    with pytest.raises(ProofError):
        build_schema_instance("XX", {}, {})


def test_family_parameters_are_bounded():
    # at the bound the family is built; one above, the refusal names it
    build_schema_instance("C5", {"n": MAX_CR_PARAM}, {"phi": TRUE})
    build_schema_instance("C6", {"m": MAX_CR_PARAM, "n": 0}, {})
    for name, params, bindings in (
            ("C5", {"n": MAX_CR_PARAM + 1}, {"phi": TRUE}),
            ("C6", {"m": MAX_CR_PARAM + 1, "n": 3}, {})):
        with pytest.raises(ProofLimitError, match=f"<= {MAX_CR_PARAM}"):
            build_schema_instance(name, params, bindings)
    # the checker refuses such a step rather than failing the proof
    script = parse_proof(
        f"system: ax-cr\n1. p ; axiom C5 n={MAX_CR_PARAM + 1} bind phi=p\n")
    with pytest.raises(ProofLimitError, match="MAX_CR_PARAM"):
        check_proof(script)


def test_abstract_axioms_mirror_plain_ones():
    phi = Prop("p")
    a2 = build_schema_instance("A2", {}, {"phi": phi, "psi": Prop("q")})
    g2 = build_schema_instance("G2", {}, {"phi": phi, "psi": Prop("q")})
    assert a2 == parse_formula(
        "(p Ua q) <-> (q | (p & Na (p Ua q)))", mode="caret"
    )
    assert g2 == parse_formula("(p U q) <-> (q | (p & N (p U q)))")


# ---------------------------------------------------------------------------
# Templates are the definitions.  The oracle substitutes the printed bindings
# into the template text and parses the result, so it shares only the parser
# with the compiled builders.  Bindings may use phi and psi as propositions,
# which a substitution done one metavariable at a time would capture.

TEMPLATES = [s for s in SCHEMAS.values() if not s.params]
_METAVAR_RE = re.compile(r"\b(phi|psi)\b")
_metavar_names = st.sampled_from(["p", "phi", "psi", "call"])
metavar_formulas = st.recursive(
    st.one_of(st.just(TRUE), _metavar_names.map(Prop)), _extend_caret,
    max_leaves=8)


def substituted_template(text, bindings):
    return parse_formula(
        _METAVAR_RE.sub(
            lambda m: "(" + print_formula(bindings[m.group(1)]) + ")", text),
        mode="caret")


def test_every_family_free_schema_is_a_template():
    assert sorted(s.name for s in TEMPLATES) == sorted(
        set(SCHEMAS) - {"C5", "C6"})
    for s in TEMPLATES:
        assert set(_METAVAR_RE.findall(s.text)) == set(s.metavars), s.name


def written_out_family(text, params, bindings):
    # the family's formula with CR[c,m,n](psi) written out by
    # expand_cr_oracle, then the bindings substituted
    formula = text.split("  (family, ")[0]
    cr = re.search(r"CR\[(\w+),(\w+),(\w+)\]\(([^()]*)\)", formula)
    c, m, n = (int(a) if a.isdigit() else params[a] for a in cr.groups()[:3])
    counting = expand_cr_oracle(c, m, n, f"({cr[4]})")
    return substituted_template(
        f"{formula[:cr.start()]}({counting}){formula[cr.end():]}", bindings)


def test_family_texts_are_their_definitions():
    for phi in (Prop("p"), parse_formula("phi U Xa call", mode="caret")):
        for n in range(4):
            assert build_schema_instance("C5", {"n": n}, {"phi": phi}) == \
                written_out_family(SCHEMAS["C5"].text, {"n": n}, {"phi": phi})
    for m in range(1, 5):
        for n in range(m):
            assert build_schema_instance("C6", {"m": m, "n": n}, {}) == \
                written_out_family(SCHEMAS["C6"].text, {"m": m, "n": n}, {})


@given(metavar_formulas, metavar_formulas)
@example(Prop("psi"), And(Prop("phi"), Prop("psi")))
@settings(max_examples=300)
def test_templates_build_their_substituted_text(phi, psi):
    b = {"phi": phi, "psi": psi}
    for s in TEMPLATES:
        bindings = {v: b[v] for v in s.metavars}
        assert build_schema_instance(s.name, {}, bindings) == \
            substituted_template(s.text, bindings), s.name


def test_compiled_subformulas_are_emitted_once_left_first():
    # X phi is met twice, once under the negation, and emitted once
    assert _compile("!(X phi) & X phi", ("phi",)) == (
        3, ((WeakNext, 0, None), (Not, 1, None), (And, 2, 1)))
    assert _compile("X phi & !(X phi)", ("phi",)) == (
        3, ((WeakNext, 0, None), (Not, 1, None), (And, 1, 2)))
    # operands that share nothing: the left one's steps come first
    assert _compile("X phi & !phi", ("phi",)) == (
        3, ((WeakNext, 0, None), (Not, 0, None), (And, 1, 2)))


def test_compiled_constants_are_leaves():
    # a part without letters is made by steps over true, call, ret or int
    assert _compile("!(X false)", ()) == (3, (
        (None, TRUE, None), (Not, 0, None), (WeakNext, 1, None),
        (Not, 2, None)))
    # C1 repeats each tag: one constant step per tag
    _, steps = SCHEMAS["C1"]._parts[3]
    assert [i for ctor, i, _ in steps if ctor is None] == [
        Prop("call"), Prop("ret"), Prop("int")]


# ---------------------------------------------------------------------------
# Axiom listings

_RULE_AND_SCHEMA_TEXT = {
    "Prop": "all instances of propositional tautologies",
    "MP": "from phi and phi -> psi infer psi",
    "RT1": "from phi infer X phi",
    "RT2": "from phi' -> (!psi & X phi') infer phi' -> !(phi U psi)",
    "RG1": "from phi infer X phi",
    "RG2": "from phi' -> (!psi & X phi') infer phi' -> !(phi U psi)",
    "RA1": "from phi infer Xa phi",
    "RA2": "from phi' -> (!psi & Xa phi') infer phi' -> !(phi Ua psi)",
    "T1": "X phi & X (phi -> psi) -> X psi",
    "T2": "(phi U psi) <-> (psi | (phi & X (phi U psi)))",
    "T3": "X !phi -> !(X phi)",
    "T2'": "(phi U psi) <-> (psi | (phi & N (phi U psi)))",
    "T3'": "X phi <-> (X false | N phi)",
    "Inf": "!(X false)",
    "Fin": "F (X false)",
    "G1": "X phi & X (phi -> psi) -> X psi",
    "G2": "(phi U psi) <-> (psi | (phi & N (phi U psi)))",
    "G3": "X phi <-> (X false | N phi)",
    "G4": "!(X false)",
    "A1": "Xa phi & Xa (phi -> psi) -> Xa psi",
    "A2": "(phi Ua psi) <-> (psi | (phi & Na (phi Ua psi)))",
    "A3": "Xa phi <-> (Xa false | Na phi)",
    "C1": "(call & !ret & !int) | (!call & ret & !int) | (!call & !ret & int)",
    "C2": "!call & X !ret -> (X phi <-> Na phi)",
    "C3": "!call & X ret -> Xa false",
    "C4": "Na phi -> F phi",
    "C5": "call & X CR[0,n,n](ret & phi) -> Na phi  (family, n >= 0)",
    "C6": "call & X CR[0,m,n](G !ret) -> Xa false  (family, m > n >= 0)",
}

# (listing order, axiom_schemas order) per system
_LISTING_GOLDEN = {
    "ax": ("Prop MP T1 T2 T3 RT1 RT2", "T1 T2 T3"),
    "ax-gen": ("Prop MP T1 T2' T3' RT1 RT2", "T1 T2' T3'"),
    "ax-inf": ("Prop MP T1 T2' T3' RT1 RT2 Inf", "T1 T2' T3' Inf"),
    "ax-fin": ("Prop MP T1 T2' T3' RT1 RT2 Fin", "T1 T2' T3' Fin"),
    "ax-cr": ("Prop MP G1 G2 G3 G4 RG1 RG2 A1 A2 A3 RA1 RA2 C1 C2 C3 C4 C5 C6",
              "G1 G2 G3 G4 A1 A2 A3 C1 C2 C3 C4 C5 C6"),
}


def test_list_axioms_golden():
    for system, (rows, schemas) in _LISTING_GOLDEN.items():
        assert list_axioms(system) == tuple(
            (n, _RULE_AND_SCHEMA_TEXT[n]) for n in rows.split()), system
        assert axiom_schemas(system) == tuple(schemas.split()), system


def test_list_axioms_membership():
    names = lambda sys: [s for s, _ in list_axioms(sys)]
    assert "Inf" in names("ax-inf") and "Fin" not in names("ax-inf")
    assert "Fin" in names("ax-fin") and "Inf" not in names("ax-fin")
    ax = names("ax")
    assert "T2" in ax and "T3" in ax
    assert "T2'" not in ax and "T3'" not in ax
    assert "T2'" in names("ax-gen")


def test_list_axioms_counts():
    assert len(list_axioms("ax")) == 7
    assert len(list_axioms("ax-gen")) == 7
    assert len(list_axioms("ax-inf")) == 8
    assert len(list_axioms("ax-fin")) == 8
    assert len(list_axioms("ax-cr")) == 19
    with pytest.raises(ValueError):
        list_axioms("ax-zzz")


# ---------------------------------------------------------------------------
# Script checking

def test_bundled_derivation_checks():
    verdict = check_proof(parse_proof(DERIVATION))
    assert verdict.ok, verdict


def test_one_step_generalization():
    script = parse_proof("system: ax-gen\n1. true ; taut\n2. X true ; gen-x 1\n")
    assert check_proof(script).ok


def test_until_induction_accepted():
    text = (
        "system: ax-gen\n"
        "1. !true -> (!q & X !true) ; taut\n"
        "2. !true -> !(p U q) ; ind-u 1\n"
    )
    assert check_proof(parse_proof(text)).ok


def test_until_induction_shape_enforced():
    # premise right conjunct must carry the same antecedent under the next
    text = (
        "system: ax-gen\n"
        "1. !true -> (!q & X !q) ; taut\n"
        "2. !true -> !(p U q) ; ind-u 1\n"
    )
    v = check_proof(parse_proof(text))
    assert not v.ok and v.step == 2


# Single-step formula corruptions of the bundled derivation, one per step.
# Each replaces only the formula text; the checker must flag exactly that
# step.
MUTATIONS = {
    1: "!call & X !ret -> (X true <-> Xa false)",
    2: "(!call & X !ret -> (X true <-> !(Xa false))) -> (!call -> (X !ret -> (X true -> Xa false)))",
    3: "!call -> (X !ret -> (X true -> Xa false))",
    4: "(!call -> (X !ret -> (X true -> !(Xa false)))) -> (X true -> (!call -> (Xa false -> X !ret)))",
    5: "X true -> (!call -> (Xa false -> X !ret))",
    6: "false",
    7: "X false",
    8: "!call -> (Xa false -> X !ret)",
    9: "(!call -> (Xa false -> !(X !ret))) -> (!call & Xa false -> X !ret)",
    10: "!call & Xa false -> X !ret",
    11: "X ret <-> (X false & !(X !ret))",
    12: "(X ret <-> (X false | !(X !ret))) -> (!(X false) -> (!(X !ret) -> X false))",
    13: "!(X false) -> (!(X !ret) -> X false)",
    14: "!(X true)",
    15: "X !ret -> X ret",
    16: "(!call & Xa false -> !(X !ret)) -> ((!(X !ret) -> X ret) -> (!call & Xa false -> X !ret))",
    17: "(!(X !ret) -> X ret) -> (!call & Xa false -> X !ret)",
    18: "!call & Xa false -> X !ret",
}


def _mutate(step: int, formula: str) -> str:
    lines = []
    for line in DERIVATION.splitlines():
        stripped = line.strip()
        if stripped.startswith(f"{step}."):
            just = line.split(";", 1)[1]
            lines.append(f"{step}. {formula} ;{just}")
        else:
            lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("step", sorted(MUTATIONS))
def test_derivation_mutations_rejected(step):
    verdict = check_proof(parse_proof(_mutate(step, MUTATIONS[step])))
    assert not verdict.ok
    assert verdict.step == step
    assert verdict.reason


def test_forward_reference_rejected():
    text = "system: ax-gen\n1. true ; taut\n2. X true ; gen-x 2\n"
    v = check_proof(parse_proof(text))
    assert not v.ok and v.step == 2


def test_mp_premise_order():
    text = (
        "system: ax-gen\n"
        "1. true ; taut\n"
        "2. true -> (true | p) ; taut\n"
        "3. true | p ; mp 1 2\n"
    )
    assert check_proof(parse_proof(text)).ok
    swapped = text.replace("mp 1 2", "mp 2 1")
    v = check_proof(parse_proof(swapped))
    assert not v.ok and v.step == 3


def test_abstract_rules_need_caret_system():
    text = "system: ax-gen\n1. true ; taut\n2. Xa true ; gen-xa 1\n"
    with pytest.raises(ProofFormatError):
        # Xa cannot even be parsed in an ltl-system script
        parse_proof(text)
    caret = "system: ax-cr\n1. true ; taut\n2. Xa true ; gen-xa 1\n"
    assert check_proof(parse_proof(caret)).ok


def test_abstract_rule_handbuilt_in_ltl_system_rejected():
    script = ProofScript(
        system="ax-gen",
        steps=(
            ProofStep(1, TRUE, Taut()),
            ProofStep(2, WeakNext(TRUE), GenNext(1)),
        ),
    )
    assert check_proof(script).ok
    from caretkit.proof import GenAbsNext
    from caretkit.syntax import AbsWeakNext

    bad = ProofScript(
        system="ax-gen",
        steps=(
            ProofStep(1, TRUE, Taut()),
            ProofStep(2, AbsWeakNext(TRUE), GenAbsNext(1)),
        ),
    )
    v = check_proof(bad)
    assert not v.ok and v.step == 2


# ---------------------------------------------------------------------------
# File format

def test_parse_proof_structure():
    script = parse_proof(DERIVATION)
    assert script.system == "ax-cr"
    assert len(script.steps) == 18
    assert script.steps[0].number == 1
    assert isinstance(script.steps[0].justification, AxiomInstance)
    assert isinstance(script.steps[2].justification, MP)
    assert script.steps[-1].formula == parse_formula(
        "!call & Xa false -> X ret", mode="caret"
    )


def test_parse_proof_errors():
    with pytest.raises(ProofFormatError):
        parse_proof("1. true ; taut\n")  # missing system line
    with pytest.raises(ProofFormatError):
        parse_proof("system: ax-zzz\n1. true ; taut\n")
    with pytest.raises(ProofFormatError):
        parse_proof("system: ax\n2. true ; taut\n1. true ; taut\n")
    with pytest.raises(ProofFormatError):
        parse_proof("system: ax\n1. true\n")  # no justification
    with pytest.raises(ProofFormatError):
        parse_proof("system: ax\n1. true ; zap\n")
    with pytest.raises(ProofFormatError):
        parse_proof("system: ax\n1. true ; mp one two\n")
    with pytest.raises(ProofFormatError):
        parse_proof("system: ax\n1. tr ue ; taut\n")


def test_parse_proof_comments_and_bindings():
    text = (
        "# leading comment\n"
        "system: ax-gen\n"
        "# another\n"
        "1. X p <-> (X false | N p) ; axiom T3' bind phi=p\n"
    )
    script = parse_proof(text)
    j = script.steps[0].justification
    assert isinstance(j, AxiomInstance) and j.schema == "T3'"
    assert check_proof(script).ok


def test_parse_proof_params_and_two_bindings():
    text = (
        "system: ax-cr\n"
        "1. call & X (int U (ret & q)) -> Na q ; axiom C5 n=0 bind phi=q\n"
        "2. (p U q) <-> (q | (p & N (p U q))) ; axiom G2 bind phi=p psi=q\n"
    )
    assert check_proof(parse_proof(text)).ok


# ---------------------------------------------------------------------------
# Soundness of accepted scripts against the evaluator and the decider

@settings(max_examples=60, deadline=None)
@given(st.one_of(finite_traces, lasso_traces))
def test_accepted_conclusions_hold_on_gen_traces(t):
    script = parse_proof(
        "system: ax-gen\n"
        "1. !true -> (!q & X !true) ; taut\n"
        "2. !true -> !(p U q) ; ind-u 1\n"
        "3. (p U q) <-> (q | (p & N (p U q))) ; axiom T2' bind phi=p psi=q\n"
    )
    assert check_proof(script).ok
    for step in script.steps:
        assert eval_everywhere(t, step.formula) is True


def test_accepted_conclusions_pass_decide_valid():
    pairs = [
        ("ax-inf", "inf", "1. !(X false) ; axiom Inf\n"),
        ("ax-fin", "fin", "1. F (X false) ; axiom Fin\n"),
        ("ax-gen", "gen", "1. X p <-> (X false | N p) ; axiom T3' bind phi=p\n"),
    ]
    for system, cls, line in pairs:
        script = parse_proof(f"system: {system}\n{line}")
        assert check_proof(script).ok
        for step in script.steps:
            assert decide_valid(step.formula, cls, closure_cap=None) is True
