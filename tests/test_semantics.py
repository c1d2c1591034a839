"""Evaluator clauses on finite, lasso, and structured traces."""

from __future__ import annotations

import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caretkit.semantics import EvalContext, EvalError, eval_caret, eval_everywhere, eval_ltl
from caretkit.syntax import (
    FALSE,
    TRUE,
    AbsUntil,
    AbsWeakNext,
    And,
    Not,
    Prop,
    Until,
    WeakNext,
    iff,
    lor,
    parse_formula,
    strong_next,
)
from caretkit.trace import (
    FiniteTrace,
    LassoTrace,
    StateTag,
    StructuredLassoTrace,
    abstract_successor,
    parse_trace,
)

from test_syntax import caret_formulas, ltl_formulas
from test_trace import finite_traces, lasso_traces, structured_lassos

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

C, R, I = StateTag.CALL, StateTag.RET, StateTag.INT
E = frozenset()
P1 = FiniteTrace((frozenset({"p"}),))


# ---------------------------------------------------------------------------
# Single state regressions.  Both formulas are textbook theorems over
# infinite time but fail on the one state trace, where the weak next of
# anything is vacuously true.

def test_single_state_trace_falsifies_until_unfolding():
    f = parse_formula((FIXTURES / "t2_instance_m1.ltl").read_text())
    assert eval_ltl(P1, 0, f) is False


def test_single_state_trace_falsifies_next_distribution():
    f = parse_formula((FIXTURES / "t3_instance_m1.ltl").read_text())
    assert eval_ltl(P1, 0, f) is False


def test_fixture_trace_file_matches_inline_m1():
    assert parse_trace((FIXTURES / "m1.trace").read_text()) == P1


def test_weak_next_false_marks_the_final_state():
    assert eval_ltl(P1, 0, WeakNext(FALSE)) is True
    t = FiniteTrace((E, E, frozenset({"p"})))
    for i in range(3):
        assert eval_ltl(t, i, WeakNext(FALSE)) is (i == 2)


def test_always_p_on_pure_p_loop():
    t = LassoTrace((), (frozenset({"p"}),))
    assert eval_ltl(t, 0, parse_formula("G p")) is True


# ---------------------------------------------------------------------------
# Clause identities, checked pointwise with hypothesis

@given(finite_traces, ltl_formulas, st.integers(0, 7))
def test_negation_clause_finite(t, f, i):
    i %= t.length
    assert eval_ltl(t, i, Not(f)) == (not eval_ltl(t, i, f))


@given(lasso_traces, ltl_formulas, ltl_formulas, st.integers(0, 9))
def test_conjunction_clause_lasso(t, f, g, i):
    assert eval_ltl(t, i, And(f, g)) == (eval_ltl(t, i, f) and eval_ltl(t, i, g))


@given(finite_traces, ltl_formulas, st.integers(0, 7))
def test_weak_next_clause_finite(t, f, i):
    # weak next: vacuously true at the final state, else steps right
    i %= t.length
    expect = True if i == t.length - 1 else eval_ltl(t, i + 1, f)
    assert eval_ltl(t, i, WeakNext(f)) == expect


@given(finite_traces, ltl_formulas, ltl_formulas, st.integers(0, 7))
def test_until_clause_finite_by_direct_scan(t, f, g, i):
    i %= t.length
    expect = False
    for j in range(i, t.length):
        if eval_ltl(t, j, g):
            expect = True
            break
        if not eval_ltl(t, j, f):
            break
    assert eval_ltl(t, i, Until(f, g)) == expect


@given(lasso_traces, ltl_formulas, ltl_formulas, st.integers(0, 9))
def test_until_unfolding_lasso(t, f, g, i):
    u = Until(f, g)
    unfolded = eval_ltl(t, i, g) or (eval_ltl(t, i, f) and eval_ltl(t, i, strong_next(u)))
    assert eval_ltl(t, i, u) == unfolded


@given(lasso_traces, ltl_formulas, st.integers(0, 9))
def test_weak_equals_strong_next_on_lassos(t, f, i):
    assert eval_ltl(t, i, WeakNext(f)) == eval_ltl(t, i, strong_next(f))


@given(lasso_traces, ltl_formulas, st.integers(0, 30))
def test_periodicity_on_lassos(t, f, i):
    assert eval_ltl(t, i, f) == eval_ltl(t, t.canonical(i), f)


@given(finite_traces, ltl_formulas)
def test_everywhere_finite(t, f):
    assert eval_everywhere(t, f) == all(eval_ltl(t, i, f) for i in range(t.length))


@given(lasso_traces, ltl_formulas)
def test_everywhere_lasso_covers_canonical_positions(t, f):
    n = t.prefix_len + t.loop_len
    assert eval_everywhere(t, f) == all(eval_ltl(t, i, f) for i in range(n))


# ---------------------------------------------------------------------------
# Structured traces

def test_abs_weak_next_holds_when_successor_undefined():
    t = StructuredLassoTrace(((E, I), (E, R)), ((E, I),))
    assert eval_caret(t, 0, AbsWeakNext(FALSE)) is True


def test_abs_next_jumps_over_the_body():
    t = StructuredLassoTrace(
        ((E, C), (E, I), (E, R)), ((frozenset({"p"}), I),)
    )
    f = parse_formula("Xa (X p)", mode="caret")
    assert eval_caret(t, 0, f) is True


def test_tags_act_as_propositions():
    t = StructuredLassoTrace(((E, I),), ((E, I),))
    assert eval_caret(t, 0, parse_formula("call | ret | int", mode="caret")) is True
    assert eval_caret(t, 0, Prop("int")) is True
    assert eval_caret(t, 0, Prop("call")) is False


def test_explicit_label_and_tag_both_satisfy():
    # a state labeled "ret" satisfies ret even when its tag is int
    t = StructuredLassoTrace(((frozenset({"ret"}), I),), ((E, I),))
    assert eval_caret(t, 0, Prop("ret")) is True


@given(structured_lassos, caret_formulas, st.integers(0, 9))
def test_abs_weak_next_clause(t, f, i):
    succ = abstract_successor(t, i)
    expect = True if succ is None else eval_caret(t, succ, f)
    assert eval_caret(t, i, AbsWeakNext(f)) == expect


def _walk_abs_until(t, i, f, g, limit=500):
    # literal walk along the abstract successor chain; 500 steps is far
    # beyond the eventual period of any <=10 state lasso
    pos = i
    for _ in range(limit):
        if eval_caret(t, pos, g):
            return True
        if not eval_caret(t, pos, f):
            return False
        pos = abstract_successor(t, pos)
        if pos is None:
            return False
    return False


@settings(max_examples=300)
@given(structured_lassos, caret_formulas, caret_formulas, st.integers(0, 9))
def test_abs_until_matches_literal_walk(t, f, g, i):
    assert eval_caret(t, i, AbsUntil(f, g)) == _walk_abs_until(t, i, f, g)


# ---------------------------------------------------------------------------
# Abstract operators against the literal fixpoint b | (a & strong abstract
# next u), iterated a round at a time from per-position abstract_successor
# calls: the reference for the one-walk evaluation of Ua.

def _strong_abs_next(t, v):
    out = 0
    for i in range(t.prefix_len + t.loop_len):
        j = abstract_successor(t, i)
        if j is not None and (v >> t.canonical(j)) & 1:
            out |= 1 << i
    return out


def _abs_until_fixpoint(t, a, b):
    u = b
    while True:
        nu = b | (a & _strong_abs_next(t, u))
        if nu == u:
            return u
        u = nu


_pq_states = st.tuples(st.frozensets(st.sampled_from(["p", "q"])),
                       st.sampled_from([C, R, I]))


@st.composite
def lassos_maybe_without_q_in_loop(draw):
    """Structured lassos of up to 24 states; in about half of them no loop
    state carries q, so `p Ua q` can only be met in the prefix."""
    prefix = draw(st.lists(_pq_states, max_size=12))
    loop = draw(st.lists(_pq_states, min_size=1, max_size=12))
    if draw(st.booleans()):
        loop = [(props - {"q"}, tag) for props, tag in loop]
    return StructuredLassoTrace(tuple(prefix), tuple(loop))


@settings(max_examples=400)
@given(lassos_maybe_without_q_in_loop(), caret_formulas, caret_formulas)
def test_abs_operators_match_per_position_fixpoint(t, f, g):
    ctx = EvalContext(t)
    for left, right in ((Prop("p"), Prop("q")), (f, g)):
        a, b = ctx.truth_mask(left), ctx.truth_mask(right)
        assert ctx.truth_mask(AbsUntil(left, right)) == _abs_until_fixpoint(t, a, b)
    v = ctx.truth_mask(f)
    weak = ctx.truth_mask(AbsWeakNext(f))
    for i in range(ctx.n):
        j = abstract_successor(t, i)
        expect = j is None or bool((v >> t.canonical(j)) & 1)
        assert bool((weak >> i) & 1) == expect


def test_abs_until_chain_ending_undefined():
    # 0 -> 1 -> 2, and 2 sits before a ret: the chain from 0 runs into None
    t = StructuredLassoTrace(
        ((frozenset({"p"}), I), (frozenset({"p"}), I), (frozenset({"p"}), I),
         (E, R)),
        ((frozenset({"q"}), I),),
    )
    ctx = EvalContext(t)
    f = AbsUntil(Prop("p"), Prop("q"))
    assert ctx.truth_mask(f) == 0b10000
    assert ctx.truth_mask(f) == _abs_until_fixpoint(t, 0b111, 0b10000)


# ---------------------------------------------------------------------------
# Scale: the abstract operators are linear in the trace length.  One
# matching-return scan per position took 63 s for the map alone at 20,000
# states of the call-heavy lasso below (Python 3.11, shared 2-vCPU box);
# the stack pass takes about 0.06 s at 100,000.

def _call_heavy_lasso(n):
    tags = (C, I, C, R, I)
    states = [(frozenset({"p"} if k % 3 else {"q"}), tags[k % 5])
              for k in range(n)]
    return StructuredLassoTrace(tuple(states[:n // 4]), tuple(states[n // 4:]))


@pytest.mark.parametrize("text, trace", [
    ("Ga (p | Xa q)", "call-heavy"),
    ("p Ua q", "call-heavy"),
    ("Fa r", "all-int"),
])
def test_caret_eval_scales_to_100k_states(text, trace):
    n = 100_000
    if trace == "call-heavy":
        t = _call_heavy_lasso(n)
    else:
        t = StructuredLassoTrace(((E, I),) * (n // 4), ((E, I),) * (n - n // 4))
    f = parse_formula(text, mode="caret")
    start = time.perf_counter()
    mask = EvalContext(t).truth_mask(f)
    assert time.perf_counter() - start < 10.0
    assert 0 <= mask < 1 << n
    if trace == "all-int":
        assert mask == 0  # r holds nowhere


@given(structured_lassos, caret_formulas, st.integers(0, 20))
def test_periodicity_structured(t, f, i):
    assert eval_caret(t, i, f) == eval_caret(t, t.canonical(i), f)


# ---------------------------------------------------------------------------
# Class separating formulas

@given(lasso_traces, st.integers(0, 9))
def test_infinite_marker_on_lassos(t, i):
    assert eval_ltl(t, i, Not(WeakNext(FALSE))) is True


@given(finite_traces)
def test_infinite_marker_fails_at_final_state(t):
    assert eval_ltl(t, t.length - 1, Not(WeakNext(FALSE))) is False
    assert eval_everywhere(t, Not(WeakNext(FALSE))) is False


@given(finite_traces, st.integers(0, 7))
def test_finiteness_marker_on_finite_traces(t, i):
    i %= t.length
    assert eval_ltl(t, i, Until(TRUE, WeakNext(FALSE))) is True


@settings(max_examples=150)
@given(
    st.one_of(finite_traces, lasso_traces),
    ltl_formulas,
    ltl_formulas,
)
def test_until_unfolding_axiom_is_everywhere_true(t, f, g):
    # (f U g) <-> (g | (f & N (f U g))) holds on every class
    u = Until(f, g)
    unf = iff(u, lor(g, And(f, strong_next(u))))
    assert eval_everywhere(t, unf) is True


# ---------------------------------------------------------------------------
# Error handling

def test_position_errors():
    with pytest.raises(EvalError):
        eval_ltl(P1, 1, TRUE)
    with pytest.raises(EvalError):
        eval_ltl(P1, -1, TRUE)
    with pytest.raises(EvalError):
        eval_ltl(LassoTrace((), (E,)), -3, TRUE)


def test_mode_errors():
    with pytest.raises(EvalError):
        eval_ltl(P1, 0, AbsWeakNext(TRUE))
    t = StructuredLassoTrace(((E, I),), ((E, I),))
    with pytest.raises(EvalError):
        eval_ltl(t, 0, TRUE)
    with pytest.raises(EvalError):
        eval_caret(P1, 0, TRUE)


def test_context_memoization_is_consistent():
    t = LassoTrace((E,), (frozenset({"p"}), E))
    ctx = EvalContext(t)
    f = parse_formula("p U X p")
    first = [ctx.holds(f, i) for i in range(3)]
    second = [ctx.holds(f, i) for i in range(3)]
    assert first == second == [eval_ltl(t, i, f) for i in range(3)]
