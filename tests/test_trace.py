"""Trace model: matching returns, abstract successors, text format round-trip."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caretkit.semantics import EvalContext, EvalError, eval_ltl
from caretkit.syntax import TRUE, AbsWeakNext
from caretkit.trace import (
    INCONCLUSIVE,
    FiniteTrace,
    LassoTrace,
    StateTag,
    StructuredLassoTrace,
    TraceFormatError,
    _return_pass,
    abstract_successor,
    abstract_successor_map,
    brute_matching_return,
    canonical_position,
    matching_return,
    parse_trace,
    trace_to_text,
)

C, R, I = StateTag.CALL, StateTag.RET, StateTag.INT
E = frozenset()


def struct(prefix, loop):
    return StructuredLassoTrace(
        tuple((E, t) for t in prefix), tuple((E, t) for t in loop)
    )


# ---------------------------------------------------------------------------
# Strategies

_labels = st.frozensets(st.sampled_from(["p", "q"]), max_size=2)
_states = st.tuples(_labels, st.sampled_from([C, R, I]))

finite_traces = st.builds(
    FiniteTrace, st.lists(_labels, min_size=1, max_size=8).map(tuple)
)
lasso_traces = st.builds(
    LassoTrace,
    st.lists(_labels, max_size=5).map(tuple),
    st.lists(_labels, min_size=1, max_size=5).map(tuple),
)
structured_lassos = st.builds(
    StructuredLassoTrace,
    st.lists(_states, max_size=5).map(tuple),
    st.lists(_states, min_size=1, max_size=5).map(tuple),
)


# ---------------------------------------------------------------------------
# Matching returns

def test_matching_return_basic():
    t = struct([I, C, I, R], [I])
    assert matching_return(t, 1) == 3


def test_matching_return_diverging_calls():
    # balance climbs forever, no unmatched ret ever shows up
    t = struct([C], [C])
    assert matching_return(t, 0) is None
    assert brute_matching_return(t, 0, 100) == INCONCLUSIVE


def test_matching_return_no_rets_at_all():
    t = struct([I], [I])
    assert matching_return(t, 0) is None


def test_matching_return_nested():
    # call at 0 matched by the outermost ret
    t = struct([C, C, R, R], [I])
    assert matching_return(t, 0) == 3
    assert matching_return(t, 1) == 2


def test_matching_return_reaches_into_loop():
    t = struct([C, I], [I, R])
    assert matching_return(t, 0) == 3


def test_negative_position_rejected():
    t = struct([I], [I])
    with pytest.raises(IndexError):
        matching_return(t, -1)
    with pytest.raises(IndexError):
        brute_matching_return(t, -2, 10)


@settings(max_examples=400)
@given(structured_lassos, st.integers(0, 12))
def test_matching_return_agrees_with_brute_scan(t, i):
    clever = matching_return(t, i)
    brute = brute_matching_return(t, i, 1000)
    if brute == INCONCLUSIVE:
        # 1000 steps over a <=10 state lasso is far past every candidate
        assert clever is None
    else:
        assert clever == brute


@settings(max_examples=300)
@given(structured_lassos, st.integers(0, 8))
def test_matching_return_periodicity(t, i):
    i += t.prefix_len
    a = matching_return(t, i)
    b = matching_return(t, i + t.loop_len)
    if a is None:
        assert b is None
    else:
        assert b == a + t.loop_len


# ---------------------------------------------------------------------------
# Abstract successor

def test_abstract_successor_cases():
    t = struct([I, C, I, R], [I])
    assert abstract_successor(t, 1) == 3  # call: jump to matching return
    assert abstract_successor(t, 2) is None  # next state is a ret
    u = struct([I], [I])
    assert abstract_successor(u, 5) == 6  # internal run: plain step


def test_abstract_successor_unmatched_call():
    t = struct([C], [C])
    assert abstract_successor(t, 0) is None


@settings(max_examples=300)
@given(structured_lassos, st.integers(0, 10))
def test_abstract_successor_case_split(t, i):
    got = abstract_successor(t, i)
    if t.tag_at(i) is C:
        assert got == matching_return(t, i)
    elif t.tag_at(i + 1) is R:
        assert got is None
    else:
        assert got == i + 1


@settings(max_examples=300)
@given(structured_lassos, st.integers(0, 8))
def test_abstract_successor_periodicity(t, i):
    i += t.prefix_len
    a = abstract_successor(t, i)
    b = abstract_successor(t, i + t.loop_len)
    if a is None:
        assert b is None
    else:
        assert b == a + t.loop_len


# ---------------------------------------------------------------------------
# Abstract successor map: one stack pass against the per-position scans

_tags = st.sampled_from([C, R, I])


@st.composite
def lassos_with_loop_balance(draw, sign):
    """Structured lassos whose loop has net call/return balance of the given
    sign, optionally ending in a call; rets or calls are inserted before
    the last loop state until the sign is right."""
    prefix = draw(st.lists(_tags, max_size=10))
    loop = draw(st.lists(_tags, min_size=1, max_size=10))
    if draw(st.booleans()):
        loop[-1] = C
    net = loop.count(C) - loop.count(R)
    want = {-1: min(net, -1), 0: 0, 1: max(net, 1)}[sign]
    while net != want:
        at = draw(st.integers(0, len(loop) - 1))
        loop.insert(at, R if net > want else C)
        net += -1 if net > want else 1
    return struct(prefix, loop)


def _check_map_against_scans(t):
    got = abstract_successor_map(t)
    assert len(got) == t.prefix_len + t.loop_len
    for c, j in enumerate(got):
        slow = abstract_successor(t, c)
        assert j == (None if slow is None else t.canonical(slow)), (t, c)
        if t.tag_at(c) is C:
            # no match here lies more than 12 loop copies out, far
            # inside 1000 steps
            br = brute_matching_return(t, c, 1000)
            assert j == (None if br == INCONCLUSIVE else t.canonical(br)), (t, c)


@pytest.mark.parametrize("sign", [-1, 0, 1])
@settings(max_examples=300)
@given(data=st.data())
def test_abstract_successor_map_matches_scans(sign, data):
    _check_map_against_scans(data.draw(lassos_with_loop_balance(sign)))


@pytest.mark.parametrize("prefix, loop", [
    ([C, C, C], [I]),                       # prefix-only calls, never matched
    ([C, C, C, C, C], [R, R, C]),           # d=2 > u=1: prefix calls later
    ([C, C, I, C, C, C, C], [R, R, R, C]),  # d=3 > u=1: two entries a copy
    ([C], [C, R, R, C]),                    # d=u=1, call at the last state
    ([], [C, I, C, R, I]),                  # positive balance
    ([C, C], [R, C, C]),                    # d=1 < u=2
])
def test_abstract_successor_map_examples(prefix, loop):
    _check_map_against_scans(struct(prefix, loop))


@pytest.mark.parametrize("sign", [-1, 0, 1])
@settings(max_examples=300)
@given(data=st.data())
def test_return_distances_match_brute_scan_everywhere(sign, data):
    # every canonical position, whatever its tag, and its copy one loop
    # on, where matching_return reads the same distance
    t = data.draw(lassos_with_loop_balance(sign))
    dist = _return_pass(t)[0]
    for c, d in enumerate(dist):
        br = brute_matching_return(t, c, 1000)
        assert d == (None if br == INCONCLUSIVE else br - c), (t, c)
        if c >= t.prefix_len:
            i = c + t.loop_len
            br = brute_matching_return(t, i, 1000)
            assert matching_return(t, i) == (
                None if br == INCONCLUSIVE else br), (t, i)


@pytest.mark.parametrize("t", [
    LassoTrace([{"p", "q"}], [{"p", "q"}, {"p", "q"}]),
    LassoTrace((), (E,)),
    FiniteTrace((E, E)),
    ((E, C),),
])
def test_call_return_functions_need_a_structured_lasso(t):
    # a plain lasso once got a silent map [1, 2, 1] from
    # abstract_successor_map, and AttributeErrors or unpacking errors from
    # the other two
    name = type(t).__name__
    for call in (lambda: matching_return(t, 0),
                 lambda: abstract_successor(t, 0),
                 lambda: abstract_successor_map(t)):
        with pytest.raises(TypeError, match=f"not a structured lasso: {name}$"):
            call()


def test_queries_on_one_trace_share_one_return_pass():
    # the pass is kept by the trace: queries read the one result, which a
    # second pass would have replaced
    t = struct([C, I], [C, R, R, I])
    kept = _return_pass(t)
    assert matching_return(t, 0) == brute_matching_return(t, 0, 100)
    assert abstract_successor(t, 2) == brute_matching_return(t, 2, 100)
    assert EvalContext(t).holds(AbsWeakNext(TRUE), 0)
    assert abstract_successor_map(t) is kept[1]
    assert _return_pass(t) is kept
    # kept by identity, not by the trace's O(n) hash: an equal trace is
    # another object, with its own pass
    u = struct([C, I], [C, R, R, I])
    assert _return_pass(u) == kept and _return_pass(u) is not kept
    # tuples, so that no caller can change what is kept
    assert all(type(x) is tuple for x in kept)


# ---------------------------------------------------------------------------
# Canonical positions

def test_canonical_position_goldens():
    t = LassoTrace((E, E), (E, E, E))
    assert canonical_position(t, 8) == 2
    assert canonical_position(t, 1) == 1
    u = LassoTrace((), (E,))
    assert canonical_position(u, 7) == 0


@given(lasso_traces, st.integers(0, 50))
def test_canonical_position_is_idempotent_and_stable(t, i):
    c = canonical_position(t, i)
    assert canonical_position(t, c) == c
    assert t.props_at(i) == t.props_at(c)


# ---------------------------------------------------------------------------
# Construction guards

def test_empty_traces_rejected():
    with pytest.raises(ValueError):
        FiniteTrace(())
    with pytest.raises(ValueError):
        LassoTrace((E,), ())
    with pytest.raises(ValueError):
        StructuredLassoTrace(((E, C),), ())


def test_traces_carry_no_instance_dict():
    # kept models are many; slots keep each one at its fields
    # and they are frozen: no field can be assigned or deleted
    for t in (FiniteTrace((E,)), LassoTrace((E,), (E,)), struct((C,), (I,))):
        assert not hasattr(t, "__dict__")
        for name in ("prefix", "loop"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, ())
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(t, name)


def test_trace_types_are_distinct_siblings():
    # one shape, three types: none is an instance of another, and traces of
    # different types are never equal
    types = (FiniteTrace, LassoTrace, StructuredLassoTrace)
    traces = (FiniteTrace((E,)), LassoTrace((), (E,)), struct((), (I,)))
    for t in traces:
        for cls in types:
            assert isinstance(t, cls) == (type(t) is cls)
        for u in traces:
            assert (t == u) == (t is u)


def test_finite_trace_positions_past_the_end_raise():
    t = FiniteTrace((E, frozenset({"p"})))
    assert t.canonical(1) == 1 and t.props_at(1) == {"p"}
    for i in (2, 7, -1):
        with pytest.raises(IndexError):
            t.canonical(i)
        with pytest.raises(IndexError):
            t.props_at(i)
    with pytest.raises(EvalError, match="position 2 outside finite trace of length 2"):
        eval_ltl(t, 2, TRUE)


# ---------------------------------------------------------------------------
# Text format

def test_parse_finite_trace():
    t = parse_trace("p q\n-\np\n")
    assert t == FiniteTrace((frozenset({"p", "q"}), E, frozenset({"p"})))


def test_parse_lasso_trace():
    t = parse_trace("# a comment\np\nloop:\n-\nq\n")
    assert t == LassoTrace(
        (frozenset({"p"}),), (E, frozenset({"q"}))
    )


def test_parse_structured_trace():
    t = parse_trace("@call p\n@int -\nloop:\n@ret q\n")
    assert t == StructuredLassoTrace(
        ((frozenset({"p"}), C), (E, I)), ((frozenset({"q"}), R),)
    )


def test_format_errors():
    with pytest.raises(TraceFormatError):
        parse_trace("")
    with pytest.raises(TraceFormatError):
        parse_trace("p\nloop:\n")  # empty loop
    with pytest.raises(TraceFormatError):
        parse_trace("p\nloop:\nq\nloop:\nr\n")  # two loop markers
    with pytest.raises(TraceFormatError):
        parse_trace("@call p\n")  # structured traces must have a loop
    with pytest.raises(TraceFormatError):
        parse_trace("@call p\nq\nloop:\n@int -\n")  # tags are all or nothing
    with pytest.raises(TraceFormatError):
        parse_trace("@jump p\nloop:\n@int -\n")  # unknown tag
    with pytest.raises(TraceFormatError):
        parse_trace("P\n")  # uppercase identifier
    with pytest.raises(TraceFormatError):
        parse_trace("p 9x\n")


def test_empty_prefix_lasso_parses():
    t = parse_trace("loop:\np\n")
    assert t == LassoTrace((), (frozenset({"p"}),))


@given(finite_traces)
def test_roundtrip_finite(t):
    assert parse_trace(trace_to_text(t)) == t


@given(lasso_traces)
def test_roundtrip_lasso(t):
    assert parse_trace(trace_to_text(t)) == t


@given(structured_lassos)
def test_roundtrip_structured(t):
    assert parse_trace(trace_to_text(t)) == t
