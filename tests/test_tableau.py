"""Atom graphs and the satisfiability decision, against brute oracles."""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from caretkit.proof import build_schema_instance
from caretkit.semantics import eval_ltl
from caretkit.syntax import (
    FALSE,
    TRUE,
    And,
    Not,
    Prop,
    Until,
    WeakNext,
    closure,
    negate,
    parse_formula,
    props_of,
)
from caretkit.tableau import (
    CLASSES,
    MAX_FREE_BITS,
    Atom,
    ClosureCapError,
    brute_force_sat,
    build_atom_graph,
    decide_sat,
    decide_valid,
    enumerate_atoms,
    extract_model,
)
from caretkit.tableau import _ClassGraph, _Tableau
from caretkit.trace import FiniteTrace, LassoTrace

from exhaustive_oracle import enumerate_formulas
from test_syntax import ltl_formulas

TERMINAL = WeakNext(FALSE)
FIN_MARK = Until(TRUE, TERMINAL)


# ---------------------------------------------------------------------------
# Independent atom oracle.  Enumerates truth assignments over the stripped
# bases of the closure and keeps those passing a second transcription of the
# local consistency rules; nothing here shares code with the tableau.

def _strip(f):
    parity = 0
    while isinstance(f, Not):
        f, parity = f.operand, parity ^ 1
    return f, parity


def brute_atoms(clo, cls):
    bases = sorted(
        {_strip(m)[0] for m in clo.members}, key=lambda f: (id(type(f)), repr(f))
    )
    nexts = [b for b in bases if isinstance(b, WeakNext)]
    out = set()
    for bits in itertools.product((False, True), repeat=len(bases)):
        v = dict(zip(bases, bits))

        def val(f):
            base, parity = _strip(f)
            return v[base] ^ bool(parity)

        if not v[TRUE]:
            continue
        if any(v[b] != (val(b.left) and val(b.right)) for b in bases if isinstance(b, And)):
            continue
        if any(
            v[b] != (val(b.right) or (val(b.left) and not val(WeakNext(Not(b)))))
            for b in bases
            if isinstance(b, Until)
        ):
            continue
        if val(TERMINAL) and not all(v[w] for w in nexts):
            continue
        if cls == "fin" and not val(FIN_MARK):
            continue
        if cls == "inf" and val(TERMINAL):
            continue
        out.add(frozenset(m for m in clo.members if val(m)))
    return out


@pytest.mark.parametrize("text", ["p", "p U q", "X p & !q"])
@pytest.mark.parametrize("cls", CLASSES)
def test_atoms_match_brute_subset_filter(text, cls):
    clo = closure(parse_formula(text))
    atoms = enumerate_atoms(clo, cls, closure_cap=None)
    assert {a.members for a in atoms} == brute_atoms(clo, cls)


def test_atom_counts_for_p_frozen():
    # counts confirmed by the brute filter above
    clo = closure(Prop("p"))
    assert len(enumerate_atoms(clo, "gen")) == 18
    assert len(enumerate_atoms(clo, "fin")) == 10
    assert len(enumerate_atoms(clo, "inf")) == 16


@pytest.mark.parametrize("cls", CLASSES)
def test_atom_invariants(cls):
    clo = closure(parse_formula("p U q"))
    for atom in enumerate_atoms(clo, cls, closure_cap=None):
        s = atom.members
        # maximality with consistent signs
        for m in clo.core:
            assert (m in s) != (negate(m) in s)
        assert TRUE in s
        assert atom.terminal == (TERMINAL in s)
        assert atom.fin_viable == (FIN_MARK in s)
        assert atom.props == {m.name for m in s if isinstance(m, Prop)}
        if cls == "fin":
            assert FIN_MARK in s
        if cls == "inf":
            assert TERMINAL not in s
        # terminal discharge: a final state satisfies an until only via
        # its right argument
        if TERMINAL in s:
            for m in s:
                if isinstance(m, Until):
                    assert m.right in s


def test_terminal_discharge_exact():
    clo = closure(parse_formula("p U q"))
    for atom in enumerate_atoms(clo, "fin"):
        if atom.terminal:
            for m in atom.members:
                if isinstance(m, Until):
                    assert m.right in atom.members


def test_atom_enumeration_deterministic():
    clo = closure(parse_formula("(p U q) | X p"))
    a = enumerate_atoms(clo, "gen", closure_cap=None)
    b = enumerate_atoms(clo, "gen", closure_cap=None)
    assert a == b


# ---------------------------------------------------------------------------
# Graph structure

@pytest.mark.parametrize("text", ["p", "p U q"])
@pytest.mark.parametrize("cls", CLASSES)
def test_edge_law(text, cls):
    clo = closure(parse_formula(text))
    graph = build_atom_graph(clo, cls)
    nexts = [m for m in clo.members if isinstance(m, WeakNext)]
    for vi, v in enumerate(graph.nodes):
        succ = set(graph.successors[vi])
        for wi, w in enumerate(graph.nodes):
            lawful = not v.terminal and all(
                (nx in v.members) == _holds_in(nx.operand, w.members)
                for nx in nexts
            )
            assert (wi in succ) == lawful


def _holds_in(f, members):
    # truth of a closure member inside an atom, via sign stripping
    base, parity = _strip(f)
    return (base in members) ^ bool(parity)


@pytest.mark.parametrize("cls", CLASSES)
def test_out_degrees(cls):
    graph = build_atom_graph(closure(parse_formula("p U q")), cls)
    for vi, v in enumerate(graph.nodes):
        if v.terminal:
            assert graph.successors[vi] == ()
        else:
            assert len(graph.successors[vi]) >= 1


def test_pruned_graph_sizes_for_p_frozen():
    # survivors of the no-dead-end fixpoint, computed by hand: a live
    # non-terminal atom must assert the next of true and decide the next
    # of the finiteness until consistently
    clo = closure(Prop("p"))
    sizes = {cls: len(build_atom_graph(clo, cls).nodes) for cls in CLASSES}
    assert sizes == {"gen": 6, "fin": 4, "inf": 4}
    degrees = sorted(len(s) for s in build_atom_graph(clo, "gen").successors)
    assert degrees == [0, 0, 2, 2, 4, 4]


# ---------------------------------------------------------------------------
# Decision procedure: goldens from hand analysis

def test_next_false_unsat_on_infinite():
    assert decide_sat(TERMINAL, "inf").satisfiable is False


def test_next_false_sat_on_finite_with_length_one_witness():
    res = decide_sat(TERMINAL, "fin")
    assert res.satisfiable
    assert isinstance(res.model, FiniteTrace) and res.model.length == 1


def test_never_terminal_unsat_on_finite():
    assert decide_sat(Not(FIN_MARK), "fin").satisfiable is False


def test_until_false_unsat():
    assert decide_sat(Until(Prop("p"), FALSE), "gen").satisfiable is False


def test_always_p_and_eventually_not_p_unsat():
    f = parse_formula("G p & F !p")
    assert decide_sat(f, "gen").satisfiable is False


def test_contradiction_unsat_everywhere():
    f = And(Prop("p"), Not(Prop("p")))
    for cls in CLASSES:
        assert decide_sat(f, cls).satisfiable is False


def test_validity_goldens():
    assert decide_valid(parse_formula("X !p -> !X p"), "inf") is True
    assert decide_valid(parse_formula("X !p -> !X p"), "fin") is False
    assert decide_valid(parse_formula("F (X false)"), "fin") is True
    assert decide_valid(parse_formula("!(X false)"), "inf") is True
    u = parse_formula("(p U q) <-> (q | (p & N (p U q)))")
    assert decide_valid(u, "gen", closure_cap=None) is True


def test_eventually_p_infinite_witness():
    res = decide_sat(parse_formula("F p"), "inf")
    assert res.satisfiable and isinstance(res.model, LassoTrace)
    n = res.model.prefix_len + res.model.loop_len
    assert any("p" in res.model.props_at(i) for i in range(n))
    assert eval_ltl(res.model, 0, parse_formula("F p")) is True


# ---------------------------------------------------------------------------
# Properties: witness soundness, truth lemma, class decomposition, brute
# agreement

@settings(max_examples=250, deadline=None)
@given(ltl_formulas, st.sampled_from(CLASSES))
def test_witness_soundness_and_class_shape(f, cls):
    res = decide_sat(f, cls, closure_cap=None)
    if not res.satisfiable:
        assert res.model is None and res.witness is None
        return
    assert res.model is not None
    if cls == "fin":
        assert isinstance(res.model, FiniteTrace)
    elif cls == "inf":
        assert isinstance(res.model, LassoTrace)
    assert eval_ltl(res.model, 0, f) is True


@settings(max_examples=150, deadline=None)
@given(ltl_formulas, st.sampled_from(CLASSES))
def test_truth_lemma_along_witness(f, cls):
    res = decide_sat(f, cls, closure_cap=None)
    if not res.satisfiable:
        return
    chain = res.witness.atoms + res.witness.loop
    for i, atom in enumerate(chain):
        for m in atom.members:
            assert eval_ltl(res.model, i, m) is True


@settings(max_examples=200, deadline=None)
@given(ltl_formulas)
def test_class_decomposition(f):
    g = decide_sat(f, "gen", closure_cap=None).satisfiable
    parts = (
        decide_sat(f, "fin", closure_cap=None).satisfiable
        or decide_sat(f, "inf", closure_cap=None).satisfiable
    )
    assert g == parts


@settings(max_examples=150, deadline=None)
@given(ltl_formulas, st.sampled_from(CLASSES))
def test_brute_force_agreement(f, cls):
    # the strategy draws from four letters; the oracle refuses more than three
    assume(len(props_of(f)) <= 3)
    verdict = decide_sat(f, cls, closure_cap=None).satisfiable
    brute = brute_force_sat(f, cls, 4)
    if brute == "satisfiable":
        assert verdict
    if not verdict:
        assert brute == "unsatisfiable-up-to-bound"


def test_brute_force_goldens():
    assert brute_force_sat(parse_formula("p & X !p"), "gen", 4) == "satisfiable"
    assert brute_force_sat(TERMINAL, "inf", 6) == "unsatisfiable-up-to-bound"


def test_brute_force_preconditions():
    four = parse_formula("a & b & c & d")
    with pytest.raises(ValueError):
        brute_force_sat(four, "gen", 4)
    with pytest.raises(ValueError):
        brute_force_sat(Prop("p"), "gen", 11)


# ---------------------------------------------------------------------------
# Extraction and determinism

def test_extract_model_single_terminal_atom():
    res = decide_sat(And(Prop("p"), TERMINAL), "fin")
    assert res.satisfiable
    assert res.model == FiniteTrace((frozenset({"p"}),))
    assert extract_model(res.witness) == res.model


def test_witness_deterministic():
    f = parse_formula("(p U q) & X X p")
    for cls in CLASSES:
        a = decide_sat(f, cls, closure_cap=None)
        b = decide_sat(f, cls, closure_cap=None)
        assert a.model == b.model


def test_gen_prefers_finite_witness():
    res = decide_sat(Prop("p"), "gen")
    assert isinstance(res.model, FiniteTrace)


# ---------------------------------------------------------------------------
# Caps

def test_default_cap_aborts_large_closures():
    f = parse_formula("G (p -> F q)")
    with pytest.raises(ClosureCapError):
        decide_sat(f, "gen")
    assert decide_sat(f, "gen", closure_cap=None).satisfiable


def test_cap_value_respected():
    clo = closure(Prop("p"))
    assert len(clo.members) == 14
    with pytest.raises(ClosureCapError):
        enumerate_atoms(clo, "gen", closure_cap=13)
    enumerate_atoms(clo, "gen", closure_cap=14)


def test_free_bit_guard_is_absolute():
    # 19 propositions plus the weak-next bases exceed the enumeration width
    assert MAX_FREE_BITS == 18
    f = parse_formula(" & ".join(f"x{i}" for i in range(19)))
    with pytest.raises(ClosureCapError) as err:
        decide_sat(f, "gen", closure_cap=None)
    message = str(err.value)
    assert "needs 23 free bits" in message
    assert "limit is 18" in message and "--cap" in message


def test_caret_closures_rejected():
    clo = closure(parse_formula("Xa p", mode="caret"), "caret")
    with pytest.raises(ValueError):
        enumerate_atoms(clo, "gen")
    with pytest.raises(ValueError):
        decide_sat(parse_formula("p Ua q", mode="caret"), "gen")


# ---------------------------------------------------------------------------
# Fixed-width keys against the packing they replaced.  The reference packs
# bool rows with packbits and int.from_bytes (any width, first column most
# significant, zero-padded to whole bytes), orders atoms by that integer and
# prunes round by round with buckets keyed by it.

def _pack_rows(matrix):
    if matrix.shape[1] == 0:
        return [0] * matrix.shape[0]
    packed = np.packbits(matrix, axis=1)
    return [int.from_bytes(row.tobytes(), "big") for row in packed]


def _check_against_packing(tab):
    row = dict(zip(tab.core, tab.member_rows))

    def packed(fs):
        cols = np.stack([row[f] for f in fs], axis=1) if fs else \
            np.zeros((tab.count, 0), dtype=bool)
        pad = -len(fs) % 8
        return [v >> pad for v in _pack_rows(cols)]

    order = _pack_rows(np.array(tab.member_rows).T)
    assert order == sorted(set(order))

    nexts = [m for m in tab.core if type(m) is WeakNext]
    untils = [m for m in tab.core if type(m) is Until]
    demand = packed(nexts)
    signature = packed([n.operand for n in nexts])
    assert tab.demand.tolist() == demand
    assert tab.signature.tolist() == signature
    assert tab.until_present.tolist() == packed(untils)
    assert tab.until_fulfill.tolist() == packed([u.right for u in untils])

    terminal = row[TERMINAL].tolist()
    in_class = {"gen": [True] * tab.count, "fin": row[FIN_MARK].tolist(),
                "inf": [not t for t in terminal]}
    for cls, admitted in in_class.items():
        alive = {a for a in range(tab.count) if admitted[a]}
        while True:
            size = Counter(signature[a] for a in alive)
            dead = {a for a in alive if not terminal[a] and size[demand[a]] == 0}
            if not dead:
                break
            alive -= dead
        members = {}
        for a in sorted(alive):
            members.setdefault(signature[a], []).append(a)

        g = _ClassGraph(tab, cls)
        assert g.live_ids.tolist() == sorted(alive)
        key_of = {}
        for a in alive:
            s = g.next_bucket[a]
            if terminal[a]:
                assert s == -1
            elif s in key_of:
                assert key_of[s] == demand[a]
            else:
                key_of[s] = demand[a]
                assert g.bucket(s) == members[demand[a]]
        assert len(set(key_of.values())) == len(key_of)


def test_keys_and_buckets_match_packing_small_formulas():
    by_size = enumerate_formulas(5)
    for f in (g for n in sorted(by_size) for g in by_size[n]):
        _check_against_packing(_Tableau(closure(f), None))


@pytest.mark.parametrize("name, bindings", [
    ("T1", {"phi": "X p", "psi": "X (q U p)"}),
    ("T2", {"phi": "X (p U q)", "psi": "X X r & (q U p)"}),
    ("T3", {"phi": "(p U X q) & X X (r U p)"}),
    ("T1", {"phi": "G (p -> X q)", "psi": "X (r U s)"}),
])
def test_keys_and_buckets_match_packing_axiom_instances(name, bindings):
    f = build_schema_instance(
        name, {}, {k: parse_formula(v) for k, v in bindings.items()})
    tab = _Tableau(closure(Not(f)), None)
    assert 12 <= len(tab.props) + sum(type(m) is WeakNext for m in tab.core) <= 16
    _check_against_packing(tab)
