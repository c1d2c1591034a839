"""Atom graphs and the satisfiability decision, against brute oracles."""

from __future__ import annotations

import gc
import hashlib
import itertools
import random
import sys
import weakref
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from caretkit import fuzz, syntax
from caretkit.fuzz import GenConfig, gen_formula
from caretkit.proof import build_schema_instance
from caretkit.semantics import EvalContext, eval_ltl
from caretkit.syntax import (
    FALSE,
    TRUE,
    And,
    Formula,
    Not,
    Prop,
    Until,
    WeakNext,
    closure,
    lor,
    negate,
    parse_formula,
    print_formula,
    props_of,
    strong_next,
)
from caretkit.tableau import (
    CLASSES,
    MAX_FREE_BITS,
    Atom,
    ChainWitness,
    ClosureCapError,
    SatResult,
    brute_force_sat,
    build_atom_graph,
    decide_sat,
    decide_valid,
    enumerate_atoms,
    extract_model,
)
from caretkit import tableau
from caretkit.tableau import _Table
from caretkit.trace import FiniteTrace, LassoTrace, trace_to_text

from exhaustive_oracle import enumerate_formulas
from test_syntax import ltl_formulas


def replace(record, **changes):
    """The record with the named fields changed, as dataclasses.replace
    changes a dataclass."""
    fields = dict(zip(record._fields, record._values()))
    return type(record)(**{**fields, **changes})


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
# Keys and buckets against the packing they replaced.  The reference packs
# bool rows with packbits and int.from_bytes (any width, first column most
# significant, zero-padded to whole bytes), orders atoms by that integer and
# prunes round by round with buckets keyed by it.  The reference numbers the
# valid atoms in order and the table by their valuations, so they are
# compared by their member bits.

def _pack_rows(matrix):
    if matrix.shape[1] == 0:
        return [0] * matrix.shape[0]
    packed = np.packbits(matrix, axis=1)
    return [int.from_bytes(row.tobytes(), "big") for row in packed]


def _bool_row(r, width):
    """An int row as a bool array, entry a its bit a, read off its binary
    digits."""
    return np.frombuffer(format(r, f"0{width}b")[::-1].encode(),
                         dtype=np.uint8) == ord("1")


def _member_bits(tab, a):
    """Atom a's member bits in core order, the lexicographic order's keys;
    the table's rows follow the closure's walk."""
    rows = tab.member_rows
    return tuple(rows[i] >> a & 1 for i in tab._order())


def _until_keys(tab, ids):
    """One bit per until for each atom, the first until most significant,
    set where the atom holds the until (present) or its right operand
    (fulfill), read from the member rows."""
    rows = tab.member_rows
    present = [rows[u] for u in tab.untils]
    fulfill = [rows[tab.sigs[u][2]] for u in tab.untils]

    def key(picked, a):
        k = 0
        for r in picked:
            k = k << 1 | r >> a & 1
        return k

    return ({a: key(present, a) for a in ids},
            {a: key(fulfill, a) for a in ids})


def _check_against_packing(tab, core):
    """The table's keys, its buckets and the class graphs it prunes and
    lists, against the reference.  The table runs on the closure's walk
    numbering, so its demand key follows the walk's order of weak nexts,
    while the lexicographic order follows ``core``, the closure's sorted
    core."""
    width = 1 << len(tab.free)
    full = _bool_row(tab.member_rows[tab.sigs.index((syntax.TrueConst,))],
                     width)
    assert full.all()
    # the valid atoms: a terminal atom asserts every weak next
    valid = np.flatnonzero(_bool_row(tab._classes["gen"], width))
    assert len(valid) == tab.count
    row = {f: _bool_row(r, width)[valid]
           for f, r in zip(tab.core, tab.member_rows)}

    def packed(fs):
        cols = np.stack([row[f] for f in fs], axis=1) if fs else \
            np.zeros((tab.count, 0), dtype=bool)
        pad = -len(fs) % 8
        return [v >> pad for v in _pack_rows(cols)]

    order = _pack_rows(np.array([row[f] for f in core]).T)
    assert len(set(order)) == len(order)

    # one free bit per weak-next group: X g for the base g, the terminal
    # marker for the base true, and every other member of a group is its
    # free member's bit, complemented on a parity that differs, off the
    # last state.  The free ones, in the table's own free-bit order, are the
    # demand key's bits
    nexts = []
    for m in tab.core:
        if type(m) is WeakNext:
            base, parity = _strip(m.operand)
            free, free_parity = ((TERMINAL, 1) if base == TRUE
                                 else (WeakNext(base), 0))
            if m == free:
                nexts.append(m)
            else:
                assert (row[m] == (row[free] ^ (parity != free_parity))
                        | row[TERMINAL]).all(), m
    assert nexts == [tab.core[i] for i in tab.nexts]
    untils = [m for m in core if type(m) is Until]
    demand = packed(nexts)
    signature = packed([n.operand for n in nexts])
    # an atom's valuation shifted right by the propositions is its demand
    assert (valid >> len(tab.props)).tolist() == demand
    # each valid atom's bucket is its operand signature
    bucket = {a: s for s, m in tab._buckets for a in tableau._set_bits(m)}
    assert [bucket[a] for a in valid.tolist()] == signature
    present, fulfill = _until_keys(tab, valid.tolist())
    assert [present[a] for a in valid.tolist()] == packed(untils)
    assert [fulfill[a] for a in valid.tolist()] == packed([u.right for u in untils])

    terminal = row[TERMINAL].tolist()
    in_class = {"gen": [True] * tab.count, "fin": row[FIN_MARK].tolist(),
                "inf": [not t for t in terminal]}
    bits = [_member_bits(tab, a) for a in valid.tolist()]
    for cls, admitted in in_class.items():
        alive = {k for k in range(tab.count) if admitted[k]}
        while True:
            size = Counter(signature[k] for k in alive)
            dead = {k for k in alive if not terminal[k] and size[demand[k]] == 0}
            if not dead:
                break
            alive -= dead
        # rows are distinct, so these lists are strictly increasing in the
        # packed order
        by_row = sorted(alive, key=order.__getitem__)
        members = {}
        for k in by_row:
            members.setdefault(signature[k], []).append(bits[k])

        buckets, next_bucket = tab.listed(tab.class_graph(cls)[0])
        held = {_member_bits(tab, a): a
                for a in tab.lex_order(list(next_bucket))}
        assert list(held) == [bits[k] for k in by_row]
        key_of = {}
        for k in alive:
            s = next_bucket[held[bits[k]]]
            if terminal[k]:
                assert s == -1
            elif s in key_of:
                assert key_of[s] == demand[k]
            else:
                key_of[s] = demand[k]
                assert [_member_bits(tab, a) for a in buckets[s]] \
                    == members[demand[k]]
        assert len(set(key_of.values())) == len(key_of)


def test_keys_and_buckets_match_packing_small_formulas():
    by_size = enumerate_formulas(5)
    for f in (g for n in sorted(by_size) for g in by_size[n]):
        clo = closure(f)
        _check_against_packing(_Table(clo, None), clo.core)


# Negated axiom instances with 12 to 16 free bits, one per weak next
HEAVY_INSTANCES = [
    ("T1", {"phi": "X p", "psi": "X (q U p)"}),
    ("T2", {"phi": "X (p U q)", "psi": "X X r & (q U p)"}),
    ("T3", {"phi": "(p U X q) & X X (r U p)"}),
    ("T1", {"phi": "G (p -> X q)", "psi": "X (r U s)"}),
]


def _negated_instance(name, bindings):
    return Not(build_schema_instance(
        name, {}, {k: parse_formula(v) for k, v in bindings.items()}))


@pytest.mark.parametrize("name, bindings", HEAVY_INSTANCES)
def test_keys_and_buckets_match_packing_axiom_instances(name, bindings):
    clo = closure(_negated_instance(name, bindings))
    tab = _Table(clo, None)
    assert 12 <= len(tab.props) + sum(type(m) is WeakNext for m in tab.core) <= 16
    _check_against_packing(tab, clo.core)


# ---------------------------------------------------------------------------
# Ordering only what is read, against the slow path it replaced: tables
# that key every atom they order by its whole member bit-vector, take a
# mask's least atom by sorting the mask, and list a class by sorting all
# its atoms.

# 18 free bits counted one per weak next, 13 in the table's own layout
CEILING = parse_formula("G (p -> X q) & G (q -> X r) & F (s & X X p)")
# 18 and 14: few untils and negated weak nexts, so larger than the tables
# the memo keeps
WIDE = parse_formula("(p U X q) & X X (r U s) & X (s & X t) & u")


def _on_sorted_tables(monkeypatch, run):
    def lex_order(tab, ids):
        return sorted(ids, key=lambda a: _member_bits(tab, a))

    def least(tab, mask):
        return lex_order(tab, tableau._set_bits(mask))[0]

    def sorted_atoms(tab, cls):
        return [tab.atom(a) for a in
                lex_order(tab, tableau._set_bits(tab._class_mask(cls)))]

    with monkeypatch.context() as m:
        m.setattr(tableau, "_memo", None)
        m.setattr(tableau._Table, "lex_order", lex_order)
        m.setattr(tableau._Table, "least", least)
        m.setattr(tableau._Table, "sorted_atoms", sorted_atoms)
        return run()


def test_decisions_match_sorted_tables(monkeypatch):
    by_size = enumerate_formulas(5)
    formulas = [g for n in sorted(by_size) for g in by_size[n]]
    formulas += [_negated_instance(*inst) for inst in HEAVY_INSTANCES]
    formulas.append(CEILING)

    def decide_all():
        return [decide_sat(f, cls, closure_cap=None)
                for f in formulas for cls in CLASSES]

    expected = _on_sorted_tables(monkeypatch, decide_all)
    monkeypatch.setattr(tableau, "_memo", None)
    assert decide_all() == expected


def test_atoms_and_graphs_match_sorted_tables(monkeypatch):
    # enumerate_atoms materialises every atom, so it gets the smaller set
    by_size = enumerate_formulas(5)
    heavy = closure(_negated_instance(*HEAVY_INSTANCES[0]))
    graphs = [closure(g) for n in sorted(by_size) for g in by_size[n]]
    atoms = graphs[:sum(len(by_size[n]) for n in by_size if n <= 4)]

    def listing():
        return ([enumerate_atoms(clo, cls, None)
                 for clo in atoms + [heavy] for cls in CLASSES],
                [build_atom_graph(clo, cls, None)
                 for clo in graphs + [heavy] for cls in CLASSES])

    assert listing() == _on_sorted_tables(monkeypatch, listing)


# The pruned graphs pinned, over every formula of size at most 5 and the
# first heavy instance in every class: the printed formula, the class, the
# sorted printed members of each node in order and the successor lists.
# The check above builds the graphs on both sides, so it cannot catch a
# wrong successor list; this digest can.
ATOM_GRAPH_DIGEST = (
    "75b2b30c5dd5e560c1559944945795b19bcbd5e5519b6cff444bc6a56b1ab9f3")


def _atom_graph_digest(formulas):
    h = hashlib.sha256()
    for f in formulas:
        clo = closure(f)
        for cls in CLASSES:
            g = build_atom_graph(clo, cls, None)
            parts = [print_formula(f), cls]
            parts += [",".join(sorted(print_formula(m) for m in a.members))
                      for a in g.nodes]
            parts.append(repr(g.successors))
            h.update("|".join(parts).encode())
            h.update(b"\n")
    return h.hexdigest()


def test_atom_graphs_pinned():
    by_size = enumerate_formulas(5)
    formulas = [g for n in sorted(by_size) for g in by_size[n]]
    formulas.append(_negated_instance(*HEAVY_INSTANCES[0]))
    assert _atom_graph_digest(formulas) == ATOM_GRAPH_DIGEST


def test_only_live_atoms_are_sorted(monkeypatch):
    # a decision lists no class: the mask search keys, for the
    # lexicographic order, only some of the live atoms, here of a table of
    # 14 free bits
    tab = _Table(closure(WIDE), None)
    assert len(tab.free) == 14
    live = {cls: len(tab.listed(tab.class_graph(cls)[0])[1])
            for cls in CLASSES}
    listed = []
    lanes = tableau._Table._lanes

    def recording(tab, mask):
        listed.append(mask)
        return lanes(tab, mask)

    monkeypatch.setattr(tableau._Table, "_lanes", recording)
    keyed = _counting_keys(monkeypatch)
    for cls in CLASSES:
        monkeypatch.setattr(tableau, "_memo", None)
        keyed.clear()
        res = decide_sat(WIDE, cls, closure_cap=None)
        assert res.satisfiable and eval_ltl(res.model, 0, WIDE) is True
        assert listed == [] and len(keyed) < live[cls] < tab.count


def _live_lanes(tab, cls):
    """The live atoms and the live roots of the class, as sorted member
    bit-vectors."""
    live, roots = tab.class_graph(cls)
    every = 0
    for m in live.values():
        every |= m
    return sorted(tab._lanes(every)), sorted(tab._lanes(roots))


def test_grouped_tables_keep_the_atoms_of_ungrouped_ones():
    # one free bit per weak-next group against one per weak next: on one
    # closure, in every class, the same live atoms, live roots and
    # witnesses, and no live atom of the ungrouped table breaks a group, so
    # the atoms left out of the grouped one all die
    by_size = enumerate_formulas(5)
    formulas = [g for n in sorted(by_size) for g in by_size[n]]
    formulas += [_negated_instance(*inst) for inst in HEAVY_INSTANCES]
    formulas.append(CEILING)
    formulas += _seeded_band(11, 13, 100)
    left_out = 0
    for f in formulas:
        clo = closure(f)
        grouped, ungrouped = _Table(clo, None), _Table(clo, None, False)
        assert grouped.tied and not ungrouped.tied
        left_out += ungrouped.count - grouped.count
        t = grouped.terminal_at
        for cls in CLASSES:
            live, roots = _live_lanes(grouped, cls)
            assert _live_lanes(ungrouped, cls) == (live, roots), (f, cls)
            for a in live:
                assert all(a[i] == (a[rep] ^ flip) | a[t]
                           for i, rep, flip in grouped.tied), (f, cls)
            assert grouped.witness(cls) == ungrouped.witness(cls), (f, cls)
    assert left_out > 0


def test_graphs_without_a_live_root_list_nothing_until_read(monkeypatch):
    # a class graph with no live root answers both searches without
    # listing its live atoms, and still lists every live atom when its list
    # views are read
    calls = []
    listed = tableau._Table.listed

    def listing(c, live):
        calls.append(sum(m.bit_count() for m in live.values()))
        return listed(c, live)

    monkeypatch.setattr(tableau._Table, "listed", listing)
    rootless = 0
    for inst in HEAVY_INSTANCES:
        tab = _Table(closure(_negated_instance(*inst)), None)
        for cls in CLASSES:
            live, roots = tab.class_graph(cls)
            if roots:
                continue
            rootless += 1
            calls.clear()
            assert tab.terminal_path(live, roots) is None
            assert tab.lasso_chain(live, roots) is None
            assert calls == []
            every = 0
            for m in live.values():
                every |= m
            assert sorted(tab.listed(live)[1]) == tableau._set_bits(every)
            n = every.bit_count()
            assert calls == [n] and n > 0
    assert rootless >= 4


# ---------------------------------------------------------------------------
# One breadth-first search for both witness kinds, against the searches it
# replaced: an atom-level BFS to a terminal atom, and a bipartite BFS into a
# self-fulfilling component with its own BFS per loop segment.

class _SeparateSearchGraph:
    """A class graph's list views, read from the table's ``listed``, and
    the searches over them."""

    def __init__(self, tab, live):
        self.tab = tab
        self._buckets, self.next_bucket = tab.listed(live)
        self.live_ids = tab.lex_order(list(self.next_bucket))

    def bucket(self, s):
        return self._buckets[s]

    def roots(self):
        """The live roots, in lexicographic order."""
        origin = self.tab.origin_bit
        return [a for a in self.live_ids if origin >> a & 1]

    def _succ(self, node):
        """Bipartite successors: an atom id leads to its bucket node ~s, a
        bucket node to the bucket's atoms."""
        if node < 0:
            return self.bucket(~node)
        s = self.next_bucket[node]
        return [~s] if s >= 0 else []

    def terminal_path(self):
        next_bucket = self.next_bucket
        parent = {}
        seen = set()
        seen_buckets = set()
        queue = deque()
        for r in self.roots():
            if next_bucket[r] < 0:
                return [r]
            seen.add(r)
            queue.append(r)
        while queue:
            a = queue.popleft()
            s = next_bucket[a]
            if s in seen_buckets:
                continue
            seen_buckets.add(s)
            for b in self.bucket(s):
                if b in seen:
                    continue
                seen.add(b)
                parent[b] = a
                if next_bucket[b] < 0:
                    path = [b]
                    while path[-1] in parent:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                queue.append(b)
        return None

    def lasso_chain(self):
        succ = self._succ
        scc_of = {}
        good = []
        roots = self.roots()
        comps = tableau._tarjan(succ, roots)
        until_present, until_fulfill = _until_keys(self.tab, self.live_ids)
        for ci, comp in enumerate(comps):
            for node in comp:
                scc_of[node] = ci
            atoms = [n for n in comp if n >= 0]
            if len(comp) < 2 or not atoms:
                good.append(False)
                continue
            present = fulfilled = 0
            for a in atoms:
                present |= until_present[a]
                fulfilled |= until_fulfill[a]
            good.append(present & ~fulfilled == 0)

        parent = {}
        seen = set()
        queue = deque()
        for r in roots:
            seen.add(r)
            queue.append(r)
        entry = None
        for r in roots:
            if good[scc_of[r]]:
                entry = r
                break
        while queue and entry is None:
            node = queue.popleft()
            for nxt in succ(node):
                if nxt in seen:
                    continue
                seen.add(nxt)
                parent[nxt] = node
                if nxt >= 0 and good[scc_of[nxt]]:
                    entry = nxt
                    break
                queue.append(nxt)
        if entry is None:
            return None

        prefix = []
        node = entry
        while node in parent:
            node = parent[node]
            if node >= 0:
                prefix.append(node)
        prefix.reverse()

        comp = set(comps[scc_of[entry]])

        def scc_path(src, targets, allow_empty):
            if allow_empty and src in targets:
                return []
            par = {}
            seen2 = {src}
            q = deque([src])
            while q:
                nd = q.popleft()
                for nxt in succ(nd):
                    if nxt not in comp:
                        continue
                    if nxt >= 0 and nxt in targets:
                        path = [nxt]
                        node = nd
                        while node != src:
                            if node >= 0:
                                path.append(node)
                            node = par[node]
                        path.reverse()
                        return path
                    if nxt in seen2:
                        continue
                    seen2.add(nxt)
                    par[nxt] = nd
                    q.append(nxt)
            raise AssertionError("self-fulfilling component lost a target")

        needed = 0
        comp_atoms = [n for n in comp if n >= 0]
        for a in comp_atoms:
            needed |= until_present[a]
        loop = [entry]
        current = entry
        for j in range(needed.bit_length()):
            if not (needed >> j) & 1:
                continue
            if any((until_fulfill[a] >> j) & 1 for a in loop):
                continue
            targets = {a for a in comp_atoms if (until_fulfill[a] >> j) & 1}
            seg = scc_path(current, targets, allow_empty=False)
            loop.extend(seg)
            current = seg[-1]
        closing = scc_path(current, {entry}, allow_empty=False)
        loop.extend(closing[:-1])
        return prefix, loop


def test_decisions_match_separate_searches(monkeypatch):
    by_size = enumerate_formulas(5)
    formulas = [g for n in sorted(by_size) for g in by_size[n]]
    formulas += [_negated_instance(*inst) for inst in HEAVY_INSTANCES]
    formulas.append(CEILING)
    # fuzz formulas with 14 to 18 free bits counted one per weak next, and
    # one whose table has 14 free bits of its own
    formulas += _seeded_band(14, 18, 40)
    formulas.append(WIDE)

    def decide_all():
        return [decide_sat(f, cls, closure_cap=None)
                for f in formulas for cls in CLASSES]

    with monkeypatch.context() as m:
        m.setattr(_Table, "terminal_path", lambda tab, live, roots:
                  _SeparateSearchGraph(tab, live).terminal_path())
        m.setattr(_Table, "lasso_chain", lambda tab, live, roots:
                  _SeparateSearchGraph(tab, live).lasso_chain())
        expected = decide_all()
    assert decide_all() == expected


# ---------------------------------------------------------------------------
# Ordering only what the search reads.  The int table's search runs on
# bucket masks and keys an atom for the lexicographic order only to order
# the new buckets a group of atoms wants: the first atom wanting each.  It
# caches the key for the table, so counting _key_at calls counts the atoms
# a decision ordered.

def _counting_keys(monkeypatch):
    keyed = []
    key_at = tableau._key_at

    def counting(rows, a):
        keyed.append(a)
        return key_at(rows, a)

    monkeypatch.setattr(tableau, "_key_at", counting)
    return keyed


def _small_table_formulas():
    """The formulas of size at most 5 and 200 path-check formulas, those of
    at most 13 free bits counted one per weak next."""
    by_size = enumerate_formulas(5)
    formulas = [g for n in sorted(by_size) for g in by_size[n]]
    formulas += [gen_formula(replace(PATH_CHECK, seed=seed))
                 for seed in range(200)]
    return [f for f in formulas if _free_bits(f) <= 13]


def test_terminal_origin_decides_fin_without_lex_keys(monkeypatch):
    keyed = _counting_keys(monkeypatch)
    one_atom = 0
    for f in _small_table_formulas():
        monkeypatch.setattr(tableau, "_memo", None)
        keyed.clear()
        w = decide_sat(f, "fin", closure_cap=None).witness
        if w is not None and len(w.atoms) == 1:
            one_atom += 1
            assert keyed == [], f
    assert one_atom > 500


def test_decisions_key_only_roots_and_expanded_buckets(monkeypatch):
    # each atom is keyed at most once per table, and one search keys at
    # most one atom per bucket it reaches, the first atom wanting it: the
    # atoms keyed in a search want pairwise distinct live buckets.  Sorting
    # the atoms of a root set or of a bucket keys several atoms wanting one
    # bucket whenever the propositions split them.
    keyed = _counting_keys(monkeypatch)
    searches = []
    path = tableau._Table._path

    def recording(tab, live, *args):
        start = len(keyed)
        try:
            return path(tab, live, *args)
        finally:
            searches.append((tab.shift, live, keyed[start:]))

    monkeypatch.setattr(tableau._Table, "_path", recording)
    ordering = 0
    for f in _small_table_formulas():
        for cls in CLASSES:
            monkeypatch.setattr(tableau, "_memo", None)
            keyed.clear()
            searches.clear()
            decide_sat(f, cls, closure_cap=None)
            assert len(keyed) == len(set(keyed)), f
            for shift, live, new in searches:
                wanted = [a >> shift for a in new]
                assert len(set(wanted)) == len(wanted), (f, cls)
                assert all(t in live for t in wanted), (f, cls)
                every = sum(live.values())
                assert all(every >> a & 1 for a in new), (f, cls)
                ordering += len(new) > 1
    assert ordering > 250


def test_one_atom_loop_closes_on_itself():
    # the loop search must be able to return to its own source: a search
    # that tests seen before the target loses this witness
    res = decide_sat(parse_formula("G p"), "inf", closure_cap=None)
    assert res.witness.atoms == () and len(res.witness.loop) == 1
    assert res.model == LassoTrace((), (frozenset({"p"}),))


# ---------------------------------------------------------------------------
# Build once per formula: the one-entry table memo of decide_sat, against
# decisions that build a fresh table on every call

def _fresh_decisions(monkeypatch, formulas):
    with monkeypatch.context() as m:
        m.setattr(tableau, "_table",
                  lambda f, cap: tableau._Table(closure(f), cap))
        return {(f, cls): decide_sat(f, cls, closure_cap=None)
                for f in formulas for cls in CLASSES}


def _count_closures(monkeypatch):
    calls = []

    def counting(f, mode="ltl"):
        calls.append(f)
        return closure(f, mode)

    monkeypatch.setattr(tableau, "_memo", None)
    monkeypatch.setattr(tableau, "closure", counting)
    return calls


def test_memo_matches_fresh_tables_small_formulas(monkeypatch):
    by_size = enumerate_formulas(5)
    formulas = [g for n in sorted(by_size) for g in by_size[n]]
    orders = [[(f, cls) for f in formulas for cls in ("gen", "fin", "inf")],
              [(f, cls) for f in formulas for cls in ("inf", "gen", "fin")]]
    # neighbours interleaved, so hits and misses alternate
    orders.append([(f, cls) for f, g in zip(formulas, formulas[1:])
                   for f, cls in ((f, "gen"), (g, "gen"), (g, "fin"),
                                  (f, "fin"), (f, "inf"), (g, "inf"))])

    expected = _fresh_decisions(monkeypatch, formulas)
    monkeypatch.setattr(tableau, "_memo", None)
    for order in orders:
        for f, cls in order:
            assert decide_sat(f, cls, closure_cap=None) == expected[f, cls]


def test_one_closure_per_formula_across_classes(monkeypatch):
    calls = _count_closures(monkeypatch)
    for cls in CLASSES:
        decide_sat(parse_formula("(p U q) & X X p"), cls, closure_cap=None)
    # equal formulas hit, whether or not they are the same object
    assert len(calls) == 1
    decide_valid(parse_formula("F p"), "gen")
    decide_valid(parse_formula("F p"), "fin")
    assert len(calls) == 2


def test_memo_hit_applies_its_own_cap(monkeypatch):
    calls = _count_closures(monkeypatch)
    f = Prop("p")     # closure of size 14
    decide_sat(f, "gen", closure_cap=None)
    with pytest.raises(ClosureCapError, match="size 14 exceeds the cap 13"):
        decide_sat(f, "fin", closure_cap=13)
    assert decide_sat(f, "inf", closure_cap=14).satisfiable
    assert len(calls) == 1


def test_refusals_are_never_kept(monkeypatch):
    calls = _count_closures(monkeypatch)
    f = parse_formula("G F p & G F q & G F r")     # 19 free bits
    for cls in CLASSES:
        with pytest.raises(ClosureCapError, match="needs 19 free bits"):
            decide_sat(f, cls, closure_cap=None)
    assert len(calls) == 3 and tableau._memo is None


def test_large_tables_are_not_kept(monkeypatch):
    _count_closures(monkeypatch)
    decide_sat(Prop("p"), "gen")
    assert tableau._memo is not None
    # 14 free bits: larger than any table the memo keeps
    assert _Table(closure(WIDE), None).count > tableau._MEMO_ATOMS
    decide_sat(WIDE, "inf", closure_cap=None)
    assert tableau._memo is None


def test_int_tables_are_kept(monkeypatch):
    calls = _count_closures(monkeypatch)
    # 13 free bits and 4,112 atoms: tables of up to 13 free bits are kept
    assert len(_Table(closure(CEILING), None).free) == 13
    assert tableau._MEMO_ATOMS == 1 << 13
    for cls in CLASSES:
        decide_sat(CEILING, cls, closure_cap=None)
    assert len(calls) == 1
    assert tableau._memo[1].count == 4112


def test_memo_compares_deep_formulas_without_recursing(monkeypatch):
    def chain(n):
        f = Prop("p")
        for _ in range(n):
            f = Not(f)
        return f

    monkeypatch.setattr(tableau, "_memo", None)
    # equal but distinct: structural equality would recurse 3,000 deep
    assert decide_sat(chain(3000), "fin", closure_cap=None).satisfiable
    assert decide_sat(chain(3000), "inf", closure_cap=None).satisfiable


# ---------------------------------------------------------------------------
# Shared models

def test_equal_models_are_one_object():
    a = decide_sat(Prop("p"), "fin").model
    b = decide_sat(And(Prop("p"), TERMINAL), "fin").model
    direct = FiniteTrace((frozenset({"p"}),))
    assert a is b and a == direct and hash(a) == hash(direct)
    c = decide_sat(parse_formula("G p"), "inf", closure_cap=None).model
    d = decide_sat(parse_formula("G p & F p"), "inf", closure_cap=None).model
    direct = LassoTrace((), (frozenset({"p"}),))
    assert c is d and c == direct and hash(c) == hash(direct)
    res = decide_sat(parse_formula("p & X q"), "gen")
    assert extract_model(res.witness) is res.model


def test_shared_model_entry_is_weak():
    res = decide_sat(parse_formula("zz1 & X zz2"), "fin")
    ref = weakref.ref(res.model)
    key = (res.model.states, None)
    assert tableau._MODELS.get(key) is res.model
    del res
    gc.collect()
    assert ref() is None and key not in tableau._MODELS


# ---------------------------------------------------------------------------
# The mixed class answered from fin and inf, against the decision it
# replaced: one search of the gen class graph for a finite witness, then
# for a lasso.

def _class_graph_decision(f, cls):
    tab = _Table(closure(f), None)
    live, roots = tab.class_graph(cls)
    if cls in ("fin", "gen"):
        path = tab.terminal_path(live, roots)
        if path is not None:
            w = ChainWitness(kind="finite",
                             atoms=tuple(map(tab.atom, path)))
            return SatResult(True, w, extract_model(w))
    if cls in ("inf", "gen"):
        chain = tab.lasso_chain(live, roots)
        if chain is not None:
            prefix, loop = chain
            atom = tab.atom
            w = ChainWitness(kind="lasso", atoms=tuple(map(atom, prefix)),
                             loop=tuple(map(atom, loop)))
            return SatResult(True, w, extract_model(w))
    return SatResult(False)


def _count_class_graphs(monkeypatch):
    built = []
    class_graph = _Table.class_graph

    def counting(tab, cls):
        built.append(cls)
        return class_graph(tab, cls)

    monkeypatch.setattr(_Table, "class_graph", counting)
    return built


@pytest.mark.parametrize("order", [("fin", "inf", "gen"),
                                   ("gen", "fin", "inf"),
                                   ("inf", "gen", "fin")])
def test_mixed_class_matches_class_graph_decisions(monkeypatch, order):
    by_size = enumerate_formulas(5)
    formulas = [g for n in sorted(by_size) for g in by_size[n]]
    formulas += [_negated_instance(*inst) for inst in HEAVY_INSTANCES]
    formulas.append(CEILING)
    # one search of each class graph
    expected = {(f, cls): _class_graph_decision(f, cls)
                for f in formulas for cls in CLASSES}
    # keep every table between classes, so each later class is answered
    # from the witnesses found before it
    monkeypatch.setattr(tableau, "_MEMO_ATOMS", 1 << 20)
    monkeypatch.setattr(tableau, "_memo", None)
    built = _count_class_graphs(monkeypatch)
    for f in formulas:
        built.clear()
        for cls in order:
            assert decide_sat(f, cls, closure_cap=None) == expected[f, cls]
        # a class builds a graph only when an atom of its class mask holds
        # the origin, and, until a graph of the table has split it into
        # buckets, only when a root may outlive the first prune round; gen
        # first builds one graph, and inf its own only when fin has a model
        tab = _Table(closure(f), None)
        root = {cls: bool(tab._class_mask(cls) & tab.origin_bit)
                for cls in CLASSES}
        may = {cls: root[cls] and _roots_want_the_class(tab, cls)
               for cls in CLASSES}
        if order[0] == "gen":
            graphs = may["gen"] + (expected[f, "fin"].satisfiable
                                   and root["inf"])
        else:
            first, second = order[0], ("inf" if order[0] == "fin" else "fin")
            graphs = may[first] + (root[second]
                                   and (may[first] or may[second]))
        assert len(built) == graphs


def _roots_want_the_class(tab, cls):
    """Whether a root of the class is terminal or wants a bucket holding an
    atom of the class, read off the listed views of the class's buckets
    before any is pruned."""
    admitted = tab._class_mask(cls)
    buckets, wants = tab.listed(dict(tab._split(admitted)))
    return any(wants[a] < 0 or wants[a] in buckets
               for a in tableau._set_bits(admitted & tab.origin_bit))


def test_no_graph_without_a_root(monkeypatch):
    built = _count_class_graphs(monkeypatch)
    monkeypatch.setattr(tableau, "_memo", None)
    f = parse_formula("p & !p")
    for cls in CLASSES:
        assert not decide_sat(f, cls, closure_cap=None).satisfiable
    assert built == []
    # nor the bucket split, which only a class graph reads
    assert "_buckets" not in tableau._memo[1].__dict__


def test_mixed_class_builds_one_graph_without_finite_models(monkeypatch):
    built = _count_class_graphs(monkeypatch)
    monkeypatch.setattr(tableau, "_memo", None)
    for cls in ("fin", "inf", "gen"):
        decide_sat(parse_formula("(p U q) & X X p"), cls, closure_cap=None)
    assert built == ["fin", "inf"]
    built.clear()
    f = parse_formula("G !(X false) & G F p")     # no finite model
    for cls in ("gen", "fin", "inf"):
        decide_sat(f, cls, closure_cap=None)
    assert built == ["gen"]
    assert decide_sat(f, "gen", closure_cap=None).witness.kind == "lasso"


# ---------------------------------------------------------------------------
# Seeded formulas by their free bits, counted one per weak next as the
# refusal counts them.

def _free_bits(f):
    return sum(type(m) in (Prop, WeakNext) for m in closure(f).core)


def _seeded_band(lo, hi, count):
    """The first count path-check formulas, by seed, with lo to hi free
    bits counted one per weak next."""
    formulas = []
    for seed in itertools.count():
        f = gen_formula(replace(PATH_CHECK, seed=seed))
        if lo <= _free_bits(f) <= hi:
            formulas.append(f)
            if len(formulas) == count:
                return formulas


@pytest.mark.parametrize("order", [("fin", "inf", "gen"),
                                   ("gen", "fin", "inf"),
                                   ("inf", "gen", "fin")])
def test_builders_find_the_same_witnesses(monkeypatch, order):
    # asked in this order of one table, a later class is answered from the
    # graphs built before it: gen asked first builds one graph, which
    # answers fin, and inf too without a finite model.  Asked of a table of
    # its own, each class builds its own graph and finds the same witness.
    by_size = enumerate_formulas(5)
    formulas = [g for n in sorted(by_size) for g in by_size[n]]
    formulas += [_negated_instance(*inst) for inst in HEAVY_INSTANCES]
    formulas += [CEILING, WIDE]
    # fuzz formulas with 11 to 13 free bits counted one per weak next
    formulas += _seeded_band(11, 13, 100)
    built = []
    build = tableau.closure

    def counting(*args):
        built.append(args[0])
        return build(*args)

    def decide_all():
        built.clear()
        monkeypatch.setattr(tableau, "_memo", None)
        return [decide_sat(f, cls, closure_cap=None)
                for f in formulas for cls in order]

    monkeypatch.setattr(tableau, "closure", counting)
    # keep every table between classes, WIDE's included
    monkeypatch.setattr(tableau, "_MEMO_ATOMS", 1 << 20)
    in_order = decide_all()
    assert len(built) == len(formulas)
    # keep none, so each class is asked of a table of its own
    monkeypatch.setattr(tableau, "_MEMO_ATOMS", -1)
    assert decide_all() == in_order
    assert len(built) == len(formulas) * len(order)


# ---------------------------------------------------------------------------
# The exit before the class graph, against the full graph it skips: a class
# whose roots are all non-terminal and want only buckets holding no atom of
# the class has no model, and ``_image`` names those buckets without
# splitting the class.

def _check_image(tab, cls):
    admitted = tab._class_mask(cls)
    split = tab._split(admitted)
    assert tab._image(-1, admitted) == split
    roots = admitted & tab.origin_bit
    for src in (roots, admitted, admitted & tab.member_rows[tab.free[0]],
                admitted & ~tab.terminal, tab.terminal):
        wanted = set(tab._wanted(src))
        assert tab._image(src, admitted) \
            == [(s, m) for s, m in split if s in wanted]


def _check_exit(formulas, monkeypatch):
    """Every class of every formula: the decision against the search of
    the full class graph, the exit against that graph's live roots, and
    ``_image`` against the split; the number of classes the exit fires in."""
    fired = 0
    for f in formulas:
        clo = closure(f)
        for cls in CLASSES:
            monkeypatch.setattr(tableau, "_memo", None)
            assert decide_sat(f, cls, closure_cap=None) \
                == _class_graph_decision(f, cls), (f, cls)
            tab = _Table(clo, None)
            _check_image(tab, cls)
            if tab._class_mask(cls) & tab.origin_bit \
                    and not tab._may_live(cls):
                assert not tab.class_graph(cls)[1], (f, cls)
                fired += 1
    return fired


def test_exit_matches_class_graph_small_formulas(monkeypatch):
    by_size = enumerate_formulas(6)
    formulas = [g for n in sorted(by_size) for g in by_size[n]]
    assert len(formulas) == 4563
    assert _check_exit(formulas, monkeypatch) > 0


def test_exit_matches_class_graph_heavy_and_seeded(monkeypatch):
    formulas = [_negated_instance(*inst) for inst in HEAVY_INSTANCES]
    formulas += _seeded_band(11, 13, 100)
    formulas += [Not(f) for f, _ in _valid_axiom_instances()]
    assert _check_exit(formulas, monkeypatch) > 0


# ---------------------------------------------------------------------------
# The decider on the closure's walk numbering: rows are indexed by the
# number the closure's walk gave each node, and witness atoms build their
# members only when read, so deciding makes no Formula.__hash__ call and no
# structural comparison, counted by a profile hook.  The closure numbers
# nodes by id() and signature, and the memo compares cached hashes before
# structure, so they make none either.

def _hashes_and_comparisons(run) -> Counter:
    counted = {Formula.__hash__.__code__: "hash",
               syntax._equal.__code__: "equal"}
    counts = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in counted:
            counts[counted[frame.f_code]] += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def test_deciding_hashes_and_compares_no_formula(monkeypatch):
    p = Prop("p")
    # the hook sees both kinds of call
    assert _hashes_and_comparisons(
        lambda: {And(p, p)} and Not(p) == Not(p)) == {"hash": 1, "equal": 1}
    by_size = enumerate_formulas(5)
    formulas = [g for n in sorted(by_size) for g in by_size[n]]
    formulas += [_negated_instance(*HEAVY_INSTANCES[0]), CEILING]
    results = []

    def decide_all():
        for f in formulas:
            for cls in CLASSES:
                results.append(decide_sat(f, cls, closure_cap=None))

    monkeypatch.setattr(tableau, "_memo", None)
    assert _hashes_and_comparisons(decide_all) == {}
    assert sum(r.satisfiable for r in results) > len(formulas)
    # reading a witness atom's members is what hashes them
    atom = results[-1].witness.loop[0]
    assert _hashes_and_comparisons(lambda: atom.members)["hash"] > 0


# The walk numbering against the sorted one.  The table accepts any
# numbering that puts kids first, so the same code runs on the closure's
# walk, the fast path, and on the numbering of its sorted core, which a
# closure built by hand gets and every decision ran on before: verdicts,
# witness atoms, models and pruned graphs must agree.

def _check_walk_against_sorted(f, graphs=True):
    clo = closure(f)
    # the same closure built by hand, from its sorted core and members
    slow = syntax.ClosureSet(clo.origin, clo.mode, clo.core, clo.members,
                             clo.size_bound)
    fast_tab, slow_tab = _Table(clo, None), _Table(slow, None)
    assert slow.numbering == clo.numbering
    assert (slow_tab.sigs, slow_tab.core) == (clo.numbering[0], clo.core)
    assert sorted(fast_tab.core, key=syntax.formula_sort_key) \
        == list(slow_tab.core)
    for cls in CLASSES:
        # witnesses compare atom by atom, each as its member set
        w = fast_tab.witness(cls)
        assert w == slow_tab.witness(cls), (f, cls)
        if w is not None:
            assert extract_model(w) == extract_model(slow_tab.witness(cls))
        if graphs:
            assert build_atom_graph(clo, cls, None) \
                == build_atom_graph(slow, cls, None), (f, cls)


def test_walk_numbering_matches_sorted_small_formulas():
    by_size = enumerate_formulas(6)
    for f in (g for n in sorted(by_size) for g in by_size[n]):
        _check_walk_against_sorted(f)


def test_walk_numbering_matches_sorted_heavy_and_wide():
    for inst in HEAVY_INSTANCES:
        _check_walk_against_sorted(_negated_instance(*inst))
    letters = parse_formula(" & ".join(f"x{i}" for i in range(14)))
    wide = [WIDE, parse_formula(_nexts(13, "p")), letters] + _next_heavy()
    assert len(wide) == 82
    for f in wide:
        _check_walk_against_sorted(f, graphs=False)


# The sort is lazy: the key pass that prints the closure runs only when a
# search orders atoms, and at most once per table.

def _count_key_passes(monkeypatch):
    passes = []
    original = syntax._sort_keys

    def counting(nodes):
        passes.append(len(nodes.sigs))
        return original(nodes)

    monkeypatch.setattr(syntax, "_sort_keys", counting)
    return passes


def _valid_axiom_instances():
    """Seeded criterion-5 instances, with the class each is valid in: 40
    per schema of every ltl system."""
    from caretkit.fuzz import _child_seed, _random_formula
    from caretkit.proof import SCHEMAS, axiom_schemas
    instances = []
    for system, cls in (("ax", "inf"), ("ax-gen", "gen"),
                        ("ax-inf", "inf"), ("ax-fin", "fin")):
        cfg = GenConfig(seed=20260815)
        for si, name in enumerate(axiom_schemas(system)):
            for k in range(40):
                rng = random.Random(_child_seed(cfg.seed, 16 + si, k))
                bindings = {v: _random_formula(rng, cfg, "ltl")
                            for v in SCHEMAS[name].metavars}
                instances.append((build_schema_instance(name, {}, bindings),
                                  cls))
    return instances


def test_valid_axiom_instances_print_nothing(monkeypatch):
    # seeded criterion-5 instances, all VALID: no class keeps a live root
    # of the negation, so no decision orders an atom
    passes = _count_key_passes(monkeypatch)
    decided = 0
    for f, cls in _valid_axiom_instances():
        monkeypatch.setattr(tableau, "_memo", None)
        assert decide_valid(f, cls, closure_cap=None)
        decided += 1
    assert decided > 500 and passes == []


def test_valid_axiom_instances_split_nothing(monkeypatch):
    # every root of their negations wants a bucket holding no atom of the
    # class, so no decision builds a class graph or splits its table
    built = _count_class_graphs(monkeypatch)
    splits = []
    split = _Table._split

    def counting(tab, mask):
        splits.append(mask)
        return split(tab, mask)

    monkeypatch.setattr(_Table, "_split", counting)
    for f, cls in _valid_axiom_instances():
        monkeypatch.setattr(tableau, "_memo", None)
        assert decide_valid(f, cls, closure_cap=None)
    assert built == [] and splits == []


def test_one_key_pass_per_table(monkeypatch):
    passes = _count_key_passes(monkeypatch)
    for f in (CEILING, WIDE, parse_formula("(p U q) & X X p")):
        monkeypatch.setattr(tableau, "_memo", None)
        monkeypatch.setattr(tableau, "_MEMO_ATOMS", 1 << 20)
        for cls in ("fin", "inf", "gen"):
            assert decide_sat(f, cls, closure_cap=None).satisfiable
        assert len(passes) == 1
        passes.clear()


# ---------------------------------------------------------------------------
# Witnesses pinned.  The digest covers every formula of size at most 5 in
# every class: the printed formula, the class, the verdict, the witness kind,
# the sorted printed members of each witness atom and the model's text.  A
# change that keeps verdicts but finds other witnesses changes it.

WITNESS_DIGEST = (
    "b8fd5e90327212e12960c095a45a6a60a28608c21ef106fabdc2af96401486b8")


def _witness_digest(formulas, confirm=False):
    """The digest of every class's decision; with ``confirm``, each model
    is also checked by the evaluator."""
    h = hashlib.sha256()
    for f in formulas:
        for cls in CLASSES:
            res = decide_sat(f, cls, closure_cap=None)
            parts = [print_formula(f), cls, str(res.satisfiable)]
            if res.satisfiable:
                if confirm:
                    assert eval_ltl(res.model, 0, f) is True, (f, cls)
                w = res.witness
                parts.append(w.kind)
                for atoms in (w.atoms, w.loop):
                    parts.append(";".join(
                        ",".join(sorted(print_formula(m) for m in a.members))
                        for a in atoms))
                parts.append(trace_to_text(res.model))
            h.update("|".join(parts).encode())
            h.update(b"\n")
    return h.hexdigest()


def test_witnesses_pinned_small_formulas():
    by_size = enumerate_formulas(5)
    assert _witness_digest(
        g for n in sorted(by_size) for g in by_size[n]) == WITNESS_DIGEST


# ---------------------------------------------------------------------------
# Verdicts checked past the oracle's reach: path checks (Tauriainen &
# Heljanko, STTT 2002).  Each UNSAT verdict in fin or inf on a seeded fuzz
# formula, and each VALID verdict through the negation, is checked by the
# evaluator, which shares no code with the tableau, on random traces of the
# class: one trace satisfying the formula at position 0 refutes the verdict.
# gen is covered by the identity gen = fin or inf, asserted on every formula.
# The formulas have 4 to 18 free bits counted one per weak next (median 9).

PATH_CHECK = GenConfig(max_formula_size=14, alphabet=("p", "q", "r"),
                       max_finite_len=10, max_lasso_total=10)
PATH_CHECK_TRACES = 200


def test_unsat_and_valid_verdicts_survive_path_checks():
    checked = 0
    for seed in range(1000):
        f = gen_formula(replace(PATH_CHECK, seed=seed))
        sat = {cls: decide_sat(f, cls, closure_cap=None).satisfiable
               for cls in CLASSES}
        valid = {cls: decide_valid(f, cls, closure_cap=None)
                 for cls in CLASSES}
        assert sat["gen"] == (sat["fin"] or sat["inf"]), f
        assert valid["gen"] == (valid["fin"] and valid["inf"]), f
        rng = random.Random(seed)
        for cls, kind in (("fin", "finite"), ("inf", "lasso")):
            for g, unsat in ((f, not sat[cls]), (Not(f), valid[cls])):
                if not unsat:
                    continue
                checked += 1
                for _ in range(PATH_CHECK_TRACES):
                    t = fuzz._campaign_trace(rng, PATH_CHECK, kind)
                    assert not EvalContext(t).holds(g, 0), (g, cls, t)
    # pinned: a verdict that flips changes the count
    assert checked == 425


# The same record over the path-check formulas and their negations, which
# reach 4 to 18 free bits and longer lassos.
PATH_CHECK_WITNESS_DIGEST = (
    "f9d2b64afe4a709d8d499639d5327f4a4722a9afc70f42214da18c00b5b4282c")


def test_witnesses_pinned_path_check_formulas():
    formulas = []
    for seed in range(1000):
        f = gen_formula(replace(PATH_CHECK, seed=seed))
        formulas += [f, Not(f)]
    assert _witness_digest(formulas) == PATH_CHECK_WITNESS_DIGEST


# The same record over the widest tables the decider builds, 14 to 16 free
# bits in the table's own layout: formulas heavy in letters or in single
# nexts.  The digest was taken when numpy pruned these tables and the int
# table searched the survivors renumbered, so it pins that the one prune
# keeps their witnesses.
WIDE_TABLE_WITNESS_DIGEST = (
    "d765ef18a5b53363b650384d6d359877059f49ee0a79e1f23ab590fb86ac0b83")


def _nexts(k, g):
    return "X " * k + g


def _table_bits(f):
    """The free bits of the decider's table, one per proposition and per
    weak-next group."""
    return len(_Table(closure(f), None).free)


def _next_heavy():
    """The formulas over p and q of a few next-heavy templates whose tables
    have more than 13 free bits and which the decider does not refuse."""
    texts = []
    for i in range(14):
        for j in range(i, 14):
            p, q = _nexts(i, "p"), _nexts(j, "q")
            texts += [f"{p} & {q}", _nexts(j, "(p U q)"),
                      f"G ({p} -> {q})", f"G ({_nexts(j, 'p')} -> "
                      f"{_nexts(i, 'q')})", f"F ({p} & {q})",
                      _nexts(i, f"(p U {q})"), f"{p} & {_nexts(j, '!p')}"]
    formulas = map(parse_formula, dict.fromkeys(texts))
    return [f for f in formulas
            if 13 < _free_bits(f) <= MAX_FREE_BITS and _table_bits(f) > 13]


def test_witnesses_pinned_wide_tables():
    letters = parse_formula(" & ".join(f"x{i}" for i in range(14)))
    formulas = [WIDE, parse_formula(_nexts(13, "p")), letters]
    formulas += _next_heavy()
    assert len(formulas) == 82
    assert {_table_bits(f) for f in formulas} == {14, 15, 16}
    assert _witness_digest(formulas, confirm=True) \
        == WIDE_TABLE_WITNESS_DIGEST


# ---------------------------------------------------------------------------
# Metamorphic relations (Chen et al., ACM Computing Surveys 51(1), 2018),
# which need no oracle: on seeded fuzz formulas f and g, in every class,
# sat(f & g) implies sat(f) and sat(g); f & g and g & f agree; f agrees with
# its image under the renaming p -> q -> r -> p, and with f where its first
# until a U b is unfolded into b | (a & N (a U b)).  Both rewrites change the
# closure order and so may change the witness, never the verdict.  A
# decision refused for its free bits is skipped.

METAMORPHIC_SEEDS = 300
_ROTATE = {"p": "q", "q": "r", "r": "p"}


def _renamed(f):
    if type(f) is Prop:
        return Prop(_ROTATE[f.name])
    if isinstance(f, (Not, WeakNext)):
        return type(f)(_renamed(f.operand))
    if isinstance(f, (And, Until)):
        return type(f)(_renamed(f.left), _renamed(f.right))
    return f


def _unfold_first_until(f):
    """f with its first until in preorder unfolded, or None without one."""
    if type(f) is Until:
        return lor(f.right, And(f.left, strong_next(f)))
    if isinstance(f, (Not, WeakNext)):
        g = _unfold_first_until(f.operand)
        return None if g is None else type(f)(g)
    if isinstance(f, (And, Until)):
        g = _unfold_first_until(f.left)
        if g is not None:
            return type(f)(g, f.right)
        g = _unfold_first_until(f.right)
        return None if g is None else type(f)(f.left, g)
    return None


def test_unfold_first_until_rewrites_one_occurrence():
    f = parse_formula("X (p U q) & (p U q)")
    assert _unfold_first_until(f) == parse_formula(
        "X (q | (p & N (p U q))) & (p U q)")
    assert _unfold_first_until(parse_formula("X p & !q")) is None
    assert _renamed(parse_formula("p U (q & X r)")) == parse_formula(
        "q U (r & X p)")


def test_verdicts_keep_metamorphic_relations():
    formulas = [gen_formula(replace(PATH_CHECK, seed=seed))
                for seed in range(METAMORPHIC_SEEDS + 1)]

    def sat(f, cls):
        try:
            return decide_sat(f, cls, closure_cap=None).satisfiable
        except ClosureCapError:
            return None

    checked = 0
    for f, g in zip(formulas, formulas[1:]):
        unfolded = _unfold_first_until(f)
        for cls in CLASSES:
            f_sat, g_sat = sat(f, cls), sat(g, cls)
            both, swapped = sat(And(f, g), cls), sat(And(g, f), cls)
            if None not in (both, f_sat, g_sat):
                checked += 1
                assert not both or (f_sat and g_sat), (f, g, cls)
            if None not in (both, swapped):
                checked += 1
                assert both == swapped, (f, g, cls)
            pairs = [(f_sat, sat(_renamed(f), cls))]
            if unfolded is not None:
                pairs.append((f_sat, sat(unfolded, cls)))
            for before, after in pairs:
                if None not in (before, after):
                    checked += 1
                    assert before == after, (f, cls)
    # pinned: a decision that flips between refused and answered, or a
    # formula generator that changes, changes the count
    assert checked == 3123
