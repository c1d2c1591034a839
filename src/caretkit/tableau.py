"""Satisfiability and validity via atom graphs.

An atom is a maximal locally consistent subset of the signed closure of the
input formula.  Local consistency is purely syntactic: the constant true is
in, conjunctions agree with their conjuncts, an until agrees with its
strong-next unfolding, and an atom containing the next-of-false marker is
saturated with every weak-next member.  Because those rules determine every
member from the propositions and the weak-next members, atoms are enumerated
as bit-vector valuations of that free part, vectorised with numpy.

Edges follow the biconditional law: V -> W iff V lacks the next-of-false
marker and, for every weak-next formula in the closure, the formula is in V
exactly when its operand is in W.  Since the requirement on W depends only
on V's weak-next bits, successors are whole buckets of atoms sharing an
operand signature, which keeps the graph linear in the number of atoms.
The weak-next bits of a valuation, read as a number, are that demanded
signature.

Locally consistent atoms that cannot head any model (no successor despite
lacking the terminal marker) are eliminated to a fixpoint before searching.
A finite witness is a shortest path from the origin atoms to a terminal
atom; an infinite one is a shortest path into a self-fulfilling strongly
connected component, then a loop through it made of shortest paths between
atoms that fulfil its untils.  One breadth-first search finds every such
path: the shortest path from given atoms to an atom with a given property.
The mixed class accepts either kind of witness, and is answered from the
other two: a finite witness when there is one, else an infinite one.  Only
the infinite search reads the until keys, so they are built for the atoms
that survive pruning.

The table shared by the three classes keeps its atoms in the order their
free-bit valuations are enumerated, which no search depends on.  Each
class graph owns the order its searches follow, and so the witness they
find: it prunes first, then sorts only the surviving atoms, a few percent
of the table on large closures, lexicographically on their member
bit-vectors.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass

import numpy as np

from .semantics import EvalContext
from .syntax import (
    CLASSES, DEFAULT_CLOSURE_CAP, And, ClosureCapError, ClosureSet, FALSE,
    Formula, Not, Prop, TRUE, Until, WeakNext, closure, negate, props_of,
)
from .trace import FiniteTrace, LassoTrace

__all__ = [
    "CLASSES", "ClosureCapError", "Atom", "ChainWitness", "AtomGraph",
    "SatResult", "enumerate_atoms", "build_atom_graph", "decide_sat",
    "decide_valid", "extract_model", "brute_force_sat",
    "DEFAULT_CLOSURE_CAP", "MAX_FREE_BITS",
]

# Atoms are enumerated as every valuation of the free bits (propositions and
# weak-next bases), so this bounds the table at 2 ** 18 rows whatever the
# closure cap says.
MAX_FREE_BITS = 18

_TERMINAL_MARK = WeakNext(FALSE)          # next of false: true exactly at last states
_FIN_MARK = Until(TRUE, _TERMINAL_MARK)   # eventually a last state


# One shared label per distinct set of true propositions, and one shared
# model per distinct (prefix, loop) of labels (loop None for a finite
# model), so models that outlive their decision do not each hold copies; weak
# values let an entry go once nothing else uses it.
_LABELS: weakref.WeakValueDictionary[tuple[str, ...], frozenset[str]] = \
    weakref.WeakValueDictionary()
_MODELS: weakref.WeakValueDictionary[tuple, FiniteTrace | LassoTrace] = \
    weakref.WeakValueDictionary()

# The last formula decided and its table, with the witnesses found on it, so
# that deciding one formula in several classes in a row builds its closure
# and table once.  Only tables of at most _MEMO_ATOMS atoms are kept: the
# callers that decide larger formulas ask one class each, and a larger table
# held between calls is only resident memory.
_MEMO_ATOMS = 1 << 12
_memo: tuple[Formula, _Tableau] | None = None


@dataclass(frozen=True)
class Atom:
    """A maximal locally consistent subset of a signed closure."""

    members: frozenset[Formula]
    terminal: bool      # contains the next-of-false marker
    fin_viable: bool    # contains the eventually-terminal marker
    props: frozenset[str]

    @property
    def inf_viable(self) -> bool:
        return not self.terminal


@dataclass(frozen=True)
class ChainWitness:
    """A satisfying chain of atoms.

    kind 'finite': ``atoms`` is the path ending in a terminal atom and
    ``loop`` is empty.  kind 'lasso': ``atoms`` is the (possibly empty)
    prefix and ``loop`` the repeated cycle.
    """

    kind: str
    atoms: tuple[Atom, ...]
    loop: tuple[Atom, ...] = ()


@dataclass(frozen=True)
class AtomGraph:
    """Pruned atom graph for one trace class, successors as index tuples."""

    class_label: str
    nodes: tuple[Atom, ...]
    successors: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SatResult:
    satisfiable: bool
    witness: ChainWitness | None = None
    model: FiniteTrace | LassoTrace | None = None


def _strip(f: Formula) -> tuple[Formula, int]:
    parity = 0
    while type(f) is Not:
        f = f.operand
        parity ^= 1
    return f, parity


def _key(bits: list[np.ndarray], n: int) -> np.ndarray:
    """Fixed-width keys of n atoms from bool rows, the first row in the most
    significant bit."""
    # nexts <= MAX_FREE_BITS and untils <= nexts, so 32 bits suffice
    out = np.zeros(n, dtype=np.uint32)
    for b in bits:
        out <<= 1
        out |= b
    return out


class _Tableau:
    """Shared atom table for one closure: member rows, keys and per-atom data.

    Atom a is entry a of every row in ``member_rows``; the table keeps the
    atoms in valuation order of their free bits, and ``lex_order`` puts any
    subset of them in the lexicographic order on member bit-vectors (in
    closure order) that the searches follow.  ``demand`` and ``signature``
    are fixed-width keys with one bit per weak-next base, the first base in
    the most significant bit, so a key lies below ``key_space``.  The
    valuations hold the weak-next bits above the propositions and in
    reverse, so ``demand`` is a valuation shifted right; ``until_keys``
    builds the like keys over the until bases for the atoms asked.
    ``witnesses`` remembers the witness of each class decided on the table,
    and never its model, so models stay free to go.
    """

    def __init__(self, clo: ClosureSet, cap: int | None):
        if clo.mode != "ltl":
            raise ValueError("the tableau works on the ltl fragment only")
        self.size = len(clo.members)
        self.check_cap(cap)
        core = clo.core

        # every base (a member with its negations stripped) is an unnegated
        # core member, and the core is already in (size, text) order
        bases = [m for m in core if type(m) is not Not]
        props = [b for b in bases if type(b) is Prop]
        nexts = [b for b in bases if type(b) is WeakNext]
        derived = [b for b in bases if type(b) in (And, Until)]
        # the weak nexts in reverse, so that shifting the propositions out of
        # a valuation leaves its demand key
        free = props + nexts[::-1]
        if len(free) > MAX_FREE_BITS:
            raise ClosureCapError(
                f"atom enumeration needs {len(free)} free bits (propositions "
                f"plus weak-next members); the limit is {MAX_FREE_BITS} and "
                "no closure cap (--cap) value lifts it")

        # valuations of the free bits, bit k for free[k]; a terminal atom
        # must assert every weak next
        rows = np.arange(1 << len(free), dtype=np.uint32)
        nexts_mask = np.uint32(((1 << len(nexts)) - 1) << len(props))
        terminal_bit = np.uint32(
            1 << (len(free) - 1 - nexts.index(_TERMINAL_MARK)))
        keep = rows[((rows & terminal_bit) == 0)
                    | ((rows & nexts_mask) == nexts_mask)]
        del rows

        # one row per core member, indexed by atom; every per-atom datum
        # below is a row, because every base is a core member and the
        # closure holds the operands of its weak nexts and untils and both
        # markers.  Separate rows rather than one matrix keep each
        # allocation at one row's size, so the allocator does not go on
        # holding a whole table's worth of heap after the largest formulas.
        member_rows = [np.empty(len(keep), dtype=bool) for _ in core]
        row = dict(zip(core, member_rows)).__getitem__

        def val(f: Formula) -> np.ndarray:
            b, parity = _strip(f)
            return ~row(b) if parity else row(b)

        row(TRUE)[:] = True
        for k, b in enumerate(free):
            np.not_equal(keep & np.uint32(1 << k), 0, out=row(b))
        for b in derived:
            if type(b) is And:
                np.logical_and(val(b.left), val(b.right), out=row(b))
            else:
                unfold = WeakNext(Not(b))
                if unfold not in clo:
                    raise AssertionError("closure lost an until unfolding")
                np.logical_or(val(b.right), val(b.left) & ~row(unfold),
                              out=row(b))
        for m in core:
            if type(m) is Not:
                np.logical_not(row(m.operand), out=row(m))

        untils = [b for b in derived if type(b) is Until]
        self.core = core
        self.props = props
        self.member_rows = member_rows
        self.count = len(keep)
        self.key_space = 1 << len(nexts)
        self.terminal = row(_TERMINAL_MARK)
        self.fin_viable = row(_FIN_MARK)
        self.origin_bit = row(clo.origin)
        self.demand = keep >> np.uint32(len(props))
        self.signature = _key([row(b.operand) for b in nexts], len(keep))
        self._until_rows = ([row(u) for u in untils],
                            [row(u.right) for u in untils])
        self.prop_rows = [row(b) for b in props]
        # class -> its witness, or None when the class has no model
        self.witnesses: dict[str, ChainWitness | None] = {}

    def check_cap(self, cap: int | None) -> None:
        if cap is not None and self.size > cap:
            raise ClosureCapError(
                f"closure of size {self.size} exceeds the cap {cap}; "
                "raise closure_cap to proceed")

    def class_indices(self, cls: str) -> np.ndarray:
        if cls == "gen":
            return np.arange(self.count)
        if cls == "fin":
            return np.flatnonzero(self.fin_viable)
        if cls == "inf":
            return np.flatnonzero(~self.terminal)
        raise ValueError(f"unknown trace class {cls!r}")

    def lex_order(self, ids: np.ndarray) -> np.ndarray:
        """The atoms ``ids`` in lexicographic order on member bit-vectors."""
        return ids[np.lexsort([r[ids] for r in reversed(self.member_rows)])]

    def until_keys(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The until keys of the atoms ``ids``: one bit per until base, set
        where the atom holds the until (present) or its right operand
        (fulfil)."""
        present, fulfill = self._until_rows
        return (_key([r[ids] for r in present], len(ids)),
                _key([r[ids] for r in fulfill], len(ids)))

    def witness(self, cls: str) -> ChainWitness | None:
        """The witness of the class, or None when it has no model.

        gen takes fin's witness when there is one, else inf's.  The
        signature carries the operand of the eventually-terminal marker's
        unfolding, so every bucket agrees on that marker: the fin graph is
        the part of the gen graph holding it, and without a finite model
        the gen graph reachable from the roots is the inf graph's.  So gen
        asked before fin and inf builds one graph, which answers fin, and
        inf too when fin has no model.
        """
        known = self.witnesses
        if cls in known:
            return known[cls]
        if cls == "gen":
            if "fin" not in known and "inf" not in known:
                g = _ClassGraph(self, cls)
                known["fin"] = self._finite(g)
                if known["fin"] is None:
                    known["inf"] = self._lasso(g)
            w = self.witness("fin") or self.witness("inf")
        elif cls == "fin":
            w = self._finite(_ClassGraph(self, cls))
        else:
            w = self._lasso(_ClassGraph(self, cls))
        known[cls] = w
        return w

    def _finite(self, g: _ClassGraph) -> ChainWitness | None:
        path = g.terminal_path()
        if path is None:
            return None
        return ChainWitness(kind="finite", atoms=tuple(map(self.atom, path)))

    def _lasso(self, g: _ClassGraph) -> ChainWitness | None:
        chain = g.lasso_chain()
        if chain is None:
            return None
        prefix, loop = chain
        return ChainWitness(kind="lasso", atoms=tuple(map(self.atom, prefix)),
                            loop=tuple(map(self.atom, loop)))

    def atom(self, a: int) -> Atom:
        members = frozenset(
            m if v else negate(m)
            for m, v in zip(self.core, [r[a] for r in self.member_rows]))
        names = tuple(b.name for b, r in zip(self.props, self.prop_rows) if r[a])
        props = _LABELS.get(names)
        if props is None:
            props = _LABELS[names] = frozenset(names)
        return Atom(members=members, terminal=bool(self.terminal[a]),
                    fin_viable=bool(self.fin_viable[a]), props=props)


class _ClassGraph:
    """Atoms of one class, bucketed by operand signature, pruned, then
    ordered.

    A bucket's number is its key: the operand signature its atoms carry.
    The graph owns the search order: pruning runs first, and only the
    atoms that survive it are sorted lexicographically on their member
    bit-vectors, so ``live_ids``, ``roots()`` and every ``bucket(s)`` list
    atoms in that order.  ``next_bucket`` maps each live atom to the
    bucket its successors form, or to -1 when the atom is terminal: after
    pruning every live non-terminal atom has a successor.  Both witness
    searches go through one routine, ``_path``, a breadth-first search
    over atoms and their buckets.
    """

    def __init__(self, tab: _Tableau, cls: str):
        self.tab = tab
        ids = tab.class_indices(cls)
        nb = tab.key_space
        alive = self._prune(tab.signature[ids],
                            np.where(tab.terminal[ids], nb, tab.demand[ids]),
                            nb)

        self.live_ids = live_ids = tab.lex_order(ids[alive])
        live = live_ids.tolist()
        buckets: dict[int, list[int]] = {}
        for a, s in zip(live, tab.signature[live_ids].tolist()):
            buckets.setdefault(s, []).append(a)
        self._buckets = buckets
        next_bucket = tab.demand[live_ids].astype(np.int64)
        next_bucket[tab.terminal[live_ids]] = -1
        self.next_bucket = dict(zip(live, next_bucket.tolist()))

    @staticmethod
    def _prune(bucket: np.ndarray, wanted: np.ndarray, nb: int) -> np.ndarray:
        """Live mask: the greatest set of atoms that are terminal or have a
        live successor.  ``wanted`` is nb for terminal atoms."""
        size = np.bincount(bucket, minlength=nb + 1)
        live = size[wanted] > 0
        live[wanted == nb] = True
        alive = np.bincount(bucket[live], minlength=nb)
        emptied = np.flatnonzero((alive == 0) & (size[:nb] > 0))
        if not len(emptied):
            return live
        # cascade over a worklist of emptied buckets, taken a batch at a
        # time: each bucket empties once, so each atom is visited once.
        # Only atoms live and not terminal now can die, so only they are
        # grouped by the bucket they want.
        by_wanted = np.flatnonzero(live & (wanted != nb))
        wants = wanted[by_wanted]
        by_wanted = by_wanted[np.argsort(wants)]
        starts = np.zeros(nb + 1, dtype=np.int64)
        np.cumsum(np.bincount(wants, minlength=nb), out=starts[1:])
        while len(emptied):
            lo = starts[emptied]
            counts = starts[emptied + 1] - lo
            # the positions lo .. lo + count - 1 of every emptied bucket
            first = np.cumsum(counts) - counts
            demanders = by_wanted[np.arange(counts.sum())
                                  + np.repeat(lo - first, counts)]
            dying = demanders[live[demanders]]
            live[dying] = False
            hit, lost = np.unique(bucket[dying], return_counts=True)
            alive[hit] -= lost
            emptied = hit[alive[hit] == 0]
        return live

    def bucket(self, s: int) -> list[int]:
        return self._buckets[s]

    def successors(self, a: int) -> list[int]:
        s = self.next_bucket[a]
        return self.bucket(s) if s >= 0 else []

    def roots(self) -> list[int]:
        live = self.live_ids
        return live[self.tab.origin_bit[live]].tolist()

    def _succ(self, node: int) -> list[int]:
        """Bipartite successors: an atom id leads to its bucket node ~s, a
        bucket node to the bucket's atoms."""
        if node < 0:
            return self.bucket(~node)
        s = self.next_bucket[node]
        return [~s] if s >= 0 else []

    def _path(self, sources: list[int], hit, within=None) -> list[int] | None:
        """Shortest atom path from a source to the first atom satisfying
        ``hit``, breadth-first over the bipartite graph of ``_succ`` and
        inside the node set ``within`` when one is given; None when no atom
        is hit.  ``hit`` is tested before the seen check, so the path can
        return to its own source: a loop closing on itself."""
        succ = self._succ
        # every node seen, with the node it was reached from (None for a source)
        parent: dict[int, int | None] = dict.fromkeys(sources)
        queue = deque(sources)
        while queue:
            node = queue.popleft()
            for nxt in succ(node):
                if within is not None and nxt not in within:
                    continue
                if nxt >= 0 and hit(nxt):
                    path = [nxt]
                    while node is not None:
                        if node >= 0:
                            path.append(node)
                        node = parent[node]
                    path.reverse()
                    return path
                if nxt in parent:
                    continue
                parent[nxt] = node
                queue.append(nxt)
        return None

    # -- finite-class style search: shortest path to a terminal atom ---------

    def terminal_path(self) -> list[int] | None:
        next_bucket = self.next_bucket
        roots = self.roots()
        for r in roots:
            if next_bucket[r] < 0:
                return [r]
        return self._path(roots, lambda a: next_bucket[a] < 0)

    # -- infinite-class style search: reachable self-fulfilling component ----

    def lasso_chain(self) -> tuple[list[int], list[int]] | None:
        scc_of: dict = {}
        good: list[bool] = []
        # a component holding a node reachable from the roots is reachable
        # whole, so the searches below never look past these components
        roots = self.roots()
        comps = _tarjan(self._succ, roots)
        live_ids = self.live_ids
        live = live_ids.tolist()
        present, fulfill = self.tab.until_keys(live_ids)
        until_present = dict(zip(live, present.tolist()))
        until_fulfill = dict(zip(live, fulfill.tolist()))
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

        def in_good(a: int) -> bool:
            return good[scc_of[a]]

        # the shortest path from the origin atoms into a good component
        path = (next(([r] for r in roots if in_good(r)), None)
                or self._path(roots, in_good))
        if path is None:
            return None
        prefix, entry = path[:-1], path[-1]

        comp = set(comps[scc_of[entry]])

        def scc_path(src: int, targets: set[int]) -> list[int]:
            """Shortest non-empty atom path src -> target inside the
            component, src excluded."""
            path = self._path([src], targets.__contains__, comp)
            if path is None:
                raise AssertionError("self-fulfilling component lost a target")
            return path[1:]

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
            seg = scc_path(current, targets)
            loop.extend(seg)
            current = seg[-1]
        closing = scc_path(current, {entry})
        loop.extend(closing[:-1])
        return prefix, loop


def _tarjan(succ, order):
    """Iterative Tarjan over an explicit node order; returns the components."""
    index: dict = {}
    low: dict = {}
    onstack: set = set()
    stack: list = []
    comps: list[list] = []
    for root in order:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    onstack.add(child)
                    work.append((child, iter(succ(child))))
                    advanced = True
                    break
                if child in onstack and index[child] < low[node]:
                    low[node] = index[child]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                comps.append(comp)
    return comps


# ---------------------------------------------------------------------------
# Public operations.

def enumerate_atoms(clo: ClosureSet, cls: str,
                    closure_cap: int | None = DEFAULT_CLOSURE_CAP) -> tuple[Atom, ...]:
    """All locally consistent atoms admissible for the class, in the fixed
    lexicographic order on member bit-vectors.  Desk scale: materialises and
    sorts every atom, which the decider never does."""
    tab = _Tableau(clo, closure_cap)
    return tuple(tab.atom(a) for a in tab.lex_order(tab.class_indices(cls)))


def build_atom_graph(clo: ClosureSet, cls: str,
                     closure_cap: int | None = DEFAULT_CLOSURE_CAP) -> AtomGraph:
    """The pruned atom graph: nodes that can head a chain of their class,
    successor lists per the biconditional edge law."""
    tab = _Tableau(clo, closure_cap)
    g = _ClassGraph(tab, cls)
    kept = g.live_ids.tolist()
    local = {a: k for k, a in enumerate(kept)}
    nodes = tuple(tab.atom(a) for a in kept)
    succs = tuple(tuple(local[b] for b in g.successors(a)) for a in kept)
    return AtomGraph(class_label=cls, nodes=nodes, successors=succs)


def decide_sat(f: Formula, cls: str,
               closure_cap: int | None = DEFAULT_CLOSURE_CAP) -> SatResult:
    """Satisfiability of an ltl formula over the given trace class.

    Positive answers carry a chain witness and the trace extracted from it;
    the mixed class prefers a finite witness and falls back to a lasso.
    """
    if cls not in CLASSES:
        raise ValueError(f"unknown trace class {cls!r}")
    w = _table(f, closure_cap).witness(cls)
    if w is None:
        return SatResult(False)
    return SatResult(True, w, extract_model(w))


def _table(f: Formula, cap: int | None) -> _Tableau:
    """The table of f, from the memo when f was the last formula decided."""
    global _memo
    # read once: a formula and its table are replaced together, so a
    # concurrent caller can at worst rebuild a table
    memo = _memo
    if memo is not None and memo[0] == f:
        memo[1].check_cap(cap)
        return memo[1]
    tab = _Tableau(closure(f, "ltl"), cap)
    _memo = (f, tab) if tab.count <= _MEMO_ATOMS else None
    return tab


def decide_valid(f: Formula, cls: str,
                 closure_cap: int | None = DEFAULT_CLOSURE_CAP) -> bool:
    """Validity over the class: the negation has no model of that class."""
    return not decide_sat(Not(f), cls, closure_cap).satisfiable


def extract_model(w: ChainWitness) -> FiniteTrace | LassoTrace:
    """The trace a chain witness denotes: states labelled by the positive
    propositions of each atom.  Equal traces are one shared object while
    any of them is alive."""
    prefix = tuple(a.props for a in w.atoms)
    if w.kind == "finite":
        key = (prefix, None)
    elif w.kind == "lasso":
        key = (prefix, tuple(a.props for a in w.loop))
    else:
        raise ValueError(f"unknown witness kind {w.kind!r}")
    model = _MODELS.get(key)
    if model is None:
        model = FiniteTrace(prefix) if key[1] is None else LassoTrace(*key)
        _MODELS[key] = model
    return model


def brute_force_sat(f: Formula, cls: str, max_total: int) -> str:
    """Literal bounded model search, the oracle decide_sat is checked against.

    Enumerates every finite trace up to max_total states (classes fin, gen)
    and every lasso with prefix+loop up to max_total states (classes inf,
    gen) over the proposition alphabet of f, evaluating f at position 0.
    Returns 'satisfiable' on the first hit, else 'unsatisfiable-up-to-bound'.
    """
    if cls not in CLASSES:
        raise ValueError(f"unknown trace class {cls!r}")
    if not 1 <= max_total <= 10:
        raise ValueError("max_total must be between 1 and 10")
    names = sorted(props_of(f))
    if len(names) > 3:
        raise ValueError("brute_force_sat is desk scale: at most 3 propositions")
    labels = [frozenset(n for j, n in enumerate(names) if (bits >> j) & 1)
              for bits in range(1 << len(names))]

    if cls in ("fin", "gen"):
        from itertools import product
        for length in range(1, max_total + 1):
            for states in product(labels, repeat=length):
                if EvalContext(FiniteTrace(states)).holds(f, 0):
                    return "satisfiable"
    if cls in ("inf", "gen"):
        from itertools import product
        for total in range(1, max_total + 1):
            for loop_len in range(1, total + 1):
                for prefix in product(labels, repeat=total - loop_len):
                    for loop in product(labels, repeat=loop_len):
                        if EvalContext(LassoTrace(prefix, loop)).holds(f, 0):
                            return "satisfiable"
    return "unsatisfiable-up-to-bound"
