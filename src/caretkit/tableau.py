"""Satisfiability and validity via atom graphs.

An atom is a maximal locally consistent subset of the signed closure of the
input formula.  Local consistency is purely syntactic: the constant true is
in, conjunctions agree with their conjuncts, an until agrees with its
strong-next unfolding, and an atom containing the next-of-false marker is
saturated with every weak-next member.  Because those rules determine every
member from the propositions and the weak-next members, atoms are
enumerated as bit-vector valuations of that free part, with fewer bits for
the weak nexts: off the last state X !g holds exactly when X g does not,
and at the last state every weak next holds (De Giacomo & Vardi, IJCAI
2013).  So the weak nexts whose operands strip to one formula g form a
group with one free bit, X g's or, for g the constant, the next-of-false
marker's.  A valuation whose group bits disagree off the last state wants a
bucket no atom carries, so leaving those out keeps every atom that can head
a model, as Wolper's tableau (1985) builds only those.  One table holds
the atoms, each member one Python int over the valuations; a class graph
is the masks the table prunes the class to, and one search decides every
class on them, a bucket at a time.

Edges follow the biconditional law: V -> W iff V lacks the next-of-false
marker and, for every weak-next formula in the closure, the formula is in V
exactly when its operand is in W.  Since the requirement on W depends only
on V's weak-next bits, successors are whole buckets of atoms sharing an
operand signature, which keeps the graph linear in the number of atoms.
A group's tied members demand what its free member does, so the free
weak-next bits of a valuation, read as a number, are that demanded
signature.

Locally consistent atoms that cannot head any model (no successor despite
lacking the terminal marker) are eliminated to a fixpoint before searching.
A finite witness is a shortest path from the origin atoms to a terminal
atom; an infinite one is a shortest path into a self-fulfilling strongly
connected component, then a loop through it made of shortest paths between
atoms that fulfil its untils.  One breadth-first search finds every such
path: the shortest path from given atoms to an atom with a given property.
The mixed class accepts either kind of witness, and is answered from the
other two: a finite witness when there is one, else an infinite one.  The
components are those of the quotient graph of buckets (Tarjan, SIAM J.
Comput. 1972), taken from the buckets the roots want: an atom belongs to
its bucket's component exactly when the bucket it wants is in it too.  A
component is self-fulfilling when every until row that meets its atoms has
a right-operand row that meets them (the emptiness check of generalized
Buchi conditions, Couvreur, FM 1999), so no per-atom until key is built.

The table runs on the numbering of the closure's own walk, kids first:
every row is indexed by the walk's number of its member and made from its
kids' rows, so no formula is hashed, compared or printed past the closure,
whose sorted core and signed members a decision never builds.  Only the
lexicographic order reads the core order, and a class in which no atom
holds the origin builds no class graph, so a decision without a live root
sorts nothing.  A witness atom keeps the walk's nodes and its member bits,
and builds its member set only when read.

The table shared by the three classes names its atoms in the order their
free-bit valuations are enumerated, which the search does not depend on.
It follows the lexicographic order on member bit-vectors, and so finds
one witness, but orders only what it reads.  It takes a bucket's least
atom without ordering it, and orders the buckets a layer of the search
reaches by the first atom wanting each, so it keys at most one atom per
bucket it reaches.  A witness that starts at a root takes the least such
root without ordering the roots, and a class with no live root orders
nothing.
"""

from __future__ import annotations

import functools
import weakref
from itertools import compress, product
from operator import itemgetter

from .syntax import (
    CLASSES, DEFAULT_CLOSURE_CAP, And, ClosureCapError, ClosureSet, Formula,
    Not, Prop, TrueConst, Until, WeakNext, _Record, _set, closure, negate,
    props_of, truth_columns,
)
from .trace import FiniteTrace, LassoTrace

__all__ = [
    "CLASSES", "ClosureCapError", "Atom", "ChainWitness", "AtomGraph",
    "SatResult", "enumerate_atoms", "build_atom_graph", "decide_sat",
    "decide_valid", "extract_model", "brute_force_sat",
    "DEFAULT_CLOSURE_CAP", "MAX_FREE_BITS",
]

# The refusal, on the closure's propositions and weak nexts counted one bit
# each, whatever the closure cap says.  The table has one bit per group of
# weak nexts, and every closure has two groups of two (the next-of-false
# marker's and the finiteness until's), so this bounds it at 2 ** 16 atoms.
MAX_FREE_BITS = 18

# the free-bit rows of an int table, made once per width and only read
_columns = functools.cache(truth_columns)
# a row's binary digits as bytes 0 and 1
_LANE = bytes.maketrans(b"01", b"\0\1")

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
# and table once.  Only tables of at most _MEMO_ATOMS atoms are kept, which
# every table of at most 13 free bits (the table's own, one per proposition
# and per weak-next group) has and no larger one: the callers that ask
# several classes of one formula decide small ones, those that decide larger
# formulas ask one class each, and a larger table held between calls is only
# resident memory.
_MEMO_ATOMS = 1 << 13
_memo: tuple[Formula, _Table] | None = None


class Atom:
    """A maximal locally consistent subset of a signed closure.

    An atom keeps its table's core and the truth of each core member in it,
    and builds ``members`` on first read.  It compares, hashes and prints as
    the record (members, terminal, fin_viable, props).
    """

    __slots__ = ("_core", "_bits", "_members", "terminal", "fin_viable",
                 "props")

    def __init__(self, core: tuple[Formula, ...], bits, terminal: bool,
                 fin_viable: bool, props: frozenset[str]):
        self._core, self._bits, self._members = core, bits, None
        self.terminal = terminal        # holds the next-of-false marker
        self.fin_viable = fin_viable    # holds the eventually-terminal marker
        self.props = props

    @property
    def members(self) -> frozenset[Formula]:
        if self._members is None:
            self._members = frozenset(m if v else negate(m)
                                      for m, v in zip(self._core, self._bits))
        return self._members

    def _record(self) -> tuple:
        return self.members, self.terminal, self.fin_viable, self.props

    def __eq__(self, other):
        if type(other) is not Atom:
            return NotImplemented
        return self._record() == other._record()

    def __hash__(self):
        return hash(self._record())

    def __repr__(self):
        return ("Atom(members={!r}, terminal={!r}, fin_viable={!r}, "
                "props={!r})".format(*self._record()))


class ChainWitness(_Record):
    """A satisfying chain of atoms.

    kind 'finite': ``atoms`` is the path ending in a terminal atom and
    ``loop`` is empty.  kind 'lasso': ``atoms`` is the (possibly empty)
    prefix and ``loop`` the repeated cycle.
    """

    __slots__ = _fields = ("kind", "atoms", "loop")

    def __init__(self, kind: str, atoms: tuple[Atom, ...],
                 loop: tuple[Atom, ...] = ()):
        _set(self, "kind", kind)
        _set(self, "atoms", atoms)
        _set(self, "loop", loop)


class AtomGraph(_Record):
    """Pruned atom graph for one trace class, successors as index tuples."""

    __slots__ = _fields = ("class_label", "nodes", "successors")

    def __init__(self, class_label: str, nodes: tuple[Atom, ...],
                 successors: tuple[tuple[int, ...], ...]):
        _set(self, "class_label", class_label)
        _set(self, "nodes", nodes)
        _set(self, "successors", successors)


class SatResult(_Record):
    __slots__ = _fields = ("satisfiable", "witness", "model")

    def __init__(self, satisfiable: bool, witness: ChainWitness | None = None,
                 model: FiniteTrace | LassoTrace | None = None):
        _set(self, "satisfiable", satisfiable)
        _set(self, "witness", witness)
        _set(self, "model", model)


class _Table:
    """The atom table of a closure: one Python int per member row, searched
    on masks.

    The table runs on any numbering of the closure that puts kids first,
    the closure's walk as a rule (``ClosureSet._decider_numbering``):
    ``sigs[i]`` is the type of ``core[i]`` and its kids' numbers, and every
    list below holds those numbers, in that order but for ``telling`` and
    ``untils``, which follow the sorted core and are made on first use, as
    ``_order``, the numbers in core order, is.  Atoms are valuations of the
    free bits, bit k for ``free[k]``: the propositions, then the free weak
    nexts, ``nexts``, in reverse, so that shifting the propositions out of
    a valuation leaves the atom's demand key, one bit per free weak next
    with the first in the most significant bit.  A free weak next stands
    for its group, the weak nexts whose operands strip to one formula; the
    others are ``tied`` to it and read no key bit of their own, and the
    demand and the bucket keys run over the free ones alone.  Atom a is
    valuation a, and ``member_rows[i]`` is an int over the valuations with
    bit a set where atom a holds ``core[i]``: ``truth_columns`` for the
    free bits, made once per width, and ``derive_rows`` with ``& | ^`` for
    the rest, as ``proof.check_tautology`` builds its truth tables.  Built with
    ``grouped`` false, for ``enumerate_atoms``, every weak next is free
    and the table holds every locally consistent atom.  The valuations that
    break the terminal rule are left out of every class mask, not removed;
    ``count`` is the number of valid atoms.  A non-terminal atom wants the
    bucket its valuation shifted right by the proposition count names, so
    the atoms wanting bucket t form one block of consecutive valuations,
    ``block << (t << shift)``, and live or die together.

    Every set of atoms is a mask: a class graph, ``class_graph``, is one
    mask of live atoms per bucket and one of live roots, and
    ``terminal_path`` and ``lasso_chain`` search those with ``_path`` and
    ``least``, so the search's Python-level work is per bucket, not per
    atom.  An atom gets its lexicographic key, cached for the table, only
    when a search must order the buckets it is the first to want.  Only
    the ``telling`` rows can decide that order, so only those are read.
    What only a class graph or the order reads is built on first use, so a
    table whose classes have no live root builds none of it and sorts
    nothing.  ``size`` is the closure's, counted without building its
    members.

    The table is its formula's decision: it answers every class, and is
    what ``_memo`` keeps.  ``witnesses`` remembers the witness of each
    class decided on the table, and never its model, so models stay free
    to go.
    """

    def __init__(self, clo: ClosureSet, cap: int | None, grouped: bool = True):
        if clo.mode != "ltl":
            raise ValueError("the tableau works on the ltl fragment only")
        self.size = clo.size
        self.check_cap(cap)
        self.core, self.sigs, self.root = clo._decider_numbering()
        self._order = clo._core_order
        sigs = self.sigs
        # the layout, in one pass over the numbering.  ``unfold[g]`` is the
        # position of X !g: an until's unfolding is the negation of X !u.
        # ``by_operand[g]`` is the position of X g
        self.props, self.unfold = props, unfold = [], {}
        weak, by_operand = [], {}
        for i, sig in enumerate(sigs):
            t = sig[0]
            if t is Prop:
                props.append(i)
            elif t is WeakNext:
                weak.append(i)
                by_operand[sig[1]] = i
                if sigs[sig[1]][0] is Not:
                    unfold[sigs[sig[1]][1]] = i
        raw = len(props) + len(weak)
        if raw > MAX_FREE_BITS:
            raise ClosureCapError(
                f"atom enumeration needs {raw} free bits "
                f"(propositions plus weak-next members); the limit is "
                f"{MAX_FREE_BITS} and no closure cap (--cap) value lifts it")
        true = sigs.index((TrueConst,))
        # the markers: next of false, true exactly at last states, and
        # eventually a last state
        self.terminal_at = unfold[true]
        self.fin_at = sigs.index((Until, true, self.terminal_at))
        # one free bit per group of weak nexts whose operands strip to one
        # base g: off the last state X h holds exactly when X g does for h
        # an even number of negations over g, and exactly when it does not
        # for odd, and at the last state every weak next holds.  A group's
        # free member is X g, or the terminal marker for the base true; the
        # others are ``tied``, (position, free member, whether the parities
        # differ).  Ungrouped, every weak next is free
        self.nexts, self.tied = nexts, tied = [], []
        for i in weak:
            g, odd = sigs[i][1], False
            while sigs[g][0] is Not:
                g, odd = sigs[g][1], not odd
            rep = self.terminal_at if g == true else by_operand[g]
            if not grouped or i == rep:
                nexts.append(i)
            else:
                tied.append((i, rep, odd != (g == true)))
        self.free = free = props + nexts[::-1]
        self.key_space = 1 << len(nexts)
        full = (1 << (1 << len(free))) - 1
        self.member_rows = rows = self.derive_rows(_columns(len(free)), full)
        self.terminal = rows[self.terminal_at]
        self.origin_bit = rows[self.root]
        self.width = full.bit_length()
        self.shift = shift = len(props)
        # the block layout, the terminal atoms' block at ``last``: the first
        # atom of every block below it, and the shifts that fold a block
        # into its first atom
        self._last = last = (self.key_space - 1) << shift
        self._block = block = (1 << (1 << shift)) - 1
        self._starts = ((1 << last) - 1) // block
        self._folds = [1 << k for k in range(shift)]
        self._lex_keys: dict[int, int] = {}
        # a terminal atom must assert every weak next: the valid atoms are
        # the non-terminal ones and the last block, where every free
        # weak-next bit is set
        valid = (self.terminal ^ full) | full >> last << last
        self.count = valid.bit_count()
        self._classes = {"gen": valid,
                         "fin": valid & self.member_rows[self.fin_at],
                         "inf": self.terminal ^ full}
        # class -> its witness, or None when the class has no model
        self.witnesses: dict[str, ChainWitness | None] = {}

    def derive_rows(self, free_rows: list[int], full: int) -> list[int]:
        """The row of each member by position, from the free bits' rows and
        ``full``, the constant true's: the tied weak nexts from their
        group's free member and the terminal marker, then the others in
        the numbering's order, so after their kids'."""
        rows = [full] * len(self.sigs)
        for i, r in zip(self.free, free_rows):
            rows[i] = r
        terminal = rows[self.terminal_at]
        for i, rep, flip in self.tied:
            rows[i] = (rows[rep] ^ full if flip else rows[rep]) | terminal
        for i, sig in enumerate(self.sigs):
            t = sig[0]
            if t is Not:
                rows[i] = rows[sig[1]] ^ full
            elif t is And:
                rows[i] = rows[sig[1]] & rows[sig[2]]
            elif t is Until:
                rows[i] = rows[sig[2]] | rows[sig[1]] & ~rows[self.unfold[i]]
        return rows

    def check_cap(self, cap: int | None) -> None:
        if cap is not None and self.size > cap:
            raise ClosureCapError(
                f"closure of size {self.size} exceeds the cap {cap}; "
                "raise it with --cap (closure_cap in Python)")

    def witness(self, cls: str) -> ChainWitness | None:
        """The witness of the class, or None when it has no model.

        gen takes fin's witness when there is one, else inf's.  The
        signature carries the operand of the eventually-terminal marker's
        unfolding, so every bucket agrees on that marker: the fin graph is
        the part of the gen graph holding it, and without a finite model
        the gen graph reachable from the roots is the inf graph's.  So gen
        asked before fin and inf builds one graph, which answers fin, and
        inf too when fin has no model.  A class in which no atom holds the
        origin has no model, and builds no graph.
        """
        known = self.witnesses
        if cls in known:
            return known[cls]
        w = None
        if cls == "gen" and ("fin" in known or "inf" in known):
            w = self.witness("fin") or self.witness("inf")
        elif self.has_root(cls):
            live, roots = self.class_graph(cls)
            for c in ("fin", "inf") if cls == "gen" else (cls,):
                if c == "fin":
                    path, loop = self.terminal_path(live, roots), []
                else:
                    path, loop = self.lasso_chain(live, roots) or (None, [])
                if path is not None:
                    w = ChainWitness(kind="finite" if c == "fin" else "lasso",
                                     atoms=tuple(map(self.atom, path)),
                                     loop=tuple(map(self.atom, loop)))
                known[c] = w
                if w is not None:
                    break
        known[cls] = w
        return w

    def atom(self, a: int) -> Atom:
        return self._atom([r >> a & 1 for r in self.member_rows])

    def _atom(self, bits) -> Atom:
        """The atom holding the members whose bits are set."""
        sigs = self.sigs
        names = tuple(sigs[i][1] for i in self.props if bits[i])
        props = _LABELS.get(names)
        if props is None:
            props = _LABELS[names] = frozenset(names)
        return Atom(self.core, bits, bool(bits[self.terminal_at]),
                    bool(bits[self.fin_at]), props)

    def _lanes(self, mask: int) -> list[bytes]:
        """The member bits of each atom of the mask, ascending, one byte per
        member row: every row spread to one byte an atom, then read an atom
        at a time, so no atom shifts a whole row."""
        spread = [format(r, f"0{self.width}b").encode().translate(_LANE)[::-1]
                  for r in (mask, *self.member_rows)]
        return list(map(bytes, compress(zip(*spread[1:]), spread[0])))

    def _split(self, mask: int) -> list[tuple[int, int]]:
        """Bucket -> its atoms in the mask, for the buckets holding any: the
        atoms split by each weak next's operand row in turn, the first weak
        next in the most significant bit of the key."""
        rows, sigs = self.member_rows, self.sigs
        groups = [(0, mask)]
        for b in self.nexts:
            r = rows[sigs[b][1]]
            split = []
            for s, m in groups:
                held = m & r
                if held != m:
                    split.append((s << 1, m ^ held))
                if held:
                    split.append((s << 1 | 1, held))
            groups = split
        return groups

    @functools.cached_property
    def _buckets(self) -> list[tuple[int, int]]:
        return self._split(self._classes["gen"])

    @functools.cached_property
    def untils(self) -> list[int]:
        """The untils, in core order."""
        sigs = self.sigs
        return [i for i in self._order() if sigs[i][0] is Until]

    @functools.cached_property
    def telling(self) -> list[int]:
        """The rows that decide the lexicographic order, in core order.
        Only the weak nexts, the propositions and the untils can tell two
        atoms apart first: the constant, a conjunction or a negation is
        fixed by earlier rows, and after the last free bit every atom is
        told apart."""
        sigs = self.sigs
        telling = [i for i in self._order()
                   if sigs[i][0] in (Prop, WeakNext, Until)]
        while sigs[telling[-1]][0] is Until:
            telling.pop()
        return telling

    @functools.cached_property
    def _lex_rows(self) -> list[int]:
        return [self.member_rows[i] for i in self.telling]

    @functools.cached_property
    def _lacking(self) -> list[int]:
        return [~r for r in self._lex_rows]

    def _class_mask(self, cls: str) -> int:
        if cls not in self._classes:
            raise ValueError(f"unknown trace class {cls!r}")
        return self._classes[cls]

    def has_root(self, cls: str) -> bool:
        return bool(self._class_mask(cls) & self.origin_bit)

    def lex_order(self, ids: list[int]) -> list[int]:
        """The atoms ``ids`` in lexicographic order on member bit-vectors."""
        keys = self._lex_keys
        new = [a for a in ids if a not in keys]
        keys.update(zip(new, map(functools.partial(_key_at, self._lex_rows),
                                 new)))
        return sorted(ids, key=keys.__getitem__)

    def least(self, mask: int) -> int:
        """The lexicographically least atom of the mask, without a key: row
        by row, the atoms left that lack the row, whenever any do, until at
        most one is left."""
        for r in self._lacking:
            if not mask & (mask - 1):
                break
            mask = mask & r or mask
        return mask.bit_length() - 1

    def sorted_atoms(self, cls: str) -> list[Atom]:
        """The atoms of the class in lexicographic order on member
        bit-vectors: member bits in core order are that order's keys."""
        lanes = self._lanes(self._class_mask(cls))
        in_core_order = itemgetter(*self._order())
        return list(map(self._atom, sorted(lanes, key=in_core_order)))

    def class_graph(self, cls: str):
        """The class graph: bucket -> its live atoms, and the live roots,
        as masks, pruned by rounds over buckets.  A bucket's number is its
        key, the operand signature its atoms carry."""
        admitted = self._class_mask(cls)
        shift, last, block = self.shift, self._last, self._block
        terminal = admitted >> last << last
        buckets = [(s, m & admitted) for s, m in self._buckets if m & admitted]
        # a non-terminal atom lives while the bucket it wants holds a live
        # atom, so each round keeps the blocks whose bucket still does
        while True:
            live = terminal
            for s, m in buckets:
                live |= admitted & block << (s << shift)
            kept = [(s, m) for s, m in buckets if m & live]
            if len(kept) == len(buckets):
                break
            buckets = kept
        return {s: m & live for s, m in buckets}, live & self.origin_bit

    def listed(self, live: dict[int, int]):
        """The list views of a class graph's live masks, in atom ids:
        bucket s -> its live atoms in the lexicographic order the search
        follows, and atom a -> the bucket its successors form, or -1 when
        it is terminal (after pruning every live non-terminal atom has a
        successor).  Only ``build_atom_graph`` and tests read them."""
        every = 0
        for m in live.values():
            every |= m
        shift, last = self.shift, self._last
        atoms = _set_bits(every)
        return ({s: self.lex_order(_set_bits(m)) for s, m in live.items()},
                dict(zip(atoms, [a >> shift if a < last else -1
                                 for a in atoms])))

    def _wanted(self, mask: int) -> list[int]:
        """The buckets the atoms of the mask want, ascending: each block
        folded into its first atom, read below the terminal block."""
        for k in self._folds:
            mask |= mask >> k
        shift = self.shift
        return [a >> shift for a in _set_bits(mask & self._starts)]

    def _path(self, live: dict[int, int], sources: int, hit: int,
              within: int = -1) -> list[int] | None:
        """Shortest atom path from a source to an atom of ``hit``, or None:
        the path a breadth-first search finds that takes the sources, and
        the atoms of each bucket an atom wants, in lexicographic order,
        searched here a layer at a time.  A layer of buckets is those the
        groups of the layer before want, the sources first; a layer of
        groups is each bucket's atoms in ``within`` that are not sources.
        A bucket's parent is the least atom of the first group wanting it,
        and a group's new buckets are taken in the order of their parents,
        so only parents are keyed, and only where a group wants more than
        one new bucket.  A bucket's hit is its least atom in ``hit``,
        sources included, so a path can return to its own source."""
        shift, block = self.shift, self._block
        # bucket -> (the group first wanting it, that group's bucket or
        # None for the sources); its parent is recomputed only on the path
        parent: dict[int, tuple[int, int | None]] = {}
        groups: list[tuple[int, int | None]] = [(sources, None)]
        while groups:
            layer = []
            for group, b in groups:
                new = [t for t in self._wanted(group) if t not in parent]
                if len(new) > 1:
                    firsts = [self.least(group & block << (t << shift))
                              for t in new]
                    new = [a >> shift for a in self.lex_order(firsts)]
                for t in new:
                    parent[t] = (group, b)
                layer += new
            groups = []
            for t in layer:
                atoms = live[t] & within
                if atoms & hit:
                    path = [self.least(atoms & hit)]
                    while t is not None:
                        group, b = parent[t]
                        path.append(self.least(group & block << (t << shift)))
                        t = b
                    path.reverse()
                    return path
                atoms &= ~sources
                if atoms:
                    groups.append((atoms, t))
        return None

    def terminal_path(self, live: dict[int, int],
                      roots: int) -> list[int] | None:
        """The shortest path from a live root to a terminal atom, or None."""
        if not roots:
            return None
        ends = roots & self.terminal
        return ([self.least(ends)] if ends
                else self._path(live, roots, self.terminal))

    def lasso_chain(self, live: dict[int, int],
                    roots: int) -> tuple[list[int], list[int]] | None:
        """The shortest path from a live root into a self-fulfilling
        component, and a loop through it, or None."""
        if not roots:
            return None
        shift, block, wanted = self.shift, self._block, self._wanted
        comps = _tarjan(lambda s: wanted(live[s]), wanted(roots))
        rows, sigs = self.member_rows, self.sigs
        # each until's row and its right operand's, the last until first:
        # the order the loop visits them in
        until_rows = [(rows[u], rows[sigs[u][2]])
                      for u in reversed(self.untils)]
        # bucket -> (its component's atoms, the right operand row of each
        # until they hold), for the self-fulfilling components: a
        # component's atoms are those of its buckets that want one of them
        good: dict[int, tuple[int, list[int]]] = {}
        good_atoms = 0
        for comp in comps:
            held = wants = 0
            for s in comp:
                held |= live[s]
                wants |= block << (s << shift)
            atoms = held & wants
            if not atoms:
                continue
            needed = [fulfil for present, fulfil in until_rows
                      if present & atoms]
            if all(fulfil & atoms for fulfil in needed):
                good.update(dict.fromkeys(comp, (atoms, needed)))
                good_atoms |= atoms

        # the shortest path from the origin atoms into a good component
        entries = roots & good_atoms
        path = ([self.least(entries)] if entries
                else self._path(live, roots, good_atoms))
        if path is None:
            return None
        prefix, entry = path[:-1], path[-1]
        atoms, needed = good[entry >> shift]

        def scc_path(src: int, targets: int) -> list[int]:
            """Shortest non-empty atom path src -> target inside the
            component, src excluded."""
            path = self._path(live, 1 << src, targets, atoms)
            if path is None:
                raise AssertionError("self-fulfilling component lost a target")
            return path[1:]

        loop = [entry]
        on_loop = 1 << entry
        for fulfil in needed:
            if fulfil & on_loop:
                continue
            seg = scc_path(loop[-1], atoms & fulfil)
            loop += seg
            for a in seg:
                on_loop |= 1 << a
        loop += scc_path(loop[-1], 1 << entry)[:-1]
        return prefix, loop


def _key_at(rows: list[int], a: int) -> int:
    """The bits of the int rows at atom a, the first row most significant."""
    k = 0
    for r in rows:
        k = k << 1 | r >> a & 1
    return k


def _set_bits(mask: int) -> list[int]:
    """The positions of the set bits of the mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
    sorts every atom, which the decider never does, on a table with one
    free bit per weak next, so it lists the atoms whose weak nexts of one
    group disagree off the last state too, which the decider never builds:
    none of them can head a model."""
    return tuple(_Table(clo, closure_cap, grouped=False).sorted_atoms(cls))


def build_atom_graph(clo: ClosureSet, cls: str,
                     closure_cap: int | None = DEFAULT_CLOSURE_CAP) -> AtomGraph:
    """The pruned atom graph: nodes that can head a chain of their class,
    successor lists per the biconditional edge law."""
    tab = _Table(clo, closure_cap)
    buckets, next_bucket = tab.listed(tab.class_graph(cls)[0])
    kept = tab.lex_order(list(next_bucket))
    local = {a: k for k, a in enumerate(kept)}
    nodes = tuple(map(tab.atom, kept))
    succs = tuple(tuple(local[b] for b in buckets.get(next_bucket[a], ()))
                  for a in kept)
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


def _table(f: Formula, cap: int | None) -> _Table:
    """The table of f, from the memo when f was the last formula decided."""
    global _memo
    # read once: a formula and its table are replaced together, so a
    # concurrent caller can at worst rebuild a table.  Cached hashes are
    # compared first, so a miss compares no structure.
    memo = _memo
    if memo is not None and memo[0]._hash == f._hash and memo[0] == f:
        memo[1].check_cap(cap)
        return memo[1]
    tab = _Table(closure(f, "ltl"), cap)
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
    gen) over the proposition alphabet of f, as every assignment of a truth
    mask to each proposition, evaluating f at position 0.  Returns
    'satisfiable' on the first hit, else 'unsatisfiable-up-to-bound'.
    """
    if cls not in CLASSES:
        raise ValueError(f"unknown trace class {cls!r}")
    if not 1 <= max_total <= 10:
        raise ValueError("max_total must be between 1 and 10")
    names = sorted(props_of(f))
    if len(names) > 3:
        raise ValueError("brute_force_sat is desk scale: at most 3 propositions")
    # (n, prefix_len): finite when the loop from prefix_len on is empty
    shapes = []
    if cls in ("fin", "gen"):
        shapes += [(n, n) for n in range(1, max_total + 1)]
    if cls in ("inf", "gen"):
        shapes += [(n, p) for n in range(1, max_total + 1) for p in range(n)]
    from .semantics import EvalContext
    for n, p in shapes:
        for masks in product(range(1 << n), repeat=len(names)):
            if EvalContext.from_masks(n, p, dict(zip(names, masks))).holds(f, 0):
                return "satisfiable"
    return "unsatisfiable-up-to-bound"
