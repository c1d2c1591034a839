"""Core formula syntax: AST, concrete grammar, printer, closure sets.

The core language has eight constructors: the constant true, propositions,
negation, conjunction, weak next, until, and the abstract (call/return)
variants of next and until.  Everything else the concrete grammar accepts
(false, or, implication, equivalence, eventually, always, strong next and
their abstract twins) is parse-time sugar that desugars into the core, so
every downstream consumer works with exactly these eight node kinds.
"""

from __future__ import annotations

import re
from collections.abc import Callable

__all__ = [
    "Formula", "TrueConst", "Prop", "Not", "And", "WeakNext", "Until",
    "AbsWeakNext", "AbsUntil", "TRUE", "FALSE",
    "lor", "implies", "iff", "eventually", "always", "strong_next",
    "abs_eventually", "abs_always", "abs_strong_next",
    "negate", "formula_size", "formula_sort_key", "is_ltl", "props_of",
    "truth_columns",
    "parse_formula", "print_formula", "closure", "ClosureSet", "ParseError",
    "CLASSES", "DEFAULT_CLOSURE_CAP", "ClosureCapError",
    "SYSTEM_IDS", "ProofError", "ProofFormatError", "EvalError",
]


class ParseError(Exception):
    """Raised on lexical or grammatical errors; carries the source offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class Formula:
    """Base class for core formula nodes.

    Nodes are immutable by convention and compared structurally; every node
    caches its structural hash at construction so dictionary lookups stay
    cheap on large instantiated schemas.
    """

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash


class TrueConst(Formula):
    __slots__ = ()
    __hash__ = Formula.__hash__

    def __init__(self):
        self._hash = hash("caretkit.true")

    def __eq__(self, other):
        return self is other or type(other) is TrueConst

    def __repr__(self):
        return "TrueConst()"


class Prop(Formula):
    __slots__ = ("name",)
    __hash__ = Formula.__hash__

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("caretkit.prop", name))

    def __eq__(self, other):
        return self is other or (type(other) is Prop and other.name == self.name)

    def __repr__(self):
        return f"Prop({self.name!r})"


def _equal(f: Formula, g) -> bool:
    """Structural equality over an explicit stack, so deep formulas compare
    without recursing.  A pair settles at once when its nodes are identical,
    or differ in type or cached hash, or was met before: the shared
    subterms of two formulas built as DAGs are compared once, not once per
    path to them.  Both formulas hold every node, so ids are not reused."""
    stack, seen = [(f, g)], set()
    while stack:
        a, b = stack.pop()
        if a is b or (id(a), id(b)) in seen:
            continue
        seen.add((id(a), id(b)))
        if type(a) is not type(b) or a._hash != b._hash:
            return False
        if isinstance(a, _Unary):
            stack.append((a.operand, b.operand))
        elif isinstance(a, _Binary):
            stack.append((a.right, b.right))
            stack.append((a.left, b.left))
        elif a != b:
            return False
    return True


class _Unary(Formula):
    __slots__ = ("operand",)
    __hash__ = Formula.__hash__
    _tag = ""

    def __init__(self, operand: Formula):
        self.operand = operand
        self._hash = hash((self._tag, operand._hash))

    def __eq__(self, other):
        return self is other or _equal(self, other)

    def __repr__(self):
        return f"{type(self).__name__}({self.operand!r})"


class _Binary(Formula):
    __slots__ = ("left", "right")
    __hash__ = Formula.__hash__
    _tag = ""

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right
        self._hash = hash((self._tag, left._hash, right._hash))

    __eq__ = _Unary.__eq__

    def __repr__(self):
        return f"{type(self).__name__}({self.left!r}, {self.right!r})"


class Not(_Unary):
    __slots__ = ()
    _tag = "caretkit.not"


class WeakNext(_Unary):
    """Weak next: vacuously true at the last state of a finite trace."""
    __slots__ = ()
    _tag = "caretkit.next"


class AbsWeakNext(_Unary):
    """Weak next along the abstract (call/return) successor."""
    __slots__ = ()
    _tag = "caretkit.anext"


class And(_Binary):
    __slots__ = ()
    _tag = "caretkit.and"


class Until(_Binary):
    __slots__ = ()
    _tag = "caretkit.until"


class AbsUntil(_Binary):
    """Until along the chain of abstract successors."""
    __slots__ = ()
    _tag = "caretkit.auntil"


TRUE = TrueConst()
FALSE = Not(TRUE)


# ---------------------------------------------------------------------------
# Sugar.  These are the only desugarings in the package; the parser, the
# axiom schema table and the tests all go through them.

def lor(a: Formula, b: Formula) -> Formula:
    return Not(And(Not(a), Not(b)))


def implies(a: Formula, b: Formula) -> Formula:
    return lor(Not(a), b)


def iff(a: Formula, b: Formula) -> Formula:
    return And(implies(a, b), implies(b, a))


def eventually(a: Formula) -> Formula:
    return Until(TRUE, a)


def always(a: Formula) -> Formula:
    return Not(eventually(Not(a)))


def strong_next(a: Formula) -> Formula:
    return Not(WeakNext(Not(a)))


def abs_eventually(a: Formula) -> Formula:
    return AbsUntil(TRUE, a)


def abs_always(a: Formula) -> Formula:
    return Not(abs_eventually(Not(a)))


def abs_strong_next(a: Formula) -> Formula:
    return Not(AbsWeakNext(Not(a)))


def negate(f: Formula) -> Formula:
    """Negation with single-negation collapse: the negation of Not(g) is g."""
    return f.operand if type(f) is Not else Not(f)


def _fold(f: Formula, memo: dict, leaf: Callable, apply: Callable):
    """The value of f by structural induction: ``leaf(g)`` gives a leaf's
    value, and ``apply(type(g), a, b=None)`` a node's from its operands'
    values.  The walk is an explicit stack, each kid before its parent and
    the left operand before the right, so nesting depth is bounded by
    memory rather than by the interpreter's recursion limit.  ``memo`` maps
    subformulas to values: each structurally distinct subformula is
    computed once into it, and one it already holds is not entered, so a
    caller can seed it with values of its own."""
    stack = [f]
    while stack:
        g = stack.pop()
        if g in memo:  # also for a node pushed twice before its value
            continue
        if isinstance(g, _Unary):
            a = memo.get(g.operand)
            if a is None:
                stack += (g, g.operand)
                continue
            memo[g] = apply(type(g), a)
        elif isinstance(g, _Binary):
            a, b = memo.get(g.left), memo.get(g.right)
            if a is None or b is None:
                stack += (g, g.right, g.left)
                continue
            memo[g] = apply(type(g), a, b)
        else:
            memo[g] = leaf(g)
    return memo[f]


def formula_size(f: Formula) -> int:
    """Number of core AST nodes, counted as a tree: a subterm shared by two
    parents counts under each.  Each distinct subterm is sized once, so a
    DAG is sized in time linear in its distinct nodes."""
    return _fold(f, {}, lambda g: 1, lambda t, a, b=0: 1 + a + b)


def truth_columns(n: int) -> list[int]:
    """Truth-table columns as bit masks over the 2 ** n valuations of n
    letters: column k has bit v set where valuation v sets letter k."""
    width = 1 << n
    columns = []
    for k in range(n):
        block = 1 << k
        rep = ((1 << block) - 1) << block
        span = block * 2
        while span < width:
            rep |= rep << span
            span *= 2
        columns.append(rep)
    return columns


def is_ltl(f: Formula) -> bool:
    """True when the formula uses no abstract operator."""
    return _fold(f, {}, lambda g: True,
                 lambda t, a, b=True: a and b
                 and t is not AbsWeakNext and t is not AbsUntil)


def props_of(f: Formula) -> frozenset[str]:
    return _fold(f, {},
                 lambda g: frozenset((g.name,) if type(g) is Prop else ()),
                 lambda t, a, b=frozenset(): a | b)


def formula_sort_key(f: Formula) -> tuple[int, str]:
    """Deterministic ordering key: (size, printed text).

    The printed text pins the order independently of hash randomisation, so
    anything sorted with this key is stable across runs.
    """
    nodes = _Nodes()
    n = nodes.add(f)
    return _sort_keys(nodes)[n]


# ---------------------------------------------------------------------------
# Printer.  print_formula(f) reparses to a structurally equal tree; sugar is
# not reconstructed, the output is plain core syntax.

# (text before the operand(s), between them, after them) per node type
_PRINT_PARTS = {
    Not: ("!(", "", ")"),
    WeakNext: ("X ", "", ""),
    AbsWeakNext: ("Xa ", "", ""),
    And: ("(", " & ", ")"),
    Until: ("(", " U ", ")"),
    AbsUntil: ("(", " Ua ", ")"),
}


# the number of kids of each operator node type
_ARITY = {t: 1 if issubclass(t, _Unary) else 2 for t in _PRINT_PARTS}


class _Nodes:
    """Distinct nodes numbered by structure, kids first, each with its size.

    A node's signature is its type and its kids' numbers (a proposition's
    is ``(Prop, name)``), and interning the signature gives the number, so
    structurally equal subterms share a number even when they are distinct
    objects.  Input objects are looked up by ``id()``: numbering makes no
    ``Formula.__hash__`` or ``_equal`` call.  Each number keeps its
    signature, one node of that structure and its size as a tree, an int
    summed from the kids'; no text is built (``_sort_keys`` prints the
    nodes when an order is asked for).  The walk is an explicit post-order,
    so nesting depth is bounded by memory rather than by the interpreter's
    recursion limit.
    """

    __slots__ = ("by_id", "index", "sigs", "nodes", "sizes")

    def __init__(self):
        self.by_id: dict[int, int] = {}
        self.index: dict[tuple, int] = {}
        self.sigs: list[tuple] = []
        self.nodes: list[Formula] = []
        self.sizes: list[int] = []

    def copy(self) -> _Nodes:
        new = _Nodes.__new__(_Nodes)
        new.by_id = self.by_id.copy()
        new.index = self.index.copy()
        new.sigs = self.sigs.copy()
        new.nodes = self.nodes.copy()
        new.sizes = self.sizes.copy()
        return new

    def add(self, f: Formula) -> int:
        """The number of f, numbering every node under it not seen yet.
        The stack is a path from f down, one unnumbered kid pushed at a
        time, so each object is entered once."""
        by_id, index, sigs = self.by_id, self.index, self.sigs
        nodes, sizes = self.nodes, self.sizes
        number, arity = by_id.get, _ARITY.get
        stack = [f]
        while stack:
            g = stack[-1]
            t = type(g)
            a = arity(t)
            if a == 1:
                k = number(id(g.operand))
                if k is None:
                    stack.append(g.operand)
                    continue
                sig, size = (t, k), sizes[k] + 1
            elif a == 2:
                left = number(id(g.left))
                if left is None:
                    stack.append(g.left)
                    continue
                right = number(id(g.right))
                if right is None:
                    stack.append(g.right)
                    continue
                sig, size = (t, left, right), sizes[left] + sizes[right] + 1
            elif t is Prop:
                sig, size = (Prop, g.name), 1
            elif t is TrueConst:
                sig, size = (TrueConst,), 1
            else:
                raise TypeError(f"not a formula node: {g!r}")
            n = index.get(sig)
            if n is None:
                n = index[sig] = len(sigs)
                sigs.append(sig)
                nodes.append(g)
                sizes.append(size)
            by_id[id(g)] = n
            stack.pop()
        return by_id[id(f)]

    def unary(self, t: type, k: int) -> int:
        """The number of the node of type t over node k, built if the
        structure is new."""
        sig = (t, k)
        n = self.index.get(sig)
        if n is None:
            n = self.index[sig] = len(self.sigs)
            self.sigs.append(sig)
            self.nodes.append(t(self.nodes[k]))
            self.sizes.append(self.sizes[k] + 1)
        return n


def _sort_keys(nodes: _Nodes) -> list[tuple[int, str]]:
    """The (size, printed text) key of every node, by number: one pass over
    the signatures, kids first, each text made once from its kids'.  This
    is the one place ``_PRINT_PARTS`` becomes text."""
    texts: list[str] = []
    for sig in nodes.sigs:
        t = sig[0]
        if t is Prop:
            texts.append(sig[1])
        elif t is TrueConst:
            texts.append("true")
        else:
            before, mid, after = _PRINT_PARTS[t]
            if len(sig) == 2:
                texts.append(before + texts[sig[1]] + after)
            else:
                texts.append(before + texts[sig[1]] + mid + texts[sig[2]]
                             + after)
    return list(zip(nodes.sizes, texts))


def print_formula(f: Formula) -> str:
    return formula_sort_key(f)[1]


# ---------------------------------------------------------------------------
# Parser.  Grammar (ASCII, whitespace-insensitive between tokens):
#
#   formula := iff
#   iff     := imp ('<->' imp)*            left associative
#   imp     := or ('->' imp)?              right associative
#   or      := and ('|' and)*
#   and     := until ('&' until)*
#   until   := unary (('U' | 'Ua') until)? right associative
#   unary   := ('!'|'X'|'N'|'F'|'G'|'Xa'|'Na'|'Fa'|'Ga') unary | atom
#   atom    := 'true' | 'false' | ident | '(' formula ')'
#   ident   := [a-z_][a-z0-9_]*   (ASCII, excluding the reserved words)
#
# call, ret and int are ordinary identifiers.  parse_formula reads the
# binary levels from one table of binding powers, not a rule per level.

_WORD_OPS = frozenset({"U", "Ua", "X", "N", "F", "G", "Xa", "Na", "Fa", "Ga"})
_ABSTRACT_OPS = frozenset({"Ua", "Xa", "Na", "Fa", "Ga"})
_RESERVED = frozenset({"true", "false"})
# A proposition name, in formulas, trace files and campaign alphabets.
_IDENT_RE = re.compile(r"[a-z_][a-z0-9_]*\Z")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()!&|":
            toks.append((c, c, i)); i += 1
        elif text.startswith("<->", i):
            toks.append(("<->", "<->", i)); i += 3
        elif text.startswith("->", i):
            toks.append(("->", "->", i)); i += 2
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in _RESERVED:
                toks.append(("const", word, i))
            elif word in _WORD_OPS:
                toks.append(("op", word, i))
            elif _IDENT_RE.match(word):
                toks.append(("ident", word, i))
            elif _IDENT_RE.match(c):
                raise ParseError(f"bad identifier {word!r}", i)
            else:
                raise ParseError(f"unknown word {word!r}", i)
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("eof", "", n))
    return toks


_UNARY_BUILDERS = {
    "!": Not,
    "X": WeakNext,
    "N": strong_next,
    "F": eventually,
    "G": always,
    "Xa": AbsWeakNext,
    "Na": abs_strong_next,
    "Fa": abs_eventually,
    "Ga": abs_always,
}

# binding power, right associative, builder
_BINARY_OPS = {
    "<->": (1, False, iff),
    "->": (2, True, implies),
    "|": (3, False, lor),
    "&": (4, False, And),
    "U": (5, True, Until),
    "Ua": (5, True, AbsUntil),
}


def parse_formula(text: str, mode: str = "ltl") -> Formula:
    """Parse concrete syntax into a desugared core formula.

    mode 'ltl' rejects the abstract operators; mode 'caret' admits them.
    One loop reads the tokens by precedence climbing (Pratt, "Top down
    operator precedence", 1973) on an explicit stack of open parentheses
    (None), prefix operators (their builders) and binary operators with
    their left operands, so nesting depth is bounded by memory rather than
    by the interpreter's recursion limit.
    """
    if mode not in ("ltl", "caret"):
        raise ValueError(f"unknown mode {mode!r}")
    stack: list = []
    f = None  # the operand just read; None while one is awaited
    for kind, word, at in _tokenize(text):
        if f is None:
            if kind == "ident":
                f = Prop(word)
            elif kind == "const":
                f = TRUE if word == "true" else FALSE
            elif kind == "(":
                stack.append(None)
            elif word in _UNARY_BUILDERS:
                if mode == "ltl" and word in _ABSTRACT_OPS:
                    raise ParseError(
                        f"abstract operator {word!r} requires caret mode", at)
                stack.append(_UNARY_BUILDERS[word])
            elif kind == "op":
                raise ParseError(f"{word!r} needs a left operand", at)
            else:
                raise ParseError(f"unexpected token {word!r}", at)
            continue
        # an operand is read: apply what binds it tighter than this token
        power, right, build = _BINARY_OPS.get(word, (0, False, None))
        while stack and stack[-1] is not None:
            top = stack[-1]
            if type(top) is not tuple:
                f = top(f)  # a prefix operator binds tighter than any binary
            elif top[0] > power or top[0] == power and not top[1]:
                f = top[2](top[3], f)
            else:
                break
            stack.pop()
        if build is not None:
            if mode == "ltl" and word in _ABSTRACT_OPS:
                raise ParseError(
                    f"abstract operator {word!r} requires caret mode", at)
            stack.append((power, right, build, f))
            f = None
        elif kind == ")" and stack:
            stack.pop()
        elif stack:
            raise ParseError(f"expected ')', found {word!r}", at)
        elif kind != "eof":
            raise ParseError(f"trailing input {word!r}", at)
    return f


# ---------------------------------------------------------------------------
# Closure sets.

# The decider's trace classes, its default closure cap and its refusal live
# here, beside the closure they bound, so that naming them (as the CLI's
# parser does) does not import the decider; ``tableau`` re-exports them.
CLASSES = ("gen", "fin", "inf")
DEFAULT_CLOSURE_CAP = 24


class ClosureCapError(Exception):
    """The closure exceeded the configured size cap, or its atoms need more
    than ``tableau.MAX_FREE_BITS`` free bits."""


# The proof systems' ids and the proof checker's two error types live here
# for the same reason: naming them (as the CLI's parser and error handler
# do) does not import ``proof``, a module that only check-proof, axioms and
# fuzz load; ``proof`` re-exports them.
SYSTEM_IDS = ("ax", "ax-gen", "ax-inf", "ax-fin", "ax-cr")


class ProofError(Exception):
    """A malformed proof obligation: bad schema, parameter or binding."""


class ProofFormatError(Exception):
    """A proof file that does not parse."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# The evaluator's error lives here too, so that the CLI's error handler does
# not import ``semantics``, which only eval loads; ``semantics`` re-exports it.
class EvalError(Exception):
    """A position outside a finite trace, a trace of the wrong kind, or an
    abstract operator on a trace without call/return tags."""


# The package's value records share this base, here because every module
# that defines one imports syntax; _set is what a record's __init__ sets its
# fields with, past the record's own __setattr__.
_set = object.__setattr__


class _Record:
    """A frozen value record, as a frozen dataclass is, without the import
    of ``dataclasses`` or the class creation it costs a cold CLI call.

    A subclass names its fields in ``_fields`` (its slots, as a rule) and
    sets them in its own ``__init__`` with ``_set``.  A
    record compares and hashes as the tuple of its fields, within one type
    only, prints as ``Type(field=value, ...)``, and refuses assignment and
    deletion with ``dataclasses.FrozenInstanceError``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "{}({})".format(type(self).__qualname__, ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields))

    def __reduce__(self):
        # copy and pickle rebuild a record through its constructor
        return type(self), self._values()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class ClosureSet:
    """The signed closure of a formula.

    ``core`` is the closure proper; ``members`` is core plus the negation of
    every core member, with single-negation collapse when pairing.  Both are
    tuples in deterministic (size, text) order.  Members are interned by
    structure: structurally equal subterms of the origin are one member.
    ``size`` is len(members) and ``size_bound`` records the linear bound on
    it guaranteed at construction.  A closure built by hand passes its core
    and members.

    ``numbering`` is the core's numbering: the signature of each
    ``core[i]``, its type and its kids' core positions (a proposition's is
    ``(Prop, name)``), and the origin's position.  Kids are core members
    and come first.

    ``closure`` passes its ``walk`` instead: the ``_Nodes`` it numbered,
    every one of which is a core member, the origin's number and ``size``,
    counted on node numbers.  The decider runs on that numbering as it is,
    so a decision sorts and prints nothing until a search orders atoms.
    ``core`` and ``numbering`` are built on first read from one
    ``_sort_keys`` pass and one sort, and ``members`` from another on a
    copy of the walk; ``member_set`` follows ``members``.  A closure built
    by hand is numbered on first use.
    """

    __slots__ = ("origin", "mode", "size", "size_bound", "_core", "_members",
                 "_member_set", "_numbering", "_walk", "_order")

    def __init__(self, origin, mode, core, members, size_bound, walk=None):
        self.origin = origin
        self.mode = mode
        self.size_bound = size_bound
        self._core, self._members = core, members
        self._walk = walk
        self.size = len(members) if walk is None else walk[2]
        self._member_set = self._numbering = self._order = None

    @property
    def core(self) -> tuple[Formula, ...]:
        if self._core is None:
            self._core = tuple(map(self._walk[0].nodes.__getitem__,
                                   self._core_order()))
        return self._core

    @property
    def members(self) -> tuple[Formula, ...]:
        if self._members is None:
            nodes = self._walk[0].copy()
            signed = _signed(nodes, range(len(nodes.sigs)))
            key = _sort_keys(nodes).__getitem__
            self._members = tuple(map(nodes.nodes.__getitem__,
                                      sorted(signed, key=key)))
        return self._members

    @property
    def member_set(self) -> frozenset[Formula]:
        if self._member_set is None:
            self._member_set = frozenset(self.members)
        return self._member_set

    @property
    def numbering(self) -> tuple[tuple[tuple, ...], int]:
        if self._numbering is None:
            if self._walk is None:
                nodes = _Nodes()
                self._numbering = _core_numbering(
                    nodes.sigs, [nodes.add(m) for m in self.core],
                    nodes.add(self.origin))
            else:
                nodes, root, _ = self._walk
                self._numbering = _core_numbering(
                    nodes.sigs, self._core_order(), root)
        return self._numbering

    def _decider_numbering(self):
        """What the decider runs on: nodes, their signatures and the
        origin's number, kids first.  That is the walk for ``closure``'s
        own closures, and the core's numbering for one built by hand."""
        if self._walk is None:
            sigs, root = self.numbering
            return self.core, sigs, root
        nodes, root, _ = self._walk
        return nodes.nodes, nodes.sigs, root

    def _core_order(self):
        """The numbers of ``_decider_numbering`` in core order, sorted by
        one key pass over the walk on first use."""
        if self._walk is None:
            return range(len(self.core))
        if self._order is None:
            nodes = self._walk[0]
            self._order = sorted(range(len(nodes.sigs)),
                                 key=_sort_keys(nodes).__getitem__)
        return self._order

    def __contains__(self, f: Formula) -> bool:
        return f in self.member_set

    def __repr__(self):
        return (f"ClosureSet(origin={print_formula(self.origin)!r}, "
                f"mode={self.mode!r}, members={self.size})")


def _core_numbering(sigs: list[tuple], core: list[int], root: int):
    """The signatures of the core's nodes, in core order, with their kids'
    node numbers turned into core positions, and the root's position."""
    at = {n: i for i, n in enumerate(core)}
    out = []
    for s in map(sigs.__getitem__, core):
        if len(s) == 3:
            s = (s[0], at[s[1]], at[s[2]])
        elif len(s) == 2 and s[0] is not Prop:
            s = (s[0], at[s[1]])
        out.append(s)
    return tuple(out), at[root]


def _close(nodes: _Nodes, start: int, mode: str) -> int:
    """Close the nodes numbered from ``start`` on, in one pass over them:
    the rules run on numbers and append each product the walk does not
    hold yet, kids first, and the pass reaches it in its turn, so every
    numbered node is a core member.  Returns how far the pass's negations
    shrink the signed closure below twice the core: one per negation, and
    one more per negation of a non-negation, which is both a core member
    and a member's negation."""
    sigs, make = nodes.sigs, nodes.unary
    negations = 0
    i = start
    while i < len(sigs):
        sig = sigs[i]
        t = sig[0]
        if t is Not:
            negations += 1 if sigs[sig[1]][0] is Not else 2
        elif t is WeakNext:
            if sigs[sig[1]][0] is Not:
                make(WeakNext, sigs[sig[1]][1])
        elif t is Until:
            make(Not, make(WeakNext, make(Not, i)))
        elif mode == "ltl" and t in (AbsWeakNext, AbsUntil):
            raise ValueError(
                "formula uses abstract operators; closure needs caret mode")
        elif t is AbsWeakNext:
            if sigs[sig[1]][0] is Not:
                make(AbsWeakNext, sigs[sig[1]][1])
        elif t is AbsUntil:
            make(Not, make(AbsWeakNext, make(Not, i)))
        i += 1
    return negations


def _signed(nodes: _Nodes, core) -> set[int]:
    """Core and the negation of each member; the negation of a Not is its
    operand, which the core holds."""
    sigs, make = nodes.sigs, nodes.unary
    return set(core).union([make(Not, n) for n in core
                            if sigs[n][0] is not Not])


# Every closure holds the closure of its seed, the finiteness until over the
# terminal marker, so that part is numbered and closed once, here, and each
# closure starts from a copy of these nodes: the constant true and both
# markers keep their numbers in every walk.  Each seed object it knows by
# id() is also the node it keeps for its structure, so no id can be reused
# while the copies look it up.
_SEED_NODES = _Nodes()
_SEED_NODES.add(Until(TRUE, WeakNext(FALSE)))
_SEED_NEGATIONS = _close(_SEED_NODES, 0, "ltl")


def closure(f: Formula, mode: str = "ltl") -> ClosureSet:
    """Smallest set containing f that is closed under the closure rules.

    Rules: the seed until-to-a-terminal formula is always included; negations
    expose their operand; conjunctions their conjuncts; a weak next exposes
    its operand, and a weak next of a negation also yields the weak next of
    the unnegated operand; an until yields both operands plus its own
    strong-next unfolding (stored desugared).  In caret mode the last two
    rules are mirrored for the abstract operators.

    One post-order walk numbers every distinct node of f by structure
    (``_Nodes``), on a copy of the seed's numbered closure, and keeps tree
    sizes as ints.  Every node of f is a core member, so one pass over the
    numbered nodes runs the rules, on numbers, and appends each member
    neither f nor the seed's closure holds; the same pass counts the size
    of the signed closure.  No text is built and nothing is sorted: the
    walk is the closure's, and the sorted core, its numbering and the
    members wait for their first read.
    """
    if mode not in ("ltl", "caret"):
        raise ValueError(f"unknown mode {mode!r}")

    nodes = _SEED_NODES.copy()
    start = len(nodes.sigs)
    root = nodes.add(f)
    negations = _SEED_NEGATIONS + _close(nodes, start, mode)
    size = 2 * len(nodes.sigs) - negations
    return ClosureSet(f, mode, None, None, 8 * nodes.sizes[root] + 20,
                      (nodes, root, size))
