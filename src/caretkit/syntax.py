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
    return nodes.keys[nodes.add(f)]


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


class _Nodes:
    """Distinct nodes numbered by structure, each with its sort key.

    A node's signature is its type and its kids' numbers (a proposition's
    is ``(Prop, name)``), and interning the signature gives the number, so
    structurally equal subterms share a number even when they are distinct
    objects.  Input objects are looked up by ``id()``: numbering makes no
    ``Formula.__hash__`` or ``_equal`` call.  Each number keeps its
    signature, one node of that structure and its (size, printed text) key,
    computed once from the kids' keys as the node gets its number; that is
    the one place ``_PRINT_PARTS`` becomes text.  The walk is an explicit
    post-order, so nesting depth is bounded by memory rather than by the
    interpreter's recursion limit.
    """

    __slots__ = ("by_id", "index", "sigs", "nodes", "keys")

    def __init__(self):
        self.by_id: dict[int, int] = {}
        self.index: dict[tuple, int] = {}
        self.sigs: list[tuple] = []
        self.nodes: list[Formula] = []
        self.keys: list[tuple[int, str]] = []

    def copy(self) -> _Nodes:
        new = _Nodes.__new__(_Nodes)
        new.by_id = self.by_id.copy()
        new.index = self.index.copy()
        new.sigs = self.sigs.copy()
        new.nodes = self.nodes.copy()
        new.keys = self.keys.copy()
        return new

    def add(self, f: Formula) -> int:
        """The number of f, numbering every node under it not seen yet."""
        by_id = self.by_id
        stack = [f]
        while stack:
            g = stack[-1]
            if id(g) in by_id:
                stack.pop()
                continue
            t = type(g)
            if t is Prop:
                n = self._leaf((Prop, g.name), g, g.name)
            elif t is TrueConst:
                n = self._leaf((TrueConst,), g, "true")
            elif t not in _PRINT_PARTS:
                raise TypeError(f"not a formula node: {g!r}")
            elif isinstance(g, _Unary):
                k = by_id.get(id(g.operand))
                if k is None:
                    stack.append(g.operand)
                    continue
                n = self.unary(t, k, g)
            else:
                left = by_id.get(id(g.left))
                right = by_id.get(id(g.right))
                if left is None or right is None:
                    stack.append(g.left)
                    stack.append(g.right)
                    continue
                n = self.binary(t, left, right, g)
            by_id[id(g)] = n
            stack.pop()
        return by_id[id(f)]

    # Each constructor below returns the number of the node of its type
    # over the numbered kids.  ``node`` is an object of that structure when
    # the caller holds one; otherwise one is built if the structure is new.

    def _leaf(self, sig: tuple, node: Formula, text: str) -> int:
        n = self.index.get(sig)
        if n is None:
            n = self.index[sig] = len(self.sigs)
            self.sigs.append(sig)
            self.nodes.append(node)
            self.keys.append((1, text))
        return n

    def unary(self, t: type, k: int, node: Formula | None = None) -> int:
        sig = (t, k)
        n = self.index.get(sig)
        if n is None:
            size, text = self.keys[k]
            before, _, after = _PRINT_PARTS[t]
            n = self.index[sig] = len(self.sigs)
            self.sigs.append(sig)
            self.nodes.append(t(self.nodes[k]) if node is None else node)
            self.keys.append((size + 1, before + text + after))
        return n

    def binary(self, t: type, left: int, right: int, node: Formula) -> int:
        sig = (t, left, right)
        n = self.index.get(sig)
        if n is None:
            lsize, ltext = self.keys[left]
            rsize, rtext = self.keys[right]
            before, mid, after = _PRINT_PARTS[t]
            n = self.index[sig] = len(self.sigs)
            self.sigs.append(sig)
            self.nodes.append(node)
            self.keys.append((lsize + rsize + 1,
                              before + ltext + mid + rtext + after))
        return n


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
    structure: structurally equal subterms of the origin are one member,
    and each member's sort key was computed once, as it was numbered.
    ``size`` is len(members) and ``size_bound`` records the linear bound on
    it guaranteed at construction.  ``closure`` sorts only the core and
    counts ``size`` on node numbers, so a decision, which reads the core
    alone, builds no other member: ``members`` is built on first read, and
    ``member_set`` from it.  A closure built by hand passes its members.

    ``numbering`` is the core's numbering, which the decider runs on: the
    signature of each ``core[i]``, its type and its kids' core positions (a
    proposition's is ``(Prop, name)``), and the origin's position.  Kids are
    core members and come first.  ``closure`` reads it off its own walk; a
    closure built by hand is numbered on first use.
    """

    __slots__ = ("origin", "mode", "core", "size", "size_bound", "_members",
                 "_member_set", "_numbering")

    def __init__(self, origin, mode, core, members, size_bound,
                 numbering=None, size=None):
        self.origin = origin
        self.mode = mode
        self.core = core
        # the member tuple, or a function that builds it on first read
        self._members = members
        self.size = len(members) if size is None else size
        self.size_bound = size_bound
        self._member_set = None
        self._numbering = numbering

    @property
    def members(self) -> tuple[Formula, ...]:
        if callable(self._members):
            self._members = self._members()
        return self._members

    @property
    def member_set(self) -> frozenset[Formula]:
        if self._member_set is None:
            self._member_set = frozenset(self.members)
        return self._member_set

    @property
    def numbering(self) -> tuple[tuple[tuple, ...], int]:
        if self._numbering is None:
            nodes = _Nodes()
            self._numbering = _core_numbering(
                nodes.sigs, [nodes.add(m) for m in self.core],
                nodes.add(self.origin))[:2]
        return self._numbering

    def __contains__(self, f: Formula) -> bool:
        return f in self.member_set

    def __repr__(self):
        return (f"ClosureSet(origin={print_formula(self.origin)!r}, "
                f"mode={self.mode!r}, members={self.size})")


def _core_numbering(sigs: list[tuple], core: list[int], root: int):
    """The signatures of the core's nodes, in core order, with their kids'
    node numbers turned into core positions; the root's position; and the
    size of the signed closure, the core with the negation of each core
    member that is no negation: twice the core, less one per negation in
    it, and one more per negation of a non-negation in it, which is both a
    core member and a member's negation."""
    at = {n: i for i, n in enumerate(core)}
    out = []
    negations = 0
    for s in map(sigs.__getitem__, core):
        arity = len(s)
        if arity == 3:
            s = (s[0], at[s[1]], at[s[2]])
        elif arity == 2 and s[0] is Not:
            s = (Not, at[s[1]])
            negations += 1 if out[s[1]][0] is Not else 2
        elif arity == 2 and s[0] is not Prop:
            s = (s[0], at[s[1]])
        out.append(s)
    return tuple(out), at[root], 2 * len(core) - negations


def _close(nodes: _Nodes, core: set[int], stack: list[int], mode: str) -> None:
    """Grow core, a set of node numbers, by the closure of the stack's
    nodes: the rules run on numbers, and ``nodes`` builds a node only for a
    structure it does not hold yet."""
    sigs, make = nodes.sigs, nodes.unary
    while stack:
        n = stack.pop()
        if n in core:
            continue
        core.add(n)
        sig = sigs[n]
        t = sig[0]
        if t is Not:
            stack.append(sig[1])
        elif t is And:
            stack.append(sig[1])
            stack.append(sig[2])
        elif t is WeakNext:
            stack.append(sig[1])
            if sigs[sig[1]][0] is Not:
                stack.append(make(WeakNext, sigs[sig[1]][1]))
        elif t is Until:
            stack.append(sig[1])
            stack.append(sig[2])
            stack.append(make(Not, make(WeakNext, make(Not, n))))
        elif mode == "ltl" and t in (AbsWeakNext, AbsUntil):
            raise ValueError(
                "formula uses abstract operators; closure needs caret mode")
        elif t is AbsWeakNext:
            stack.append(sig[1])
            if sigs[sig[1]][0] is Not:
                stack.append(make(AbsWeakNext, sigs[sig[1]][1]))
        elif t is AbsUntil:
            stack.append(sig[1])
            stack.append(sig[2])
            stack.append(make(Not, make(AbsWeakNext, make(Not, n))))


def _signed(nodes: _Nodes, core: set[int]) -> set[int]:
    """Core and the negation of each member; the negation of a Not is its
    operand, which the core holds."""
    sigs, make = nodes.sigs, nodes.unary
    return core | {make(Not, n) for n in core if sigs[n][0] is not Not}


# Every closure holds the closure of its seed, the finiteness until over the
# terminal marker, so that part is numbered once, here, and each closure
# starts from a copy of these nodes.  Each seed object it knows by id() is
# also the node it keeps for its structure, so no id can be reused while
# the copies look it up.
_SEED_NODES = _Nodes()
_SEED_CORE: set[int] = set()
_close(_SEED_NODES, _SEED_CORE,
       [_SEED_NODES.add(Until(TRUE, WeakNext(FALSE)))], "ltl")


def closure(f: Formula, mode: str = "ltl") -> ClosureSet:
    """Smallest set containing f that is closed under the closure rules.

    Rules: the seed until-to-a-terminal formula is always included; negations
    expose their operand; conjunctions their conjuncts; a weak next exposes
    its operand, and a weak next of a negation also yields the weak next of
    the unnegated operand; an until yields both operands plus its own
    strong-next unfolding (stored desugared).  In caret mode the last two
    rules are mirrored for the abstract operators.

    One post-order walk interns every distinct node of f by structure
    (``_Nodes``), keying each once, on a copy of the seed's numbered
    closure.  The rules run on node numbers, and build a node only for a
    member neither f nor the seed's closure holds; one sort by key gives
    the core, numbered from the walk's signatures, which give the size of
    the signed closure too; the negation pass and the sort of the members
    wait for their first read.
    """
    if mode not in ("ltl", "caret"):
        raise ValueError(f"unknown mode {mode!r}")

    nodes = _SEED_NODES.copy()
    root = nodes.add(f)
    core = _SEED_CORE.copy()
    _close(nodes, core, [root], mode)
    key, at = nodes.keys.__getitem__, nodes.nodes.__getitem__
    core_order = sorted(core, key=key)
    sigs, position, size = _core_numbering(nodes.sigs, core_order, root)

    def members():
        return tuple(map(at, sorted(_signed(nodes, core), key=key)))

    return ClosureSet(f, mode, tuple(map(at, core_order)), members,
                      8 * key(root)[0] + 20, (sigs, position), size)
