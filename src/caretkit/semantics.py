"""Evaluation of formulas on traces.

Truth values are computed bottom-up per subformula as integer bitmasks over
the canonical positions of the trace (bit i = truth at canonical position i).
Weak next on a finite trace is vacuously true at the last state; until is the
least fixpoint of its strong-next unfolding, settled for all positions at
once by parallel-prefix doubling in about log2 n rounds of whole-mask
operations.  A lasso needs only one extra copy of its loop for that, because
any satisfied until has a witness at most one canonical round away.

Abstract operators read the abstract successor map of a structured lasso,
built at canonical positions by the one call/return pass that also gives
trace.matching_return its distances; this is sound because a suffix of the
trace starting inside the loop recurs verbatim one loop later, so both
truth and the abstract successor are periodic there.  The map is a
function, so an abstract until is settled by one memoised walk along it
that visits every position once.  Masks go to and from per-position digit
strings in one conversion each, so the abstract operators take time linear
in the trace length.

Each operator's mask semantics is defined once, in EvalContext.apply, from
the masks of its operands.  truth_mask folds a formula through it
(syntax._fold: kids first, on an explicit stack, so no nesting depth
overflows the interpreter), and the soundness campaigns call it on the steps
of their drawn bindings and of a compiled axiom schema, whose only
constants are leaves, so they evaluate an instance without building it.

Every context starts from a trace's masks: its shape, its propositions'
masks and, on a structured lasso, the tag of each position
(trace._Trace.masks).  EvalContext(trace) reads the ones the trace made
once, and its call/return pass; EvalContext.from_masks is handed them, as
the soundness campaigns do with the masks they draw, and runs the pass
itself (trace._tag_pass) when an abstract operator needs it.
"""

from __future__ import annotations

from functools import partial

from .syntax import (
    AbsUntil, AbsWeakNext, And, EvalError, Formula, Not, Prop, TrueConst,
    Until, WeakNext, _fold,
)
# abstract_successor stays bound here, unused, because the benchmark's
# traced run (perfbench/tracer.py) wraps it under this name.
from .trace import (
    FiniteTrace, LassoTrace, StructuredLassoTrace, _mask, _return_pass,
    _tag_pass, _Trace, abstract_successor,
)

__all__ = ["EvalContext", "EvalError", "eval_ltl", "eval_caret", "eval_everywhere"]


class EvalContext:
    """Truth-mask evaluator for one trace, memoised per subformula."""

    def __init__(self, trace):
        if not isinstance(trace, _Trace):
            raise TypeError(f"not a trace: {trace!r}")
        self._start(*trace.masks(), partial(_return_pass, trace))
        self.trace = trace

    @classmethod
    def from_masks(cls, n: int, prefix_len: int, props: dict[str, int],
                   tags: list | None = None):
        """A context for the trace of n canonical positions, with its loop
        from prefix_len on (finite if prefix_len == n), whose proposition
        masks are props, every other name false.  A structured lasso also
        gives the StateTag of each position, and its tag names' masks in
        props.  No trace object is built: trace is None."""
        ctx = cls.__new__(cls)
        ctx._start(n, prefix_len, props, tags,
                   partial(_tag_pass, tags, prefix_len))
        ctx.trace = None
        return ctx

    def _start(self, n, prefix_len, props, tags, tag_pass):
        """Every context's start: a trace's masks (_Trace.masks), and a
        function giving its call/return pass when an abstract operator asks."""
        self.n = n
        self.prefix_len = prefix_len
        self.finite = prefix_len == n
        self.structured = tags is not None
        self.full = (1 << n) - 1
        self._memo: dict[Formula, int] = {}
        self._props: dict[str, int] = props
        self._tag_pass = tag_pass
        self._succ = None

    # -- successor plumbing --------------------------------------------------

    def _weak_next(self, v: int) -> int:
        if self.finite:
            return (v >> 1) | (1 << (self.n - 1))
        p = self.prefix_len
        return (v >> 1) | (((v >> p) & 1) << (self.n - 1))

    def _until(self, a: int, b: int) -> int:
        """Least fixpoint of u = b | (a & strong next u), by parallel-prefix
        doubling (Kogge & Stone, 1973).

        Before the round with step k, b holds at i where some j in
        [i, i + k) has b and a holds throughout [i, j), and a holds at i
        where a holds throughout [i, i + k).  Positions past the end hold
        neither, so a empties after about log2 n rounds; then every window
        reaches a position without a, past which no witness counts, and b
        is exact.  A lasso first gets one copy of its loop above the last
        state: from a loop position the first witness, if any, lies within
        one turn of the loop.
        """
        if not self.finite:
            p, n = self.prefix_len, self.n
            a |= (a >> p) << n
            b |= (b >> p) << n
        k = 1
        while a:
            b |= a & (b >> k)
            a &= a >> k
            k <<= 1
        return b & self.full

    def _bits(self, v: int) -> str:
        """Truth per canonical position as '0'/'1', position 0 first."""
        return format(v, f"0{self.n}b")[::-1]

    def _weak_abs_next(self, v: int) -> int:
        bits = self._bits(v)
        return _mask([j is None or bits[j] == "1" for j in self._successors()])

    def _abs_until(self, a: int, b: int) -> int:
        """Least fixpoint of u = b | (a & strong abstract next u).

        From each undecided position the walk follows abstract successors
        while they hold a and not b.  It stops at a decided position, at b
        (true), at not a, an undefined successor or a position already on
        its own path (false: a cycle without b), and the whole path takes
        that value, so every position is visited once.
        """
        succ = self._successors()
        # 1 true, 0 false, -1 undecided
        val = [1 if y == "1" else -1 if x == "1" else 0
               for x, y in zip(self._bits(a), self._bits(b))]
        for i in range(self.n):
            path = []
            j = i
            while j is not None and val[j] == -1:
                val[j] = -2  # on the current path
                path.append(j)
                j = succ[j]
            hit = int(j is not None and val[j] == 1)
            for k in path:
                val[k] = hit
        return _mask([x == 1 for x in val])

    def _successors(self) -> tuple:
        """The canonical abstract successor of every canonical position."""
        if self._succ is None:
            self._succ = self._tag_pass()[1]
        return self._succ

    # -- evaluation ----------------------------------------------------------

    def apply(self, t: type, a: int, b: int | None = None) -> int:
        """The mask of a node of type t whose operands have masks a (and b):
        the one definition of each operator's semantics."""
        if t is Not:
            return self.full ^ a
        if t is And:
            return a & b
        if t is WeakNext:
            return self._weak_next(a)
        if t is Until:
            return self._until(a, b)
        if t is AbsWeakNext:
            self._need_structured()
            return self._weak_abs_next(a)
        if t is AbsUntil:
            self._need_structured()
            return self._abs_until(a, b)
        raise TypeError(f"not an operator: {t!r}")

    def _leaf(self, f: Formula) -> int:
        if type(f) is Prop:
            return self._props.get(f.name, 0)
        if type(f) is TrueConst:
            return self.full
        raise TypeError(f"not a formula node: {f!r}")

    def truth_mask(self, f: Formula) -> int:
        return _fold(f, self._memo, self._leaf, self.apply)

    def _need_structured(self):
        if not self.structured:
            raise EvalError("abstract operators need a structured trace")

    def holds(self, f: Formula, i: int) -> bool:
        if self.finite and not 0 <= i < self.n:
            raise EvalError(f"position {i} outside finite trace of length {self.n}")
        if i < 0:
            raise EvalError(f"negative position {i}")
        p = self.prefix_len
        c = i if i < p else p + (i - p) % (self.n - p)
        return bool((self.truth_mask(f) >> c) & 1)

    def holds_everywhere(self, f: Formula) -> bool:
        return self.truth_mask(f) == self.full


def eval_ltl(t: FiniteTrace | LassoTrace, i: int, f: Formula) -> bool:
    """Truth of an abstract-operator-free formula at position i of t."""
    if isinstance(t, StructuredLassoTrace):
        raise EvalError("structured traces are evaluated with --mode caret"
                        " (eval_caret in Python)")
    if not isinstance(t, (FiniteTrace, LassoTrace)):
        raise TypeError(f"not a trace: {t!r}")
    return EvalContext(t).holds(f, i)


def eval_caret(t: StructuredLassoTrace, i: int, f: Formula) -> bool:
    """Truth at position i of a structured lasso.

    call, ret and int are true at a state when they equal its tag, in
    addition to any explicit labelling.
    """
    if not isinstance(t, StructuredLassoTrace):
        raise EvalError("--mode caret needs a structured trace"
                        " (eval_caret in Python)")
    return EvalContext(t).holds(f, i)


def eval_everywhere(t, f: Formula) -> bool:
    """Truth of f at every position of the trace."""
    if not isinstance(t, (FiniteTrace, LassoTrace, StructuredLassoTrace)):
        raise TypeError(f"not a trace: {t!r}")
    return EvalContext(t).holds_everywhere(f)
