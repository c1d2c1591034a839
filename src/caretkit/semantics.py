"""Evaluation of formulas on traces.

Truth values are computed bottom-up per subformula as integer bitmasks over
the canonical positions of the trace (bit i = truth at canonical position i).
Weak next on a finite trace is vacuously true at the last state; until is the
least fixpoint of its strong-next unfolding, which converges within one pass
per canonical position because any satisfied until has a witness at most one
canonical round away.

Abstract operators read the abstract successor map of a structured lasso,
built once per context at canonical positions by one call/return stack pass
(trace.abstract_successor_map); this is sound because a suffix of the trace
starting inside the loop recurs verbatim one loop later, so both truth and
the abstract successor are periodic there.  The map is a function, so an
abstract until is settled by one memoised walk along it that visits every
position once.  Masks go to and from per-position digit strings in one conversion
each, so the abstract operators take time linear in the trace length.
"""

from __future__ import annotations

from .syntax import (
    AbsUntil, AbsWeakNext, And, Formula, Not, Prop, TrueConst, Until, WeakNext,
)
# abstract_successor stays bound here, unused, because the benchmark's
# traced run (perfbench/tracer.py) wraps it under this name.
from .trace import (
    FiniteTrace, LassoTrace, StructuredLassoTrace, abstract_successor,
    abstract_successor_map,
)

__all__ = ["EvalContext", "EvalError", "eval_ltl", "eval_caret", "eval_everywhere"]


class EvalError(Exception):
    pass


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _mask(flags: list[bool]) -> int:
    """The bitmask with bit i set where flags[i] is true."""
    return int(bytes(flags[::-1]).translate(_DIGITS), 2)


class EvalContext:
    """Truth-mask evaluator for one trace, memoised per subformula."""

    def __init__(self, trace):
        self.trace = trace
        if isinstance(trace, FiniteTrace):
            self._states = trace.states
            self.finite = True
            self.structured = False
        elif isinstance(trace, LassoTrace):
            self._states = trace.prefix + trace.loop
            self.finite = False
            self.structured = False
        elif isinstance(trace, StructuredLassoTrace):
            self._states = trace.prefix + trace.loop
            self.finite = False
            self.structured = True
        else:
            raise TypeError(f"not a trace: {trace!r}")
        self.n = len(self._states)
        self.full = (1 << self.n) - 1
        self._memo: dict[Formula, int] = {}
        self._props: dict[str, int] = {}
        self._asucc: list[int | None] | None = None

    # -- successor plumbing --------------------------------------------------

    def _weak_next(self, v: int) -> int:
        if self.finite:
            return (v >> 1) | (1 << (self.n - 1))
        p = self.trace.prefix_len
        return (v >> 1) | (((v >> p) & 1) << (self.n - 1))

    def _strong_next(self, v: int) -> int:
        if self.finite:
            return v >> 1
        p = self.trace.prefix_len
        return (v >> 1) | (((v >> p) & 1) << (self.n - 1))

    def _bits(self, v: int) -> str:
        """Truth per canonical position as '0'/'1', position 0 first."""
        return format(v, f"0{self.n}b")[::-1]

    def _abs_map(self) -> list[int | None]:
        if self._asucc is None:
            self._asucc = abstract_successor_map(self.trace)
        return self._asucc

    def _weak_abs_next(self, v: int) -> int:
        bits = self._bits(v)
        return _mask([j is None or bits[j] == "1" for j in self._abs_map()])

    def _abs_until(self, a: int, b: int) -> int:
        """Least fixpoint of u = b | (a & strong abstract next u).

        From each undecided position the walk follows abstract successors
        while they hold a and not b.  It stops at a decided position, at b
        (true), at not a, an undefined successor or a position already on
        its own path (false: a cycle without b), and the whole path takes
        that value, so every position is visited once.
        """
        succ = self._abs_map()
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

    def _prop_mask(self, name: str) -> int:
        m = self._props.get(name)
        if m is None:
            if self.structured:
                m = _mask([name in props or name == tag.value
                           for props, tag in self._states])
            else:
                m = _mask([name in props for props in self._states])
            self._props[name] = m
        return m

    # -- evaluation ----------------------------------------------------------

    def truth_mask(self, f: Formula) -> int:
        m = self._memo.get(f)
        if m is not None:
            return m
        t = type(f)
        if t is Prop:
            m = self._prop_mask(f.name)
        elif t is TrueConst:
            m = self.full
        elif t is Not:
            m = self.full ^ self.truth_mask(f.operand)
        elif t is And:
            m = self.truth_mask(f.left) & self.truth_mask(f.right)
        elif t is WeakNext:
            m = self._weak_next(self.truth_mask(f.operand))
        elif t is Until:
            m = self._lfp(self.truth_mask(f.left), self.truth_mask(f.right),
                          self._strong_next)
        elif t is AbsWeakNext:
            self._need_structured()
            m = self._weak_abs_next(self.truth_mask(f.operand))
        elif t is AbsUntil:
            self._need_structured()
            m = self._abs_until(self.truth_mask(f.left),
                                self.truth_mask(f.right))
        else:
            raise TypeError(f"not a formula node: {f!r}")
        self._memo[f] = m
        return m

    @staticmethod
    def _lfp(a: int, b: int, step) -> int:
        u = b
        while True:
            nu = b | (a & step(u))
            if nu == u:
                return u
            u = nu

    def _need_structured(self):
        if not self.structured:
            raise EvalError("abstract operators need a structured trace")

    def holds(self, f: Formula, i: int) -> bool:
        if self.finite:
            if not 0 <= i < self.n:
                raise EvalError(f"position {i} outside finite trace of length {self.n}")
            c = i
        else:
            if i < 0:
                raise EvalError(f"negative position {i}")
            c = self.trace.canonical(i)
        return bool((self.truth_mask(f) >> c) & 1)

    def holds_everywhere(self, f: Formula) -> bool:
        return self.truth_mask(f) == self.full


def eval_ltl(t: FiniteTrace | LassoTrace, i: int, f: Formula) -> bool:
    """Truth of an abstract-operator-free formula at position i of t."""
    if isinstance(t, StructuredLassoTrace):
        raise EvalError("structured traces are evaluated with eval_caret")
    if not isinstance(t, (FiniteTrace, LassoTrace)):
        raise TypeError(f"not a trace: {t!r}")
    return EvalContext(t).holds(f, i)


def eval_caret(t: StructuredLassoTrace, i: int, f: Formula) -> bool:
    """Truth at position i of a structured lasso.

    call, ret and int are true at a state when they equal its tag, in
    addition to any explicit labelling.
    """
    if not isinstance(t, StructuredLassoTrace):
        raise EvalError("eval_caret needs a structured trace")
    return EvalContext(t).holds(f, i)


def eval_everywhere(t, f: Formula) -> bool:
    """Truth of f at every position of the trace."""
    if not isinstance(t, (FiniteTrace, LassoTrace, StructuredLassoTrace)):
        raise TypeError(f"not a trace: {t!r}")
    return EvalContext(t).holds_everywhere(f)
