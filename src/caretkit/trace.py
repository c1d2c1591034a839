"""Trace types and the call/return matching machinery.

Every trace has one shape: a prefix of states, then a loop repeated
forever.  An empty loop means the trace is finite and ends after its
prefix.  A state is a set of propositions, or on a structured lasso a
(propositions, call/ret/int tag) pair.  FiniteTrace (empty loop), LassoTrace
and StructuredLassoTrace (nonempty loop) are sibling types over that one
shape: their constructors check which traces they accept, and positions are
read the same way on all three.  A finite structured trace is not a
representable object here.  Traces are immutable.

Positions are 0-based.  On a lasso, position i beyond the prefix denotes the
state at offset (i - prefix_len) mod loop_len inside the loop, and every
question about position i can be answered at its canonical position.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

__all__ = [
    "StateTag", "FiniteTrace", "LassoTrace", "StructuredLassoTrace",
    "canonical_position", "matching_return", "abstract_successor",
    "abstract_successor_map", "brute_matching_return", "INCONCLUSIVE",
    "parse_trace", "trace_to_text", "TraceFormatError",
]


class TraceFormatError(Exception):
    """Raised on malformed trace text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class StateTag(enum.Enum):
    CALL = "call"
    RET = "ret"
    INT = "int"


@dataclass(frozen=True, slots=True, weakref_slot=True)
class _Trace:
    """A prefix of states, then a loop repeated forever; finite when the loop
    is empty.  Equality holds within one trace type only."""

    prefix: tuple
    loop: tuple

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)

    @property
    def loop_len(self) -> int:
        return len(self.loop)

    def canonical(self, i: int) -> int:
        p = len(self.prefix)
        if 0 <= i < p:
            return i
        if i < 0:
            raise IndexError(f"negative position {i}")
        if not self.loop:
            raise IndexError(f"position {i} outside trace of length {p}")
        return p + (i - p) % len(self.loop)

    def state_at(self, i: int):
        c = self.canonical(i)
        p = len(self.prefix)
        return self.prefix[c] if c < p else self.loop[c - p]

    def props_at(self, i: int) -> frozenset[str]:
        s = self.state_at(i)
        return s[0] if type(s) is tuple else s


class FiniteTrace(_Trace):
    """A nonempty finite sequence of proposition sets: an empty loop."""

    __slots__ = ()

    def __init__(self, states):
        states = tuple(frozenset(s) for s in states)
        if not states:
            raise ValueError("a finite trace needs at least one state")
        super().__init__(states, ())

    @property
    def states(self) -> tuple[frozenset[str], ...]:
        return self.prefix

    @property
    def length(self) -> int:
        return len(self.prefix)


class LassoTrace(_Trace):
    """An infinite trace: finite prefix followed by a nonempty loop forever."""

    __slots__ = ()

    def __init__(self, prefix, loop):
        prefix = tuple(frozenset(s) for s in prefix)
        loop = tuple(frozenset(s) for s in loop)
        if not loop:
            raise ValueError("a lasso needs a nonempty loop")
        super().__init__(prefix, loop)


class StructuredLassoTrace(_Trace):
    """An infinite lasso whose states are (propositions, tag) pairs."""

    __slots__ = ()

    def __init__(self, prefix, loop):
        prefix = tuple((frozenset(p), StateTag(t)) for p, t in prefix)
        loop = tuple((frozenset(p), StateTag(t)) for p, t in loop)
        if not loop:
            raise ValueError("a structured lasso needs a nonempty loop")
        super().__init__(prefix, loop)

    def tag_at(self, i: int) -> StateTag:
        return self.state_at(i)[1]


def canonical_position(t: LassoTrace | StructuredLassoTrace, i: int) -> int:
    return t.canonical(i)


def matching_return(t: StructuredLassoTrace, i: int) -> int | None:
    """First unmatched return after i, or None when every return is matched.

    The matching return of position i is the smallest j > i tagged ret such
    that the positions strictly between i and j contain equally many calls
    and returns.  The scan tracks the running call/return balance; once it
    has covered one full loop period whose net balance change is >= 0 without
    a hit, later periods repeat the same tags at balances at least as high,
    so no hit can occur and the answer is None.  A negative net change per
    period forces the balance (which never goes below zero before a hit)
    down to a hit within a bounded number of periods.
    """
    if i < 0:
        raise IndexError(f"negative position {i}")
    loop_net = 0
    for _, tag in t.loop:
        if tag is StateTag.CALL:
            loop_net += 1
        elif tag is StateTag.RET:
            loop_net -= 1

    p0 = max(i + 1, t.prefix_len)  # first position of a fully in-loop period
    limit = p0 + t.loop_len if loop_net >= 0 else None
    guard = p0 + t.loop_len * (p0 - i + 2)
    j, bal = i + 1, 0
    while True:
        if limit is not None and j >= limit:
            return None
        if j > guard:
            raise AssertionError("matching_return failed to terminate")
        tag = t.tag_at(j)
        if tag is StateTag.RET:
            if bal == 0:
                return j
            bal -= 1
        elif tag is StateTag.CALL:
            bal += 1
        j += 1


def abstract_successor(t: StructuredLassoTrace, i: int) -> int | None:
    """The abstract successor: the matching return at a call, undefined just
    before a return, the ordinary successor otherwise."""
    if i < 0:
        raise IndexError(f"negative position {i}")
    tag = t.tag_at(i)
    if tag is StateTag.CALL:
        return matching_return(t, i)
    if t.tag_at(i + 1) is StateTag.RET:
        return None
    return i + 1


def abstract_successor_map(t: StructuredLassoTrace) -> list[int | None]:
    """Canonical abstract successor of every canonical position, or None.

    Entry c equals canonical(abstract_successor(t, c)), found in one left to
    right pass over prefix + loop that keeps a stack of open calls; a ret
    pops the top call, which it matches.  Calls still open after the pass
    are placed without unrolling.  Seen on its own the loop has d unmatched
    rets, all before its u calls that stay open (a ret after such a call
    would find a call to match).  So every later loop copy pops the same d
    entries at the same offsets: first the u open calls of the copy before
    it, topmost first, then d - u entries further down when d > u.  With
    d <= u only the top d are ever matched, one copy later; with d > u,
    entry m below the first copy's own calls is matched in copy
    2 + m // (d - u) by unmatched ret u + m % (d - u).  A canonical
    position needs only that ret's offset in the loop.
    """
    p = len(t.prefix)
    tags = [tag for _, tag in t.prefix] + [tag for _, tag in t.loop]
    n = len(tags)
    succ: list[int | None] = [None] * n
    stack: list[int] = []
    for i, tag in enumerate(tags):
        if tag is StateTag.CALL:
            stack.append(i)
            continue
        nxt = i + 1 if i + 1 < n else p
        if tags[nxt] is not StateTag.RET:
            succ[i] = nxt
        if tag is StateTag.RET and stack:
            succ[stack.pop()] = i
    rets: list[int] = []  # the loop's own unmatched rets
    u = 0  # the loop's own open calls
    for i in range(p, n):
        if tags[i] is StateTag.CALL:
            u += 1
        elif tags[i] is StateTag.RET:
            if u:
                u -= 1
            else:
                rets.append(i)
    d = len(rets)
    for m, c in enumerate(reversed(stack)):
        if m < min(u, d):
            succ[c] = rets[m]
        elif d > u:
            succ[c] = rets[u + (m - u) % (d - u)]
        else:
            break
    return succ


INCONCLUSIVE = "inconclusive"


def brute_matching_return(t: StructuredLassoTrace, i: int, bound: int):
    """Literal bounded scan for the matching return.

    Walks positions i+1 .. i+bound left to right applying the definition
    directly, with none of the loop-periodicity reasoning of
    matching_return; returns the position, or INCONCLUSIVE when the bound
    is exhausted.  Kept deliberately naive: it is the oracle the clever
    implementation is tested against.
    """
    if i < 0:
        raise IndexError(f"negative position {i}")
    calls = rets = 0
    for j in range(i + 1, i + bound + 1):
        tag = t.tag_at(j)
        if tag is StateTag.RET and calls == rets:
            return j
        if tag is StateTag.CALL:
            calls += 1
        elif tag is StateTag.RET:
            rets += 1
    return INCONCLUSIVE


# ---------------------------------------------------------------------------
# Text format.  One state per line: an optional @call/@ret/@int tag first,
# then whitespace-separated proposition names, or a lone '-' for the empty
# set.  A line 'loop:' separates prefix from loop; without it the trace is
# finite.  '#' starts a comment.  Tags are all-or-nothing: a tagged state
# anywhere makes the trace structured, and structured traces must have a
# loop.

_IDENT_RE = re.compile(r"[a-z_][a-z0-9_]*\Z")
_TAGS = {"@call": StateTag.CALL, "@ret": StateTag.RET, "@int": StateTag.INT}


def parse_trace(text: str) -> FiniteTrace | LassoTrace | StructuredLassoTrace:
    prefix: list = []
    loop: list = []
    current = prefix
    seen_loop = False
    any_tagged = any_plain = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "loop:":
            if seen_loop:
                raise TraceFormatError("second 'loop:' line", lineno)
            seen_loop = True
            current = loop
            continue
        tokens = line.split()
        tag = None
        if tokens[0] in _TAGS:
            tag = _TAGS[tokens[0]]
            tokens = tokens[1:]
            any_tagged = True
            if not tokens:
                raise TraceFormatError("tagged state needs '-' or propositions", lineno)
        else:
            any_plain = True
        if tokens == ["-"]:
            props: frozenset[str] = frozenset()
        else:
            for tok in tokens:
                if tok == "-":
                    raise TraceFormatError("'-' must stand alone", lineno)
                if not _IDENT_RE.match(tok):
                    raise TraceFormatError(f"bad proposition name {tok!r}", lineno)
            props = frozenset(tokens)
        current.append((props, tag))

    if any_tagged and any_plain:
        raise TraceFormatError("mix of tagged and untagged states", 1)
    if not prefix and not loop:
        raise TraceFormatError("empty trace", 1)
    if seen_loop and not loop:
        raise TraceFormatError("'loop:' with no loop states", 1)

    if any_tagged:
        if not seen_loop:
            raise TraceFormatError("structured traces must have a loop", 1)
        return StructuredLassoTrace(tuple((p, t) for p, t in prefix),
                                    tuple((p, t) for p, t in loop))
    if seen_loop:
        return LassoTrace(tuple(p for p, _ in prefix), tuple(p for p, _ in loop))
    return FiniteTrace(tuple(p for p, _ in prefix))


def _state_line(state) -> str:
    props, tag = state if type(state) is tuple else (state, None)
    body = " ".join(sorted(props)) if props else "-"
    return f"@{tag.value} {body}" if tag is not None else body


def trace_to_text(t: FiniteTrace | LassoTrace | StructuredLassoTrace) -> str:
    """Inverse of parse_trace, with propositions in sorted order."""
    if not isinstance(t, _Trace):
        raise TypeError(f"not a trace: {t!r}")
    lines = [_state_line(s) for s in t.prefix]
    if t.loop:
        lines.append("loop:")
        lines.extend(_state_line(s) for s in t.loop)
    return "\n".join(lines) + "\n"
