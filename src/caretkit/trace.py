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

A trace makes what the evaluator reads of it once, on first use, and keeps
it in slots that equality, hashing and repr ignore: its masks
(_Trace.masks) and, on a structured lasso, the call/return pass over its
tags that matching_return, abstract_successor and abstract_successor_map
read; brute_matching_return is the literal scan that checks the pass.
"""

from __future__ import annotations

import enum

from .syntax import _IDENT_RE, _Record, _set

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


# read per position by _tag_pass: a global loads faster than an enum member
_CALL, _RET = StateTag.CALL, StateTag.RET

_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _mask(flags: list[bool]) -> int:
    """The bitmask with bit i set where flags[i] is true."""
    return int(bytes(flags[::-1]).translate(_DIGITS), 2)


class _Trace(_Record):
    """A prefix of states, then a loop repeated forever; finite when the loop
    is empty.  Equality holds within one trace type only."""

    # _masks and _pass are made on first use and kept, outside the value
    __slots__ = ("prefix", "loop", "_masks", "_pass", "__weakref__")
    _fields = ("prefix", "loop")

    def __init__(self, prefix: tuple, loop: tuple):
        _set(self, "prefix", prefix)
        _set(self, "loop", loop)
        _set(self, "_masks", None)
        _set(self, "_pass", None)

    # on the two fields directly: _Record's generic tuple of fields makes
    # trace equality and hashing two to four times as slow
    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.prefix == other.prefix and self.loop == other.loop

    def __hash__(self):
        return hash((self.prefix, self.loop))

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

    def masks(self) -> tuple[int, int, dict[str, int], list | None]:
        """(n, prefix_len, props, tags): n canonical positions, the loop
        from prefix_len on (none if prefix_len == n), the truth mask of
        every proposition of a state, and on a structured lasso the StateTag
        of each position, its tag names' masks ORed into props; tags is None
        otherwise.  Made once per trace; callers must not change them."""
        if self._masks is None:
            states = self.prefix + self.loop
            tags = None
            if type(self) is StructuredLassoTrace:
                tags = [tag for _, tag in states]
                states = [props for props, _ in states]
            props = {a: _mask([a in s for s in states])
                     for a in frozenset().union(*states)}
            if tags is not None:
                for tag in StateTag:
                    m = _mask([t is tag for t in tags])
                    props[tag.value] = props.get(tag.value, 0) | m
            _set(self, "_masks", (len(states), len(self.prefix), props, tags))
        return self._masks


class FiniteTrace(_Trace):
    """A nonempty finite sequence of proposition sets: an empty loop."""

    __slots__ = ()

    def __init__(self, states):
        states = tuple(frozenset(s) for s in states)
        if not states:
            raise ValueError("a finite trace needs at least one state")
        super().__init__(states, ())

    def __reduce__(self):
        return FiniteTrace, (self.prefix,)

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


def _need_structured(t) -> None:
    if not isinstance(t, StructuredLassoTrace):
        raise TypeError(f"not a structured lasso: {type(t).__name__}")


def _return_pass(t: StructuredLassoTrace) -> tuple[tuple, tuple]:
    """_tag_pass over the trace's tags, made once per trace."""
    _need_structured(t)
    if t._pass is None:
        _set(t, "_pass", _tag_pass(t.masks()[3], len(t.prefix)))
    return t._pass


def _tag_pass(tags: list, p: int) -> tuple[tuple, tuple]:
    """Distance to the matching return, and canonical abstract successor,
    of every canonical position of a structured lasso, given the tag of
    each, with the loop from p on; None where there is none.

    With H(j) the number of calls minus rets at positions 0..j, the
    matching return of i is the first j > i with H(j) < H(i).  One left to
    right pass over prefix + loop keeps the positions still waiting for it
    in one group per height, the current height on top; only a group's
    first member can be a call.  A ret settles the top group.

    Groups still open after the pass wait for later loop copies.  Seen on
    its own, the loop first reaches depths 1..d below its start at offsets
    r_1..r_d, and its net balance is u - d.  The group k levels from the
    top is settled in loop copy 2 at r_k when k <= d.  Each later copy
    starts d - u lower, so it first reaches only its depths u+1..d: when
    k > d and d > u the group is settled at r_s in copy
    2 + (k - s) / (d - u), with s = u + 1 + (k - d - 1) mod (d - u).
    Otherwise it never is.  Distances keep the copy, which a canonical
    position would lose, and are periodic past the prefix.
    """
    n = len(tags)
    dist: list[int | None] = [None] * n
    succ: list[int | None] = [None] * n
    groups: list[list[int]] = []
    for i, tag in enumerate(tags):
        if tag is _CALL:
            groups.append([i])
            continue
        nxt = i + 1 if i + 1 < n else p
        if tags[nxt] is not _RET:
            succ[i] = nxt
        if tag is _RET and groups:
            g = groups.pop()
            for m in g:
                dist[m] = i - m
            if tags[g[0]] is _CALL:
                succ[g[0]] = i
        if groups:
            groups[-1].append(i)
        else:
            groups.append([i])
    r: list[int] = []  # r[k - 1] is the loop's own r_k
    h = 0
    for off, tag in enumerate(tags[p:]):
        if tag is _CALL:
            h += 1
        elif tag is _RET:
            h -= 1
            if -h > len(r):
                r.append(off)
    d = len(r)
    u = h + d
    for k, g in enumerate(reversed(groups), 1):
        if k <= d:
            s, copies = k, 0
        elif d > u:
            s = u + 1 + (k - d - 1) % (d - u)
            copies = (k - s) // (d - u)
        else:
            break
        j = n + copies * (n - p) + r[s - 1]
        for m in g:
            dist[m] = j - m
        if tags[g[0]] is _CALL:
            succ[g[0]] = p + r[s - 1]
    return tuple(dist), tuple(succ)


def matching_return(t: StructuredLassoTrace, i: int) -> int | None:
    """The first j > i tagged ret such that the positions strictly between
    i and j hold equally many calls and returns, or None."""
    dist = _return_pass(t)[0][t.canonical(i)]
    return None if dist is None else i + dist


def abstract_successor(t: StructuredLassoTrace, i: int) -> int | None:
    """The abstract successor: the matching return at a call, undefined just
    before a return, the ordinary successor otherwise."""
    _need_structured(t)
    if t.tag_at(i) is StateTag.CALL:
        return matching_return(t, i)
    if t.tag_at(i + 1) is StateTag.RET:
        return None
    return i + 1


def abstract_successor_map(t: StructuredLassoTrace) -> tuple[int | None, ...]:
    """Canonical abstract successor of every canonical position, or None:
    entry c equals canonical(abstract_successor(t, c))."""
    return _return_pass(t)[1]


INCONCLUSIVE = "inconclusive"


def brute_matching_return(t: StructuredLassoTrace, i: int, bound: int):
    """Literal bounded scan for the matching return.

    Walks positions i+1 .. i+bound left to right applying the definition
    directly, with none of the loop reasoning of the return pass; returns
    the position, or INCONCLUSIVE when the bound is exhausted.  Kept
    deliberately naive: it is the oracle the return pass is tested
    against.
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
