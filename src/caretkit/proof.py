"""Hilbert-style proof scripts and their checker.

Five systems are supported: 'ax' (infinite traces, the classical axioms),
'ax-gen' (finite and infinite traces, with the strong-next weakenings),
'ax-inf' and 'ax-fin' (ax-gen pinned to one class by an extra axiom), and
'ax-cr' (the call/return logic).  A script names its system, then numbered
steps each carrying a formula and a single-rule justification: an explicit
axiom instance, a propositional tautology, modus ponens, next
generalisation, or until induction (plus the abstract-operator variants of
the last two, admissible under 'ax-cr' only).

Every axiom schema is defined by its template text alone, compiled on first
use into straight-line programs; the C5/C6 texts hold a counting formula
CR[c,m,n](psi), unrolled on each use for the parameters given (each at most
MAX_CR_PARAM).  One runner serves every program: the checker runs a schema's
over nodes to build an instance, the campaigns run it and their drawn
bindings over truth masks.

Tautology checking abstracts every maximal subformula whose head is not
negation, conjunction or the constant true into a fresh letter and decides
by exhaustive valuation, so temporal structure never leaks into the
propositional layer.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable
from functools import cached_property

from .syntax import (
    SYSTEM_IDS, AbsUntil, AbsWeakNext, And, Formula, Not, ParseError, Prop,
    ProofError, ProofFormatError, TrueConst, Until, WeakNext, _fold, _Record,
    _set, implies, is_ltl, parse_formula, truth_columns,
)

__all__ = [
    "SYSTEM_IDS", "ProofError", "ProofFormatError", "ProofLimitError",
    "Schema", "MAX_CR_PARAM",
    "AxiomInstance", "Taut", "MP", "GenNext", "IndUntil", "GenAbsNext",
    "IndAbsUntil", "ProofStep", "ProofScript", "Verdict",
    "expand_cr", "check_tautology", "build_schema_instance",
    "check_axiom_instance", "check_proof", "list_axioms", "parse_proof",
    "axiom_schemas", "SCHEMAS",
]

_CALL = Prop("call")
_RET = Prop("ret")
_INT = Prop("int")

MAX_TAUT_LETTERS = 20
# C5/C6 parameters above this are refused: at the bound the counting program
# has about 200,000 steps and a cold check-proof answers in about 0.4 s.
MAX_CR_PARAM = 200


class ProofLimitError(ProofError):
    """A step exceeds a documented size limit.  The checker refuses such a
    step instead of failing it, so the CLI reports an error (exit 3)."""


# ---------------------------------------------------------------------------
# Propositional tautology checking under maximal-subformula abstraction.

def check_tautology(f: Formula) -> bool:
    """True iff f is a tautology once every maximal subformula not headed by
    negation, conjunction or true is treated as an opaque letter.  More
    than MAX_TAUT_LETTERS letters raise ProofLimitError."""
    letters: list[Formula] = []
    seen: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is Not:
            stack.append(g.operand)
        elif t is And:
            stack.append(g.left)
            stack.append(g.right)
        elif t is not TrueConst and g not in seen:
            seen.add(g)
            letters.append(g)
    if len(letters) > MAX_TAUT_LETTERS:
        raise ProofLimitError(
            f"letter bound: tautology check abstracts to {len(letters)} "
            f"letters, needs <= {MAX_TAUT_LETTERS} (MAX_TAUT_LETTERS)")

    full = (1 << (1 << len(letters))) - 1
    # the fold finds every letter's column in its memo; only true is a leaf
    columns = dict(zip(letters, truth_columns(len(letters))))
    return _fold(f, columns, lambda g: full,
                 lambda t, a, b=None: full ^ a if t is Not else a & b) == full


# ---------------------------------------------------------------------------
# Axiom schemas as programs.

# A family's text holds a counting formula CR[c,m,n](psi), its arguments
# parameter names or numerals and psi free of parentheses, and ends in
# _FAMILY, its parameters' condition (a chain of > and >=) and ")".
_CR_RE = re.compile(r"CR\[(\w+),(\w+),(\w+)\]\(([^()]*)\)")
_FAMILY = "  (family, "


class _Program:
    """A straight-line program being emitted.  Its values start with one
    input per name it is made with; a step (ctor, i, j) makes ctor over
    values i and j, j None for a unary ctor, and a constant step
    (None, f, None) makes the leaf f, a proposition not named or true."""

    def __init__(self, names: tuple[str, ...]):
        # the value of each subformula emitted, first of the named letters
        self.slots: dict[Formula, int] = {Prop(v): k for k, v in enumerate(names)}
        self.size = len(names)
        self.steps: list[tuple] = []

    def step(self, ctor, i, j=None) -> int:
        self.steps.append((ctor, i, j))
        self.size += 1
        return self.size - 1

    def emit(self, g: Formula) -> int:
        """The value of g: each distinct subformula not emitted yet adds a
        step, a constant step for a leaf that is not a named letter."""
        return _fold(g, self.slots, lambda f: self.step(None, f), self.step)


def _run(program, vals: list, leaf: Callable, apply: Callable):
    """Run a program over values of any kind, vals holding its inputs:
    ``leaf(x)`` gives the value of a constant step's x, and
    ``apply(ctor, a, b=None)`` the value of ctor over its operands'.  Run
    with a _Program's emit and step, it emits the program into that one."""
    for ctor, i, j in program:
        vals.append(leaf(i) if ctor is None else
                    apply(ctor, vals[i]) if j is None else
                    apply(ctor, vals[i], vals[j]))
    return vals[-1]


def _identity(f: Formula) -> Formula:
    return f


def _count(c: int, m: int, n: int, psi, leaf: Callable, apply: Callable):
    """CR[c,m,n] over the value psi (see expand_cr), with leaf and apply
    as _run takes them.  No call or return changes d = c + m - n, so
    (m', n') names a state; the states reached have m' <= m, n' <= n and
    c' = d - m' + n' >= 0, and each is made once, after the two it refers
    to."""
    if c < 0 or m < 0 or n < 0 or c + m < n:
        raise ValueError(f"parameter violation: need c,m,n >= 0 and "
                         f"c+m >= n, got {(c, m, n)}")
    d, interior = c + m - n, leaf(_INT)
    ret = leaf(_RET) if n else None
    call = leaf(_CALL) if m else None
    built = {(0, 0): apply(Until, interior, psi)}
    for m2 in range(m + 1):
        for n2 in range(max(0, m2 - d), n + 1):
            moves = []  # each makes an arm: int U (tag & X next)
            if m2 > 0:
                moves.append((call, built[m2 - 1, n2]))
            if n2 > 0 and (m2 == 0 or d - m2 + n2 > 0):
                moves.append((ret, built[m2, n2 - 1]))
            arms = [apply(Until, interior, apply(And, tag, apply(
                WeakNext, to))) for tag, to in moves]
            if len(arms) == 2:  # lor(call arm, ret arm)
                arms = [apply(Not, apply(And, apply(Not, arms[0]),
                                         apply(Not, arms[1])))]
            if arms:
                built[m2, n2] = arms[0]
    return built[m, n]


def expand_cr(c: int, m: int, n: int, f: Formula) -> Formula:
    """The counting formula: between here and the first f-state there are
    exactly m calls and n returns, never dipping more than c returns below
    par.  Defined for c, m, n >= 0 with c + m >= n.  It is built over
    nodes, so it is a DAG: the branches reach each (c, m, n) by many
    orders of calls and returns, and each is built once."""
    return _count(c, m, n, f, _identity, operator.call)


def _compile(text: str, names: tuple[str, ...]) -> tuple[int, tuple]:
    """The position of the result and the steps of the program of a text
    parsed in caret mode, its letters in names the inputs."""
    prog = _Program(names)
    return prog.emit(parse_formula(text, "caret")), tuple(prog.steps)


class Schema(_Record):
    """An axiom schema, defined by its template text alone, which is
    compiled on first use.  A family's text is compiled into the program
    of its counting formula's psi and that of the rest, in which the letter
    cr is an input standing for the counting formula; on each use the
    counting formula is unrolled over psi's value between the two.  A
    program's constant steps are leaves, call, ret, int or true: a part
    without letters, such as X false, is made by steps over them."""

    # no __slots__: cached_property keeps _parts in the instance dict
    _fields = ("name", "metavars", "params", "text")

    def __init__(self, name: str, metavars: tuple[str, ...],
                 params: tuple[str, ...], text: str):
        _set(self, "name", name)
        _set(self, "metavars", metavars)
        _set(self, "params", params)
        _set(self, "text", text)

    @cached_property
    def _parts(self) -> tuple:
        """(the condition, the counting formula's arguments, psi's program,
        the rest's program); without a counting formula the middle two are
        None and the rest is the whole template."""
        text, _, condition = self.text.partition(_FAMILY)
        cr = _CR_RE.search(text)
        if cr is None:
            return condition[:-1], None, None, _compile(text, self.metavars)
        rest = text[:cr.start()] + "cr" + text[cr.end():]
        return (condition[:-1], cr.groups()[:3], _compile(cr[4], self.metavars),
                _compile(rest, self.metavars + ("cr",)))

    def _named(self, what: str, given: dict, names: tuple[str, ...]) -> None:
        for v in names:
            if v not in given:
                raise ProofError(f"missing {what} {v} for schema {self.name}")
        for v in given:
            if v not in names:
                raise ProofError(f"unexpected {what} {v} for schema {self.name}")

    def _instance(self, params: dict[str, int], vals: list, leaf: Callable,
                  apply: Callable):
        """The instance's value, vals holding the bindings' (see _run),
        once the parameters are checked: the schema's, meeting its
        condition and at most MAX_CR_PARAM."""
        self._named("parameter", params, self.params)
        condition, args, psi, (_, rest) = self._parts
        if args is not None:
            words = condition.split()
            terms = [int(w) if w.isdigit() else params[w] for w in words[::2]]
            if not all(a > b if op == ">" else a >= b
                       for op, a, b in zip(words[1::2], terms, terms[1:])):
                raise ProofError(
                    f"parameter violation: {self.name} needs {condition}")
            for v, x in params.items():
                if x > MAX_CR_PARAM:
                    raise ProofLimitError(
                        f"parameter bound: {self.name} needs {v} <= "
                        f"{MAX_CR_PARAM} (MAX_CR_PARAM), got {v}={x}")
            inputs = list(vals)
            _run(psi[1], vals, leaf, apply)
            c, m, n = (int(a) if a.isdigit() else params[a] for a in args)
            vals = inputs + [_count(c, m, n, vals[psi[0]], leaf, apply)]
        return _run(rest, vals, leaf, apply)

    def program(self, params: dict[str, int]) -> tuple:
        """The program for the parameters, once they are checked, emitted
        anew on each call: a caller running it often keeps it."""
        prog = _Program(self.metavars)
        self._instance(params, list(range(len(self.metavars))), prog.emit,
                       prog.step)
        return tuple(prog.steps)

    def build(self, params: dict[str, int], bindings: dict[str, Formula]) -> Formula:
        """The instance as a formula: its programs run over nodes."""
        self._named("binding", bindings, self.metavars)
        return self._instance(params, [bindings[v] for v in self.metavars],
                              _identity, operator.call)


SCHEMAS: dict[str, Schema] = {
    name: Schema(name, mv, pv, text)
    for name, mv, pv, text in [
        ("T1", ("phi", "psi"), (), "X phi & X (phi -> psi) -> X psi"),
        ("T2", ("phi", "psi"), (), "(phi U psi) <-> (psi | (phi & X (phi U psi)))"),
        ("T3", ("phi",), (), "X !phi -> !(X phi)"),
        ("T2'", ("phi", "psi"), (), "(phi U psi) <-> (psi | (phi & N (phi U psi)))"),
        ("T3'", ("phi",), (), "X phi <-> (X false | N phi)"),
        ("Inf", (), (), "!(X false)"),
        ("Fin", (), (), "F (X false)"),
        ("G1", ("phi", "psi"), (), "X phi & X (phi -> psi) -> X psi"),
        ("G2", ("phi", "psi"), (), "(phi U psi) <-> (psi | (phi & N (phi U psi)))"),
        ("G3", ("phi",), (), "X phi <-> (X false | N phi)"),
        ("G4", (), (), "!(X false)"),
        ("A1", ("phi", "psi"), (), "Xa phi & Xa (phi -> psi) -> Xa psi"),
        ("A2", ("phi", "psi"), (), "(phi Ua psi) <-> (psi | (phi & Na (phi Ua psi)))"),
        ("A3", ("phi",), (), "Xa phi <-> (Xa false | Na phi)"),
        ("C1", (), (), "(call & !ret & !int) | (!call & ret & !int) | (!call & !ret & int)"),
        ("C2", ("phi",), (), "!call & X !ret -> (X phi <-> Na phi)"),
        ("C3", (), (), "!call & X ret -> Xa false"),
        ("C4", ("phi",), (), "Na phi -> F phi"),
        ("C5", ("phi",), ("n",), "call & X CR[0,n,n](ret & phi) -> Na phi  (family, n >= 0)"),
        ("C6", (), ("m", "n"), "call & X CR[0,m,n](G !ret) -> Xa false  (family, m > n >= 0)"),
    ]
}

_RULES = {
    "Prop": "all instances of propositional tautologies",
    "MP": "from phi and phi -> psi infer psi",
    "RT1": "from phi infer X phi",
    "RT2": "from phi' -> (!psi & X phi') infer phi' -> !(phi U psi)",
    "RG1": "from phi infer X phi",
    "RG2": "from phi' -> (!psi & X phi') infer phi' -> !(phi U psi)",
    "RA1": "from phi infer Xa phi",
    "RA2": "from phi' -> (!psi & Xa phi') infer phi' -> !(phi Ua psi)",
}

# Each system's schemas and rules in display order, one row per system in
# SYSTEM_IDS order.  Its axiom schemas are the schema entries in the same
# order; fuzz seed streams are indexed by it.
_SYSTEMS = {system: tuple(rows.split()) for system, rows in zip(SYSTEM_IDS, (
    "Prop MP T1 T2 T3 RT1 RT2",                                      # ax
    "Prop MP T1 T2' T3' RT1 RT2",                                    # ax-gen
    "Prop MP T1 T2' T3' RT1 RT2 Inf",                                # ax-inf
    "Prop MP T1 T2' T3' RT1 RT2 Fin",                                # ax-fin
    "Prop MP G1 G2 G3 G4 RG1 RG2 A1 A2 A3 RA1 RA2 C1 C2 C3 C4 C5 C6",  # ax-cr
), strict=True)}
_SYSTEM_SCHEMAS = {system: tuple(n for n in rows if n in SCHEMAS)
                   for system, rows in _SYSTEMS.items()}


def axiom_schemas(system: str) -> tuple[str, ...]:
    """The axiom schema names admissible in a system (rules excluded)."""
    if system not in _SYSTEM_SCHEMAS:
        raise ValueError(f"unknown system {system!r}")
    return _SYSTEM_SCHEMAS[system]


def build_schema_instance(schema: str, params: dict[str, int],
                          bindings: dict[str, Formula]) -> Formula:
    """Instantiate a schema template, desugared to the core syntax."""
    if schema not in SCHEMAS:
        raise ProofError(f"unknown schema {schema!r}")
    return SCHEMAS[schema].build(dict(params), dict(bindings))


def check_axiom_instance(system: str, schema: str, params: dict[str, int],
                         bindings: dict[str, Formula], f: Formula) -> bool:
    """True iff f is structurally the schema instance under the bindings,
    with the schema admissible in the system."""
    if system not in _SYSTEM_SCHEMAS:
        raise ValueError(f"unknown system {system!r}")
    if schema not in _SYSTEM_SCHEMAS[system]:
        raise ProofError(f"schema {schema} is not admissible in {system}")
    return build_schema_instance(schema, params, bindings) == f


def list_axioms(system: str) -> tuple[tuple[str, str], ...]:
    """The admissible schemas and rules of a system, with template texts."""
    if system not in _SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    return tuple((n, SCHEMAS[n].text if n in SCHEMAS else _RULES[n])
                 for n in _SYSTEMS[system])


# ---------------------------------------------------------------------------
# Scripts and the checker.

class AxiomInstance(_Record):
    """An axiom step's justification; params and bindings given as dicts
    are kept as tuples of their items, sorted by name."""

    __slots__ = _fields = ("schema", "params", "bindings")

    def __init__(self, schema: str, params: tuple[tuple[str, int], ...] = (),
                 bindings: tuple[tuple[str, Formula], ...] = ()):
        _set(self, "schema", schema)
        _set(self, "params", tuple(sorted(params.items()))
             if isinstance(params, dict) else params)
        _set(self, "bindings", tuple(sorted(bindings.items()))
             if isinstance(bindings, dict) else bindings)


class Taut(_Record):
    __slots__ = ()


class MP(_Record):
    __slots__ = _fields = ("antecedent", "implication")

    def __init__(self, antecedent: int, implication: int):
        _set(self, "antecedent", antecedent)
        _set(self, "implication", implication)


class _OnePremise(_Record):
    __slots__ = _fields = ("premise",)

    def __init__(self, premise: int):
        _set(self, "premise", premise)


class GenNext(_OnePremise):
    __slots__ = ()


class IndUntil(_OnePremise):
    __slots__ = ()


class GenAbsNext(_OnePremise):
    __slots__ = ()


class IndAbsUntil(_OnePremise):
    __slots__ = ()


class ProofStep(_Record):
    __slots__ = _fields = ("number", "formula", "justification")

    def __init__(self, number: int, formula: Formula, justification: object):
        _set(self, "number", number)
        _set(self, "formula", formula)
        _set(self, "justification", justification)


class ProofScript(_Record):
    __slots__ = _fields = ("system", "steps")

    def __init__(self, system: str, steps: tuple[ProofStep, ...]):
        _set(self, "system", system)
        _set(self, "steps", steps)


class Verdict(_Record):
    __slots__ = _fields = ("ok", "step", "reason")

    def __init__(self, ok: bool, step: int | None = None,
                 reason: str | None = None):
        _set(self, "ok", ok)
        _set(self, "step", step)
        _set(self, "reason", reason)


def _split_implies(f: Formula) -> tuple[Formula, Formula] | None:
    # implies(a, b) desugars to !(!(!a) & !b); recover (a, b) if f has that shape
    if type(f) is not Not or type(f.operand) is not And:
        return None
    left, right = f.operand.left, f.operand.right
    if type(left) is not Not or type(left.operand) is not Not:
        return None
    if type(right) is not Not:
        return None
    return left.operand.operand, right.operand


def _check_induction(premise: Formula, step: Formula, until_type, next_ctor):
    split = _split_implies(step)
    if (split is None or type(split[1]) is not Not
            or type(split[1].operand) is not until_type):
        return "step does not have the shape phi' -> !(phi U psi)"
    loop_inv, body = split
    psi = body.operand.right
    expected = implies(loop_inv, And(Not(psi), next_ctor(loop_inv)))
    if premise != expected:
        return "premise does not have the shape phi' -> (!psi & X phi')"
    return None


def check_proof(script: ProofScript) -> Verdict:
    """Check every step; ok iff all steps are correct under the system.
    A step beyond a documented size limit raises ProofLimitError."""
    system = script.system
    if system not in _SYSTEM_SCHEMAS:
        raise ValueError(f"unknown system {system!r}")
    caret = system == "ax-cr"
    proved: dict[int, Formula] = {}
    last = 0
    for st in script.steps:
        if st.number <= last:
            return Verdict(False, st.number, "step numbers must strictly increase")
        last = st.number
        if not caret and not is_ltl(st.formula):
            return Verdict(False, st.number,
                           f"abstract operators are not part of {system}")
        reason = _check_step(system, caret, proved, st)
        if reason is not None:
            return Verdict(False, st.number, reason)
        proved[st.number] = st.formula
    return Verdict(True)


def _check_step(system: str, caret: bool, proved: dict[int, Formula],
                st: ProofStep) -> str | None:
    j = st.justification
    t = type(j)
    if t is AxiomInstance:
        try:
            ok = check_axiom_instance(system, j.schema, dict(j.params),
                                      dict(j.bindings), st.formula)
        except ProofLimitError:
            raise
        except ProofError as e:
            return str(e)
        return None if ok else f"formula is not an instance of {j.schema}"
    if t is Taut:
        return (None if check_tautology(st.formula)
                else "not a propositional tautology")

    def premise(i: int) -> Formula | None:
        return proved.get(i)

    if t is MP:
        a, b = premise(j.antecedent), premise(j.implication)
        if a is None or b is None:
            return "premise index does not refer to an earlier step"
        if b != implies(a, st.formula):
            return ("second premise is not (first premise) -> (step formula)")
        return None
    if t in (GenNext, GenAbsNext):
        if t is GenAbsNext and not caret:
            return "rule gen-xa needs system ax-cr"
        p = premise(j.premise)
        if p is None:
            return "premise index does not refer to an earlier step"
        ctor = AbsWeakNext if t is GenAbsNext else WeakNext
        if st.formula != ctor(p):
            return "step is not the next operator applied to the premise"
        return None
    if t in (IndUntil, IndAbsUntil):
        if t is IndAbsUntil and not caret:
            return "rule ind-ua needs system ax-cr"
        p = premise(j.premise)
        if p is None:
            return "premise index does not refer to an earlier step"
        if t is IndAbsUntil:
            return _check_induction(p, st.formula, AbsUntil, AbsWeakNext)
        return _check_induction(p, st.formula, Until, WeakNext)
    return f"unknown justification {j!r}"


# ---------------------------------------------------------------------------
# The proof file format.

_STEP_RE = re.compile(r"(\d+)\.\s*(.*)")
_PARAM_RE = re.compile(r"([a-z]+)\s*=\s*(-?\d+)\Z")
_BIND_RE = re.compile(r"\b(phi|psi)\s*=")


def _parse_justification(text: str, mode: str, line: int):
    parts = text.split(None, 1)
    if not parts:
        raise ProofFormatError("missing justification", line)
    head, rest = parts[0], parts[1] if len(parts) > 1 else ""
    if head == "taut":
        if rest:
            raise ProofFormatError("taut takes no arguments", line)
        return Taut()
    if head == "mp":
        nums = rest.split()
        if len(nums) != 2 or not all(x.isdigit() for x in nums):
            raise ProofFormatError("mp needs two step numbers", line)
        return MP(int(nums[0]), int(nums[1]))
    if head in ("gen-x", "ind-u", "gen-xa", "ind-ua"):
        nums = rest.split()
        if len(nums) != 1 or not nums[0].isdigit():
            raise ProofFormatError(f"{head} needs one step number", line)
        ctor = {"gen-x": GenNext, "ind-u": IndUntil,
                "gen-xa": GenAbsNext, "ind-ua": IndAbsUntil}[head]
        return ctor(int(nums[0]))
    if head != "axiom":
        raise ProofFormatError(f"unknown justification {head!r}", line)

    sparts = rest.split(None, 1)
    if not sparts:
        raise ProofFormatError("axiom needs a schema name", line)
    schema, tail = sparts[0], sparts[1] if len(sparts) > 1 else ""
    bm = re.search(r"\bbind\b", tail)
    params_text = tail[:bm.start()] if bm else tail
    binds_text = tail[bm.end():] if bm else ""
    params = {}
    for tok in params_text.split():
        m = _PARAM_RE.fullmatch(tok)
        if not m:
            raise ProofFormatError(f"bad parameter {tok!r}", line)
        params[m.group(1)] = int(m.group(2))
    bindings = {}
    marks = list(_BIND_RE.finditer(binds_text))
    if bm and not marks:
        raise ProofFormatError("bind clause without bindings", line)
    for k, m in enumerate(marks):
        name = m.group(1)
        end = marks[k + 1].start() if k + 1 < len(marks) else len(binds_text)
        ftext = binds_text[m.end():end].strip()
        if name in bindings:
            raise ProofFormatError(f"duplicate binding {name}", line)
        try:
            bindings[name] = parse_formula(ftext, mode)
        except ParseError as e:
            raise ProofFormatError(f"bad binding formula: {e}", line) from e
    return AxiomInstance(schema, tuple(sorted(params.items())),
                         tuple(sorted(bindings.items())))


def parse_proof(text: str) -> ProofScript:
    """Parse the text proof format.

    First non-comment line: ``system: <id>``.  Steps:
    ``<n>. <formula> ; <justification>`` with strictly increasing n.
    Justifications: ``axiom <schema> [k=v ...] [bind phi=<f> psi=<f>]``,
    ``taut``, ``mp <i> <j>``, ``gen-x <i>``, ``ind-u <i>``, ``gen-xa <i>``,
    ``ind-ua <i>``.  ``#`` starts a comment.
    """
    system = None
    steps: list[ProofStep] = []
    last = 0
    for ln, raw in enumerate(text.splitlines(), 1):
        cut = raw.find("#")
        if cut >= 0:
            raw = raw[:cut]
        line = raw.strip()
        if not line:
            continue
        if system is None:
            m = re.fullmatch(r"system:\s*(\S+)", line)
            if not m:
                raise ProofFormatError("expected 'system: <id>' first", ln)
            system = m.group(1)
            if system not in _SYSTEM_SCHEMAS:
                raise ProofFormatError(f"unknown system {system!r}", ln)
            continue
        m = _STEP_RE.fullmatch(line)
        if not m:
            raise ProofFormatError(
                "expected '<n>. <formula> ; <justification>'", ln)
        number = int(m.group(1))
        if number <= last:
            raise ProofFormatError("step numbers must strictly increase", ln)
        last = number
        rest = m.group(2)
        if ";" not in rest:
            raise ProofFormatError("missing ';' before the justification", ln)
        ftext, jtext = rest.split(";", 1)
        mode = "caret" if system == "ax-cr" else "ltl"
        try:
            formula = parse_formula(ftext.strip(), mode)
        except ParseError as e:
            raise ProofFormatError(f"bad formula: {e}", ln) from e
        steps.append(ProofStep(number, formula,
                               _parse_justification(jtext.strip(), mode, ln)))
    if system is None:
        raise ProofFormatError("empty proof script", max(1, len(text.splitlines())))
    return ProofScript(system, tuple(steps))
