"""Hilbert-style proof scripts and their checker.

Five systems are supported: 'ax' (infinite traces, the classical axioms),
'ax-gen' (finite and infinite traces, with the strong-next weakenings),
'ax-inf' and 'ax-fin' (ax-gen pinned to one class by an extra axiom), and
'ax-cr' (the call/return logic).  A script names its system, then numbered
steps each carrying a formula and a single-rule justification: an explicit
axiom instance, a propositional tautology, modus ponens, next
generalisation, or until induction (plus the abstract-operator variants of
the last two, admissible under 'ax-cr' only).

Every axiom schema except the C5/C6 call/return families is defined by its
template text alone, compiled once at import into a straight-line program;
C5 and C6 are coded families, with every parameter at most MAX_CR_PARAM.
One runner serves both uses of a program: the checker runs it over formula
nodes to build an instance, the soundness campaigns run it over truth masks.

Tautology checking abstracts every maximal subformula whose head is not
negation, conjunction or the constant true into a fresh letter and decides
by exhaustive valuation, so temporal structure never leaks into the
propositional layer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from .syntax import (
    SYSTEM_IDS, AbsUntil, AbsWeakNext, And, FALSE, Formula, Not, ParseError,
    Prop, ProofError, ProofFormatError, TrueConst, Until, WeakNext,
    abs_strong_next, always, implies, is_ltl, lor, parse_formula, props_of,
    truth_columns,
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
# C5/C6 parameters above this are refused: at the bound the counting formula
# has about 200,000 distinct nodes and a cold check-proof answers in about
# 0.6 s; from about 500 on, the build would outgrow the recursion limit.
MAX_CR_PARAM = 200


class ProofLimitError(ProofError):
    """A step exceeds a documented size limit.  The checker refuses such a
    step instead of failing it, so the CLI reports an error (exit 3)."""


# ---------------------------------------------------------------------------
# The call/return counting family.

def expand_cr(c: int, m: int, n: int, f: Formula) -> Formula:
    """The counting formula: between here and the first f-state there are
    exactly m calls and n returns, never dipping more than c returns below
    par.  Defined for c, m, n >= 0 with c + m >= n.

    The formula is built as a DAG: the branches reach each (c, m, n) by
    many orders of calls and returns, and each is built once, so the build
    is polynomial rather than exponential in m and n."""
    if c < 0 or m < 0 or n < 0 or c + m < n:
        raise ValueError(
            f"parameter violation: need c,m,n >= 0 and c+m >= n, got {(c, m, n)}")
    # every recursive call below keeps the parameters valid
    built: dict[tuple[int, int, int], Formula] = {}

    def expand(c: int, m: int, n: int) -> Formula:
        got = built.get((c, m, n))
        if got is not None:
            return got
        if m == 0 and n == 0:
            out = Until(_INT, f)
        else:
            call_branch = ret_branch = None
            if m > 0:
                call_branch = Until(
                    _INT, And(_CALL, WeakNext(expand(c + 1, m - 1, n))))
            if n > 0 and (m == 0 or c > 0):
                ret_branch = Until(
                    _INT, And(_RET, WeakNext(expand(c - 1, m, n - 1))))
            if call_branch is None or ret_branch is None:
                out = call_branch or ret_branch
            else:
                out = lor(call_branch, ret_branch)
        built[c, m, n] = out
        return out

    return expand(c, m, n)


# ---------------------------------------------------------------------------
# Propositional tautology checking under maximal-subformula abstraction.

def check_tautology(f: Formula, max_letters: int = MAX_TAUT_LETTERS) -> bool:
    """True iff f is a tautology once every maximal subformula not headed by
    negation, conjunction or true is treated as an opaque letter.  More
    than ``max_letters`` letters raise ProofLimitError."""
    letters: list[Formula] = []
    seen: set[Formula] = set()
    order: list[Formula] = []  # every node after its parent
    stack = [f]
    while stack:
        g = stack.pop()
        order.append(g)
        t = type(g)
        if t is Not:
            stack.append(g.operand)
        elif t is And:
            stack.append(g.left)
            stack.append(g.right)
        elif t is not TrueConst and g not in seen:
            seen.add(g)
            letters.append(g)
    if len(letters) > max_letters:
        raise ProofLimitError(
            f"letter bound: tautology check abstracts to {len(letters)} "
            f"letters, needs <= {max_letters} (MAX_TAUT_LETTERS)")

    full = (1 << (1 << len(letters))) - 1
    masks = dict(zip(letters, truth_columns(len(letters))))
    # kids before parents, without recursion, so deep formulas check
    column: dict[int, int] = {}
    for g in reversed(order):
        t = type(g)
        if t is Not:
            v = full ^ column[id(g.operand)]
        elif t is And:
            v = column[id(g.left)] & column[id(g.right)]
        else:
            v = full if t is TrueConst else masks[g]
        column[id(g)] = v
    return column[id(f)] == full


# ---------------------------------------------------------------------------
# Axiom schemas.

def _within_bound(name: str, p: dict[str, int]) -> None:
    for v, x in p.items():
        if x > MAX_CR_PARAM:
            raise ProofLimitError(
                f"parameter bound: {name} needs {v} <= {MAX_CR_PARAM} "
                f"(MAX_CR_PARAM), got {v}={x}")


def _c5(p, b):
    n = p["n"]
    if n < 0:
        raise ProofError("parameter violation: C5 needs n >= 0")
    _within_bound("C5", p)
    body = expand_cr(0, n, n, And(_RET, b["phi"]))
    return implies(And(_CALL, WeakNext(body)), abs_strong_next(b["phi"]))


def _c6(p, b):
    m, n = p["m"], p["n"]
    if not m > n >= 0:
        raise ProofError("parameter violation: C6 needs m > n >= 0")
    _within_bound("C6", p)
    body = expand_cr(0, m, n, always(Not(_RET)))
    return implies(And(_CALL, WeakNext(body)), AbsWeakNext(FALSE))


_FAMILIES = {"C5": _c5, "C6": _c6}


def _compile(text: str, metavars: tuple[str, ...]) -> tuple:
    """Compile a template, parsed in caret mode with the metavariables as
    letters, into a straight-line program.  Its values start with the
    bindings in metavars order; each distinct subtree holding a metavariable
    adds a step (ctor, i, j), j None for a unary ctor, and each maximal
    subtree without one adds a constant step (None, f, None).  The root is
    emitted last, so the program's result is its last value."""
    slots: dict[Formula, int] = {Prop(v): k for k, v in enumerate(metavars)}
    steps: list[tuple] = []

    def emit(g: Formula) -> int:  # recursion is bounded by the template size
        k = slots.get(g)
        if k is not None:
            return k
        if props_of(g).isdisjoint(metavars):
            steps.append((None, g, None))
        elif type(g) in (Not, WeakNext, AbsWeakNext):
            steps.append((type(g), emit(g.operand), None))
        else:
            steps.append((type(g), emit(g.left), emit(g.right)))
        slots[g] = k = len(metavars) + len(steps) - 1
        return k

    emit(parse_formula(text, "caret"))
    return tuple(steps)


def _identity(f: Formula) -> Formula:
    return f


def _construct(ctor, a: Formula, b: Formula | None = None) -> Formula:
    return ctor(a) if b is None else ctor(a, b)


@dataclass(frozen=True)
class Schema:
    """An axiom schema.  ``program`` is compiled from the template text,
    which is the definition, except for the C5/C6 families: their text
    documents them and ``family`` is code built on expand_cr."""

    name: str
    metavars: tuple[str, ...]
    params: tuple[str, ...]
    text: str
    program: tuple = field(default=(), repr=False, compare=False)
    family: Callable[[dict, dict], Formula] | None = field(
        default=None, repr=False, compare=False)

    def run(self, params: dict[str, int], bindings: dict[str, Formula],
            leaf: Callable, apply: Callable):
        """Run the program over values of any kind: ``leaf(f)`` gives the
        value of a binding or of a constant subformula f, and
        ``apply(ctor, a, b=None)`` the value of ctor over the values of its
        operands.  A family's instance is built and passed to ``leaf``."""
        for v in self.metavars:
            if v not in bindings:
                raise ProofError(f"missing binding {v} for schema {self.name}")
        for v in bindings:
            if v not in self.metavars:
                raise ProofError(f"unexpected binding {v} for schema {self.name}")
        for v in self.params:
            if v not in params:
                raise ProofError(f"missing parameter {v} for schema {self.name}")
        for v in params:
            if v not in self.params:
                raise ProofError(f"unexpected parameter {v} for schema {self.name}")
        if self.family is not None:
            return leaf(self.family(params, bindings))
        vals = [leaf(bindings[v]) for v in self.metavars]
        for ctor, i, j in self.program:
            vals.append(leaf(i) if ctor is None else
                        apply(ctor, vals[i]) if j is None else
                        apply(ctor, vals[i], vals[j]))
        return vals[-1]

    def build(self, params: dict[str, int], bindings: dict[str, Formula]) -> Formula:
        """The instance as a formula: the program run over nodes."""
        return self.run(params, bindings, _identity, _construct)


SCHEMAS: dict[str, Schema] = {
    name: Schema(name, mv, pv, text,
                 () if name in _FAMILIES else _compile(text, mv),
                 _FAMILIES.get(name))
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

@dataclass(frozen=True)
class AxiomInstance:
    schema: str
    params: tuple[tuple[str, int], ...] = ()
    bindings: tuple[tuple[str, Formula], ...] = ()

    def __post_init__(self):
        if isinstance(self.params, dict):
            object.__setattr__(self, "params", tuple(sorted(self.params.items())))
        if isinstance(self.bindings, dict):
            object.__setattr__(self, "bindings", tuple(sorted(self.bindings.items())))


@dataclass(frozen=True)
class Taut:
    pass


@dataclass(frozen=True)
class MP:
    antecedent: int
    implication: int


@dataclass(frozen=True)
class GenNext:
    premise: int


@dataclass(frozen=True)
class IndUntil:
    premise: int


@dataclass(frozen=True)
class GenAbsNext:
    premise: int


@dataclass(frozen=True)
class IndAbsUntil:
    premise: int


@dataclass(frozen=True)
class ProofStep:
    number: int
    formula: Formula
    justification: object


@dataclass(frozen=True)
class ProofScript:
    system: str
    steps: tuple[ProofStep, ...]


@dataclass(frozen=True)
class Verdict:
    ok: bool
    step: int | None = None
    reason: str | None = None


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
