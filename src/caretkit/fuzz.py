"""Deterministic random formulas, traces, and campaign drivers.

Everything here is a pure function of a GenConfig: per-instance random
streams are derived from (seed, stream, index) with integer arithmetic, so
identical configs replay identical campaigns on any platform.

Two campaign styles are provided.  A soundness campaign draws random
metavariable bindings for each axiom schema of a proof system and evaluates
the instance at every canonical position of a fresh random trace of the
system's own trace class; failures are counted, never raised.

Draws are programs and masks; objects are built on replay.  A drawn formula
is a post-order program of constructor steps; a drawn trace is its shape,
one truth mask per letter and, on a structured lasso, its tags.  Integer
draws are read from getrandbits by _below, which gives randrange's values
at randrange's stream positions, so a seed draws what it always drew.  The
campaign fetches each schema's programs, their parameters checked, once;
per instance it runs the binding programs, then the schema's program, over
masks with EvalContext.apply on a context started from the drawn masks,
building no formula, label set or trace.  A failing instance is replayed
from its seed through the object builders, which gen_formula and gen_trace
also use.

A cross-check campaign compares the tableau decision procedure against the
literal bounded trace enumeration and the class decomposition identity.

Inference rules are deliberately not fuzzed: they preserve validity rather
than pointwise truth, so per-trace evaluation is the wrong instrument for
them; the proof checker's tests cover the rules.
"""

from __future__ import annotations

import _random
import operator
import random
from dataclasses import dataclass

from .proof import (
    SCHEMAS, SYSTEM_IDS, _run, axiom_schemas, build_schema_instance,
)
from .semantics import EvalContext
from .syntax import (
    _IDENT_RE, CLASSES, AbsUntil, AbsWeakNext, And, Formula, Not, Prop, TRUE,
    Until, WeakNext,
)
from .trace import FiniteTrace, LassoTrace, StateTag, StructuredLassoTrace

__all__ = [
    "GenConfig", "CampaignReport", "gen_formula", "gen_trace",
    "soundness_campaign", "cross_check_campaign",
]

_MIX = 2_654_435_761
_MASK63 = (1 << 63) - 1
_TAG_NAMES = ("call", "ret", "int")
_TAG_VALUES = (StateTag.CALL, StateTag.RET, StateTag.INT)


def _child_seed(seed: int, stream: int, index: int) -> int:
    return (seed * _MIX + stream * 1_000_003 + index) & _MASK63


@dataclass(frozen=True)
class GenConfig:
    """Bounds and seed for the generators; identical configs replay."""

    seed: int = 0
    max_formula_size: int = 6
    alphabet: tuple[str, ...] = ("p", "q")
    max_finite_len: int = 8
    max_lasso_total: int = 8
    mode: str = "ltl"

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        if not self.alphabet:
            raise ValueError("alphabet must be nonempty")
        # a letter must print back as itself, for failure reports to parse
        for a in self.alphabet:
            if (type(a) is not str or not _IDENT_RE.match(a)
                    or a in ("true", "false")):
                raise ValueError(f"letter {a!r} is not a proposition name: "
                                 "[a-z_][a-z0-9_]*, not true or false")
        if len(set(self.alphabet)) < len(self.alphabet):
            raise ValueError(f"alphabet {self.alphabet!r} repeats a letter")
        if min(self.max_formula_size, self.max_finite_len,
               self.max_lasso_total) < 1:
            raise ValueError("all bounds must be positive")
        if self.mode not in ("ltl", "caret"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class CampaignReport:
    counts: tuple[tuple[str, int], ...]
    failures: int
    first_failure: tuple | None = None  # (formula, trace, position)

    def __post_init__(self):
        if (self.failures == 0) != (self.first_failure is None):
            raise ValueError("failure count and counterexample disagree")


# ---------------------------------------------------------------------------
# Generators.  A draw is data; the builders turn it into objects.

# in draw order: the operators of a node of size 2, then of a larger one
_OPS = {
    "ltl": ((Not, WeakNext), (Not, WeakNext, And, Until)),
    "caret": ((Not, WeakNext, AbsWeakNext),
              (Not, WeakNext, And, Until, AbsWeakNext, AbsUntil)),
}
_UNARY = (Not, WeakNext, AbsWeakNext)


def _atoms(cfg: GenConfig, mode: str) -> tuple[str, ...]:
    """The letters a formula leaf picks from; one pick past them is true."""
    return cfg.alphabet + _TAG_NAMES if mode == "caret" else cfg.alphabet


def _below(getrandbits, n: int) -> int:
    """rng.randrange(n) for n >= 1, from rng.getrandbits: the same value
    from the same bits as CPython 3.11's Random._randbelow_with_getrandbits
    (randint(a, b) is a + _below(b - a + 1)), without the layers above it."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _draw_formula(rng: random.Random, cfg: GenConfig, mode: str) -> list:
    """A formula of 1 to max_formula_size nodes as a post-order program
    (proof._run runs it): a leaf is (None, pick, None), a node (ctor, i, j)
    over the values of steps i and j, j None for a unary ctor."""
    leaves, (small, ops) = len(_atoms(cfg, mode)) + 1, _OPS[mode]
    bits = rng.getrandbits
    prog: list[tuple] = []

    def draw(size):
        if size <= 1:
            prog.append((None, _below(bits, leaves), None))
            return
        choices = ops if size > 2 else small
        op = choices[_below(bits, len(choices))]
        if op in _UNARY:
            draw(size - 1)
            prog.append((op, len(prog) - 1, None))
            return
        split = 1 + _below(bits, size - 2)
        draw(split)
        i = len(prog) - 1
        draw(size - 1 - split)
        prog.append((op, i, len(prog) - 1))

    draw(1 + _below(bits, cfg.max_formula_size))
    return prog


def _random_formula(rng: random.Random, cfg: GenConfig, mode: str) -> Formula:
    leaves = [Prop(a) for a in _atoms(cfg, mode)] + [TRUE]
    return _run(_draw_formula(rng, cfg, mode), [], leaves.__getitem__,
                operator.call)


def _draw_trace(rng: random.Random, cfg: GenConfig, kind: str):
    """A trace as (n, prefix_len, props, tags): n canonical positions, the
    loop from prefix_len on (none if prefix_len == n), each letter's truth
    mask, and on a structured lasso the StateTag of each position, its tag
    names' masks in props too; tags is None otherwise.  Per position the
    letters are drawn, then the tag."""
    random_, bits = rng.random, rng.getrandbits
    if kind == "mixed":
        kind = "finite" if random_() < 0.5 else "lasso"
    if kind == "finite":
        n = p = 1 + _below(bits, cfg.max_finite_len)
    elif kind in ("lasso", "structured"):
        n = 1 + _below(bits, cfg.max_lasso_total)
        p = n - 1 - _below(bits, n)
    else:
        raise ValueError(f"unknown trace kind {kind!r}")
    letters, tags = cfg.alphabet, None
    if kind == "structured":
        # tag names never appear as labels; they are carried by the tag slot
        letters = tuple(a for a in letters if a not in _TAG_NAMES)
        tags, tag_masks = [], [0, 0, 0]
    masks = [0] * len(letters)
    ks = range(len(letters))
    for i in range(n):
        bit = 1 << i
        for k in ks:
            if random_() < 0.5:
                masks[k] |= bit
        if tags is not None:
            t = _below(bits, 3)
            tags.append(_TAG_VALUES[t])
            tag_masks[t] |= bit
    props = dict(zip(letters, masks))
    if tags is not None:
        props.update(zip(_TAG_NAMES, tag_masks))
    return n, p, props, tags


def _campaign_trace(rng: random.Random, cfg: GenConfig, kind: str):
    n, p, props, tags = _draw_trace(rng, cfg, kind)
    labels = [(a, m) for a, m in props.items()
              if tags is None or a not in _TAG_NAMES]
    states = [frozenset(a for a, m in labels if m >> i & 1) for i in range(n)]
    if p == n:
        return FiniteTrace(states)
    if tags is None:
        return LassoTrace(states[:p], states[p:])
    states = list(zip(states, tags))
    return StructuredLassoTrace(states[:p], states[p:])


def gen_formula(cfg: GenConfig) -> Formula:
    """One random formula of the config's mode, deterministic in the seed."""
    return _random_formula(random.Random(_child_seed(cfg.seed, 1, 0)), cfg,
                           cfg.mode)


def gen_trace(cfg: GenConfig) -> FiniteTrace | LassoTrace | StructuredLassoTrace:
    """One random trace: structured lasso in caret mode, otherwise a finite
    trace or a lasso with equal probability."""
    rng = random.Random(_child_seed(cfg.seed, 2, 0))
    kind = "structured" if cfg.mode == "caret" else "mixed"
    return _campaign_trace(rng, cfg, kind)


# ---------------------------------------------------------------------------
# Campaigns.

_SYSTEM_TRACES = {
    "ax": "lasso",
    "ax-gen": "mixed",
    "ax-inf": "lasso",
    "ax-fin": "finite",
    "ax-cr": "structured",
}

# the parameters of the k-th instance of a schema are entry k mod length
_FAMILY_PARAMS = {"C5": ({"n": 0}, {"n": 1}, {"n": 2}),
                  "C6": ({"m": 1, "n": 0}, {"m": 2, "n": 0}, {"m": 2, "n": 1})}


def _first_false(mask: int, full: int) -> int | None:
    """The lowest position whose bit is set in full and clear in mask, or
    None when there is none: the lowest set bit of full & ~mask."""
    z = full & ~mask
    return (z & -z).bit_length() - 1 if z else None


def _instance_mask(rng: random.Random, cfg: GenConfig, mode: str, kind: str,
                   arity: int, program: tuple) -> tuple[int, int]:
    """Draw arity bindings and a trace, as the builders do, and return the
    truth mask on the trace of the schema program over those bindings, and
    the trace's full mask."""
    progs = [_draw_formula(rng, cfg, mode) for _ in range(arity)]
    n, p, props, tags = _draw_trace(rng, cfg, kind)
    ctx = EvalContext.from_masks(n, p, props, tags)
    apply = ctx.apply
    pick = ([props.get(a, 0) for a in _atoms(cfg, mode)] + [ctx.full]).__getitem__
    bindings = [_run(prog, [], pick, apply) for prog in progs]
    return _run(program, bindings, ctx.truth_mask, apply), ctx.full


def soundness_campaign(system: str, instances: int, cfg: GenConfig, *,
                       trace_class: str | None = None,
                       schemas: tuple[str, ...] | None = None) -> CampaignReport:
    """Evaluate random instances of each axiom schema of the system at every
    position of fresh random traces of the system's class.

    ``trace_class`` ('finite' | 'lasso' | 'mixed' | 'structured') and
    ``schemas`` override the system defaults; the overrides exist so the
    harness can be pointed at a class where a schema is known to fail, as a
    control that the machinery detects unsoundness at all.
    """
    if system not in SYSTEM_IDS:
        raise ValueError(f"unknown system {system!r}")
    if instances < 0:
        raise ValueError(f"instances must be non-negative, got {instances}")
    names = tuple(schemas) if schemas is not None else axiom_schemas(system)
    for name in names:
        if name not in SCHEMAS:
            raise ValueError(f"unknown schema {name!r}")
    kind = trace_class if trace_class is not None else _SYSTEM_TRACES[system]
    mode = "caret" if system == "ax-cr" else "ltl"
    # seeding the C-level generator gives the stream of random.Random(seed)
    rng = _random.Random(0)
    counts = []
    failures = 0
    first = None
    for si, name in enumerate(names):
        schema = SCHEMAS[name]
        cycle = _FAMILY_PARAMS.get(name, ({},))
        programs = [schema.program(params) for params in cycle]
        for k in range(instances):
            seed, c = _child_seed(cfg.seed, 16 + si, k), k % len(cycle)
            rng.seed(seed)
            pos = _first_false(*_instance_mask(
                rng, cfg, mode, kind, len(schema.metavars), programs[c]))
            if pos is not None:
                failures += 1
                if first is None:
                    # replay the instance through the object builders
                    rng.seed(seed)
                    bindings = {v: _random_formula(rng, cfg, mode)
                                for v in schema.metavars}
                    first = (build_schema_instance(name, cycle[c], bindings),
                             _campaign_trace(rng, cfg, kind), pos)
        counts.append((name, instances))
    return CampaignReport(tuple(counts), failures, first)


def cross_check_campaign(samples: int, cfg: GenConfig, *,
                         max_total: int = 4) -> CampaignReport:
    """Compare the tableau against literal bounded enumeration.

    Per sample: the three class verdicts must satisfy gen = fin or inf;
    every satisfiable verdict's model must re-evaluate true (and be found
    by the enumerator whenever it fits the bound); every unsatisfiable
    verdict must agree with the enumerator up to the bound.
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    if len(cfg.alphabet) > 2:
        raise ValueError("cross-check needs an alphabet of at most 2 letters")
    if cfg.max_formula_size > 7:
        raise ValueError("cross-check needs formula size at most 7")
    # nothing else in this module needs the decider
    from .tableau import brute_force_sat, decide_sat
    failures = 0
    first = None
    for k in range(samples):
        rng = random.Random(_child_seed(cfg.seed, 3, k))
        f = _random_formula(rng, cfg, "ltl")
        results = [(cls, decide_sat(f, cls, closure_cap=None)) for cls in CLASSES]
        verdicts = dict((cls, r.satisfiable) for cls, r in results)
        bad = None
        if verdicts["gen"] != (verdicts["fin"] or verdicts["inf"]):
            bad = (f, None, 0)
        for cls, r in results:
            if bad is not None:
                break
            if r.satisfiable:
                if not EvalContext(r.model).holds(f, 0):
                    bad = (f, r.model, 0)
                elif (len(r.model.prefix) + len(r.model.loop) <= max_total
                      and brute_force_sat(f, cls, max_total) != "satisfiable"):
                    bad = (f, r.model, 0)
            elif brute_force_sat(f, cls, max_total) == "satisfiable":
                bad = (f, None, 0)
        if bad is not None:
            failures += 1
            if first is None:
                first = bad
    return CampaignReport((("cross-check", samples),), failures, first)
