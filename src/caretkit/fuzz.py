"""Deterministic random formulas, traces, and campaign drivers.

Everything here is a pure function of a GenConfig: per-instance random
streams are derived from (seed, stream, index) with integer arithmetic, so
identical configs replay identical campaigns on any platform.

Two campaign styles are provided.  A soundness campaign draws random
metavariable bindings for each axiom schema of a proof system and evaluates
the instance at every canonical position of a fresh random trace of the
system's own trace class; failures are counted, never raised.  It runs the
schema's compiled program over truth masks (Schema.run with
EvalContext.truth_mask and EvalContext.apply), so an instance is built as a
formula only when it fails, to be reported.  A cross-check campaign compares
the tableau decision procedure against the literal bounded trace
enumeration and the class decomposition identity.

Inference rules are deliberately not fuzzed: they preserve validity rather
than pointwise truth, so per-trace evaluation is the wrong instrument for
them; the proof checker's tests cover the rules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .proof import SCHEMAS, SYSTEM_IDS, axiom_schemas, build_schema_instance
from .semantics import EvalContext
from .syntax import (
    CLASSES, AbsUntil, AbsWeakNext, And, Formula, Not, Prop, TRUE, Until,
    WeakNext,
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
# Generators.

def _random_formula(rng: random.Random, size: int, alphabet: tuple[str, ...],
                    mode: str) -> Formula:
    atoms = list(alphabet)
    if mode == "caret":
        atoms += list(_TAG_NAMES)
    if size <= 1:
        pick = rng.randrange(len(atoms) + 1)
        return TRUE if pick == len(atoms) else Prop(atoms[pick])
    if size == 2:
        ops = ("not", "next") + (("anext",) if mode == "caret" else ())
    else:
        ops = ("not", "next", "and", "until")
        if mode == "caret":
            ops = ops + ("anext", "auntil")
    op = ops[rng.randrange(len(ops))]
    if op == "not":
        return Not(_random_formula(rng, size - 1, alphabet, mode))
    if op == "next":
        return WeakNext(_random_formula(rng, size - 1, alphabet, mode))
    if op == "anext":
        return AbsWeakNext(_random_formula(rng, size - 1, alphabet, mode))
    split = rng.randint(1, size - 2) if size > 2 else 1
    left = _random_formula(rng, split, alphabet, mode)
    right = _random_formula(rng, size - 1 - split, alphabet, mode)
    if op == "and":
        return And(left, right)
    if op == "until":
        return Until(left, right)
    return AbsUntil(left, right)


def _random_labels(rng: random.Random, letters: tuple[str, ...]) -> frozenset[str]:
    return frozenset(a for a in letters if rng.random() < 0.5)


def _random_finite(rng: random.Random, cfg: GenConfig) -> FiniteTrace:
    n = rng.randint(1, cfg.max_finite_len)
    return FiniteTrace(tuple(_random_labels(rng, cfg.alphabet) for _ in range(n)))


def _random_lasso(rng: random.Random, cfg: GenConfig) -> LassoTrace:
    total = rng.randint(1, cfg.max_lasso_total)
    loop_len = rng.randint(1, total)
    states = [_random_labels(rng, cfg.alphabet) for _ in range(total)]
    return LassoTrace(tuple(states[:total - loop_len]),
                      tuple(states[total - loop_len:]))


def _random_structured(rng: random.Random, cfg: GenConfig) -> StructuredLassoTrace:
    # tag names never appear as labels; they are carried by the tag slot
    letters = tuple(a for a in cfg.alphabet if a not in _TAG_NAMES)
    total = rng.randint(1, cfg.max_lasso_total)
    loop_len = rng.randint(1, total)
    states = [(_random_labels(rng, letters), _TAG_VALUES[rng.randrange(3)])
              for _ in range(total)]
    return StructuredLassoTrace(tuple(states[:total - loop_len]),
                                tuple(states[total - loop_len:]))


def gen_formula(cfg: GenConfig) -> Formula:
    """One random formula of the config's mode, deterministic in the seed."""
    rng = random.Random(_child_seed(cfg.seed, 1, 0))
    return _random_formula(rng, rng.randint(1, cfg.max_formula_size),
                           cfg.alphabet, cfg.mode)


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

_C5_PARAMS = ({"n": 0}, {"n": 1}, {"n": 2})
_C6_PARAMS = ({"m": 1, "n": 0}, {"m": 2, "n": 0}, {"m": 2, "n": 1})


def _campaign_trace(rng: random.Random, cfg: GenConfig, kind: str):
    if kind == "finite":
        return _random_finite(rng, cfg)
    if kind == "lasso":
        return _random_lasso(rng, cfg)
    if kind == "structured":
        return _random_structured(rng, cfg)
    if kind == "mixed":
        return _random_finite(rng, cfg) if rng.random() < 0.5 \
            else _random_lasso(rng, cfg)
    raise ValueError(f"unknown trace kind {kind!r}")


def _first_false(mask: int, full: int) -> int | None:
    """The lowest position whose bit is set in full and clear in mask, or
    None when there is none: the lowest set bit of full & ~mask."""
    z = full & ~mask
    return (z & -z).bit_length() - 1 if z else None


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
    names = tuple(schemas) if schemas is not None else axiom_schemas(system)
    for name in names:
        if name not in SCHEMAS:
            raise ValueError(f"unknown schema {name!r}")
    kind = trace_class if trace_class is not None else _SYSTEM_TRACES[system]
    mode = "caret" if system == "ax-cr" else "ltl"
    counts = []
    failures = 0
    first = None
    for si, name in enumerate(names):
        schema = SCHEMAS[name]
        for k in range(instances):
            rng = random.Random(_child_seed(cfg.seed, 16 + si, k))
            bindings = {
                v: _random_formula(rng, rng.randint(1, cfg.max_formula_size),
                                   cfg.alphabet, mode)
                for v in schema.metavars
            }
            params = {}
            if name == "C5":
                params = _C5_PARAMS[k % len(_C5_PARAMS)]
            elif name == "C6":
                params = _C6_PARAMS[k % len(_C6_PARAMS)]
            trace = _campaign_trace(rng, cfg, kind)
            ctx = EvalContext(trace)
            pos = _first_false(
                schema.run(params, bindings, ctx.truth_mask, ctx.apply),
                ctx.full)
            if pos is not None:
                failures += 1
                if first is None:
                    first = (build_schema_instance(name, params, bindings),
                             trace, pos)
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
        f = _random_formula(rng, rng.randint(1, cfg.max_formula_size),
                            cfg.alphabet, "ltl")
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
