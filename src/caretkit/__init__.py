"""Temporal logic toolkit: LTL over finite, infinite and mixed trace
classes, plus the call/return extension, with a tableau decision procedure,
a Hilbert proof checker and randomized soundness campaigns.

Syntax and traces load with the package.  The names below from
``semantics``, ``tableau``, ``proof`` and ``fuzz`` load their module on
first use (PEP 562), so a caller that only evaluates never imports the
decider, the proof checker or the campaigns, and one that only decides
never imports the evaluator.
"""

import importlib

from .syntax import (
    AbsUntil, AbsWeakNext, And, FALSE, Formula, Not, ParseError, Prop, TRUE,
    TrueConst, Until, WeakNext, closure, ClosureCapError, ClosureSet,
    EvalError, ProofError, ProofFormatError, formula_size, is_ltl,
    parse_formula, print_formula, props_of,
)
from .trace import (
    FiniteTrace, LassoTrace, StateTag, StructuredLassoTrace,
    TraceFormatError, abstract_successor, abstract_successor_map,
    matching_return, parse_trace, trace_to_text,
)

_LAZY = {name: module for module, names in (
    ("semantics", ("EvalContext", "eval_caret", "eval_everywhere",
                   "eval_ltl")),
    ("tableau", ("Atom", "AtomGraph", "ChainWitness", "SatResult",
                 "brute_force_sat", "build_atom_graph", "decide_sat",
                 "decide_valid", "enumerate_atoms", "extract_model")),
    ("proof", ("ProofScript", "Verdict", "check_axiom_instance",
               "check_proof", "check_tautology", "expand_cr", "list_axioms",
               "parse_proof")),
    ("fuzz", ("CampaignReport", "GenConfig", "cross_check_campaign",
              "gen_formula", "gen_trace", "soundness_campaign")),
) for name in names}


def __getattr__(name):
    if name in ("semantics", "tableau", "proof", "fuzz"):
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"
