"""Temporal logic toolkit: LTL over finite, infinite and mixed trace
classes, plus the call/return extension, with a tableau decision procedure,
a Hilbert proof checker and randomized soundness campaigns."""

from .syntax import (
    AbsUntil, AbsWeakNext, And, FALSE, Formula, Not, ParseError, Prop, TRUE,
    TrueConst, Until, WeakNext, closure, ClosureSet, formula_size, is_ltl,
    parse_formula, print_formula, props_of,
)
from .trace import (
    FiniteTrace, LassoTrace, StateTag, StructuredLassoTrace,
    TraceFormatError, abstract_successor, abstract_successor_map,
    matching_return, parse_trace, trace_to_text,
)
from .semantics import (
    EvalContext, EvalError, eval_caret, eval_everywhere, eval_ltl,
)
from .tableau import (
    Atom, AtomGraph, ChainWitness, ClosureCapError, SatResult,
    brute_force_sat, build_atom_graph, decide_sat, decide_valid,
    enumerate_atoms, extract_model,
)
from .proof import (
    ProofError, ProofFormatError, ProofScript, Verdict, check_axiom_instance,
    check_proof, check_tautology, expand_cr, list_axioms, parse_proof,
)
from .fuzz import (
    CampaignReport, GenConfig, cross_check_campaign, gen_formula, gen_trace,
    soundness_campaign,
)

__version__ = "0.1.0"
