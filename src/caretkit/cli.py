"""Command-line front end.

Subcommands: eval, sat, valid, check-proof, fuzz, axioms.  Exit codes:
0 for a positive outcome (true / SAT / VALID / OK / zero failures),
1 for a negative outcome, 2 for usage errors, 3 for input errors
(unparsable formulas, trace or proof files, closure cap),
4 for internal invariant violations.  All diagnostics go to stderr; --json
emits one machine-readable object on stdout with fixed key order.  Once
stdout's reader has gone (``| head -1``), the rest of the output is dropped
quietly and the exit code is still the verdict's, as a Unix filter does.
"""

from __future__ import annotations

import argparse
import os
import sys

from .syntax import (
    CLASSES, DEFAULT_CLOSURE_CAP, SYSTEM_IDS, ClosureCapError, EvalError, Not,
    ParseError, ProofError, ProofFormatError, parse_formula, print_formula,
)
from .trace import TraceFormatError, parse_trace, trace_to_text

__all__ = ["main"]


def _emit(args, payload: dict, text: str) -> None:
    try:
        if getattr(args, "json", False):
            import json
            print(json.dumps(payload))
        elif text:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: stdout goes to devnull, so that the flush at
        # exit stays quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def eval_ltl(trace, pos, formula):
    """The evaluator, imported on first call, as eval_caret is: only eval
    and fuzz load semantics."""
    from .semantics import eval_ltl as evaluate
    return evaluate(trace, pos, formula)


def eval_caret(trace, pos, formula):
    """The call/return evaluator, imported on first call, as eval_ltl is."""
    from .semantics import eval_caret as evaluate
    return evaluate(trace, pos, formula)


def decide_sat(formula, cls, closure_cap):
    """The decider, imported on first call: only sat, valid and the
    cross-check campaign load it."""
    from .tableau import decide_sat as decide
    return decide(formula, cls, closure_cap=closure_cap)


def check_proof(script):
    """The proof checker, imported on first call: only check-proof, axioms
    and fuzz load proof."""
    from .proof import check_proof as check
    return check(script)


def _cap(args) -> int | None:
    if args.cap is None:
        return DEFAULT_CLOSURE_CAP
    return None if args.cap == 0 else args.cap


def _cmd_eval(args) -> int:
    formula = parse_formula(args.formula, args.mode)
    with open(args.trace, encoding="utf-8") as fh:
        trace = parse_trace(fh.read())
    if args.mode == "caret":
        value = eval_caret(trace, args.pos, formula)
    else:
        value = eval_ltl(trace, args.pos, formula)
    verdict = "true" if value else "false"
    _emit(args, {"command": "eval", "verdict": verdict}, verdict)
    return 0 if value else 1


# valid f is sat !f with other verdicts: per command, whether the formula is
# negated, then the verdict and exit code without a model and with one
_DECISIONS = {"sat": (False, ("unsat", 1), ("sat", 0)),
              "valid": (True, ("valid", 0), ("invalid", 1))}


def _cmd_decide(args) -> int:
    negated, *verdicts = _DECISIONS[args.command]
    formula = parse_formula(args.formula, "ltl")
    result = decide_sat(Not(formula) if negated else formula, args.cls,
                        closure_cap=_cap(args))
    verdict, code = verdicts[result.satisfiable]
    payload = {"command": args.command, "verdict": verdict}
    text = verdict.upper()
    if result.satisfiable:
        payload["witness"] = trace_to_text(result.model)
        text += "\n" + payload["witness"]
    _emit(args, payload, text)
    return code


def _cmd_check_proof(args) -> int:
    from .proof import parse_proof
    with open(args.file, encoding="utf-8") as fh:
        script = parse_proof(fh.read())
    verdict = check_proof(script)
    if verdict.ok:
        _emit(args, {"command": "check-proof", "verdict": "ok"}, "OK")
        return 0
    report = {"step": verdict.step, "reason": verdict.reason}
    _emit(args, {"command": "check-proof", "verdict": "failed",
                 "report": report},
          f"FAIL step {verdict.step}: {verdict.reason}")
    return 1


def _report_payload(report) -> dict:
    payload = {"counts": {name: count for name, count in report.counts},
               "failures": report.failures}
    if report.first_failure is not None:
        formula, trace, pos = report.first_failure
        payload["first_failure"] = {
            "formula": print_formula(formula),
            "trace": trace_to_text(trace) if trace is not None else None,
            "position": pos,
        }
    return payload


def _report_text(report) -> str:
    lines = [f"schema {name}: {count} instances" for name, count in report.counts]
    lines.append(f"failures: {report.failures}")
    if report.first_failure is not None:
        formula, trace, pos = report.first_failure
        lines.append("first failure:")
        lines.append(f"  formula: {print_formula(formula)}")
        if trace is not None:
            lines.append("  trace:")
            lines.extend("    " + ln for ln in trace_to_text(trace).splitlines())
        lines.append(f"  position: {pos}")
    return "\n".join(lines)


def _cmd_fuzz(args) -> int:
    from .fuzz import GenConfig, cross_check_campaign, soundness_campaign
    cfg = GenConfig(seed=args.seed)
    if args.system == "cross-check":
        report = cross_check_campaign(args.instances, cfg)
    else:
        report = soundness_campaign(args.system, args.instances, cfg)
    verdict = "ok" if report.failures == 0 else "failures"
    _emit(args, {"command": "fuzz", "verdict": verdict,
                 "report": _report_payload(report)},
          _report_text(report))
    return 0 if report.failures == 0 else 1


def _cmd_axioms(args) -> int:
    from .proof import list_axioms
    rows = list_axioms(args.system)
    text = "\n".join(f"{name}: {template}" for name, template in rows)
    _emit(args, {"command": "axioms", "verdict": "ok",
                 "report": {"system": args.system, "axioms": [list(r) for r in rows]}},
          text)
    return 0


def _non_negative(text: str) -> int:
    """The argparse type of --cap, --instances and --pos: ASCII digits only
    (str digit tests admit other scripts' digits, and int also reads
    underscores); anything else is a usage error (exit 2)."""
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _integer(text: str) -> int:
    """The argparse type of --seed: ASCII digits after an optional minus
    sign; anything else is a usage error (exit 2)."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdecimal()):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caretkit",
        description="temporal logic toolkit: evaluate, decide, check proofs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a formula on a trace file")
    p.add_argument("--formula", required=True)
    p.add_argument("--trace", required=True, help="trace file path")
    p.add_argument("--pos", type=_non_negative, default=0)
    p.add_argument("--mode", choices=("ltl", "caret"), default="ltl")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval)

    for name, summary in (("sat", "decide satisfiability, print a witness"),
                          ("valid", "decide validity, print a countermodel")):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--formula", required=True)
        p.add_argument("--class", dest="cls", required=True, choices=CLASSES)
        p.add_argument("--cap", type=_non_negative, default=None,
                       help="closure size cap (0 lifts the cap; default "
                       f"{DEFAULT_CLOSURE_CAP})")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("check-proof", help="check a proof script file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_proof)

    p = sub.add_parser("fuzz", help="run a soundness or cross-check campaign")
    p.add_argument("--system", required=True,
                   choices=SYSTEM_IDS + ("cross-check",))
    p.add_argument("--instances", type=_non_negative, default=1000)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("axioms", help="list a system's schemas and rules")
    p.add_argument("--system", required=True, choices=SYSTEM_IDS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_axioms)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, TraceFormatError, ProofFormatError, EvalError,
            ClosureCapError, ProofError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except AssertionError as e:
        print(f"internal error: invariant violated ({e})", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
