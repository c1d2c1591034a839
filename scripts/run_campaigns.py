#!/usr/bin/env python3
"""Run the axiom soundness campaigns for every proof system.

Fuzzes random instances of each axiom schema against random traces of the
system's intended class and reports failure counts, time and instances per
second, then runs the two
negative controls (T2 and T3 over finite traces) that are expected to
fail, as a check that the harness can detect unsoundness at all.

Exit status is 0 iff every positive campaign is clean and both negative
controls produce failures.
"""

import argparse
import sys
import time

# --seed is read as caretkit fuzz --seed is
from caretkit.cli import _integer
from caretkit.fuzz import GenConfig, soundness_campaign
from caretkit.syntax import print_formula
from caretkit.trace import trace_to_text


def _positive(text: str) -> int:
    """The argparse type of --instances and the trace bounds: below 1 there
    is no instance to run, or no trace to run it on."""
    if not (text.isascii() and text.isdecimal()) or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=_positive, default=1000,
                    help="instances per schema (default 1000)")
    ap.add_argument("--seed", type=_integer, default=0)
    ap.add_argument("--max-finite-len", type=_positive, default=12)
    ap.add_argument("--max-lasso-total", type=_positive, default=12)
    args = ap.parse_args()

    cfg = GenConfig(seed=args.seed, max_finite_len=args.max_finite_len,
                    max_lasso_total=args.max_lasso_total)
    ok = True
    for system in ("ax", "ax-gen", "ax-inf", "ax-fin", "ax-cr"):
        t0 = time.perf_counter()
        rep = soundness_campaign(system, args.instances, cfg)
        dt = time.perf_counter() - t0
        done = len(rep.counts) * args.instances
        print(f"{system:8s} {len(rep.counts):2d} schemas x {args.instances}"
              f"  failures: {rep.failures}  ({dt:.2f}s,"
              f" {done / dt:,.0f} instances/s)")
        if rep.failures:
            ok = False
            f, tr, pos = rep.first_failure
            print(f"  first failure at position {pos} of:")
            print("   ", print_formula(f))
            print("   ", trace_to_text(tr).replace("\n", " / "))

    print()
    for schema in ("T2", "T3"):
        rep = soundness_campaign("ax", args.instances, cfg,
                                 trace_class="finite", schemas=(schema,))
        verdict = "ok (fails as it should)" if rep.failures else "NOT DETECTED"
        print(f"control {schema} over finite traces: {rep.failures}"
              f"/{args.instances} failures: {verdict}")
        if not rep.failures:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
