#!/usr/bin/env python3
"""Sweep the satisfiability decider against whole-space enumeration.

Enumerates every formula up to a core size over {p, q}, decides each in
all three trace classes, confirms returned witnesses with the evaluator,
and checks unsat verdicts against a vectorized truth profile over every
finite trace and every lasso within a size bound.  This reproduces the
heaviest acceptance check at a configurable scale (the acceptance run
uses --max-size 7 --bound 8).

Exit status 0 iff no disagreement was found.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

# --cache-max-size is read as caretkit --cap is: int alone would take -1,
# which turns the cache off, and read "1_0" as 10
from caretkit.cli import _non_negative
from caretkit.semantics import eval_ltl
from caretkit.syntax import print_formula
from caretkit.tableau import decide_sat
from exhaustive_oracle import ExhaustiveOracle, enumerate_formulas


def _positive(text: str) -> int:
    """The argparse type of --max-size and --bound: below 1 there is no
    formula to check, or no trace to check it on."""
    if not (text.isascii() and text.isdecimal()) or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-size", type=_positive, default=5,
                    help="largest formula core size to enumerate (default 5)")
    ap.add_argument("--bound", type=_positive, default=6,
                    help="trace space size bound (default 6)")
    ap.add_argument("--cache-max-size", type=_non_negative, default=None,
                    help="only cache profiles of formulas up to this size "
                         "(0 caches none)")
    args = ap.parse_args()

    oracle = ExhaustiveOracle(args.bound, cache_max_size=args.cache_max_size)
    print(f"spaces: {oracle.fin.total} finite traces, "
          f"{oracle.lasso.total} lassos (bound {args.bound})")
    by_size = enumerate_formulas(args.max_size)
    bad = 0
    for n in range(1, args.max_size + 1):
        t0 = time.perf_counter()
        counts = {"fin": 0, "inf": 0, "gen": 0}
        for f in by_size[n]:
            verdicts = {}
            for cls in counts:
                res = decide_sat(f, cls, closure_cap=None)
                verdicts[cls] = res.satisfiable
                if res.satisfiable:
                    counts[cls] += 1
                    if not eval_ltl(res.model, 0, f):
                        bad += 1
                        print(f"BAD WITNESS [{cls}] {print_formula(f)}")
                elif oracle.sat(f, cls):
                    bad += 1
                    print(f"UNSAT DISAGREEMENT [{cls}] {print_formula(f)}")
            if verdicts["gen"] != (verdicts["fin"] or verdicts["inf"]):
                bad += 1
                print(f"CLASS IDENTITY BROKEN {print_formula(f)}")
        dt = time.perf_counter() - t0
        print(f"size {n}: {len(by_size[n]):6d} formulas  sat "
              f"fin={counts['fin']} inf={counts['inf']} gen={counts['gen']}"
              f"  ({dt:.1f}s)")
    print("clean" if bad == 0 else f"{bad} disagreements")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
