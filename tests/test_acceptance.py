"""Acceptance gate: one test per criterion, each printing one PASS line.

Every numeric budget is asserted, and every expected value here is either
computed by an independent oracle in this run or was frozen after being
computed once by hand or by the validated oracles in the unit suite.
Run with -s to see the per-criterion lines; the test verdicts themselves
carry the same information.
"""

import contextlib
import io
import json
import pathlib
import random
import time

import pytest

from caretkit.cli import main
from caretkit.fuzz import (
    GenConfig,
    _campaign_trace,
    _child_seed,
    _random_formula,
    gen_formula,
    soundness_campaign,
)
from caretkit.proof import (
    SCHEMAS,
    axiom_schemas,
    build_schema_instance,
    check_proof,
    parse_proof,
)
from caretkit.semantics import eval_caret, eval_ltl
from caretkit.syntax import Not, parse_formula, print_formula
from caretkit.tableau import decide_sat, decide_valid
from caretkit.trace import (
    INCONCLUSIVE,
    LassoTrace,
    FiniteTrace,
    StateTag,
    abstract_successor,
    brute_matching_return,
    canonical_position,
    matching_return,
    parse_trace,
)
from exhaustive_oracle import ExhaustiveOracle, enumerate_formulas
from test_proof import DERIVATION, MUTATIONS, _mutate

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
SEED = 20260815


def _report(n: int, t0: float, budget: float, detail: str):
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion {n}: PASS in {elapsed:.1f}s (budget {budget:.0f}s) - {detail}")
    assert elapsed < budget


def _cfg12(seed=SEED, **kw):
    return GenConfig(seed=seed, max_finite_len=12, max_lasso_total=12, **kw)


def test_criterion_1_counterexample_regressions():
    t0 = time.perf_counter()
    trace = parse_trace((FIXTURES / "m1.trace").read_text())
    assert trace == FiniteTrace((frozenset({"p"}),))
    for name in ("t2_instance_m1.ltl", "t3_instance_m1.ltl"):
        f = parse_formula((FIXTURES / name).read_text().strip())
        assert eval_ltl(trace, 0, f) is False
    _report(1, t0, 1, "both bundled instances false at position 0 of [{p}]")


def test_criterion_2_ltl_soundness_campaigns():
    t0 = time.perf_counter()
    done = []
    for system in ("ax-gen", "ax-inf", "ax-fin", "ax"):
        rep = soundness_campaign(system, 10_000, _cfg12())
        assert rep.failures == 0, (system, rep.first_failure)
        assert rep.counts == tuple((s, 10_000) for s in axiom_schemas(system))
        done.append(f"{system}:{len(rep.counts)}x10000")
    # negative control: the finite class must actually break T2 and T3
    for schema in ("T2", "T3"):
        rep = soundness_campaign("ax", 2_000, _cfg12(),
                                 trace_class="finite", schemas=(schema,))
        assert rep.failures >= 1, schema
        f, tr, pos = rep.first_failure
        assert eval_ltl(tr, pos, f) is False
        done.append(f"{schema}/finite:{rep.failures} failures")
    _report(2, t0, 120, "; ".join(done))


def test_criterion_3_caret_soundness_campaign():
    t0 = time.perf_counter()
    names = ("G1", "G2", "G3", "G4", "A1", "A2", "A3", "C1", "C2", "C3", "C4")
    rep = soundness_campaign("ax-cr", 10_000, _cfg12(), schemas=names)
    assert rep.failures == 0, rep.first_failure
    assert rep.counts == tuple((s, 10_000) for s in names)
    for schema in ("C5", "C6"):
        rep = soundness_campaign("ax-cr", 2_000, _cfg12(), schemas=(schema,))
        assert rep.failures == 0, (schema, rep.first_failure)
    _report(3, t0, 180, "11 schemas x10000 + C5/C6 x2000, 0 failures")


def test_criterion_4_decider_against_exhaustive_oracle():
    t0 = time.perf_counter()
    oracle = ExhaustiveOracle(8, cache_max_size=6)
    by_size = enumerate_formulas(7)
    total = sum(len(fs) for fs in by_size.values())
    assert total == 25_275
    n_sat = {"fin": 0, "inf": 0, "gen": 0}
    for n in range(1, 8):
        for f in by_size[n]:
            verdicts = {}
            for cls in ("fin", "inf", "gen"):
                res = decide_sat(f, cls, closure_cap=None)
                verdicts[cls] = res.satisfiable
                if res.satisfiable:
                    n_sat[cls] += 1
                    assert eval_ltl(res.model, 0, f), (f, cls, res.model)
                    if cls == "fin":
                        assert isinstance(res.model, FiniteTrace)
                    elif cls == "inf":
                        assert isinstance(res.model, LassoTrace)
                else:
                    # unsat must match literal enumeration of every trace
                    # with at most 8 states (prefix+loop for lassos)
                    assert not oracle.sat(f, cls), (f, cls)
            assert verdicts["gen"] == (verdicts["fin"] or verdicts["inf"]), f
    _report(4, t0, 600,
            f"{total} formulas x3 classes; witnesses all confirmed; "
            f"sat counts fin={n_sat['fin']} inf={n_sat['inf']} gen={n_sat['gen']}")


def test_criterion_5_class_separating_validities():
    t0 = time.perf_counter()
    assert decide_valid(parse_formula("F (X false)"), "fin") is True
    assert decide_valid(parse_formula("!(X false)"), "inf") is True
    assert decide_valid(parse_formula("X !p -> !(X p)"), "inf") is True
    assert decide_valid(parse_formula("X !p -> !(X p)"), "fin") is False
    # every axiom of every checkable system is valid in that system's class
    checked = 0
    for system, cls in (("ax", "inf"), ("ax-gen", "gen"),
                        ("ax-inf", "inf"), ("ax-fin", "fin")):
        cfg = GenConfig(seed=SEED)
        for si, name in enumerate(axiom_schemas(system)):
            for k in range(500):
                rng = random.Random(_child_seed(cfg.seed, 16 + si, k))
                bindings = {
                    v: _random_formula(rng, cfg, "ltl")
                    for v in SCHEMAS[name].metavars
                }
                inst = build_schema_instance(name, {}, bindings)
                assert decide_valid(inst, cls, closure_cap=None), \
                    (system, name, inst)
                checked += 1
    _report(5, t0, 120, f"4 goldens + {checked} fuzzed instances all valid")


def test_criterion_6_proof_checker_and_derived_formula():
    t0 = time.perf_counter()
    assert check_proof(parse_proof(DERIVATION)).ok
    assert len(MUTATIONS) >= 14
    for step, bad in MUTATIONS.items():
        verdict = check_proof(parse_proof(_mutate(step, bad)))
        assert not verdict.ok and verdict.step == step, step
    conclusion = parse_formula("!call & Xa false -> X ret", "caret")
    cfg = _cfg12()
    positions = 0
    for k in range(1_000):
        rng = random.Random(_child_seed(SEED, 6, k))
        t = _campaign_trace(rng, cfg, "structured")
        for i in range(t.prefix_len + t.loop_len):
            assert eval_caret(t, i, conclusion), (t, i)
            positions += 1
    _report(6, t0, 60,
            f"derivation OK; {len(MUTATIONS)} mutations rejected at their step; "
            f"conclusion true at {positions} positions of 1000 lassos")


def test_criterion_7_abstract_successor_against_brute_scan():
    t0 = time.perf_counter()
    cfg = _cfg12()
    conclusive = undefined = 0
    for k in range(10_000):
        rng = random.Random(_child_seed(SEED, 7, k))
        t = _campaign_trace(rng, cfg, "structured")
        i = rng.randrange(t.prefix_len + 2 * t.loop_len + 1)
        mr = matching_return(t, i)
        br = brute_matching_return(t, i, 1_000)
        if br == INCONCLUSIVE:
            # bound 1000 dominates every possible match here, so an
            # inconclusive scan means the return truly never comes
            assert mr is None
            undefined += 1
        else:
            assert mr == br, (t, i)
            conclusive += 1

        succ = abstract_successor(t, i)
        if t.tag_at(i) is StateTag.CALL:
            assert succ == (None if br == INCONCLUSIVE else br)
        elif t.tag_at(i + 1) is StateTag.RET:
            assert succ is None
        else:
            assert succ == i + 1

        L = t.loop_len
        if i >= t.prefix_len:
            assert canonical_position(t, i + L) == canonical_position(t, i)
            mr2 = matching_return(t, i + L)
            assert mr2 == (None if mr is None else mr + L)
            s2 = abstract_successor(t, i + L)
            assert s2 == (None if succ is None else succ + L)
    _report(7, t0, 60,
            f"10000 samples: {conclusive} scans conclusive and agreeing, "
            f"{undefined} divergences matching undefined; periodicity holds")


def _cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_criterion_8_roundtrips_and_format_stability(tmp_path):
    t0 = time.perf_counter()
    for k in range(10_000):
        cfg = GenConfig(seed=k, max_formula_size=7,
                        mode="caret" if k % 2 else "ltl")
        f = gen_formula(cfg)
        assert parse_formula(print_formula(f), cfg.mode) == f, f

    # every CLI sat witness must evaluate back to true through the CLI
    confirmed = 0
    for k in range(120):
        f = gen_formula(GenConfig(seed=k, max_formula_size=6))
        text = print_formula(f)
        for cls in ("gen", "fin", "inf"):
            code, out = _cli("sat", "--formula", text, "--class", cls,
                             "--cap", "0")
            if code != 0:
                continue
            witness = out.split("\n", 1)[1]
            path = tmp_path / f"w{k}{cls}.trace"
            path.write_text(witness)
            code2, out2 = _cli("eval", "--formula", text, "--trace", str(path))
            assert code2 == 0 and out2.strip() == "true", (text, cls)
            confirmed += 1

    stable = [
        ("fuzz", "--system", "ax-gen", "--instances", "40", "--seed", "7",
         "--json"),
        ("fuzz", "--system", "ax-cr", "--instances", "25", "--seed", "3",
         "--json"),
        ("sat", "--formula", "G (p -> F q) & p", "--class", "inf", "--cap",
         "0", "--json"),
        ("valid", "--formula", "X !p -> !(X p)", "--class", "fin", "--json"),
        ("eval", "--formula", "p U q", "--trace", str(FIXTURES / "m1.trace"),
         "--json"),
        ("axioms", "--system", "ax-cr", "--json"),
    ]
    for argv in stable:
        code_a, out_a = _cli(*argv)
        code_b, out_b = _cli(*argv)
        assert (code_a, out_a) == (code_b, out_b), argv
        json.loads(out_a)
    _report(8, t0, 600,
            f"10000 round-trips clean; {confirmed} witnesses re-evaluated "
            f"true; {len(stable)} JSON invocations byte-stable")
