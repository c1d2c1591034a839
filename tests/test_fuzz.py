"""Generators and fuzz campaigns: determinism, validity, negative controls."""

from __future__ import annotations

import random

import pytest

from caretkit.fuzz import (
    CampaignReport,
    GenConfig,
    cross_check_campaign,
    gen_formula,
    gen_trace,
    soundness_campaign,
)
from caretkit.fuzz import (
    _FAMILY_PARAMS, _below, _campaign_trace, _child_seed, _first_false,
    _instance_mask, _random_formula,
)
from caretkit.proof import SCHEMAS, _run, axiom_schemas, build_schema_instance
from caretkit.semantics import EvalContext, EvalError
from caretkit.syntax import (
    FALSE, SYSTEM_IDS, AbsWeakNext, And, Not, Prop, TrueConst, WeakNext,
    abs_strong_next, always, formula_size, implies, is_ltl,
)
from caretkit.trace import FiniteTrace, LassoTrace, StateTag, StructuredLassoTrace

from test_proof import _expand_cr_tree


# ---------------------------------------------------------------------------
# Config and report plumbing

def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(alphabet=())
    with pytest.raises(ValueError):
        GenConfig(max_formula_size=0)
    with pytest.raises(ValueError):
        GenConfig(mode="both")
    with pytest.raises(ValueError):
        GenConfig(max_lasso_total=0)


# a letter must print back as itself: "true" would print as the constant,
# and the others print text that parse_formula rejects
@pytest.mark.parametrize("letter", ["true", "false", "P", "", "p q", "1p",
                                    "p-q", "\u00e9", 3])
def test_config_rejects_letters_that_do_not_print_back(letter):
    with pytest.raises(ValueError, match=repr(letter)):
        GenConfig(alphabet=("p", letter))


def test_config_rejects_repeated_letters():
    with pytest.raises(ValueError, match="repeats a letter"):
        GenConfig(alphabet=("p", "q", "p"))
    # identifiers the parser reads, tag names included, are letters
    GenConfig(alphabet=("_", "p_1", "call"))


def test_negative_counts_are_refused():
    with pytest.raises(ValueError):
        soundness_campaign("ax", -5, GenConfig())
    with pytest.raises(ValueError):
        cross_check_campaign(-2, GenConfig())
    assert soundness_campaign("ax", 0, GenConfig()).counts == (
        ("T1", 0), ("T2", 0), ("T3", 0))


def test_report_invariant():
    CampaignReport(counts=(("T1", 5),), failures=0)
    with pytest.raises(ValueError):
        CampaignReport(counts=(), failures=1)
    with pytest.raises(ValueError):
        CampaignReport(counts=(), failures=0, first_failure=("x",))


# ---------------------------------------------------------------------------
# Generators

def test_formula_generator_deterministic_and_bounded():
    for seed in range(40):
        cfg = GenConfig(seed=seed, max_formula_size=5)
        f1, f2 = gen_formula(cfg), gen_formula(cfg)
        assert f1 == f2
        assert 1 <= formula_size(f1) <= 5
        assert is_ltl(f1)


def test_formula_generator_caret_mode_reaches_abstract_operators():
    seen_abstract = False
    for seed in range(60):
        f = gen_formula(GenConfig(seed=seed, mode="caret", max_formula_size=6))
        seen_abstract = seen_abstract or not is_ltl(f)
    assert seen_abstract


def test_size_one_formulas_are_atoms():
    for seed in range(20):
        f = gen_formula(GenConfig(seed=seed, max_formula_size=1))
        assert isinstance(f, (Prop, TrueConst))


def test_trace_generator_bounds_and_kinds():
    kinds = set()
    for seed in range(60):
        t = gen_trace(GenConfig(seed=seed))
        kinds.add(type(t))
        if isinstance(t, FiniteTrace):
            assert 1 <= t.length <= 8
        else:
            assert isinstance(t, LassoTrace)
            assert 1 <= t.loop_len and t.prefix_len + t.loop_len <= 8
    assert kinds == {FiniteTrace, LassoTrace}


def test_structured_generator_tags_and_labels():
    for seed in range(40):
        t = gen_trace(GenConfig(seed=seed, mode="caret"))
        assert isinstance(t, StructuredLassoTrace)
        for props, tag in t.prefix + t.loop:
            assert isinstance(tag, StateTag)
            # tag truth comes from the tag field, never from labels
            assert props.isdisjoint({"call", "ret", "int"})


def test_below_draws_what_randrange_and_randint_draw():
    # the generators draw through _below on getrandbits; each draw must give
    # randrange's value and leave the stream where randrange leaves it, n = 1
    # (which still takes a word) and powers of two (which reject half the
    # draws) included
    sizes = list(range(1, 301)) + [1 << k for k in range(9, 40)]
    for seed in range(40):
        ours, ref = random.Random(seed), random.Random(seed)
        for n in sizes:
            assert _below(ours.getrandbits, n) == ref.randrange(n), (seed, n)
            assert ours.getrandbits(32) == ref.getrandbits(32), (seed, n)
        for a, b in ((1, 1), (1, 6), (1, 12), (0, 2), (-3, 4), (1, 2 ** 20)):
            assert a + _below(ours.getrandbits, b - a + 1) == ref.randint(a, b)
            assert ours.getrandbits(32) == ref.getrandbits(32), (seed, a, b)


def test_different_seeds_vary():
    outs = {gen_formula(GenConfig(seed=s)) for s in range(30)}
    assert len(outs) > 10


# ---------------------------------------------------------------------------
# Soundness campaigns

def test_campaign_deterministic():
    cfg = GenConfig(seed=7)
    a = soundness_campaign("ax-gen", 40, cfg)
    b = soundness_campaign("ax-gen", 40, cfg)
    assert a == b


def test_small_campaigns_all_systems_clean():
    cfg = GenConfig(seed=3)
    for system in ("ax", "ax-gen", "ax-inf", "ax-fin", "ax-cr"):
        report = soundness_campaign(system, 60, cfg)
        assert report.failures == 0, (system, report.first_failure)
        assert all(n == 60 for _, n in report.counts)


def test_campaign_counts_name_every_schema():
    report = soundness_campaign("ax-inf", 5, GenConfig(seed=1))
    names = [s for s, _ in report.counts]
    assert names == ["T1", "T2'", "T3'", "Inf"]


def test_negative_control_weak_unfolding_on_finite_traces():
    # the weak-next unfolding is unsound on finite traces; the campaign
    # must catch it when pointed there
    report = soundness_campaign(
        "ax", 300, GenConfig(seed=0), trace_class="finite", schemas=("T2",)
    )
    assert report.failures > 0
    assert report.first_failure is not None
    formula, trace, pos = report.first_failure
    assert isinstance(trace, FiniteTrace)
    from caretkit.semantics import eval_ltl

    assert eval_ltl(trace, pos, formula) is False


def test_negative_control_next_distribution_on_finite_traces():
    report = soundness_campaign(
        "ax", 120, GenConfig(seed=5), trace_class="finite", schemas=("T3",)
    )
    assert report.failures > 0


def test_campaign_rejects_unknown_system():
    with pytest.raises(ValueError):
        soundness_campaign("ax-zzz", 1, GenConfig())


def test_first_false_matches_a_scan():
    rng = random.Random(20261018)
    for _ in range(3000):
        n = rng.randint(1, 80)
        full = (1 << n) - 1
        mask = rng.choice((rng.getrandbits(n), full,
                           full ^ (1 << rng.randrange(n)), 0))
        scan = next((i for i in range(n) if not (mask >> i) & 1), None)
        assert _first_false(mask, full) == scan, (mask, n)


def _family_reference(name, p, bindings):
    # C5/C6 instances built as trees by test_proof's reference, which shares
    # no code with the compiled counting program
    call = Prop("call")
    if name == "C5":
        phi = bindings["phi"]
        tree = _expand_cr_tree(0, p["n"], p["n"], And(Prop("ret"), phi))
        return implies(And(call, WeakNext(tree)), abs_strong_next(phi))
    tree = _expand_cr_tree(0, p["m"], p["n"], always(Not(Prop("ret"))))
    return implies(And(call, WeakNext(tree)), AbsWeakNext(FALSE))


def test_schema_programs_over_masks_match_built_instances():
    # the campaign runs each schema's program over truth masks; it must
    # give the mask of the instance the checker builds, for every schema,
    # and for C5/C6 the mask of the reference tree too
    caret_schemas = set(axiom_schemas("ax-cr"))
    family_params = {"C5": [{"n": n} for n in range(5)],
                     "C6": [{"m": m, "n": n}
                            for m in range(1, 5) for n in range(m)]}
    for si, (name, schema) in enumerate(SCHEMAS.items()):
        caret = name in caret_schemas
        mode = "caret" if caret else "ltl"
        kinds = ("structured",) if caret else ("finite", "lasso", "structured")
        cfg = GenConfig(seed=si, max_finite_len=12, max_lasso_total=12)
        params = family_params.get(name, [{}])
        for k in range(120):
            rng = random.Random(1_000 * si + k)
            bindings = {v: _random_formula(rng, cfg, mode)
                        for v in schema.metavars}
            p = params[k % len(params)]
            for kind in kinds:
                ctx = EvalContext(_campaign_trace(rng, cfg, kind))
                expected = EvalContext(ctx.trace).truth_mask(
                    schema.build(p, bindings))
                masks = [ctx.truth_mask(bindings[v]) for v in schema.metavars]
                assert _run(schema.program(p), masks, ctx.truth_mask,
                            ctx.apply) == expected, (name, k, kind)
                if name in family_params:
                    assert EvalContext(ctx.trace).truth_mask(
                        _family_reference(name, p, bindings)) == expected


def test_campaign_masks_match_replayed_instances():
    # the campaign evaluates an instance from its draw, building no formula
    # or trace; replayed through the object builders, the same seed must
    # give an instance whose truth mask on the built trace is the same, for
    # every schema, system and trace class (the negative controls' pairings
    # and caret bindings on unstructured traces included, where both sides
    # must refuse an abstract operator alike)
    checked = refused = 0
    for sysi, system in enumerate(SYSTEM_IDS):
        mode = "caret" if system == "ax-cr" else "ltl"
        for si, name in enumerate(SCHEMAS):
            cycle = _FAMILY_PARAMS.get(name, ({},))
            for kind in ("finite", "lasso", "mixed", "structured"):
                cfg = GenConfig(seed=100 * sysi + si, max_finite_len=12,
                                max_lasso_total=12)
                for k in range(8):
                    params = cycle[k % len(cycle)]
                    seed = _child_seed(cfg.seed, 16 + si, k)
                    schema = SCHEMAS[name]
                    try:
                        got = _instance_mask(random.Random(seed), cfg, mode,
                                             kind, len(schema.metavars),
                                             schema.program(params))
                    except EvalError:
                        got = None
                    rng = random.Random(seed)
                    bindings = {v: _random_formula(rng, cfg, mode)
                                for v in SCHEMAS[name].metavars}
                    ctx = EvalContext(_campaign_trace(rng, cfg, kind))
                    f = build_schema_instance(name, params, bindings)
                    try:
                        want = (ctx.truth_mask(f), ctx.full)
                    except EvalError:
                        want = None
                    assert got == want, (system, name, kind, k)
                    checked += 1
                    refused += want is None
    assert checked == 5 * 20 * 4 * 8 and 0 < refused < checked


# ---------------------------------------------------------------------------
# Cross-check campaign

def test_cross_check_clean_and_deterministic():
    cfg = GenConfig(seed=11, max_formula_size=6, alphabet=("p", "q"))
    a = cross_check_campaign(60, cfg)
    b = cross_check_campaign(60, cfg)
    assert a == b
    assert a.failures == 0
    assert a.counts == (("cross-check", 60),)


def test_cross_check_preconditions():
    with pytest.raises(ValueError):
        cross_check_campaign(5, GenConfig(alphabet=("p", "q", "r")))
    with pytest.raises(ValueError):
        cross_check_campaign(5, GenConfig(max_formula_size=9))


# ---------------------------------------------------------------------------
# Pinned campaign outcomes

def _campaign_digest() -> str:
    """SHA-256 over the reports of seeded positive campaigns of every system
    and of negative controls: counts, failure count, and the first failure's
    printed formula, trace text and position."""
    import hashlib

    from caretkit.syntax import print_formula
    from caretkit.trace import trace_to_text

    runs = [(system, 300, seed, None, None)
            for seed in (1, 20261017)
            for system in ("ax", "ax-gen", "ax-inf", "ax-fin", "ax-cr")]
    runs += [("ax", 2000, seed, "finite", (schema,))
             for seed in (1, 20261017) for schema in ("T2", "T3")]
    runs += [("ax-gen", 200, 1, "finite", ("Inf",)),
             ("ax-fin", 200, 1, "lasso", ("Fin",)),
             ("ax-cr", 200, 1, "lasso", ("C1",))]
    h = hashlib.sha256()
    for system, n, seed, kind, schemas in runs:
        cfg = GenConfig(seed=seed, max_finite_len=12, max_lasso_total=12)
        rep = soundness_campaign(system, n, cfg, trace_class=kind,
                                 schemas=schemas)
        first = None
        if rep.first_failure is not None:
            f, trace, pos = rep.first_failure
            first = (print_formula(f), trace_to_text(trace), pos)
        h.update(repr((system, n, seed, kind, schemas, rep.counts,
                       rep.failures, first)).encode())
    return h.hexdigest()


def _generator_digest() -> str:
    """SHA-256 over the printed formula and trace text of gen_formula and
    gen_trace at seeds 0-999, in both modes, over two and three letters."""
    import hashlib

    from caretkit.syntax import print_formula
    from caretkit.trace import trace_to_text

    h = hashlib.sha256()
    for alphabet in (("p", "q"), ("p", "q", "r")):
        for mode in ("ltl", "caret"):
            for seed in range(1000):
                cfg = GenConfig(seed=seed, mode=mode, alphabet=alphabet)
                h.update(print_formula(gen_formula(cfg)).encode())
                h.update(b"\0")
                h.update(trace_to_text(gen_trace(cfg)).encode())
                h.update(b"\0")
    return h.hexdigest()


def test_generated_formulas_and_traces_are_pinned():
    # the random calls, their order and how draws become objects are part
    # of what every seed means: a change to any of them changes every
    # seeded campaign, test and reported counterexample
    assert _generator_digest() == (
        "fcfe560358fe1f4a94fe8ddb624831c0b971d7a6a5ffe37a605d7aa7b16500dd")


def test_campaign_reports_are_pinned():
    assert _campaign_digest() == (
        "08300ade5a458571dcf0cab09d5d66c319c4164c9956a6473bcfa37ce551f3ac")
