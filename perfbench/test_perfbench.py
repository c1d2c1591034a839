"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

sys.path[:0] = [os.path.join(run.ROOT, "src"), os.path.join(run.ROOT, "tests")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from caretkit.syntax import Not  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(cwd, *argv):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_declared_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_is_correct_and_emits_exactly_the_declared_metrics(workload, trace):
    proc = _bench(run.ROOT, "--workload", workload, "--seed", "7",
                  "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "failed_ratio" in proc.stdout


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "decide-sweep", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("n, expected", [
    (1, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (1999, 99.0), (2000, 99.5), (9999, 99.5), (10000, 99.9), (10 ** 6, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_percentile_interpolates_between_ranks():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.percentile(values, 50) == 3.0
    assert run.percentile(values, 75) == 4.0
    assert run.percentile(values, 90) == pytest.approx(4.6)
    assert run.percentile([7.0], 99) == 7.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["syntax.parse", 1.0, 4.0, 0],
        ["tableau.decide", 5.0, 9.0, 0],
        ["syntax.closure", 6.0, 7.0, 2],
        ["tableau.decide", 11.0, 12.5, -1],
    ]
    selfs, calls = tracer.self_times(spans)
    assert selfs == {"cli.main": 3.0, "syntax.parse": 3.0,
                     "tableau.decide": 4.5, "syntax.closure": 1.0}
    assert calls == {"cli.main": 1, "syntax.parse": 1, "tableau.decide": 2,
                     "syntax.closure": 1}


def _current(dotted, attr):
    owner = tracer._resolve(dotted)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_restores_the_package_and_nests_outermost_spans():
    import caretkit.tableau
    from caretkit.syntax import parse_formula

    originals = {(d, a): _current(d, a) for d, a, _, _ in tracer.PATCHES}
    t = tracer.Tracer("unit")
    t.install()
    try:
        assert caretkit.tableau.decide_valid(parse_formula("p | !p"), "fin")
    finally:
        t.restore()
    for (dotted, attr), original in originals.items():
        assert _current(dotted, attr) is original, (dotted, attr)
    # decide_valid calls decide_sat: one outermost span, one closure inside it
    assert [s[0] for s in t.spans] == ["tableau.decide", "syntax.closure"]
    assert t.spans[1][3] == 0
    assert t.observed["sat"] == [0.0]


def test_free_bits_matches_the_package_closure():
    from caretkit.syntax import closure

    av = workloads.AxiomValidity(run.ROOT, "unused")
    av.setup(3, 1)
    t = tracer.Tracer("unit")
    on_closure = t._observers()[("caretkit.tableau", "closure")]
    for f, _ in av.items[:300]:
        on_closure(closure(Not(f)))
    assert t.observed["free_bits"] == [workloads.free_bits(Not(f))
                                       for f, _ in av.items[:300]]


def test_checks_reject_wrong_outputs(tmp_path):
    from caretkit.syntax import parse_formula
    from caretkit.trace import LassoTrace

    ds = workloads.DecideSweep(run.ROOT, str(tmp_path))
    args = [(parse_formula("p & X q"), cls) for cls in workloads.CLASSES]
    outs = [ds.op(a) for a in args]
    assert ds.check(args, outs) == [False, False, False]
    # a false unsat claim, a witness that does not satisfy f, and a crash
    bad = [(False, None), (True, LassoTrace((), (frozenset(),))), None]
    for k in range(3):
        assert ds.check(args, outs[:k] + [bad[k]] + outs[k + 1:])[k], k

    av = workloads.AxiomValidity(run.ROOT, str(tmp_path))
    small = (parse_formula("p | !p"), "fin")
    deep = (parse_formula("X " * 20 + "p"), "fin")
    assert workloads.free_bits(Not(deep[0])) > workloads.FREE_BITS_GUARD
    assert av.op(deep) is workloads.REFUSED
    # a refusal counts only beyond the decider's documented free-bit guard
    assert av.check([small, small, small, deep, small],
                    [True, False, None, workloads.REFUSED, workloads.REFUSED]) \
        == [False, True, True, False, True]

    sc = workloads.SoundnessCampaign(run.ROOT, str(tmp_path))
    counts = (("T1", 2), ("T2", 2), ("T3", 2))
    arg = ("ax", 2, None)
    assert sc.check([arg, arg, arg], [(0, counts), (1, counts), (0, counts[:2])]) \
        == [False, True, True]

    cs = workloads.CliSession(run.ROOT, str(tmp_path))
    call = ("check-proof", ["check-proof", "x.prf"], 0)
    assert cs.check([call, call, call], [(0, "OK\n"), (1, "OK\n"), (0, "FAIL\n")]) \
        == [False, True, True]
