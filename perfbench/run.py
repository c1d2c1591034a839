#!/usr/bin/env python3
"""caretkit benchmark: four seeded workloads, end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decide-sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload runs for ``--seconds`` against the package
as it is and reports the end-to-end metrics.  With ``--trace 1`` it runs a
fixed, seeded list of operations (its length set by ``--seconds``)
untraced, with spans recorded around every layer, and untraced again, and
reports the per-layer metrics.  Either way every output is checked, a table is printed
for people, and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REQUIRED = ("src/caretkit/__init__.py", "tests/exhaustive_oracle.py",
            "fixtures/derivation_caret.prf")

WORKLOAD_NAMES = ("decide-sweep", "axiom-validity", "soundness-campaign",
                  "cli-session")
END_TO_END = (("throughput_ops", "ops/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"))
LAYERS = ("syntax.closure", "syntax.parse", "tableau.decide",
          "tableau.extract_model", "semantics.eval",
          "trace.abstract_successor", "trace.parse_trace", "trace.to_text",
          "proof.build_instance", "proof.check_proof", "fuzz.campaign",
          "cli.main")
COUNTED = ("syntax.closure", "tableau.decide", "semantics.eval",
           "trace.abstract_successor", "proof.build_instance")
PER_LAYER = tuple(
    [(f"{layer}.calls", "count") for layer in COUNTED]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("syntax.closure.members_mean", "members"),
       ("tableau.free_bits_mean", "bits"), ("tableau.free_bits_max", "bits"),
       ("tableau.sat_ratio", "ratio"), ("tableau.witness_states_mean", "states"),
       ("cli.import_s", "s"), ("cli.interpreter_s", "s"),
       ("trace_overhead_ratio", "ratio")])

# Tail percentiles: the highest that has at least ten samples beyond it.
# Each workload reports a fixed one, chosen by that rule at its size on the
# reference box, so that a change in speed (and so in the number of
# operations a run completes) does not change which percentile is compared.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
SETUP_REPEATS = 3

# Timings are reported at the speed of the reference machine (2-vCPU Xeon at
# 2.1 GHz, Python 3.11.7, numpy 2.4.6), where `probe` takes PROBE_REF_S when
# the machine is quiet.  On a shared machine other tenants slow every process
# by up to a third for minutes at a time, which moves raw timings of
# identical work by more than any useful regression bound; the same slowdown
# stretches the probe, run every PROBE_EVERY seconds between operations, so
# dividing timings by (probe time / PROBE_REF_S) cancels it: the run's
# median probe for throughput and set-up, the probes around an operation for
# its latency.  The table also prints the raw figures.
PROBE_REF_S = 0.0030
PROBE_EVERY = 0.2


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of n samples beyond
    it; the median when n is below twenty."""
    best = LADDER[0]
    for p in LADDER:
        if n * (100.0 - p) / 100.0 >= 10 - 1e-9:  # 100 - 99.9 is inexact
            best = p
    return best


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    rank = (len(s) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def machine_facts(load) -> str:
    return (f"nproc={len(os.sched_getaffinity(0))} "
            f"python={sys.version.split()[0]} numpy={np.__version__} "
            "loadavg=" + " ".join(f"{x:.2f}" for x in load))


def resident_mb() -> float:
    """Current resident set of this process, in MiB (Linux)."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def probe() -> float:
    """Seconds for a fixed piece of interpreter and numpy work that uses no
    caretkit code: how fast this machine runs Python right now."""
    t = time.perf_counter()
    counts = {}
    for i in range(4000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    seen = set()
    for key, _ in sorted(counts.items(), key=lambda kv: (kv[1], kv[0])):
        seen.add(frozenset(key))
    rows = np.arange(1 << 12, dtype=np.uint32)
    cols = [((rows >> np.uint32(k)) & 1).astype(bool) for k in range(12)]
    packed = np.packbits(np.stack(cols, axis=1), axis=1)
    sum(int.from_bytes(r.tobytes(), "big") for r in packed[:512])
    return time.perf_counter() - t


@dataclass
class Pass:
    """One pass over groups of operations.  `outputs` holds None for an
    operation that raised; `elapsed` leaves out the probes; `probe_at[i]`
    is the index of the last probe before operation i; `rss_mb` is the
    largest resident set seen between groups."""
    elapsed: float
    latencies: list
    args: list
    outputs: list
    rss_mb: float
    probes: list
    probe_at: list


def run_groups(groups, op, seconds=None, limit=None) -> Pass:
    """Run whole groups until `seconds` have passed or `limit` groups ran,
    with a probe before the first operation and then every PROBE_EVERY
    seconds between operations."""
    clock = time.perf_counter
    lat, args, outs, probe_at = [], [], [], []
    rss = 0.0
    probes = [probe()]
    reported = False
    start = last_probe = clock()
    for g, group in enumerate(groups):
        if limit is not None and g >= limit:
            break
        for arg in group:
            t = clock()
            try:
                out = op(arg)
            except Exception:
                out = None
                if not reported:
                    traceback.print_exc()
                    reported = True
            lat.append(clock() - t)
            args.append(arg)
            outs.append(out)
            probe_at.append(len(probes) - 1)
            if clock() - last_probe >= PROBE_EVERY:
                probes.append(probe())
                last_probe = clock()
        rss = max(rss, resident_mb())
        if seconds is not None and clock() - start - sum(probes[1:]) >= seconds:
            break
    return Pass(clock() - start - sum(probes[1:]), lat, args, outs, rss,
                probes, probe_at)


def peak_rss_mb(between_ops: float) -> float:
    """Memory a run holds: the largest resident set of this process between
    operations, or the peak of its largest child process, in MiB.  Sampling
    between operations leaves out the working set of a single decision,
    which is set by the largest formula a seed happens to draw."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(between_ops, child)


def end_to_end(w, seed, seconds):
    # set-up: a cold import of what the benchmark imports, in a fresh
    # interpreter, then building the inputs; the median of three
    times = []
    for _ in range(SETUP_REPEATS):
        import_s = interpreter_time(
            "import caretkit, caretkit.cli, exhaustive_oracle")
        t = time.perf_counter()
        w.setup(seed, seconds)
        times.append(import_s + time.perf_counter() - t)
    setup_s = statistics.median(times)

    run = run_groups(w.groups(), w.op, seconds=seconds)
    rss = peak_rss_mb(run.rss_mb)
    failed = w.check(run.args, run.outputs)
    controls = w.controls()

    # Each latency is divided by the machine slowdown around it (median of
    # the probes just before and after it), the totals by the run's median.
    slow = [p / PROBE_REF_S for p in run.probes]
    slowdown = statistics.median(slow)
    local = [statistics.median(slow[max(0, j - 1):j + 2]) for j in run.probe_at]
    # a failed operation misses every latency target: charge it the window
    raw_ms = [run.elapsed * 1e3 if bad else x * 1e3
              for x, bad in zip(run.latencies, failed)]
    lat_ms = [x / s for x, s in zip(raw_ms, local)]
    n = len(lat_ms)
    pct = w.tail_pct
    raw = {
        "throughput_ops": sum(w.weight(a) for a in run.args) / run.elapsed,
        "latency_p50_ms": percentile(raw_ms, 50.0),
        "latency_tail_ms": percentile(raw_ms, pct),
        "setup_s": setup_s,
    }
    metrics = {
        "throughput_ops": raw["throughput_ops"] * slowdown,
        "latency_p50_ms": percentile(lat_ms, 50.0),
        "latency_tail_ms": percentile(lat_ms, pct),
        "setup_s": setup_s / slowdown,
        "peak_rss_mb": rss,
    }
    beyond = sum(1 for x in lat_ms if x > metrics["latency_tail_ms"])
    short = " (fewer than ten: a short run)" if tail_percentile(n) < pct else ""
    notes = {k: f"raw {v:.6g}" for k, v in raw.items()}
    notes["throughput_ops"] += f"; {n} {w.unit} in {run.elapsed:.2f} s"
    notes["latency_tail_ms"] += f"; p{pct:g} of {n}, {beyond} beyond{short}"
    notes["setup_s"] += f"; median of {SETUP_REPEATS} cold imports + input builds"
    extra = [("machine_slowdown", slowdown, "ratio",
              f"median of {len(run.probes)} probes over the reference")]
    n_failed = sum(failed)
    extra.append(("failed_ratio", n_failed / n, "ratio", f"{n_failed} of {n}"))
    extra += [(k, v, "count", "") for k, v in w.summary(run.outputs).items()]
    return n, n_failed, controls, metrics, notes, extra


def interpreter_time(code: str) -> float:
    """Seconds a fresh interpreter spends running `code`, timed inside it
    (interpreter start-up excluded)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")])
    script = ("import time; t = time.perf_counter()\n" + code +
              "\nprint(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout
    return float(out)


def interpreter_start() -> float:
    """Wall seconds of a bare ``python -c pass``."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, timeout=60,
                   check=True)
    return time.perf_counter() - t


def traced(w, name, seed, seconds, workdir):
    from tracer import Tracer, self_times

    limit = max(1, round(w.trace_groups_per_s * seconds))
    op = getattr(w, "op_in_process", w.op)
    w.setup(seed, seconds)
    before_s = run_groups(w.groups(), op, limit=limit).elapsed

    tracer = Tracer(name)
    tracer.install()
    try:
        w.setup(seed, seconds)
        traced = run_groups(w.groups(), op, limit=limit)
    finally:
        tracer.restore()
    # untraced passes on both sides of the traced one cancel warm-up and drift
    base_s = (before_s + run_groups(w.groups(), op, limit=limit).elapsed) / 2
    args, outs, traced_s = traced.args, traced.outputs, traced.elapsed
    failed = w.check(args, outs)
    controls = w.controls()
    tracer.write(os.path.join(os.path.dirname(workdir), f"spans-{name}.jsonl"))

    selfs, calls = self_times(tracer.spans)
    obs = tracer.observed

    def mean(key):
        return statistics.fmean(obs[key]) if obs[key] else 0

    metrics = {f"{layer}.calls": calls.get(layer, 0) for layer in COUNTED}
    metrics.update({f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS})
    metrics.update({
        "syntax.closure.members_mean": mean("members"),
        "tableau.free_bits_mean": mean("free_bits"),
        "tableau.free_bits_max": max(obs["free_bits"], default=0),
        "tableau.sat_ratio": mean("sat"),
        "tableau.witness_states_mean": mean("witness_states"),
        "cli.import_s": statistics.median(
            interpreter_time("import caretkit.cli") for _ in range(5)),
        "cli.interpreter_s": statistics.median(
            interpreter_start() for _ in range(5)),
        "trace_overhead_ratio": traced_s / base_s,
    })
    notes = {"trace_overhead_ratio":
             f"{len(args)} operations: {traced_s:.2f} s traced, "
             f"{base_s:.2f} s untraced; {len(tracer.spans)} spans"}
    extra = [(k, v, "count", "") for k, v in w.summary(outs).items()]
    return len(args), sum(failed), controls, metrics, notes, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a caretkit checkout ({ROOT}): missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    load = os.getloadavg()
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import workloads
    facts = machine_facts(load)

    workdir = os.path.join(ROOT, ".perfbench", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    w = workloads.WORKLOADS[args.workload](ROOT, workdir)
    try:
        if args.trace:
            result = traced(w, args.workload, args.seed, args.seconds, workdir)
            declared = PER_LAYER
        else:
            result = end_to_end(w, args.seed, args.seconds)
            declared = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, n_failed, controls, metrics, notes, extra = result

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# machine: {facts}")
    rows = [(k, metrics[k], unit, notes.get(k, "")) for k, unit in declared]
    for key, value, unit, note in rows + extra:
        print(f"{key:30s} {value:14.6g} {unit:8s} {note}")
    if not controls:
        print("# control checks FAILED")
    print(json.dumps({
        "correct": controls and n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": metrics[k], "unit": unit}
                    for k, unit in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
