"""The four workloads: seeded inputs, one timed operation each, output checks.

Every workload is closed loop with one client and runs in this process
(cli-session keeps one child process alive at a time).  Inputs come only
from the seed.  The formulas and traces are drawn by this file's own
generators rather than by ``caretkit.fuzz``, so a change to the package's
generators cannot change what the benchmark measures.

Operations come in groups; the runner reads the clock only between groups,
so a run always ends on a whole group and the mix of operation kinds in a
run is exact, whatever its length.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys

from caretkit import cli, fuzz, proof, tableau
from exhaustive_oracle import ExhaustiveOracle, enumerate_formulas
from caretkit.proof import SCHEMAS, axiom_schemas
from caretkit.semantics import eval_ltl
from caretkit.syntax import (
    AbsUntil, AbsWeakNext, And, Not, Prop, TRUE, Until, WeakNext,
    print_formula,
)
from caretkit.trace import (
    FiniteTrace, LassoTrace, StateTag, StructuredLassoTrace, trace_to_text,
)

CLASSES = ("fin", "inf", "gen")
# the (system, class) pairs of acceptance criterion 5
VALIDITY_PAIRS = (("ax", "inf"), ("ax-gen", "gen"), ("ax-inf", "inf"),
                  ("ax-fin", "fin"))
# system -> instances per schema in one soundness_campaign call; every call
# then evaluates about 600 instances
CAMPAIGN_CHUNKS = (("ax", 200), ("ax-gen", 200), ("ax-inf", 150),
                   ("ax-fin", 150), ("ax-cr", 46))
# ax-cr schemas with an abstract operator, so evaluation builds the
# abstract-successor map
CARET_ABSTRACT = ("A1", "A2", "A3", "C2", "C3", "C4", "C5", "C6")
CARET_STATES = 1500
FREE_BITS_GUARD = 18    # the decider refuses closures with more free bits
REFUSED = "refused"


def child_seed(seed: int, *path: int) -> int:
    x = seed
    for p in path:
        x = (x * 1_000_003 + p + 1) % (1 << 61)
    return x


# ---------------------------------------------------------------------------
# Generators.  random_formula follows the shape distribution of the fuzz
# generator that acceptance criterion 5 draws from.

def random_formula(rng: random.Random, size: int, caret: bool = False):
    atoms = ["p", "q"] + (["call", "ret", "int"] if caret else [])
    if size <= 1:
        pick = rng.randrange(len(atoms) + 1)
        return TRUE if pick == len(atoms) else Prop(atoms[pick])
    if size == 2:
        ops = ("not", "next") + (("anext",) if caret else ())
    else:
        ops = ("not", "next", "and", "until")
        if caret:
            ops += ("anext", "auntil")
    op = ops[rng.randrange(len(ops))]
    if op in ("not", "next", "anext"):
        inner = random_formula(rng, size - 1, caret)
        return {"not": Not, "next": WeakNext, "anext": AbsWeakNext}[op](inner)
    split = rng.randint(1, size - 2) if size > 2 else 1
    left = random_formula(rng, split, caret)
    right = random_formula(rng, size - 1 - split, caret)
    return {"and": And, "until": Until, "auntil": AbsUntil}[op](left, right)


def random_labels(rng: random.Random) -> frozenset:
    return frozenset(a for a in ("p", "q") if rng.random() < 0.5)


def small_trace(rng: random.Random, cls: str, max_states: int = 12):
    """A random trace of the class (gen: finite or lasso) of at most
    max_states states."""
    if cls == "gen":
        cls = "fin" if rng.random() < 0.5 else "inf"
    total = rng.randint(1, max_states)
    states = [random_labels(rng) for _ in range(total)]
    if cls == "fin":
        return FiniteTrace(tuple(states))
    loop = rng.randint(1, total)
    return LassoTrace(tuple(states[:total - loop]), tuple(states[total - loop:]))


def call_heavy_trace(rng: random.Random, n: int) -> StructuredLassoTrace:
    """A structured lasso of n states with random labels, a quarter of them
    prefix.  The tags repeat call, int, call, ret, int: the ret closes the
    second call and the first stays open, so every fifth position starts a
    matching-return scan that runs a full loop period and the
    abstract-successor map costs time quadratic in n, the same for every
    seed."""
    tags = (StateTag.CALL, StateTag.INT, StateTag.CALL, StateTag.RET,
            StateTag.INT)
    states = [(random_labels(rng), tags[i % 5]) for i in range(n)]
    cut = n // 4
    return StructuredLassoTrace(tuple(states[:cut]), tuple(states[cut:]))


def schema_instance(rng: random.Random, name: str, sizes, caret=False):
    schema = SCHEMAS[name]
    bindings = {v: random_formula(rng, n, caret)
                for v, n in zip(schema.metavars, sizes)}
    params = {}
    if name == "C5":
        params = {"n": rng.randrange(3)}
    elif name == "C6":
        params = ({"m": 1, "n": 0}, {"m": 2, "n": 0}, {"m": 2, "n": 1})[rng.randrange(3)]
    return proof.build_schema_instance(name, params, bindings)


def free_bits(f) -> int:
    """The decider's free bits for f: the distinct propositions and
    weak-next bases of its closure.  The closure rules are restated here
    because the package's closure also sorts its members, which costs six
    times as much and is not needed to count them."""
    seen = set()
    stack = [f, Until(TRUE, WeakNext(Not(TRUE)))]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        t = type(g)
        if t in (Not, WeakNext):
            stack.append(g.operand)
            if t is WeakNext and type(g.operand) is Not:
                stack.append(WeakNext(g.operand.operand))
        elif t in (And, Until):
            stack += [g.left, g.right]
            if t is Until:
                stack.append(Not(WeakNext(Not(g))))
    return sum(1 for g in seen if type(g) in (Prop, WeakNext))


# ---------------------------------------------------------------------------
# Workloads.  Each is built on the checkout root and a scratch directory and
# has setup(seed, seconds), groups() yielding lists of arguments, op(arg)
# for one timed operation, weight(arg) counting the units one operation
# completes, check(args, outputs) returning per-operation failure flags, and
# controls() for checks that are not per operation.  An output of None marks
# an operation that raised.

class Workload:
    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir

    weight = staticmethod(lambda arg: 1)

    def controls(self):
        return True

    def summary(self, outputs):
        return {}


class DecideSweep(Workload):
    name = "decide-sweep"
    unit = "decide_sat calls"
    # the rule gives p99.9 at about 15,000 calls, with barely ten beyond;
    # p99 keeps over a hundred
    tail_pct = 99.0
    trace_groups_per_s = 50      # formulas decided by the traced run per second

    def setup(self, seed, seconds):
        by_size = enumerate_formulas(7)
        formulas = [f for n in sorted(by_size) for f in by_size[n]]
        # stratified order: round r takes one formula from every block of 8
        # neighbours in enumeration order, so any prefix of the order covers
        # every shape of formula evenly
        rng = random.Random(seed)
        blocks = [formulas[i:i + 8] for i in range(0, len(formulas), 8)]
        for b in blocks:
            rng.shuffle(b)
        self.order = []
        for r in range(8):
            round_ = [b[r] for b in blocks if r < len(b)]
            rng.shuffle(round_)
            self.order.extend(round_)

    def groups(self):
        for f in itertools.cycle(self.order):
            yield [(f, cls) for cls in CLASSES]

    @staticmethod
    def op(arg):
        f, cls = arg
        r = tableau.decide_sat(f, cls, closure_cap=None)
        return r.satisfiable, r.model

    def check(self, args, outputs):
        oracle = ExhaustiveOracle(8, cache_max_size=6)
        failed = [out is None for out in outputs]
        for k in range(0, len(args), 3):
            verdict = {}
            for j in range(k, k + 3):
                if failed[j]:
                    continue
                f, cls = args[j]
                sat, model = outputs[j]
                verdict[cls] = sat
                if sat:
                    kind = {"fin": FiniteTrace, "inf": LassoTrace}.get(cls)
                    ok = eval_ltl(model, 0, f) and \
                        (kind is None or isinstance(model, kind))
                elif cls == "gen":
                    ok = not oracle.sat(f, "fin") and not oracle.sat(f, "inf")
                else:
                    ok = not oracle.sat(f, cls)
                failed[j] = not ok
            if len(verdict) == 3 and \
                    verdict["gen"] != (verdict["fin"] or verdict["inf"]):
                failed[k + 2] = True
        return failed


class AxiomValidity(Workload):
    name = "axiom-validity"
    unit = "decide_valid calls"
    # Time doubles with each free bit, so latencies come in steps; 0.8% of
    # instances have 16 or more free bits and 0.2% have 17 or more.  p99.5
    # (the rule's choice at 2,000 to 3,000 calls) lies inside the 16-bit
    # step; p99 would lie on the edge of it and jump between steps.
    tail_pct = 99.5
    trace_groups_per_s = 30

    def setup(self, seed, seconds):
        slots = [(name, cls) for system, cls in VALIDITY_PAIRS
                 for name in axiom_schemas(system)]
        rng = random.Random(seed)
        pool = []
        # binding sizes cycle through every combination of 1..6, which is
        # the uniform size draw of criterion 5 without its sampling noise
        for r in range(400 * seconds // len(slots) + 1):
            for name, cls in slots:
                combos = list(itertools.product(
                    range(1, 7), repeat=len(SCHEMAS[name].metavars)))
                sizes = combos[r % len(combos)]
                pool.append((schema_instance(rng, name, sizes), cls))
        # Cost grows as 2 ** free bits, so a few instances set the time of a
        # run.  Each eighth of the order is a systematic sample of the pool
        # ranked by free bits: any run that finishes an eighth has the pool's
        # own mix of heavy and light instances.
        ranked = sorted(pool, key=lambda item: -free_bits(Not(item[0])))
        self.items = []
        for r in range(8):
            part = ranked[r::8]
            rng.shuffle(part)
            self.items.extend(part)

    def groups(self):
        for item in itertools.cycle(self.items):
            yield [item]

    @staticmethod
    def op(arg):
        f, cls = arg
        try:
            return tableau.decide_valid(f, cls, closure_cap=None)
        except tableau.ClosureCapError:
            return REFUSED

    def check(self, args, outputs):
        """Every instance is VALID, or refused as documented: the decider
        has a hard guard at 18 free bits that no cap setting lifts, and about
        one instance in 8,000 is beyond it."""
        failed = []
        for (f, _), out in zip(args, outputs):
            if out is REFUSED:
                failed.append(free_bits(Not(f)) <= FREE_BITS_GUARD)
            else:
                failed.append(out is not True)
        return failed

    def summary(self, outputs):
        return {"refused": sum(1 for out in outputs if out is REFUSED)}


class SoundnessCampaign(Workload):
    name = "soundness-campaign"
    unit = "instances"
    tail_pct = 95.0
    trace_groups_per_s = 0.2     # cycles of five campaign calls

    def setup(self, seed, seconds):
        self.seed = seed
        self.cycles = []
        for j in range(10 * seconds):
            cycle = []
            for s, (system, k) in enumerate(CAMPAIGN_CHUNKS):
                cfg = fuzz.GenConfig(seed=child_seed(seed, j, s),
                                     max_finite_len=12, max_lasso_total=12)
                cycle.append((system, k, cfg))
            self.cycles.append(cycle)

    def groups(self):
        for cycle in itertools.cycle(self.cycles):
            yield cycle

    @staticmethod
    def op(arg):
        system, k, cfg = arg
        rep = fuzz.soundness_campaign(system, k, cfg)
        return rep.failures, rep.counts

    @staticmethod
    def weight(arg):
        system, k, _ = arg
        return k * len(axiom_schemas(system))

    def check(self, args, outputs):
        failed = []
        for (system, k, _), out in zip(args, outputs):
            failed.append(out is None or out != (
                0, tuple((s, k) for s in axiom_schemas(system))))
        return failed

    def controls(self):
        """The finite class must break T2 and T3 (criterion 2's negative
        control), each with a counterexample that re-evaluates false."""
        cfg = fuzz.GenConfig(seed=child_seed(self.seed, 999),
                             max_finite_len=12, max_lasso_total=12)
        for schema in ("T2", "T3"):
            rep = fuzz.soundness_campaign("ax", 2000, cfg,
                                          trace_class="finite",
                                          schemas=(schema,))
            if rep.failures < 1:
                return False
            f, tr, pos = rep.first_failure
            if eval_ltl(tr, pos, f) is not False:
                return False
        return True


class CliSession(Workload):
    name = "cli-session"
    unit = "invocations"
    tail_pct = 75.0
    trace_groups_per_s = 0.1
    # One cycle: five short calls, one proof check, three long caret evals.
    # The median then falls among the short calls (interpreter and import)
    # and the 75th percentile among the caret evals.

    def setup(self, seed, seconds):
        workdir = self.workdir
        os.makedirs(workdir, exist_ok=True)
        proof_file = os.path.join(self.root, "fixtures", "derivation_caret.prf")
        rng = random.Random(seed)
        self.cycles = []
        for c in range(10):
            cycle = []
            ltl = [self._ltl_instance(rng) for _ in range(4)]
            (f1, cls1), (f2, cls2), (f3, cls3), _ = ltl
            t3 = schema_instance(rng, "T3", (rng.randint(1, 3),))
            cycle.append(("sat", ["sat", "--json", "--class", cls1, "--cap", "0",
                                  "--formula", print_formula(f1)], 0))
            cycle.append(("valid", ["valid", "--json", "--class", cls2, "--cap", "0",
                                    "--formula", print_formula(f2)], 0))
            cycle.append(("valid", ["valid", "--json", "--class", "fin", "--cap", "0",
                                    "--formula", print_formula(t3)], 1))
            cycle.append(("sat", ["sat", "--json", "--class", "fin", "--cap", "0",
                                  "--formula", print_formula(Not(t3))], 0))
            small = os.path.join(workdir, f"small{c}.trace")
            self._write(small, small_trace(rng, cls3))
            cycle.append(("eval", ["eval", "--formula", print_formula(f3),
                                   "--trace", small], 0))
            cycle.append(("check-proof", ["check-proof", proof_file], 0))
            for j in range(3):
                name = CARET_ABSTRACT[rng.randrange(len(CARET_ABSTRACT))]
                # bindings of size 1 or 2 hold no binary operator, so no
                # nested Ua fixpoint: the map sets the time
                sizes = [rng.randint(1, 2) for _ in SCHEMAS[name].metavars]
                f = schema_instance(rng, name, sizes, caret=True)
                path = os.path.join(workdir, f"caret{c}_{j}.trace")
                self._write(path, call_heavy_trace(rng, CARET_STATES))
                cycle.append(("eval", ["eval", "--mode", "caret", "--formula",
                                       print_formula(f), "--trace", path], 0))
            self.cycles.append(cycle)

    @staticmethod
    def _ltl_instance(rng):
        system, cls = VALIDITY_PAIRS[rng.randrange(len(VALIDITY_PAIRS))]
        names = axiom_schemas(system)
        name = names[rng.randrange(len(names))]
        sizes = [rng.randint(1, 3) for _ in SCHEMAS[name].metavars]
        return schema_instance(rng, name, sizes), cls

    @staticmethod
    def _write(path, trace):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(trace_to_text(trace))

    def groups(self):
        for cycle in itertools.cycle(self.cycles):
            yield cycle

    def op(self, arg):
        """One cold ``python -m caretkit.cli`` invocation."""
        _, argv, _ = arg
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        proc = subprocess.run([sys.executable, "-m", "caretkit.cli", *argv],
                              cwd=self.root, env=env, capture_output=True,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout

    @staticmethod
    def op_in_process(arg):
        """The same invocation through ``caretkit.cli.main``, for the traced
        run."""
        _, argv, _ = arg
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue()

    def check(self, args, outputs):
        failed = []
        for k, ((kind, argv, expected), out) in enumerate(zip(args, outputs)):
            failed.append(out is None or not self._check_one(
                k, kind, argv, expected, *out))
        return failed

    def _check_one(self, k, kind, argv, expected, code, stdout):
        if code != expected:
            return False
        formula = argv[argv.index("--formula") + 1] if "--formula" in argv else None
        if kind == "check-proof":
            return stdout == "OK\n"
        if kind == "eval":
            return stdout == ("true\n" if expected == 0 else "false\n")
        payload = json.loads(stdout)
        verdict = {("sat", 0): "sat", ("valid", 0): "valid",
                   ("valid", 1): "invalid"}[(kind, expected)]
        if payload.get("verdict") != verdict:
            return False
        if "witness" not in payload:
            return verdict == "valid"
        # the witness re-evaluates through `eval`: true for a model, false
        # for a countermodel
        path = os.path.join(self.workdir, f"witness{k}.trace")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload["witness"])
        code2, out2 = self.op_in_process(
            (None, ["eval", "--formula", formula, "--trace", path], None))
        return (code2, out2) == ((0, "true\n") if verdict == "sat"
                                 else (1, "false\n"))


WORKLOADS = {w.name: w for w in (DecideSweep, AxiomValidity,
                                 SoundnessCampaign, CliSession)}
