"""In-memory spans around caretkit's public functions, for the traced run.

The package is never edited: each layer is wrapped where the package (or
this benchmark) looks the function up, for example ``caretkit.tableau.closure``
for the closure that ``decide_sat`` builds.  Wrappers exist only between
``install`` and ``restore``, so the untraced run calls the package unmodified.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1.  A layer's self time is the summed duration of its
spans minus the time their direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

# (dotted owner, attribute, layer name, outermost-only)
# Outermost-only layers recurse or call each other (truth_mask recurses,
# decide_valid calls decide_sat), so only the first entry opens a span.
PATCHES = (
    ("caretkit.tableau", "closure", "syntax.closure", False),
    ("caretkit.cli", "parse_formula", "syntax.parse", True),
    ("caretkit.proof", "parse_formula", "syntax.parse", True),
    ("caretkit.tableau", "decide_sat", "tableau.decide", True),
    ("caretkit.tableau", "decide_valid", "tableau.decide", True),
    ("caretkit.cli", "decide_sat", "tableau.decide", True),
    ("caretkit.tableau", "extract_model", "tableau.extract_model", False),
    ("caretkit.semantics.EvalContext", "truth_mask", "semantics.eval", True),
    ("caretkit.semantics.EvalContext", "holds", "semantics.eval", True),
    ("caretkit.semantics.EvalContext", "holds_everywhere", "semantics.eval", True),
    ("caretkit.cli", "eval_ltl", "semantics.eval", True),
    ("caretkit.cli", "eval_caret", "semantics.eval", True),
    ("caretkit.semantics", "abstract_successor", "trace.abstract_successor", False),
    ("caretkit.cli", "parse_trace", "trace.parse_trace", False),
    ("caretkit.cli", "trace_to_text", "trace.to_text", False),
    ("caretkit.fuzz", "build_schema_instance", "proof.build_instance", True),
    ("caretkit.proof", "build_schema_instance", "proof.build_instance", True),
    ("caretkit.cli", "check_proof", "proof.check_proof", False),
    ("caretkit.fuzz", "soundness_campaign", "fuzz.campaign", False),
    ("caretkit.cli", "main", "cli.main", False),
)


def _resolve(dotted: str):
    import importlib
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


class Tracer:
    """Records spans and per-layer observations while installed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patched: list[tuple] = []
        self.observed: dict[str, list[float]] = defaultdict(list)

    def wrap(self, fn, name: str, outermost: bool, observe=None):
        spans, stack, open_names = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and open_names[name]:
                result = fn(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
                stack.append(idx)
                open_names[name] += 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans[idx][2] = clock()
                    stack.pop()
                    open_names[name] -= 1
            if observe is not None:
                observe(result)
            return result
        return wrapper

    def install(self):
        observers = self._observers()
        for dotted, attr, name, outermost in PATCHES:
            owner = _resolve(dotted)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            observe = observers.get((dotted, attr))
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, outermost, observe))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _observers(self):
        from caretkit.syntax import Not, Prop, WeakNext
        from caretkit.trace import FiniteTrace
        obs = self.observed

        def on_closure(clo):
            bases = set()
            for m in clo.members:
                while type(m) is Not:
                    m = m.operand
                bases.add(m)
            obs["members"].append(len(clo.members))
            obs["free_bits"].append(
                sum(1 for b in bases if type(b) in (Prop, WeakNext)))

        def on_decide(result):
            obs["sat"].append(1.0 if result.satisfiable else 0.0)

        def on_model(model):
            if isinstance(model, FiniteTrace):
                obs["witness_states"].append(len(model.states))
            else:
                obs["witness_states"].append(len(model.prefix) + len(model.loop))

        return {
            ("caretkit.tableau", "closure"): on_closure,
            ("caretkit.tableau", "decide_sat"): on_decide,
            ("caretkit.cli", "decide_sat"): on_decide,
            ("caretkit.tableau", "extract_model"): on_model,
        }

    def write(self, path):
        """Write every span once, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent, self.workload]))
                fh.write("\n")


def self_times(spans) -> tuple[dict[str, float], Counter]:
    """Per-layer self time (duration minus direct children) and span counts."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    selfs: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for k, (name, start, end, parent) in enumerate(spans):
        selfs[name] += (end - start) - child_time[k]
        calls[name] += 1
    return dict(selfs), calls
