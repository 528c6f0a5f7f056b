"""In-memory spans around qhm's public functions, self time and percentiles.

``instrument`` replaces each listed function, in every qhm module that holds
a reference to it, by a wrapper that records a span (name, start, end,
parent span, job id, error flag) and returns the wrapped function's result
object unchanged.  The originals are restored on exit.  Spans stay in memory
and are written out by the caller when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import math
import statistics
import sys
import time
from collections import Counter, defaultdict

# Layer -> public functions wrapped in the traced run.
TRACED = {
    "gridops": (
        "action_residual",
        "hermitian_matrix_function",
        "masked_norm",
        "anticommutator",
        "adjoint",
        "derivative_matrix",
        "smooth_probes",
    ),
    "models": (
        "build_deformed_pair",
        "build_ladder",
        "build_swanson_bf",
        "build_swanson_jr",
        "default_number_operator",
        "deformed_algebra_residual",
    ),
    "metrics": ("build_metric", "limit_sweep", "spec_from_label"),
    "verify": (
        "dieudonne_details",
        "dieudonne_residual",
        "hermitian_counterpart",
        "spectrum",
        "fit_diagonal_metric",
        "model_equality_report",
    ),
    "jobs": ("parse_config", "run_job", "serialize_report"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "error")

    def __init__(self, name: str, start: float, parent: int, job):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.error = False

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    """Span stack for one thread plus named counters.

    ``job`` tags new spans; ``scope`` (the pass) groups Hamiltonian builds
    when counting distinct (grid, params, model) keys.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.hamiltonian_keys: set = set()
        self.job = None
        self.scope = None
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent, self.job))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def finish(self, index: int, error: bool = False) -> None:
        span = self.spans[index]
        span.end = self.clock()
        span.error = error
        self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_table(spans: list[Span]) -> dict[str, dict]:
    """Per span name: summed self time, calls and errors."""
    table = {name: {"self_s": 0.0, "calls": 0, "errors": 0} for name in SPAN_NAMES}
    for s, own in zip(spans, self_times(spans)):
        row = table[s.name]
        row["self_s"] += own
        row["calls"] += 1
        row["errors"] += int(s.error)
    return table


def percentile(samples, q: float, min_beyond: int = 10):
    """The q-quantile of samples, or None when fewer than ``min_beyond``
    samples are expected beyond it (the estimate would rest on too few)."""
    values = sorted(samples)
    if len(values) * (1.0 - q) < min_beyond - 1e-9:  # 1e-9: 100 * (1 - 0.9) < 10
        return None
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def interquartile_mean(samples) -> float:
    """Mean of the middle half of the samples: steady where the samples fall
    in two modes and the median would jump between them."""
    values = sorted(samples)
    k = len(values) // 4
    return statistics.fmean(values[k:len(values) - k])


def _observe_h(tracer: Tracer, model: str, grid, pp, out) -> None:
    tracer.counters[f"models.build_swanson_{model.lower()}.out_bytes"] += out.entries.nbytes
    tracer.counters["models.hamiltonian.builds"] += 1
    tracer.hamiltonian_keys.add((tracer.scope, grid, pp, model))


def _observers(tracer: Tracer) -> dict:
    """Counters taken at the same boundaries as the spans."""

    def bf(args, kwargs, out):
        x, _, pp = args
        _observe_h(tracer, "BF", x.grid, pp, out)

    def jr(args, kwargs, out):
        a, _, pp = args
        _observe_h(tracer, "JR", a.grid, pp, out)

    def spectrum(args, kwargs, out):
        tracer.counters["verify.spectrum.levels"] += len(out.values)
        op = args[0]
        n = op.entries.shape[0] if hasattr(op, "entries") else len(op)
        tracer.counters["verify.spectrum.eigenpairs"] += n

    def serialize(args, kwargs, out):
        tracer.counters["jobs.serialize_report.bytes"] += sum(p.stat().st_size for p in out)

    return {
        "models.build_swanson_bf": bf,
        "models.build_swanson_jr": jr,
        "verify.spectrum": spectrum,
        "jobs.serialize_report": serialize,
    }


def _wrap(tracer: Tracer, name: str, fn, observe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.finish(index, error=True)
            raise
        tracer.finish(index)
        if observe is not None:
            observe(args, kwargs, out)
        return out

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every function in TRACED wherever a qhm module refers to it."""
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "qhm" or k.startswith("qhm."))]
    observers = _observers(tracer)
    patches = []
    for layer, names in TRACED.items():
        home = sys.modules[f"qhm.{layer}"]
        for fn_name in names:
            original = getattr(home, fn_name)
            name = f"{layer}.{fn_name}"
            wrapper = _wrap(tracer, name, original, observers.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)
