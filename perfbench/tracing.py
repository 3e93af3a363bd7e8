"""The benchmark's own span recorder and the per-layer metrics derived
from it.

Spans are recorded by the benchmark around its calls into the package's
public functions; nothing inside the package is instrumented.  A span is
named `<layer>.<function>`, where the layer is the package module that owns
the function.  Spans stay in memory and are written once, at the end of a
traced run.
"""
from __future__ import annotations

from collections import defaultdict
from time import perf_counter

# Per-layer metrics, in the order they are printed.  Every traced run reports
# all of them; a layer a workload never calls reports 0.  No layer queues or
# waits (the package is single-threaded and synchronous), so there are no
# wait-time metrics.
LAYERS = ("cli", "machine_io", "conditions", "ktape", "evolution", "windows", "oracle")

PER_LAYER_METRICS = (
    ("import.numpy_ms", "ms"),
    ("import.qturing_ms", "ms"),
    ("import.modules_loaded", "count"),
    ("import.scipy_loaded", "count"),
    ("import.errors", "count"),
    ("cli.interpreter_ms", "ms"),
    ("cli.main_ms", "ms"),
    ("cli.main.validate_ms", "ms"),
    ("cli.main.run_ms", "ms"),
    ("cli.main.norm_ms", "ms"),
    ("cli.main.conditions_ms", "ms"),
    ("cli.main.gram_ms", "ms"),
    ("cli.errors", "count"),
    ("machine_io.parse_ms", "ms"),
    ("machine_io.calls", "count"),
    ("machine_io.errors", "count"),
    ("conditions.check_column_ms", "ms"),
    ("conditions.check_row_ms", "ms"),
    ("conditions.check_hirvensalo_ms", "ms"),
    ("conditions.check_two_tape_ms", "ms"),
    ("conditions.calls", "count"),
    ("conditions.errors", "count"),
    ("ktape.check_auto_ms", "ms"),
    ("ktape.check_ktape_ms", "ms"),
    ("ktape.conditions_evaluated", "count"),
    ("ktape.errors", "count"),
    ("evolution.run_ms", "ms"),
    ("evolution.apply_ms", "ms"),
    ("evolution.apply_adjoint_ms", "ms"),
    ("evolution.apply_us_per_term", "us"),
    ("evolution.apply_adjoint_us_per_term", "us"),
    ("evolution.terms_in", "count"),
    ("evolution.max_terms", "count"),
    ("evolution.images", "count"),
    ("evolution.merge_ratio", "ratio"),
    ("evolution.estimate_norm_ms", "ms"),
    ("evolution.norm_iterations", "count"),
    ("evolution.errors", "count"),
    ("windows.radius_window_ms", "ms"),
    ("windows.configs", "count"),
    ("windows.errors", "count"),
    ("oracle.column_gram_ms", "ms"),
    ("oracle.row_gram_ms", "ms"),
    ("oracle.us_per_config", "us"),
    ("oracle.configs", "count"),
    ("oracle.pairs", "count"),
    ("oracle.errors", "count"),
) + tuple((f"{layer}.self_ms_per_op", "ms") for layer in LAYERS) + (
    ("bench.op_self_ms_per_op", "ms"),
    ("bench.traced_ops", "count"),
    ("bench.tracing_overhead_ms_per_op", "ms"),
    ("bench.tracing_overhead_ratio", "ratio"),
)

# `<metric>_ms` is the mean inclusive duration of one call of that span.
_MEAN_MS = {
    "machine_io.parse_ms": "machine_io.parse_document",
    "conditions.check_column_ms": "conditions.check_column",
    "conditions.check_row_ms": "conditions.check_row",
    "conditions.check_hirvensalo_ms": "conditions.check_hirvensalo",
    "conditions.check_two_tape_ms": "conditions.check_two_tape",
    "ktape.check_auto_ms": "ktape.check_auto",
    "ktape.check_ktape_ms": "ktape.check_ktape",
    "evolution.run_ms": "evolution.run",
    "evolution.apply_ms": "evolution.apply",
    "evolution.apply_adjoint_ms": "evolution.apply_adjoint",
    "evolution.estimate_norm_ms": "evolution.estimate_norm",
    "windows.radius_window_ms": "windows.radius_window",
    "oracle.column_gram_ms": "oracle.column_gram_check",
    "oracle.row_gram_ms": "oracle.row_gram_check",
    "import.numpy_ms": "import.numpy",
    "import.qturing_ms": "import.qturing",
}


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: list):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.record[2] = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.record[3] = perf_counter()
        if exc_type is not None:
            self.record[5] = True
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records spans [name, parent index, start, end, op index, raised]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._seen: set = set()
        self._deferred: list = []

    def defer(self, fn):
        """Run `fn` once the current op has ended, outside its spans."""
        self._deferred.append(fn)

    def end_op(self):
        for fn in self._deferred:
            fn()
        self._deferred.clear()
        self.op = -1

    def first(self, key) -> bool:
        """True the first time `key` is passed to this tracer."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def span(self, name: str) -> _Span:
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, 0.0, 0.0, self.op, False]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return _Span(self, record)

    def add_span(self, name: str, start: float, end: float, raised: bool = False):
        """A span measured elsewhere (in a child interpreter), as a child of
        the innermost open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, start, end, self.op, raised])

    def count(self, name: str, value: float = 1):
        self.counters[name] += value

    def maximum(self, name: str, value: float):
        self.maxima[name] = max(self.maxima[name], value)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, parent, start, end, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Every per-layer metric from the recorded spans and counters."""
    total = defaultdict(float)
    calls = defaultdict(int)
    errors = defaultdict(int)
    for name, _, start, end, _, raised in tracer.spans:
        total[name] += end - start
        calls[name] += 1
        errors[layer_of(name)] += raised
    self_by_layer = defaultdict(float)
    for record, own in zip(tracer.spans, self_times(tracer.spans)):
        if record[4] >= 0:
            self_by_layer[layer_of(record[0])] += own

    c = tracer.counters
    out = {name: 0.0 for name, _ in PER_LAYER_METRICS}
    for metric, span in _MEAN_MS.items():
        if calls[span]:
            out[metric] = 1e3 * total[span] / calls[span]
    for sub in ("validate", "run", "norm", "conditions", "gram"):
        span = f"cli.main.{sub}"
        if calls[span]:
            out[f"{span}_ms"] = 1e3 * total[span] / calls[span]
    out["cli.main_ms"] = _mean_ms(total, calls, [n for n in calls if n.startswith("cli.main.")])
    out["machine_io.calls"] = calls["machine_io.parse_document"]
    out["conditions.calls"] = sum(n for name, n in calls.items() if layer_of(name) == "conditions")
    for layer in ("import", "cli", "machine_io", "conditions", "ktape", "evolution", "windows", "oracle"):
        out[f"{layer}.errors"] = errors[layer] + c[f"{layer}.errors"]
    out["ktape.conditions_evaluated"] = c["ktape.conditions_evaluated"]
    out["import.modules_loaded"] = tracer.maxima["import.modules_loaded"]
    out["import.scipy_loaded"] = tracer.maxima["import.scipy_loaded"]
    out["cli.interpreter_ms"] = _mean_ms(total, calls, ["cli.interpreter"])

    for side in ("apply", "apply_adjoint"):
        terms = c[f"evolution.{side}_terms_in"]
        if terms:
            out[f"evolution.{side}_us_per_term"] = 1e6 * total[f"evolution.{side}"] / terms
    out["evolution.terms_in"] = c["evolution.apply_terms_in"] + c["evolution.apply_adjoint_terms_in"]
    out["evolution.max_terms"] = tracer.maxima["evolution.max_terms"]
    out["evolution.images"] = c["evolution.images"]
    if c["evolution.images"]:
        out["evolution.merge_ratio"] = c["evolution.apply_terms_out"] / c["evolution.images"]
    out["evolution.norm_iterations"] = c["evolution.norm_iterations"]
    out["windows.configs"] = c["windows.configs"]
    out["oracle.configs"] = c["oracle.configs"]
    out["oracle.pairs"] = c["oracle.pairs"]
    oracle_time = total["oracle.column_gram_check"] + total["oracle.row_gram_check"]
    if c["oracle.configs"]:
        out["oracle.us_per_config"] = 1e6 * oracle_time / c["oracle.configs"]
    if n_ops:
        for layer in LAYERS:
            out[f"{layer}.self_ms_per_op"] = 1e3 * self_by_layer[layer] / n_ops
        out["bench.op_self_ms_per_op"] = 1e3 * self_by_layer["op"] / n_ops
    out["bench.traced_ops"] = n_ops
    return out


def _mean_ms(total, calls, names) -> float:
    n = sum(calls[name] for name in names)
    return 1e3 * sum(total[name] for name in names) / n if n else 0.0


def spans_json(tracer: Tracer) -> list[dict]:
    """The span list in the form the trace file stores."""
    return [
        {"name": name, "parent": parent, "op": op, "start": start, "end": end, "raised": raised}
        for name, parent, start, end, op, raised in tracer.spans
    ]
