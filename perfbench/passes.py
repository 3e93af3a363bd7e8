"""Ops, workloads and the closed timed loop every workload shares.

A workload is a fixed mix of ops making up one *pass*.  The timed loop runs
whole passes, each in an order drawn from the seed, one op after the other.
After the first pass every op faster than REPEAT_SECONDS runs several times
back to back in each later pass, so cheap ops get more samples.  Every
answer is gated after its pass, outside the timed calls.

The host's speed is not steady: on a shared 2-vCPU virtual machine the same
work runs up to twice as slow in phases lasting from half a second to
minutes, and CPU time slows as much as wall time.  So the untraced loop
also reads the host's slowness before and after every op: the time of a
fixed reference job (benchmark code that calls nothing in the package) over
its time on a reference host.  Each op's latency is divided by the mean of
its two readings: the latency it would have had on the reference host.
The in-process reference is `reference_job`; the `cli` workload brings its
own, a cold interpreter.  An op's latency is the median of its scaled
runs; the median of its raw runs is kept beside it.  Set-up is scaled the
same way, between `mark`s.

This module imports nothing from the package under test, so the `cli`
workload can use it in a process that never imports `qturing`.
"""
from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from tracing import Tracer, layer_metrics

# Every op runs at least once per pass; its latency is a median, so it needs
# at least three runs (a workload may ask for more).
MIN_PASSES = 3
REPEAT_SECONDS = 0.01
MAX_REPEATS = 4

# The fastest of three runs of `reference_job` on the reference host: a
# 2-vCPU Intel Xeon virtual machine with Python 3.11.7 and numpy 2.4, in its
# fast phase.
REFERENCE_S = 0.22e-3
_REFERENCE_KEYS = tuple((i % 7, i % 11, i % 13) for i in range(600))
_REFERENCE_MATRIX = np.linspace(-1.0, 1.0, 24 * 24).reshape(24, 24)


def reference_job() -> float:
    """Fixed work of the kinds the package does: hashing tuples into a dict
    of complex amplitudes, and small numpy products."""
    amplitudes = {}
    for key in _REFERENCE_KEYS:
        amplitudes[key] = amplitudes.get(key, 0j) + complex(key[0], key[1])
    matrix = _REFERENCE_MATRIX
    for _ in range(6):
        matrix = np.tanh(matrix @ _REFERENCE_MATRIX)
    return len(amplitudes) + float(matrix[0, 0])


def in_process_slowness() -> float:
    """The fastest of three runs of the reference job, over REFERENCE_S."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        reference_job()
        best = min(best, perf_counter() - start)
    return best / REFERENCE_S


def host_scale(before: float, after: float) -> float:
    """Factor taking a time measured between two slowness readings to the
    reference host."""
    return 2 / (before + after)


def mark(slowness: Callable[[], float] = in_process_slowness) -> tuple[float, float, float]:
    """A slowness reading with the clock before and after it."""
    begin = perf_counter()
    reading = slowness()
    return begin, perf_counter(), reading


def scaled_interval(marks: list[tuple[float, float, float]]) -> tuple[float, float]:
    """(raw, scaled) time from the first mark to the last, less the time the
    readings took; each stretch between two marks is scaled by its own
    readings."""
    raw = scaled = 0.0
    for (_, end, before), (begin, _, after) in zip(marks, marks[1:]):
        raw += begin - end
        scaled += (begin - end) * host_scale(before, after)
    return raw, scaled


@dataclass
class Op:
    label: str
    shape: tuple  # ops of one shape share lazy set-up; one of each is warmed up
    call: Callable[[], object]
    traced: Callable[[Tracer], object]
    check: Callable[[object], list[str]]
    layer: str  # the layer whose answer `check` judges
    group: tuple = ()  # ops of one group are cross-checked after each pass
    role: str = ""  # the op's part in its group


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # (position in the pass, result, op) for every op of a pass -> failures by position
    cross_check: Callable[[list[tuple[int, object, Op]]], dict[int, list[str]]] = (
        lambda results: {}
    )
    slowness: Callable[[], float] = in_process_slowness
    min_passes: int = MIN_PASSES


def warm_up(workload: Workload) -> list[tuple[float, float, float]]:
    """One discarded op per input shape, so lazy set-up is not timed; a
    slowness mark after each, so set-up time can be scaled op by op."""
    seen = set()
    marks = []
    for op in workload.ops:
        if op.shape not in seen:
            seen.add(op.shape)
            op.call()
            marks.append(mark(workload.slowness))
    return marks


def run_pass(workload: Workload, sequence: list[int], tracer: Tracer | None, first_op: int):
    """Run the ops of one pass in `sequence`; return latencies (s), the
    latencies scaled to the reference host (untraced passes only, else None)
    and the failure messages by position in the pass."""
    latencies = []
    readings = [] if tracer is not None else [workload.slowness()]
    results = []
    failures: dict[int, list[str]] = {}
    for position, index in enumerate(sequence):
        op = workload.ops[index]
        start = perf_counter()
        try:
            if tracer is None:
                result = op.call()
            else:
                tracer.op = first_op + position
                with tracer.span(f"op.{workload.name}"):
                    result = op.traced(tracer)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result = None
            failures[position] = [f"raised {type(exc).__name__}: {exc}"]
        latencies.append(perf_counter() - start)
        if tracer is not None:
            tracer.end_op()
        else:
            readings.append(workload.slowness())
        if result is not None:
            results.append((position, result, op))
    for position, result, op in results:
        messages = op.check(result)
        if messages:
            failures[position] = messages
    for position, messages in workload.cross_check(results).items():
        failures.setdefault(position, []).extend(messages)
    if tracer is not None:
        for position, messages in failures.items():
            if not messages[0].startswith("raised"):
                tracer.count(f"{workload.ops[sequence[position]].layer}.errors")
    scaled = None
    if tracer is None:
        scaled = [latency * host_scale(before, after)
                  for latency, before, after in zip(latencies, readings, readings[1:])]
    return latencies, scaled, failures


class Passes:
    """Latencies and failures over a sequence of passes."""

    def __init__(self):
        self.sequences: list[list[int]] = []
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.failed = 0
        self.messages: list[str] = []

    def add(self, workload: Workload, sequence, latencies, scaled, failures):
        self.sequences.append(sequence)
        self.latencies.extend(latencies)
        self.scaled.extend(scaled or ())
        self.failed += len(failures)
        for position, messages in sorted(failures.items()):
            if len(self.messages) < 20:
                label = workload.ops[sequence[position]].label
                self.messages.append(f"{label}: {'; '.join(messages)}")

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def repeats(first_pass: list[float], order: list[int]) -> list[int]:
    """Back-to-back runs of each op per pass, from its first-pass latency."""
    counts = [1] * len(order)
    for latency, index in zip(first_pass, order):
        counts[index] = max(1, min(MAX_REPEATS, int(REPEAT_SECONDS / max(latency, 1e-9))))
    return counts


def enough_passes(done: int, elapsed: float, seconds: float, minimum: int = MIN_PASSES) -> bool:
    """Stop after `done` passes taking `elapsed` seconds once `minimum` are
    done and one more pass would end further from `seconds` than stopping.
    A traced run needs only one untraced pass to compare against."""
    return done >= minimum and elapsed + elapsed / done / 2 > seconds


def timed_passes(workload: Workload, rng: random.Random, seconds: float, minimum: int) -> Passes:
    """At least `minimum` whole passes, then as many as land closest to `seconds`."""
    passes = Passes()
    counts = None
    start = perf_counter()
    while True:
        order = list(range(len(workload.ops)))
        rng.shuffle(order)
        sequence = order if counts is None else [i for i in order for _ in range(counts[i])]
        latencies, scaled, failures = run_pass(workload, sequence, None, 0)
        passes.add(workload, sequence, latencies, scaled, failures)
        if counts is None:
            counts = repeats(latencies, order)
        if enough_passes(len(passes.sequences), perf_counter() - start, seconds, minimum):
            return passes


def replay_traced(workload: Workload, sequences: list[list[int]], tracer: Tracer) -> Passes:
    passes = Passes()
    for sequence in sequences:
        latencies, _, failures = run_pass(workload, sequence, tracer, len(passes.latencies))
        passes.add(workload, sequence, latencies, None, failures)
    return passes


def median_per_op(latencies: list[float], sequences: list[list[int]]) -> list[float]:
    """Each op's median run; `sequences` lists the op index of every latency, pass by pass."""
    runs: dict[int, list[float]] = {}
    for latency, index in zip(latencies, (i for sequence in sequences for i in sequence)):
        runs.setdefault(index, []).append(latency)
    return [statistics.median(values) for values in runs.values()]


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """The timed passes of one run and, with `trace`, their traced replay.

    Untraced, the whole of `seconds` goes to timed passes.  Traced, about
    half goes to untraced passes (at least one) and the same op sequence is
    then replayed with the span recorder on; the difference in busy time is
    the tracing overhead."""
    untraced = timed_passes(workload, random.Random(seed), seconds / 2 if trace else seconds,
                            1 if trace else workload.min_passes)
    out = {
        "op_ms": [1e3 * x for x in median_per_op(untraced.scaled, untraced.sequences)],
        "raw_op_ms": [1e3 * x for x in median_per_op(untraced.latencies, untraced.sequences)],
        "busy_s": untraced.busy,
        "passes": len(untraced.sequences),
        "ops_per_pass": len(workload.ops),
        "attempted": len(untraced.latencies),
        "failed": untraced.failed,
        "messages": untraced.messages,
    }
    if trace:
        tracer = Tracer()
        traced = replay_traced(workload, untraced.sequences, tracer)
        metrics = layer_metrics(tracer, len(traced.latencies))
        overhead = traced.busy - untraced.busy
        metrics["bench.tracing_overhead_ms_per_op"] = 1e3 * overhead / len(traced.latencies)
        metrics["bench.tracing_overhead_ratio"] = overhead / untraced.busy
        out.update(
            attempted=out["attempted"] + len(traced.latencies),
            failed=out["failed"] + traced.failed,
            messages=(out["messages"] + traced.messages)[:20],
            traced_busy_s=traced.busy,
            layer_metrics=metrics,
            tracer=tracer,
            op_labels=[workload.ops[i].label for sequence in traced.sequences for i in sequence],
        )
    return out
