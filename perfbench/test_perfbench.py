"""Tests of the benchmark itself: each workload's gate fires on a planted
wrong answer, the size guard refuses oversized windows, and the statistics
and span arithmetic are right.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
import dataclasses
import json

import numpy as np
import pytest

import qturing as qt

import cli_workload
import passes
import run
import tracing
import workloads


def _valid_table(dims=(2, 2), seed=0):
    return workloads.pair_unitary_table(qt.simple_frame(*dims), np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Gates fire on planted wrong answers
# ---------------------------------------------------------------------------

def test_validate_gate_fires_on_wrong_verdict():
    table = _valid_table()
    report = qt.check_auto(table)
    assert workloads.validate_gate("auto", 1, True, report) == []
    assert workloads.validate_gate("auto", 1, False, report)
    wrong = dataclasses.replace(report, checker="row")
    assert workloads.validate_gate("auto", 1, True, wrong)


def test_validate_cross_check_fires_on_drifted_ktape_residual():
    table = _valid_table()
    ops = {role: passes.Op(role, (), None, None, None, "ktape", ("t", 1), role)
           for role in ("auto", "ktape", "row", "hirvensalo")}
    auto, ktape = qt.check_auto(table), qt.check_ktape(table)
    row, hirv = qt.check_row(table), qt.check_hirvensalo(table)
    results = [(0, auto, ops["auto"]), (1, ktape, ops["ktape"]),
               (2, row, ops["row"]), (3, hirv, ops["hirvensalo"])]
    assert workloads.validate_cross_check(results) == {}

    first = ktape.residuals[0]
    drifted = dataclasses.replace(
        ktape, residuals=(dataclasses.replace(first, residual=first.residual + 1e-9),)
        + ktape.residuals[1:])
    failures = workloads.validate_cross_check([results[0], (1, drifted, ops["ktape"])])
    assert list(failures) == [1]
    failures = workloads.validate_cross_check([results[0], (1, ktape, ops["ktape"]),
                                               (4, drifted, ops["ktape"])])
    assert list(failures) == [4]  # a repeated run is judged too

    failing = qt.check_column(workloads.perturbed_table(table, np.random.default_rng(1)))
    failures = workloads.validate_cross_check([(0, failing, ops["auto"]), (2, row, ops["row"]),
                                               (3, dataclasses.replace(failing, checker="hirvensalo",
                                                                       residuals=()), ops["hirvensalo"])])
    assert set(failures) == {2, 3}


def test_validate_pass_counts_a_planted_wrong_checker(monkeypatch):
    workload = workloads.build_validate(3)
    real_row = qt.check_row

    def lying_row(table, tolerance=qt.DEFAULT_TOLERANCE):
        report = real_row(table, tolerance)
        return dataclasses.replace(report, residuals=()) if not report.passed else report

    monkeypatch.setitem(workloads._CHECKERS, "row", lying_row)
    order = [i for i, op in enumerate(workload.ops) if op.shape == (2, 1)]
    _, _, failures = passes.run_pass(workload, order, None, 0)
    labels = {workload.ops[order[p]].label for p in failures}
    assert labels == {"validate Q2 S(1,) perturbed row", "validate Q2 S(1,) dense row"}


def test_evolve_gate_fires_on_wrong_round_trip_and_norm_drift():
    workload = workloads.build_evolve(5)
    op = workload.ops[0]
    norms, back = op.call()
    assert op.check((norms, back)) == []
    shifted = back.plus(qt.Superposition.basis(back.configurations()[0], 1e-6))
    assert op.check((norms, shifted))
    assert op.check((norms[:-1] + (norms[-1] + 1e-6,), back))


def test_evolve_traced_matches_untraced():
    workload = workloads.build_evolve(5)
    tracer = tracing.Tracer()
    for op in (workload.ops[0], workload.ops[-1]):
        norms, back = op.call()
        traced_norms, traced_back = op.traced(tracer)
        tracer.end_op()
        assert traced_norms == norms and traced_back == back
    assert tracer.counters["evolution.images"] > 0


def test_gram_gate_fires_on_wrong_verdict_size_and_norm():
    table = _valid_table()
    check = qt.column_gram_check(table, 2)
    size = workloads.window_configs(table.frame, 2)
    assert workloads.gram_gate("columns", True, size, check) == []
    assert workloads.gram_gate("columns", False, size, check)
    assert workloads.gram_gate("columns", True, size + 1, check)
    assert workloads.gram_gate("norm", (3.0, True), 0, 1.0) == []
    assert workloads.gram_gate("norm", (3.0, True), 0, 1.001)
    assert workloads.gram_gate("norm", (0.5, False), 0, 1.0)


def test_cli_gate_fires_on_wrong_exit_code_and_changed_stdout(tmp_path):
    cli = cli_workload.CliRun(tmp_path, {}, 1)
    good = b"machine: counterexample\nverdict: FAIL\n"
    assert cli.gate(1, 1, good) == []
    assert cli.gate(1, 0, good)
    assert cli.gate(1, 1, good + b"extra\n")
    assert cli.gate(1, 1, b"verdict: PASS\n")


def test_cli_ops_run_through_the_shared_pass_loop(tmp_path):
    cli = cli_workload.CliRun(tmp_path, {}, 1)
    cli.directory = tmp_path
    outputs = {1: (1, b"verdict: FAIL\n"), 4: (0, b"total: 64\n")}
    cli.invoke = lambda index: outputs[index]
    cli.slowness = lambda: 1.0
    workload = cli.workload(tmp_path / "probe.py")
    _, _, failures = passes.run_pass(workload, [1, 4, 1], None, 0)
    assert failures == {}
    outputs[1] = (0, b"verdict: FAIL\n")  # planted: the documented exit code is 1
    _, _, failures = passes.run_pass(workload, [4, 1], None, 0)
    assert list(failures) == [1]


def test_cli_seeded_files_are_seeded_and_normalized():
    files = cli_workload.seeded_files(4)
    assert files == cli_workload.seeded_files(4)
    assert files != cli_workload.seeded_files(5)
    doc = qt.parse_document(files["seeded.qtm"])
    assert qt.check_auto(doc.table).passed
    terms = json.loads(files["start.json"])
    assert abs(sum(a * a + b * b for t in terms for a, b in [t["amp"]]) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Size guard and the window law
# ---------------------------------------------------------------------------

def test_window_law_matches_radius_window():
    for dims, radius in (((2, 1), 3), ((1, 2), 2), ((1, 2, 2), 1), ((2, 1, 1), 2)):
        frame = qt.simple_frame(*dims)
        assert workloads.window_configs(frame, radius) == len(qt.radius_window(frame, radius))


def test_size_guard_refuses_two_tape_q2s33_at_default_radius():
    frame = qt.simple_frame(2, 3, 3)
    assert workloads.window_configs(frame, 2) == 2 * (5 * 3 ** 5) ** 2
    with pytest.raises(ValueError, match="2952450 configurations"):
        workloads.guard_window(frame, 2)
    assert workloads.guard_window(qt.simple_frame(2, 2), 4) == 9216


def test_generated_invalid_tables_are_invalid():
    rng = np.random.default_rng(9)
    for dims in ((2, 1), (3, 2), (2, 3, 3)):
        frame = qt.simple_frame(*dims)
        valid = workloads.pair_unitary_table(frame, rng)
        assert qt.check_ktape(valid).passed
        assert not qt.check_ktape(workloads.perturbed_table(valid, rng)).passed
        assert not qt.check_ktape(workloads.dense_table(frame, rng)).passed


# ---------------------------------------------------------------------------
# Loop, statistics and spans
# ---------------------------------------------------------------------------

def test_an_op_that_raises_is_a_failed_op():
    def boom():
        raise RuntimeError("planted")

    op = passes.Op("boom", (), boom, lambda tr: boom(), lambda r: [], "oracle")
    latencies, scaled, failures = passes.run_pass(passes.Workload("t", [op]), [0], None, 0)
    assert len(latencies) == len(scaled) == 1 and failures == {0: ["raised RuntimeError: planted"]}
    tracer = tracing.Tracer()
    passes.run_pass(passes.Workload("t", [op]), [0], tracer, 0)
    assert tracing.layer_metrics(tracer, 1)["oracle.errors"] == 0  # the op span is not a layer
    assert tracer.spans[0][5] is True


def test_cheap_ops_repeat_within_a_pass():
    assert passes.repeats([0.001, 0.5, 0.004], [2, 0, 1]) == [1, 2, passes.MAX_REPEATS]
    calls = []
    op = passes.Op("cheap", (), lambda: calls.append(1) or 1, None, lambda r: [], "oracle")
    result = passes.timed_passes(passes.Workload("t", [op]), __import__("random").Random(0), 0.0, 2)
    assert result.sequences == [[0], [0] * passes.MAX_REPEATS]
    assert len(calls) == len(result.latencies) == 1 + passes.MAX_REPEATS


def test_a_failed_import_probe_counts_as_an_import_error(tmp_path):
    broken = tmp_path / "qturing"
    broken.mkdir()
    (broken / "__init__.py").write_text("raise ImportError('planted')\n")
    (tmp_path / "src" / "qturing").mkdir(parents=True)
    env = dict(__import__("os").environ, PYTHONPATH=str(tmp_path))
    metrics = run.environment_probes(tmp_path, env)
    assert metrics["import.errors"] == run.IMPORT_PROBES
    assert metrics["import.qturing_ms"] > 0 and metrics["cli.interpreter_ms"] > 0


def test_host_scale_takes_times_to_the_reference_host():
    assert passes.host_scale(1.0, 1.0) == 1.0
    assert passes.host_scale(1.0, 3.0) == 0.5
    marks = [(0.0, 1.0, 1.0), (3.0, 3.5, 3.0), (4.5, 5.0, 1.0)]
    assert passes.scaled_interval(marks) == (3.0, 1.5)  # 2 s at half speed, then 1 s at half
    begin, end, reading = passes.mark()
    assert begin < end and reading > 0


def test_percentile_and_median_per_op():
    assert run.percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.5
    assert run.percentile([1.0, 2.0, 3.0], 100) == 3.0
    assert passes.median_per_op([5, 1, 4, 2, 3, 6, 7], [[0, 1, 2], [2, 1, 0], [0]]) == [6, 2, 3]


def test_enough_passes_needs_three_then_stops_closest():
    assert not passes.enough_passes(2, 100.0, 10.0)
    assert passes.enough_passes(3, 9.0, 10.0)  # a fourth would end at 12
    assert not passes.enough_passes(3, 6.0, 10.0)  # a fourth ends at 8
    assert passes.enough_passes(1, 4.0, 5.0, minimum=1)


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.spans = [["op.x", -1, 0.0, 10.0, 0, False],
                    ["ktape.check_auto", 0, 1.0, 7.0, 0, False],
                    ["conditions.check_column", 1, 2.0, 6.0, 0, False],
                    ["machine_io.parse_document", 0, 7.0, 9.0, 0, False]]
    assert tracing.self_times(tracer.spans) == [2.0, 2.0, 4.0, 2.0]
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["ktape.self_ms_per_op"] == 2000.0
    assert metrics["ktape.check_auto_ms"] == 6000.0
    assert metrics["conditions.calls"] == 1
    assert set(metrics) == {name for name, _ in tracing.PER_LAYER_METRICS}
