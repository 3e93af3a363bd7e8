"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""
import math

import numpy as np
import pytest

import qturing as qt
from qturing.cli import bundled_machine_path, main

from conftest import random_table
import reference_conditions
from reference_oracle import gram_rows


def _report(num: int, description: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance {num:02d}] {status}: {description}")
    assert not failures, f"criterion {num} failed: {failures[:5]}"


@pytest.fixture(scope="module")
def bundled_counterexample() -> qt.TransitionTable:
    return qt.parse_machine(bundled_machine_path("counterexample").read_text())


def test_criterion_01_counterexample_reproduction(bundled_counterexample):
    failures = []
    column = qt.check_column(bundled_counterexample)
    if not column.passed:
        failures.append("column verdict")
    failures += [
        f"column-{r.id.name} residual {r.residual}"
        for r in column.residuals
        if not r.residual < 1e-12
    ]
    hirv = qt.check_hirvensalo(bundled_counterexample)
    if hirv.passed:
        failures.append("hirvensalo unexpectedly passed")
    if abs(hirv.residual_for("H-c").residual - 0.5) > 1e-12:
        failures.append(f"H-c residual {hirv.residual_for('H-c').residual}")
    if abs(hirv.residual_for("H-d").residual - 0.25) > 1e-12:
        failures.append(f"H-d residual {hirv.residual_for('H-d').residual}")
    _report(1, "bundled counterexample passes column, fails hirvensalo at 0.5/0.25", failures)


def test_criterion_02_condition_count_law():
    failures = []
    for k, expected in ((1, 4), (2, 14), (3, 64), (4, 314)):
        ids = qt.generate_ktape_conditions(qt.simple_frame(1, *(1,) * k))
        total = len(qt.expand_condition_ids(ids))
        if total != expected or total != 1 + (5 ** k + 1) // 2:
            failures.append(f"k={k}: {total}")
    _report(2, "generated condition totals are 4/14/64/314 for k=1..4", failures)


def _pair_machine_two_tape(frame, unitary, directions):
    """Unidirectional two-tape machine from a unitary on (state, symbol pair)s."""
    Q, S = frame.state_count, frame.symbol_block
    amps = np.zeros((Q, S, Q, S, 9), dtype=complex)
    for p in range(Q):
        m = frame.move_flat(directions[p])
        block = unitary[p * S:(p + 1) * S, :].reshape(S, Q, S)
        amps[:, :, p, :, m] = np.transpose(block, (1, 2, 0))
    return qt.TransitionTable(frame, amps)


def test_criterion_03_checker_specialization():
    failures = []
    rng = np.random.default_rng(101)

    shapes1 = [(1, 1), (2, 1), (2, 2), (3, 2), (1, 3), (3, 1)]
    for i in range(100):
        frame = qt.simple_frame(*shapes1[i % len(shapes1)])
        if i % 5 == 0:
            dirs = [int(d) for d in rng.integers(-1, 2, size=frame.state_count)]
            table = qt.pair_unitary_machine(
                frame, qt.random_unitary(frame.state_count * frame.symbol_block, rng), dirs)
        else:
            table = random_table(frame, rng, density=float(rng.uniform(0.2, 1.0)))
        direct = reference_conditions.check_column(table)
        generated = qt.check_ktape(table)
        if direct.passed != generated.passed:
            failures.append(f"k=1 table {i}: verdict mismatch")
        for a, b in zip(direct.residuals, generated.residuals):
            if abs(a.residual - b.residual) > 1e-12:
                failures.append(f"k=1 table {i}: {a.id.name} residual gap")

    shapes2 = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (2, 1, 2), (1, 2, 2), (2, 2, 2)]
    for i in range(100):
        frame = qt.simple_frame(*shapes2[i % len(shapes2)])
        if i % 5 == 0:
            dirs = [
                (int(a), int(b))
                for a, b in zip(rng.integers(-1, 2, size=frame.state_count),
                                rng.integers(-1, 2, size=frame.state_count))
            ]
            table = _pair_machine_two_tape(
                frame, qt.random_unitary(frame.state_count * frame.symbol_block, rng), dirs)
        else:
            table = random_table(frame, rng, density=float(rng.uniform(0.2, 0.8)))
        direct = reference_conditions.check_two_tape(table)
        generated = qt.check_ktape(table)
        if direct.passed != generated.passed:
            failures.append(f"k=2 table {i}: verdict mismatch")
        for a, b in zip(direct.residuals, generated.residuals):
            if abs(a.residual - b.residual) > 1e-12:
                failures.append(f"k=2 table {i}: condition {a.id.name} residual gap")

    _report(3, "generated checker matches column (k=1) and two-tape (k=2) on 100 random tables each", failures)


def test_criterion_04_oracle_equivalence(corpus):
    failures = []
    for entry in corpus:
        column = qt.check_column(entry.table).passed
        gram_c = qt.column_gram_check(entry.table, radius=3).passed
        if column != gram_c:
            failures.append(f"{entry.label}: column {column} vs gram {gram_c}")
        row = qt.check_row(entry.table).passed
        gram_r = qt.row_gram_check(entry.table, radius=3).passed
        if row != gram_r:
            failures.append(f"{entry.label}: row {row} vs gram {gram_r}")
    _report(4, "checker verdicts equal brute-force Gram verdicts on the 100-table corpus", failures)


def test_criterion_05_column_row_agreement(corpus):
    failures = []
    for entry in corpus:
        column = qt.check_column(entry.table).passed
        row = qt.check_row(entry.table).passed
        if column != row:
            failures.append(f"{entry.label}: column {column} vs row {row}")
    _report(5, "column and row verdicts agree on the full corpus", failures)


def test_criterion_06_unidirectional_exactness(corpus):
    failures = []
    for entry in corpus:
        if not entry.expect_valid:
            continue
        report = qt.check_column(entry.table)
        if report.residual_for("c").residual != 0.0:
            failures.append(f"{entry.label}: (c) not exactly zero")
        if report.residual_for("d").residual != 0.0:
            failures.append(f"{entry.label}: (d) not exactly zero")
        if not report.passed:
            failures.append(f"{entry.label}: validation failed")
        if not qt.is_unidirectional(entry.table):
            failures.append(f"{entry.label}: not unidirectional")
    _report(6, "every generated machine has exactly-zero shift conditions and one move per state", failures)


def _random_superposition(frame, rng, terms=3):
    window = qt.radius_window(frame, 1)
    chosen = rng.choice(len(window), size=min(terms, len(window)), replace=False)
    amps = rng.standard_normal(len(chosen)) + 1j * rng.standard_normal(len(chosen))
    amps /= np.linalg.norm(amps)
    return qt.Superposition({window[i]: a for i, a in zip(chosen, amps)})


def test_criterion_07_simulation_unitarity(corpus):
    failures = []
    rng = np.random.default_rng(202)
    for entry in corpus:
        if not entry.expect_valid:
            continue
        for trial in range(20):
            psi = _random_superposition(entry.table.frame, rng)
            result = qt.run(entry.table, psi, 10, unchecked=True)
            if abs(result.norms[-1] - 1.0) > 1e-9:
                failures.append(f"{entry.label} trial {trial}: norm {result.norms[-1]}")
            back = qt.apply_adjoint(entry.table, qt.apply(entry.table, psi))
            if back.distance(psi) > 1e-9:
                failures.append(f"{entry.label} trial {trial}: round trip {back.distance(psi)}")
    _report(7, "10-step runs stay normalized and adjoint round trips are exact on all valid tables", failures)


def test_criterion_08_norm_bound(corpus):
    failures = []
    for entry in corpus:
        stats = qt.compute_statistics(entry.table)
        bound = qt.norm_bound(stats, entry.table.frame)
        estimate = qt.estimate_norm(entry.table, 3, 200)
        if estimate > bound + 1e-9:
            failures.append(f"{entry.label}: estimate {estimate} above bound {bound}")
        if entry.expect_valid and abs(estimate - 1.0) > 1e-6:
            failures.append(f"{entry.label}: estimate {estimate} not 1")
    _report(8, "norm estimates respect sqrt(5)K|Q||S|^2 and equal 1 for valid tables", failures)


def test_criterion_09_local_likeness_and_window_law():
    failures = []
    rng = np.random.default_rng(303)
    frame = qt.simple_frame(2, 2)
    for i in range(100):
        table = random_table(frame, rng, density=float(rng.uniform(0.3, 1.0)))
        spans = rng.integers(-4, 5, size=6)
        tape_a = qt.Tape(0)
        tape_b = qt.Tape(0)
        for cell in range(-4, 5):
            if rng.random() < 0.5:
                tape_a = tape_a.write(int(cell), int(rng.integers(2)))
            if rng.random() < 0.5:
                tape_b = tape_b.write(int(cell), int(rng.integers(2)))
        state = int(rng.integers(2))
        head_a, head_b = int(spans[0]), int(spans[1])
        a = qt.Configuration(state, (tape_a,), (head_a,))
        for d in (-1, 0, 1):
            tape_b = tape_b.write(head_b + d, tape_a.read(head_a + d))
        b = qt.Configuration(state, (tape_b,), (head_b,))
        if not qt.locally_like(a, b):
            failures.append(f"pair {i} not locally alike")
            continue
        diag_a = gram_rows(table, [(a, a)])[0]
        diag_b = gram_rows(table, [(b, b)])[0]
        if abs(diag_a - diag_b) > 1e-12:
            failures.append(f"pair {i}: diagonals {diag_a} vs {diag_b}")

    for shape in ((1, 2), (2, 2), (3, 1)):
        for n in (3, 4):
            for d in (-1, 0, 1):
                window = qt.ConfigurationWindow(qt.simple_frame(*shape), n, d)
                states, symbols = shape
                if len(window.configurations()) != (n + 2 * d) * states * symbols ** n:
                    failures.append(f"window {shape} n={n} d={d}")
    _report(9, "locally-alike diagonals agree and window sizes follow (n+2d)|Q||S|^n", failures)


def test_criterion_10_cli_contract(capsys):
    failures = []
    code = main(["validate", "counterexample", "--checker", "column"])
    capsys.readouterr()
    if code != 0:
        failures.append(f"column exit {code}")

    code = main(["validate", "counterexample", "--checker", "hirvensalo"])
    out = capsys.readouterr().out
    if code != 1:
        failures.append(f"hirvensalo exit {code}")
    if "hirvensalo-H-c\t5.000000000000e-01" not in out:
        failures.append("H-c residual missing from report")
    if "hirvensalo-H-d\t2.500000000000e-01" not in out:
        failures.append("H-d residual missing from report")

    code = main(["run", "counterexample", "--steps", "1"])
    out = capsys.readouterr().out
    if code != 0:
        failures.append(f"run exit {code}")
    terms = [line.split("\t") for line in out.splitlines() if line and line[0].isdigit()]
    got = [(t[0], t[1], t[3]) for t in terms]
    expected = [
        ("0", "0", "5.000000000000e-01"),
        ("0", "1", "-5.000000000000e-01"),
        ("1", "-1", "5.000000000000e-01"),
        ("1", "0", "5.000000000000e-01"),
    ]
    if got != expected:
        failures.append(f"run terms {got}")
    _report(10, "CLI exit codes and reports match the counterexample contract", failures)
