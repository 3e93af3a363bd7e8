import numpy as np
import pytest

import qturing as qt
import reference_conditions

from conftest import random_table


@pytest.fixture(scope="module")
def two_tape_counterexample(counterexample):
    """Tensor the counterexample with the identity on a second blank tape."""
    frame = qt.TuringFrame(("0", "1"), (("B",), ("B",)))
    rules = []
    for q, s, p, t, m, amp in counterexample.nonzero_rules():
        move = counterexample.frame.move_vector(m)[0]
        rules.append((q, (0, 0), p, (0, 0), (move, 0), amp))
    return qt.TransitionTable.from_rules(frame, rules)


class TestColumn:
    def test_counterexample_passes(self, counterexample):
        report = qt.check_column(counterexample)
        assert report.passed
        assert all(r.residual < 1e-12 for r in report.residuals)

    def test_identity_residuals_exactly_zero(self, identity_machine):
        report = qt.check_column(identity_machine)
        assert [r.residual for r in report.residuals] == [0.0, 0.0, 0.0, 0.0]

    def test_row_sum_perturbation(self, counterexample):
        # setting the (0,B,0,B,0) amplitude to 0.6 unbalances row (0,B):
        # |0.36 + 0.25 + 0.25 + 0.25 - 1| = 0.11
        table = counterexample.with_entry(0, 0, 0, 0, 0, 0.6)
        report = qt.check_column(table)
        assert not report.passed
        cond_a = report.residual_for("a")
        assert abs(cond_a.residual - 0.11) < 1e-12
        assert cond_a.witness_dict == {"q": "0", "sigma": "B"}

    def test_requires_single_tape(self, two_tape_counterexample):
        with pytest.raises(ValueError):
            qt.check_column(two_tape_counterexample)


class TestRow:
    def test_counterexample_passes(self, counterexample):
        report = qt.check_row(counterexample)
        assert report.passed
        assert all(r.residual < 1e-12 for r in report.residuals)

    def test_identity_residuals_exactly_zero(self, identity_machine):
        report = qt.check_row(identity_machine)
        assert [r.residual for r in report.residuals] == [0.0] * 6

    def test_agrees_with_column_on_random_tables(self):
        # 100 random tables here plus the 100-table corpus check below give
        # the two characterizations no room to drift apart
        rng = np.random.default_rng(10)
        shapes = [(1, 1), (2, 1), (2, 2), (3, 2), (1, 3)]
        for i in range(100):
            frame = qt.simple_frame(*shapes[i % len(shapes)])
            table = random_table(frame, rng, density=0.7)
            assert qt.check_row(table).passed == qt.check_column(table).passed

    def test_agrees_with_column_on_corpus(self, corpus):
        for entry in corpus:
            assert qt.check_row(entry.table).passed == entry.expect_valid


class TestHirvensalo:
    def test_counterexample_fails_with_exact_residuals(self, counterexample):
        report = qt.check_hirvensalo(counterexample)
        assert not report.passed
        assert abs(report.residual_for("H-c").residual - 0.5) < 1e-12
        assert abs(report.residual_for("H-d").residual - 0.25) < 1e-12
        # the first two families coincide with the column pair and pass
        assert report.residual_for("H-a").residual < 1e-12
        assert report.residual_for("H-b").residual < 1e-12

    def test_identity_passes_exactly(self, identity_machine):
        report = qt.check_hirvensalo(identity_machine)
        assert [r.residual for r in report.residuals] == [0.0] * 4

    def test_sufficient_for_column(self):
        # hirvensalo pass implies column pass; single-direction pair machines
        # satisfy both.
        rng = np.random.default_rng(11)
        for symbols in (1, 2):
            frame = qt.simple_frame(2, symbols)
            table = qt.pair_unitary_machine(
                frame, qt.random_unitary(2 * symbols, rng), [1, 1]
            )
            assert qt.check_hirvensalo(table).passed
            assert qt.check_column(table).passed
        for i in range(40):
            table = random_table(qt.simple_frame(2, 2), rng)
            if qt.check_hirvensalo(table).passed:
                assert qt.check_column(table).passed


class TestTwoTape:
    def test_identity_exact(self):
        frame = qt.simple_frame(1, 1, 1)
        table = qt.TransitionTable.from_rules(frame, [(0, (0, 0), 0, (0, 0), (0, 0), 1.0)])
        report = qt.check_two_tape(table)
        assert [r.residual for r in report.residuals] == [0.0] * 14
        assert [r.id.name for r in report.residuals] == [str(i) for i in range(1, 15)]

    def test_tensor_counterexample_passes(self, two_tape_counterexample):
        report = qt.check_two_tape(two_tape_counterexample)
        assert report.passed
        # cross-validate with the brute-force oracle before trusting
        assert qt.column_gram_check(two_tape_counterexample, radius=2).passed

    def test_matches_generated_checker(self):
        rng = np.random.default_rng(12)
        shapes = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (2, 1, 2)]
        for i in range(30):
            frame = qt.simple_frame(*shapes[i % len(shapes)])
            table = random_table(frame, rng, density=0.5)
            direct = reference_conditions.check_two_tape(table)
            generated = qt.check_ktape(table)
            assert direct.passed == generated.passed
            for a, b in zip(direct.residuals, generated.residuals):
                assert abs(a.residual - b.residual) < 1e-12

    def test_requires_two_tapes(self, counterexample):
        with pytest.raises(ValueError):
            qt.check_two_tape(counterexample)


class TestDegenerateFrames:
    def test_single_state_single_symbol(self):
        table = qt.TransitionTable.from_rules(qt.simple_frame(1, 1), [(0, 0, 0, 0, 1, 1.0)])
        report = qt.check_column(table)
        # (b) quantifies over an empty pair set
        assert report.residual_for("b").residual == 0.0
        assert report.residual_for("b").witness is None
        assert report.passed

    def test_row_checker_degenerate(self):
        table = qt.TransitionTable.from_rules(qt.simple_frame(1, 1), [(0, 0, 0, 0, 1, 1.0)])
        report = qt.check_row(table)
        assert report.passed
        assert report.residual_for("d").witness is None


class TestUnidirectionalExactness:
    def test_cross_shift_conditions_structurally_zero(self):
        rng = np.random.default_rng(13)
        for i in range(10):
            states, symbols = [(1, 1), (2, 1), (2, 2), (3, 2), (4, 1)][i % 5]
            frame = qt.simple_frame(states, symbols)
            directions = [int(d) for d in rng.integers(-1, 2, size=states)]
            table = qt.pair_unitary_machine(
                frame, qt.random_unitary(states * symbols, rng), directions
            )
            report = qt.check_column(table)
            assert report.residual_for("c").residual == 0.0
            assert report.residual_for("d").residual == 0.0
            assert report.passed
            assert qt.is_unidirectional(table)


def test_verdict_matches_tolerance(counterexample):
    table = counterexample.with_entry(0, 0, 0, 0, 0, 0.5 + 1e-8)
    assert not qt.check_column(table, tolerance=1e-9).passed
    assert qt.check_column(table, tolerance=1e-6).passed


def test_report_shape(counterexample):
    report = qt.check_column(counterexample)
    assert report.checker == "column"
    assert report.verdict == "pass"
    assert report.max_residual == max(r.residual for r in report.residuals)
    with pytest.raises(KeyError):
        report.residual_for("zzz")
