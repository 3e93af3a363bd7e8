import itertools
import math

import numpy as np
import pytest

import qturing as qt

from conftest import random_configuration, random_table
from reference_oracle import column_pairs, gram_columns, gram_rows, row_pairs


class TestWindows:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("d", [-1, 0, 1])
    @pytest.mark.parametrize("shape", [(1, 2), (2, 2), (3, 1)])
    def test_cardinality_law(self, n, d, shape):
        frame = qt.simple_frame(*shape)
        window = qt.ConfigurationWindow(frame, n, d)
        configs = window.configurations()
        states, symbols = shape
        assert len(configs) == (n + 2 * d) * states * symbols ** n
        assert len(set(configs)) == len(configs)
        assert window.expected_cardinality() == len(configs)

    def test_head_range(self):
        frame = qt.simple_frame(1, 1)
        window = qt.ConfigurationWindow(frame, 3, 1)
        assert list(window.head_range) == [0, 1, 2, 3, 4]
        with pytest.raises(ValueError):
            qt.ConfigurationWindow(frame, 1, -1)

    def test_radius_window(self):
        frame = qt.simple_frame(2, 2)
        window = qt.radius_window(frame, 2)
        # support patterns over 5 cells, 5 head positions, 2 states
        assert len(window) == 2 ** 5 * 5 * 2
        assert all(abs(c.heads[0]) <= 2 for c in window)
        keys = [c.sort_key() for c in window]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("shape,radius", [((2, 2), 3), ((1, 2, 2), 1)])
    def test_radius_window_matches_validated_construction(self, shape, radius):
        frame = qt.simple_frame(*shape)
        cells = range(-radius, radius + 1)
        per_tape = [
            [
                (qt.Tape(blank, tuple((m, s) for m, s in zip(cells, symbols) if s != blank)), h)
                for symbols in itertools.product(range(size), repeat=len(cells))
                for h in cells
            ]
            for size, blank in zip(frame.symbol_counts, frame.blanks)
        ]
        expected = sorted(
            (
                qt.Configuration(q, tuple(t for t, _ in combo), tuple(h for _, h in combo))
                for q in range(frame.state_count)
                for combo in itertools.product(*per_tape)
            ),
            key=qt.Configuration.sort_key,
        )
        window = qt.radius_window(frame, radius)
        assert len(window) == len(expected)
        for got, want in zip(window, expected):
            assert got == want and hash(got) == hash(want)
            assert (type(got.tapes), type(got.heads)) == (tuple, tuple)
            assert all(type(h) is int for h in got.heads)


class TestGramColumns:
    def test_counterexample_identity_on_window(self, counterexample):
        window = qt.radius_window(counterexample.frame, 3)
        pairs = column_pairs(counterexample.frame, window)
        values = gram_columns(counterexample, pairs)
        assert np.abs(values).max() < 1e-12
        diag = gram_columns(counterexample, [(c, c) for c in window])
        assert np.abs(diag - 1.0).max() < 1e-12

    def test_distant_pairs_exactly_zero(self, counterexample):
        tape = qt.Tape(0)
        c = qt.Configuration(0, (tape,), (0,))
        c2 = qt.Configuration(0, (tape,), (3,))
        assert gram_columns(counterexample, [(c, c2)])[0] == 0j

    def test_check_matches_pairwise_route(self, counterexample):
        check = qt.column_gram_check(counterexample, radius=3)
        assert check.passed
        assert check.residual == 0.0
        assert check.config_count == 14
        bad = qt.perturb(counterexample, (0, 0, 0, 0, 0), 0.1)
        check2 = qt.column_gram_check(bad, radius=3)
        assert not check2.passed
        # row sum through the perturbed entry: |0.36 + 0.75 - 1| with 0.6 = 0.5 + 0.1
        assert abs(check2.diagonal_residual - 0.11) < 1e-12
        # the pairwise reference route gives the same residuals
        window = qt.radius_window(bad.frame, 3)
        off = gram_columns(bad, column_pairs(bad.frame, window))
        diag = gram_columns(bad, [(c, c) for c in window])
        assert abs(np.abs(diag - 1.0).max() - check2.diagonal_residual) < 1e-12
        assert abs(np.abs(off).max() - check2.offdiagonal_residual) < 1e-12


class TestGramRows:
    def test_identity_machine_rows(self, identity_machine):
        window = qt.radius_window(identity_machine.frame, 2)
        pairs = row_pairs(identity_machine.frame, window)
        assert np.abs(gram_rows(identity_machine, pairs)).max() == 0.0
        diag = gram_rows(identity_machine, [(c, c) for c in window])
        assert np.abs(diag - 1.0).max() == 0.0

    def test_counterexample_rows_identity(self, counterexample):
        check = qt.row_gram_check(counterexample, radius=3)
        assert check.passed and check.residual < 1e-12

    def test_scaled_row_shows_in_diagonal(self, counterexample):
        # scaling every amplitude entering state 1 by 0.9 drops the adjoint
        # norm of state-1 configurations to 0.81
        amps = counterexample.amplitudes.copy()
        amps[:, :, 1, :, :] *= 0.9
        table = qt.TransitionTable(counterexample.frame, amps)
        c = qt.Configuration(1, (qt.Tape(0),), (0,))
        diag = gram_rows(table, [(c, c)])[0]
        row_a = qt.check_row(table).residual_for("a").residual
        assert abs(diag - 0.81) < 1e-12
        assert abs(abs(diag - 1.0) - row_a) < 1e-12

    def test_locally_alike_diagonals_agree(self):
        rng = np.random.default_rng(31)
        frame = qt.simple_frame(2, 2)
        for _ in range(100):
            table = random_table(frame, rng, density=0.7)
            c = random_configuration(frame, rng)
            c2 = random_configuration(frame, rng)
            # force the same state and the same three symbols around the head
            c2 = qt.Configuration(c.state, c2.tapes, c2.heads)
            tape = c2.tapes[0]
            for d in (-1, 0, 1):
                tape = tape.write(c2.heads[0] + d, c.tapes[0].read(c.heads[0] + d))
            c2 = qt.Configuration(c.state, (tape,), c2.heads)
            assert qt.locally_like(c, c2)
            d1 = gram_rows(table, [(c, c)])[0]
            d2 = gram_rows(table, [(c2, c2)])[0]
            assert abs(d1 - d2) < 1e-12


class TestPairUnitaryMachine:
    def test_identity_matrix_gives_identity_machine(self, identity_machine):
        frame = identity_machine.frame
        table = qt.pair_unitary_machine(frame, np.eye(1), {0: 0})
        assert np.array_equal(table.amplitudes, identity_machine.amplitudes)

    def test_rotation_passes_column_conditions(self):
        frame = qt.simple_frame(2, 1)
        theta = 0.737
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        table = qt.pair_unitary_machine(frame, rot, [1, 1])
        report = qt.check_column(table)
        assert report.passed and report.max_residual < 1e-12
        assert qt.column_gram_check(table, radius=2).passed

    def test_output_always_unidirectional(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            frame = qt.simple_frame(3, 2)
            directions = [int(d) for d in rng.integers(-1, 2, size=3)]
            table = qt.pair_unitary_machine(frame, qt.random_unitary(6, rng), directions)
            assert qt.is_unidirectional(table)

    def test_rejects_non_unitary(self):
        frame = qt.simple_frame(2, 1)
        with pytest.raises(ValueError):
            qt.pair_unitary_machine(frame, np.ones((2, 2)), [0, 0])
        with pytest.raises(ValueError):
            qt.pair_unitary_machine(frame, np.eye(3), [0, 0])
        with pytest.raises(ValueError):
            qt.pair_unitary_machine(frame, np.eye(2), [0, 2])


class TestPerturb:
    def test_identity_perturbation_residual(self, identity_machine):
        table = qt.perturb(identity_machine, (0, 0, 0, 0, 0), 0.1)
        report = qt.check_column(table)
        assert abs(report.residual_for("a").residual - 0.21) < 1e-12

    def test_zero_epsilon_rejected(self, identity_machine):
        with pytest.raises(ValueError):
            qt.perturb(identity_machine, (0, 0, 0, 0, 0), 0.0)

    def test_perturbed_fails_gram_identity(self, corpus):
        for entry in corpus[:16]:
            check = qt.column_gram_check(entry.table, radius=3)
            assert check.passed == entry.expect_valid


class TestCorpus:
    def test_sizes_and_split(self, corpus):
        assert len(corpus) == 100
        assert sum(e.expect_valid for e in corpus) == 50

    def test_deterministic(self):
        a = qt.build_corpus(6, 6, seed=42)
        b = qt.build_corpus(6, 6, seed=42)
        assert [e.label for e in a] == [e.label for e in b]
        assert all(
            np.array_equal(x.table.amplitudes, y.table.amplitudes) for x, y in zip(a, b)
        )

    def test_verdicts_match_expectation(self, corpus):
        for entry in corpus:
            assert qt.check_column(entry.table).passed == entry.expect_valid
