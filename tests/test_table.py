import math
import tracemalloc

import numpy as np
import pytest

import qturing as qt
from qturing.machine_io import table_entries

from conftest import random_table


class TestAmplitudeLookup:
    def test_counterexample_entries(self, counterexample):
        assert qt.amplitude(counterexample, 0, 0, 0, 0, 0) == 0.5
        assert qt.amplitude(counterexample, 0, 0, 0, 0, -1) == 0.0
        assert qt.amplitude(counterexample, 0, 0, 0, 0, 1) == -0.5
        assert qt.amplitude(counterexample, 1, 0, 1, 0, 0) == -0.5

    def test_unset_entry_is_zero(self, identity_machine):
        frame = qt.simple_frame(2, 2)
        table = qt.TransitionTable.zeros(frame)
        assert qt.amplitude(table, 1, 1, 0, 0, -1) == 0

    def test_lookup_is_pure(self, counterexample):
        first = qt.amplitude(counterexample, 0, 0, 1, 0, -1)
        assert all(qt.amplitude(counterexample, 0, 0, 1, 0, -1) == first for _ in range(5))

    def test_out_of_range_rejected(self, counterexample):
        with pytest.raises(IndexError):
            qt.amplitude(counterexample, 2, 0, 0, 0, 0)
        with pytest.raises(IndexError):
            qt.amplitude(counterexample, 0, 1, 0, 0, 0)
        with pytest.raises(IndexError):
            qt.amplitude(counterexample, 0, 0, 0, 0, 2)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"^amplitude array must have shape \(1, 2, 1, 2, 3\), got \(1, 2, 1, 2\)$"):
            qt.TransitionTable(qt.simple_frame(1, 2), np.zeros((1, 2, 1, 2)))

    def test_non_finite_rejected(self):
        frame = qt.simple_frame(1, 1)
        amps = np.full((1, 1, 1, 1, 3), np.nan, dtype=complex)
        with pytest.raises(ValueError):
            qt.TransitionTable(frame, amps)

    @pytest.mark.parametrize("value", [2.0 ** 100 + 2.0 ** 60, 2.0 ** 99.6 * (1 + 1j), 1e308 + 1e308j, np.inf])
    def test_modulus_above_the_bound_rejected(self, value):
        frame = qt.simple_frame(1, 300)  # 270,000 entries: the check runs block by block
        amps = np.zeros(frame.table_shape, dtype=complex)
        amps.reshape(-1)[-1] = value
        with pytest.raises(ValueError, match=r"modulus at most 2\*\*100"):
            qt.TransitionTable(frame, amps)
        amps.reshape(-1)[-1] = 2.0 ** 100
        assert qt.TransitionTable(frame, amps).amplitudes.reshape(-1)[-1] == 2.0 ** 100
        with pytest.raises(ValueError, match=r"modulus at most 2\*\*100"):
            qt.TransitionTable.zeros(frame).with_entry(0, 299, 0, 299, 1, value)

    def test_array_immutable(self, counterexample):
        with pytest.raises(ValueError):
            counterexample.amplitudes[0, 0, 0, 0, 0] = 9


# Vectors with a non-integer component, in sequence and scalar form; each used
# to truncate to a valid index (or, as a scalar float, raise TypeError).
NON_INTEGRAL = [((0.9,), (0.2,), (0.7,)), ((1.6,), (1.2,), (-0.5,)), (0.9, 0, 0), (0, 1.0, 0), (0, 0, 0.5)]


class TestIntegerComponents:
    @pytest.fixture
    def table(self):
        return qt.TransitionTable.from_rules(qt.simple_frame(1, 2), [(0, 0, 0, 0, 0, 0.25), (0, 1, 0, 1, 0, 0.5)])

    @pytest.mark.parametrize("sigma, tau, moves", NON_INTEGRAL)
    def test_amplitude_rejects_non_integers(self, table, sigma, tau, moves):
        with pytest.raises(ValueError, match="integer"):
            qt.amplitude(table, 0, sigma, 0, tau, moves)

    @pytest.mark.parametrize("sigma, tau, moves", NON_INTEGRAL)
    def test_with_entry_rejects_non_integers(self, table, sigma, tau, moves):
        with pytest.raises(ValueError, match="integer"):
            table.with_entry(0, sigma, 0, tau, moves, 0.3)

    @pytest.mark.parametrize("sigma, tau, moves", NON_INTEGRAL)
    def test_perturb_rejects_non_integers(self, table, sigma, tau, moves):
        with pytest.raises(ValueError, match="integer"):
            qt.perturb(table, (0, sigma, 0, tau, moves), 0.1)

    def test_python_and_numpy_integers_still_index(self, table):
        for index in (1, (1,), [1], np.int64(1), (np.int32(1),), np.array([1])):
            assert qt.amplitude(table, 0, index, 0, index, 0) == 0.5
        assert qt.amplitude(table.with_entry(0, np.int64(1), 0, (0,), (np.int8(-1),), 0.3), 0, 1, 0, 0, -1) == 0.3
        assert qt.amplitude(qt.perturb(table, (0, (np.int64(0),), 0, 0, 0), 0.5), 0, 0, 0, 0, 0) == 0.75


# (q, p) pairs with one state index out of range, on a two-state frame
BAD_STATES = [(-1, 0), (2, 0), (0, -1), (0, 2)]


class TestStateRange:
    """Every entry access checks 0 <= q, p < |Q| before it indexes; a
    negative state must not wrap around to state |Q|-1."""

    @pytest.fixture
    def table(self):
        return random_table(qt.simple_frame(2, 2), np.random.default_rng(5), density=1.0)

    @pytest.mark.parametrize("q, p", BAD_STATES)
    def test_amplitude(self, table, q, p):
        with pytest.raises(IndexError, match="state index"):
            qt.amplitude(table, q, 0, p, 0, 0)

    @pytest.mark.parametrize("q, p", BAD_STATES)
    def test_with_entry_leaves_table_unwritten(self, table, q, p):
        before = table.amplitudes.copy()
        with pytest.raises(IndexError, match="state index"):
            table.with_entry(q, 0, p, 0, 0, 0.25)
        assert np.array_equal(table.amplitudes, before)

    @pytest.mark.parametrize("q, p", BAD_STATES)
    def test_perturb_leaves_table_unwritten(self, table, q, p):
        before = table.amplitudes.copy()
        with pytest.raises(IndexError, match="state index"):
            qt.perturb(table, (q, 0, p, 0, 0), 0.1)
        assert np.array_equal(table.amplitudes, before)

    @pytest.mark.parametrize("q, p", BAD_STATES)
    def test_from_rules(self, table, q, p):
        with pytest.raises(IndexError, match="state index"):
            qt.TransitionTable.from_rules(table.frame, [(0, 0, 0, 0, 0, 1.0), (q, 0, p, 0, 0, 0.5)])

    @pytest.mark.parametrize("q, p", [(1.0, 0), (0, 0.5), ("1", 0), (0, None)])
    def test_non_integer_states_rejected(self, table, q, p):
        for access in (lambda: qt.amplitude(table, q, 0, p, 0, 0),
                       lambda: table.with_entry(q, 0, p, 0, 0, 0.25),
                       lambda: qt.perturb(table, (q, 0, p, 0, 0), 0.1),
                       lambda: qt.TransitionTable.from_rules(table.frame, [(q, 0, p, 0, 0, 0.5)])):
            with pytest.raises(ValueError, match="state indices must be integers"):
                access()

    def test_bool_state_is_an_index_not_a_mask(self, table):
        # numpy reads a bool in an index tuple as a mask: True used to write
        # the entries of a different read, False none at all
        one = table.with_entry(True, 0, False, 0, 0, 0.25)
        assert np.array_equal(one.amplitudes, table.with_entry(1, 0, 0, 0, 0, 0.25).amplitudes)
        assert qt.amplitude(one, True, 0, False, 0, 0) == 0.25

    def test_from_rules_checks_states_before_vectors(self, table):
        # a bad state and a non-integer symbol in one rule: the state is reported
        with pytest.raises(IndexError, match="state index"):
            qt.TransitionTable.from_rules(table.frame, [(2, (0.5,), 0, 0, 0, 1.0)])


class TestFromRulesDuplicates:
    def test_repeated_key_refused(self):
        frame = qt.simple_frame(1, 1)
        for rules in ([(0, 0, 0, 0, 0, 1.0), (0, 0, 0, 0, 0, 0.5)],
                      [(0, 0, 0, 0, 0, 1.0), (0, 0, 0, 0, 0, 1.0)],
                      [(0, 0, 0, 0, 1, 0.5), (0, 0, 0, 0, 0, 1.0), (0, (0,), 0, [0], (0,), 0.5)]):
            with pytest.raises(ValueError, match=rf"^rule {len(rules)}: duplicate rule key"):
                qt.TransitionTable.from_rules(frame, rules)

    def test_multitape_key_refused_and_distinct_keys_kept(self):
        frame = qt.simple_frame(2, 2, 1)
        rules = [(0, (1, 0), 1, (0, 0), (1, -1), 0.5), (0, (1, 0), 1, (0, 0), (1, 0), 0.5)]
        table = qt.TransitionTable.from_rules(frame, rules)
        assert len(table.nonzero_rules()) == 2
        with pytest.raises(ValueError, match="^rule 3: duplicate rule key"):
            qt.TransitionTable.from_rules(frame, rules + [rules[0]])


class TestOwnership:
    def test_callers_array_is_copied(self):
        frame = qt.simple_frame(1, 2)
        amps = np.zeros(frame.table_shape, dtype=np.complex128)
        sealed = amps.copy()
        sealed.flags.writeable = False
        # writeable, or a read-only view of another array
        tables = [qt.TransitionTable(frame, given) for given in (amps, amps[:], sealed[:])]
        amps[0, 0, 0, 0, 0] = 1.0
        for table in tables:
            assert not np.shares_memory(table.amplitudes, amps) and not np.shares_memory(table.amplitudes, sealed)
            assert not table.amplitudes.flags.writeable and not table.amplitudes.any()

    def test_parse_peak_is_one_table(self):
        """Parsing a Q1 S1000 document (a 45.8 MiB table) keeps one table
        array alive, not the parser's array and a copy of it."""
        doc = qt.serialize_machine(qt.TransitionTable.from_rules(qt.simple_frame(1, 1000), [(0, 0, 0, 0, 0, 1.0)]))
        tracemalloc.start()
        try:
            table = qt.parse_machine(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * table.amplitudes.nbytes


TABLE_FRAMES = [(2, 2), (1, 2, 3), (2, 2, 1, 2)]


@pytest.mark.parametrize("shape", TABLE_FRAMES, ids=["k1", "k2", "k3"])
def test_table_shape_is_the_amplitude_shape(shape):
    frame = qt.simple_frame(*shape)
    Q, S = frame.state_count, frame.symbol_block
    assert frame.table_shape == (Q, S, Q, S, 3 ** frame.tape_count)
    assert math.prod(frame.table_shape) == table_entries(frame)
    zero = (0,) * frame.tape_count
    tables = [
        qt.TransitionTable.zeros(frame),
        qt.TransitionTable.from_rules(frame, [(0, zero, 0, zero, zero, 1.0)]),
        qt.pair_unitary_machine(frame, np.eye(Q * S), [zero] * Q),
    ]
    tables.append(qt.parse_document(qt.serialize_machine(tables[1])).table)
    for table in tables:
        assert table.frame == frame and table.amplitudes.shape == frame.table_shape


class TestStatistics:
    def test_unit_rows_give_unit_k(self, counterexample):
        stats = qt.compute_statistics(counterexample)
        assert abs(stats.K - 1.0) < 1e-12
        assert np.allclose(stats.row_sums, 1.0, atol=1e-12)

    def test_zero_table(self):
        stats = qt.compute_statistics(qt.TransitionTable.zeros(qt.simple_frame(2, 2)))
        assert stats.K == 0.0

    def test_single_large_entry(self):
        frame = qt.simple_frame(1, 1)
        table = qt.TransitionTable.from_rules(frame, [(0, 0, 0, 0, 0, 2.0)])
        assert qt.compute_statistics(table).K == 2.0

    def test_k_matches_row_sums(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            table = random_table(qt.simple_frame(2, 2), rng)
            stats = qt.compute_statistics(table)
            assert abs(stats.K - math.sqrt(stats.row_sums.max())) < 1e-12

    def test_valid_tables_have_unit_k(self, corpus):
        for entry in corpus:
            if entry.expect_valid:
                assert abs(qt.compute_statistics(entry.table).K - 1.0) < 1e-12


class TestNormBound:
    def test_identity(self, identity_machine):
        stats = qt.compute_statistics(identity_machine)
        assert abs(qt.norm_bound(stats, identity_machine.frame) - math.sqrt(5)) < 1e-12

    def test_counterexample(self, counterexample):
        stats = qt.compute_statistics(counterexample)
        assert abs(qt.norm_bound(stats, counterexample.frame) - 2 * math.sqrt(5)) < 1e-12

    def test_zero(self):
        table = qt.TransitionTable.zeros(qt.simple_frame(2, 1))
        assert qt.norm_bound(qt.compute_statistics(table), table.frame) == 0.0

    def test_multitape_rejected(self):
        frame = qt.simple_frame(1, 1, 1)
        table = qt.TransitionTable.zeros(frame)
        with pytest.raises(ValueError):
            qt.norm_bound(qt.compute_statistics(table), frame)


class TestUnidirectional:
    def test_counterexample_is_not(self, counterexample):
        # state 0 is entered with both move -1 (never nonzero) ... with moves 0 and 1
        assert not qt.is_unidirectional(counterexample)

    def test_identity_is(self, identity_machine):
        assert qt.is_unidirectional(identity_machine)

    def test_pair_machines_are(self):
        rng = np.random.default_rng(9)
        frame = qt.simple_frame(3, 2)
        table = qt.pair_unitary_machine(
            frame, qt.random_unitary(6, rng), {0: -1, 1: 0, 2: 1}
        )
        assert qt.is_unidirectional(table)
