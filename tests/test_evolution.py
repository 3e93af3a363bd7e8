import gc
import math
import re
import warnings

import numpy as np
import pytest

import qturing as qt
from qturing import evolution

from conftest import naive_step, random_configuration, random_table
from reference_frame import matrix_element
from reference_oracle import reference_inner, reference_scaled


def blank(table, state=0):
    return qt.blank_configuration(table.frame, state)


def random_superposition(frame, rng, terms=3, span=2):
    configs = set()
    while len(configs) < terms:
        configs.add(random_configuration(frame, rng, span=span))
    amps = rng.standard_normal(len(configs)) + 1j * rng.standard_normal(len(configs))
    amps /= np.linalg.norm(amps)
    return qt.Superposition({c: a for c, a in zip(sorted(configs, key=lambda c: c.sort_key()), amps)})


class TestApply:
    def test_counterexample_single_step(self, counterexample):
        out = qt.apply(counterexample, qt.Superposition.basis(blank(counterexample)))
        tape = qt.Tape(0)
        expected = {
            qt.Configuration(0, (tape,), (0,)): 0.5,
            qt.Configuration(0, (tape,), (1,)): -0.5,
            qt.Configuration(1, (tape,), (-1,)): 0.5,
            qt.Configuration(1, (tape,), (0,)): 0.5,
        }
        assert dict(out.items()) == expected

    def test_identity_machine(self, identity_machine):
        rng = np.random.default_rng(20)
        psi = random_superposition(identity_machine.frame, rng)
        assert qt.apply(identity_machine, psi) == psi

    def test_norm_preserved_by_valid_tables(self, corpus):
        rng = np.random.default_rng(21)
        for entry in corpus[:12]:
            if not entry.expect_valid:
                continue
            psi = random_superposition(entry.table.frame, rng)
            assert abs(qt.apply(entry.table, psi).norm() - psi.norm()) < 1e-9

    def test_matches_naive_expansion(self):
        rng = np.random.default_rng(22)
        for frame in (qt.simple_frame(2, 2), qt.simple_frame(2, 2, 2)):
            table = random_table(frame, rng, density=0.5)
            psi = random_superposition(frame, rng)
            fast = qt.apply(table, psi)
            slow = naive_step(table, dict(psi.items()))
            assert set(slow) == {c for c, _ in fast.items()}
            for c, amp in slow.items():
                assert abs(fast.amplitude(c) - amp) < 1e-13

    def test_linearity(self):
        rng = np.random.default_rng(23)
        table = random_table(qt.simple_frame(2, 2), rng)
        a, b = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
        psi = random_superposition(table.frame, rng)
        phi = random_superposition(table.frame, rng)
        left = qt.apply(table, reference_scaled(psi, a).plus(reference_scaled(phi, b)))
        right = reference_scaled(qt.apply(table, psi), a).plus(reference_scaled(qt.apply(table, phi), b))
        assert left.distance(right) < 1e-12

    @pytest.mark.parametrize("tape, message", [
        (qt.Tape(1), "superposition does not match the table's frame"),  # blank 1, the frame's is 0
        (qt.Tape(0, ((3, 2),)), "tape-1 symbol out of range 0..1"),
        # several faults: the frame mismatch comes first, then positions, then symbols
        (qt.Tape(1, ((3, 2),)), "superposition does not match the table's frame"),
        (qt.Tape(0, ((2 ** 62 + 1, 2),)), "configuration positions must lie within -2**62..2**62"),
    ])
    def test_foreign_tapes_refused(self, tape, message):
        table = qt.TransitionTable.zeros(qt.simple_frame(1, 2))
        psi = qt.Superposition.basis(qt.Configuration(0, (tape,), (0,)))
        for step in (qt.apply, qt.apply_adjoint):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                step(table, psi)

    @pytest.mark.parametrize("tapes, message", [
        ((qt.Tape(0, ((3, 5),)), qt.Tape(1)), "superposition does not match the table's frame"),
        ((qt.Tape(0, ((1, 4),)), qt.Tape(0, ((-2, 3),))), "tape-1 symbol out of range 0..1"),
        ((qt.Tape(0, ((0, 2),)), qt.Tape(0, ((-2 ** 62 - 1, 1),))),
         "configuration positions must lie within -2**62..2**62"),
    ], ids=["blank and symbol", "symbols on tapes 2 and 1", "position and symbol"])
    def test_foreign_two_tape_terms_refused(self, tapes, message):
        table = qt.TransitionTable.zeros(qt.simple_frame(1, 2, 3))
        psi = qt.Superposition.basis(qt.Configuration(0, tapes, (0, 0)))
        for step in (qt.apply, qt.apply_adjoint):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                step(table, psi)

    def test_finite_fan_out(self):
        rng = np.random.default_rng(24)
        for frame in (qt.simple_frame(3, 2), qt.simple_frame(2, 2, 2)):
            table = random_table(frame, rng, density=1.0)
            out = qt.apply(table, qt.Superposition.basis(qt.blank_configuration(frame)))
            bound = frame.state_count * frame.symbol_block * frame.move_block
            assert len(out) <= bound


class TestAdjoint:
    def test_counterexample_adjoint_expansion(self, counterexample):
        out = qt.apply_adjoint(counterexample, qt.Superposition.basis(blank(counterexample)))
        tape = qt.Tape(0)
        expected = {
            qt.Configuration(0, (tape,), (0,)): 0.5,
            qt.Configuration(1, (tape,), (0,)): 0.5,
            qt.Configuration(0, (tape,), (-1,)): -0.5,
            qt.Configuration(1, (tape,), (-1,)): 0.5,
        }
        assert dict(out.items()) == expected

    def test_identity_machine(self, identity_machine):
        rng = np.random.default_rng(25)
        psi = random_superposition(identity_machine.frame, rng)
        assert qt.apply_adjoint(identity_machine, psi) == psi

    def test_round_trip_on_valid_tables(self, corpus):
        rng = np.random.default_rng(26)
        for entry in corpus[:12]:
            if not entry.expect_valid:
                continue
            psi = random_superposition(entry.table.frame, rng)
            back = qt.apply_adjoint(entry.table, qt.apply(entry.table, psi))
            assert back.distance(psi) < 1e-9

    def test_adjointness_identity(self):
        rng = np.random.default_rng(27)
        table = random_table(qt.simple_frame(2, 3), rng)
        psi = random_superposition(table.frame, rng, terms=4)
        phi = random_superposition(table.frame, rng, terms=4)
        lhs = reference_inner(phi, qt.apply(table, psi))
        rhs = reference_inner(qt.apply_adjoint(table, phi), psi)
        assert abs(lhs - rhs) < 1e-12

    def test_multitape_identity_adjoint_fixes_basis_state(self):
        frame = qt.simple_frame(1, 1, 1)
        table = qt.TransitionTable.from_rules(frame, [(0, (0, 0), 0, (0, 0), (0, 0), 1.0)])
        psi = qt.Superposition.basis(qt.blank_configuration(frame))
        assert qt.apply_adjoint(table, psi) == psi

    def test_multitape_adjointness(self):
        rng = np.random.default_rng(28)
        frame = qt.simple_frame(2, 2, 2)
        table = random_table(frame, rng, density=0.4)
        psi = random_superposition(frame, rng, span=1)
        phi = random_superposition(frame, rng, span=1)
        lhs = reference_inner(phi, qt.apply(table, psi))
        rhs = reference_inner(qt.apply_adjoint(table, phi), psi)
        assert abs(lhs - rhs) < 1e-12

    def test_two_tape_round_trips(self, two_tape_corpus):
        # M^dagger M = M M^dagger = I for every valid table, on any tape count
        rng = np.random.default_rng(36)
        for entry in two_tape_corpus:
            if not entry.expect_valid:
                continue
            psi = random_superposition(entry.table.frame, rng, terms=4, span=1)
            there = qt.apply(entry.table, psi)
            assert qt.apply_adjoint(entry.table, there).distance(psi) < 1e-12, entry.label
            back = qt.apply_adjoint(entry.table, psi)
            assert qt.apply(entry.table, back).distance(psi) < 1e-12, entry.label


class TestMatrixElement:
    def test_counterexample_entry(self, counterexample):
        tape = qt.Tape(0)
        c = qt.Configuration(0, (tape,), (0,))
        c2 = qt.Configuration(1, (tape,), (-1,))
        assert matrix_element(counterexample, c, c2) == 0.5

    def test_distant_heads_give_zero(self, counterexample):
        tape = qt.Tape(0)
        c = qt.Configuration(0, (tape,), (0,))
        c2 = qt.Configuration(0, (tape,), (2,))
        assert matrix_element(counterexample, c, c2) == 0j

    def test_matches_apply_coefficient(self):
        rng = np.random.default_rng(29)
        table = random_table(qt.simple_frame(2, 2), rng, density=0.8)
        hits = 0
        for _ in range(1000):
            c = random_configuration(table.frame, rng, span=2)
            image = qt.apply(table, qt.Superposition.basis(c))
            if rng.random() < 0.5 and len(image) > 0:
                c2 = image.configurations()[int(rng.integers(len(image)))]
                hits += 1
            else:
                c2 = random_configuration(table.frame, rng, span=2)
            assert abs(matrix_element(table, c, c2) - image.amplitude(c2)) <= 1e-15
        assert hits > 200

    def test_matches_apply_coefficient_two_tapes(self):
        rng = np.random.default_rng(34)
        table = random_table(qt.simple_frame(2, 2, 2), rng, density=0.6)
        for _ in range(300):
            c = random_configuration(table.frame, rng, span=1)
            image = qt.apply(table, qt.Superposition.basis(c))
            if rng.random() < 0.6 and len(image) > 0:
                c2 = image.configurations()[int(rng.integers(len(image)))]
            else:
                c2 = random_configuration(table.frame, rng, span=1)
            assert abs(matrix_element(table, c, c2) - image.amplitude(c2)) <= 1e-15


def test_norm_sums_the_squares_left_to_right():
    """Five squares, 1 and then 2**-53 four times (each 2**-54 + 2**-54 from
    a term (1 + 1j) 2**-27): a plain left-to-right float sum rounds each
    small term away and gives 1.0, where a compensated sum (the built-in
    `sum` from Python 3.12 on) gives 1 + 2**-51.  The norm is the plain
    sum on every Python version."""
    amps = np.array([1.0] + [(1 + 1j) * 2.0 ** -27] * 4)
    squares = amps.real * amps.real + amps.imag * amps.imag
    assert squares.tolist() == [1.0] + [2.0 ** -53] * 4
    total = 0.0
    for square in squares.tolist():
        total += square
    assert total == 1.0
    assert evolution._norm(amps) == math.sqrt(total) == 1.0
    assert evolution._norm(amps[:0]) == 0.0


class TestAmplitudeContract:
    @pytest.mark.parametrize("amp", [
        math.nan, math.inf, -math.inf, complex(1, math.nan), complex(math.inf, 0), np.float64(math.nan),
        np.complex128(complex(0, math.inf)), 10 ** 400, "1", True, False, np.True_, [1.0], None, np.array(1.0),
    ], ids=["nan", "inf", "-inf", "nan-imag", "inf-real", "numpy-nan", "numpy-inf-imag", "int-past-float",
            "str", "True", "False", "numpy-True", "list", "None", "0-d-array"])
    def test_a_non_number_or_non_finite_amplitude_is_refused(self, counterexample, amp):
        """A NaN amplitude was dropped as if pruned, an infinite one kept,
        and "1" or True taken as 1+0j; each is refused, named."""
        config = blank(counterexample)
        with pytest.raises(ValueError, match=f"^amplitude must be a finite number, got {re.escape(repr(amp))}$"):
            qt.Superposition({config: amp})
        with pytest.raises(ValueError, match="^amplitude must be a finite number"):
            qt.Superposition.basis(config, amp)

    @pytest.mark.parametrize("amp", [1, 0.5, 1j, np.float32(0.5), np.int64(2), np.complex64(1j), 10 ** 300])
    def test_python_and_numpy_numbers_are_amplitudes(self, counterexample, amp):
        config = blank(counterexample)
        assert qt.Superposition({config: amp}).amplitude(config) == complex(amp)

    def test_a_sum_that_overflows_is_refused(self, counterexample):
        config = blank(counterexample)
        with pytest.raises(ValueError, match=r"^amplitude must be a finite number, got \(inf\+0j\)$"):
            qt.Superposition([(config, 1e308), (config, 1e308)])
        big = qt.Superposition.basis(config, 1e308)
        with pytest.raises(ValueError, match=r"^amplitude must be a finite number, got \(inf\+0j\)$"):
            big.plus(big)
        assert big.plus(qt.Superposition.basis(config, -1e308)) == qt.Superposition()


class TestRun:
    def test_zero_steps(self, counterexample):
        psi = qt.Superposition.basis(blank(counterexample))
        result = qt.run(counterexample, psi, 0)
        assert result.final == psi
        assert result.norms == (1.0,)

    def test_identity_seven_steps(self, identity_machine):
        psi = qt.Superposition.basis(blank(identity_machine))
        result = qt.run(identity_machine, psi, 7)
        assert result.final == psi
        assert result.norms == (1.0,) * 8

    def test_two_steps_match_naive_oracle(self, counterexample):
        psi = qt.Superposition.basis(blank(counterexample))
        result = qt.run(counterexample, psi, 2)
        slow = naive_step(counterexample, naive_step(counterexample, {blank(counterexample): 1.0}))
        assert {c for c, _ in result.final.items()} == set(slow)
        for c, amp in slow.items():
            assert abs(result.final.amplitude(c) - amp) < 1e-14

    def test_invalid_table_rejected_unless_unchecked(self):
        table = qt.TransitionTable.zeros(qt.simple_frame(1, 1))
        psi = qt.Superposition.basis(qt.blank_configuration(table.frame))
        with pytest.raises(ValueError):
            qt.run(table, psi, 1)
        result = qt.run(table, psi, 1, unchecked=True)
        assert len(result.final) == 0
        assert result.norms == (1.0, 0.0)

    def test_negative_steps_rejected(self, identity_machine):
        with pytest.raises(ValueError):
            qt.run(identity_machine, qt.Superposition.basis(blank(identity_machine)), -1)

    @pytest.mark.parametrize("steps", [True, False, 2.0, 1.5, np.float64(1.0), "2", None], ids=repr)
    def test_step_count_must_be_a_nonnegative_integer(self, identity_machine, steps):
        psi = qt.Superposition.basis(blank(identity_machine))
        with pytest.raises(ValueError, match="^steps must be a nonnegative integer, got "):
            qt.run(identity_machine, psi, steps)

    def test_numpy_step_count_is_accepted(self, counterexample):
        psi = qt.Superposition.basis(blank(counterexample))
        assert qt.run(counterexample, psi, np.int64(2)) == qt.run(counterexample, psi, 2)

    def test_stops_at_the_first_non_finite_norm(self, counterexample):
        """Amplitudes inside the 2**100 bound still overflow over a chain:
        norm[6] would be inf.  The run stops there, without numpy warnings."""
        big = counterexample.with_entry(0, 0, 0, 0, 0, 2.0 ** 99 * (1 + 1j))
        psi = qt.Superposition.basis(blank(big))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(qt.run(big, psi, 5, unchecked=True).norms[-1])
            with pytest.raises(ValueError, match=r"^the norm is not finite after step 6: "):
                qt.run(big, psi, 12, unchecked=True)
            with pytest.raises(ValueError, match=r"after step 0: "):
                qt.run(counterexample, qt.Superposition.basis(blank(counterexample), 1e200), 3)

    def test_a_step_above_the_symbol_bound_is_refused(self, monkeypatch, sixfold):
        """The step whose entries x tapes x columns exceed the bound stops the
        run before it allocates, naming its counts."""
        psi = qt.Superposition.basis(blank(sixfold))
        before = qt.run(sixfold, psi, 4)
        assert before.terms == (1, 6, 36, 216, 1296)
        entries, columns = 6 * before.terms[-1], before.width[-1]
        monkeypatch.setattr(evolution, "MAX_STEP_SYMBOLS", entries * 2 * columns)
        assert qt.run(sixfold, psi, 5).terms[-1] == entries
        monkeypatch.setattr(evolution, "MAX_STEP_SYMBOLS", entries * 2 * columns - 1)
        assert qt.run(sixfold, psi, 4).terms == before.terms
        with pytest.raises(ValueError, match=f"^a step of {entries} entries on {columns} columns per tape exceeds "
                                             f"the {entries * 2 * columns - 1} packed symbols a step may hold$"):
            qt.run(sixfold, psi, 12)
        # unpatched, a step packs at least 2 * RUN_MARGIN + 1 columns, so the
        # ninth step of this chain is refused whatever its width
        monkeypatch.undo()
        assert 6 ** 9 * 2 * (2 * evolution.RUN_MARGIN + 1) > evolution.MAX_STEP_SYMBOLS


class TestEstimateNorm:
    def test_identity(self, identity_machine):
        assert abs(qt.estimate_norm(identity_machine, 3, 50) - 1.0) < 1e-9

    def test_counterexample_unit_norm_and_bound(self, counterexample):
        est = qt.estimate_norm(counterexample, 3, 200)
        bound = qt.norm_bound(qt.compute_statistics(counterexample), counterexample.frame)
        assert est <= bound + 1e-9
        assert abs(est - 1.0) < 1e-6

    def test_zero_table(self):
        table = qt.TransitionTable.zeros(qt.simple_frame(2, 1))
        assert qt.estimate_norm(table, 3, 50) == 0.0

    def test_never_exceeds_bound(self):
        rng = np.random.default_rng(30)
        for i in range(25):
            frame = qt.simple_frame(int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            table = random_table(frame, rng, density=0.7)
            bound = qt.norm_bound(qt.compute_statistics(table), frame)
            assert qt.estimate_norm(table, 2, 60, seed=i) <= bound + 1e-9

    def test_nondecreasing_in_radius(self, counterexample):
        table = qt.perturb(counterexample, (0, 0, 0, 0, 0), 0.3)
        estimates = [qt.estimate_norm(table, r, 150) for r in (1, 2, 3)]
        assert estimates[0] <= estimates[1] + 1e-9 <= estimates[2] + 2e-9

    def test_valid_two_tape_table_estimates_one(self):
        rng = np.random.default_rng(35)
        frame = qt.simple_frame(2, 2, 1)
        table = qt.pair_unitary_machine(frame, qt.random_unitary(4, rng), [(1, 0), (-1, 1)])
        assert qt.check_auto(table).passed
        assert abs(qt.estimate_norm(table, 2, 50) - 1.0) < 1e-9


@pytest.mark.parametrize("enabled", [True, False])
def test_decoding_pauses_the_collector_and_restores_its_state(counterexample, collector, monkeypatch, enabled):
    """The collector is off while packed terms are decoded into
    configurations, and afterwards it is as the caller left it."""
    final = qt.run(counterexample, qt.Superposition.basis(blank(counterexample)), 3).final
    seen = []
    tape = evolution._tape_unchecked
    monkeypatch.setattr(evolution, "_tape_unchecked", lambda *args: seen.append(gc.isenabled()) or tape(*args))
    collector(enabled)
    assert len(final.items()) == len(final)
    assert seen and not any(seen)
    assert gc.isenabled() is enabled


class TestSuperposition:
    def test_pruning(self):
        c = qt.blank_configuration(qt.simple_frame(1, 1))
        psi = qt.Superposition({c: 1e-16})
        assert len(psi) == 0
        assert qt.Superposition({c: 1e-14}).amplitude(c) == 1e-14

    def test_accumulation_from_pairs(self):
        c = qt.blank_configuration(qt.simple_frame(1, 1))
        psi = qt.Superposition([(c, 0.5), (c, -0.5)])
        assert len(psi) == 0

    def test_norm_and_inner(self):
        frame = qt.simple_frame(2, 1)
        a = qt.blank_configuration(frame, 0)
        b = qt.blank_configuration(frame, 1)
        psi = qt.Superposition({a: 3 / 5, b: 4j / 5})
        assert abs(psi.norm() - 1.0) < 1e-15
        phi = qt.Superposition({a: 1.0})
        assert reference_inner(psi, phi) == 3 / 5  # conjugation on the left argument
        assert reference_inner(phi, psi) == 3 / 5
        psi_i = qt.Superposition({a: 1j})
        assert reference_inner(psi_i, phi) == -1j
