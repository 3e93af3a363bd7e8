import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qturing as qt
from qturing import oracle
from qturing.ktape import displacement_label
from qturing.oracle import _column_norms, _gram_blocks, _gram_residuals
from qturing.windows import window_size

from conftest import random_configuration, random_table
from reference_frame import ConfigurationWindow, locally_like
from reference_oracle import (
    by_image,
    column_pairs,
    gram_columns,
    gram_rows,
    is_unidirectional,
    reference_gram_product,
    reference_gram_residuals,
    row_pairs,
)


class TestWindows:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("d", [-1, 0, 1])
    @pytest.mark.parametrize("shape", [(1, 2), (2, 2), (3, 1)])
    def test_cardinality_law(self, n, d, shape):
        frame = qt.simple_frame(*shape)
        window = ConfigurationWindow(frame, n, d)
        configs = window.configurations()
        states, symbols = shape
        assert len(configs) == (n + 2 * d) * states * symbols ** n
        assert len(set(configs)) == len(configs)
        assert window.expected_cardinality() == len(configs)

    def test_head_range(self):
        frame = qt.simple_frame(1, 1)
        window = ConfigurationWindow(frame, 3, 1)
        assert list(window.head_range) == [0, 1, 2, 3, 4]
        with pytest.raises(ValueError):
            ConfigurationWindow(frame, 1, -1)

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


def _bits(values: np.ndarray) -> np.ndarray:
    """The bits of complex values, with a zero imaginary part read as +0."""
    return np.stack([values.real, values.imag + 0.0]).view(np.uint64)


def _random_coo(n: int, sizes: list[int], seed: int, exact: bool):
    """A COO matrix with n columns and one row (image) per entry of `sizes`,
    reaching that many distinct columns, listed column by column with each
    column's rows in a random order.  Exact values are small Gaussian
    integers, so equal moduli, and ties for the largest, are common."""
    rng = np.random.default_rng(seed)
    members = [rng.choice(n, size=min(size, n), replace=False) for size in sizes]
    cols = np.concatenate(members)
    rows = np.repeat(rng.permutation(len(sizes)), [len(m) for m in members])
    shuffle = rng.permutation(cols.size)
    by_column = np.argsort(cols[shuffle], kind="stable")
    cols, rows = cols[shuffle][by_column], rows[shuffle][by_column]
    if exact:
        vals = rng.integers(-2, 3, cols.size) + 1j * rng.integers(-2, 3, cols.size)
    else:
        vals = rng.standard_normal(cols.size) + 1j * rng.standard_normal(cols.size)
    return rows, cols, vals.astype(np.complex128)


def _strict_blocks(rows, cols, vals, n: int):
    """`_gram_blocks` of a COO matrix, and the column norms of its entries."""
    grouped = by_image(rows, cols, vals)
    return list(_gram_blocks(*grouped, n)), _column_norms(*grouped[:2], n)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(n=st.integers(1, 300), sizes=st.lists(st.integers(1, 300), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1), exact=st.booleans())
@example(n=257, sizes=[1, 256, 200, 2], seed=3, exact=True)
@example(n=300, sizes=[300, 299], seed=4, exact=False)
@example(n=9, sizes=[3, 2], seed=5, exact=True)  # at least four columns without an entry
@example(n=4, sizes=[1, 1, 1], seed=6, exact=False)  # images of one entry: no strict pair
def test_upper_half_gram_product_mirrors_the_whole(n, sizes, seed, exact):
    """The column norms on the diagonal and the strict upper half, mirrored,
    are the whole product in keys and in sum bits; a column without entries
    has norm 0 and no key.  Folded block by block, they give the whole
    product's diagonal residual bits, its largest off-diagonal modulus, its
    first tie for it and its pair count, each off-diagonal key counted twice."""
    rows, cols, vals = _random_coo(n, sizes, seed, exact)
    blocks, norms = _strict_blocks(rows, cols, vals, n)
    keys = np.concatenate([np.zeros(0, dtype=np.intp)] + [k for k, _ in blocks])
    sums = np.concatenate([np.zeros(0, dtype=np.complex128)] + [v for _, v in blocks])
    whole_keys, whole_sums = reference_gram_product(rows, cols, vals, n)
    i, j = np.divmod(keys, n)
    assert np.all(i < j)
    assert blocks or max(sizes) == 1 or n == 1
    reached = np.unique(cols)
    assert not np.any(norms[np.setdiff1d(np.arange(n), reached)])
    mirrored_keys = np.concatenate([reached * (n + 1), keys, j * n + i])
    mirrored = np.concatenate([norms[reached] + 0j, sums, sums.conj()])
    order = np.argsort(mirrored_keys)
    assert np.array_equal(mirrored_keys[order], whole_keys)
    assert np.array_equal(_bits(mirrored[order]), _bits(whole_sums))

    largest, tie, pairs = 0.0, None, 0
    for block in blocks:
        largest, tie, pairs = _gram_residuals(*block, n, largest, tie, pairs)
    ref_diag, ref_largest, ref_tie, ref_pairs = reference_gram_residuals(whole_keys, whole_sums, n)
    assert np.array_equal(np.abs(norms - 1.0).view(np.uint64), ref_diag.view(np.uint64))
    assert largest.hex() == ref_largest.hex()
    assert tie == ref_tie
    assert pairs == ref_pairs == 2 * keys.size
    assert pairs % 2 == 0


@pytest.mark.parametrize("budget", [1, 300, oracle._GRAM_BLOCK_PAIRS])
def test_images_of_one_entry_make_no_block(monkeypatch, budget):
    """Without a strict pair there is no block at any budget, and the
    diagonal alone is the product."""
    monkeypatch.setattr(oracle, "_GRAM_BLOCK_PAIRS", budget)
    rows, cols, vals = _random_coo(5, [1] * 8, 7, exact=False)
    blocks, norms = _strict_blocks(rows, cols, vals, 5)
    assert blocks == []
    whole_keys, whole_sums = reference_gram_product(rows, cols, vals, 5)
    assert np.array_equal(whole_keys, np.unique(cols) * 6)
    assert np.array_equal(_bits(norms[np.unique(cols)] + 0j), _bits(whole_sums))


@pytest.mark.parametrize("name", ["corpus", "two_tape_corpus", "three_tape_corpus", "many_tape_corpus"])
def test_gram_residuals_equal_the_condition_residuals(request, name):
    """On the r=1 window, which realizes every head displacement, the Gram
    entries are the condition sums: the largest column Gram residual is
    `check_auto`'s, and on one tape the largest row Gram residual is
    `check_row`'s, to rounding."""
    for entry in request.getfixturevalue(name):
        pairs = [(qt.column_gram_check(entry.table, 1), qt.check_auto(entry.table))]
        if entry.table.frame.tape_count == 1:
            pairs.append((qt.row_gram_check(entry.table, 1), qt.check_row(entry.table)))
        for gram, report in pairs:
            assert abs(gram.residual - report.max_residual) <= 1e-12 * max(1.0, gram.residual), \
                (entry.label, gram.side, gram.residual, report.max_residual)


# The drawn tables' entries on the r=1 window at density 1, at most: a
# denser draw on a larger frame is thinned to this, so no draw takes long.
DRAWN_GRAM_ENTRIES = 20_000


@st.composite
def drawn_tables(draw) -> qt.TransitionTable:
    """A random table on one to four tapes of one or two symbols (up to
    three on one tape), one-symbol tapes included, so windows of no cell
    column are drawn too; sparse or dense, but at most about
    DRAWN_GRAM_ENTRIES window entries."""
    tapes = draw(st.integers(1, 4))
    symbols = draw(st.lists(st.integers(1, 3 if tapes == 1 else 2), min_size=tapes, max_size=tapes))
    frame = qt.simple_frame(draw(st.integers(1, 3 if tapes == 1 else 2)), *symbols)
    full = window_size(frame, 1) * frame.state_count * frame.symbol_block * frame.move_block
    density = min(draw(st.sampled_from([0.1, 0.3, 1.0])), DRAWN_GRAM_ENTRIES / full)
    return random_table(frame, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), density)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(table=drawn_tables())
def test_drawn_gram_residuals_equal_the_condition_residuals(table):
    """The r=1 criterion of the corpora on drawn tables: the largest column
    Gram residual is `check_auto`'s and, on one tape, the largest row Gram
    residual is `check_row`'s, within 1e-12 x max(1, residual)."""
    pairs = [(qt.column_gram_check(table, 1), qt.check_auto(table))]
    if table.frame.tape_count == 1:
        pairs.append((qt.row_gram_check(table, 1), qt.check_row(table)))
    for gram, report in pairs:
        assert abs(gram.residual - report.max_residual) <= 1e-12 * max(1.0, gram.residual), \
            (gram.side, gram.residual, report.max_residual)


@pytest.mark.parametrize("name", ["corpus", "two_tape_corpus", "three_tape_corpus", "many_tape_corpus"])
def test_gram_witness_names_the_condition_of_its_residual(request, name):
    """On the r=1 window the column Gram witness pair's head displacement
    +-D names a catalog condition (for D = 0 the normalization half on the
    diagonal and the orthogonality half off it), and that condition's
    `check_auto` residual is the Gram residual, to rounding: a witness
    that named the wrong condition would fail where the residuals agree."""
    named = set()
    for entry in request.getfixturevalue(name):
        gram, report = qt.column_gram_check(entry.table, 1), qt.check_auto(entry.table)
        first, second = gram.witness
        shift = tuple(b - a for a, b in zip(first.heads, second.heads))
        if any(shift) and next(d for d in shift if d) < 0:
            shift = tuple(-d for d in shift)
        part = None if any(shift) else ("norm" if first == second else "orth")
        label = displacement_label(shift, part)
        residual = report.residual_for(label).residual
        assert abs(gram.residual - residual) <= 1e-12 * max(1.0, gram.residual), \
            (entry.label, label, gram.residual, residual)
        named.add(label)
    assert len(named) > 1


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
            assert locally_like(c, c2)
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
            assert is_unidirectional(table)

    def test_rejects_non_unitary(self):
        frame = qt.simple_frame(2, 1)
        with pytest.raises(ValueError):
            qt.pair_unitary_machine(frame, np.ones((2, 2)), [0, 0])
        with pytest.raises(ValueError):
            qt.pair_unitary_machine(frame, np.eye(3), [0, 0])
        with pytest.raises(ValueError):
            qt.pair_unitary_machine(frame, np.eye(2), [0, 2])

    def test_scalar_moves_equal_length_one_vectors(self):
        frame = qt.simple_frame(2, 2)
        unitary = qt.random_unitary(4, np.random.default_rng(33))
        scalar = qt.pair_unitary_machine(frame, unitary, [1, -1])
        assert np.array_equal(scalar.amplitudes, qt.pair_unitary_machine(frame, unitary, [(1,), (-1,)]).amplitudes)
        assert np.array_equal(scalar.amplitudes, qt.pair_unitary_machine(frame, unitary, {1: -1, 0: 1}).amplitudes)

    def test_two_tape_move_vectors(self):
        frame = qt.simple_frame(2, 2, 1)
        table = qt.pair_unitary_machine(frame, qt.random_unitary(4, np.random.default_rng(34)), [(1, 0), (-1, 1)])
        entered = np.abs(table.amplitudes).sum(axis=(0, 1, 3))
        assert set(zip(*np.nonzero(entered))) == {(0, frame.move_flat((1, 0))), (1, frame.move_flat((-1, 1)))}
        assert qt.check_auto(table).passed and is_unidirectional(table)
        assert qt.column_gram_check(table, radius=2).passed and qt.row_gram_check(table, radius=2).passed

    @pytest.mark.parametrize("directions", [
        [1, 0], [(1, 0), (0,)], [(1, 0), (0, 0, 0)], [(1, 0), (2, 0)], [(1, 0), (0.5, 0)], [(1, 0), "ab"],
        {0: (1, 0)},
    ])
    def test_rejects_bad_move_vectors(self, directions):
        with pytest.raises(ValueError):
            qt.pair_unitary_machine(qt.simple_frame(2, 2, 1), np.eye(4), directions)


class TestPerturb:
    def test_identity_perturbation_residual(self, identity_machine):
        table = qt.perturb(identity_machine, (0, 0, 0, 0, 0), 0.1)
        report = qt.check_column(table)
        assert abs(report.residual_for("a").residual - 0.21) < 1e-12

    def test_zero_epsilon_rejected(self, identity_machine):
        with pytest.raises(ValueError):
            qt.perturb(identity_machine, (0, 0, 0, 0, 0), 0.0)

    @pytest.mark.parametrize("epsilon", [-0.0, True, np.bool_(True), math.nan, -math.inf, "0.1", 0.1j, None])
    def test_bad_epsilon_rejected(self, identity_machine, epsilon):
        message = f"epsilon must be a nonzero finite real number, got {epsilon!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            qt.perturb(identity_machine, (0, 0, 0, 0, 0), epsilon)

    def test_numpy_and_negative_epsilons_shift_the_amplitude(self, identity_machine):
        for epsilon in (np.float32(0.25), np.float64(-0.5), -2, np.int8(1)):
            table = qt.perturb(identity_machine, (0, 0, 0, 0, 0), epsilon)
            assert qt.amplitude(table, 0, 0, 0, 0, 0) == qt.amplitude(identity_machine, 0, 0, 0, 0, 0) + float(epsilon)

    def test_perturbed_fails_gram_identity(self, corpus):
        for entry in corpus[:16]:
            check = qt.column_gram_check(entry.table, radius=3)
            assert check.passed == entry.expect_valid


class TestCorpus:
    def test_sizes_and_split(self, corpus):
        assert len(corpus) == 100
        assert sum(e.expect_valid for e in corpus) == 50

    @pytest.mark.parametrize("counts", [(True, 1), (1, False), (1.0, 1), (2, 2.0), ("2", 1),
                                        (-1, 0), (1, -1), (0, 1)])
    def test_bad_counts_rejected(self, counts):
        with pytest.raises(ValueError):
            qt.build_corpus(*counts)

    @pytest.mark.parametrize("seed", [True, False, 1.0, "7", None, -1, np.int64(-2)])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be a nonnegative integer, got {re.escape(repr(seed))}$"):
            qt.build_corpus(1, 1, seed=seed)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint8(1), np.int32(42)])
    def test_numpy_seeds_keep_their_corpora(self, seed):
        for a, b in zip(qt.build_corpus(6, 6, seed=seed), qt.build_corpus(6, 6, seed=int(seed))):
            assert a.label == b.label and a.expect_valid == b.expect_valid
            assert a.table.amplitudes.tobytes() == b.table.amplitudes.tobytes()

    def test_numpy_and_zero_counts(self):
        assert qt.build_corpus(0, 0) == []
        assert [e.expect_valid for e in qt.build_corpus(np.int64(2), np.uint8(1))] == [True, True, False]

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
