"""The step-operator kernel against a dense matrix built from `matrix_element`,
the column norms and the strict upper-half numpy Gram product against dense
A^H A, and `apply`/`apply_adjoint` against the per-term dict loops they
replaced."""
import numpy as np
import pytest

import qturing as qt
from qturing.cli import bundled_machine_path, main
from qturing.oracle import _column_norms, _gram_blocks

from conftest import random_table
from reference_frame import alpha, beta, matrix_element
from reference_oracle import by_image, reference_adjoint, reference_apply, rules_for


def _frame_window(shape, radius, stride, seed):
    frame = qt.simple_frame(*shape)
    table = random_table(frame, np.random.default_rng(seed), density=0.6)
    return table, qt.radius_window(frame, radius)[::stride]


# Q2S2 on one tape (whole r=2 window) and Q1 S(2,2) on two tapes (every
# third configuration of the r=1 window, to keep the dense builds small).
CASES = {
    "Q2S2 r1": ((2, 2), 1, 1),
    "Q2S2 r2": ((2, 2), 2, 1),
    "Q1S22 r1": ((1, 2, 2), 1, 3),
}


@pytest.fixture(params=sorted(CASES), scope="module")
def case(request):
    """(table, window, forward dense, adjoint dense) for one frame."""
    shape, radius, stride = CASES[request.param]
    table, window = _frame_window(shape, radius, stride, seed=len(request.param) + radius)
    return table, window, _forward_dense(table, window), _adjoint_dense(table, window)


def _successors(frame, config):
    """Every configuration one (p, tau, d) step away, found without the table."""
    return {
        alpha(frame, p, tau, d, config)
        for p in range(frame.state_count)
        for tau in frame.symbol_vectors()
        for d in frame.move_vectors()
    }


def _predecessors(frame, config):
    return {
        beta(frame, q, sigma, d, config)
        for q in range(frame.state_count)
        for sigma in frame.symbol_vectors()
        for d in frame.move_vectors()
    }


def _dense(table, sources, targets):
    """M[t, s] = <t|M|s> over the given configurations."""
    by_heads: dict = {}
    for k, t in enumerate(targets):
        by_heads.setdefault(t.heads, []).append(k)
    out = np.zeros((len(targets), len(sources)), dtype=np.complex128)
    for j, s in enumerate(sources):
        for d in table.frame.move_vectors():
            heads = tuple(h + x for h, x in zip(s.heads, d))
            for k in by_heads.get(heads, ()):
                out[k, j] = matrix_element(table, s, targets[k])
    return out


def _scatter(rows, cols, vals, images, index, width):
    assert rows.dtype == np.intp and cols.dtype == np.intp and vals.dtype == np.complex128
    assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
    out = np.zeros((len(index), width), dtype=np.complex128)
    out[[index[images[r]] for r in rows], cols] = vals
    return out


def _ordered_union(first, extra):
    seen = dict.fromkeys(first)
    seen.update(dict.fromkeys(sorted(extra - set(seen), key=qt.Configuration.sort_key)))
    return list(seen)


def _forward_dense(table, window):
    targets = _ordered_union(window, set().union(*(_successors(table.frame, c) for c in window)))
    return targets, _dense(table, window, targets)


def _adjoint_dense(table, window):
    """M^dagger restricted to the window columns, as the conjugate transpose
    of <w|M|s> over every predecessor s."""
    sources = _ordered_union(window, set().union(*(_predecessors(table.frame, c) for c in window)))
    return sources, _dense(table, sources, window).conj().T


def test_forward_matches_matrix_elements(case):
    table, window, (targets, dense), _ = case
    rows, cols, vals, images = qt.step_operator(table, window)
    index = {c: k for k, c in enumerate(targets)}
    assert set(images) <= set(index)
    assert np.array_equal(_scatter(rows, cols, vals, images, index, len(window)), dense)


def test_adjoint_is_conjugate_transpose(case):
    table, window, _, (sources, dense) = case
    rows, cols, vals, images = qt.step_operator(table, window, adjoint=True)
    index = {c: k for k, c in enumerate(sources)}
    assert set(images) <= set(index)
    assert np.array_equal(_scatter(rows, cols, vals, images, index, len(window)), dense)


@pytest.mark.parametrize("adjoint", [False, True])
def test_gram_product_matches_dense(case, adjoint):
    table, window, (_, forward), (_, backward) = case
    a = backward if adjoint else forward
    n = len(window)
    cols, vals, sizes = by_image(*qt.step_operator(table, window, adjoint=adjoint)[:3])
    keys, sums = map(np.concatenate, zip(*_gram_blocks(cols, vals, sizes, n)))
    assert np.all(np.diff(keys) > 0)
    # the column norms and the strict upper half, mirrored, are the whole product
    i, j = np.divmod(keys, n)
    assert np.all(i < j)
    gram = np.diag(_column_norms(cols, vals, n)).astype(np.complex128)
    gram[j, i] = sums.conj()
    gram[i, j] = sums
    assert np.abs(gram - a.conj().T @ a).max() < 1e-12
    # every key is a structural overlap, and every overlap in the strict upper half has a key
    overlap = (np.abs(a).T @ np.abs(a)) > 0
    assert np.array_equal(np.flatnonzero(np.triu(overlap, 1)), keys)


def test_step_operator_entry_order():
    table = random_table(qt.simple_frame(2, 2), np.random.default_rng(4), density=1.0)
    frame = table.frame
    window = qt.radius_window(frame, 1)
    rows, cols, vals, images = qt.step_operator(table, window)
    for i, config in enumerate(window):
        # grouped by written vector in first-appearance order, then (p, tau, d)
        rules = rules_for(table, config.state, frame.symbol_flat(config.read()))
        taus = list(dict.fromkeys(t for _, t, _, _ in rules))
        expected = [amp for tau in taus for _, t, _, amp in rules if t == tau]
        assert len(taus) == frame.symbol_block and len(expected) == len(rules)
        assert vals[cols == i].tolist() == expected
    # images are numbered by first column, then sort key
    firsts = [int(cols[rows == r].min()) for r in range(len(images))]
    assert [(f, c.sort_key()) for f, c in zip(firsts, images)] == sorted(
        (f, c.sort_key()) for f, c in zip(firsts, images)
    )


@pytest.mark.parametrize("dims", [(2, 1), (2, 2), (1, 2, 3)])
def test_step_operator_without_entries(dims):
    """No configurations, or a table whose amplitudes are all zero: no
    entries and no images, on either side, on frames with and without
    cells."""
    table = random_table(qt.simple_frame(*dims), np.random.default_rng(1))
    zero = qt.TransitionTable(table.frame, np.zeros(table.frame.table_shape))
    for adjoint in (False, True):
        for rows, cols, vals, images in (qt.step_operator(table, [], adjoint),
                                         qt.step_operator(zero, [qt.blank_configuration(table.frame)], adjoint)):
            assert (rows.dtype, cols.dtype, vals.dtype) == (np.intp, np.intp, np.complex128)
            assert (len(rows), len(cols), len(vals), images) == (0, 0, 0, ())


def test_step_operator_prunes_like_superposition(counterexample):
    tiny = qt.perturb(counterexample, (0, 0, 1, 0, 1), 1e-16)
    config = qt.blank_configuration(tiny.frame)
    for adjoint, expand in ((False, qt.apply), (True, qt.apply_adjoint)):
        rows, cols, vals, images = qt.step_operator(tiny, [config], adjoint=adjoint)
        expected = expand(tiny, qt.Superposition.basis(config))
        assert {images[r]: v for r, v in zip(rows, vals)} == dict(expected.items())


def test_gram_pair_counts_pinned(capsys):
    assert main(["gram", "counterexample", "--radius", "3"]) == 0
    out = capsys.readouterr().out
    assert "columns: residual=0.000000000000e+00 configs=14 pairs=62 PASS" in out
    assert "rows: residual=0.000000000000e+00 configs=14 pairs=60 PASS" in out


def test_apply_adjoint_pullback_unchanged(counterexample):
    psi = ref = qt.Superposition.basis(qt.blank_configuration(counterexample.frame))
    for _ in range(20):
        psi = qt.apply_adjoint(counterexample, psi)
        ref = reference_adjoint(counterexample, ref)
        assert psi.items() == ref.items()
    assert len(psi) == 80


def _bits(psi):
    """Dict order and the exact bits of every amplitude."""
    return [(c, a.real.hex(), a.imag.hex()) for c, a in psi._terms.items()]


def _right_mover():
    frame = qt.simple_frame(2, 2)
    return qt.pair_unitary_machine(frame, qt.random_unitary(4, np.random.default_rng(3)), [1, 1])


def _two_tape_identity():
    return qt.parse_document(bundled_machine_path("two_tape_identity").read_text(encoding="utf-8")).table


# (table, start amplitude per head vector on blank tapes in state 0, steps).
# The right-mover doubles its terms every step, so it runs 10 steps (up to
# 2,048 terms) where the others run 20.  Starting at amplitude 100, the
# 1e-16 rule's products clear the prune threshold, so a step that dropped
# rules below it would differ from the reference.
STEP_CASES = {
    "counterexample": (lambda c, corpus: c, {(0,): 1.0}, 20),
    "corpus valid-7": (lambda c, corpus: corpus[7].table, {(0,): 1.0}, 20),
    "Q2S2 right-mover": (lambda c, corpus: _right_mover(), {(0,): 1.0}, 10),
    "two-tape identity": (lambda c, corpus: _two_tape_identity(), {(0, 0): 0.6, (2, -1): 0.8j}, 20),
    "counterexample + 1e-16": (lambda c, corpus: qt.perturb(c, (0, 0, 1, 0, 1), 1e-16), {(0,): 100.0}, 20),
}


@pytest.mark.parametrize("name", sorted(STEP_CASES))
@pytest.mark.parametrize("adjoint", [False, True], ids=["apply", "apply_adjoint"])
def test_step_matches_reference_bit_for_bit(counterexample, corpus, name, adjoint):
    build, amps, steps = STEP_CASES[name]
    table = build(counterexample, corpus)
    start = qt.Superposition({qt.Configuration(0, table.frame.blank_tapes(), h): a for h, a in amps.items()})
    if adjoint:
        step = lambda psi: qt.apply_adjoint(table, psi)
        ref_step = lambda psi: reference_adjoint(table, psi)
    else:
        step = lambda psi: qt.apply(table, psi)
        ref_step = lambda psi: reference_apply(table, psi)
    psi = ref = start
    for _ in range(steps):
        psi, ref = step(psi), ref_step(ref)
        assert psi.items() == ref.items()
        assert _bits(psi) == _bits(ref)
        assert psi.norm().hex() == ref.norm().hex()
    assert len(psi) > 0


def test_step_on_empty_superposition(counterexample):
    empty = qt.Superposition()
    assert qt.apply(counterexample, empty) == empty
    assert qt.apply_adjoint(counterexample, empty) == empty


def test_step_rejects_tape_count_mismatch(counterexample):
    two = qt.Superposition.basis(qt.Configuration(0, (qt.Tape(0), qt.Tape(0)), (0, 0)))
    one = qt.Superposition.basis(qt.blank_configuration(counterexample.frame))
    two_tape = _two_tape_identity()
    for call in (
        lambda: qt.apply(counterexample, two),
        lambda: qt.apply_adjoint(counterexample, two),
        lambda: qt.apply(two_tape, one),
        lambda: qt.apply_adjoint(two_tape, one),
    ):
        with pytest.raises(ValueError, match="superposition does not match the table's frame"):
            call()
