"""The window operators built from image codes against the operator built
from image cells.  `_Kernel.operator` numbers images for both the Gram
check, which groups the entries by image code, and `step_operator`, which
groups them by image key: on both sides the two groupings give the entries
and image sizes of `reference_numbering`, which keys every image.  On the
smaller windows the Gram check's entries are also held to
`reference_step_operator`, which numbers its images with
`Configuration.sort_key` in Python.  The norm estimate's compressed
operator equals the forward images located by their cells, dtypes
included.  And the step bound refuses a window at its exact entry count
before any entry array is allocated."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qturing as qt
from qturing import evolution, windows
from qturing.evolution import _Kernel, _groups

from bounded_gram import dense_table
from conftest import random_table
from reference_oracle import by_image, reference_numbering, reference_step_operator
from test_packed_window import cell_codes, kept_images, outside


def _same(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def assert_codes_match_cells(table, radius: int, reference: bool = False):
    """With `reference`, the Gram check's entries are also compared with
    `reference_step_operator` on the decoded window: the check of the
    image numbering that does not go through `_Layout.keys`."""
    kernel = _Kernel.of(table)
    window = windows.PackedWindow(kernel, radius)
    terms = window.terms
    configs = qt.radius_window(table.frame, radius) if reference else None
    for adjoint in (False, True):
        walk = kernel.kept(terms, adjoint)
        expected = reference_numbering(kernel, terms, walk, adjoint)
        last = window.last_nonblank
        by_code = kernel.operator(last, walk, adjoint, *_groups(window.image_codes(kernel, walk, adjoint, edges=True)))
        _same(by_code, expected)
        by_key = kernel.operator(last, walk, adjoint, *_groups(kernel.keys(kernel.images(terms, walk, adjoint))))
        _same(by_key, expected)
        if reference:
            order, sizes = by_code
            _same((walk.parent[order], walk.coef[order], sizes),
                  by_image(*reference_step_operator(table, configs, adjoint)[:3]))
    walk = kernel.kept(window.terms, adjoint=False)
    images = kept_images(kernel, window.terms, adjoint=False)
    inside = ~outside(window, images)
    rows = window.position[cell_codes(window, images.take(inside), edges=False)]
    _same(windows._compressed(kernel, window), (rows, walk.parent[inside], walk.coef[inside]))


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_codes_match_cells_on_the_corpus(corpus, radius):
    for entry in corpus:
        assert_codes_match_cells(entry.table, radius, reference=radius <= 2)


@pytest.mark.parametrize("name", ["two_tape_corpus", "three_tape_corpus"])
def test_codes_match_cells_on_the_multitape_corpora(request, name):
    for entry in request.getfixturevalue(name):
        assert_codes_match_cells(entry.table, 1, reference=True)


# dense tables: Q2S2 at r=3 and 5 (1,792 and 11,264 configurations, 0.54 M
# entries at r=5), three tapes of two symbols, a two-symbol tape beside
# one-symbol tapes, six one-symbol tapes, and a blank that is not symbol 0
# (where a blank written before a non-blank cell decides ranks)
WIDE = {
    "dense Q2S2 r3": (lambda: dense_table(2, 2), 3),
    "dense Q2S2 r5": (lambda: dense_table(2, 2), 5),
    "Q1 S(2,2,2) r1": (lambda: random_table(qt.simple_frame(1, 2, 2, 2), np.random.default_rng(4), 0.3), 1),
    "dense Q3 S(2,1,1,1) r1": (lambda: dense_table(3, 2, 1, 1, 1), 1),
    "Q2 S(1,1,1,1,1,1) r1": (lambda: random_table(qt.simple_frame(2, *[1] * 6), np.random.default_rng(6), 0.3), 1),
    "blank-1 r2": (lambda: random_table(qt.TuringFrame(("a", "b"), (("x", "B", "y"),), blanks=(1,)),
                                        np.random.default_rng(5), 0.5), 2),
    "two-tape blanks (1,0) r1": (lambda: random_table(qt.TuringFrame(("a",), (("x", "B"), ("B", "y")), blanks=(1, 0)),
                                                      np.random.default_rng(8), 0.8), 1),
}

# the WIDE cases also held to `reference_step_operator`
BLANK_NOT_ZERO = ("blank-1 r2", "two-tape blanks (1,0) r1")


@pytest.mark.parametrize("name", sorted(WIDE))
def test_codes_match_cells_on_wide_windows(name):
    build, radius = WIDE[name]
    assert_codes_match_cells(build(), radius, reference=name in BLANK_NOT_ZERO)


# one to four tapes, the blank of the first tape drawn
DRAWN = [(1, 1), (2, 2), (3, 2), (1, 3), (2, 4), (1, 2, 2), (2, 3, 1), (1, 1, 3), (1, 2, 1, 2), (2, 1, 2, 1)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(dims=st.sampled_from(DRAWN), radius=st.integers(1, 3), density=st.sampled_from([0.1, 0.4, 1.0]),
       blank=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_codes_match_cells_on_drawn_tables(dims, radius, density, blank, seed):
    states, *counts = dims
    alphabets = tuple(tuple(f"t{i}s{s}" for s in range(n)) for i, n in enumerate(counts))
    blanks = (blank % counts[0],) + (0,) * (len(counts) - 1)
    frame = qt.TuringFrame(tuple(f"q{q}" for q in range(states)), alphabets, blanks)
    radius = radius if len(counts) == 1 else 1
    while radius > 1 and windows.window_size(frame, radius) > 3000:
        radius -= 1
    assert_codes_match_cells(random_table(frame, np.random.default_rng(seed), density), radius)


def _entries(table, radius: int, adjoint: bool) -> int:
    kernel = _Kernel.of(table)
    return len(kernel.walk(windows.PackedWindow(kernel, radius).terms, adjoint)[1])


def _step_bound_message(entries: int, columns: int) -> str:
    return (f"a step of {entries} entries on {columns} columns per tape exceeds "
            f"the {evolution.MAX_STEP_SYMBOLS} packed symbols a step may hold")


@pytest.mark.parametrize("side", ["columns", "rows", "norm"])
def test_step_bound_at_the_exact_entry_count(monkeypatch, side):
    """Dense Q2S2 at r=3: 1,792 configurations x 12 rules, on 9 columns.
    The window runs at entries x tapes x columns = MAX_STEP_SYMBOLS and is
    refused one symbol below, with the step's message."""
    table = dense_table(2, 2)
    entries = _entries(table, 3, side == "rows")
    assert entries == 1792 * 12
    call = {"columns": lambda: qt.column_gram_check(table, 3), "rows": lambda: qt.row_gram_check(table, 3),
            "norm": lambda: qt.estimate_norm(table, 3, 2)}[side]
    monkeypatch.setattr(evolution, "MAX_STEP_SYMBOLS", entries * 9)
    call()
    monkeypatch.setattr(evolution, "MAX_STEP_SYMBOLS", entries * 9 - 1)
    with pytest.raises(ValueError, match=f"^{_step_bound_message(entries, 9)}$"):
        call()


@pytest.mark.parametrize("side", ["columns", "rows", "norm"])
def test_step_bound_refuses_before_allocating_the_entries(side):
    """Dense Q2 S(2,3) at r=2: a window of 388,800 configurations and
    41,990,400 entries, refused by the step bound.  The window and the
    rule walk's per-slot arrays (a slot per configuration, or per
    configuration and move vector in use on the adjoint side: 3.5 M) are
    allocated; no array of the entries is, and one int64 array of them
    would take 320 MiB."""
    table = dense_table(2, 2, 3)
    call = {"columns": lambda: qt.column_gram_check(table, 2), "rows": lambda: qt.row_gram_check(table, 2),
            "norm": lambda: qt.estimate_norm(table, 2, 2)}[side]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{_step_bound_message(41990400, 7)}$"):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 41990400 * 8
