"""The packed radius window against the `Configuration`-by-`Configuration`
enumeration, the Gram check and the norm estimate on it against the routes
that decode the whole window, and the window-size cap."""
import gc
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import qturing as qt
from qturing import windows
from qturing.cli import main
from qturing.evolution import MAX_STEP_SYMBOLS, _Kernel, _Layout

from bounded_gram import dense_table
from conftest import random_table
from reference_frame import reference_radius_window
from reference_oracle import reference_estimate_norm, reference_gram_check


def _blank_one_table(seed: int = 5) -> qt.TransitionTable:
    """Two states over three symbols whose blank is the symbol 1."""
    frame = qt.TuringFrame(("a", "b"), (("x", "B", "y"),), blanks=(1,))
    return random_table(frame, np.random.default_rng(seed), density=0.5)


def _q2s2_valid() -> qt.TransitionTable:
    frame = qt.simple_frame(2, 2)
    unitary = qt.random_unitary(4, np.random.default_rng(21))
    return qt.pair_unitary_machine(frame, unitary, [1, 1])


# ---------------------------------------------------------------------------
# the decoded window
# ---------------------------------------------------------------------------

WINDOW_FRAMES = {
    "Q2S2 r1": (qt.simple_frame(2, 2), 1),
    "Q2S2 r2": (qt.simple_frame(2, 2), 2),
    "Q2S2 r3": (qt.simple_frame(2, 2), 3),
    "Q1S22 r1": (qt.simple_frame(1, 2, 2), 1),
    "Q3S1 r3": (qt.simple_frame(3, 1), 3),
    "blank-1 r2": (qt.TuringFrame(("a", "b"), (("x", "B", "y"),), blanks=(1,)), 2),
    "two-tape blanks (1,0) r1": (qt.TuringFrame(("a",), (("x", "B"), ("B", "y")), blanks=(1, 0)), 1),
}


@pytest.mark.parametrize("name", sorted(WINDOW_FRAMES))
def test_radius_window_matches_reference(name):
    frame, radius = WINDOW_FRAMES[name]
    window = qt.radius_window(frame, radius)
    expected = reference_radius_window(frame, radius)
    assert len(window) == len(expected) == windows.window_size(frame, radius)
    for got, want in zip(window, expected):
        assert got == want and hash(got) == hash(want)
        assert (type(got.tapes), type(got.heads)) == (tuple, tuple)
        assert all(type(h) is int for h in got.heads)
        assert all(type(m) is int and type(s) is int for t in got.tapes for m, s in t.cells)


def cell_codes(window: windows.PackedWindow, terms, edges: bool) -> np.ndarray:
    """The mixed-radix code of packed terms on the window's columns, read
    off their cells (Horner): the state, then per tape the tape code,
    leftmost cell most significant, and the head, over the columns and
    heads 1..W or, with `edges`, 0..W+1.  A one-symbol tape is blank: its
    every digit is 0, and its terms may store no cell column."""
    first = 0 if edges else 1
    span = window.width + 2 - 2 * first
    code = terms.state.astype(np.int64)
    for i, symbols in enumerate(window.layout.frame.symbol_counts):
        for column in range(first, first + span):
            code = code * symbols + (terms.cells[:, i, column] if symbols > 1 else 0)
        code = code * span + terms.heads[:, i] - first
    return code


def kept_images(kernel: _Kernel, terms, adjoint: bool):
    """The images of the entries `kernel.kept` keeps, built for the whole
    rule walk and then pruned by coefficient."""
    walk = kernel.walk(terms, adjoint)
    return kernel.images(terms, walk, adjoint).take(np.abs(walk.coef) >= qt.PRUNE_THRESHOLD)


def edge_cells(window: windows.PackedWindow, terms) -> np.ndarray:
    """Whether each packed term has a non-blank cell on an edge column of
    the window.  A one-symbol tape is blank, and its terms may store no
    cell column."""
    edge = np.zeros(len(terms.state), dtype=bool)
    for i, (symbols, blank) in enumerate(zip(window.layout.frame.symbol_counts, window.layout.blanks)):
        if symbols > 1:
            edge |= (terms.cells[:, i, 0] != blank) | (terms.cells[:, i, -1] != blank)
    return edge


def outside(window: windows.PackedWindow, terms) -> np.ndarray:
    """Whether each packed term has a head or a non-blank cell on an edge
    column of the window."""
    heads = terms.heads
    return ((heads < 1) | (heads > window.width)).any(axis=1) | edge_cells(window, terms)


@pytest.mark.parametrize("name", sorted(WINDOW_FRAMES))
def test_window_index_finds_every_member(name):
    """Every window term's code finds its own position.  On both sides the
    code of every image is the code read off its cells; an image with a
    head or a non-blank cell on an edge column is outside the window and
    has a code no window term has, and every other image has the code of
    the window term equal to it.  The norm's compressed operator keeps
    exactly the forward images inside the window, each at its position."""
    frame, radius = WINDOW_FRAMES[name]
    kernel = _Kernel.of(random_table(frame, np.random.default_rng(3)))
    window = windows.PackedWindow(kernel, radius)
    assert np.array_equal(np.sort(window.position), np.arange(window.size))
    assert np.array_equal(cell_codes(window, window.terms, edges=False), np.argsort(window.position))
    members = cell_codes(window, window.terms, edges=True)
    index = {config: j for j, config in enumerate(reference_radius_window(frame, radius))}
    on_edge = False
    for adjoint in (False, True):
        walk = kernel.kept(window.terms, adjoint)
        images = kept_images(kernel, window.terms, adjoint)
        codes = window.image_codes(kernel, walk, adjoint, edges=True)
        assert np.array_equal(codes, cell_codes(window, images, edges=True))
        out = outside(window, images)
        assert out.any() and not out.all()
        assert not any(config in index for config in kernel.configurations(images.take(out)))
        assert not np.isin(codes[out], members).any()
        found = [index[config] for config in kernel.configurations(images.take(~out))]
        assert np.array_equal(codes[~out], members[found])
        on_edge |= bool(edge_cells(window, images).any())
        if not adjoint:
            rows, cols, vals = windows._compressed(kernel, window)
            assert np.array_equal(rows, found)
            assert np.array_equal(cols, walk.parent[~out]) and np.array_equal(vals, walk.coef[~out])
    # an adjoint image writes on an edge column wherever a tape has a non-blank symbol
    assert on_edge == (max(frame.symbol_counts) > 1)


@pytest.mark.parametrize("radius, dtype", [(4, np.uint16), (5, np.uint32)])
def test_edge_codes_take_the_smallest_unsigned_dtype(radius, dtype):
    """Dense Q2S2: the edge codes span |Q| * (W+2) * 2**(W+2) values, 45,056
    at r=4 (so uint16, the largest window sorted by radix) and 212,992 at
    r=5 (uint32).  On both sides they equal the int64 codes read off the
    image cells, and their stable order is the int64 codes' stable order.
    The window positions (9,216 and 11,264) fit uint16."""
    kernel = _Kernel.of(dense_table(2, 2))
    window = windows.PackedWindow(kernel, radius)
    assert 2 * (window.width + 2) * 2 ** (window.width + 2) == {4: 45_056, 5: 212_992}[radius]
    assert window.position.dtype == np.uint16
    for adjoint in (False, True):
        codes = window.image_codes(kernel, kernel.kept(window.terms, adjoint), adjoint, edges=True)
        wide = cell_codes(window, kept_images(kernel, window.terms, adjoint), edges=True)
        assert codes.dtype == dtype and wide.dtype == np.int64
        assert np.array_equal(codes, wide)
        assert np.array_equal(codes.argsort(kind="stable"), wide.argsort(kind="stable"))


# ---------------------------------------------------------------------------
# Gram checks against the whole-window reference
# ---------------------------------------------------------------------------

def _assert_same_check(table, radius, side):
    check = (qt.column_gram_check if side == "columns" else qt.row_gram_check)(table, radius)
    ref = reference_gram_check(table, radius, check.tolerance, side)
    assert check.diagonal_residual.hex() == ref.diagonal_residual.hex()
    assert check.offdiagonal_residual.hex() == ref.offdiagonal_residual.hex()
    assert (check.pair_count, check.config_count) == (ref.pair_count, ref.config_count)
    assert check.witness == ref.witness
    assert all(type(h) is int for c in check.witness for h in c.heads)


@pytest.mark.parametrize("side, radius", [("columns", 2), ("columns", 3), ("rows", 3)])
def test_gram_check_matches_reference_on_corpus(corpus, side, radius):
    for entry in corpus:
        _assert_same_check(entry.table, radius, side)


@pytest.mark.parametrize("side", ["columns", "rows"])
def test_gram_check_matches_reference_q2s2_r4(side):
    _assert_same_check(_q2s2_valid(), 4, side)
    _assert_same_check(random_table(qt.simple_frame(2, 2), np.random.default_rng(11), density=0.6), 4, side)


@pytest.mark.parametrize("side", ["columns", "rows"])
def test_gram_check_matches_reference_blank_one(side):
    for radius in (1, 2):
        _assert_same_check(_blank_one_table(), radius, side)


def test_gram_check_decodes_only_witnesses(monkeypatch, corpus, counterexample):
    decoded = []
    configurations, configuration = _Kernel.configurations, windows.PackedWindow.configuration

    def counting(self, terms):
        decoded.append(len(terms.state))
        return configurations(self, terms)

    def counting_one(self, position):
        decoded.append(1)
        return configuration(self, position)

    monkeypatch.setattr(_Kernel, "configurations", counting)
    monkeypatch.setattr(windows.PackedWindow, "configuration", counting_one)
    bad = qt.perturb(counterexample, (0, 0, 0, 0, 0), 0.1)
    # corpus valid-7 has an off-diagonal row witness, the others diagonal ones
    tables = [counterexample, bad, _q2s2_valid(), corpus[7].table,
              random_table(qt.simple_frame(2, 2), np.random.default_rng(11), density=0.6)]
    witnesses = set()
    for table in tables:
        for check in (qt.column_gram_check, qt.row_gram_check):
            decoded.clear()
            result = check(table, 3)
            assert sum(decoded) == (1 if result.witness[0] == result.witness[1] else 2)
            witnesses.add(result.witness[0] == result.witness[1])
    assert witnesses == {True, False}  # both the diagonal and the off-diagonal witness


# ---------------------------------------------------------------------------
# norm estimates against the Configuration-dict route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, radius", [("Q2S2", 3), ("Q2S2", 4), ("one-symbol", 3), ("blank-1", 2)])
def test_estimate_norm_matches_dict_route(counterexample, name, radius):
    tables = {
        "Q2S2": [_q2s2_valid(), random_table(qt.simple_frame(2, 2), np.random.default_rng(11), density=0.6)],
        "one-symbol": [counterexample, random_table(qt.simple_frame(3, 1), np.random.default_rng(13))],
        "blank-1": [_blank_one_table()],
    }[name]
    for seed, table in enumerate(tables):
        got = qt.estimate_norm(table, radius, 200, seed=seed)
        assert got.hex() == reference_estimate_norm(table, radius, 200, seed=seed).hex()


def _skewed_table() -> qt.TransitionTable:
    """Q3S2 whose read (q0, B) has a rule to every (p, tau, d) and whose only
    other rule reads (q1, s1): a window column holds up to 18 entries and
    most hold none, so the slot width is capped below the widest column."""
    frame = qt.simple_frame(3, 2)
    amps = np.zeros(frame.table_shape, dtype=np.complex128)
    rng = np.random.default_rng(4)
    amps[0, 0] = rng.standard_normal(amps.shape[2:]) + 1j * rng.standard_normal(amps.shape[2:])
    amps[1, 1, 2, 0, 1] = 0.5
    return qt.TransitionTable(frame, amps)


def _funnel_table() -> qt.TransitionTable:
    """Q4S2 whose every read has a rule to (q0, B, 0) and whose only other
    rule reads (q1, s1): 8 entries land on each (q0, B) image, so the
    forward slot width is capped and the forward half has a tail, past
    numpy's elision size at r=4 (20,480 kept entries)."""
    frame = qt.simple_frame(4, 2)
    amps = np.zeros(frame.table_shape, dtype=np.complex128)
    rng = np.random.default_rng(5)
    amps[:, :, 0, 0, 1] = rng.standard_normal(amps.shape[:2]) + 1j * rng.standard_normal(amps.shape[:2])
    amps[1, 1, 2, 1, 2] = 0.5
    return qt.TransitionTable(frame, amps)


# slot layouts the tables above leave out: a capped width with an add.at
# tail, products past numpy's elision size, both at once, and two tapes
SLOT_LAYOUTS = {
    "skewed r2": (_skewed_table, 2),
    "dense Q2S2 r3": (lambda: random_table(qt.simple_frame(2, 2), np.random.default_rng(3), density=1.0), 3),
    "two-tape r1": (lambda: random_table(qt.simple_frame(1, 2, 2), np.random.default_rng(12), density=0.6), 1),
    "funnel r4": (_funnel_table, 4),
}

# per SLOT_LAYOUTS entry: whether the forward and the backward half have a
# tail, whether the kept entries reach ELIDED_ENTRIES, and the tape count
LAYOUT_SHAPES = {
    "skewed r2": (False, True, False, 1),
    "dense Q2S2 r3": (False, False, True, 1),
    "two-tape r1": (False, False, False, 2),
    "funnel r4": (True, False, True, 1),
}


@pytest.mark.parametrize("name", sorted(SLOT_LAYOUTS))
def test_estimate_norm_matches_dict_route_on_more_layouts(name):
    build, radius = SLOT_LAYOUTS[name]
    table = build()
    kernel = _Kernel.of(table)
    window = windows.PackedWindow(kernel, radius)
    rows, cols, vals = windows._compressed(kernel, window)
    forward = windows._slots(rows, cols, vals, window.size)
    backward = windows._slots(cols, rows, vals, window.size)
    # the slot matrices hold at most twice the kept entries
    assert forward.vals.size <= 2 * len(vals) and backward.vals.size <= 2 * len(vals)
    assert forward.vals.size + len(forward.tail[0]) >= len(vals)
    shape = (len(forward.tail[0]) > 0, len(backward.tail[0]) > 0, len(vals) >= windows.ELIDED_ENTRIES,
             table.frame.tape_count)
    assert shape == LAYOUT_SHAPES[name]
    for seed in (0, 1):
        got = qt.estimate_norm(table, radius, 200, seed=seed)
        assert got.hex() == reference_estimate_norm(table, radius, 200, seed=seed).hex()


# estimate_norm(...).hex() at iterations 1, 2 and 200, computed before the
# power iteration formed its estimate once after the loop
PINNED_CORPUS_NORMS = {
    ("corpus", 0, 3): ("0x1.ffff79f41f1f8p-1", "0x1.fffffffffffffp-1", "0x1.0000000000000p+0"),
    ("corpus", 51, 3): ("0x1.21334b78eefe2p+0", "0x1.36d90090dc96bp+0", "0x1.546b3ab2e2c22p+0"),
    ("two_tape_corpus", 0, 1): ("0x1.fffc477e15bdfp-1", "0x1.ffffffffffffep-1", "0x1.0000000000001p+0"),
    ("two_tape_corpus", 25, 1): ("0x1.017e5f7ba0e21p+0", "0x1.019af89ecd9d9p+0", "0x1.156dbfa4102cdp+0"),
    ("three_tape_corpus", 0, 1): ("0x1.fffb58a3419c5p-1", "0x1.0000000000000p+0", "0x1.0000000000001p+0"),
    ("three_tape_corpus", 15, 1): ("0x1.000eacf41cbdap+0", "0x1.0030caf03c665p+0", "0x1.0830c7d4d4ba7p+0"),
    ("many_tape_corpus", 0, 1): ("0x1.fffaa925f9e79p-1", "0x1.0000000000000p+0", "0x1.fffffffffffffp-1"),
    ("many_tape_corpus", 5, 1): ("0x1.03286c7bc53f2p+0", "0x1.03a351879d178p+0", "0x1.1b8851cda02cfp+0"),
}

# the same per SLOT_LAYOUTS entry, seed 0 then seed 1 (the funnel's computed
# once its norms were summed by chunks of 10,000 entries, so that they hold
# for any BLAS thread count)
PINNED_LAYOUT_NORMS = {
    "dense Q2S2 r3": ("0x1.2306961c59af3p+2", "0x1.d6b9038065f25p+2", "0x1.39adaa3b37c62p+3",
                      "0x1.231797fa9d1efp+2", "0x1.d6ca46815c75dp+2", "0x1.39af13663fbfcp+3"),
    "skewed r2": ("0x1.4d517edde64aap+1", "0x1.a0be50a0dfbc2p+2", "0x1.0efb89612cae0p+3",
                  "0x1.4d4a89f8ef95cp+1", "0x1.a0d7acb4b1211p+2", "0x1.0efb892fb7962p+3"),
    "two-tape r1": ("0x1.ce88d05f84013p+2", "0x1.2ce51f017ed14p+3", "0x1.68acd557be2eep+3",
                    "0x1.ce9dc5b454d3fp+2", "0x1.2cf29b28d1a82p+3", "0x1.68acd555ff798p+3"),
    "funnel r4": ("0x1.895eb336f4f98p-1", "0x1.01bf6efe2f5f6p+2", "0x1.01de4adfe2af9p+2",
                  "0x1.89465043cc145p-1", "0x1.01bf69b07f3a3p+2", "0x1.01de4ae14edc9p+2"),
}


@pytest.mark.parametrize("name, index, radius", sorted(PINNED_CORPUS_NORMS))
def test_estimate_norm_keeps_its_pinned_bits_on_the_corpora(request, name, index, radius):
    table = request.getfixturevalue(name)[index].table
    got = tuple(qt.estimate_norm(table, radius, iterations).hex() for iterations in (1, 2, 200))
    assert got == PINNED_CORPUS_NORMS[name, index, radius]


@pytest.mark.parametrize("name", sorted(SLOT_LAYOUTS))
def test_estimate_norm_keeps_its_pinned_bits_on_more_layouts(name):
    build, radius = SLOT_LAYOUTS[name]
    table = build()
    got = tuple(qt.estimate_norm(table, radius, iterations, seed=seed).hex()
                for seed in (0, 1) for iterations in (1, 2, 200))
    assert got == PINNED_LAYOUT_NORMS[name]


_FUNNEL_SOURCE = """
import qturing as qt
from test_packed_window import _funnel_table
table = _funnel_table()
print(" ".join(qt.estimate_norm(table, 4, iterations, seed=seed).hex()
               for seed in (0, 1) for iterations in (1, 2, 200)))
"""


def test_funnel_estimates_do_not_follow_the_blas_thread_count():
    """Above 10,000 entries one BLAS `ddot` splits its sum across threads;
    the estimate sums its norms by chunks, so on the funnel window (18,432
    configurations) one OpenBLAS thread and the default give the same
    bits, the pinned ones."""
    assert windows.window_size(qt.simple_frame(4, 2), 4) > windows._DOT_CHUNK
    tests = pathlib.Path(__file__).resolve().parent
    src = str(pathlib.Path(qt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, str(tests), os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    one, default = (tuple(subprocess.run([sys.executable, "-c", _FUNNEL_SOURCE], env=dict(env, **threads),
                                         capture_output=True, text=True, timeout=120, check=True).stdout.split())
                    for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {}))
    assert one == default == PINNED_LAYOUT_NORMS["funnel r4"]


def test_estimate_norm_of_an_all_zero_table_is_zero():
    for frame in (qt.simple_frame(2, 1), qt.simple_frame(2, 2)):
        table = qt.TransitionTable(frame, np.zeros(frame.table_shape, dtype=np.complex128))
        for iterations in (1, 200):
            assert qt.estimate_norm(table, 2, iterations) == 0.0


# ---------------------------------------------------------------------------
# the window kept on the table's kernel
# ---------------------------------------------------------------------------

def _count_builds(monkeypatch) -> list:
    """The radius of every `PackedWindow` constructed from here on."""
    built, init = [], windows.PackedWindow.__init__

    def counting(self, layout, radius):
        built.append(radius)
        init(self, layout, radius)

    monkeypatch.setattr(windows.PackedWindow, "__init__", counting)
    return built


def test_one_window_per_table_and_radius(monkeypatch):
    table = _q2s2_valid()
    built = _count_builds(monkeypatch)
    qt.column_gram_check(table, 2)
    qt.row_gram_check(table, 2)
    qt.estimate_norm(table, 2, 10)
    assert built == [2]
    kept = _Kernel.of(table).window
    assert kept.radius == 2
    # another radius replaces the kept window
    qt.estimate_norm(table, 1, 10)
    qt.row_gram_check(table, 1)
    assert built == [2, 1]
    assert _Kernel.of(table).window is not kept and _Kernel.of(table).window.radius == 1
    qt.column_gram_check(table, 2)
    assert built == [2, 1, 2]


def test_kept_window_gives_the_results_of_a_fresh_table():
    """Calls that alternate radii on one table give the reprs and bits the
    same calls give on a fresh, equal table each."""
    for build in (_q2s2_valid, _blank_one_table):
        table = build()
        for radius in (2, 1, 1, 2, 2):
            fresh = build()
            assert repr(qt.column_gram_check(table, radius)) == repr(qt.column_gram_check(fresh, radius))
            fresh = build()
            assert repr(qt.row_gram_check(table, radius)) == repr(qt.row_gram_check(fresh, radius))
            fresh = build()
            assert qt.estimate_norm(table, radius, 20).hex() == qt.estimate_norm(fresh, radius, 20).hex()


def kept_arrays(window: windows.PackedWindow) -> list:
    """Every array the window keeps: its own, its terms' and its code
    parts'."""
    arrays = [value for value in vars(window).values() if isinstance(value, np.ndarray)]
    arrays += [value for value in window.terms if isinstance(value, np.ndarray)]
    for parts in (window.edges, window.inner):
        for value in parts:
            if isinstance(value, np.ndarray):
                arrays.append(value)
            elif isinstance(value, tuple):  # one array per multi-symbol tape
                arrays += value
    return arrays


def test_kept_window_is_read_only():
    table = _blank_one_table()
    qt.column_gram_check(table, 2)
    window = _Kernel.of(table).window
    arrays = kept_arrays(window)
    # `position` and `last_nonblank`, then state, heads, cells and cols, then
    # per span the head and column place values, `code`, `unread` and `at`
    assert len(arrays) == 2 + 4 + 2 * 5
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


# corpus-like frames of one to three tapes: blanks that are not symbol 0,
# one-symbol tapes beside multi-symbol ones, and one-symbol frames
PART_FRAMES = {
    "Q2 S3 blank 1": (qt.TuringFrame(("a", "b"), (("x", "B", "y"),), blanks=(1,)), (1, 2, 3)),
    "Q1S2": (qt.simple_frame(1, 2), (1, 2, 3)),
    "Q3S1": (qt.simple_frame(3, 1), (1, 2, 3)),
    "two-tape blanks (1,0)": (qt.TuringFrame(("a",), (("x", "B"), ("B", "y")), blanks=(1, 0)), (1, 2)),
    "Q2 S(2,1)": (qt.simple_frame(2, 2, 1), (1, 2, 3)),
    "Q1 S(3,1,2) blanks (2,0,1)": (qt.TuringFrame(("a",), (("x", "y", "B"), ("B",), ("x", "B")), blanks=(2, 0, 1)),
                                   (1,)),
    "Q2 S(1,2,1)": (qt.simple_frame(2, 1, 2, 1), (1, 2)),
}


def digit_places(window: windows.PackedWindow, first: int) -> tuple[int, list, list]:
    """The place values of the code over the columns and heads from
    `first` on, from its digits listed most significant first: the state,
    then per tape its span cells and its head.  Returns the state's, and
    per tape the head's and the list of its columns'."""
    span = window.width + 2 - 2 * first
    radices = []
    for symbols in window.layout.frame.symbol_counts:
        radices += [symbols] * span + [span]
    places = [1] * len(radices)
    for j in range(len(radices) - 2, -1, -1):
        places[j] = places[j + 1] * radices[j + 1]
    state = places[0] * radices[0]
    heads = [places[(i + 1) * (span + 1) - 1] for i in range(window.layout.k)]
    columns = [places[i * (span + 1):(i + 1) * (span + 1) - 1] for i in range(window.layout.k)]
    return state, heads, columns


@pytest.mark.parametrize("name", sorted(PART_FRAMES))
def test_kept_parts_are_the_parts_of_the_terms(name):
    """The code parts and last non-blank columns a window keeps equal
    the ones read off its terms here, term by term, and are read-only."""
    frame, radii = PART_FRAMES[name]
    layout = _Layout(frame)
    written = [i for i, symbols in enumerate(frame.symbol_counts) if symbols > 1]
    for radius in radii:
        window = windows.PackedWindow(layout, radius)
        terms = window.terms
        rows = np.arange(window.size)
        for parts, edges in ((window.edges, True), (window.inner, False)):
            first = 0 if edges else 1
            state, heads, columns = digit_places(window, first)
            assert (parts.first, parts.place) == (first, state)
            assert parts.heads.tolist() == heads
            assert [place.tolist() for place in parts.columns] == [columns[i] for i in written]
            code = cell_codes(window, terms, edges) - terms.state * state
            dtype = np.min_scalar_type(frame.state_count * state - 1)
            assert all(array.dtype == dtype for array in parts.arrays() if array is not parts.heads)
            assert np.array_equal(parts.code.astype(np.int64), code)
            unread = code.copy()
            for i, at in zip(written, parts.at):
                column = terms.heads[:, i] - first
                assert np.array_equal(at.astype(np.int64), np.array(columns[i])[column])
                unread -= terms.cells[rows, i, terms.heads[:, i]] * np.array(columns[i])[column]
            assert len(parts.at) == len(written)
            assert np.array_equal(parts.unread.astype(np.int64), unread)
        assert window.last_nonblank.shape == (len(written), window.size)
        for row, i in zip(window.last_nonblank, written):
            filled = terms.cells[:, i, :] != frame.blanks[i]
            last = np.where(filled.any(axis=1), filled.shape[1] - 1 - filled[:, ::-1].argmax(axis=1), 0)
            assert np.array_equal(row, last)
        for array in kept_arrays(window):
            assert not array.flags.writeable


def test_the_kept_window_serves_every_order_of_calls():
    """On fresh tables, the column check, the row check and the norm
    estimate give the same reprs and bits in the order columns, rows, norm
    as in the order rows, norm, columns, whichever call builds the kept
    window."""
    builds = (_q2s2_valid, _blank_one_table,
              lambda: random_table(qt.simple_frame(2, 2, 1), np.random.default_rng(7), density=0.5),
              lambda: random_table(qt.simple_frame(3, 1), np.random.default_rng(13)))
    for build in builds:
        radius = 1 if build().frame.tape_count > 1 else 2
        calls = {"columns": lambda table: repr(qt.column_gram_check(table, radius)),
                 "rows": lambda table: repr(qt.row_gram_check(table, radius)),
                 "norm": lambda table: qt.estimate_norm(table, radius, 20).hex()}
        results = []
        for order in (("columns", "rows", "norm"), ("rows", "norm", "columns")):
            table = build()
            results.append({name: calls[name](table) for name in order})
        assert results[0] == results[1]


def test_kept_window_goes_with_its_table():
    """The window holds no reference back to its kernel or table, so
    reference counting alone frees it with the table."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = _q2s2_valid()
        qt.row_gram_check(table, 2)
        window = weakref.ref(_Kernel.of(table).window)
        assert window() is not None
        del table
        assert window() is None
    finally:
        if enabled:
            gc.enable()


def test_cli_gram_builds_one_window(monkeypatch, capsys):
    built = _count_builds(monkeypatch)
    assert main(["gram", "counterexample"]) == 0
    assert "columns:" in capsys.readouterr().out
    assert built == [3]


# ---------------------------------------------------------------------------
# the window-size cap
# ---------------------------------------------------------------------------

def test_window_size_law():
    for frame, radius in WINDOW_FRAMES.values():
        width = 2 * radius + 1
        law = frame.state_count
        for size in frame.symbol_counts:
            law *= width * size ** width
        assert windows.window_size(frame, radius) == law
    with pytest.raises(ValueError, match="positive"):
        windows.window_size(qt.simple_frame(1, 1), 0)


@pytest.mark.parametrize("radius", [2.0, 2.5, True])
def test_window_radius_must_be_a_positive_integer(counterexample, radius):
    for call in _window_calls(counterexample, radius):
        with pytest.raises(ValueError, match="positive"):
            call()
    # numpy integers count as integers
    frame = counterexample.frame
    assert windows.window_size(frame, np.int64(3)) == windows.window_size(frame, 3)
    assert qt.column_gram_check(counterexample, np.int32(2)) == qt.column_gram_check(counterexample, 2)


@pytest.mark.parametrize("iterations", [10.0, True, 0])
def test_estimate_norm_iterations_must_be_a_positive_integer(counterexample, iterations):
    with pytest.raises(ValueError, match="must be positive"):
        qt.estimate_norm(counterexample, 2, iterations)
    assert qt.estimate_norm(counterexample, np.int64(2), np.int32(10)) == qt.estimate_norm(counterexample, 2, 10)


@pytest.mark.parametrize("seed", [True, False, 1.5, 1.0, -1, "1", None, np.float64(2)])
def test_estimate_norm_seed_must_be_a_nonnegative_integer(counterexample, seed):
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        qt.estimate_norm(counterexample, 2, 10, seed=seed)


def test_estimate_norm_keeps_its_bits_for_every_integer_seed(counterexample):
    table = random_table(qt.simple_frame(2, 2), np.random.default_rng(11), density=0.6)
    for seed in (0, 1, 2 ** 70):
        expected = reference_estimate_norm(table, 2, 50, seed=seed).hex()
        assert qt.estimate_norm(table, 2, 50, seed=seed).hex() == expected
        if seed < 2 ** 63:
            assert qt.estimate_norm(table, 2, 50, seed=np.int64(seed)).hex() == expected


def test_window_cap_boundary(monkeypatch, counterexample):
    monkeypatch.setattr(windows, "MAX_WINDOW_CONFIGS", 14)
    assert qt.column_gram_check(counterexample, 3).config_count == 14
    with pytest.raises(ValueError, match="more than 14 configurations"):
        qt.column_gram_check(counterexample, 4)


def _refused_without_allocating(call, match=f"more than {windows.MAX_WINDOW_CONFIGS} configurations"):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("shape, radius", [((2, 1), 10 ** 11), ((2, 2), 12), ((2, 2), 10 ** 11)])
def test_oversized_windows_refused_before_allocation(shape, radius):
    for call in _window_calls(random_table(qt.simple_frame(*shape), np.random.default_rng(1)), radius):
        _refused_without_allocating(call)


def _window_calls(table, radius):
    """Every public route that builds the radius window of `table`."""
    return (lambda: windows.window_size(table.frame, radius),
            lambda: qt.radius_window(table.frame, radius),
            lambda: qt.column_gram_check(table, radius),
            lambda: qt.row_gram_check(table, radius),
            lambda: qt.estimate_norm(table, radius, 10))


@pytest.mark.parametrize("argv", [
    ["gram", "counterexample", "--radius", "100000000000"],
    ["norm", "counterexample", "--radius", "100000000000"],
])
def test_cli_refuses_oversized_window(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the radius-100000000000 window holds more than")


# A one-symbol tape keeps the window at |Q|(2r+1) configurations while each
# configuration packs 2r+3 cells per tape, so Q2S1 stays far below the
# configuration cap at radii whose packed cells alone need gigabytes.  Near
# the bound the window is only sized, never built: a build that got past the
# check there would allocate gigabytes.
def symbol_bound_message(radius: int) -> str:
    return (f"the radius-{radius} window packs more than {MAX_STEP_SYMBOLS} symbols "
            "(configurations x tapes x (2r+3)); use a smaller radius")


def test_packed_symbol_bound_by_arithmetic():
    frame = qt.simple_frame(2, 1)
    assert 2 * 5791 * 1 * 5793 <= MAX_STEP_SYMBOLS < 2 * 5793 * 1 * 5795
    assert windows.window_size(frame, 2895) == 2 * 5791
    with pytest.raises(ValueError, match=f"^{re.escape(symbol_bound_message(2896))}$"):
        windows.window_size(frame, 2896)


def test_packed_symbol_bound_refuses_before_allocation(counterexample):
    for call in _window_calls(counterexample, 100000):
        _refused_without_allocating(call, f"^{re.escape(symbol_bound_message(100000))}$")


@pytest.mark.parametrize("command", ["gram", "norm"])
def test_cli_refuses_a_window_of_too_many_packed_symbols(capsys, command):
    assert main([command, "counterexample", "--radius", "100000"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {symbol_bound_message(100000)}\n")
