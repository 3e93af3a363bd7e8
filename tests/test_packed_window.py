"""The packed radius window against the `Configuration`-by-`Configuration`
enumeration, the Gram check and the norm estimate on it against the routes
that decode the whole window, and the window-size cap."""
import re
import tracemalloc

import numpy as np
import pytest

import qturing as qt
from qturing import windows
from qturing.cli import main
from qturing.evolution import MAX_STEP_SYMBOLS, _Kernel

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


@pytest.mark.parametrize("name", sorted(WINDOW_FRAMES))
def test_window_index_finds_every_member(name):
    """Every window term indexes to its own position; shifting a head onto
    an edge column, or writing there, leaves the window."""
    frame, radius = WINDOW_FRAMES[name]
    kernel = _Kernel.of(random_table(frame, np.random.default_rng(3)))
    window = windows.PackedWindow(kernel, radius)
    assert np.array_equal(window.index(window.terms), np.arange(window.size))
    edge = window.terms.heads.copy()
    edge[:, -1] = 0
    assert (window.index(window.terms._replace(heads=edge)) == -1).all()
    if frame.symbol_counts[0] > 1:
        for column in (0, -1):
            cells = window.terms.cells.copy()
            cells[:, 0, column] = (kernel.blanks[0] + 1) % frame.symbol_counts[0]
            assert (window.index(window.terms._replace(cells=cells)) == -1).all()


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
    configurations = _Kernel.configurations

    def counting(self, terms):
        decoded.append(len(terms.state))
        return configurations(self, terms)

    monkeypatch.setattr(_Kernel, "configurations", counting)
    bad = qt.perturb(counterexample, (0, 0, 0, 0, 0), 0.1)
    # corpus valid-7 has an off-diagonal row witness, the others diagonal ones
    tables = [counterexample, bad, _q2s2_valid(), corpus[7].table,
              random_table(qt.simple_frame(2, 2), np.random.default_rng(11), density=0.6)]
    witnesses = set()
    for table in tables:
        for check in (qt.column_gram_check, qt.row_gram_check):
            decoded.clear()
            result = check(table, 3)
            assert sum(decoded) <= 2
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
