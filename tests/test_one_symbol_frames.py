"""Frames whose tapes all have one symbol store no cells: their packed
terms, step images, re-framed terms and windows have a zero-width cells
axis, while a frame with a tape of two or more symbols keeps one column per
entry of `cols`.  Their sort keys are formed from the state and heads by
arithmetic, with the values and the stable-sort order of the digit path.
The 100-step `counterexample` walk, which runs on such a frame, is pinned
bit for bit."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qturing as qt
from qturing.evolution import RUN_MARGIN, _Kernel, _Layout, _runs
from qturing.windows import PackedWindow

from test_packed_kernel import _machine, _six_one_symbol_tapes
from test_packed_keys import configurations, kernel


def _pair_unitary(dims, moves, seed):
    frame = qt.simple_frame(*dims)
    return qt.pair_unitary_machine(frame, qt.random_unitary(frame.state_count * frame.symbol_block,
                                                            np.random.default_rng(seed)), moves)


TABLES = {
    # name: (table, whether every tape has one symbol)
    "Q3S1": (lambda: _pair_unitary((3, 1), [1, -1, 0], 4), True),
    "six one-symbol tapes": (_six_one_symbol_tapes, True),
    "counterexample": (lambda: _machine("counterexample"), True),
    "Q2S2": (lambda: _pair_unitary((2, 2), [1, -1], 5), False),
    "S(2,1)": (lambda: _pair_unitary((2, 2, 1), [(1, -1), (0, 1)], 6), False),
}


def _assert_cells_axis(terms, one_symbol: bool) -> None:
    n, k = len(terms.state), terms.heads.shape[1]
    assert terms.cells.shape == (n, k, 0 if one_symbol else len(terms.cols))


@pytest.mark.parametrize("name", sorted(TABLES))
def test_one_symbol_frames_store_no_cells(name):
    """Packed terms, the images of both steps, those images re-framed, a
    run's final terms and the radius window: a zero-width cells axis
    exactly when every tape has one symbol."""
    build, one_symbol = TABLES[name]
    table = build()
    frame = table.frame
    assert (frame.symbol_block == 1) == one_symbol
    kernel = _Kernel.of(table)
    configs = list(qt.radius_window(frame, 1)[::5])
    terms = kernel.pack(configs, np.linspace(0.1, 0.9, len(configs)))
    _assert_cells_axis(terms, one_symbol)
    for adjoint in (False, True):
        images, _, _ = kernel.step(terms, adjoint)
        assert len(images.state)
        _assert_cells_axis(images, one_symbol)
        reframed = kernel.reframe(images, RUN_MARGIN)
        _assert_cells_axis(reframed, one_symbol)
        assert kernel.configurations(reframed) == kernel.configurations(images)
    psi = qt.Superposition(dict(zip(configs, np.linspace(0.1, 0.9, len(configs)))))
    _assert_cells_axis(qt.run(table, psi, 12, unchecked=True).final._packed[1], one_symbol)
    _assert_cells_axis(PackedWindow(_Layout(frame), 1).terms, one_symbol)


ONE_SYMBOL_KEY_FRAMES = ["Q3S1", "six one-symbol tapes"]  # of tests/test_packed_keys.py


def _assert_arithmetic_keys(name: str, configs: list) -> None:
    layout = kernel(name)
    terms = layout.pack(configs)
    keys, digits = layout.keys(terms), layout.digit_keys(terms)
    assert keys.dtype == digits.dtype == np.uint64
    assert np.array_equal(keys, digits)
    assert np.array_equal(_runs(keys)[0], _runs(digits)[0])


@pytest.mark.parametrize("name", ONE_SYMBOL_KEY_FRAMES)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_arithmetic_keys_equal_the_digit_keys(name, data):
    """state * W**k + heads @ W**(k-1..0) is the digit path's uint64 value,
    so the stable sort orders the terms the same way."""
    configs = data.draw(st.lists(configurations(name), max_size=10))
    _assert_arithmetic_keys(name, configs + configs[::3])


def test_keys_past_2_63_take_the_digit_path():
    """Two states on six one-symbol tapes with 84 heads 40 cells apart
    (W = 1,428): |Q| * W**6 is about 1.7e19, past 2**63 but below 2**64, so
    the key is the digit path's uint64 value."""
    name = "six one-symbol tapes"
    blank = tuple(qt.Tape(0) for _ in range(6))
    configs = [qt.Configuration(j % 2, blank, tuple(40 * (6 * j + i) for i in range(6))) for j in range(14)]
    width = len(kernel(name).pack(configs).cols)
    assert 2 ** 63 <= 2 * width ** 6 < 2 ** 64
    _assert_arithmetic_keys(name, configs + configs[::4])


# The 100-step walk from the blank configuration (328 terms), each part as
# a SHA-256 digest: its final amplitudes' little-endian bytes, its
# first-reached order as little-endian int64, and its 101 norms as hex,
# joined by spaces.
WALK_AMPS = "db2a142ddecc3f6302a91f696a2f90a508c18ee4c0293313f248f41ac3dbbff3"
WALK_REACHED = "fa27c1cf561ce28970d53e60d43fc90c7c0fa8dc32fc5c46522e8ad93a505ead"
WALK_NORMS = "e7264f07293e744d867f2f8d7a2d6ffaca1c650e2cad5ea6118f872ea52e79e5"


def test_counterexample_walk_keeps_its_bits():
    table = _machine("counterexample")
    result = qt.run(table, qt.Superposition.basis(qt.blank_configuration(table.frame)), 100)
    final = result.final
    assert len(final) == 328
    assert hashlib.sha256(final._amps.astype("<c16").tobytes()).hexdigest() == WALK_AMPS
    assert hashlib.sha256(final._reached.astype("<i8").tobytes()).hexdigest() == WALK_REACHED
    assert hashlib.sha256(" ".join(n.hex() for n in result.norms).encode()).hexdigest() == WALK_NORMS
