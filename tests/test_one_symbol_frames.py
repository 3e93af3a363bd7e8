"""Frames whose tapes all have one symbol store no cells: their packed
terms, step images, re-framed terms and windows have a zero-width cells
axis, while a frame with a tape of two or more symbols keeps one column per
entry of `cols`.  Their sort keys are formed from the state and heads by
arithmetic, with the values and the stable-sort order of the digit path.
A step on such a frame merges its images by counting when their keys span
few values, with the bits of the sort route on the same packed terms.  The
100-step `counterexample` walk, which runs on such a frame, is pinned bit
for bit."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qturing as qt
from qturing.evolution import PRUNE_THRESHOLD, RUN_MARGIN, _Kernel, _Layout, _runs
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


# rule amplitudes and term amplitudes: exact halves and quarters, so that
# images cancel exactly, values below PRUNE_THRESHOLD, and inexact ones
RULE_VALUES = (0.0, 0.0, 0.0, 0.5, -0.5, 0.25j, -0.25j, 1e-16, -3e-16j, 0.6 - 0.8j, 1.0)
TERM_VALUES = (1.0, -1.0, 0.5, -0.5j, 0.25 + 0.25j, 0.3 - 0.1j)


def _merge_case(k: int, states: int, rules: list, heads: list, amps: list):
    """The kernel of a one-symbol table on k tapes with `rules` as its
    amplitudes, and the packed terms of the superposition of `amps` on
    configurations with `heads`, as `step` receives them."""
    frame = qt.simple_frame(states, *[1] * k)
    table = qt.TransitionTable(frame, np.array(rules, dtype=np.complex128).reshape(frame.table_shape))
    kernel = _Kernel.of(table)
    blank = (qt.Tape(0),) * k
    psi = qt.Superposition({qt.Configuration(q, blank, h): a for (q, h), a in zip(heads, amps)})
    return kernel, kernel.ready(psi)


def _assert_merges_agree(kernel: _Kernel, terms, adjoint: bool):
    """`merge_by_count` and `merge_by_sort` on one rule walk: the same image
    states, heads, cells, amplitude bytes, slack, first-reached order and
    pruned-mass bits, and `step` gives them too.  Returns whether the step
    counts and how many images the prune dropped."""
    walk = kernel.walk(terms, adjoint)
    counted = kernel.merge_by_count(terms, walk, adjoint)
    for got in (kernel.step(terms, adjoint), kernel.merge_by_sort(terms, walk, adjoint)):
        (a, a_reached, a_dropped), (b, b_reached, b_dropped) = counted, got
        assert a.state.dtype == b.state.dtype and np.array_equal(a.state, b.state)
        assert a.heads.dtype == b.heads.dtype and np.array_equal(a.heads, b.heads)
        assert a.cells.shape == b.cells.shape and a.cells.dtype == b.cells.dtype
        assert a.amps.tobytes() == b.amps.tobytes()
        assert a.cols is b.cols and a.slack == b.slack
        assert np.array_equal(a_reached, b_reached)
        assert a_dropped.hex() == b_dropped.hex()
    reached = len(_runs(kernel.keys(kernel.images(terms, walk, adjoint)))[1])
    span = kernel.frame.state_count * len(terms.cols) ** kernel.k
    return span <= 4 * len(walk.rule) + 256, reached - len(counted[0].state)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_counting_merge_matches_the_sort_route(data):
    """On one to three one-symbol tapes, both directions, tables with rules
    below PRUNE_THRESHOLD, exact cancellations and no rules at all, and
    terms few or many, near or far apart, so the step takes either route."""
    k = data.draw(st.integers(1, 3), label="tapes")
    states = data.draw(st.integers(1, 3), label="states")
    size = states * states * 3 ** k
    rules = data.draw(st.lists(st.sampled_from(RULE_VALUES), min_size=size, max_size=size), label="rules")
    # three tapes 60 cells apart would count into millions of bins
    spread = data.draw(st.sampled_from([2, 6, 60] if k < 3 else [2, 6]), label="spread")
    places = st.tuples(st.integers(0, states - 1), st.tuples(*[st.integers(-spread, spread)] * k))
    heads = data.draw(st.lists(places, min_size=0, max_size=40, unique=True), label="terms")
    amps = data.draw(st.lists(st.sampled_from(TERM_VALUES), min_size=len(heads), max_size=len(heads)))
    kernel, terms = _merge_case(k, states, rules, heads, amps)
    for adjoint in (False, True):
        _assert_merges_agree(kernel, terms, adjoint)


def _cancelling(k: int):
    """Q1 on k tapes: every term reads one rule of 0.5 moving all heads
    left and one of -0.5 moving them right, so terms two cells apart with
    equal amplitudes cancel between them."""
    frame = qt.simple_frame(1, *[1] * k)
    rules = np.zeros(frame.table_shape, dtype=np.complex128)
    rules[0, 0, 0, 0, frame.move_flat((-1,) * k)] = 0.5
    rules[0, 0, 0, 0, frame.move_flat((1,) * k)] = -0.5
    return rules.ravel().tolist()


SQUARE = [(0, (i, j)) for i in range(-2, 3) for j in range(-2, 3)]  # 25 terms, W = 21
CUBE = [(0, (i, j, m)) for i in range(-2, 3) for j in range(-2, 3) for m in range(-2, 3)]  # 125 terms, W = 21

# cases the drawn test may miss, on each side of the switch
MERGE_CASES = {
    # name: (k, states, rules, heads, amplitudes, whether the step counts, whether it prunes)
    "cancelling k=1": (1, 1, _cancelling(1), [(0, (0,)), (0, (2,)), (0, (9,))], [1.0, 1.0, 0.5], True, True),
    "cancelling k=2": (2, 1, _cancelling(2), SQUARE, [1.0] * 25, True, True),
    "cancelling k=2 sorted": (2, 1, _cancelling(2), [(0, (0, 0)), (0, (2, 2))], [0.5j, 0.5j], False, True),
    "cancelling k=3 sorted": (3, 1, _cancelling(3), [(0, (0, 0, 0)), (0, (2, 2, 2))], [1.0, 1.0], False, True),
    "every move k=3": (3, 1, [0.5, -0.5, 0.25j] * 9, CUBE, [1.0, 0.5j, -0.5, 0.3 - 0.1j, 1.0] * 25, True, False),
    "below threshold": (1, 2, [1e-16, 0.5, -3e-16j, 0.25j] * 3, [(0, (0,)), (1, (4,))], [1.0, -0.5j], True, True),
    "no rules": (1, 2, [0.0] * 12, [(0, (0,)), (1, (3,))], [1.0, 0.5], True, False),
    "no rules sorted": (2, 2, [0.0] * 36, [(0, (0, 0)), (1, (3, -3))], [1.0, 0.5], False, False),
    "far apart k=1 sorted": (1, 3, ([0.5] + [0.0] * 8) * 3, [(q, (40 * j,)) for j in range(12) for q in (0, 2)],
                             [1.0, 0.25 + 0.25j] * 12, False, False),
}


@pytest.mark.parametrize("name", sorted(MERGE_CASES))
@pytest.mark.parametrize("adjoint", [False, True])
def test_counting_merge_matches_the_sort_route_on_chosen_cases(name, adjoint):
    """Each case takes the route and reaches the prune as its entry says."""
    k, states, rules, heads, amps, counts, prunes = MERGE_CASES[name]
    kernel, terms = _merge_case(k, states, rules, heads, amps)
    takes_count, pruned = _assert_merges_agree(kernel, terms, adjoint)
    assert (takes_count, pruned > 0) == (counts, prunes)


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
