"""`_Layout.keys` against `Configuration.sort_key`: configurations packed on
shared columns get keys whose order is their `sort_key` order and which are
equal exactly when the configurations are.  A key is a uint64 mixed-radix
value when the kept columns' radices multiply to less than 2**64 and a void
scalar compared as unsigned bytes otherwise; the corpus reaches both forms,
also on one-symbol frames, whose keys hold no cell digits.  The frames reach
past one byte in every part of the key: symbol codes, states, heads and
columns."""
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qturing as qt
from qturing.evolution import _Kernel, _runs

COMB = 301  # non-blank cells of the comb configuration, three columns apart

FRAMES = {
    # name: (frame, positions drawn from [-span, span], draws for the state)
    "blank index 2": (qt.TuringFrame(("a", "b"), (("x", "y", "B", "z"),), (2,)), 4, st.integers(0, 1)),
    "two alphabets": (qt.simple_frame(2, 2, 5), 3, st.integers(0, 1)),
    "300 symbols": (qt.simple_frame(2, 300), 4, st.integers(0, 1)),
    "300 states": (qt.simple_frame(300, 2), 4, st.one_of(st.integers(0, 2), st.integers(253, 299))),
    "over 256 columns": (qt.simple_frame(2, 3), 500, st.integers(0, 1)),
    # one-symbol tapes: every cell is blank and the key is the state and heads
    "Q3S1": (qt.simple_frame(3, 1), 4, st.integers(0, 2)),
    "six one-symbol tapes": (qt.simple_frame(2, *[1] * 6), 2000, st.integers(0, 1)),
    "S(2,1)": (qt.simple_frame(2, 2, 1), 4, st.integers(0, 1)),
}


@functools.cache
def kernel(name: str) -> _Kernel:
    return _Kernel(qt.TransitionTable.zeros(FRAMES[name][0]))


@st.composite
def configurations(draw, name: str) -> qt.Configuration:
    frame, span, states = FRAMES[name]
    positions = st.integers(-span, span)
    tapes = []
    for blank, size in zip(frame.blanks, frame.symbol_counts):
        symbols = st.integers(0, size - 1).filter(lambda s, blank=blank: s != blank)
        cells = draw(st.dictionaries(positions, symbols, max_size=5 if size > 1 else 0))
        tapes.append(qt.Tape(blank, tuple(cells.items())))
    heads = tuple(draw(positions) for _ in frame.blanks)
    return qt.Configuration(draw(states), tuple(tapes), heads)


def comb(name: str) -> qt.Configuration:
    """A configuration with COMB cells, so the packed terms span more than
    256 columns."""
    frame = FRAMES[name][0]
    tapes = tuple(qt.Tape(blank, tuple((3 * m - 450, 1 + m % (size - 1)) for m in range(COMB)))
                  for blank, size in zip(frame.blanks, frame.symbol_counts))
    return qt.Configuration(0, tapes, (0,) * frame.tape_count)


def key_values(keys) -> list:
    """The keys as Python values in key order: ints in the integer form,
    bytes (compared unsigned) in the void form."""
    if keys.dtype == np.uint64:
        return keys.tolist()
    assert keys.dtype.kind == "V"
    return [key.tobytes() for key in keys]


def assert_keys_follow_sort_key(name: str, configs: list) -> None:
    layout = kernel(name)
    keys = layout.keys(layout.pack(configs))
    assert keys.shape == (len(configs),)
    data = key_values(keys)
    sort_keys = [c.sort_key() for c in configs]
    for i, j in itertools.product(range(len(configs)), repeat=2):
        assert (data[i] < data[j]) == (sort_keys[i] < sort_keys[j])
        assert (data[i] == data[j]) == (configs[i] == configs[j])
    order, starts, run = _runs(keys)
    assert order.tolist() == sorted(range(len(configs)), key=sort_keys.__getitem__)
    assert len(starts) == len(set(configs))
    assert all(configs[i] == configs[order[starts[r]]] for i, r in enumerate(run))


@pytest.mark.parametrize("name", sorted(FRAMES))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_key_order_and_equality_follow_sort_key(name, data):
    configs = data.draw(st.lists(configurations(name), max_size=10))
    configs += configs[::3]  # repeated configurations
    if name == "over 256 columns":
        configs.append(comb(name))
        assert len(kernel(name).pack(configs).cols) > 256
    assert_keys_follow_sort_key(name, configs)


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_a_few_cells_give_integer_keys(name):
    frame = FRAMES[name][0]
    tapes = []
    for blank, size in zip(frame.blanks, frame.symbol_counts):
        symbols = [s for s in range(size) if s != blank]
        tapes.append(qt.Tape(blank, ((-1, symbols[0]), (2, symbols[-1])) if symbols else ()))
    configs = [qt.blank_configuration(frame),
               qt.Configuration(frame.state_count - 1, tuple(tapes), (3,) * len(tapes))]
    assert kernel(name).keys(kernel(name).pack(configs)).dtype == np.uint64
    assert_keys_follow_sort_key(name, configs)


def test_the_comb_gives_void_keys():
    """301 cells that vary between terms put the radix product far past
    2**64."""
    name = "over 256 columns"
    configs = [qt.blank_configuration(FRAMES[name][0]), comb(name)]
    assert kernel(name).keys(kernel(name).pack(configs)).dtype.kind == "V"
    assert_keys_follow_sort_key(name, configs)


def test_six_tape_heads_give_both_key_forms():
    """Six one-symbol tapes: the key is the state and six heads of radix W,
    an integer while 2 * W**6 < 2**64 and a void scalar past it, here at 90
    heads 40 cells apart (W = 1,530, so 2 * W**6 is about 1.4 * 2**64)."""
    name = "six one-symbol tapes"
    blank = tuple(qt.Tape(0) for _ in range(6))
    configs = [qt.Configuration(j % 2, blank, tuple(40 * (6 * j + i) for i in range(6))) for j in range(15)]
    for count, kind in ((2, "u"), (15, "V")):
        terms = kernel(name).pack(configs[:count])
        assert (len(terms.cols), kernel(name).keys(terms).dtype.kind) == (204 if count == 2 else 1530, kind)
        assert_keys_follow_sort_key(name, configs[:count] + configs[:count:3])


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_zero_terms_have_zero_keys(name):
    assert_keys_follow_sort_key(name, [])
