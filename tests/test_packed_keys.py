"""`_Layout.keys` against `Configuration.sort_key`: configurations packed on
shared columns get keys whose unsigned byte order is their `sort_key` order
and which are equal exactly when the configurations are.  The frames reach
past one byte in every part of the key: symbol codes, states, heads and
columns."""
import functools
import itertools

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
        cells = draw(st.dictionaries(positions, symbols, max_size=5))
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


def assert_keys_follow_sort_key(name: str, configs: list) -> None:
    layout = kernel(name)
    keys = layout.keys(layout.pack(configs))
    assert keys.shape == (len(configs),)
    data = [key.tobytes() for key in keys]
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
def test_zero_terms_have_zero_keys(name):
    assert_keys_follow_sort_key(name, [])
