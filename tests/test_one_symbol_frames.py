"""Frames whose tapes all have one symbol store no cells: their packed
terms, step images, re-framed terms and windows have a zero-width cells
axis, while a frame with a tape of two or more symbols keeps one column per
entry of `cols`.  Their sort keys are formed from the state and heads by
arithmetic, with the values and the stable-sort order of the digit path.
Their rule walk reads each term once, by its state, in both directions.  A
step on such a frame whose keys span few values keys every entry from its
rule's and its parent's parts and merges by counting, with the bits of the
image route on the same walk; any other step, keys past 2**63 included,
takes the image route.  The 100-step `counterexample` walk, which runs on
such a frame, and pair-unitary runs on two and three one-symbol tapes are
pinned bit for bit, forward and back by as many adjoint steps."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qturing as qt
from qturing import evolution
from qturing.evolution import PRUNE_THRESHOLD, _Kernel, _Layout, _runs
from qturing.windows import PackedWindow

from test_packed_kernel import _assert_same_operator, _machine, _six_one_symbol_tapes
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
        reframed = kernel.reframe(images)
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
    """A one-symbol table on k tapes with `rules` as its amplitudes, the
    configurations with `heads`, and the packed terms of their
    superposition with `amps`, as `step` receives them."""
    frame = qt.simple_frame(states, *[1] * k)
    table = qt.TransitionTable(frame, np.array(rules, dtype=np.complex128).reshape(frame.table_shape))
    blank = (qt.Tape(0),) * k
    configs = [qt.Configuration(q, blank, h) for q, h in heads]
    return table, configs, _Kernel.of(table).ready(qt.Superposition(dict(zip(configs, amps))))


def _assert_same_step(a, b) -> None:
    """Two step results with the same image states, heads, cells, amplitude
    bytes, columns, slack, first-reached order and pruned-mass bits."""
    (a, a_reached, a_dropped), (b, b_reached, b_dropped) = a, b
    assert a.state.dtype == b.state.dtype and np.array_equal(a.state, b.state)
    assert a.heads.dtype == b.heads.dtype and np.array_equal(a.heads, b.heads)
    assert a.cells.shape == b.cells.shape and a.cells.dtype == b.cells.dtype
    assert a.amps.tobytes() == b.amps.tobytes()
    assert a.cols is b.cols and a.slack == b.slack
    assert np.array_equal(a_reached, b_reached)
    assert a_dropped.hex() == b_dropped.hex()


def _assert_merges_agree(kernel: _Kernel, terms, adjoint: bool):
    """On one rule walk, which reads each term once, at its heads, in both
    directions, the counting merge (`merge_by_key`) and `step` give the
    bits of `merge_by_sort` on the image route, and each entry's key, its
    rule's part kept in `rule_keys` plus its parent's part, is the key of
    its image.  Returns whether the step counts and how many images the
    prune dropped."""
    walk = kernel.walk(terms, adjoint)
    assert np.array_equal(walk.slot, walk.parent) and walk.columns is terms.heads
    by_sort = kernel.merge_by_sort(terms, walk, adjoint)
    _assert_same_step(kernel.merge_by_key(terms, walk, adjoint), by_sort)
    _assert_same_step(kernel.step(terms, adjoint), by_sort)
    images = kernel.images(terms, walk, adjoint)
    width, rule_keys = kernel.rule_keys[adjoint]
    key = rule_keys[walk.rule] + kernel.one_symbol_key(width, 0, terms.heads)[walk.parent]
    assert width == len(terms.cols)
    assert key.dtype == np.int64 and np.array_equal(key.view(np.uint64), kernel.keys(images))
    reached = len(_runs(kernel.keys(images))[1])
    span = kernel.frame.state_count * len(terms.cols) ** kernel.k
    return span <= 4 * len(walk.rule) + 256, reached - len(by_sort[0].state)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_counting_merge_matches_the_sort_route(data):
    """On one to three one-symbol tapes, both directions, tables with rules
    below PRUNE_THRESHOLD, exact cancellations and no rules at all, and
    terms few or many, near or far apart, so the step takes either route.
    The step operator on the same terms matches the Python reference
    (`reference_step_operator`) entry for entry and bit for bit, so the
    rule walk is checked independently, adjoint walks with many moves in
    use included."""
    k = data.draw(st.integers(1, 3), label="tapes")
    states = data.draw(st.integers(1, 3), label="states")
    size = states * states * 3 ** k
    rules = data.draw(st.lists(st.sampled_from(RULE_VALUES), min_size=size, max_size=size), label="rules")
    # three tapes 60 cells apart would count into millions of bins
    spread = data.draw(st.sampled_from([2, 6, 60] if k < 3 else [2, 6]), label="spread")
    places = st.tuples(st.integers(0, states - 1), st.tuples(*[st.integers(-spread, spread)] * k))
    heads = data.draw(st.lists(places, min_size=0, max_size=40, unique=True), label="terms")
    amps = data.draw(st.lists(st.sampled_from(TERM_VALUES), min_size=len(heads), max_size=len(heads)))
    table, configs, terms = _merge_case(k, states, rules, heads, amps)
    for adjoint in (False, True):
        _assert_merges_agree(_Kernel.of(table), terms, adjoint)
        _assert_same_operator(table, configs, adjoint)


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

# cases the drawn test may miss, on each side of the switch ("sorted": the image route)
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
    table, _, terms = _merge_case(k, states, rules, heads, amps)
    takes_count, pruned = _assert_merges_agree(_Kernel.of(table), terms, adjoint)
    assert (takes_count, pruned > 0) == (counts, prunes)


def _spread_heads(terms: int):
    """Q3 on six one-symbol tapes, its kernel, and the superposition of
    `terms` basis states whose 6 * `terms` heads lie 40 cells apart, so
    each head is framed by its own 17 columns."""
    table = _six_one_symbol_tapes()
    blank = (qt.Tape(0),) * 6
    psi = qt.Superposition({qt.Configuration(j % 3, blank, tuple(40 * (6 * j + i) for i in range(6))): 0.5 - 0.25j * j
                            for j in range(terms)})
    return table, _Kernel.of(table), psi


def _near_heads():
    """The Q3S1 table, its kernel, and a superposition of three terms with
    heads a cell apart, whose keys span few values, so a step counts."""
    table = TABLES["Q3S1"][0]()
    psi = qt.Superposition({qt.Configuration(q, (qt.Tape(0),), (q,)): 0.5 - 0.25j * q for q in range(3)})
    return table, _Kernel.of(table), psi


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("terms, past", [(11, False), (12, True)])
def test_keys_past_2_63_take_the_image_route(monkeypatch, adjoint, terms, past):
    """Twelve terms on six tapes take W = 1,224 columns, so |Q| * W**6 is
    about 1.0e19, past 2**63: an int64 key would overflow, and the step
    builds every image and keys it by its digits.  Eleven terms (W = 1,122,
    about 6.0e18) key their images by arithmetic.  Both span far more keys
    than 4 * entries + 256, so both take the image route, with its bits."""
    _, kernel, psi = _spread_heads(terms)
    packed = kernel.ready(psi)
    assert (kernel.frame.state_count * len(packed.cols) ** 6 >= 2 ** 63) == past
    by_sort = kernel.merge_by_sort(packed, kernel.walk(packed, adjoint), adjoint)
    assert len(by_sort[0].state) == terms * 3
    monkeypatch.setattr(_Kernel, "merge_by_key", None)  # the route not taken
    _assert_same_step(kernel.step(packed, adjoint), by_sort)


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("route", ["state walk", "rule walk"])
def test_one_symbol_step_at_the_symbol_bound(monkeypatch, adjoint, route):
    """Both merges of a one-symbol step refuse it alike, in their one rule
    walk: accepted with entries x tapes x columns at MAX_STEP_SYMBOLS or
    one below it, and refused with the bound one below that count, naming
    its counts.  Terms a cell apart on one tape ("state walk") merge by
    counting, six tapes with heads 40 cells apart ("rule walk") take the
    image route."""
    table, kernel, psi = _near_heads() if route == "state walk" else _spread_heads(4)
    terms = kernel.ready(psi)
    entries, width = len(kernel.walk(terms, adjoint).rule), len(terms.cols)
    symbols = entries * kernel.k * width
    step = qt.apply_adjoint if adjoint else qt.apply
    expected = step(table, psi)
    # the merge not taken
    monkeypatch.setattr(_Kernel, "merge_by_sort" if route == "state walk" else "merge_by_key", None)
    for bound in (symbols + 1, symbols):
        monkeypatch.setattr(evolution, "MAX_STEP_SYMBOLS", bound)
        got = step(table, psi)
        assert got._amps.tobytes() == expected._amps.tobytes() and got.items() == expected.items()
    monkeypatch.setattr(evolution, "MAX_STEP_SYMBOLS", symbols - 1)
    with pytest.raises(ValueError, match=f"^a step of {entries} entries on {width} columns per tape exceeds "
                                         f"the {symbols - 1} packed symbols a step may hold$"):
        step(table, psi)


# The 100-step walk from the blank configuration (328 terms), each part as
# a SHA-256 digest: its final amplitudes' little-endian bytes, its
# first-reached order as little-endian int64, and its 101 norms as hex,
# joined by spaces.  Then 100 adjoint steps back from its final state, whose
# amplitudes and first-reached order are digested the same way.
WALK_AMPS = "db2a142ddecc3f6302a91f696a2f90a508c18ee4c0293313f248f41ac3dbbff3"
WALK_REACHED = "fa27c1cf561ce28970d53e60d43fc90c7c0fa8dc32fc5c46522e8ad93a505ead"
WALK_NORMS = "e7264f07293e744d867f2f8d7a2d6ffaca1c650e2cad5ea6118f872ea52e79e5"
BACK_AMPS = "b421536b3c5b058ddff23d063f03ed141edcb9da434e8742678b467f8e50472c"
BACK_REACHED = "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"


def _sha256(values: np.ndarray, dtype: str) -> str:
    return hashlib.sha256(values.astype(dtype).tobytes()).hexdigest()


def _norms_sha256(norms) -> str:
    return hashlib.sha256(" ".join(n.hex() for n in norms).encode()).hexdigest()


def _back(table, psi, steps: int):
    for _ in range(steps):
        psi = qt.apply_adjoint(table, psi)
    return psi


def test_counterexample_walk_keeps_its_bits():
    table = _machine("counterexample")
    start = qt.Superposition.basis(qt.blank_configuration(table.frame))
    result = qt.run(table, start, 100)
    final = result.final
    assert len(final) == 328
    assert _sha256(final._amps, "<c16") == WALK_AMPS
    assert _sha256(final._reached, "<i8") == WALK_REACHED
    assert _norms_sha256(result.norms) == WALK_NORMS
    back = _back(table, final, 100)
    assert _sha256(back._amps, "<c16") == BACK_AMPS
    assert _sha256(back._reached, "<i8") == BACK_REACHED
    assert back.distance(start) <= 1e-9


# Pair-unitary Q3 tables on two and three one-symbol tapes, run from the
# blank configuration and back by as many adjoint steps, digested as the
# walk above: the final amplitudes, first-reached order and norms of the
# run, then the final amplitudes and first-reached order of the way back.
# The two-tape chain takes both merges; the three-tape one spans too many
# keys to count.
PAIR_RUNS = {
    # name: (frame sizes, move vector per state, unitary seed, steps, final terms, digests)
    "two tapes": ((3, 1, 1), [(1, -1), (0, 1), (-1, 0)], 7, 40, 2428, (
        "20b29c832d30bb8a88cddeb90a1c54adea050037b6c038b7825dbe11d532f784",
        "637b9f81cf365be8fca1270b043808fbb7f25f69989352ce421a81e801bc794b",
        "d93db9e74389996d30aa46122b823bba76ae8bd916f96797c30f748213767e71",
        "27388ab05a7eb83f56fc5d2bb9a47b61d78284d1a16118f23ed3510e7e71d97f",
        "42c93fbb10ba7176f61cf9e9e72a93cbaba273f7c8a969d8d6f5da11fb30ab34")),
    "three tapes": ((3, 1, 1, 1), [(1, -1, 0), (0, 1, 1), (-1, 0, -1)], 8, 30, 1395, (
        "20c06b3ab146979c21776ea7a652968f38ef24ab36895ed0a8517a9abbdd84c0",
        "38fa4b20b0e49c0ebbe3a24e6799283c1388c32e8df8df3552bdd449551aa60f",
        "b3da0b9612a1e11c14ee3aed05c68c798e5f85cb154b2f213bc1829e9e09e5c0",
        "d84aba1f9ac53e0b73aae2a58feffbe81fc3c427d4d63b3e2d8534454b4e03d7",
        "04999457d8ba6623573b45d01202ae33e64df8de3069ab24081bb52e06ecc7ae")),
}


@pytest.mark.parametrize("name", sorted(PAIR_RUNS))
def test_pair_unitary_runs_keep_their_bits(name):
    dims, moves, seed, steps, count, digests = PAIR_RUNS[name]
    table = _pair_unitary(dims, moves, seed)
    start = qt.Superposition.basis(qt.blank_configuration(table.frame))
    result = qt.run(table, start, steps)
    back = _back(table, result.final, steps)
    assert len(result.final) == count
    assert (_sha256(result.final._amps, "<c16"), _sha256(result.final._reached, "<i8"), _norms_sha256(result.norms),
            _sha256(back._amps, "<c16"), _sha256(back._reached, "<i8")) == digests
    assert back.distance(start) <= 1e-9
