import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qturing as qt
from qturing.frame import MOVES

from conftest import random_configuration
from reference_frame import alpha, beta, locally_like, precedes, sorted_configurations, write_at


def make_frame(states=2, symbols=2):
    return qt.simple_frame(states, symbols)


@pytest.mark.parametrize("build, message", [
    (lambda: qt.TuringFrame((), (("B",),)), "frame needs at least one state"),
    (lambda: qt.TuringFrame(("q", "q"), (("B",),)), "state names must be unique"),
    (lambda: qt.TuringFrame(("q",), ()), "frame needs at least one tape"),
    (lambda: qt.TuringFrame(("q",), (("B",), ("B",)), (0,)), "one blank index per tape required"),
    (lambda: qt.TuringFrame(("q",), ((),)), "alphabets must be nonempty"),
    (lambda: qt.TuringFrame(("q",), (("B", "B"),)), "symbol names must be unique per tape"),
    (lambda: qt.TuringFrame(("q",), (("B", "x"),), (2,)), "blank index out of range"),
    (lambda: qt.Tape(1, ((3, 0), (-2, 1))), "canonical tape never stores the blank"),
    (lambda: qt.Tape(0, ((3, 1), (3, 2))), "duplicate cell in tape support"),
    (lambda: qt.Configuration(0, (qt.Tape(0),), (0, 1)), "tape count and head count must agree"),
    (lambda: qt.Configuration(0, (), ()), "a configuration needs at least one tape"),
    # a float is refused, not truncated; a bool or a string is not an integer
    (lambda: qt.TuringFrame(("q0", "q1"), (("B", "a"),), (0.5,)), "blank index must be an integer, got 0.5"),
    (lambda: qt.TuringFrame(("q",), (("B", "a"),), (True,)), "blank index must be an integer, got True"),
    # `blanks` is a sequence of one index per tape, not a scalar or an array
    (lambda: qt.TuringFrame(("q",), (("B", "a"),), 1), "blanks must be a tuple or list of blank indices, got 1"),
    (lambda: qt.TuringFrame(("q",), (("B", "a"), ("B", "b")), np.array([1, 0])),
     "blanks must be a tuple or list of blank indices, got array([1, 0])"),
    (lambda: qt.Tape(0, ((1.9, 1),)), "tape cell must be an integer, got 1.9"),
    (lambda: qt.Tape(0, ((1, True),)), "tape symbol must be an integer, got True"),
    (lambda: qt.Tape(np.float64(0.0)), "tape blank must be an integer, got np.float64(0.0)"),
    (lambda: qt.Tape(0).write(1.5, 1), "tape cell must be an integer, got 1.5"),
    (lambda: qt.Tape(0).write(1, "1"), "tape symbol must be an integer, got '1'"),
    (lambda: qt.Configuration(2.0, (qt.Tape(0),), (0,)), "configuration state must be an integer, got 2.0"),
    (lambda: qt.Configuration(0, (qt.Tape(0),), (2.7,)), "head must be an integer, got 2.7"),
    (lambda: qt.Configuration(0, (qt.Tape(0),), (np.bool_(False),)), "head must be an integer, got np.False_"),
])
def test_constructor_refusals(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_numpy_integers_are_accepted_as_ints():
    tape = qt.Tape(np.int8(0), ((np.int64(-2), np.uint8(1)),)).write(np.int32(3), np.int16(2))
    config = qt.Configuration(np.int64(1), (tape,), (np.uint16(4),))
    assert config == qt.Configuration(1, (qt.Tape(0, ((-2, 1), (3, 2))),), (4,))
    assert [type(v) for v in (tape.blank, *itertools.chain(*tape.cells), config.state, *config.heads)] == [int] * 7
    frame = qt.TuringFrame(("q",), (("B", "a"), ("B",)), (np.uint8(1), np.int64(0)))
    assert frame.blanks == (1, 0) and [type(b) for b in frame.blanks] == [int] * 2


class TestTape:
    def test_write_blank_on_blank_is_identity(self):
        tape = qt.Tape(0)
        assert write_at(tape, 0, 0) == tape
        assert write_at(tape, 0, 0).cells == ()

    def test_write_symbol_creates_support(self):
        tape = write_at(qt.Tape(0), 3, 1)
        assert tape.cells == ((3, 1),)
        assert tape.read(3) == 1
        assert tape.read(2) == 0

    def test_overwrite_round_trips(self):
        tape = qt.Tape(0, ((0, 1),))
        assert write_at(write_at(tape, 0, 2), 0, 1) == tape

    def test_never_stores_blank(self):
        tape = write_at(write_at(qt.Tape(0), 2, 1), 2, 0)
        assert tape.cells == ()
        with pytest.raises(ValueError):
            qt.Tape(0, ((1, 0),))

    def test_out_of_range_symbol_rejected(self):
        with pytest.raises(IndexError):
            write_at(qt.Tape(0), 0, 5, alphabet_size=2)
        with pytest.raises(IndexError):
            write_at(qt.Tape(0), 0, -1)

    @given(st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 2)), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_canonical_equality(self, writes):
        tape = qt.Tape(0)
        shadow = {}
        for cell, symbol in writes:
            tape = write_at(tape, cell, symbol, alphabet_size=3)
            if symbol == 0:
                shadow.pop(cell, None)
            else:
                shadow[cell] = symbol
        assert dict(tape.cells) == shadow
        assert tape.cells == tuple(sorted(shadow.items()))
        assert all(s != 0 for _, s in tape.cells)


class TestAlphaBeta:
    def test_alpha_on_blank(self):
        frame = make_frame(2, 2)
        c = qt.blank_configuration(frame)
        out = alpha(frame, 1, 1, 1, c)
        assert out == qt.Configuration(1, (qt.Tape(0, ((0, 1),)),), (1,))

    def test_alpha_rewrite_same_symbol_no_move(self):
        frame = make_frame(2, 2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = random_configuration(frame, rng)
            assert alpha(frame, c.state, c.read(), 0, c) == c

    def test_alpha_two_tapes(self):
        frame = qt.simple_frame(2, 2, 2)
        c = qt.blank_configuration(frame)
        out = alpha(frame, 1, (1, 0), (1, -1), c)
        assert out.state == 1
        assert out.tapes[0].cells == ((0, 1),)
        assert out.tapes[1].cells == ()
        assert out.heads == (1, -1)

    def test_beta_inverts_alpha_example(self):
        frame = make_frame(2, 2)
        c_prime = qt.Configuration(1, (qt.Tape(0, ((0, 1),)),), (1,))
        assert beta(frame, 0, 0, 1, c_prime) == qt.blank_configuration(frame)

    def test_beta_alpha_identities(self):
        # beta(q,s,d) . alpha(p,t,d) is the identity on configurations with
        # state q and head symbol s; the reverse composition on state p with
        # symbol t at cell head-d.
        frame = make_frame(3, 2)
        rng = np.random.default_rng(1)
        for _ in range(200):
            c = random_configuration(frame, rng)
            q, sigma = c.state, c.read()[0]
            p, tau, d = (int(rng.integers(3)), int(rng.integers(2)), int(rng.integers(-1, 2)))
            forward = alpha(frame, p, tau, d, c)
            assert beta(frame, q, sigma, d, forward) == c
            c2 = forward  # lies in the image class: state p, tau at head-d
            assert alpha(frame, p, tau, d, beta(frame, q, sigma, d, c2)) == c2

    def test_partition_by_read_class(self):
        # For fixed d, every configuration lies in exactly one class
        # (state, symbol at head-d).
        frame = make_frame(2, 3)
        rng = np.random.default_rng(2)
        for _ in range(1000):
            c = random_configuration(frame, rng)
            for d in MOVES:
                matches = [
                    (q, s)
                    for q in range(frame.state_count)
                    for s in range(frame.symbol_counts[0])
                    if c.state == q and c.tapes[0].read(c.heads[0] - d) == s
                ]
                assert len(matches) == 1

    def test_dimension_mismatch(self):
        frame = make_frame(2, 2)
        c = qt.blank_configuration(frame)
        with pytest.raises(ValueError):
            alpha(frame, 0, (1, 1), 0, c)
        with pytest.raises(ValueError):
            alpha(frame, 0, 1, (0, 0), c)


class TestPrecedes:
    def test_reflexive(self):
        frame = make_frame(2, 2)
        rng = np.random.default_rng(3)
        for _ in range(100):
            c = random_configuration(frame, rng)
            assert precedes(c, c)

    def test_head_distance_two_fails(self):
        frame = make_frame(2, 2)
        a = qt.blank_configuration(frame)
        b = qt.Configuration(1, a.tapes, (2,))
        assert not precedes(a, b)

    def test_alpha_images_precede(self):
        frame = make_frame(3, 3)
        rng = np.random.default_rng(4)
        for _ in range(1000):
            c = random_configuration(frame, rng)
            p, tau, d = (int(rng.integers(3)), int(rng.integers(3)), int(rng.integers(-1, 2)))
            image = alpha(frame, p, tau, d, c)
            # independent definitional check: contents equal off the head,
            # head moved by at most one
            t, t2 = c.tapes[0], image.tapes[0]
            cells = set(t.support) | set(t2.support) | {c.heads[0]}
            definition = abs(image.heads[0] - c.heads[0]) <= 1 and all(
                t.read(m) == t2.read(m) for m in cells if m != c.heads[0]
            )
            assert definition
            assert precedes(c, image)

    def test_equivalent_to_alpha_and_beta_search(self):
        frame = make_frame(2, 2)
        rng = np.random.default_rng(5)
        seen_true = seen_false = 0
        for _ in range(300):
            c = random_configuration(frame, rng, span=2)
            if rng.random() < 0.6:
                c2 = alpha(
                    frame,
                    int(rng.integers(2)),
                    int(rng.integers(2)),
                    int(rng.integers(-1, 2)),
                    c,
                )
                if rng.random() < 0.3:  # sometimes spoil it
                    c2 = qt.Configuration(c2.state, c2.tapes, (c2.heads[0] + 2,))
            else:
                c2 = random_configuration(frame, rng, span=2)
            via_alpha = any(
                alpha(frame, p, tau, d, c) == c2
                for p in range(2)
                for tau in range(2)
                for d in MOVES
            )
            via_beta = any(
                beta(frame, q, sigma, d, c2) == c
                for q in range(2)
                for sigma in range(2)
                for d in MOVES
            )
            # the alpha search fixes the target state; membership also needs
            # the state to match, which alpha enumerates
            assert precedes(c, c2) == via_alpha == via_beta
            seen_true += via_alpha
            seen_false += not via_alpha
        assert seen_true > 20 and seen_false > 20

    def test_frame_mismatch(self):
        one = qt.blank_configuration(make_frame(1, 1))
        two = qt.blank_configuration(qt.simple_frame(1, 1, 1))
        with pytest.raises(ValueError):
            precedes(one, two)


class TestLocallyLike:
    def test_translation_invariance(self):
        frame = make_frame(2, 3)
        rng = np.random.default_rng(6)
        for _ in range(100):
            c = random_configuration(frame, rng)
            shifted = qt.Configuration(
                c.state,
                (qt.Tape(0, tuple((m + 5, s) for m, s in c.tapes[0].cells)),),
                (c.heads[0] + 5,),
            )
            assert locally_like(c, shifted)

    def test_state_mismatch(self):
        frame = make_frame(2, 2)
        a = qt.blank_configuration(frame, 0)
        b = qt.blank_configuration(frame, 1)
        assert not locally_like(a, b)

    def test_window_cell_mismatch(self):
        frame = make_frame(2, 2)
        a = qt.Configuration(0, (qt.Tape(0, ((1, 1),)),), (0,))
        b = qt.blank_configuration(frame, 0)
        assert not locally_like(a, b)

    def test_multitape_rejected(self):
        frame = qt.simple_frame(1, 1, 1)
        c = qt.blank_configuration(frame)
        with pytest.raises(ValueError):
            locally_like(c, c)


config_strategy = st.builds(
    lambda state, cells, head: qt.Configuration(
        state, (qt.Tape(0, tuple({m: s for m, s in cells if s != 0}.items())),), (head,)
    ),
    state=st.integers(0, 1),
    cells=st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 2)), max_size=6),
    head=st.integers(-4, 4),
)


@given(
    c=config_strategy,
    p=st.integers(0, 1),
    tau=st.integers(0, 2),
    d=st.sampled_from(MOVES),
)
@settings(max_examples=80, deadline=None)
def test_alpha_beta_inverse_property(c, p, tau, d):
    frame = make_frame(2, 3)
    image = alpha(frame, p, tau, d, c)
    assert precedes(c, image)
    assert beta(frame, c.state, c.read()[0], d, image) == c


def test_sorted_configurations_deterministic():
    frame = make_frame(2, 2)
    rng = np.random.default_rng(7)
    configs = [random_configuration(frame, rng) for _ in range(50)]
    once = sorted_configurations(configs)
    again = sorted_configurations(list(reversed(configs)))
    assert once == again
    keys = [c.sort_key() for c in once]
    assert keys == sorted(keys)
