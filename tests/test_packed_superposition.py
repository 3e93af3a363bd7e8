"""The packed form of `Superposition` against dict-built copies: every public
method gives the same result on both, chains of `apply`, `apply_adjoint` and
`run` equal the per-term dict loops bit for bit (reframes and empty states
included), a packed state on another frame is checked as a dict state is,
a chain decodes no configuration until one is asked for and then decodes
once, and a constructed superposition's norm keeps the bits of the dict sum
in insertion order."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qturing as qt
from qturing.cli import bundled_machine_path
from qturing.evolution import PRUNE_THRESHOLD, RUN_MARGIN, _Kernel, _Layout

from reference_oracle import reference_adjoint, reference_apply, reference_inner, reference_scaled


def _bits(psi):
    """Dict order and the exact bits of every amplitude."""
    return [(c, a.real.hex(), a.imag.hex()) for c, a in psi._terms.items()]


def _hex(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _fresh(psi):
    """A packed copy of a packed superposition, not yet decoded."""
    assert psi._packed is not None
    return qt.Superposition._from_packed(*psi._packed, psi._reached)


def _machine(name):
    return qt.parse_machine(bundled_machine_path(name).read_text(encoding="utf-8"))


def _start(table, terms):
    """A superposition of (state, heads, {cell: symbol} per tape, amp) terms."""
    frame = table.frame
    return qt.Superposition({
        qt.Configuration(state, tuple(qt.Tape(b, tuple(cells.items())) for b, cells in zip(frame.blanks, tapes)),
                         heads): amp
        for state, heads, tapes, amp in terms
    })


def _flipping_right_mover():
    """One state over two symbols: flip the symbol read and move right."""
    return qt.pair_unitary_machine(qt.simple_frame(1, 2), [[0, 1], [1, 0]], [1])


@pytest.fixture
def calls(monkeypatch):
    """Counts of `_Layout.configurations` (decodes) and `_Kernel.reframe`."""
    counts = {"decode": 0, "reframe": 0}
    decode, reframe = _Layout.configurations, _Kernel.reframe

    def counting_decode(self, terms):
        counts["decode"] += 1
        return decode(self, terms)

    def counting_reframe(self, terms):
        counts["reframe"] += 1
        return reframe(self, terms)

    monkeypatch.setattr(_Layout, "configurations", counting_decode)
    monkeypatch.setattr(_Kernel, "reframe", counting_reframe)
    return counts


# ---------------------------------------------------------------------------
# every public method on the packed form and on a dict-built copy
# ---------------------------------------------------------------------------

def _packed_and_dict(table, terms, steps):
    """`run` output and the same state built by the reference loop."""
    start = _start(table, terms)
    psi = qt.run(table, start, steps, unchecked=True).final
    ref = start
    for _ in range(steps):
        ref = reference_apply(table, ref)
    assert psi._packed is not None and ref._packed is None
    return psi, ref


METHOD_CASES = {
    "counterexample": (lambda: _machine("counterexample"), [(0, (0,), ({},), 1.0)], 7),
    "200 symbols": (
        lambda: qt.TransitionTable.from_rules(qt.simple_frame(1, 200), [
            rule for s in range(200)
            for rule in ((0, s, 0, (7 * s + 131) % 200, 1, 0.6), (0, s, 0, (11 * s + 140) % 200, -1, 0.8j))]),
        [(0, (0,), ({-1: 199, 0: 130},), 0.6), (0, (3,), ({3: 128},), 0.8)], 3),
    "two-tape identity": (
        lambda: _machine("two_tape_identity"), [(0, (0, 0), ({}, {}), 0.6), (0, (2, -1), ({}, {}), 0.8j)], 4),
}


@pytest.mark.parametrize("name", sorted(METHOD_CASES))
def test_every_method_matches_a_dict_built_copy(name):
    build, terms, steps = METHOD_CASES[name]
    table = build()
    psi, ref = _packed_and_dict(table, terms, steps)
    configs = ref.configurations()
    missing = qt.Configuration(0, table.frame.blank_tapes(), (10 ** 9,) * table.frame.tape_count)
    other = qt.Superposition({c: 0.25j * (i + 1) for i, c in enumerate(configs[::2])})

    assert len(_fresh(psi)) == len(ref) > 1
    assert _fresh(psi).norm().hex() == ref.norm().hex()
    assert repr(_fresh(psi)) == repr(ref)
    assert [(c, _hex(a)) for c, a in _fresh(psi).items()] == [(c, _hex(a)) for c, a in ref.items()]
    assert _fresh(psi).configurations() == configs
    assert _bits(_fresh(psi)) == _bits(ref)
    for c in configs + [missing]:
        assert _hex(_fresh(psi).amplitude(c)) == _hex(ref.amplitude(c))
        assert (c in _fresh(psi)) == (c in ref)
    assert _fresh(psi) == ref and ref == _fresh(psi) and _fresh(psi) == _fresh(psi)
    assert _fresh(psi) != other
    for a in (other, ref):
        assert _hex(reference_inner(_fresh(psi), a)) == _hex(reference_inner(ref, a))
        assert _hex(reference_inner(a, _fresh(psi))) == _hex(reference_inner(a, ref))
        assert _bits(_fresh(psi).plus(a)) == _bits(ref.plus(a))
        assert _bits(a.plus(_fresh(psi))) == _bits(a.plus(ref))
        assert _fresh(psi).distance(a).hex() == ref.distance(a).hex()
        assert a.distance(_fresh(psi)).hex() == a.distance(ref).hex()
    assert _bits(reference_scaled(_fresh(psi), 0.5 - 0.25j)) == _bits(reference_scaled(ref, 0.5 - 0.25j))
    assert _fresh(psi).distance(_fresh(psi)) == 0.0


# ---------------------------------------------------------------------------
# the bits of a constructed superposition's norm
# ---------------------------------------------------------------------------

# distinct configurations listed out of `sort_key` order, so that insertion
# order and `sort_key` order differ
_POOL_FRAME = qt.simple_frame(2, 2)
_POOL = [qt.Configuration(q, (qt.Tape(0, cells),), (head,)) for q, head, cells in (
    (1, 3, ()), (0, -1, ((0, 1),)), (1, -2, ((-2, 1), (4, 1))), (0, 0, ()), (0, 5, ((5, 1),)), (1, 0, ((1, 1),)))]
_POOL_TABLE = qt.pair_unitary_machine(_POOL_FRAME, np.eye(4), [1, 1])

# parts with magnitudes from 1e-8 to 1e8, exact quarters and signed zeros
_PART = st.one_of(
    st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(-8, 8), st.sampled_from([1.0, -1.0])),
    st.integers(-40, 40).map(lambda k: k / 4),
    st.sampled_from([0.0, -0.0]),
)
# whole amplitudes below PRUNE_THRESHOLD, so the term is dropped
_TINY = st.builds(complex, st.floats(-6e-16, 6e-16), st.floats(-6e-16, 6e-16))


@st.composite
def _pool_terms(draw):
    """(pool index, amplitude) pairs with repeated configurations, some of
    them cancelling exactly, and amplitudes pruned away."""
    terms = draw(st.lists(st.tuples(st.integers(0, len(_POOL) - 1),
                                    st.one_of(st.builds(complex, _PART, _PART), _TINY)), max_size=14))
    cancel = draw(st.lists(st.integers(0, max(len(terms) - 1, 0)), max_size=3)) if terms else []
    return terms + [(terms[j][0], -terms[j][1]) for j in cancel]


def _dict_norm(terms):
    """The norm as a dict accumulated in insertion order sums it."""
    acc = {}
    for i, amp in terms:
        acc[_POOL[i]] = acc[_POOL[i]] + amp if _POOL[i] in acc else amp
    return float(np.sqrt(sum((a * a.conjugate()).real for a in acc.values() if abs(a) >= PRUNE_THRESHOLD)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(terms=_pool_terms())
@example(terms=[(2, complex(1e8, -1e-8)), (0, complex(-0.0, 0.25)), (2, complex(-1e8, 0.0)), (4, 1e-16j)])
@example(terms=[(5, complex(0.1, 0.2)), (5, complex(-0.1, -0.2)), (1, complex(-0.0, -0.0))])
def test_a_constructed_norm_keeps_its_dict_bits(terms):
    psi = qt.Superposition([(_POOL[i], amp) for i, amp in terms])
    expected = _dict_norm(terms).hex()
    assert psi.norm().hex() == expected
    assert qt.run(_POOL_TABLE, psi, 0).norms[0].hex() == expected


# ---------------------------------------------------------------------------
# chains against the per-term dict loops
# ---------------------------------------------------------------------------

def _chain(tables, start, ops):
    """Run `ops` ("apply", "adjoint" or ("run", n), with the table index
    cycling through `tables`) on the packed route and on the reference
    loops, comparing dict order and amplitude bits after every op."""
    psi = ref = start
    for i, op in enumerate(ops):
        table = tables[i % len(tables)]
        if op == "apply":
            psi, ref = qt.apply(table, psi), reference_apply(table, ref)
        elif op == "adjoint":
            psi = qt.apply_adjoint(table, psi)
            ref = reference_adjoint(table, ref)
        else:
            steps = op[1]
            result = qt.run(table, psi, steps, unchecked=True)
            norms = [ref.norm()]
            for _ in range(steps):
                ref = reference_apply(table, ref)
                norms.append(ref.norm())
            assert [n.hex() for n in result.norms] == [n.hex() for n in norms]
            psi = result.final
        assert _bits(psi) == _bits(ref), (i, op)
        assert psi.items() == ref.items()
    return psi


MIXED = ["apply", ("run", 3), "adjoint", "adjoint", "apply", ("run", 2), "adjoint", "apply"]


@pytest.mark.parametrize("indices", [(1, 51), (5, 55), (6, 56), (7, 57), (15, 7)], ids=str)
def test_mixed_chains_on_the_corpus(corpus, indices):
    # the same frame each time, so each op takes the packed route
    tables = [corpus[i].table for i in indices]
    assert tables[0].frame == tables[1].frame
    rng = np.random.default_rng(indices[0])
    window = qt.radius_window(tables[0].frame, 1)
    chosen = rng.choice(len(window), size=3, replace=False)
    start = qt.Superposition({window[i]: a for i, a in
                              zip(chosen, rng.standard_normal(3) + 1j * rng.standard_normal(3))})
    _chain(tables, start, MIXED)


def test_two_tape_mixed_chain():
    table = _machine("two_tape_identity")
    start = _start(table, [(0, (0, 0), ({}, {}), 0.6), (0, (2, -1), ({}, {}), 0.8j)])
    _chain([table], start, MIXED)


def test_long_chain_reframes_as_heads_drift(calls):
    table = _machine("counterexample")
    start = _start(table, [(0, (0,), ({},), 1.0)])
    steps = 3 * RUN_MARGIN
    psi = _chain([table], start, ["apply"] * steps)
    heads = [c.heads[0] for c in psi.configurations()]
    assert max(heads) - min(heads) > 2 * RUN_MARGIN
    _chain([table], psi, ["adjoint"] * steps)
    assert calls["reframe"] >= 2


def test_heads_far_apart_reframe_before_a_column_gap(calls):
    # Each head has adjacent columns on both sides for RUN_MARGIN cells, and
    # the columns jump to the next head, then to a cell 50 further on: both
    # heads reach a gap after RUN_MARGIN steps, long before the last column.
    table = _flipping_right_mover()
    start = _start(table, [(0, (0,), ({0: 1, 3: 1},), 0.6), (0, (10 ** 6,), ({10 ** 6 + 50: 1},), 0.8)])
    steps = 3 * RUN_MARGIN
    psi = _chain([table], start, ["apply"] * steps + [("run", steps)] + ["adjoint"] * steps)
    assert calls["reframe"] >= 4
    assert sorted(c.heads[0] for c in psi.configurations()) == [steps, 10 ** 6 + steps]


def test_empty_superposition_passes_through_a_chain():
    table = _machine("counterexample")
    psi = _chain([table], qt.Superposition(), ["apply", "adjoint", ("run", 3), "apply", "adjoint"])
    assert psi._packed is not None
    assert (len(psi), psi.norm(), psi.items()) == (0, 0.0, [])
    # every term pruned: empty, but packed on the columns of the step
    pruned = qt.run(table, _start(table, [(0, (0,), ({},), 1.5e-15)]), 1).final
    assert len(pruned) == 0 and len(pruned._packed[1].cols) > 0
    psi = _chain([table], pruned, ["adjoint", "apply", ("run", 2)])
    assert (len(psi), psi.norm(), psi.configurations(), repr(psi)) == \
        (0, 0.0, [], "Superposition(0 terms, norm=0)")


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def _outcome(call):
    try:
        return _bits(call())
    except ValueError as err:
        return f"ValueError: {err}"


@pytest.mark.parametrize("source, target", [
    ("two_tape_identity", "counterexample"),
    ("counterexample", "two_tape_identity"),
])
def test_packed_state_on_another_frame_raises_as_a_dict_state(source, target):
    built, table = _machine(source), _machine(target)
    psi = qt.apply(built, qt.Superposition.basis(qt.blank_configuration(built.frame)))
    copy = qt.Superposition(dict(psi._terms))
    for call in (lambda p: qt.apply(table, p),
                 lambda p: qt.apply_adjoint(table, p),
                 lambda p: qt.run(table, p, 2, unchecked=True).final):
        outcome = _outcome(lambda: call(_fresh(psi)))
        assert outcome == _outcome(lambda: call(copy))
        assert outcome == "ValueError: superposition does not match the table's frame"


def test_packed_state_on_a_wider_alphabet_runs_as_a_dict_state():
    # the frames differ, but every symbol of the state fits the table's frame
    wide = qt.pair_unitary_machine(qt.simple_frame(1, 3), np.eye(3)[[1, 0, 2]], [1])
    psi = qt.run(wide, _start(wide, [(0, (0,), ({1: 1},), 1.0)]), 2).final
    table = _flipping_right_mover()
    assert psi._packed[0].frame != table.frame
    assert _bits(qt.apply(table, _fresh(psi))) == _bits(reference_apply(table, psi))


# ---------------------------------------------------------------------------
# decoding happens only at the boundary
# ---------------------------------------------------------------------------

def test_an_adjoint_chain_decodes_nothing_until_items(calls, counterexample):
    start = _start(counterexample, [(0, (0,), ({},), 0.6), (1, (5,), ({},), 0.8)])
    ref = start
    for _ in range(10):
        ref = reference_adjoint(counterexample, ref)
    calls["decode"] = 0
    psi = start
    for _ in range(10):
        psi = qt.apply_adjoint(counterexample, psi)
    assert (len(psi), repr(psi), psi.norm().hex()) == (len(ref), repr(ref), ref.norm().hex())
    assert calls["decode"] == 0
    assert psi.items() == ref.items()
    assert calls["decode"] == 1
    assert psi.configurations() == ref.configurations()
    assert _bits(psi) == _bits(ref)  # builds the dict from the same decoding
    assert all(psi.amplitude(c) == a and c in psi for c, a in ref.items())
    assert psi == ref and calls["decode"] == 1


# ---------------------------------------------------------------------------
# run accounting
# ---------------------------------------------------------------------------

def test_run_logs_terms_and_width_per_step():
    table = _machine("counterexample")
    start = _start(table, [(0, (0,), ({},), 0.6), (1, (40,), ({},), 0.8)])
    steps = 2 * RUN_MARGIN + 3
    result = qt.run(table, start, steps)
    ref, counts, reach = start, [len(start)], [0]
    for _ in range(steps):
        # step t needs the cells next to every head it starts from
        reach.append(len({c.heads[0] + d for c in ref.configurations() for d in (-1, 0, 1)}))
        ref = reference_apply(table, ref)
        counts.append(len(ref))
    assert result.terms == tuple(counts)
    assert len(result.width) == steps + 1 and result.width[0] == 0
    assert result.width[-1] == len(result.final._packed[1].cols)
    assert all(w >= r for w, r in zip(result.width, reach))
    zero = qt.run(table, start, 0)
    assert (zero.final, zero.terms, zero.width) == (start, (2,), (0,))
