"""The packed step kernel against the loops it replaced, bit for bit:
`step_operator` against `reference_step_operator` (the per-configuration
`_Rules`/`_expand` loop), and `run` plus `apply_adjoint`, step by step,
against the per-term dict loops `reference_apply` and `reference_adjoint`.
Also: positions far apart or out of range, and the accounting of the
amplitude that pruning drops."""
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qturing as qt
from qturing.cli import bundled_machine_path, main

from conftest import random_table
from reference_oracle import reference_adjoint, reference_apply, reference_step_operator


def _bits(psi):
    """Dict order and the exact bits of every amplitude."""
    return [(c, a.real.hex(), a.imag.hex()) for c, a in psi._terms.items()]


def _machine(name):
    return qt.parse_machine(bundled_machine_path(name).read_text(encoding="utf-8"))


def _right_mover():
    frame = qt.simple_frame(2, 2)
    return qt.pair_unitary_machine(frame, qt.random_unitary(4, np.random.default_rng(3)), [1, 1])


def _wide_alphabet(symbols=200):
    """One state over `symbols` symbols: each read writes one of two
    permuted symbols and moves right or left, so a run branches every step
    and writes symbols above 127."""
    frame = qt.simple_frame(1, symbols)
    rules = []
    for s in range(symbols):
        rules.append((0, s, 0, (7 * s + 131) % symbols, 1, 0.6))
        rules.append((0, s, 0, (11 * s + 140) % symbols, -1, 0.8j))
    return qt.TransitionTable.from_rules(frame, rules)


def _start(table, terms):
    """A superposition of (state, heads, {cell: symbol} per tape, amp) terms."""
    frame = table.frame
    return qt.Superposition({
        qt.Configuration(state, tuple(qt.Tape(b, tuple(cells.items())) for b, cells in zip(frame.blanks, tapes)),
                         heads): amp
        for state, heads, tapes, amp in terms
    })


# ---------------------------------------------------------------------------
# step_operator against the per-configuration loop
# ---------------------------------------------------------------------------

def _assert_same_operator(table, configs, adjoint):
    rows, cols, vals, images = qt.step_operator(table, configs, adjoint=adjoint)
    ref_rows, ref_cols, ref_vals, ref_images = reference_step_operator(table, configs, adjoint=adjoint)
    assert (rows.dtype, cols.dtype, vals.dtype) == (ref_rows.dtype, ref_cols.dtype, ref_vals.dtype)
    assert np.array_equal(rows, ref_rows)
    assert np.array_equal(cols, ref_cols)
    assert [(v.real.hex(), v.imag.hex()) for v in vals.tolist()] == \
        [(v.real.hex(), v.imag.hex()) for v in ref_vals.tolist()]
    assert images == ref_images


# One valid and one invalid table per corpus frame with two symbols or two
# states and more, so every rule shape of the corpus is covered.
CORPUS_TABLES = [1, 5, 6, 7, 15, 51, 56, 57, 65]


@pytest.mark.parametrize("radius", [2, 3])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
@pytest.mark.parametrize("index", CORPUS_TABLES)
def test_step_operator_matches_reference_on_corpus(corpus, index, radius, adjoint):
    table = corpus[index].table
    _assert_same_operator(table, qt.radius_window(table.frame, radius), adjoint)


@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_step_operator_matches_reference_q2s2_r4(adjoint):
    table = random_table(qt.simple_frame(2, 2), np.random.default_rng(11), density=0.6)
    _assert_same_operator(table, qt.radius_window(table.frame, 4), adjoint)


@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_step_operator_matches_reference_two_tape_r1(adjoint):
    table = random_table(qt.simple_frame(1, 2, 2), np.random.default_rng(12), density=0.6)
    _assert_same_operator(table, qt.radius_window(table.frame, 1), adjoint)


@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_step_operator_matches_reference_on_wide_alphabet(adjoint):
    table = _wide_alphabet()
    psi = qt.run(table, _start(table, [(0, (0,), ({-1: 199, 0: 130, 2: 5},), 1.0)]), 4, unchecked=True).final
    _assert_same_operator(table, psi.configurations(), adjoint)


def test_step_operator_on_no_configurations(counterexample):
    for adjoint in (False, True):
        _assert_same_operator(counterexample, [], adjoint)


# ---------------------------------------------------------------------------
# run and apply_adjoint against the per-term dict loops
# ---------------------------------------------------------------------------

# (table, start terms, forward steps, adjoint steps).  Starting at amplitude
# 100, the 1e-16 rule's products clear the prune threshold.
RUN_CASES = {
    "counterexample 200 steps": (
        lambda: _machine("counterexample"), [(0, (0,), ({},), 1.0)], 200, 12),
    "Q2S2 right-mover 11 steps": (_right_mover, [(0, (0,), ({},), 1.0)], 11, 11),
    "two-tape identity": (
        lambda: _machine("two_tape_identity"),
        [(0, (0, 0), ({}, {}), 0.6), (0, (2, -1), ({}, {}), 0.8j)], 20, 20),
    "counterexample + 1e-16": (
        lambda: qt.perturb(_machine("counterexample"), (0, 0, 1, 0, 1), 1e-16),
        [(0, (0,), ({},), 100.0)], 20, 20),
    "200 symbols": (
        _wide_alphabet, [(0, (0,), ({-1: 199, 0: 130, 2: 5},), 0.6), (0, (3,), ({3: 128},), 0.8)], 6, 6),
    "empty": (lambda: _machine("counterexample"), [], 3, 3),
}


@pytest.mark.parametrize("name", sorted(RUN_CASES))
def test_run_and_adjoint_match_reference_bit_for_bit(name):
    build, terms, steps, back_steps = RUN_CASES[name]
    table = build()
    start = _start(table, terms)
    result = qt.run(table, start, steps, unchecked=True)
    ref, ref_norms = start, [start.norm()]
    for _ in range(steps):
        ref = reference_apply(table, ref)
        ref_norms.append(ref.norm())
    assert [n.hex() for n in result.norms] == [n.hex() for n in ref_norms]
    assert _bits(result.final) == _bits(ref)
    assert len(result.pruned_mass) == steps + 1
    psi = ref_back = result.final
    for _ in range(back_steps):
        psi = qt.apply_adjoint(table, psi, allow_multitape=True)
        ref_back = reference_adjoint(table, ref_back)
        assert _bits(psi) == _bits(ref_back)
    assert (len(psi) == 0) == (name == "empty")


def test_run_on_right_mover_reaches_4096_terms():
    assert len(qt.run(_right_mover(), _start(_right_mover(), [(0, (0,), ({},), 1.0)]), 11).final) == 4096


def test_counterexample_walk_spreads_140_cells():
    # beyond 140 cells the walk's amplitudes fall below the prune threshold
    table = _machine("counterexample")
    result = qt.run(table, _start(table, [(0, (0,), ({},), 1.0)]), 200)
    heads = [c.heads[0] for c in result.final.configurations()]
    assert (min(heads), max(heads), len(heads)) == (-140, 140, 561)
    assert 0.0 < sum(result.pruned_mass) < 1e-27


# ---------------------------------------------------------------------------
# Positions far apart or out of range
# ---------------------------------------------------------------------------

def test_far_apart_positions_run_in_little_memory(corpus):
    table = corpus[7].table  # valid-7, two states and two symbols
    start = _start(table, [(0, (0,), ({-10 ** 12: 1},), 0.6), (1, (10 ** 12,), ({},), 0.8)])
    ref = start
    for _ in range(3):
        ref = reference_apply(table, ref)
    tracemalloc.start()
    try:
        result = qt.run(table, start, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _bits(result.final) == _bits(ref)
    assert peak < 5 * 2 ** 20


@pytest.mark.parametrize("heads, cells", [
    ((2 ** 62 + 1,), {}),
    ((-(2 ** 62) - 1,), {}),
    ((10 ** 30,), {}),
    ((0,), {-(2 ** 63): 1}),
    ((0,), {2 ** 62 + 1: 1}),
])
def test_positions_out_of_range_are_refused(corpus, heads, cells):
    table = corpus[7].table
    psi = _start(table, [(0, heads, (cells,), 1.0)])
    for call in (
        lambda: qt.apply(table, psi),
        lambda: qt.apply_adjoint(table, psi),
        lambda: qt.run(table, psi, 1),
        lambda: qt.step_operator(table, psi.configurations()),
    ):
        with pytest.raises(ValueError, match=r"positions must lie within -2\*\*62\.\.2\*\*62"):
            call()


def test_positions_at_the_limit_run(corpus):
    table = corpus[7].table
    psi = _start(table, [(0, (2 ** 62,), ({-(2 ** 62): 1},), 1.0)])
    assert _bits(qt.run(table, psi, 2).final) == _bits(reference_apply(table, reference_apply(table, psi)))


@pytest.mark.parametrize("term, field", [
    ({"state": "0", "heads": [2 ** 62 + 1], "tapes": [[]], "amp": [1.0, 0.0]}, "heads"),
    ({"state": "0", "heads": [-(10 ** 20)], "tapes": [[]], "amp": [1.0, 0.0]}, "heads"),
    ({"state": "0", "heads": [0], "tapes": [[[-(2 ** 62) - 1, "B"]]], "amp": [1.0, 0.0]}, "tapes"),
])
def test_cli_start_file_position_out_of_range(capsys, tmp_path, term, field):
    start = tmp_path / "start.json"
    start.write_text(json.dumps([{"state": "1", "heads": [0], "amp": [0.0, 0.0]}, term]))
    code = main(["run", "counterexample", "--start", f"@{start}"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: start term 1: field {field!r} must be ")
    assert "-2**62..2**62" in err
    assert "Traceback" not in err


def test_cli_basis_spec_position_out_of_range(capsys):
    code = main(["run", "counterexample", "--start", f"state=0 heads={2 ** 62 + 1}"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: configuration positions must lie within -2**62..2**62\n"


# ---------------------------------------------------------------------------
# Pruned amplitude
# ---------------------------------------------------------------------------

@settings(derandomize=True, max_examples=60, deadline=None)
@given(index=st.integers(0, 49), seed=st.integers(0, 2 ** 32 - 1), terms=st.integers(1, 5),
       steps=st.integers(0, 8))
def test_norm_plus_pruned_mass_is_conserved(corpus, index, seed, terms, steps):
    # the corpus lists its 50 valid tables first
    assert corpus[index].expect_valid
    table = corpus[index].table
    rng = np.random.default_rng(seed)
    window = qt.radius_window(table.frame, 1)
    chosen = rng.choice(len(window), size=min(terms, len(window)), replace=False)
    amps = rng.standard_normal(len(chosen)) + 1j * rng.standard_normal(len(chosen))
    # amplitudes down to 1e-15 make some steps prune
    amps *= 10.0 ** rng.uniform(-15, 0, size=len(chosen))
    psi = qt.Superposition({window[i]: a for i, a in zip(chosen, amps)})
    result = qt.run(table, psi, steps)
    assert len(result.pruned_mass) == len(result.norms) == steps + 1
    assert result.pruned_mass[0] == 0.0
    for t, norm in enumerate(result.norms):
        assert abs(norm ** 2 + sum(result.pruned_mass[:t + 1]) - result.norms[0] ** 2) <= 1e-12


def test_pruning_drops_and_accounts_small_amplitude():
    # 1.5e-15 survives construction; through the counterexample's 0.5 rules
    # every image gets 7.5e-16, below the threshold, so the step drops all
    # four of them.
    table = _machine("counterexample")
    psi = _start(table, [(0, (0,), ({},), 1.5e-15), (1, (1000,), ({},), 1.0)])
    result = qt.run(table, psi, 1)
    assert len(result.final) == len(reference_apply(table, psi)) == 4
    assert result.pruned_mass[1] == pytest.approx(4 * 7.5e-16 ** 2, rel=1e-12)
    alone = qt.run(table, _start(table, [(0, (0,), ({},), 1.5e-15)]), 1)
    assert alone.norms[1] == 0.0 and len(alone.final) == 0
    assert alone.pruned_mass == (0.0, pytest.approx(alone.norms[0] ** 2, rel=1e-12))
