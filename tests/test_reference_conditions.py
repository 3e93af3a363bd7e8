"""The condition engine against the hand-written reference loops.

Column, row, hirvensalo and two-tape reports must agree with the loops in
`reference_conditions` on every table: equal verdicts, residuals within
1e-12, and a witness the loops also reach within 1e-12 of the maximum.

The generated k-tape set must agree with the einsum loop it replaced
(`reference_conditions.check_ktape`) on one to four tapes: equal verdicts,
equal witnesses and residuals within 1e-13 * max(1, |r|).  Where both
residuals are below ROUNDING the condition holds up to rounding error, its
maximum is taken over rounding errors alone and the two summation orders may
place it on different tuples, so there only the residuals are compared.

On the same tables every displacement's residual and witness must equal, bit
for bit, those of the engine's first gather
(`reference_conditions.gather_displacements`), which hands BLAS the same
matrices on the same host.
"""
import numpy as np
import pytest

import qturing as qt
import reference_conditions as reference

from conftest import random_table

ONE_TAPE_SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (4, 1)]
TWO_TAPE_SHAPES = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (2, 1, 2), (1, 2, 2), (2, 2, 2)]
ROUNDING = 1e-14


def _one_tape_tables(corpus) -> list[qt.TransitionTable]:
    """The corpus plus 160 seeded random tables; every fourth is a valid
    pair-unitary machine, the rest are dense to sparse random tables."""
    rng = np.random.default_rng(31)
    tables = [entry.table for entry in corpus]
    for i in range(160):
        frame = qt.simple_frame(*ONE_TAPE_SHAPES[i % len(ONE_TAPE_SHAPES)])
        if i % 4 == 0:
            dirs = [int(d) for d in rng.integers(-1, 2, size=frame.state_count)]
            unitary = qt.random_unitary(frame.state_count * frame.symbol_block, rng)
            tables.append(qt.pair_unitary_machine(frame, unitary, dirs))
        else:
            tables.append(random_table(frame, rng, density=float(rng.uniform(0.1, 1.0))))
    return tables


def _two_tape_tables() -> list[qt.TransitionTable]:
    """60 seeded two-tape tables; every fourth is a valid one-tape machine
    with a second tape that is only read and rewritten as blank."""
    rng = np.random.default_rng(32)
    tables = []
    for i in range(60):
        if i % 4 == 0:
            states, symbols = ONE_TAPE_SHAPES[i % len(ONE_TAPE_SHAPES)]
            dirs = [int(d) for d in rng.integers(-1, 2, size=states)]
            one = qt.pair_unitary_machine(qt.simple_frame(states, symbols),
                                          qt.random_unitary(states * symbols, rng), dirs)
            rules = [(q, (s, 0), p, (t, 0), (m - 1, 0), amp) for q, s, p, t, m, amp in one.nonzero_rules()]
            tables.append(qt.TransitionTable.from_rules(qt.simple_frame(states, symbols, 1), rules))
        else:
            frame = qt.simple_frame(*TWO_TAPE_SHAPES[i % len(TWO_TAPE_SHAPES)])
            tables.append(random_table(frame, rng, density=float(rng.uniform(0.1, 0.9))))
    return tables


@pytest.mark.parametrize("checker", ["column", "row", "hirvensalo", "two-tape"])
def test_engine_matches_reference_loops(checker, corpus):
    name = "check_" + checker.replace("-", "_")
    engine, loops = getattr(qt, name), getattr(reference, name)
    tables = _two_tape_tables() if checker == "two-tape" else _one_tape_tables(corpus)
    assert len(tables) == (60 if checker == "two-tape" else 260)
    failures = []
    for i, table in enumerate(tables):
        got, ref = engine(table), loops(table)
        if got.checker != ref.checker or got.passed != ref.passed:
            failures.append(f"table {i}: {got.checker} {got.verdict} against {ref.checker} {ref.verdict}")
        if [str(r.id) for r in got.residuals] != [str(r.id) for r in ref.residuals]:
            failures.append(f"table {i}: condition labels differ")
            continue
        for g, r in zip(got.residuals, ref.residuals):
            if not abs(g.residual - r.residual) <= 1e-12:
                failures.append(f"table {i} {g.id}: residual {g.residual!r} against {r.residual!r}")
            if g.witness not in r.near_max:
                failures.append(f"table {i} {g.id}: witness {g.witness} not among the reference maxima")
    assert not failures, failures[:5]


def _four_tape_tables() -> list[qt.TransitionTable]:
    """Seeded four-tape tables: dense and sparse random ones, a pair-unitary
    machine and a single-entry perturbation of it."""
    rng = np.random.default_rng(34)
    tables = [random_table(qt.simple_frame(1, 2, 1, 1, 1), rng, density=1.0),
              random_table(qt.simple_frame(2, 1, 1, 1, 2), rng, density=0.3)]
    frame = qt.simple_frame(2, 2, 1, 1, 1)
    moves = [tuple(int(d) for d in rng.integers(-1, 2, size=4)) for _ in range(2)]
    valid = qt.pair_unitary_machine(frame, qt.random_unitary(4, rng), moves)
    tables += [valid, qt.perturb(valid, (1, (1, 0, 0, 0), 0, (0, 0, 0, 0), (1, -1, 0, 1)), 0.25)]
    return tables


def test_generated_set_matches_einsum_loop(corpus, two_tape_corpus, three_tape_corpus, many_tape_corpus):
    # the einsum loop runs once per move-pair choice: beyond four tapes it is far too slow
    tables = (_one_tape_tables(corpus) + _two_tape_tables() + [entry.table for entry in two_tape_corpus]
              + [entry.table for entry in three_tape_corpus] + _four_tape_tables()
              + [entry.table for entry in many_tape_corpus if entry.table.frame.tape_count == 4])
    assert {table.frame.tape_count for table in tables} == {1, 2, 3, 4}
    failures = []
    for i, table in enumerate(tables):
        got, ref = qt.check_ktape(table), reference.check_ktape(table)
        if got.passed != ref.passed:
            failures.append(f"table {i}: {got.verdict} against {ref.verdict}")
        assert [r.id for r in got.residuals] == [r.id for r in ref.residuals]
        for g, r in zip(got.residuals, ref.residuals):
            if not abs(g.residual - r.residual) <= 1e-13 * max(1.0, abs(r.residual)):
                failures.append(f"table {i} {g.id}: residual {g.residual!r} against {r.residual!r}")
            if g.witness != r.witness and max(g.residual, r.residual) >= ROUNDING:
                failures.append(f"table {i} {g.id}: witness {g.witness} against {r.witness}")
    assert not failures, failures[:5]


def test_displacements_match_first_gather_bit_for_bit(corpus, two_tape_corpus, three_tape_corpus,
                                                      many_tape_corpus):
    tables = (_one_tape_tables(corpus) + _two_tape_tables() + [entry.table for entry in two_tape_corpus]
              + [entry.table for entry in three_tape_corpus] + _four_tape_tables()
              + [entry.table for entry in many_tape_corpus if entry.table.frame.tape_count == 4])
    assert {table.frame.tape_count for table in tables} == {1, 2, 3, 4}
    failures = []
    for i, table in enumerate(tables):
        got, ref = qt.check_ktape(table).residuals[2:], reference.gather_displacements(table)
        assert [r.id for r in got] == [r.id for r in ref]
        failures += [f"table {i} {g.id}: {g.residual!r} {g.witness} against {r.residual!r} {r.witness}"
                     for g, r in zip(got, ref) if (g.residual, g.witness) != (r.residual, r.witness)]
    assert not failures, failures[:5]
