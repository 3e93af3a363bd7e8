"""Head slack carried with packed terms, and `run`'s verdict cache.

After every step of a chain, every head has at least `slack` adjacent
columns on each side of it in `cols`; `ready` hands terms with slack on
unchanged and re-frames every term set at slack 0, without looking at its
heads.  A re-frame changes no bit of the step that follows it, forward or
adjoint.  `run` checks a table once, whatever the tolerance, and keeps the
report on the table's kernel."""
import numpy as np
import pytest

import qturing as qt
from qturing import evolution
from qturing.cli import bundled_machine_path
from qturing.evolution import RUN_MARGIN, _Kernel

STEPS = 40


def _machine(name):
    return qt.parse_machine(bundled_machine_path(name).read_text(encoding="utf-8"))


def _right_mover():
    """Q2S2, both states moving right, on a permutation of the (state, read)
    pairs, so a 40-step run keeps a few terms while the heads travel."""
    permutation = np.eye(4)[[2, 0, 3, 1]]
    return qt.pair_unitary_machine(qt.simple_frame(2, 2), permutation, [1, 1])


def _start(table):
    frame = table.frame
    terms = {}
    for state, head, cells in ((0, -1, ((-1, 1),)), (1, 0, ((0, 1), (2, 1))), (0, 3, ())):
        tape = qt.Tape(frame.blanks[0], cells)
        terms[qt.Configuration(state, (tape,), (head,))] = 0.5 + 0.5j if state else 0.5
    return qt.Superposition(terms)


def _blank(table):
    return qt.Superposition.basis(qt.blank_configuration(table.frame))


def assert_heads_have_slack(psi):
    terms = psi._packed[1]
    cols, slack = terms.cols, terms.slack
    for head in np.unique(terms.heads).tolist():
        assert slack <= head < len(cols) - slack
        window = cols[head - slack:head + slack + 1]
        assert window.tolist() == list(range(cols[head] - slack, cols[head] + slack + 1))
    return slack


@pytest.mark.parametrize("make, start", [
    (_right_mover, _start),
    (lambda: _machine("counterexample"), _blank),
], ids=["Q2S2 right-mover", "counterexample"])
def test_every_step_keeps_its_slack(make, start):
    table = make()
    psi = start(table)
    slacks = []
    for _ in range(STEPS):
        psi = qt.apply(table, psi)
        slacks.append(assert_heads_have_slack(psi))
    for _ in range(STEPS):
        psi = qt.apply_adjoint(table, psi)
        slacks.append(assert_heads_have_slack(psi))
    # packing starts at RUN_MARGIN, each step spends one, and a chain re-frames
    assert slacks[0] == RUN_MARGIN - 1
    assert 0 in slacks and slacks.count(RUN_MARGIN - 1) > 1


def test_ready_reframes_exactly_the_terms_without_slack(counterexample):
    kernel = _Kernel.of(counterexample)
    psi = qt.Superposition.basis(qt.blank_configuration(counterexample.frame))
    terms = kernel.pack(*zip(*psi.items()))
    assert terms.slack == RUN_MARGIN

    def ready(terms):
        return kernel.ready(qt.Superposition._from_packed(kernel, terms, np.arange(1)))

    # a head at the last column: slack 1 hands it on, slack 0 re-frames it
    edge = terms._replace(heads=np.full_like(terms.heads, len(terms.cols) - 1), slack=1)
    assert ready(edge) is edge
    reframed = ready(edge._replace(slack=0))
    assert reframed.slack == RUN_MARGIN and reframed.heads.tolist() == [[RUN_MARGIN]]
    assert reframed.cols[RUN_MARGIN] == terms.cols[-1]
    # slack 0 with the head in the middle of its columns: re-framed as well,
    # onto the same columns
    inside = ready(terms._replace(slack=0))
    assert inside is not terms and inside.slack == RUN_MARGIN
    assert np.array_equal(inside.cols, terms.cols) and np.array_equal(inside.heads, terms.heads)


def _stationary_q2s2():
    """Q2S2, both states stationary, on a seeded random unitary of the
    (state, read) pairs: the heads stay and the cells under them take
    superpositions of both symbols."""
    unitary = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)) + 0j)[0]
    return qt.pair_unitary_machine(qt.simple_frame(2, 2), unitary, [0, 0])


@pytest.mark.parametrize("make, start, steps", [
    (lambda: _machine("counterexample"), _blank, STEPS),
    (_right_mover, _start, STEPS),
    (_stationary_q2s2, _start, STEPS),
    (lambda: _machine("three_tape_pair"), _blank, RUN_MARGIN),
], ids=["counterexample", "Q2S2 right-mover", "Q2S2 stationary", "three_tape_pair"])
def test_reframing_is_invisible_to_a_step(make, start, steps):
    """Along a chain, the terms every step takes (which have slack) step,
    forward and adjoint, to the same amplitude bytes, first-reached order,
    pruned mass and configurations after `reframe` as without it."""
    table = make()
    kernel = _Kernel.of(table)
    psi = start(table)
    for _ in range(steps):
        terms = kernel.ready(psi)
        assert terms.slack >= 1
        reframed = kernel.reframe(terms)
        for adjoint in (False, True):
            (a, a_reached, a_dropped), (b, b_reached, b_dropped) = (
                kernel.step(terms, adjoint), kernel.step(reframed, adjoint))
            assert a.amps.tobytes() == b.amps.tobytes()
            assert np.array_equal(a_reached, b_reached)
            assert a_dropped.hex() == b_dropped.hex()
            assert kernel.configurations(a) == kernel.configurations(b)
        psi = qt.apply(table, psi)


class TestVerdictCache:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counting(table, tolerance):
            seen.append((table, tolerance))
            return qt.check_auto(table, tolerance)

        monkeypatch.setattr(evolution, "check_auto", counting)
        return seen

    def test_one_check_per_table_and_tolerance(self, calls):
        """One check per table, whatever the tolerance of later runs."""
        table = _machine("counterexample")
        psi = qt.Superposition.basis(qt.blank_configuration(table.frame))
        first = qt.run(table, psi, 3)
        for _ in range(3):
            assert qt.run(table, psi, 3).norms == first.norms
        qt.run(table, psi, 1, tolerance=1e-6)
        qt.run(table, psi, 1, tolerance=0.0)
        assert calls == [(table, qt.DEFAULT_TOLERANCE)]
        assert _Kernel.of(table).verdict.checker == "column"
        other = _machine("counterexample")  # an equal table is another table
        qt.run(other, psi, 1)
        assert len(calls) == 2

    def test_one_report_serves_every_tolerance(self, calls):
        """A table whose largest residual is about 2e-7 runs at a tolerance
        above it and raises below it, from the one report, in either order."""
        exact = _right_mover()
        psi = qt.Superposition.basis(qt.blank_configuration(exact.frame))
        for tolerances in ((1e-6, qt.DEFAULT_TOLERANCE), (qt.DEFAULT_TOLERANCE, 1e-6)):
            table = qt.TransitionTable(exact.frame, exact.amplitudes * (1 + 1e-7))
            before = len(calls)
            for tolerance in tolerances * 2:
                if tolerance == 1e-6:
                    assert qt.run(table, psi, 1, tolerance=tolerance).norms[0] == 1.0
                else:
                    with pytest.raises(ValueError, match=r"column conditions \(max residual 2\.000e-07\)"):
                        qt.run(table, psi, 1, tolerance=tolerance)
            assert calls[before:] == [(table, tolerances[0])]

    def test_failing_table_raises_every_time(self, calls):
        table = qt.TransitionTable.zeros(qt.simple_frame(1, 1))
        psi = qt.Superposition.basis(qt.blank_configuration(table.frame))
        for _ in range(3):
            with pytest.raises(ValueError, match="table fails the column conditions"):
                qt.run(table, psi, 1)
        assert len(calls) == 1

    def test_unchecked_runs_leave_the_cache_empty(self, calls):
        table = _machine("counterexample")
        psi = qt.Superposition.basis(qt.blank_configuration(table.frame))
        qt.run(table, psi, 2, unchecked=True)
        assert calls == [] and _Kernel.of(table).verdict is None
        qt.run(table, psi, 2)
        qt.run(table, psi, 2, unchecked=True)
        assert len(calls) == 1
