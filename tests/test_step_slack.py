"""Head slack carried with packed terms, and `run`'s verdict cache.

After every step of a chain, every head has at least `slack` adjacent
columns on each side of it in `cols`; `ready` hands terms with slack on
unchanged and scans only terms at slack 0.  `run` checks a table once per
tolerance and keeps the report on the table's kernel."""
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
    (lambda: _machine("counterexample"), lambda t: qt.Superposition.basis(qt.blank_configuration(t.frame))),
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


def test_ready_scans_only_terms_without_slack(counterexample):
    kernel = _Kernel.of(counterexample)
    psi = qt.Superposition.basis(qt.blank_configuration(counterexample.frame))
    terms = kernel.pack(*zip(*psi.items()))
    assert terms.slack == RUN_MARGIN
    # a head at the last column: a scan would re-frame, slack 1 hands it on
    edge = terms._replace(heads=np.full_like(terms.heads, len(terms.cols) - 1), slack=1)
    assert kernel.ready(qt.Superposition._from_packed(kernel, edge, np.arange(1))) is edge
    reframed = kernel.ready(qt.Superposition._from_packed(kernel, edge._replace(slack=0), np.arange(1)))
    assert reframed.slack == RUN_MARGIN and reframed.heads.tolist() == [[RUN_MARGIN]]
    assert reframed.cols[RUN_MARGIN] == terms.cols[-1]


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
        table = _machine("counterexample")
        psi = qt.Superposition.basis(qt.blank_configuration(table.frame))
        first = qt.run(table, psi, 3)
        for _ in range(3):
            assert qt.run(table, psi, 3).norms == first.norms
        assert calls == [(table, qt.DEFAULT_TOLERANCE)]
        qt.run(table, psi, 1, tolerance=1e-6)
        qt.run(table, psi, 1, tolerance=1e-6)
        assert calls == [(table, qt.DEFAULT_TOLERANCE), (table, 1e-6)]
        assert sorted(_Kernel.of(table).verdicts) == sorted([qt.DEFAULT_TOLERANCE, 1e-6])
        other = _machine("counterexample")  # an equal table is another table
        qt.run(other, psi, 1)
        assert len(calls) == 3

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
        assert calls == [] and _Kernel.of(table).verdicts == {}
        qt.run(table, psi, 2)
        qt.run(table, psi, 2, unchecked=True)
        assert len(calls) == 1
