import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qturing as qt
import reference_conditions
from qturing import ktape
from qturing.ktape import MAX_TAPES, displacement_label

from conftest import MULTI_COMPONENT_BREAKS, random_table


class TestGeneration:
    def test_count_law(self):
        """One catalog: normalization, orthogonality, then the displacements."""
        for k in range(1, MAX_TAPES + 1):
            frame = qt.simple_frame(1, *(1,) * k)
            ids = qt.generate_ktape_conditions(frame)
            assert len(ids) == qt.condition_count(k) == 1 + (5 ** k + 1) // 2
            assert [(cid.displacement, cid.part) for cid in ids[:2]] == [((0,) * k, "norm"), ((0,) * k, "orth")]
            assert all(cid.part is None and any(cid.displacement) for cid in ids[2:])
        assert [qt.condition_count(k) for k in (1, 2, 3, 4)] == [4, 14, 64, 314]

    def test_first_nonzero_component_positive(self):
        for k in (1, 2, 3):
            ids = qt.generate_ktape_conditions(qt.simple_frame(1, *(1,) * k))
            assert ids[0].displacement == ids[1].displacement == (0,) * k
            for cid in ids[2:]:
                first = next(d for d in cid.displacement if d != 0)
                assert first in (1, 2)

    def test_single_tape_labels(self):
        ids = qt.generate_ktape_conditions(qt.simple_frame(1, 1))
        assert [cid.name for cid in ids] == ["a", "b", "c", "d"]

    def test_two_tape_labels_follow_numbering_rule(self):
        # the displacement (D1, D2) carries classic number 5*D1 + D2 + 2
        ids = qt.generate_ktape_conditions(qt.simple_frame(1, 1, 1))
        assert [cid.name for cid in ids] == [str(i) for i in range(1, 15)]
        for cid in ids[2:]:
            d1, d2 = cid.displacement
            assert cid.name == str(5 * d1 + d2 + 2)
            assert (d1, d2) in set(
                itertools.chain(
                    itertools.product([0], [1, 2]),
                    itertools.product([1, 2], [-2, -1, 0, 1, 2]),
                )
            )

    def test_tape_count_capped(self):
        assert MAX_TAPES == 6
        frame = qt.simple_frame(1, *(1,) * 7)
        with pytest.raises(ValueError, match=r"^supported tape counts are 1\.\.6$"):
            qt.generate_ktape_conditions(frame)
        identity = qt.TransitionTable.from_rules(frame, [(0, (0,) * 7, 0, (0,) * 7, (0,) * 7, 1.0)])
        for check in (qt.check_ktape, qt.check_auto):
            with pytest.raises(ValueError, match="supported tape counts are 1..6"):
                check(identity)

    def test_higher_k_labels(self):
        assert displacement_label((0, 1, -2)) == "D=(0,1,-2)"
        assert displacement_label((0, 0), "norm") == "1"
        assert displacement_label((0,), "orth") == "b"
        for k in range(1, 4):
            for cid in qt.generate_ktape_conditions(qt.simple_frame(1, *(1,) * k)):
                assert displacement_label(cid.displacement, cid.part) == cid.name

    @pytest.mark.parametrize("displacement", [(-2,), (-1,), (3,), (0, 3), (0, -1), (-1, 2), (1, -3), ()])
    def test_label_refuses_a_displacement_outside_the_catalog(self, displacement):
        with pytest.raises(ValueError, match="is not in the catalog"):
            displacement_label(displacement)

    @pytest.mark.parametrize("displacement, part", [
        ((0,), None), ((0, 0, 0), None), ((0,), "bogus"), ((1,), "norm"), ((0, 1), "orth"), ((1,), "bogus"),
    ])
    def test_label_refuses_a_part_that_does_not_fit(self, displacement, part):
        with pytest.raises(ValueError, match="does not fit displacement"):
            displacement_label(displacement, part)


class TestEvaluation:
    def test_single_tape_shift_reproduces_column_c_and_d(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            table = random_table(qt.simple_frame(2, 2), rng)
            report = reference_conditions.check_column(table)
            generated = qt.check_ktape(table)
            for name in ("c", "d"):
                assert abs(generated.residual_for(name).residual - report.residual_for(name).residual) < 1e-12

    def test_two_tape_displacements_reproduce_named_conditions(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            table = random_table(qt.simple_frame(2, 2, 1), rng, density=0.5)
            report = reference_conditions.check_two_tape(table)
            by_disp = {r.id.displacement: r for r in qt.check_ktape(table).residuals[2:]}
            # (0,1) is condition 3, (1,-2) is condition 5
            for disp, name in (((0, 1), "3"), ((1, -2), "5"), ((2, 0), "12")):
                assert abs(by_disp[disp].residual - report.residual_for(name).residual) < 1e-12

    def test_specialization_verdicts_and_residuals(self):
        rng = np.random.default_rng(16)
        shapes = [(1, 1), (2, 1), (2, 2), (3, 2)]
        for i in range(40):
            frame = qt.simple_frame(*shapes[i % len(shapes)])
            table = random_table(frame, rng, density=0.6)
            direct = reference_conditions.check_column(table)
            generated = qt.check_ktape(table)
            assert direct.passed == generated.passed
            for a, b in zip(direct.residuals, generated.residuals):
                assert abs(a.residual - b.residual) < 1e-12

    def test_three_tape_checker_runs(self):
        frame = qt.simple_frame(1, 1, 1, 1)
        table = qt.TransitionTable.from_rules(
            frame, [(0, (0, 0, 0), 0, (0, 0, 0), (0, 0, 0), 1.0)]
        )
        report = qt.check_ktape(table)
        assert report.passed
        assert len(report.residuals) == 64
        assert all(r.residual == 0.0 for r in report.residuals)

    def test_three_tape_corpus_breaks_multi_component_displacements(self, three_tape_corpus):
        """Each targeted table fails, of all displacements, only the one its
        label names, which has two or three nonzero components; a `moved`
        table passes D = 0 as well."""
        targeted = [entry for entry in three_tape_corpus if entry.label.startswith(("shift", "moved"))]
        assert len(targeted) == 2 * len(MULTI_COMPONENT_BREAKS)
        assert any(entry.label.endswith("D=(2,2,2)") for entry in targeted)
        for entry in targeted:
            report = qt.check_ktape(entry.table)
            failing = {r.id.name for r in report.residuals if r.residual > report.tolerance}
            broken = entry.label.split()[-1]
            assert sum(c != "0" for c in broken[3:-1].split(",")) >= 2
            assert failing == ({"1", broken} if entry.label.startswith("shift") else {broken}), entry.label

    def test_many_tape_corpus_breaks_four_component_displacements(self, many_tape_corpus):
        """The `moved` tables on four and six tapes name displacements with
        four nonzero components; each fails, of all conditions, only that
        one.  The six-tape `check_ktape` reports 7,814 conditions in tens of
        milliseconds on a 2-vCPU Xeon."""
        moved = [entry for entry in many_tape_corpus if entry.label.startswith("moved")]
        assert [entry.table.frame.tape_count for entry in moved] == [4, 6]
        broken = [entry.label.split()[-1] for entry in moved]
        assert [sum(c != "0" for c in name[3:-1].split(",")) for name in broken] == [4, 4]
        for entry, name in zip(moved, broken):
            report = qt.check_ktape(entry.table)
            assert {r.id.name for r in report.residuals if r.residual > report.tolerance} == {name}

    def test_auto_checker_dispatch(self, counterexample):
        assert qt.check_auto(counterexample).checker == "column"
        frame2 = qt.simple_frame(1, 1, 1)
        t2 = qt.TransitionTable.from_rules(frame2, [(0, (0, 0), 0, (0, 0), (0, 0), 1.0)])
        assert qt.check_auto(t2).checker == "two-tape"
        frame3 = qt.simple_frame(1, 1, 1, 1)
        t3 = qt.TransitionTable.from_rules(frame3, [(0, (0, 0, 0), 0, (0, 0, 0), (0, 0, 0), 1.0)])
        assert qt.check_auto(t3).checker == "ktape"


@st.composite
def move_subset_tables(draw) -> qt.TransitionTable:
    """A table on one to four tapes whose rules use a drawn subset of the
    move vectors, from one vector up to all of them.  Its entries are
    complex Gaussians or, for exact sums and tied maxima, 0 and +-1/2 and
    +-i/2; an unused move vector holds +0 or, on some draws, -0."""
    k = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(1, 2), min_size=k, max_size=k).filter(lambda c: np.prod(c) <= 4))
    frame = qt.simple_frame(draw(st.integers(1, 2)), *counts)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.integers(1, frame.move_block) | st.just(frame.move_block))
    used = rng.choice(frame.move_block, size=size, replace=False)
    shape = frame.table_shape
    if draw(st.booleans()):
        amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    else:
        amps = rng.choice(np.array([0, 0.5, -0.5, 0.5j, -0.5j]), size=shape)
    amps[rng.random(shape) >= draw(st.floats(0.05, 1.0))] = 0
    # every drawn move vector keeps a nonzero entry
    amps.reshape(-1, frame.move_block)[rng.integers(np.prod(shape[:4]), size=len(used)), used] = 0.5
    unused = np.setdiff1d(np.arange(frame.move_block), used)
    amps[..., unused] = complex(-0.0, -0.0) if draw(st.booleans()) else 0
    return qt.TransitionTable(frame, amps)


def _index_0_witness(frame: qt.TuringFrame, displacement: tuple[int, ...]) -> tuple:
    """State 0 reading symbol 0 on every tape and, on every displaced tape,
    writing symbol 0: unprimed, then primed."""
    sigma = frame.alphabets[0][0] if frame.tape_count == 1 else "(" + ",".join(a[0] for a in frame.alphabets) + ")"
    halves = []
    for mark in ("", "'"):
        halves += [("q" + mark, frame.states[0]), ("sigma" + mark, sigma)]
        halves += [(f"tau_{i + 1}{mark}", frame.alphabets[i][0]) for i, d in enumerate(displacement) if d]
    return tuple(halves)


class TestReach:
    """A displacement D that no two used move vectors realize as d - d'
    holds exactly: every term of its sum has a zero factor."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(table=move_subset_tables())
    def test_drawn_move_subsets_match_first_gather_bit_for_bit(self, table):
        got, ref = qt.check_ktape(table).residuals[2:], reference_conditions.gather_displacements(table)
        assert [r.id for r in got] == [r.id for r in ref]
        assert [(r.residual, r.witness) for r in got] == [(r.residual, r.witness) for r in ref]

    @staticmethod
    def _assert_unreachable_are_zero_at_index_0(table: qt.TransitionTable) -> int:
        frame = table.frame
        moves = list(itertools.product((-1, 0, 1), repeat=frame.tape_count))
        used = [m for i, m in enumerate(moves) if np.any(table.amplitudes[..., i])]
        reachable = {tuple(a - b for a, b in zip(d, d2)) for d in used for d2 in used}
        unreachable = [r for r in qt.check_ktape(table).residuals[2:] if r.id.displacement not in reachable]
        for r in unreachable:
            assert repr(r.residual) == "0.0", r.id
            assert r.witness == _index_0_witness(frame, r.id.displacement), r.id
        return len(unreachable)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(table=move_subset_tables())
    def test_drawn_unreachable_displacements_are_zero_at_index_0(self, table):
        self._assert_unreachable_are_zero_at_index_0(table)

    def test_many_tape_corpus_unreachable_displacements_are_zero_at_index_0(self, many_tape_corpus):
        """Four to six tapes; the six-tape table is a one-state pair-unitary
        machine, which uses one move vector, so no displacement is in reach."""
        skipped = [self._assert_unreachable_are_zero_at_index_0(entry.table) for entry in many_tape_corpus]
        assert skipped[-1] == (5 ** 6 - 1) // 2


@pytest.mark.parametrize("entries", [1, 64, ktape._BATCH_ENTRIES])
def test_batches_of_any_size_keep_each_displacements_bits(monkeypatch, three_tape_corpus, entries):
    """Large products are stacked a few at a time; a stack of any size gives
    every displacement the bits of its own product.  At the default size the
    dense Q2 S(3,3) and Q2 S(2,2,2) tables stack their largest products (162
    and 128 rows) one at a time and their smaller ones together."""
    monkeypatch.setattr(ktape, "_BATCH_ENTRIES", entries)
    rng = np.random.default_rng(36)
    tables = [random_table(qt.simple_frame(2, 3, 3), rng, density=1.0),
              random_table(qt.simple_frame(2, 2, 2, 2), rng, density=1.0)]
    tables += [entry.table for entry in three_tape_corpus[-2:]]
    for table in tables:
        got, ref = qt.check_ktape(table).residuals[2:], reference_conditions.gather_displacements(table)
        assert [(r.id, r.residual, r.witness) for r in got] == [(r.id, r.residual, r.witness) for r in ref]


# Residual and witness reprs of check_ktape on k = 1..4, of check_column,
# check_row and check_hirvensalo on one tape and of check_two_tape on two, for
# seeded dense tables; run in-process and in a child interpreter.
_REPORTS_SOURCE = """
import numpy as np
import qturing as qt

def report_reprs():
    rng = np.random.default_rng(35)
    out = []
    for dims in [(8, 4), (2, 3, 3), (2, 2, 2, 2), (1, 2, 1, 1, 2)]:
        frame = qt.simple_frame(*dims)
        shape = frame.table_shape
        table = qt.TransitionTable(frame, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        checks = [qt.check_ktape] + {1: [qt.check_column, qt.check_row, qt.check_hirvensalo],
                                     2: [qt.check_two_tape]}.get(frame.tape_count, [])
        for check in checks:
            out += [repr((str(r.id), r.residual, r.witness)) for r in check(table).residuals]
    return out
"""


def test_single_blas_thread_gives_the_same_bits():
    """The engine's sums run in BLAS; one BLAS thread must give the same
    residual and witness bits as the default thread count, so CLI output
    does not depend on it."""
    namespace = {}
    exec(_REPORTS_SOURCE, namespace)
    in_process = namespace["report_reprs"]()
    src = str(pathlib.Path(qt.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", _REPORTS_SOURCE + "print('\\n'.join(report_reprs()))"],
                           env=env, capture_output=True, text=True, timeout=120, check=True)
    assert child.stdout.splitlines() == in_process
    assert len(in_process) == 4 + 4 + 6 + 4 + 14 + 14 + 64 + 314
