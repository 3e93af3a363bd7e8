import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qturing as qt
import reference_conditions
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
        one.  The six-tape `check_ktape` evaluates 7,814 conditions in about
        0.5-0.8 s on a 2-vCPU Xeon."""
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


# Residual and witness reprs of check_ktape on k = 1..4 and of check_row and
# check_hirvensalo on one tape, for seeded dense tables; run in-process and
# in a child interpreter.
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
        checks = [qt.check_ktape] + ([qt.check_row, qt.check_hirvensalo] if frame.tape_count == 1 else [])
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
    assert len(in_process) == 4 + 6 + 4 + 14 + 64 + 314
