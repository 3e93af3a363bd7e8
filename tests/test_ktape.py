import itertools

import numpy as np
import pytest

import qturing as qt
import reference_conditions
from qturing.ktape import MAX_TAPES, displacement_label

from conftest import random_table


class TestGeneration:
    def test_count_law(self):
        for k in range(1, 5):
            frame = qt.simple_frame(1, *(1,) * k)
            ids = qt.generate_ktape_conditions(frame)
            assert len(ids) == 1 + (5 ** k - 1) // 2
            expanded = qt.expand_condition_ids(ids)
            assert len(expanded) == 1 + (5 ** k + 1) // 2
            assert len(expanded) == qt.condition_count(k)
        assert [qt.condition_count(k) for k in (1, 2, 3, 4)] == [4, 14, 64, 314]

    def test_first_nonzero_component_positive(self):
        for k in (1, 2, 3):
            ids = qt.generate_ktape_conditions(qt.simple_frame(1, *(1,) * k))
            assert ids[0].displacement == (0,) * k
            for cid in ids[1:]:
                first = next(d for d in cid.displacement if d != 0)
                assert first in (1, 2)

    def test_single_tape_labels(self):
        ids = qt.expand_condition_ids(qt.generate_ktape_conditions(qt.simple_frame(1, 1)))
        assert [cid.name for cid in ids] == ["a", "b", "c", "d"]

    def test_two_tape_labels_follow_numbering_rule(self):
        # the displacement (D1, D2) carries classic number 5*D1 + D2 + 2
        ids = qt.expand_condition_ids(qt.generate_ktape_conditions(qt.simple_frame(1, 1, 1)))
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
            ids = qt.generate_ktape_conditions(table.frame)
            by_disp = {cid.displacement: cid for cid in ids}
            res_c = qt.evaluate_ktape_condition(table, by_disp[(1,)])
            res_d = qt.evaluate_ktape_condition(table, by_disp[(2,)])
            assert abs(res_c.residual - report.residual_for("c").residual) < 1e-12
            assert abs(res_d.residual - report.residual_for("d").residual) < 1e-12

    def test_two_tape_displacements_reproduce_named_conditions(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            table = random_table(qt.simple_frame(2, 2, 1), rng, density=0.5)
            report = reference_conditions.check_two_tape(table)
            ids = {cid.displacement: cid for cid in qt.generate_ktape_conditions(table.frame)}
            # (0,1) is condition 3, (1,-2) is condition 5
            for disp, name in (((0, 1), "3"), ((1, -2), "5"), ((2, 0), "12")):
                got = qt.evaluate_ktape_condition(table, ids[disp])
                assert abs(got.residual - report.residual_for(name).residual) < 1e-12

    def test_zero_id_combines_norm_and_orth(self, counterexample):
        table = counterexample.with_entry(0, 0, 0, 0, 0, 0.6)
        zero = qt.generate_ktape_conditions(table.frame)[0]
        combined = qt.evaluate_ktape_condition(table, zero)
        parts = [
            qt.evaluate_ktape_condition(table, part)
            for part in qt.expand_condition_ids([zero])
        ]
        assert combined.residual == max(p.residual for p in parts)

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

    def test_mismatched_id_rejected(self, counterexample):
        cid = qt.generate_ktape_conditions(qt.simple_frame(1, 1, 1))[0]
        with pytest.raises(ValueError):
            qt.evaluate_ktape_condition(counterexample, cid)

    def test_auto_checker_dispatch(self, counterexample):
        assert qt.check_auto(counterexample).checker == "column"
        frame2 = qt.simple_frame(1, 1, 1)
        t2 = qt.TransitionTable.from_rules(frame2, [(0, (0, 0), 0, (0, 0), (0, 0), 1.0)])
        assert qt.check_auto(t2).checker == "two-tape"
        frame3 = qt.simple_frame(1, 1, 1, 1)
        t3 = qt.TransitionTable.from_rules(frame3, [(0, (0, 0, 0), 0, (0, 0, 0), (0, 0, 0), 1.0)])
        assert qt.check_auto(t3).checker == "ktape"
