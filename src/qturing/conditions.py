"""Report types shared by every unitarity checker.

The checkers themselves live in `ktape`, where each condition set (column,
row, hirvensalo, two-tape and the generated k-tape set) is a slice of a few
matrix products on the rule amplitudes.  The hand-written loops over the
same sets are kept in the tests as an independent reference.

Residual semantics: normalization conditions report max |sum - 1| over their
parameter tuples, orthogonality conditions max |sum|; a report passes iff
every residual is within tolerance.  The worst parameter tuple is kept as a
witness, ties broken by the first tuple in canonical index order.

Checkers are pure functions of immutable tables; evaluation is sequential
and deterministic, so identical tables always yield identical reports.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

DEFAULT_TOLERANCE = 1e-9


def _is_tolerance(value) -> bool:
    """Whether `value` is a finite real number >= 0, Python or numpy; a
    bool, NaN, an infinity and a string are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 <= value < math.inf


def _require_tolerance(value) -> None:
    """ValueError unless `_is_tolerance(value)`: every checker's and Gram
    check's tolerance, and `run`'s."""
    if not _is_tolerance(value):
        raise ValueError(f"tolerance must be a finite number >= 0, got {value!r}")


@dataclass(frozen=True)
class ConditionId:
    family: str  # "column" | "row" | "hirvensalo" | "two-tape" | "ktape"
    name: str  # label shown in reports: "a".."f", "H-a".."H-d", "1".."14", ...
    displacement: tuple[int, ...] | None = None  # ktape family only
    part: str | None = None  # "norm" | "orth" for the zero displacement

    def __str__(self):
        return f"{self.family}-{self.name}"


@dataclass(frozen=True)
class ConditionResidual:
    id: ConditionId
    residual: float
    witness: tuple[tuple[str, object], ...] | None

    @property
    def witness_dict(self) -> dict | None:
        return None if self.witness is None else dict(self.witness)


@dataclass(frozen=True)
class ValidationReport:
    checker: str
    tolerance: float
    residuals: tuple[ConditionResidual, ...]

    @property
    def passed(self) -> bool:
        return all(r.residual <= self.tolerance for r in self.residuals)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    @property
    def max_residual(self) -> float:
        return max((r.residual for r in self.residuals), default=0.0)

    def residual_for(self, name: str) -> ConditionResidual:
        for r in self.residuals:
            if r.id.name == name:
                return r
        raise KeyError(name)
