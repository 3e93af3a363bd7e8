"""Hand-written loop checkers, kept as an independent reference for the tests.

These are the column (a)-(d), row (a)-(f), Hirvensalo (H-a)-(H-d) and
two-tape (1)-(14) condition sets coded condition by condition as explicit
loops over rule indices.  The package evaluates the same sets as slices of
one matrix-product engine (`qturing.ktape`); the tests compare the two.

`check_ktape` here is the generated k-tape set as the engine computed it
before it moved to matrix products: one `np.einsum` per displacement and
move-pair choice, summed choice by choice.  It sums in another order than
the engine, so the tests hold the two to equal witnesses and residuals
within a relative 1e-13.  `gather_displacements` is the matrix-product
engine's first gather: every move-pair choice listed by `itertools.product`,
one fancy index, a transpose and one `@` per displacement.  It hands BLAS
the same matrices as the engine, so the tests hold the two to equal bits.

Each residual here also carries `near_max`: every witness whose value is
within `NEAR_MAX` of the condition's maximum (or `{None}` when the condition
quantifies over no tuple).  Among near-ties the two implementations may pick
different witnesses, so the tests accept any witness in that set.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from qturing.frame import MOVES
from qturing.ktape import (
    DEFAULT_TOLERANCE,
    ConditionId,
    ConditionResidual,
    ValidationReport,
    _first_max,
    _read_witness as _ktape_read_witness,
    _require_tapes,
    _sigma_names,
    generate_ktape_conditions,
)
from qturing.table import TransitionTable

NEAR_MAX = 1e-12


def _read_witness(frame, q: int, sflat: int, primed: bool = False):
    """`ktape._read_witness` with no writes, the sigma names built per call."""
    return _ktape_read_witness(frame, q, sflat, primed=primed, sigmas=_sigma_names(frame))


def _move_pairs(delta: int) -> list[tuple[int, int]]:
    return [(d, d2) for d in MOVES for d2 in MOVES if d - d2 == delta]


def _split_amplitudes(table: TransitionTable) -> np.ndarray:
    """View with the write vector and move vector split into per-tape axes:
    (Q, S, Q, T1..Tk, 3..3)."""
    frame = table.frame
    shape = (frame.state_count, frame.symbol_block, frame.state_count)
    shape += frame.symbol_counts + (3,) * frame.tape_count
    return table.amplitudes.reshape(shape)


@dataclass(frozen=True)
class ReferenceResidual(ConditionResidual):
    near_max: frozenset = frozenset()


class _MaxTracker:
    """Keep the strictly largest value and the first witness attaining it,
    plus every (value, witness) seen for the near-max set."""

    def __init__(self):
        self.value = 0.0
        self.witness = None
        self._seen = False
        self._all: list[tuple[float, object]] = []

    def update(self, value: float, witness):
        self._all.append((value, witness))
        if not self._seen or value > self.value:
            self.value = value
            self.witness = witness
            self._seen = True

    def residual(self, cid: ConditionId) -> ReferenceResidual:
        if not self._seen:
            return ReferenceResidual(cid, self.value, self.witness, frozenset({None}))
        near = frozenset(w for v, w in self._all if v >= self.value - NEAR_MAX)
        return ReferenceResidual(cid, self.value, self.witness, near)


def _amps_list(table: TransitionTable):
    """Nested python lists of python complex, for pure-python summation."""
    return table.amplitudes.tolist()


# ---------------------------------------------------------------------------
# Column conditions (single tape)
# ---------------------------------------------------------------------------

def check_column(table: TransitionTable, tolerance: float = DEFAULT_TOLERANCE) -> ValidationReport:
    """Orthonormal-column conditions (a)-(d) for a single-tape table."""
    _require_tapes(table, 1, "column")
    frame = table.frame
    a = _amps_list(table)
    Q = frame.state_count
    S = frame.symbol_counts[0]
    sname = frame.alphabets[0]

    cond_a = _MaxTracker()
    for q in range(Q):
        for s in range(S):
            total = 0.0
            for p in range(Q):
                for t in range(S):
                    for m in range(3):
                        x = a[q][s][p][t][m]
                        total += x.real * x.real + x.imag * x.imag
            cond_a.update(abs(total - 1.0), (("q", frame.states[q]), ("sigma", sname[s])))

    cond_b = _MaxTracker()
    for q in range(Q):
        for s in range(S):
            for q2 in range(Q):
                for s2 in range(S):
                    if (q, s) == (q2, s2):
                        continue
                    total = 0j
                    for p in range(Q):
                        for t in range(S):
                            for m in range(3):
                                total += a[q2][s2][p][t][m].conjugate() * a[q][s][p][t][m]
                    cond_b.update(
                        abs(total),
                        (("q", frame.states[q]), ("sigma", sname[s]),
                         ("q'", frame.states[q2]), ("sigma'", sname[s2])),
                    )

    # moves are stored at index d+1; condition (c) pairs move d with d-1
    cond_c = _MaxTracker()
    for q in range(Q):
        for s in range(S):
            for t in range(S):
                for q2 in range(Q):
                    for s2 in range(S):
                        for t2 in range(S):
                            total = 0j
                            for p in range(Q):
                                for d in (0, 1):
                                    total += a[q2][s2][p][t2][d].conjugate() * a[q][s][p][t][d + 1]
                            cond_c.update(
                                abs(total),
                                (("q", frame.states[q]), ("sigma", sname[s]), ("tau", sname[t]),
                                 ("q'", frame.states[q2]), ("sigma'", sname[s2]), ("tau'", sname[t2])),
                            )

    cond_d = _MaxTracker()
    for q in range(Q):
        for s in range(S):
            for t in range(S):
                for q2 in range(Q):
                    for s2 in range(S):
                        for t2 in range(S):
                            total = 0j
                            for p in range(Q):
                                total += a[q2][s2][p][t2][0].conjugate() * a[q][s][p][t][2]
                            cond_d.update(
                                abs(total),
                                (("q", frame.states[q]), ("sigma", sname[s]), ("tau", sname[t]),
                                 ("q'", frame.states[q2]), ("sigma'", sname[s2]), ("tau'", sname[t2])),
                            )

    residuals = (
        cond_a.residual(ConditionId("column", "a")),
        cond_b.residual(ConditionId("column", "b")),
        cond_c.residual(ConditionId("column", "c")),
        cond_d.residual(ConditionId("column", "d")),
    )
    return ValidationReport("column", tolerance, residuals)


# ---------------------------------------------------------------------------
# Row conditions (single tape)
# ---------------------------------------------------------------------------

def check_row(table: TransitionTable, tolerance: float = DEFAULT_TOLERANCE) -> ValidationReport:
    """Orthonormal-row conditions (a)-(f) for a single-tape table.

    tau_d denotes the written symbol paired with move d; the (a)/(b)/(c)
    sums read delta(q, sigma, p, tau_d, d) with tau_d drawn from the
    quantified triple (tau_-1, tau_0, tau_1).
    """
    _require_tapes(table, 1, "row")
    frame = table.frame
    a = _amps_list(table)
    Q = frame.state_count
    S = frame.symbol_counts[0]
    sname = frame.alphabets[0]

    def triple_witness(p, triple):
        return (("p", frame.states[p]),
                ("tau_-1", sname[triple[0]]), ("tau_0", sname[triple[1]]), ("tau_1", sname[triple[2]]))

    def triples() -> Iterator[tuple[int, int, int]]:
        for tm in range(S):
            for t0 in range(S):
                for tp in range(S):
                    yield (tm, t0, tp)

    cond_a = _MaxTracker()
    for p in range(Q):
        for triple in triples():
            total = 0.0
            for q in range(Q):
                for s in range(S):
                    for m in range(3):  # move d = m - 1 pairs with written symbol triple[m]
                        x = a[q][s][p][triple[m]][m]
                        total += x.real * x.real + x.imag * x.imag
            cond_a.update(abs(total - 1.0), triple_witness(p, triple))

    cond_b = _MaxTracker()
    for p in range(Q):
        for p2 in range(Q):
            if p == p2:
                continue
            for triple in triples():
                total = 0j
                for q in range(Q):
                    for s in range(S):
                        for m in range(3):
                            total += a[q][s][p2][triple[m]][m].conjugate() * a[q][s][p][triple[m]][m]
                cond_b.update(abs(total), triple_witness(p, triple) + (("p'", frame.states[p2]),))

    cond_c = _MaxTracker()
    for p in range(Q):
        for p2 in range(Q):
            for t0 in range(S):
                for t1 in range(S):
                    pair = {1: t0, 2: t1}  # move index d+1 for d in {0, 1}
                    total = 0j
                    for q in range(Q):
                        for s in range(S):
                            for m in (1, 2):
                                total += a[q][s][p2][pair[m]][m - 1].conjugate() * a[q][s][p][pair[m]][m]
                    cond_c.update(
                        abs(total),
                        (("p", frame.states[p]), ("p'", frame.states[p2]),
                         ("tau_0", sname[t0]), ("tau_1", sname[t1])),
                    )

    cond_d = _MaxTracker()
    for p in range(Q):
        for t in range(S):
            for p2 in range(Q):
                for t2 in range(S):
                    if t == t2:
                        continue
                    for m in range(3):
                        total = 0j
                        for q in range(Q):
                            for s in range(S):
                                total += a[q][s][p2][t2][m].conjugate() * a[q][s][p][t][m]
                        cond_d.update(
                            abs(total),
                            (("p", frame.states[p]), ("tau", sname[t]),
                             ("p'", frame.states[p2]), ("tau'", sname[t2]), ("d", m - 1)),
                        )

    cond_e = _MaxTracker()
    for p in range(Q):
        for t in range(S):
            for p2 in range(Q):
                for t2 in range(S):
                    if t == t2:
                        continue
                    for m in (1, 2):
                        total = 0j
                        for q in range(Q):
                            for s in range(S):
                                total += a[q][s][p2][t2][m - 1].conjugate() * a[q][s][p][t][m]
                        cond_e.update(
                            abs(total),
                            (("p", frame.states[p]), ("tau", sname[t]),
                             ("p'", frame.states[p2]), ("tau'", sname[t2]), ("d", m - 1)),
                        )

    cond_f = _MaxTracker()
    for p in range(Q):
        for t in range(S):
            for p2 in range(Q):
                for t2 in range(S):
                    total = 0j
                    for q in range(Q):
                        for s in range(S):
                            total += a[q][s][p2][t2][0].conjugate() * a[q][s][p][t][2]
                    cond_f.update(
                        abs(total),
                        (("p", frame.states[p]), ("tau", sname[t]),
                         ("p'", frame.states[p2]), ("tau'", sname[t2])),
                    )

    residuals = (
        cond_a.residual(ConditionId("row", "a")),
        cond_b.residual(ConditionId("row", "b")),
        cond_c.residual(ConditionId("row", "c")),
        cond_d.residual(ConditionId("row", "d")),
        cond_e.residual(ConditionId("row", "e")),
        cond_f.residual(ConditionId("row", "f")),
    )
    return ValidationReport("row", tolerance, residuals)


# ---------------------------------------------------------------------------
# Hirvensalo conditions (single tape; sufficient, not necessary)
# ---------------------------------------------------------------------------

def check_hirvensalo(table: TransitionTable, tolerance: float = DEFAULT_TOLERANCE) -> ValidationReport:
    _require_tapes(table, 1, "hirvensalo")
    frame = table.frame
    a = _amps_list(table)
    Q = frame.state_count
    S = frame.symbol_counts[0]
    sname = frame.alphabets[0]

    cond_a = _MaxTracker()
    for q in range(Q):
        for s in range(S):
            total = 0.0
            for p in range(Q):
                for t in range(S):
                    for m in range(3):
                        x = a[q][s][p][t][m]
                        total += x.real * x.real + x.imag * x.imag
            cond_a.update(abs(total - 1.0), (("q", frame.states[q]), ("sigma", sname[s])))

    cond_b = _MaxTracker()
    for q in range(Q):
        for s in range(S):
            for q2 in range(Q):
                for s2 in range(S):
                    if (q, s) == (q2, s2):
                        continue
                    total = 0j
                    for p in range(Q):
                        for t in range(S):
                            for m in range(3):
                                total += a[q2][s2][p][t][m].conjugate() * a[q][s][p][t][m]
                    cond_b.update(
                        abs(total),
                        (("q", frame.states[q]), ("sigma", sname[s]),
                         ("q'", frame.states[q2]), ("sigma'", sname[s2])),
                    )

    cond_c = _MaxTracker()
    for p in range(Q):
        for t in range(S):
            for m in range(3):
                for p2 in range(Q):
                    for t2 in range(S):
                        for m2 in range(3):
                            if (p, t, m) == (p2, t2, m2):
                                continue
                            total = 0j
                            for q in range(Q):
                                for s in range(S):
                                    total += a[q][s][p][t][m].conjugate() * a[q][s][p2][t2][m2]
                            cond_c.update(
                                abs(total),
                                (("p", frame.states[p]), ("tau", sname[t]), ("d", m - 1),
                                 ("p'", frame.states[p2]), ("tau'", sname[t2]), ("d'", m2 - 1)),
                            )

    cond_d = _MaxTracker()
    for q in range(Q):
        for s in range(S):
            for t in range(S):
                for q2 in range(Q):
                    for s2 in range(S):
                        for t2 in range(S):
                            for m in range(3):
                                for m2 in range(3):
                                    if m == m2:
                                        continue
                                    total = 0j
                                    for p in range(Q):
                                        total += a[q][s][p][t][m].conjugate() * a[q2][s2][p][t2][m2]
                                    cond_d.update(
                                        abs(total),
                                        (("q", frame.states[q]), ("sigma", sname[s]), ("tau", sname[t]), ("d", m - 1),
                                         ("q'", frame.states[q2]), ("sigma'", sname[s2]), ("tau'", sname[t2]),
                                         ("d'", m2 - 1)),
                                    )

    residuals = (
        cond_a.residual(ConditionId("hirvensalo", "H-a")),
        cond_b.residual(ConditionId("hirvensalo", "H-b")),
        cond_c.residual(ConditionId("hirvensalo", "H-c")),
        cond_d.residual(ConditionId("hirvensalo", "H-d")),
    )
    return ValidationReport("hirvensalo", tolerance, residuals)


# ---------------------------------------------------------------------------
# Two-tape conditions (1)-(14)
# ---------------------------------------------------------------------------

def check_two_tape(table: TransitionTable, tolerance: float = DEFAULT_TOLERANCE) -> ValidationReport:
    """Two-tape conditions (1)-(14), coded condition by condition.

    Amplitudes are addressed as a[q][s][p][t][m] with s, t flat symbol-vector
    indices (tape 1 major) and m the flat move index (d1, d2) -> 3*(d1+1)+(d2+1).
    """
    _require_tapes(table, 2, "two-tape")
    frame = table.frame
    a = _amps_list(table)
    Q = frame.state_count
    S1, S2 = frame.symbol_counts
    n1, n2 = frame.alphabets

    def sflat(s1, s2):
        return s1 * S2 + s2

    def mflat(d1, d2):
        return 3 * (d1 + 1) + (d2 + 1)

    def read_name(s):
        s1, s2 = divmod(s, S2)
        return f"({n1[s1]},{n2[s2]})"

    reads = range(S1 * S2)

    def read_pair_witness(q, s, q2, s2):
        return (("q", frame.states[q]), ("sigma", read_name(s)),
                ("q'", frame.states[q2]), ("sigma'", read_name(s2)))

    trackers = {i: _MaxTracker() for i in range(1, 15)}

    for q in range(Q):
        for s in reads:
            total = 0.0
            for p in range(Q):
                for t in reads:
                    for m in range(9):
                        x = a[q][s][p][t][m]
                        total += x.real * x.real + x.imag * x.imag
            trackers[1].update(abs(total - 1.0), (("q", frame.states[q]), ("sigma", read_name(s))))

    for q in range(Q):
        for s in reads:
            for q2 in range(Q):
                for s2 in reads:
                    if (q, s) == (q2, s2):
                        continue
                    total = 0j
                    for p in range(Q):
                        for t in reads:
                            for m in range(9):
                                total += a[q2][s2][p][t][m].conjugate() * a[q][s][p][t][m]
                    trackers[2].update(abs(total), read_pair_witness(q, s, q2, s2))

    # (3) and (4): tape-2 writes quantified, tape-1 write shared and summed.
    for q in range(Q):
        for s in reads:
            for t2w in range(S2):
                for q2 in range(Q):
                    for s2 in reads:
                        for t2w2 in range(S2):
                            witness = read_pair_witness(q, s, q2, s2) + (
                                ("tau_2", n2[t2w]), ("tau_2'", n2[t2w2]))
                            total3 = 0j
                            total4 = 0j
                            for p in range(Q):
                                for t1w in range(S1):
                                    tu = sflat(t1w, t2w)
                                    tp = sflat(t1w, t2w2)
                                    for d1 in MOVES:
                                        for d2 in (0, 1):
                                            total3 += (
                                                a[q2][s2][p][tp][mflat(d1, d2 - 1)].conjugate()
                                                * a[q][s][p][tu][mflat(d1, d2)]
                                            )
                                        total4 += (
                                            a[q2][s2][p][tp][mflat(d1, -1)].conjugate()
                                            * a[q][s][p][tu][mflat(d1, 1)]
                                        )
                            trackers[3].update(abs(total3), witness)
                            trackers[4].update(abs(total4), witness)

    # (7) and (12): tape-1 writes quantified, tape-2 write shared and summed.
    for q in range(Q):
        for s in reads:
            for t1w in range(S1):
                for q2 in range(Q):
                    for s2 in reads:
                        for t1w2 in range(S1):
                            witness = read_pair_witness(q, s, q2, s2) + (
                                ("tau_1", n1[t1w]), ("tau_1'", n1[t1w2]))
                            total7 = 0j
                            total12 = 0j
                            for p in range(Q):
                                for t2w in range(S2):
                                    tu = sflat(t1w, t2w)
                                    tp = sflat(t1w2, t2w)
                                    for d2 in MOVES:
                                        for d1 in (0, 1):
                                            total7 += (
                                                a[q2][s2][p][tp][mflat(d1 - 1, d2)].conjugate()
                                                * a[q][s][p][tu][mflat(d1, d2)]
                                            )
                                        total12 += (
                                            a[q2][s2][p][tp][mflat(-1, d2)].conjugate()
                                            * a[q][s][p][tu][mflat(1, d2)]
                                        )
                            trackers[7].update(abs(total7), witness)
                            trackers[12].update(abs(total12), witness)

    # (5), (6), (8)-(11), (13), (14): full write vectors quantified independently.
    # Each is a sum over p and over the stated (d1, d2) move pairs.
    def pair_conditions(q, s, t, q2, s2, t2):
        sums = {i: 0j for i in (5, 6, 8, 9, 10, 11, 13, 14)}
        for p in range(Q):
            ap = a[q][s][p][t]
            ap2 = a[q2][s2][p][t2]
            for d1 in (0, 1):
                sums[5] += ap2[mflat(d1 - 1, 1)].conjugate() * ap[mflat(d1, -1)]
                sums[9] += ap2[mflat(d1 - 1, -1)].conjugate() * ap[mflat(d1, 1)]
                for d2 in (0, 1):
                    sums[6] += ap2[mflat(d1 - 1, d2)].conjugate() * ap[mflat(d1, d2 - 1)]
                    sums[8] += ap2[mflat(d1 - 1, d2 - 1)].conjugate() * ap[mflat(d1, d2)]
            for d2 in (0, 1):
                sums[11] += ap2[mflat(-1, d2)].conjugate() * ap[mflat(1, d2 - 1)]
                sums[13] += ap2[mflat(-1, d2 - 1)].conjugate() * ap[mflat(1, d2)]
            sums[10] += ap2[mflat(-1, 1)].conjugate() * ap[mflat(1, -1)]
            sums[14] += ap2[mflat(-1, -1)].conjugate() * ap[mflat(1, 1)]
        return sums

    for q in range(Q):
        for s in reads:
            for t in reads:
                for q2 in range(Q):
                    for s2 in reads:
                        for t2 in reads:
                            witness = read_pair_witness(q, s, q2, s2) + (
                                ("tau", read_name(t)), ("tau'", read_name(t2)))
                            sums = pair_conditions(q, s, t, q2, s2, t2)
                            for i, v in sums.items():
                                trackers[i].update(abs(v), witness)

    residuals = tuple(
        trackers[i].residual(ConditionId("two-tape", str(i))) for i in range(1, 15)
    )
    return ValidationReport("two-tape", tolerance, residuals)


# ---------------------------------------------------------------------------
# Generated k-tape set: one einsum per move-pair choice
# ---------------------------------------------------------------------------

def _eval_zero_einsum(table: TransitionTable):
    """(residual, witness) of the normalization and the orthogonality half
    of D = 0, from the read Gram as one einsum."""
    frame = table.frame
    S = frame.symbol_block
    m = table.amplitudes.reshape(frame.state_count * S, -1)
    gram = np.einsum("ij,kj->ik", m, m.conj())
    value, (i,) = _first_max(np.abs(np.diagonal(gram) - 1.0))
    norm = value, _read_witness(frame, *divmod(i, S))
    n = gram.shape[0]
    value, idx = _first_max(np.abs(gram), np.less.outer(np.arange(n), np.arange(n)))
    witness = None
    if idx is not None:
        i, j = idx
        witness = _read_witness(frame, *divmod(i, S)) + _read_witness(frame, *divmod(j, S), primed=True)
    return norm, (value, witness)


def _eval_displacement_einsum(table: TransitionTable, displacement: tuple[int, ...]):
    frame = table.frame
    k = frame.tape_count
    split = _split_amplitudes(table)
    independent = [i for i in range(k) if displacement[i] != 0]
    shared = [i for i in range(k) if displacement[i] == 0]

    # einsum labels (integer form): q=0, s=1, p=2, q'=3, s'=4,
    # write axes 10+i (unprimed / shared), 30+i (primed independent).
    x_sub = [0, 1, 2] + [10 + i for i in range(k)]
    y_sub = [3, 4, 2] + [(10 + i) if i in shared else (30 + i) for i in range(k)]
    out_sub = [0, 1] + [10 + i for i in independent] + [3, 4] + [30 + i for i in independent]

    gram = None
    combos = [_move_pairs(displacement[i]) for i in range(k)]
    for choice in itertools.product(*combos):
        d_vec = tuple(pair[0] + 1 for pair in choice)
        d2_vec = tuple(pair[1] + 1 for pair in choice)
        x = split[(slice(None),) * (3 + k) + d_vec]
        y = split[(slice(None),) * (3 + k) + d2_vec]
        term = np.einsum(x, x_sub, y.conj(), y_sub, out_sub)
        gram = term if gram is None else gram + term

    value, idx = _first_max(np.abs(gram))
    if idx is None:
        return value, None
    half = 2 + len(independent)
    q, s = idx[0], idx[1]
    q2, s2 = idx[half], idx[half + 1]
    witness = _read_witness(frame, q, s)
    for pos, i in enumerate(independent):
        witness += ((f"tau_{i + 1}", frame.symbol_name(i, idx[2 + pos])),)
    witness += _read_witness(frame, q2, s2, primed=True)
    for pos, i in enumerate(independent):
        witness += ((f"tau_{i + 1}'", frame.symbol_name(i, idx[half + 2 + pos])),)
    return value, witness


def gather_displacements(table: TransitionTable) -> list[ConditionResidual]:
    """Every displacement condition of the catalog, as the matrix-product
    engine first gathered it: rows (q, sigma, tau_I), columns (choice, p,
    tau_shared), with the choices of d and d' indexed as one list."""
    frame = table.frame
    k = frame.tape_count
    split = _split_amplitudes(table)
    out = []
    for cid in generate_ktape_conditions(frame)[2:]:
        independent = [i for i in range(k) if cid.displacement[i] != 0]
        shared = [i for i in range(k) if cid.displacement[i] == 0]
        choices = np.array(list(itertools.product(*(_move_pairs(delta) for delta in cid.displacement)))) + 1
        d, d2 = tuple(choices[:, :, 0].T), tuple(choices[:, :, 1].T)
        order = [0, 1] + [3 + i for i in independent] + [3 + k, 2] + [3 + i for i in shared]
        side = (frame.state_count, frame.symbol_block) + tuple(frame.symbol_counts[i] for i in independent)
        xm = split[(Ellipsis,) + d].transpose(order).reshape(math.prod(side), -1)
        ym = split[(Ellipsis,) + d2].transpose(order).reshape(xm.shape)
        value, idx = _first_max(np.abs((xm @ ym.conj().T).reshape(side + side)))
        half = len(side)
        witness = _read_witness(frame, idx[0], idx[1])
        for pos, i in enumerate(independent):
            witness += ((f"tau_{i + 1}", frame.symbol_name(i, idx[2 + pos])),)
        witness += _read_witness(frame, idx[half], idx[half + 1], primed=True)
        for pos, i in enumerate(independent):
            witness += ((f"tau_{i + 1}'", frame.symbol_name(i, idx[half + 2 + pos])),)
        out.append(ConditionResidual(cid, value, witness))
    return out


def check_ktape(table: TransitionTable, tolerance: float = DEFAULT_TOLERANCE) -> ValidationReport:
    """The full generated condition set, one einsum per move-pair choice."""
    norm_id, orth_id, *shifts = generate_ktape_conditions(table.frame)
    norm, orth = _eval_zero_einsum(table)
    residuals = [ConditionResidual(norm_id, *norm), ConditionResidual(orth_id, *orth)]
    residuals += [ConditionResidual(cid, *_eval_displacement_einsum(table, cid.displacement))
                  for cid in shifts]
    return ValidationReport("ktape", tolerance, tuple(residuals))
