"""The local transition rule table and its derived amplitude statistics.

Amplitudes live in a dense complex array indexed by
(state read, symbol vector read, state written, symbol vector written,
move vector); unassigned entries are 0.  Symbol and move vectors are
flattened with tape 1 most significant (see TuringFrame helpers).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .frame import TuringFrame, _as_vector


@dataclass(frozen=True, eq=False)
class TransitionTable:
    frame: TuringFrame
    amplitudes: np.ndarray  # (|Q|, S, |Q|, S, 3^k) complex128
    # step kernels that `evolution` derives from the (immutable) amplitudes,
    # built on first use and kept as long as the table lives
    _kernels: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        frame = self.frame
        shape = (
            frame.state_count,
            frame.symbol_block,
            frame.state_count,
            frame.symbol_block,
            frame.move_block,
        )
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != shape:
            raise ValueError(f"amplitude array must have shape {shape}, got {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite (no NaN/inf)")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def zeros(cls, frame: TuringFrame) -> "TransitionTable":
        shape = (
            frame.state_count,
            frame.symbol_block,
            frame.state_count,
            frame.symbol_block,
            frame.move_block,
        )
        return cls(frame, np.zeros(shape, dtype=np.complex128))

    @classmethod
    def from_rules(cls, frame: TuringFrame, rules: Iterable[tuple]) -> "TransitionTable":
        """Build from (q, sigma, p, tau, moves, amp) tuples of indices.

        sigma/tau/moves may be scalars when the frame has a single tape.
        """
        shape = (
            frame.state_count,
            frame.symbol_block,
            frame.state_count,
            frame.symbol_block,
            frame.move_block,
        )
        amps = np.zeros(shape, dtype=np.complex128)
        k = frame.tape_count
        for q, sigma, p, tau, moves, amp in rules:
            s = frame.symbol_flat(_as_vector(sigma, k, "sigma"))
            t = frame.symbol_flat(_as_vector(tau, k, "tau"))
            m = frame.move_flat(_as_vector(moves, k, "moves"))
            if not 0 <= q < frame.state_count or not 0 <= p < frame.state_count:
                raise IndexError("state index out of range")
            amps[q, s, p, t, m] = complex(amp)
        return cls(frame, amps)

    def with_entry(self, q: int, sigma, p: int, tau, moves, amp: complex) -> "TransitionTable":
        k = self.frame.tape_count
        amps = self.amplitudes.copy()
        amps[
            q,
            self.frame.symbol_flat(_as_vector(sigma, k, "sigma")),
            p,
            self.frame.symbol_flat(_as_vector(tau, k, "tau")),
            self.frame.move_flat(_as_vector(moves, k, "moves")),
        ] = amp
        return TransitionTable(self.frame, amps)

    def rules_for(self, q: int, sigma_flat: int) -> list[tuple[int, int, int, complex]]:
        """Nonzero (p, tau_flat, move_flat, amplitude) entries for one read."""
        block = self.amplitudes[q, sigma_flat]
        out = []
        for p, t, m in zip(*np.nonzero(block)):
            out.append((int(p), int(t), int(m), complex(block[p, t, m])))
        return out

    def nonzero_rules(self) -> list[tuple[int, int, int, int, int, complex]]:
        """All nonzero (q, sigma_flat, p, tau_flat, move_flat, amplitude) entries."""
        out = []
        for q, s, p, t, m in zip(*np.nonzero(self.amplitudes)):
            out.append((int(q), int(s), int(p), int(t), int(m), complex(self.amplitudes[q, s, p, t, m])))
        return out


def amplitude(table: TransitionTable, q: int, sigma_vec, p: int, tau_vec, d_vec) -> complex:
    """Look up one rule amplitude; unset entries are 0."""
    frame = table.frame
    k = frame.tape_count
    if not 0 <= q < frame.state_count or not 0 <= p < frame.state_count:
        raise IndexError("state index out of range")
    s = frame.symbol_flat(_as_vector(sigma_vec, k, "sigma"))
    t = frame.symbol_flat(_as_vector(tau_vec, k, "tau"))
    m = frame.move_flat(_as_vector(d_vec, k, "d"))
    return complex(table.amplitudes[q, s, p, t, m])


@dataclass(frozen=True, eq=False)
class AmplitudeStatistics:
    """Outgoing-amplitude mass per read: row_sums[q, s] = sum of squared moduli,
    K = max over reads of the root-sum-square."""

    K: float
    row_sums: np.ndarray  # (|Q|, S) float64


def compute_statistics(table: TransitionTable) -> AmplitudeStatistics:
    mags = np.abs(table.amplitudes) ** 2
    row_sums = mags.sum(axis=(2, 3, 4))
    K = float(np.sqrt(row_sums.max())) if row_sums.size else 0.0
    row_sums = row_sums.copy()
    row_sums.flags.writeable = False
    return AmplitudeStatistics(K=K, row_sums=row_sums)


def norm_bound(stats: AmplitudeStatistics, frame: TuringFrame) -> float:
    """Guaranteed operator-norm bound sqrt(5) * K * |Q| * |Sigma|^2 (single tape)."""
    if frame.tape_count != 1:
        raise ValueError("the norm bound is proven for single-tape frames only")
    return math.sqrt(5.0) * stats.K * frame.state_count * frame.symbol_counts[0] ** 2


def is_unidirectional(table: TransitionTable) -> bool:
    """True iff the move vector is a function of the written state: all nonzero
    amplitudes entering a state p share one move vector."""
    amps = table.amplitudes
    for p in range(table.frame.state_count):
        moves = np.nonzero(np.abs(amps[:, :, p, :, :]).sum(axis=(0, 1, 2)))[0]
        if len(moves) > 1:
            return False
    return True
