"""The local transition rule table and its derived amplitude statistics.

Amplitudes live in a dense complex array indexed by
(state read, symbol vector read, state written, symbol vector written,
move vector); unassigned entries are 0.  Symbol and move vectors are
flattened with tape 1 most significant (see TuringFrame helpers).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .frame import TuringFrame, _as_vector


def _entry_index(frame: TuringFrame, q: int, sigma, p: int, tau, moves) -> tuple[int, int, int, int, int]:
    """The amplitude-array index of rule (q, sigma, p, tau, moves): ValueError
    for a non-integer state and IndexError for one outside 0..|Q|-1, then the
    vector checks of `_as_vector`, `symbol_flat` and `move_flat`.
    sigma/tau/moves may be scalars when the frame has a single tape."""
    # int() also keeps a bool state from indexing numpy as a mask
    if not (isinstance(q, numbers.Integral) and isinstance(p, numbers.Integral)):
        raise ValueError(f"state indices must be integers, got {q!r} and {p!r}")
    q, p = int(q), int(p)
    if not 0 <= q < frame.state_count or not 0 <= p < frame.state_count:
        raise IndexError("state index out of range")
    k = frame.tape_count
    return (
        q,
        frame.symbol_flat(_as_vector(sigma, k, "sigma")),
        p,
        frame.symbol_flat(_as_vector(tau, k, "tau")),
        frame.move_flat(_as_vector(moves, k, "moves")),
    )


# Every amplitude modulus is at most this.  The largest powers of it that are
# formed are fourth powers (the power iteration of `estimate_norm`), and
# 2**400 times any table or window size stays far below the float maximum,
# so every residual, Gram entry and norm stays finite.
_MAX_MODULUS = 2.0 ** 100


def _sealed(amps: np.ndarray) -> np.ndarray:
    """Mark a fresh amplitude array read-only, so that `TransitionTable`
    takes it over without a copy."""
    amps.flags.writeable = False
    return amps


@dataclass(frozen=True, eq=False)
class TransitionTable:
    frame: TuringFrame
    amplitudes: np.ndarray  # frame.table_shape, complex128
    # the step kernel that `evolution` derives from the (immutable)
    # amplitudes, built on first use and kept as long as the table lives
    _kernel: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        shape = self.frame.table_shape
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != shape:
            raise ValueError(f"amplitude array must have shape {shape}, got {amps.shape}")
        # an array that owns its data and is already read-only is taken over
        # as it is (`_sealed` hands fresh arrays over that way); any other is
        # copied, so the caller cannot write the table later
        if amps.flags.writeable or not amps.flags.owndata:
            amps = amps.copy()
            amps.flags.writeable = False
        # block by block, so the check makes no table-sized temporary
        flat = amps.reshape(-1)
        for at in range(0, flat.size, 1 << 16):
            if not np.all(np.abs(flat[at:at + (1 << 16)]) <= _MAX_MODULUS):
                raise ValueError("amplitudes must be finite with modulus at most 2**100")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def zeros(cls, frame: TuringFrame) -> "TransitionTable":
        return cls(frame, _sealed(np.zeros(frame.table_shape, dtype=np.complex128)))

    @classmethod
    def from_rules(cls, frame: TuringFrame, rules: Iterable[tuple]) -> "TransitionTable":
        """Build from (q, sigma, p, tau, moves, amp) tuples of indices.

        sigma/tau/moves may be scalars when the frame has a single tape.
        Two rules with the same (q, sigma, p, tau, moves) raise ValueError.
        """
        amps = np.zeros(frame.table_shape, dtype=np.complex128)
        seen = set()
        for i, (q, sigma, p, tau, moves, amp) in enumerate(rules):
            index = _entry_index(frame, q, sigma, p, tau, moves)
            if index in seen:
                raise ValueError(f"rule {i + 1}: duplicate rule key (q, sigma, p, tau, moves)")
            seen.add(index)
            amps[index] = complex(amp)
        return cls(frame, _sealed(amps))

    def with_entry(self, q: int, sigma, p: int, tau, moves, amp: complex) -> "TransitionTable":
        amps = self.amplitudes.copy()
        amps[_entry_index(self.frame, q, sigma, p, tau, moves)] = amp
        return TransitionTable(self.frame, _sealed(amps))

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
    return complex(table.amplitudes[_entry_index(table.frame, q, sigma_vec, p, tau_vec, d_vec)])


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
