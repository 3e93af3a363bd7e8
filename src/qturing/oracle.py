"""Brute-force verification against the condition checkers.

The oracle never looks at the condition sums: it expands every basis
configuration of a window through the step operator (or its adjoint) and
forms the whole Gram matrix A^H A, so a checker bug and an oracle bug would
have to coincide to hide a wrong verdict.  Two columns of A overlap only
where they share an image configuration, so the product is a self-join of
A's entries on image id; every other Gram entry is a structural zero.

This module also generates the test corpus: provably valid tables built
from unitary matrices with per-state directions, and invalid tables made
by perturbing single entries.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditions import DEFAULT_TOLERANCE
from .evolution import step_operator
from .frame import Configuration, TuringFrame, _as_vector
from .ktape import check_column
from .table import TransitionTable
from .windows import ConfigurationWindow, radius_window

__all__ = [
    "ConfigurationWindow",
    "radius_window",
    "GramCheck",
    "column_gram_check",
    "row_gram_check",
    "pair_unitary_machine",
    "random_unitary",
    "perturb",
    "CorpusEntry",
    "build_corpus",
    "simple_frame",
]


def simple_frame(states: int, *symbol_counts: int) -> TuringFrame:
    """A frame with generated names: states q0.., symbols B, s1, s2.. per tape."""
    if not symbol_counts:
        symbol_counts = (1,)
    alphabets = tuple(
        tuple(["B"] + [f"s{i}" for i in range(1, n)]) for n in symbol_counts
    )
    return TuringFrame(tuple(f"q{i}" for i in range(states)), alphabets)


@dataclass(frozen=True)
class GramCheck:
    side: str  # "columns" | "rows"
    radius: int
    tolerance: float
    diagonal_residual: float
    offdiagonal_residual: float
    witness: tuple[Configuration, Configuration] | None
    config_count: int
    pair_count: int

    @property
    def residual(self) -> float:
        return max(self.diagonal_residual, self.offdiagonal_residual)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def _gram_product(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int):
    """A^H A for the COO matrix A with n columns, as sorted keys i*n + j and
    the entry sums G[i, j] = sum_k conj(A[k, i]) A[k, j].

    Entries are stable-sorted by row and every two entries that share a row
    (an image) are paired, so the pairs run by image id, then column, and
    each G[i, j] adds its terms in image-id order.
    """
    order = np.argsort(rows, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    sizes = np.diff(np.append(starts, rows.size))
    fan = sizes * sizes
    group = np.repeat(np.arange(starts.size), fan)
    local = np.arange(fan.sum()) - np.repeat(np.cumsum(fan) - fan, fan)
    left = starts[group] + local // sizes[group]
    right = starts[group] + local % sizes[group]
    keys, inverse = np.unique(cols[left] * n + cols[right], return_inverse=True)
    # Real arithmetic, one rounding per product: numpy's complex multiply may
    # fuse multiply-adds, which leaves conj(v) v a nonzero imaginary part and
    # breaks the exact Hermitian symmetry of the entries.
    ar, ai = vals.real[left], vals.imag[left]
    br, bi = vals.real[right], vals.imag[right]
    sums = (
        np.bincount(inverse, weights=ar * br + ai * bi, minlength=keys.size)
        + 1j * np.bincount(inverse, weights=ar * bi - ai * br, minlength=keys.size)
    )
    return keys, sums


def _gram_check(table, radius, tolerance, side) -> GramCheck:
    # The full Gram matrix over the window is one A^H A product, where the
    # columns of A are the step-operator expansions of the window basis
    # states.  Every key the self-join produces is a structural overlap, so
    # the off-diagonal keys count the pairs even where values cancel exactly.
    window = radius_window(table.frame, radius)
    n = len(window)
    rows, cols, vals, _ = step_operator(table, window, adjoint=side == "rows")
    keys, sums = _gram_product(rows, cols, vals, n)
    i, j = np.divmod(keys, n)
    on_diag = i == j
    diagonal = np.zeros(n, dtype=np.complex128)
    diagonal[i[on_diag]] = sums[on_diag]
    diag_resid = np.abs(diagonal - 1.0)
    diag = float(diag_resid.max())
    off_i, off_j, off_abs = i[~on_diag], j[~on_diag], np.abs(sums[~on_diag])
    off = float(off_abs.max()) if off_abs.size else 0.0

    if diag >= off:
        k = int(np.argmax(diag_resid))
        witness = (window[k], window[k])
    else:
        # keys are sorted, so the first tie has the smallest (i, j)
        first = np.flatnonzero(off_abs == off)[0]
        witness = (window[off_i[first]], window[off_j[first]])

    return GramCheck(
        side=side,
        radius=radius,
        tolerance=tolerance,
        diagonal_residual=diag,
        offdiagonal_residual=off,
        witness=witness,
        config_count=n,
        pair_count=int(off_abs.size),
    )


def column_gram_check(
    table: TransitionTable, radius: int = 3, tolerance: float = DEFAULT_TOLERANCE
) -> GramCheck:
    """Isometry verdict by brute force: the column Gram matrix over the
    radius window must be the identity within tolerance."""
    return _gram_check(table, radius, tolerance, "columns")


def row_gram_check(
    table: TransitionTable, radius: int = 3, tolerance: float = DEFAULT_TOLERANCE
) -> GramCheck:
    """Co-isometry verdict by brute force over adjoint expansions (single tape)."""
    if table.frame.tape_count != 1:
        raise ValueError("row gram check covers single-tape frames")
    return _gram_check(table, radius, tolerance, "rows")


# ---------------------------------------------------------------------------
# Known-valid and known-invalid table generators
# ---------------------------------------------------------------------------

def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Gaussian, with fixed column phases."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def pair_unitary_machine(
    frame: TuringFrame, unitary: np.ndarray, directions
) -> TransitionTable:
    """Build a table from a unitary on the (state, symbol) pairs plus a
    per-state move: rule (q,s) -> (p,t) carries unitary[(p,t),(q,s)] on the
    move assigned to p, and 0 on the other moves.  The result always passes
    the column conditions, with the cross-shift conditions structurally zero.
    """
    if frame.tape_count != 1:
        raise ValueError("pair_unitary_machine covers single-tape frames")
    Q = frame.state_count
    S = frame.symbol_counts[0]
    dim = Q * S
    unitary = np.asarray(unitary, dtype=np.complex128)
    if unitary.shape != (dim, dim):
        raise ValueError(f"unitary must be {dim}x{dim} for this frame")
    defect = np.abs(unitary.conj().T @ unitary - np.eye(dim)).max()
    if defect > 1e-12:
        raise ValueError(f"matrix columns are not orthonormal (defect {defect:.3e})")
    if not isinstance(directions, dict):
        directions = {p: d for p, d in enumerate(directions)}
    moves = []
    for p in range(Q):
        if p not in directions:
            raise ValueError(f"directions must be total: state {frame.states[p]!r} has no move")
        d = directions[p]
        if d not in (-1, 0, 1):
            raise ValueError("directions must map every state to a move in {-1,0,1}")
        moves.append(d)

    amps = np.zeros((Q, S, Q, S, 3), dtype=np.complex128)
    for p in range(Q):
        block = unitary[p * S:(p + 1) * S, :].reshape(S, Q, S)
        amps[:, :, p, :, moves[p] + 1] = np.transpose(block, (1, 2, 0))
    return TransitionTable(frame, amps)


def perturb(table: TransitionTable, entry: tuple, epsilon: float) -> TransitionTable:
    """Shift one amplitude by a real epsilon; epsilon must be nonzero."""
    if epsilon == 0:
        raise ValueError("epsilon must be nonzero")
    q, sigma, p, tau, moves = entry
    old = table.amplitudes[
        q,
        table.frame.symbol_flat(_as_vector(sigma, table.frame.tape_count, "sigma")),
        p,
        table.frame.symbol_flat(_as_vector(tau, table.frame.tape_count, "tau")),
        table.frame.move_flat(_as_vector(moves, table.frame.tape_count, "moves")),
    ]
    return table.with_entry(q, sigma, p, tau, moves, complex(old) + epsilon)


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    table: TransitionTable
    expect_valid: bool
    label: str


_CORPUS_FRAMES = [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (1, 2), (2, 2)]


def _corpus_directions(kind: int, states: int, symbols: int, rng: np.random.Generator):
    # Mixed directions spread superpositions like a quantum walk; allow them
    # only on single-symbol alphabets where the tape stays blank and the
    # support is bounded by the head range.  Multi-symbol machines grow their
    # support exponentially while moving, so only every other one moves.
    if symbols == 1:
        if kind % 2 == 1:
            return [int(d) for d in rng.integers(-1, 2, size=states)]
        return [(-1, 0, 1)[kind % 3]] * states
    return [(0, 1, 0, -1)[kind % 4]] * states


def build_corpus(n_valid: int = 50, n_invalid: int = 50, seed: int = 7) -> list[CorpusEntry]:
    """Deterministic corpus: unitary-pair machines plus single-entry
    perturbations of them, each perturbation verified to break validity."""
    rng = np.random.default_rng(seed)
    entries: list[CorpusEntry] = []
    valid_tables: list[TransitionTable] = []
    kind_by_shape: dict[tuple[int, int], int] = {}
    for i in range(n_valid):
        states, symbols = _CORPUS_FRAMES[i % len(_CORPUS_FRAMES)]
        frame = simple_frame(states, symbols)
        unitary = random_unitary(states * symbols, rng)
        kind = kind_by_shape.get((states, symbols), 0)
        kind_by_shape[(states, symbols)] = kind + 1
        directions = _corpus_directions(kind, states, symbols, rng)
        table = pair_unitary_machine(frame, unitary, directions)
        valid_tables.append(table)
        entries.append(CorpusEntry(table, True, f"valid-{i} Q={states} S={symbols}"))

    for i in range(n_invalid):
        base = valid_tables[i % len(valid_tables)]
        frame = base.frame
        for _ in range(16):
            entry = (
                int(rng.integers(frame.state_count)),
                int(rng.integers(frame.symbol_counts[0])),
                int(rng.integers(frame.state_count)),
                int(rng.integers(frame.symbol_counts[0])),
                int(rng.integers(-1, 2)),
            )
            epsilon = float(rng.uniform(0.05, 0.5)) * (1 if rng.integers(2) else -1)
            table = perturb(base, entry, epsilon)
            if not check_column(table).passed:
                entries.append(
                    CorpusEntry(table, False,
                                f"invalid-{i} Q={frame.state_count} S={frame.symbol_counts[0]}")
                )
                break
        else:  # pragma: no cover - the epsilon range makes this unreachable
            raise RuntimeError("could not produce an invalid perturbation")
    return entries
