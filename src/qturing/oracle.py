"""Brute-force verification against the condition checkers.

The oracle never looks at the condition sums: it expands every basis
configuration of a window through the step operator (or its adjoint) and
forms the Gram matrix A^H A over the whole window, so a checker bug and an
oracle bug would have to coincide to hide a wrong verdict.  Its diagonal is
the column norms, one `bincount`.  Off it, two columns of A overlap only
where they share an image configuration, so the product is a self-join of
A's entries on image id; every other Gram entry is a structural zero.  Only
the strict upper half is formed, each entry paired with the later entries of
its image, as the lower half is its exact conjugate.  The self-join runs in
blocks of whole left columns of at most `_GRAM_BLOCK_PAIRS` image pairs, and
each block's residuals are folded into one running result, so memory follows
the operator's entries and not the pair count (which grows with the square
of an image's entries).  Each Gram entry still adds its terms in image order
and the blocks come in key order, so the residuals and the witness keep
their bits at any budget.  The window stays packed arrays
(`windows.PackedWindow`), kept on the table's kernel (`PackedWindow.of`: one
read-only window per table, for the last radius asked for, freed with the
table), so the column and the row check at one radius build it once,
with the parts of its terms that no rule changes.  Each entry names its
image by code, its parent's kept code parts plus its rule's delta, in the
smallest unsigned dtype that holds the codes; one stable sort of the codes
(`_groups`, by radix up to 16 bits) groups the entries by image, and
`_Kernel.operator`, the numbering of `step_operator`, puts the groups in
number order, ranking each group's first entry by its parent and its
rule's local transition (`_Layout.local_keys`, which reads the window's
kept last non-blank columns), with no image built; the self-join takes
the groups as they are, so each check sorts its entries once.  Only the
witness configurations are decoded, each from its packed row.

This module also generates the test corpus: provably valid tables built
from unitary matrices with per-state directions, and invalid tables made
by perturbing single entries.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .evolution import _Kernel, _groups, _runs
from .frame import MOVES, Configuration, TuringFrame, _is_integer
from .ktape import DEFAULT_TOLERANCE, _is_tolerance, _require_tolerance, check_column
from .table import TransitionTable, _sealed, amplitude
from .windows import PackedWindow

# The most image pairs one block of the Gram self-join forms, counting only
# strict pairs (an entry and a later entry of its image): a block's arrays
# peak at about 90-95 bytes a pair (tracemalloc), so about 1.5 MiB.
_GRAM_BLOCK_PAIRS = 2 ** 14

__all__ = [
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
    """A frame with generated names: states q0.., symbols B, s1, s2.. per tape.
    The state count and every symbol count must be positive Python or numpy
    integers (ValueError otherwise, a float or a bool included)."""
    if not symbol_counts:
        symbol_counts = (1,)
    if not all(_is_integer(count) and count >= 1 for count in (states, *symbol_counts)):
        raise ValueError(f"state and symbol counts must be positive integers, got {(states, *symbol_counts)!r}")
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


def _gram_blocks(cols: np.ndarray, vals: np.ndarray, sizes: np.ndarray, n: int):
    """The strict upper half of A^H A for the matrix A with n columns whose
    entries (cols, vals) come grouped by row (an image), `sizes` entries a
    row, each row's entries in increasing column order, block by block:
    each block's sorted keys i*n + j with i < j and its entry sums
    G[i, j] = sum_k conj(A[k, i]) A[k, j], the blocks in key order (none
    without pairs).  The Gram check folds them one by one (`_gram_residuals`).

    Every entry is paired with the entries after it in its image: the left
    entry at position p has `image end - p - 1` pairs, so every pair count
    is known before a pair is formed.  G[i, j] sums the pairs whose left
    entry is in column i, so the self-join splits into blocks of whole left
    columns.  Up to `_GRAM_BLOCK_PAIRS` pairs in all, one block takes the
    left entries in image order.  Beyond it, the left entries are taken in
    stable column order (which keeps image order within a column) and cut
    at column boundaries into blocks of at most `_GRAM_BLOCK_PAIRS` pairs, a
    larger column making a block of its own; so memory is bounded by the
    budget, not by the pair count.  Either way each G[i, j] adds its terms
    in image order, and the blocks come in increasing i, so their keys
    follow one another in key order: the sums, and the residuals folded
    from them, keep their bits whatever the budget.  Each product is done in
    real arithmetic with one rounding, so the lower half is the conjugate of
    the upper half bit for bit: G[j, i] = conj(G[i, j]).
    """
    count = sizes.cumsum().repeat(sizes) - np.arange(1, cols.size + 1)  # pairs per left entry
    left = count.nonzero()[0]  # every entry but the last of its image
    if count.sum() <= _GRAM_BLOCK_PAIRS:
        if left.size:
            yield _gram_pairs(cols, vals, left, count[left], n)
        return
    by_column = left[cols[left].argsort(kind="stable")]
    last = np.diff(cols[by_column], append=n).nonzero()[0]  # each column's last left entry
    through = count[by_column].cumsum()[last]  # pairs up to the end of each column
    column = 0
    while column < len(last):
        start = last[column - 1] + 1 if column else 0
        # the most whole columns within the budget, and at least one
        budget = (through[column - 1] if column else 0) + _GRAM_BLOCK_PAIRS
        column = max(int(np.searchsorted(through, budget, "right")), column + 1)
        block = by_column[start:last[column - 1] + 1]
        yield _gram_pairs(cols, vals, block, count[block], n)


def _gram_pairs(cols: np.ndarray, vals: np.ndarray, left: np.ndarray, count: np.ndarray, n: int):
    """The sorted keys and the sums of the pairs of the left entries `left`
    (positions in image order, each paired with the `count` entries after
    it), each key's terms added in the order of `left`."""
    first = count.cumsum() - count  # each left entry's first pair, which pairs it with the next entry
    shift = (first - left - 1).repeat(count)
    left = left.repeat(count)
    right = np.arange(left.size) - shift
    keys = cols[left] * n + cols[right]
    order, starts, inverse = _runs(keys)
    keys = keys[order[starts]]
    del order  # the products below set the peak memory
    # Real arithmetic, one rounding per product: numpy's complex multiply may
    # fuse multiply-adds, breaking the exact Hermitian symmetry of the entries.
    ar, ai = vals.real[left], vals.imag[left]
    br, bi = vals.real[right], vals.imag[right]
    sums = (
        np.bincount(inverse, weights=ar * br + ai * bi, minlength=keys.size)
        + 1j * np.bincount(inverse, weights=ar * bi - ai * br, minlength=keys.size)
    )
    return keys, sums


def _gram_residuals(keys: np.ndarray, sums: np.ndarray, n: int, largest: float, tie, pairs: int):
    """The largest off-diagonal modulus, the first (i, j) in key order that
    attains it (None before any block) and the off-diagonal pair count,
    folded with one block of `_gram_blocks` whose keys follow the folded
    ones.  Each key stands for two pairs of equal modulus, G[i, j] and
    G[j, i] = conj(G[i, j]); the first tie in key order is the first of the
    whole matrix too, because the mirror (j, i) of a tie comes after it."""
    moduli = np.abs(sums)
    first = int(moduli.argmax())  # the block's first tie
    if tie is None or moduli[first] > largest:  # a tie in a later block comes later in key order
        largest, tie = float(moduli[first]), divmod(int(keys[first]), n)
    return largest, tie, pairs + 2 * sums.size


def _column_norms(cols: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """The diagonal of A^H A: each column's |A[k, i]|^2 added in entry order."""
    return np.bincount(cols, weights=vals.real * vals.real + vals.imag * vals.imag, minlength=n)


def _gram_check(table, radius, tolerance, side) -> GramCheck:
    # The full Gram matrix over the window is one A^H A product, where the
    # columns of A are the step-operator expansions of the window basis
    # states.  Every key the self-join produces is a structural overlap, so
    # the keys count the pairs even where values cancel exactly.
    _require_tolerance(tolerance)
    kernel = _Kernel.of(table)
    window = PackedWindow.of(kernel, radius)
    n, adjoint = window.size, side == "rows"
    walk = kernel.kept(window.terms, adjoint)
    order, sizes = kernel.operator(window.last_nonblank, walk, adjoint,
                                   *_groups(window.image_codes(kernel, walk, adjoint, edges=True)))
    cols, vals = walk.parent[order], walk.coef[order]
    del walk, order  # the self-join below sets the peak memory
    diag_resid = np.abs(_column_norms(cols, vals, n) - 1.0)  # a column without entries: residual 1
    off, tie, pairs = 0.0, None, 0
    for keys, sums in _gram_blocks(cols, vals, sizes, n):
        off, tie, pairs = _gram_residuals(keys, sums, n, off, tie, pairs)
    diag = float(diag_resid.max())

    # only the witnesses are decoded into configurations, from their codes
    if diag >= off:
        config = window.configuration(np.argmax(diag_resid))
        witness = (config, config)
    else:
        witness = tuple(map(window.configuration, tie))

    return GramCheck(
        side=side,
        radius=radius,
        tolerance=tolerance,
        diagonal_residual=diag,
        offdiagonal_residual=off,
        witness=witness,
        config_count=n,
        pair_count=pairs,
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
    """Co-isometry verdict by brute force: the row Gram matrix, formed from
    the adjoint expansions over the radius window, must be the identity
    within tolerance."""
    return _gram_check(table, radius, tolerance, "rows")


# ---------------------------------------------------------------------------
# Known-valid and known-invalid table generators
# ---------------------------------------------------------------------------

def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Gaussian, with fixed column
    phases.  `dim` must be a nonnegative Python or numpy integer
    (ValueError otherwise, a float or a bool included)."""
    if not (_is_integer(dim) and dim >= 0):
        raise ValueError(f"dim must be a nonnegative integer, got {dim!r}")
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def pair_unitary_machine(
    frame: TuringFrame, unitary: np.ndarray, directions
) -> TransitionTable:
    """Build a table from a unitary on the (state, read vector) pairs plus a
    per-state move vector: rule (q,sigma) -> (p,tau) carries
    unitary[(p,tau),(q,sigma)] on the move vector assigned to p, and 0 on
    the other moves.  `directions` lists (or maps state index to) one move
    vector in {-1,0,1}^k per state; on one tape a move may be a scalar.
    The result always passes the column conditions, with the cross-shift
    conditions structurally zero.
    """
    Q, S, k = frame.state_count, frame.symbol_block, frame.tape_count
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
        d = np.atleast_1d(directions[p])
        if d.shape != (k,) or d.dtype.kind not in "iu" or not set(d.tolist()) <= set(MOVES):
            raise ValueError(f"directions must map every state to a move vector in {{-1,0,1}}^{k}")
        moves.append(frame.move_flat(d.tolist()))

    amps = np.zeros(frame.table_shape, dtype=np.complex128)
    for p in range(Q):
        block = unitary[p * S:(p + 1) * S, :].reshape(S, Q, S)
        amps[:, :, p, :, moves[p]] = np.transpose(block, (1, 2, 0))
    return TransitionTable(frame, _sealed(amps))


def perturb(table: TransitionTable, entry: tuple, epsilon: float) -> TransitionTable:
    """Shift one amplitude by a real epsilon: a nonzero finite real number,
    Python or numpy (ValueError otherwise, a bool included)."""
    magnitude = -epsilon if isinstance(epsilon, numbers.Real) and epsilon < 0 else epsilon
    if not _is_tolerance(magnitude) or magnitude == 0:
        raise ValueError(f"epsilon must be a nonzero finite real number, got {epsilon!r}")
    q, sigma, p, tau, moves = entry
    return table.with_entry(q, sigma, p, tau, moves, amplitude(table, q, sigma, p, tau, moves) + epsilon)


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
    perturbations of them, each perturbation verified to break validity.
    Both counts and the seed must be nonnegative Python or numpy integers
    (ValueError otherwise, a bool included), and invalid tables need a
    valid one to perturb."""
    if not all(_is_integer(count) and count >= 0 for count in (n_valid, n_invalid)):
        raise ValueError(f"corpus counts must be nonnegative integers, got {(n_valid, n_invalid)!r}")
    if not (_is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    if n_invalid and not n_valid:
        raise ValueError("n_invalid > 0 needs n_valid > 0: invalid tables perturb valid ones")
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
