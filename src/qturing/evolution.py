"""Sparse superpositions and the action of the evolution operator on them.

A superposition is a finite map from configurations to complex amplitudes;
amplitudes below the pruning threshold are dropped after every accumulation.

One packed kernel expands basis states through the step operator or its
adjoint.  Terms are packed as arrays: `state (n,)`, `heads (n, k)` and
`cells (n, k, W)`, where `heads` index a sorted array of W cell positions
shared by all terms and `cells` holds symbols in the smallest unsigned
dtype that fits the alphabets.  The columns are the cells that are
non-blank in some term or within a few cells of some head, so W is bounded
by the data, never by the coordinates: heads at 0 and 10**12 take a few
dozen columns.  Positions must lie within +-2**62 (`MAX_POSITION`).  The
rules are CSR arrays read off the table's nonzero amplitudes once per
table.  A step repeats every term once per matching rule, scatters the
written symbols, numbers the distinct images in first-reached order with a
stable sort of compact byte rows and sums amp * coef per image with
`np.bincount`.

Every order matches the per-configuration loop the kernel replaced, so
results are bit-reproducible: terms are taken in `Superposition.items()`
order, forward rules run grouped by written vector in first-appearance order,
then (p, tau, d), and adjoint hits run move by move, then (q, sigma).
`step_operator` numbers its images for the Gram oracle and the windowed norm
estimator; `apply`, `apply_adjoint` and `run` weight its coefficients by the
amplitudes, and `run` keeps the packed terms from step to step.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .conditions import DEFAULT_TOLERANCE
from .frame import Configuration, _config_unchecked, _tape_unchecked, precedes
from .ktape import check_auto
from .table import TransitionTable
from .windows import radius_window

PRUNE_THRESHOLD = 1e-15
MAX_POSITION = 2 ** 62  # head and cell positions must lie in [-MAX_POSITION, MAX_POSITION]
# `run` frames its columns this many cells around every head, so it needs
# to re-frame only every RUN_MARGIN steps (a head moves one cell a step).
RUN_MARGIN = 8


class Superposition:
    """Finite map Configuration -> complex amplitude, pruned and immutable."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Configuration, complex] | Iterable | None = None):
        acc: dict[Configuration, complex] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for config, amp in items:
                amp = complex(amp)
                if config in acc:
                    acc[config] += amp
                else:
                    acc[config] = amp
        self._terms = {c: a for c, a in acc.items() if abs(a) >= PRUNE_THRESHOLD}

    @classmethod
    def basis(cls, config: Configuration, amplitude: complex = 1.0) -> "Superposition":
        return cls({config: amplitude})

    @classmethod
    def _distinct(cls, configs: list[Configuration], amps: list[complex]) -> "Superposition":
        """From distinct configurations whose amplitudes are already pruned."""
        psi = object.__new__(cls)
        psi._terms = dict(zip(configs, amps))
        return psi

    def amplitude(self, config: Configuration) -> complex:
        return self._terms.get(config, 0j)

    def items(self) -> list[tuple[Configuration, complex]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def configurations(self) -> list[Configuration]:
        return [c for c, _ in self.items()]

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, config: Configuration) -> bool:
        return config in self._terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Superposition) and self._terms == other._terms

    def __repr__(self) -> str:
        return f"Superposition({len(self._terms)} terms, norm={self.norm():.6g})"

    def norm(self) -> float:
        return float(np.sqrt(sum((a * a.conjugate()).real for a in self._terms.values())))

    def inner(self, other: "Superposition") -> complex:
        """<self|other>, conjugating self's amplitudes."""
        small, big, conj_small = (
            (self._terms, other._terms, True)
            if len(self._terms) <= len(other._terms)
            else (other._terms, self._terms, False)
        )
        total = 0j
        for config, amp in small.items():
            hit = big.get(config)
            if hit is None:
                continue
            total += amp.conjugate() * hit if conj_small else hit.conjugate() * amp
        return total

    def scaled(self, factor: complex) -> "Superposition":
        return Superposition({c: a * factor for c, a in self._terms.items()})

    def plus(self, other: "Superposition") -> "Superposition":
        acc = dict(self._terms)
        for c, a in other._terms.items():
            acc[c] = acc.get(c, 0j) + a
        return Superposition(acc)

    def distance(self, other: "Superposition") -> float:
        """Max termwise amplitude difference."""
        keys = set(self._terms) | set(other._terms)
        return max((abs(self.amplitude(c) - other.amplitude(c)) for c in keys), default=0.0)


def matrix_element(table: TransitionTable, c: Configuration, c_prime: Configuration) -> complex:
    """<c'|M|c>: the rule amplitude read off the two configurations when c
    can reach c' in one step, else 0."""
    frame = table.frame
    if c.tape_count != frame.tape_count or c_prime.tape_count != frame.tape_count:
        raise ValueError("configurations do not match the table's frame")
    if not precedes(c, c_prime):
        return 0j
    sigma = c.read()
    tau = tuple(t.read(h) for t, h in zip(c_prime.tapes, c.heads))
    moves = tuple(h2 - h for h, h2 in zip(c.heads, c_prime.heads))
    s = frame.symbol_flat(sigma)
    t = frame.symbol_flat(tau)
    m = frame.move_flat(moves)
    return complex(table.amplitudes[c.state, s, c_prime.state, t, m])


# Every sort here is a stable one: it keeps first occurrences first, and
# one sort kernel keeps the pages of numpy code a process touches (its
# RSS) small.  A bare `np.unique` would also import `numpy.ma`.

def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array."""
    a = np.sort(a, kind="stable")
    new = np.empty(len(a), dtype=bool)
    new[:1] = True
    new[1:] = a[1:] != a[:-1]
    return a[new]


def _first_seen(keys: np.ndarray) -> np.ndarray:
    """For every element of a 1-D array, the index of the first element
    equal to it."""
    perm = keys.argsort(kind="stable")
    ordered = keys[perm]
    new = np.empty(len(perm), dtype=bool)
    new[:1] = True
    new[1:] = ordered[1:] != ordered[:-1]
    first = np.empty(len(perm), dtype=np.intp)
    first[perm] = perm[new][new.cumsum() - 1]
    return first


def _csr(keys: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """First index and length of each key's run in sorted `keys`, for keys
    0..count-1."""
    ptr = np.searchsorted(keys, np.arange(count + 1))
    return ptr[:-1], np.diff(ptr)


class _Terms(NamedTuple):
    """Packed basis states: `heads[j, i]` indexes `cols`, the sorted cell
    positions shared by every term, and `cells[j, i, w]` is tape i's symbol
    at `cols[w]`.  `amps` is None for bare basis states."""

    state: np.ndarray  # (n,) intp
    heads: np.ndarray  # (n, k) intp
    cells: np.ndarray  # (n, k, W) unsigned symbols
    cols: np.ndarray  # (W,) int64
    amps: np.ndarray | None = None  # (n,) complex128

    def take(self, index: np.ndarray) -> "_Terms":
        return _Terms(self.state[index], self.heads[index], self.cells[index], self.cols,
                      None if self.amps is None else self.amps[index])


_STATE = operator.attrgetter("state")
_HEADS = operator.attrgetter("heads")


class _Kernel:
    """The table's rules as CSR arrays, read from its nonzero amplitudes,
    and the packed step built on them.

    `forward` indexes the rules by read (q, sigma): grouped by written
    vector in the order each first appears, then in (p, tau, d) order.
    `adjoint` indexes the hits by (p, written, move) in (q, sigma) order,
    conjugated.  Each is (first rule, rule count) per key, then the state,
    written symbols, moves (forward only) and coefficient per rule.  With
    `prune`, rules below PRUNE_THRESHOLD are left out of both."""

    def __init__(self, table: TransitionTable, prune: bool = False):
        frame = self.frame = table.frame
        self.k, self.S, self.M = frame.tape_count, frame.symbol_block, frame.move_block
        self.sizes = np.array(frame.symbol_counts, dtype=np.intp)
        self.dtype = np.min_scalar_type(int(self.sizes.max()) - 1)
        self.blanks = np.array(frame.blanks, dtype=self.dtype)
        self.tapes = np.arange(self.k)
        self.state_ids = frozenset(range(frame.state_count))
        self.key_top = max(frame.state_count, int(self.sizes.max()))
        # symbol and move vectors are flattened with tape 1 most significant
        self.strides = np.append(np.cumprod(self.sizes[:0:-1])[::-1], 1).astype(np.intp)
        self.moves = np.array(list(frame.move_vectors()), dtype=np.intp).reshape(self.M, self.k)
        amps = table.amplitudes.ravel()
        flat = np.flatnonzero(amps)
        coef = amps[flat]
        if prune:
            keep = np.hypot(coef.real, coef.imag) >= PRUNE_THRESHOLD
            flat, coef = flat[keep], coef[keep]
        S, M, reads = self.S, self.M, frame.state_count * self.S
        read, target = np.divmod(flat, reads * M)  # (q, sigma) and (p, tau, d), flat
        p, t = np.divmod(target // M, S)
        # forward: each (read, tau) group sorts by its first rule, stably
        order = np.argsort(_first_seen(read * S + t), kind="stable")
        self.forward = (*_csr(read[order], reads), p[order], self._symbols(t[order]),
                        self.moves[target[order] % M], coef[order])
        order = np.argsort(target, kind="stable")
        q, s = np.divmod(read[order], S)
        self.adjoint = (*_csr(target[order], reads * M), q, self._symbols(s), None, coef[order].conj())

    @classmethod
    def of(cls, table: TransitionTable, prune: bool = False) -> "_Kernel":
        """The table's kernel, built on first use and kept on the table."""
        kernel = table._kernels.get(prune)
        if kernel is None:
            kernel = table._kernels[prune] = cls(table, prune)
        return kernel

    def _symbols(self, flat: np.ndarray) -> np.ndarray:
        """Flat symbol vectors as (rules, k) symbols."""
        return (flat[:, None] // self.strides % self.sizes).astype(self.dtype)

    def pack(self, configs, amps=None, margin: int = 1) -> _Terms:
        """Pack configurations (and their amplitudes) in the given order, on
        the columns that are non-blank or within `margin` cells of a head."""
        frame, k, n = self.frame, self.k, len(configs)
        states = list(map(_STATE, configs))
        if not ({k}.issuperset(map(len, map(_HEADS, configs))) and self.state_ids.issuperset(states)):
            raise ValueError("superposition does not match the table's frame")
        ints = list(itertools.chain.from_iterable(map(_HEADS, configs)))
        per_tape = []
        for i, blank in enumerate(frame.blanks):
            # each distinct tape is read once
            ids: dict = {}
            index = [ids.setdefault(c.tapes[i], len(ids)) for c in configs]
            if any(tape.blank != blank for tape in ids):
                raise ValueError("superposition does not match the table's frame")
            counts = [len(tape.cells) for tape in ids]
            per_tape.append((index, len(ints), counts))
            ints += itertools.chain.from_iterable(itertools.chain.from_iterable(tape.cells for tape in ids))
        if ints and (min(ints) < -MAX_POSITION or max(ints) > MAX_POSITION):
            raise ValueError("configuration positions must lie within -2**62..2**62")
        values = np.array(ints, dtype=np.int64)
        heads = values[:n * k].reshape(n, k)
        cells_at = [values[start:start + 2 * sum(counts)] for _, start, counts in per_tape]
        near = (heads.reshape(-1, 1) + np.arange(-margin, margin + 1)).ravel()
        cols = _sorted_unique(np.concatenate([near] + [flat[0::2] for flat in cells_at]))
        cells = np.empty((n, k, len(cols)), dtype=self.dtype)
        for i, ((index, _, counts), flat) in enumerate(zip(per_tape, cells_at)):
            sym = flat[1::2]
            if sym.size and (sym.min() < 0 or sym.max() >= frame.symbol_counts[i]):
                raise ValueError(f"tape-{i + 1} symbol out of range 0..{frame.symbol_counts[i] - 1}")
            rows = np.full((len(counts), len(cols)), self.blanks[i], dtype=self.dtype)
            rows[np.repeat(np.arange(len(counts)), counts), np.searchsorted(cols, flat[0::2])] = sym
            cells[:, i, :] = rows[index]
        return _Terms(np.array(states, dtype=np.intp), np.searchsorted(cols, heads), cells, cols,
                      None if amps is None else np.array(amps, dtype=np.complex128))

    def expand(self, terms: _Terms, adjoint: bool) -> tuple[np.ndarray, _Terms, np.ndarray]:
        """Every entry of M (or M^dagger) on the packed basis states, term by
        term in rule order: (parent term, images, coefficients)."""
        starts, counts, to_state, to_write, to_move, to_coef = self.adjoint if adjoint else self.forward
        state, heads, cells = terms.state, terms.heads, terms.cells
        n, k, M, tapes = len(state), self.k, self.M, self.tapes
        if adjoint:
            source = heads[:, None, :] - self.moves  # (n, M, k)
            read = cells[np.arange(n)[:, None, None], tapes, source] @ self.strides
            key = ((state[:, None] * self.S + read) * M + np.arange(M)).ravel()
        else:
            key = state * self.S + cells[np.arange(n)[:, None], tapes, heads] @ self.strides
        start, count = starts[key], counts[key]
        slot = np.arange(len(key)).repeat(count)
        rule = np.arange(len(slot)) + (start - count.cumsum() + count)[slot]
        if adjoint:
            parent = slot // M
            at = moved = source.reshape(-1, k)[slot]
        else:
            parent = slot
            at = heads[parent]
            moved = at + to_move[rule]
        images = cells[parent]
        images[np.arange(len(slot))[:, None], tapes, at] = to_write[rule]
        return parent, _Terms(to_state[rule], moved, images, terms.cols), to_coef[rule]

    def step(self, terms: _Terms, adjoint: bool) -> tuple[_Terms, float]:
        """M|psi> (or M^dagger|psi>) on packed terms with amplitudes, and the
        squared amplitude the prune dropped.  Each product amp*coef is formed
        in real arithmetic with one rounding per product, as a Python complex
        product is, and summed per image in entry order; the images come out
        in first-reached order."""
        parent, entries, coef = self.expand(terms, adjoint)
        first, ids = self.number(entries)
        amps = terms.amps[parent]
        n = len(first)
        ar, ai, cr, ci = amps.real, amps.imag, coef.real, coef.imag
        re = np.bincount(ids, weights=ar * cr - ai * ci, minlength=n)
        im = np.bincount(ids, weights=ar * ci + ai * cr, minlength=n)
        vals = re + 1j * im
        keep = np.hypot(vals.real, vals.imag) >= PRUNE_THRESHOLD
        dropped = 0.0
        if not keep.all():
            lost = vals[~keep]
            dropped = float(np.sum(lost.real * lost.real + lost.imag * lost.imag))
            first, vals = first[keep], vals[keep]
        return entries.take(first)._replace(amps=vals), dropped

    def number(self, entries: _Terms) -> tuple[np.ndarray, np.ndarray]:
        """Distinct images in first-reached order: (first entry of each image,
        image id of every entry).  Images are told apart by compact byte rows
        of state, heads and the cell columns that vary between entries."""
        cells = entries.cells
        vary = np.logical_or.reduce(cells != cells[:1], axis=0)
        rows = np.concatenate([entries.state[:, None], entries.heads, cells[:, vary]], axis=1,
                              dtype=np.min_scalar_type(max(self.key_top, len(entries.cols)) - 1),
                              casting="unsafe")
        keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))[:, 0]
        first = _first_seen(keys)
        new = first == np.arange(len(first))
        return np.flatnonzero(new), (new.cumsum() - 1)[first]

    def reframe(self, terms: _Terms, margin: int) -> _Terms:
        """The same terms on the columns that are non-blank in some term or
        within `margin` cells of some head."""
        cols = terms.cols
        used = (terms.cells != self.blanks[:, None]).any(axis=(0, 1))
        near = (cols[_sorted_unique(terms.heads.ravel())][:, None] + np.arange(-margin, margin + 1)).ravel()
        wanted = _sorted_unique(np.concatenate([cols[used], near]))
        cells = np.empty((len(terms.state), self.k, len(wanted)), dtype=self.dtype)
        cells[...] = self.blanks[:, None]
        cells[:, :, np.searchsorted(wanted, cols[used])] = terms.cells[:, :, used]
        return terms._replace(heads=np.searchsorted(wanted, cols[terms.heads]), cells=cells, cols=wanted)

    def sort_order(self, terms: _Terms, first: np.ndarray | None = None) -> np.ndarray:
        """The permutation that sorts the terms by `Configuration.sort_key`
        (after `first`, when given): state, heads, then per tape the
        (cell, symbol) pairs of its non-blank cells, a missing pair sorting
        below any cell."""
        n = len(terms.state)
        keys = [terms.state, *terms.heads.T]
        for i in range(self.k):
            cells = terms.cells[:, i, :]
            rows, cols = np.nonzero(cells != self.blanks[i])
            if not len(rows):
                continue
            count = np.bincount(rows, minlength=n)
            slot = np.arange(len(rows)) - (np.cumsum(count) - count)[rows]
            pos = np.full((n, int(count.max())), -1, dtype=np.intp)
            pos[rows, slot] = cols
            sym = np.zeros(pos.shape, dtype=self.dtype)
            sym[rows, slot] = cells[rows, cols]
            keys += [a for pair in zip(pos.T, sym.T) for a in pair]
        if first is not None:
            keys.insert(0, first)
        return np.lexsort(keys[::-1])

    def configurations(self, terms: _Terms) -> list[Configuration]:
        """Decode packed terms, reading only non-blank cells and building one
        Tape per distinct tape."""
        n, cols = len(terms.state), terms.cols
        per_tape = []
        for i, (blank, size) in enumerate(zip(self.frame.blanks, self.frame.symbol_counts)):
            rows = np.ascontiguousarray(terms.cells[:, i, :])
            data, width = rows.tobytes(), rows.shape[1] * rows.itemsize
            ids: dict = {}
            index = [ids.setdefault(data[j * width:(j + 1) * width], len(ids)) for j in range(n)]
            distinct = np.frombuffer(b"".join(ids), dtype=rows.dtype).reshape(len(ids), rows.shape[1])
            filled = distinct != blank
            at, col = np.nonzero(filled)
            # one (cell, symbol) tuple per distinct pair, shared by the tapes
            code = col * size + distinct[at, col]
            codes = _sorted_unique(code)
            shared = list(zip(cols[codes // size].tolist(), (codes % size).tolist()))
            pairs = list(map(shared.__getitem__, np.searchsorted(codes, code).tolist()))
            ends = np.cumsum(filled.sum(axis=1)).tolist()
            tapes = [_tape_unchecked(blank, tuple(pairs[a:b])) for a, b in zip([0] + ends, ends)]
            per_tape.append([tapes[j] for j in index])
        return [_config_unchecked(q, t, tuple(h)) for q, t, h in
                zip(terms.state.tolist(), zip(*per_tape), cols[terms.heads].tolist())]

    def superposition(self, terms: _Terms) -> Superposition:
        return Superposition._distinct(self.configurations(terms), terms.amps.tolist())


def step_operator(
    table: TransitionTable, configs, adjoint: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[Configuration, ...]]:
    """The step operator (or its adjoint) on the basis states `configs`, as
    COO arrays (rows, cols, vals) plus the image configurations that `rows`
    indexes.

    Column i holds the expansion of configs[i] in rule order: forward
    entries grouped by written vector in first-appearance order, then
    (p, tau, d); adjoint entries move by move, then (q, sigma).
    Amplitudes below PRUNE_THRESHOLD are dropped, as `Superposition` does.
    Images are numbered by the first column that reaches them, then by
    `sort_key` within that column (one `np.lexsort` over the packed images);
    only their non-blank cells are decoded, and identical tapes share one
    Tape.
    """
    kernel = _Kernel.of(table, prune=True)
    parent, entries, vals = kernel.expand(kernel.pack(list(configs)), adjoint)
    first, ids = kernel.number(entries)
    images = entries.take(first)
    # A Gram entry adds its terms in image-id order, so the numbering fixes
    # its rounding; (first column, sort key) keeps it independent of rule order.
    order = kernel.sort_order(images, parent[first])
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order), dtype=np.intp)
    return rank[ids], parent, vals, tuple(kernel.configurations(images.take(order)))


def _step(table: TransitionTable, psi: Superposition, adjoint: bool) -> Superposition:
    kernel = _Kernel.of(table)
    terms = psi.items()
    packed = kernel.pack([c for c, _ in terms], [a for _, a in terms])
    return kernel.superposition(kernel.step(packed, adjoint)[0])


def apply(table: TransitionTable, psi: Superposition) -> Superposition:
    """One application of the evolution operator, linearly extended."""
    return _step(table, psi, adjoint=False)


def apply_adjoint(table: TransitionTable, psi: Superposition, *, allow_multitape: bool = False) -> Superposition:
    """One application of the adjoint: each term |p,T,xi> pulls back to the
    configurations |q, T with sigma written at xi-d, xi-d> weighted by the
    conjugated rule amplitude delta(q, sigma, p, T(xi-d), d)*."""
    if table.frame.tape_count != 1 and not allow_multitape:
        raise ValueError("adjoint application covers single-tape frames; "
                         "pass allow_multitape=True for the componentwise extension")
    return _step(table, psi, adjoint=True)


@dataclass(frozen=True)
class RunResult:
    final: Superposition
    norms: tuple[float, ...]  # norms[t] = norm after t steps; norms[0] is the input
    # pruned_mass[t] = sum of |a|^2 the prune dropped at step t; pruned_mass[0] = 0
    pruned_mass: tuple[float, ...]


def _norm(amps: np.ndarray) -> float:
    """`Superposition.norm` of amplitudes in dict order: a Python float sum."""
    return float(np.sqrt(sum((amps.real * amps.real + amps.imag * amps.imag).tolist())))


def run(
    table: TransitionTable,
    initial: Superposition,
    steps: int,
    *,
    unchecked: bool = False,
    tolerance: float = DEFAULT_TOLERANCE,
) -> RunResult:
    """Apply the evolution operator `steps` times, logging per-step norms
    and the squared amplitude each step's prune drops.

    The table is validated first unless `unchecked`; norm drift is reported,
    never corrected.  The terms stay packed from step to step and become a
    `Superposition` only at the end.  Before each step they are put in
    `Superposition.items()` order by one `np.lexsort` over their sort keys
    (state, heads, then per tape the (cell, symbol) pairs of the non-blank
    cells, a missing pair sorting first), so every step adds and numbers
    exactly as `apply` does.  Every RUN_MARGIN steps the columns are framed
    anew to the non-blank cells and those within RUN_MARGIN of a head.
    norms[t] sums |a|^2 in first-reached order with a Python float sum, as
    `Superposition.norm` does; pruned_mass[t] is the sum of |a|^2 the prune
    dropped at step t.  The final superposition lists its terms in the last
    step's first-reached order.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if not unchecked:
        report = check_auto(table, tolerance)
        if not report.passed:
            raise ValueError(
                f"table fails the {report.checker} conditions "
                f"(max residual {report.max_residual:.3e}); pass unchecked=True to run anyway"
            )
    norms = [initial.norm()]
    pruned = [0.0]
    if not steps:
        return RunResult(final=initial, norms=tuple(norms), pruned_mass=tuple(pruned))
    kernel = _Kernel.of(table)
    terms = initial.items()
    packed = kernel.pack([c for c, _ in terms], [a for _, a in terms], RUN_MARGIN)
    for t in range(steps):
        if t:
            if t % RUN_MARGIN == 0:
                packed = kernel.reframe(packed, RUN_MARGIN)
            packed = packed.take(kernel.sort_order(packed))
        packed, dropped = kernel.step(packed, adjoint=False)
        norms.append(_norm(packed.amps))
        pruned.append(dropped)
    return RunResult(final=kernel.superposition(packed), norms=tuple(norms), pruned_mass=tuple(pruned))


def estimate_norm(table: TransitionTable, window_radius: int, iterations: int, seed: int = 0) -> float:
    """Power-iteration lower bound on the operator norm, computed on the
    window of configurations with support and head inside [-w, w].

    The estimate is a Rayleigh quotient of the compressed operator, hence
    never exceeds the true norm; it is exact (=1) for tables that pass the
    unitarity conditions, because interior window states are fixed points of
    the compressed normal operator.
    """
    frame = table.frame
    if frame.tape_count != 1:
        raise ValueError("norm estimation covers single-tape frames")
    if window_radius < 1 or iterations < 1:
        raise ValueError("window_radius and iterations must be positive")
    window = radius_window(frame, window_radius)
    index = {c: i for i, c in enumerate(window)}
    n = len(window)

    rows, cols, vals, images = step_operator(table, window)
    inside = np.array([index.get(c, -1) for c in images], dtype=np.intp)[rows]
    keep = inside >= 0
    rows, cols, vals = inside[keep], cols[keep], vals[keep]

    def matvec(v):
        prod = vals * v[cols]
        return (
            np.bincount(rows, weights=prod.real, minlength=n)
            + 1j * np.bincount(rows, weights=prod.imag, minlength=n)
        )

    def rmatvec(w):
        prod = vals.conj() * w[rows]
        return (
            np.bincount(cols, weights=prod.real, minlength=n)
            + 1j * np.bincount(cols, weights=prod.imag, minlength=n)
        )

    interior = np.array(
        [
            i
            for i, c in enumerate(window)
            if abs(c.heads[0]) <= window_radius - 1
            and all(abs(m) <= window_radius - 1 for m in c.tapes[0].support)
        ],
        dtype=np.intp,
    )
    v = np.zeros(n, dtype=np.complex128)
    v[interior] = 1.0
    norm_v = np.linalg.norm(v)
    if norm_v > 0:
        v /= norm_v
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v += 0.01 * noise / np.linalg.norm(noise)
    v /= np.linalg.norm(v)

    estimate = 0.0
    for _ in range(iterations):
        w = matvec(v)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        estimate = norm_w
        u = rmatvec(w)
        v = u / np.linalg.norm(u)
    return estimate
