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
written symbols and sums amp * coef per image with `np.bincount`.

Each image has one sort key (`_Layout.keys`) whose order is
`Configuration.sort_key` order and which is equal only for equal images, so
one stable sort (`_runs`) both merges and orders the images.  The key is
the mixed-radix value of the image's varying digit columns as one uint64
when their radices multiply to less than 2**64, and otherwise those columns
big-endian as one void scalar, compared as unsigned bytes; numpy sorts the
integer form several times faster.  Every order
matches the per-configuration loop the kernel replaced, so results are
bit-reproducible: terms in `sort_key` order, forward rules grouped by
written vector in first-appearance order, then (p, tau, d), adjoint hits
move by move, then (q, sigma).  `_Kernel.operator` numbers the images of
packed basis states for the Gram oracle, and `step_operator` decodes them;
the windowed norm estimator locates each entry in the packed window
(`windows.PackedWindow`) without decoding.

`apply`, `apply_adjoint` and `run` share one step, `_step`, whose result
stays packed: a `Superposition` holds its terms in `sort_key` order plus
their first-reached order, and the next step takes them back without
decoding or sorting.  Terms carry their head slack (`_Terms.slack`, the
adjacent columns every head has on each side): packing and re-framing set
it to their margin and each step lowers it by one, so a step scans the
columns for a head at the edge only once the slack is spent.
Configurations are decoded only when asked for: `items()` and
`configurations()` in `sort_key` order, and the dict that `amplitude`,
`in`, `==`, `inner`, `scaled`, `plus` and `distance` build once in
first-reached order; `len`, `norm` and `repr` read the arrays.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .conditions import DEFAULT_TOLERANCE, ValidationReport
from .frame import Configuration, TuringFrame, _config_unchecked, _tape_unchecked
from .ktape import check_auto
from .table import TransitionTable

PRUNE_THRESHOLD = 1e-15
MAX_POSITION = 2 ** 62  # head and cell positions must lie in [-MAX_POSITION, MAX_POSITION]
# A step frames its columns this many cells around every head, so a chain
# of steps re-frames about once every RUN_MARGIN steps (a head moves one
# cell a step).
RUN_MARGIN = 8
# A step whose entries would hold more than this many packed symbols
# (entries x tapes x columns, a few bytes each with the keys) is refused
# before its arrays are allocated.
MAX_STEP_SYMBOLS = 2 ** 26


class Superposition:
    """Finite map Configuration -> complex amplitude, pruned and immutable.

    A superposition holds one of two forms: its dict (built by the
    constructor), or, as the output of `apply`, `apply_adjoint` and `run`,
    the frame's `_Layout`, packed `_Terms` with amplitudes in `sort_key`
    order and their first-reached order.  The packed form is decoded only
    when configurations are asked for: `items()` decodes the terms in
    `sort_key` order, and the methods that look terms up build the dict
    (`_terms`) once, in first-reached order, and keep it."""

    __slots__ = ("_dict", "_packed")

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
        self._dict = {c: a for c, a in acc.items() if abs(a) >= PRUNE_THRESHOLD}
        self._packed = None

    @classmethod
    def basis(cls, config: Configuration, amplitude: complex = 1.0) -> "Superposition":
        return cls({config: amplitude})

    @classmethod
    def _from_packed(cls, layout: "_Layout", terms: "_Terms", reached: np.ndarray) -> "Superposition":
        """From distinct packed terms in `sort_key` order, their amplitudes
        already pruned, and `reached`, their first-reached order."""
        psi = object.__new__(cls)
        psi._dict = None
        psi._packed = (layout, terms, reached)
        return psi

    @property
    def _terms(self) -> dict[Configuration, complex]:
        if self._dict is None:
            layout, terms, reached = self._packed
            terms = terms.take(reached)
            self._dict = dict(zip(layout.configurations(terms), terms.amps.tolist()))
        return self._dict

    def amplitude(self, config: Configuration) -> complex:
        return self._terms.get(config, 0j)

    def items(self) -> list[tuple[Configuration, complex]]:
        if self._packed is None:
            return sorted(self._dict.items(), key=lambda kv: kv[0].sort_key())
        layout, terms, _ = self._packed
        return list(zip(layout.configurations(terms), terms.amps.tolist()))

    def configurations(self) -> list[Configuration]:
        return [c for c, _ in self.items()]

    def __len__(self) -> int:
        return len(self._dict) if self._packed is None else len(self._packed[1].state)

    def __contains__(self, config: Configuration) -> bool:
        return config in self._terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Superposition) and self._terms == other._terms

    def __repr__(self) -> str:
        return f"Superposition({len(self)} terms, norm={self.norm():.6g})"

    def norm(self) -> float:
        if self._packed is not None:
            _, terms, reached = self._packed
            return _norm(terms.amps[reached])
        return float(np.sqrt(sum((a * a.conjugate()).real for a in self._dict.values())))

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


# Every sort here is a stable argsort: equal keys keep their input order,
# and one sort kernel keeps the pages of numpy code a process touches small.

def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable sort order of a 1-D array, the start of each run of equal
    keys in that order, and the run number of every key."""
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    new[1:] = ordered[1:] != ordered[:-1]
    run = np.empty(len(order), dtype=np.intp)
    run[order] = new.cumsum() - 1
    return order, np.flatnonzero(new), run


def _csr(keys: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """First index and length of each key's run in sorted `keys`, for keys
    0..count-1."""
    ptr = np.searchsorted(keys, np.arange(count + 1))
    return ptr[:-1], np.diff(ptr)


class _Terms(NamedTuple):
    """Packed basis states: `heads[j, i]` indexes `cols`, the sorted cell
    positions shared by every term, and `cells[j, i, w]` is tape i's symbol
    at `cols[w]`.  `amps` is None for bare basis states.  Every head has at
    least `slack` adjacent columns on each side: cols[h - s..h + s] are the
    positions cols[h] - s..cols[h] + s for s <= slack."""

    state: np.ndarray  # (n,) intp
    heads: np.ndarray  # (n, k) intp
    cells: np.ndarray  # (n, k, W) unsigned symbols
    cols: np.ndarray  # (W,) int64
    amps: np.ndarray | None = None  # (n,) complex128
    slack: int = 0

    def take(self, index: np.ndarray) -> "_Terms":
        return _Terms(self.state[index], self.heads[index], self.cells[index], self.cols,
                      None if self.amps is None else self.amps[index], self.slack)


_STATE = operator.attrgetter("state")
_HEADS = operator.attrgetter("heads")


class _Layout:
    """The packed layout of one frame's terms: their symbol dtype and
    blanks, their `sort_key` order and their decoding."""

    def __init__(self, frame: TuringFrame):
        self.frame = frame
        self.k = frame.tape_count
        self.sizes = np.array(frame.symbol_counts, dtype=np.intp)
        self.dtype = np.min_scalar_type(int(self.sizes.max()) - 1)
        self.blanks = np.array(frame.blanks, dtype=self.dtype)
        self.top = int(self.sizes.max()) + 1  # the key of a blank before a non-blank cell
        self.S = frame.symbol_block

    def keys(self, terms: _Terms) -> np.ndarray:
        """One key per term, in `Configuration.sort_key` order and equal only
        for equal terms: state, heads, then per tape a symbol s as s+1 and a
        blank as 0, or as `top` when a non-blank cell follows it on its tape.
        Columns blank in every term go, then columns equal in all terms.
        When the product of the kept columns' radices (column max + 1) is
        below 2**64, the key is their mixed-radix value as one uint64;
        otherwise it is one void scalar of the columns big-endian, compared
        as unsigned bytes."""
        if not len(terms.state):
            return np.zeros(0, dtype=np.uint64)
        dtype = np.min_scalar_type(max(self.frame.state_count, len(terms.cols), self.top))
        rows = [terms.state[None, :], terms.heads.T]
        if self.S > 1:  # with one symbol per tape every cell is blank
            # one copy as (tape, column, term), so every pass runs along the terms
            cells = np.ascontiguousarray(terms.cells.transpose(1, 2, 0))
            filled = cells != self.blanks[:, None, None]
            used = filled.any(axis=2)
            for i in range(self.k):
                full = filled[i, used[i]]
                # a blank counts as `top` before its tape's last non-blank cell
                position = np.arange(1, len(full) + 1, dtype=dtype)[:, None]
                later = (position < np.max(full * position, axis=0, initial=0)) & ~full
                rows.append(full * (cells[i, used[i]] + dtype.type(1)) + later * dtype.type(self.top))
        rows = np.concatenate(rows, axis=0, dtype=dtype, casting="unsafe")
        high = rows.max(axis=1)
        vary = high != rows.min(axis=1)
        vary[0] = True  # a key keeps one column when no column varies
        rows = rows[vary]
        place, total = [], 1  # mixed-radix place values, last column first
        for digit in reversed(high[vary].tolist()):
            place.append(total)
            total *= digit + 1
        if total < 2 ** 64:
            # einsum casts in small buffers; `@` would copy all digits to uint64
            return np.einsum("c,cn->n", np.array(place[::-1], dtype=np.uint64), rows)
        rows = np.ascontiguousarray(rows.T, dtype=dtype.newbyteorder(">"))
        return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))[:, 0]

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
            order, starts, run = _runs(code)
            col, sym = np.divmod(code[order[starts]], size)
            shared = list(zip(cols[col].tolist(), sym.tolist()))
            pairs = list(map(shared.__getitem__, run.tolist()))
            ends = np.cumsum(filled.sum(axis=1)).tolist()
            tapes = [_tape_unchecked(blank, tuple(pairs[a:b])) for a, b in zip([0] + ends, ends)]
            per_tape.append([tapes[j] for j in index])
        return [_config_unchecked(q, t, tuple(h)) for q, t, h in
                zip(terms.state.tolist(), zip(*per_tape), cols[terms.heads].tolist())]


class _Kernel(_Layout):
    """The table's rules as CSR arrays, read from its nonzero amplitudes,
    and the packed step built on them.

    `forward` indexes the rules by read (q, sigma): grouped by written
    vector in the order each first appears, then in (p, tau, d) order.
    `adjoint` indexes the hits by (p, written, move) in (q, sigma) order,
    conjugated.  Each is (first rule, rule count) per key, then the state,
    written symbols, moves (forward only) and coefficient per rule.  Every
    nonzero rule is kept; `kept` drops the entries below PRUNE_THRESHOLD.
    `verdicts` holds `run`'s `check_auto` report per tolerance."""

    def __init__(self, table: TransitionTable):
        super().__init__(table.frame)
        frame = self.frame
        self.M = frame.move_block
        self.tapes = np.arange(self.k)
        self.state_ids = frozenset(range(frame.state_count))
        # symbol and move vectors are flattened with tape 1 most significant
        self.strides = np.append(np.cumprod(self.sizes[:0:-1])[::-1], 1).astype(np.intp)
        self.moves = np.array(list(frame.move_vectors()), dtype=np.intp).reshape(self.M, self.k)
        amps = table.amplitudes.ravel()
        flat = np.flatnonzero(amps)
        coef = amps[flat]
        S, M, reads = self.S, self.M, frame.state_count * self.S
        read, target = np.divmod(flat, reads * M)  # (q, sigma) and (p, tau, d), flat
        p, t = np.divmod(target // M, S)
        # forward: each (read, tau) group sorts by its first rule, stably
        order, starts, run = _runs(read * S + t)
        order = np.argsort(order[starts][run], kind="stable")
        self.forward = (*_csr(read[order], reads), p[order], self._symbols(t[order]),
                        self.moves[target[order] % M], coef[order])
        order = np.argsort(target, kind="stable")
        q, s = np.divmod(read[order], S)
        self.adjoint = (*_csr(target[order], reads * M), q, self._symbols(s), None, coef[order].conj())
        self.verdicts: dict[float, ValidationReport] = {}

    @classmethod
    def of(cls, table: TransitionTable) -> "_Kernel":
        """The table's kernel, built on first use and kept on the table."""
        kernel = table._kernel
        if kernel is None:
            kernel = cls(table)
            object.__setattr__(table, "_kernel", kernel)
        return kernel

    def _symbols(self, flat: np.ndarray) -> np.ndarray:
        """Flat symbol vectors as (rules, k) symbols."""
        return (flat[:, None] // self.strides % self.sizes).astype(self.dtype)

    def pack(self, configs, amps=None) -> _Terms:
        """Pack configurations (and their amplitudes) in the given order, on
        the columns that are non-blank or within RUN_MARGIN cells of a head."""
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
        near = (heads.reshape(-1, 1) + np.arange(-RUN_MARGIN, RUN_MARGIN + 1)).ravel()
        cols = np.concatenate([near] + [flat[0::2] for flat in cells_at])
        order, starts, _ = _runs(cols)
        cols = cols[order[starts]]
        cells = np.empty((n, k, len(cols)), dtype=self.dtype)
        for i, ((index, _, counts), flat) in enumerate(zip(per_tape, cells_at)):
            sym = flat[1::2]
            if sym.size and (sym.min() < 0 or sym.max() >= frame.symbol_counts[i]):
                raise ValueError(f"tape-{i + 1} symbol out of range 0..{frame.symbol_counts[i] - 1}")
            rows = np.full((len(counts), len(cols)), self.blanks[i], dtype=self.dtype)
            rows[np.repeat(np.arange(len(counts)), counts), np.searchsorted(cols, flat[0::2])] = sym
            cells[:, i, :] = rows[index]
        return _Terms(np.array(states, dtype=np.intp), np.searchsorted(cols, heads), cells, cols,
                      None if amps is None else np.array(amps, dtype=np.complex128), RUN_MARGIN)

    def expand(self, terms: _Terms, adjoint: bool) -> tuple[np.ndarray, _Terms, np.ndarray]:
        """Every entry of M (or M^dagger) on the packed basis states, term by
        term in rule order: (parent term, images, coefficients).  A head moves
        at most one column, so the images keep one column less slack.  More
        than MAX_STEP_SYMBOLS packed image symbols raise ValueError."""
        starts, counts, to_state, to_write, to_move, to_coef = self.adjoint if adjoint else self.forward
        state, heads, cells = terms.state, terms.heads, terms.cells
        n, k, M, tapes = len(state), self.k, self.M, self.tapes
        # with one symbol per tape (S = 1) every read and every write is blank
        if adjoint:
            source = heads[:, None, :] - self.moves  # (n, M, k)
            read = 0 if self.S == 1 else cells[np.arange(n)[:, None, None], tapes, source] @ self.strides
            key = ((state[:, None] * self.S + read) * M + np.arange(M)).ravel()
        else:
            read = 0 if self.S == 1 else cells[np.arange(n)[:, None], tapes, heads] @ self.strides
            key = state * self.S + read
        start, count = starts[key], counts[key]
        ends = count.cumsum()
        entries = int(ends[-1]) if len(ends) else 0
        if entries * k * len(terms.cols) > MAX_STEP_SYMBOLS:
            raise ValueError(f"a step of {entries} entries on {len(terms.cols)} columns per tape exceeds "
                             f"the {MAX_STEP_SYMBOLS} packed symbols a step may hold")
        slot = np.arange(len(key)).repeat(count)
        rule = np.arange(len(slot)) + (start - ends + count)[slot]
        if adjoint:
            parent = slot // M
            at = moved = source.reshape(-1, k)[slot]
        else:
            parent = slot
            at = heads[parent]
            moved = at + to_move[rule]
        images = cells[parent]
        if self.S > 1:
            images[np.arange(len(slot))[:, None], tapes, at] = to_write[rule]
        return parent, _Terms(to_state[rule], moved, images, terms.cols, None,
                              max(terms.slack - 1, 0)), to_coef[rule]

    def kept(self, terms: _Terms, adjoint: bool) -> tuple[np.ndarray, _Terms, np.ndarray]:
        """`expand` without the entries below PRUNE_THRESHOLD: the matrix
        entries of `step_operator` and the windowed norm estimate."""
        parent, entries, coef = self.expand(terms, adjoint)
        keep = np.hypot(coef.real, coef.imag) >= PRUNE_THRESHOLD
        if keep.all():
            return parent, entries, coef
        return parent[keep], entries.take(keep), coef[keep]

    def step(self, terms: _Terms, adjoint: bool) -> tuple[_Terms, np.ndarray, float]:
        """M|psi> (or M^dagger|psi>) on packed terms with amplitudes: the
        images in `sort_key` order, the permutation that lists them in
        first-reached order, and the squared amplitude the prune dropped.
        Each product amp*coef is formed in real arithmetic with one rounding
        per product, as a Python complex product is, and summed per image in
        entry order."""
        parent, entries, coef = self.expand(terms, adjoint)
        order, starts, ids = _runs(self.keys(entries))
        first = order[starts]  # each image's first entry
        amps = terms.amps[parent]
        ar, ai, cr, ci = amps.real, amps.imag, coef.real, coef.imag
        re = np.bincount(ids, weights=ar * cr - ai * ci, minlength=len(first))
        im = np.bincount(ids, weights=ar * ci + ai * cr, minlength=len(first))
        vals = re + 1j * im
        keep = np.hypot(vals.real, vals.imag) >= PRUNE_THRESHOLD
        dropped = 0.0
        if np.count_nonzero(keep) < len(keep):
            lost = vals[~keep][first[~keep].argsort(kind="stable")]
            dropped = float(np.sum(lost.real * lost.real + lost.imag * lost.imag))
            first, vals = first[keep], vals[keep]
        images = _Terms(entries.state[first], entries.heads[first], entries.cells[first], entries.cols,
                        vals, entries.slack)
        return images, first.argsort(kind="stable"), dropped

    def operator(self, terms: _Terms, adjoint: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, _Terms]:
        """The packed core of `step_operator`: (rows, cols, vals) on the
        basis states `terms`, and the packed images that `rows` indexes,
        numbered by first column, then `sort_key`."""
        parent, entries, vals = self.kept(terms, adjoint)
        order, starts, ids = _runs(self.keys(entries))
        first = order[starts]
        # A Gram entry adds its terms in image-id order, so the numbering fixes
        # its rounding; (first column, sort key) keeps it independent of rule
        # order.  Entries come column by column, so an image's first entry
        # holds its first column.
        by_column = parent[first].argsort(kind="stable")
        rank = np.empty(len(first), dtype=np.intp)
        rank[by_column] = np.arange(len(first), dtype=np.intp)
        return rank[ids], parent, vals, entries.take(first[by_column])

    def reframe(self, terms: _Terms, margin: int) -> _Terms:
        """The same terms on the columns that are non-blank in some term or
        within `margin` cells of some head."""
        cols = terms.cols
        used = (terms.cells != self.blanks[:, None]).any(axis=(0, 1))
        heads = np.flatnonzero(np.bincount(terms.heads.ravel(), minlength=len(cols)))
        wanted = np.concatenate([cols[used], (cols[heads][:, None] + np.arange(-margin, margin + 1)).ravel()])
        order, starts, _ = _runs(wanted)
        wanted = wanted[order[starts]]
        cells = np.empty((len(terms.state), self.k, len(wanted)), dtype=self.dtype)
        cells[...] = self.blanks[:, None]
        cells[:, :, np.searchsorted(wanted, cols[used])] = terms.cells[:, :, used]
        return terms._replace(heads=np.searchsorted(wanted, cols[terms.heads]), cells=cells, cols=wanted,
                              slack=margin)

    def ready(self, psi: Superposition) -> _Terms:
        """psi's terms packed with amplitudes, in `sort_key` order, every head
        one cell from the next column on either side, as a step needs.

        A packed psi on this frame, already in that order, is taken as it is
        while its slack is at least 1.  At slack 0 its columns are scanned,
        and it is reframed with RUN_MARGIN only when some head lacks such a
        neighbour (it drifted to the edge of a run of adjacent columns).  Any
        other psi is packed from `items()`, which checks it against the
        frame."""
        packed = psi._packed
        if packed is None or packed[0].frame != self.frame:
            terms = psi.items()
            return self.pack([c for c, _ in terms], [a for _, a in terms])
        terms = packed[1]
        if terms.slack:
            return terms
        adjacent = np.diff(terms.cols) == 1
        inner = np.zeros(len(terms.cols), dtype=bool)
        inner[1:-1] = adjacent[:-1] & adjacent[1:]
        return terms if inner[terms.heads].all() else self.reframe(terms, RUN_MARGIN)


def step_operator(
    table: TransitionTable, configs, adjoint: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[Configuration, ...]]:
    """The step operator (or its adjoint) on the basis states `configs`, as
    COO arrays (rows, cols, vals) plus the image configurations that `rows`
    indexes.

    Column i holds the expansion of configs[i] in rule order: forward
    entries grouped by written vector in first-appearance order, then
    (p, tau, d); adjoint entries move by move, then (q, sigma).
    Entries below PRUNE_THRESHOLD are then dropped, as `Superposition` drops
    amplitudes, so a dropped rule still places its written-vector group.
    Images are numbered by the first column that reaches them, then by
    `sort_key` within that column (one stable sort of the images' keys);
    only their non-blank cells are decoded, and identical tapes share one
    Tape.
    """
    kernel = _Kernel.of(table)
    rows, cols, vals, images = kernel.operator(kernel.pack(list(configs)), adjoint)
    return rows, cols, vals, tuple(kernel.configurations(images))


def _step(table: TransitionTable, psi: Superposition, adjoint: bool) -> tuple[Superposition, float]:
    """M|psi> (or M^dagger|psi>) in packed form and the squared amplitude
    the prune dropped: the one step of `apply`, `apply_adjoint` and `run`."""
    kernel = _Kernel.of(table)
    images, reached, dropped = kernel.step(kernel.ready(psi), adjoint)
    return Superposition._from_packed(kernel, images, reached), dropped


def apply(table: TransitionTable, psi: Superposition) -> Superposition:
    """One application of the evolution operator, linearly extended."""
    return _step(table, psi, adjoint=False)[0]


def apply_adjoint(table: TransitionTable, psi: Superposition) -> Superposition:
    """One application of the adjoint, on any number of tapes: each term
    |p, T, xi> with head vector xi pulls back, for every move vector d and
    read vector sigma, to |q, T with sigma_i written at xi_i - d_i on each
    tape i, xi - d> weighted by the conjugated rule amplitude
    delta(q, sigma, p, T(xi - d), d)*, where T(xi - d) reads tape i at
    xi_i - d_i."""
    return _step(table, psi, adjoint=True)[0]


@dataclass(frozen=True)
class RunResult:
    """What `run` logs, one entry per step, entry 0 for the input:
    norms[t] is the norm after t steps; pruned_mass[t] the sum of |a|^2 the
    prune dropped at step t (pruned_mass[0] = 0); terms[t] the number of
    terms after t steps; width[t] the column count W of the packed arrays
    step t ran on (width[0] = 0)."""

    final: Superposition
    norms: tuple[float, ...]
    pruned_mass: tuple[float, ...]
    terms: tuple[int, ...]
    width: tuple[int, ...]


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
    """Apply the evolution operator `steps` times, logging per step the
    norm, the squared amplitude the prune dropped, the term count and the
    column count.

    The table is validated first unless `unchecked`.  The `check_auto`
    report is kept on the table's kernel per tolerance, so a table is
    checked once per tolerance however often it runs (tables are
    immutable); a failing table raises on every call, and an unchecked run
    neither reads nor fills that cache.  Norm drift is reported, never
    corrected.  Each step is the packed step of `apply`, so the terms
    stay packed from step to step and the final superposition is packed too,
    its dict in the last step's first-reached order.  norms[t] sums |a|^2
    in that order with a Python float sum, as `Superposition.norm` does.

    An unchecked table can grow the amplitudes past the float range: the run
    stops with ValueError at the first step whose norm or pruned mass is not
    finite, without numpy's overflow warnings.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if not unchecked:
        verdicts = _Kernel.of(table).verdicts
        report = verdicts.get(tolerance)
        if report is None:
            report = verdicts[tolerance] = check_auto(table, tolerance)
        if not report.passed:
            raise ValueError(
                f"table fails the {report.checker} conditions "
                f"(max residual {report.max_residual:.3e}); pass unchecked=True to run anyway"
            )
    with np.errstate(over="ignore", invalid="ignore"):
        psi = initial
        norms, pruned, terms, width = [initial.norm()], [0.0], [len(initial)], [0]
        for t in range(steps + 1):
            if t:
                psi, dropped = _step(table, psi, adjoint=False)
                norms.append(psi.norm())
                pruned.append(dropped)
                terms.append(len(psi))
                width.append(len(psi._packed[1].cols))
            if not (math.isfinite(norms[t]) and math.isfinite(pruned[t])):
                raise ValueError(f"the norm is not finite after step {t}: the amplitudes overflow")
    return RunResult(final=psi, norms=tuple(norms), pruned_mass=tuple(pruned),
                     terms=tuple(terms), width=tuple(width))


def estimate_norm(table: TransitionTable, window_radius: int, iterations: int, seed: int = 0) -> float:
    """Power-iteration lower bound on the operator norm, computed on the
    window of configurations whose support and head lie inside [-w, w] on
    every tape.

    The estimate is a Rayleigh quotient of the compressed operator, hence
    never exceeds the true norm; it is exact (=1) for tables that pass the
    unitarity conditions, because interior window states are fixed points of
    the compressed normal operator.  A window of more than
    `windows.MAX_WINDOW_CONFIGS` configurations is refused with ValueError.

    Each iteration forms A v and then A^H w.  Each of the two adds its
    entry products into a zero vector one at a time, in entry order: window
    column by window column, each column in `step_operator` order.  The
    products are numpy complex products, which may fuse multiply-adds, so
    the last bits of the estimate can differ between hosts.
    """
    if window_radius < 1 or iterations < 1:
        raise ValueError("window_radius and iterations must be positive")
    from .windows import PackedWindow  # windows builds on this module's layout

    kernel = _Kernel.of(table)
    window = PackedWindow(kernel, window_radius)
    n = window.size

    # the step operator compressed to the window, entries in step_operator order
    cols, entries, vals = kernel.kept(window.terms, adjoint=False)
    inside = window.index(entries)
    keep = inside >= 0
    rows, cols, vals = inside[keep], cols[keep], vals[keep]

    def gather(at, prod):
        """The sums of `prod` at each index `at`, from +0 in entry order:
        A v or A^H w."""
        out = np.zeros(n, dtype=np.complex128)
        np.add.at(out, at, prod)
        return out

    v = np.zeros(n, dtype=np.complex128)
    v[window.interior()] = 1.0
    norm_v = np.linalg.norm(v)
    if norm_v > 0:
        v /= norm_v
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v += 0.01 * noise / np.linalg.norm(noise)
    v /= np.linalg.norm(v)

    # numpy's complex multiply is not bitwise commutative, and from 16,384
    # entries on `a * b[i]` reuses the temporary b[i] and multiplies
    # b[i] * a.  `vals * v[cols]` is kept as written; np.multiply keeps
    # conj(A) on the left, so A^H w has the bits of `vals.conj() * w[rows]`.
    cvals = vals.conj()
    estimate = 0.0
    for _ in range(iterations):
        w = gather(rows, vals * v[cols])
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        estimate = norm_w
        v = gather(cols, np.multiply(cvals, w[rows]))
        v /= np.linalg.norm(v)
    return estimate
