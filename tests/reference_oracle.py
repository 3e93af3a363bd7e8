"""Pairwise Gram oracle, kept as an independent reference for the tests.

Each Gram entry is one sparse inner product of two full expansions through
`apply` (columns) or `apply_adjoint` (rows).  Off-diagonal entries can only
be nonzero for structurally close pairs (heads at distance <= 2 per tape,
tapes agreeing off the two head cells for columns; a single differing cell
next to both heads for rows), so pair enumeration is restricted to that
pattern.  The package itself forms the Gram matrix over the whole window
from the step operator instead, as the column norms and the strict upper
half (see `qturing.oracle`).

`reference_inner` and `reference_scaled` are the inner product and scaling
that `Superposition` carried as methods, and `rules_for` and
`is_unidirectional` the table readings the package carried.
`reference_apply` and `reference_adjoint` are the per-term dict loops that
`apply` and `apply_adjoint` replaced, and `reference_step_operator` is the
per-configuration expansion loop (`_Rules` and `_expand`) that the packed
step kernel replaced; the tests hold the packed kernel to them bit for bit.
`reference_numbering` is the image numbering that `step_operator` ran
before `_Kernel.operator` took grouped image ids: it keys every image,
where the package keys only each group's first.
`reference_gram_check` and `reference_estimate_norm` are the Gram check and
the norm estimator on a window of `Configuration` objects, located through
a dict, as they ran before the packed window; the Gram check multiplies out
the whole of A^H A (`reference_gram_product`), where the package forms only
the column norms and the strict upper half.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict

import numpy as np

from qturing import (
    PRUNE_THRESHOLD,
    Configuration,
    GramCheck,
    Superposition,
    Tape,
    TransitionTable,
    TuringFrame,
    apply,
    apply_adjoint,
    step_operator,
)
from qturing.evolution import _runs
from qturing.frame import _config_unchecked

from reference_frame import reference_radius_window


def column_pairs(
    frame: TuringFrame, window: tuple[Configuration, ...]
) -> list[tuple[Configuration, Configuration]]:
    """Ordered pairs (C, C') inside the window whose column Gram entry can be
    nonzero: per tape, |head shift| <= 2 and contents equal off the two head
    cells.  The diagonal is excluded."""
    members = set(window)
    pairs = []
    for c in window:
        produced = set()
        per_tape = []
        for t, h, size in zip(c.tapes, c.heads, frame.symbol_counts):
            options = []
            for shift in (-2, -1, 0, 1, 2):
                h2 = h + shift
                for a in range(size):
                    for b in range(size):
                        options.append((t.write(h, a).write(h2, b), h2))
            per_tape.append(options)
        for q2 in range(frame.state_count):
            for combo in itertools.product(*per_tape):
                c2 = Configuration(q2, tuple(x for x, _ in combo), tuple(h for _, h in combo))
                if c2 != c and c2 in members and c2 not in produced:
                    produced.add(c2)
                    pairs.append((c, c2))
    return pairs


def row_pairs(
    frame: TuringFrame, window: tuple[Configuration, ...]
) -> list[tuple[Configuration, Configuration]]:
    """Ordered pairs (C, C') inside the window whose row Gram entry can be
    nonzero (single tape): |head shift| <= 2 and either equal tapes or a
    single differing cell adjacent to both heads."""
    if frame.tape_count != 1:
        raise ValueError("row pairs cover single-tape frames")
    members = set(window)
    size = frame.symbol_counts[0]
    pairs = []
    for c in window:
        produced = set()
        t, h = c.tapes[0], c.heads[0]
        candidates = []
        for shift in (-2, -1, 0, 1, 2):
            h2 = h + shift
            candidates.append((t, h2))
            for m in (h - 1, h, h + 1):
                if abs(h2 - m) > 1:
                    continue
                current = t.read(m)
                for b in range(size):
                    if b != current:
                        candidates.append((t.write(m, b), h2))
        for q2 in range(frame.state_count):
            for tape2, h2 in candidates:
                c2 = Configuration(q2, (tape2,), (h2,))
                if c2 != c and c2 in members and c2 not in produced:
                    produced.add(c2)
                    pairs.append((c, c2))
    return pairs


def _image_cache(expander):
    cache: dict[Configuration, dict[Configuration, complex]] = {}

    def image(config: Configuration) -> dict[Configuration, complex]:
        hit = cache.get(config)
        if hit is None:
            hit = {c: a for c, a in expander(Superposition.basis(config)).items()}
            cache[config] = hit
        return hit

    return image


def _sparse_inner(a: dict, b: dict) -> complex:
    """<a|b> over sparse maps, conjugating a."""
    if len(a) > len(b):
        return _sparse_inner(b, a).conjugate()
    total = 0j
    for config, amp in a.items():
        hit = b.get(config)
        if hit is not None:
            total += amp.conjugate() * hit
    return total


def reference_inner(psi: Superposition, phi: Superposition) -> complex:
    """<psi|phi>, conjugating psi's amplitudes, over both terms' dicts in
    first-reached order."""
    return _sparse_inner(psi._terms, phi._terms)


def reference_scaled(psi: Superposition, factor: complex) -> Superposition:
    """factor * psi, pruned, in psi's first-reached order."""
    return Superposition({c: a * factor for c, a in psi._terms.items()})


def gram_columns(
    table: TransitionTable, pairs: list[tuple[Configuration, Configuration]]
) -> np.ndarray:
    """For each pair (C, C'): <M C', M C>, by full expansion of both images."""
    image = _image_cache(lambda psi: apply(table, psi))
    return np.array([_sparse_inner(image(c2), image(c)) for c, c2 in pairs], dtype=np.complex128)


def gram_rows(
    table: TransitionTable, pairs: list[tuple[Configuration, Configuration]]
) -> np.ndarray:
    """For each pair (C, C'): <M† C, M† C'>, by full adjoint expansion."""
    image = _image_cache(lambda psi: apply_adjoint(table, psi))
    return np.array([_sparse_inner(image(c), image(c2)) for c, c2 in pairs], dtype=np.complex128)


def rules_for(table: TransitionTable, q: int, sigma_flat: int) -> list[tuple[int, int, int, complex]]:
    """Nonzero (p, tau_flat, move_flat, amplitude) entries for one read."""
    block = table.amplitudes[q, sigma_flat]
    return [(int(p), int(t), int(m), complex(block[p, t, m])) for p, t, m in zip(*np.nonzero(block))]


def is_unidirectional(table: TransitionTable) -> bool:
    """True iff the move vector is a function of the written state: all nonzero
    amplitudes entering a state p share one move vector."""
    amps = table.amplitudes
    for p in range(table.frame.state_count):
        moves = np.nonzero(np.abs(amps[:, :, p, :, :]).sum(axis=(0, 1, 2)))[0]
        if len(moves) > 1:
            return False
    return True


def _grouped_rules(table: TransitionTable, cache: dict, q: int, sflat: int):
    """Rules for one read grouped by written symbol vector, preserving the
    canonical (p, tau, d) order inside each group."""
    key = (q, sflat)
    groups = cache.get(key)
    if groups is None:
        frame = table.frame
        by_tau: dict[tuple[int, ...], list] = {}
        for p, t, m, amp in rules_for(table, q, sflat):
            by_tau.setdefault(frame.symbol_vector(t), []).append(
                (p, frame.move_vector(m), amp)
            )
        groups = list(by_tau.items())
        cache[key] = groups
    return groups


def reference_apply(table: TransitionTable, psi: Superposition) -> Superposition:
    """One application of the evolution operator, expanding each term through
    its read's rules grouped by written symbol vector, with a separate
    single-tape branch."""
    frame = table.frame
    cache: dict = {}
    acc: dict[Configuration, complex] = defaultdict(complex)
    single = frame.tape_count == 1
    for config, amp in psi.items():
        if config.tape_count != frame.tape_count:
            raise ValueError("superposition does not match the table's frame")
        if single:
            tape = config.tapes[0]
            head = config.heads[0]
            for tau, group in _grouped_rules(table, cache, config.state, tape.read(head)):
                written = (tape.write(head, tau[0]),)
                for p, moves, coef in group:
                    image = _config_unchecked(p, written, (head + moves[0],))
                    acc[image] += amp * coef
        else:
            sflat = frame.symbol_flat(config.read())
            for tau, group in _grouped_rules(table, cache, config.state, sflat):
                written = tuple(t.write(h, w) for t, h, w in zip(config.tapes, config.heads, tau))
                for p, moves, coef in group:
                    heads = tuple(h + d for h, d in zip(config.heads, moves))
                    image = _config_unchecked(p, written, heads)
                    acc[image] += amp * coef
    return Superposition(acc)


def reference_adjoint(table: TransitionTable, psi: Superposition) -> Superposition:
    """One adjoint step, looking up the (q, sigma) block of every term and
    move afresh: each |p,T,xi> pulls back to |q, T with sigma written at
    xi-d, xi-d> weighted by delta(q, sigma, p, T(xi-d), d)*."""
    frame = table.frame
    acc: dict[Configuration, complex] = {}
    for config, amp in psi.items():
        for moves in frame.move_vectors():
            cells = tuple(h - d for h, d in zip(config.heads, moves))
            written = tuple(t.read(c) for t, c in zip(config.tapes, cells))
            block = table.amplitudes[:, :, config.state, frame.symbol_flat(written), frame.move_flat(moves)]
            for q, sflat in zip(*np.nonzero(block)):
                sigma = frame.symbol_vector(int(sflat))
                tapes = tuple(t.write(c, s) for t, c, s in zip(config.tapes, cells, sigma))
                image = Configuration(int(q), tapes, cells)
                acc[image] = acc.get(image, 0j) + amp * complex(block[q, sflat]).conjugate()
    return Superposition(acc)


class _Rules:
    """Decoded rule caches shared by every basis-state expansion of one call:
    forward rules per read (q, sigma) grouped by written vector tau, in the
    order each tau first appears in `rules_for`, and in (p, tau, d) order
    within a group; adjoint hits per (p, written, move) in `np.nonzero`
    order (q, sigma).  With `prune`, rules below PRUNE_THRESHOLD are then
    left out of both: the groups keep the order that every nonzero rule gives
    them, as the package's one kernel expands every rule and drops the small
    entries afterwards."""

    __slots__ = ("table", "frame", "prune", "forward", "adjoint", "moves", "writes")

    def __init__(self, table: TransitionTable, prune: bool = False):
        self.table = table
        self.frame = table.frame
        self.prune = prune
        self.forward: dict = {}
        self.adjoint: dict = {}
        self.moves = [(d, self.frame.move_flat(d)) for d in self.frame.move_vectors()]
        self.writes: dict = {}

    def _forward_rules(self, q: int, sigma: tuple[int, ...]):
        # (distinct written vectors, distinct move vectors, rules as
        # (p, written index, move index, amplitude))
        key = (q, sigma)
        hit = self.forward.get(key)
        if hit is None:
            frame = self.frame
            taus: dict = {}
            moves: dict = {}
            rules = [
                (p, taus.setdefault(t, len(taus)), moves.setdefault(m, len(moves)), coef)
                for p, t, m, coef in rules_for(self.table, q, frame.symbol_flat(sigma))
            ]
            rules.sort(key=lambda rule: rule[1])  # stable: (p, tau, d) within a tau
            if self.prune:
                rules = [rule for rule in rules if abs(rule[3]) >= PRUNE_THRESHOLD]
            hit = self.forward[key] = (
                [frame.symbol_vector(t) for t in taus],
                [frame.move_vector(m) for m in moves],
                rules,
            )
        return hit

    def _adjoint_hits(self, p: int, written: tuple[int, ...], mflat: int):
        # (distinct read vectors, hits as (q, read index, conjugated amplitude))
        key = (p, written, mflat)
        hit = self.adjoint.get(key)
        if hit is None:
            frame = self.frame
            block = self.table.amplitudes[:, :, p, frame.symbol_flat(written), mflat]
            sigmas: dict = {}
            hits = [
                (int(q), sigmas.setdefault(int(s), len(sigmas)), complex(block[q, s]).conjugate())
                for q, s in zip(*np.nonzero(block))
                if not self.prune or abs(block[q, s]) >= PRUNE_THRESHOLD
            ]
            hit = self.adjoint[key] = ([frame.symbol_vector(s) for s in sigmas], hits)
        return hit

    def images(self, config: Configuration) -> list:
        """Terms (state, (tapes, supports), heads, amplitude) of M|config>, in
        rule order; `supports` holds the tapes' cell tuples."""
        tapes, heads = config.tapes, config.heads
        taus, moves, rules = self._forward_rules(
            config.state, tuple(t.read(h) for t, h in zip(tapes, heads))
        )
        written = [self._written(tapes, heads, tau) for tau in taus]
        shifted = [tuple(h + d for h, d in zip(heads, m)) for m in moves]
        return [(p, written[a], shifted[b], coef) for p, a, b, coef in rules]

    def preimages(self, config: Configuration) -> list:
        """Terms of M^dagger|config> in the same form, move by move."""
        tapes, heads, state = config.tapes, config.heads, config.state
        out = []
        for moves, mflat in self.moves:
            cells = tuple(map(operator.sub, heads, moves))
            sigmas, hits = self._adjoint_hits(state, tuple(map(Tape.read, tapes, cells)), mflat)
            if hits:
                written = [self._written(tapes, cells, sigma) for sigma in sigmas]
                out += [(q, written[a], cells, coef) for q, a, coef in hits]
        return out

    def _written(self, tapes, cells, symbols):
        """The tapes with `symbols` written at `cells`, and their supports.
        Each write of one symbol at one cell of one tape is made once per
        `_Rules`: the memo is keyed by the tape's id, which hashes faster
        than the tape, and holds the tape, so no other tape takes its id
        while the memo lives."""
        writes, new = self.writes, []
        for t, c, w in zip(tapes, cells, symbols):
            key = (id(t), c, w)
            hit = writes.get(key)
            if hit is None:
                hit = writes[key] = (t, t.write(c, w))
            new.append(hit[1])
        new = tuple(new)
        return new, tuple(t.cells for t in new)


def _expand(rules: _Rules, configs, adjoint: bool):
    """Expand each basis state through the step operator (or its adjoint).

    Returns (keys, images, first, rows, counts, vals): the sort key and the
    configuration of each distinct image in first-reached order, the first
    config index that reaches it, the image id of every entry, the entry
    count per config and the coefficient of every entry.  Entries run config
    by config in `_Rules` order, and an image appears at most once per config.
    """
    expand = rules.preimages if adjoint else rules.images
    # Images are keyed by their sort key (state, heads, supports), which
    # hashes in C; configurations are built once per distinct image.
    ids: dict = {}
    images: list[Configuration] = []
    first: list[int] = []
    rows, counts, vals = [], [], []
    for i, config in enumerate(configs):
        terms = expand(config)
        counts.append(len(terms))
        for state, (tapes, supports), heads, coef in terms:
            key = (state, heads, supports)
            row = ids.get(key)
            if row is None:
                row = ids[key] = len(images)
                images.append(_config_unchecked(state, tapes, heads))
                first.append(i)
            rows.append(row)
            vals.append(coef)
    return (list(ids), images, first, np.asarray(rows, dtype=np.intp), counts,
            np.asarray(vals, dtype=np.complex128))


def reference_step_operator(
    table: TransitionTable, configs, adjoint: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[Configuration, ...]]:
    """The step operator (or its adjoint) on the basis states `configs`, as
    COO arrays (rows, cols, vals) plus the image configurations that `rows`
    indexes.

    Column i holds the expansion of configs[i] in `_Rules` order: forward
    entries grouped by written vector in first-appearance order, then
    (p, tau, d); adjoint entries move by move, then (q, sigma).
    Amplitudes below PRUNE_THRESHOLD are dropped, as `Superposition` does.
    Images are numbered by the first column that reaches them, then by
    `sort_key` within that column.
    """
    keys, images, first, rows, counts, vals = _expand(_Rules(table, prune=True), configs, adjoint)
    # A Gram entry adds its terms in image-id order, so the numbering fixes
    # its rounding; (first column, sort key) keeps it independent of rule order.
    order = sorted(range(len(keys)), key=lambda k: (first[k], keys[k]))
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order), dtype=np.intp)
    return (
        rank[rows],
        np.repeat(np.arange(len(counts), dtype=np.intp), counts),
        vals,
        tuple(images[k] for k in order),
    )


def reference_numbering(kernel, terms, walk, adjoint: bool) -> tuple[np.ndarray, np.ndarray]:
    """`_Kernel.operator`'s (order, sizes) for the rule walk `walk` on the
    packed `terms`, numbered from the keys of every image rather than of
    each group's first: one `_runs` of the keys of all entries' images
    groups and ranks the images by `sort_key`, and a stable argsort of each
    group's first parent then ranks them by first column."""
    order, starts, ids = _runs(kernel.keys(kernel.images(terms, walk, adjoint)))
    by_column = walk.parent[order[starts]].argsort(kind="stable")
    number = np.empty(len(starts), dtype=np.intp)
    number[by_column] = np.arange(len(starts), dtype=np.intp)
    rows = number[ids]
    return rows.argsort(kind="stable"), np.bincount(rows, minlength=len(starts))


def by_image(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
    """A COO matrix as `oracle._gram_blocks` takes it: (cols, vals) stable-
    sorted by row, so each row's entries keep their order, and the entry
    count of every row that has entries, in row order."""
    order = np.argsort(rows, kind="stable")
    return cols[order], vals[order], np.unique(rows, return_counts=True)[1]


def reference_gram_product(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int):
    """The whole of A^H A for the COO matrix A with n columns, as sorted keys
    i*n + j and the entry sums G[i, j] = sum_k conj(A[k, i]) A[k, j].

    Entries are stable-sorted by row (an image) and every two entries that
    share a row are paired, both ways round, so the pairs run by image id,
    then column, and each G[i, j] adds its terms in image-id order.
    """
    order = np.argsort(rows, kind="stable")
    cols, vals = cols[order], vals[order]
    _, starts, sizes = np.unique(rows[order], return_index=True, return_counts=True)
    fan = sizes * sizes
    group = np.repeat(np.arange(starts.size), fan)
    local = np.arange(fan.sum()) - np.repeat(np.cumsum(fan) - fan, fan)
    left = starts[group] + local // sizes[group]
    right = starts[group] + local % sizes[group]
    keys, inverse = np.unique(cols[left] * n + cols[right], return_inverse=True)
    ar, ai = vals.real[left], vals.imag[left]
    br, bi = vals.real[right], vals.imag[right]
    sums = (
        np.bincount(inverse, weights=ar * br + ai * bi, minlength=keys.size)
        + 1j * np.bincount(inverse, weights=ar * bi - ai * br, minlength=keys.size)
    )
    return keys, sums


def reference_gram_residuals(keys: np.ndarray, sums: np.ndarray, n: int):
    """From the whole of G, as `reference_gram_product` gives it: the
    diagonal residuals |G[i, i] - 1|, the largest off-diagonal modulus, the
    first (i, j) in key order that attains it (None without off-diagonal
    keys) and the number of off-diagonal keys."""
    i, j = np.divmod(keys, n)
    on_diag = i == j
    diagonal = np.zeros(n, dtype=np.complex128)
    diagonal[i[on_diag]] = sums[on_diag]
    off_i, off_j, off_abs = i[~on_diag], j[~on_diag], np.abs(sums[~on_diag])
    off = float(off_abs.max()) if off_abs.size else 0.0
    tie = None
    if off_abs.size:
        first = np.flatnonzero(off_abs == off)[0]
        tie = (int(off_i[first]), int(off_j[first]))
    return np.abs(diagonal - 1.0), off, tie, int(off_abs.size)


def reference_gram_check(table: TransitionTable, radius: int, tolerance: float, side: str) -> GramCheck:
    """The Gram check over the decoded reference window, expanded by
    `reference_step_operator` and multiplied out in full by
    `reference_gram_product`."""
    window = reference_radius_window(table.frame, radius)
    n = len(window)
    rows, cols, vals, _ = reference_step_operator(table, window, adjoint=side == "rows")
    diag_resid, off, tie, pairs = reference_gram_residuals(*reference_gram_product(rows, cols, vals, n), n)
    diag = float(diag_resid.max())
    if diag >= off:
        k = int(np.argmax(diag_resid))
        witness = (window[k], window[k])
    else:
        witness = (window[tie[0]], window[tie[1]])
    return GramCheck(side=side, radius=radius, tolerance=tolerance, diagonal_residual=diag,
                     offdiagonal_residual=off, witness=witness, config_count=n, pair_count=pairs)


def _chunked_norm(x: np.ndarray) -> float:
    """`np.linalg.norm(x)` of a complex vector, sqrt(re.re + im.im), with
    each dot product summed over chunks of at most 10,000 entries in order:
    OpenBLAS splits a longer `ddot` across its threads, and `estimate_norm`
    sums by chunks so that its bits do not follow the thread count."""
    squares = []
    for part in (x.real, x.imag):
        total = 0.0
        for start in range(0, len(part), 10_000):
            chunk = part[start:start + 10_000]
            total += chunk.dot(chunk)
        squares.append(total)
    return math.sqrt(squares[0] + squares[1])


def reference_estimate_norm(table: TransitionTable, window_radius: int, iterations: int,
                            seed: int = 0) -> float:
    """`estimate_norm` with the window's images located through a
    Configuration -> position dict, the interior read off each
    configuration and every norm from `_chunked_norm`."""
    window = reference_radius_window(table.frame, window_radius)
    index = {c: i for i, c in enumerate(window)}
    n = len(window)
    rows, cols, vals, images = step_operator(table, window)
    inside = np.array([index.get(c, -1) for c in images], dtype=np.intp)[rows]
    keep = inside >= 0
    rows, cols, vals = inside[keep], cols[keep], vals[keep]

    def matvec(v):
        prod = vals * v[cols]
        return (np.bincount(rows, weights=prod.real, minlength=n)
                + 1j * np.bincount(rows, weights=prod.imag, minlength=n))

    def rmatvec(w):
        prod = vals.conj() * w[rows]
        return (np.bincount(cols, weights=prod.real, minlength=n)
                + 1j * np.bincount(cols, weights=prod.imag, minlength=n))

    interior = np.array(
        [i for i, c in enumerate(window)
         if all(abs(h) <= window_radius - 1 for h in c.heads)
         and all(abs(m) <= window_radius - 1 for t in c.tapes for m in t.support)],
        dtype=np.intp,
    )
    v = np.zeros(n, dtype=np.complex128)
    v[interior] = 1.0
    norm_v = _chunked_norm(v)
    if norm_v > 0:
        v /= norm_v
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v += 0.01 * noise / _chunked_norm(noise)
    v /= _chunked_norm(v)
    estimate = 0.0
    for _ in range(iterations):
        w = matvec(v)
        norm_w = _chunked_norm(w)
        if norm_w == 0.0:
            return 0.0
        estimate = norm_w
        u = rmatvec(w)
        v = u / _chunked_norm(u)
    return estimate
