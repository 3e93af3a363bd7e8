"""Pairwise Gram oracle, kept as an independent reference for the tests.

Each Gram entry is one sparse inner product of two full expansions through
`apply` (columns) or `apply_adjoint` (rows).  Off-diagonal entries can only
be nonzero for structurally close pairs (heads at distance <= 2 per tape,
tapes agreeing off the two head cells for columns; a single differing cell
next to both heads for rows), so pair enumeration is restricted to that
pattern.  The package itself forms the whole Gram matrix from
`step_operator` instead (see `qturing.oracle`).

`reference_apply` and `reference_adjoint` are the per-term dict loops that
`apply` and `apply_adjoint` replaced, and `reference_step_operator` is the
per-configuration expansion loop (`_Rules` and `_expand`) that the packed
step kernel replaced; the tests hold the packed kernel to them bit for bit.
"""
from __future__ import annotations

import itertools
from collections import defaultdict

import numpy as np

from qturing import (
    PRUNE_THRESHOLD,
    Configuration,
    Superposition,
    TransitionTable,
    TuringFrame,
    apply,
    apply_adjoint,
)
from qturing.frame import _config_unchecked


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


def _grouped_rules(table: TransitionTable, cache: dict, q: int, sflat: int):
    """Rules for one read grouped by written symbol vector, preserving the
    canonical (p, tau, d) order inside each group."""
    key = (q, sflat)
    groups = cache.get(key)
    if groups is None:
        frame = table.frame
        by_tau: dict[tuple[int, ...], list] = {}
        for p, t, m, amp in table.rules_for(q, sflat):
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
    order (q, sigma).  With `prune`, rules below PRUNE_THRESHOLD are left out
    of both."""

    __slots__ = ("table", "frame", "prune", "forward", "adjoint", "moves")

    def __init__(self, table: TransitionTable, prune: bool = False):
        self.table = table
        self.frame = table.frame
        self.prune = prune
        self.forward: dict = {}
        self.adjoint: dict = {}
        self.moves = [(d, self.frame.move_flat(d)) for d in self.frame.move_vectors()]

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
                for p, t, m, coef in self.table.rules_for(q, frame.symbol_flat(sigma))
                if not self.prune or abs(coef) >= PRUNE_THRESHOLD
            ]
            rules.sort(key=lambda rule: rule[1])  # stable: (p, tau, d) within a tau
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
        written = [_written(tapes, heads, tau) for tau in taus]
        shifted = [tuple(h + d for h, d in zip(heads, m)) for m in moves]
        return [(p, written[a], shifted[b], coef) for p, a, b, coef in rules]

    def preimages(self, config: Configuration) -> list:
        """Terms of M^dagger|config> in the same form, move by move."""
        tapes, heads = config.tapes, config.heads
        out = []
        for moves, mflat in self.moves:
            cells = tuple(h - d for h, d in zip(heads, moves))
            sigmas, hits = self._adjoint_hits(
                config.state, tuple(t.read(c) for t, c in zip(tapes, cells)), mflat
            )
            written = [_written(tapes, cells, sigma) for sigma in sigmas]
            out += [(q, written[a], cells, coef) for q, a, coef in hits]
        return out


def _written(tapes, cells, symbols):
    new = tuple(t.write(c, w) for t, c, w in zip(tapes, cells, symbols))
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
