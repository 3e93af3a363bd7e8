"""Sparse superpositions and the action of the evolution operator on them.

A superposition is a finite map from configurations to complex amplitudes;
amplitudes below the pruning threshold are dropped after every accumulation.
`_expand` is the one loop that expands basis states through the step
operator or its adjoint, rule by rule in a fixed order, so repeated runs are
bit-reproducible.  `step_operator` numbers its images for the Gram oracle and
the windowed norm estimator; `apply` and `apply_adjoint` weight its
coefficients by the amplitudes and sum them per image with `np.bincount`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .conditions import DEFAULT_TOLERANCE
from .frame import Configuration, _config_unchecked, precedes
from .ktape import check_auto
from .table import TransitionTable
from .windows import radius_window

PRUNE_THRESHOLD = 1e-15


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


def step_operator(
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


def _step(table: TransitionTable, psi: Superposition, adjoint: bool) -> Superposition:
    """M|psi> (or M^dagger|psi>): each product amp*coef is formed in real
    arithmetic with one rounding per product, as a Python complex product
    is, and summed per image in entry order; the result lists its images in
    first-reached order."""
    terms = psi.items()
    if any(config.tape_count != table.frame.tape_count for config, _ in terms):
        raise ValueError("superposition does not match the table's frame")
    _, images, _, rows, counts, coefs = _expand(_Rules(table), [c for c, _ in terms], adjoint)
    amps = np.repeat(np.array([a for _, a in terms], dtype=np.complex128), counts)
    n = len(images)
    re = np.bincount(rows, weights=amps.real * coefs.real - amps.imag * coefs.imag, minlength=n)
    im = np.bincount(rows, weights=amps.real * coefs.imag + amps.imag * coefs.real, minlength=n)
    return Superposition(zip(images, (re + 1j * im).tolist()))


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


def run(
    table: TransitionTable,
    initial: Superposition,
    steps: int,
    *,
    unchecked: bool = False,
    tolerance: float = DEFAULT_TOLERANCE,
) -> RunResult:
    """Apply the evolution operator `steps` times, logging per-step norms.

    The table is validated first unless `unchecked`; norm drift is reported,
    never corrected.
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
    psi = initial
    norms = [initial.norm()]
    for _ in range(steps):
        psi = apply(table, psi)
        norms.append(psi.norm())
    return RunResult(final=psi, norms=tuple(norms))


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
