"""The paper's pointwise definitions and configuration windows enumerated
one `Configuration` at a time, kept as independent references for the tests.

`alpha` and `beta` are the write-then-move successor and its move-back-
then-write inverse, `precedes` is one-step reachability, `locally_like`
compares the state and the three cells around a single head, and
`matrix_element` reads <c'|M|c> off two configurations: together they are
the route to the step operator that the packed kernel is checked against.

`ConfigurationWindow(frame, n, d)` is the single-tape exhaustion window with
tape support inside {1..n} and head in {1-d..n+d}; its cardinality is
(n+2d) * |Q| * |Sigma|^n.  `reference_radius_window(frame, r)` is the
`itertools.product` enumeration of the radius window that the packed
window in `qturing.windows` replaced.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from qturing import Configuration, Tape, TransitionTable, TuringFrame
from qturing.frame import MOVES, _as_vector, _config_unchecked


def _tapes_over(support: tuple[int, ...], alphabet_size: int, blank: int):
    """All canonical tapes whose non-blank cells lie inside `support`."""
    for symbols in itertools.product(range(alphabet_size), repeat=len(support)):
        yield Tape(blank, tuple((m, s) for m, s in zip(support, symbols) if s != blank))


@dataclass(frozen=True)
class ConfigurationWindow:
    """Single-tape window: support in {1..n}, head in {1-d..n+d}."""

    frame: TuringFrame
    n: int
    d: int

    def __post_init__(self):
        if self.frame.tape_count != 1:
            raise ValueError("ConfigurationWindow is a single-tape construction")
        if self.d not in (-1, 0, 1):
            raise ValueError("window extension d must be in {-1,0,1}")
        if self.n + 2 * self.d <= 0:
            raise ValueError("window head range is empty")

    @property
    def head_range(self) -> range:
        return range(1 - self.d, self.n + self.d + 1)

    def expected_cardinality(self) -> int:
        frame = self.frame
        return (self.n + 2 * self.d) * frame.state_count * frame.symbol_counts[0] ** self.n

    def configurations(self) -> tuple[Configuration, ...]:
        frame = self.frame
        support = tuple(range(1, self.n + 1))
        out = []
        for q in range(frame.state_count):
            for tape in _tapes_over(support, frame.symbol_counts[0], frame.blanks[0]):
                for head in self.head_range:
                    out.append(Configuration(q, (tape,), (head,)))
        out.sort(key=Configuration.sort_key)
        return tuple(out)


def reference_radius_window(frame: TuringFrame, radius: int) -> tuple[Configuration, ...]:
    """All configurations with, per tape, support and head inside [-radius, radius]."""
    if radius < 1:
        raise ValueError("radius must be a positive integer")
    support = tuple(range(-radius, radius + 1))
    per_tape = []
    for size, blank in zip(frame.symbol_counts, frame.blanks):
        tapes = tuple(_tapes_over(support, size, blank))
        per_tape.append([(t, h) for t in tapes for h in support])
    out = []
    for q in range(frame.state_count):
        for combo in itertools.product(*per_tape):
            # the parts are canonical tuples already, so skip re-validation
            tapes = tuple(t for t, _ in combo)
            heads = tuple(h for _, h in combo)
            out.append(_config_unchecked(q, tapes, heads))
    out.sort(key=Configuration.sort_key)
    return tuple(out)


def write_at(tape: Tape, cell: int, symbol: int, alphabet_size: int | None = None) -> Tape:
    """Overwrite one cell, restoring canonical form (writing blank deletes)."""
    if symbol < 0 or (alphabet_size is not None and symbol >= alphabet_size):
        raise IndexError(f"symbol index {symbol} out of alphabet range")
    return tape.write(cell, symbol)



def _check_same_shape(c: Configuration, c_prime: Configuration):
    if c.tape_count != c_prime.tape_count:
        raise ValueError("configurations have different tape counts")
    for t, t2 in zip(c.tapes, c_prime.tapes):
        if t.blank != t2.blank:
            raise ValueError("configurations have different blanks")


def alpha(frame: TuringFrame, p: int, tau, d, c: Configuration) -> Configuration:
    """Write-then-move successor: state p, write tau[i] at head i, move by d[i]."""
    k = frame.tape_count
    tau = _as_vector(tau, k, "tau")
    d = _as_vector(d, k, "d")
    if c.tape_count != k:
        raise ValueError("configuration does not match frame tape count")
    if not 0 <= p < frame.state_count:
        raise IndexError(f"state index {p} out of range")
    for di in d:
        if di not in MOVES:
            raise ValueError(f"move component {di} not in {{-1,0,1}}")
    tapes = tuple(
        write_at(t, h, s, size)
        for t, h, s, size in zip(c.tapes, c.heads, tau, frame.symbol_counts)
    )
    heads = tuple(h + di for h, di in zip(c.heads, d))
    return Configuration(p, tapes, heads)


def beta(frame: TuringFrame, p: int, sigma, d, c: Configuration) -> Configuration:
    """Move-back-then-write inverse: state p, write sigma[i] at head i - d[i]."""
    k = frame.tape_count
    sigma = _as_vector(sigma, k, "sigma")
    d = _as_vector(d, k, "d")
    if c.tape_count != k:
        raise ValueError("configuration does not match frame tape count")
    if not 0 <= p < frame.state_count:
        raise IndexError(f"state index {p} out of range")
    for di in d:
        if di not in MOVES:
            raise ValueError(f"move component {di} not in {{-1,0,1}}")
    tapes = tuple(
        write_at(t, h - di, s, size)
        for t, h, s, di, size in zip(c.tapes, c.heads, sigma, d, frame.symbol_counts)
    )
    heads = tuple(h - di for h, di in zip(c.heads, d))
    return Configuration(p, tapes, heads)


def precedes(c: Configuration, c_prime: Configuration) -> bool:
    """One-step reachability: per tape, contents equal off the head cell and
    the head moved by at most one."""
    _check_same_shape(c, c_prime)
    for t, t2, h, h2 in zip(c.tapes, c_prime.tapes, c.heads, c_prime.heads):
        if abs(h2 - h) > 1:
            return False
        cells = {m for m, _ in t.cells} | {m for m, _ in t2.cells}
        for m in cells:
            if m != h and t.read(m) != t2.read(m):
                return False
    return True


def locally_like(c: Configuration, c_prime: Configuration) -> bool:
    """Same state and the same three symbols around the head (single tape)."""
    _check_same_shape(c, c_prime)
    if c.tape_count != 1:
        raise ValueError("locally_like is defined for single-tape configurations")
    if c.state != c_prime.state:
        return False
    t, t2 = c.tapes[0], c_prime.tapes[0]
    h, h2 = c.heads[0], c_prime.heads[0]
    return all(t.read(h + d) == t2.read(h2 + d) for d in MOVES)


def sorted_configurations(configs: Iterable[Configuration]) -> list[Configuration]:
    return sorted(configs, key=Configuration.sort_key)


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
