"""Configuration windows enumerated one `Configuration` at a time, kept as
independent references for the tests.

`ConfigurationWindow(frame, n, d)` is the single-tape exhaustion window with
tape support inside {1..n} and head in {1-d..n+d}; its cardinality is
(n+2d) * |Q| * |Sigma|^n.  `reference_radius_window(frame, r)` is the
`itertools.product` enumeration of the radius window that the packed
window in `qturing.windows` replaced.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from qturing import Configuration, Tape, TuringFrame
from qturing.frame import _config_unchecked


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
