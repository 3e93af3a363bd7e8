"""Frames, tapes and configurations.

A frame fixes the finite ingredients of a machine: processor states and one
alphabet (with a designated blank) per tape.  Configurations are immutable
values; every operation returns a fresh configuration.  All symbols and
states are handled as integer indices into the frame's name tables.
"""
from __future__ import annotations

import gc
import itertools
import numbers
from dataclasses import dataclass
from typing import Iterator, Sequence

MOVES = (-1, 0, 1)


def _is_integer(value) -> bool:
    """Whether `value` is a Python or numpy integer; a bool is not one.  A
    plain int is answered without the slower ABC check."""
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _integer(value, what: str) -> int:
    """`value` as an int; ValueError unless `_is_integer(value)`, so a
    float is refused rather than truncated."""
    if not _is_integer(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _as_vector(value, k: int, what: str) -> tuple[int, ...]:
    """Normalize an integer scalar (k=1 convenience) or a sequence of integers
    to a length-k tuple; ValueError for any component that is not
    `_is_integer` (a float or a bool included)."""
    if _is_integer(value):
        if k != 1:
            raise ValueError(f"{what} must be a length-{k} vector, got a scalar")
        return (int(value),)
    try:
        vec = tuple(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer or a sequence of integers, got {value!r}") from None
    if not all(map(_is_integer, vec)):
        raise ValueError(f"{what} components must be integers, got {vec!r}")
    vec = tuple(int(v) for v in vec)
    if len(vec) != k:
        raise ValueError(f"{what} must have length {k}, got {len(vec)}")
    return vec


@dataclass(frozen=True)
class TuringFrame:
    """States plus one alphabet per tape, each with a designated blank index:
    a Python or numpy integer, stored as an int (ValueError for a float or
    a bool).  `blanks` is a tuple or list with one index per tape, or empty
    for blank 0 on every tape (ValueError for a scalar or an array)."""

    states: tuple[str, ...]
    alphabets: tuple[tuple[str, ...], ...]
    blanks: tuple[int, ...] = ()

    def __post_init__(self):
        states = tuple(self.states)
        alphabets = tuple(tuple(a) for a in self.alphabets)
        if not isinstance(self.blanks, (tuple, list)):
            raise ValueError(f"blanks must be a tuple or list of blank indices, got {self.blanks!r}")
        blanks = (tuple(_integer(b, "blank index") for b in self.blanks) if self.blanks
                  else (0,) * len(alphabets))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "alphabets", alphabets)
        object.__setattr__(self, "blanks", blanks)
        if not states:
            raise ValueError("frame needs at least one state")
        if len(set(states)) != len(states):
            raise ValueError("state names must be unique")
        if not alphabets:
            raise ValueError("frame needs at least one tape")
        if len(blanks) != len(alphabets):
            raise ValueError("one blank index per tape required")
        for symbols, blank in zip(alphabets, blanks):
            if not symbols:
                raise ValueError("alphabets must be nonempty")
            if len(set(symbols)) != len(symbols):
                raise ValueError("symbol names must be unique per tape")
            if not 0 <= blank < len(symbols):
                raise ValueError("blank index out of range")

    @property
    def tape_count(self) -> int:
        return len(self.alphabets)

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def symbol_counts(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.alphabets)

    @property
    def symbol_block(self) -> int:
        """Number of read (or write) symbol vectors: product of alphabet sizes."""
        block = 1
        for a in self.alphabets:
            block *= len(a)
        return block

    @property
    def move_block(self) -> int:
        return 3 ** self.tape_count

    @property
    def table_shape(self) -> tuple[int, int, int, int, int]:
        """Shape of the dense rule table: (|Q|, S, |Q|, S, 3^k), indexed by
        state read, symbol vector read, state written, symbol vector written
        and move vector."""
        return (self.state_count, self.symbol_block, self.state_count, self.symbol_block, self.move_block)

    def blank_tapes(self) -> tuple["Tape", ...]:
        return tuple(Tape(blank=b) for b in self.blanks)

    def symbol_flat(self, vec: Sequence[int]) -> int:
        """Flatten a symbol vector, tape 1 most significant."""
        flat = 0
        for size, s in zip(self.symbol_counts, vec):
            if not 0 <= s < size:
                raise IndexError(f"symbol index {s} out of range 0..{size - 1}")
            flat = flat * size + s
        return flat

    def symbol_vector(self, flat: int) -> tuple[int, ...]:
        vec = []
        for size in reversed(self.symbol_counts):
            vec.append(flat % size)
            flat //= size
        return tuple(reversed(vec))

    def move_flat(self, vec: Sequence[int]) -> int:
        flat = 0
        for d in vec:
            if d not in MOVES:
                raise IndexError(f"move component {d} not in {{-1,0,1}}")
            flat = flat * 3 + (d + 1)
        return flat

    def move_vector(self, flat: int) -> tuple[int, ...]:
        vec = []
        for _ in range(self.tape_count):
            vec.append(flat % 3 - 1)
            flat //= 3
        return tuple(reversed(vec))

    def symbol_vectors(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(n) for n in self.symbol_counts))

    def move_vectors(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(MOVES, repeat=self.tape_count)

    def symbol_name(self, tape: int, s: int) -> str:
        return self.alphabets[tape][s]


@dataclass(frozen=True)
class Tape:
    """Finite-support tape: blank everywhere except the stored cells.

    Canonical form: `cells` is sorted by cell index and never stores the
    blank, so two tapes are equal iff their supports are equal.  The blank,
    cells and symbols must be Python or numpy integers (ValueError
    otherwise, a float or a bool included).
    """

    blank: int
    cells: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        blank = _integer(self.blank, "tape blank")
        cells = tuple(sorted((_integer(m, "tape cell"), _integer(s, "tape symbol")) for m, s in self.cells))
        if any(s == blank for _, s in cells):
            raise ValueError("canonical tape never stores the blank")
        if len({m for m, _ in cells}) != len(cells):
            raise ValueError("duplicate cell in tape support")
        object.__setattr__(self, "blank", blank)
        object.__setattr__(self, "cells", cells)

    def read(self, cell: int) -> int:
        for m, s in self.cells:
            if m == cell:
                return s
            if m > cell:
                break
        return self.blank

    def write(self, cell: int, symbol: int) -> "Tape":
        # Linear merge keeps the support canonical, so its checks can be skipped.
        cell, symbol = _integer(cell, "tape cell"), _integer(symbol, "tape symbol")
        out = []
        placed = symbol == self.blank
        for m, s in self.cells:
            if m == cell:
                continue
            if not placed and m > cell:
                out.append((cell, symbol))
                placed = True
            out.append((m, s))
        if not placed:
            out.append((cell, symbol))
        return _tape_unchecked(self.blank, tuple(out))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.cells)


def _tape_unchecked(blank: int, cells: tuple[tuple[int, int], ...]) -> Tape:
    """Construct a tape from already-canonical cells, skipping validation."""
    tape = object.__new__(Tape)
    object.__setattr__(tape, "__dict__", {"blank": blank, "cells": cells})
    return tape


@dataclass(frozen=True)
class Configuration:
    """Processor state, one finite-support tape per track, one head per
    track.  The state and heads must be Python or numpy integers (ValueError
    otherwise, a float or a bool included)."""

    state: int
    tapes: tuple[Tape, ...]
    heads: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "state", _integer(self.state, "configuration state"))
        object.__setattr__(self, "tapes", tuple(self.tapes))
        object.__setattr__(self, "heads", tuple(_integer(h, "head") for h in self.heads))
        if len(self.tapes) != len(self.heads):
            raise ValueError("tape count and head count must agree")
        if not self.tapes:
            raise ValueError("a configuration needs at least one tape")

    @property
    def tape_count(self) -> int:
        return len(self.tapes)

    def read(self) -> tuple[int, ...]:
        """Symbols under the heads."""
        return tuple(t.read(h) for t, h in zip(self.tapes, self.heads))

    def sort_key(self):
        """Deterministic ordering: state, head vector, then supports."""
        return (self.state, self.heads, tuple(t.cells for t in self.tapes))


def _config_unchecked(state: int, tapes: tuple[Tape, ...], heads: tuple[int, ...]) -> Configuration:
    """Construct a configuration from already-normalized parts."""
    config = object.__new__(Configuration)
    object.__setattr__(config, "__dict__", {"state": state, "tapes": tapes, "heads": heads})
    return config


class _GcPaused:
    """`with _GcPaused():` runs a block with the cyclic garbage collector off,
    then restores the caller's setting, also when the block raises.  For
    blocks that build many objects and no reference cycles (decoded JSON,
    decoded configurations), whose allocations would otherwise set off
    collections that find nothing."""

    def __enter__(self):
        self._enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info):
        if self._enabled:
            gc.enable()


def blank_configuration(frame: TuringFrame, state: int = 0) -> Configuration:
    return Configuration(state, frame.blank_tapes(), (0,) * frame.tape_count)
