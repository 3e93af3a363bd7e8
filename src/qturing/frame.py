"""Frames, tapes, configurations, and the combinatorial relations between them.

A frame fixes the finite ingredients of a machine: processor states and one
alphabet (with a designated blank) per tape.  Configurations are immutable
values; every operation returns a fresh configuration.  All symbols and
states are handled as integer indices into the frame's name tables.
"""
from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MOVES = (-1, 0, 1)


def _as_vector(value, k: int, what: str) -> tuple[int, ...]:
    """Normalize a scalar (k=1 convenience) or a sequence to a length-k tuple."""
    if isinstance(value, numbers.Integral):
        if k != 1:
            raise ValueError(f"{what} must be a length-{k} vector, got a scalar")
        return (int(value),)
    vec = tuple(int(v) for v in value)
    if len(vec) != k:
        raise ValueError(f"{what} must have length {k}, got {len(vec)}")
    return vec


@dataclass(frozen=True)
class TuringFrame:
    """States plus one alphabet per tape, each with a designated blank index."""

    states: tuple[str, ...]
    alphabets: tuple[tuple[str, ...], ...]
    blanks: tuple[int, ...] = ()

    def __post_init__(self):
        states = tuple(self.states)
        alphabets = tuple(tuple(a) for a in self.alphabets)
        blanks = tuple(self.blanks) if self.blanks else (0,) * len(alphabets)
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

    def state_name(self, q: int) -> str:
        return self.states[q]

    def symbol_name(self, tape: int, s: int) -> str:
        return self.alphabets[tape][s]


@dataclass(frozen=True)
class Tape:
    """Finite-support tape: blank everywhere except the stored cells.

    Canonical form: `cells` is sorted by cell index and never stores the
    blank, so two tapes are equal iff their supports are equal.
    """

    blank: int
    cells: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        cells = tuple(sorted((int(m), int(s)) for m, s in self.cells))
        if any(s == self.blank for _, s in cells):
            raise ValueError("canonical tape never stores the blank")
        if len({m for m, _ in cells}) != len(cells):
            raise ValueError("duplicate cell in tape support")
        object.__setattr__(self, "cells", cells)

    def __hash__(self):
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash((self.blank, self.cells))
            object.__setattr__(self, "_hash", cached)
        return cached

    def read(self, cell: int) -> int:
        for m, s in self.cells:
            if m == cell:
                return s
            if m > cell:
                break
        return self.blank

    def write(self, cell: int, symbol: int) -> "Tape":
        # Linear merge keeps the support sorted, so validation can be skipped.
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


def write_at(tape: Tape, cell: int, symbol: int, alphabet_size: int | None = None) -> Tape:
    """Overwrite one cell, restoring canonical form (writing blank deletes)."""
    if symbol < 0 or (alphabet_size is not None and symbol >= alphabet_size):
        raise IndexError(f"symbol index {symbol} out of alphabet range")
    return tape.write(cell, symbol)


@dataclass(frozen=True)
class Configuration:
    """Processor state, one finite-support tape per track, one head per track."""

    state: int
    tapes: tuple[Tape, ...]
    heads: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "tapes", tuple(self.tapes))
        object.__setattr__(self, "heads", tuple(int(h) for h in self.heads))
        if len(self.tapes) != len(self.heads):
            raise ValueError("tape count and head count must agree")
        if not self.tapes:
            raise ValueError("a configuration needs at least one tape")

    def __hash__(self):
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash((self.state, self.tapes, self.heads))
            object.__setattr__(self, "_hash", cached)
        return cached

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


def blank_configuration(frame: TuringFrame, state: int = 0) -> Configuration:
    return Configuration(state, frame.blank_tapes(), (0,) * frame.tape_count)


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
