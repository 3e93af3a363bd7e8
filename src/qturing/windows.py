"""The radius window of the brute-force oracle and the windowed norm
estimator `estimate_norm`: one packed window, its decoding, and the power
iteration on the step operator compressed to it.

The radius-r window holds every configuration with, per tape, support and
head inside [-r, r]; it works for any number of tapes.  It is the product
of the states with, per tape, a tape code (the 2r+1 symbols over [-r, r],
leftmost most significant) and a head, so it has
|Q| * prod_i (2r+1) * |Sigma_i|^(2r+1) configurations.  A window of more
than MAX_WINDOW_CONFIGS configurations, or whose packed cells (configurations
x tapes x (2r+3)) exceed `evolution.MAX_STEP_SYMBOLS`, is refused before
anything is allocated.

`PackedWindow` enumerates that product straight into packed arrays on the
columns [-r-1, r+1], where every one-step image of a window configuration
still fits, and puts it in `Configuration.sort_key` order.  The mixed-radix
code (state, then per tape tape code and head) of a packed term gives its
window position by one lookup, so images are located without decoding
(`PackedWindow.index`; `estimate_norm` starts from `.interior`).
`radius_window` decodes the whole window into configurations.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .evolution import MAX_STEP_SYMBOLS, _Kernel, _Layout, _Terms, _runs
from .frame import Configuration, TuringFrame, _is_integer
from .table import TransitionTable

# The largest window built: Q2S2 at r=4 has 9,216 configurations.  A
# window's packed cells, configurations x tapes x (2r+3), are bounded
# separately by MAX_STEP_SYMBOLS: a one-symbol tape keeps the configuration
# count linear in r while every configuration's cells grow with it.
MAX_WINDOW_CONFIGS = 2 ** 20


def _positive(value) -> bool:
    """Whether `value` is a positive Python or numpy integer, a bool not
    counting as one."""
    return _is_integer(value) and value >= 1


def window_size(frame: TuringFrame, radius: int) -> int:
    """|Q| * prod_i (2r+1) * |Sigma_i|^(2r+1), the number of configurations
    in the radius window; ValueError for a radius that is not a positive
    integer (Python or numpy; a float or a bool is refused), above
    MAX_WINDOW_CONFIGS, or when the packed cells (configurations x tapes x
    (2r+3)) exceed MAX_STEP_SYMBOLS.  Only small powers are ever formed, so
    no radius allocates much."""
    if not _positive(radius):
        raise ValueError("radius must be a positive integer")
    width = 2 * int(radius) + 1
    size = frame.state_count
    for symbols in frame.symbol_counts:
        # symbols**width >= 2**width, so a long window of two or more symbols
        # is refused before the power is formed
        if symbols > 1 and width > MAX_WINDOW_CONFIGS.bit_length():
            size = MAX_WINDOW_CONFIGS + 1
            break
        size *= width * symbols ** width
        if size > MAX_WINDOW_CONFIGS:
            break
    if size > MAX_WINDOW_CONFIGS:
        raise ValueError(f"the radius-{radius} window holds more than {MAX_WINDOW_CONFIGS} "
                         "configurations (|Q| * prod (2r+1)|Sigma_i|^(2r+1)); use a smaller radius")
    if size * frame.tape_count * (width + 2) > MAX_STEP_SYMBOLS:
        raise ValueError(f"the radius-{radius} window packs more than {MAX_STEP_SYMBOLS} symbols "
                         "(configurations x tapes x (2r+3)); use a smaller radius")
    return size


class PackedWindow:
    """The radius window as packed terms in `sort_key` order.

    `terms` lies on the columns [-r-1, r+1], so tape cells sit in columns
    1..2r+1 and heads index 1..2r+1 too; `position[code]` is the window
    position of the term with mixed-radix code `code`."""

    def __init__(self, layout: _Layout, radius: int):
        self.size = window_size(layout.frame, radius)
        self.layout = layout
        width = self.width = 2 * radius + 1
        symbol_counts = layout.frame.symbol_counts
        # per tape: the place value of each cell in the tape code
        place_values = [symbols ** np.arange(width - 1, -1, -1) for symbols in symbol_counts]
        # code 0..size-1 splits into the state, then per tape (tape code, head)
        code = np.arange(self.size)
        heads, tapes = [], []
        for symbols in reversed(symbol_counts):
            code, head = np.divmod(code, width)
            code, tape = np.divmod(code, symbols ** width)
            heads.insert(0, head + 1)
            tapes.insert(0, tape)
        cells = np.empty((self.size, layout.k, width + 2), dtype=layout.dtype)
        cells[...] = layout.blanks[:, None]
        for i, (tape, powers, symbols) in enumerate(zip(tapes, place_values, symbol_counts)):
            cells[:, i, 1:-1] = tape[:, None] // powers % symbols
        packed = _Terms(code, np.stack(heads, axis=1), cells,
                        np.arange(-radius - 1, radius + 2, dtype=np.int64))
        order, _, self.position = _runs(layout.keys(packed))  # terms are distinct: run = position
        self.terms = packed.take(order)

    def index(self, terms: _Terms) -> np.ndarray:
        """The window position of every term on the window's columns, or -1
        for a term outside it: one with a head or a non-blank cell on an
        edge column."""
        heads, cells, blanks, width = terms.heads, terms.cells, self.layout.blanks, self.width
        inside = ((heads > 0) & (heads <= width) & (cells[:, :, 0] == blanks)
                  & (cells[:, :, -1] == blanks)).all(axis=1)
        # the mixed-radix code, each tape code read cell by cell (Horner) in
        # place, so the symbol cells are never copied whole into int64
        code = terms.state.astype(np.int64)
        for i, symbols in enumerate(self.layout.frame.symbol_counts):
            for column in range(1, width + 1):
                code *= symbols
                code += cells[:, i, column]
            code *= width
            code += heads[:, i] - 1
        return np.where(inside, self.position[np.where(inside, code, 0)], -1)

    def interior(self) -> np.ndarray:
        """Window positions of the configurations whose heads and non-blank
        cells all lie inside [-r+1, r-1]."""
        heads, cells, blanks = self.terms.heads, self.terms.cells, self.layout.blanks
        inner = ((heads > 1) & (heads < self.width) & (cells[:, :, 1] == blanks)
                 & (cells[:, :, -2] == blanks)).all(axis=1)
        return np.flatnonzero(inner)


def radius_window(frame: TuringFrame, radius: int) -> tuple[Configuration, ...]:
    """All configurations with, per tape, support and head inside
    [-radius, radius], in `sort_key` order: the decoded `PackedWindow`."""
    layout = _Layout(frame)
    return tuple(layout.configurations(PackedWindow(layout, radius).terms))


# numpy's complex multiply is not bitwise commutative, and from this many
# complex128 entries on (256 KiB) numpy's temporary elision computes
# `a * b[i]` in place in the temporary b[i], as b[i] * a.  The `norm`
# goldens and `tests/reference_oracle.py` form A v as `vals * v[cols]`, so
# the slot product takes v's entries first from here on.
ELIDED_ENTRIES = 2 ** 14


class _Slots(NamedTuple):
    """One half-step of the power iteration, y[i] = the sum of vals * x[index]
    over the entries summed into i, in entry order.  Slot j of window
    position i holds i's j-th entry (value and gather index; padding holds
    0 at index 0), `tail` holds the entries past the last slot, in entry
    order, as (at, index, vals), and `swap` puts x[index] first in each
    product."""

    vals: np.ndarray  # (width, n) complex128
    index: np.ndarray  # (width, n) intp
    tail: tuple[np.ndarray, np.ndarray, np.ndarray]
    swap: bool


def _compressed(kernel: _Kernel, window: PackedWindow) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, vals): the entries of the step operator compressed to
    the window, in `step_operator` order."""
    cols, entries, vals = kernel.kept(window.terms, adjoint=False)
    inside = window.index(entries)
    keep = inside >= 0
    return inside[keep], cols[keep], vals[keep]


def _slots(at: np.ndarray, index: np.ndarray, vals: np.ndarray, n: int, swap: bool) -> _Slots:
    """The entries (at, index, vals) in slots of the widest position's width,
    but at most 2 * entries // n, so the slot matrices hold at most twice
    the entries; the entries past the last slot make the tail."""
    counts = np.bincount(at, minlength=n)
    width = min(int(counts.max(initial=0)), 2 * len(at) // n)
    order = np.argsort(at, kind="stable")  # grouped by window position, in entry order
    # each entry of `order` at flat slot (rank in its group) * n + position
    slot = np.arange(len(at)) - np.repeat(counts.cumsum() - counts, counts)
    slot *= n
    slot += at[order]
    slotted = slot < width * n
    tail = np.sort(order[~slotted])
    order, slot = order[slotted], slot[slotted]
    slot_vals = np.zeros(width * n, dtype=np.complex128)
    slot_vals[slot] = vals[order]
    slot_index = np.zeros(width * n, dtype=np.intp)
    slot_index[slot] = index[order]
    return _Slots(slot_vals.reshape(width, n), slot_index.reshape(width, n),
                  (at[tail], index[tail], vals[tail]), swap)


def _half_step(slots: _Slots, x: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """y[i] = the sum of vals * x[index] over i's slots, then its tail, from
    its first slot on in entry order: one gather into `buffer` (the shape of
    the slots), one multiply in place and one sum along axis 0, which adds
    slot after slot (a sum along axis 1 would go pairwise)."""
    x.take(slots.index, out=buffer, mode="clip")  # "raise" would gather through a second buffer
    if slots.swap:
        np.multiply(buffer, slots.vals, out=buffer)
    else:
        np.multiply(slots.vals, buffer, out=buffer)
    y = buffer.sum(axis=0)
    at, index, vals = slots.tail
    if len(at):
        gathered = x[index]
        np.add.at(y, at, np.multiply(gathered, vals) if slots.swap else np.multiply(vals, gathered))
    return y


def _norm(x: np.ndarray) -> float:
    """`np.linalg.norm(x)` of a complex vector, as the sums numpy 2.4.6
    forms for it, without its dispatch: the same bits, about 1.3 against
    1.8 us a call on a 2-vCPU Xeon."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def estimate_norm(table: TransitionTable, window_radius: int, iterations: int, seed: int = 0) -> float:
    """Power-iteration lower bound on the operator norm, computed on the
    window of configurations whose support and head lie inside [-w, w] on
    every tape.

    The estimate is a Rayleigh quotient of the compressed operator, hence
    never exceeds the true norm; it is exact (=1) for tables that pass the
    unitarity conditions, because interior window states are fixed points of
    the compressed normal operator.  A window of more than
    `MAX_WINDOW_CONFIGS` configurations is refused with ValueError, and a
    radius or iteration count that is not a positive integer (a float or a
    bool included) with ValueError too.

    Each iteration forms A v and then A^H w.  Each sum adds its entry
    products in entry order (window column by window column, each column
    in `step_operator` order), from the first product on.  For each half
    the entries are laid out once per estimate in slot matrices of shape
    (width, n): slot j of window position i holds i's j-th entry, padded
    with 0, so an iteration is one gather, one complex multiply in place
    and one sum along axis 0, which adds slot after slot.  The width is
    the widest position's, capped so the slots hold at most twice the
    entries; the entries past it are added after the slots by one
    `np.add.at`, in entry order, so the estimate's bits do not depend on
    the width.  The products keep the operand order of `vals * v[cols]` and
    `np.multiply(conj(vals), w[rows])`, which numpy's temporary elision
    swaps from `ELIDED_ENTRIES` entries on in the first.  v is normalized
    by a real multiply with 1/||v||.  The products are numpy complex
    products, which may fuse multiply-adds, so the last bits of the
    estimate can differ between hosts.
    """
    if not (_positive(window_radius) and _positive(iterations)):
        raise ValueError("window_radius and iterations must be positive")
    kernel = _Kernel.of(table)
    window = PackedWindow(kernel, window_radius)
    n = window.size

    rows, cols, vals = _compressed(kernel, window)
    # A v as `vals * v[cols]`, summed into rows; A^H w as
    # `np.multiply(conj(vals), w[rows])`, summed into columns
    forward = _slots(rows, cols, vals, n, swap=len(vals) >= ELIDED_ENTRIES)
    backward = _slots(cols, rows, np.conjugate(vals, out=vals), n, swap=False)
    del rows, cols, vals  # the power iteration needs only the slots
    buffer = np.empty((max(len(forward.vals), len(backward.vals)), n), dtype=np.complex128)
    forward_buffer, backward_buffer = buffer[:len(forward.vals)], buffer[:len(backward.vals)]

    v = np.zeros(n, dtype=np.complex128)
    v[window.interior()] = 1.0
    norm_v = _norm(v)
    if norm_v > 0:
        v /= norm_v
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v += 0.01 * noise / _norm(noise)
    v /= _norm(v)

    estimate = 0.0
    for _ in range(iterations):
        w = _half_step(forward, v, forward_buffer)
        norm_w = _norm(w)
        if norm_w == 0.0:
            return 0.0
        estimate = norm_w
        v = _half_step(backward, w, backward_buffer)
        # numpy divides a complex by a real as a multiply by its reciprocal,
        # so v /= ||v|| has the bits of one real multiply on the float64 view
        parts = v.view(np.float64)
        parts *= 1.0 / _norm(v)
    return estimate
