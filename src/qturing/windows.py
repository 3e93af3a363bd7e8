"""The radius window of the brute-force oracle and the windowed norm
estimator `estimate_norm`: one packed window, its decoding, and the power
iteration on the step operator compressed to it.

The radius-r window holds every configuration with, per tape, support and
head inside [-r, r]; it works for any number of tapes.  It is the product
of the states with, per tape, a tape code (the 2r+1 symbols over [-r, r],
leftmost most significant) and a head, so it has
|Q| * prod_i (2r+1) * |Sigma_i|^(2r+1) configurations.  Above
MAX_WINDOW_CONFIGS a window is refused before anything is allocated.

`PackedWindow` enumerates that product straight into packed arrays on the
columns [-r-1, r+1], where every one-step image of a window configuration
still fits, and puts it in `Configuration.sort_key` order.  The mixed-radix
code (state, then per tape tape code and head) of a packed term gives its
window position by one lookup, so images are located without decoding
(`PackedWindow.index`; `estimate_norm` starts from `.interior`).
`radius_window` decodes the whole window into configurations.
"""
from __future__ import annotations

import numpy as np

from .evolution import _Kernel, _Layout, _Terms, _runs
from .frame import Configuration, TuringFrame
from .table import TransitionTable

# The largest window built: Q2S2 at r=4 has 9,216 configurations, and a
# window of 2**20 packs into tens of MiB.
MAX_WINDOW_CONFIGS = 2 ** 20


def window_size(frame: TuringFrame, radius: int) -> int:
    """|Q| * prod_i (2r+1) * |Sigma_i|^(2r+1), the number of configurations
    in the radius window; ValueError for r < 1 or above MAX_WINDOW_CONFIGS.
    Only small powers are ever formed, so no radius allocates much."""
    if radius < 1:
        raise ValueError("radius must be a positive integer")
    width = 2 * radius + 1
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


def estimate_norm(table: TransitionTable, window_radius: int, iterations: int, seed: int = 0) -> float:
    """Power-iteration lower bound on the operator norm, computed on the
    window of configurations whose support and head lie inside [-w, w] on
    every tape.

    The estimate is a Rayleigh quotient of the compressed operator, hence
    never exceeds the true norm; it is exact (=1) for tables that pass the
    unitarity conditions, because interior window states are fixed points of
    the compressed normal operator.  A window of more than
    `MAX_WINDOW_CONFIGS` configurations is refused with ValueError.

    Each iteration forms A v and then A^H w.  Each of the two adds its
    entry products into a zero vector one at a time, in entry order: window
    column by window column, each column in `step_operator` order.  The
    products are numpy complex products, which may fuse multiply-adds, so
    the last bits of the estimate can differ between hosts.
    """
    if window_radius < 1 or iterations < 1:
        raise ValueError("window_radius and iterations must be positive")
    kernel = _Kernel.of(table)
    window = PackedWindow(kernel, window_radius)
    n = window.size

    # the step operator compressed to the window, entries in step_operator order
    cols, entries, vals = kernel.kept(window.terms, adjoint=False)
    inside = window.index(entries)
    keep = inside >= 0
    rows, cols, vals = inside[keep], cols[keep], vals[keep]
    del entries, inside, keep  # the power iteration needs only the kept entries

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
