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
anything is allocated.  A window whose tapes all have one symbol packs no
cells (`_Layout.blank_cells`); the packed-cell bound still counts them, as
a limit on the input.

`PackedWindow` enumerates that product straight into packed arrays on the
columns [-r-1, r+1], where every one-step image of a window configuration
still fits, and puts it in `Configuration.sort_key` order, keeping each
term's window code: the mixed-radix value of the state, then per tape the
tape code and the head.  An image's code is its parent's code plus a
per-entry delta of its rule at its slot (`PackedWindow.image_codes`), so
images are named without building their cells.  A step is fixed by its
local transition, so an image differs from its parent only in the state,
the head move and the symbols written under the heads; every other part
of the code depends on the window alone.  The window builds those parts
once (`_CodeParts`, for the edge codes and for the window codes): each
term's code without its state, that code less the symbols read at its
heads, and the place value of each head's column; and each term's last
non-blank column per tape (`_Layout.last_nonblank`), which the image
numbering reads.  A check adds only the per-rule and per-entry parts.
A forward image whose heads stay in 1..W is in the window, and its window
code finds its position with one lookup (`_compressed`, the operator of
`estimate_norm`, which starts from `.interior`); the Gram oracle groups
its entries by the code over the columns and heads 0..W+1, where every
image lies.  The codes
and the window positions come in the smallest unsigned dtype that holds
their range, known from the frame and the radius without a scan, since
numpy's stable sort of 8- and 16-bit integers (the Gram check's `_groups`,
the norm estimate's `_slots`) is a radix sort.
`radius_window` decodes the whole window into configurations, and
`.configuration` one term from its packed row.

The window and its parts depend only on the frame and the radius, so the
Gram checks and `estimate_norm` take it from `PackedWindow.of`, which
keeps one window per table on its kernel: the last radius asked for.
Nothing per rule or per direction is kept.  Its arrays are read-only, and
it is built on its own `_Layout`, so it holds no reference to the kernel
and is freed with its table by reference counting.

The power iteration lays each half's entries out once per estimate in slot
matrices (`_Slots`), and one loop runs every layout: a half whose entries
overflow its slots adds that tail after them in the same loop.  Its norms
are `_dot` sums, chunked so that no BLAS thread count moves their bits.
"""
from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from .evolution import MAX_STEP_SYMBOLS, _Kernel, _Layout, _Terms, _Walk, _runs
from .frame import Configuration, TuringFrame, _config_unchecked, _is_integer, _tape_unchecked
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
    (2r+3)) exceed MAX_STEP_SYMBOLS.  That bound limits the input: a
    window whose tapes all have one symbol packs no cells, and is refused
    all the same.  Only small powers are ever formed, so no radius
    allocates much."""
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


class _CodeParts(NamedTuple):
    """The rule-independent parts of the window terms' codes over one span:
    the columns and heads `first`..`first` + span - 1 (0..W+1 for the edge
    codes, 1..W for the window codes).  Per term, `code` is its code
    without the state digit (its heads and cells at their place values),
    `at` per multi-symbol tape the place value of its head's column, and
    `unread` its code less each symbol read at a head times that `at`.
    Every array but `heads` is in the codes' dtype, and all are read-only."""

    first: int  # the first column and head the code covers
    place: int  # the place value of the state
    heads: np.ndarray  # (k,) the place value of each head
    columns: tuple[np.ndarray, ...]  # per multi-symbol tape: (span,) the place value of each column
    code: np.ndarray  # (n,)
    unread: np.ndarray  # (n,)
    at: tuple[np.ndarray, ...]  # per multi-symbol tape: (n,)

    def arrays(self) -> list[np.ndarray]:
        return [self.heads, *self.columns, self.code, self.unread, *self.at]


class PackedWindow:
    """The radius window as packed terms in `sort_key` order, with the
    parts of the terms that no rule changes.

    `terms` lies on the columns [-r-1, r+1], so tape cells sit in columns
    1..2r+1 (no cells are packed when every tape has one symbol) and heads
    index 1..2r+1 too; `position[code]` is the window position of the
    term with window code `code`, a permutation of the positions in the
    smallest unsigned dtype that holds them.  `edges` and `inner` are the
    `_CodeParts` of the edge and the window codes, and `last_nonblank` the
    terms' `_Layout.last_nonblank`, all built once, here.  Every array is
    read-only, so one window can be shared by every check on its table
    (`of`)."""

    def __init__(self, layout: _Layout, radius: int):
        self.size = window_size(layout.frame, radius)
        self.layout, self.radius = layout, radius
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
        cells = layout.blank_cells(self.size, width + 2)
        for i, (tape, powers, symbols) in enumerate(zip(tapes, place_values, symbol_counts)):
            if symbols > 1:  # a one-symbol tape is blank
                cells[:, i, 1:-1] = tape[:, None] // powers % symbols
        packed = _Terms(code, np.stack(heads, axis=1), cells,
                        np.arange(-radius - 1, radius + 2, dtype=np.int64))
        codes, _, position = _runs(layout.keys(packed))  # terms are distinct: run = position
        self.position = position.astype(np.min_scalar_type(self.size - 1))  # so `_slots` sorts by radix
        self.terms = packed.take(codes)
        self.edges, self.inner = self._code_parts(0), self._code_parts(1)
        self.last_nonblank = layout.last_nonblank(self.terms)
        for array in (self.position, *self.terms[:4], self.last_nonblank, *self.edges.arrays(),
                      *self.inner.arrays()):
            array.flags.writeable = False

    def _code_parts(self, first: int) -> _CodeParts:
        """The `_CodeParts` over the columns and heads from `first` on: the
        digits are the state, then per tape the span cells (leftmost most
        significant) and the head, in the smallest unsigned dtype that holds
        their |Q| * prod_i (span * |Sigma_i|**span) values."""
        terms, counts, k = self.terms, self.layout.frame.symbol_counts, self.layout.k
        span = self.width + 2 - 2 * first
        heads, tapes, place = [0] * k, [0] * k, 1  # place values, the last tape's first
        for i in reversed(range(k)):
            heads[i] = place
            tapes[i] = place = place * span
            place *= counts[i] ** span
        dtype = np.min_scalar_type(self.layout.frame.state_count * place - 1)
        heads = np.array(heads)
        code = (terms.heads @ heads - first * int(heads.sum())).astype(dtype)
        columns, at = [], []
        for i in self.layout.written:
            columns.append((tapes[i] * counts[i] ** np.arange(span - 1, -1, -1)).astype(dtype))
            code += terms.cells[:, i, first:first + span] @ columns[-1]
            at.append(columns[-1][terms.heads[:, i] - first])
        unread = code  # a new array once a tape reads a symbol
        for i, place_at in zip(self.layout.written, at):
            unread = unread - place_at * terms.cells[np.arange(self.size), i, terms.heads[:, i]]
        return _CodeParts(first, place, heads, tuple(columns), code, unread, tuple(at))

    @classmethod
    def of(cls, kernel: _Kernel, radius: int) -> "PackedWindow":
        """The radius window of the kernel's table, built on first use and
        kept in the kernel's one `window` slot until another radius replaces
        it.  It is built on its own `_Layout` of the frame, so it holds no
        reference back to the kernel, and it goes with its table."""
        window_size(kernel.frame, radius)  # a kept window does not excuse a radius its build would refuse
        window = kernel.window
        if window is None or window.radius != radius:
            window = kernel.window = cls(_Layout(kernel.frame), radius)
        return window

    def configuration(self, position: int) -> Configuration:
        """The window term at `position`, read off its packed row."""
        terms = self.terms
        cols = terms.cols.tolist()
        tapes = tuple(_tape_unchecked(blank, tuple((col, symbol) for col, symbol in zip(cols, row) if symbol != blank))
                      for row, blank in zip(terms.cells[position].tolist(), self.layout.frame.blanks))
        return _config_unchecked(int(terms.state[position]), tapes, tuple(terms.cols[terms.heads[position]].tolist()))

    def image_codes(self, kernel: _Kernel, walk: _Walk, adjoint: bool, edges: bool) -> np.ndarray:
        """The code of every image of `walk`, a rule walk on the window's
        terms: its parent's code plus its rule's delta at its slot.  The
        delta is (p - q) P_state, plus the rule's head move times P_head
        (per rule, in both directions), plus per tape the written minus the
        read symbol times the place value of the written column (per slot).
        Without `edges` this is the window code, valid for a forward image
        whose heads all stay in 1..W (it writes only there).  With `edges`
        the code runs over the columns and heads 0..W+1, which hold every
        one-step image of a window term.  The codes come in the smallest
        unsigned dtype that holds their range, |Q| * prod_i (span *
        |Sigma_i|**span) over span columns and heads: uint16 up to dense
        Q2S2 at r=4 (45,056 edge codes), below 2**33 on any window of at
        most MAX_WINDOW_CONFIGS configurations.  A one-symbol tape has no
        cell digit, so it adds no work.  A slot that reads at its parent's
        heads (forward, and every one-symbol walk) takes all but the delta
        from `_CodeParts`; a multi-symbol adjoint slot, read along `back`,
        takes its parent's kept `code` and reads its columns per call."""
        _, _, to_state, to_write, to_move, _ = kernel.adjoint if adjoint else kernel.forward
        parts = self.edges if edges else self.inner
        dtype = parts.code.dtype
        # unsigned arithmetic wraps modulo 2**bits and every code fits the
        # dtype, so the codes sum exactly in it, though a delta may be negative
        base, at = parts.unread, parts.at  # per slot: its parent's code less its state and the symbols it reads
        if kernel.S > 1 and adjoint:
            base, at = parts.code.repeat(len(kernel.back)), []
            for i, columns in zip(self.layout.written, parts.columns):
                at.append(columns[walk.columns[:, i] - parts.first])
                base -= at[-1] * walk.read[:, i]
        delta = (to_state * parts.place + to_move @ parts.heads).astype(dtype)  # per rule: new state, head move
        code = base[walk.slot]
        code += delta[walk.rule]
        for i, place_at in zip(self.layout.written, at):
            product = to_write[:, i].astype(dtype)[walk.rule]
            product *= place_at[walk.slot]
            code += product
        return code

    def interior(self) -> np.ndarray:
        """Window positions of the configurations whose heads and non-blank
        cells all lie inside [-r+1, r-1]."""
        heads, cells, blanks = self.terms.heads, self.terms.cells, self.layout.blanks
        inner = (heads > 1) & (heads < self.width)
        if cells.shape[2]:
            inner &= (cells[:, :, 1] == blanks) & (cells[:, :, -2] == blanks)
        return np.flatnonzero(inner.all(axis=1))


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

# OpenBLAS splits a `ddot` of more than this many entries across its
# threads, so the order of its sum, and its last bits, follow the thread
# count; `_dot` sums longer vectors chunk by chunk.
_DOT_CHUNK = 10_000


class _Slots(NamedTuple):
    """One half-step of the power iteration, y[i] = the sum of vals * x[index]
    over the entries summed into i, in entry order.  Slot j of window
    position i holds i's j-th entry (value and gather index; padding holds
    0 at index 0), and `tail` holds the entries past the last slot, in
    entry order, as (at, index, vals)."""

    vals: np.ndarray  # (width, n) complex128
    index: np.ndarray  # (width, n) intp
    tail: tuple[np.ndarray, np.ndarray, np.ndarray]


def _compressed(kernel: _Kernel, window: PackedWindow) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, vals): the entries of the step operator compressed to
    the window, in `step_operator` order.  A forward image lies in the
    window exactly when every head stays in 1..W, and then its window code
    gives its position."""
    walk = kernel.kept(window.terms, adjoint=False)
    heads = walk.columns[walk.slot] + kernel.forward[4][walk.rule]
    inside = ((heads > 0) & (heads <= window.width)).all(axis=1)
    if not inside.all():
        walk = walk.take(inside)
    return window.position[window.image_codes(kernel, walk, False, edges=False)], walk.parent, walk.coef


def _slots(at: np.ndarray, index: np.ndarray, vals: np.ndarray, n: int) -> _Slots:
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
                  (at[tail], index[tail], vals[tail]))


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x @ y of float64 vectors whose sum does not follow the BLAS thread
    count: one `ddot` per chunk of at most _DOT_CHUNK entries, added in order.
    A vector of one chunk keeps the bits of `x.dot(y)`."""
    if len(x) <= _DOT_CHUNK:
        return x.dot(y)
    total = 0.0
    for start in range(0, len(x), _DOT_CHUNK):
        total += x[start:start + _DOT_CHUNK].dot(y[start:start + _DOT_CHUNK])
    return total


def _norm(x: np.ndarray) -> float:
    """||x|| of a complex vector from `_dot` of its parts, without the
    dispatch of `np.linalg.norm(x)`: its bits under numpy 2.4.6 up to
    _DOT_CHUNK entries, and bits that no thread count changes above that."""
    re, im = x.real, x.imag
    return math.sqrt(_dot(re, re) + _dot(im, im))


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

    The window is the one kept on the table's kernel (`PackedWindow.of`).
    Each iteration forms w = A v, then A^H w into v, then normalizes v.
    No iteration forms ||w||: the estimate is ||w|| of the last iteration,
    formed once after the loop.  The loop stops early only when ||A^H w||^2
    is exactly 0, which an all-zero table reaches at once (its estimate is
    0.0).  Each sum adds its entry products in entry order (window column
    by window column, each column in `step_operator` order), from the
    first product on.  For each half the entries are laid out once per
    estimate in slot matrices of shape (width, n): slot j of window
    position i holds i's j-th entry, padded with 0.  The width is the
    widest position's, capped so the slots hold at most twice the entries;
    the entries past it make the half's tail.  One loop serves every
    layout: each half-step is one gather, one complex multiply in place
    and one sum along axis 0, which adds slot after slot, and then, only
    for a half with a tail, one `np.add.at` of the tail in entry order, so
    the estimate's bits do not depend on the width.  The products keep the
    operand order of `vals * v[cols]` and `np.multiply(conj(vals),
    w[rows])`, which numpy's temporary elision swaps from `ELIDED_ENTRIES`
    entries on in the first.  v is normalized by a real multiply with
    1/||v||, and ||v||^2 and the estimate's ||w|| are `_dot` sums, so no
    BLAS thread count changes them.  The products are numpy complex
    products, which may fuse multiply-adds, so the last bits of the
    estimate can differ between hosts.
    """
    if not (_positive(window_radius) and _positive(iterations)):
        raise ValueError("window_radius and iterations must be positive")
    if not (_is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    kernel = _Kernel.of(table)
    window = PackedWindow.of(kernel, window_radius)
    n = window.size

    rows, cols, vals = _compressed(kernel, window)
    # A v as `vals * v[cols]`, summed into rows, which numpy's temporary
    # elision swaps from ELIDED_ENTRIES entries on; A^H w as
    # `np.multiply(conj(vals), w[rows])`, summed into columns
    swap = len(vals) >= ELIDED_ENTRIES
    forward = _slots(rows, cols, vals, n)
    backward = _slots(cols, rows, np.conjugate(vals, out=vals), n)
    del rows, cols, vals  # the power iteration needs only the slots
    buffer = np.empty((max(len(forward.vals), len(backward.vals)), n), dtype=np.complex128)

    v = np.zeros(n, dtype=np.complex128)
    v[window.interior()] = 1.0
    norm_v = _norm(v)
    if norm_v > 0:
        v /= norm_v
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v += 0.01 * noise / _norm(noise)
    v /= _norm(v)

    # w and v are updated in place, through views made once; numpy divides
    # a complex by a real as a multiply by its reciprocal, so v /= ||v|| has
    # the bits of one real multiply on the float64 view
    w = np.empty(n, dtype=np.complex128)
    # per half: the vector gathered from, the gather index and the buffer it
    # fills (the shape of the slots), the product's operands in order, the
    # vector summed into, and the tail with its operand order (None without)
    halves = []
    for slots, x, y, swapped in ((forward, v, w, swap), (backward, w, v, False)):
        gathered = buffer[:len(slots.vals)]
        operands = (gathered, slots.vals) if swapped else (slots.vals, gathered)
        tail = (*slots.tail, swapped) if len(slots.tail[0]) else None
        halves.append((x, slots.index, gathered, operands, y, tail))
    v_re, v_im, v_parts, sqrt = v.real, v.imag, v.view(np.float64), math.sqrt
    multiply, reduce = np.multiply, np.add.reduce
    # ||v||^2 as re_dot(v_re) + im_dot(v_im), by chunks only where one `ddot` would split
    re_dot, im_dot = (v_re.dot, v_im.dot) if n <= _DOT_CHUNK else (partial(_dot, v_re), partial(_dot, v_im))
    for _ in range(iterations):
        for x, index, gathered, operands, y, tail in halves:
            x.take(index, out=gathered, mode="clip")  # "raise" would gather through a second buffer
            multiply(*operands, gathered)
            reduce(gathered, 0, None, y)  # slot after slot; a sum along axis 1 would go pairwise
            if tail:
                at, tail_index, tail_vals, swapped = tail
                product = x[tail_index]
                np.add.at(y, at, multiply(product, tail_vals) if swapped else multiply(tail_vals, product))
        square = re_dot(v_re) + im_dot(v_im)
        if square == 0.0:
            break
        v_parts *= 1.0 / sqrt(square)
    return _norm(w)
