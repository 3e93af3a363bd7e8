"""Sparse superpositions and the action of the evolution operator on them.

A superposition is a finite map from configurations to complex amplitudes;
amplitudes below the pruning threshold are dropped after every accumulation.

One packed kernel expands basis states through the step operator or its
adjoint.  Terms are packed as arrays: `state (n,)`, `heads (n, k)` and
`cells (n, k, W)`, where `heads` index a sorted array of W cell positions
shared by all terms and `cells` holds symbols in the smallest unsigned
dtype that fits the alphabets.  A frame with one symbol per tape stores no
cells (`cells` is (n, k, 0)): its terms are their states and heads, and a
step reads and writes nothing else.  The columns are the cells that are
non-blank in some term or within a few cells of some head, so W is bounded
by the data, never by the coordinates: heads at 0 and 10**12 take a few
dozen columns.  Positions must lie within +-2**62 (`MAX_POSITION`).  The
rules are CSR arrays read off the table's nonzero amplitudes once per
table.  A step is the rule walk (`_Kernel.walk`: every term once per
matching rule, as parent, rule, slot and coefficient), then the merge of
the entries into images, with amp * coef summed per image by
`np.bincount`.

Each image has one sort key (`_Layout.keys`) whose order is
`Configuration.sort_key` order and which is equal only for equal images.
Its digits are the state and the heads, whose radices |Q| and W are known,
then the cell columns that vary, whose radices a scan finds.  The key is
their mixed-radix value as one uint64 when the radices multiply to less
than 2**64, and otherwise the digits big-endian as one void scalar,
compared as unsigned bytes; numpy sorts the integer form several times
faster.  A one-symbol frame has no cell digits, and its key
(`_Layout.one_symbol_key`) is formed directly from the state and heads
while |Q| * W**k < 2**63.  With one symbol per tape a term's rules depend
on its state alone, in both directions, so the rule walk keys each term by
its state and reads it once.  A step has one rule walk and two merges.  On
a one-symbol frame whose keys span at most 4 * entries + 256 values it
builds no image and merges by counting (`_Kernel.merge_by_key`): each
entry's key is its rule's part, kept on the kernel per direction, plus its
parent's part, the products land in one bin per key, and the bins some
entry reached are the images, already in key order.  Any other step
builds every entry's image (`_Kernel.images`: the written symbols
scattered into copies of the parent cells) and one stable sort of their
keys (`_runs`) both merges and orders them (`_Kernel.merge_by_sort`).
Both merges give the same bits, and every order matches the loop the
kernel replaced, so results are bit-reproducible: terms in `sort_key`
order, forward rules grouped by written vector in first-appearance order,
then (p, tau, d), adjoint hits move by move, then (q, sigma).
`step_operator` and the window routes (the Gram oracle and
`windows.estimate_norm`) take the rule walk of `_Kernel.kept`, without the
entries below PRUNE_THRESHOLD.  `_Kernel.operator` is the one image
numbering, by first column, then key: `step_operator` groups the entries
by image key, the Gram oracle by window code, and it builds no image.  A
step is fixed by its local transition, so the images of one parent differ
only in the state, the head move and the written symbols, and the
operator ranks each group's first entry by its parent and then by
`_Layout.local_keys`, `digit_keys`' digits on just those, with one stable
argsort in the smallest unsigned dtype that holds parent * span + key.
Those digits rank a written blank by whether the parent has a non-blank
cell beyond the written column, so the operator takes each term's last
non-blank column per tape (`_Layout.last_nonblank`): a window computes it
once, `step_operator` per call.
The norm estimate names each image by its window code and builds none.
`_Layout` (`keys`, `one_symbol_key`, `digit_keys`, `last_nonblank` and
`local_keys`) is the one class that knows `sort_key` order.
`windows` and `oracle` build on this module.

`apply`, `apply_adjoint` and `run` share one step, `_step`, whose result
stays packed: a `Superposition` holds its amplitudes in `sort_key` order
plus their first-reached order, and a stepped one also its packed terms,
which the next step takes back without decoding or sorting.  Terms carry
their head slack (`_Terms.slack`, the adjacent columns every head has on
each side): packing and re-framing set it to RUN_MARGIN, each step lowers
it by one, and a step re-frames the terms it takes at slack 0.  `len`,
`norm` and `repr` read the amplitudes;
the configurations are decoded once, when first asked for, and `items()`,
`configurations()` and the lookup dict of `amplitude`, `in`, `==`, `plus`
and `distance` all read that one decoding.
"""
from __future__ import annotations

import cmath
import contextlib
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .frame import Configuration, TuringFrame, _config_unchecked, _GcPaused, _is_integer, _tape_unchecked
from .ktape import DEFAULT_TOLERANCE, ValidationReport, _require_tolerance, check_auto
from .table import TransitionTable

PRUNE_THRESHOLD = 1e-15
MAX_POSITION = 2 ** 62  # head and cell positions must lie in [-MAX_POSITION, MAX_POSITION]
# Packing and re-framing keep every column within this many cells of a
# head, and a head moves at most one cell a step, so a chain of steps
# re-frames once every RUN_MARGIN steps.
RUN_MARGIN = 8
_NO_COLUMNS = np.empty(0, dtype=np.intp)
# A step whose entries would hold more than this many packed symbols
# (entries x tapes x columns, a few bytes each with the keys) is refused
# before its arrays are allocated.
MAX_STEP_SYMBOLS = 2 ** 26


def _amplitude(value) -> complex:
    """`value` as a complex amplitude: a Python or numpy number, not a bool,
    whose parts are finite floats; ValueError naming it otherwise."""
    if isinstance(value, numbers.Number) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an integer beyond the float range
            amp = complex(value)
            if cmath.isfinite(amp):
                return amp
    raise ValueError(f"amplitude must be a finite number, got {value!r}")


class Superposition:
    """Finite map Configuration -> complex amplitude, pruned and immutable.

    Every superposition holds its amplitudes as one complex128 array in
    `sort_key` order and `reached`, the permutation that lists them in
    first-reached order (insertion order for a constructed one).  Only the
    source of its configurations differs: the constructor keeps the sorted
    list it builds; the output of `apply`, `apply_adjoint` and `run` keeps
    the frame's `_Layout` and packed `_Terms`, decoded once, on first
    request.  The methods that look terms up build the dict (`_terms`) once,
    in first-reached order, from those configurations.  The constructor sums
    the amplitudes given for one configuration; each must be a finite
    number (`_amplitude`), and so must their sum."""

    __slots__ = ("_amps", "_reached", "_configs", "_packed", "_dict")

    def __init__(self, terms: dict[Configuration, complex] | Iterable | None = None):
        acc: dict[Configuration, complex] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for config, amp in items:
                amp = _amplitude(amp)
                acc[config] = _amplitude(acc[config] + amp) if config in acc else amp
        kept = [(c, a) for c, a in acc.items() if abs(a) >= PRUNE_THRESHOLD]
        order = sorted(range(len(kept)), key=lambda j: kept[j][0].sort_key())
        self._amps = np.array([kept[j][1] for j in order], dtype=np.complex128)
        self._reached = np.argsort(order, kind="stable")
        self._configs = [kept[j][0] for j in order]
        self._packed = self._dict = None

    @classmethod
    def basis(cls, config: Configuration, amplitude: complex = 1.0) -> "Superposition":
        return cls({config: amplitude})

    @classmethod
    def _from_packed(cls, layout: "_Layout", terms: "_Terms", reached: np.ndarray) -> "Superposition":
        """From distinct packed terms in `sort_key` order, their amplitudes
        already pruned, and `reached`, their first-reached order."""
        psi = object.__new__(cls)
        psi._amps, psi._reached, psi._packed = terms.amps, reached, (layout, terms)
        psi._configs = psi._dict = None
        return psi

    def _configurations(self) -> list[Configuration]:
        """The configurations in `sort_key` order, decoded on first request."""
        if self._configs is None:
            layout, terms = self._packed
            self._configs = layout.configurations(terms)
        return self._configs

    @property
    def _terms(self) -> dict[Configuration, complex]:
        if self._dict is None:
            configs = self._configurations()
            self._dict = dict(zip(map(configs.__getitem__, self._reached.tolist()),
                                  self._amps[self._reached].tolist()))
        return self._dict

    def amplitude(self, config: Configuration) -> complex:
        return self._terms.get(config, 0j)

    def items(self) -> list[tuple[Configuration, complex]]:
        return list(zip(self._configurations(), self._amps.tolist()))

    def configurations(self) -> list[Configuration]:
        return list(self._configurations())

    def __len__(self) -> int:
        return len(self._amps)

    def __contains__(self, config: Configuration) -> bool:
        return config in self._terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Superposition) and self._terms == other._terms

    def __repr__(self) -> str:
        return f"Superposition({len(self)} terms, norm={self.norm():.6g})"

    def norm(self) -> float:
        return _norm(self._amps[self._reached])

    def plus(self, other: "Superposition") -> "Superposition":
        acc = dict(self._terms)
        for c, a in other._terms.items():
            acc[c] = acc.get(c, 0j) + a
        return Superposition(acc)

    def distance(self, other: "Superposition") -> float:
        """Max termwise amplitude difference."""
        keys = set(self._terms) | set(other._terms)
        return max((abs(self.amplitude(c) - other.amplitude(c)) for c in keys), default=0.0)


# Every sort here is a stable argsort: equal keys keep their input order,
# and one sort kernel keeps the pages of numpy code a process touches small.

def _groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable sort order of a 1-D array, and whether each key in that
    order starts a run of equal keys."""
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    new[1:] = ordered[1:] != ordered[:-1]
    return order, new


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable sort order of a 1-D array, the start of each run of equal
    keys in that order, and the run number of every key."""
    order, new = _groups(keys)
    starts = new.nonzero()[0]
    new[:1] = False  # so the running count numbers the runs from 0
    run = np.empty(len(order), dtype=np.intp)
    run[order] = new.cumsum()
    return order, starts, run


def _columns(heads: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The columns of packed terms, sorted and distinct: the non-blank
    positions `cells` and all within RUN_MARGIN of a position in `heads`."""
    wanted = np.concatenate([(heads.reshape(-1, 1) + np.arange(-RUN_MARGIN, RUN_MARGIN + 1)).ravel(), cells])
    order, new = _groups(wanted)
    return wanted[order[new]]


def _products(amps: np.ndarray, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary parts of amp * coef per entry, each part with
    one rounding per product, as a Python complex product has."""
    ar, ai, cr, ci = amps.real, amps.imag, coef.real, coef.imag
    return ar * cr - ai * ci, ar * ci + ai * cr


def _pruned(first: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Which images, with amplitudes `vals` and first entries `first` in key
    order, the prune keeps (None for all), and the squared amplitude of the
    rest, summed in first-reached order."""
    keep = np.abs(vals) >= PRUNE_THRESHOLD
    if np.count_nonzero(keep) == len(keep):
        return None, 0.0
    lost = vals[~keep][first[~keep].argsort(kind="stable")]
    return keep, float((lost.real * lost.real + lost.imag * lost.imag).sum())


def _check_step_size(entries: int, k: int, width: int) -> None:
    """Refuse a step whose `entries` on k tapes of `width` columns would
    hold more than MAX_STEP_SYMBOLS packed image symbols."""
    if entries * k * width > MAX_STEP_SYMBOLS:
        raise ValueError(f"a step of {entries} entries on {width} columns per tape exceeds "
                         f"the {MAX_STEP_SYMBOLS} packed symbols a step may hold")


class _Terms(NamedTuple):
    """Packed basis states: `heads[j, i]` indexes `cols`, the sorted cell
    positions shared by every term, and `cells[j, i, w]` is tape i's symbol
    at `cols[w]`.  The cells axis has one column per entry of `cols` when
    some tape has two or more symbols, and no column when every tape has
    one (`_Layout.blank_cells`): such a term is its state and heads alone.
    `amps` is None for bare basis states.  Every head has at least `slack`
    adjacent columns on each side: cols[h - s..h + s] are the positions
    cols[h] - s..cols[h] + s for s <= slack."""

    state: np.ndarray  # (n,) intp
    heads: np.ndarray  # (n, k) intp
    cells: np.ndarray  # (n, k, W) unsigned symbols, (n, k, 0) with one symbol per tape
    cols: np.ndarray  # (W,) int64
    amps: np.ndarray | None = None  # (n,) complex128
    slack: int = 0

    def take(self, index: np.ndarray) -> "_Terms":
        return _Terms(self.state[index], self.heads[index], self.cells[index], self.cols,
                      None if self.amps is None else self.amps[index], self.slack)


class _Walk(NamedTuple):
    """The entries of M (or M^dagger) on packed basis states from the rule
    walk, in rule order: per entry its parent term, rule, slot and
    coefficient.  A slot is a term read once: term t at its heads is slot
    t, except in a multi-symbol adjoint, where term t read along the m-th
    move vector in use is slot t * (moves in use) + m.  Per slot, `columns`
    are the columns its images write at, and `read` the symbols there
    (None with one symbol per tape)."""

    parent: np.ndarray  # (entries,) intp
    rule: np.ndarray  # (entries,) intp
    slot: np.ndarray  # (entries,) intp
    coef: np.ndarray  # (entries,) complex128
    columns: np.ndarray  # (slots, k) intp
    read: np.ndarray | None  # (slots, k) unsigned symbols

    def take(self, index: np.ndarray) -> "_Walk":
        return _Walk(self.parent[index], self.rule[index], self.slot[index], self.coef[index], self.columns,
                     self.read)


_STATE = operator.attrgetter("state")
_HEADS = operator.attrgetter("heads")


class _Layout:
    """The packed layout of one frame's terms: their symbol dtype and
    blanks, their `sort_key` order and their decoding."""

    def __init__(self, frame: TuringFrame):
        self.frame = frame
        self.k = frame.tape_count
        self.sizes = np.array(frame.symbol_counts, dtype=np.intp)
        self.dtype = np.min_scalar_type(int(self.sizes.max()) - 1)
        self.blanks = np.array(frame.blanks, dtype=self.dtype)
        self.top = int(self.sizes.max()) + 1  # the key of a blank before a non-blank cell
        self.S = frame.symbol_block
        self.written = [i for i, size in enumerate(frame.symbol_counts) if size > 1]  # tapes with cell digits

    def blank_cells(self, n: int, width: int) -> np.ndarray:
        """Blank-filled cells for n terms on `width` columns: a cells axis of
        `width` columns when some tape has two or more symbols, and of none
        otherwise, since a one-symbol tape holds only its blank."""
        cells = np.empty((n, self.k, width if self.S > 1 else 0), dtype=self.dtype)
        cells[...] = self.blanks[:, None]
        return cells

    def keys(self, terms: _Terms) -> np.ndarray:
        """One key per term, in `Configuration.sort_key` order and equal only
        for equal terms: the mixed-radix value of `digit_keys`.  A frame with
        one symbol per tape has no cell digits, so while |Q| * W**k < 2**63
        its key, state * W**k + heads @ W**(k-1..0), is formed directly in
        int64 and viewed as uint64: the same values, without the digit rows."""
        width = len(terms.cols)
        if self.S == 1 and self.frame.state_count * width ** self.k < 2 ** 63:
            return self.one_symbol_key(width, terms.state, terms.heads).view(np.uint64)
        return self.digit_keys(terms)

    def one_symbol_key(self, width: int, state, heads: np.ndarray) -> np.ndarray:
        """state * W**k + heads @ W**(k-1..0) in int64, the key of a term of
        a one-symbol frame on W = `width` columns.  It is linear in state and
        heads, so a step sums the parts per rule and per slot."""
        key = state * width ** self.k
        if self.k == 1:
            return key + heads[:, 0]
        return key + heads @ width ** np.arange(self.k - 1, -1, -1)

    def digit_keys(self, terms: _Terms) -> np.ndarray:
        """The keys of `keys` from their digits: state (radix |Q|), heads
        (radix W), then per tape a symbol s as s+1 and a blank as 0, or as
        `top` when a non-blank cell follows it on its tape.  Only cell
        columns that vary between terms are kept, each with radix max + 1.
        When the radices multiply to less than 2**64, the key is the digits'
        mixed-radix value as one uint64; otherwise it is one void scalar of
        the digits big-endian, compared as unsigned bytes."""
        if not len(terms.state):
            return np.zeros(0, dtype=np.uint64)
        width = len(terms.cols)
        dtype = np.min_scalar_type(max(self.frame.state_count, width, self.top))
        # digit rows and each digit's highest value, known for the state and heads
        rows, highs = [terms.state[None, :], terms.heads.T], [self.frame.state_count - 1] + [width - 1] * self.k
        if self.S > 1:  # with one symbol per tape every cell is blank
            # one copy as (tape, column, term), so every pass runs along the terms
            cells = np.ascontiguousarray(terms.cells.transpose(1, 2, 0))
            filled = cells != self.blanks[:, None, None]
            used = filled.any(axis=2)
            for i in range(self.k):
                full = filled[i, used[i]]
                # a blank counts as `top` before its tape's last non-blank cell
                position = np.arange(1, len(full) + 1, dtype=dtype)[:, None]
                later = (position < np.max(full * position, axis=0, initial=0)) & ~full
                digits = full * (cells[i, used[i]] + dtype.type(1)) + later * dtype.type(self.top)
                high = digits.max(axis=1)
                vary = high != digits.min(axis=1)
                rows.append(digits[vary])
                highs += high[vary].tolist()
        rows = np.concatenate(rows, axis=0, dtype=dtype, casting="unsafe")
        place, total = [], 1  # mixed-radix place values, last digit first
        for high in reversed(highs):
            place.append(total)
            total *= high + 1
        if total < 2 ** 64:
            # einsum casts in small buffers; `@` would copy all digits to uint64
            return np.einsum("c,cn->n", np.array(place[::-1], dtype=np.uint64), rows)
        rows = np.ascontiguousarray(rows.T, dtype=dtype.newbyteorder(">"))
        return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))[:, 0]

    def last_nonblank(self, terms: _Terms) -> np.ndarray:
        """Per tape of two or more symbols (`written`) and per term, its last
        non-blank column, 0 for none (column 0 is beyond no column): shape
        (written tapes, terms), in the smallest unsigned dtype that holds
        the column count.  `local_keys` reads it; it depends on the terms
        alone, so a window computes it once."""
        # one copy as (tape, column, term), so the reduction runs along the terms
        cells = np.ascontiguousarray(terms.cells[:, self.written].transpose(1, 2, 0))
        column = np.arange(cells.shape[1], dtype=np.min_scalar_type(cells.shape[1]))
        return np.max((cells != self.blanks[self.written, None, None]) * column[:, None], axis=1, initial=0)

    def local_keys(self, last: np.ndarray, walk: _Walk, rules: tuple, entries: np.ndarray) -> np.ndarray:
        """For the `entries` of `walk`, a rule walk by `rules` (one direction
        of `_Kernel`) on terms whose `last_nonblank` is `last`, keys in the
        order of (parent, `keys` of the image): parent * span + the image's
        local key, in the smallest unsigned dtype that holds them.  Entries
        with distinct parents, or with one parent and distinct images, get
        distinct keys.

        A step is fixed by its local transition, so the images of one
        parent differ only in the new state, the head move and the symbols
        written at their slot's columns, and images with one state and one
        head move come from one slot, which writes the same columns.  So
        the local key is `digit_keys`' convention on those digits alone:
        the state, the head move per tape, then per tape the written symbol
        s as s+1 and a blank as 0, or as `top` where the parent's last
        non-blank column lies beyond the written column.  Where one image's
        written digit is 0 and another's is not, no non-blank follows the
        first one's written column, so its blanks before that column read 0
        too: the written digit decides.  A one-symbol tape writes its blank
        on its blank and has no digit.  On a window (at most 2**20
        configurations) the span is at most 2**20, so the keys stay below
        2**40; numpy sorts 8- and 16-bit integers by radix."""
        _, _, to_state, to_write, to_move, _ = rules
        k, radix, written = self.k, self.top + 1, self.written
        place = radix ** len(written)  # the written symbols are the last digits
        span = self.frame.state_count * 3 ** k * place
        part = to_state * (3 ** k * place)  # per rule: the state, the head move, the written symbols
        for i in range(k):
            part += (to_move[:, i] + 1) * (3 ** (k - 1 - i) * place)
        tops = []  # per written tape: `top` at its place where the rule writes a blank, else 0
        for i in written:
            place //= radix
            blank = to_write[:, i] == self.blanks[i]
            part += np.where(blank, 0, to_write[:, i].astype(np.intp) + 1) * place
            tops.append(blank * (self.top * place))
        parent, rule = walk.parent[entries], walk.rule[entries]
        key = part[rule]
        if tops:
            slot = walk.slot[entries]
            for i, row, top in zip(written, last, tops):
                key += (row[parent] > walk.columns[slot, i]) * top[rule]
        key += parent * span
        return key.astype(np.min_scalar_type(last.shape[1] * span - 1))

    def configurations(self, terms: _Terms) -> list[Configuration]:
        """Decode packed terms, reading only non-blank cells and building one
        Tape per distinct tape."""
        with _GcPaused():
            n, cols = len(terms.state), terms.cols
            per_tape = []
            for i, (blank, size) in enumerate(zip(self.frame.blanks, self.frame.symbol_counts)):
                rows = np.ascontiguousarray(terms.cells[:, i, :])
                data, width = rows.tobytes(), rows.shape[1] * rows.itemsize
                ids: dict = {}
                index = [ids.setdefault(data[j * width:(j + 1) * width], len(ids)) for j in range(n)]
                distinct = np.frombuffer(b"".join(ids), dtype=rows.dtype).reshape(len(ids), rows.shape[1])
                filled = distinct != blank
                at, col = np.nonzero(filled)
                # one (cell, symbol) tuple per distinct pair, shared by the tapes
                code = col * size + distinct[at, col]
                order, starts, run = _runs(code)
                col, sym = np.divmod(code[order[starts]], size)
                shared = list(zip(cols[col].tolist(), sym.tolist()))
                pairs = list(map(shared.__getitem__, run.tolist()))
                ends = np.cumsum(filled.sum(axis=1)).tolist()
                tapes = [_tape_unchecked(blank, tuple(pairs[a:b])) for a, b in zip([0] + ends, ends)]
                per_tape.append([tapes[j] for j in index])
            return [_config_unchecked(q, t, tuple(h)) for q, t, h in
                    zip(terms.state.tolist(), zip(*per_tape), cols[terms.heads].tolist())]


class _Kernel(_Layout):
    """The table's rules as CSR arrays, read from its nonzero amplitudes,
    and the packed step built on them.

    `forward` indexes the rules by read (q, sigma): grouped by written
    vector in the order each first appears, then in (p, tau, d) order.
    `adjoint` indexes the hits by (p, written, move) in (q, sigma) order,
    conjugated; with one symbol per tape the written symbols are blank and
    a state's hits are one row, by p alone, move by move.  Each is
    (rule end, rule count) per key, then the state, written symbols, head
    move (the move vector, negated in the adjoint) and coefficient per
    rule.  Every nonzero rule is kept; `kept` drops the entries below
    PRUNE_THRESHOLD by `large`, the rules it keeps in each direction (None
    for all).  `used_moves` and `back` are the move vectors some rule uses,
    along which a multi-symbol adjoint reads.  `rule_keys` holds the last
    per-rule key part `merge_by_key` used in each direction, with its
    column count.
    `verdict` holds `run`'s one `check_auto` report (no residual depends on
    the tolerance), and `window` the one radius window
    `windows.PackedWindow.of` keeps for the Gram checks and `estimate_norm`:
    read-only, for the last radius asked for, and freed with the table,
    since it refers to no kernel."""

    def __init__(self, table: TransitionTable):
        super().__init__(table.frame)
        frame = self.frame
        self.M = frame.move_block
        self.tapes = np.arange(self.k)
        self.state_ids = frozenset(range(frame.state_count))
        # symbol and move vectors are flattened with tape 1 most significant
        self.strides = np.append(np.cumprod(self.sizes[:0:-1])[::-1], 1).astype(np.intp)
        self.moves = np.array(list(frame.move_vectors()), dtype=np.intp).reshape(self.M, self.k)
        amps = table.amplitudes.ravel()
        flat = np.flatnonzero(amps)
        coef = amps[flat]
        S, M, reads = self.S, self.M, frame.state_count * self.S
        read, target = np.divmod(flat, reads * M)  # (q, sigma) and (p, tau, d), flat
        p, t = np.divmod(target // M, S)
        # forward: each (read, tau) group sorts by its first rule, stably
        order, starts, run = _runs(read * S + t)
        order = np.argsort(order[starts][run], kind="stable")
        count = np.bincount(read, minlength=reads)
        self.forward = (count.cumsum(), count, p[order], self._symbols(t[order]),
                        self.moves[target[order] % M], coef[order])
        small, forward = np.abs(coef) < PRUNE_THRESHOLD, order  # the rules `kept` drops
        order = np.argsort(target, kind="stable")
        q, s = np.divmod(read[order], S)
        # with one symbol per tape the hits of state p (targets p*M .. p*M + M - 1)
        # are one row, already in walk order
        count = np.bincount(target, minlength=reads * M) if S > 1 else np.bincount(target // M, minlength=reads)
        self.adjoint = (count.cumsum(), count, q, self._symbols(s), -self.moves[target[order] % M],
                        coef[order].conj())
        self.large = (~small[forward], ~small[order]) if small.any() else (None, None)
        # the move vectors some rule uses, ascending: a multi-symbol adjoint looks back only along these
        self.used_moves = np.flatnonzero(np.bincount(target % M, minlength=M))
        self.back = self.moves[self.used_moves]
        self.rule_keys: list[tuple[int, np.ndarray] | None] = [None, None]
        self.verdict: ValidationReport | None = None
        self.window = None

    @classmethod
    def of(cls, table: TransitionTable) -> "_Kernel":
        """The table's kernel, built on first use and kept on the table."""
        kernel = table._kernel
        if kernel is None:
            kernel = cls(table)
            object.__setattr__(table, "_kernel", kernel)
        return kernel

    def _symbols(self, flat: np.ndarray) -> np.ndarray:
        """Flat symbol vectors as (rules, k) symbols."""
        return (flat[:, None] // self.strides % self.sizes).astype(self.dtype)

    def pack(self, configs, amps=None) -> _Terms:
        """Pack configurations (and their amplitudes) in the given order, on
        `_columns`, with RUN_MARGIN slack: every stored (term, tape, cell,
        symbol) is scattered into one blank-filled array."""
        frame, k, n = self.frame, self.k, len(configs)
        states = list(map(_STATE, configs))
        heads = list(map(_HEADS, configs))
        if not ({k}.issuperset(map(len, heads)) and self.state_ids.issuperset(states)
                and all(t.blank == b for c in configs for t, b in zip(c.tapes, frame.blanks))):
            raise ValueError("superposition does not match the table's frame")
        stored = [(j, i, *cell) for j, c in enumerate(configs) for i, t in enumerate(c.tapes) for cell in t.cells]
        ints = [m for _, _, m, _ in stored] + list(itertools.chain.from_iterable(heads))
        if ints and (min(ints) < -MAX_POSITION or max(ints) > MAX_POSITION):
            raise ValueError("configuration positions must lie within -2**62..2**62")
        term, tape, cell, sym = np.array(stored, dtype=np.int64).reshape(-1, 4).T
        bad = tape[(sym < 0) | (sym >= self.sizes[tape])]
        if bad.size:
            i = int(bad.min())
            raise ValueError(f"tape-{i + 1} symbol out of range 0..{frame.symbol_counts[i] - 1}")
        heads = np.array(heads, dtype=np.int64).reshape(n, k)
        cols = _columns(heads, cell)
        cells = self.blank_cells(n, len(cols))
        cells[term, tape, np.searchsorted(cols, cell)] = sym
        return _Terms(np.array(states, dtype=np.intp), np.searchsorted(cols, heads), cells, cols,
                      None if amps is None else np.array(amps, dtype=np.complex128), RUN_MARGIN)

    def walk(self, terms: _Terms, adjoint: bool) -> _Walk:
        """The rule walk: every entry of M (or M^dagger) on the packed basis
        states, term by term in rule order.  With one symbol per tape a
        term's rules depend on its state alone, so both directions key it
        by its state and read it once, at its heads.  With more symbols the
        adjoint reads and keys each term only along `used_moves`, the move
        vectors some rule uses, since no hit lies along the others.  More
        than MAX_STEP_SYMBOLS packed image symbols (entries x tapes x
        columns) raise ValueError, before any array of the entries is
        allocated."""
        stops, counts, _, _, _, coefs = self.adjoint if adjoint else self.forward
        state, heads, k, S = terms.state, terms.heads, self.k, self.S
        looks_back = S > 1 and adjoint  # a multi-symbol adjoint reads each term once per move in use
        # the rule keys; with one symbol per tape (S = 1) every read is blank, so a key is a state
        columns, key, read = heads, state, None
        if looks_back:
            columns = heads[:, None, :] - self.back  # (n, moves in use, k)
            read = terms.cells[np.arange(len(state))[:, None, None], self.tapes, columns]
            key = ((state[:, None] * S + read @ self.strides) * self.M + self.used_moves).ravel()
            read, columns = read.reshape(-1, k), columns.reshape(-1, k)
        elif S > 1:
            read = terms.cells[np.arange(len(state))[:, None], self.tapes, heads]
            key = state * S + read @ self.strides
        stop, count = stops[key], counts[key]
        ends = count.cumsum()
        entries = int(ends[-1]) if len(ends) else 0
        _check_step_size(entries, k, len(terms.cols))
        slot = np.arange(len(key)).repeat(count)
        rule = (stop - ends)[slot] + np.arange(entries)
        parent = slot // max(len(self.back), 1) if looks_back else slot  # without rules no move is in use
        return _Walk(parent, rule, slot, coefs[rule], columns, read)

    def kept(self, terms: _Terms, adjoint: bool) -> _Walk:
        """The rule walk without the entries below PRUNE_THRESHOLD: the
        matrix entries of `step_operator`, the Gram check and the windowed
        norm estimate."""
        walk, large = self.walk(terms, adjoint), self.large[bool(adjoint)]
        return walk if large is None else walk.take(large[walk.rule])

    def images(self, terms: _Terms, walk: _Walk, adjoint: bool) -> _Terms:
        """The image of every entry of `walk`, a rule walk on `terms`: its
        parent's cells with the rule's symbols written at its slot's
        columns, the rule's state, and its heads at those columns moved by
        the rule's head move, except on a multi-symbol adjoint slot, which
        is read after the move.  A head moves at most one column, so the
        images keep one column less slack."""
        _, _, to_state, to_write, to_move, _ = self.adjoint if adjoint else self.forward
        at = walk.columns[walk.slot]
        cells = terms.cells[walk.parent]
        if self.S > 1:
            cells[np.arange(len(walk.rule))[:, None], self.tapes, at] = to_write[walk.rule]
        return _Terms(to_state[walk.rule], at if self.S > 1 and adjoint else at + to_move[walk.rule], cells,
                      terms.cols, None, max(terms.slack - 1, 0))

    def step(self, terms: _Terms, adjoint: bool) -> tuple[_Terms, np.ndarray, float]:
        """M|psi> (or M^dagger|psi>) on packed terms with amplitudes: the
        images in `sort_key` order, the permutation that lists them in
        first-reached order, and the squared amplitude the prune dropped.
        Each product amp*coef is formed in real arithmetic with one rounding
        per product, as a Python complex product is, and summed per image in
        entry order from +0.0.

        After the rule walk, a frame with one symbol per tape whose keys
        span at most 4 * entries + 256 values (|Q| * W**k) merges by
        counting (`merge_by_key`); any other step builds every image
        (`merge_by_sort`).  Both give the same bits."""
        walk = self.walk(terms, adjoint)
        if self.S == 1 and self.frame.state_count * len(terms.cols) ** self.k <= 4 * len(walk.rule) + 256:
            return self.merge_by_key(terms, walk, adjoint)
        return self.merge_by_sort(terms, walk, adjoint)

    def merge_by_sort(self, terms: _Terms, walk: _Walk, adjoint: bool) -> tuple[_Terms, np.ndarray, float]:
        """`step`'s merge on any frame: the image of every entry (`images`),
        keyed, and one stable sort (`_runs`) that groups and orders them."""
        entries = self.images(terms, walk, adjoint)
        order, starts, ids = _runs(self.keys(entries))
        first = order[starts]  # each image's first entry
        re, im = _products(terms.amps[walk.parent], walk.coef)
        # every image has an entry, so the sums need no minlength
        vals = np.bincount(ids, weights=re).astype(np.complex128)
        vals.imag = np.bincount(ids, weights=im)
        keep, dropped = _pruned(first, vals)
        if keep is not None:
            first, vals = first[keep], vals[keep]
        images = _Terms(entries.state[first], entries.heads[first], entries.cells[first], entries.cols,
                        vals, entries.slack)
        return images, first.argsort(kind="stable"), dropped

    def merge_by_key(self, terms: _Terms, walk: _Walk, adjoint: bool) -> tuple[_Terms, np.ndarray, float]:
        """`step`'s merge on a one-symbol frame, with no image rows: the key
        (`one_symbol_key`) is linear, so each entry's is its rule's part
        (the new state and head move, kept in `rule_keys` per direction
        while the column count stays) plus its parent's part (the heads).
        The products are summed into one bin per key, and the images are
        the bins some entry reached, in key order, so `sort_key` order, each
        decoded from its key.  Each bin's first entry is its least, from an
        `np.maximum.at` of n - entry into zeros (n entries), since numpy
        leaves the order of a repeated-index assignment unspecified."""
        width, n = len(terms.cols), len(walk.rule)
        parent, rule, _, coef, _, _ = walk
        cached = self.rule_keys[adjoint]
        if cached is None or cached[0] != width:
            _, _, to_state, _, to_move, _ = self.adjoint if adjoint else self.forward
            cached = self.rule_keys[adjoint] = (width, self.one_symbol_key(width, to_state, to_move))
        key = cached[1][rule]
        key += self.one_symbol_key(width, 0, terms.heads)[parent]
        re, im = _products(terms.amps[parent], coef)
        span = self.frame.state_count * width ** self.k
        last = np.zeros(span, dtype=np.intp)  # per bin, n - its first entry; 0 where none lands
        np.maximum.at(last, key, np.arange(n, 0, -1))
        bins = last.nonzero()[0]  # the image keys, in order
        first = n - last[bins]  # each image's first entry
        vals = np.bincount(key, re, span)[bins].astype(np.complex128)
        vals.imag = np.bincount(key, im, span)[bins]
        keep, dropped = _pruned(first, vals)
        if keep is not None:
            bins, first, vals = bins[keep], first[keep], vals[keep]
        state, heads = np.divmod(bins, width ** self.k)  # `one_symbol_key` inverted
        heads = heads[:, None] if self.k == 1 else heads[:, None] // width ** np.arange(self.k - 1, -1, -1) % width
        # one symbol per tape: no cells (`blank_cells`)
        images = _Terms(state, heads, np.empty((len(bins), self.k, 0), dtype=self.dtype), terms.cols, vals,
                        max(terms.slack - 1, 0))
        return images, first.argsort(kind="stable"), dropped

    def operator(self, last: np.ndarray, walk: _Walk, adjoint: bool, order: np.ndarray,
                 new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The image numbering of `step_operator` and the Gram checks: the
        entries of `walk`, a rule walk on terms whose `last_nonblank` is
        `last`, in image-number order, and each image's entry count.
        `order, new` is the `_groups` of one id per entry that is equal only
        for entries of equal images (a key or a window code).  Images are
        numbered by first column (the parent of a group's first entry),
        then by `sort_key`: one stable argsort of the first entries'
        `local_keys` ranks the groups, and no image is built.  Each image
        keeps its entries in column order.  A Gram entry adds its terms in
        image-number order, so the numbering fixes its rounding, independent
        of rule order."""
        starts = new.nonzero()[0]
        by_number = self.local_keys(last, walk, self.adjoint if adjoint else self.forward,
                                    order[starts]).argsort(kind="stable")
        sizes = np.empty_like(starts)  # each group's entry count, ends - starts
        sizes[:-1] = starts[1:]
        sizes[-1:] = len(order)
        sizes -= starts
        sizes = sizes[by_number]
        # each group's entries, moved from its start in `order` to its start by number
        moved = (starts[by_number] - sizes.cumsum() + sizes).repeat(sizes)
        moved += np.arange(len(order))
        return order[moved], sizes

    def reframe(self, terms: _Terms) -> _Terms:
        """The same terms on `_columns` of their heads and their `used`
        columns (non-blank in some term), with RUN_MARGIN slack; with none
        used, as on every one-symbol frame, no cell is copied."""
        cols = terms.cols
        used = np.flatnonzero((terms.cells != self.blanks[:, None]).any(axis=(0, 1))) if self.S > 1 else _NO_COLUMNS
        wanted = _columns(cols[np.flatnonzero(np.bincount(terms.heads.ravel(), minlength=len(cols)))], cols[used])
        cells = self.blank_cells(len(terms.state), len(wanted))
        if len(used):
            cells[:, :, np.searchsorted(wanted, cols[used])] = terms.cells[:, :, used]
        return terms._replace(heads=np.searchsorted(wanted, cols[terms.heads]), cells=cells, cols=wanted,
                              slack=RUN_MARGIN)

    def ready(self, psi: Superposition) -> _Terms:
        """psi's terms packed with amplitudes, in `sort_key` order, every head
        one cell from the next column on either side, as a step needs.

        A packed psi on this frame, already in that order, is taken as it is
        while its slack is at least 1, and re-framed at slack 0; its heads
        are not looked at.  Any other psi is packed from its configurations
        and amplitude array, which `pack` checks against the frame."""
        packed = psi._packed
        if packed is None or packed[0].frame != self.frame:
            return self.pack(psi._configurations(), psi._amps)
        terms = packed[1]
        return terms if terms.slack else self.reframe(terms)


def step_operator(
    table: TransitionTable, configs, adjoint: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[Configuration, ...]]:
    """The step operator (or its adjoint) on the basis states `configs`, as
    COO arrays (rows, cols, vals) plus the image configurations that `rows`
    indexes.

    Column i holds the expansion of configs[i] in rule order: forward
    entries grouped by written vector in first-appearance order, then
    (p, tau, d); adjoint entries move by move, then (q, sigma).
    Entries below PRUNE_THRESHOLD are then dropped, as `Superposition` drops
    amplitudes, so a dropped rule still places its written-vector group.
    Images are numbered by the first column that reaches them, then by
    `sort_key` within that column (`_Kernel.operator`, the numbering of the
    Gram checks); only their non-blank cells are decoded, and identical
    tapes share one Tape.
    """
    kernel = _Kernel.of(table)
    terms = kernel.pack(list(configs))
    walk = kernel.kept(terms, adjoint)
    entries = kernel.images(terms, walk, adjoint)
    order, sizes = kernel.operator(kernel.last_nonblank(terms), walk, adjoint, *_groups(kernel.keys(entries)))
    rows = np.empty(len(order), dtype=np.intp)
    rows[order] = np.arange(len(sizes)).repeat(sizes)
    return rows, walk.parent, walk.coef, tuple(kernel.configurations(entries.take(order[np.cumsum(sizes) - sizes])))


def _step(table: TransitionTable, psi: Superposition, adjoint: bool) -> tuple[Superposition, float]:
    """M|psi> (or M^dagger|psi>) in packed form and the squared amplitude
    the prune dropped: the one step of `apply`, `apply_adjoint` and `run`."""
    kernel = _Kernel.of(table)
    images, reached, dropped = kernel.step(kernel.ready(psi), adjoint)
    return Superposition._from_packed(kernel, images, reached), dropped


def apply(table: TransitionTable, psi: Superposition) -> Superposition:
    """One application of the evolution operator, linearly extended."""
    return _step(table, psi, adjoint=False)[0]


def apply_adjoint(table: TransitionTable, psi: Superposition) -> Superposition:
    """One application of the adjoint, on any number of tapes: each term
    |p, T, xi> with head vector xi pulls back, for every move vector d and
    read vector sigma, to |q, T with sigma_i written at xi_i - d_i on each
    tape i, xi - d> weighted by the conjugated rule amplitude
    delta(q, sigma, p, T(xi - d), d)*, where T(xi - d) reads tape i at
    xi_i - d_i."""
    return _step(table, psi, adjoint=True)[0]


@dataclass(frozen=True)
class RunResult:
    """What `run` logs, one entry per step, entry 0 for the input:
    norms[t] is the norm after t steps; pruned_mass[t] the sum of |a|^2 the
    prune dropped at step t (pruned_mass[0] = 0); terms[t] the number of
    terms after t steps; width[t] the column count W of the packed arrays
    step t ran on (width[0] = 0)."""

    final: Superposition
    norms: tuple[float, ...]
    pruned_mass: tuple[float, ...]
    terms: tuple[int, ...]
    width: tuple[int, ...]


def _norm(amps: np.ndarray) -> float:
    """`Superposition.norm` of amplitudes in dict order: the last running sum,
    a plain left-to-right float sum (`sum` compensates from Python 3.12 on)."""
    return math.sqrt(np.add.accumulate(amps.real * amps.real + amps.imag * amps.imag)[-1] if amps.size else 0.0)


def run(
    table: TransitionTable,
    initial: Superposition,
    steps: int,
    *,
    unchecked: bool = False,
    tolerance: float = DEFAULT_TOLERANCE,
) -> RunResult:
    """Apply the evolution operator `steps` times, logging per step the
    norm, the squared amplitude the prune dropped, the term count and the
    column count.  `steps` must be a nonnegative Python or numpy integer
    (ValueError otherwise, a float or a bool included).

    The table is validated first unless `unchecked`.  One `check_auto`
    report is kept on the table's kernel, so a table is checked once however
    often it runs, at whatever tolerance (tables are immutable, and no
    residual depends on the tolerance); a run raises when the report's
    largest residual exceeds its tolerance, on every call, and an unchecked
    run neither reads nor fills that slot.  Norm drift is reported, never
    corrected.  Each step is the packed step of `apply`, so the terms
    stay packed from step to step and the final superposition is packed too,
    its dict in the last step's first-reached order.  norms[t] sums |a|^2
    in that order with a plain float sum, as `Superposition.norm` does.

    An unchecked table can grow the amplitudes past the float range: the run
    stops with ValueError at the first step whose norm or pruned mass is not
    finite, without numpy's overflow warnings.
    """
    if not (_is_integer(steps) and steps >= 0):
        raise ValueError(f"steps must be a nonnegative integer, got {steps!r}")
    _require_tolerance(tolerance)
    if not unchecked:
        kernel = _Kernel.of(table)
        report = kernel.verdict = kernel.verdict or check_auto(table, tolerance)
        if report.max_residual > tolerance:
            raise ValueError(
                f"table fails the {report.checker} conditions "
                f"(max residual {report.max_residual:.3e}); pass unchecked=True to run anyway"
            )
    with np.errstate(over="ignore", invalid="ignore"):
        psi, log = initial, [(initial.norm(), 0.0, len(initial), 0)]  # (norm, pruned, terms, width) per step
        for t in range(steps + 1):
            if t:
                psi, dropped = _step(table, psi, adjoint=False)
                log.append((psi.norm(), dropped, len(psi), len(psi._packed[1].cols)))
            if not (math.isfinite(log[t][0]) and math.isfinite(log[t][1])):
                raise ValueError(f"the norm is not finite after step {t}: the amplitudes overflow")
    norms, pruned, terms, width = zip(*log)
    return RunResult(final=psi, norms=norms, pruned_mass=pruned, terms=terms, width=width)
