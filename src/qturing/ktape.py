"""The condition engine: every unitarity checker on a rule table, and the
reports they return.

All condition sets are slices of three kinds of matrix product on
`table.amplitudes`, with M the amplitudes as a matrix whose rows are reads
(q, sigma) and whose columns are rule targets (p, tau, d):

* the read Gram G = M M^H over reads (q, sigma);
* the written Gram W = M^T conj(M) over targets (p, tau, d);
* one displacement product X Y^H per D, which pairs move vectors d, d'
  with a fixed difference D = d - d', with rows (q, sigma, writes on the
  displaced tapes) and columns (choice, p, writes on the other tapes).

A D that no two move vectors used by the table realize (D not in U - U)
has a zero factor in every term of its sum, so it holds exactly, as the
characterization says: it is reported with residual 0.0 and the index-0
witness, and no product is formed.  The others are evaluated a |D|
pattern at a time.  The products of one pattern share their shape, so its
sign variants are gathered by one fancy index on the flat move axis and
multiplied by one stacked `matmul`, with one `abs` and one row-wise
`argmax`; there are 3^k - 1 patterns against (5^k - 1)/2 displacements.
Products of many entries are stacked a few at a time (`_BATCH_ENTRIES`),
so that a stack holds about as much memory as one product.

Every sum is a BLAS product: `@`, or a stacked `matmul`, which numpy hands
to BLAS one slice at a time as it would hand that slice's own `@`.  The
summation order is BLAS's, so residual bits follow it, and the tests pin
that one BLAS thread gives the same bits as several, and that every
displacement has the bits of its own `@`.

The generated k-tape set is one catalog, indexed by head-displacement
vectors D in {0,+-1,+-2}^k whose first nonzero component is positive:

* D = 0 gives two conditions over reads, normalization (every read has
  unit outgoing mass) and orthogonality (distinct reads have orthogonal
  outgoing amplitude vectors): the diagonal and off-diagonal of G.
* D != 0 demands, for every pair of reads and every independent choice of
  write symbols on the displaced tapes, that the sum over the written state,
  over shared write symbols on non-displaced tapes, and over all move-vector
  pairs (d, d') with d - d' = D vanishes.

That yields 2 + (5^k - 1)/2 = 1 + (5^k + 1)/2 conditions, each evaluated
as listed: 4 for one tape, 14 for two, 64 for three, 314 for four.

The classic sets are views of the same engine:

* column (a)-(d) and two-tape (1)-(14) are the generated set for k = 1 and
  k = 2 under their classic labels and witness keys;
* row (a)-(f) are sums and slices of W;
* hirvensalo (H-a)-(H-d), a sufficient-but-not-necessary set kept for
  comparison: (H-a)/(H-b) are column (a)/(b), (H-c) is the off-diagonal of
  W and (H-d) pairs distinct moves summed over the written state only, one
  (Q*S*S) x Q by Q x (Q*S*S) product per move pair.

Every checker ends in one builder, `_report`, which makes each residual
once, under its final label and witness keys.  Each residual keeps the
first parameter tuple attaining the maximum, in the order the conditions
quantify their parameters.  Where a condition is Hermitian under swapping
its primed and unprimed tuples, only the half whose unprimed tuple comes
first is searched.  Hand-written loops over the same
sets, and the earlier engine that summed the displacement conditions with
one einsum per move-pair choice, live in the tests
(`tests/reference_conditions.py`) as independent references.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .frame import MOVES, TuringFrame, _is_integer
from .table import TransitionTable

DEFAULT_TOLERANCE = 1e-9

# The generated set has 1 + (5^k + 1)/2 conditions, and check_ktape's time
# grows three- to sixfold per tape, to tens of milliseconds at six tapes;
# past six tapes it is refused.
MAX_TAPES = 6

# Gram entries per stacked product of displacements (384 KiB with their moduli)
_BATCH_ENTRIES = 2 ** 14


def _is_tolerance(value) -> bool:
    """Whether `value` is a finite real number >= 0, Python or numpy; a
    bool, NaN, an infinity and a string are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 <= value < math.inf


def _require_tolerance(value) -> None:
    """ValueError unless `_is_tolerance(value)`: every checker's and Gram
    check's tolerance, and `run`'s."""
    if not _is_tolerance(value):
        raise ValueError(f"tolerance must be a finite number >= 0, got {value!r}")


@dataclass(frozen=True)
class ConditionId:
    family: str  # "column" | "row" | "hirvensalo" | "two-tape" | "ktape"
    name: str  # label shown in reports: "a".."f", "H-a".."H-d", "1".."14", ...
    displacement: tuple[int, ...] | None = None  # ktape family only
    part: str | None = None  # "norm" | "orth" for the zero displacement

    def __str__(self):
        return f"{self.family}-{self.name}"


@dataclass(frozen=True)
class ConditionResidual:
    id: ConditionId
    residual: float
    witness: tuple[tuple[str, object], ...] | None

    @property
    def witness_dict(self) -> dict | None:
        return None if self.witness is None else dict(self.witness)


@dataclass(frozen=True)
class ValidationReport:
    """One checker's residuals.  Normalization conditions report max |sum - 1|
    over their parameter tuples, orthogonality conditions max |sum|; a report
    passes iff every residual is within tolerance.  The worst parameter tuple
    is kept as a witness, ties broken by the first tuple in canonical index
    order.  Checkers are pure functions of immutable tables, evaluated
    sequentially, so identical tables always yield identical reports."""
    checker: str
    tolerance: float
    residuals: tuple[ConditionResidual, ...]

    @property
    def passed(self) -> bool:
        return all(r.residual <= self.tolerance for r in self.residuals)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    @property
    def max_residual(self) -> float:
        return max((r.residual for r in self.residuals), default=0.0)

    def residual_for(self, name: str) -> ConditionResidual:
        for r in self.residuals:
            if r.id.name == name:
                return r
        raise KeyError(name)


def displacement_label(displacement: tuple[int, ...], part: str | None = None) -> str:
    """Report label for a catalog condition: classic letter/number when one
    exists.  `part` ("norm" or "orth") names a half of D = 0, and any other
    D takes none.  The components must be Python or numpy integers
    (ValueError otherwise, a float or a bool included), each in -2..2 with
    the first nonzero one positive; ValueError for any other displacement
    or part."""
    if not all(map(_is_integer, displacement)):
        raise ValueError(f"displacement components must be integers, got {displacement!r}")
    k = len(displacement)
    first = next((d for d in displacement if d), 0)
    if not (k and first >= 0 and all(-2 <= d <= 2 for d in displacement)):
        raise ValueError(f"displacement {displacement!r} is not in the catalog: components in -2..2, "
                         "the first nonzero one positive")
    if part not in (("norm", "orth") if first == 0 else (None,)):
        raise ValueError(f"part {part!r} does not fit displacement {displacement!r}: "
                         "D = 0 takes 'norm' or 'orth', any other D none")
    if part == "norm":
        return "a" if k == 1 else "1"
    if part == "orth":
        return "b" if k == 1 else "2"
    # classic labels: on one tape D = 1, 2 are (c), (d), after the zero
    # displacement's (a), (b); on two tapes (D1, D2) is number 5*D1 + D2 + 2
    if k == 1:
        return "abcd"[displacement[0] + 1]
    if k == 2:
        return str(5 * displacement[0] + displacement[1] + 2)
    return "D=(" + ",".join(str(d) for d in displacement) + ")"


def _valid_displacements(k: int) -> list[tuple[int, ...]]:
    out = []
    for vec in itertools.product((-2, -1, 0, 1, 2), repeat=k):
        first = next((d for d in vec if d != 0), 0)
        if first in (1, 2):
            out.append(vec)
    return out


def generate_ktape_conditions(frame: TuringFrame) -> list[ConditionId]:
    """The frame's condition catalog, in evaluation order: the
    normalization and the orthogonality half of D = 0, then every valid
    displacement in lexicographic order; `condition_count(k)` ids.  Frames
    with more than MAX_TAPES tapes raise ValueError."""
    k = frame.tape_count
    if k > MAX_TAPES:
        raise ValueError(f"supported tape counts are 1..{MAX_TAPES}")
    return list(_catalog(k))


@functools.cache
def _catalog(k: int) -> tuple[ConditionId, ...]:
    zero = (0,) * k
    ids = [ConditionId("ktape", displacement_label(zero, part), zero, part) for part in ("norm", "orth")]
    return tuple(ids + [ConditionId("ktape", displacement_label(vec), vec) for vec in _valid_displacements(k)])


def condition_count(k: int) -> int:
    """Evaluated conditions for k tapes: 1 + (5^k + 1)/2.  `k` must be a
    positive Python or numpy integer (ValueError otherwise, a float or a
    bool included)."""
    if not (_is_integer(k) and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return 1 + (5 ** k + 1) // 2


@functools.cache
def _plan(k: int) -> tuple:
    """The catalog's displacements grouped by |D|: each one's balanced
    base-5 code sum_i D_i 5^(k-1-i), the same code of each move vector by
    flat move index, each displacement's pattern number, the patterns, and
    each displacement's displaced tapes.  A pattern is its displacements'
    positions, their X and their Y move indices on the flat move axis as
    (2, displacements, choices), its displaced tapes and the axis order that
    takes a gather (q, s, p, tau_1..tau_k, X or Y, displacement, choice) to
    (X or Y, displacement, rows, columns).  Tape i offers 3 - |D_i| move pairs
    (d_i, d_i - D_i), choice j_i pairing d_i = max(0, D_i) - 1 + j_i, so a
    displacement's move indices are its own offset plus its pattern's grid."""
    shifts = [cid.displacement for cid in _catalog(k)[2:]]
    vectors = np.array(shifts).reshape(-1, k)
    place3, place5 = 3 ** np.arange(k - 1, -1, -1), 5 ** np.arange(k - 1, -1, -1)
    grouped: dict[tuple[int, ...], list[int]] = {}
    for position, vec in enumerate(shifts):
        grouped.setdefault(tuple(map(abs, vec)), []).append(position)
    pattern_of = np.empty(len(shifts), dtype=np.intp)
    patterns = []
    for number, (size, positions) in enumerate(grouped.items()):
        pattern_of[positions] = number
        vecs = vectors[positions]
        # choice axes in tape order, flattening as `itertools.product` lists the choices
        grid = sum(np.arange(3 - a).reshape((-1,) + (1,) * (k - 1 - i)) * place3[i] for i, a in enumerate(size))
        starts = np.concatenate((np.maximum(vecs, 0), np.maximum(-vecs, 0))) @ place3
        independent = tuple(i for i in range(k) if size[i])
        shared = tuple(i for i in range(k) if not size[i])
        order = (3 + k, 4 + k, 0, 1, *(3 + i for i in independent), 5 + k, 2, *(3 + i for i in shared))
        patterns.append((np.array(positions), starts.reshape(2, -1, 1) + np.ravel(grid), independent, order))
    move_codes = np.array(list(itertools.product(MOVES, repeat=k))) @ place5
    independent_of = [patterns[number][2] for number in pattern_of.tolist()]
    return vectors @ place5, move_codes, pattern_of, patterns, independent_of


def _require_tapes(table: TransitionTable, k: int, checker: str):
    if table.frame.tape_count != k:
        raise ValueError(f"{checker} checker requires a {k}-tape frame, got {table.frame.tape_count}")


def _first_max(values: np.ndarray, keep: np.ndarray | None = None) -> tuple[float, tuple[int, ...] | None]:
    """Largest of the nonnegative `values` where `keep` holds, and the first
    index attaining it in row-major order; (0.0, None) when nothing is kept."""
    if keep is not None:
        values = np.where(keep, values, -1.0)
    flat = int(np.argmax(values))
    value = float(values.flat[flat])
    if value < 0.0:
        return 0.0, None
    return value, tuple(int(i) for i in np.unravel_index(flat, values.shape))


def _before(n: int) -> np.ndarray:
    """Mask of the index pairs (i, j) with i < j: the half of a Hermitian
    condition whose unprimed tuple comes first."""
    return np.less.outer(np.arange(n), np.arange(n))


def _sigma_names(frame: TuringFrame) -> tuple[str, ...]:
    """The witness name of every read symbol vector, by flat index: the
    symbol on one tape, "(a,b,...)" on more."""
    if frame.tape_count == 1:
        return frame.alphabets[0]
    return tuple("(" + ",".join(names) + ")" for names in itertools.product(*frame.alphabets))


def _read_witness(frame: TuringFrame, q: int, sflat: int, writes=(), primed: bool = False, *,
                  sigmas: tuple[str, ...]):
    """Witness half: read (q, sigma), then `tau_i` for each (tape i, symbol) in
    `writes`.  `sigmas` are the frame's `_sigma_names`."""
    mark = "'" if primed else ""
    sigma = sigmas[sflat]
    taus = tuple((f"tau_{i + 1}{mark}", frame.alphabets[i][t]) for i, t in writes)
    return (("q" + mark, frame.states[q]), ("sigma" + mark, sigma)) + taus


def _read_gram(table: TransitionTable) -> np.ndarray:
    """G[(q,s),(q',s')] = sum over rules of delta(q,s,.) * conj(delta(q',s',.))."""
    frame = table.frame
    m = table.amplitudes.reshape(frame.state_count * frame.symbol_block, -1)
    return m @ m.conj().T


def _written_gram(table: TransitionTable) -> np.ndarray:
    """W[p,t,d,p',t',d'] = sum over reads (q,s) of delta(q,s,p,t,d) * conj(delta(q,s,p',t',d'))."""
    frame = table.frame
    m = table.amplitudes.reshape(frame.state_count * frame.symbol_block, -1)
    side = (frame.state_count, frame.symbol_block, frame.move_block)
    return (m.T @ m.conj()).reshape(side + side)


def _eval_zero(table: TransitionTable,
               sigmas: tuple[str, ...]) -> tuple[tuple[float, tuple | None], tuple[float, tuple | None]]:
    """(residual, witness) of the normalization and the orthogonality half;
    `sigmas` are the frame's `_sigma_names`."""
    frame = table.frame
    S = frame.symbol_block
    gram = _read_gram(table)
    # a Gram diagonal is real: drop the rounding-level imaginary part that a
    # BLAS product can leave on it
    value, (i,) = _first_max(np.abs(np.diagonal(gram).real - 1.0))
    norm = value, _read_witness(frame, *divmod(i, S), sigmas=sigmas)
    value, idx = _first_max(np.abs(gram), _before(gram.shape[0]))
    witness = None
    if idx is not None:
        i, j = idx
        witness = (_read_witness(frame, *divmod(i, S), sigmas=sigmas)
                   + _read_witness(frame, *divmod(j, S), primed=True, sigmas=sigmas))
    return norm, (value, witness)


def _eval_displacements(table: TransitionTable, sigmas: tuple[str, ...]) -> list[tuple[float, tuple]]:
    """Residual and witness of every displacement D != 0, in catalog order;
    `sigmas` are the frame's `_sigma_names`.

    A D that no two used move vectors realize as d - d' has a zero X or Y
    column in every choice, so its product is exactly zero: residual 0.0
    and the index-0 witness, which depends only on the displaced tapes.
    The others are evaluated a |D| pattern at a time: one gather of every
    X and Y, one stacked `matmul`, which hands BLAS each product as its own
    `@` would, one `abs` and one row-wise `argmax`."""
    frame = table.frame
    k, counts = frame.tape_count, frame.symbol_counts
    codes, move_codes, pattern_of, patterns, independent_of = _plan(k)
    # U, reduced over the reads first: numpy reduces a leading axis a row at
    # a time, so rows of 3^k moves alone would cost one step per rule target
    used = move_codes[table.amplitudes.reshape(frame.state_count * frame.symbol_block, -1).any(axis=0)
                      .reshape(-1, frame.move_block).any(axis=0)]
    # the 5^k balanced codes are the integers of modulus at most (5^k - 1)/2,
    # so with numpy's wrapping of negative indices each has its own slot
    reach = np.zeros(5 ** k, dtype=bool)
    reach[np.subtract.outer(used, used)] = True
    live = reach[codes]
    split = table.amplitudes.reshape(frame.table_shape[:3] + counts + (frame.move_block,))
    witnesses: dict = {}  # by (displaced tapes, index); many displacements share one

    def witness(independent: tuple[int, ...], idx: tuple[int, ...]) -> tuple:
        found = witnesses.get((independent, idx))
        if found is None:
            half = len(idx) // 2
            found = witnesses[independent, idx] = (
                _read_witness(frame, idx[0], idx[1], zip(independent, idx[2:half]), sigmas=sigmas)
                + _read_witness(frame, idx[half], idx[half + 1], zip(independent, idx[half + 2:]),
                                primed=True, sigmas=sigmas))
        return found

    out: list = [None] * len(live)
    for number in np.flatnonzero(np.bincount(pattern_of[live], minlength=len(patterns))).tolist():
        positions, moves, independent, order = patterns[number]
        side = (frame.state_count, frame.symbol_block) + tuple(counts[i] for i in independent)
        rows = math.prod(side)
        picked = live[positions].nonzero()[0]
        # large products are stacked a few at a time, so that a batch holds
        # about as much memory as one product
        step = max(1, _BATCH_ENTRIES // rows ** 2)
        for at in range(0, len(picked), step):
            batch = picked[at:at + step]
            n = len(batch)
            stacked = split[..., moves[:, batch]].transpose(order).reshape(2 * n, rows, -1)
            gram = np.abs(np.matmul(stacked[:n], stacked[n:].conj().transpose(0, 2, 1))).reshape(n, -1)
            flat = gram.argmax(axis=1)
            for position, value, idx in zip(positions[batch].tolist(), gram[np.arange(n), flat].tolist(),
                                            zip(*(i.tolist() for i in np.unravel_index(flat, side + side)))):
                out[position] = (value, witness(independent, idx))
    for position, independent in enumerate(independent_of):
        if out[position] is None:
            out[position] = (0.0, witness(independent, (0,) * (4 + 2 * len(independent))))
    return out


def _classic_witness(witness: tuple | None, k: int) -> tuple | None:
    """Generated witness keys in the classic sets' form.  One tape: `tau` and
    `tau'`.  Two tapes: the written symbols follow the primed read, as
    `tau_i`/`tau_i'` when one tape is displaced and as `tau=(a,b)` and
    `tau'=(a,b)` when both are."""
    if witness is None:
        return None
    if k == 1:
        return tuple((key.replace("tau_1", "tau"), value) for key, value in witness)
    reads = tuple(item for item in witness if not item[0].startswith("tau"))
    writes = tuple(item for item in witness if item[0].startswith("tau"))
    if len(writes) == 4:
        (_, t1), (_, t2), (_, t1p), (_, t2p) = writes
        writes = (("tau", f"({t1},{t2})"), ("tau'", f"({t1p},{t2p})"))
    return reads + writes


def _report(checker: str, tolerance: float, ids, found) -> ValidationReport:
    """The one builder every checker ends in: a residual per condition id in
    `ids`, with its (residual, witness) in `found`."""
    return ValidationReport(checker, tolerance, tuple(
        ConditionResidual(cid, value, witness) for cid, (value, witness) in zip(ids, found)))


def _evaluate(table: TransitionTable, tolerance: float) -> tuple[list[ConditionId], list[tuple]]:
    """The frame's whole condition catalog, and each condition's (residual,
    witness)."""
    _require_tolerance(tolerance)
    ids = generate_ktape_conditions(table.frame)
    sigmas = _sigma_names(table.frame)  # once per table, not once per condition
    return ids, [*_eval_zero(table, sigmas), *_eval_displacements(table, sigmas)]


def check_ktape(table: TransitionTable, tolerance: float = DEFAULT_TOLERANCE) -> ValidationReport:
    """Evaluate the frame's whole condition catalog."""
    return _report("ktape", tolerance, *_evaluate(table, tolerance))


def _classic_report(table: TransitionTable, tolerance: float, checker: str, k: int) -> ValidationReport:
    """The generated set for k tapes under the classic labels and witness keys."""
    _require_tapes(table, k, checker)
    ids, found = _evaluate(table, tolerance)
    return _report(checker, tolerance, [ConditionId(checker, cid.name) for cid in ids],
                   [(value, _classic_witness(witness, k)) for value, witness in found])


def check_column(table: TransitionTable, tolerance: float = DEFAULT_TOLERANCE) -> ValidationReport:
    """Orthonormal-column conditions (a)-(d) for a single-tape table: the
    generated set for k = 1."""
    return _classic_report(table, tolerance, "column", 1)


def check_two_tape(table: TransitionTable, tolerance: float = DEFAULT_TOLERANCE) -> ValidationReport:
    """Two-tape conditions (1)-(14): the generated set for k = 2."""
    return _classic_report(table, tolerance, "two-tape", 2)


def check_row(table: TransitionTable, tolerance: float = DEFAULT_TOLERANCE) -> ValidationReport:
    """Orthonormal-row conditions (a)-(f) for a single-tape table, as slices
    of the written Gram W.

    tau_d denotes the written symbol paired with move d; the (a)/(b)/(c)
    sums read delta(q, sigma, p, tau_d, d) with tau_d drawn from the
    quantified triple (tau_-1, tau_0, tau_1).
    """
    _require_tolerance(tolerance)
    _require_tapes(table, 1, "row")
    frame = table.frame
    Q, S = frame.state_count, frame.symbol_block
    states, names = frame.states, frame.alphabets[0]
    w = _written_gram(table)
    # same[p, p', t, d, d'] = W[p, t, d, p', t, d']: both sides write the same symbol
    same = np.diagonal(w, axis1=1, axis2=4).transpose(0, 2, 4, 1, 3)
    diag = np.diagonal(w.reshape(Q * S * 3, -1)).real.reshape(Q, S, 3)
    t_differs = np.not_equal.outer(np.arange(S), np.arange(S))[None, :, None, :]

    def triple(p, t_minus, t_zero, t_plus):
        return (("p", states[p]),
                ("tau_-1", names[t_minus]), ("tau_0", names[t_zero]), ("tau_1", names[t_plus]))

    def pair(p, t, p2, t2):
        return (("p", states[p]), ("tau", names[t]), ("p'", states[p2]), ("tau'", names[t2]))

    def witnessed(found, describe):
        value, idx = found
        return value, None if idx is None else describe(*idx)

    a = np.abs(diag[:, :, None, None, 0] + diag[:, None, :, None, 1] + diag[:, None, None, :, 2] - 1.0)
    b = np.abs(same[:, :, :, None, None, 0, 0] + same[:, :, None, :, None, 1, 1]
               + same[:, :, None, None, :, 2, 2])
    c = np.abs(same[:, :, :, None, 1, 0] + same[:, :, None, :, 2, 1])
    d = np.abs(np.stack([w[:, :, m, :, :, m] for m in range(3)], axis=-1))
    e = np.abs(np.stack([w[:, :, m, :, :, m - 1] for m in (1, 2)], axis=-1))
    f = np.abs(w[:, :, 2, :, :, 0])
    found = (
        witnessed(_first_max(a), triple),
        # (b) and (d) are Hermitian under the swap: search the first half
        witnessed(_first_max(b, _before(Q)[:, :, None, None, None]),
                  lambda p, p2, *t: triple(p, *t) + (("p'", states[p2]),)),
        witnessed(_first_max(c), lambda p, p2, t0, t1: (
            ("p", states[p]), ("p'", states[p2]), ("tau_0", names[t0]), ("tau_1", names[t1]))),
        witnessed(_first_max(d, (t_differs & _before(Q * S).reshape(Q, S, Q, S))[..., None]),
                  lambda p, t, p2, t2, m: pair(p, t, p2, t2) + (("d", m - 1),)),
        witnessed(_first_max(e, t_differs[..., None]),
                  lambda p, t, p2, t2, j: pair(p, t, p2, t2) + (("d", j),)),
        witnessed(_first_max(f), pair),
    )
    return _report("row", tolerance, [ConditionId("row", name) for name in "abcdef"], found)


def check_hirvensalo(table: TransitionTable, tolerance: float = DEFAULT_TOLERANCE) -> ValidationReport:
    """Hirvensalo's conditions (H-a)-(H-d) for a single-tape table:
    sufficient for unitarity but not necessary."""
    _require_tolerance(tolerance)
    _require_tapes(table, 1, "hirvensalo")
    frame = table.frame
    Q, S = frame.state_count, frame.symbol_block
    states, names = frame.states, frame.alphabets[0]
    zero = _eval_zero(table, names)

    # (H-c) is the off-diagonal of the Hermitian W: search (p,t,d) before (p',t',d')
    w = np.abs(_written_gram(table))
    c, idx = _first_max(w, _before(Q * S * 3).reshape(w.shape))
    c_witness = None
    if idx is not None:
        p, t, m, p2, t2, m2 = idx
        c_witness = (("p", states[p]), ("tau", names[t]), ("d", m - 1),
                     ("p'", states[p2]), ("tau'", names[t2]), ("d'", m2 - 1))

    # (H-d): one move pair (d, d') at a time keeps memory at the size of
    # column (c); ties go to the first tuple in (q,s,t,q',s',t',d,d') order.
    # by_move[m] has rows (q, s, t) and columns p for move m.
    by_move = table.amplitudes.transpose(4, 0, 1, 3, 2).reshape(3, Q * S * S, Q)
    firsts = (_first_max(np.abs(by_move[m].conj() @ by_move[m2].T).reshape((Q, S, S) * 2)) + (m, m2)
              for m, m2 in itertools.permutations(range(3), 2))
    d, (q, s, t, q2, s2, t2), m, m2 = min(firsts, key=lambda found: (-found[0], found[1]))
    d_witness = (("q", states[q]), ("sigma", names[s]), ("tau", names[t]), ("d", m - 1),
                 ("q'", states[q2]), ("sigma'", names[s2]), ("tau'", names[t2]), ("d'", m2 - 1))

    ids = [ConditionId("hirvensalo", name) for name in ("H-a", "H-b", "H-c", "H-d")]
    return _report("hirvensalo", tolerance, ids, [*zero, (c, c_witness), (d, d_witness)])


def check_auto(table: TransitionTable, tolerance: float = DEFAULT_TOLERANCE) -> ValidationReport:
    """Pick the checker by tape count: column for one tape, the fourteen
    two-tape conditions for two, the generated set otherwise."""
    k = table.frame.tape_count
    if k == 1:
        return check_column(table, tolerance)
    if k == 2:
        return check_two_tape(table, tolerance)
    return check_ktape(table, tolerance)
