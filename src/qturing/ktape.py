"""The condition engine: every unitarity checker on a rule table.

All condition sets are slices of three kinds of matrix product on
`table.amplitudes`, with M the amplitudes as a matrix whose rows are reads
(q, sigma) and whose columns are rule targets (p, tau, d):

* the read Gram G = M M^H over reads (q, sigma);
* the written Gram W = M^T conj(M) over targets (p, tau, d);
* one displacement product X Y^H per D, which pairs move vectors d, d'
  with a fixed difference D = d - d': X and Y gather the entries of every
  move-pair choice, with rows (q, sigma, writes on the displaced tapes) and
  columns (choice, p, writes on the other tapes).

Every sum is a `@` product, which numpy hands to BLAS.  The summation order
is BLAS's, so residual bits follow it, and the tests pin that one BLAS
thread gives the same bits as several.

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

Each residual keeps the first parameter tuple attaining the maximum, in the
order the conditions quantify their parameters.  Where a condition is
Hermitian under swapping its primed and unprimed tuples, only the half whose
unprimed tuple comes first is searched.  Hand-written loops over the same
sets, and the earlier engine that summed the displacement conditions with
one einsum per move-pair choice, live in the tests
(`tests/reference_conditions.py`) as independent references.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .conditions import (
    DEFAULT_TOLERANCE,
    ConditionId,
    ConditionResidual,
    ValidationReport,
)
from .frame import MOVES, TuringFrame
from .table import TransitionTable

# The generated set has 1 + (5^k + 1)/2 conditions, one matrix product each,
# so its cost grows about fivefold per tape or more (a one-symbol identity
# takes tens of ms at four tapes and a few hundred at five); past six tapes
# it is refused.
MAX_TAPES = 6


def displacement_label(displacement: tuple[int, ...], part: str | None = None) -> str:
    """Report label for a condition: classic letter/number when one exists.
    `part` ("norm" or "orth") names a half of D = 0."""
    k = len(displacement)
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
    zero = (0,) * k
    ids = [ConditionId("ktape", displacement_label(zero, part), zero, part) for part in ("norm", "orth")]
    return ids + [ConditionId("ktape", displacement_label(vec), vec) for vec in _valid_displacements(k)]


def condition_count(k: int) -> int:
    """Evaluated conditions for k tapes: 1 + (5^k + 1)/2."""
    return 1 + (5 ** k + 1) // 2


def _move_pairs(delta: int) -> list[tuple[int, int]]:
    return [(d, d2) for d in MOVES for d2 in MOVES if d - d2 == delta]


def _split_amplitudes(table: TransitionTable) -> np.ndarray:
    """View with the write vector and move vector split into per-tape axes:
    (Q, S, Q, T1..Tk, 3..3)."""
    frame = table.frame
    shape = (frame.state_count, frame.symbol_block, frame.state_count)
    shape += frame.symbol_counts + (3,) * frame.tape_count
    return table.amplitudes.reshape(shape)


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


def _read_witness(frame: TuringFrame, q: int, sflat: int, primed: bool = False):
    mark = "'" if primed else ""
    vec = frame.symbol_vector(sflat)
    names = tuple(frame.symbol_name(i, s) for i, s in enumerate(vec))
    sigma = names[0] if frame.tape_count == 1 else "(" + ",".join(names) + ")"
    return (("q" + mark, frame.states[q]), ("sigma" + mark, sigma))


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


def _eval_zero(table: TransitionTable) -> tuple[tuple[float, tuple | None], tuple[float, tuple | None]]:
    """(residual, witness) of the normalization and the orthogonality half."""
    frame = table.frame
    S = frame.symbol_block
    gram = _read_gram(table)
    # a Gram diagonal is real: drop the rounding-level imaginary part that a
    # BLAS product can leave on it
    value, (i,) = _first_max(np.abs(np.diagonal(gram).real - 1.0))
    norm = value, _read_witness(frame, *divmod(i, S))
    value, idx = _first_max(np.abs(gram), _before(gram.shape[0]))
    witness = None
    if idx is not None:
        i, j = idx
        witness = _read_witness(frame, *divmod(i, S)) + _read_witness(frame, *divmod(j, S), primed=True)
    return norm, (value, witness)


def _choice_moves(displacement: tuple[int, ...]) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Move-axis indices of every move-pair choice (d, d') with d - d' = D:
    per tape, the indices d_i + 1 and d'_i + 1 of all choices, in
    `itertools.product` order over the tapes' pairs."""
    choices = np.array(list(itertools.product(*(_move_pairs(delta) for delta in displacement)))) + 1
    return tuple(choices[:, :, 0].T), tuple(choices[:, :, 1].T)


def _eval_displacement(frame: TuringFrame, split: np.ndarray,
                       displacement: tuple[int, ...]) -> tuple[float, tuple | None]:
    """Residual and witness of one displacement D != 0 on the split table:
    one matrix product whose rows are reads and independent writes
    (q, sigma, tau_I) and whose columns are (choice, p, tau_shared)."""
    k = frame.tape_count
    independent = [i for i in range(k) if displacement[i] != 0]
    shared = [i for i in range(k) if displacement[i] == 0]
    d, d2 = _choice_moves(displacement)
    # one fancy index on the move axes: (q, s, p, tau_1..tau_k, choice)
    order = [0, 1] + [3 + i for i in independent] + [3 + k, 2] + [3 + i for i in shared]
    side = (frame.state_count, frame.symbol_block) + tuple(frame.symbol_counts[i] for i in independent)
    xm = split[(Ellipsis,) + d].transpose(order).reshape(math.prod(side), -1)
    ym = split[(Ellipsis,) + d2].transpose(order).reshape(xm.shape)
    gram = (xm @ ym.conj().T).reshape(side + side)

    value, idx = _first_max(np.abs(gram))
    half = len(side)
    q, s = idx[0], idx[1]
    q2, s2 = idx[half], idx[half + 1]
    witness = _read_witness(frame, q, s)
    for pos, i in enumerate(independent):
        witness += ((f"tau_{i + 1}", frame.symbol_name(i, idx[2 + pos])),)
    witness += _read_witness(frame, q2, s2, primed=True)
    for pos, i in enumerate(independent):
        witness += ((f"tau_{i + 1}'", frame.symbol_name(i, idx[half + 2 + pos])),)
    return value, witness


def check_ktape(table: TransitionTable, tolerance: float = DEFAULT_TOLERANCE) -> ValidationReport:
    """Evaluate the frame's whole condition catalog."""
    norm_id, orth_id, *shifts = generate_ktape_conditions(table.frame)
    norm, orth = _eval_zero(table)
    residuals = [ConditionResidual(norm_id, *norm), ConditionResidual(orth_id, *orth)]
    split = _split_amplitudes(table)
    residuals += [ConditionResidual(cid, *_eval_displacement(table.frame, split, cid.displacement))
                  for cid in shifts]
    return ValidationReport("ktape", tolerance, tuple(residuals))


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


def _classic_report(table: TransitionTable, tolerance: float, checker: str, k: int) -> ValidationReport:
    _require_tapes(table, k, checker)
    residuals = tuple(
        ConditionResidual(ConditionId(checker, r.id.name), r.residual, _classic_witness(r.witness, k))
        for r in check_ktape(table, tolerance).residuals
    )
    return ValidationReport(checker, tolerance, residuals)


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

    def witnessed(name, found, describe):
        value, idx = found
        return ConditionResidual(ConditionId("row", name), value, None if idx is None else describe(*idx))

    a = np.abs(diag[:, :, None, None, 0] + diag[:, None, :, None, 1] + diag[:, None, None, :, 2] - 1.0)
    b = np.abs(same[:, :, :, None, None, 0, 0] + same[:, :, None, :, None, 1, 1]
               + same[:, :, None, None, :, 2, 2])
    c = np.abs(same[:, :, :, None, 1, 0] + same[:, :, None, :, 2, 1])
    d = np.abs(np.stack([w[:, :, m, :, :, m] for m in range(3)], axis=-1))
    e = np.abs(np.stack([w[:, :, m, :, :, m - 1] for m in (1, 2)], axis=-1))
    f = np.abs(w[:, :, 2, :, :, 0])
    residuals = (
        witnessed("a", _first_max(a), triple),
        # (b) and (d) are Hermitian under the swap: search the first half
        witnessed("b", _first_max(b, _before(Q)[:, :, None, None, None]),
                  lambda p, p2, *t: triple(p, *t) + (("p'", states[p2]),)),
        witnessed("c", _first_max(c), lambda p, p2, t0, t1: (
            ("p", states[p]), ("p'", states[p2]), ("tau_0", names[t0]), ("tau_1", names[t1]))),
        witnessed("d", _first_max(d, (t_differs & _before(Q * S).reshape(Q, S, Q, S))[..., None]),
                  lambda p, t, p2, t2, m: pair(p, t, p2, t2) + (("d", m - 1),)),
        witnessed("e", _first_max(e, t_differs[..., None]),
                  lambda p, t, p2, t2, j: pair(p, t, p2, t2) + (("d", j),)),
        witnessed("f", _first_max(f), pair),
    )
    return ValidationReport("row", tolerance, residuals)


def check_hirvensalo(table: TransitionTable, tolerance: float = DEFAULT_TOLERANCE) -> ValidationReport:
    """Hirvensalo's conditions (H-a)-(H-d) for a single-tape table:
    sufficient for unitarity but not necessary."""
    _require_tapes(table, 1, "hirvensalo")
    frame = table.frame
    Q, S = frame.state_count, frame.symbol_block
    states, names = frame.states, frame.alphabets[0]
    (a, a_witness), (b, b_witness) = _eval_zero(table)

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
    best = None
    for m, m2 in itertools.permutations(range(3), 2):
        product = by_move[m].conj() @ by_move[m2].T
        value, idx = _first_max(np.abs(product).reshape((Q, S, S) * 2))
        if best is None or value > best[0] or (value == best[0] and idx < best[1]):
            best = (value, idx, m, m2)
    d, (q, s, t, q2, s2, t2), m, m2 = best
    d_witness = (("q", states[q]), ("sigma", names[s]), ("tau", names[t]), ("d", m - 1),
                 ("q'", states[q2]), ("sigma'", names[s2]), ("tau'", names[t2]), ("d'", m2 - 1))

    residuals = (
        ConditionResidual(ConditionId("hirvensalo", "H-a"), a, a_witness),
        ConditionResidual(ConditionId("hirvensalo", "H-b"), b, b_witness),
        ConditionResidual(ConditionId("hirvensalo", "H-c"), c, c_witness),
        ConditionResidual(ConditionId("hirvensalo", "H-d"), d, d_witness),
    )
    return ValidationReport("hirvensalo", tolerance, residuals)


def check_auto(table: TransitionTable, tolerance: float = DEFAULT_TOLERANCE) -> ValidationReport:
    """Pick the checker by tape count: column for one tape, the fourteen
    two-tape conditions for two, the generated set otherwise."""
    k = table.frame.tape_count
    if k == 1:
        return check_column(table, tolerance)
    if k == 2:
        return check_two_tape(table, tolerance)
    return check_ktape(table, tolerance)
