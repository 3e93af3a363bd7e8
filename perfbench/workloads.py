"""Seeded inputs, ops and correctness gates of the in-process workloads.

Each workload is a list of ops making up one *pass*; the timed loop runs
whole passes, reshuffled by the seed, so every run measures the same mix.
An op has an untraced form (the user-level call) and a traced form that
issues the same public calls, each inside a span.  The seed chooses the
random unitaries, perturbations and start states; sizes, checkers and step
counts are fixed, because checker and kernel cost depend on size and not on
the random entries.
"""
from __future__ import annotations

import math

import numpy as np

import qturing as qt
from qturing.cli import bundled_machine_path

from passes import Op, Workload
from tracing import Tracer

# Tolerances of the correctness gates.
RESIDUAL_AGREEMENT = 1e-12
NORM_DRIFT = 1e-9
ROUND_TRIP = 1e-9
NORM_BOUND_SLACK = 1e-9
VALID_NORM = 1e-6

# Largest radius window a gram op may build.  Q2S2 at r=4 (9,216
# configurations) is the largest input; a two-tape Q2 S(3,3) frame at r=2
# would need 2.95 M and run for minutes.
MAX_WINDOW_CONFIGS = 10_000

NORM_ITERATIONS = 200


def window_configs(frame: qt.TuringFrame, radius: int) -> int:
    """|Q| * prod_i (2r+1) * |Sigma_i|^(2r+1): the size of `radius_window`."""
    width = 2 * radius + 1
    return frame.state_count * math.prod(width * s ** width for s in frame.symbol_counts)


def guard_window(frame: qt.TuringFrame, radius: int) -> int:
    size = window_configs(frame, radius)
    if size > MAX_WINDOW_CONFIGS:
        raise ValueError(
            f"refusing a radius-{radius} window over {frame.state_count} states and "
            f"alphabets {frame.symbol_counts}: {size} configurations exceed the "
            f"benchmark limit of {MAX_WINDOW_CONFIGS}"
        )
    return size


# ---------------------------------------------------------------------------
# Seeded tables
# ---------------------------------------------------------------------------

def pair_unitary_table(frame: qt.TuringFrame, rng: np.random.Generator, moves=None) -> qt.TransitionTable:
    """A valid table from a random unitary on (state, read) pairs and one
    move vector per state; `pair_unitary_machine` for one tape, the same
    construction for k tapes."""
    unitary = qt.random_unitary(frame.state_count * frame.symbol_block, rng)
    if moves is None:
        moves = [tuple(int(d) for d in rng.integers(-1, 2, size=frame.tape_count))
                 for _ in range(frame.state_count)]
    if frame.tape_count == 1:
        return qt.pair_unitary_machine(frame, unitary, [m[0] for m in moves])
    Q, S = frame.state_count, frame.symbol_block
    amps = np.zeros((Q, S, Q, S, frame.move_block), dtype=np.complex128)
    for p in range(Q):
        block = unitary[p * S:(p + 1) * S, :].reshape(S, Q, S)
        amps[:, :, p, :, frame.move_flat(moves[p])] = np.transpose(block, (1, 2, 0))
    return qt.TransitionTable(frame, amps)


def perturbed_table(table: qt.TransitionTable, rng: np.random.Generator) -> qt.TransitionTable:
    """Shift one nonzero amplitude a by a real epsilon with |eps + 2 Re a| >= 0.01.
    The norm of that read's column then moves by |eps| |eps + 2 Re a| >= 5e-4,
    so the table is invalid whatever the rest of it holds."""
    frame = table.frame
    rules = table.nonzero_rules()
    while True:
        q, s, p, t, m, amp = rules[int(rng.integers(len(rules)))]
        eps = float(rng.uniform(0.05, 0.5)) * (1 if rng.integers(2) else -1)
        if abs(eps + 2 * amp.real) >= 0.01:
            entry = (q, frame.symbol_vector(s), p, frame.symbol_vector(t), frame.move_vector(m))
            return qt.perturb(table, entry, eps)


def dense_table(frame: qt.TuringFrame, rng: np.random.Generator) -> qt.TransitionTable:
    """Every entry a complex Gaussian; redrawn until the first read's column
    norm is at least 0.01 away from 1, so the table is invalid."""
    shape = (frame.state_count, frame.symbol_block, frame.state_count,
             frame.symbol_block, frame.move_block)
    while True:
        amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if abs(float(np.sum(np.abs(amps[0, 0]) ** 2)) - 1.0) >= 0.01:
            return qt.TransitionTable(frame, amps)


# ---------------------------------------------------------------------------
# validate: parse a serialized machine, then run one checker
# ---------------------------------------------------------------------------

VALIDATE_ONE_TAPE = ((2, 1), (2, 3), (3, 2), (4, 4), (5, 1), (6, 2), (7, 3), (8, 4))
VALIDATE_MULTI_TAPE = (((2, 3, 3), ("auto", "ktape")), ((2, 2, 2, 2), ("auto",)))
ONE_TAPE_CHECKERS = ("auto", "row", "hirvensalo", "ktape")

_CHECKERS = {
    "auto": qt.check_auto,
    "row": qt.check_row,
    "hirvensalo": qt.check_hirvensalo,
    "ktape": qt.check_ktape,
}
_CHECKER_SPANS = {
    "auto": "ktape.check_auto",
    "row": "conditions.check_row",
    "hirvensalo": "conditions.check_hirvensalo",
    "ktape": "ktape.check_ktape",
}
# The checker `check_auto` dispatches to, by tape count (its docstring).
_AUTO_PARTS = {1: ("conditions.check_column", qt.check_column),
               2: ("conditions.check_two_tape", qt.check_two_tape)}
_AUTO_LABELS = {1: "column", 2: "two-tape"}


def traced_check_auto(tr: Tracer, table: qt.TransitionTable):
    span, checker = _AUTO_PARTS.get(table.frame.tape_count, ("ktape.check_ktape", qt.check_ktape))
    with tr.span("ktape.check_auto"):
        with tr.span(span):
            report = checker(table)
    return report


def _validate_call(text: str, checker: str):
    doc = qt.parse_document(text)
    return _CHECKERS[checker](doc.table)


def _validate_traced(tr: Tracer, text: str, checker: str):
    with tr.span("machine_io.parse_document"):
        doc = qt.parse_document(text)
    if checker == "auto":
        report = traced_check_auto(tr, doc.table)
    else:
        with tr.span(_CHECKER_SPANS[checker]):
            report = _CHECKERS[checker](doc.table)
    if report.checker == "ktape":
        tr.count("ktape.conditions_evaluated", len(report.residuals))
    return report


def validate_gate(checker: str, tapes: int, expect_valid: bool, report) -> list[str]:
    """Per-op gate: valid tables pass and invalid ones fail every checker
    except hirvensalo, which is only sufficient and is cross-checked."""
    failures = []
    expected_label = _AUTO_LABELS.get(tapes, "ktape") if checker == "auto" else checker
    if report.checker != expected_label:
        failures.append(f"checker label {report.checker!r}, expected {expected_label!r}")
    if checker != "hirvensalo" and report.passed != expect_valid:
        failures.append(f"verdict {report.verdict}, expected {'pass' if expect_valid else 'fail'}")
    return failures


def validate_cross_check(results: list[tuple[int, object, Op]]) -> dict[int, list[str]]:
    """Pass-level gate over the checkers of one table: row agrees with
    column, a hirvensalo pass implies a column pass, and for k <= 2 the
    generated ktape residuals equal the auto residuals within 1e-12.  An op
    that runs several times in a pass is judged on every run."""
    by_table: dict[tuple, dict[str, list[tuple[int, object]]]] = {}
    for index, report, op in results:
        by_table.setdefault(op.group, {}).setdefault(op.role, []).append((index, report))
    failures: dict[int, list[str]] = {}
    for group, reports in by_table.items():
        if "auto" not in reports:
            continue
        auto = reports["auto"][-1][1]
        tapes = group[1]
        for index, row in reports.get("row", ()):
            if row.passed != auto.passed:
                failures.setdefault(index, []).append(
                    f"row verdict {row.verdict} differs from column verdict {auto.verdict}")
        for index, hirv in reports.get("hirvensalo", ()):
            if hirv.passed and not auto.passed:
                failures.setdefault(index, []).append("hirvensalo passes a table column fails")
        for index, ktape in reports.get("ktape", ()) if tapes <= 2 else ():
            if len(ktape.residuals) != len(auto.residuals):
                failures.setdefault(index, []).append(
                    f"{len(ktape.residuals)} ktape residuals against {len(auto.residuals)} auto")
                continue
            worst = max(abs(a.residual - b.residual) for a, b in zip(ktape.residuals, auto.residuals))
            if worst > RESIDUAL_AGREEMENT:
                failures.setdefault(index, []).append(
                    f"ktape residuals differ from auto by {worst:.3e}")
    return failures


def build_validate(seed: int) -> Workload:
    """Each size mixes a valid pair-unitary table, a single-entry
    perturbation of it and a dense random table, each serialized to a .qtm
    document; one-tape tables go through every checker."""
    rng = np.random.default_rng(seed)
    sizes = [((q, s), ONE_TAPE_CHECKERS) for q, s in VALIDATE_ONE_TAPE] + list(VALIDATE_MULTI_TAPE)
    ops = []
    for dims, checkers in sizes:
        frame = qt.simple_frame(*dims)
        valid = pair_unitary_table(frame, rng)
        tables = (("valid", valid, True), ("perturbed", perturbed_table(valid, rng), False),
                  ("dense", dense_table(frame, rng), False))
        for kind, table, expect_valid in tables:
            text = qt.serialize_machine(table, f"{kind}-{'x'.join(map(str, dims))}")
            for checker in checkers:
                ops.append(Op(
                    label=f"validate Q{dims[0]} S{dims[1:]} {kind} {checker}",
                    shape=dims,
                    call=lambda text=text, checker=checker: _validate_call(text, checker),
                    traced=lambda tr, text=text, checker=checker: _validate_traced(tr, text, checker),
                    check=lambda report, checker=checker, k=frame.tape_count, ev=expect_valid:
                        validate_gate(checker, k, ev, report),
                    layer=_CHECKER_SPANS[checker].split(".")[0],
                    group=(f"{dims}-{kind}", frame.tape_count),
                    role=checker,
                ))
    return Workload("validate", ops, validate_cross_check)


# ---------------------------------------------------------------------------
# evolve: run(table, psi, n), then n adjoint pull-back steps
# ---------------------------------------------------------------------------

# The corpus frames, each with fixed per-state moves: all left, all right and
# a mixed walk for one-symbol alphabets, stationary for two symbols.  The
# corpus generator draws the mixed moves at random, and they set a run's
# cost (how far the support spreads), so here they are fixed and the seed
# draws the unitaries and the start states.
EVOLVE_ONE_SYMBOL_STATES = (1, 2, 3, 4, 5, 6)
EVOLVE_TWO_SYMBOL_STATES = (1, 2)
EVOLVE_SHORT_TRIALS = 4
EVOLVE_SHORT_STEPS = 10
EVOLVE_WALK_STEPS = 100  # counterexample from blank: 328 terms
EVOLVE_MOVER_STEPS = 11  # Q2S2 right-mover from blank: 4,096 terms


def evolve_tables(rng: np.random.Generator) -> list[tuple[str, qt.TransitionTable]]:
    tables = []
    for states in EVOLVE_ONE_SYMBOL_STATES:
        frame = qt.simple_frame(states, 1)
        mixed = [((1, -1, 0)[p % 3],) for p in range(states)]
        for kind, moves in (("left", [(-1,)] * states), ("right", [(1,)] * states),
                            ("mixed", mixed)):
            tables.append((f"Q{states}S1 {kind}", pair_unitary_table(frame, rng, moves)))
    for states in EVOLVE_TWO_SYMBOL_STATES:
        frame = qt.simple_frame(states, 2)
        tables.append((f"Q{states}S2 stationary", pair_unitary_table(frame, rng, [(0,)] * states)))
    return tables


def random_superposition(frame: qt.TuringFrame, rng: np.random.Generator):
    """A normalized 3-term superposition with heads at -1, 0 and 1 and seeded
    states, tape symbols on [-1, 1] and amplitudes.  The heads are fixed
    because how many terms share a head sets how far a run spreads, and so
    its cost."""
    terms = {}
    amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    amps /= np.linalg.norm(amps)
    for head, amp in zip((-1, 0, 1), amps):
        tapes = []
        for size, blank in zip(frame.symbol_counts, frame.blanks):
            tape = qt.Tape(blank)
            for cell in (-1, 0, 1):
                tape = tape.write(cell, int(rng.integers(size)))
            tapes.append(tape)
        state = int(rng.integers(frame.state_count))
        terms[qt.Configuration(state, tuple(tapes), (head,) * frame.tape_count)] = amp
    return qt.Superposition(terms)


def _evolve_call(table, psi, steps):
    result = qt.run(table, psi, steps)
    back = result.final
    for _ in range(steps):
        back = qt.apply_adjoint(table, back)
    return result.norms, back


class _ImageCounter:
    """Nonzero rules each basis term expands through, read from the table;
    used outside the timed spans."""

    def __init__(self, table: qt.TransitionTable):
        self.frame = table.frame
        self.forward = (table.amplitudes != 0).sum(axis=(2, 3, 4))  # [q, read]

    def images(self, psi) -> int:
        frame = self.frame
        return int(sum(self.forward[c.state, frame.symbol_flat(c.read())] for c, _ in psi.items()))


def _evolve_traced(tr: Tracer, table, psi, steps, counter: _ImageCounter):
    steps_seen = []  # (side, input, output), counted once the op has ended
    with tr.span("evolution.run"):
        report = traced_check_auto(tr, table)
        if not report.passed:
            raise ValueError(f"table fails the {report.checker} conditions")
        with tr.span("evolution.norm"):
            norms = [psi.norm()]
        cur = psi
        for _ in range(steps):
            with tr.span("evolution.apply"):
                nxt = qt.apply(table, cur)
            steps_seen.append(("apply", cur, nxt))
            cur = nxt
            with tr.span("evolution.norm"):
                norms.append(cur.norm())
    back = cur
    for _ in range(steps):
        with tr.span("evolution.apply_adjoint"):
            nxt = qt.apply_adjoint(table, back)
        steps_seen.append(("apply_adjoint", back, nxt))
        back = nxt
    tr.defer(lambda: _count_steps(tr, counter, steps_seen))
    return tuple(norms), back


def _count_steps(tr: Tracer, counter: _ImageCounter, steps_seen):
    for side, before, after in steps_seen:
        tr.count(f"evolution.{side}_terms_in", len(before))
        tr.count(f"evolution.{side}_terms_out", len(after))
        if side == "apply":
            tr.count("evolution.images", counter.images(before))
        tr.maximum("evolution.max_terms", max(len(before), len(after)))


def evolve_gate(psi, result) -> list[str]:
    """Every logged norm stays at the start norm, and the adjoint pull-back
    returns the start state."""
    norms, back = result
    failures = []
    drift = max(abs(n - norms[0]) for n in norms)
    if drift > NORM_DRIFT:
        failures.append(f"norm drifts by {drift:.3e}")
    distance = back.distance(psi)
    if distance > ROUND_TRIP:
        failures.append(f"adjoint pull-back misses the start by {distance:.3e}")
    return failures


def build_evolve(seed: int) -> Workload:
    """Mostly short 10-step runs from seeded 3-term superpositions on valid
    corpus-style tables, plus two wide runs: the counterexample walk and a
    Q2S2 right-mover.  Multi-symbol movers double their support every step,
    so that case is left to the right-mover op."""
    rng = np.random.default_rng(seed)
    inputs = []
    for label, table in evolve_tables(rng):
        for _ in range(EVOLVE_SHORT_TRIALS):
            inputs.append((f"short {label}", table,
                           random_superposition(table.frame, rng), EVOLVE_SHORT_STEPS))
    walk = qt.parse_machine(bundled_machine_path("counterexample").read_text(encoding="utf-8"))
    inputs.append(("wide counterexample walk", walk,
                   qt.Superposition.basis(qt.blank_configuration(walk.frame)), EVOLVE_WALK_STEPS))
    frame = qt.simple_frame(2, 2)
    mover = pair_unitary_table(frame, rng, moves=[(1,), (1,)])
    inputs.append(("wide Q2S2 right-mover", mover,
                   qt.Superposition.basis(qt.blank_configuration(frame)), EVOLVE_MOVER_STEPS))

    ops = []
    for label, table, psi, steps in inputs:
        counter = _ImageCounter(table)
        dims = (table.frame.state_count, *table.frame.symbol_counts)
        ops.append(Op(
            label=label,
            shape=(dims, steps),
            call=lambda t=table, p=psi, n=steps: _evolve_call(t, p, n),
            traced=lambda tr, t=table, p=psi, n=steps, c=counter: _evolve_traced(tr, t, p, n, c),
            check=lambda result, p=psi: evolve_gate(p, result),
            layer="evolution",
        ))
    return Workload("evolve", ops)


# ---------------------------------------------------------------------------
# gram: one brute-force Gram check or one windowed norm estimate
# ---------------------------------------------------------------------------

GRAM_CORPUS = 16  # valid and as many invalid corpus tables, two per corpus frame
GRAM_RADIUS = 3
GRAM_WIDE_RADIUS = 4
GRAM_TWO_TAPE = ((1, 2, 2), 1)  # frame dims and radius of the two-tape column check


def _gram_traced(tr: Tracer, table, radius: int, side: str):
    frame = table.frame
    if tr.first((frame, radius)):
        with tr.span("windows.radius_window"):
            window = qt.radius_window(frame, radius)
        tr.count("windows.configs", len(window))
    if side == "norm":
        with tr.span("evolution.estimate_norm"):
            estimate = qt.estimate_norm(table, radius, NORM_ITERATIONS)
        tr.count("evolution.norm_iterations", NORM_ITERATIONS)
        return estimate
    name = "column_gram_check" if side == "columns" else "row_gram_check"
    with tr.span(f"oracle.{name}"):
        check = getattr(qt, name)(table, radius)
    tr.count("oracle.configs", check.config_count)
    tr.count("oracle.pairs", check.pair_count)
    return check


def _gram_call(table, radius: int, side: str):
    if side == "norm":
        return qt.estimate_norm(table, radius, NORM_ITERATIONS)
    if side == "columns":
        return qt.column_gram_check(table, radius)
    return qt.row_gram_check(table, radius)


def gram_gate(side: str, expected, configs: int, result) -> list[str]:
    """Gram verdicts equal the set-up checker verdicts and the window has
    the size of the law; a norm estimate respects the bound, and is 1 for
    valid tables.  `expected` is the verdict, or (bound, valid) for norms."""
    if side == "norm":
        bound, valid = expected
        failures = []
        if result > bound + NORM_BOUND_SLACK:
            failures.append(f"norm estimate {result:.12g} above the bound {bound:.12g}")
        if valid and abs(result - 1.0) > VALID_NORM:
            failures.append(f"norm estimate {result:.12g} of a valid table is not 1")
        return failures
    failures = []
    if result.passed != expected:
        failures.append(f"{side} gram verdict {result.verdict}, checker says "
                        f"{'pass' if expected else 'fail'}")
    if result.config_count != configs:
        failures.append(f"{result.config_count} window configurations, law gives {configs}")
    return failures


def build_gram(seed: int) -> Workload:
    """Corpus tables at r=3 (one- and two-symbol frames: windows of 7 to
    1,792 configurations), Q2S2 at r=4 (9,216) and a small two-tape column
    check.  Reference verdicts come from the checkers here, in set-up."""
    rng = np.random.default_rng(seed)
    inputs = [(e.table, GRAM_RADIUS, e.label) for e in qt.build_corpus(GRAM_CORPUS, GRAM_CORPUS, seed=seed)]
    inputs.append((pair_unitary_table(qt.simple_frame(2, 2), rng), GRAM_WIDE_RADIUS, "Q2S2 r4"))
    dims, radius = GRAM_TWO_TAPE
    two_tape = pair_unitary_table(qt.simple_frame(*dims), rng)
    inputs.append((two_tape, radius, "two-tape valid"))
    inputs.append((perturbed_table(two_tape, rng), radius, "two-tape perturbed"))

    ops = []
    for table, radius, label in inputs:
        frame = table.frame
        configs = guard_window(frame, radius)
        dims = (frame.state_count, *frame.symbol_counts)
        column_ok = qt.check_auto(table).passed
        expectations = {"columns": column_ok}
        if frame.tape_count == 1:
            expectations["rows"] = qt.check_row(table).passed
            expectations["norm"] = (qt.norm_bound(qt.compute_statistics(table), frame), column_ok)
        for side, expected in expectations.items():
            ops.append(Op(
                label=f"gram {label} r{radius} {side}",
                shape=(dims, radius),
                call=lambda t=table, r=radius, s=side: _gram_call(t, r, s),
                traced=lambda tr, t=table, r=radius, s=side: _gram_traced(tr, t, r, s),
                check=lambda result, s=side, e=expected, n=configs: gram_gate(s, e, n, result),
                layer="evolution" if side == "norm" else "oracle",
            ))
    return Workload("gram", ops)


MAKE_WORKLOAD = {"validate": build_validate, "evolve": build_evolve, "gram": build_gram}
