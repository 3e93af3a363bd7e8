import gc

import numpy as np
import pytest

import qturing as qt
from qturing.ktape import displacement_label

from reference_frame import write_at

# The two-state single-symbol machine that passes the column conditions but
# fails the hirvensalo set; all twelve entries, including the zeros.
COUNTEREXAMPLE_RULES = [
    (0, 0, 0, 0, -1, 0.0), (0, 0, 0, 0, 0, 0.5), (0, 0, 0, 0, 1, -0.5),
    (0, 0, 1, 0, -1, 0.5), (0, 0, 1, 0, 0, 0.5), (0, 0, 1, 0, 1, 0.0),
    (1, 0, 0, 0, -1, 0.0), (1, 0, 0, 0, 0, 0.5), (1, 0, 0, 0, 1, 0.5),
    (1, 0, 1, 0, -1, 0.5), (1, 0, 1, 0, 0, -0.5), (1, 0, 1, 0, 1, 0.0),
]


@pytest.fixture(scope="session")
def counterexample() -> qt.TransitionTable:
    frame = qt.TuringFrame(("0", "1"), (("B",),))
    return qt.TransitionTable.from_rules(frame, COUNTEREXAMPLE_RULES)


@pytest.fixture(scope="session")
def identity_machine() -> qt.TransitionTable:
    frame = qt.TuringFrame(("q0",), (("B",),))
    return qt.TransitionTable.from_rules(frame, [(0, 0, 0, 0, 0, 1.0)])


@pytest.fixture(scope="session")
def corpus() -> list[qt.CorpusEntry]:
    return qt.build_corpus(50, 50, seed=7)


# (states, symbols on tape 1, symbols on tape 2); at r=1 the largest window,
# (1, 3, 2), holds 1,944 configurations.
TWO_TAPE_FRAMES = [(1, 2, 2), (2, 1, 2), (2, 2, 1), (1, 2, 1), (2, 2, 2), (1, 3, 2)]

# (states, symbols on tapes 1..3); at r=1 the windows hold 216, 432, 1,728
# and 3,456 configurations.
THREE_TAPE_FRAMES = [(1, 2, 1, 1), (2, 2, 1, 1), (1, 2, 2, 1), (2, 2, 1, 2)]

# The full-size three-tape frame: two states over two symbols on every
# tape, 27,648 configurations at r=1.
FULL_THREE_TAPE_FRAME = (2, 2, 2, 2)

# (states, symbols on tapes 1..k) for four and five tapes; at r=1 the
# windows hold 648, 10,368 and 3,888 configurations.
FOUR_FIVE_TAPE_FRAMES = [(1, 2, 1, 1, 1), (2, 2, 2, 1, 1), (2, 2, 1, 1, 1, 1)]

# A six-tape frame, 5,832 configurations at r=1.  One six-tape table costs
# about 1-1.5 s of `check_auto` and 0.6-0.9 s of row Gram.
SIX_TAPE_FRAME = (1, 2, 1, 1, 1, 1, 1)

# (move d_p of the broken state, move d of the broken rule): the rule pairs
# with the state's other rules only at the displacement D = d - d_p, which
# has two or three nonzero components.
MULTI_COMPONENT_BREAKS = [
    ((-1, -1, -1), (1, 1, 1)),  # D = (2,2,2)
    ((-1, 1, 0), (1, 0, -1)),  # D = (2,-1,-1)
    ((0, -1, 1), (0, 1, -1)),  # D = (0,2,-2)
    ((0, -1, 1), (1, 1, 0)),  # D = (1,2,-1)
    ((-1, 0, 1), (0, 0, -1)),  # D = (1,0,-2)
]

# (frame, d_p, d) as above on four and six tapes, D with four nonzero components.
MANY_COMPONENT_BREAKS = [
    ((2, 2, 1, 1, 1), (0, 0, 0, 0), (1, 1, 1, 1)),  # D = (1,1,1,1)
    (SIX_TAPE_FRAME, (-1, 0, 1, 0, 0, 0), (1, 0, -1, 1, 0, 1)),  # D = (2,0,-2,1,0,1)
]


def _random_moves(rng: np.random.Generator, k: int) -> tuple[int, ...]:
    return tuple(int(d) for d in rng.integers(-1, 2, size=k))


def _pair_unitary_table(frame: qt.TuringFrame, rng: np.random.Generator) -> qt.TransitionTable:
    """A unitary-pair machine with a random move vector per state."""
    unitary = qt.random_unitary(frame.state_count * frame.symbol_block, rng)
    moves = [_random_moves(rng, frame.tape_count) for _ in range(frame.state_count)]
    return qt.pair_unitary_machine(frame, unitary, moves)


def _broken_neighbour(base: qt.TransitionTable, rng: np.random.Generator) -> qt.TransitionTable:
    """A single-entry perturbation of `base` that `check_auto` rejects."""
    frame = base.frame
    while True:
        entry = (
            int(rng.integers(frame.state_count)),
            tuple(int(rng.integers(n)) for n in frame.symbol_counts),
            int(rng.integers(frame.state_count)),
            tuple(int(rng.integers(n)) for n in frame.symbol_counts),
            _random_moves(rng, frame.tape_count),
        )
        epsilon = float(rng.uniform(0.05, 0.5)) * (1 if rng.integers(2) else -1)
        table = qt.perturb(base, entry, epsilon)
        if not qt.check_auto(table).passed:
            return table


def _moved_rule_table(frame: qt.TuringFrame, moves, d, rng: np.random.Generator) -> qt.TransitionTable:
    """A signed-permutation pair-unitary table with state p moving moves[p],
    and one rule into state 0 moved from moves[0] to d."""
    dim = frame.state_count * frame.symbol_block
    signed = np.eye(dim)[rng.permutation(dim)] * rng.choice((-1.0, 1.0), size=dim)
    table = qt.pair_unitary_machine(frame, signed, moves)
    q, s, _, t, _, amp = next(rule for rule in table.nonzero_rules() if rule[2] == 0)
    rule = (q, frame.symbol_vector(s), 0, frame.symbol_vector(t))
    return table.with_entry(*rule, moves[0], 0).with_entry(*rule, d, amp)


def build_multitape_corpus(frames, n_valid: int, n_invalid: int, seed: int) -> list[qt.CorpusEntry]:
    """Seeded corpus in the manner of `qt.build_corpus` on frames of any
    tape count: unitary-pair machines with a random move vector per state,
    then single-entry perturbations of them that `check_auto` rejects."""
    rng = np.random.default_rng(seed)
    valid = []
    for i in range(n_valid):
        table = _pair_unitary_table(qt.simple_frame(*frames[i % len(frames)]), rng)
        frame = table.frame
        valid.append(qt.CorpusEntry(table, True, f"valid-{i} Q={frame.state_count} S={frame.symbol_counts}"))
    invalid = []
    for i in range(n_invalid):
        table = _broken_neighbour(valid[i % n_valid].table, rng)
        frame = table.frame
        invalid.append(qt.CorpusEntry(table, False,
                                      f"invalid-{i} Q={frame.state_count} S={frame.symbol_counts}"))
    return valid + invalid


def build_three_tape_corpus() -> list[qt.CorpusEntry]:
    """A seeded 16-table three-tape corpus, plus two tables per entry of
    MULTI_COMPONENT_BREAKS, each on the next frame in turn with state 0
    moving d_p, plus one unitary-pair table on FULL_THREE_TAPE_FRAME and one
    single-entry perturbation of it that `check_auto` rejects.  The
    displacement tables are:

    * `shift`: a pair-unitary table with one rule into state 0 added on
      move d; it fails the normalization half of D = 0 and, of the
      displacements, only D.
    * `moved`: a signed-permutation pair-unitary table with one rule into
      state 0 moved from d_p to d; it passes D = 0 and fails only D.

    Each label ends in the name of D's condition.
    """
    corpus = build_multitape_corpus(THREE_TAPE_FRAMES, 8, 8, seed=13)
    rng = np.random.default_rng(14)
    for i, (d_p, d) in enumerate(MULTI_COMPONENT_BREAKS):
        frame = qt.simple_frame(*THREE_TAPE_FRAMES[i % len(THREE_TAPE_FRAMES)])
        dim = frame.state_count * frame.symbol_block
        moves = [d_p] + [_random_moves(rng, 3) for _ in range(1, frame.state_count)]
        label = f"Q={frame.state_count} S={frame.symbol_counts} {displacement_label(tuple(np.subtract(d, d_p)))}"

        table = qt.pair_unitary_machine(frame, qt.random_unitary(dim, rng), moves)
        q = int(rng.integers(frame.state_count))
        sigma, tau = (frame.symbol_vector(int(s)) for s in rng.integers(frame.symbol_block, size=2))
        corpus.append(qt.CorpusEntry(qt.perturb(table, (q, sigma, 0, tau, d), float(rng.uniform(0.05, 0.5))),
                                     False, f"shift {label}"))
        corpus.append(qt.CorpusEntry(_moved_rule_table(frame, moves, d, rng), False, f"moved {label}"))
    table = _pair_unitary_table(qt.simple_frame(*FULL_THREE_TAPE_FRAME), rng)
    label = f"Q={table.frame.state_count} S={table.frame.symbol_counts}"
    corpus.append(qt.CorpusEntry(table, True, f"full valid {label}"))
    corpus.append(qt.CorpusEntry(_broken_neighbour(table, rng), False, f"full invalid {label}"))
    return corpus


def build_many_tape_corpus() -> list[qt.CorpusEntry]:
    """A seeded corpus on four to six tapes: three pair-unitary tables on
    FOUR_FIVE_TAPE_FRAMES and three single-entry perturbations of them, one
    `moved` table (as in `build_three_tape_corpus`) per entry of
    MANY_COMPONENT_BREAKS, and one pair-unitary table on SIX_TAPE_FRAME, so
    six tapes have two tables.  A `moved` label ends in the name of D's
    condition, the only condition that table fails."""
    corpus = build_multitape_corpus(FOUR_FIVE_TAPE_FRAMES, 3, 3, seed=15)
    rng = np.random.default_rng(16)
    for shape, d_p, d in MANY_COMPONENT_BREAKS:
        frame = qt.simple_frame(*shape)
        moves = [d_p] + [_random_moves(rng, frame.tape_count) for _ in range(1, frame.state_count)]
        label = f"Q={frame.state_count} S={frame.symbol_counts} {displacement_label(tuple(np.subtract(d, d_p)))}"
        corpus.append(qt.CorpusEntry(_moved_rule_table(frame, moves, d, rng), False, f"moved {label}"))
    table = _pair_unitary_table(qt.simple_frame(*SIX_TAPE_FRAME), rng)
    corpus.append(qt.CorpusEntry(table, True, f"valid Q=1 S={table.frame.symbol_counts}"))
    return corpus


@pytest.fixture(scope="session")
def two_tape_corpus() -> list[qt.CorpusEntry]:
    return build_multitape_corpus(TWO_TAPE_FRAMES, 24, 24, seed=11)


@pytest.fixture(scope="session")
def three_tape_corpus() -> list[qt.CorpusEntry]:
    return build_three_tape_corpus()


@pytest.fixture(scope="session")
def many_tape_corpus() -> list[qt.CorpusEntry]:
    return build_many_tape_corpus()


@pytest.fixture(scope="session")
def sixfold() -> qt.TransitionTable:
    """A two-tape Q1 S(3,2) pair-unitary table with move vector (1,-1): every
    step multiplies the terms by 6."""
    return qt.pair_unitary_machine(qt.simple_frame(1, 3, 2), qt.random_unitary(6, np.random.default_rng(11)),
                                   [(1, -1)])


def random_table(frame: qt.TuringFrame, rng: np.random.Generator, density: float = 0.6) -> qt.TransitionTable:
    shape = frame.table_shape
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    amps[rng.random(shape) >= density] = 0
    return qt.TransitionTable(frame, amps)


def random_configuration(
    frame: qt.TuringFrame, rng: np.random.Generator, span: int = 4
) -> qt.Configuration:
    tapes = []
    for size, blank in zip(frame.symbol_counts, frame.blanks):
        tape = qt.Tape(blank)
        for cell in range(-span, span + 1):
            if rng.random() < 0.4:
                tape = tape.write(int(cell), int(rng.integers(size)))
        tapes.append(tape)
    heads = tuple(int(h) for h in rng.integers(-span, span + 1, size=frame.tape_count))
    return qt.Configuration(int(rng.integers(frame.state_count)), tuple(tapes), heads)


def naive_step(table: qt.TransitionTable, terms: dict) -> dict:
    """Independent expansion of the evolution operator: quantify every
    (p, tau, d) tuple and accumulate through the public lookup API."""
    frame = table.frame
    out: dict[qt.Configuration, complex] = {}
    for config, amp in terms.items():
        sigma = config.read()
        for p in range(frame.state_count):
            for tau in frame.symbol_vectors():
                for moves in frame.move_vectors():
                    coef = qt.amplitude(table, config.state, sigma, p, tau, moves)
                    if coef == 0:
                        continue
                    tapes = tuple(
                        write_at(t, h, w, size)
                        for t, h, w, size in zip(config.tapes, config.heads, tau, frame.symbol_counts)
                    )
                    heads = tuple(h + d for h, d in zip(config.heads, moves))
                    image = qt.Configuration(p, tapes, heads)
                    out[image] = out.get(image, 0j) + amp * coef
    return {c: a for c, a in out.items() if a != 0}


@pytest.fixture
def collector():
    """A setter for the cyclic garbage collector's state; the state before
    the test comes back after it."""
    was = gc.isenabled()
    yield lambda on: gc.enable() if on else gc.disable()
    if was:
        gc.enable()
    else:
        gc.disable()
