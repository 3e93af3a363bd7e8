import numpy as np
import pytest

import qturing as qt

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


def build_two_tape_corpus(n_valid: int = 24, n_invalid: int = 24, seed: int = 11) -> list[qt.CorpusEntry]:
    """Seeded two-tape corpus in the manner of `qt.build_corpus`: unitary-pair
    machines with a random move vector per state, then single-entry
    perturbations of them that `check_auto` rejects."""
    rng = np.random.default_rng(seed)
    valid = []
    for i in range(n_valid):
        frame = qt.simple_frame(*TWO_TAPE_FRAMES[i % len(TWO_TAPE_FRAMES)])
        unitary = qt.random_unitary(frame.state_count * frame.symbol_block, rng)
        moves = [tuple(int(d) for d in rng.integers(-1, 2, size=2)) for _ in range(frame.state_count)]
        table = qt.pair_unitary_machine(frame, unitary, moves)
        valid.append(qt.CorpusEntry(table, True, f"valid-{i} Q={frame.state_count} S={frame.symbol_counts}"))
    invalid = []
    for i in range(n_invalid):
        base = valid[i % n_valid].table
        frame = base.frame
        while True:
            entry = (
                int(rng.integers(frame.state_count)),
                tuple(int(rng.integers(n)) for n in frame.symbol_counts),
                int(rng.integers(frame.state_count)),
                tuple(int(rng.integers(n)) for n in frame.symbol_counts),
                tuple(int(d) for d in rng.integers(-1, 2, size=2)),
            )
            epsilon = float(rng.uniform(0.05, 0.5)) * (1 if rng.integers(2) else -1)
            table = qt.perturb(base, entry, epsilon)
            if not qt.check_auto(table).passed:
                break
        invalid.append(qt.CorpusEntry(table, False,
                                      f"invalid-{i} Q={frame.state_count} S={frame.symbol_counts}"))
    return valid + invalid


@pytest.fixture(scope="session")
def two_tape_corpus() -> list[qt.CorpusEntry]:
    return build_two_tape_corpus()


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
