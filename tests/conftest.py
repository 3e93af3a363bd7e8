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


def random_table(frame: qt.TuringFrame, rng: np.random.Generator, density: float = 0.6) -> qt.TransitionTable:
    shape = (
        frame.state_count,
        frame.symbol_block,
        frame.state_count,
        frame.symbol_block,
        frame.move_block,
    )
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
