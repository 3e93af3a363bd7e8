"""The `cli` workload: cold `python -m qturing ...` invocations.

An op is one invocation, spawned after the previous one exits.  Set-up
writes the seeded machine files and runs one discarded invocation per
subcommand, so `.pyc` compilation, which users pay once per install, is not
counted as cold start.  The gate checks each exit code against the one the
README documents, looks for a marker line in stdout, and requires stdout
bytes identical to the first timed invocation of the same command.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from passes import Op, Workload, mark
from tracing import Tracer

# (argv, documented exit code, a line stdout must contain).  "{dir}" is the
# directory holding the seeded machine files.
COMMANDS = (
    (("validate", "counterexample", "--checker", "auto"), 0, "verdict: PASS"),
    (("validate", "counterexample", "--checker", "hirvensalo"), 1, "verdict: FAIL"),
    (("run", "counterexample", "--steps", "1"), 0, "norm[1]=1.000000000000e+00"),
    (("norm", "counterexample"), 0, "estimate[radius=3, iterations=200]"),
    (("conditions", "3"), 0, "total: 64"),
    (("gram", "counterexample", "--radius", "3"), 0, "verdict: PASS"),
    (("validate", "two_tape_identity"), 0, "checker: two-tape"),
    (("gram", "two_tape_identity"), 0, "verdict: PASS"),
    (("validate", "{dir}/seeded.qtm"), 0, "verdict: PASS"),
    (("run", "{dir}/seeded.qtm", "--start", "@{dir}/start.json", "--steps", "3"), 0,
     "norm[3]=1.000000000000e+00"),
)
# A cold `python -c "import numpy"` on the reference host (see passes.py):
# the cli workload's slowness reference, since a cold interpreter tracks the
# host's phases where the in-process reference job does not.
COLD_REFERENCE_S = 0.16
# A cold invocation is one noisy sample, and the tail is the slowest of only
# ten commands, so each command runs at least five times.
CLI_PASSES = 5
# The first command of each subcommand.
WARM_UP = tuple(index for index, (argv, _, _) in enumerate(COMMANDS)
                if all(argv[0] != earlier[0] for earlier, _, _ in COMMANDS[:index]))


def seeded_files(seed: int) -> dict[str, str]:
    """A valid Q2S2 machine (a random unitary on (state, symbol) pairs with
    one seeded move per state) and a normalized 3-term start superposition,
    as file texts.  Built with numpy only, so the package under test sees
    nothing but the files."""
    rng = np.random.default_rng(seed)
    states, symbols = ("a", "b"), ("B", "1")
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q_factor, r_factor = np.linalg.qr(z)
    unitary = q_factor * (np.diagonal(r_factor) / np.abs(np.diagonal(r_factor)))
    moves = [int(m) for m in rng.integers(-1, 2, size=2)]
    rules = []
    for q in range(2):
        for s in range(2):
            for p in range(2):
                for t in range(2):
                    amp = complex(unitary[p * 2 + t, q * 2 + s])
                    rules.append({"q": states[q], "read": [symbols[s]], "p": states[p],
                                  "write": [symbols[t]], "move": [moves[p]],
                                  "amp": [amp.real, amp.imag]})
    machine = {"name": "seeded", "states": list(states),
               "tapes": [{"symbols": list(symbols), "blank": "B"}], "rules": rules}
    candidates = [(q, h, s) for q in states for h in (-1, 0, 1) for s in symbols]
    chosen = rng.choice(len(candidates), size=3, replace=False)
    amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    amps /= np.linalg.norm(amps)
    terms = []
    for index, amp in zip(chosen, amps):
        q, head, symbol = candidates[index]
        cells = [] if symbol == "B" else [[0, symbol]]
        terms.append({"state": q, "heads": [head], "tapes": [cells], "amp": [amp.real, amp.imag]})
    return {"seeded.qtm": json.dumps(machine, indent=2) + "\n", "start.json": json.dumps(terms) + "\n"}


class CliRun:
    """Runs and gates invocations; keeps the first stdout of each command."""

    def __init__(self, root: Path, env: dict, seed: int):
        self.root = root
        self.env = env
        self.seed = seed
        self.reference: dict[int, bytes] = {}
        self.dirs: list[Path] = []

    def set_up(self) -> list[tuple[float, float, float]]:
        """Write the seeded files to a fresh directory and warm every
        subcommand up; return the slowness marks taken before and after."""
        marks = [mark(self.slowness)]
        base = self.root / ".perfbench_tmp"
        base.mkdir(exist_ok=True)
        directory = Path(tempfile.mkdtemp(prefix="cli-", dir=base))
        self.dirs.append(directory)
        for name, text in seeded_files(self.seed).items():
            (directory / name).write_text(text, encoding="utf-8")
        self.directory = directory
        for index in WARM_UP:
            self.invoke(index)
        marks.append(mark(self.slowness))
        return marks

    def slowness(self) -> float:
        """A cold interpreter importing numpy, over COLD_REFERENCE_S."""
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=self.root, env=self.env,
                       capture_output=True, check=True)
        return (perf_counter() - start) / COLD_REFERENCE_S

    def argv(self, index: int) -> list[str]:
        rel = self.directory.relative_to(self.root).as_posix()
        return [arg.replace("{dir}", rel) for arg in COMMANDS[index][0]]

    def invoke(self, index: int) -> tuple[int, bytes]:
        proc = subprocess.run([sys.executable, "-m", "qturing", *self.argv(index)],
                              cwd=self.root, env=self.env, capture_output=True, check=False)
        return proc.returncode, proc.stdout

    def invoke_traced(self, index: int, tracer: Tracer, probe: Path) -> tuple[int | None, bytes]:
        """The same invocation through `probe.py`, its spans added to `tracer`."""
        proc = subprocess.run([sys.executable, str(probe), *self.argv(index)],
                              cwd=self.root, env=self.env, capture_output=True, check=False)
        try:
            out = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            tracer.count("cli.errors")
            raise RuntimeError(f"probe exited {proc.returncode} without a result: "
                               f"{proc.stderr.decode()[-300:]}") from None
        for name, start, end, raised in out["spans"]:
            tracer.add_span(name, start, end, raised)
        record_imports(tracer, out)
        return out["code"], out["stdout"].encode()

    def workload(self, probe: Path) -> Workload:
        """One op per command; `check` is the gate."""
        ops = [Op(label=" ".join(self.argv(i)), shape=(i,),
                  call=lambda i=i: self.invoke(i),
                  traced=lambda tr, i=i: self.invoke_traced(i, tr, probe),
                  check=lambda result, i=i: self.gate(i, *result),
                  layer="cli")
               for i in range(len(COMMANDS))]
        return Workload("cli", ops, slowness=self.slowness, min_passes=CLI_PASSES)

    def gate(self, index: int, code: int | None, stdout: bytes) -> list[str]:
        _, expected_code, marker = COMMANDS[index]
        failures = []
        if code != expected_code:
            failures.append(f"exit code {code}, documented {expected_code}")
        if marker.encode() not in stdout:
            failures.append(f"stdout lacks {marker!r}")
        reference = self.reference.setdefault(index, stdout)
        if stdout != reference:
            failures.append("stdout bytes differ from the first invocation")
        return failures

    def clean_up(self):
        for directory in self.dirs:
            shutil.rmtree(directory, ignore_errors=True)
        try:
            (self.root / ".perfbench_tmp").rmdir()
        except OSError:  # not empty: another run is using it
            pass


def record_imports(tracer: Tracer, probe_out: dict):
    tracer.maximum("import.modules_loaded", probe_out["modules_loaded"])
    tracer.maximum("import.scipy_loaded", probe_out["scipy_loaded"])
