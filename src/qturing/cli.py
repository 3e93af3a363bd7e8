"""Command-line driver: validate / run / norm / conditions / gram.

Exit codes: 0 pass, 1 validation or gram failure, 2 usage or parse error,
141 when the reader closes stdout early (`| head`).
Each subcommand builds its result once, as the record `--format json`
prints; the text format renders lines from that same record, floats in
12-digit `e` form.  Output is deterministic: identical inputs and flags
produce identical bytes.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

from .evolution import MAX_POSITION, Superposition, run as run_evolution
from .frame import Configuration, Tape, TuringFrame, _is_integer
from .ktape import (
    DEFAULT_TOLERANCE,
    MAX_TAPES,
    ValidationReport,
    _is_tolerance,
    check_auto,
    check_column,
    check_hirvensalo,
    check_ktape,
    check_row,
    check_two_tape,
    generate_ktape_conditions,
)
from .machine_io import _AMP_TYPES, MachineDocument, MachineParseError, _finite, parse_document
from .oracle import column_gram_check, row_gram_check, simple_frame
from .table import TransitionTable, compute_statistics, norm_bound
from .windows import estimate_norm

_CHECKERS = {
    "column": check_column,
    "row": check_row,
    "hirvensalo": check_hirvensalo,
    "two-tape": check_two_tape,
    "ktape": check_ktape,
    "auto": check_auto,
}


def bundled_machine_path(name: str) -> Path | None:
    """Path of a machine shipped with the package, or None."""
    base = resources.files(__package__) / "machines"
    for filename in (name, f"{name}.qtm"):
        candidate = base / filename
        if candidate.is_file():
            return Path(str(candidate))
    return None


def _load_document(path_arg: str) -> MachineDocument:
    path = Path(path_arg)
    if not path.is_file():
        bundled = bundled_machine_path(path_arg)
        if bundled is None:
            raise FileNotFoundError(f"no such machine file: {path_arg}")
        path = bundled
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise MachineParseError("syntax", f"not UTF-8 text: byte {err.start} cannot be decoded") from None
    return parse_document(text)


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _report_json(name: str, report: ValidationReport) -> dict:
    return {
        "machine": name,
        "checker": report.checker,
        "tolerance": report.tolerance,
        "verdict": report.verdict,
        "residuals": [
            {
                "condition": str(r.id),
                "residual": r.residual,
                "witness": r.witness_dict,
            }
            for r in report.residuals
        ],
    }


def _tolerance(text: str) -> float:
    """argparse type of --tolerance: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not _is_tolerance(value):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _emit(args, record: dict, text):
    """Print a subcommand's record as JSON, or as the lines `text` renders from it."""
    if args.format == "json":
        print(json.dumps(record, sort_keys=True))
    else:
        print("\n".join(text(record)))


def _report_text(record: dict):
    yield f"machine: {record['machine']}"
    yield f"checker: {record['checker']}"
    yield f"tolerance: {record['tolerance']:g}"
    yield "condition\tresidual\twitness"
    for r in record["residuals"]:
        witness = " ".join(f"{key}={value}" for key, value in (r["witness"] or {}).items())
        yield f"{r['condition']}\t{_fmt(r['residual'])}\t{witness or '-'}"
    yield f"verdict: {record['verdict'].upper()}"


def cmd_validate(args) -> int:
    doc = _load_document(args.machine)
    record = _report_json(doc.name, _CHECKERS[args.checker](doc.table, args.tolerance))
    _emit(args, record, _report_text)
    return 0 if record["verdict"] == "pass" else 1


def _parse_cells(frame: TuringFrame, tape_index: int, text: str) -> Tape:
    blank = frame.blanks[tape_index]
    tape = Tape(blank)
    text = text.strip()
    if text in ("", "blank"):
        return tape
    names = {name: i for i, name in enumerate(frame.alphabets[tape_index])}
    for item in text.split(","):
        cell, _, symbol = item.partition(":")
        if symbol not in names:
            raise ValueError(f"unknown tape-{tape_index + 1} symbol {symbol!r} in start spec")
        tape = tape.write(_spec_int(f"tape-{tape_index + 1} cell", cell), names[symbol])
    return tape


def _spec_int(what: str, text: str) -> int:
    """A head or cell position of a basis spec."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{what} {text!r} in start spec is not an integer") from None
    if not _is_position(value):
        raise ValueError(f"{what} {text!r} in start spec must lie within -2**62..2**62")
    return value


def _parse_basis_spec(frame: TuringFrame, text: str) -> Configuration:
    state = 0
    heads = (0,) * frame.tape_count
    tapes = frame.blank_tapes()
    state_index = {name: i for i, name in enumerate(frame.states)}
    seen = set()
    for token in text.split():
        key, _, value = token.partition("=")
        name = "tape" if key == "tapes" else key
        if name in seen:
            raise ValueError(f"start key {name!r} given more than once in start spec")
        seen.add(name)
        if key == "state":
            if value in state_index:
                state = state_index[value]
            elif value.isdecimal() and int(value) < frame.state_count:
                state = int(value)
            else:
                raise ValueError(f"unknown state {value!r} in start spec")
        elif key == "heads":
            parts = value.split(",")
            if len(parts) != frame.tape_count:
                raise ValueError(f"heads must list {frame.tape_count} positions")
            heads = tuple(_spec_int("heads position", h) for h in parts)
        elif key in ("tape", "tapes"):
            parts = value.split(";")
            if len(parts) != frame.tape_count:
                raise ValueError(f"tape spec must have {frame.tape_count} ';'-separated parts")
            tapes = tuple(_parse_cells(frame, i, part) for i, part in enumerate(parts))
        else:
            raise ValueError(f"unknown start key {key!r} (expected state/heads/tape)")
    return Configuration(state, tapes, heads)


def _is_position(value) -> bool:
    return _is_integer(value) and -MAX_POSITION <= value <= MAX_POSITION


def _parse_term(frame: TuringFrame, index: int, item) -> tuple[Configuration, complex]:
    """One {state, heads, tapes, amp} term of a superposition file; a bad
    term raises ValueError naming its index and its bad field."""
    def bad(field: str, expected: str) -> ValueError:
        got = json.dumps(item.get(field)) if field in item else "nothing"
        return ValueError(f"start term {index}: field {field!r} must be {expected}, got {got}")

    k = frame.tape_count
    if not isinstance(item, dict):
        raise ValueError(f"start term {index}: must be an object with state, heads, tapes "
                         f"and amp, got {json.dumps(item)}")
    state = item.get("state")
    if not isinstance(state, str) or state not in frame.states:
        raise bad("state", "one of the state names " + ", ".join(frame.states))
    heads = item.get("heads")
    if not isinstance(heads, list) or len(heads) != k or not all(_is_position(h) for h in heads):
        raise bad("heads", f"a list of {k} integer positions in -2**62..2**62")
    cells_per_tape = item.get("tapes", [[]] * k)
    if not isinstance(cells_per_tape, list) or len(cells_per_tape) != k:
        raise bad("tapes", f"a list of {k} lists of [cell, symbol] pairs")
    tapes = []
    for i, cells in enumerate(cells_per_tape):
        alphabet = frame.alphabets[i]
        if not isinstance(cells, list) or not all(
            isinstance(pair, list) and len(pair) == 2 and _is_position(pair[0]) and pair[1] in alphabet
            for pair in cells
        ):
            raise bad("tapes", f"a list of {k} lists of [cell, symbol] pairs, cells in "
                               f"-2**62..2**62, over the tape-{i + 1} symbols " + ", ".join(alphabet))
        tape = Tape(frame.blanks[i])
        for cell, symbol in cells:
            tape = tape.write(cell, alphabet.index(symbol))
        tapes.append(tape)
    amp = item.get("amp")
    if not (isinstance(amp, list) and tuple(map(type, amp)) in _AMP_TYPES and all(map(_finite, amp))):
        raise bad("amp", "a [re, im] pair of finite numbers")
    config = Configuration(frame.states.index(state), tuple(tapes), tuple(heads))
    return config, complex(amp[0], amp[1])


def _parse_start(frame: TuringFrame, spec: str) -> Superposition:
    """Either a basis spec 'state=.. heads=.. tape=..' or '@file.json' with a
    list of {state, heads, tapes, amp} terms."""
    if spec.startswith("@"):
        try:
            raw = json.loads(Path(spec[1:]).read_text(encoding="utf-8"))
        except UnicodeDecodeError as err:
            raise ValueError(f"start file {spec[1:]}: not UTF-8 text: byte {err.start} "
                             "cannot be decoded") from None
        except RecursionError:
            raise ValueError(f"start file {spec[1:]}: JSON nested too deeply") from None
        except ValueError as err:  # a JSONDecodeError, or an integer literal too long to convert
            raise ValueError(f"start file {spec[1:]}: invalid JSON: {err}") from None
        if not isinstance(raw, list):
            raise ValueError("superposition file must hold a list of terms")
        return Superposition([_parse_term(frame, i, item) for i, item in enumerate(raw)])
    return Superposition.basis(_parse_basis_spec(frame, spec))


def _run_text(record: dict):
    yield f"machine: {record['machine']}"
    yield f"steps: {record['steps']}"
    for t, value in enumerate(record["norms"]):
        yield f"norm[{t}]={_fmt(value)}"
    yield "state\theads\ttapes\tre\tim\tprob"
    for term in record["terms"]:
        heads = ",".join(str(h) for h in term["heads"])
        tapes = "|".join(" ".join(f"{m}:{s}" for m, s in cells) or "-" for cells in term["tapes"])
        yield (f"{term['state']}\t{heads}\t{tapes}\t"
               f"{_fmt(term['re'])}\t{_fmt(term['im'])}\t{_fmt(term['probability'])}")


def cmd_run(args) -> int:
    doc = _load_document(args.machine)
    frame = doc.frame
    initial = _parse_start(frame, args.start)
    if not args.unchecked and abs(initial.norm() - 1.0) > 1e-9:
        raise ValueError(f"initial superposition norm {initial.norm():.12g} is not 1 "
                         "(pass --unchecked to run anyway)")
    if not args.unchecked:
        report = check_auto(doc.table, args.tolerance)
        if not report.passed:
            print(
                f"error: {doc.name} fails the {report.checker} conditions "
                f"(max residual {_fmt(report.max_residual)}); pass --unchecked to run anyway",
                file=sys.stderr,
            )
            return 1
    result = run_evolution(doc.table, initial, args.steps, unchecked=True)
    record = {
        "machine": doc.name,
        "steps": args.steps,
        "norms": list(result.norms),
        "terms": [
            {
                "state": frame.states[config.state],
                "heads": list(config.heads),
                "tapes": [
                    [[m, frame.symbol_name(i, s)] for m, s in tape.cells]
                    for i, tape in enumerate(config.tapes)
                ],
                "re": amp.real,
                "im": amp.imag,
                "probability": (amp * amp.conjugate()).real,
            }
            for config, amp in result.final.items()
        ],
    }
    _emit(args, record, _run_text)
    return 0


def _norm_text(record: dict):
    yield f"machine: {record['machine']}"
    yield f"K: {_fmt(record['K'])}"
    yield f"bound: {_fmt(record['bound'])}"
    yield f"estimate[radius={record['radius']}, iterations={record['iterations']}]: {_fmt(record['estimate'])}"


def cmd_norm(args) -> int:
    doc = _load_document(args.machine)
    stats = compute_statistics(doc.table)
    bound = norm_bound(stats, doc.frame)
    estimate = estimate_norm(doc.table, args.radius, args.iterations, seed=args.seed)
    record = {
        "machine": doc.name,
        "K": stats.K,
        "bound": bound,
        "estimate": estimate,
        "radius": args.radius,
        "iterations": args.iterations,
    }
    _emit(args, record, _norm_text)
    return 0


def _conditions_text(record: dict):
    yield f"conditions for k={record['k']} ({record['total']} total)"
    yield "label\tkind\tdisplacement"
    for row in record["conditions"]:
        disp = "(" + ",".join(str(d) for d in row["displacement"]) + ")"
        yield f"{row['label']}\t{row['kind']}\t{disp}"
    yield f"total: {record['total']}"


def cmd_conditions(args) -> int:
    k = args.k
    if not 1 <= k <= MAX_TAPES:
        raise ValueError(f"supported tape counts are 1..{MAX_TAPES}")
    ids = generate_ktape_conditions(simple_frame(1, *(1,) * k))
    kinds = {"norm": "normalization", "orth": "orthogonality"}
    rows = [
        {"label": cid.name, "kind": kinds.get(cid.part, "shift"), "displacement": list(cid.displacement)}
        for cid in ids
    ]
    _emit(args, {"k": k, "total": len(ids), "conditions": rows}, _conditions_text)
    return 0


def _gram_text(record: dict):
    yield f"machine: {record['machine']}"
    yield f"radius: {record['radius']}"
    for check in record["checks"]:
        yield (f"{check['side']}: residual={_fmt(check['residual'])} "
               f"configs={check['configs']} pairs={check['pairs']} {check['verdict'].upper()}")
    yield f"verdict: {record['verdict'].upper()}"


def cmd_gram(args) -> int:
    doc = _load_document(args.machine)
    radius = args.radius if args.radius is not None else (3 if doc.frame.tape_count == 1 else 2)
    checks = []
    if args.side in ("columns", "both"):
        checks.append(column_gram_check(doc.table, radius, args.tolerance))
    if args.side in ("rows", "both"):
        checks.append(row_gram_check(doc.table, radius, args.tolerance))
    rows = [
        {
            "side": check.side,
            "residual": check.residual,
            "diagonal_residual": check.diagonal_residual,
            "offdiagonal_residual": check.offdiagonal_residual,
            "configs": check.config_count,
            "pairs": check.pair_count,
            "verdict": check.verdict,
        }
        for check in checks
    ]
    passed = all(row["verdict"] == "pass" for row in rows)
    _emit(args, {"machine": doc.name, "radius": radius, "checks": rows, "verdict": "pass" if passed else "fail"},
          _gram_text)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qturing",
        description="Validate, simulate and brute-force-check quantum Turing machine rule tables.",
        epilog="Machine paths may name a bundled machine (counterexample, identity, zero, "
               "two_tape_identity, three_tape_pair, four_tape_pair) when no such file exists on disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("machine", help=".qtm machine file (or bundled machine name)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("validate", help="run a unitarity condition checker")
    add_common(p)
    p.add_argument("--checker", choices=sorted(_CHECKERS), default="auto")
    p.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="apply the evolution operator to a start state")
    add_common(p)
    p.add_argument("--start", default="state=0", help="basis spec 'state=.. heads=.. tape=..' or @file.json")
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE)
    p.add_argument("--unchecked", action="store_true", help="skip table and norm validation")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("norm", help="print K, the norm bound and a windowed estimate")
    add_common(p)
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("conditions", help="list the generated condition catalog for k tapes")
    p.add_argument("k", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_conditions)

    p = sub.add_parser("gram", help="brute-force Gram oracle over a configuration window")
    add_common(p)
    p.add_argument("--side", choices=("columns", "rows", "both"), default="both")
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE)
    p.set_defaults(func=cmd_gram)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): the rest of the output goes to
        # devnull, so shutdown prints nothing, and the exit is SIGPIPE's 128 + 13
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (MachineParseError, OSError, ValueError, KeyError) as err:
        # OSError is a missing, unreadable or directory path
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
