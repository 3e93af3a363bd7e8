"""Command-line driver: validate / run / norm / conditions / gram.

Exit codes: 0 pass, 1 validation or gram failure, 2 usage or parse error.
Output is deterministic: identical inputs and flags produce identical bytes.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources
from pathlib import Path

from .conditions import DEFAULT_TOLERANCE, ValidationReport
from .evolution import MAX_POSITION, Superposition, run as run_evolution, estimate_norm
from .frame import Configuration, Tape, TuringFrame
from .ktape import (
    MAX_TAPES,
    check_auto,
    check_column,
    check_hirvensalo,
    check_ktape,
    check_row,
    check_two_tape,
    generate_ktape_conditions,
)
from .machine_io import MachineDocument, MachineParseError, parse_document
from .oracle import column_gram_check, row_gram_check, simple_frame
from .table import TransitionTable, compute_statistics, norm_bound

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


def _witness_text(witness) -> str:
    if not witness:
        return "-"
    return " ".join(f"{key}={value}" for key, value in witness)


def _render_tape(frame: TuringFrame, tape_index: int, tape: Tape) -> str:
    if not tape.cells:
        return "-"
    return " ".join(f"{m}:{frame.symbol_name(tape_index, s)}" for m, s in tape.cells)


def _render_config(frame: TuringFrame, config: Configuration) -> tuple[str, str, str]:
    state = frame.states[config.state]
    heads = ",".join(str(h) for h in config.heads)
    tapes = "|".join(_render_tape(frame, i, t) for i, t in enumerate(config.tapes))
    return state, heads, tapes


def _report_lines(name: str, report: ValidationReport) -> list[str]:
    lines = [
        f"machine: {name}",
        f"checker: {report.checker}",
        f"tolerance: {report.tolerance:g}",
        "condition\tresidual\twitness",
    ]
    for r in report.residuals:
        lines.append(f"{r.id}\t{_fmt(r.residual)}\t{_witness_text(r.witness)}")
    lines.append(f"verdict: {report.verdict.upper()}")
    return lines


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
                "witness": None if r.witness is None else {k: v for k, v in r.witness},
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
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _emit(args, text_lines: list[str], payload: dict):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print("\n".join(text_lines))


def cmd_validate(args) -> int:
    doc = _load_document(args.machine)
    report = _CHECKERS[args.checker](doc.table, args.tolerance)
    _emit(args, _report_lines(doc.name, report), _report_json(doc.name, report))
    return 0 if report.passed else 1


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
        tape = tape.write(int(cell), names[symbol])
    return tape


def _parse_basis_spec(frame: TuringFrame, text: str) -> Configuration:
    state = 0
    heads = (0,) * frame.tape_count
    tapes = frame.blank_tapes()
    state_index = {name: i for i, name in enumerate(frame.states)}
    for token in text.split():
        key, _, value = token.partition("=")
        if key == "state":
            if value in state_index:
                state = state_index[value]
            elif value.isdigit() and int(value) < frame.state_count:
                state = int(value)
            else:
                raise ValueError(f"unknown state {value!r} in start spec")
        elif key == "heads":
            parts = value.split(",")
            if len(parts) != frame.tape_count:
                raise ValueError(f"heads must list {frame.tape_count} positions")
            heads = tuple(int(h) for h in parts)
        elif key in ("tape", "tapes"):
            parts = value.split(";")
            if len(parts) != frame.tape_count:
                raise ValueError(f"tape spec must have {frame.tape_count} ';'-separated parts")
            tapes = tuple(_parse_cells(frame, i, part) for i, part in enumerate(parts))
        else:
            raise ValueError(f"unknown start key {key!r} (expected state/heads/tape)")
    return Configuration(state, tapes, heads)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_position(value) -> bool:
    return _is_int(value) and -MAX_POSITION <= value <= MAX_POSITION


def _is_finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


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
    if not isinstance(amp, list) or len(amp) != 2 or not all(_is_finite(x) for x in amp):
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
        except json.JSONDecodeError as err:
            raise ValueError(f"start file {spec[1:]}: invalid JSON: {err}") from None
        if not isinstance(raw, list):
            raise ValueError("superposition file must hold a list of terms")
        return Superposition([_parse_term(frame, i, item) for i, item in enumerate(raw)])
    return Superposition.basis(_parse_basis_spec(frame, spec))


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
    lines = [f"machine: {doc.name}", f"steps: {args.steps}"]
    for t, value in enumerate(result.norms):
        lines.append(f"norm[{t}]={_fmt(value)}")
    lines.append("state\theads\ttapes\tre\tim\tprob")
    terms_json = []
    for config, amp in result.final.items():
        state, heads, tapes = _render_config(frame, config)
        prob = (amp * amp.conjugate()).real
        lines.append(f"{state}\t{heads}\t{tapes}\t{_fmt(amp.real)}\t{_fmt(amp.imag)}\t{_fmt(prob)}")
        terms_json.append({
            "state": state,
            "heads": list(config.heads),
            "tapes": [
                [[m, frame.symbol_name(i, s)] for m, s in tape.cells]
                for i, tape in enumerate(config.tapes)
            ],
            "re": amp.real,
            "im": amp.imag,
            "probability": prob,
        })
    payload = {
        "machine": doc.name,
        "steps": args.steps,
        "norms": list(result.norms),
        "terms": terms_json,
    }
    _emit(args, lines, payload)
    return 0


def cmd_norm(args) -> int:
    doc = _load_document(args.machine)
    stats = compute_statistics(doc.table)
    bound = norm_bound(stats, doc.frame)
    estimate = estimate_norm(doc.table, args.radius, args.iterations, seed=args.seed)
    lines = [
        f"machine: {doc.name}",
        f"K: {_fmt(stats.K)}",
        f"bound: {_fmt(bound)}",
        f"estimate[radius={args.radius}, iterations={args.iterations}]: {_fmt(estimate)}",
    ]
    payload = {
        "machine": doc.name,
        "K": stats.K,
        "bound": bound,
        "estimate": estimate,
        "radius": args.radius,
        "iterations": args.iterations,
    }
    _emit(args, lines, payload)
    return 0


def cmd_conditions(args) -> int:
    k = args.k
    if not 1 <= k <= MAX_TAPES:
        raise ValueError(f"supported tape counts are 1..{MAX_TAPES}")
    ids = generate_ktape_conditions(simple_frame(1, *(1,) * k))
    kinds = {"norm": "normalization", "orth": "orthogonality"}
    lines = [f"conditions for k={k} ({len(ids)} total)", "label\tkind\tdisplacement"]
    rows = []
    for cid in ids:
        kind = kinds.get(cid.part, "shift")
        disp = "(" + ",".join(str(d) for d in cid.displacement) + ")"
        lines.append(f"{cid.name}\t{kind}\t{disp}")
        rows.append({"label": cid.name, "kind": kind, "displacement": list(cid.displacement)})
    lines.append(f"total: {len(ids)}")
    _emit(args, lines, {"k": k, "total": len(ids), "conditions": rows})
    return 0


def cmd_gram(args) -> int:
    doc = _load_document(args.machine)
    radius = args.radius if args.radius is not None else (3 if doc.frame.tape_count == 1 else 2)
    checks = []
    if args.side in ("columns", "both"):
        checks.append(column_gram_check(doc.table, radius, args.tolerance))
    if args.side in ("rows", "both"):
        checks.append(row_gram_check(doc.table, radius, args.tolerance))
    lines = [f"machine: {doc.name}", f"radius: {radius}"]
    payload_checks = []
    for check in checks:
        lines.append(
            f"{check.side}: residual={_fmt(check.residual)} "
            f"configs={check.config_count} pairs={check.pair_count} {check.verdict.upper()}"
        )
        payload_checks.append({
            "side": check.side,
            "residual": check.residual,
            "diagonal_residual": check.diagonal_residual,
            "offdiagonal_residual": check.offdiagonal_residual,
            "configs": check.config_count,
            "pairs": check.pair_count,
            "verdict": check.verdict,
        })
    passed = all(check.passed for check in checks)
    lines.append(f"verdict: {'PASS' if passed else 'FAIL'}")
    _emit(args, lines, {"machine": doc.name, "radius": radius, "checks": payload_checks,
                        "verdict": "pass" if passed else "fail"})
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qturing",
        description="Validate, simulate and brute-force-check quantum Turing machine rule tables.",
        epilog="Machine paths may name a bundled machine (counterexample, identity, "
               "zero, two_tape_identity, three_tape_pair) when no such file exists on disk.",
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
        return args.func(args)
    except (MachineParseError, OSError, ValueError, KeyError) as err:
        # OSError is a missing, unreadable or directory path
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
