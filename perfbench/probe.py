"""Traced form of one cold CLI invocation, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/probe.py validate counterexample --checker auto
    PYTHONPATH=src python3 perfbench/probe.py --import-only

Times `import numpy`, then `import qturing`, then (for subcommands that
take a machine) `parse_document` on the machine file, then
`qturing.cli.main(argv)` with stdout captured.  Prints one JSON object with
the spans [name, start, end, raised] (perf_counter, which is the
system-wide monotonic clock on Linux, so the parent can place them), the
exit code and the captured stdout.  An import that raises is recorded as a
raised span, and the invocation is then skipped with exit code null.
"""
from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter


def main(argv: list[str]) -> int:
    spans = []

    def timed(name, fn):
        start = perf_counter()
        raised = True
        try:
            result = fn()
            raised = False
            return result
        finally:
            spans.append([name, start, perf_counter(), raised])

    before = len(sys.modules)
    out = {"spans": spans, "code": None, "stdout": ""}
    try:
        timed("import.numpy", lambda: __import__("numpy"))
        timed("import.qturing", lambda: __import__("qturing"))
        imported = True
    except Exception as exc:  # a broken package is reported, not a crash of the probe
        out["error"] = f"{type(exc).__name__}: {exc}"
        imported = False
    out["modules_loaded"] = len(sys.modules) - before
    out["scipy_loaded"] = int("scipy" in sys.modules)
    if imported and argv and argv[0] != "--import-only":
        import qturing
        from qturing import cli

        if argv[0] in ("validate", "run", "norm", "gram"):
            path = Path(argv[1])
            if not path.is_file():
                path = cli.bundled_machine_path(argv[1])
            text = path.read_text(encoding="utf-8")
            timed("machine_io.parse_document", lambda: qturing.parse_document(text))
        captured = io.StringIO()
        with redirect_stdout(captured):
            out["code"] = timed(f"cli.main.{argv[0]}", lambda: cli.main(argv))
        out["stdout"] = captured.getvalue()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
