"""qturing benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload validate --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the repository root; the package is imported from `src/`.  With
`--trace 0` the run prints the end-to-end metrics, with `--trace 1` the
per-layer metrics and the tracing overhead.  End-to-end times are scaled to
the speed of a reference job read before and after every op and set-up
(see passes.py); the unscaled times are printed beside them.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The full
result, with the run record (and the spans, when traced), is written to
`.perfbench_out/`.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

from cli_workload import CliRun, record_imports
from passes import mark, measure, scaled_interval
from tracing import PER_LAYER_METRICS, Tracer, layer_metrics, spans_json

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli", "validate", "evolve", "gram")
SETUP_TRIALS = 2
INTERPRETER_PROBES = 5
IMPORT_PROBES = 5
# Per-layer metrics every workload takes from fresh interpreters outside its ops.
PROBED_METRICS = ("import.numpy_ms", "import.qturing_ms", "import.modules_loaded",
                  "import.scipy_loaded", "import.errors", "cli.interpreter_ms")

# The tail percentile of each workload over its per-op latencies: the
# highest one with at least ten ops beyond it (validate has 105 ops, evolve
# 82, gram 101).  The cli mix has only 10 commands, so no percentile has ten
# beyond; its tail is the slowest command.
TAIL_PERCENTILE = {"cli": 100.0, "validate": 90.0, "evolve": 85.0, "gram": 90.0}

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return None


def git_revision(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(root: Path, seed: int) -> dict:
    """What a result must carry so numbers from different machines or
    versions are never compared silently."""
    cpuinfo = _read("/proc/cpuinfo") or ""
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
              if line.startswith("model name")]

    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_revision": git_revision(root),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": models[0] if models else platform.processor() or None,
        "loadavg_start": (_read("/proc/loadavg") or "").strip() or None,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def spawn_json(argv: list[str], root: Path, env: dict) -> dict:
    """Run a child interpreter and parse the JSON object on its last stdout line."""
    proc = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.PIPE, check=False)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv[1:3])} exited {proc.returncode}")
    return json.loads(lines[-1])


def environment_probes(root: Path, env: dict) -> dict[str, float]:
    """The interpreter floor (`python -c pass`) and the import spans of
    fresh interpreters, as per-layer metrics.  A probe that fails counts in
    `import.errors`."""
    tracer = Tracer()
    for _ in range(INTERPRETER_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True)
        tracer.add_span("cli.interpreter", start, perf_counter())
    for _ in range(IMPORT_PROBES):
        try:
            out = spawn_json([sys.executable, str(HERE / "probe.py"), "--import-only"], root, env)
        except (RuntimeError, ValueError) as err:
            print(f"import probe failed: {err}", file=sys.stderr)
            tracer.count("import.errors")
            continue
        for name, start, end, raised in out["spans"]:
            tracer.add_span(name, start, end, raised)
        record_imports(tracer, out)
    metrics = layer_metrics(tracer, 0)
    return {name: metrics[name] for name in PROBED_METRICS}


def run_inprocess(workload: str, root: Path, env: dict, seed: int, seconds: float, trace: bool) -> dict:
    """SETUP_TRIALS fresh workers: all but the last stop once set up; the
    last also runs the timed passes.  Set-up time runs from spawning the
    worker to the moment its first timed op could start, scaled to
    the reference host stretch by stretch: from a reading before the spawn to
    the worker's readings after its imports, its inputs and each warm-up op."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    setups = []
    for trial in range(1 if trace else SETUP_TRIALS):
        last = trial == (0 if trace else SETUP_TRIALS - 1)
        first = mark()
        out = spawn_json(argv if last else argv + ["--setup-only"], root, env)
        setups.append(scaled_interval([first] + out.pop("marks")))
    out["setups"] = setups
    return out


def run_cli(root: Path, env: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Set up (seeded files and warm-up invocations) SETUP_TRIALS times,
    then the timed passes over the commands."""
    cli = CliRun(root, env, seed)
    try:
        setups = [scaled_interval(cli.set_up()) for _ in range(1 if trace else SETUP_TRIALS)]
        out = measure(cli.workload(HERE / "probe.py"), seed, seconds, trace)
    finally:
        cli.clean_up()
    if trace:
        out["spans"] = spans_json(out.pop("tracer"))
    out["setups"] = setups
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return out


def time_metrics(op_ms: list[float], setups: list[float], tail_p: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": 1e3 * len(op_ms) / sum(op_ms),
        "op_p50_ms": percentile(op_ms, 50.0),
        "op_tail_ms": percentile(op_ms, tail_p),
    }


def run_workload(workload: str, root: Path, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env(root)
    if workload == "cli":
        out = run_cli(root, env, seed, seconds, trace)
    else:
        out = run_inprocess(workload, root, env, seed, seconds, trace)
    tail_p = TAIL_PERCENTILE[workload]
    out["end_to_end"] = dict(
        time_metrics(out["op_ms"], [scaled for _, scaled in out["setups"]], tail_p),
        peak_rss_mb=out["peak_rss_mib"],
        error_rate=out["failed"] / out["attempted"],
    )
    out["unscaled"] = time_metrics(out["raw_op_ms"], [raw for raw, _ in out["setups"]], tail_p)
    tail = out["end_to_end"]["op_tail_ms"]
    out["tail"] = {"percentile": tail_p, "n": len(out["op_ms"]),
                   "beyond": sum(x > tail for x in out["op_ms"])}
    if trace:
        probed = environment_probes(root, env)
        probed["import.errors"] += out["layer_metrics"]["import.errors"]
        out["layer_metrics"].update(probed)
    return out


def summary_lines(workload: str, out: dict, trace: bool) -> list[str]:
    e2e = out["end_to_end"]
    tail = out["tail"]
    lines = [f"workload {workload}: {out['attempted']} ops attempted, {out['failed']} failed, "
             f"{out['passes']} passes of {out['ops_per_pass']} ops"]
    if not trace:
        units = dict(END_TO_END, error_rate="ratio")
        for name, value in e2e.items():
            note = ""
            if name == "op_tail_ms":
                note = f"  (p{tail['percentile']:g} of n={tail['n']} ops, {tail['beyond']} beyond)"
            elif name == "setup_s":
                note = f"  (median of {len(out['setups'])} set-ups)"
            lines.append(f"  {name:<16} {value:14.6g} {units[name]}{note}")
        raw = ", ".join(f"{name} {value:.6g}" for name, value in out["unscaled"].items())
        lines.append(f"  times above are scaled to the reference host; unscaled: {raw}")
    else:
        units = dict(PER_LAYER_METRICS)
        for name, value in out["layer_metrics"].items():
            lines.append(f"  {name:<40} {value:14.6g} {units[name]}")
        lines.append("  no layer queues or waits: the package is single-threaded and "
                     "synchronous, so no wait-time metrics are reported")
    for message in out["messages"]:
        lines.append(f"  FAILED {message}")
    return lines


def result_line(out: dict, trace: bool) -> dict:
    if trace:
        units = dict(PER_LAYER_METRICS)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in out["layer_metrics"].items()}
    else:
        metrics = {name: {"value": out["end_to_end"][name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def write_result(root: Path, name: str, payload: dict):
    directory = root / ".perfbench_out"
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qturing" / "__init__.py").is_file():
        print("error: run from the repository root; src/qturing is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(root, args)

    trace = bool(args.trace)
    record = run_record(root, args.seed)
    try:
        out = run_workload(args.workload, root, args.seed, args.seconds, trace)
    except (RuntimeError, OSError, ValueError, subprocess.CalledProcessError) as err:
        print(f"error: {args.workload} run failed: {err}", file=sys.stderr)
        return 1
    record["loadavg_end"] = (_read("/proc/loadavg") or "").strip() or None
    print("run record: " + json.dumps(record, sort_keys=True))
    for line in summary_lines(args.workload, out, trace):
        print(line)
    result = result_line(out, trace)
    write_result(root, f"{args.workload}-seed{args.seed}-trace{int(trace)}.json",
                 {"record": record, "result": result, "run": out})
    print(json.dumps(result))
    return 0


def run_all(root: Path, args) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
