"""``python -m benchmarks.e2e`` -- run, compare, and ledger the benchmark.

    python -m benchmarks.e2e run --seed N [--workload W ...] [--trace] [-o out.json]
    python -m benchmarks.e2e run --diagnose shm
    python -m benchmarks.e2e compare --parent P.json ... --change C.json ...
    python -m benchmarks.e2e ledger --untraced DIR_A DIR_B --traced DIR_T --commit C ...

``run`` prints every metric by name with its unit, then, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json`` on an
untraced run, its ``per_layer`` metrics on a traced one.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = ROOT / "BENCHMARK.json"


def _require_source() -> None:
    """Make the system under test importable, and build it: compile its
    bytecode, as installing it would.  Without this, a checkout run with
    ``PYTHONDONTWRITEBYTECODE`` set would compile the whole package from
    source in every process it starts."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmark: no src/repro under {ROOT}; run it from a checkout of the repository")
    if not compileall.compile_dir(src, quiet=1):
        sys.exit(f"benchmark: {src} does not compile")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def final_line(results: list, trace: bool, bench: dict) -> dict:
    """The summary line: declared metrics only, ``{value, unit}``.
    A declared end-to-end metric a workload failed to produce fails the
    run; a per-layer metric a workload never exercises reads 0."""
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result.workload}/"
        for entry in declared:
            name, unit = entry["name"], entry["unit"]
            measured = result.metrics.get(name)
            if measured is not None and measured["unit"] != unit:
                raise ValueError(f"{name}: measured in {measured['unit']}, declared in {unit}")
            if measured is None and not trace:
                result.operation([f"{name} was not measured"], "metrics")
            value = measured["value"] if measured is not None else 0.0
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {
        "correct": all(r.correct for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }


def cmd_run(args: argparse.Namespace) -> int:
    _require_source()
    from . import workloads

    # SIGTERM unwinds like an error, so every child started is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    trace = args.trace == "1"
    work_root = ROOT / ".bench_work"

    def context(name: str) -> workloads.Context:
        work = work_root / f"{name}-{os.getpid()}-{time.monotonic_ns()}"
        return workloads.Context(args.seed, seconds, trace, args.smoke, work)

    if args.diagnose:
        work = context("diagnose-shm")
        work.work.mkdir(parents=True)
        try:
            report = workloads.diagnose_shm(work)
        finally:
            shutil.rmtree(work.work, ignore_errors=True)
        by_program = Counter(report["differing"])
        print(
            f"shm diagnostic: {len(report['differing'])} of {report['sessions']} sessions "
            "reported differently from the local report "
            f"({', '.join(f'{k} x{v}' for k, v in sorted(by_program.items())) or 'none'}); "
            f"{report['received_mismatches']} with a received-count mismatch"
        )
        return 0

    results = []
    for name in args.workload or workloads.WORKLOADS:
        try:
            result = workloads.run_workload(name, context(name))
        except workloads.SetupError as exc:
            result = workloads.Result(name, args.seed, seconds, trace)
            result.operation([str(exc)], "set-up")
        if result.attempted:
            result.add("error_rate", result.failed / result.attempted, result.attempted)
        results.append(result)
        for metric, entry in sorted(result.metrics.items()):
            print(
                f"{name:15s} {metric:28s} {entry['value']:14.6g} {entry['unit']:6s} "
                f"(n={entry['samples']})"
            )
        for failure in result.failures:
            print(f"{name:15s} FAILED {failure}")
    summary = final_line(results, trace, bench)
    if args.output:
        Path(args.output).write_text(
            json.dumps([r.to_json() for r in results], indent=1) + "\n", encoding="utf-8"
        )
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def cmd_compare(args: argparse.Namespace) -> int:
    from .compare import compare

    lines, ok = compare(args.parent, args.change, load_benchmark())
    print("\n".join(lines))
    return 0 if ok else 1


def cmd_ledger(args: argparse.Namespace) -> int:
    from .ledger import write_ledger

    write_ledger(
        args.untraced, args.traced, load_benchmark(), args.output, args.trajectory, args.commit
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.split("\n")[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", action="append", choices=(
        "table5-local", "table5-remote", "alloc-churn", "fleet-sessions"
    ), help="workload to run (repeatable; default: all four)")
    run.add_argument("--seed", type=int, default=1, help="seed every input is drawn from")
    run.add_argument("--seconds", type=float, default=None, help="measuring time per workload "
                     "(default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", nargs="?", const="1", default="0", choices=("0", "1"),
                     help="traced run: per-layer metrics instead of end-to-end ones")
    run.add_argument("--smoke", action="store_true", help="tiny inputs, one pass, one set-up")
    run.add_argument("--diagnose", choices=("shm",), help="run a diagnostic instead of workloads")
    run.add_argument("-o", "--output", help="write every result, with samples, to this JSON file")
    run.set_defaults(fn=cmd_run)

    compare = sub.add_parser("compare", help="verdict per workload and metric between two commits")
    compare.add_argument("--parent", nargs="+", required=True, help="run -o files of the parent")
    compare.add_argument("--change", nargs="+", required=True, help="run -o files of the change")
    compare.set_defaults(fn=cmd_compare)

    ledger = sub.add_parser("ledger", help="render LEDGER.md and extend trajectory.csv")
    ledger.add_argument("--untraced", nargs="+", required=True,
                        help="directories of untraced run -o files, one per set of runs")
    ledger.add_argument("--traced", nargs="+", required=True,
                        help="directories of traced run -o files")
    ledger.add_argument("--commit", required=True, help="commit the runs measured")
    ledger.add_argument("-o", "--output", required=True, help="LEDGER.md to write")
    ledger.add_argument("--trajectory", required=True, help="trajectory.csv to append to")
    ledger.set_defaults(fn=cmd_ledger)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
