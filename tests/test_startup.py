"""Start-up stays lean: a default ``dsspy`` process never loads numpy.

numpy backs only the column views of :class:`RuntimeProfile`, the
descriptive statistics and the charts, and each imports it on first
use.  The record and analysis paths never touch it, so a ``dsspy
analyze`` process should not pay for its import (about 100 ms and
17 MB per process).  Likewise ``build_parser()`` imports neither the
profiling service (only ``--version`` reads its format constants) nor
the benchmark module (only ``dsspy bench`` runs it).

pytest itself has numpy loaded, so every check runs in a fresh
interpreter.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.buildinfo import format_build_info

REPO = Path(__file__).resolve().parents[1]
GPDOTNET = REPO / "benchmarks" / "e2e" / "programs" / "gpdotnet.py"

#: The options ``dsspy bench`` took when its declarations moved out of
#: :mod:`repro.bench`.
BENCH_OPTIONS = {
    "-h", "--help", "--events", "--repeats", "-o", "--output", "--json",
    "--input", "--check", "--baseline", "--max-regression",
    "--append-trajectory", "--fleet", "--fleet-producers", "--fleet-events",
    "--fleet-workers", "--fleet-procs", "--fleet-concurrency", "--fleet-curve",
    "--whatif", "--whatif-only", "--whatif-cores", "--whatif-table",
}

#: Prints ``numpy loaded at exit: <bool>`` after everything else,
#: including the exit hooks the profiler registers later.
EXIT_PROBE = """
import atexit, sys
atexit.register(lambda: print("numpy loaded at exit:", "numpy" in sys.modules))
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _python(*argv: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_imports_and_parser_leave_numpy_bench_and_viz_unloaded():
    proc = _python("-c", """
import sys
import repro, repro.cli, repro.service, repro.workloads
repro.cli.build_parser()
print(sorted(m for m in ("numpy", "repro.bench", "repro.viz") if m in sys.modules))
""")
    assert proc.stdout.strip() == "[]"


def test_parser_imports_neither_service_nor_bench():
    proc = _python("-c", """
import sys
import repro.cli
repro.cli.build_parser()
print(sorted(m for m in ("repro.service", "repro.bench") if m in sys.modules))
""")
    assert proc.stdout.strip() == "[]"


def test_default_analyze_never_loads_numpy():
    proc = _python("-c", EXIT_PROBE, "analyze", str(GPDOTNET), "--entry", "main")
    lines = proc.stdout.splitlines()
    assert "5 use cases on 3 of 37 instances" in proc.stdout
    assert lines[-1] == "numpy loaded at exit: False"


@pytest.mark.parametrize(
    "use",
    [
        "assert list(profile.positions) == [-1] + list(range(300)) * 2",
        "from repro.patterns import compute_stats; "
        "assert compute_stats(profile).stride.sequential_share > 0.99",
        "from repro.viz.density import density_grid; "
        "assert int(density_grid(profile).sum()) == 600",
    ],
    ids=["positions", "compute_stats", "density"],
)
def test_numpy_users_load_it_on_demand(use):
    proc = _python("-c", f"""
import sys
from repro import TrackedList, collecting
with collecting() as session:
    xs = TrackedList()
    for i in range(300):
        xs.append(i)
    for i in range(300):
        xs[i]
profile = session.nonempty_profiles()[0]
assert "numpy" not in sys.modules
{use}
print("numpy" in sys.modules)
""")
    assert proc.stdout.strip() == "True"


def test_charts_load_numpy_on_demand(tmp_path):
    program = tmp_path / "fill.py"
    program.write_text(
        "def main():\n"
        "    xs = []\n"
        "    for i in range(300):\n"
        "        xs.append(i)\n"
        "    return sum(xs[i] for i in range(300))\n"
    )
    proc = _python(
        "-c", EXIT_PROBE, "analyze", str(program), "--entry", "main", "--charts"
    )
    assert re.search(r"^--- .+ ---$", proc.stdout, re.M)
    assert proc.stdout.splitlines()[-1] == "numpy loaded at exit: True"


def test_version_prints_build_line_on_stdout():
    proc = _python("-m", "repro.cli", "--version")
    assert proc.stdout == format_build_info() + "\n"
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "argv", [("-m", "repro.cli", "bench"), ("-m", "repro.bench")], ids=["dsspy", "module"]
)
def test_bench_options_unchanged(argv):
    proc = _python(*argv, "--help")
    options = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", proc.stdout))
    assert options == BENCH_OPTIONS
