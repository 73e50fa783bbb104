"""Benchmark entry point named in ``BENCHMARK.json``.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

is ``python -m benchmarks.e2e run`` with the same arguments, runnable
from the root of a checkout without setting ``PYTHONPATH``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[0] = str(ROOT)  # import this directory as the benchmarks.e2e package

from benchmarks.e2e.__main__ import main  # noqa: E402

sys.exit(main(["run", *sys.argv[1:]]))
