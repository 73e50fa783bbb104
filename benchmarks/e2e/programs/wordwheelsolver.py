"""Table V program WordWheelSolver at scale 1.0.

``dsspy analyze wordwheelsolver.py --entry main`` profiles it; ``python wordwheelsolver.py
--plain`` runs it on native containers and prints how long the run took:
the uninstrumented baseline.
"""

import sys
import time

from repro.workloads import PLAIN, TRACKED, WordWheelSolver


def main():
    return WordWheelSolver().run(TRACKED, scale=1.0)


if __name__ == "__main__" and sys.argv[1:] == ["--plain"]:
    start = time.perf_counter()
    WordWheelSolver().run(PLAIN, scale=1.0)
    print(f"plain_s={time.perf_counter() - start:.6f}")
