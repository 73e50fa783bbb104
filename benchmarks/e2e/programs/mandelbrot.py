"""Table V program Mandelbrot at scale 1.0.

``dsspy analyze mandelbrot.py --entry main`` profiles it; ``python mandelbrot.py
--plain`` runs it on native containers and prints how long the run took:
the uninstrumented baseline.
"""

import sys
import time

from repro.workloads import PLAIN, TRACKED, Mandelbrot


def main():
    return Mandelbrot().run(TRACKED, scale=1.0)


if __name__ == "__main__" and sys.argv[1:] == ["--plain"]:
    start = time.perf_counter()
    Mandelbrot().run(PLAIN, scale=1.0)
    print(f"plain_s={time.perf_counter() - start:.6f}")
