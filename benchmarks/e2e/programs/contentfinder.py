"""Table V program Contentfinder at scale 1.0.

``dsspy analyze contentfinder.py --entry main`` profiles it; ``python contentfinder.py
--plain`` runs it on native containers and prints how long the run took:
the uninstrumented baseline.
"""

import sys
import time

from repro.workloads import PLAIN, TRACKED, Contentfinder


def main():
    return Contentfinder().run(TRACKED, scale=1.0)


if __name__ == "__main__" and sys.argv[1:] == ["--plain"]:
    start = time.perf_counter()
    Contentfinder().run(PLAIN, scale=1.0)
    print(f"plain_s={time.perf_counter() - start:.6f}")
