"""Table V program Algorithmia at scale 1.0.

``dsspy analyze algorithmia.py --entry main`` profiles it; ``python algorithmia.py
--plain`` runs it on native containers and prints how long the run took:
the uninstrumented baseline.
"""

import sys
import time

from repro.workloads import PLAIN, TRACKED, Algorithmia


def main():
    return Algorithmia().run(TRACKED, scale=1.0)


if __name__ == "__main__" and sys.argv[1:] == ["--plain"]:
    start = time.perf_counter()
    Algorithmia().run(PLAIN, scale=1.0)
    print(f"plain_s={time.perf_counter() - start:.6f}")
