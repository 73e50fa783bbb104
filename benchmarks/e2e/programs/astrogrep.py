"""Table V program AstroGrep at scale 1.0.

``dsspy analyze astrogrep.py --entry main`` profiles it; ``python astrogrep.py
--plain`` runs it on native containers and prints how long the run took:
the uninstrumented baseline.
"""

import sys
import time

from repro.workloads import PLAIN, TRACKED, AstroGrep


def main():
    return AstroGrep().run(TRACKED, scale=1.0)


if __name__ == "__main__" and sys.argv[1:] == ["--plain"]:
    start = time.perf_counter()
    AstroGrep().run(PLAIN, scale=1.0)
    print(f"plain_s={time.perf_counter() - start:.6f}")
