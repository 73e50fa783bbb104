"""Allocation churn: many short-lived lists, a few with a long insert phase.

The benchmark writes a copy of this file with ``PLAN`` filled in from its
seed.  Steps are separated by ``;``: ``P<n>`` appends ``n`` values to a
fresh list and then scans it (a planted Long-Insert), ``S<n>:<i> <j> ...``
appends ``n`` values to a fresh list and reads the listed positions.
``python alloc_churn.py --plain`` runs it uninstrumented and prints its
run time.
"""

import sys
import time

PLAN = ""


def main():
    total = 0
    for step in PLAN.split(";") if PLAN else ():
        if step[0] == "P":
            planted = []
            for value in range(int(step[1:])):
                planted.append(value)
            for value in planted:
                total += value
        else:
            count, reads = step[1:].split(":")
            xs = []
            for value in range(int(count)):
                xs.append(value)
            for position in reads.split():
                total += xs[int(position)]
    return total


if __name__ == "__main__" and sys.argv[1:] == ["--plain"]:
    start = time.perf_counter()
    main()
    print(f"plain_s={time.perf_counter() - start:.6f}")
