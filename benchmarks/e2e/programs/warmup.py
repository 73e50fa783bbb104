"""Warm-up program: a few hundred list accesses through ``dsspy analyze``."""


def main():
    values = []
    for i in range(200):
        values.append(i)
    return sum(values[i] for i in range(len(values)))
