"""Fixed pure-Python work that does not use linesurf, timed to gauge the
machine's current speed.

    python3 perfbench/reference.py

worker.py times ``eliminate`` in its own process between operations.  Run
as a script, this file stands in for one `linesurf` call: a fresh
interpreter that imports the standard-library modules the CLI imports and
then runs a larger elimination.  worker.py times that whole process between
the calls of the cli workload.
"""

from fractions import Fraction

SCRIPT_N = 30


def matrix(n: int) -> list[list[Fraction]]:
    """A fixed, diagonally dominant n x n matrix of Fractions."""
    return [[Fraction(-3 * n if i == j else (i * j + 1) % 3 - 1) for j in range(n)]
            for i in range(n)]


def eliminate(m: list[list[Fraction]]) -> None:
    """Gaussian elimination of m in place."""
    n = len(m)
    for k in range(n):
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]


if __name__ == "__main__":
    import argparse  # noqa: F401  the modules a linesurf call imports
    import dataclasses  # noqa: F401
    import json  # noqa: F401

    eliminate(matrix(SCRIPT_N))
