"""How fast the shared host runs right now, from a fixed reference unit.

The machine the benchmark runs on shares its cores with other tenants,
and its speed swings by up to 2x within minutes. The reference unit is a
fixed piece of pure-Python exact arithmetic, the kind of work stabgeom's
hot paths do, that calls nothing in stabgeom. Timing it next to every
operation tells how fast the host ran at that moment, so each timing
can be scaled to a host of fixed speed. A change to the program moves
the scaled numbers exactly as it moves the raw ones; a change in the
host's speed moves both the operation and the unit, and cancels.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Full rank over Q, so the reduction does the same work every time.
REFERENCE_MATRIX = tuple(tuple((5 * i * i + 3 * j + i * j * j) % 17 - 8 for j in range(7)) for i in range(7))
# The nominal host: one on which a reference unit takes this long.
NOMINAL_UNIT_S = 0.0015


def reference_unit() -> float:
    """Seconds taken by one Fraction row reduction of REFERENCE_MATRIX."""
    start = perf_counter()
    m = [[Fraction(x) for x in row] for row in REFERENCE_MATRIX]
    n = len(m)
    for col in range(n):
        pivot = next(i for i in range(col, n) if m[i][col])
        m[col], m[pivot] = m[pivot], m[col]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col] / m[col][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from the host's speed around a timing (units before and after it) to the nominal host."""
    return NOMINAL_UNIT_S / ((before + after) / 2)
