"""Shared test utilities, independent of the package internals.

The linear-algebra oracle here is deliberately the textbook Fraction-based
Gauss-Jordan elimination, so it shares no code path with the integer
echelon kernel or the Bareiss routine under test.
"""

from fractions import Fraction

from stabgeom import PointConfiguration


def rref(matrix):
    """Reduced row echelon form over Q: (nonzero rows, pivot column indices)."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return [], []
    width = len(rows[0])
    pivots = []
    for col in range(width):
        rk = len(pivots)
        piv = next((i for i in range(rk, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        pivot = rows[rk][col]
        rows[rk] = [x / pivot for x in rows[rk]]
        for i in range(len(rows)):
            if i != rk and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def gauss_rank(matrix) -> int:
    return len(rref(matrix)[1])


def config_of(*rows) -> PointConfiguration:
    return PointConfiguration.from_rows(list(rows))


def triple_point_config() -> PointConfiguration:
    """Three coincident points plus a generic triangle in the plane."""
    return config_of(
        (1, 0, 0), (1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)
    )


def standard_six_config() -> PointConfiguration:
    """The reference frame plus (1,2,3) and (1,4,9); not on any conic."""
    return config_of(
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 4, 9)
    )


def collinear_target_six_config():
    """Six points in the plane, the first five in general position, 1, 3, 5 collinear.

    Gale duality makes the complementary points 0, 2, 4 of the transform
    collinear, so the target's frame is degenerate.
    """
    return config_of(
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 2, 1)
    )
