"""Shared test utilities, independent of the package internals.

The linear-algebra oracle here is deliberately the textbook Fraction-based
Gauss-Jordan elimination, so it shares no code path with the integer
echelon kernel or the Bareiss routine under test. The Igusa pencil
derivation solves its conditions with the same oracle, on the expanded
``Polynomial`` form rather than the power-sum model.
"""

from fractions import Fraction

from hypothesis import strategies as st

from stabgeom import MatchingLine, PointConfiguration, perfect_matchings
from stabgeom.modhyp import NVARS, Polynomial


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


def matroid_partition(rows, p, q=1):
    """Edmonds' partition of the rows, each taken q times, into p independent sets.

    J. Edmonds, "Minimum partition of a matroid into independent subsets",
    J. Res. NBS 69B (1965). Copies are inserted one at a time; a copy x
    that fits in no set directly goes in along a shortest exchange path
    x -> y1 -> ..., where "y -> z" means y enters z's set and z leaves
    it. Independence is ``gauss_rank`` alone, so this shares nothing with
    the package. Returns ``(parts, None)``, each part a list of row
    indices, or ``(None, violator)`` when some copy cannot go in: the
    reachable copies T then have rank |T ∩ part| in every part, so
    |T| = 1 + p * rank(T), and the points of T satisfy
    q * |violator| > p * rank(violator).
    """

    def independent(copies):
        return gauss_rank([rows[e // q] for e in copies]) == len(copies)

    parts = [[] for _ in range(p)]
    home = {}
    for x in range(len(rows) * q):
        came_from = {x: None}
        queue = [x]
        sink = None
        for y in queue:  # breadth first: the queue grows while it is read
            for j, part in enumerate(parts):
                if home.get(y) == j:
                    continue
                if independent(part + [y]):
                    sink = (y, j)
                    break
                for z in part:
                    if z not in came_from and independent([w for w in part if w != z] + [y]):
                        came_from[z] = y
                        queue.append(z)
            if sink:
                break
        if sink is None:
            return None, sorted({e // q for e in came_from})
        y, j = sink
        while y is not None:  # y enters part j, leaving its own part to the copy before it
            old = home.get(y)
            if old is not None:
                parts[old].remove(y)
            parts[j].append(y)
            home[y] = j
            y, j = came_from[y], old
    return [sorted(e // q for e in part) for part in parts], None


# Distinct parameter ratios (t : u); five of them decide any identity of
# degree at most four along a parametrized line.
_LINE_PARAMS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1))


def expanded(model):
    """The model's power-sum form expanded into a ``Polynomial`` in the six coordinates."""
    out = Polynomial()
    for parts, coeff in model.terms:
        term = Polynomial({(0,) * NVARS: coeff})
        for k in parts:
            term = term * Polynomial.power_sum(k)
        out = out + term
    return out


def pencil_member():
    """The member a*(sum x^2)^2 + b*sum(x^4) singular along all matching lines.

    Solves the linear conditions imposed by the line points on (a, b) with
    ``rref``; a one-dimensional solution space pins the member down up to
    scale, taken here with its first nonzero coefficient 1. This
    derivation works on the expanded ``Polynomial`` form only, so it is an
    independent check of the power-sum model ``igusa_quartic``.
    """
    q1 = Polynomial.power_sum(2) ** 2
    q2 = Polynomial.power_sum(4)
    constraints = []
    for matching in perfect_matchings():
        line = MatchingLine(matching)
        for t, u in _LINE_PARAMS:
            coords = line.coords_at(t, u)
            constraints.append([q1.evaluate(coords), q2.evaluate(coords)])
            g1 = q1.gradient(coords)
            g2 = q2.gradient(coords)
            for i in range(1, NVARS):
                constraints.append([g1[i] - g1[0], g2[i] - g2[0]])
    rows, pivots = rref(constraints)
    assert len(pivots) == 1, "no unique pencil member is singular along the matching lines"
    # the kernel vector: 1 in the free column, minus the RREF entry there in the pivot column
    v = [Fraction(1), Fraction(1)]
    v[pivots[0]] = -rows[0][1 - pivots[0]]
    lead = next(x for x in v if x)
    a, b = (x / lead for x in v)
    return a * q1 + b * q2


def scan_walls(r, d, k, d_max, k_max):
    """Every positive wall by the full scan: all s, k' and d' in range, Fractions throughout.

    The reference for ``critical_values``, which visits only the d' that
    give a positive wall.
    """
    full_ratio = Fraction(k, r)
    full_slope0 = Fraction(d, r)
    found = set()
    for s in range(1, r):
        for kp in range(0, k_max + 1):
            ratio = Fraction(kp, s)
            if ratio == full_ratio:
                continue
            denom = ratio - full_ratio
            for dp in range(0, d_max + 1):
                alpha = (full_slope0 - Fraction(dp, s)) / denom
                if alpha > 0:
                    found.add(alpha)
    return found


def sign_paired_by_matching(coords) -> bool:
    """Whether some perfect matching pairs the coordinates up to sign.

    The definition itself, one matching at a time: the reference for the
    sorted-absolute-value test in ``modhyp._sign_paired``.
    """
    return any(
        all(coords[a] ** 2 == coords[b] ** 2 for a, b in matching)
        for matching in perfect_matchings()
    )


def config_of(*rows) -> PointConfiguration:
    return PointConfiguration.from_rows(list(rows))


@st.composite
def degenerate_configurations(draw, min_rank=1, max_rank=5, max_points=9):
    """Up to max_points points of P^(r-1), min_rank <= r <= max_rank, with
    forced repeats and collinear points.

    Points forced collinear are integer combinations of two earlier points.
    """
    r = draw(st.integers(min_value=min_rank, max_value=max_rank))
    n = draw(st.integers(min_value=1, max_value=max_points))
    small = st.integers(min_value=-3, max_value=3)
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(("random", "repeat", "collinear")))
        if kind == "repeat" and rows:
            row = draw(st.sampled_from(rows))
        elif kind == "collinear" and len(rows) >= 2:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(small), draw(small)
            row = [s * x + t * y for x, y in zip(a, b)]
        else:
            row = draw(st.lists(small, min_size=r, max_size=r))
        rows.append(row if any(row) else [1] + [0] * (r - 1))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        rows = [rows[0]] * n  # all points equal
    return config_of(*rows)


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
