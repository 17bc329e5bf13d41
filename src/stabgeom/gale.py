"""The Gale transform of point configurations and self-association.

For gamma points spanning P^r with gamma = r + s + 2, the transform
produces gamma points in P^s whose coordinate matrix G' satisfies
G^T D G' = 0 for a nonsingular diagonal D. The kernel of G^T is computed
exactly by fraction-free integer elimination; target rows are stored in
canonical primitive form and D absorbs the per-row scaling, so the stored
matrices satisfy the identity as is. The identity is checked in integers,
with D cleared of its denominators once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product, starmap
from operator import mul
from typing import Iterable

from .errors import DegenerateConfigurationError, RowEliminationError
from .exactgeom import (
    _INT,
    PointConfiguration,
    ProjectivePoint,
    ScalarLike,
    _clear_row_to_ints,
    _entries,
    kernel_basis,
    parse_scalar,
    projectively_equivalent,
    rank,
)


@dataclass(frozen=True, init=False)
class GaleData:
    """Source and target configurations with the diagonal witness.

    Invariants checked at construction: gamma = r + s + 2 in projective
    dimensions, every diag entry nonzero, and G^T D G' = 0 exactly for
    the stored coordinate matrices.
    """

    source: PointConfiguration
    target: PointConfiguration
    diag: tuple[Fraction, ...]

    def __init__(
        self,
        source: PointConfiguration,
        target: PointConfiguration,
        diag: Iterable[ScalarLike],
    ):
        gamma = len(source)
        values = _entries(diag, "diag")
        if set(map(type, values)) <= _INT:
            # ints, as gale_transform records D, need no parse and no clearing
            d_int, d = values, tuple(map(Fraction, values))
        else:
            # D times the lcm of its denominators is integral with the same zero product
            d_int = _clear_row_to_ints(values)
            d = tuple(map(parse_scalar, values))
        if len(target) != gamma or len(d) != gamma:
            raise ValueError("source, target and diag must have equal length")
        if source.ambient_rank + target.ambient_rank != gamma:
            raise ValueError(
                "gamma must equal r + s + 2 for projective dimensions r, s"
            )
        if not all(d_int):
            raise ValueError("diag entries must be nonzero")
        gtd = [list(map(mul, g_col, d_int)) for g_col in zip(*source.rows())]
        # entry (a, b) is the dot product of row a of G^T D with column b of G'
        products = starmap(partial(map, mul), product(gtd, zip(*target.rows())))
        if any(map(sum, products)):
            raise ValueError("G^T D G' = 0 fails for the given data")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "diag", d)

    def self_associated(self) -> bool:
        """Whether the source is projectively equivalent to this transform."""
        # unless n = 2r the transform lives in a different ambient space
        if self.target.ambient_rank != self.source.ambient_rank:
            return False
        return projectively_equivalent(self.source, self.target) is not None

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json_dict(),
            "target": self.target.to_json_dict(),
            "diag": [
                f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)
                for q in self.diag
            ],
        }


def gale_transform(config: PointConfiguration) -> GaleData:
    """Gale transform of gamma >= r + 3 points spanning P^r, r = ambient_rank - 1.

    The target coordinate matrix is a kernel basis of G^T arranged as
    columns. A zero row means the other gamma - 1 points lie on a
    hyperplane; it stays zero under every change of kernel basis, so the
    transform is undefined.
    """
    gamma = len(config)
    big_r = config.ambient_rank
    if gamma < big_r + 2:
        raise ValueError(f"need at least ambient_rank + 2 = {big_r + 2} points, got {gamma}")
    kernel = kernel_basis(list(zip(*config.rows())))
    # rank(G) = gamma - dim ker(G^T)
    if len(kernel) > gamma - big_r:
        raise DegenerateConfigurationError(
            "configuration does not span its ambient space"
        )
    gp_rows = list(zip(*kernel))
    if not all(map(any, gp_rows)):
        raise RowEliminationError(
            "no kernel basis with all rows nonzero: some gamma - 1 points "
            "lie on a hyperplane"
        )
    # zero rows were refused above
    points = list(map(ProjectivePoint._of, gp_rows))
    # raw row = D_i * canonical row, so D_i is the quotient of their first
    # nonzero entries, and it restores G^T D G' = 0
    diag = [
        next(filter(None, row)) // next(filter(None, point.coords))
        for row, point in zip(gp_rows, points)
    ]
    target = PointConfiguration(gamma - big_r, points)
    return GaleData(source=config, target=target, diag=diag)


def is_self_associated(config: PointConfiguration) -> bool:
    """Whether the configuration is projectively equivalent to its Gale transform."""
    return gale_transform(config).self_associated()


_CONIC_MONOMIALS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))


def on_smooth_conic(config: PointConfiguration) -> bool:
    """Whether six points of P^2 lie on a single smooth conic.

    The 6x6 matrix of conic monomials has a one-dimensional kernel exactly
    when the conic through the points is unique; smoothness is the
    invertibility of its symmetric matrix. A kernel of dimension two or
    more forces every conic through the points to share a line, so no
    smooth one exists.
    """
    if config.ambient_rank != 3:
        raise ValueError("conic test requires ambient rank 3")
    if len(config) != 6:
        raise ValueError("conic test requires exactly six points")
    rows = []
    for p in config.points:
        x, y, z = p.coords
        rows.append([x * x, y * y, z * z, x * y, x * z, y * z])
    kernel = kernel_basis(rows)
    if len(kernel) != 1:
        return False
    a, b, c, d, e, f = kernel[0]
    # doubled symmetric matrix of the conic keeps everything integral
    m = [[2 * a, d, e], [d, 2 * b, f], [e, f, 2 * c]]
    return rank(m) == 3


def conic_parameter_points(params: list) -> PointConfiguration:
    """Points [t : t^2 : 1] on the smooth conic y*z = x^2, one per parameter."""
    values = [parse_scalar(t) for t in _entries(params, "the parameters")]
    if len(set(values)) != len(values):
        raise ValueError("parameters must be pairwise distinct")
    return PointConfiguration(3, [ProjectivePoint([t, t * t, 1]) for t in values])
