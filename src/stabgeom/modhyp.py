"""The symmetric cubic and quartic threefolds in the sum-zero hyperplane.

Both hypersurfaces live in P^4 realized as the hyperplane sum(x) = 0
inside P^5 with six permutable coordinates. A point of the hyperplane
section is singular when the full gradient is a scalar multiple of
(1, ..., 1), the hyperplane's normal. All evaluation is exact.

A model is an integer combination of products of the power sums
p_k = sum(x_i^k): the cubic is p3 and the quartic p2^2 - 4*p4 (Hunt,
LNM 1637; Dolgachev-Ortland, Asterisque 165). Values, gradients (chain
rule, dp_k/dx_i = k*x_i^(k-1)) and Hessians come from the power sums of
the points, in integers for integer points. The kernel reads a batch of
points as columns, each step one ``map`` over the batch: one power pass
per batch serves the values, gradients, singularity tests, restricted
Hessian ranks and polar images. Each check tables its points in a few
batches and asks no per-point method, which is a batch of one.
``Polynomial`` is the expanded reference form that the tests cross-check
against. Each model is built once per public call, never inside a loop.

Models and the lists of nodes, lines and points are built without
checking themselves. Their facts (ten nodes of Hessian rank 4, fifteen
singular lines, fifteen singular points) are checked once, in
``verify.check_segre_nodes`` and ``verify.check_igusa``, so a wrong model
is reported there rather than raised here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress, repeat
from operator import add, mul, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import SchemaError, SingularPointError
from .exactgeom import (
    ProjectivePoint,
    ScalarLike,
    _check_int,
    _entries,
    _rank_ints,
    _shown,
    parse_scalar,
)
from .randconf import _randints

NVARS = 6
# the most points one power table holds, so memory does not grow with a sample count
_BATCH = 4096

Exponents = tuple[int, ...]


class Polynomial:
    """Sparse polynomial in six variables with exact rational coefficients."""

    __slots__ = ("terms", "_partials")

    def __init__(self, terms: dict[Exponents, ScalarLike] | None = None):
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(exps)
            if len(key) != NVARS or any(e < 0 for e in key):
                raise ValueError(f"bad exponent tuple {_shown(exps)}")
            c = Fraction(coeff)
            if c:
                clean[key] = c
        self.terms = clean
        self._partials: tuple["Polynomial", ...] | None = None

    @classmethod
    def power_sum(cls, k: int) -> "Polynomial":
        """sum(x_i^k) over the six coordinates."""
        terms: dict[Exponents, Fraction] = {}
        for i in range(NVARS):
            exps = [0] * NVARS
            exps[i] = k
            terms[tuple(exps)] = Fraction(1)
        return cls(terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + coeff
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out: dict[Exponents, Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    out[key] = out.get(key, Fraction(0)) + c1 * c2
            return Polynomial(out)
        scale = Fraction(other)
        return Polynomial({e: c * scale for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial({(0,) * NVARS: Fraction(1)})
        for _ in range(n):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def evaluate(self, coords: Sequence[ScalarLike]):
        if len(coords) != NVARS:
            raise ValueError(f"need {NVARS} coordinates")
        vals = [c if type(c) is int else parse_scalar(c) for c in coords]
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, exps):
                if e:
                    term *= v**e
            total += term
        return total

    def partial(self, i: int) -> "Polynomial":
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e:
                key = exps[:i] + (e - 1,) + exps[i + 1 :]
                out[key] = out.get(key, Fraction(0)) + coeff * e
        return Polynomial(out)

    def partials(self) -> tuple["Polynomial", ...]:
        if self._partials is None:
            self._partials = tuple(self.partial(i) for i in range(NVARS))
        return self._partials

    def gradient(self, coords: Sequence[ScalarLike]) -> tuple:
        return tuple(p.evaluate(coords) for p in self.partials())

    def permuted(self, perm: Sequence[int]) -> "Polynomial":
        """Image under x_i -> x_perm[i]."""
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            key = [0] * NVARS
            for i, e in enumerate(exps):
                key[perm[i]] = e
            out[tuple(key)] = out.get(tuple(key), Fraction(0)) + coeff
        return Polynomial(out)

    def __repr__(self) -> str:
        return f"Polynomial({self.terms!r})"


Partition = tuple[int, ...]


def _at(terms: Iterable[tuple[Partition, int]], p: Mapping[int, list]) -> list:
    """The combination sum(c * p[k1] * p[k2] * ...) at each point of a batch with power sums p."""
    total = [0] * len(p[0])
    for parts, c in terms:
        # map(add, ...) stops with total, so repeat(c) is bounded for parts ()
        total = list(map(add, total, map(math.prod, zip(repeat(c), *map(p.__getitem__, parts)))))
    return total


def _d_dp(terms: Iterable[tuple[Partition, int]], k: int) -> list[tuple[Partition, int]]:
    """The derivative of a power-sum combination with respect to p_k."""
    out = []
    for parts, c in terms:
        if k in parts:
            i = parts.index(k)
            out.append((parts[:i] + parts[i + 1 :], c * parts.count(k)))
    return out


@dataclass(frozen=True, init=False)
class SymmetricHypersurfaceModel:
    """A symmetric hypersurface of the sum-zero hyperplane in six coordinates.

    The form is an integer combination of products of the power sums
    p_k = sum(x_i^k), keyed by partition: {(3,): 1} is p3 and
    {(2, 2): 1, (4,): -4} is p2^2 - 4*p4. Symmetry therefore holds by
    construction. Parts run from two to six: p1 = sum(x) vanishes on the
    hyperplane, so a part 1 is refused, and by Chevalley's theorem the
    products of p2 .. p6 are linearly independent there, so a nonzero
    coefficient set is a nonzero form on the hyperplane.

    A batch's power table (x_i^j and the power sums, each a list over the
    batch) is computed once and serves every point's value, gradient,
    singularity test and polar image. The gradient follows by the chain
    rule with dp_k/dx_i = k*x_i^(k-1), the Hessian from the second
    derivatives in the p_k, so integer coordinates stay integers. The
    first and second derivatives in the p_k are taken once per model.
    """

    name: str
    degree: int
    terms: tuple[tuple[Partition, int], ...]

    def __init__(self, name: str, degree: int, terms: Mapping[Partition, int]):
        _check_int(degree, "degree", 1)
        if not isinstance(terms, Mapping):
            raise SchemaError(f"terms must be a mapping, not {_shown(terms)}")
        merged: dict[Partition, int] = {}
        for parts, coeff in terms.items():
            if (
                type(parts) is not tuple
                or not parts
                or any(type(k) is not int or not 1 <= k <= NVARS for k in parts)
            ):
                raise ValueError(f"malformed partition {_shown(parts)}")
            if 1 in parts:
                raise ValueError(
                    f"partition {parts!r} has a part 1: p1 vanishes on the hyperplane"
                )
            if type(coeff) is not int:
                raise ValueError(f"coefficient {_shown(coeff)} is not an integer")
            if sum(parts) != degree:
                raise ValueError("partition degree does not match the declared degree")
            key = tuple(sorted(parts, reverse=True))
            merged[key] = merged.get(key, 0) + coeff
        clean = tuple(sorted((key, c) for key, c in merged.items() if c))
        if not clean:
            raise ValueError("the form must be nonzero")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)
        # (k, dF/dp_k) for each order k in the form; not a field, so
        # equality, hash and repr see only name, degree and terms
        orders = sorted({k for parts, _ in clean for k in parts})
        chain = tuple((k, _d_dp(clean, k)) for k in orders)
        object.__setattr__(self, "_chain", chain)
        # (k, l, d2F/dp_k dp_l) for each nonzero second derivative; not a field either
        second = tuple((k, l, d2) for k, f in chain for l, _ in chain if (d2 := _d_dp(f, l)))
        object.__setattr__(self, "_second", second)

    def _powers(self, points: Sequence) -> tuple[list, dict]:
        """A batch's power table: cols[j][i] lists x_i^j over the points (j <= degree), p[k] sums.

        k is 0 (p_0 = NVARS, for the batch's size) or an order of the form. A
        ``ProjectivePoint`` is read through its coordinates, as a list is.
        """
        rows = [
            pt.coords if isinstance(pt, ProjectivePoint)
            else [c if type(c) is int else parse_scalar(c) for c in _entries(pt)]
            for pt in points
        ]
        if any(len(row) != NVARS for row in rows):
            raise ValueError(f"need {NVARS} coordinates")
        xs = [*zip(*rows)] or [()] * NVARS
        cols = [[[1] * len(rows)] * NVARS, xs]
        for _ in range(self.degree - 1):
            cols.append([list(map(mul, a, x)) for a, x in zip(cols[-1], xs)])
        p = {k: list(map(sum, zip(*cols[k]))) for k, _ in self._chain}
        p[0] = [NVARS] * len(rows)
        return cols, p

    def _gradient(self, cols: list, p: dict) -> list:
        """A batch's gradient columns: grad[i] lists the sum over k of dF/dp_k * k*x_i^(k-1)."""
        grad = [[0] * len(p[0])] * NVARS
        for k, d in self._chain:
            c = [k * v for v in _at(d, p)]
            grad = [list(map(add, g, map(mul, x, c))) for g, x in zip(grad, cols[k - 1])]
        return grad

    def evaluate(self, point: "ProjectivePoint | Sequence[ScalarLike]"):
        return _at(self.terms, self._powers([point])[1])[0]

    def gradient(self, point: "ProjectivePoint | Sequence[ScalarLike]") -> tuple:
        return next(zip(*self._gradient(*self._powers([point]))))

    def _hessian(self, cols: list, p: dict) -> list[list[list]]:
        """A batch's Hessian columns: h[i][j] lists d2F/dx_i dx_j over the points.

        Entry (i, j) is the sum over k, l of d2F/dp_k dp_l times
        k*x_i^(k-1) * l*x_j^(l-1), plus, when i = j, the sum over k of
        dF/dp_k times k*(k-1)*x_i^(k-2). The first part is a sum of outer
        products: row i of the (k, l) one is k*x_i^(k-1) times the vector
        d2F/dp_k dp_l * l*x^(l-1).
        """
        rows = [[[0] * len(p[0])] * NVARS for _ in range(NVARS)]
        for k, f in self._chain:
            c = [k * (k - 1) * v for v in _at(f, p)]
            for i, x in enumerate(cols[k - 2]):
                rows[i][i] = list(map(add, rows[i][i], map(mul, c, x)))
        for k, l, f in self._second:
            c = [k * l * v for v in _at(f, p)]
            v = [list(map(mul, c, y)) for y in cols[l - 1]]
            rows = [
                [list(map(add, h, map(mul, x, vj))) for h, vj in zip(row, v)]
                for row, x in zip(rows, cols[k - 1])
            ]
        return rows

    def hessian(self, point: "ProjectivePoint | Sequence[ScalarLike]") -> list[list]:
        """The 6x6 matrix of second partials, by the chain rule (see ``_hessian``)."""
        return [[h for (h,) in row] for row in self._hessian(*self._powers([point]))]


@dataclass(frozen=True, init=False)
class AmbientPoint(ProjectivePoint):
    """A projective point of the hyperplane sum(x) = 0 in six coordinates.

    A ``ProjectivePoint`` with two more checks, so it goes wherever one
    does; it equals only an ``AmbientPoint``. The inherited ``_of`` serves
    the nonzero sum-zero int 6-vectors the program builds itself.
    """

    def __init__(self, coords: Iterable[ScalarLike]):
        super().__init__(coords)
        if len(self.coords) != NVARS:
            raise ValueError(f"need {NVARS} coordinates")
        if sum(self.coords) != 0:
            raise ValueError("coordinates must sum to zero")


def segre_cubic() -> SymmetricHypersurfaceModel:
    """The cubic sum(x_i^3) = 0 on the hyperplane sum(x_i) = 0."""
    return SymmetricHypersurfaceModel("segre", 3, {(3,): 1})


def perfect_matchings() -> list[tuple[tuple[int, int], ...]]:
    """The 15 perfect matchings of {0, ..., 5}, pairs and lists sorted."""

    def pair_up(elems: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
        if not elems:
            return [()]
        first, rest = elems[0], elems[1:]
        out = []
        for i, partner in enumerate(rest):
            remaining = rest[:i] + rest[i + 1 :]
            for tail in pair_up(remaining):
                out.append(((first, partner),) + tail)
        return out

    return pair_up(tuple(range(NVARS)))


@dataclass(frozen=True)
class MatchingLine:
    """The line of points constant on each pair of a perfect matching."""

    matching: tuple[tuple[int, int], ...]

    def coords_at(self, t: ScalarLike, u: ScalarLike) -> tuple:
        """Coordinates (t, u, -t-u) on the three pairs; ints for integer (t, u)."""
        tv, uv = (v if type(v) is int else parse_scalar(v) for v in (t, u))
        values = (tv, uv, -tv - uv)
        coords = [0] * NVARS
        for value, pair in zip(values, self.matching):
            for i in pair:
                coords[i] = value
        return tuple(coords)

    def point_at(self, t: ScalarLike, u: ScalarLike) -> AmbientPoint:
        return AmbientPoint(self.coords_at(t, u))

    def contains(self, point: AmbientPoint) -> bool:
        return all(
            point.coords[a] == point.coords[b] for a, b in self.matching
        )


def igusa_quartic() -> SymmetricHypersurfaceModel:
    """The quartic (sum x^2)^2 - 4*sum(x^4) = 0 on the hyperplane sum(x) = 0."""
    return SymmetricHypersurfaceModel("igusa", 4, {(2, 2): 1, (4,): -4})


def verify_singular_point(model: SymmetricHypersurfaceModel, point: AmbientPoint) -> bool:
    """Singularity of the hyperplane section: F(p) = 0 and grad F proportional to (1,...,1)."""
    return _singular_points(model, [point])[0]


def _singular_points(model: SymmetricHypersurfaceModel, points: Sequence) -> list[bool]:
    """``verify_singular_point`` at each point of a batch; only points with F = 0 get a gradient."""
    cols, p = model._powers(points)
    on = [v == 0 for v in _at(model.terms, p)]
    cols = [[list(compress(c, on)) for c in col] for col in cols]
    grads = zip(*model._gradient(cols, {k: list(compress(s, on)) for k, s in p.items()}))
    return [v and _along_normal(next(grads)) for v in on]


def _along_normal(grad: Sequence) -> bool:
    """Whether a gradient is a multiple of (1, ..., 1), the hyperplane's normal."""
    return grad.count(grad[0]) == len(grad)


Split = tuple[tuple[int, int, int], tuple[int, int, int]]


def three_three_splits() -> list[Split]:
    """The 10 unordered partitions of {0,...,5} into two triples, 0 always first."""
    out = []
    for pair in combinations(range(1, NVARS), 2):
        part = (0,) + pair
        rest = tuple(i for i in range(NVARS) if i not in part)
        out.append((part, rest))
    return out


@dataclass(frozen=True)
class SegreNode:
    point: AmbientPoint
    split: Split


def restricted_hessian_rank(model: SymmetricHypersurfaceModel, point: AmbientPoint) -> int:
    """Rank of the Hessian quadratic form restricted to the hyperplane sum(w) = 0.

    In the basis e_a - e_(a+1) of the hyperplane's tangent directions the
    entry (a, b) is h[a][b] - h[a][b+1] - h[a+1][b] + h[a+1][b+1], an int
    at an ``AmbientPoint``. A batch of one of ``_restricted_ranks``.
    """
    return _restricted_ranks(model, [point])[0]


def _restricted_ranks(model: SymmetricHypersurfaceModel, points: Sequence) -> list[int]:
    """``restricted_hessian_rank`` at each point of a batch, from one Hessian table."""
    ranks = []
    # each point's 6x6 matrix, read off the batch's Hessian columns
    for h in zip(*[zip(*row) for row in model._hessian(*model._powers(points))]):
        # row differences h[a] - h[a+1], then column differences of those
        rows = [list(map(sub, a, b)) for a, b in zip(h, h[1:])]
        ranks.append(_rank_ints([list(map(sub, row[:-1], row[1:])) for row in rows]))
    return ranks


def segre_nodes() -> list[SegreNode]:
    """The ten nodes of the cubic, one per 3+3 split of the coordinates.

    The points are built, not checked: ``verify.check_segre_nodes`` tests
    each for singularity and Hessian rank 4.
    """
    # 1 on the split's first triple, -1 on the other: three 1s and three -1s
    return [
        SegreNode(AmbientPoint._of([1 if i in split[0] else -1 for i in range(NVARS)]), split)
        for split in three_three_splits()
    ]


def igusa_lines() -> list[MatchingLine]:
    """The 15 singular lines of the quartic, one per perfect matching.

    The lines are built, not checked: ``verify.check_igusa`` tests each
    for singularity at six parameter ratios, which proves the degree-4
    identity along it.
    """
    return [MatchingLine(m) for m in perfect_matchings()]


@dataclass(frozen=True)
class IgusaPoint:
    point: AmbientPoint
    pair: tuple[int, int]


def igusa_points() -> list[IgusaPoint]:
    """The 15 distinguished singular points, one per coordinate pair carrying -2."""
    out = []
    for pair in combinations(range(NVARS), 2):
        coords = [1] * NVARS
        for i in pair:
            coords[i] = -2
        # four 1s and two -2s
        out.append(IgusaPoint(point=AmbientPoint._of(coords), pair=pair))
    return out


@dataclass(frozen=True)
class IncidenceStructure:
    """An abstract point-line incidence with its flag set."""

    points: tuple[tuple[int, int], ...]
    lines: tuple[tuple[tuple[int, int], ...], ...]
    flags: frozenset[tuple[tuple[int, int], tuple[tuple[int, int], ...]]]

    def lines_through(self, point: tuple[int, int]) -> list:
        return [l for l in self.lines if (point, l) in self.flags]

    def points_on(self, line) -> list[tuple[int, int]]:
        return [p for p in self.points if (p, line) in self.flags]


def incidence_15_3() -> IncidenceStructure:
    """The 15_3 incidence: edges of K6 against perfect matchings, by membership.

    ``verify.check_igusa`` re-derives it independently: the degree of every
    point and line, and the geometric incidence of the 15 distinguished
    points on the 15 singular lines.
    """
    pairs = tuple(combinations(range(NVARS), 2))
    matchings = tuple(perfect_matchings())
    flags = frozenset(
        (pair, matching)
        for pair in pairs
        for matching in matchings
        if pair in matching
    )
    return IncidenceStructure(points=pairs, lines=matchings, flags=flags)


def polar_map(model: SymmetricHypersurfaceModel, point: AmbientPoint) -> AmbientPoint:
    """Gradient image in the dual hyperplane, centered to sum zero.

    Defined at nonsingular points of the model's hyperplane section; the
    gradient is translated by its coordinate mean so the image lands back
    in the sum-zero chart. The translate is scaled by NVARS to stay integral.
    """
    cols, p = model._powers([point])
    if _at(model.terms, p)[0] != 0:
        raise ValueError("point does not lie on the hypersurface")
    return _polar_images(model._gradient(cols, p))[0]


def _centered(grad: list) -> list[tuple]:
    """Each point's NVARS*grad - sum(grad) from a batch's gradient columns (0 on the normal)."""
    total = list(map(sum, zip(*grad)))
    return list(zip(*[list(map(sub, map(mul, g, repeat(NVARS)), total)) for g in grad]))


def _polar_images(grad: list) -> list[AmbientPoint]:
    """The polar image of each point of a batch, from its gradient columns; see ``polar_map``."""
    centered = _centered(grad)
    if (0,) * NVARS in centered:
        raise SingularPointError(
            "gradient is normal to the hyperplane: the point is singular"
        )
    # nonzero, and centring makes the sum zero
    return list(map(AmbientPoint._of, centered))


def _sign_paired(coords: Sequence[ScalarLike]) -> bool:
    """Whether the coordinates pair up to sign along some perfect matching.

    Such a matching exists exactly when every absolute value occurs an
    even number of times, that is when the sorted absolute values pair up
    consecutively. Lines through a node invariant under a coordinate
    transposition force their residual point onto such a locus (the 15
    planes of the cubic among them). The sampler rejects them: the cubic's
    gradient 3*x_i^2 is then constant on each pair, so the polar image lies
    on that matching's line, where the quartic is singular.
    """
    mags = sorted(map(abs, coords))
    return mags[0::2] == mags[1::2]


def sample_segre_points(count: int, seed: int = 0) -> list[AmbientPoint]:
    """Rational nonsingular points of the cubic, via lines through its nodes.

    A line through a node nu in direction w (sum w = 0) meets the cubic in
    lambda^2 * (a2 + a3*lambda) = 0, so the residual point nu - (a2/a3)*w
    is rational; it is taken as the integer multiple a3*nu - a2*w. Draws
    with a3 = 0, a2 = 0 or a sign-paired residual are skipped and retried
    a bounded number of times. No residual R is singular: lambda* = -a2/a3
    is a simple root, so the derivative there, a3*lambda*^2, is nonzero; it
    is a multiple of grad p3(R) . w, and at a singular point grad p3 is a
    multiple of (1, ..., 1), whose product with w is a multiple of sum w = 0.

    One call draws every sample from one random stream, in order, so
    ``sample_segre_points(k, s)`` is a prefix of ``sample_segre_points(n, s)``
    for k <= n, and distinct seeds, negative ones included, give distinct
    streams. The points of a seed differ from those of versions that drew
    each sample from a stream of its own.
    """
    return [x for points, _, _ in _segre_samples(segre_cubic(), count, seed) for x in points]


def _segre_samples(
    model: SymmetricHypersurfaceModel, count: int, seed: int
) -> Iterator[tuple[list[AmbientPoint], list, dict]]:
    """Yield the samples of ``sample_segre_points`` in batches, with their tables on ``model``."""
    _check_int(count, "count", 0)
    _check_int(seed, "seed", -math.inf)
    nodes = [n.point for n in segre_nodes()]
    # Random seeds with |seed|, so the zigzag map keeps s and -s apart
    rng = random.Random(2 * seed if seed >= 0 else -2 * seed - 1)
    for start in range(0, count, _BATCH):
        points = []
        for _ in range(min(_BATCH, count - start)):
            for _ in range(200):
                nu = nodes[_randints(rng, 0, len(nodes) - 1, 1)[0]].coords
                # a direction in the hyperplane; the zero one has a3 = 0 and is skipped with those
                w = _randints(rng, -9, 9, NVARS - 1)
                w.append(-sum(w))
                squares = list(map(mul, w, w))
                a2 = 3 * sum(map(mul, nu, squares))
                a3 = sum(map(mul, w, squares))
                if a3 == 0 or a2 == 0:
                    continue
                residual = [a3 * n - a2 * wi for n, wi in zip(nu, w)]
                # sign-pairing is invariant under scaling, so the raw residual decides
                if _sign_paired(residual):
                    continue
                # a zero residual, a3*nu = a2*w, would force w = c*nu and so equal
                # a3*nu - 3*(a3/c)*c*nu = -2*a3*nu, which is nonzero; its sum is zero
                points.append(AmbientPoint._of(residual))
                break
            else:
                raise RuntimeError("sampling failed to find a usable direction")
        cols, p = model._powers(points)
        if any(_at(model.terms, p)):
            raise RuntimeError("residual intersection left the cubic")
        yield points, cols, p


@dataclass(frozen=True)
class DualityReport:
    """Exact polar-duality statistics for sampled points."""

    samples: int
    forward_ok: int
    reverse_ok: int
    reverse_skipped: int
    counterexamples: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def passed(self) -> bool:
        return (
            not self.counterexamples
            and self.forward_ok == self.reverse_ok == self.samples
            and self.reverse_skipped == 0
        )

    def to_json(self) -> dict:
        return {
            "samples": self.samples,
            "forward_ok": self.forward_ok,
            "reverse_ok": self.reverse_ok,
            "reverse_skipped": self.reverse_skipped,
            "counterexamples": [
                {"direction": d, "point": list(c)} for d, c in self.counterexamples
            ],
            "passed": self.passed,
        }


def duality_check(samples: int, seed: int = 0) -> DualityReport:
    """Verify both polar directions on sampled cubic points, exactly.

    Forward: the polar image of each sampled cubic point satisfies the
    quartic. Reverse: the polar image of each such quartic point (when
    nonsingular there) satisfies the cubic. Failures are reported, not
    raised. A reverse image is skipped only for a wrong quartic: the
    quartic is singular exactly along its 15 lines, which hold the polar
    images of exactly the sign-paired points, and the sampler rejects
    those. Each batch of up to ``_BATCH`` samples is tabled three times:
    the samples x on the cubic (the sampler's on-cubic test and the
    forward images), their images y on the quartic (values, singularity
    tests and reverse images) and the reverse images z on the cubic.
    Counterexamples come in sample order.
    """
    _check_int(samples, "samples", 0)
    segre = segre_cubic()
    igusa = igusa_quartic()
    forward_ok = reverse_ok = skipped = 0
    bad: list[tuple[str, tuple[int, ...]]] = []
    for xs, cols, p in _segre_samples(segre, samples, seed):
        ys = _polar_images(segre._gradient(cols, p))
        cols, p = igusa._powers(ys)
        forward = _at(igusa.terms, p)
        # one gradient at y serves the singularity test and the reverse image:
        # its centred row is zero exactly when it is along the normal
        images = _centered(igusa._gradient(cols, p))
        zs = [AmbientPoint._of(c) for f, c in zip(forward, images) if f == 0 and any(c)]
        reverse = iter(_at(segre.terms, segre._powers(zs)[1]))
        for x, y, f, c in zip(xs, ys, forward, images):
            if f != 0:
                bad.append(("forward", x.coords))
                continue
            forward_ok += 1
            if not any(c):
                skipped += 1
            elif next(reverse) == 0:
                reverse_ok += 1
            else:
                bad.append(("reverse", y.coords))
    return DualityReport(
        samples=samples,
        forward_ok=forward_ok,
        reverse_ok=reverse_ok,
        reverse_skipped=skipped,
        counterexamples=tuple(bad),
    )
