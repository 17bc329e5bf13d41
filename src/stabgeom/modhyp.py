"""The symmetric cubic and quartic threefolds in the sum-zero hyperplane.

Both hypersurfaces live in P^4 realized as the hyperplane sum(x) = 0
inside P^5 with six permutable coordinates. A point of the hyperplane
section is singular when the full gradient is a scalar multiple of
(1, ..., 1), the hyperplane's normal. All evaluation is exact.

A model is an integer combination of products of the power sums
p_k = sum(x_i^k): the cubic is p3 and the quartic p2^2 - 4*p4 (Hunt,
LNM 1637; Dolgachev-Ortland, Asterisque 165). Values, gradients (chain
rule, dp_k/dx_i = k*x_i^(k-1)) and Hessians come from the power sums of
the point, in integers for integer points. One power pass per point
serves the value, the gradient, the singularity test and the polar
image: each caller builds a point's power table once and reads every
answer off it. ``Polynomial`` is the expanded reference form that the
tests cross-check against. Each model is built once per public call,
never inside a loop.

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
from itertools import combinations, repeat
from operator import add, mul, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import SchemaError, SingularPointError
from .exactgeom import (
    ProjectivePoint,
    ScalarLike,
    _check_int,
    _entries,
    _shown,
    parse_scalar,
    rank,
)
from .randconf import _randints

NVARS = 6

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


def _at(terms: Iterable[tuple[Partition, int]], p: Sequence):
    """The combination sum(c * p[k1] * p[k2] * ...) at the power sums p."""
    total = 0
    for parts, c in terms:
        total += c * math.prod(map(p.__getitem__, parts))
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

    Each point's power table (x_i^j and the power sums) is computed once
    and serves the value, the gradient, the singularity test and the polar
    image. The gradient follows by the chain rule with
    dp_k/dx_i = k*x_i^(k-1), the Hessian from the second derivatives in
    the p_k, so integer coordinates stay integers. The first and second
    derivatives in the p_k are taken once per model.
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

    def _powers(self, point: "ProjectivePoint | Sequence[ScalarLike]") -> tuple[list, list]:
        """Columns cols[j][i] = x_i^j for j = 0 .. degree, and the power sums p_0 .. p_degree.

        A ``ProjectivePoint`` is read through its coordinates, under the
        same six-coordinate rule as a list.
        """
        if isinstance(point, ProjectivePoint):
            coords = point.coords
        else:
            coords = [c if type(c) is int else parse_scalar(c) for c in _entries(point)]
        if len(coords) != NVARS:
            raise ValueError(f"need {NVARS} coordinates")
        cols = [[1] * NVARS, list(coords)]
        for _ in range(self.degree - 1):
            cols.append(list(map(mul, cols[-1], coords)))
        return cols, list(map(sum, cols))

    def _gradient(self, cols: list, p: list) -> tuple:
        """The gradient from a point's power table: sum over k of dF/dp_k * k*x_i^(k-1)."""
        grad = [0] * NVARS
        for k, d in self._chain:
            grad = list(map(add, grad, map(mul, cols[k - 1], repeat(k * _at(d, p)))))
        return tuple(grad)

    def evaluate(self, point: "ProjectivePoint | Sequence[ScalarLike]"):
        return _at(self.terms, self._powers(point)[1])

    def gradient(self, point: "ProjectivePoint | Sequence[ScalarLike]") -> tuple:
        return self._gradient(*self._powers(point))

    def hessian(self, point: "ProjectivePoint | Sequence[ScalarLike]") -> list[list]:
        """The 6x6 matrix of second partials, by the chain rule.

        Entry (i, j) is the sum over k, l of d2F/dp_k dp_l times
        k*x_i^(k-1) * l*x_j^(l-1), plus, when i = j, the sum over k of
        dF/dp_k times k*(k-1)*x_i^(k-2). The first part is a sum of outer
        products: row i of the (k, l) one is k*x_i^(k-1) times the vector
        d2F/dp_k dp_l * l*x^(l-1).
        """
        cols, p = self._powers(point)
        rows = [[0] * NVARS for _ in range(NVARS)]
        for k, f in self._chain:
            c = k * (k - 1) * _at(f, p)
            for i, x in enumerate(cols[k - 2]):
                rows[i][i] += c * x
        for k, l, f in self._second:
            c = k * l * _at(f, p)
            v = [c * y for y in cols[l - 1]]
            rows = [[h + x * vj for h, vj in zip(row, v)] for row, x in zip(rows, cols[k - 1])]
        return rows


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
    cols, p = model._powers(point)
    return _at(model.terms, p) == 0 and _along_normal(model._gradient(cols, p))


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


def _node_point(split: Split) -> AmbientPoint:
    coords = [0] * NVARS
    for i in split[0]:
        coords[i] = 1
    for i in split[1]:
        coords[i] = -1
    # three 1s and three -1s
    return AmbientPoint._of(coords)


def restricted_hessian_rank(model: SymmetricHypersurfaceModel, point: AmbientPoint) -> int:
    """Rank of the Hessian quadratic form restricted to the hyperplane sum(w) = 0.

    In the basis e_a - e_(a+1) of the hyperplane's tangent directions the
    entry (a, b) is h[a][b] - h[a][b+1] - h[a+1][b] + h[a+1][b+1].
    """
    h = model.hessian(point)
    # row differences h[a] - h[a+1], then column differences of those
    rows = [list(map(sub, h[a], h[a + 1])) for a in range(NVARS - 1)]
    return rank([list(map(sub, row[:-1], row[1:])) for row in rows])


def segre_nodes() -> list[SegreNode]:
    """The ten nodes of the cubic, one per 3+3 split of the coordinates.

    The points are built, not checked: ``verify.check_segre_nodes`` tests
    each for singularity and Hessian rank 4.
    """
    return [SegreNode(point=_node_point(split), split=split) for split in three_three_splits()]


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
    cols, p = model._powers(point)
    if _at(model.terms, p) != 0:
        raise ValueError("point does not lie on the hypersurface")
    return _polar_image(model._gradient(cols, p))


def _polar_image(grad: Sequence) -> AmbientPoint:
    """The gradient minus its coordinate mean, scaled by NVARS; see ``polar_map``."""
    total = sum(grad)
    centered = [NVARS * gi - total for gi in grad]
    if not any(centered):
        raise SingularPointError(
            "gradient is normal to the hyperplane: the point is singular"
        )
    # nonzero, and centring makes the sum zero
    return AmbientPoint._of(centered)


def _random_direction(rng: random.Random) -> list[int]:
    """A direction in the hyperplane; the zero one has a3 = 0 and is skipped with those."""
    w = _randints(rng, -9, 9, NVARS - 1)
    w.append(-sum(w))
    return w


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
    return [point for point, _, _ in _segre_samples(segre_cubic(), count, seed)]


def _segre_samples(
    model: SymmetricHypersurfaceModel, count: int, seed: int
) -> Iterator[tuple[AmbientPoint, list, list]]:
    """Yield each sample of ``sample_segre_points`` with its power table on ``model``, the cubic."""
    _check_int(count, "count", 0)
    _check_int(seed, "seed", -math.inf)
    nodes = [n.point for n in segre_nodes()]
    # Random seeds with |seed|, so the zigzag map keeps s and -s apart
    rng = random.Random(2 * seed if seed >= 0 else -2 * seed - 1)
    for _ in range(count):
        for _ in range(200):
            nu = nodes[_randints(rng, 0, len(nodes) - 1, 1)[0]].coords
            w = _random_direction(rng)
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
            point = AmbientPoint._of(residual)
            cols, p = model._powers(point)
            if _at(model.terms, p) != 0:
                raise RuntimeError("residual intersection left the cubic")
            yield point, cols, p
            break
        else:
            raise RuntimeError("sampling failed to find a usable direction")


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
    those. A sample costs three power passes: x on the cubic (the
    sampler's on-cubic test and the forward image), y on the quartic
    (value, singularity test and reverse image) and z on the cubic.
    """
    _check_int(samples, "samples", 0)
    segre = segre_cubic()
    igusa = igusa_quartic()
    forward_ok = 0
    reverse_ok = 0
    skipped = 0
    bad: list[tuple[str, tuple[int, ...]]] = []
    for x, cols, p in _segre_samples(segre, samples, seed):
        y = _polar_image(segre._gradient(cols, p))
        cols, p = igusa._powers(y)
        if _at(igusa.terms, p) == 0:
            forward_ok += 1
        else:
            bad.append(("forward", x.coords))
            continue
        # one gradient at y serves the singularity test and the reverse image
        grad = igusa._gradient(cols, p)
        if _along_normal(grad):
            skipped += 1
            continue
        z = _polar_image(grad)
        if segre.evaluate(z) == 0:
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
