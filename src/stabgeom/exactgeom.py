"""Exact projective linear algebra over the rationals.

Points, configurations, subspaces and transforms are immutable values
stored in a canonical integer form, so equality is syntactic and every
operation is a pure function. All arithmetic is exact and integral;
``Fraction`` appears only where rationals are parsed (``parse_scalar``)
or formatted (``format_scalar``) and in ``reduced_row_echelon``'s output.

Every basis comes from one fraction-free kernel, ``_echelon``, a single
Gauss-Jordan pass in which every division is exact (Bareiss): the
reduced row echelon form, the echelon basis, the kernel, the inverse and
the span test are views of the primitive integer echelon basis it
builds. ``rank`` is Bareiss elimination below the pivots only. The
flats are enumerated by reverse search (``_flats``): each is generated
once, from the flat its lex-first basis spans without its last point, so
no table of the flats is kept. A caller's ``descend`` test may cut the
search below a flat, given a bound on the size of every flat there
(branch and bound), and its ``keep`` test which flats are yielded.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence, Union

from .errors import FrameDegenerateError, SchemaError

ScalarLike = Union[int, str, Fraction]

# the numerator and the denominator, if any, each read by int
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([1-9][0-9]*))?")
# an integer as the CLI options and STAB_MAX_SUBSET_SIZE read it: ASCII digits only
_INT_RE = re.compile(r"[+-]?[0-9]+")
# the type set of a row of exact ints (bool is a type of its own)
_INT = frozenset({int})


def _shown(value: object) -> str:
    """The repr of an input value for an error message, cut after 100 characters."""
    try:
        text = repr(value)
    except ValueError:  # an int past CPython's limit on digits for str()
        return f"<{type(value).__name__} too large to show>"
    return text if len(text) <= 100 else text[:100] + "..."


def parse_scalar(value: ScalarLike) -> Fraction:
    """Parse a rational given as an int, a Fraction, or a "p/q" / "p" string."""
    if isinstance(value, bool):
        raise SchemaError(f"not a rational: {_shown(value)}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        match = _RATIONAL_RE.fullmatch(value.strip())
        if match is None:
            raise SchemaError(f"not a rational literal: {_shown(value)}")
        num, den = match.groups()
        return Fraction(int(num)) if den is None else Fraction(int(num), int(den))
    raise SchemaError(f"not a rational: {_shown(value)}")


def format_scalar(value: ScalarLike) -> str:
    """Render a rational as "p" or "p/q" with positive denominator."""
    q = parse_scalar(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _check_int(value: object, what: str, least: float) -> int:
    """Return value if it is an int of at least ``least``.

    A bool, a float or a string raises SchemaError; a smaller int raises
    ValueError. A seed's ``least`` is ``-math.inf``.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{what} must be an integer: {_shown(value)}")
    if value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{what} must be {bound}")
    return value


def _positive(value: ScalarLike, what: str) -> Fraction:
    """Parse a rational and refuse it unless it is positive."""
    q = parse_scalar(value)
    if q <= 0:
        raise ValueError(f"{what} must be positive")
    return q


def _primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """Divide a nonzero integer vector by its content, leading entry made positive."""
    for lead in ints:
        if lead:
            break
    g = math.gcd(*ints)
    if g == 1 and lead > 0:
        return tuple(ints)
    if lead < 0:
        g = -g
    return tuple([v // g for v in ints])


@dataclass(frozen=True, init=False)
class ProjectivePoint:
    """A point of projective space, stored as a primitive integer vector.

    Canonical form: coprime integer coordinates whose first nonzero entry
    is positive; two equal points therefore compare equal syntactically.
    The constructor validates its input; ``_of`` only canonicalizes, for
    nonzero int vectors that the program built itself, or that
    ``PointConfiguration.from_json_dict`` has type-tested, and that pass
    every check of the class (a subclass such as ``modhyp.AmbientPoint``
    adds its own).
    """

    coords: tuple[int, ...]

    def __init__(self, coords: Iterable[ScalarLike]):
        ints = _clear_row_to_ints(coords)
        if not any(ints):
            raise ValueError(
                "zero vector does not define a projective point"
                if ints
                else "empty coordinate vector"
            )
        object.__setattr__(self, "coords", _primitive(ints))

    @classmethod
    def _of(cls, ints: Sequence[int]) -> "ProjectivePoint":
        """The point of a nonzero int vector, made primitive with no other check."""
        point = object.__new__(cls)
        object.__setattr__(point, "coords", _primitive(ints))
        return point

    def __len__(self) -> int:
        return len(self.coords)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coords]


@dataclass(frozen=True, init=False)
class PointConfiguration:
    """An ordered tuple of projective points in a common ambient space.

    ``ambient_rank`` is the vector-space dimension r, so points live in
    P^(r-1). Repeats are meaningful and order is kept.
    """

    ambient_rank: int
    points: tuple[ProjectivePoint, ...]

    def __init__(self, ambient_rank: int, points: Iterable[ProjectivePoint]):
        pts = tuple(_entries(points, "the points"))
        _check_int(ambient_rank, "ambient rank", 1)
        if not pts:
            raise ValueError("a configuration needs at least one point")
        for p in pts:
            if not isinstance(p, ProjectivePoint):
                raise SchemaError("points must be ProjectivePoint instances")
            if len(p.coords) != ambient_rank:
                raise ValueError(
                    f"point has {len(p.coords)} coordinates, ambient rank is {ambient_rank}"
                )
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[ScalarLike]]) -> "PointConfiguration":
        points = [ProjectivePoint(row) for row in _entries(rows, "the rows")]
        if not points:
            raise ValueError("no rows given")
        return cls(len(points[0]), points)

    @classmethod
    def from_json_dict(cls, data: object) -> "PointConfiguration":
        """Parse the shared JSON shape {"ambient_rank": r, "points": [[...], ...]}."""
        if not isinstance(data, dict):
            raise SchemaError("configuration must be a JSON object")
        extra = set(data) - {"ambient_rank", "points"}
        if extra:
            raise SchemaError(f"unknown configuration keys: {sorted(extra)}")
        rank = data.get("ambient_rank")
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
            raise SchemaError("ambient_rank must be a positive integer")
        points = data.get("points")
        if not isinstance(points, list) or not points:
            raise SchemaError("points must be a nonempty list")
        parsed = []
        for row in points:
            # a nonzero row of exact ints, the common case, needs no other check
            if type(row) is list and len(row) == rank and set(map(type, row)) == _INT and any(row):
                parsed.append(ProjectivePoint._of(row))
                continue
            if not isinstance(row, list) or len(row) != rank:
                raise SchemaError(f"each point needs exactly {rank} coordinates")
            try:
                parsed.append(ProjectivePoint(row))
            except (SchemaError, ValueError) as exc:
                raise SchemaError(f"bad point {_shown(row)}: {exc}") from exc
        return cls(rank, parsed)

    def to_json_dict(self) -> dict:
        return {
            "ambient_rank": self.ambient_rank,
            "points": [p.to_json() for p in self.points],
        }

    def rows(self) -> list[tuple[int, ...]]:
        return [p.coords for p in self.points]

    def __len__(self) -> int:
        return len(self.points)

    def apply(self, transform: "ProjectiveTransform") -> "PointConfiguration":
        return PointConfiguration(
            self.ambient_rank, [transform.apply(p) for p in self.points]
        )


def _entries(items: Iterable, what: str = "a coordinate vector") -> list:
    """The items as a fresh list.

    A non-iterable raises SchemaError, and so does a str or bytes, which
    would otherwise be read character by character.
    """
    if isinstance(items, (str, bytes)):
        raise SchemaError(f"{what} cannot be a string: {_shown(items)}")
    try:
        values = iter(items)
    except TypeError:
        raise SchemaError(f"{what} must be iterable: {_shown(items)}") from None
    return list(values)


def _clear_row_to_ints(row: Iterable[ScalarLike]) -> list[int]:
    """The row scaled by the lcm of its denominators, as a fresh integer list.

    A row of ints and integer strings skips the Fractions: it keeps each
    int and reads each string with ``int``, as ``parse_scalar`` does. The
    first entry of any other kind (a "p/q" string, a Fraction, a bool, a
    value to refuse) sends the whole row through ``parse_scalar`` and the
    lcm, so every value and error is that route's.
    """
    values = _entries(row)
    ints = []
    for x in values:
        if type(x) is str:
            match = _RATIONAL_RE.fullmatch(x.strip())
            if match is None or match[2]:
                break
            x = int(match[1])
        elif type(x) is not int:
            break
        ints.append(x)
    else:
        return ints
    fracs = [parse_scalar(x) for x in values]
    scale = math.lcm(*(c.denominator for c in fracs))
    return [c.numerator * (scale // c.denominator) for c in fracs]


def _int_rows(matrix: Iterable[Iterable[ScalarLike]]) -> list[list[int]]:
    """The rows as fresh integer lists, each scaled by its own denominators."""
    m: list[list[int]] = []
    width = None
    for row in _entries(matrix, "the rows"):
        r = _clear_row_to_ints(row)
        if width is None:
            width = len(r)
        elif len(r) != width:
            raise ValueError("ragged matrix")
        m.append(r)
    if not m or not width:
        raise ValueError("matrix must be nonempty")
    return m


def rank(matrix: Sequence[Sequence[ScalarLike]]) -> int:
    """Exact rank of a rational matrix via fraction-free (Bareiss) elimination."""
    return _rank_ints(_int_rows(matrix))


def _rank_ints(m: list[list[int]]) -> int:
    """Bareiss rank of fresh, nonempty, rectangular int rows, which it overwrites."""
    width, nrows = len(m[0]), len(m)
    rk, prev = 0, 1
    for col in range(width):
        piv = None
        for i in range(rk, nrows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != rk:
            m[rk], m[piv] = m[piv], m[rk]
        pivval = m[rk][col]
        pivrow = m[rk]
        for i in range(rk + 1, nrows):
            row_i = m[i]
            v = row_i[col]
            for j in range(col + 1, width):
                row_i[j] = (pivval * row_i[j] - v * pivrow[j]) // prev
            row_i[col] = 0
        prev = pivval
        rk += 1
        if rk == nrows:
            break
    return rk


_Basis = tuple[tuple[int, ...], ...]


def _echelon(rows: Iterable[Sequence[int]]) -> tuple[_Basis, tuple[int, ...]]:
    """Canonical primitive echelon basis of the integer rows' span, with its pivots.

    One fraction-free Gauss-Jordan pass (Bareiss, 1968): at each pivot pv
    every other row a, above and below, becomes (pv*a - f*b) // prev, where
    b is the pivot row, f is a's entry in the pivot column and prev the
    previous pivot; a row with f = 0 becomes pv*a // prev, never
    (pv // prev)*a, as pv/prev need not be an integer. Every entry stays a
    minor of the input, so each division is exact. Each pivot row ends as
    the last pivot times its RREF row and is made primitive once, so the
    result is the RREF scaled row by row: exactly what echelon_basis returns.
    """
    m = list(rows)
    pivots: list[int] = []
    rk, prev = 0, 1
    for col in range(len(m[0]) if m else 0):
        for i in range(rk, len(m)):
            if m[i][col]:
                break
        else:
            continue
        m[rk], m[i] = m[i], m[rk]
        b = m[rk]
        pv = b[col]
        for i, a in enumerate(m):
            if i != rk:
                f = a[col]
                if f:
                    m[i] = [(pv * x - f * y) // prev for x, y in zip(a, b)]
                else:
                    m[i] = [pv * x // prev for x in a]
        pivots.append(col)
        prev = pv
        rk += 1
        if rk == len(m):
            break
    return tuple(map(_primitive, m[:rk])), tuple(pivots)


def _normals(basis: _Basis, pivots: tuple[int, ...], width: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of the orthogonal complement, one vector per free column."""
    scale = math.lcm(*(row[p] for row, p in zip(basis, pivots)))
    out = []
    for f in range(width):
        if f in pivots:
            continue
        normal = [0] * width
        normal[f] = scale
        for row, p in zip(basis, pivots):
            normal[p] = -row[f] * (scale // row[p])
        out.append(_primitive(normal))
    return out


def reduced_row_echelon(
    matrix: Sequence[Sequence[ScalarLike]],
) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (rows, pivot column indices).

    The integer echelon basis is the RREF scaled row by row, so each row is
    divided by its pivot entry.
    """
    basis, pivots = _echelon(_int_rows(matrix))
    return [[Fraction(x, row[p]) for x in row] for row, p in zip(basis, pivots)], list(pivots)


def echelon_basis(matrix: Sequence[Sequence[ScalarLike]]) -> _Basis:
    """Canonical primitive-integer basis of the row space: the RREF, each row cleared."""
    return _echelon(_int_rows(matrix))[0]


def kernel_basis(matrix: Sequence[Sequence[ScalarLike]]) -> list[tuple[int, ...]]:
    """Canonical primitive-integer basis of the right kernel, one vector per free column.

    The kernel is read off the integer echelon basis as its normals: each
    is a positive multiple of the RREF kernel vector of its column.
    """
    rows = _int_rows(matrix)
    basis, pivots = _echelon(rows)
    return _normals(basis, pivots, len(rows[0]))


def in_span(basis: Sequence[Sequence[ScalarLike]], vector: Sequence[ScalarLike]) -> bool:
    """Whether vector lies in the row space of basis, whose rows need not be in echelon form.

    The rows and the vector must share one nonzero width, else ValueError.
    """
    m = _int_rows([*_entries(basis, "the rows"), vector])
    # a vector adds a pivot exactly when it lies outside the span
    return _echelon(m)[1] == _echelon(m[:-1])[1]


def _mat_vec_ints(m: Iterable[Sequence[int]], v: Sequence[int]) -> list[int]:
    return [sum(map(mul, row, v)) for row in m]


def _inverse_ints(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """An integer multiple of the inverse of a square integer matrix.

    The augmented rows [M | I] are cleared as a whole, so their echelon
    basis is [c_i e_i | c_i (row i of M^-1)] with c_i its pivot entry;
    scaling row i by lcm(c)/c_i leaves lcm(c) M^-1. A singular matrix
    raises FrameDegenerateError: the frame transform inverts the matrix of
    the first r frame points, which is singular exactly when they are
    dependent.
    """
    n = len(m)
    basis, pivots = _echelon([*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m))
    if pivots != tuple(range(n)):
        raise FrameDegenerateError("matrix is singular")
    scale = math.lcm(*(row[i] for i, row in enumerate(basis)))
    return [[x * (scale // row[i]) for x in row[n:]] for i, row in enumerate(basis)]


@dataclass(frozen=True, init=False)
class ProjectiveTransform:
    """An invertible linear map acting on projective points, up to scale.

    Canonical form: the whole matrix cleared of denominators and made
    primitive, its first nonzero entry positive; proportional matrices
    therefore compare equal syntactically.
    """

    matrix: tuple[tuple[int, ...], ...]

    def __init__(self, matrix: Sequence[Sequence[ScalarLike]]):
        rows = [_entries(row) for row in _entries(matrix, "the rows")]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("transform matrix must be square")
        flat = _clear_row_to_ints([x for row in rows for x in row])
        if _rank_ints([flat[i * n:(i + 1) * n] for i in range(n)]) != n:
            raise ValueError("transform matrix must be invertible")
        flat = _primitive(flat)
        object.__setattr__(self, "matrix", tuple(flat[i * n:(i + 1) * n] for i in range(n)))

    def apply(self, point: ProjectivePoint) -> ProjectivePoint:
        if len(point) != len(self.matrix):
            raise ValueError(
                f"point has {len(point)} coordinates, transform acts on {len(self.matrix)}"
            )
        # an invertible matrix sends a nonzero vector to a nonzero one
        return ProjectivePoint._of(_mat_vec_ints(self.matrix, point.coords))


_Flat = tuple[int, tuple[int, ...]]


def _image(w: tuple[int, ...], u: tuple[int, ...], q: int) -> tuple[int, ...]:
    """The primitive image of w in V/span(u): clear u's pivot column q, then drop it."""
    f = w[q]
    if not f:
        return w[:q] + w[q + 1:]
    image = [u[q] * x - f * y for x, y in zip(w, u)]
    del image[q]  # a zero entry, so the content and the sign stay
    return _primitive(image)


def _flats(
    config: PointConfiguration,
    descend: Callable[[int, int], bool] | None = None,
    keep: Callable[[int, int], bool] | None = None,
) -> Iterator[_Flat]:
    """Yield (dim, members) once for every proper point-spanned subspace that ``keep`` accepts.

    Reverse search (Avis and Fukuda, 1996), depth first. A flat F on the
    stack keeps its quotient classes: each primitive image in V/F of a
    point outside F, paired with the indices of the points with that
    image, in ascending order of least member, which leads its list. Its
    children, one rank up, join F to one class, and each gets its own
    classes from F's by one small elimination per class of V/F, merging
    the classes whose images become equal (a class that merges with
    nothing shares F's list; no list is mutated). A flat's canonical
    parent is the span of its lex-first basis minus that basis's last
    point, so F + class is canonical iff min(class) comes after F's last
    point, and min(class) is then the child's last point. Skipping every
    other child generates each flat once with no table of the flats seen;
    the stack holds fewer than n pending flats per rank. Ambient rank 1
    yields nothing.

    ``keep(dim, size)`` is asked of every flat the search decides on, and
    only a flat it accepts is yielded, with its ``members`` sorted
    ascending then; with ``keep=None`` every flat is yielded.

    The hyperplanes are handled in place, never pushed: when the search
    enters C = F + u of dimension r - 2, the classes of V/F that come after
    u are grouped by their image in V/C, and each group G gives the
    candidate hyperplane C + G, yielded right after C. The class of V/C
    that G lies in is G plus the earlier classes of V/F (least member
    before min(u)) with G's image, so C + G is canonical iff no earlier
    class has that image. The earlier classes are imaged once, and only
    once some candidate passes ``keep``: refusing a candidate is their
    only use.

    Branch and bound: each child C = F + u below the hyperplanes is
    decided on, then ``descend(dim C, reach)`` is asked whether to search
    below it; with ``descend=None`` every flat is searched. ``reach`` is
    |C| plus the points of F's classes whose least member comes after
    min(u), and every flat G below C has dim G >= dim C + 1 and
    |G| <= reach. Proof: G's lex-first basis extends C's, whose last point
    is min(u), so a point of G before min(u) lies in the span of F's basis
    points before it, that is in F. A point w of G outside C lies in a
    class K != u of V/F, and G contains span(F, w), hence all of K, so
    min(K) > min(u).
    """
    r = config.ambient_rank
    # canonical coordinates make equal rows the same point, so this is the
    # zero flat's class table
    classes: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(config.rows()):
        classes.setdefault(row, []).append(i)
    stack = [(0, (), -1, [*classes.items()])] if r > 1 else []
    while stack:
        dim, members, last, items = stack.pop()
        dim += 1
        base = len(members)
        bounded = descend is not None and dim < r - 1
        if bounded:
            later = sum([len(new) for _, new in items])
        for at, (u, new) in enumerate(items):
            if bounded:
                later -= len(new)
            if new[0] < last:
                continue
            size = base + len(new)
            if keep is None or keep(dim, size):
                yield dim, tuple(sorted((*members, *new)))
            if dim == r - 1 or bounded and not descend(dim, size + later):
                continue
            flat = (*members, *new)
            for q, x in enumerate(u):
                if x:
                    break
            if dim < r - 2:
                # the classes of V/flat, to search below it
                child: dict[tuple[int, ...], list[int]] = {}
                for w, old in items:
                    if w is not u:
                        w = _image(w, u, q)
                        got = child.get(w)
                        child[w] = old if got is None else got + old
                stack.append((dim, flat, new[0], [*child.items()]))
                continue
            # the hyperplanes through flat: the later classes grouped by image
            groups: dict[tuple[int, ...], list[int]] = {}
            for w, old in items[at + 1:]:
                w = _image(w, u, q)
                got = groups.get(w)
                groups[w] = old if got is None else got + old
            joined = None
            for w, group in groups.items():
                if keep is None or keep(r - 1, size + len(group)):
                    if joined is None:
                        joined = {_image(v, u, q) for v, _ in items[:at]}
                    if w not in joined:
                        yield r - 1, tuple(sorted((*flat, *group)))


def point_spanned_subspaces(config: PointConfiguration) -> list[_Flat]:
    """All proper subspaces spanned by points: the flats of rank 1 to ambient_rank - 1.

    They are the ``(dim, members)`` pairs of ``_flats``, ordered by
    dimension, then by ``members``. Rank 1 gives [].
    """
    return sorted(_flats(config))


def _frame_transform(config: PointConfiguration) -> tuple[list[list[int]], list[int]]:
    """The frame transform T and c; FrameDegenerateError unless the frame is general.

    M holds the first r points as columns, c = M^-1 p_r and d = M^-1 p_(r+1),
    both up to one common integer scale. In the basis of M's columns the
    frame is e_1, ..., e_r, c, d, so its r + 2 points are in general
    position iff M is invertible, no c_i or d_i is zero and
    c_i*d_j != c_j*d_i for i < j. T sends the first r + 1 points to
    e_1, ..., e_r, (1, ..., 1), up to scale: it is an integer multiple of
    M^-1 with row i scaled by lcm(c)/c_i.
    """
    r = config.ambient_rank
    pts = config.points
    minv = _inverse_ints([[pts[j].coords[i] for j in range(r)] for i in range(r)])
    c = _mat_vec_ints(minv, pts[r].coords)
    d = _mat_vec_ints(minv, pts[r + 1].coords)
    if not all(c) or not all(d) or any(
        c[i] * d[j] == c[j] * d[i] for i, j in combinations(range(r), 2)
    ):
        raise FrameDegenerateError("frame points are not in general position")
    scale = math.lcm(*c)
    return [[x * (scale // ci) for x in row] for row, ci in zip(minv, c)], c


def projectively_equivalent(
    c1: PointConfiguration, c2: PointConfiguration
) -> ProjectiveTransform | None:
    """The transform carrying c1 onto c2 pointwise in order, or None.

    Both configurations must have the same ambient rank r and n >= r + 2
    points, and c1 must have its first r + 2 points in general position;
    the frame normalization is then unique up to scale and equality is
    decided by comparing canonical forms. A degenerate frame in c2 alone
    gives None: projective maps preserve linear dependence of indexed
    points, so no map carries c1's frame onto it.
    """
    if c1.ambient_rank != c2.ambient_rank:
        raise ValueError("configurations have different ambient ranks")
    if len(c1) != len(c2):
        raise ValueError("configurations have different sizes")
    r = c1.ambient_rank
    if len(c1) < r + 2:
        raise ValueError(f"need at least {r + 2} points for a frame comparison")
    t1, _ = _frame_transform(c1)
    try:
        t2, c = _frame_transform(c2)
    except FrameDegenerateError:
        return None
    # t1 and t2 are invertible, so no normalized point is zero
    norm1 = [ProjectivePoint._of(_mat_vec_ints(t1, p.coords)) for p in c1.points]
    norm2 = [ProjectivePoint._of(_mat_vec_ints(t2, p.coords)) for p in c2.points]
    if norm1 != norm2:
        return None
    # t2 is proportional to diag(c)^-1 M2^-1, so M2 diag(c) t1 carries c1 onto c2;
    # its row i is t1^T times row i of M2 diag(c)
    cols = list(zip(*t1))
    m2c = [[ci * p.coords[i] for ci, p in zip(c, c2.points)] for i in range(r)]
    return ProjectiveTransform([_mat_vec_ints(cols, row) for row in m2c])
