"""Slope arithmetic for coherent systems and the span-criterion dictionary.

A system type (r, d, k) has alpha-slope d/r + alpha*k/r. Walls are the
positive alpha where a numerically possible subsystem type has equal
slope; past g*(r-1) no wall from a subtype with fewer sections per rank
remains, which is why the alpha-side test below is alpha-independent for
the subsystem types a point configuration produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SizeMismatchError
from .exactgeom import (
    PointConfiguration,
    ProjectivePoint,
    ScalarLike,
    _check_int,
    _entries,
    _flats,
    _positive,
    format_scalar,
    parse_scalar,
)
from .gitstab import StabilityVerdict, _verdict, _worst_flat


@dataclass(frozen=True)
class SystemType:
    """Numerical type (rank, degree, number of sections) of a coherent system."""

    r: int
    d: int
    k: int

    def __post_init__(self):
        _check_int(self.r, "rank", 1)
        _check_int(self.d, "degree", 0)
        _check_int(self.k, "section count", 0)


def alpha_slope(t: SystemType, alpha: ScalarLike) -> Fraction:
    """mu_alpha = d/r + alpha * k/r."""
    a = parse_scalar(alpha)
    return Fraction(t.d, t.r) + a * Fraction(t.k, t.r)


def critical_values(
    t: SystemType,
    *,
    degree_bound: int | None = None,
    section_bound: int | None = None,
) -> tuple[Fraction, ...]:
    """The sorted distinct positive alpha where a subsystem type (s, d', k') matches t's slope.

    Ranges over 1 <= s <= r-1, 0 <= d' <= degree_bound (default d),
    0 <= k' <= section_bound (default k), skipping k'/s == k/r where no
    finite wall exists. The wall is (s*d - r*d') / (r*k' - s*k), so only
    the d' on the side of s*d/r that makes it positive are visited.
    """
    d_max = t.d if degree_bound is None else _check_int(degree_bound, "degree bound", 0)
    k_max = t.k if section_bound is None else _check_int(section_bound, "section bound", 0)
    found: set[Fraction] = set()
    for s in range(1, t.r):
        for kp in range(k_max + 1):
            den = t.r * kp - s * t.k
            if den > 0:  # positive for r*d' < s*d
                dps = range(min(d_max, (s * t.d - 1) // t.r) + 1)
            elif den < 0:  # positive for r*d' > s*d
                dps = range(s * t.d // t.r + 1, d_max + 1)
            else:
                continue
            found.update(Fraction(s * t.d - t.r * dp, den) for dp in dps)
    return tuple(sorted(found))


def stabilization_threshold(r: int, g: int) -> int:
    """g*(r-1): above this alpha no new wall from section-deficient subtypes opens."""
    _check_int(r, "rank", 1)
    _check_int(g, "weight", 1)
    return g * (r - 1)


def subsystem_types_from_config(config: PointConfiguration) -> list[SystemType]:
    """Maximal span-derived subsystem types (s, d_max(s), s) for s = 1..r-1.

    d_max(s) is the largest number of configuration points lying in a
    common subspace of linear dimension at most s.
    """
    most = [0] * config.ambient_rank
    # a flat below one of dimension dim has dimension dim + 1 or more and at
    # most reach members, so it can raise a prefix maximum max(most[:s + 1])
    # only if reach exceeds max(most[:dim + 2]); most[s] itself may stay low.
    # A flat is kept only if it raises most[dim].
    for dim, members in _flats(
        config,
        lambda dim, reach: reach > max(most[: dim + 2]),
        lambda dim, k: k > most[dim],
    ):
        most[dim] = max(most[dim], len(members))
    return _subsystem_types(most)


def _subsystem_types(most: list[int]) -> list[SystemType]:
    """The types (s, d_max(s), s) from the largest member count per dim."""
    return [SystemType(s, max(most[: s + 1]), s) for s in range(1, len(most))]


def _check_size(config: PointConfiguration, g: ScalarLike) -> Fraction:
    weight = parse_scalar(g)
    if weight <= 0 or weight.denominator != 1:
        raise ValueError("g must be a positive integer")
    if len(config) != config.ambient_rank * weight:
        raise SizeMismatchError(
            f"expected r*g = {config.ambient_rank}*{weight} points, got {len(config)}"
        )
    return weight


def _alpha_verdicts(
    types: list[SystemType], weight: Fraction, a: Fraction
) -> tuple[bool, bool]:
    """(semistable, stable): every type has d/s + alpha <= g + alpha, resp. <."""
    slopes = [alpha_slope(t, a) for t in types]
    return all(m <= weight + a for m in slopes), all(m < weight + a for m in slopes)


@dataclass(frozen=True)
class EquivalenceReport:
    """Side-by-side span-criterion and alpha-slope verdicts for one configuration."""

    git: StabilityVerdict
    alpha: Fraction
    alpha_semistable: bool
    alpha_stable: bool

    @property
    def agree(self) -> bool:
        return (
            self.git.is_semistable == self.alpha_semistable
            and self.git.is_stable == self.alpha_stable
        )

    def to_json(self) -> dict:
        return {
            "git_class": self.git.classification.value,
            "alpha": format_scalar(self.alpha),
            "alpha_semistable": self.alpha_semistable,
            "alpha_stable": self.alpha_stable,
            "agree": self.agree,
        }


def equivalence_check(config: PointConfiguration, g: ScalarLike) -> EquivalenceReport:
    """Compare the span-criterion verdict with the alpha test past the threshold.

    Uses alpha = g*(r-1) + 1, strictly above every wall the span-derived
    types can produce, so the comparison is wall-free. Both routes read
    one search of the point-spanned subspaces, pruned by the margin bound
    alone: the worst flat is picked while ``most[s]`` records the largest
    member count among the kept flats of dimension s. The recorded types
    may fall short of ``subsystem_types_from_config``, but the alpha
    verdicts do not:

    - A type (s, d, s) has slope d/s + alpha and the full type g + alpha,
      so semistable means d_s <= g*s for every s and stable d_s < g*s,
      where d_s = max(most[:s + 1]).
    - A recorded count is the size of a flat of that dimension, so it
      never exceeds the exact d_max(s), and an exact verdict that is true
      stays true.
    - If some exact d_max(s) > g*s, a flat F of dimension at most s has
      |F| - g*dim F > 0, so the worst margin is positive. The bound skips
      only subtrees whose every key is worse than one already met, so the
      worst flat W is always met; its key's first entry is at most that
      of every flat, so it is always kept, and d_(dim W) >= |W| > g*dim W:
      the recorded verdict is false as well.
    - Stability is the same argument with >= 0 in place of > 0.
    """
    weight = _check_size(config, g)
    r = config.ambient_rank
    alpha = Fraction(stabilization_threshold(r, int(weight)) + 1)
    most = [0] * r
    git = _verdict(_worst_flat(config, weight, most), weight)
    semistable, stable = _alpha_verdicts(_subsystem_types(most), weight, alpha)
    return EquivalenceReport(
        git=git,
        alpha=alpha,
        alpha_semistable=semistable,
        alpha_stable=stable,
    )


def subsystem_violates(full: SystemType, sub: SystemType, alpha: ScalarLike) -> bool:
    """Whether the subsystem type has strictly larger alpha-slope than the full type."""
    if full == sub:
        raise ValueError("subsystem type must differ from the full type")
    a = _positive(alpha, "alpha")
    return alpha_slope(sub, a) > alpha_slope(full, a)


def destabilizing_example_config(
    genus: int, lambdas: list[ScalarLike] | None = None
) -> PointConfiguration:
    """The classical weight-g configuration on the line that stays stable.

    genus - 1 coincident points at [1:0] plus genus + 1 pairwise distinct
    points [lambda_i : 1] with nonzero lambda_i; 2*genus points in total.
    """
    _check_int(genus, "genus", 2)
    if lambdas is None:
        values = [Fraction(i) for i in range(1, genus + 2)]
    else:
        values = [parse_scalar(l) for l in _entries(lambdas, "the lambdas")]
    if len(values) != genus + 1:
        raise ValueError(f"need exactly {genus + 1} lambda values")
    if any(v == 0 for v in values):
        raise ValueError("lambda values must be nonzero")
    if len(set(values)) != len(values):
        raise ValueError("lambda values must be pairwise distinct")
    points = [ProjectivePoint([1, 0]) for _ in range(genus - 1)]
    points += [ProjectivePoint([v, 1]) for v in values]
    return PointConfiguration(2, points)
