"""Stability of weighted point configurations via the span criterion.

A configuration of n points in P^(r-1) with weight g is semistable when
every nonempty subset of k points spanning a proper subspace of linear
dimension s satisfies s >= k/g, and stable when the inequality is strict.
Only proper subspaces matter: the quantity k - g*s is the violation
margin, positive exactly for destabilizing subsets.

``classify`` prunes to subspaces spanned by the points themselves and
searches them by branch and bound (``_worst_flat``);
``oracle_classify`` enumerates every subset literally. The two must agree
and are kept as independent code paths on purpose.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import SubsetTooLargeError
from .exactgeom import (
    PointConfiguration,
    ScalarLike,
    _INT_RE,
    _Flat,
    _flats,
    _positive,
    _rank_ints,
)

DEFAULT_ORACLE_CAP = 12
ORACLE_CAP_ENV = "STAB_MAX_SUBSET_SIZE"


class StabilityClass(str, enum.Enum):
    STABLE = "Stable"
    STRICTLY_SEMISTABLE = "StrictlySemistable"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class Witness:
    """A subset realizing the worst violation margin.

    ``indices`` are 0-based point indices, closed under the span: every
    configuration point inside the spanned subspace is listed.
    """

    indices: tuple[int, ...]
    span_dim: int
    size: int

    def to_json(self) -> dict:
        return {
            "indices": list(self.indices),
            "span_dim": self.span_dim,
            "size": self.size,
        }


@dataclass(frozen=True)
class StabilityVerdict:
    """Class, witness and worst margin k - g*s over proper point-spanned subspaces.

    ``margin`` is None when no proper subspace exists (ambient rank 1).
    """

    classification: StabilityClass
    witness: Witness | None
    margin: Fraction | None

    @property
    def is_semistable(self) -> bool:
        return self.classification is not StabilityClass.UNSTABLE

    @property
    def is_stable(self) -> bool:
        return self.classification is StabilityClass.STABLE


def _verdict(best: _Flat | None, g: Fraction) -> StabilityVerdict:
    """The verdict for the worst (dim, members) subset: its margin k - g*s and witness."""
    if best is None:
        return StabilityVerdict(StabilityClass.STABLE, None, None)
    dim, members = best
    q = g.denominator
    # q times the margin, for g = p/q, so the Fraction is built once
    scaled = q * len(members) - g.numerator * dim
    margin = Fraction(scaled, q)
    if scaled < 0:
        return StabilityVerdict(StabilityClass.STABLE, None, margin)
    witness = Witness(indices=members, span_dim=dim, size=len(members))
    cls = (
        StabilityClass.UNSTABLE
        if scaled > 0
        else StabilityClass.STRICTLY_SEMISTABLE
    )
    return StabilityVerdict(cls, witness, margin)


def _worst_flat(
    config: PointConfiguration, g: Fraction, most: list[int] | None = None
) -> _Flat | None:
    """The worst flat: largest margin k - g*s, then smallest, then lex.

    Ranked by the key (p*s - q*k, k, members) for g = p/q, smallest first.
    Branch and bound: a flat below C has dimension at least dim C + 1 and
    at most ``reach`` members, so its key's first entry is at least
    p*(dim C + 1) - q*reach, and the search descends below C only while
    that bound does not exceed the best first entry so far (a tie may still
    win on size or lex order). A flat is kept only when its own first
    entry does not exceed that bound, since no other can win. Given
    ``most``, it records in ``most[s]`` the largest member count among the
    kept flats of dimension s; a flat not kept or in a pruned subtree may
    hold a larger one (see ``cohsys.equivalence_check`` for why its
    verdicts stay exact).
    """
    p, q = g.numerator, g.denominator
    bound = math.inf  # the best key's first entry so far
    best = None

    def descend(dim: int, reach: int) -> bool:
        return p * (dim + 1) - q * reach <= bound

    def keep(dim: int, k: int) -> bool:
        return p * dim - q * k <= bound

    for dim, members in _flats(config, descend, keep):
        k = len(members)
        if most is not None:
            most[dim] = max(most[dim], k)
        key = (p * dim - q * k, k, members)
        if best is None or key < best[0]:
            best, bound = (key, (dim, members)), key[0]
    return None if best is None else best[1]


def classify(config: PointConfiguration, g: ScalarLike) -> StabilityVerdict:
    """Stability class of the configuration for weight g.

    The witness, when present, is the point set of the subspace with the
    worst margin k - g*s, ties broken by smaller size then lexicographic
    index order. The verdict carries that margin.
    """
    weight = _positive(g, "weight g")
    return _verdict(_worst_flat(config, weight), weight)


def worst_subspace(config: PointConfiguration, g: ScalarLike) -> tuple[_Flat, Fraction]:
    """The (dim, members) flat W maximizing (#points in W) - g*dim(W), with that margin."""
    weight = _positive(g, "weight g")
    best = _worst_flat(config, weight)
    if best is None:
        raise ValueError("no proper point-spanned subspace exists (ambient rank 1)")
    dim, members = best
    return best, len(members) - weight * dim


def oracle_classify(config: PointConfiguration, g: ScalarLike) -> StabilityVerdict:
    """Same contract as classify, by exhaustive enumeration of all subsets.

    Refuses configurations larger than 12 points unless the environment
    variable STAB_MAX_SUBSET_SIZE raises the cap.
    """
    weight = _positive(g, "weight g")
    n = len(config)
    cap = DEFAULT_ORACLE_CAP
    override = os.environ.get(ORACLE_CAP_ENV)
    if override is not None:
        stripped = override.strip()
        if not _INT_RE.fullmatch(stripped):
            raise ValueError(f"{ORACLE_CAP_ENV} must be an integer")
        cap = int(stripped)
    if n > cap:
        raise SubsetTooLargeError(
            f"{n} points exceeds the exhaustive enumeration cap of {cap}"
        )
    r = config.ambient_rank
    rows = config.rows()
    proper = (
        (s, combo)
        for size in range(1, n + 1)
        for combo in combinations(range(n), size)
        if (s := _rank_ints([list(rows[i]) for i in combo])) < r
    )
    # the worst subset, ranked as classify ranks flats, in integers for g = p/q
    p, q = weight.numerator, weight.denominator
    worst = min(
        proper,
        key=lambda subset: (p * subset[0] - q * len(subset[1]), len(subset[1]), subset[1]),
        default=None,
    )
    return _verdict(worst, weight)
