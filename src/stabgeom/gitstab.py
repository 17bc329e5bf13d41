"""Stability of weighted point configurations via the span criterion.

A configuration of n points in P^(r-1) with weight g is semistable when
every nonempty subset of k points spanning a proper subspace of linear
dimension s satisfies s >= k/g, and stable when the inequality is strict.
Only proper subspaces matter: the quantity k - g*s is the violation
margin, positive exactly for destabilizing subsets.

``classify`` prunes to subspaces spanned by the points themselves;
``oracle_classify`` enumerates every subset literally. The two must agree
and are kept as independent code paths on purpose.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .errors import SubsetTooLargeError
from .exactgeom import (
    PointConfiguration,
    ScalarLike,
    SpannedSubspace,
    _Flat,
    _flats,
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
    weight_g: Fraction
    margin: Fraction | None

    @property
    def is_semistable(self) -> bool:
        return self.classification is not StabilityClass.UNSTABLE

    @property
    def is_stable(self) -> bool:
        return self.classification is StabilityClass.STABLE


@dataclass(frozen=True)
class _Candidate:
    margin: Fraction
    size: int
    indices: tuple[int, ...]
    span: int


def _prefer(a: _Candidate, b: _Candidate) -> bool:
    """Whether a beats b as the reported witness: worst margin, then smallest, then lex."""
    if a.margin != b.margin:
        return a.margin > b.margin
    if a.size != b.size:
        return a.size < b.size
    return a.indices < b.indices


def _coerce_weight(g: ScalarLike) -> Fraction:
    weight = Fraction(g)
    if weight <= 0:
        raise ValueError("weight g must be positive")
    return weight


def _verdict(best: _Candidate | None, g: Fraction) -> StabilityVerdict:
    margin = None if best is None else best.margin
    if margin is None or margin < 0:
        return StabilityVerdict(StabilityClass.STABLE, None, g, margin)
    witness = Witness(indices=best.indices, span_dim=best.span, size=best.size)
    cls = (
        StabilityClass.UNSTABLE
        if margin > 0
        else StabilityClass.STRICTLY_SEMISTABLE
    )
    return StabilityVerdict(cls, witness, g, margin)


def _best_point_spanned(flats: Iterable[_Flat], g: Fraction) -> _Candidate | None:
    """The (dim, members) flat _prefer ranks first, compared in integers as q*k - p*s for g = p/q."""
    p, q = g.numerator, g.denominator
    best = min(
        flats,
        key=lambda flat: (p * flat[0] - q * len(flat[1]), len(flat[1]), flat[1]),
        default=None,
    )
    if best is None:
        return None
    dim, members = best
    return _Candidate(len(members) - g * dim, len(members), members, dim)


def classify(config: PointConfiguration, g: ScalarLike) -> StabilityVerdict:
    """Stability class of the configuration for weight g.

    The witness, when present, is the point set of the subspace with the
    worst margin k - g*s, ties broken by smaller size then lexicographic
    index order. The verdict carries that margin.
    """
    weight = _coerce_weight(g)
    return _verdict(_best_point_spanned(_flats(config), weight), weight)


def worst_subspace(
    config: PointConfiguration, g: ScalarLike
) -> tuple[SpannedSubspace, Fraction]:
    """The proper point-spanned subspace maximizing (#points in W) - g*dim(W), with that margin."""
    weight = _coerce_weight(g)
    best = _best_point_spanned(_flats(config), weight)
    if best is None:
        raise ValueError("no proper point-spanned subspace exists (ambient rank 1)")
    return SpannedSubspace(best.span, best.indices, config.rows()), best.margin


def oracle_classify(config: PointConfiguration, g: ScalarLike) -> StabilityVerdict:
    """Same contract as classify, by exhaustive enumeration of all subsets.

    Refuses configurations larger than 12 points unless the environment
    variable STAB_MAX_SUBSET_SIZE raises the cap.
    """
    weight = _coerce_weight(g)
    n = len(config)
    cap = DEFAULT_ORACLE_CAP
    override = os.environ.get(ORACLE_CAP_ENV)
    if override is not None:
        try:
            cap = int(override)
        except ValueError as exc:
            raise ValueError(f"{ORACLE_CAP_ENV} must be an integer") from exc
    if n > cap:
        raise SubsetTooLargeError(
            f"{n} points exceeds the exhaustive enumeration cap of {cap}"
        )
    r = config.ambient_rank
    rows = config.rows()
    best: _Candidate | None = None
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            s = _rank_ints([list(rows[i]) for i in combo])
            if s >= r:
                continue
            cand = _Candidate(
                margin=size - weight * s, size=size, indices=combo, span=s
            )
            if best is None or _prefer(cand, best):
                best = cand
    return _verdict(best, weight)
