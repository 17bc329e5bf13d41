"""Seeded generators for random configurations and transforms.

Verification plumbing: every generator takes an explicit random.Random,
so the checks and the test suite are reproducible byte for byte.

Every coordinate and matrix entry is drawn through ``_randints``, which draws
``rng.getrandbits(width.bit_length())`` and rejects values of at least
the width of the range. That is how ``randint`` draws on CPython
3.10-3.13, so a seed gives the same values as ``randint`` would, and the
points of a seed are unchanged. A rank or size below 1 is refused up
front: no draw could then end.
"""

from __future__ import annotations

import random

from .errors import FrameDegenerateError
from .exactgeom import (
    PointConfiguration,
    ProjectivePoint,
    ProjectiveTransform,
    _check_int,
    _frame_transform,
    rank,
)

__all__ = [
    "random_configuration",
    "random_transform",
    "random_frame_configuration",
    "random_conic_parameters",
]


def _randints(rng: random.Random, low: int, high: int, count: int) -> list[int]:
    """``[rng.randint(low, high) for _ in range(count)]``, with the same draws.

    ``randint(low, high)`` is ``low + _randbelow(high - low + 1)``, and
    ``_randbelow(width)`` draws ``getrandbits(width.bit_length())`` until the
    value is below the width; this does the same through the public
    ``getrandbits``, in one frame for all ``count`` values. Needs low <= high.
    """
    width = high - low + 1
    bits = width.bit_length()
    draw = rng.getrandbits
    out = []
    for _ in range(count):
        r = draw(bits)
        while r >= width:
            r = draw(bits)
        out.append(low + r)
    return out


def _nonzero_vector(rng: random.Random, length: int, bound: int) -> list[int]:
    """A nonzero vector with entries in [-bound, bound]; unchecked, so needs length, bound >= 1."""
    while True:
        v = _randints(rng, -bound, bound, length)
        if any(v):
            return v


def random_configuration(
    rng: random.Random, ambient_rank: int, count: int
) -> PointConfiguration:
    """Random configuration with a deliberate mix of degeneracies.

    Roughly a quarter of the points repeat an earlier one and, in rank 3
    and up, a further slice lands on the line through two earlier points,
    so coincident and collinear patterns show up at useful rates.
    """
    _check_int(ambient_rank, "ambient_rank", 1)
    points: list[ProjectivePoint] = []
    for _ in range(count):
        roll = rng.random()
        if points and roll < 0.25:
            points.append(rng.choice(points))
            continue
        if ambient_rank >= 3 and len(points) >= 2 and roll < 0.45:
            a, b = rng.sample(points, 2)
            t = rng.choice((-2, -1, 1, 2, 3))
            combo = [x + t * y for x, y in zip(a.coords, b.coords)]
            if any(combo):
                points.append(ProjectivePoint(combo))
                continue
        points.append(ProjectivePoint(_nonzero_vector(rng, ambient_rank, 5)))
    return PointConfiguration(ambient_rank, points)


def random_transform(rng: random.Random, n: int) -> ProjectiveTransform:
    """An invertible n x n integer matrix with entries in [-5, 5]."""
    _check_int(n, "n", 1)
    while True:
        m = [_randints(rng, -5, 5, n) for _ in range(n)]
        if rank(m) == n:
            return ProjectiveTransform(m)


def random_frame_configuration(
    rng: random.Random, ambient_rank: int, count: int
) -> PointConfiguration:
    """Random points with entries in [-9, 9] whose first rank+2 form a frame in general position."""
    _check_int(ambient_rank, "ambient_rank", 1)
    if count < ambient_rank + 2:
        raise ValueError("need at least rank + 2 points for a frame")
    while True:
        points = [
            ProjectivePoint(_nonzero_vector(rng, ambient_rank, 9))
            for _ in range(count)
        ]
        config = PointConfiguration(ambient_rank, points)
        try:
            _frame_transform(config)
        except FrameDegenerateError:
            continue
        return config


def random_conic_parameters(rng: random.Random) -> list[int]:
    """Six pairwise distinct integer parameters in [-12, 12] for points on the standard conic."""
    return rng.sample(range(-12, 13), 6)
