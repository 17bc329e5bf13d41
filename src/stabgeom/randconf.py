"""Seeded generators for random configurations and transforms.

Verification plumbing: every generator takes an explicit random.Random,
so the checks and the test suite are reproducible byte for byte.
"""

from __future__ import annotations

import random

from .errors import FrameDegenerateError
from .exactgeom import (
    PointConfiguration,
    ProjectivePoint,
    ProjectiveTransform,
    _frame_transform,
    rank,
)

__all__ = [
    "random_vector",
    "random_configuration",
    "random_transform",
    "random_frame_configuration",
    "random_conic_parameters",
]


def random_vector(rng: random.Random, length: int, bound: int = 5) -> list[int]:
    while True:
        v = [rng.randint(-bound, bound) for _ in range(length)]
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
        points.append(ProjectivePoint(random_vector(rng, ambient_rank)))
    return PointConfiguration(ambient_rank, points)


def random_transform(rng: random.Random, n: int, bound: int = 5) -> ProjectiveTransform:
    while True:
        m = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if rank(m) == n:
            return ProjectiveTransform(m)


def random_frame_configuration(
    rng: random.Random, ambient_rank: int, count: int, bound: int = 9
) -> PointConfiguration:
    """Random points whose first rank+2 form a frame in general position."""
    if count < ambient_rank + 2:
        raise ValueError("need at least rank + 2 points for a frame")
    while True:
        points = [
            ProjectivePoint(random_vector(rng, ambient_rank, bound))
            for _ in range(count)
        ]
        config = PointConfiguration(ambient_rank, points)
        try:
            _frame_transform(config)
        except FrameDegenerateError:
            continue
        return config


def random_conic_parameters(rng: random.Random, count: int = 6) -> list[int]:
    """Pairwise distinct integer parameters for points on the standard conic."""
    return rng.sample(range(-12, 13), count)
