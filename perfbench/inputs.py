"""Seeded inputs for the benchmark workloads.

The generator is the benchmark's own and never calls ``stabgeom.randconf``,
so cleaning up the program's generators cannot shift the inputs. A
workload is a list of cycles; a cycle is a fixed mix of operations, and a
run always completes whole cycles, so every run sees the same mix
whatever its length. The program receives only the JSON files written
here and the argv of each operation.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd

# (r, n, operations per cycle); g cycles through CLASSIFY_WEIGHTS along a
# cell's operations. Each latency quantile falls inside a block of one
# cell, so it is the latency of that cell rather than a step between two:
# with the six equivalence cells a cycle is 90 operations, the median
# falls among the 15 of r=3, n=20 (about 25 ms) and the 90th percentile
# among the 9 of r=5, n=12 (about 0.2 s). Only the 4 operations at
# r=5, n=15 are slower.
CLASSIFY_CELLS = (
    (3, 5, 3), (3, 6, 3), (3, 8, 3), (3, 9, 3), (3, 10, 3), (3, 12, 3), (3, 14, 3), (3, 16, 3),
    (4, 6, 3), (4, 7, 3), (4, 8, 3), (5, 7, 3),
    (3, 20, 15), (4, 10, 3),
    (3, 24, 3), (4, 12, 3), (3, 32, 3), (5, 10, 3), (4, 16, 3),
    (5, 12, 9), (4, 20, 3), (5, 15, 3),
)
CLASSIFY_WEIGHTS = ("2", "3", "3/2")
EQUIVALENCE_CELLS = ((3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3))

# (command, count per cycle). The groups are ordered by latency; the median
# falls inside the 20 gale (5, 20) operations and the 90th percentile
# inside the 8 duality operations, away from the step between groups.
GEOMETRY_MIX = (
    ("gale-conic", 6),
    ("gale-3-12", 8),
    ("gale-5-20", 20),
    ("segre", 6),
    ("gale-8-30", 8),
    ("duality", 8),
    ("igusa", 1),
    ("incidence", 1),
)
SEGRE_SEARCH = 200
DUALITY_SAMPLES = 60

# Cycles generated up front. A run stops early if it uses them all, which
# only happens once the program is several times faster than today.
CYCLES = {"classify": 12, "geometry": 16}

# The smoke test's sizes: every command kind, each a few milliseconds.
TINY_CLASSIFY_CELLS = ((3, 5, 3), (3, 6, 3), (4, 6, 3))
TINY_EQUIVALENCE_CELLS = ((3, 2),)
TINY_GEOMETRY_MIX = (("gale-conic", 1), ("gale-3-12", 1), ("segre", 1), ("duality", 1))
TINY_CYCLES = 2


@dataclass
class Op:
    """One CLI invocation and what its output is checked against."""

    kind: str
    argv: list[str]
    meta: dict = field(default_factory=dict)


def canonical(vec) -> tuple[int, ...]:
    """Primitive integer vector with positive leading entry; the projective point."""
    fracs = [Fraction(x) for x in vec]
    scale = 1
    for f in fracs:
        scale = scale * f.denominator // gcd(scale, f.denominator)
    ints = [int(f * scale) for f in fracs]
    g = gcd(*ints)
    ints = [v // g for v in ints]
    if next(v for v in ints if v) < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def int_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    width = len(m[0])
    rk, prev = 0, 1
    for col in range(width):
        piv = next((i for i in range(rk, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        p = m[rk][col]
        for i in range(rk + 1, len(m)):
            v = m[i][col]
            m[i] = [(p * a - v * b) // prev for a, b in zip(m[i], m[rk])]
        prev = p
        rk += 1
    return rk


def _free_vector(rng: random.Random, r: int, bound: int) -> list[int]:
    while True:
        v = [rng.randint(-bound, bound) for _ in range(r)]
        if any(v):
            return v


def degenerate_configuration(rng: random.Random, r: int, n: int) -> list[list[int]]:
    """n points in rank r with exact degeneracy shares.

    n // 4 points repeat an earlier point and, for r >= 3, a further n // 5
    lie on the line through two earlier distinct points; the rest are
    free. Fixing the counts, not just their rates, keeps the number of
    flats, and so the time per operation, from swinging between seeds.
    """
    repeats = n // 4
    on_lines = n // 5 if r >= 3 else 0
    kinds = ["repeat"] * repeats + ["line"] * on_lines + ["free"] * (n - 2 - repeats - on_lines)
    rng.shuffle(kinds)
    while True:
        first = [_free_vector(rng, r, 5) for _ in range(2)]
        if canonical(first[0]) != canonical(first[1]):
            break
    points = first
    for kind in kinds:
        if kind == "repeat":
            points.append(list(rng.choice(points)))
        elif kind == "line":
            while True:
                a, b = rng.sample(points, 2)
                t = rng.choice((-2, -1, 1, 2, 3))
                combo = [x + t * y for x, y in zip(a, b)]
                if canonical(a) != canonical(b) and any(combo):
                    break
            points.append(combo)
        else:
            points.append(_free_vector(rng, r, 5))
    return points


def frame_configuration(rng: random.Random, r: int, n: int) -> list[list[int]]:
    """n random points whose first r + 2 are in general position."""
    while True:
        points = [_free_vector(rng, r, 9) for _ in range(n)]
        head = points[: r + 2]
        if all(int_rank(sub) == r for sub in combinations(head, r)):
            return points


def conic_configuration(rng: random.Random) -> list[list[int]]:
    """Six points [t : t^2 : 1] on a smooth conic, moved by a random invertible map."""
    params = rng.sample(range(-12, 13), 6)
    while True:
        m = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        if int_rank(m) == 3:
            break
    return [[sum(row[k] * p[k] for k in range(3)) for row in m] for p in ([t, t * t, 1] for t in params)]


def _write(directory: str, name: str, r: int, points: list[list[int]]) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"ambient_rank": r, "points": points}, fh)
    return path


def _distinct_configuration(rng, r, n, seen):
    while True:
        points = degenerate_configuration(rng, r, n)
        key = (r, tuple(canonical(p) for p in points))
        if key not in seen:
            seen.add(key)
            return points


def classify_cycles(seed: int | str, directory: str, tiny: bool) -> list[list[Op]]:
    rng = random.Random(f"classify-{seed}")
    cells = TINY_CLASSIFY_CELLS if tiny else CLASSIFY_CELLS
    equivalence = TINY_EQUIVALENCE_CELLS if tiny else EQUIVALENCE_CELLS
    seen: set = set()
    cycles = []
    for c in range(TINY_CYCLES if tiny else CYCLES["classify"]):
        ops = []
        for r, n, count in cells:
            for i in range(count):
                g = CLASSIFY_WEIGHTS[i % len(CLASSIFY_WEIGHTS)]
                points = _distinct_configuration(rng, r, n, seen)
                path = _write(directory, f"c{c}-{len(ops)}.json", r, points)
                ops.append(Op("git-classify", ["git-classify", "--g", g, "--input", path],
                              {"r": r, "g": g, "points": points}))
        for r, g in equivalence:
            points = _distinct_configuration(rng, r, r * g, seen)
            path = _write(directory, f"c{c}-{len(ops)}.json", r, points)
            ops.append(Op("equivalence", ["equivalence", "--g", str(g), "--input", path],
                          {"r": r, "g": str(g), "points": points}))
        cycles.append(ops)
    return cycles


def geometry_cycles(seed: int | str, directory: str, tiny: bool) -> list[list[Op]]:
    rng = random.Random(f"geometry-{seed}")
    used_seeds: set[int] = set()

    def op_seed() -> str:
        while True:
            s = rng.randrange(10**9)
            if s not in used_seeds:
                used_seeds.add(s)
                return str(s)

    cycles = []
    for c in range(TINY_CYCLES if tiny else CYCLES["geometry"]):
        ops = []
        for kind, count in TINY_GEOMETRY_MIX if tiny else GEOMETRY_MIX:
            for _ in range(count):
                name = f"c{c}-{len(ops)}.json"
                if kind == "gale-conic":
                    points = conic_configuration(rng)
                    path = _write(directory, name, 3, points)
                    ops.append(Op("gale", ["gale", "--input", path], {"r": 3, "points": points, "conic": True}))
                elif kind.startswith("gale-"):
                    r, n = (int(x) for x in kind.split("-")[1:])
                    points = frame_configuration(rng, r, n)
                    path = _write(directory, name, r, points)
                    ops.append(Op("gale", ["gale", "--input", path], {"r": r, "points": points, "conic": False}))
                elif kind == "segre":
                    search = 10 if tiny else SEGRE_SEARCH
                    ops.append(Op("segre", ["hypersurface", "verify", "segre", "--samples", str(search), "--seed", op_seed()]))
                elif kind == "duality":
                    samples = 2 if tiny else DUALITY_SAMPLES
                    ops.append(Op("duality", ["hypersurface", "verify", "duality", "--samples", str(samples),
                                              "--seed", op_seed()], {"samples": samples}))
                elif kind == "igusa":
                    ops.append(Op("igusa", ["hypersurface", "verify", "igusa"]))
                else:
                    ops.append(Op("incidence", ["incidence"]))
        cycles.append(ops)
    return cycles


GENERATORS = {"classify": classify_cycles, "geometry": geometry_cycles}


def properties(workload: str, cycles: list[list[Op]]) -> dict:
    """The input properties the program's behaviour depends on, as measured."""
    ops = [op for ops in cycles for op in ops]
    mix: dict[str, int] = {}
    for op in ops:
        if "points" in op.meta:
            key = f"{op.kind} r={op.meta['r']} n={len(op.meta['points'])}"
            key += f" g={op.meta['g']}" if "g" in op.meta else ""
        else:
            key = " ".join(op.argv[:3]) if op.kind != "incidence" else "incidence"
        mix[key] = mix.get(key, 0) + 1
    out: dict = {"ops_per_cycle": len(cycles[0]), "cycles_generated": len(cycles),
                 "mix_per_cycle": {k: v // len(cycles) for k, v in mix.items()}}
    configs = [op.meta for op in ops if "points" in op.meta]
    if configs:
        points = sum(len(m["points"]) for m in configs)
        repeated = sum(len(m["points"]) - len({canonical(v) for v in m["points"]}) for m in configs)
        keys = {(m["r"], tuple(canonical(v) for v in m["points"])) for m in configs}
        out["point_repeat_share"] = round(repeated / points, 4)
        out["configs_repeated_across_ops_share"] = round(1 - len(keys) / len(configs), 4)
        if workload == "classify":
            on_lines = sum(len(m["points"]) // 5 for m in configs if m["r"] >= 3)
            out["collinear_share"] = round(on_lines / points, 4)
    return out
