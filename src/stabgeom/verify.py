"""Self-contained verification suite behind the verify-all command.

Each check runs one acceptance-level claim end to end, re-deriving
expected values independently where feasible (direct formulas, literal
enumeration, recomputed matrix products). Negative results are recorded
in the returned CheckResult, never raised, so a run always reports every
check. The hypersurface facts are checked here only: ``modhyp`` builds
its models, nodes, lines and points without checking them.
"""

from __future__ import annotations

import functools
import inspect
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .cohsys import (
    SystemType,
    critical_values,
    destabilizing_example_config,
    equivalence_check,
    stabilization_threshold,
    subsystem_violates,
)
from .exactgeom import _check_int, projectively_equivalent
from .gale import conic_parameter_points, gale_transform, is_self_associated, on_smooth_conic
from .gitstab import classify, oracle_classify
from .modhyp import (
    _BATCH,
    NVARS,
    AmbientPoint,
    _restricted_ranks,
    _singular_points,
    duality_check,
    igusa_lines,
    igusa_points,
    igusa_quartic,
    incidence_15_3,
    perfect_matchings,
    segre_cubic,
    segre_nodes,
    three_three_splits,
)
from .randconf import (
    _nonzero_vector,
    random_configuration,
    random_conic_parameters,
    random_frame_configuration,
    random_transform,
)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "check_git_oracle",
    "check_dictionary",
    "check_destabilizing_example",
    "check_thresholds",
    "check_gale",
    "check_segre_nodes",
    "check_igusa",
    "check_duality",
    "check_combinatorics",
    "run_all",
]

_SEED_STRIDE = 7_654_321


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float
    skipped: bool = False

    def to_json(self) -> dict:
        # wall-clock time is deliberately left out: output bytes must be
        # deterministic for a fixed seed
        return {
            "name": self.name,
            "passed": self.passed,
            "skipped": self.skipped,
            "detail": self.detail,
        }


def _check(name: str):
    """Time a check body returning ``(failures, detail)`` as the CheckResult ``name``.

    A failing result shows the first three failures in place of the detail.
    The check's ``skipped`` attribute is its result when run_all skips it.
    """

    def wrap(body):
        @functools.wraps(body)
        def run(*args, **kwargs) -> CheckResult:
            start = time.perf_counter()
            failures, detail = body(*args, **kwargs)
            elapsed = time.perf_counter() - start
            if failures:
                detail = "; ".join(failures[:3])
                if len(failures) > 3:
                    detail += f"; and {len(failures) - 3} more"
            return CheckResult(name, not failures, detail, elapsed)

        run.__signature__ = inspect.signature(body).replace(return_annotation="CheckResult")
        run.skipped = CheckResult(name, True, "skipped (samples=0)", 0.0, skipped=True)
        return run

    return wrap


@_check("git-oracle-agreement")
def check_git_oracle(cases: int = 1000, seed: int = 0) -> tuple[list[str], str]:
    """Pruned classifier against the literal all-subsets oracle, full verdicts."""
    _check_int(cases, "cases", 0)
    _check_int(seed, "seed", -math.inf)
    rng = random.Random(seed * _SEED_STRIDE + 11)
    weights = (2, 3, 4, Fraction(3, 2))
    failures: list[str] = []
    for i in range(cases):
        r = rng.choice((2, 3))
        n = rng.randint(4, 9)
        config = random_configuration(rng, r, n)
        g = rng.choice(weights)
        fast = classify(config, g)
        slow = oracle_classify(config, g)
        if fast != slow:
            failures.append(
                f"case {i}: classify={fast.classification.value} "
                f"oracle={slow.classification.value} rows={config.rows()} g={g}"
            )
    return failures, f"{cases}/{cases} random configurations agree, witnesses included"


@_check("dictionary-agreement")
def check_dictionary(cases: int = 1000, seed: int = 0) -> tuple[list[str], str]:
    """Span-criterion verdicts against the alpha test past the threshold."""
    _check_int(cases, "cases", 0)
    _check_int(seed, "seed", -math.inf)
    rng = random.Random(seed * _SEED_STRIDE + 22)
    failures: list[str] = []
    for i in range(cases):
        r = rng.choice((2, 3))
        g = rng.choice((2, 3, 4))
        config = random_configuration(rng, r, r * g)
        report = equivalence_check(config, g)
        if not report.agree:
            failures.append(
                f"case {i}: git={report.git.classification.value} "
                f"alpha_ss={report.alpha_semistable} alpha_s={report.alpha_stable} "
                f"rows={config.rows()} g={g}"
            )
    return failures, (
        f"{cases}/{cases} configurations: semistable and stable verdicts match both routes"
    )


@_check("destabilizing-example")
def check_destabilizing_example() -> tuple[list[str], str]:
    """The weight-g line configuration and its wall at alpha = 1."""
    failures: list[str] = []
    below = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10), Fraction(99, 100))
    at_or_above = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(10))
    for g in range(4, 9):
        config = destabilizing_example_config(g)
        verdict = classify(config, g)
        if verdict.classification.value != "Stable":
            failures.append(f"g={g}: expected Stable, got {verdict.classification.value}")
        walls = critical_values(SystemType(2, 2 * g, 2))
        if Fraction(1) not in walls:
            failures.append(f"g={g}: 1 missing from critical values {walls}")
        full = SystemType(2, 2 * g, 2)
        sub = SystemType(1, g + 1, 0)
        for a in below:
            if not subsystem_violates(full, sub, a):
                failures.append(f"g={g}: no violation at alpha={a} < 1")
        for a in at_or_above:
            if subsystem_violates(full, sub, a):
                failures.append(f"g={g}: spurious violation at alpha={a} >= 1")
    return failures, "g=4..8: configuration Stable, wall at 1 present, violation iff alpha < 1"


@_check("thresholds-and-walls")
def check_thresholds() -> tuple[list[str], str]:
    """Wall locations for types (r, rg, r) against the threshold g(r-1).

    For a section-deficient subtype (s, d', k') with k' < s the wall sits
    at (d' - gs)/(s - k'), which is at most g(r-s)/(s-k') <= g(r-1) since
    d' <= rg; the subtype then violates exactly strictly below its wall,
    so no violation from such a subtype survives past g(r-1). Equality at
    the threshold is attained (d' = rg, s = 1, k' = 0), which is what
    makes g(r-1) the last wall rather than a strict upper bound. The bound
    is proved here, not tested; the check tests the library's walls and violations.
    """
    failures: list[str] = []
    for r in range(1, 7):
        for g in range(1, 7):
            if stabilization_threshold(r, g) != g * (r - 1):
                failures.append(f"threshold({r},{g}) != {g * (r - 1)}")
    for r in range(2, 7):
        for g in range(1, 7):
            full = SystemType(r, r * g, r)
            threshold = Fraction(g * (r - 1))
            walls = set(critical_values(full))
            for s in range(1, r):
                for kp in range(0, s):
                    for dp in range(0, r * g + 1):
                        if dp <= g * s:
                            continue
                        alpha = Fraction(dp - g * s, s - kp)
                        if alpha not in walls:
                            failures.append(
                                f"(r,g,s,d',k')=({r},{g},{s},{dp},{kp}): "
                                f"wall {alpha} missing from critical_values"
                            )
            extremal = SystemType(1, r * g, 0)
            eps = Fraction(1, 1000)
            if not subsystem_violates(full, extremal, threshold - eps):
                failures.append(f"(r,g)=({r},{g}): no violation just below the threshold")
            if subsystem_violates(full, extremal, threshold):
                failures.append(f"(r,g)=({r},{g}): violation at the threshold itself")
            if subsystem_violates(full, extremal, threshold + 1):
                failures.append(f"(r,g)=({r},{g}): violation above the threshold")
    return failures, (
        "r,g <= 6: thresholds match g(r-1); section-deficient walls obey "
        "(d'-gs)/(s-k') <= g(r-s)/(s-k') <= g(r-1) with violations only strictly below"
    )


@_check("gale-involution-and-self-association")
def check_gale(
    involutions: int = 100, assoc_cases: int = 10, seed: int = 0
) -> tuple[list[str], str]:
    """Involution, the conic self-association criterion, and the product identity.

    ``GaleData`` recomputes each product G^T D G' and refuses a nonzero one with ValueError.
    """
    _check_int(involutions, "involutions", 0)
    _check_int(assoc_cases, "assoc_cases", 0)
    _check_int(seed, "seed", -math.inf)
    rng = random.Random(seed * _SEED_STRIDE + 33)
    failures: list[str] = []
    for i in range(involutions):
        config = random_frame_configuration(rng, 3, 6)
        try:
            once = gale_transform(config)
            twice = gale_transform(once.target)
            if projectively_equivalent(config, twice.target) is None:
                failures.append(
                    f"involution case {i}: double transform not equivalent, rows={config.rows()}"
                )
        except ValueError as exc:
            failures.append(f"involution case {i}: {type(exc).__name__}: {exc}")
    for i in range(assoc_cases):
        params = random_conic_parameters(rng)
        moved = conic_parameter_points(params).apply(random_transform(rng, 3))
        try:
            if not on_smooth_conic(moved):
                failures.append(f"conic case {i}: conic test rejects params {params}")
            if not is_self_associated(moved):
                failures.append(f"conic case {i}: not self-associated, params {params}")
        except ValueError as exc:
            failures.append(f"conic case {i}: {type(exc).__name__}: {exc}")
    done = 0
    while done < assoc_cases:
        config = random_frame_configuration(rng, 3, 6)
        if on_smooth_conic(config):
            continue
        try:
            if is_self_associated(config):
                failures.append(f"generic case {done}: self-associated off a conic, rows={config.rows()}")
        except ValueError as exc:
            failures.append(f"generic case {done}: {type(exc).__name__}: {exc}")
        done += 1
    return failures, (
        f"{involutions} involutions exact; {assoc_cases}+{assoc_cases} conic/generic "
        "self-association verdicts correct; every product recomputed to zero"
    )


@_check("segre-nodes")
def check_segre_nodes(search_points: int = 10_000, seed: int = 0) -> tuple[list[str], str]:
    """The ten nodes, their type, the split bijection, and a random search for strays."""
    _check_int(search_points, "samples", 0)
    _check_int(seed, "seed", -math.inf)
    model = segre_cubic()
    failures: list[str] = []
    nodes = segre_nodes()
    if len(nodes) != 10:
        failures.append(f"expected 10 nodes, got {len(nodes)}")
    coords_set = {n.point.coords for n in nodes}
    if len(coords_set) != 10:
        failures.append("nodes are not pairwise projectively distinct")
    points = [n.point for n in nodes]
    for node, singular, rank in zip(
        nodes, _singular_points(model, points), _restricted_ranks(model, points)
    ):
        if not singular:
            failures.append(f"node {node.point.coords} fails the singularity test")
        if rank != 4:
            failures.append(f"node {node.point.coords} restricted Hessian rank != 4")
        plus, minus = node.split
        signs = {i: 1 for i in plus}
        signs.update({i: -1 for i in minus})
        if any(node.point.coords[i] != signs[i] for i in range(NVARS)):
            failures.append(f"node {node.point.coords} does not match split {node.split}")
    splits = three_three_splits()
    if len(splits) != 10 or {n.split for n in nodes} != set(splits):
        failures.append("split labels are not a bijection onto the 10 partitions")
    rng = random.Random(seed * _SEED_STRIDE + 44)
    for start in range(0, search_points, _BATCH):
        size = min(_BATCH, search_points - start)
        draws = (_nonzero_vector(rng, NVARS - 1, 30) for _ in range(size))
        # each draw is nonzero, and the last entry makes the sum zero
        strays = [AmbientPoint._of(v + [-sum(v)]) for v in draws]
        for p, singular in zip(strays, _singular_points(model, strays)):
            if singular and p.coords not in coords_set:
                failures.append(f"stray singular point {p.coords}")
    # a stray is a failure, so a passing search found no extra singular point
    search = (
        f"{search_points} random hyperplane points, 0 extra singular"
        if search_points
        else "random search skipped"
    )
    return failures, (
        "10 nodes verified (F=0, constant gradient, Hessian rank 4), "
        f"split bijection holds; {search}"
    )


@_check("igusa-singular-locus")
def check_igusa() -> tuple[list[str], str]:
    """Singular lines and points of the quartic and the 15_3 incidence."""
    model = igusa_quartic()
    failures: list[str] = []
    lines = igusa_lines()
    if len(lines) != 15:
        failures.append(f"expected 15 lines, got {len(lines)}")
    # value and gradient differences have degree <= 4 in (t, u), so five
    # distinct ratios already prove the singularity of the whole line
    params = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (3, 2))
    cases = [(line, t, u) for line in lines for t, u in params]
    singular = _singular_points(model, [line.point_at(t, u) for line, t, u in cases])
    for (line, t, u), ok in zip(cases, singular):
        if not ok:
            failures.append(f"line {line.matching} not singular at (t,u)=({t},{u})")
    points = igusa_points()
    if len(points) != 15:
        failures.append(f"expected 15 points, got {len(points)}")
    for ip, singular in zip(points, _singular_points(model, [ip.point for ip in points])):
        if not singular:
            failures.append(f"distinguished point {ip.point.coords} not singular")
    structure = incidence_15_3()
    if len(structure.flags) != 45:
        failures.append(f"expected 45 flags, got {len(structure.flags)}")
    for pair in structure.points:
        if len(structure.lines_through(pair)) != 3:
            failures.append(f"pair {pair} not on exactly 3 lines")
    for matching in structure.lines:
        if len(structure.points_on(matching)) != 3:
            failures.append(f"matching {matching} not through exactly 3 points")
    geometric = {
        (ip.pair, line.matching)
        for ip in points
        for line in lines
        if line.contains(ip.point)
    }
    if geometric != set(structure.flags):
        failures.append("geometric incidence differs from matching membership")
    return failures, (
        "15 lines singular at 6 parameter ratios each, 15 points singular, "
        "45 geometric flags equal the abstract 15_3"
    )


@_check("polar-duality")
def check_duality(samples: int = 200, seed: int = 0) -> tuple[list[str], str]:
    """Both polar directions, exactly, on every sampled cubic point."""
    report = duality_check(samples, seed)
    failures: list[str] = []
    if not report.passed:
        failures.append(
            f"identities: forward {report.forward_ok}/{samples}, reverse "
            f"{report.reverse_ok}/{samples} ({report.reverse_skipped} skipped)"
        )
        failures += [f"{d} counterexample at {c}" for d, c in report.counterexamples]
    return failures, (
        f"{samples}/{samples} forward and {samples}/{samples} reverse identities hold exactly"
    )


@_check("matching-combinatorics")
def check_combinatorics() -> tuple[list[str], str]:
    """Counting identities for matchings, splits, and incidence degrees."""
    failures: list[str] = []
    matchings = perfect_matchings()
    expected = math.factorial(NVARS) // (2 ** (NVARS // 2) * math.factorial(NVARS // 2))
    if len(matchings) != expected:
        failures.append(f"matching count {len(matchings)} (formula gives {expected})")
    if len(set(matchings)) != len(matchings):
        failures.append("matchings are not pairwise distinct")
    for m in matchings:
        if len(m) != 3 or sorted(i for pair in m for i in pair) != list(range(NVARS)):
            failures.append(f"matching {m} is not a partition into 3 pairs")
    for a in range(NVARS):
        for b in range(a + 1, NVARS):
            degree = sum((a, b) in m for m in matchings)
            if degree != 3:
                failures.append(f"edge ({a},{b}) lies in {degree} matchings")
    splits = three_three_splits()
    if len(splits) != math.comb(NVARS, 3) // 2 or len(set(splits)) != len(splits):
        failures.append(f"split count {len(splits)}")
    return failures, "15 matchings of size 3, every edge in exactly 3; 10 splits"


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]
    samples: int
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "samples": self.samples,
            "seed": self.seed,
            "checks": [c.to_json() for c in self.checks],
        }


def run_all(samples: int = 200, seed: int = 0) -> VerificationReport:
    """Every check in order, each at its default size; samples=0 skips the randomized ones.

    The fixed-example and combinatorial checks always run; samples sizes
    only the duality sample set.
    """
    _check_int(samples, "samples", 0)
    _check_int(seed, "seed", -math.inf)
    randomized = samples > 0
    checks = (
        check_git_oracle(seed=seed) if randomized else check_git_oracle.skipped,
        check_dictionary(seed=seed) if randomized else check_dictionary.skipped,
        check_destabilizing_example(),
        check_thresholds(),
        check_gale(seed=seed) if randomized else check_gale.skipped,
        check_segre_nodes(seed=seed) if randomized else check_segre_nodes(0),
        check_igusa(),
        check_duality(samples, seed) if randomized else check_duality.skipped,
        check_combinatorics(),
    )
    return VerificationReport(checks, samples, seed)
