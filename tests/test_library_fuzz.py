"""The library's argument contract under hostile arguments.

Every public function pinned in ``test_public_api.py`` that takes a scalar,
a vector, a matrix or a mapping either returns or raises a ``StabgeomError``
or a ``ValueError`` (Python's int-string digit limit included) when one
argument is replaced by a hostile value, or a part of one is. It never
raises ``TypeError``, ``AttributeError``, ``ZeroDivisionError`` or
``RecursionError``. Positions that take a configuration, a model, a type or
an ``AmbientPoint`` object are held fixed: a value that is not one may stay
a ``TypeError`` or ``AttributeError`` (README). Size arguments (genus,
count, samples, bounds) never get a huge int, which would allocate or loop
that many times; they get every other hostile atom.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stabgeom import (
    AmbientPoint,
    GaleData,
    PointConfiguration,
    ProjectivePoint,
    ProjectiveTransform,
    SchemaError,
    SymmetricHypersurfaceModel,
    SystemType,
    alpha_slope,
    classify,
    conic_parameter_points,
    critical_values,
    destabilizing_example_config,
    duality_check,
    equivalence_check,
    format_scalar,
    gale_transform,
    igusa_lines,
    igusa_quartic,
    oracle_classify,
    parse_scalar,
    rank,
    run_all,
    sample_segre_points,
    segre_cubic,
    stabilization_threshold,
    subsystem_violates,
    worst_subspace,
)

from helpers import config_of, standard_six_config

# under the 4300-digit int-string limit, so a failing example can be printed;
# the 5000-digit string reaches that limit when parsed
HUGE = 10**4000

atoms = st.one_of(
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
    st.sampled_from(["1/0", "", "x", "1.5", "2", "[1]", "9" * 5000]),
    st.integers(-2, 2),
)


def nested(leaves):
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=3), max_leaves=6)


hostile = nested(st.one_of(atoms, st.sampled_from([HUGE, -HUGE])))
hostile_size = nested(atoms)

SIZE, VALUE = "size", "value"
LINE = config_of((1, 0), (0, 1), (1, 1), (1, 2))
GALE = gale_transform(standard_six_config())
SEGRE, IGUSA = segre_cubic(), igusa_quartic()
MATCHING_LINE = igusa_lines()[0]
POINT6 = [1, -1, 2, -2, 3, -3]

# (label, callable, {keyword: (valid value, SIZE or VALUE)}); the callable
# gets any fixed object positions already bound
CASES = [
    ("ProjectivePoint", ProjectivePoint, {"coords": ([1, 2], VALUE)}),
    (
        "PointConfiguration",
        PointConfiguration,
        {"ambient_rank": (2, VALUE), "points": ([ProjectivePoint([1, 0]), ProjectivePoint([0, 1])], VALUE)},
    ),
    ("PointConfiguration.from_rows", PointConfiguration.from_rows, {"rows": ([[1, 0], [0, 1]], VALUE)}),
    (
        "PointConfiguration.from_json_dict",
        PointConfiguration.from_json_dict,
        {"data": ({"ambient_rank": 2, "points": [["1", "0"], ["0", "1"]]}, VALUE)},
    ),
    ("ProjectiveTransform", ProjectiveTransform, {"matrix": ([[1, 0], [1, 2]], VALUE)}),
    ("rank", rank, {"matrix": ([[1, 2], [2, 4]], VALUE)}),
    ("parse_scalar", parse_scalar, {"value": ("3/2", VALUE)}),
    ("format_scalar", format_scalar, {"value": (Fraction(3, 2), VALUE)}),
    ("classify", lambda g: classify(LINE, g), {"g": (2, VALUE)}),
    ("oracle_classify", lambda g: oracle_classify(LINE, g), {"g": (2, VALUE)}),
    ("worst_subspace", lambda g: worst_subspace(LINE, g), {"g": (2, VALUE)}),
    ("equivalence_check", lambda g: equivalence_check(LINE, g), {"g": (2, VALUE)}),
    ("SystemType", SystemType, {"r": (2, VALUE), "d": (4, VALUE), "k": (2, VALUE)}),
    ("alpha_slope", lambda alpha: alpha_slope(SystemType(2, 4, 2), alpha), {"alpha": ("1/2", VALUE)}),
    (
        "critical_values",
        lambda **bounds: critical_values(SystemType(3, 4, 2), **bounds),
        {"degree_bound": (4, SIZE), "section_bound": (3, SIZE)},
    ),
    ("stabilization_threshold", stabilization_threshold, {"r": (3, VALUE), "g": (2, VALUE)}),
    (
        "subsystem_violates",
        lambda alpha: subsystem_violates(SystemType(2, 4, 2), SystemType(1, 3, 1), alpha),
        {"alpha": (1, VALUE)},
    ),
    (
        "destabilizing_example_config",
        destabilizing_example_config,
        {"genus": (2, SIZE), "lambdas": ([1, 2, 3], VALUE)},
    ),
    ("conic_parameter_points", conic_parameter_points, {"params": ([0, 1, 2, 3, 4, 5], VALUE)}),
    (
        "GaleData",
        lambda diag: GaleData(GALE.source, GALE.target, diag),
        {"diag": (list(GALE.diag), VALUE)},
    ),
    ("AmbientPoint", AmbientPoint, {"coords": (POINT6, VALUE)}),
    (
        "SymmetricHypersurfaceModel",
        lambda **model: SymmetricHypersurfaceModel(**model).evaluate(POINT6),
        {"name": ("m", VALUE), "degree": (4, VALUE), "terms": ({(2, 2): 1, (4,): -4}, VALUE)},
    ),
    ("segre_cubic().evaluate", SEGRE.evaluate, {"point": (POINT6, VALUE)}),
    ("segre_cubic().gradient", SEGRE.gradient, {"point": (POINT6, VALUE)}),
    ("igusa_quartic().hessian", IGUSA.hessian, {"point": (POINT6, VALUE)}),
    ("MatchingLine.coords_at", MATCHING_LINE.coords_at, {"t": (1, VALUE), "u": ("1/2", VALUE)}),
    ("MatchingLine.point_at", MATCHING_LINE.point_at, {"t": (1, VALUE), "u": (2, VALUE)}),
    ("sample_segre_points", sample_segre_points, {"count": (2, SIZE), "seed": (0, VALUE)}),
    ("duality_check", duality_check, {"samples": (1, SIZE), "seed": (0, VALUE)}),
    ("run_all", run_all, {"samples": (0, SIZE), "seed": (0, VALUE)}),
]
POSITIONS = [(case, key) for case in CASES for key in case[2]]


def corrupt(data, value, size):
    """The value, or one part of it at any depth, replaced by a hostile one."""
    if isinstance(value, (list, tuple)) and value and data.draw(st.booleans()):
        parts = list(value)
        i = data.draw(st.integers(0, len(parts) - 1))
        parts[i] = corrupt(data, parts[i], size)
        return type(value)(parts)
    if isinstance(value, dict) and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(value, key=repr)))
        return {**value, key: corrupt(data, value[key], size)}
    return data.draw(hostile_size if size else hostile)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.data())
def test_a_hostile_argument_returns_or_raises_a_typed_error(data):
    (_, call, params), key = data.draw(st.sampled_from(POSITIONS), label="position")
    kwargs = {name: value for name, (value, _) in params.items()}
    value, kind = params[key]
    kwargs[key] = corrupt(data, value, kind == SIZE)
    try:
        call(**kwargs)
    except ValueError:  # StabgeomError derives from it
        pass


@pytest.mark.parametrize(
    "build",
    [
        lambda: PointConfiguration(2, [5]),
        lambda: PointConfiguration(2, [[1, 0]]),
        lambda: rank(5),
        lambda: ProjectiveTransform(5),
        lambda: conic_parameter_points(5),
        lambda: destabilizing_example_config(3, 5),
        lambda: segre_cubic().evaluate(5),
        lambda: segre_cubic().gradient(5),
        lambda: segre_cubic().hessian(5),
        lambda: SymmetricHypersurfaceModel("x", 3, None),
        lambda: SymmetricHypersurfaceModel("x", 4.0, {(2, 2): 1, (4,): -4}),
        lambda: GaleData(GALE.source, GALE.target, False),
    ],
    ids=[
        "int-as-point",
        "list-as-point",
        "rank-of-int",
        "transform-of-int",
        "conic-params",
        "lambdas",
        "evaluate",
        "gradient",
        "hessian",
        "model-terms",
        "model-degree",
        "gale-diag",
    ],
)
def test_a_foreign_argument_is_a_schema_error(build):
    with pytest.raises(SchemaError):
        build()
