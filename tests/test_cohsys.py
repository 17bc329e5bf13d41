"""Alpha-slope arithmetic, walls, and the span-criterion dictionary."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from stabgeom import (
    SchemaError,
    SizeMismatchError,
    StabilityClass,
    SystemType,
    classify,
    alpha_slope,
    critical_values,
    destabilizing_example_config,
    equivalence_check,
    stabilization_threshold,
    subsystem_types_from_config,
    subsystem_violates,
)
from stabgeom.cli import main
from stabgeom.cohsys import _alpha_verdicts, _subsystem_types
from stabgeom.gitstab import _worst_flat

from helpers import (
    config_of,
    degenerate_configurations,
    gauss_rank,
    scan_walls,
    standard_six_config,
    triple_point_config,
)


class TestSystemType:
    def test_validation(self):
        with pytest.raises(ValueError):
            SystemType(0, 1, 1)
        with pytest.raises(ValueError):
            SystemType(1, -1, 0)
        with pytest.raises(ValueError):
            SystemType(1, 0, -2)

    def test_alpha_slope_formula(self):
        t = SystemType(2, 4, 2)
        assert alpha_slope(t, 1) == 3
        assert alpha_slope(t, Fraction(1, 2)) == Fraction(5, 2)


class TestCriticalValues:
    def test_reference_type_has_walls_one_and_two(self):
        walls = critical_values(SystemType(2, 4, 2))
        assert walls == (Fraction(1), Fraction(2))
        assert 1 in walls
        assert Fraction(3, 2) not in walls

    def test_values_sorted_distinct_positive(self):
        walls = critical_values(SystemType(3, 9, 3))
        assert list(walls) == sorted(set(walls))
        assert all(v > 0 for v in walls)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=13),
        st.integers(min_value=0, max_value=7),
        st.sampled_from([None, 0, 1, 5, 20]),
        st.sampled_from([None, 0, 3, 9]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_recompute(self, r, d, k, degree_bound, section_bound):
        walls = critical_values(
            SystemType(r, d, k), degree_bound=degree_bound, section_bound=section_bound
        )
        d_max = d if degree_bound is None else degree_bound
        k_max = k if section_bound is None else section_bound
        assert set(walls) == scan_walls(r, d, k, d_max, k_max)

    def test_bounds_override_the_enumeration(self):
        t = SystemType(2, 4, 2)
        assert set(critical_values(t, degree_bound=8, section_bound=2)) == \
            scan_walls(2, 4, 2, 8, 2)
        with pytest.raises(ValueError):
            critical_values(t, degree_bound=-1)

    def test_rank_one_type_has_no_walls(self):
        assert critical_values(SystemType(1, 5, 2)) == ()


class TestThreshold:
    def test_formula(self):
        assert stabilization_threshold(2, 4) == 4
        assert stabilization_threshold(5, 3) == 12
        assert stabilization_threshold(1, 6) == 0

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            stabilization_threshold(0, 2)
        with pytest.raises(ValueError):
            stabilization_threshold(2, 0)


def d_max_by_subsets(config):
    """[d_max(0), ..., d_max(r - 1)]: the most points of any subset of rank at most s.

    Rank is ``gauss_rank`` alone. A subset of full rank only grows into
    subsets of full rank, so the search stops there; ranks are cached by the
    set of distinct rows, since repeated points are common.
    """
    rows = [tuple(row) for row in config.rows()]
    r, n = config.ambient_rank, len(rows)
    most = [0] * r
    ranks = {}

    def extend(members, start):
        for i in range(start, n):
            grown = members + [i]
            key = frozenset(rows[j] for j in grown)
            if key not in ranks:
                ranks[key] = gauss_rank(list(key))
            s = ranks[key]
            if s < r:
                most[s] = max(most[s], len(grown))
                extend(grown, i + 1)

    extend([], 0)
    return [max(most[: s + 1]) for s in range(r)]


class TestSubsystemTypes:
    def test_triple_point_types(self):
        types = subsystem_types_from_config(triple_point_config())
        assert types == [SystemType(1, 3, 1), SystemType(2, 4, 2)]

    def test_generic_six_types(self):
        types = subsystem_types_from_config(standard_six_config())
        assert types == [SystemType(1, 1, 1), SystemType(2, 2, 2)]

    def test_rank_one_config_has_no_types(self):
        assert subsystem_types_from_config(config_of((1,), (2,))) == []

    # r = 5, g = 2: d_max(3) = 4, which a prefix-maximum rule that prunes one
    # dimension too far (most[: dim + 3]) reads as 3
    TEN_IN_P4 = config_of(
        (6, 1, -2, -2, 0), (6, 1, -1, 0, 0), (1, 0, 0, -4, -4), (3, 4, 6, -2, 0),
        (8, -1, -2, -3, -1), (6, 0, 1, 0, 0), (0, 1, -4, 0, 0), (0, 0, 0, 0, 1),
        (4, 0, 0, 0, -3), (1, 0, 0, 2, 4),
    )

    @settings(max_examples=60, deadline=None)
    @given(degenerate_configurations(max_rank=6, max_points=12))
    @example(TEN_IN_P4)
    def test_types_equal_the_most_points_of_any_subset(self, config):
        assert [(t.r, t.d, t.k) for t in subsystem_types_from_config(config)] == [
            (s, d, s) for s, d in enumerate(d_max_by_subsets(config)[1:], 1)
        ]


def alpha_check(capsys, config_file, config, alpha, g=2):
    """Exit code and parsed output (stdout, or stderr on failure) of `stab alpha-check`."""
    path = config_file([list(p.coords) for p in config.points])
    code = main(["alpha-check", "--g", str(g), "--alpha", str(alpha), "--input", path])
    captured = capsys.readouterr()
    return code, json.loads(captured.out if code == 0 else captured.err)


class TestAlphaStability:
    def test_generic_six_is_alpha_stable(self, capsys, config_file):
        config = standard_six_config()
        for alpha in (Fraction(1, 2), 1, 3, 10):
            code, data = alpha_check(capsys, config_file, config, alpha)
            assert code == 0 and data["semistable"] is True and data["stable"] is True

    def test_triple_point_is_never_alpha_semistable(self, capsys, config_file):
        config = triple_point_config()
        for alpha in (Fraction(1, 2), 1, 5):
            code, data = alpha_check(capsys, config_file, config, alpha)
            assert code == 0 and data["semistable"] is False

    def test_four_on_a_line_is_semistable_not_stable(self, capsys, config_file):
        config = config_of(
            (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (0, 0, 1), (1, 1, 1)
        )
        code, data = alpha_check(capsys, config_file, config, 5)
        assert code == 0 and data["semistable"] is True and data["stable"] is False

    def test_argument_validation(self, capsys, config_file):
        config = standard_six_config()
        for g, alpha, error in (
            (2, 0, {"type": "ValueError", "message": "alpha must be positive"}),
            (2, -1, {"type": "ValueError", "message": "alpha must be positive"}),
            ("3/2", 1, {"type": "ValueError", "message": "g must be a positive integer"}),
            (3, 1, {"type": "SizeMismatchError", "message": "expected r*g = 3*3 points, got 6"}),
        ):
            assert alpha_check(capsys, config_file, config, alpha, g) == (2, {"error": error})


class TestEquivalence:
    @pytest.mark.parametrize(
        "rows, g, expected",
        [
            (
                ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 4, 9)),
                2,
                StabilityClass.STABLE,
            ),
            (
                ((1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (0, 0, 1), (1, 1, 1)),
                2,
                StabilityClass.STRICTLY_SEMISTABLE,
            ),
            (
                ((1, 0, 0), (1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),
                2,
                StabilityClass.UNSTABLE,
            ),
        ],
    )
    def test_fixed_configurations_agree(self, rows, g, expected):
        report = equivalence_check(config_of(*rows), g)
        assert report.git.classification is expected
        assert report.agree
        assert report.alpha == g * 2 + 1
        payload = report.to_json()
        assert payload["git_class"] == expected.value
        assert payload["agree"] is True
        assert payload["alpha"] == str(g * 2 + 1)

    def test_size_mismatch_rejected(self):
        with pytest.raises(SizeMismatchError):
            equivalence_check(config_of((1, 0), (0, 1), (1, 1)), 2)

    # five coincident points and one more in the plane, g = 2: the point of
    # margin 3 prunes the line of all six (margin 2), so the recorded d_max(2)
    # is 5 where alpha-check's search finds 6
    FIVE_ON_A_POINT = config_of(*[(1, 0, 0)] * 5, (0, 0, 1))

    def test_alpha_verdicts_equal_the_exact_type_verdicts(self):
        differs = 0

        @settings(max_examples=200, deadline=None)
        @given(degenerate_configurations(max_rank=6, max_points=12))
        @example(self.FIVE_ON_A_POINT)
        def check(config):
            nonlocal differs
            r, n = config.ambient_rank, len(config)
            if n % r:
                return
            g = n // r
            report = equivalence_check(config, g)
            exact = subsystem_types_from_config(config)
            assert (report.alpha_semistable, report.alpha_stable) == _alpha_verdicts(
                exact, Fraction(g), Fraction(g * (r - 1) + 1)
            )
            most = [0] * r
            _worst_flat(config, Fraction(g), most)
            differs += _subsystem_types(most) != exact

        check()
        # the margin search recorded types that alpha-check's search corrects,
        # so the verdicts were compared across two differently pruned searches
        assert differs


class TestRationalArguments:
    """Weights, slopes and lambdas are parsed like coordinates: no bool, float or decimal.

    The integers of a type, the wall bounds, the rank and weight of the
    threshold and the genus take an int and nothing else.
    """

    @pytest.mark.parametrize("bad", [True, 0.5, "1.5"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda x: equivalence_check(standard_six_config(), x),
            lambda x: alpha_slope(SystemType(2, 4, 2), x),
            lambda x: subsystem_violates(SystemType(2, 4, 2), SystemType(1, 1, 1), x),
            lambda x: destabilizing_example_config(2, [1, 2, x]),
            lambda x: SystemType(x, 4, 2),
            lambda x: SystemType(2, x, 2),
            lambda x: SystemType(2, 4, x),
            lambda x: critical_values(SystemType(2, 4, 2), degree_bound=x),
            lambda x: critical_values(SystemType(2, 4, 2), section_bound=x),
            lambda x: stabilization_threshold(x, 2),
            lambda x: stabilization_threshold(2, x),
            lambda x: destabilizing_example_config(x),
        ],
        ids=[
            "equivalence-g", "alpha-slope", "violates-alpha", "lambdas",
            "type-r", "type-d", "type-k", "degree-bound", "section-bound",
            "threshold-r", "threshold-g", "genus",
        ],
    )
    def test_refused_with_a_schema_error(self, call, bad):
        with pytest.raises(SchemaError):
            call(bad)


class TestSubsystemViolates:
    def test_wall_at_one_separates_the_verdict(self):
        full = SystemType(2, 8, 2)
        sub = SystemType(1, 5, 0)
        for alpha in (Fraction(1, 10), Fraction(99, 100)):
            assert subsystem_violates(full, sub, alpha)
        for alpha in (1, Fraction(3, 2), 7):
            assert not subsystem_violates(full, sub, alpha)

    def test_identical_types_rejected(self):
        t = SystemType(2, 4, 2)
        with pytest.raises(ValueError):
            subsystem_violates(t, t, 1)
        with pytest.raises(ValueError):
            subsystem_violates(t, SystemType(1, 1, 1), 0)


class TestDestabilizingExample:
    def test_default_lambdas_and_shape(self):
        config = destabilizing_example_config(4)
        assert config.ambient_rank == 2
        assert len(config) == 8
        assert config.points[0].coords == (1, 0)
        assert config.points[2].coords == (1, 0)
        assert [p.coords for p in config.points[3:]] == [
            (1, 1), (2, 1), (3, 1), (4, 1), (5, 1)
        ]

    def test_classifies_stable_for_small_weights(self):
        for g in (2, 3, 4, 5, 6):
            config = destabilizing_example_config(g)
            assert classify(config, g).classification is StabilityClass.STABLE

    def test_custom_lambdas(self):
        config = destabilizing_example_config(2, [Fraction(1, 2), -1, 3])
        assert config.points[1].coords == (1, 2)

    @pytest.mark.parametrize(
        "genus, lambdas",
        [
            (1, None),
            (2, [1, 2]),
            (2, [1, 2, 0]),
            (2, [1, 2, 2]),
        ],
    )
    def test_validation(self, genus, lambdas):
        with pytest.raises(ValueError):
            destabilizing_example_config(genus, lambdas)
