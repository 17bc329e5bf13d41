"""Alpha-slope arithmetic, walls, and the span-criterion dictionary."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stabgeom import (
    SizeMismatchError,
    StabilityClass,
    SystemType,
    classify,
    alpha_semistable_config,
    alpha_slope,
    critical_values,
    destabilizing_example_config,
    equivalence_check,
    stabilization_threshold,
    subsystem_types_from_config,
    subsystem_violates,
)
from stabgeom.cli import main

from helpers import config_of, standard_six_config, triple_point_config


def brute_walls(t: SystemType, d_max: int, k_max: int) -> set:
    """Wall set recomputed from the slope equality, arranged differently."""
    out = set()
    for s in range(1, t.r):
        for dp in range(d_max + 1):
            for kp in range(k_max + 1):
                num = Fraction(dp, s) - Fraction(t.d, t.r)
                den = Fraction(t.k, t.r) - Fraction(kp, s)
                if den == 0:
                    continue
                alpha = num / den
                if alpha > 0:
                    out.add(alpha)
    return out


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
        assert walls.values == (Fraction(1), Fraction(2))
        assert 1 in walls
        assert Fraction(3, 2) not in walls

    def test_values_sorted_distinct_positive(self):
        walls = critical_values(SystemType(3, 9, 3))
        assert list(walls.values) == sorted(set(walls.values))
        assert all(v > 0 for v in walls.values)

    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=60)
    def test_matches_brute_force_recompute(self, r, d, k):
        t = SystemType(r, d, k)
        assert set(critical_values(t).values) == brute_walls(t, d, k)

    def test_bounds_override_the_enumeration(self):
        t = SystemType(2, 4, 2)
        assert set(critical_values(t, degree_bound=8, section_bound=2).values) == \
            brute_walls(t, 8, 2)
        with pytest.raises(ValueError):
            critical_values(t, degree_bound=-1)

    def test_rank_one_type_has_no_walls(self):
        assert critical_values(SystemType(1, 5, 2)).values == ()


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


class TestSubsystemTypes:
    def test_triple_point_types(self):
        types = subsystem_types_from_config(triple_point_config())
        assert types == [SystemType(1, 3, 1), SystemType(2, 4, 2)]

    def test_generic_six_types(self):
        types = subsystem_types_from_config(standard_six_config())
        assert types == [SystemType(1, 1, 1), SystemType(2, 2, 2)]

    def test_rank_one_config_has_no_types(self):
        assert subsystem_types_from_config(config_of((1,), (2,))) == []


def alpha_check(capsys, config_file, config, alpha):
    """Exit code and parsed output (stdout, or stderr on failure) of `stab alpha-check --g 2`."""
    path = config_file([list(p.coords) for p in config.points])
    code = main(["alpha-check", "--g", "2", "--alpha", str(alpha), "--input", path])
    captured = capsys.readouterr()
    return code, json.loads(captured.out if code == 0 else captured.err)


class TestAlphaStability:
    def test_generic_six_is_alpha_stable(self, capsys, config_file):
        config = standard_six_config()
        for alpha in (Fraction(1, 2), 1, 3, 10):
            assert alpha_semistable_config(config, 2, alpha)
            code, data = alpha_check(capsys, config_file, config, alpha)
            assert code == 0 and data["stable"] is True

    def test_triple_point_is_never_alpha_semistable(self):
        config = triple_point_config()
        for alpha in (Fraction(1, 2), 1, 5):
            assert not alpha_semistable_config(config, 2, alpha)

    def test_four_on_a_line_is_semistable_not_stable(self, capsys, config_file):
        config = config_of(
            (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (0, 0, 1), (1, 1, 1)
        )
        assert alpha_semistable_config(config, 2, 5)
        code, data = alpha_check(capsys, config_file, config, 5)
        assert code == 0 and data["stable"] is False

    def test_argument_validation(self, capsys, config_file):
        config = standard_six_config()
        with pytest.raises(ValueError):
            alpha_semistable_config(config, 2, 0)
        assert alpha_check(capsys, config_file, config, -1) == (
            2,
            {"error": {"type": "ValueError", "message": "alpha must be positive"}},
        )
        with pytest.raises(ValueError):
            alpha_semistable_config(config, Fraction(3, 2), 1)
        with pytest.raises(SizeMismatchError):
            alpha_semistable_config(config, 3, 1)


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
