"""Gale transform, self-association, and the conic criterion."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

import stabgeom.exactgeom
from stabgeom import (
    DegenerateConfigurationError,
    GaleData,
    PointConfiguration,
    ProjectivePoint,
    RowEliminationError,
    SchemaError,
    StabilityClass,
    classify,
    conic_parameter_points,
    format_scalar,
    gale_transform,
    is_self_associated,
    on_smooth_conic,
    projectively_equivalent,
    rank,
)
from stabgeom.cli import _dumps
from stabgeom.randconf import (
    random_configuration,
    random_conic_parameters,
    random_frame_configuration,
    random_transform,
)

from helpers import collinear_target_six_config, config_of, standard_six_config


def product_with_diag(data: GaleData):
    """G^T D G' recomputed literally from the stored matrices."""
    g_rows = data.source.rows()
    gp_rows = data.target.rows()
    n = len(g_rows)
    r, s = data.source.ambient_rank, data.target.ambient_rank
    return [
        [
            sum(Fraction(g_rows[i][a]) * data.diag[i] * gp_rows[i][b] for i in range(n))
            for b in range(s)
        ]
        for a in range(r)
    ]


class TestTransform:
    def test_standard_six_points(self):
        data = gale_transform(standard_six_config())
        assert data.target.ambient_rank == 3
        assert [p.coords for p in data.target.points] == [
            (1, 1, 1), (1, 2, 4), (1, 3, 9), (1, 0, 0), (0, 1, 0), (0, 0, 1)
        ]
        assert all(x == 0 for row in product_with_diag(data) for x in row)
        # the raw kernel basis satisfies G^T G' = 0 with no diagonal: undo
        # the canonical scaling and check the plain product too
        raw = [
            [d * x for x in p.coords]
            for d, p in zip(data.diag, data.target.points)
        ]
        g_rows = standard_six_config().rows()
        for a in range(3):
            for b in range(3):
                assert sum(g_rows[i][a] * raw[i][b] for i in range(6)) == 0

    def test_involution_on_seeded_draws(self):
        rng = random.Random(31)
        for _ in range(20):
            config = random_frame_configuration(rng, 3, 6)
            once = gale_transform(config)
            twice = gale_transform(once.target)
            assert all(x == 0 for row in product_with_diag(once) for x in row)
            assert projectively_equivalent(config, twice.target) is not None

    def test_commutes_with_the_diagonal_action(self):
        # the two targets correspond pointwise, so any common reordering
        # preserves equivalence; pick one whose leading five points form a
        # frame, since that is what the comparison needs
        def frame_order(config):
            rows = config.rows()
            for perm in permutations(range(len(rows))):
                head = [rows[i] for i in perm[:5]]
                if all(rank([head[a], head[b], head[c]]) == 3
                       for a, b, c in combinations(range(5), 3)):
                    return perm
            return None

        rng = random.Random(47)
        for _ in range(10):
            config = random_frame_configuration(rng, 3, 6)
            moved = config.apply(random_transform(rng, 3))
            a = gale_transform(config).target
            b = gale_transform(moved).target
            perm = frame_order(a)
            assert perm is not None
            a = config_of(*(a.points[i].coords for i in perm))
            b = config_of(*(b.points[i].coords for i in perm))
            assert projectively_equivalent(a, b) is not None

    def test_seven_points_in_the_plane(self):
        config = config_of(
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 4, 9), (2, 3, 5)
        )
        data = gale_transform(config)
        assert data.target.ambient_rank == 4
        assert len(data.target) == 7
        assert all(x == 0 for row in product_with_diag(data) for x in row)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            gale_transform(config_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))

    def test_random_frame_needs_a_full_frame(self):
        with pytest.raises(ValueError, match="rank \\+ 2 points"):
            random_frame_configuration(random.Random(0), 3, 4)

    def test_non_spanning_configuration_rejected(self):
        config = config_of(
            (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (2, 1, 0), (3, 1, 0)
        )
        with pytest.raises(DegenerateConfigurationError):
            gale_transform(config)

    def test_hyperplane_concentration_rejected(self):
        # five of the six points on z = 0: the kernel forces a zero row
        config = config_of(
            (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (2, 1, 0), (0, 0, 1)
        )
        with pytest.raises(RowEliminationError):
            gale_transform(config)


class TestGaleData:
    def test_constructor_rejects_bad_products(self):
        config = standard_six_config()
        data = gale_transform(config)
        with pytest.raises(ValueError):
            GaleData(source=config, target=config, diag=(1,) * 6)
        with pytest.raises(ValueError):
            GaleData(source=data.source, target=data.target, diag=(0,) * 6)
        with pytest.raises(ValueError):
            GaleData(source=data.source, target=data.target, diag=(1,) * 5)
        # six points of P^2 against six of P^1: 2 + 1 + 2 != 6
        line = config_of((1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (1, 4))
        with pytest.raises(ValueError, match="gamma must equal r"):
            GaleData(source=data.source, target=line, diag=data.diag)

    def test_accepts_a_rational_multiple_of_the_witness(self):
        config = config_of((1, 2, 3), (2, -1, 4), (3, 5, -2), (1, 1, 1), (4, 1, 7), (2, 3, 5))
        data = gale_transform(config)
        assert data.diag == (1, 1, 1, -53, -53, -53)
        # 2/53 leaves entries with different denominators
        for factor in (Fraction(2, 7), Fraction(2, 53)):
            diag = tuple(x * factor for x in data.diag)
            scaled = GaleData(source=data.source, target=data.target, diag=diag)
            assert scaled.diag == diag

    @pytest.mark.parametrize("bad", [True, 0.5, "1.5"])
    def test_diag_parsed_like_coordinates(self, bad):
        data = gale_transform(standard_six_config())
        with pytest.raises(SchemaError):
            GaleData(source=data.source, target=data.target, diag=data.diag[:-1] + (bad,))

    def test_rejects_one_perturbed_diag_entry(self):
        # the product changes by the outer product of two nonzero rows
        for config in (standard_six_config(), conic_parameter_points([0, 1, -1, 2, -2, 3])):
            data = gale_transform(config)
            for i in range(len(data.diag)):
                for delta in (1, Fraction(1, 3)):
                    diag = list(data.diag)
                    diag[i] += delta
                    if diag[i] == 0:
                        continue
                    with pytest.raises(ValueError):
                        GaleData(source=data.source, target=data.target, diag=tuple(diag))

    @pytest.mark.parametrize(
        "config",
        [standard_six_config(), random_frame_configuration(random.Random(0), 4, 9)],
        ids=["standard-six", "frame-4-9"],
    )
    def test_rejects_any_one_changed_target_coordinate(self, config):
        # entry (a, j) of the product moves by D_i * g_i[a], which is nonzero for
        # some a, so no shape of the product loop may skip an entry of G'
        data = gale_transform(config)
        rows = data.target.rows()
        refused = zeros = 0
        for i, row in enumerate(rows):
            for j in range(len(row)):
                changed = ProjectivePoint([*row[:j], row[j] + 1, *row[j + 1:]])
                if changed.coords == row:
                    continue  # a unit row scaled: the same point
                points = [*data.target.points[:i], changed, *data.target.points[i + 1:]]
                target = PointConfiguration(data.target.ambient_rank, points)
                with pytest.raises(ValueError, match="G\\^T D G' = 0 fails"):
                    GaleData(source=data.source, target=target, diag=data.diag)
                refused += 1
                zeros += row[j] == 0
        # every coordinate is refused but the one nonzero entry of each of the
        # gamma - r unit rows
        assert zeros and refused == sum(map(len, rows)) - (len(config) - config.ambient_rank)

    def test_accepts_a_diag_of_rational_strings_with_the_same_bytes(self):
        config = config_of((1, 2, 3), (2, -1, 4), (3, 5, -2), (1, 1, 1), (4, 1, 7), (2, 3, 5))
        data = gale_transform(config)
        for factor in (1, Fraction(2, 7), Fraction(2, 53)):
            diag = [x * factor for x in data.diag]
            # unreduced "p/q" strings, and "p" where the entry is whole
            texts = [f"{3 * q.numerator}/{3 * q.denominator}" for q in diag]
            from_fractions = GaleData(source=data.source, target=data.target, diag=diag)
            from_texts = GaleData(source=data.source, target=data.target, diag=texts)
            assert from_texts.diag == from_fractions.diag == tuple(diag)
            assert all(type(q) is Fraction for q in from_texts.diag)
            assert _dumps(from_texts.to_json()) == _dumps(from_fractions.to_json())
            assert from_texts.to_json()["diag"] == [format_scalar(q) for q in diag]

    def test_self_associated_method(self):
        seven = config_of(
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 4, 9), (2, 3, 5)
        )
        assert gale_transform(conic_parameter_points([0, 1, -1, 2, -2, 3])).self_associated() is True
        for config in (standard_six_config(), collinear_target_six_config(), seven):
            assert gale_transform(config).self_associated() is False

    def test_json_shape(self):
        payload = gale_transform(standard_six_config()).to_json()
        assert set(payload) == {"source", "target", "diag"}
        assert payload["diag"] == ["1", "1", "1", "-1", "-1", "-1"]
        assert payload["target"]["ambient_rank"] == 3


class TestWorkGate:
    def test_the_seed_0_8_by_30_transform_makes_at_most_60_primitive_calls(self, spy):
        # one fraction-free Gauss-Jordan pass makes each echelon row primitive
        # once: the kernel of G^T for these points costs 8 basis rows and 22
        # normals, and the 30 target points one call each; GaleData's check of
        # D makes none (counted, not timed, so the host's speed cannot move it)
        config = random_frame_configuration(random.Random(0), 8, 30)
        calls = spy(stabgeom.exactgeom, "_primitive")
        gale_transform(config)
        assert len(calls) <= 60


class TestConic:
    def test_parameter_points_lie_on_the_standard_conic(self):
        config = conic_parameter_points([0, 1, -1, 2, -2, 3])
        for p in config.points:
            x, y, z = p.coords
            assert y * z == x * x
        assert on_smooth_conic(config)

    def test_duplicate_parameters_rejected(self):
        with pytest.raises(ValueError):
            conic_parameter_points([0, 1, 1, 2, 3, 4])

    @pytest.mark.parametrize("bad", [True, 0.5, "1.5"])
    def test_parameters_parsed_like_coordinates(self, bad):
        with pytest.raises(SchemaError):
            conic_parameter_points([0, 2, 3, 4, 5, bad])

    def test_standard_six_is_not_on_a_conic(self):
        assert not on_smooth_conic(standard_six_config())

    def test_singular_conic_rejected(self):
        # two lines of three points each: the unique conic is the line pair
        config = config_of(
            (1, 0, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2)
        )
        assert not on_smooth_conic(config)

    def test_kernel_dimension_two_rejected(self):
        # five collinear points force every conic through them to split off
        # that line, so the monomial matrix has rank four
        config = config_of(
            (1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0), (1, 4, 0), (0, 0, 1)
        )
        assert not on_smooth_conic(config)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            on_smooth_conic(config_of((1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (1, 4)))
        with pytest.raises(ValueError):
            on_smooth_conic(config_of((1, 0, 0), (0, 1, 0), (0, 0, 1)))


class TestSelfAssociation:
    def test_conic_configurations_are_self_associated(self):
        rng = random.Random(7)
        for _ in range(5):
            params = random_conic_parameters(rng)
            config = conic_parameter_points(params).apply(random_transform(rng, 3))
            assert on_smooth_conic(config)
            assert is_self_associated(config)
            gale = gale_transform(config).target
            t = projectively_equivalent(config, gale)
            for p, q in zip(config.points, gale.points):
                assert t.apply(p) == q

    def test_generic_configuration_is_not(self):
        config = standard_six_config()
        assert not is_self_associated(config)
        assert projectively_equivalent(config, gale_transform(config).target) is None

    def test_degenerate_target_frame_is_not_self_associated(self):
        config = collinear_target_six_config()
        assert is_self_associated(config) is False
        assert projectively_equivalent(config, gale_transform(config).target) is None

    def test_size_other_than_two_r_is_never_self_associated(self):
        five = config_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3))
        seven = config_of(
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 4, 9), (2, 3, 5)
        )
        for config in (five, seven):
            assert not is_self_associated(config)


@st.composite
def associated_pairs(draw):
    """A random_configuration of n points in P^(r-1), 2 <= r <= 5, r + 2 <= n <= 12."""
    r = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=r + 2, max_value=12))
    return random_configuration(random.Random(draw(st.integers(0, 2**32))), r, n)


class TestAssociationPreservesStability:
    """(P^(r-1))^n // SL(r) and (P^(n-r-1))^n // SL(n-r) are isomorphic through association.

    The symmetric weights are g = n/r on the source and n/(n-r) on the Gale
    transform. A subset of k points spanning rank s has a complement of
    dual rank n - k - r + s, so off the stable class the worst margins m of
    the source and m' of the transform satisfy r*m = (n-r)*m'. A stable
    verdict's worst flat need not have a flat complement, so there only
    the class is compared.
    """

    @settings(max_examples=300, deadline=None)
    @given(associated_pairs())
    def test_class_and_non_stable_margin_agree(self, config):
        try:
            target = gale_transform(config).target
        except (DegenerateConfigurationError, RowEliminationError):
            assume(False)
        r, n = config.ambient_rank, len(config)
        source_verdict = classify(config, Fraction(n, r))
        target_verdict = classify(target, Fraction(n, n - r))
        assert source_verdict.classification is target_verdict.classification
        if source_verdict.classification is not StabilityClass.STABLE:
            assert r * source_verdict.margin == (n - r) * target_verdict.margin
