"""The symmetric cubic and quartic: singular loci, incidence, duality."""

import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from stabgeom import (
    AmbientPoint,
    MatchingLine,
    PointConfiguration,
    ProjectivePoint,
    ProjectiveTransform,
    SchemaError,
    SingularPointError,
    SymmetricHypersurfaceModel,
    classify,
    duality_check,
    igusa_lines,
    igusa_points,
    igusa_quartic,
    incidence_15_3,
    perfect_matchings,
    polar_map,
    restricted_hessian_rank,
    sample_segre_points,
    segre_cubic,
    segre_nodes,
    three_three_splits,
    verify_singular_point,
)
from stabgeom.modhyp import NVARS, Polynomial, SegreNode, _along_normal, _sign_paired
from stabgeom.verify import check_segre_nodes

from helpers import expanded, gauss_rank, pencil_member, sign_paired_by_matching


class TestPolynomial:
    def test_power_sum_evaluates(self):
        p3 = Polynomial.power_sum(3)
        assert p3.evaluate([1, 1, 1, -1, -1, -1]) == 0
        assert p3.evaluate([2, 0, 0, 0, 0, -2]) == 0
        assert p3.evaluate([1, 2, 3, 0, 0, 0]) == 36

    def test_arithmetic_and_degree(self):
        p2 = Polynomial.power_sum(2)
        q = p2 * p2
        assert q.degree() == 4
        assert q.is_homogeneous()
        assert (q - p2 ** 2).is_zero()
        assert (3 * p2).evaluate([1] * 6) == 18
        assert (p2 ** 0).evaluate([5] * 6) == 1
        with pytest.raises(ValueError):
            p2 ** -1

    def test_partial_derivative(self):
        p4 = Polynomial.power_sum(4)
        d0 = p4.partial(0)
        assert d0.evaluate([2, 1, 1, 1, 1, 1]) == 4 * 8
        assert d0.partial(1).is_zero()
        assert p4.partial(1).evaluate([2, 3, 0, 0, 0, 0]) == 4 * 27

    def test_gradient_matches_partials(self):
        p3 = Polynomial.power_sum(3)
        coords = [1, -2, 3, 0, 0, -2]
        assert p3.gradient(coords) == tuple(3 * c * c for c in coords)

    def test_bad_exponents_rejected(self):
        with pytest.raises(ValueError):
            Polynomial({(1, 0, 0): 1})
        with pytest.raises(ValueError):
            Polynomial({(1, 0, 0, 0, 0, -1): 1})

    def test_evaluate_needs_six_coordinates(self):
        with pytest.raises(ValueError, match="^need 6 coordinates$"):
            Polynomial.power_sum(3).evaluate([1, -1, 0])

    def test_repr_shows_the_terms(self):
        # a failing comparison against the expanded reference prints this
        assert repr(Polynomial({(0, 0, 0, 0, 0, 2): 3})) == (
            "Polynomial({(0, 0, 0, 0, 0, 2): Fraction(3, 1)})"
        )


class TestModels:
    def test_full_symmetric_group_invariance(self):
        for model in (segre_cubic(), igusa_quartic()):
            poly = expanded(model)
            for perm in permutations(range(NVARS)):
                assert poly.permuted(perm) == poly

    def test_constructor_validation(self):
        # wrong degree
        with pytest.raises(ValueError):
            SymmetricHypersurfaceModel("bad", 4, {(3,): 1})
        with pytest.raises(ValueError):
            SymmetricHypersurfaceModel("bad", 4, {(2, 2): 1, (3,): 1})
        # zero form
        with pytest.raises(ValueError):
            SymmetricHypersurfaceModel("bad", 0, {})
        with pytest.raises(ValueError):
            SymmetricHypersurfaceModel("bad", 3, {(3,): 0})
        with pytest.raises(ValueError):
            SymmetricHypersurfaceModel("bad", 6, {(2, 4): 1, (4, 2): -1, (6,): 0})
        # malformed partitions and coefficients
        for parts in [(), (0, 3), (-1, 4), (7,), (True, 2), ("3",), 3, "3"]:
            with pytest.raises(ValueError):
                SymmetricHypersurfaceModel("bad", 3, {parts: 1})
        with pytest.raises(ValueError):
            SymmetricHypersurfaceModel("bad", 3, {(3,): Fraction(1, 2)})

    def test_terms_are_canonical(self):
        quartic = SymmetricHypersurfaceModel("igusa", 4, {(4,): -4, (2, 2): 1})
        assert quartic.terms == (((2, 2), 1), ((4,), -4))
        assert quartic == igusa_quartic()
        merged = SymmetricHypersurfaceModel("m", 6, {(2, 4): 2, (4, 2): 1, (2, 2, 2): 0})
        assert merged.terms == (((4, 2), 3),)

    @pytest.mark.parametrize(
        "degree, terms",
        [
            (1, {(1,): 1}),
            (3, {(2, 1): 1}),
            (3, {(3,): 1, (2, 1): 1}),
            (3, {(1, 1, 1): 1}),
            (4, {(2, 2): 1, (4,): -4, (3, 1): 0}),
        ],
    )
    def test_part_one_is_refused(self, degree, terms):
        # p1 = sum(x) is 0 on the hyperplane: {(3,): 1, (2, 1): 1} would be a
        # second name for the cubic and {(2, 1): 1} a form singular everywhere
        with pytest.raises(ValueError, match="part 1"):
            SymmetricHypersurfaceModel("bad", degree, terms)

    def test_chain_terms_are_not_fields(self):
        # the per-model chain-rule terms stay out of ==, hash and repr
        a, b = igusa_quartic(), igusa_quartic()
        assert a == b and hash(a) == hash(b)
        assert repr(a) == (
            "SymmetricHypersurfaceModel(name='igusa', degree=4, terms=(((2, 2), 1), ((4,), -4)))"
        )

    def test_quartic_equals_the_unique_pencil_member(self):
        expected = Polynomial.power_sum(2) ** 2 + (-4) * Polynomial.power_sum(4)
        assert expanded(igusa_quartic()) == expected
        assert pencil_member() == expected

    def test_degrees_and_names(self):
        assert segre_cubic().degree == 3
        assert igusa_quartic().degree == 4
        assert segre_cubic().name == "segre"
        assert igusa_quartic().name == "igusa"


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


@st.composite
def hyperplane_coords(draw):
    """Six coordinates summing to zero: all ints, or rationals."""
    if draw(st.booleans()):
        entry = st.integers(-40, 40)
    else:
        entry = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    head = draw(st.lists(entry, min_size=NVARS - 1, max_size=NVARS - 1))
    return head + [-sum(head)]


@st.composite
def power_sum_forms(draw):
    # parts of at least 2: p1 vanishes on the hyperplane and is refused
    degree = draw(st.integers(2, 6))
    terms = draw(
        st.dictionaries(
            st.sampled_from([parts for parts in _partitions(degree) if 1 not in parts]),
            st.integers(-5, 5).filter(bool),
            min_size=1,
        )
    )
    return SymmetricHypersurfaceModel("form", degree, terms)


def _expanded_hessian(poly, coords):
    return [[d.partial(j).evaluate(coords) for j in range(NVARS)] for d in poly.partials()]


class TestPowerSumCore:
    """The power-sum evaluation against the expanded Polynomial form."""

    def _agree(self, model, coords):
        poly = expanded(model)
        assert model.evaluate(coords) == poly.evaluate(coords)
        assert model.gradient(coords) == tuple(d.evaluate(coords) for d in poly.partials())
        hess = _expanded_hessian(poly, coords)
        assert model.hessian(coords) == hess
        if any(coords):
            point = AmbientPoint(coords)
            restricted = [
                [hess[a][b] - hess[a][b + 1] - hess[a + 1][b] + hess[a + 1][b + 1]
                 for b in range(NVARS - 1)]
                for a in range(NVARS - 1)
            ]
            # the point is rescaled to integers; ranks do not change
            rescaled = _expanded_hessian(poly, point.coords)
            assert gauss_rank(restricted) == restricted_hessian_rank(model, point)
            assert model.hessian(point) == rescaled

    @given(hyperplane_coords())
    @settings(max_examples=60, deadline=None)
    def test_both_models_match_the_expansion(self, coords):
        for model in (segre_cubic(), igusa_quartic()):
            self._agree(model, coords)

    @given(power_sum_forms(), hyperplane_coords())
    @settings(max_examples=60, deadline=None)
    def test_any_form_matches_the_expansion(self, model, coords):
        self._agree(model, coords)

    def test_integer_points_stay_integral(self):
        coords = [3, -1, 4, -1, -5, 0]
        for model in (segre_cubic(), igusa_quartic()):
            assert type(model.evaluate(coords)) is int
            assert all(type(g) is int for g in model.gradient(coords))
            assert all(type(h) is int for row in model.hessian(coords) for h in row)
        assert all(type(c) is int for c in MatchingLine(perfect_matchings()[3]).coords_at(2, -7))

    @pytest.mark.parametrize("bad", [True, 0.5, "1.5"])
    def test_line_parameters_parsed_like_coordinates(self, bad):
        line = MatchingLine(perfect_matchings()[3])
        for t, u in ((bad, 1), (1, bad)):
            with pytest.raises(SchemaError):
                line.point_at(t, u)

    def test_bool_coordinates_rejected(self):
        # True == 1 and False == 0, so a bool taken for an int would evaluate
        # to 0 here; AmbientPoint rejects the same coordinates
        coords = [True, False, 0, 0, 0, -1]
        with pytest.raises(SchemaError):
            AmbientPoint(coords)
        for model in (segre_cubic(), igusa_quartic()):
            for method in (model.evaluate, model.gradient, model.hessian, expanded(model).evaluate):
                with pytest.raises(SchemaError):
                    method(coords)


class TestAmbientPoint:
    def test_canonical_form(self):
        p = AmbientPoint(["1/2", "1/2", "-1/2", "-1/2", 0, 0])
        assert p.coords == (1, 1, -1, -1, 0, 0)
        assert AmbientPoint([-2, 0, 0, 0, 0, 2]).coords == (1, 0, 0, 0, 0, -1)

    def test_nonzero_sum_rejected(self):
        with pytest.raises(ValueError):
            AmbientPoint([1, 0, 0, 0, 0, 0])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            AmbientPoint([1, -1])

    @pytest.mark.parametrize("method", ["evaluate", "gradient", "hessian"])
    def test_a_model_refuses_a_short_vector(self, method):
        with pytest.raises(ValueError, match="^need 6 coordinates$"):
            getattr(segre_cubic(), method)([1, -1])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            AmbientPoint([0] * 6)

    def test_int_and_fraction_inputs_agree(self):
        ints = AmbientPoint([6, -4, 2, 0, -2, -2])
        assert ints.coords == (3, -2, 1, 0, -1, -1)
        assert AmbientPoint([Fraction(c, 7) for c in (6, -4, 2, 0, -2, -2)]) == ints

    @given(
        st.lists(st.integers(-10**30, 10**30), min_size=NVARS - 1, max_size=NVARS - 1),
        st.integers(1, 10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_the_private_constructor_equals_the_public_one(self, head, factor):
        v = [factor * x for x in head + [-sum(head)]]
        assume(any(v))
        assert AmbientPoint._of(v) == AmbientPoint(v)

    @pytest.mark.parametrize(
        "coords, message",
        [
            ([], "empty coordinate vector"),
            ([0] * 6, "zero vector does not define a projective point"),
            ([1, 2], "need 6 coordinates"),
            ([1, 0, 0, 0, 0, 0], "coordinates must sum to zero"),
        ],
    )
    def test_the_checks_run_in_order(self, coords, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AmbientPoint(coords)


class TestAmbientPointIsAProjectivePoint:
    """The hyperplane's points are projective points with two more checks."""

    V = (2, -4, 6, 0, -2, -2)

    def test_is_a_projective_point(self):
        assert isinstance(AmbientPoint(self.V), ProjectivePoint)

    def test_equality_repr_and_frozenness_keep_the_class(self):
        p = AmbientPoint(self.V)
        assert p != ProjectivePoint(self.V) and ProjectivePoint(self.V) != p
        assert p == AmbientPoint._of(self.V) and hash(p) == hash(AmbientPoint(self.V))
        assert repr(p) == "AmbientPoint(coords=(1, -2, 3, 0, -1, -1))"
        with pytest.raises(FrozenInstanceError):
            p.coords = (1, -1, 0, 0, 0, 0)
        with pytest.raises(FrozenInstanceError):
            p.label = "new"

    @pytest.mark.parametrize("g", [1, 2, 3, "5/2"])
    def test_a_rank_six_configuration_classifies_like_its_twin(self, g):
        # ten cubic points, a node and a repeat, all inside the hyperplane
        points = sample_segre_points(10, 3) + [segre_nodes()[4].point]
        points.append(points[2])
        twin = [ProjectivePoint(p.coords) for p in points]
        assert classify(PointConfiguration(6, points), g) == classify(
            PointConfiguration(6, twin), g
        )

    def test_a_transform_moves_it_like_its_twin(self):
        t = ProjectiveTransform([[1 if j <= i else 0 for j in range(6)] for i in range(6)])
        assert t.apply(AmbientPoint(self.V)) == t.apply(ProjectivePoint(self.V))


class TestModelsReadAnyProjectivePoint:
    """A model reads a ``ProjectivePoint`` through its coordinates, as it reads a list."""

    V = [1, -1, 0, 0, 0, 0]

    @pytest.mark.parametrize("model", [segre_cubic(), igusa_quartic()], ids=["segre", "igusa"])
    @pytest.mark.parametrize("coords", [V, [2, 3, -1, 0, -5, 1]])
    def test_value_gradient_and_hessian_match_the_list_and_the_twin(self, model, coords):
        point = ProjectivePoint(coords)
        for twin in (list(point.coords), AmbientPoint(coords)):
            assert model.evaluate(point) == model.evaluate(twin)
            assert model.gradient(point) == model.gradient(twin)
            assert model.hessian(point) == model.hessian(twin)

    def test_a_point_off_the_hyperplane_is_read_like_its_list(self):
        point = ProjectivePoint([1, 1, 0, 0, 0, 0])
        assert segre_cubic().evaluate(point) == segre_cubic().evaluate([1, 1, 0, 0, 0, 0]) == 2

    @pytest.mark.parametrize("method", ["evaluate", "gradient", "hessian"])
    def test_three_coordinates_are_refused_as_a_list_is(self, method):
        for point in (ProjectivePoint([1, -1, 0]), [1, -1, 0]):
            with pytest.raises(ValueError, match="^need 6 coordinates$"):
                getattr(segre_cubic(), method)(point)


class TestSegreNodes:
    def test_ten_nodes_singular_and_nodal(self):
        nodes = segre_nodes()
        model = segre_cubic()
        assert len(nodes) == 10
        assert len({n.point.coords for n in nodes}) == 10
        for node in nodes:
            assert verify_singular_point(model, node.point)
            assert restricted_hessian_rank(model, node.point) == 4
            assert sorted(node.point.coords) == [-1, -1, -1, 1, 1, 1]

    def test_split_labels_are_a_bijection(self):
        nodes = segre_nodes()
        assert {n.split for n in nodes} == set(three_three_splits())
        for node in nodes:
            plus, minus = node.split
            assert all(node.point.coords[i] == 1 for i in plus)
            assert all(node.point.coords[i] == -1 for i in minus)

    def test_splits_count_and_normalization(self):
        splits = three_three_splits()
        assert len(splits) == 10
        assert all(s[0][0] == 0 for s in splits)
        assert all(sorted(s[0] + s[1]) == list(range(NVARS)) for s in splits)

    def test_generic_cubic_point_is_not_singular(self):
        model = segre_cubic()
        for p in sample_segre_points(5, seed=2):
            assert model.evaluate(p) == 0
            assert not verify_singular_point(model, p)


class TestIgusaSingularLocus:
    def test_fifteen_matchings(self):
        ms = perfect_matchings()
        assert len(ms) == 15
        assert len(set(ms)) == 15
        for m in ms:
            assert sorted(i for pair in m for i in pair) == list(range(NVARS))
            assert all(a < b for a, b in m)

    def test_lines_singular_at_arbitrary_parameters(self):
        model = igusa_quartic()
        lines = igusa_lines()
        assert len(lines) == 15
        for line in lines:
            for t, u in ((1, 0), (3, 5), (-7, 2), ("1/2", "1/3")):
                point = line.point_at(t, u)
                assert verify_singular_point(model, point)
                assert line.contains(point)

    def test_line_coords_sum_to_zero(self):
        line = MatchingLine(perfect_matchings()[0])
        assert sum(line.coords_at(4, 9)) == 0

    def test_distinguished_points(self):
        model = igusa_quartic()
        points = igusa_points()
        assert len(points) == 15
        assert len({ip.pair for ip in points}) == 15
        for ip in points:
            assert verify_singular_point(model, ip.point)
            # canonicalization may flip the global sign
            assert sorted(ip.point.coords) in (
                [-2, -2, 1, 1, 1, 1], [-1, -1, -1, -1, 2, 2]
            )

    def test_gradient_is_constant_32_at_a_distinguished_point(self):
        grad = igusa_quartic().gradient([-2, -2, 1, 1, 1, 1])
        assert grad == (32,) * 6

    def test_nodes_are_not_singular_on_the_quartic_model(self):
        quartic = igusa_quartic()
        for node in segre_nodes():
            assert quartic.evaluate(node.point) != 0


class TestAlongNormal:
    # no point of either model is known whose gradient has exactly five equal
    # entries, so the rule is held to its definition directly
    @pytest.mark.parametrize("odd", range(NVARS))
    def test_five_equal_entries_are_not_along_the_normal(self, odd):
        grad = [5] * NVARS
        grad[odd] = 7
        assert _along_normal(tuple(grad)) is False

    @pytest.mark.parametrize("value", [32, 0, -3])
    def test_six_equal_entries_are_along_the_normal(self, value):
        assert _along_normal((value,) * NVARS) is True


class TestIncidence:
    def test_counts_and_degrees(self):
        s = incidence_15_3()
        assert len(s.points) == 15
        assert len(s.lines) == 15
        assert len(s.flags) == 45
        for p in s.points:
            assert len(s.lines_through(p)) == 3
        for l in s.lines:
            assert len(s.points_on(l)) == 3

    def test_membership_defines_the_flags(self):
        s = incidence_15_3()
        for pair in s.points:
            for matching in s.lines:
                assert ((pair, matching) in s.flags) == (pair in matching)

    def test_collinear_points_partition_the_complement(self):
        s = incidence_15_3()
        for matching in s.lines:
            pairs = s.points_on(matching)
            assert sorted(i for p in pairs for i in p) == list(range(NVARS))


class TestPolarDuality:
    def test_polar_at_node_raises(self):
        node = segre_nodes()[0]
        with pytest.raises(SingularPointError):
            polar_map(segre_cubic(), node.point)

    def test_polar_off_the_hypersurface_raises(self):
        with pytest.raises(ValueError):
            polar_map(segre_cubic(), AmbientPoint([3, 1, -1, -1, -1, -1]))

    def test_forward_and_reverse_on_sampled_points(self):
        segre = segre_cubic()
        igusa = igusa_quartic()
        for x in sample_segre_points(10, seed=5):
            y = polar_map(segre, x)
            assert igusa.evaluate(y) == 0
            assert not verify_singular_point(igusa, y)
            z = polar_map(igusa, y)
            assert segre.evaluate(z) == 0

    def test_sign_paired_cubic_point_has_singular_polar(self):
        # (1,-1,2,-2,3,-3) pairs to sign along {(0,1),(2,3),(4,5)}; its polar
        # image is constant on those pairs, hence on a singular line
        x = AmbientPoint([1, -1, 2, -2, 3, -3])
        assert segre_cubic().evaluate(x) == 0
        assert _sign_paired(x.coords)
        y = polar_map(segre_cubic(), x)
        igusa = igusa_quartic()
        assert igusa.evaluate(y) == 0
        assert verify_singular_point(igusa, y)
        assert MatchingLine(((0, 1), (2, 3), (4, 5))).contains(y)

    def test_a_quartic_with_normal_gradients_skips_every_reverse_image(self, monkeypatch):
        # the real quartic's terms, so every forward image is on it, but a
        # gradient along (1, ..., 1) everywhere, as on a singular line
        class NormalGradient(SymmetricHypersurfaceModel):
            def _gradient(self, cols, p):
                return (1,) * NVARS

        wrong = NormalGradient("igusa", 4, {(2, 2): 1, (4,): -4})
        monkeypatch.setattr("stabgeom.modhyp.igusa_quartic", lambda: wrong)
        report = duality_check(6, seed=2)
        assert report.samples == report.forward_ok == report.reverse_skipped == 6
        assert report.reverse_ok == 0
        assert report.counterexamples == ()
        assert not report.passed

    def test_duality_report(self):
        report = duality_check(25, seed=11)
        assert report.passed
        assert report.samples == 25
        assert report.forward_ok == 25
        assert report.reverse_ok == 25
        assert report.reverse_skipped == 0
        assert report.counterexamples == ()
        payload = report.to_json()
        assert payload["passed"] is True
        assert payload["counterexamples"] == []


class TestSampling:
    def test_samples_avoid_degenerate_draws(self):
        points = sample_segre_points(30, seed=3)
        assert len(points) == 30
        model = segre_cubic()
        for p in points:
            assert model.evaluate(p) == 0
            assert not verify_singular_point(model, p)
            assert not _sign_paired(p.coords)

    def test_deterministic_per_seed(self):
        a = sample_segre_points(8, seed=4)
        b = sample_segre_points(8, seed=4)
        c = sample_segre_points(8, seed=5)
        assert a == b
        assert a != c

    def test_a_seed_and_its_negative_draw_apart(self):
        for s in range(1, 51):
            assert sample_segre_points(1, s) != sample_segre_points(1, -s), s

    # an int of 5,001 digits: str() of it is refused, Random(it) is not
    @pytest.mark.parametrize("seed", [0, -3, 7, 10**5000], ids=["0", "-3", "7", "10**5000"])
    def test_fewer_samples_are_a_prefix(self, seed):
        points = sample_segre_points(12, seed)
        for k in (0, 1, 5, 12):
            assert sample_segre_points(k, seed) == points[:k]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample_segre_points(-1)

    @pytest.mark.parametrize("bad", [True, 0.5, "1.5"])
    @pytest.mark.parametrize("call", [sample_segre_points, duality_check])
    def test_count_must_be_an_int(self, call, bad):
        with pytest.raises(SchemaError):
            call(bad)

    def test_zero_count(self):
        assert sample_segre_points(0) == []

    @pytest.mark.parametrize(
        "name, fake, message",
        [
            # a point off the cubic: the residual formula needs a node
            (
                "segre_nodes",
                lambda: [SegreNode(AmbientPoint((1, 1, 1, 1, 1, -5)), three_three_splits()[0])],
                "^residual intersection left the cubic$",
            ),
            # a3 = 1 - 1 = 0 on every draw
            (
                "_random_direction",
                lambda rng: [1, -1, 0, 0, 0, 0],
                "^sampling failed to find a usable direction$",
            ),
        ],
        ids=["not-a-node", "flat-direction"],
    )
    def test_a_wrong_node_or_direction_raises(self, monkeypatch, name, fake, message):
        monkeypatch.setattr(f"stabgeom.modhyp.{name}", fake)
        with pytest.raises(RuntimeError, match=message):
            sample_segre_points(1)


def _raw_residual(node, w):
    """The sampler's residual a3*nu - a2*w before any filter, or None when a2*a3 = 0."""
    a2 = 3 * sum(n * wi * wi for n, wi in zip(node, w))
    a3 = sum(wi**3 for wi in w)
    if a2 * a3 == 0:
        return None
    return AmbientPoint([a3 * n - a2 * wi for n, wi in zip(node, w)])


class TestRawResiduals:
    """A raw residual is never singular, and its polar image is singular exactly when it is sign-paired."""

    @given(
        st.sampled_from([n.point.coords for n in segre_nodes()]),
        st.lists(st.integers(-40, 40), min_size=NVARS - 1, max_size=NVARS - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_residual_is_on_the_cubic_and_never_singular(self, node, head):
        x = _raw_residual(node, head + [-sum(head)])
        assume(x is not None)
        segre = segre_cubic()
        assert segre.evaluate(x) == 0
        assert not verify_singular_point(segre, x)

    def test_sign_paired_iff_the_polar_image_is_singular_on_the_quartic(self):
        segre = segre_cubic()
        igusa = igusa_quartic()
        nodes = [n.point.coords for n in segre_nodes()]
        rng = random.Random(19)
        classes = {True: 0, False: 0}
        for _ in range(300):
            w = [rng.randint(-9, 9) for _ in range(NVARS - 1)]
            x = _raw_residual(rng.choice(nodes), w + [-sum(w)])
            if x is None:
                continue
            paired = _sign_paired(x.coords)
            assert verify_singular_point(igusa, polar_map(segre, x)) == paired, x.coords
            classes[paired] += 1
        assert classes[True] > 0 and classes[False] > 0, classes


class TestSignPaired:
    """The sorted-absolute-value test against the perfect-matching definition."""

    def test_exhaustive_small_box(self):
        for coords in product(range(-2, 3), repeat=NVARS):
            assert _sign_paired(coords) == sign_paired_by_matching(coords), coords

    @given(
        st.lists(st.integers(-6, 6), min_size=NVARS, max_size=NVARS),
        st.lists(st.integers(-10**6, 10**6), min_size=NVARS, max_size=NVARS),
        st.lists(st.booleans(), min_size=NVARS, max_size=NVARS),
    )
    @settings(max_examples=300, deadline=None)
    def test_wide_integers(self, small, wide, pick):
        # mixing a narrow range in keeps paired draws frequent
        coords = [a if p else b for a, b, p in zip(small, wide, pick)]
        assert _sign_paired(coords) == sign_paired_by_matching(coords)


class TestOnePowerPass:
    """Each point's power table is built once per question about it."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        original = SymmetricHypersurfaceModel._powers

        def counted(self, point):
            calls.append(point)
            return original(self, point)

        monkeypatch.setattr(SymmetricHypersurfaceModel, "_powers", counted)
        return calls

    def test_duality_makes_three_passes_per_sample(self, monkeypatch, passes):
        import stabgeom.modhyp

        # the sampler's table for x serves its on-cubic test and the forward
        # image, so the check adds two passes per sample: y and z
        samples = list(stabgeom.modhyp._segre_samples(segre_cubic(), 10, 0))
        assert len(passes) >= 10
        monkeypatch.setattr(
            stabgeom.modhyp, "_segre_samples", lambda model, count, seed: iter(samples)
        )
        del passes[:]
        report = duality_check(10, 0)
        assert report.passed and report.reverse_skipped == 0
        assert len(passes) == 20

    def test_duality_pass_count(self, passes):
        # x, y and z for each of the 60 samples: a rejected draw builds no table
        report = duality_check(60, 5)
        assert report.passed
        assert len(passes) == 180

    def test_segre_pass_count(self, passes):
        # one table per node test, per node Hessian and per stray point
        for seed in (0, 7):
            del passes[:]
            assert check_segre_nodes(200, seed).passed
            assert len(passes) == 220

    @pytest.mark.parametrize("seed", [0, 7])
    def test_duality_work_gate(self, passes, seed):
        # 2,000 samples make exactly 6,000 passes at any seed (counted, not
        # timed, so the host's speed cannot move the gate)
        report = duality_check(2000, seed)
        assert report.passed and report.reverse_skipped == 0
        assert len(passes) == 6000

    @pytest.mark.parametrize("seed", [0, 7])
    def test_segre_work_gate(self, passes, seed):
        # a 2,000-point stray search: 2,000 passes, and 20 for the nodes
        assert check_segre_nodes(2000, seed).passed
        assert len(passes) == 2020

    def test_singularity_test_and_polar_map_make_one_pass(self, passes):
        x = sample_segre_points(1, seed=0)[0]
        del passes[:]
        assert not verify_singular_point(segre_cubic(), x)
        assert len(passes) == 1
        polar_map(segre_cubic(), x)
        assert len(passes) == 2

    def test_sampler_makes_one_pass_per_sample(self, passes):
        # draws are rejected before their point is built, so each table
        # belongs to a distinct returned point
        points = sample_segre_points(20, seed=0)
        assert len(passes) == len(points)
        assert all(p is q for p, q in zip(passes, points))
