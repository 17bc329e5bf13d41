"""Exact linear algebra: canonical forms, rank, spans, kernels, transforms."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from stabgeom import (
    FrameDegenerateError,
    PointConfiguration,
    ProjectivePoint,
    ProjectiveTransform,
    SchemaError,
    classify,
    format_scalar,
    parse_scalar,
    projectively_equivalent,
    rank,
)
from stabgeom.exactgeom import (
    _flats,
    _frame_transform,
    _inverse_ints,
    _primitive,
    _rank_ints,
    _shown,
    echelon_basis,
    in_span,
    kernel_basis,
    point_spanned_subspaces,
    reduced_row_echelon,
)

import stabgeom.exactgeom
import stabgeom.gitstab
from stabgeom.cohsys import subsystem_types_from_config
from stabgeom.randconf import random_frame_configuration

from helpers import config_of, degenerate_configurations, gauss_rank, rref

entries = st.integers(min_value=-30, max_value=30)
small = st.integers(min_value=-3, max_value=3)


def matrices(min_side=1, max_side=5):
    return st.integers(min_value=min_side, max_value=max_side).flatmap(
        lambda w: st.lists(
            st.lists(entries, min_size=w, max_size=w), min_size=1, max_size=6
        )
    )


@st.composite
def int_matrices_with_repeats(draw):
    """Integer matrices of 1-6 rows and 1-6 columns mixed with zero and repeated rows."""
    width = draw(st.integers(min_value=1, max_value=6))
    pool = draw(st.lists(st.lists(entries, min_size=width, max_size=width), min_size=1, max_size=6))
    pool.append([0] * width)
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))


rationals = st.one_of(
    small,
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6).map(format_scalar),
)


@st.composite
def kernel_matrices(draw):
    """Rational rows of width 1-6 mixed with zero rows and repeats."""
    width = draw(st.integers(min_value=1, max_value=6))
    pool = draw(st.lists(st.lists(rationals, min_size=width, max_size=width), min_size=1, max_size=4))
    pool.append([0] * width)
    picks = draw(st.lists(st.integers(min_value=0, max_value=len(pool) - 1), min_size=1, max_size=7))
    return [list(pool[i]) for i in picks]


def frame_transpose(rank, count):
    """G^T of a seed-0 frame configuration: the matrix whose kernel its Gale transform reads."""
    rows = random_frame_configuration(random.Random(0), rank, count).rows()
    return [list(col) for col in zip(*rows)]


# the views test also runs in_span per row against a Fraction reference, so
# it takes the (5, 20) matrix, which keeps it well inside the deadline
FRAME_5_20 = frame_transpose(5, 20)
FRAME_8_30 = frame_transpose(8, 30)
BIG = 10**12
BIG_ENTRIES = [[BIG, 1 - BIG, 7], [BIG - 11, BIG, -BIG], [-1, 2, BIG - 3]]
# column 1 clears under the first pivot, so the second pivot skips it; the
# square one needs a row swap there
CLEARED_COLUMN = [[1, 2, 3, 4], [2, 4, 0, 1], [3, 6, 3, 5]]
CLEARED_SQUARE = [[1, 2, 3], [2, 4, 5], [3, 7, 1]]
REPEATS = [[1, 2, 3], [0, 0, 0], [1, 2, 3], [2, 5, 1], [0, 0, 0], [2, 5, 1]]
# the second pivot is 1 after a first pivot of 2, and the last row is 0 in its
# column: it becomes 1*a // 2, which (1 // 2)*a would zero
HALF_STEP = [[2, -1, 0], [1, 0, 0], [0, 0, 2]]


def rref_kernel(m):
    """The kernel read off the reference Fraction RREF, one vector per free column."""
    rows, pivots = rref(m)
    width = len(m[0])
    out = []
    for f in range(width):
        if f in pivots:
            continue
        vec = [Fraction(0)] * width
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -rows[i][f]
        out.append(ProjectivePoint(vec).coords)
    return out


def rref_basis(m):
    """The reference Fraction RREF, each row cleared to primitive integers."""
    return tuple(ProjectivePoint(row).coords for row in rref(m)[0])


def rref_inverse(m):
    """The right half of the reference RREF of [M | I]; None when M is singular."""
    n = len(m)
    rows, pivots = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in rows]


class TestScalars:
    def test_parse_accepts_int_fraction_and_strings(self):
        assert parse_scalar(7) == 7
        assert parse_scalar(Fraction(3, 4)) == Fraction(3, 4)
        assert parse_scalar("-5/3") == Fraction(-5, 3)
        assert parse_scalar(" 12 ") == 12

    # the last three are Arabic-Indic and fullwidth digits: Unicode digits, not ASCII
    @pytest.mark.parametrize(
        "bad", ["", "1.5", "2/0", "1/-3", "a", "1e3", None, 2.5, True, "\u0662", "\uff11\uff12", "\u0661/2"]
    )
    def test_parse_rejects_non_rationals(self, bad):
        with pytest.raises(SchemaError):
            parse_scalar(bad)

    def test_an_echoed_value_is_cut_after_100_characters(self):
        assert _shown("ab") == "'ab'"
        assert _shown("7" * 98) == repr("7" * 98)
        assert _shown("7" * 500) == "'" + "7" * 99 + "..."
        with pytest.raises(SchemaError, match=r"^not a rational literal: '7{99}\.\.\.$"):
            parse_scalar("7" * 5000 + "x")

    def test_an_int_past_the_digit_limit_is_not_echoed(self):
        # repr of an int of more than 4,300 digits raises ValueError
        assert _shown(10**5000) == "<int too large to show>"
        assert _shown([1, 10**5000]) == "<list too large to show>"
        with pytest.raises(SchemaError, match="must be iterable: <int too large to show>$"):
            PointConfiguration.from_rows(10**5000)

    @pytest.mark.parametrize("bad", [True, 0.5, "1.5"])
    def test_format_rejects_non_rationals(self, bad):
        with pytest.raises(SchemaError):
            format_scalar(bad)

    def test_format_round_trips(self):
        assert format_scalar(Fraction(6, 4)) == "3/2"
        assert format_scalar(Fraction(-6, 3)) == "-2"
        assert format_scalar(5) == "5"

    @given(st.fractions())
    def test_format_parse_identity(self, q):
        assert parse_scalar(format_scalar(q)) == q


class TestProjectivePoint:
    def test_canonical_form_strips_scale_and_sign(self):
        assert ProjectivePoint([2, 4, -6]).coords == (1, 2, -3)
        assert ProjectivePoint([-2, 4, -6]).coords == (1, -2, 3)
        assert ProjectivePoint(["1/2", "1/3", 0]).coords == (3, 2, 0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            ProjectivePoint([0, 0, 0])

    def test_non_ascii_digit_coordinates_rejected(self):
        with pytest.raises(SchemaError):
            ProjectivePoint(["\u0661", "\u0662"])

    def test_bool_coordinates_rejected(self):
        with pytest.raises(SchemaError):
            ProjectivePoint([True, 0, 1])
        with pytest.raises(SchemaError):
            ProjectivePoint([False, False])

    @given(st.lists(entries, min_size=1, max_size=5))
    def test_int_path_matches_the_fraction_path(self, coords):
        if not any(coords):
            return
        point = ProjectivePoint(coords)
        assert point == ProjectivePoint([Fraction(c) for c in coords])
        assert all(type(c) is int for c in point.coords)

    @given(st.lists(entries, min_size=1, max_size=5), st.fractions())
    def test_scaling_is_invisible(self, coords, scale):
        if not any(coords) or scale == 0:
            return
        assert ProjectivePoint(coords) == ProjectivePoint([scale * c for c in coords])


class TestPrimitive:
    @pytest.mark.parametrize(
        "ints, expected",
        [
            ([0, -3, 5], (0, 3, -5)),  # content 1, negative lead
            ([0, 3, -5], (0, 3, -5)),  # content 1, positive lead: returned as it is
            ([6 * 10**40, -9 * 10**40, 0], (2, -3, 0)),  # large common factor
            ([-14 * 10**40, 0, 21 * 10**40], (2, 0, -3)),
            ([-7], (1,)),  # single entry
            ([12], (1,)),
            ((0, 0, 1), (0, 0, 1)),
        ],
    )
    def test_explicit_cases(self, ints, expected):
        got = _primitive(ints)
        assert type(got) is tuple
        assert got == expected


class TestConfigurationSchema:
    def test_round_trip_through_json_dict(self):
        config = config_of((1, 0, 0), (0, 1, 0), (2, 2, 2))
        again = PointConfiguration.from_json_dict(config.to_json_dict())
        assert again == config
        assert again.to_json_dict()["points"][2] == ["1", "1", "1"]

    @pytest.mark.parametrize(
        "data",
        [
            [],
            {"points": [["1", "0"]]},
            {"ambient_rank": 0, "points": [["1"]]},
            {"ambient_rank": True, "points": [["1"]]},
            {"ambient_rank": 2, "points": []},
            {"ambient_rank": 2, "points": [["1"]]},
            {"ambient_rank": 2, "points": [["0", "0"]]},
            {"ambient_rank": 2, "points": [["1", "0.5"]]},
            {"ambient_rank": 2, "points": [["1", "0"]], "extra": 1},
        ],
    )
    def test_schema_violations_raise(self, data):
        with pytest.raises(SchemaError):
            PointConfiguration.from_json_dict(data)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ProjectivePoint(5),
            lambda: PointConfiguration(2, 5),
            lambda: PointConfiguration.from_rows(5),
        ],
        ids=["point", "points", "rows"],
    )
    def test_a_non_iterable_is_a_schema_error(self, build):
        with pytest.raises(SchemaError, match="must be iterable: 5$"):
            build()

    def test_wrong_coordinate_length_rejected(self):
        with pytest.raises(ValueError):
            PointConfiguration(3, [ProjectivePoint([1, 0])])

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: ProjectivePoint([]), ValueError, "^empty coordinate vector$"),
            (lambda: PointConfiguration(2, []), ValueError, "at least one point"),
            (lambda: PointConfiguration(2, [(1, 0)]), SchemaError, "ProjectivePoint instances"),
            (lambda: PointConfiguration.from_rows([]), ValueError, "^no rows given$"),
        ],
        ids=["empty-vector", "no-points", "not-a-point", "no-rows"],
    )
    def test_empty_and_foreign_input_refused(self, build, error, message):
        with pytest.raises(error, match=message):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ProjectivePoint("12"),
            lambda: ProjectivePoint(b"12"),
            lambda: PointConfiguration.from_rows(["12", "34"]),
            lambda: ProjectiveTransform(["12", "34"]),
            lambda: ProjectiveTransform("12"),
            lambda: rank(["12", "34"]),
            lambda: kernel_basis([[1, 2], "34"]),
        ],
        ids=["point", "bytes", "from-rows", "transform", "transform-string", "rank", "kernel"],
    )
    def test_a_string_is_not_a_coordinate_vector(self, build):
        # read character by character, "12" would be the point (1, 2) and b"12" (49, 50)
        with pytest.raises(SchemaError, match="cannot be a string"):
            build()

    @pytest.mark.parametrize("bad", [True, 0.5, "1.5"])
    def test_ambient_rank_must_be_an_int(self, bad):
        with pytest.raises(SchemaError):
            PointConfiguration(bad, [ProjectivePoint([1])])


class TestRank:
    @given(matrices())
    @settings(max_examples=150)
    def test_matches_gaussian_oracle(self, m):
        assert rank(m) == gauss_rank(m)

    @given(matrices(), st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_invariant_under_permutation_and_row_scaling(self, m, rnd):
        rows = [list(r) for r in m]
        rnd.shuffle(rows)
        cols = list(range(len(rows[0])))
        rnd.shuffle(cols)
        scaled = []
        for row in rows:
            s = rnd.choice([1, 2, 3, -1, -5])
            scaled.append([s * row[c] for c in cols])
        assert rank(scaled) == rank(m)

    @given(matrices())
    @settings(max_examples=100)
    def test_invariant_under_transpose(self, m):
        t = [[row[i] for row in m] for i in range(len(m[0]))]
        if not t:
            return
        assert rank(t) == rank(m)

    def test_fractional_entries(self):
        assert rank([[Fraction(1, 2), Fraction(1, 3)], ["3", "2"]]) == 1
        assert rank([["1/2", "1/3"], ["1", "1"]]) == 2

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            rank([[1, 2], [1]])

    @given(int_matrices_with_repeats())
    @settings(max_examples=200)
    @example([[0]])
    @example([[2, 4], [1, 2], [0, 0], [2, 4]])
    def test_rank_ints_matches_gaussian_oracle(self, m):
        # _rank_ints overwrites its rows, so it gets a copy
        assert _rank_ints([list(row) for row in m]) == gauss_rank(m)


class TestEchelonAndKernel:
    @given(matrices())
    @settings(max_examples=100)
    def test_rref_pivots_count_rank(self, m):
        rows, pivots = reduced_row_echelon(m)
        assert len(rows) == len(pivots) == rank(m)
        for i, p in enumerate(pivots):
            assert rows[i][p] == 1
            assert all(rows[j][p] == 0 for j in range(len(rows)) if j != i)

    @given(matrices())
    @settings(max_examples=100)
    def test_kernel_vectors_annihilate(self, m):
        basis = kernel_basis(m)
        width = len(m[0])
        assert len(basis) == width - rank(m)
        for v in basis:
            assert all(sum(row[j] * v[j] for j in range(width)) == 0 for row in m)

    @given(matrices())
    @settings(max_examples=100)
    def test_echelon_basis_spans_the_rows(self, m):
        basis = echelon_basis(m)
        assert all(in_span(basis, row) for row in m)
        assert len(basis) == rank(m)

    @given(kernel_matrices())
    @settings(max_examples=200)
    @example([[1, 0], [0, 1]])
    @example([[Fraction(1, 2), "2/3", 3], ["-1/5", 0, 1], [4, Fraction(-7, 3), "5"]])
    @example([[0]])
    @example([[3], ["1/2"]])
    @example([[0, 0, 0], [0, 0, 0]])
    @example([[1, 2, 3], [1, 2, 3], [0, 0, 0], ["2", "4", "6"]])
    @example(FRAME_8_30)
    @example(BIG_ENTRIES)
    @example([row[:2] for row in BIG_ENTRIES])
    @example([[0, 0, 1, 2], [0, 0, 3, 4]])
    @example(CLEARED_COLUMN)
    @example(CLEARED_SQUARE)
    @example(REPEATS)
    @example(HALF_STEP)
    def test_kernel_equals_the_rref_reference(self, m):
        assert kernel_basis(m) == rref_kernel(m)

    @given(kernel_matrices(), st.data())
    @settings(max_examples=200)
    @example([[1, 0], [0, 1]], None)
    @example([[2, "1/3"], [Fraction(-1, 2), 5]], None)
    @example([["1/2", 0, 0], [0, 3, 0], [0, 0, Fraction(-2, 7)]], None)
    @example([[1, 2], [2, 4]], None)
    @example([[0]], None)
    @example([[1, 2, 3], [4, 5, 6]], None)
    @example([[1], [2]], None)
    @example(FRAME_5_20, None)
    @example(BIG_ENTRIES, None)
    @example([[-BIG, BIG - 1], [BIG + 1, BIG]], None)
    @example([[0, 0, 1, 2], [0, 0, 3, 4]], None)
    @example(CLEARED_COLUMN, None)
    @example(CLEARED_SQUARE, None)
    @example(REPEATS, None)
    @example(HALF_STEP, None)
    @example([[1, 2, 3], [1, 2, 3], [0, 0, 0]], None)
    def test_echelon_views_equal_the_rref_reference(self, m, data):
        rows, pivots = rref(m)
        assert reduced_row_echelon(m) == (rows, pivots)
        basis = echelon_basis(m)
        assert basis == rref_basis(m)
        width = len(m[0])
        vectors = list(m)
        if data is not None:
            vectors.append(data.draw(st.lists(rationals, min_size=width, max_size=width)))
        for v in vectors:
            expected = gauss_rank(rows + [v]) == len(rows)
            assert in_span(basis, v) == expected
            assert in_span(rows, v) == expected
            assert in_span(m, v) == expected
        if len(m) != width:
            with pytest.raises(ValueError, match="^transform matrix must be square$"):
                ProjectiveTransform(m)
            return
        expected = rref_inverse(m)
        if expected is None:
            with pytest.raises(ValueError, match="^transform matrix must be invertible$"):
                ProjectiveTransform(m)
        else:
            inverse = _inverse_ints(ProjectiveTransform(m).matrix)
            assert ProjectiveTransform(inverse) == ProjectiveTransform(expected)

    def test_inverse_round_trip_at_eight(self):
        # the frame matrix of the seed-0 (8, 30) configuration: its first 8 points as columns
        m = [row[:8] for row in FRAME_8_30]
        inverse = _inverse_ints(m)
        product = [[sum(map(mul, row, col)) for col in zip(*inverse)] for row in m]
        scale = product[0][0]
        assert scale != 0
        assert product == [[scale * (i == j) for j in range(8)] for i in range(8)]
        assert ProjectiveTransform(inverse) == ProjectiveTransform(rref_inverse(m))
        assert ProjectiveTransform(_inverse_ints(inverse)) == ProjectiveTransform(m)

    def test_kernel_of_full_column_rank_is_empty(self):
        assert kernel_basis([[1, 2], [3, 4], [5, 6]]) == []
        assert kernel_basis([["1/2"]]) == []

    @pytest.mark.parametrize("bad", [[], [[]], [[1, 2], [1]], [[1], [2, 3]]])
    def test_kernel_rejects_empty_and_ragged(self, bad):
        with pytest.raises(ValueError):
            kernel_basis(bad)

    def test_in_span_reads_rows_not_in_echelon_form(self):
        # (0, 1) = (1, 1) - (1, 0), though neither row has its pivot in column 1
        assert in_span([[1, 1], [1, 0]], [0, 1])
        assert not in_span([[1, 1], [2, 2]], [0, 1])

    @pytest.mark.parametrize(
        "basis, vector",
        [([[1, 2]], [1, 2, 3]), ([[1, 2]], [1]), ([[1, 2], [1]], [1, 2]), ([[1], [1, 2]], [0, 1])],
    )
    def test_in_span_rejects_a_width_mismatch(self, basis, vector):
        # a shorter row is not read against a longer one's first entries: (1, 2, 3)
        # is not in the span of (1, 2), nor (1) in it
        with pytest.raises(ValueError, match="^ragged matrix$"):
            in_span(basis, vector)

    def test_in_span_fraction_route_agrees_with_int_route(self):
        basis = echelon_basis([[2, 0, 4], [0, 3, 9]])
        for vec in ([2, 3, 13], [1, 1, 1], [0, 0, 1], [4, -3, -1]):
            frac_vec = [Fraction(x) for x in vec]
            assert in_span(basis, vec) == in_span(basis, frac_vec)


class TestTransforms:
    @given(
        st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3)
    )
    @settings(max_examples=80)
    def test_inverse_composes_to_identity(self, m):
        if rank(m) != 3:
            return
        t = ProjectiveTransform(m)
        inverse = ProjectiveTransform(_inverse_ints(t.matrix))
        assert ProjectiveTransform(_inverse_ints(inverse.matrix)) == t
        for p in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)):
            point = ProjectivePoint(p)
            assert inverse.apply(t.apply(point)) == point

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            ProjectiveTransform([[1, 2], [2, 4]])
        with pytest.raises(ValueError, match="^matrix is singular$"):
            _inverse_ints([[1, 2], [2, 4]])

    def test_equality_is_proportionality(self):
        identity = ProjectiveTransform([[1, 0], [0, 1]])
        assert ProjectiveTransform([[-2, 0], [0, -2]]) == identity
        assert ProjectiveTransform([["1/2", 0], [0, Fraction(1, 2)]]) == identity
        assert ProjectiveTransform([[1, 0], [0, 2]]) != identity
        assert ProjectiveTransform([[-2, 0], [0, -2]]).matrix == ((1, 0), (0, 1))

    @pytest.mark.parametrize(
        "m, coords",
        [([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (1, 2)), ([[1, 2], [3, 4]], (1, 0, 5))],
    )
    def test_apply_rejects_a_point_of_the_wrong_length(self, m, coords):
        with pytest.raises(ValueError, match="coordinates, transform acts on"):
            ProjectiveTransform(m).apply(ProjectivePoint(coords))


class TestSpans:
    def test_point_spanned_subspaces_are_closed_and_proper(self):
        config = config_of(
            (1, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1)
        )
        subs = point_spanned_subspaces(config)
        rows = config.rows()
        bases = [echelon_basis([rows[i] for i in members]) for _, members in subs]
        assert len(set(bases)) == len(subs)
        for (dim, members), basis in zip(subs, bases):
            assert 1 <= dim < config.ambient_rank
            assert {i for i in range(len(rows)) if in_span(basis, rows[i])} == set(members)
        line = next(m for d, m in subs if d == 2 and 0 in m and 2 in m)
        assert set(line) == {0, 1, 2, 3}


def reference_flats(config):
    """(members, dim) of every closed proper point-spanned subspace, from gauss_rank alone.

    For each subset S of span dimension s < r, the members are the points i
    with rank(S + {i}) = s.
    """
    rows = config.rows()
    n = len(rows)
    span = {
        subset: gauss_rank([rows[i] for i in subset])
        for size in range(1, n + 1)
        for subset in combinations(range(n), size)
    }
    return {
        (tuple(i for i in range(n) if span[tuple(sorted({*subset, i}))] == s), s)
        for subset, s in span.items()
        if s < config.ambient_rank
    }


def assert_flats_match_reference(config):
    subs = point_spanned_subspaces(config)
    assert {(members, dim) for dim, members in subs} == reference_flats(config)
    assert len(subs) == len({members for _, members in subs})
    assert subs == sorted(subs)


class TestPointSpannedSubspaces:
    @settings(max_examples=150, deadline=None)
    @given(degenerate_configurations())
    @example(config_of((1,), (2,), (-3,)))
    @example(config_of(*[(1, 2, 0, -1)] * 7))
    @example(config_of((1, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (0, 0, 1)))
    # in V/span(0, 1) points 2 and 3 have one image, and the flat (0, 1, 2, 3)
    # built from that merged class is searched below
    @example(config_of((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 1, 1, 0, 0), (0, 0, 0, 1, 0)))
    def test_flats_match_independent_rank_reference(self, config):
        assert_flats_match_reference(config)

    @settings(max_examples=150, deadline=None)
    @given(degenerate_configurations())
    @example(config_of(*[(1, 2, 0, -1)] * 7))
    @example(config_of((1, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (0, 0, 1)))
    def test_reverse_search_yields_each_flat_once(self, config):
        flats = list(_flats(config))
        assert len({members for _, members in flats}) == len(flats)
        assert sorted(flats) == point_spanned_subspaces(config)

    @settings(max_examples=150, deadline=None)
    @given(degenerate_configurations(), st.integers(min_value=2, max_value=4))
    def test_keep_yields_exactly_the_flats_it_accepts(self, config, m):
        def keep(dim, size):
            return (dim + size) % m != 0

        flats = list(_flats(config, keep=keep))
        assert len(set(flats)) == len(flats)
        assert sorted(flats) == [f for f in point_spanned_subspaces(config) if keep(f[0], len(f[1]))]

    def test_an_earlier_class_refuses_a_kept_hyperplane(self):
        # through the point 1 the later point 2 lies on the line of the earlier
        # point 0: the candidate line {1, 2} passes keep, and the lazily imaged
        # point 0 refuses it, since {0, 1, 2} is generated from the point 0
        config = config_of((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1))
        lines = list(_flats(config, keep=lambda dim, size: dim == 2))
        assert lines == [(2, (0, 1, 2)), (2, (0, 3)), (2, (1, 3)), (2, (2, 3))]

    def test_rank_six_matches_the_reference_on_seeded_draws(self):
        # rank 6 is past the hypothesis test's range; its own rng stream
        rng = random.Random(606)
        for _ in range(10):
            n = rng.randint(6, 10)
            rows = []
            for _ in range(n):
                kind = rng.choice(("random", "repeat", "collinear"))
                if kind == "repeat" and rows:
                    row = rng.choice(rows)
                elif kind == "collinear" and len(rows) >= 2:
                    a, b = rng.sample(rows, 2)
                    s, t = rng.randint(-3, 3), rng.randint(-3, 3)
                    row = [s * x + t * y for x, y in zip(a, b)]
                else:
                    row = [rng.randint(-3, 3) for _ in range(6)]
                rows.append(row if any(row) else [0] * 5 + [1])
            assert_flats_match_reference(config_of(*rows))

    def test_rank_one_has_no_proper_subspace(self):
        assert point_spanned_subspaces(config_of((1,), (-2,), (1,))) == []

    def test_rank_two_flats_are_the_distinct_points(self):
        config = config_of((1, 0), (2, 0), (0, 1), (1, 1), (0, -3), (-1, -1), (2, -1))
        assert point_spanned_subspaces(config) == [(1, (0, 1)), (1, (2, 4)), (1, (3, 5)), (1, (6,))]


def pinned_configurations(r):
    """Five seeded configurations of r + 2 to 3r + 2 points of P^(r-1), with
    repeats and collinear points."""
    rng = random.Random(7000 + r)
    for _ in range(5):
        rows = []
        for _ in range(rng.randint(r + 2, 3 * r + 2)):
            kind = rng.choice(("random", "repeat", "collinear"))
            if kind == "repeat" and rows:
                row = rng.choice(rows)
            elif kind == "collinear" and len(rows) >= 2:
                a, b = rng.sample(rows, 2)
                s, t = rng.randint(-3, 3), rng.randint(-3, 3)
                row = [s * x + t * y for x, y in zip(a, b)]
            else:
                row = [rng.randint(-3, 3) for _ in range(r)]
            rows.append(row if any(row) else [1] + [0] * (r - 1))
        yield config_of(*rows)


class TestFlatStreamPin:
    """The flats ``_flats`` yields, in order, unpruned and under the margin
    bound of ``classify``, pinned by digest: the order decides which flats
    the bound cuts, and the CI work gates count the pruned search. The
    sorted stream, the set of flats, is pinned apart and checked first: a
    change of order alone never moves it."""

    @pytest.mark.parametrize(
        "r, full, pruned, flats",
        [
            (
                3,
                "baf0b8b1a9c271acb0e03ae15fb8c8b3b5128d88f936a30bcba89b997d95528f",
                "b2a6b4a8911e57dbb96a43ffe1a14e8c078186af4def52078b14fc12323a2433",
                "1f0a9ac0d7a5d36d5230eb1bd1236dfc956776a0d1ce322b5daac41f935ec5dc",
            ),
            (
                4,
                "942865f0e78c11fbb950f11b7b3d9237675e4e8830d75f831081b898fc6dade9",
                "8173089f7db8be681333cbc4692391c378fa60f3619ac1fa07661c1aae56cdcd",
                "d9c4b0f65df542de4be6402b54ca33cac879b6deba09c8e672959a64402e7729",
            ),
            (
                5,
                "baf9c0555a65cda496ea2bd45ec239dfcbbc4a142e80d953445d9b5cae099442",
                "b68976dc551809135886b036f1dbdd6edefc4a1364014d53ba324e7eadd5c41c",
                "d8adfc43b64a9a87284efe8c6da0cf4acc4481e52a75ce25aaa138ffd2142786",
            ),
            (
                6,
                "e6f3fc7970e87b90b626c2cf312a3639d73282d4ea98675eeecabce570855140",
                "f613d0ba77f9cff823c6556500fe2405bb02d22a7c8b7817e8775da880222594",
                "38befe0474cb0d00b1df4d006c9f49f0b4bea0a3b6eec6717f209cc887fd4705",
            ),
        ],
        ids=["r3", "r4", "r5", "r6"],
    )
    def test_streams_are_unchanged(self, monkeypatch, r, full, pruned, flats):
        configs = list(pinned_configurations(r))
        seen = []

        def recorded(config, descend=None, keep=None):
            for flat in _flats(config, descend, keep):
                seen[-1].append(flat)
                yield flat

        monkeypatch.setattr(stabgeom.gitstab, "_flats", recorded)
        for config in configs:
            for g in (1, Fraction(len(config), r), 3):
                seen.append([])
                classify(config, g)
        streams = [list(_flats(config)) for config in configs]
        assert hashlib.sha256(repr(list(map(sorted, streams))).encode()).hexdigest() == flats
        assert hashlib.sha256(repr(streams).encode()).hexdigest() == full
        assert hashlib.sha256(repr(seen).encode()).hexdigest() == pruned


class TestHyperplaneLevelPairs:
    def test_the_hyperplane_level_images_only_through_pair(self, monkeypatch):
        # V/F is three-dimensional where the hyperplanes are grouped, so a
        # 3-vector reaching _image means that level fell back to it
        widths = {"_image": [], "_pair": []}
        for name in widths:
            original = getattr(stabgeom.exactgeom, name)

            def recorded(w, u, q, original=original, seen=widths[name]):
                seen.append(len(w))
                return original(w, u, q)

            monkeypatch.setattr(stabgeom.exactgeom, name, recorded)
        for r in range(3, 7):
            for config in pinned_configurations(r):
                for g in (1, Fraction(len(config), r), 3):
                    classify(config, g)
                subsystem_types_from_config(config)
                list(_flats(config))
        assert 3 not in widths["_image"]
        assert widths["_image"] and widths["_pair"]
        assert set(widths["_pair"]) == {3}


class TestProjectiveEquivalence:
    def test_transformed_configuration_is_equivalent(self):
        config = config_of(
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (2, -1, 5)
        )
        m = [[1, 2, 0], [0, 1, 1], [1, 0, -1]]
        assert rank(m) == 3
        moved = config.apply(ProjectiveTransform(m))
        t = projectively_equivalent(config, moved)
        assert t is not None
        for p, q in zip(config.points, moved.points):
            assert t.apply(p) == q

    def test_non_equivalent_configurations_return_none(self):
        a = config_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 4, 9))
        b = config_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 4, 8))
        assert projectively_equivalent(a, b) is None

    def test_degenerate_frame_raises(self):
        config = config_of((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1))
        with pytest.raises(FrameDegenerateError):
            projectively_equivalent(config, config)

    def test_degenerate_target_frame_is_not_equivalent(self):
        good = config_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3))
        bad = config_of((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1))
        assert projectively_equivalent(good, bad) is None
        with pytest.raises(FrameDegenerateError):
            projectively_equivalent(bad, good)

    def test_too_few_points_rejected(self):
        a = config_of((1, 0), (0, 1), (1, 1))
        with pytest.raises(ValueError):
            projectively_equivalent(a, a)

    @pytest.mark.parametrize(
        "other, message",
        [
            (config_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), "different ambient ranks"),
            (config_of((1, 0), (0, 1), (1, 1), (1, 2), (1, 3)), "different sizes"),
        ],
        ids=["rank", "size"],
    )
    def test_mismatched_configurations_rejected(self, other, message):
        a = config_of((1, 0), (0, 1), (1, 1), (1, 2))
        with pytest.raises(ValueError, match=message):
            projectively_equivalent(a, other)


def frame_in_general_position(rows, r):
    """Whether every r of the first r + 2 rows are independent, by gauss_rank alone."""
    return all(gauss_rank([rows[i] for i in c]) == r for c in combinations(range(r + 2), r))


@st.composite
def small_frames(draw):
    """Ranks 1-4 with r + 2 to r + 3 points of entries in [-2, 2]: degenerate frames are common."""
    r = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=r + 2, max_value=r + 3))
    point = st.lists(st.integers(min_value=-2, max_value=2), min_size=r, max_size=r).filter(any)
    return PointConfiguration.from_rows(draw(st.lists(point, min_size=n, max_size=n)))


class TestFrameGeneralPosition:
    # one frame per way to fail: M singular, some c_i = 0, some d_i = 0,
    # and a vanishing minor c_i*d_j - c_j*d_i
    DEGENERATE = [
        ("matrix is singular", [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1)]),
        ("not in general position", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 2, 3)]),
        ("not in general position", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 0)]),
        ("not in general position", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 2, 3)]),
    ]

    @pytest.mark.parametrize("message, rows", DEGENERATE)
    def test_each_degenerate_kind_raises(self, message, rows):
        assert not frame_in_general_position(rows, 3)
        with pytest.raises(FrameDegenerateError, match=message):
            _frame_transform(config_of(*rows))

    @given(small_frames())
    @settings(max_examples=300)
    @example(config_of(*DEGENERATE[0][1]))
    @example(config_of(*DEGENERATE[3][1]))
    @example(config_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)))
    def test_verdict_matches_every_r_subset(self, config):
        r = config.ambient_rank
        rows = config.rows()
        if not frame_in_general_position(rows, r):
            with pytest.raises(FrameDegenerateError):
                _frame_transform(config)
            return
        t, _ = _frame_transform(config)
        images = [ProjectivePoint([sum(a * b for a, b in zip(row, p)) for row in t]) for p in rows]
        unit = [ProjectivePoint([int(i == j) for i in range(r)]) for j in range(r)]
        assert images[: r + 1] == unit + [ProjectivePoint([1] * r)]
