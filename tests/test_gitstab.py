"""Span-criterion stability: known verdicts, witnesses, and the oracle."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from stabgeom import (
    SchemaError,
    StabilityClass,
    SubsetTooLargeError,
    classify,
    oracle_classify,
    worst_subspace,
)
import stabgeom.cohsys
import stabgeom.gitstab
from stabgeom.cohsys import equivalence_check, subsystem_types_from_config
from stabgeom.exactgeom import _flats, point_spanned_subspaces
from stabgeom.randconf import random_configuration, random_transform

from helpers import (
    config_of,
    degenerate_configurations,
    gauss_rank,
    matroid_partition,
    triple_point_config,
)


class TestKnownVerdicts:
    def test_generic_six_points_weight_two_is_stable(self):
        config = config_of(
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 4, 9)
        )
        verdict = classify(config, 2)
        assert verdict.classification is StabilityClass.STABLE
        assert verdict.witness is None
        assert verdict.is_stable and verdict.is_semistable

    def test_triple_point_weight_two_is_unstable(self):
        verdict = classify(triple_point_config(), 2)
        assert verdict.classification is StabilityClass.UNSTABLE
        assert verdict.witness.indices == (0, 1, 2)
        assert verdict.witness.span_dim == 1
        assert verdict.witness.size == 3
        assert verdict.margin == 1
        assert not verdict.is_semistable

    def test_double_point_weight_two_is_strictly_semistable(self):
        config = config_of(
            (1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)
        )
        verdict = classify(config, 2)
        assert verdict.classification is StabilityClass.STRICTLY_SEMISTABLE
        assert verdict.witness.indices == (0, 1)

    def test_four_on_a_line_weight_two_is_strictly_semistable(self):
        config = config_of(
            (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (0, 0, 1), (1, 1, 1)
        )
        verdict = classify(config, 2)
        assert verdict.classification is StabilityClass.STRICTLY_SEMISTABLE
        assert verdict.witness.span_dim == 2
        assert verdict.witness.size == 4

    def test_fractional_weight(self):
        config = config_of((1, 0), (1, 0), (0, 1), (1, 1))
        assert classify(config, Fraction(3, 2)).classification is StabilityClass.UNSTABLE
        assert classify(config, 2).classification is StabilityClass.STRICTLY_SEMISTABLE
        assert classify(config, 3).classification is StabilityClass.STABLE

    def test_rank_one_configuration_is_vacuously_stable(self):
        config = config_of((1,), (1,), (1,))
        verdict = classify(config, 2)
        assert verdict.classification is StabilityClass.STABLE
        assert verdict.margin is None
        assert verdict == oracle_classify(config, 2)
        with pytest.raises(ValueError):
            worst_subspace(config, 2)

    @pytest.mark.parametrize("bad", [True, 0.5, "1.5"])
    @pytest.mark.parametrize("call", [classify, oracle_classify, worst_subspace])
    def test_weight_parsed_like_a_coordinate(self, call, bad):
        with pytest.raises(SchemaError):
            call(config_of((1, 0), (0, 1), (1, 1)), bad)

    def test_nonpositive_weight_rejected(self):
        config = config_of((1, 0), (0, 1))
        for g in (0, -1, Fraction(-1, 2)):
            with pytest.raises(ValueError):
                classify(config, g)
            with pytest.raises(ValueError):
                oracle_classify(config, g)


class TestWitnessContract:
    def test_witness_is_span_closed(self):
        # the pair (0,1) spans the line that also carries point 3
        config = config_of((1, 0, 0), (2, 1, 0), (0, 0, 1), (1, 2, 0), (1, 1, 1), (3, 1, 2))
        verdict = classify(config, 1)
        members = set(verdict.witness.indices)
        rows = config.rows()
        from stabgeom.exactgeom import echelon_basis, in_span

        basis = echelon_basis([rows[i] for i in verdict.witness.indices])
        closure = {i for i in range(len(rows)) if in_span(basis, rows[i])}
        assert members == closure

    def test_ties_prefer_smaller_then_lexicographic(self):
        # two disjoint double points, identical margins: indices (0,1) win
        config = config_of((1, 1, 0), (1, 1, 0), (0, 1, 1), (0, 1, 1), (1, 0, 0), (0, 1, 0))
        verdict = classify(config, 2)
        assert verdict.witness.indices == (0, 1)
        oracle = oracle_classify(config, 2)
        assert oracle.witness.indices == (0, 1)

    @pytest.mark.parametrize(
        "rows, g",
        [
            # five points spanning a plane of P^3 (margin 5 - 3g) against a
            # double point off it (margin 2 - g)
            (
                [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0), (1, 2, 3, 0),
                 (1, 1, 1, 1), (1, 1, 1, 1)],
                Fraction(3, 2),
            ),
            # seven points spanning a hyperplane of P^4 (margin 7 - 4g)
            (
                [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0),
                 (1, 1, 1, 1, 0), (1, 2, 3, 4, 0), (1, 4, 9, 16, 0),
                 (1, 1, 2, 3, 5), (1, 1, 2, 3, 5)],
                Fraction(5, 3),
            ),
        ],
    )
    def test_tie_across_dimensions_at_fractional_weight(self, rows, g):
        # the lex-smaller span loses the tie to the smaller double point
        config = config_of(*rows)
        n = len(rows)
        verdict = classify(config, g)
        assert verdict.classification is StabilityClass.UNSTABLE
        assert verdict.witness.indices == (n - 2, n - 1)
        assert verdict.witness.span_dim == 1
        assert verdict.margin == 2 - g
        assert oracle_classify(config, g) == verdict

    @settings(max_examples=100, deadline=None)
    @given(degenerate_configurations(), st.sampled_from([2, 3, Fraction(3, 2)]))
    @example(triple_point_config(), 2)
    def test_worst_subspace_margin_matches_witness(self, config, g):
        verdict = classify(config, g)
        if config.ambient_rank == 1:
            with pytest.raises(ValueError):
                worst_subspace(config, g)
            return
        flat, margin = worst_subspace(config, g)
        assert margin == verdict.margin
        assert flat in point_spanned_subspaces(config)
        if margin >= 0:
            assert flat == (verdict.witness.span_dim, verdict.witness.indices)


class TestOracleAgreement:
    def test_verdicts_and_witnesses_match_on_seeded_draws(self):
        rng = random.Random(20240817)
        for _ in range(60):
            r = rng.choice((2, 3))
            config = random_configuration(rng, r, rng.randint(4, 8))
            g = rng.choice((2, 3, Fraction(5, 2)))
            assert classify(config, g) == oracle_classify(config, g)

    def test_class_invariant_under_permutation_scaling_and_transform(self):
        rng = random.Random(99)
        for _ in range(25):
            config = random_configuration(rng, 3, 6)
            g = rng.choice((2, 3))
            base = classify(config, g).classification
            perm = rng.sample(range(len(config)), len(config))
            permuted = config_of(*(config.points[i].coords for i in perm))
            assert classify(permuted, g).classification is base
            moved = config.apply(random_transform(rng, 3))
            assert classify(moved, g).classification is base

    def test_small_symmetric_case_all_orderings(self):
        rows = ((1, 0), (1, 0), (0, 1), (1, 1))
        for perm in permutations(range(4)):
            config = config_of(*(rows[i] for i in perm))
            v = classify(config, 2)
            assert v.classification is StabilityClass.STRICTLY_SEMISTABLE
            assert v.witness.size == 2
            assert v == oracle_classify(config, 2)

    def test_oracle_ranks_every_subset_without_the_flat_kernel(self, monkeypatch):
        import stabgeom.exactgeom
        import stabgeom.gitstab

        def forbidden(*args):
            raise AssertionError("the oracle must stay independent of the flat enumeration")

        for name in ("_echelon", "_flats", "point_spanned_subspaces"):
            monkeypatch.setattr(stabgeom.exactgeom, name, forbidden)
        monkeypatch.setattr(stabgeom.gitstab, "_flats", forbidden)
        ranked = []
        original = stabgeom.gitstab._rank_ints

        def counted(m):
            ranked.append(len(m))
            return original(m)

        monkeypatch.setattr(stabgeom.gitstab, "_rank_ints", counted)
        config = triple_point_config()
        verdict = oracle_classify(config, 2)
        assert verdict.classification is StabilityClass.UNSTABLE
        assert len(ranked) == 2 ** len(config) - 1


def searched(config, g):
    """Every value the flat search serves: classify, worst_subspace, the
    subsystem types and, when r divides n, equivalence_check at g = n/r."""
    r, n = config.ambient_rank, len(config)
    values = [classify(config, g), subsystem_types_from_config(config)]
    if r > 1:
        values.append(worst_subspace(config, g))
    if n % r == 0:
        values.append(equivalence_check(config, n // r))
    return values


class TestBranchAndBound:
    """The pruned flat search gives exactly what the whole stream of _flats gives."""

    WEIGHTS = (1, 2, 3, Fraction(3, 2), Fraction(5, 2))
    # the hyperplanes {0, 3, 4, 5} and {1, 2, 3, 5} tie in margin and size:
    # {1, 2, 3, 5} is found first, and {0, 3, 4, 5} lies below a flat whose
    # bound equals the best key, so a strict bound would keep the wrong one
    LEX_TIE = config_of(
        (1, -1, 1, 1), (1, 0, 0, 0), (1, 1, 1, 0), (1, 1, -1, 0), (1, 0, 1, 1), (1, 0, -1, 0)
    )

    @pytest.fixture
    def search(self, monkeypatch):
        """Pass gitstab's and cohsys's descend and keep to _flats only while
        prune is set; count the subtrees it cuts."""
        state = SimpleNamespace(prune=True, cut=0)

        def switched(config, descend=None, keep=None):
            def counted(dim, reach):
                go = descend(dim, reach)
                state.cut += not go
                return go

            if not state.prune:
                return _flats(config)
            return _flats(config, counted if descend else None, keep)

        monkeypatch.setattr(stabgeom.gitstab, "_flats", switched)
        monkeypatch.setattr(stabgeom.cohsys, "_flats", switched)
        return state

    def test_pruned_values_equal_the_unpruned_stream(self, search):
        @settings(max_examples=150, deadline=None)
        @given(
            degenerate_configurations(max_rank=6, max_points=12),
            st.sampled_from(self.WEIGHTS),
        )
        @example(self.LEX_TIE, 1)
        def check(config, g):
            search.prune = True
            pruned = searched(config, g)
            search.prune = False
            assert pruned == searched(config, g)

        check()
        # the bound cut some subtree, so the comparison was not vacuous
        assert search.cut

    def test_pruned_classify_equals_the_oracle_at_ranks_four_and_five(self, search):
        @settings(max_examples=60, deadline=None)
        @given(
            degenerate_configurations(min_rank=4, max_rank=5, max_points=10),
            st.sampled_from(self.WEIGHTS),
        )
        @example(self.LEX_TIE, 1)
        def check(config, g):
            assert classify(config, g) == oracle_classify(config, g)

        check()
        assert search.cut


class TestOracleCap:
    def test_oracle_refuses_beyond_cap(self, monkeypatch):
        monkeypatch.delenv("STAB_MAX_SUBSET_SIZE", raising=False)
        config = config_of(*[(1, i) for i in range(13)])
        with pytest.raises(SubsetTooLargeError):
            oracle_classify(config, 2)

    def test_env_var_raises_the_cap(self, monkeypatch):
        config = config_of(*[(1, i) for i in range(13)])
        monkeypatch.setenv("STAB_MAX_SUBSET_SIZE", "14")
        verdict = oracle_classify(config, 2)
        assert verdict == classify(config, 2)

    def test_env_var_lowers_the_cap(self, monkeypatch):
        config = config_of((1, 0), (0, 1), (1, 1), (1, 2))
        monkeypatch.setenv("STAB_MAX_SUBSET_SIZE", "3")
        with pytest.raises(SubsetTooLargeError):
            oracle_classify(config, 2)

    def test_env_var_must_be_an_integer(self, monkeypatch):
        config = config_of((1, 0), (0, 1))
        monkeypatch.setenv("STAB_MAX_SUBSET_SIZE", "lots")
        with pytest.raises(ValueError):
            oracle_classify(config, 2)

    @pytest.mark.parametrize("value", ["\u0661\u0662", "1_2"], ids=["arabic-indic", "underscore"])
    def test_env_var_takes_ascii_digits_only(self, monkeypatch, value):
        # int() reads both as 12; the CLI's integer options refuse both
        config = config_of((1, 0), (0, 1))
        monkeypatch.setenv("STAB_MAX_SUBSET_SIZE", value)
        with pytest.raises(ValueError, match="^STAB_MAX_SUBSET_SIZE must be an integer$"):
            oracle_classify(config, 2)

    def test_env_var_takes_surrounding_space(self, monkeypatch):
        config = config_of((1, 0), (0, 1), (1, 1), (1, 2))
        monkeypatch.setenv("STAB_MAX_SUBSET_SIZE", " 3 ")
        with pytest.raises(SubsetTooLargeError):
            oracle_classify(config, 2)


@st.composite
def weighted_configurations(draw):
    """(config, g) with r <= 5 and n = r*g <= 20, g = p/q, mixing repeats and collinear points."""
    r = draw(st.integers(min_value=1, max_value=5))
    q = draw(st.sampled_from([d for d in range(1, r + 1) if r % d == 0]))
    p = draw(st.integers(min_value=1, max_value=20 * q // r).filter(lambda p: math.gcd(p, q) == 1))
    small = st.integers(min_value=-3, max_value=3)
    rows = []
    for _ in range(r * p // q):
        kind = draw(st.sampled_from(("random", "repeat", "collinear")))
        if kind == "repeat" and rows:
            row = draw(st.sampled_from(rows))
        elif kind == "collinear" and len(rows) >= 2:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            row = [draw(small) * x + draw(small) * y for x, y in zip(a, b)]
        else:
            row = draw(st.lists(small, min_size=r, max_size=r))
        rows.append(row if any(row) else [1] + [0] * (r - 1))
    return config_of(*rows), Fraction(p, q)


def assert_partition_certificate(config, g):
    """classify is semistable iff Edmonds' algorithm splits the points into g bases.

    For g = p/q each point is taken q times and split into p bases. Either
    outcome is checked as a certificate with ``gauss_rank``. Strict
    stability is not a covering condition, so on a violator S only the
    sign of the margin is asserted.
    """
    rows, r = config.rows(), config.ambient_rank
    p, q = g.numerator, g.denominator
    verdict = classify(config, g)
    parts, violator = matroid_partition(rows, p, q)
    if parts is not None:
        assert verdict.is_semistable
        assert Counter(i for part in parts for i in part) == dict.fromkeys(range(len(rows)), q)
        assert all(len(part) == r == gauss_rank([rows[i] for i in part]) for part in parts)
    else:
        assert q * len(violator) > p * gauss_rank([rows[i] for i in violator])
        assert verdict.margin > 0
    return verdict.classification


class TestMatroidPartitionCertificate:
    """Edmonds' covering theorem: with n = r*g, semistable iff the points split into g bases."""

    @settings(max_examples=40, deadline=None)
    @given(weighted_configurations())
    def test_semistable_iff_the_points_split_into_bases(self, case):
        assert_partition_certificate(*case)

    def test_seeded_degenerate_cases_at_rank_six_and_seven(self):
        # past the oracle's 12-point cap; one rng stream
        rng = random.Random(0)
        seen = {
            assert_partition_certificate(random_configuration(rng, r, r * g), Fraction(g))
            for r, g in ((6, 3), (6, 4), (7, 3))
        }
        assert seen == set(StabilityClass)
