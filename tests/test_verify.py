"""The verification runner: check results, skip semantics, seed stability."""

from dataclasses import replace

import pytest

from stabgeom import (
    AmbientPoint,
    GaleData,
    IncidenceStructure,
    PointConfiguration,
    ProjectivePoint,
    SchemaError,
    StabilityClass,
    duality_check,
    equivalence_check,
    gale_transform,
    igusa_lines,
    igusa_points,
    on_smooth_conic,
    oracle_classify,
    perfect_matchings,
    run_all,
    sample_segre_points,
    segre_nodes,
    three_three_splits,
)
from stabgeom.modhyp import DualityReport, incidence_15_3
from stabgeom.verify import (
    CheckResult,
    check_combinatorics,
    check_destabilizing_example,
    check_dictionary,
    check_duality,
    check_gale,
    check_git_oracle,
    check_igusa,
    check_segre_nodes,
    check_thresholds,
)

SKIPPABLE = {
    "git-oracle-agreement",
    "dictionary-agreement",
    "gale-involution-and-self-association",
    "polar-duality",
}


class TestCheckResult:
    def test_json_omits_wall_clock_time(self):
        result = CheckResult("demo", True, "fine", 1.25)
        assert result.to_json() == {
            "name": "demo",
            "passed": True,
            "skipped": False,
            "detail": "fine",
        }

    def test_gale_check_survives_degenerate_target_frames(self):
        # seed 4 draws generic cases whose Gale transform has a collinear frame
        result = check_gale(100, 10, 4)
        assert result.passed, result.detail

    def test_failures_replace_the_detail_three_at_a_time(self, monkeypatch):
        # no matchings: one count failure, then 15 edges in 0 matchings
        monkeypatch.setattr("stabgeom.verify.perfect_matchings", lambda: [])
        result = check_combinatorics()
        assert result.name == "matching-combinatorics"
        assert not result.passed and not result.skipped
        assert result.detail == (
            "matching count 0 (formula gives 15); edge (0,1) lies in 0 matchings; "
            "edge (0,2) lies in 0 matchings; and 13 more"
        )
        assert result.elapsed >= 0

    def test_fixed_checks_pass_standalone(self):
        for check in (
            check_combinatorics,
            check_destabilizing_example,
            check_igusa,
            check_thresholds,
        ):
            result = check()
            assert result.passed, result.detail
            assert not result.skipped
            assert result.elapsed >= 0


class TestRunAll:
    def test_zero_samples_skips_only_the_randomized_checks(self):
        report = run_all(0, 0)
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        assert {n for n, c in by_name.items() if c.skipped} == SKIPPABLE
        segre = by_name["segre-nodes"]
        assert not segre.skipped and "skipped" in segre.detail

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            run_all(-1)

    def test_seed_variation_does_not_change_the_verdict(self):
        verdicts = [run_all(15, seed).passed for seed in (1, 2, 3)]
        assert verdicts == [True, True, True]

    def test_report_json_shape(self):
        report = run_all(0, 9)
        payload = report.to_json()
        assert payload["passed"] is True
        assert payload["samples"] == 0
        assert payload["seed"] == 9
        assert len(payload["checks"]) == 9
        assert "elapsed" not in payload


_COUNTED = pytest.mark.parametrize(
    "call",
    [
        check_git_oracle,
        check_dictionary,
        lambda x: check_gale(x, 0),
        lambda x: check_gale(0, x),
        check_segre_nodes,
        check_duality,
        run_all,
    ],
    ids=["git-oracle", "dictionary", "involutions", "assoc-cases", "segre", "duality", "run-all"],
)


class TestIntegerArguments:
    """Every case and sample count takes a nonnegative int: no bool, float or string."""

    @pytest.mark.parametrize("bad", [True, 0.5, "1.5"])
    @_COUNTED
    def test_refused_with_a_schema_error(self, call, bad):
        with pytest.raises(SchemaError):
            call(bad)

    @_COUNTED
    def test_negative_refused_with_a_value_error(self, call):
        with pytest.raises(ValueError) as exc:
            call(-1)
        assert type(exc.value) is ValueError


_SEEDED = pytest.mark.parametrize(
    "call",
    [
        lambda s: check_git_oracle(0, s),
        lambda s: check_dictionary(0, s),
        lambda s: check_gale(0, 0, s),
        lambda s: check_segre_nodes(0, s),
        lambda s: check_duality(0, s),
        lambda s: run_all(0, s),
        lambda s: duality_check(0, s),
        lambda s: sample_segre_points(0, s),
    ],
    ids=["git-oracle", "dictionary", "gale", "segre", "duality", "run-all", "check", "sampler"],
)


class TestSeedArguments:
    """A seed is any int, negative ones included, even where it goes unused."""

    @pytest.mark.parametrize("bad", [True, 2.5, "x", None])
    @_SEEDED
    def test_refused_with_a_schema_error(self, call, bad):
        with pytest.raises(SchemaError):
            call(bad)

    @_SEEDED
    def test_negative_seed_accepted(self, call):
        call(-1)


class TestDualityVerdict:
    def test_a_skipped_reverse_image_fails_the_check(self, monkeypatch):
        skipping = DualityReport(
            samples=5, forward_ok=5, reverse_ok=4, reverse_skipped=1, counterexamples=()
        )
        monkeypatch.setattr("stabgeom.verify.duality_check", lambda *a, **k: skipping)
        result = check_duality(5)
        assert not result.passed
        assert result.detail == "identities: forward 5/5, reverse 4/5 (1 skipped)"


def _misclassified(config, g):
    verdict = oracle_classify(config, g)
    other = StabilityClass.UNSTABLE
    if verdict.classification is other:
        other = StabilityClass.STABLE
    return replace(verdict, classification=other)


def _margin_shifted(config, g):
    # the class and the witness stay; only the margin is wrong
    verdict = oracle_classify(config, g)
    return replace(verdict, margin=verdict.margin - 1)


def _disagreeing(config, g):
    report = equivalence_check(config, g)
    return replace(report, alpha_semistable=not report.alpha_semistable)


def _coincident(genus):
    return PointConfiguration(2, [ProjectivePoint((1, 0))] * (2 * genus))


def _negated_diag(config):
    # GaleData recomputes G^T D G' and refuses the product
    data = gale_transform(config)
    return GaleData(data.source, data.target, (-data.diag[0],) + data.diag[1:])


def _raising(_config):
    raise ValueError("boom")


def _repeated(items):
    return items[:-1] + [items[0]]


def _split_shifted():
    nodes = segre_nodes()
    return [replace(n, split=m.split) for n, m in zip(nodes, nodes[1:] + nodes[:1])]


def _igusa_points_moved():
    smooth = AmbientPoint((1, 2, 3, -6, 0, 0))
    return [replace(ip, point=smooth) for ip in igusa_points()]


def _igusa_pairs_shifted():
    points = igusa_points()
    return [replace(ip, pair=q.pair) for ip, q in zip(points, points[1:] + points[:1])]


def _one_flag_short():
    structure = incidence_15_3()
    flags = sorted(structure.flags)
    return IncidenceStructure(structure.points, structure.lines, frozenset(flags[1:]))


def _not_a_partition():
    matchings = perfect_matchings()
    return [((0, 1), (2, 3))] + matchings[1:]


# (check call, name patched in stabgeom.verify, fake, text in the failing detail);
# one row per failure branch of every check, each at a small size
_FAULTS = [
    (lambda: check_git_oracle(1), "classify", _misclassified, "case 0: classify="),
    (lambda: check_dictionary(1), "equivalence_check", _disagreeing, "case 0: git="),
    (
        check_destabilizing_example,
        "destabilizing_example_config",
        _coincident,
        "g=4: expected Stable, got Unstable",
    ),
    (
        check_destabilizing_example,
        "critical_values",
        lambda t: (),
        "g=4: 1 missing from critical values ()",
    ),
    (
        check_destabilizing_example,
        "subsystem_violates",
        lambda *a: False,
        "g=4: no violation at alpha=1/10 < 1",
    ),
    (
        check_destabilizing_example,
        "subsystem_violates",
        lambda *a: True,
        "g=4: spurious violation at alpha=1 >= 1",
    ),
    (check_thresholds, "stabilization_threshold", lambda r, g: r * g, "threshold(1,1) != 0"),
    (
        check_thresholds,
        "critical_values",
        lambda t: (),
        "(r,g,s,d',k')=(2,1,1,2,0): wall 1 missing from critical_values",
    ),
    (
        check_thresholds,
        "subsystem_violates",
        lambda *a: False,
        "(r,g)=(2,1): no violation just below the threshold",
    ),
    (
        check_thresholds,
        "subsystem_violates",
        lambda *a: True,
        "(r,g)=(2,1): violation at the threshold itself",
    ),
    (
        check_thresholds,
        "subsystem_violates",
        lambda *a: True,
        "(r,g)=(2,1): violation above the threshold",
    ),
    (
        lambda: check_gale(1, 0),
        "gale_transform",
        _negated_diag,
        "involution case 0: ValueError: G^T D G' = 0 fails for the given data",
    ),
    (
        lambda: check_gale(1, 0),
        "projectively_equivalent",
        lambda *a: None,
        "involution case 0: double transform not equivalent, rows=",
    ),
    (
        lambda: check_gale(0, 1),
        "on_smooth_conic",
        lambda c: False,
        "conic case 0: conic test rejects params",
    ),
    (
        lambda: check_gale(0, 1),
        "is_self_associated",
        lambda c: False,
        "conic case 0: not self-associated, params",
    ),
    (
        lambda: check_gale(0, 1),
        "is_self_associated",
        _raising,
        "conic case 0: ValueError: boom",
    ),
    (
        lambda: check_gale(0, 1),
        "is_self_associated",
        lambda c: True,
        "generic case 0: self-associated off a conic, rows=",
    ),
    (
        lambda: check_gale(0, 1),
        "is_self_associated",
        _raising,
        "generic case 0: ValueError: boom",
    ),
    (
        lambda: check_segre_nodes(0),
        "segre_nodes",
        lambda: segre_nodes()[:9],
        "expected 10 nodes, got 9",
    ),
    (
        lambda: check_segre_nodes(0),
        "segre_nodes",
        lambda: _repeated(segre_nodes()),
        "nodes are not pairwise projectively distinct",
    ),
    (
        lambda: check_segre_nodes(0),
        "_singular_points",
        lambda model, points: [False] * len(points),
        "node (1, 1, 1, -1, -1, -1) fails the singularity test",
    ),
    (
        lambda: check_segre_nodes(0),
        "restricted_hessian_rank",
        lambda model, p: 3,
        "node (1, 1, 1, -1, -1, -1) restricted Hessian rank != 4",
    ),
    (
        lambda: check_segre_nodes(0),
        "segre_nodes",
        _split_shifted,
        "node (1, 1, 1, -1, -1, -1) does not match split ((0, 1, 3), (2, 4, 5))",
    ),
    (
        lambda: check_segre_nodes(0),
        "three_three_splits",
        lambda: three_three_splits()[:9],
        "split labels are not a bijection onto the 10 partitions",
    ),
    (
        lambda: check_segre_nodes(1),
        "_singular_points",
        lambda model, points: [True] * len(points),
        "stray singular point (",
    ),
    (check_igusa, "igusa_lines", lambda: igusa_lines()[:14], "expected 15 lines, got 14"),
    (
        check_igusa,
        "_singular_points",
        lambda model, points: [False] * len(points),
        "line ((0, 1), (2, 3), (4, 5)) not singular at (t,u)=(1,0)",
    ),
    (check_igusa, "igusa_points", lambda: igusa_points()[:14], "expected 15 points, got 14"),
    (
        check_igusa,
        "igusa_points",
        _igusa_points_moved,
        "distinguished point (1, 2, 3, -6, 0, 0) not singular",
    ),
    (check_igusa, "incidence_15_3", _one_flag_short, "expected 45 flags, got 44"),
    (check_igusa, "incidence_15_3", _one_flag_short, "pair (0, 1) not on exactly 3 lines"),
    (
        check_igusa,
        "incidence_15_3",
        _one_flag_short,
        "matching ((0, 1), (2, 3), (4, 5)) not through exactly 3 points",
    ),
    (
        check_igusa,
        "igusa_points",
        _igusa_pairs_shifted,
        "geometric incidence differs from matching membership",
    ),
    (
        check_combinatorics,
        "perfect_matchings",
        lambda: _repeated(perfect_matchings()),
        "matchings are not pairwise distinct",
    ),
    (
        check_combinatorics,
        "perfect_matchings",
        _not_a_partition,
        "matching ((0, 1), (2, 3)) is not a partition into 3 pairs",
    ),
    (
        check_combinatorics,
        "three_three_splits",
        lambda: three_three_splits()[:9],
        "split count 9",
    ),
    # the class is kept, so a check that compared only the classes would pass
    (
        lambda: check_git_oracle(1),
        "classify",
        _margin_shifted,
        "case 0: classify=Stable oracle=Stable",
    ),
]


class TestFaultInjection:
    """Every failure branch of every check fires when its subject is wrong."""

    @pytest.mark.parametrize(
        "check, name, fake, expected",
        _FAULTS,
        ids=[f"{name}-{i}" for i, (_, name, _, _) in enumerate(_FAULTS)],
    )
    def test_wrong_subject_fails_the_check(self, monkeypatch, check, name, fake, expected):
        monkeypatch.setattr(f"stabgeom.verify.{name}", fake)
        result = check()
        assert not result.passed and not result.skipped
        assert expected in result.detail

    def test_a_generic_draw_on_a_conic_is_redrawn(self, monkeypatch):
        # call 1 is the conic case, call 2 the first generic draw, taken as on a conic
        calls = []

        def second_call_on_a_conic(config):
            calls.append(config)
            return len(calls) == 2 or on_smooth_conic(config)

        monkeypatch.setattr("stabgeom.verify.on_smooth_conic", second_call_on_a_conic)
        result = check_gale(0, 1)
        assert result.passed, result.detail
        assert len(calls) == 3 and calls[2] != calls[1]
