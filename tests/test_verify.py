"""The verification runner: check results, skip semantics, seed stability."""

import pytest

from stabgeom import SchemaError, run_all
from stabgeom.modhyp import DualityReport
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


class TestDualityVerdict:
    def test_a_skipped_reverse_image_fails_the_check(self, monkeypatch):
        skipping = DualityReport(
            samples=5, forward_ok=5, reverse_ok=4, reverse_skipped=1, counterexamples=()
        )
        monkeypatch.setattr("stabgeom.verify.duality_check", lambda *a, **k: skipping)
        result = check_duality(5)
        assert not result.passed
        assert result.detail == "identities: forward 5/5, reverse 4/5 (1 skipped)"
