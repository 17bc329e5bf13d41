"""CLI contract: JSON shapes, exit codes, determinism, round-trips."""

import hashlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from stabgeom import (
    EquivalenceReport,
    PointConfiguration,
    StabilityClass,
    SymmetricHypersurfaceModel,
    classify,
    conic_parameter_points,
)
from stabgeom.cli import main
from stabgeom.modhyp import DualityReport
from stabgeom.randconf import random_configuration
from stabgeom.verify import CheckResult, VerificationReport

from helpers import collinear_target_six_config, standard_six_config, triple_point_config

TRIPLE_ROWS = [[1, 0, 0], [1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]


@pytest.fixture
def cli(capsys):
    def run(argv, stdin=None):
        if stdin is not None:
            sys.stdin = io.StringIO(stdin)
        try:
            code = main(argv)
        finally:
            if stdin is not None:
                sys.stdin = sys.__stdin__
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def payload(text):
    return json.loads(text)


class TestGitClassify:
    def test_triple_point_is_unstable(self, cli, config_file):
        path = config_file(TRIPLE_ROWS)
        code, out, err = cli(["git-classify", "--g", "2", "--input", path])
        assert code == 0
        data = payload(out)
        assert data["class"] == "Unstable"
        assert data["witness"] == {"indices": [0, 1, 2], "span_dim": 1, "size": 3}
        assert data["margin"] == "1"
        assert err == ""

    def test_stable_configuration_has_null_witness(self, cli, config_file):
        path = config_file([list(p.coords) for p in standard_six_config().points])
        code, out, _ = cli(["git-classify", "--g", "2", "--input", path])
        assert code == 0
        data = payload(out)
        assert data["class"] == "Stable"
        assert data["witness"] is None
        assert data["margin"] == "-1"

    def test_fractional_weight_and_stdin(self, cli):
        doc = json.dumps(
            {"ambient_rank": 2, "points": [["1", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]}
        )
        code, out, _ = cli(["git-classify", "--g", "3/2", "--input", "-"], stdin=doc)
        assert code == 0
        assert payload(out)["class"] == "Unstable"

    def test_rank_one_margin_is_null(self, cli, config_file):
        path = config_file([[1], [1]], ambient_rank=1)
        code, out, _ = cli(["git-classify", "--g", "2", "--input", path])
        assert code == 0
        data = payload(out)
        assert data["class"] == "Stable"
        assert data["margin"] is None

    def test_deterministic_output_bytes(self, cli, config_file):
        path = config_file(TRIPLE_ROWS)
        argv = ["git-classify", "--g", "2", "--input", path]
        _, first, _ = cli(argv)
        _, second, _ = cli(argv)
        assert first == second


class TestSingleEnumeration:
    @pytest.mark.parametrize(
        "argv",
        [
            ["git-classify", "--g", "2"],
            ["equivalence", "--g", "2"],
            ["alpha-check", "--g", "2", "--alpha", "1"],
        ],
    )
    def test_subspaces_are_enumerated_once(self, cli, config_file, monkeypatch, argv):
        import stabgeom.cohsys
        import stabgeom.gitstab

        calls = []
        original = stabgeom.gitstab._flats

        def counted(config, *rest):
            calls.append(config)
            return original(config, *rest)

        monkeypatch.setattr(stabgeom.gitstab, "_flats", counted)
        monkeypatch.setattr(stabgeom.cohsys, "_flats", counted)
        code, _, _ = cli(argv + ["--input", config_file(TRIPLE_ROWS)])
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["git-classify", "--g", "2"],
            ["equivalence", "--g", "2"],
            ["alpha-check", "--g", "2", "--alpha", "1"],
        ],
    )
    def test_no_flat_basis_is_built(self, cli, config_file, monkeypatch, argv):
        # the commands read only the flats' dimensions and members
        import stabgeom.exactgeom

        calls = []
        original = stabgeom.exactgeom._echelon

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(stabgeom.exactgeom, "_echelon", counted)
        code, _, _ = cli(argv + ["--input", config_file(TRIPLE_ROWS)])
        assert code == 0
        assert calls == []


class TestSingleGaleTransform:
    @pytest.mark.parametrize(
        "rows",
        [
            [list(p.coords) for p in conic_parameter_points([0, 1, -1, 2, -2, 3]).points],
            [list(p.coords) for p in standard_six_config().points],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3], [1, 4, 9], [2, 3, 5]],
        ],
    )
    def test_gale_transforms_once(self, cli, config_file, monkeypatch, rows):
        import stabgeom.gale

        calls = []
        original = stabgeom.gale.kernel_basis

        def counted(matrix):
            calls.append(matrix)
            return original(matrix)

        monkeypatch.setattr(stabgeom.gale, "kernel_basis", counted)
        code, _, _ = cli(["gale", "--input", config_file(rows)])
        assert code == 0
        assert len(calls) == 1


class TestParserBuiltOnce:
    def test_main_builds_no_parser(self, cli, monkeypatch):
        import stabgeom.cli

        calls = []
        original = stabgeom.cli._build_parser

        def counted():
            calls.append(None)
            return original()

        monkeypatch.setattr(stabgeom.cli, "_build_parser", counted)
        for argv in (["critical-values", "-r", "2", "-d", "4", "-k", "2"], ["incidence"]):
            code, _, _ = cli(argv)
            assert code == 0
        assert calls == []


class TestDispatch:
    @pytest.mark.parametrize(
        "argv, levels",
        [
            (["git-classify", "--g", "3/2", "--input", "-"], 1),
            (["hypersurface", "verify", "igusa"], 2),
        ],
    )
    def test_main_parses_once_per_parser_level(self, cli, monkeypatch, argv, levels):
        import stabgeom.cli

        calls = []
        original = stabgeom.cli._Parser.parse_known_args

        def counted(self, *args, **kwargs):
            calls.append(self.prog)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(stabgeom.cli._Parser, "parse_known_args", counted)
        code, _, _ = cli(argv, stdin=json.dumps({"ambient_rank": 1, "points": [["1"]]}))
        assert code == 0
        assert len(calls) == levels
        calls.clear()
        stabgeom.cli._PARSER.parse_args(argv)  # the top-level parser adds a level
        assert len(calls) == levels + 1

    def test_a_tuple_argv_is_read(self, cli):
        code, out, _ = cli(("critical-values", "-r", "2", "-d", "4", "-k", "2"))
        assert (code, payload(out)) == (0, {"values": ["1", "2"]})


class TestCriticalValues:
    def test_reference_example_bytes(self, cli):
        code, out, _ = cli(["critical-values", "-r", "2", "-d", "4", "-k", "2"])
        assert code == 0
        assert payload(out) == {"values": ["1", "2"]}
        assert out == json.dumps({"values": ["1", "2"]}, indent=2) + "\n"

    def test_bounds_flags(self, cli):
        code, out, _ = cli(
            ["critical-values", "-r", "2", "-d", "4", "-k", "2", "--section-bound", "0"]
        )
        assert code == 0
        assert payload(out) == {"values": ["1", "2"]}

    def test_fractional_walls_serialize_as_strings(self, cli):
        code, out, _ = cli(["critical-values", "-r", "3", "-d", "4", "-k", "3"])
        assert code == 0
        values = payload(out)["values"]
        assert all(isinstance(v, str) for v in values)
        assert values == sorted(values, key=Fraction)

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("-r", "0", "rank must be at least 1"),
            ("-d", "-1", "degree must be nonnegative"),
            ("-k", "-1", "section count must be nonnegative"),
            ("--degree-bound", "-1", "degree bound must be nonnegative"),
            ("--section-bound", "-1", "section bound must be nonnegative"),
        ],
    )
    def test_out_of_range_integer_names_the_argument(self, cli, flag, value, message):
        # a repeated flag takes its last value
        code, out, err = cli(["critical-values", "-r", "2", "-d", "4", "-k", "2", flag, value])
        assert code == 2
        assert out == ""
        assert payload(err) == {"error": {"type": "ValueError", "message": message}}


class TestAlphaCheck:
    def test_payload_shape(self, cli, config_file):
        path = config_file(TRIPLE_ROWS)
        code, out, _ = cli(["alpha-check", "--g", "2", "--alpha", "1", "--input", path])
        assert code == 0
        data = payload(out)
        assert data == {
            "g": "2",
            "alpha": "1",
            "semistable": False,
            "stable": False,
            "subsystem_types": [
                {"r": 1, "d": 3, "k": 1},
                {"r": 2, "d": 4, "k": 2},
            ],
        }

    def test_stable_configuration(self, cli, config_file):
        path = config_file([list(p.coords) for p in standard_six_config().points])
        code, out, _ = cli(
            ["alpha-check", "--g", "2", "--alpha", "7/2", "--input", path]
        )
        assert code == 0
        data = payload(out)
        assert data["semistable"] is True and data["stable"] is True
        assert data["alpha"] == "7/2"

    def test_size_error_comes_before_alpha_error(self, cli, config_file):
        path = config_file([[1, 0], [0, 1], [1, 1]])
        code, _, err = cli(["alpha-check", "--g", "2", "--alpha", "-1", "--input", path])
        assert code == 2
        assert payload(err)["error"]["type"] == "SizeMismatchError"
        path = config_file(TRIPLE_ROWS, name="triple.json")
        code, _, err = cli(["alpha-check", "--g", "2", "--alpha", "-1", "--input", path])
        assert code == 2
        assert payload(err)["error"] == {"type": "ValueError", "message": "alpha must be positive"}


class TestEquivalence:
    def test_agreement_exits_zero(self, cli, config_file):
        path = config_file(TRIPLE_ROWS)
        code, out, _ = cli(["equivalence", "--g", "2", "--input", path])
        assert code == 0
        data = payload(out)
        assert data["agree"] is True
        assert data["git_class"] == "Unstable"
        assert data["alpha"] == "5"
        assert data["witness"]["indices"] == [0, 1, 2]

    def test_disagreement_exits_one(self, cli, config_file, monkeypatch):
        real = classify(triple_point_config(), 2)
        fake = EquivalenceReport(
            git=real, alpha=Fraction(5), alpha_semistable=True, alpha_stable=True
        )
        monkeypatch.setattr("stabgeom.cli.equivalence_check", lambda *a, **k: fake)
        path = config_file(TRIPLE_ROWS)
        code, out, _ = cli(["equivalence", "--g", "2", "--input", path])
        assert code == 1
        assert payload(out)["agree"] is False

    def test_size_mismatch_is_a_usage_error(self, cli, config_file):
        path = config_file([[1, 0], [0, 1], [1, 1]])
        code, _, err = cli(["equivalence", "--g", "2", "--input", path])
        assert code == 2
        assert payload(err)["error"]["type"] == "SizeMismatchError"


class TestDestableExample:
    def test_round_trip_classifies_stable(self, cli):
        for genus in (2, 4, 7):
            code, out, _ = cli(["destable-example", "--genus", str(genus)])
            assert code == 0
            config = PointConfiguration.from_json_dict(payload(out))
            assert len(config) == 2 * genus
            assert classify(config, genus).classification is StabilityClass.STABLE
            code, out2, _ = cli(
                ["git-classify", "--g", str(genus), "--input", "-"], stdin=out
            )
            assert code == 0
            assert payload(out2)["class"] == "Stable"

    def test_custom_lambdas(self, cli):
        code, out, _ = cli(["destable-example", "--genus", "2", "--lambdas", "1,1/2,-3"])
        assert code == 0
        assert payload(out)["points"][2] == ["1", "2"]

    def test_bad_lambdas_exit_two(self, cli):
        code, _, err = cli(["destable-example", "--genus", "2", "--lambdas", "1,2"])
        assert code == 2
        assert payload(err)["error"]["type"] == "ValueError"
        code, _, err = cli(["destable-example", "--genus", "2", "--lambdas", "1,2,x"])
        assert code == 2
        assert payload(err)["error"]["type"] == "SchemaError"


class TestGale:
    def test_conic_configuration_is_self_associated(self, cli, config_file):
        conic = conic_parameter_points([0, 1, -1, 2, -2, 3])
        path = config_file([list(p.coords) for p in conic.points])
        code, out, _ = cli(["gale", "--input", path])
        assert code == 0
        data = payload(out)
        assert set(data) == {"source", "target", "diag", "self_associated"}
        assert data["self_associated"] is True
        assert len(data["target"]["points"]) == 6

    def test_generic_configuration_is_not(self, cli, config_file):
        path = config_file([list(p.coords) for p in standard_six_config().points])
        code, out, _ = cli(["gale", "--input", path])
        assert code == 0
        assert payload(out)["self_associated"] is False

    def test_seven_points_transform_and_report_false(self, cli, config_file):
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3], [1, 4, 9], [2, 3, 5]]
        path = config_file(rows)
        code, out, _ = cli(["gale", "--input", path])
        assert code == 0
        data = payload(out)
        assert data["self_associated"] is False
        assert data["target"]["ambient_rank"] == 4
        assert len(data["target"]["points"]) == 7

    def test_degenerate_frame_reports_null(self, cli, config_file):
        path = config_file(
            [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3]]
        )
        code, out, _ = cli(["gale", "--input", path])
        assert code == 0
        assert payload(out)["self_associated"] is None

    def test_degenerate_target_frame_reports_false(self, cli, config_file):
        path = config_file([list(p.coords) for p in collinear_target_six_config().points])
        code, out, _ = cli(["gale", "--input", path])
        assert code == 0
        assert payload(out)["self_associated"] is False

    def test_non_spanning_input_exits_two(self, cli, config_file):
        path = config_file(
            [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 2, 0], [2, 1, 0], [3, 1, 0]]
        )
        code, _, err = cli(["gale", "--input", path])
        assert code == 2
        assert payload(err)["error"]["type"] == "DegenerateConfigurationError"

    def test_too_few_points_names_the_ambient_rank(self, cli, config_file):
        path = config_file([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        code, out, err = cli(["gale", "--input", path])
        assert code == 2
        assert out == ""
        assert payload(err)["error"]["message"] == (
            "need at least ambient_rank + 2 = 5 points, got 3"
        )


def _seeded_rows(r, n):
    """n seeded points of [-9, 9]^r, the sizes of the benchmark's gale inputs."""
    rng = random.Random(f"gale-{r}-{n}")
    return [[rng.randint(-9, 9) for _ in range(r)] for _ in range(n)]


class TestGaleGoldenBytes:
    """SHA-256 of `stab gale` stdout: the CLI bytes are a fixed contract."""

    @pytest.mark.parametrize(
        "rows, self_associated, digest",
        [
            (
                [list(p.coords) for p in conic_parameter_points([0, 1, -1, 2, -2, 3]).points],
                True,
                "7b929a475da7148569f19421958cf76e762b8fa46e75e2b22ee5d43a98baedab",
            ),
            (
                _seeded_rows(3, 12),
                False,
                "85b86232dea80ef9e94add4640fe9deb7c8e73f458a8df20008c2587c9be0747",
            ),
            (
                _seeded_rows(5, 20),
                False,
                "d6be900c11a9f168948c9333b363abb45019c04c15d64900853d832ae4f7df59",
            ),
            (
                _seeded_rows(8, 30),
                False,
                "4eb0c870a976a8f29b85cf2d9b7ac3755153bd3fc955e2f5dca8ad361fe1b603",
            ),
            (
                [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3]],
                None,
                "66066486a4be48ec85db13270ee17756e0bc2c3ba7b79f6dcbc6c4d4b6811b7d",
            ),
            (
                [list(p.coords) for p in collinear_target_six_config().points],
                False,
                "f716097ef2649e22033f9bedf0e61ddbe47044774c53454c8240862d34b2c915",
            ),
        ],
        ids=["conic", "seeded-3-12", "seeded-5-20", "seeded-8-30", "degenerate-frame", "collinear-target"],
    )
    def test_stdout_bytes(self, cli, config_file, rows, self_associated, digest):
        path = config_file(rows)
        code, out, err = cli(["gale", "--input", path])
        assert code == 0
        assert err == ""
        assert payload(out)["self_associated"] is self_associated
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        # gale draws nothing, so it takes no --seed
        code, out, err = cli(["gale", "--input", path, "--seed", "7"])
        assert code == 2
        assert out == ""
        assert payload(err) == {
            "error": {"type": "UsageError", "message": "unrecognized arguments: --seed 7"}
        }


_GOLDEN_SEEDS = ("0", "7", "123456789")
_DUALITY_DIGEST = "63c8dc2a0301b4750e225807d25d817a4450811ffa5884c97c2f74a1fee95c83"
_SEGRE_DIGEST = "7e3c200a65abb640e5c15c8eea9725d590d1b9b5bb0ed4972e7eb12fdb4826fa"
_IGUSA_DIGEST = "1f96efd6a841947871f13846f307d57b90017f5bbe4887bddedb6e90dd755b46"


class TestHypersurfaceGoldenBytes:
    """SHA-256 of `stab hypersurface verify` stdout: the CLI bytes are a fixed contract.

    A passing run prints no seed-dependent data, so each seed must give the
    same bytes.
    """

    @pytest.mark.parametrize(
        "argv, digest",
        [
            pytest.param(
                ["duality", "--samples", "60", "--seed", seed], _DUALITY_DIGEST,
                id=f"duality-seed-{seed}",
            )
            for seed in _GOLDEN_SEEDS
        ]
        + [
            pytest.param(
                ["segre", "--samples", "200", "--seed", seed], _SEGRE_DIGEST,
                id=f"segre-seed-{seed}",
            )
            for seed in _GOLDEN_SEEDS
        ]
        + [pytest.param(["igusa"], _IGUSA_DIGEST, id="igusa")],
    )
    def test_stdout_bytes(self, cli, argv, digest):
        code, out, err = cli(["hypersurface", "verify"] + argv)
        assert code == 0
        assert err == ""
        assert payload(out)["passed"] is True
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerifyAllGoldenBytes:
    """SHA-256 of `stab verify-all` stdout: the CLI bytes are a fixed contract."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            pytest.param(
                ["--samples", "0", "--seed", "3"],
                "006cbdea547ce7260c27a81f592a2a866b24b60812ab92a6fe3f286e3221a1e0",
                id="samples-0-seed-3",
            ),
            pytest.param(
                ["--samples", "20", "--seed", "4"],
                "f37b6ecf6c561c106eab4d99b5090119a5a0368c0e0e0a98fff877880b6555c9",
                id="samples-20-seed-4",
            ),
        ],
    )
    def test_stdout_bytes(self, cli, argv, digest):
        code, out, err = cli(["verify-all"] + argv)
        assert code == 0
        assert err == ""
        assert payload(out)["passed"] is True
        assert hashlib.sha256(out.encode()).hexdigest() == digest


FOUR_ON_A_LINE_ROWS = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 1, 0], [0, 0, 1], [1, 1, 1]]


def _degenerate_rows(r, n):
    """n seeded points of P^(r-1) with repeats and collinear triples."""
    config = random_configuration(random.Random(f"stab-{r}-{n}"), r, n)
    return [list(p.coords) for p in config.points]


class TestStabilityGoldenBytes:
    """SHA-256 of the stability commands' stdout: the CLI bytes are a fixed contract."""

    @pytest.mark.parametrize(
        "argv, rows, digest",
        [
            pytest.param(
                ["git-classify", "--g", "2"], TRIPLE_ROWS,
                "d294b7c78c4a98338accee7618b4dc088d13b53a0b8f0cd9c7f25ebaca688c2f",
                id="classify-triple-unstable",
            ),
            pytest.param(
                ["git-classify", "--g", "2"],
                [list(p.coords) for p in standard_six_config().points],
                "73c51c8b5b0c36b216f8f7adf28296db3c067dee6d6b57322cf9b5c0733016ca",
                id="classify-six-stable",
            ),
            pytest.param(
                ["git-classify", "--g", "2"], FOUR_ON_A_LINE_ROWS,
                "b9f4b0882fc0fb471d38055cd77f4532bfe265572a34e40dd2c046fe9182f500",
                id="classify-line-semistable",
            ),
            pytest.param(
                ["git-classify", "--g", "3"], FOUR_ON_A_LINE_ROWS,
                "364753c6a5f3da3fa00bc086107f89f5c37bac76d24a528d6654a15a8b5663e6",
                id="classify-line-g3",
            ),
            pytest.param(
                ["git-classify", "--g", "3/2"], [[1, 0], [1, 0], [0, 1], [1, 1]],
                "d7861038f41263fb9b5fc2d0368b8ff304dfe317a45d0d3fa9a287c5e902778d",
                id="classify-line-g3/2",
            ),
            pytest.param(
                ["git-classify", "--g", "2"], [[1], [1]],
                "f566b6d2406185ce92a70cea8bfc41429b3ea5fc5f75d61b09454b1db501176a",
                id="classify-rank-one",
            ),
            pytest.param(
                ["git-classify", "--g", "2"], _degenerate_rows(4, 12),
                "a68cf19d9999d4be54058b61d483ee144ea5721bcd547212cdc5e946b2f20578",
                id="classify-seeded-4-12-g2",
            ),
            pytest.param(
                ["git-classify", "--g", "3/2"], _degenerate_rows(4, 12),
                "b04f2685348097b506a6b1ff11ce8073da4a79c02d9fd5d4c3fcf75ff7ad0567",
                id="classify-seeded-4-12-g3/2",
            ),
            pytest.param(
                ["git-classify", "--g", "3/2"], _degenerate_rows(3, 10),
                "bc1445a4744efb73879ed98d47377dde0297a3605eba13071d2c4af94ebb95ea",
                id="classify-seeded-3-10-g3/2",
            ),
            pytest.param(
                ["equivalence", "--g", "2"],
                [list(p.coords) for p in standard_six_config().points],
                "7db9d3d3568a1e35a701e3319cba0c09ad381f3a1dae69d8d6d5af22e1924516",
                id="equivalence-six",
            ),
            pytest.param(
                ["equivalence", "--g", "2"], FOUR_ON_A_LINE_ROWS,
                "35984fadd4922b829b06b79a5c8bcf1bf9deeb296670ce6777350f35b2ec62af",
                id="equivalence-line",
            ),
            pytest.param(
                ["equivalence", "--g", "2"], TRIPLE_ROWS,
                "412acac7bf04509b7081ce274433a3876f169c7dd153f58f97c96dcd548a8b45",
                id="equivalence-triple",
            ),
            pytest.param(
                ["equivalence", "--g", "3"], _degenerate_rows(3, 9),
                "b00cb7a4988f532ff6150493ae6b9f226e9eb6ca7635d08dae97b919d2d71129",
                id="equivalence-seeded-3-9",
            ),
            pytest.param(
                ["equivalence", "--g", "2"], _degenerate_rows(4, 8),
                "1fb9c68da03d18ee0e89652f3c193ffa0d0e6f6849d514170e8c132ed9e1bb9c",
                id="equivalence-seeded-4-8",
            ),
            pytest.param(
                ["alpha-check", "--g", "2", "--alpha", "1"], TRIPLE_ROWS,
                "f48fefcfe77a425d6e0dcdac2f0b88fde0777dfaf68890acd73d433ac9b05769",
                id="alpha-triple",
            ),
            pytest.param(
                ["alpha-check", "--g", "2", "--alpha", "7/2"],
                [list(p.coords) for p in standard_six_config().points],
                "c26e9bf0e0b0b9e5fe3a66f0804653cc48c75316a66dc8ac5b98ba33650cce7f",
                id="alpha-six",
            ),
            pytest.param(
                ["alpha-check", "--g", "2", "--alpha", "5"], FOUR_ON_A_LINE_ROWS,
                "1eb023fa51efe68481717815fe8714d23f43b3dc5c4cb592772e557b4ec548ac",
                id="alpha-line",
            ),
            pytest.param(
                ["alpha-check", "--g", "3", "--alpha", "1/3"], _degenerate_rows(3, 9),
                "895c00b8af90e265bf247e175b7a86f1f50040a44a7fc86a1e404f7f33b148eb",
                id="alpha-seeded-3-9",
            ),
            pytest.param(
                ["critical-values", "-r", "2", "-d", "4", "-k", "2"], None,
                "4865b6f5f5517c644feab20661d9ebece38a1ef0889a52c471be3fad444510e9",
                id="walls-2-4-2",
            ),
            pytest.param(
                ["critical-values", "-r", "3", "-d", "4", "-k", "3"], None,
                "7e2d3353733b119c666adc00296bce6fb7b36f74a3b65c16bbcff699b8b0b6c6",
                id="walls-3-4-3",
            ),
            pytest.param(
                ["critical-values", "-r", "5", "-d", "17", "-k", "3"], None,
                "b00ccfd2f00b9e1ab53e714849f0a9fe61b9aeeec6ce86aa2a66fb9e421da690",
                id="walls-5-17-3",
            ),
            pytest.param(
                ["critical-values", "-r", "1", "-d", "5", "-k", "2"], None,
                "f74498097708215ee46031db7467ce3abed880ed8188eff156e81993d9787e31",
                id="walls-rank-one",
            ),
            pytest.param(
                ["critical-values", "-r", "2", "-d", "4", "-k", "2", "--degree-bound", "30"],
                None,
                "312c6e8ea84fa374b3a58e55d186a529daedc8685771c42a26b27c98de85e501",
                id="walls-2-4-2-degree-30",
            ),
            pytest.param(
                ["critical-values", "-r", "3", "-d", "7", "-k", "2", "--degree-bound", "0"],
                None,
                "d86acfff3452e1a0e95afffdd9f63592ce4ddfcb06f26f4c140435bf10af3907",
                id="walls-3-7-2-degree-0",
            ),
            pytest.param(
                ["critical-values", "-r", "2", "-d", "4", "-k", "2", "--section-bound", "0"],
                None,
                "4865b6f5f5517c644feab20661d9ebece38a1ef0889a52c471be3fad444510e9",
                id="walls-2-4-2-section-0",
            ),
            pytest.param(
                ["critical-values", "-r", "4", "-d", "9", "-k", "3", "--section-bound", "7"],
                None,
                "263ddd053c76442ac53fa8c6882b70a26e4a7f2e57f682dbc17dab9681fc1733",
                id="walls-4-9-3-section-7",
            ),
            pytest.param(
                [
                    "critical-values", "-r", "4", "-d", "10", "-k", "5",
                    "--degree-bound", "25", "--section-bound", "9",
                ],
                None,
                "201d179afac1eb6033ff93fe9d27d2aa5eb2e0158c0e96c2ec74e07ad1cfe3b4",
                id="walls-4-10-5-both-bounds",
            ),
        ],
    )
    def test_stdout_bytes(self, cli, config_file, argv, rows, digest):
        if rows is not None:
            argv = argv + ["--input", config_file(rows)]
        code, out, err = cli(argv)
        assert code == 0
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestStructureGoldenBytes:
    """SHA-256 of `stab incidence` and `stab destable-example` stdout.

    Integer lists nested three deep (incidence) and string coordinate
    lists (the example) are both pinned.
    """

    @pytest.mark.parametrize(
        "argv, digest",
        [
            pytest.param(
                ["incidence"],
                "b19f25bf1c1bb21caadf379a03fc61589f49d4e3caebc5723c2a897cf4accc98",
                id="incidence",
            ),
            pytest.param(
                ["destable-example", "--genus", "4"],
                "ac6c09a191f76e806c689b908137df04e8bdf06015e77c846f61650ded801c61",
                id="example-genus-4",
            ),
            pytest.param(
                ["destable-example", "--genus", "4", "--lambdas", "1,-1,2,1/2,-3/2"],
                "7ccac225452b5fee04c9cc9f4558ab4a7d4a382fef0e62753b471ab2d18bd172",
                id="example-genus-4-lambdas",
            ),
        ],
    )
    def test_stdout_bytes(self, cli, argv, digest):
        code, out, err = cli(argv)
        assert code == 0
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestErrorGoldenBytes:
    """The stderr bytes of a failure: typed JSON, ASCII-escaped, two-space indent."""

    @pytest.mark.parametrize(
        "argv, stdin, expected",
        [
            pytest.param(
                ["git-classify", "--input", "-"],
                None,
                "{\n"
                '  "error": {\n'
                '    "type": "UsageError",\n'
                '    "message": "the following arguments are required: --g"\n'
                "  }\n"
                "}\n",
                id="usage-error",
            ),
            pytest.param(
                # an Arabic-Indic two; the message repeats it, escaped as \u0662
                ["git-classify", "--g", "\u0662", "--input", "-"],
                json.dumps({"ambient_rank": 1, "points": [["1"]]}),
                "{\n"
                '  "error": {\n'
                '    "type": "SchemaError",\n'
                '    "message": "not a rational literal: \'\\u0662\'"\n'
                "  }\n"
                "}\n",
                id="schema-error-non-ascii",
            ),
        ],
    )
    def test_stderr_bytes(self, cli, argv, stdin, expected):
        code, out, err = cli(argv, stdin=stdin)
        assert code == 2
        assert out == ""
        assert err == expected


class TestHypersurface:
    def test_segre_without_search(self, cli):
        code, out, _ = cli(["hypersurface", "verify", "segre", "--samples", "0"])
        assert code == 0
        data = payload(out)
        assert data["passed"] is True
        assert data["name"] == "segre-nodes"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["hypersurface", "verify", "segre"], "samples must be nonnegative"),
            (["hypersurface", "verify", "duality"], "samples must be nonnegative"),
            (["verify-all"], "samples must be nonnegative"),
        ],
    )
    def test_negative_samples_exit_two(self, cli, argv, message):
        code, out, err = cli(argv + ["--samples", "-1"])
        assert code == 2
        assert out == ""
        assert payload(err) == {"error": {"type": "ValueError", "message": message}}

    @pytest.mark.parametrize(
        "options, flag",
        [
            (["--samples", "-1"], "--samples"),
            (["--samples", "5"], "--samples"),
            (["--seed", "0"], "--seed"),
            (["--seed", "3", "--samples", "5"], "--samples"),
        ],
    )
    def test_igusa_takes_no_samples_or_seed(self, cli, options, flag):
        # the igusa check draws nothing, so neither option could change its output
        code, out, err = cli(["hypersurface", "verify", "igusa"] + options)
        assert code == 2
        assert out == ""
        message = f"argument {flag}: not allowed with target igusa"
        assert payload(err) == {"error": {"type": "UsageError", "message": message}}

    def test_igusa(self, cli):
        code, out, _ = cli(["hypersurface", "verify", "igusa"])
        assert code == 0
        assert payload(out)["passed"] is True

    def test_duality_sample_run(self, cli):
        code, out, _ = cli(
            ["hypersurface", "verify", "duality", "--samples", "10", "--seed", "3"]
        )
        assert code == 0
        data = payload(out)
        assert data["forward_ok"] == 10
        assert data["reverse_ok"] == 10
        assert data["reverse_skipped"] == 0

    def test_failure_exits_one(self, cli, monkeypatch):
        failing = DualityReport(
            samples=5,
            forward_ok=4,
            reverse_ok=4,
            reverse_skipped=0,
            counterexamples=(("forward", (1, 2, 3, -1, -2, -3)),),
        )
        monkeypatch.setattr("stabgeom.cli.duality_check", lambda *a, **k: failing)
        code, out, _ = cli(["hypersurface", "verify", "duality"])
        assert code == 1
        assert payload(out)["passed"] is False

    def test_skipped_reverse_image_exits_one(self, cli, monkeypatch):
        # verify-all fails on a skip, so the standalone verdict must too
        skipping = DualityReport(
            samples=5, forward_ok=5, reverse_ok=4, reverse_skipped=1, counterexamples=()
        )
        monkeypatch.setattr("stabgeom.cli.duality_check", lambda *a, **k: skipping)
        code, out, _ = cli(["hypersurface", "verify", "duality"])
        assert code == 1
        assert payload(out)["passed"] is False

    @pytest.mark.parametrize(
        "argv, degree",
        [
            (["hypersurface", "verify", "igusa"], 4),
            (["hypersurface", "verify", "segre", "--samples", "0"], 3),
            (["hypersurface", "verify", "duality", "--samples", "5"], 3),
            (["hypersurface", "verify", "duality", "--samples", "5"], 4),
        ],
    )
    def test_wrong_model_is_reported_not_raised(self, cli, monkeypatch, argv, degree):
        # models are built without checking themselves; verify reports the fault.
        # Every gradient, public or from a shared power table, comes from _gradient.
        gradient = SymmetricHypersurfaceModel._gradient

        def perturbed(self, cols, p):
            grad = gradient(self, cols, p)
            return (grad[0] + 1,) + grad[1:] if self.degree == degree else grad

        monkeypatch.setattr(SymmetricHypersurfaceModel, "_gradient", perturbed)
        code, out, err = cli(argv)
        assert code == 1
        assert payload(out)["passed"] is False
        assert err == ""


class TestIncidence:
    def test_structure_shape(self, cli):
        code, out, _ = cli(["incidence"])
        assert code == 0
        data = payload(out)
        assert len(data["points"]) == 15
        assert len(data["lines"]) == 15
        assert len(data["flags"]) == 45
        assert data["point_degree"] == 3
        assert data["line_degree"] == 3
        for p_idx, l_idx in data["flags"]:
            pair = tuple(data["points"][p_idx])
            matching = [tuple(x) for x in data["lines"][l_idx]]
            assert pair in matching


class TestVerifyAll:
    def test_samples_zero_runs_the_fixed_checks(self, cli):
        code, out, _ = cli(["verify-all", "--samples", "0"])
        assert code == 0
        data = payload(out)
        assert data["passed"] is True
        names = {c["name"]: c for c in data["checks"]}
        assert names["matching-combinatorics"]["skipped"] is False
        assert names["polar-duality"]["skipped"] is True

    def test_samples_zero_is_byte_deterministic(self, cli):
        _, first, _ = cli(["verify-all", "--samples", "0"])
        _, second, _ = cli(["verify-all", "--samples", "0"])
        assert first == second

    def test_failing_report_exits_one(self, cli, monkeypatch):
        bad = VerificationReport(
            checks=(CheckResult("demo", False, "broken", 0.0),),
            samples=1,
            seed=0,
        )
        monkeypatch.setattr("stabgeom.cli.run_all", lambda *a, **k: bad)
        code, out, _ = cli(["verify-all"])
        assert code == 1
        assert payload(out)["passed"] is False


class TestErrorPaths:
    def test_missing_file(self, cli):
        code, out, err = cli(["git-classify", "--g", "2", "--input", "/nonexistent.json"])
        assert code == 2
        assert out == ""
        assert payload(err)["error"]["type"] == "FileNotFoundError"

    def test_malformed_json(self, cli, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = cli(["git-classify", "--g", "2", "--input", str(path)])
        assert code == 2
        assert payload(err)["error"]["type"] == "JSONDecodeError"

    def test_deeply_nested_json_is_a_schema_error(self, cli, tmp_path):
        depth = 100_000
        path = tmp_path / "deep.json"
        path.write_text('{"ambient_rank": 2, "points": ' + "[" * depth + "]" * depth + "}")
        code, out, err = cli(["git-classify", "--g", "2", "--input", str(path)])
        assert code == 2
        assert out == ""
        assert payload(err)["error"]["type"] == "SchemaError"

    def test_schema_violation(self, cli, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"ambient_rank": 3, "points": [["1", "0"]]}))
        code, _, err = cli(["git-classify", "--g", "2", "--input", str(path)])
        assert code == 2
        assert payload(err)["error"]["type"] == "SchemaError"

    def test_a_long_coordinate_is_echoed_cut(self, cli, config_file):
        # 5,000 digits match the rational pattern; CPython's 4,300-digit limit
        # on int parsing refuses them, and the message echoes the row
        path = config_file([["1" * 5000, "1"]])
        code, out, err = cli(["git-classify", "--g", "2", "--input", path])
        assert code == 2
        assert out == ""
        assert payload(err)["error"]["type"] == "SchemaError"
        assert len(err.encode()) < 1024

    def test_non_rational_weight(self, cli, config_file):
        path = config_file(TRIPLE_ROWS)
        code, _, err = cli(["git-classify", "--g", "1.5", "--input", path])
        assert code == 2
        assert payload(err)["error"]["type"] == "SchemaError"

    def test_non_ascii_digit_weight(self, cli, config_file):
        # an Arabic-Indic two is a digit to Unicode but not a rational literal
        path = config_file(TRIPLE_ROWS)
        code, out, err = cli(["git-classify", "--g", "\u0662", "--input", path])
        assert code == 2
        assert out == ""
        assert payload(err)["error"]["type"] == "SchemaError"

    def test_unknown_flag_and_command_exit_two(self, cli):
        for argv in (["critical-values", "-r", "2", "-d", "4", "-k", "2", "--bogus"], ["no-such-command"]):
            code, out, err = cli(argv)
            assert code == 2
            assert out == ""
            assert payload(err)["error"]["type"] == "UsageError"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["git-classify", "--input", "x.json"], "the following arguments are required: --g"),
            (["hypersurface", "verify", "cubic"], "argument target: invalid choice: 'cubic'"),
            (["critical-values", "-r", "two", "-d", "4", "-k", "2"], "argument -r: invalid int value: 'two'"),
            (["gale", "--input", "-", "--seed", "\u0663"], "unrecognized arguments: --seed \u0663"),
        ],
    )
    def test_usage_errors_are_typed_json(self, cli, argv, message):
        code, out, err = cli(argv)
        assert code == 2
        assert out == ""
        error = payload(err)["error"]
        assert error["type"] == "UsageError"
        assert error["message"].startswith(message)

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            # Arabic-Indic digits are digits to int() but not ASCII literals
            (
                ["critical-values", "-r", "\u0662", "-d", "\u0664", "-k", "\u0662"],
                "-r", "\u0662",
            ),
            (["critical-values", "-r", "1_0", "-d", "4", "-k", "2"], "-r", "1_0"),
            (["critical-values", "-r", "2", "-d", "4", "-k", "\u0662"], "-k", "\u0662"),
            (["critical-values", "-r", "2", "-d", "4", "-k", "2", "--degree-bound", "\uff19"],
             "--degree-bound", "\uff19"),
            (["critical-values", "-r", "2", "-d", "4", "-k", "2", "--section-bound", "1.0"],
             "--section-bound", "1.0"),
            (["destable-example", "--genus", "\u0664"], "--genus", "\u0664"),
            (["hypersurface", "verify", "duality", "--seed", "\u0663"], "--seed", "\u0663"),
            (["hypersurface", "verify", "duality", "--samples", "\u0663"], "--samples", "\u0663"),
            (["hypersurface", "verify", "segre", "--seed", "0x10"], "--seed", "0x10"),
            (["verify-all", "--samples", "0", "--seed", "\u0663"], "--seed", "\u0663"),
        ],
    )
    def test_integer_options_take_ascii_digits_only(self, cli, argv, flag, value):
        code, out, err = cli(argv)
        assert code == 2
        assert out == ""
        message = f"argument {flag}: invalid int value: {value!r}"
        assert payload(err) == {"error": {"type": "UsageError", "message": message}}

    def test_integer_options_take_a_sign_and_surrounding_space(self, cli):
        argv = ["critical-values", "-r", " 2 ", "-d", "+4", "-k", "2", "--section-bound", "-0"]
        code, out, _ = cli(argv)
        assert code == 0
        assert payload(out) == {"values": ["1", "2"]}

    @pytest.mark.parametrize("argv", [["--help"], ["gale", "--help"]])
    def test_help_still_exits_zero(self, cli, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


def text_mode_load(path):
    """The configuration in a file as the text-mode reader loads it (the reference)."""
    with open(path, encoding="utf-8") as fh:
        return PointConfiguration.from_json_dict(json.load(fh))


_PLAIN = '{"ambient_rank": 2,\n"points": [["1", "0"], ["1", "0"],\n["0", "1"], ["1", "1"]]}\n'


class TestFileRead:
    """A file is read once as bytes; value, bytes out and exit code are text mode's."""

    @pytest.mark.parametrize(
        "data, code, stdout, stderr",
        [
            pytest.param(
                _PLAIN.replace("\n", "\r\n").encode(),
                0,
                '{\n  "class": "Unstable",\n  "witness": {\n    "indices": [\n      0,\n'
                '      1\n    ],\n    "span_dim": 1,\n    "size": 2\n  },\n  "margin": "1/2"\n}\n',
                "",
                id="crlf",
            ),
            pytest.param(
                _PLAIN.replace("\n", "\r").encode(),
                0,
                '{\n  "class": "Unstable",\n  "witness": {\n    "indices": [\n      0,\n'
                '      1\n    ],\n    "span_dim": 1,\n    "size": 2\n  },\n  "margin": "1/2"\n}\n',
                "",
                id="lone-cr",
            ),
            pytest.param(
                b"\xef\xbb\xbf" + _PLAIN.encode(),
                2,
                "",
                '{\n  "error": {\n    "type": "JSONDecodeError",\n    "message": '
                '"Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"\n  }\n}\n',
                id="bom",
            ),
            pytest.param(
                _PLAIN.replace("\n", "\r\n").encode().replace(b'"0"', b'"\xff"', 1),
                2,
                "",
                '{\n  "error": {\n    "type": "UnicodeDecodeError",\n    "message": '
                '"\'utf-8\' codec can\'t decode byte 0xff in position 39: invalid start byte"\n  }\n}\n',
                id="invalid-utf-8",
            ),
            pytest.param(
                _PLAIN.replace("\n", "\r\n").replace('["0", "1"]', '["0" "1"]').encode(),
                2,
                "",
                '{\n  "error": {\n    "type": "JSONDecodeError",\n    "message": '
                '"Expecting \',\' delimiter: line 3 column 6 (char 60)"\n  }\n}\n',
                id="malformed-crlf",
            ),
        ],
    )
    def test_bytes_and_exit_code(self, cli, tmp_path, monkeypatch, data, code, stdout, stderr):
        path = tmp_path / "config.json"
        path.write_bytes(data)
        argv = ["git-classify", "--g", "3/2", "--input", str(path)]
        assert cli(argv) == (code, stdout, stderr)
        monkeypatch.setattr("stabgeom.cli._load_config", text_mode_load)
        assert cli(argv) == (code, stdout, stderr)

    def test_a_directory_is_an_os_error(self, cli, tmp_path):
        code, out, err = cli(["gale", "--input", str(tmp_path)])
        assert (code, out) == (2, "")
        assert payload(err)["error"]["type"] == "IsADirectoryError"


class TestExhaustedResource:
    def test_memory_error_exits_two_with_typed_json(self, cli, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr("stabgeom.cli.destabilizing_example_config", exhausted)
        code, out, err = cli(["destable-example", "--genus", "3"])
        assert (code, out) == (2, "")
        assert err == '{\n  "error": {\n    "type": "MemoryError",\n    "message": ""\n  }\n}\n'


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stabgeom", "critical-values", "-r", "2", "-d", "4", "-k", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"values": ["1", "2"]}


class TestFullSeededRun:
    def test_verify_all_samples_200_seed_7(self, cli):
        code, out, _ = cli(["verify-all", "--samples", "200", "--seed", "7"])
        assert code == 0
        data = payload(out)
        assert data["passed"] is True
        assert data["samples"] == 200
        assert data["seed"] == 7
        assert all(c["skipped"] is False for c in data["checks"])
