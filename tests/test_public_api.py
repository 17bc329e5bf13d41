"""The public names of the stabgeom package, pinned, and README's Library example, run.

Adding or removing a name from ``stabgeom/__init__.py`` changes the
library API; this test makes such a change show up as an edit here.
"""

import contextlib
import inspect
import io
import re
from pathlib import Path

import stabgeom

PUBLIC_NAMES = {
    # configurations, points and transforms
    "PointConfiguration",
    "ProjectivePoint",
    "ProjectiveTransform",
    "format_scalar",
    "parse_scalar",
    "projectively_equivalent",
    "rank",
    "span_dim",
    # span-criterion stability
    "StabilityClass",
    "StabilityVerdict",
    "Witness",
    "classify",
    "oracle_classify",
    "worst_subspace",
    # coherent-system slopes and the dictionary
    "EquivalenceReport",
    "SystemType",
    "alpha_slope",
    "critical_values",
    "destabilizing_example_config",
    "equivalence_check",
    "stabilization_threshold",
    "subsystem_types_from_config",
    "subsystem_violates",
    # Gale transform
    "GaleData",
    "conic_parameter_points",
    "gale_transform",
    "is_self_associated",
    "on_smooth_conic",
    # symmetric threefolds
    "AmbientPoint",
    "IncidenceStructure",
    "MatchingLine",
    "SymmetricHypersurfaceModel",
    "duality_check",
    "igusa_lines",
    "igusa_points",
    "igusa_quartic",
    "incidence_15_3",
    "perfect_matchings",
    "polar_map",
    "restricted_hessian_rank",
    "sample_segre_points",
    "segre_cubic",
    "segre_nodes",
    "three_three_splits",
    "verify_singular_point",
    # verification suite
    "CheckResult",
    "VerificationReport",
    "run_all",
    # errors
    "DegenerateConfigurationError",
    "FrameDegenerateError",
    "RowEliminationError",
    "SchemaError",
    "SingularPointError",
    "SizeMismatchError",
    "StabgeomError",
    "SubsetTooLargeError",
    "UsageError",
}


def test_public_names_are_exactly_the_pinned_set():
    # submodules become package attributes once imported, so they are left out
    names = {
        name
        for name, value in vars(stabgeom).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert names == PUBLIC_NAMES


def test_readme_library_example_runs():
    # a README that still names a removed API fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue() == "Stable\n"
