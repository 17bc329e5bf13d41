"""The exit-code contract under fuzzed argv and configuration documents.

Every command must exit 0, 1 or 2, whatever it is given, and an exit 2
must come with one typed JSON error on stderr. Sizes stay small (r <= 4,
n <= 7, tiny sample counts and bounds) so each command returns quickly.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import run_cli

# hostile values for any slot of a configuration document
hostile = st.one_of(
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
    st.sampled_from(["1/0", "", "x", "1.5", "2/-3", " 3 ", "0x10"]),
    st.lists(st.lists(st.integers(-2, 2), max_size=2), max_size=2),
    st.dictionaries(st.sampled_from(["a", "points"]), st.integers(-2, 2), max_size=1),
)
coordinates = st.one_of(st.integers(-3, 3), st.sampled_from(["1", "-2", "3/2", "-1/3", "0"]))


@st.composite
def config_documents(draw):
    """A configuration document, valid or broken in one or more places."""
    r = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=7))
    rows = draw(st.lists(st.lists(coordinates, min_size=r, max_size=r), min_size=n, max_size=n))
    doc = {"ambient_rank": r, "points": rows}
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        where = draw(st.sampled_from(("rank", "points", "row", "coordinate", "key", "whole")))
        if where == "rank":
            doc["ambient_rank"] = draw(st.one_of(hostile, st.integers(-1, 5)))
        elif where == "points":
            doc["points"] = draw(hostile)
        elif where == "row":
            rows[draw(st.integers(0, n - 1))] = draw(st.one_of(hostile, st.lists(coordinates, max_size=5)))
        elif where == "coordinate" and isinstance(rows[0], list) and rows[0]:
            rows[0][0] = draw(hostile)
        elif where == "key":
            doc[draw(st.sampled_from(["extra", "Points", ""]))] = draw(hostile)
        elif where == "whole":
            return draw(hostile)
    return doc


numbers = st.one_of(
    st.integers(1, 4).map(str),
    st.sampled_from(["3/2", "5/2"]),
    st.sampled_from(["0", "-2", "-1/2", "1/0", "x", "", "2.5", "1e3"]),
)
small_ints = st.one_of(st.integers(-2, 4).map(str), st.sampled_from(["x", "1/2"]))


@st.composite
def argvs(draw):
    """An argv for one command, at small sizes, sometimes with a flag dropped or added."""
    command = draw(
        st.sampled_from(
            ("git-classify", "alpha-check", "equivalence", "gale", "critical-values",
             "destable-example", "hypersurface", "incidence", "verify-all")
        )
    )
    if command in ("git-classify", "alpha-check", "equivalence", "gale"):
        args = [command, "--input", "-"]
        if command != "gale":
            args += ["--g", draw(numbers)]
        if command == "alpha-check":
            args += ["--alpha", draw(numbers)]
    elif command == "critical-values":
        args = [command, "-r", draw(small_ints), "-d", draw(small_ints), "-k", draw(small_ints)]
        if draw(st.booleans()):
            args += ["--degree-bound", draw(small_ints), "--section-bound", draw(small_ints)]
    elif command == "destable-example":
        args = [command, "--genus", draw(small_ints)]
        if draw(st.booleans()):
            args += ["--lambdas", ",".join(draw(st.lists(numbers, max_size=5)))]
    elif command == "hypersurface":
        target = draw(st.sampled_from(("segre", "igusa", "duality", "cubic")))
        args = [command, "verify", target, "--samples", draw(small_ints), "--seed", draw(small_ints)]
    elif command == "incidence":
        args = [command]
    else:
        # a passing verify-all takes seconds; only its refusals are fuzzed here
        args = [command, "--samples", draw(st.sampled_from(["-1", "x", "1/2", ""]))]
    if len(args) > 1 and draw(st.integers(0, 5)) == 0:
        del args[draw(st.integers(1, len(args) - 1))]
    if draw(st.integers(0, 5)) == 0:
        args.insert(draw(st.integers(0, len(args))), draw(st.sampled_from(["--bogus", "-", "--g"])))
    return args


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs(), config_documents())
def test_exit_codes_and_typed_errors(argv, doc):
    code, out, err = run_cli(argv, json.dumps(doc))
    assert code in (0, 1, 2)
    if code == 2:
        error = json.loads(err)["error"]
        assert set(error) == {"type", "message"}
        assert isinstance(error["type"], str) and isinstance(error["message"], str)
        assert out == ""
    else:
        json.loads(out)
