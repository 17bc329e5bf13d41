"""Every fast route against its checked reference, in one table.

A fast route is a private shortcut the program takes for its common input
(an all-int row, a command name, a list of strings) beside a route that
checks or handles everything. Each row of ``ROUTES`` names the function that
holds the route, the fast callable, its checked reference, a hypothesis
strategy of cases and the ``BENCH_<n>.json`` whose end-to-end ablation keeps
the route (removing it moved a ``BENCHMARK.json`` metric past the quartile
distance of the tree that has it), or, for a row whose route was deleted,
the run that deleted it; both callables must return an equal value of the
same types, or raise the same error type with the same message. Only the error types a row names as its refusals count as an
outcome; any other error fails the case, even when both sides raise it. A
row keeps the example count of the test it replaced, and that test's
explicit examples run as test cases of their own.

``test_every_route_has_a_row`` walks the sources: each ``_of`` classmethod
and each type-set test ``set(map(type, ...))`` is a route, and the function
that holds it must be the home of some row.
"""

import ast
import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

import stabgeom
from stabgeom import (
    GaleData,
    PointConfiguration,
    ProjectivePoint,
    SchemaError,
    format_scalar,
    gale_transform,
    parse_scalar,
)
from stabgeom.cli import _PARSER, _dumps, _parse
from stabgeom.exactgeom import _clear_row_to_ints, _image, _pair, _primitive, _shown
from stabgeom.modhyp import incidence_15_3
from stabgeom.randconf import _nonzero_vector, _randints, random_frame_configuration

from helpers import standard_six_config

SRC = Path(stabgeom.__file__).parent
REPO = Path(__file__).resolve().parents[1]
FIVE_THOUSAND_DIGITS = 10**4999

entries = st.integers(min_value=-30, max_value=30)


@dataclass(frozen=True)
class Route:
    """One fast route: where it lives, the two callables and the cases they must agree on."""

    home: str  # "module.qualname" of the function that holds the route
    fast: Callable
    checked: Callable
    cases: st.SearchStrategy
    evidence: str  # the BENCH_<n>.json at the repo root whose end-to-end run keeps (or deleted) the route
    examples: tuple = ()
    max_examples: int = 100
    refusals: tuple = ()  # the error types that are an outcome; any other fails the case


def outcome(call, case, refusals):
    """The value a call returns, or the type and message of the refusal it raises."""
    try:
        return call(case)
    except refusals as exc:
        return type(exc), str(exc)


def shape(value):
    """The nested types of a value, which tell 1 from Fraction(1) and a list from a tuple."""
    if isinstance(value, (list, tuple)):
        return type(value), [shape(v) for v in value]
    return type(value)


# --- exactgeom -------------------------------------------------------------


def parse_scalar_by_fraction(value):
    """A string scalar read as before integer-speed parsing: the pattern, then Fraction(text)."""
    text = value.strip()
    if not re.fullmatch(r"[+-]?[0-9]+(?:/[1-9][0-9]*)?", text):
        raise SchemaError(f"not a rational literal: {_shown(value)}")
    return Fraction(text)


def clear_row_by_fraction(row):
    """A row cleared the checked way: a Fraction per entry, then the lcm of the denominators."""
    fracs = [parse_scalar_by_fraction(x) if isinstance(x, str) else parse_scalar(x) for x in row]
    scale = math.lcm(*(q.denominator for q in fracs))
    return [q.numerator * (scale // q.denominator) for q in fracs]


@st.composite
def scalar_texts(draw):
    """Strings near the rational pattern: padded, signed, "p/q", non-ASCII or `_`-separated digits."""
    ascii_digits = st.text(st.sampled_from("0123456789"), min_size=1, max_size=25)
    # Arabic-Indic, extended Arabic-Indic, Devanagari and fullwidth digits
    any_digits = st.text(st.sampled_from("0123456789\u0661\u0662\u06f3\u0966\uff11"), min_size=1, max_size=6)
    part = st.one_of(ascii_digits, any_digits, st.builds("{}_{}".format, ascii_digits, ascii_digits))
    text = draw(part)
    if draw(st.booleans()):
        text += "/" + draw(part)
    pad = st.text(st.sampled_from(" \t\n\u2003\u00a0"), max_size=2)
    return draw(pad) + draw(st.sampled_from(["", "+", "-", "+-"])) + text + draw(pad)


# the other entries of a row: near-rational and malformed strings, ints, Fractions and a bool
row_entries = st.one_of(
    scalar_texts(),
    st.text(st.sampled_from("0123456789+-/ ._eEx\u0662"), max_size=12),
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.just(True),
)


def read_strings(case, parse, clear):
    """A string scalar, and the row that holds it among other entries, read by one route."""
    text, others, at = case
    # a refusal is a SchemaError, or the ValueError of CPython's limit on int digits
    value = outcome(parse, text, ValueError)
    row = outcome(clear, [*others[:at], text, *others[at:]], ValueError)
    assert type(value) is Fraction or value[0] in (SchemaError, ValueError)
    assert type(row) is list or row[0] in (SchemaError, ValueError)
    return value, row


def checked_configuration(data):
    """``from_json_dict`` through the public constructors alone, with its errors in row order."""
    rank, rows = data["ambient_rank"], data["points"]
    for row in rows:
        if len(row) != rank:
            raise SchemaError(f"each point needs exactly {rank} coordinates")
        try:
            ProjectivePoint(row)
        except (SchemaError, ValueError) as exc:
            raise SchemaError(f"bad point {_shown(row)}: {exc}") from exc
    return PointConfiguration(rank, [ProjectivePoint(row) for row in rows])


def stored(config):
    """A configuration with the types of its points and coordinates, stored as tuples."""
    return config, shape(config.points), [shape(p.coords) for p in config.points]


def primitive_by_definition(ints):
    """Divide by the content, then flip the sign so the first nonzero entry is positive."""
    content = 0
    for v in ints:
        content = math.gcd(content, v)
    divided = [Fraction(v, content) for v in ints]
    if next(v for v in divided if v) < 0:
        divided = [-v for v in divided]
    assert all(v.denominator == 1 for v in divided)
    return tuple(int(v) for v in divided)


def scaled_pair(case):
    """A vector and a multiple of it."""
    ints, scale = case
    return ints, [scale * v for v in ints]


@st.composite
def pair_cases(draw):
    """(w, u, q) as the hyperplane level of ``_flats`` passes them: primitive 3-vectors,
    u's lead positive and in column q, w's lead positive and w off u's line.

    Half of the draws put a zero in w's column q.
    """
    q = draw(st.integers(0, 2))
    tail = draw(st.lists(st.integers(-9, 9), min_size=3 - q, max_size=3 - q).filter(lambda v: v[0]))
    u = primitive_by_definition([0] * q + tail)
    w = draw(st.lists(st.integers(-9, 9), min_size=3, max_size=3))
    if draw(st.booleans()):
        w[q] = 0
    if all(u[i] * w[j] == u[j] * w[i] for i in range(3) for j in range(3)):
        w = [int(i != q) for i in range(3)]  # off the line, zero in column q
    return primitive_by_definition(w), u, q


# --- cli -------------------------------------------------------------------

# argvs for the dispatch: every command, valid and refused, help, abbreviated
# and "="-joined options, "--", unknown names, repeated options and first
# items that are not command names
DISPATCH_CORPUS = [
    [],
    ["--help"],
    ["-h"],
    ["--"],
    ["--", "incidence"],
    ["no-such-command"],
    ["GALE"],
    ["gal", "--input", "-"],
    [""],
    ["-x"],
    ["--g", "2", "git-classify"],
    ["git-classify", "--g", "3/2", "--input", "f.json"],
    ["git-classify", "--g=2", "--input=-"],
    ["git-classify", "--g", "2", "--inp", "-"],
    ["git-classify", "--g", "2", "--g", "3", "--input", "-"],
    ["git-classify", "--input", "-"],
    ["git-classify", "--g"],
    ["git-classify", "--", "--g", "2", "--input", "-"],
    ["git-classify", "--g", "2", "--input", "-", "extra"],
    ["git-classify", "--help"],
    ["git-classify", "-h", "--g"],
    ["git-classify", "--he"],
    ["critical-values", "-r", "2", "-d", "4", "-k", "2"],
    ["critical-values", "-r", "2", "-d", "4", "-k", "2", "--degree-bound", "9", "--section-bound", "3"],
    ["critical-values", "-r", "2", "-d", "4", "-k", "2", "--de", "9"],
    ["critical-values", "-r", "two", "-d", "4", "-k", "2"],
    ["critical-values", "-r2", "-d4", "-k2"],
    ["critical-values", "-r", "-1", "-d", "4", "-k", "2"],
    ["alpha-check", "--g", "2", "--alpha", "1", "--input", "-"],
    ["alpha-check", "--g", "2", "--al", "1", "--input", "-"],
    ["alpha-check", "--g", "2", "--input", "-"],
    ["equivalence", "--g", "2", "--input", "-"],
    ["equivalence", "--g", "2"],
    ["destable-example", "--genus", "3"],
    ["destable-example", "--genus", "3", "--lambdas", "1,2,3,4"],
    ["destable-example", "--genus", "\u0664"],
    ["destable-example"],
    ["gale", "--input", "-"],
    ["gale", "--input", "-", "--seed", "3"],
    ["gale", "-h"],
    ["hypersurface"],
    ["hypersurface", "--help"],
    ["hypersurface", "verify"],
    ["hypersurface", "verify", "-h"],
    ["hypersurface", "verify", "segre", "--samples", "5"],
    ["hypersurface", "verify", "igusa"],
    ["hypersurface", "verify", "duality", "--samples", "5", "--seed", "1"],
    ["hypersurface", "verify", "duality", "--sa", "5", "--seed", "1", "--seed", "2"],
    ["hypersurface", "verify", "cubic"],
    ["hypersurface", "verify", "--", "segre"],
    ["hypersurface", "bogus"],
    ["incidence"],
    ["incidence", "--"],
    ["incidence", "extra"],
    ["verify-all", "--samples", "0", "--seed", "4"],
    ["verify-all", "--s", "3"],
    ["verify-all", "--samples"],
    ["verify-all", "--seed", "1", "--seed", "2"],
    [None],
    [1, "incidence"],
    [["incidence"]],
    ["gale", "--input", 5],
]
ARGV_WORDS = sorted({w for argv in DISPATCH_CORPUS for w in argv if type(w) is str})


def parsed_by(parse):
    """The namespace without ``command``, or the error or exit, with what was printed."""

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                namespace = parse(list(argv))
            except SystemExit as exc:
                result = ("exit", exc.code)
            except Exception as exc:  # UsageError, or a TypeError on an item that is not a str
                result = (type(exc), str(exc))
            else:
                result = {k: v for k, v in vars(namespace).items() if k != "command"}
        return result, out.getvalue(), err.getvalue()

    return run


def stdlib_json(value):
    return json.dumps(value, indent=2)


# characters that _quote writes as themselves: printable ASCII but for '"' and '\'
plain_text = st.text(st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters='"\\'))
# quotes, backslashes, control, non-ASCII and astral characters, mixed with any others
escaped_text = st.text(
    st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f \u00e9\u0662 \ud800\U0001f600'), st.characters()),
    max_size=6,
)
INCIDENCE_LINES = [[list(pair) for pair in m] for m in incidence_15_3().lines]


# --- gale ------------------------------------------------------------------


@st.composite
def gale_cases(draw, perturb):
    """(source, target, D): a Gale transform of random frame points, D as ints times a factor.

    With ``perturb``, one entry of D may become 0 or move by one, which the
    constructor must refuse.
    """
    rank = draw(st.integers(2, 4))
    config = random_frame_configuration(random.Random(draw(st.integers(0, 10**6))), rank,
                                        rank + draw(st.integers(2, 4)))
    try:
        data = gale_transform(config)
    except ValueError:  # gamma - 1 of the points on a hyperplane
        data = gale_transform(standard_six_config())
    factor = draw(st.integers(-3, 3).filter(bool))
    diag = [factor * int(q) for q in data.diag]
    if perturb and draw(st.booleans()):
        i = draw(st.integers(0, len(diag) - 1))
        diag[i] = draw(st.sampled_from([0, diag[i] + 1]))
    return data.source, data.target, diag


def gale_with(diag_of):
    """GaleData of a case, its D given as ``diag_of`` makes it, with its stored D and JSON."""

    def run(case):
        source, target, diag = case
        data = GaleData(source, target, diag_of(diag))
        return data.diag, data.to_json()

    return run


def diag_texts(case, scale):
    """The JSON diag of a case whose D is scaled by a rational, and D through format_scalar."""
    source, target, diag = case
    data = GaleData(source, target, [Fraction(d) * scale for d in diag])
    return data.to_json()["diag"], [format_scalar(q) for q in data.diag]


# --- randconf --------------------------------------------------------------


def randints_stream(draws):
    """Two runs of draws from a seeded stream, each followed by the stream's next random()."""

    def run(case):
        seed, bound, count = case
        rng = random.Random(seed)
        first = draws(rng, -bound, bound, count)
        after_first = rng.random()
        # a range starting at 0, as the segre sampler picks a node
        second = draws(rng, 0, bound - 1, count)
        return first, after_first, second, rng.random()

    return run


def randint_draws(rng, low, high, count):
    return [rng.randint(low, high) for _ in range(count)]


def nonzero_by_randint(rng, length, bound):
    while True:
        v = [rng.randint(-bound, bound) for _ in range(length)]
        if any(v):
            return v


def vector_stream(draw):
    """Five vectors drawn from a seeded stream, and the stream's next random()."""

    def run(case):
        seed, length, bound = case
        rng = random.Random(seed)
        return [draw(rng, length, bound) for _ in range(5)], rng.random()

    return run


ROUTES = {
    # a program-built nonzero int vector becomes a point with _primitive alone
    "ProjectivePoint._of": Route(
        home="exactgeom.ProjectivePoint._of",
        evidence="BENCH_35.json",
        fast=ProjectivePoint._of,
        checked=ProjectivePoint,
        # leading zeros, a common factor and a negative lead all reach _primitive
        cases=st.builds(
            lambda coords, factor, zeros: [0] * zeros + [factor * c for c in coords],
            st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=6),
            st.integers(-10**6, 10**6).filter(bool),
            st.integers(0, 3),
        ).filter(any),
        max_examples=200,
    ),
    # a nonzero row of exact ints skips the checks; the value and every error,
    # in row order, are those of the checked constructors
    "from_json_dict int rows": Route(
        home="exactgeom.PointConfiguration.from_json_dict",
        evidence="BENCH_35.json",
        fast=lambda data: stored(PointConfiguration.from_json_dict(data)),
        checked=lambda data: stored(checked_configuration(data)),
        cases=st.integers(min_value=1, max_value=4).flatmap(
            lambda r: st.fixed_dictionaries({
                "ambient_rank": st.just(r),
                "points": st.lists(
                    st.one_of(
                        st.lists(entries, min_size=r, max_size=r),
                        st.lists(st.one_of(entries, st.booleans(), entries.map(str)), min_size=r, max_size=r),
                        st.just([0] * r),
                        st.lists(entries, min_size=r + 1, max_size=r + 1),
                    ),
                    min_size=1,
                    max_size=5,
                ),
            })
        ),
        refusals=(ValueError,),  # SchemaError
    ),
    # ints and integer strings are read with int; the first entry of any other
    # kind sends the row through parse_scalar and the lcm. No workload writes
    # string coordinates yet, so no metric can judge the integer strings; the
    # evidence file records that exemption
    "_clear_row_to_ints integer strings": Route(
        home="exactgeom._clear_row_to_ints",
        evidence="BENCH_35.json",
        fast=lambda case: read_strings(case, parse_scalar, _clear_row_to_ints),
        checked=lambda case: read_strings(case, parse_scalar_by_fraction, clear_row_by_fraction),
        cases=st.tuples(
            st.one_of(scalar_texts(), st.text(st.sampled_from("0123456789+-/ ._eEx\u0662"), max_size=12)),
            st.lists(row_entries, max_size=3),
            st.integers(min_value=0, max_value=3),
        ),
        examples=(
            ("\u0661\u0662", [], 0),
            ("1_000", [], 0),
            (" -12/18 ", [], 0),
            ("+0/7", [], 0),
            ("007/010", [], 0),
            ("-" + "7" * 4301, [], 0),
            ("1/" + "7" * 4301, [], 0),
            ("1/2", ["3", " -4 ", "6"], 2),  # integer strings, then a "p/q" one
            ("x", ["2", 5], 2),  # refused after an integer string and an int
            ("7" * 4302, ["1/" + "7" * 4301], 0),  # the first entry's digit limit wins
            ("2", [True], 0),
            ("3", [4, -5], 1),  # an int row but for one integer string
        ),
        max_examples=300,
    ),
    # a vector of content 1 and positive lead is returned as it is
    "_primitive early return": Route(
        home="exactgeom._primitive",
        evidence="BENCH_32.json",
        fast=lambda case: [_primitive(v) for v in scaled_pair(case)],
        checked=lambda case: [primitive_by_definition(v) for v in scaled_pair(case)],
        cases=st.tuples(
            st.lists(st.integers(min_value=-10**30, max_value=10**30), min_size=1, max_size=7).filter(any),
            st.integers(min_value=-10**6, max_value=10**6).filter(bool),
        ),
        examples=(([3, -4], 1),),
    ),
    # a 3-vector's image at the hyperplane level is a pair, in closed form
    "_pair": Route(
        home="exactgeom._pair",
        evidence="BENCH_34.json",
        fast=lambda case: _pair(*case),
        checked=lambda case: _image(*case),
        cases=pair_cases(),
        examples=(
            ((3, 1, 1), (0, 2, -1), 1),  # q = 1
            ((2, -4, 5), (0, 0, 1), 2),  # q = 2, a common factor
            ((0, 2, -1), (1, 2, 3), 0),  # w_q = 0
            ((2, 1, 1), (1, 1, 1), 0),  # a negative first entry
            ((1, 1, 1), (1, 1, 0), 0),  # a = 0, b positive
        ),
        max_examples=200,
    ),
    # an argv that starts with a command name is parsed by that subparser alone
    "_parse subparser dispatch": Route(
        home="cli._parse",
        evidence="BENCH_35.json",
        fast=parsed_by(_parse),
        checked=parsed_by(_PARSER.parse_args),
        cases=st.lists(st.sampled_from(ARGV_WORDS), max_size=6),
        examples=tuple(DISPATCH_CORPUS),
        max_examples=len(DISPATCH_CORPUS),
    ),
    # a list of ints: the key names an input shape, not a route; since the
    # flat-int join was deleted such a list takes the general path
    "_dumps flat ints": Route(
        home="cli._dumps",
        evidence="BENCH_35.json",
        fast=_dumps,
        checked=stdlib_json,
        cases=st.lists(st.integers() | st.booleans() | st.none(), min_size=1, max_size=6),
        examples=([0, -(10**30), 7], [1, True], [2, None]),
    ),
    "_dumps flat strings": Route(
        home="cli._dumps",
        evidence="BENCH_35.json",
        fast=_dumps,
        checked=stdlib_json,
        cases=st.lists(st.one_of(escaped_text, plain_text, st.integers(), st.none()), min_size=1, max_size=5),
        examples=(["1", "-2/3"], ["a", 1], ["a", ["b"]], ["q\"\\\n\u0662"]),
    ),
    # rows of ints, such as incidence pairs: the key names an input shape,
    # not a route; since the int-matrix join was deleted they go item by item
    "_dumps int matrix": Route(
        home="cli._dumps",
        evidence="BENCH_35.json",
        fast=_dumps,
        checked=stdlib_json,
        cases=st.lists(st.lists(st.integers() | st.booleans(), max_size=4), min_size=1, max_size=4),
        examples=(
            [[0, 1], [-2], [10**30, 5]],
            {"lines": [[[0, 1], [2, 3]], [[4, 5]]], "flags": [[0, 0], [1, 0]]},
            [[1], []],
            [[1, True], [2]],
            [[1], [False]],
            [[1], ["a"]],
            [[1], [None]],
            [[1], [2, [3]]],
            INCIDENCE_LINES,  # stab incidence's lines, three deep
        ),
    ),
    # rows of strings in which nothing needs an escape: one quoted join per
    # row; a matrix with a string to escape goes row by row
    "_dumps escape-free string matrix": Route(
        home="cli._dumps",
        evidence="BENCH_35.json",
        fast=_dumps,
        checked=stdlib_json,
        cases=st.lists(st.lists(plain_text | st.text(), max_size=4), min_size=1, max_size=4),
        examples=(
            [["q\"\\\n\u0662"], ["\ud800", "\x7f"]],
            [["a"], ["b\n"]],
            [["1", "-2/3"], ["4", "5"]],
            {"points": [["1", "0"], ["0", "1"]], "diag": ["1", "-1"]},
            [["1"], []],
            [["a"], "b"],
            [["a"], {"k": "v"}],
            [["1"], ("2",)],
            [["a", 1], ["b"]],
            [["a"], ["b", ["c"]]],
        ),
        max_examples=200,
    ),
    # an all-int D, as gale_transform records it, is read with Fraction alone
    "GaleData int diag": Route(
        home="gale.GaleData.__init__",
        evidence="BENCH_35.json",
        fast=gale_with(list),
        checked=gale_with(lambda diag: [Fraction(d) for d in diag]),
        cases=gale_cases(perturb=True),
        refusals=(ValueError,),  # a D that is not the transform's
    ),
    # D is written from numerator and denominator, not through format_scalar
    "GaleData.to_json diag": Route(
        home="gale.GaleData.to_json",
        evidence="BENCH_35.json",
        fast=lambda case: diag_texts(*case)[0],
        checked=lambda case: diag_texts(*case)[1],
        cases=st.tuples(
            gale_cases(perturb=False),
            st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=60)).filter(bool),
        ),
        examples=tuple(
            ((standard_six_config(), gale_transform(standard_six_config()).target, [1, 1, 1, -1, -1, -1]), scale)
            for scale in (1, Fraction(2, 7))
        ),
    ),
    # randint's draws through getrandbits, bit for bit; a Python whose randint
    # draws otherwise fails here
    "_randints": Route(
        home="randconf._randints",
        evidence="BENCH_35.json",
        fast=randints_stream(_randints),
        checked=randints_stream(randint_draws),
        cases=st.tuples(
            st.one_of(
                st.integers(),
                st.integers(FIVE_THOUSAND_DIGITS, 10 * FIVE_THOUSAND_DIGITS - 1),
                st.integers(-10 * FIVE_THOUSAND_DIGITS + 1, -FIVE_THOUSAND_DIGITS),
            ),
            st.integers(1, 100),
            st.integers(0, 20),
        ),
        examples=((-5, 17, 20), (FIVE_THOUSAND_DIGITS, 33, 20), (0, 1, 0)),
        max_examples=200,
    ),
    # the ungated draw behind the random configurations and the Segre stray search
    "_nonzero_vector": Route(
        home="randconf._nonzero_vector",
        evidence="BENCH_35.json",
        fast=vector_stream(_nonzero_vector),
        checked=vector_stream(nonzero_by_randint),
        cases=st.tuples(st.integers(), st.integers(1, 8), st.integers(1, 40)),
        examples=((0, 1, 1),),  # eight zero draws rejected
    ),
}


def assert_agree(route, case):
    fast, checked = outcome(route.fast, case, route.refusals), outcome(route.checked, case, route.refusals)
    assert fast == checked
    assert shape(fast) == shape(checked)


@pytest.mark.parametrize(
    "name, case",
    [(name, case) for name, route in ROUTES.items() for case in route.examples],
    ids=[f"{name}-{i}" for name, route in ROUTES.items() for i in range(len(route.examples))],
)
def test_explicit_example(name, case):
    assert_agree(ROUTES[name], case)


@pytest.mark.parametrize("name", ROUTES)
def test_drawn_cases(name):
    route = ROUTES[name]
    test = given(route.cases)(lambda case: assert_agree(route, case))
    settings(max_examples=route.max_examples, deadline=None)(test)()


def unlisted_routes(source: str, module: str, homes) -> list[str]:
    """``module:line qualname`` of each ``_of`` classmethod and ``set(map(type, ...))``
    test whose enclosing function is no row's home."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + [child.name]
                if isinstance(child, ast.FunctionDef) and child.name == "_of" and any(
                    isinstance(d, ast.Name) and d.id == "classmethod" for d in child.decorator_list
                ):
                    found.append((child.lineno, inner))
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "set"
                and len(child.args) == 1
                and isinstance(child.args[0], ast.Call)
                and isinstance(child.args[0].func, ast.Name)
                and child.args[0].func.id == "map"
                and child.args[0].args
                and isinstance(child.args[0].args[0], ast.Name)
                and child.args[0].args[0].id == "type"
            ):
                found.append((child.lineno, scope))
            visit(child, inner)

    visit(ast.parse(source), [])
    out = []
    for line, scope in found:
        home = ".".join([module, *scope])
        if home not in homes:
            out.append(f"{module}:{line} {home}")
    return out


HOMES = {route.home for route in ROUTES.values()}


@pytest.mark.parametrize("name", ROUTES)
def test_every_row_names_its_end_to_end_evidence(name):
    evidence = ROUTES[name].evidence
    assert re.fullmatch(r"BENCH_[0-9]+\.json", evidence)
    assert (REPO / evidence).is_file()


def test_every_route_has_a_row():
    missing = []
    for path in sorted(SRC.glob("*.py")):
        missing += unlisted_routes(path.read_text(encoding="utf-8"), path.stem, HOMES)
    assert missing == []


def test_the_guard_names_an_unlisted_route_by_line():
    planted = (
        "class Thing:\n"
        "    @classmethod\n"
        "    def _of(cls, x):\n"
        "        return cls()\n"
        "\n"
        "def helper(row):\n"
        "    return set(map(type, row)) == {int}\n"
    )
    assert unlisted_routes(planted, "planted", HOMES) == [
        "planted:3 planted.Thing._of",
        "planted:7 planted.helper",
    ]
    assert unlisted_routes(planted, "planted", HOMES | {"planted.Thing._of", "planted.helper"}) == []
