"""Standing constraints of the package, checked on its sources with ``ast``.

Each rule walks ``src/stabgeom/*.py`` without importing it and names every
line that breaks the rule as ``module:line: source``; a planted source
string shows that it does.

- One integer-draw route: ``modhyp`` and the hypersurface checks of
  ``verify`` never reach ``randint``, ``randrange`` or ``getrandbits``;
  their draws go through ``randconf._randints``, which keeps the streams
  of a seed unchanged.
- Batches only: the hypersurface checks of ``verify``, ``modhyp.duality_check``
  and ``modhyp._segre_samples`` never reach a per-point entry of the
  power-sum kernel (``evaluate``, ``gradient``, ``hessian``,
  ``verify_singular_point``, ``restricted_hessian_rank``, ``polar_map``),
  each a batch of one, so their tables stay few.
- One canonical routine: ``math.gcd`` appears only in
  ``exactgeom._primitive`` and in ``exactgeom._pair``, its closed form for
  pairs, so a batch of points is made primitive through ``_primitive``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stabgeom"

DRAWS = {"randint", "randrange", "getrandbits"}
HYPERSURFACE_CHECKS = {"check_segre_nodes", "check_igusa", "check_duality"}
GCD_HOMES = {("exactgeom", "_primitive"), ("exactgeom", "_pair")}
PER_POINT = {"evaluate", "gradient", "hessian", "verify_singular_point", "restricted_hessian_rank", "polar_map"}
BATCH_ONLY = {("verify", name) for name in HYPERSURFACE_CHECKS} | {
    ("modhyp", "duality_check"),
    ("modhyp", "_segre_samples"),
}


def _named(source: str, names: set[str]):
    """Yield (enclosing top-level function or None, node) for each reference to one of ``names``.

    A reference is a name, an attribute or an imported alias, so taking a
    bound method into a local counts as well as calling it.
    """
    tree = ast.parse(source)
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr in names
                or isinstance(node, ast.alias) and node.name in names
            ):
                yield owner, node


def _line(module: str, source: str, node) -> str:
    return f"{module}:{node.lineno}: {source.splitlines()[node.lineno - 1].strip()}"


def draw_violations(source: str, module: str) -> list[str]:
    """Every direct draw in ``modhyp`` or in one of ``verify``'s hypersurface checks."""
    found = []
    for owner, node in _named(source, DRAWS):
        if module == "modhyp" or module == "verify" and owner in HYPERSURFACE_CHECKS:
            found.append(_line(module, source, node))
    return found


def per_point_violations(source: str, module: str) -> list[str]:
    """Every per-point kernel entry named in a hypersurface check or the sampler."""
    return [
        _line(module, source, node)
        for owner, node in _named(source, PER_POINT)
        if (module, owner) in BATCH_ONLY
    ]


def gcd_violations(source: str, module: str) -> list[str]:
    """Every ``gcd`` outside ``_primitive`` and ``_pair`` of ``exactgeom``."""
    return [
        _line(module, source, node)
        for owner, node in _named(source, {"gcd"})
        if (module, owner) not in GCD_HOMES
    ]


def _sources():
    for path in sorted(SRC.glob("*.py")):
        yield path.read_text(encoding="utf-8"), path.stem


def test_hypersurface_draws_go_through_randints():
    assert [line for source, module in _sources() for line in draw_violations(source, module)] == []


def test_hypersurface_checks_ask_only_batches():
    assert [line for source, module in _sources() for line in per_point_violations(source, module)] == []


def test_gcd_only_in_the_canonical_routines():
    assert [line for source, module in _sources() for line in gcd_violations(source, module)] == []


def test_both_rules_read_the_package():
    # an empty glob would pass every rule
    modules = {module for _, module in _sources()}
    assert {"exactgeom", "modhyp", "verify", "randconf"} <= modules


PLANTED_DRAWS = '''\
from random import randrange


def check_git_oracle(rng):
    return rng.randint(4, 9)


def check_segre_nodes(rng):
    draw = rng.getrandbits
    return draw(5) + rng.randint(0, 9)
'''


def test_names_the_line_of_a_direct_draw():
    assert draw_violations(PLANTED_DRAWS, "verify") == [
        "verify:9: draw = rng.getrandbits",
        "verify:10: return draw(5) + rng.randint(0, 9)",
    ]
    # in modhyp every draw counts, the import included
    assert draw_violations(PLANTED_DRAWS, "modhyp") == [
        "modhyp:1: from random import randrange",
        "modhyp:5: return rng.randint(4, 9)",
        "modhyp:9: draw = rng.getrandbits",
        "modhyp:10: return draw(5) + rng.randint(0, 9)",
    ]
    assert draw_violations(PLANTED_DRAWS, "randconf") == []


PLANTED_PER_POINT = '''\
from .modhyp import restricted_hessian_rank


def check_segre_nodes(model, nodes):
    ranks = [restricted_hessian_rank(model, n) for n in nodes]
    return ranks, model.evaluate(nodes[0])


def check_combinatorics(model, point):
    return model.hessian(point)


def _segre_samples(model, points):
    value = model.evaluate
    return [value(x) for x in points], model._gradient(*model._powers(points))
'''


def test_names_the_line_of_a_per_point_entry():
    assert per_point_violations(PLANTED_PER_POINT, "verify") == [
        "verify:5: ranks = [restricted_hessian_rank(model, n) for n in nodes]",
        "verify:6: return ranks, model.evaluate(nodes[0])",
    ]
    # the batched kernel (_powers, _gradient) is what a check may ask
    assert per_point_violations(PLANTED_PER_POINT, "modhyp") == [
        "modhyp:14: value = model.evaluate",
    ]
    # a module-level import belongs to no check, and randconf holds none
    assert per_point_violations(PLANTED_PER_POINT, "randconf") == []


PLANTED_GCD = '''\
import math
from math import gcd


def _primitive(ints):
    return math.gcd(*ints)


def _batch(cols):
    return [gcd(*col) for col in cols]
'''


def test_names_the_line_of_a_second_gcd():
    assert gcd_violations(PLANTED_GCD, "exactgeom") == [
        "exactgeom:2: from math import gcd",
        "exactgeom:10: return [gcd(*col) for col in cols]",
    ]
    assert gcd_violations(PLANTED_GCD, "modhyp") == [
        "modhyp:2: from math import gcd",
        "modhyp:6: return math.gcd(*ints)",
        "modhyp:10: return [gcd(*col) for col in cols]",
    ]
