"""Command-line front end with a stable JSON contract.

Exit codes: 0 on success, 1 when a checking command reaches a negative
mathematical verdict (an equivalence mismatch, a failed verification),
2 on usage, schema, or input errors. Rationals are always serialized as
strings "p/q" (integers as "p"); output bytes are deterministic for a
fixed input and seed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Sequence

from .cohsys import (
    SystemType,
    _alpha_verdicts,
    _check_size,
    critical_values,
    destabilizing_example_config,
    equivalence_check,
    subsystem_types_from_config,
)
from .errors import FrameDegenerateError, SchemaError, UsageError
from .exactgeom import (
    _INT_RE,
    PointConfiguration,
    _positive,
    _shown,
    format_scalar,
    parse_scalar,
)
from .gale import gale_transform
from .gitstab import classify
from .modhyp import duality_check, incidence_15_3
from .verify import check_igusa, check_segre_nodes, run_all

__all__ = ["main"]


def _dumps(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for a payload's values.

    A payload holds dicts with str keys, lists, tuples, strings, ints,
    bools and None. The stdlib indents only through its pure-Python
    encoder, so this writer nests the containers itself and quotes strings
    with the C function the stdlib uses for ``ensure_ascii``. A list of
    strings is written in one join, a list of nonempty lists of strings
    none of which needs an escape in one join per row, any other list item
    by item.
    ``pad`` is the newline and indent of the enclosing level.
    """
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, (dict, list, tuple)):
        if not value:
            return "{}" if isinstance(value, dict) else "[]"
        inner = pad + "  "
        sep = "," + inner
        if isinstance(value, dict):
            body = sep.join([_quote(k) + ": " + _dumps(v, inner) for k, v in value.items()])
            return "{" + inner + body + pad + "}"
        body = None
        if type(value[0]) is list and set(map(type, value)) == {list} and all(value):
            # nonempty rows of strings none of which needs an escape, such as
            # a coordinate matrix, one quoted join per row
            try:
                text = "".join(map("".join, value))  # TypeError on a non-string
            except TypeError:
                text = None
            if text is not None and len(_quote(text)) == len(text) + 2:
                row_pad = inner + "  "
                start, end = "[" + row_pad + '"', '"' + inner + "]"
                rows = map(('",' + row_pad + '"').join, value)
                body = start + (end + sep + start).join(rows) + end
        elif type(value[0]) is str:
            try:
                # a list of strings, such as a row of coordinates, in one pass
                body = sep.join(map(_quote, value))
            except TypeError:  # an item that is not a string
                pass
        if body is None:
            body = sep.join([_dumps(v, inner) for v in value])
        return "[" + inner + body + pad + "]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    return int.__repr__(value)


def _emit(payload: dict) -> None:
    print(_dumps(payload))


def _fail(exc: BaseException) -> int:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(_dumps(payload), file=sys.stderr)
    return 2


def _int_arg(text: str) -> int:
    """An integer option: ASCII digits after an optional sign, as ``parse_scalar`` reads them."""
    stripped = text.strip()
    if not _INT_RE.fullmatch(stripped):
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}")
    return int(stripped)


def _load_config(path: str) -> PointConfiguration:
    """The configuration in a JSON file, or on stdin for ``-``.

    A file is read as bytes once and decoded as strict UTF-8, with text
    mode's newline rule (``\r\n``, then ``\r``, become ``\n``), so the
    value and every error, a BOM's and a decode error's included, are those
    of ``json.load`` on the file opened as UTF-8 text.
    """
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path, "rb") as fh:
                text = fh.read().decode("utf-8")
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            data = json.loads(text)
    except RecursionError:
        # the decoder recurses once per nesting level
        raise SchemaError("configuration JSON is nested too deeply") from None
    return PointConfiguration.from_json_dict(data)


def _cmd_git_classify(args: argparse.Namespace) -> int:
    config = _load_config(args.input)
    verdict = classify(config, args.g)
    _emit(
        {
            "class": verdict.classification.value,
            "witness": verdict.witness.to_json() if verdict.witness else None,
            "margin": None if verdict.margin is None else format_scalar(verdict.margin),
        }
    )
    return 0


def _cmd_critical_values(args: argparse.Namespace) -> int:
    walls = critical_values(
        SystemType(args.r, args.d, args.k),
        degree_bound=args.degree_bound,
        section_bound=args.section_bound,
    )
    _emit({"values": [format_scalar(v) for v in walls]})
    return 0


def _cmd_alpha_check(args: argparse.Namespace) -> int:
    config = _load_config(args.input)
    g = parse_scalar(args.g)
    alpha = parse_scalar(args.alpha)
    weight = _check_size(config, g)
    _positive(alpha, "alpha")
    types = subsystem_types_from_config(config)
    semistable, stable = _alpha_verdicts(types, weight, alpha)
    _emit(
        {
            "g": format_scalar(g),
            "alpha": format_scalar(alpha),
            "semistable": semistable,
            "stable": stable,
            "subsystem_types": [{"r": t.r, "d": t.d, "k": t.k} for t in types],
        }
    )
    return 0


def _cmd_equivalence(args: argparse.Namespace) -> int:
    config = _load_config(args.input)
    report = equivalence_check(config, args.g)
    payload = report.to_json()
    payload["witness"] = report.git.witness.to_json() if report.git.witness else None
    _emit(payload)
    return 0 if report.agree else 1


def _cmd_destable_example(args: argparse.Namespace) -> int:
    lambdas = None
    if args.lambdas is not None:
        lambdas = [parse_scalar(part) for part in args.lambdas.split(",")]
    config = destabilizing_example_config(args.genus, lambdas)
    _emit(config.to_json_dict())
    return 0


def _cmd_gale(args: argparse.Namespace) -> int:
    config = _load_config(args.input)
    data = gale_transform(config)
    payload = data.to_json()
    try:
        payload["self_associated"] = data.self_associated()
    except FrameDegenerateError:
        # transform exists but the frame comparison is undefined
        payload["self_associated"] = None
    _emit(payload)
    return 0


def _cmd_hypersurface_verify(args: argparse.Namespace) -> int:
    if args.target == "igusa":
        # the igusa check draws nothing, so a sample count or seed would change nothing
        for flag, value in (("--samples", args.samples), ("--seed", args.seed)):
            if value is not None:
                raise UsageError(f"argument {flag}: not allowed with target igusa")
        result = check_igusa()
        _emit(result.to_json())
        return 0 if result.passed else 1
    seed = 0 if args.seed is None else args.seed
    if args.target == "segre":
        search = 10_000 if args.samples is None else args.samples
        result = check_segre_nodes(search, seed)
        _emit(result.to_json())
        return 0 if result.passed else 1
    samples = 200 if args.samples is None else args.samples
    report = duality_check(samples, seed)
    _emit(report.to_json())
    return 0 if report.passed else 1


def _cmd_incidence(args: argparse.Namespace) -> int:
    structure = incidence_15_3()
    points = [list(p) for p in structure.points]
    lines = [[list(pair) for pair in m] for m in structure.lines]
    flags = sorted(
        (structure.points.index(p), structure.lines.index(l))
        for p, l in structure.flags
    )
    _emit(
        {
            "points": points,
            "lines": lines,
            "flags": [list(f) for f in flags],
            "point_degree": 3,
            "line_degree": 3,
        }
    )
    return 0


def _cmd_verify_all(args: argparse.Namespace) -> int:
    report = run_all(samples=args.samples, seed=args.seed)
    _emit(report.to_json())
    return 0 if report.passed else 1


class _Parser(argparse.ArgumentParser):
    """An argparse parser, subcommands included, whose errors raise UsageError.

    No ``stab`` option looks like a number, so an argument that starts with
    a minus and a digit (or a minus, a point and a digit) is a value, as in
    ``--lambdas -1,2,3`` or ``--g -3/2``: argparse by itself takes only
    ``-3`` or ``-1.5`` for a value and anything else for an option.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"-\.?[0-9]")

    def error(self, message: str):
        raise UsageError(message)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``stab`` parser, and the map from each command name to its subparser."""
    parser = _Parser(
        prog="stab",
        description="Exact stability, Gale, and hypersurface computations "
        "for point configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("git-classify", help="span-criterion stability class")
    p.add_argument("--g", required=True, help="positive rational weight, e.g. 2 or 5/2")
    p.add_argument("--input", required=True, help="configuration JSON file, or - for stdin")
    p.set_defaults(func=_cmd_git_classify)

    p = sub.add_parser("critical-values", help="walls for a system type")
    p.add_argument("-r", type=_int_arg, required=True, help="rank")
    p.add_argument("-d", type=_int_arg, required=True, help="degree")
    p.add_argument("-k", type=_int_arg, required=True, help="section count")
    p.add_argument("--degree-bound", type=_int_arg, default=None, help="override d' upper bound")
    p.add_argument("--section-bound", type=_int_arg, default=None, help="override k' upper bound")
    p.set_defaults(func=_cmd_critical_values)

    p = sub.add_parser("alpha-check", help="alpha-(semi)stability of a configuration")
    p.add_argument("--g", required=True, help="positive integer weight")
    p.add_argument("--alpha", required=True, help="positive rational parameter")
    p.add_argument("--input", required=True, help="configuration JSON file, or - for stdin")
    p.set_defaults(func=_cmd_alpha_check)

    p = sub.add_parser(
        "equivalence",
        help="compare the span criterion with the alpha test past the threshold",
    )
    p.add_argument("--g", required=True, help="positive integer weight")
    p.add_argument("--input", required=True, help="configuration JSON file, or - for stdin")
    p.set_defaults(func=_cmd_equivalence)

    p = sub.add_parser("destable-example", help="emit the stable line configuration")
    p.add_argument("--genus", type=_int_arg, required=True, help="weight g >= 2")
    p.add_argument(
        "--lambdas",
        default=None,
        help="comma-separated nonzero distinct rationals, g+1 of them",
    )
    p.set_defaults(func=_cmd_destable_example)

    p = sub.add_parser("gale", help="Gale transform and self-association test")
    p.add_argument("--input", required=True, help="configuration JSON file, or - for stdin")
    p.set_defaults(func=_cmd_gale)

    p = sub.add_parser("hypersurface", help="cubic/quartic verification commands")
    hsub = p.add_subparsers(dest="hypersurface_command", required=True)
    pv = hsub.add_parser("verify", help="verify singular loci or polar duality")
    pv.add_argument("target", choices=("segre", "igusa", "duality"))
    pv.add_argument(
        "--samples",
        type=_int_arg,
        default=None,
        help="search points for segre (default 10000), sample count for duality "
        "(default 200); not allowed with igusa",
    )
    pv.add_argument(
        "--seed", type=_int_arg, default=None, help="default 0; not allowed with igusa"
    )
    pv.set_defaults(func=_cmd_hypersurface_verify)

    p = sub.add_parser("incidence", help="the 15_3 point-line structure")
    p.set_defaults(func=_cmd_incidence)

    p = sub.add_parser("verify-all", help="run the full verification suite")
    p.add_argument("--samples", type=_int_arg, default=200, help="0 skips the randomized checks")
    p.add_argument("--seed", type=_int_arg, default=0)
    p.set_defaults(func=_cmd_verify_all)

    return parser, sub.choices


_PARSER, _COMMANDS = _build_parser()


def _parse(argv: list) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``, with one parse per command level.

    The top-level parser hands all of argv after a command name to that
    command's subparser, so such an argv is parsed by the subparser alone:
    the namespace lacks only the unread ``command``, and every error and
    help text is the same. Any other argv goes to the top-level parser.
    """
    if argv and type(argv[0]) is str and argv[0] in _COMMANDS:
        return _COMMANDS[argv[0]].parse_args(argv[1:])
    return _PARSER.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # StabgeomError and json.JSONDecodeError are both ValueErrors; an
        # exhausted resource is an input the program cannot serve, not a verdict
        return _fail(exc)
