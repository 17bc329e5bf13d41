"""Output checks, run after the timed loop.

Each check takes one operation and what it printed and returns None when
the output is right, or a one-line reason. The expected values are
re-derived here (oracle verdicts, the Gale product, the 15_3 incidence)
rather than read back from the program's own reports.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

from inputs import Op, canonical

ORACLE_MAX_POINTS = 12


def _oracle_mismatch(op: Op, cls: str, witness) -> str | None:
    """Compare a span-criterion verdict with the exhaustive oracle (n <= 12)."""
    if len(op.meta["points"]) > ORACLE_MAX_POINTS:
        return None
    from stabgeom.exactgeom import PointConfiguration
    from stabgeom.gitstab import oracle_classify

    config = PointConfiguration.from_rows(op.meta["points"])
    oracle = oracle_classify(config, Fraction(op.meta["g"]))
    expected = oracle.witness.to_json() if oracle.witness else None
    if cls != oracle.classification.value or witness != expected:
        return f"oracle says {oracle.classification.value} {expected}, got {cls} {witness}"
    return None


def check_git_classify(op: Op, payload: dict) -> str | None:
    witness = payload["witness"]
    if witness is not None and witness["size"] != len(witness["indices"]):
        return f"witness size {witness['size']} != {len(witness['indices'])} indices"
    if witness is not None:
        margin = witness["size"] - Fraction(op.meta["g"]) * witness["span_dim"]
        if Fraction(payload["margin"]) != margin:
            return f"margin {payload['margin']} != size - g*span_dim = {margin}"
    return _oracle_mismatch(op, payload["class"], witness)


def check_equivalence(op: Op, payload: dict) -> str | None:
    if payload["agree"] is not True:
        return "span criterion and alpha test disagree"
    return _oracle_mismatch(op, payload["git_class"], payload["witness"])


def check_gale(op: Op, payload: dict) -> str | None:
    r, points = op.meta["r"], op.meta["points"]
    source = [[Fraction(x) for x in row] for row in payload["source"]["points"]]
    target = [[Fraction(x) for x in row] for row in payload["target"]["points"]]
    diag = [Fraction(x) for x in payload["diag"]]
    if [canonical(row) for row in source] != [canonical(p) for p in points]:
        return "source points differ from the input"
    s = payload["target"]["ambient_rank"]
    if s != len(points) - r or len(target) != len(points) or any(len(row) != s for row in target):
        return f"target shape {len(target)}x{s} for {len(points)} points in rank {r}"
    if any(d == 0 for d in diag):
        return "zero diagonal entry"
    for a in range(r):
        for b in range(s):
            if sum(g[a] * d * t[b] for g, d, t in zip(source, diag, target)) != 0:
                return f"G^T D G' is nonzero at ({a}, {b})"
    if payload["self_associated"] is not op.meta["conic"]:
        return f"self_associated {payload['self_associated']}, expected {op.meta['conic']}"
    return None


def check_passed(op: Op, payload: dict) -> str | None:
    if payload.get("passed") is not True:
        return f"report not passed: {payload.get('detail', payload)}"
    if op.kind == "duality":
        n = op.meta["samples"]
        if payload["samples"] != n or payload["forward_ok"] != n or payload["counterexamples"]:
            return f"duality counts {payload['samples']}/{payload['forward_ok']} for {n} samples"
    return None


def check_incidence(op: Op, payload: dict) -> str | None:
    pairs = [list(p) for p in combinations(range(6), 2)]
    if payload["points"] != pairs:
        return "points are not the 15 pairs of {0..5} in order"
    lines = [sorted(tuple(p) for p in line) for line in payload["lines"]]
    matchings = {tuple(sorted(m)) for m in combinations(map(tuple, pairs), 3)
                 if sorted(i for pair in m for i in pair) == list(range(6))}
    if len(lines) != 15 or {tuple(line) for line in lines} != matchings:
        return "lines are not the 15 perfect matchings"
    flags = {(i, j) for i, p in enumerate(pairs) for j, line in enumerate(lines) if tuple(p) in line}
    if sorted(map(tuple, payload["flags"])) != sorted(flags) or len(flags) != 45:
        return "flags differ from pair-in-matching membership"
    return None


CHECKS = {
    "git-classify": check_git_classify,
    "equivalence": check_equivalence,
    "gale": check_gale,
    "segre": check_passed,
    "duality": check_passed,
    "igusa": check_passed,
    "incidence": check_incidence,
}


def check(op: Op, code, stdout: str) -> str | None:
    """Why the operation failed, or None. Exit code 0 is expected everywhere."""
    if code not in (0, 1):
        return f"exit code {code}"
    try:
        reason = CHECKS[op.kind](op, json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        reason = f"unreadable output: {type(exc).__name__}: {exc}"
    if code != 0:
        return f"exit code {code}: {reason}"
    return reason
