"""Every line of src/stabgeom runs under Tier-1, and every Tier-1 test passes.

Run from the repository root as ``PYTHONPATH=src python tests/liveness.py``.
The script installs a line tracer before anything imports ``stabgeom``, runs
the Tier-1 suite in this process, then compiles each ``src/stabgeom/*.py``
and prints ``module:line: text`` for every line of its code objects that
never ran, unless the line carries a ``# never run: <reason>`` tag. A module
that left no trace at all is named too. The exit status is 1 on a failing
test or on any finding, else 0.

The tracer follows only code objects whose file lies under src/stabgeom, and
drops a code object once each line ``co_lines()`` lists for it has run, so
the loops that do the mathematics run untraced after their first pass.
"""

import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stabgeom"
TAG = "# never run:"


def code_lines(code: types.CodeType) -> set[int]:
    """The source lines of a code object and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def report(source: str, module: str, ran: set[int]) -> list[str]:
    """``module:line: text`` for each untagged line of ``source`` not in ``ran``."""
    if not ran:
        return [f"{module}: left no trace"]
    text = source.splitlines()
    return [
        f"{module}:{line}: {text[line - 1].strip()}"
        for line in sorted(code_lines(compile(source, module, "exec")) - ran)
        if TAG not in text[line - 1]
    ]


def run_tier1() -> tuple[int, dict[str, set[int]]]:
    """Run Tier-1 under the tracer: pytest's exit code and the lines run per real path."""
    prefix = str(SRC) + os.sep
    ran = {}  # real path -> lines run
    files = {}  # co_filename -> its set in ran, or None outside src/stabgeom
    local = {}  # code object -> its line tracer, or None once each of its lines ran

    def tracer_for(code, seen):
        left = {line for _, _, line in code.co_lines() if line}

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
                left.discard(frame.f_lineno)
                if not left:
                    local[code] = None
                    frame.f_trace_lines = False
            return on_line

        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        try:
            seen = files[code.co_filename]
        except KeyError:
            real = os.path.realpath(code.co_filename)
            seen = files[code.co_filename] = ran.setdefault(real, set()) if real.startswith(prefix) else None
        if seen is None:
            return None
        try:
            tracer = local[code]
        except KeyError:
            tracer = local[code] = tracer_for(code, seen)
        # the line a frame starts on (a def line, or a generator's yield) gets no line event
        return tracer and tracer(frame, "line", arg)

    sys.settrace(on_call)
    status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")])
    replaced = sys.gettrace() is not on_call
    sys.settrace(None)
    if replaced:
        print("liveness: a test replaced the tracer, so the lines run are unknown")
        return 1, ran
    return status, ran


def main() -> int:
    status, ran = run_tier1()
    findings = []
    modules = sorted(SRC.glob("*.py"))
    for path in modules:
        findings += report(path.read_text(encoding="utf-8"), path.name, ran.get(str(path), set()))
    for finding in findings:
        print(finding)
    print(f"liveness: {len(findings)} never-run lines or untraced modules in {len(modules)} modules")
    return 1 if status or findings else 0


if __name__ == "__main__":
    sys.exit(main())
