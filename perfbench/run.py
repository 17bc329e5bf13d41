"""Seeded end-to-end benchmark for stabgeom.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classify --seed 0 --seconds 35 --trace 0

Workloads (see perfbench/README.md): ``classify`` and ``geometry``.
Each is a single-process closed loop: one client sends the next command
to ``stabgeom.cli.main`` (in-process, stdout captured) only after the
previous one returns. The program is imported from ``src/`` of the
checkout; nothing is installed.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run, whose spans are written to ``.bench_build/perfbench/``.
A warm-up pass over the tiny-size inputs of the same workload runs before
the timed loop, so lazy imports are not timed. Every timing is scaled to
a host of fixed speed by the reference unit in ``host.py``; the raw
wall-clock values are printed beside them. Every output is checked after
the timed loop, outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from math import ceil
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check  # noqa: E402
from host import NOMINAL_UNIT_S, reference_unit, scale  # noqa: E402
from inputs import GENERATORS, properties  # noqa: E402

SRC = os.path.abspath("src")
WORK_DIR = os.path.join(".bench_build", "perfbench")
SETUP_REPEATS = 5
MAX_FAILURES_SHOWN = 10
DEFAULT_SEED = 0
DIGESTS = os.path.join(HERE, "digests.json")
IMPORT_PROBE = "import time\nt = time.perf_counter()\nimport stabgeom.cli\nprint(time.perf_counter() - t)"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measure whole cycles until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: the smoke test's sizes")
    p.add_argument("--cycles", type=int, default=None, help="run exactly this many cycles (the traced run's untraced twin)")
    return p.parse_args(argv)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def child_import_seconds() -> float:
    """Time to import stabgeom in a fresh interpreter, measured inside it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout)


def set_up(args, directory: str, repeats: int):
    """Import stabgeom, then generate and write the inputs, `repeats` times.

    The inputs are the timed cycles plus one tiny-size warm-up cycle, drawn
    from another stream so that no warm-up configuration recurs in the timed
    loop. Returns the inputs and the median set-up time, raw and scaled to
    the nominal host.
    """
    raw, scaled = [], []
    warm_dir = os.path.join(directory, "warm-up")
    for _ in range(repeats):
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(warm_dir)
        before = reference_unit()
        import_s = child_import_seconds()
        between = reference_unit()
        start = perf_counter()
        cycles = GENERATORS[args.workload](args.seed, directory, args.scale == "tiny")
        warm_up = GENERATORS[args.workload](f"{args.seed}-warm-up", warm_dir, True)[0]
        generate_s = perf_counter() - start
        raw.append(import_s + generate_s)
        scaled.append(import_s * scale(before, between) + generate_s * scale(between, reference_unit()))
    return cycles, warm_up, statistics.median(raw), statistics.median(scaled)


def run_op(main, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an operation that raises is a failed operation; the run goes on
        code = f"raised {type(exc).__name__}: {exc}"
    return perf_counter() - start, code, out.getvalue()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_loop(cli, cycles, seconds: float, exact_cycles, tracer):
    """Whole cycles, closed loop, until `seconds` have passed (or exactly `exact_cycles`).

    A reference unit runs before each cycle and after each operation; each
    operation's scale factor comes from the units on either side of it.
    Peak RSS is read after the first cycle: the exactgeom cache grows with
    every configuration, so a reading after a time-bounded number of cycles
    would rise whenever the program got faster.
    """
    results = []
    factors = []
    units = []
    cycle_walls = []
    rss = None
    start = perf_counter()
    for ops in cycles:
        if exact_cycles is not None and len(cycle_walls) == exact_cycles:
            break
        if exact_cycles is None and cycle_walls and perf_counter() - start >= seconds:
            break
        cycle_start = perf_counter()
        before = reference_unit()
        units.append(before)
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(results)
            results.append((op, *run_op(cli.main, op.argv)))
            after = reference_unit()
            units.append(after)
            factors.append(scale(before, after))
            before = after
        cycle_walls.append(perf_counter() - cycle_start)
        rss = peak_rss_mb() if rss is None else rss
    return results, factors, units, perf_counter() - start, cycle_walls, rss


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[ceil(0.9 * len(ordered)) - 1]


def timings(latencies: list[float]) -> tuple[float, float, float]:
    """Operations per second of busy time, median and p90 latency (ms), over the whole run."""
    return len(latencies) / sum(latencies), statistics.median(latencies) * 1000, p90(latencies) * 1000


def verify_outputs(args, results, first_cycle_ops: int) -> tuple[list[str | None], str]:
    """Per-operation failure reasons and the first cycle's stdout digest."""
    reasons = [check(op, code, out) for op, _, code, out in results]
    digest = hashlib.sha256("".join(out for _, _, _, out in results[:first_cycle_ops]).encode()).hexdigest()
    if args.seed == DEFAULT_SEED and args.scale == "full":
        with open(DIGESTS, encoding="utf-8") as fh:
            expected = json.load(fh).get(args.workload)
        if digest != expected:
            reasons[:first_cycle_ops] = [r or f"first-cycle stdout digest {digest} != {expected}"
                                         for r in reasons[:first_cycle_ops]]
    return reasons, digest


def untraced_busy(args, cycles_done: int) -> float:
    """Scaled busy time of the same cycles in a fresh untraced interpreter."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--trace", "0", "--scale", args.scale, "--cycles", str(cycles_done)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True)
    line = next(l for l in done.stdout.splitlines() if l.startswith("# scaled_busy_s "))
    return float(line.split()[2])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stabgeom", "cli.py")):
        print(f"perfbench: no stabgeom sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import stabgeom.cli as cli

    directory = os.path.join(WORK_DIR, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    repeats = 1 if args.trace or args.cycles is not None else SETUP_REPEATS
    tracer = None
    try:
        cycles, warm_up, raw_setup_s, setup_s = set_up(args, directory, repeats)
        warm_results = [(op, *run_op(cli.main, op.argv)) for op in warm_up]
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            tracer.active = True
        results, factors, units, wall, cycle_walls, rss = timed_loop(cli, cycles, args.seconds, args.cycles, tracer)
        done = len(cycle_walls)
        if tracer is not None:
            tracer.active = False
        reasons, digest = verify_outputs(args, results, len(cycles[0]))
        warm_failures = [(op, reason) for op, _, code, out in warm_results
                         if (reason := check(op, code, out)) is not None]
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    latencies = [latency for _, latency, _, _ in results]
    scaled = [latency * factor for latency, factor in zip(latencies, factors)]
    raw_rate, raw_p50, raw_p90 = timings(latencies)
    ops_per_s, latency_p50, latency_p90 = timings(scaled)
    per_cycle = len(cycles[0])
    cycle_rates = [per_cycle / sum(scaled[i:i + per_cycle]) for i in range(0, len(scaled), per_cycle)]
    failed = sum(r is not None for r in reasons) + len(warm_failures)
    attempted = len(results) + len(warm_results)
    print(f"# stabgeom benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale}")
    print(f"# environment: {json.dumps(environment())}")
    print(f"# inputs: {json.dumps(properties(args.workload, cycles))}")
    print(f"# closed loop, 1 client: {len(results)} ops in {done} cycles; latency samples {len(results)}, "
          f"above the reported p90 {sum(x * 1000 > latency_p90 for x in scaled)}")
    print(f"# host: reference unit median {statistics.median(units) * 1000:.4f} ms, range "
          f"{min(units) * 1000:.4f} to {max(units) * 1000:.4f} ms; timings are scaled to {NOMINAL_UNIT_S * 1000:g} ms")
    print(f"# raw wall clock: setup_s {raw_setup_s!r} ops_per_s {raw_rate!r} latency_p50_ms {raw_p50!r} "
          f"latency_p90_ms {raw_p90!r}")
    print(f"# timed_wall_s {wall!r}")
    print(f"# scaled_busy_s {sum(scaled)!r}")
    print(f"# cycle_walls_s {' '.join(f'{w:.3f}' for w in cycle_walls)}")
    print(f"# ops_per_s of each cycle, scaled: {' '.join(f'{x:.4f}' for x in cycle_rates)}")
    print(f"# failed_ops_ratio {failed / attempted!r} ratio ({failed}/{attempted}, {len(warm_results)} of them warm-up)")
    failures = warm_failures + [(op, reason) for (op, _, _, _), reason in zip(results, reasons) if reason is not None]
    for op, reason in failures[:MAX_FAILURES_SHOWN]:
        print(f"# FAILED {' '.join(op.argv)}: {reason}")
    if len(failures) > MAX_FAILURES_SHOWN:
        print(f"# ... and {len(failures) - MAX_FAILURES_SHOWN} more failed operations")
    print(f"# first-cycle stdout sha256 {digest}"
          + (" (checked)" if args.seed == DEFAULT_SEED and args.scale == "full" else " (not checked at this seed)"))

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "latency_p50_ms": (latency_p50, "ms"),
            "latency_p90_ms": (latency_p90, "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
    else:
        metrics = tracer.metrics(len(results))
        baseline = untraced_busy(args, done)
        metrics["trace.overhead_s"] = (sum(scaled) - baseline, "s")
        os.makedirs(WORK_DIR, exist_ok=True)
        spans = os.path.join(WORK_DIR, f"trace-{args.workload}-s{args.seed}.spans")
        tracer.write(spans)
        print(f"# scaled busy time traced {sum(scaled):.3f} s, untraced {baseline:.3f} s over the same {done} cycles; "
              f"{len(tracer.start)} spans written to {spans}")
        print("# work counters (subsets_visited, flats_found, flats_per_subset, repeat_calls, "
              "model_builds_per_op) are computed by the benchmark from outside the program")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
