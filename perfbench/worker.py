"""One benchmark process: set up a workload, then time or trace its ops.

Started by run.py, never by hand.  It imports hconc from the checkout's
`src/`, writes the workload's inputs into --workdir, runs one warm-up op and
reports `ready`; a set-up probe stops there.  Otherwise it runs the timed
phase (or, with --trace 1, a traced and an untraced pass over the same ops),
checks every op's output, and reports the result with an environment
record.  Each report is one stdout line `@perfbench <kind> <json>`; the
ops' own output is captured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import workloads
from gauge import Gauge
from tracer import Tracer, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
# set by run.py before any process imports numpy; recorded with the result
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# inputs are written for at most this many cycles; longer runs reuse them
MAX_CYCLES = 64


def emit(kind: str, payload=None) -> None:
    sys.__stdout__.write(f"@perfbench {kind} {json.dumps(payload)}\n")
    sys.__stdout__.flush()


class Tally:
    """Ops, trials, report rows and output problems of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.trials = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.rows = 0
        self.rows_passed = 0
        self.cycles: list[tuple[float, float, int]] = []  # wall s, CPU s, trials
        self.problems: list[str] = []


def _check_report(op: workloads.Op, code: int, path: Path, tally: Tally) -> None:
    lines = path.read_text().splitlines()
    if len(lines) < 2 or not lines[0].startswith("# hconc ") or (
        lines[1] != "experiment,params,value,reference,passed"
    ):
        tally.problems.append(f"{op.report}: malformed header")
        return
    rows = [line.split(",") for line in lines[2:]]
    if len(rows) != op.rows or any(len(r) != 5 for r in rows):
        tally.problems.append(f"{op.report}: {len(rows)} rows, expected {op.rows}")
        return
    verdicts = [r[4] for r in rows]
    if any(v not in ("true", "false") for v in verdicts):
        tally.problems.append(f"{op.report}: verdict other than true/false")
        return
    passed = verdicts.count("true")
    tally.rows += len(rows)
    tally.rows_passed += passed
    if (code == 0) != (passed == len(rows)):
        tally.problems.append(f"{op.report}: exit {code} with {passed}/{len(rows)} passed")
    if op.pin is not None:
        value = float(rows[-1][2])
        if not math.isclose(value, op.pin, rel_tol=workloads.PIN_RTOL):
            tally.problems.append(f"{op.report}: min ratio {value!r}, pinned {op.pin!r}")


def _check(op: workloads.Op, code, output: str, workdir: Path, tally: Tally) -> None:
    if code not in (0, 1, 3):
        # generated inputs are well-formed, so a usage or domain error (exit 2)
        # or a crash is wrong output, not a failed check
        tally.problems.append(f"{' '.join(op.argv)}: exit {code}: {output.strip()[-200:]}")
    if op.report is not None:
        path = workdir / op.report
        if code in (0, 1):
            if path.exists():
                _check_report(op, code, path, tally)
            else:
                tally.problems.append(f"{op.report}: not written")
        path.unlink(missing_ok=True)
    elif code == 0:
        try:
            norm = float(output.split()[-1])
        except (IndexError, ValueError):
            norm = math.nan
        if not 0.0 <= norm <= 1.0:
            tally.problems.append(f"{' '.join(op.argv)}: printed {output.strip()!r}")


def run_op(call_cli, op: workloads.Op, workdir: Path, tally: Tally) -> None:
    """Call `call_cli(argv)` with output captured; time it, then check it."""
    captured = io.StringIO()
    cpu_start = process_time()
    start = perf_counter()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        try:
            code = call_cli(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the program crashed: count it and keep measuring
            code = None
            captured.write(traceback.format_exc())
    tally.wall_s += perf_counter() - start
    tally.cpu_s += process_time() - cpu_start
    tally.attempted += 1
    tally.trials += op.trials
    if code != 0:
        tally.failed += 1
    _check(op, code, captured.getvalue(), workdir, tally)


def run_pass(
    call_cli, cycles, workdir: Path, tally: Tally, seconds: float | None, gauge=None
) -> None:
    """Run whole cycles: all of them, or, given `seconds`, until that much
    wall time has passed (reusing the inputs from the start if needed).
    A gauge, if given, is sampled before the first cycle and after each."""
    start = perf_counter()
    k = 0
    if gauge is not None:
        gauge.sample()
    while True:
        wall, cpu, trials = tally.wall_s, tally.cpu_s, tally.trials
        for op in cycles[k % len(cycles)]:
            run_op(call_cli, op, workdir, tally)
        tally.cycles.append((tally.wall_s - wall, tally.cpu_s - cpu, tally.trials - trials))
        if gauge is not None:
            gauge.sample()
        k += 1
        if seconds is None and k == len(cycles):
            return
        if seconds is not None and perf_counter() - start >= seconds:
            return


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_pin": {k: os.environ.get(k) for k in BLAS_PIN},
    }


def traced_pass(call_cli, cycles, workdir: Path):
    """Run every cycle once with the tracer installed.  Returns the pass's
    tally, the merged span statistics, the zero-table cache's (hits,
    misses) during the pass, and coverage information."""
    from hconc import bessel

    cache = getattr(bessel.cached_zero_table, "cache_info", None)
    before = cache() if cache else None
    tracer = Tracer()
    tally = Tally()
    tracer.install()
    try:
        run_pass(call_cli, cycles, workdir, tally, None)
    finally:
        tracer.uninstall()
    after = cache() if cache else None
    zero_cache = (
        (after.hits - before.hits, after.misses - before.misses) if cache else (0, 0)
    )
    stats = tracer.stats()
    self_s_total = sum(s.self_s for s in stats.values())
    info = {
        "traced_wall_s": tally.wall_s,
        "self_s_total": self_s_total,
        "coverage": self_s_total / tally.wall_s,
        "absent": tracer.absent,
        "uncounted": sorted(tracer.uncounted),
    }
    return tally, stats, zero_cache, info


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.CYCLE_S), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    cycle_s = workloads.CYCLE_S[args.workload]

    if not (ROOT / "src" / "hconc" / "__init__.py").is_file():
        print(f"no hconc sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    from hconc import cli

    def call_cli(argv):
        # looked up on every call, so that the tracer's wrapper is seen
        return cli.main(argv)

    if args.tiny:
        n_cycles = 1
    elif args.trace:
        n_cycles = max(1, round(args.seconds / 2 / cycle_s))
    else:
        n_cycles = min(MAX_CYCLES, math.ceil(2 * args.seconds / cycle_s) + 1)
    warmup, cycles = workloads.build(
        args.workload, args.seed, args.workdir, ROOT / "configs", n_cycles, args.tiny
    )
    os.chdir(args.workdir)
    setup = Tally()
    run_op(call_cli, warmup, args.workdir, setup)
    emit("ready")
    if args.probe:
        return 0

    if args.trace:
        # traced pass first, so it sees the state the timed phase of a
        # --trace 0 run sees; the untraced pass repeats the same ops
        tally, stats, zero_cache, trace = traced_pass(call_cli, cycles, args.workdir)
        untraced = Tally()
        run_pass(call_cli, cycles, args.workdir, untraced, None)
        trace["untraced_wall_s"] = untraced.wall_s
        info = {"trace_pass": trace}
        metrics = per_layer_metrics(stats, zero_cache, tally.wall_s / untraced.wall_s)
        problems = setup.problems + tally.problems + untraced.problems
    else:
        info = {}
        tally = Tally()
        gauge = Gauge(dict(os.environ))
        try:
            run_pass(call_cli, cycles, args.workdir, tally, args.seconds, gauge)
        finally:
            gauge.close()
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # each cycle in reference seconds; medians over cycles shed the
        # cycles that a burst of load on the machine caught
        scaled = [
            (wall * ref, cpu * ref, trials)
            for (wall, cpu, trials), ref in zip(tally.cycles, gauge.scales())
        ]
        info["trials_per_s_plain"] = tally.trials / tally.wall_s
        info["cpu_s_per_trial_plain"] = tally.cpu_s / tally.trials
        info["gauge_s"] = gauge.samples
        metrics = {
            "trials_per_s": {
                "value": statistics.median(t / wall for wall, _, t in scaled),
                "unit": "1/s",
            },
            "cpu_s_per_trial": {
                "value": statistics.median(cpu / t for _, cpu, t in scaled),
                "unit": "s",
            },
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
            "op_ok_frac": {
                "value": (tally.attempted - tally.failed) / tally.attempted,
                "unit": "ratio",
            },
            "row_pass_frac": {
                "value": tally.rows_passed / tally.rows if tally.rows else 0.0,
                "unit": "ratio",
            },
        }
        problems = setup.problems + tally.problems
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    emit(
        "result",
        {
            "correct": not problems,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
            "info": {
                **environment(args),
                "trials": tally.trials,
                "cycle_s": [wall for wall, _, _ in tally.cycles],
                **info,
            },
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
