"""hconc benchmark: seeded workloads driven through `hconc.cli.main`.

    python3 perfbench/run.py --workload goodbad --seed 1 --seconds 20 --trace 0

Prints an `env:` line (machine, library versions, BLAS pin, seed, trials)
and, as the last stdout line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end ones,
measured with tracing off; with --trace 1 they are the per-layer ones from
a traced pass (see perfbench/README.md).

This process imports no numpy.  Each measurement runs in a child process
(worker.py) with BLAS threads pinned to 1.  Set-up time is measured
from a child's start to the end of its warm-up op in SETUP_SAMPLES children
that stop there, and the median is reported; a further child measures the
rest.  Times are in reference seconds (see gauge.py).  All files live in a
scratch directory inside the checkout, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

from gauge import Gauge
from workloads import CYCLE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# every child is killed this long after the benchmark started, so that a
# hung program cannot hold a run past its time limit
DEADLINE_S = 170.0
START = perf_counter()


class ChildFailed(RuntimeError):
    pass


def run_child(argv: list[str], env: dict, stop_after_ready: bool):
    """Start a worker; return (seconds from start to `ready`, messages)."""
    start = perf_counter()
    ready_s = None
    messages = {}
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    killer = threading.Timer(max(0.0, DEADLINE_S - (perf_counter() - START)), proc.kill)
    killer.start()
    try:
        for line in proc.stdout:
            if not line.startswith("@perfbench "):
                sys.stderr.write(line)
                continue
            _, kind, payload = line.rstrip("\n").split(" ", 2)
            messages[kind] = json.loads(payload)
            if kind == "ready":
                ready_s = perf_counter() - start
                if stop_after_ready:
                    break
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready_s is None:
        raise ChildFailed(f"worker exited with code {code}")
    return ready_s, messages


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(CYCLE_S), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--tiny", action="store_true", help="smallest ops, one cycle (smoke test)"
    )
    args = parser.parse_args()
    # on SIGTERM, unwind: children are killed and the scratch directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "hconc" / "__init__.py").is_file():
        print(f"error: no hconc sources at {ROOT / 'src' / 'hconc'}", file=sys.stderr)
        return 1
    env = {**os.environ, **PIN}
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        common = [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]  # fmt: skip
        if args.tiny:
            common.append("--tiny")
        samples = []
        if not args.trace:
            gauge = Gauge(env)
            try:
                gauge.sample()
                for i in range(SETUP_SAMPLES):
                    probe_dir = workdir / f"probe{i}"
                    probe_dir.mkdir()
                    ready_s, _ = run_child(
                        [*common, "--workdir", str(probe_dir), "--probe"], env, True
                    )
                    samples.append(ready_s)
                    gauge.sample()
            finally:
                gauge.close()
        main_dir = workdir / "main"
        main_dir.mkdir()
        _, messages = run_child([*common, "--workdir", str(main_dir)], env, False)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = messages["result"]
    env_record = result.pop("info")
    metrics = result["metrics"]
    if not args.trace:
        env_record["setup_samples_s"] = samples
        env_record["setup_gauge_s"] = gauge.samples
        # one gauge scale for all set-up samples: a single slow gauge sample
        # must not skew the two set-up times next to it
        setup = statistics.median(samples) * gauge.scale()
        metrics = {"setup_s": {"value": setup, "unit": "s"}, **metrics}
    print("env: " + json.dumps(env_record))
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
