"""Smoke test of the benchmark at its smallest size.

    python3 perfbench/smoke.py        (or: python3 -m pytest perfbench/smoke.py)

For every workload in BENCHMARK.json it runs one untraced and one traced
`--tiny` run and checks that the result line names every end-to-end or
per-layer metric with its unit, that the outputs passed their checks, and
that the traced self times cover at least 95% of the traced wall time.  It
also checks that the benchmark fails, without a result, when the program's
sources are missing.  It takes about a minute on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MIN_COVERAGE = 0.95


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [
        *SPEC["command"], "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--tiny",
    ]  # fmt: skip
    argv[0] = sys.executable
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(workload: str) -> None:
    for trace, spec_key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert list(result) == ["correct", "attempted", "failed", "metrics"], result
        assert result["correct"] is True, proc.stderr
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected, (workload, trace, set(got) ^ set(expected))
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float)), m
        if trace:
            env = json.loads(lines[-2].removeprefix("env: "))
            coverage = env["trace_pass"]["coverage"]
            assert coverage >= MIN_COVERAGE, (workload, coverage)


def test_workloads() -> None:
    for workload in SPEC["workloads"]:
        check_workload(workload["name"])


def test_fails_without_sources() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(
                ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__")
            )
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0
        assert not proc.stdout.strip(), proc.stdout


if __name__ == "__main__":
    test_fails_without_sources()
    for w in SPEC["workloads"]:
        check_workload(w["name"])
        print(f"ok {w['name']}")
    print("smoke: ok")
