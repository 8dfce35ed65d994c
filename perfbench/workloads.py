"""Seeded workload inputs: config and interval-set files, and the CLI ops
that read them.

Every file is generated from the workload seed into the work directory, and
every op runs with that directory as its working directory, so the reports
the recipes write land there too.  A workload is a warm-up op plus a list of
cycles; the timed phase runs whole cycles, so the mix of ops inside a cycle
is the mix that is measured.
"""

from __future__ import annotations

import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

# Rows each recipe writes per trial (ls-verify writes three per config).
ROWS_PER_TRIAL = {"good-bad": 2, "plancherel": 2, "translation": 6, "ls-verify": 3}

# The shipped ls-verify configs with the empirical minimum ratios that
# acceptance criterion 07 pins (relative tolerance 1e-3).
SHIPPED_LS_PINS = {
    "ls-periodic-alpha0": 1.977825e-05,
    "ls-periodic-alpha05": 1.956247e-05,
    "ls-sparse-alpha0": 2.381961e-11,
}
PIN_RTOL = 1e-3

PLANCHEREL_ALPHAS = (-0.5, 0.0, 0.5, 1.0, 0.3)
PAIR_ALPHAS = (0.0, 0.5, 1.0, 0.3)
# Pair norms of S = [0, s], Sigma = [0, sigma]: each cycle takes s * sigma at
# the centres of this many log-spaced strata of [0.5, 8], and the seed splits
# each product between s and sigma.  Where s * sigma is large the top singular
# values cluster at 1 and power iteration stalls (ROADMAP item 3); fixed
# products make every cycle meet that regime at the same rate.
PAIR_STRATA = 12
PAIR_PRODUCT_RANGE = (0.5, 8.0)


@dataclass(frozen=True)
class Op:
    """One `hconc.cli.main(argv)` call and what its output must look like."""

    argv: tuple[str, ...]
    trials: int
    report: str | None = None  # CSV the op writes, relative to the work dir
    rows: int = 0  # rows the report must hold
    pin: float | None = None  # pinned last-row value, relative tolerance PIN_RTOL


# Seconds one cycle of each workload takes on a 2-core x86-64 machine at the
# commit that introduced the benchmark.  It sizes the input set and the
# traced run; it must not change, so that runs of any later commit measure
# the same inputs.
CYCLE_S = {"goodbad": 5.5, "transform": 2.0, "concentration": 1.7}


class _Writer:
    """Writes uniquely named input files into the work directory."""

    def __init__(self, workdir: Path, rng: random.Random):
        self.workdir = workdir
        self.rng = rng
        self.count = 0

    def _name(self, stem: str) -> str:
        self.count += 1
        return f"{stem}-{self.count:05d}"

    def run_op(self, recipe: str, trials: int, **keys) -> Op:
        name = self._name(recipe)
        seed = self.rng.getrandbits(32)
        lines = [f"name = {name}", f"recipe = {recipe}", f"seed = {seed}", f"trials = {trials}"]
        lines += [f"{key} = {value!r}" for key, value in keys.items()]
        (self.workdir / f"{name}.cfg").write_text("\n".join(lines) + "\n")
        return Op(
            argv=("run", "--config", f"{name}.cfg"),
            trials=trials,
            report=f"{name}.csv",
            rows=ROWS_PER_TRIAL[recipe] * trials,
        )

    def interval_file(self, lo: float, hi: float) -> str:
        name = self._name("set") + ".set"
        (self.workdir / name).write_text(f"{lo!r} {hi!r}\n")
        return name

    def pair_norm_op(self, stratum: int) -> Op:
        lo, hi = (math.log(p) for p in PAIR_PRODUCT_RANGE)
        product = math.exp(lo + (stratum + 0.5) / PAIR_STRATA * (hi - lo))
        skew = math.exp(self.rng.uniform(-0.5, 0.5))
        sup_s = math.sqrt(product) * skew
        sup_sigma = math.sqrt(product) / skew
        alpha = PAIR_ALPHAS[stratum % len(PAIR_ALPHAS)]
        argv = (
            "pair", "norm", "--alpha", repr(alpha),
            "--s", self.interval_file(0.0, sup_s),
            "--sigma", self.interval_file(0.0, sup_sigma),
            "--xmax", repr(sup_s),
        )  # fmt: skip
        return Op(argv=argv, trials=1)


def _copy_shipped_ls(configs: Path, workdir: Path) -> list[Op]:
    for path in configs.glob("*.set"):
        shutil.copyfile(path, workdir / path.name)
    ops = []
    for stem, pin in SHIPPED_LS_PINS.items():
        shutil.copyfile(configs / f"{stem}.cfg", workdir / f"{stem}.cfg")
        ops.append(
            Op(
                argv=("run", "--config", f"{stem}.cfg"),
                trials=1,
                report=f"{stem}.csv",
                rows=ROWS_PER_TRIAL["ls-verify"],
                pin=pin,
            )
        )
    return ops


def build(
    name: str, seed: int, workdir: Path, configs: Path, n_cycles: int, tiny: bool = False
) -> tuple[Op, list[list[Op]]]:
    """Write the inputs of `n_cycles` cycles of workload `name` and return
    (warm-up op, cycles).  `tiny` shrinks every op to its smallest trial
    count, for the smoke test."""
    w = _Writer(workdir, random.Random(f"{name}:{seed}"))
    if name == "goodbad":
        # three trials per op: one for each ab product the recipe cycles through
        trials = 1 if tiny else 3
        warmup = w.run_op("good-bad", 1, alpha=0.0)
        cycles = [[w.run_op("good-bad", trials, alpha=0.0)] for _ in range(n_cycles)]
    elif name == "transform":
        pl_trials, tr_trials = (1, 5) if tiny else (4, 20)
        warmup = w.run_op("translation", 5)
        cycles = [
            [w.run_op("plancherel", pl_trials, alpha=a) for a in PLANCHEREL_ALPHAS]
            + [w.run_op("translation", tr_trials)]
            for _ in range(n_cycles)
        ]
    elif name == "concentration":
        shipped = _copy_shipped_ls(configs, workdir)
        warmup = shipped[-1]
        cycles = [
            shipped + [w.pair_norm_op(i) for i in range(PAIR_STRATA)]
            for _ in range(n_cycles)
        ]
    else:
        raise KeyError(name)
    return warmup, cycles
