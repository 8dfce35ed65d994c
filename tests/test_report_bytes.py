"""Every recipe's report, byte for byte: the seed-7 runs of each recipe at a
few trials, and the shipped configs, write the CSV bodies stored under
tests/golden/.  The first line of a report names its output directory, so
the stored body starts at the column line below it.  `hconc pair norm`'s
output on a few pairs is stored beside them, in pair-norm-cli.txt.

A change that is meant to move a value or a verdict rewrites the goldens,
and their diff shows what moved:

    PYTHONPATH=src python tests/test_report_bytes.py
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

from hconc import cli
from hconc.experiments import _CHECKS, ExperimentConfig, parse_config, run

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

# golden name -> the keys of its run beyond name, output_dir and seed 7
_RUNS = {
    "bernstein": {"alpha": 0.3, "trials": 12},
    "plancherel": {"alpha": 0.0, "trials": 2},
    "translation": {"trials": 5},
    "extremal": {"alpha": 0.3, "trials": 4},
    # members 0..12 at an order past the closed forms and j0, j1
    "extremal-alpha7": {"recipe": "extremal", "alpha": 7.0, "trials": 12},
    "pair-norm": {"alpha": 0.0, "trials": 3},
    # no gamma: the density row judges an undeclared gamma
    "ls-verify": {
        "alpha": 0.3,
        "omega_file": str(CONFIGS / "omega-periodic.set"),
        "xmax": 60.0,
    },
    "kovrijkine": {"trials": 6},
    "good-bad": {"alpha": 0.0, "trials": 3},
}
_SHIPPED = sorted(path.stem for path in CONFIGS.glob("*.cfg"))


def _config(name: str, output_dir: str) -> ExperimentConfig:
    if name in _RUNS:
        return ExperimentConfig(name, seed=7, output_dir=output_dir, **_RUNS[name])
    return replace(parse_config(str(CONFIGS / f"{name}.cfg")), output_dir=output_dir)


def _body(name: str, output_dir: str) -> bytes:
    cfg = _config(name, output_dir)
    run(cfg)
    report = Path(output_dir, f"{cfg.name}.csv").read_bytes()
    return report.split(b"\n", 1)[1]


def test_every_recipe_and_shipped_config_has_a_golden():
    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == sorted(
        list(_RUNS) + _SHIPPED
    )


@pytest.mark.parametrize("name", sorted(_RUNS) + _SHIPPED)
def test_report_body_matches_its_golden(tmp_path, name):
    assert _body(name, str(tmp_path)) == (GOLDEN / f"{name}.csv").read_bytes()


# (alpha, sup S, sup Sigma, --xmax) of `hconc pair norm` on S = [0, sup S]
# and Sigma = [0, sup Sigma], the benchmark's kind of pair, at xmax = sup S;
# the last two put S past --xmax, which exits 2
_PAIR_CLI = [
    (alpha, s, sigma, s)
    for alpha in (0.0, 0.5, 1.0, 0.3)
    for s, sigma in ((0.5, 0.8), (1.0, 1.0), (1.7, 0.6), (2.4, 1.9))
] + [(0.0, 1.0, 1.0, 0.5), (0.3, 2.4, 1.9, 2.0)]


def _pair_cli_text(workdir: Path) -> str:
    """Each `_PAIR_CLI` case's arguments, exit code, stdout and stderr."""
    text = []
    for alpha, s, sigma, xmax in _PAIR_CLI:
        (workdir / "S.set").write_text(f"0 {s!r}\n", encoding="utf-8")
        (workdir / "Sigma.set").write_text(f"0 {sigma!r}\n", encoding="utf-8")
        argv = ["pair", "norm", "--alpha", repr(alpha), "--xmax", repr(xmax)]
        argv += ["--s", str(workdir / "S.set"), "--sigma", str(workdir / "Sigma.set")]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        text.append(
            f"alpha={alpha!r} S=[0, {s!r}] Sigma=[0, {sigma!r}] xmax={xmax!r}: "
            f"exit {code}\n{out.getvalue()}{err.getvalue()}"
        )
    return "".join(text)


def test_pair_norm_cli_matches_its_golden(tmp_path):
    golden = (GOLDEN / "pair-norm-cli.txt").read_text(encoding="utf-8")
    assert _pair_cli_text(tmp_path) == golden


def test_the_goldens_write_every_kind_of_check_and_no_other():
    # params start with quantity=<kind>; no params text holds a comma
    kinds = {
        line.split(",")[1].split()[0].removeprefix("quantity=")
        for path in GOLDEN.glob("*.csv")
        for line in path.read_text(encoding="utf-8").splitlines()[1:]
    }
    assert kinds == set(_CHECKS)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(_RUNS) + _SHIPPED:
            (GOLDEN / f"{name}.csv").write_bytes(_body(name, tmp))
            print(f"wrote {GOLDEN / name}.csv")
        text = _pair_cli_text(Path(tmp))
        (GOLDEN / "pair-norm-cli.txt").write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / 'pair-norm-cli.txt'}")
