"""Every recipe's report, byte for byte: the seed-7 runs of each recipe at a
few trials, and the shipped configs, write the CSV bodies stored under
tests/golden/.  The first line of a report names its output directory, so
the stored body starts at the column line below it.

A change that is meant to move a value or a verdict rewrites the goldens,
and their diff shows what moved:

    PYTHONPATH=src python tests/test_report_bytes.py
"""

from dataclasses import replace
from pathlib import Path

import pytest

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
