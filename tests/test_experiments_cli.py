"""End-to-end tests: config parsing, CSV reports, recipes, and the CLI."""

import importlib
import json
import math
import operator
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from hconc import __version__, bessel, cli, experiments, transform, translation
from hconc.annihilation import ls_empirical_min_ratio
from hconc.bessel import Order
from hconc.errors import ConvergenceError, InternalError, UsageError
from hconc.experiments import (
    DEFAULT_SEED,
    ExperimentConfig,
    ReportRow,
    _CHECKS,
    _RECIPE_TABLE,
    _SELFTEST_TABLE,
    _SHARED_KEYS,
    _at_most,
    _bump_family,
    _ordered,
    _row,
    _selftest_label,
    _within,
    parse_config,
    run,
    selftest,
    write_report,
)
from hconc.measure import IntervalSet
from hconc.quadrature import mu_rule
from oracles import mode_count

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
EVENS = "0 1\n2 3\n4 5\n6 7\n8 9\n"
UNIT = "0 1\n"


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# --------------------------------------------------------------------------
# config files


def test_parse_config_reads_typed_keys_and_comments(tmp_path):
    _write(tmp_path / "omega.set", EVENS)
    cfg_path = _write(
        tmp_path / "smoke.cfg",
        "# smoke config\n"
        "\n"
        "name = smoke   # trailing comment\n"
        "recipe = ls-verify\n"
        "alpha = 0.5\n"
        "a = 2.0\n"
        "b = 0.125\n"
        "gamma = 0.3\n"
        "xmax = 12.5\n"
        "omega_file = omega.set\n"
        "output_dir = out\n",
    )
    # ls-verify reads neither seed nor trials; the Bernstein recipe reads both
    counts_path = _write(
        tmp_path / "counts.cfg", "name = bernstein\ntrials = 7\nseed = 0x2A\n"
    )
    cfg = parse_config(cfg_path)
    counts = parse_config(counts_path)
    assert cfg.name == "smoke"
    assert cfg.recipe == "ls-verify"
    assert cfg.alpha == 0.5
    assert cfg.a == 2.0
    assert cfg.b == 0.125
    assert cfg.gamma == 0.3
    assert cfg.xmax == 12.5
    assert counts.trials == 7
    assert counts.seed == 42
    # relative paths resolve against the config's own directory
    assert cfg.omega_file == str(tmp_path / "omega.set")
    assert cfg.output_dir == str(tmp_path / "out")


def test_parse_config_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path / "min.cfg", "name = kovrijkine\n"))
    assert cfg.recipe == "kovrijkine"
    assert cfg.seed == DEFAULT_SEED
    assert cfg.trials == 100
    assert cfg.output_dir == "."
    assert cfg.omega_file is None


@pytest.mark.parametrize(
    "text,pattern",
    [
        ("name = smoke\nrecipe kovrijkine\n", r":2: expected"),
        ("name = smoke\nalpha = fast\n", r":2: bad number"),
        ("name = smoke\ntrials = 1.5\n", r":2: bad integer"),
        ("name = smoke\ncolor = red\n", r":2: unknown key"),
        # the mode count follows from b and xmax; a config cannot cap it
        ("name = smoke\nnodes = 144\n", r":2: unknown key 'nodes'"),
        # a repeated key is an error, not a silent override
        ("name = smoke\nseed = 1\nseed = 2\n", r":3: duplicate key 'seed'"),
        ("name = one\nname = two\n", r":2: duplicate key 'name'"),
        ("alpha = 1.0\n", r"must set a name"),
        # a key the recipe does not read, also one set before the recipe line
        (
            "name = g\nb = 2.0\nrecipe = good-bad\n",
            r":2: key 'b' is not read by recipe 'good-bad'",
        ),
        # the recipe defaults to the name; the earliest unread key is named
        (
            "name = translation\nseed = 3\nalpha = 0.5\nb = 2.0\n",
            r"bad\.cfg:3: key 'alpha' is not read by recipe 'translation'",
        ),
        # an unknown recipe still gets its own error first
        ("name = smoke\nb = 2.0\n", r"unknown recipe 'smoke'"),
    ],
)
def test_parse_config_rejects_malformed_lines(tmp_path, text, pattern):
    path = _write(tmp_path / "bad.cfg", text)
    with pytest.raises(UsageError, match=pattern):
        parse_config(path)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_every_shipped_config_parses(path):
    # a stale or misspelt key in a shipped config fails here first
    cfg = parse_config(str(path))
    assert cfg.name == path.stem


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(UsageError, match="cannot read config"):
        parse_config(str(tmp_path / "nope.cfg"))


def test_config_validation(tmp_path):
    with pytest.raises(UsageError, match="name"):
        ExperimentConfig(name="")
    with pytest.raises(UsageError, match="unknown recipe"):
        ExperimentConfig(name="frobnicate")
    with pytest.raises(UsageError, match="trials"):
        ExperimentConfig(name="kovrijkine", trials=-1)
    with pytest.raises(UsageError, match="omega_file does not exist"):
        ExperimentConfig(name="ls-verify", omega_file=str(tmp_path / "gone.set"))
    # zero trials is a legal smoke configuration
    assert ExperimentConfig(name="kovrijkine", trials=0).trials == 0


@pytest.mark.parametrize(
    "recipe", sorted(r for r, (_, reads) in _RECIPE_TABLE.items() if "seed" in reads)
)
def test_run_refuses_a_negative_seed(tmp_path, capsys, recipe):
    # numpy's default_rng refused it with a traceback, once a trial drew
    seed = _write(tmp_path / "seed.cfg", f"name = neg\nrecipe = {recipe}\nseed = -1\n")
    assert cli.main(["run", "--config", seed]) == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative\n"
    assert not (tmp_path / "neg.csv").exists()


def test_recipe_defaults_to_name():
    assert ExperimentConfig(name="bernstein").recipe == "bernstein"


def test_recipe_table_declares_every_config_field():
    # every field is shared by all recipes or read by some: none is dead
    # and none is left out of the table
    read = {key for _, keys in _RECIPE_TABLE.values() for key in keys}
    assert set(_SHARED_KEYS) | read == {f.name for f in fields(ExperimentConfig)}
    assert not set(_SHARED_KEYS) & read


_WORKLOADS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in _WORKLOADS["workloads"]])
def test_every_benchmark_config_parses(tmp_path, monkeypatch, workload):
    # a config the benchmark writes with a key its recipe does not read
    # would fail every op of the workload
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    workloads.build(workload, 1, tmp_path, CONFIGS, 2, tiny=True)
    paths = sorted(tmp_path.glob("*.cfg"))
    assert paths
    for path in paths:
        assert parse_config(str(path)).name == path.stem


# --------------------------------------------------------------------------
# reports


def test_write_report_provenance_and_format(tmp_path):
    cfg = ExperimentConfig(name="rep", recipe="kovrijkine", output_dir=str(tmp_path))
    rows = [
        ReportRow("quantity=x trial=0", 0.1, 1.0, True),
        ReportRow("quantity=y trial=1", 2.0, 3.0, False),
    ]
    path = write_report(cfg, rows)
    raw = open(path, "rb").read()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0].startswith(f"# hconc {__version__} ")
    for f in fields(cfg):
        assert f" {f.name}=" in lines[0] or lines[0].split(" ", 2)[2].startswith(
            f"{f.name}="
        )
    assert lines[1] == "experiment,params,value,reference,passed"
    assert lines[2] == "rep,quantity=x trial=0,0.10000000000000001,1,true"
    assert lines[3].endswith(",false")


def test_zero_trials_yields_header_only_report(tmp_path):
    cfg = ExperimentConfig(
        name="empty", recipe="kovrijkine", trials=0, output_dir=str(tmp_path)
    )
    rows = run(cfg)
    assert rows == []
    lines = (tmp_path / "empty.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2


@pytest.mark.parametrize("recipe", ["kovrijkine", "plancherel", "good-bad"])
def test_reports_deterministic_across_reruns(tmp_path, recipe):
    cfg = ExperimentConfig(
        name="det", recipe=recipe, trials=4, output_dir=str(tmp_path)
    )
    run(cfg)
    first = (tmp_path / "det.csv").read_bytes()
    run(cfg)
    assert (tmp_path / "det.csv").read_bytes() == first


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_plancherel_rows_do_not_depend_on_the_batching(tmp_path, monkeypatch, alpha):
    # plancherel runs its trials in batches that share kernel blocks; batches
    # of one trial, or of three that leave a trial over, must change no value
    cfg = ExperimentConfig(
        "det", recipe="plancherel", alpha=alpha, trials=4, output_dir=str(tmp_path)
    )
    run(cfg)
    whole = (tmp_path / "det.csv").read_bytes()
    for size in (1, 3):
        monkeypatch.setattr(experiments, "max_sets", lambda width: size)
        run(cfg)
        assert (tmp_path / "det.csv").read_bytes() == whole


# --------------------------------------------------------------------------
# row checks


@pytest.mark.parametrize(
    "check, bound, ref, beyond",
    [
        # at most the reference with a relative slack: at reference 1 the
        # bound is the double nearest 1 + slack
        (_at_most(0.0), 1e-7, 1e-7, np.inf),
        (_at_most(1e-8), 1 + 1e-8, 1.0, np.inf),
        # within tol max(floor, |reference|): on the floor, on both sides
        (_within(1e-8), 1e-8, 0.0, np.inf),
        (_within(1e-8), -1e-8, 0.0, -np.inf),
        # and on |reference|, where the dyadic numbers make the bound exact
        (_within(2.0**-20, floor=0.0), 4.0 + 2.0**-18, 4.0, np.inf),
        (_within(2.0**-20, floor=0.0), -4.0 - 2.0**-18, -4.0, -np.inf),
        # bare orderings
        (_ordered(operator.ge), 1.0, 1.0, -np.inf),
        (_ordered(operator.gt), np.nextafter(1.0, 2.0), 1.0, -np.inf),
        (_ordered(operator.eq), 3.0, 3.0, np.inf),
        (_ordered(operator.eq), 3.0, 3.0, -np.inf),
    ],
)
def test_comparison_form_passes_its_bound_and_fails_past_it(check, bound, ref, beyond):
    assert check(bound, ref)
    assert not check(np.nextafter(bound, beyond), ref)


def test_bespoke_checks_at_their_bounds():
    pair_norm, gamma_min, bernstein = (
        _CHECKS[kind] for kind in ("pair-norm", "gamma-min", "bernstein")
    )
    # a pair norm lies in [0, 1]
    assert pair_norm(0.0, 1.0) and pair_norm(1.0, 1.0)
    assert not pair_norm(np.nextafter(0.0, -1.0), 1.0)
    assert not pair_norm(np.nextafter(1.0, 2.0), 1.0)
    # gamma_min reaches the declared gamma; undeclared (0), it is positive
    assert gamma_min(0.25, 0.25) and not gamma_min(np.nextafter(0.25, 0.0), 0.25)
    assert gamma_min(np.nextafter(0.0, 1.0), 0.0) and not gamma_min(0.0, 0.0)
    # at k = 0 both Bernstein sides are ||f||: they must agree to 1e-9 of
    # max(rhs, 1e-300), on top of lhs <= rhs (1 + 1e-6)
    tiny = 1e-9 * 1e-300
    assert bernstein(-tiny, 0.0, k=0)
    assert not bernstein(np.nextafter(-tiny, -1.0), 0.0, k=0)
    assert bernstein(np.nextafter(-tiny, -1.0), 0.0, k=1)
    assert bernstein(1 + 1e-6, 1.0, k=1)
    assert not bernstein(np.nextafter(1 + 1e-6, 2.0), 1.0, k=1)


def test_row_writes_kind_and_ids_in_order_and_judges_by_its_kind():
    assert _row("peak", 1.0, 1.0, n=3) == ReportRow("quantity=peak n=3", 1.0, 1.0, True)
    row = _row("bad-mass", 0.5, 1.0 / 3.0 + 0.01, trial=2, ab=0.1)
    assert row.params == "quantity=bad-mass trial=2 ab=0.1"
    assert row.passed is False
    assert _row("pair-norm", 0.5, 1.0).params == "quantity=pair-norm"


def test_cli_pw_bernstein_judges_by_the_recipe_check(capsys, monkeypatch):
    argv = ["pw", "bernstein", "--alpha", "0", "--b", "1", "--k", "2", "--trials", "2"]
    assert cli.main(argv) == 0
    monkeypatch.setitem(_CHECKS, "bernstein", lambda value, ref, **ids: False)
    assert cli.main(argv) == 1


# --------------------------------------------------------------------------
# recipes


def _key_values(tmp_path) -> dict:
    """A value off the default for every config key."""
    half = _write(tmp_path / "half.set", "0 0.5\n")
    odds = _write(tmp_path / "odds.set", "0 1\n2 3\n4 5\n")
    return {
        "alpha": 0.3, "a": 2.0, "b": 1.5, "gamma": 0.1, "omega_file": odds,
        "s_file": half, "sigma_file": half, "xmax": 10.0, "seed": 11, "trials": 3,
    }  # fmt: skip


def _base_config(tmp_path, recipe: str) -> ExperimentConfig:
    # ls-verify needs an omega set; a short window keeps its basis small
    keys = {}
    if recipe == "ls-verify":
        keys = {"omega_file": _write(tmp_path / "evens.set", EVENS), "xmax": 12.0}
    return ExperimentConfig(recipe, trials=2, output_dir=str(tmp_path), **keys)


def _body(cfg: ExperimentConfig) -> list[bytes]:
    """The report's lines below its provenance header."""
    run(cfg)
    return Path(cfg.output_dir, f"{cfg.name}.csv").read_bytes().splitlines()[1:]


@pytest.mark.parametrize("recipe", sorted(_RECIPE_TABLE))
def test_keys_a_recipe_does_not_read_change_no_row(tmp_path, recipe):
    base = _base_config(tmp_path, recipe)
    _, reads = _RECIPE_TABLE[recipe]
    unread = {k: v for k, v in _key_values(tmp_path).items() if k not in reads}
    assert _body(replace(base, **unread)) == _body(base)


@pytest.mark.parametrize("recipe", sorted(_RECIPE_TABLE))
def test_every_key_a_recipe_reads_changes_its_rows(tmp_path, recipe):
    base = _base_config(tmp_path, recipe)
    body = _body(base)
    _, reads = _RECIPE_TABLE[recipe]
    for key, value in _key_values(tmp_path).items():
        if key not in reads:
            continue
        assert _body(replace(base, **{key: value})) != body, key


def test_kovrijkine_recipe_rows(tmp_path):
    cfg = ExperimentConfig(
        name="kov", recipe="kovrijkine", trials=3, output_dir=str(tmp_path)
    )
    rows = run(cfg)
    assert len(rows) == 3
    assert all(r.passed for r in rows)
    assert "quantity=constant" in rows[0].params
    assert all("quantity=polynomial" in r.params for r in rows[1:])


def test_pair_norm_recipe_emits_constant_and_trials(tmp_path):
    cfg = ExperimentConfig(
        name="pair", recipe="pair-norm", trials=4, output_dir=str(tmp_path)
    )
    rows = run(cfg)
    # unit S and Sigma: norm < 1, so the constant and the sampled strong
    # inequality rows must follow the norm row
    assert rows[0].params == "quantity=pair-norm"
    assert 0.0 < rows[0].value < 1.0
    assert rows[1].params == "quantity=annihilation-constant"
    assert rows[1].value >= 1.0
    strong = [r for r in rows if r.params.startswith("quantity=strong-pair")]
    assert len(strong) == 4
    assert all(r.passed for r in rows)


def test_pair_norm_recipe_refuses_an_empty_sigma(tmp_path, capsys):
    # the strong-pair trials draw on [0, 2 sup Sigma], which an empty Sigma
    # leaves empty: a usage error that names the file, not a traceback
    empty = _write(tmp_path / "empty.set", "")
    cfg = _write(
        tmp_path / "pair.cfg",
        f"name = pair\nrecipe = pair-norm\nsigma_file = {empty}\n"
        f"output_dir = {tmp_path}\n",
    )
    assert cli.main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: sigma_file {empty} holds an empty set")
    assert not (tmp_path / "pair.csv").exists()


@pytest.mark.parametrize("b", ["0", "inf", "nan", "-1"])
def test_plancherel_recipe_refuses_a_band_outside_zero_to_infinity(
    tmp_path, capsys, monkeypatch, b
):
    # b = 0 divided by zero in the window's width and b = inf overflowed the
    # panel count (exit 1); NaN and negative b were refused later, by the
    # grids.  Now every one is refused before any grid is built
    monkeypatch.setattr(experiments, "_plancherel_grids", None)
    cfg = _write(tmp_path / "p.cfg", f"name = p\nrecipe = plancherel\nb = {b}\n")
    assert cli.main(["run", "--config", cfg]) == 2
    want = f"error: bandlimit b must be positive and finite, got {float(b)}\n"
    assert capsys.readouterr().err == want
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("alpha", [0.3, -0.3, 1.7])
def test_plancherel_recipe_passes_at_non_polynomial_weights(tmp_path, alpha):
    # x^(2 alpha + 1) is not a polynomial: the rules integrate it exactly on
    # the panel at 0 (Gauss-Jacobi), so isometry and round trip hold
    cfg = ExperimentConfig(
        name="pl", recipe="plancherel", alpha=alpha, trials=3, output_dir=str(tmp_path)
    )
    rows = run(cfg)
    assert len(rows) == 6
    assert all(r.passed for r in rows), [(r.params, r.value) for r in rows]


@pytest.mark.parametrize("alpha", [0.0, 1.7])
@pytest.mark.parametrize("b", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_plancherel_recipe_passes_at_every_band(tmp_path, alpha, b):
    # both rules grow with b: 10 b physical nodes per unit resolve f, and
    # 3 b x_max spectral nodes keep the sampled spectrum's alias, which
    # starts near x = 0.47 n_spec / b, outside the window
    cfg = ExperimentConfig(
        name="pl", recipe="plancherel", alpha=alpha, b=b, trials=3,
        output_dir=str(tmp_path),
    )  # fmt: skip
    rows = run(cfg)
    assert len(rows) == 6
    assert all(r.passed for r in rows), [(r.params, r.value) for r in rows]


@pytest.mark.xfail(raises=AssertionError, strict=True)
def test_plancherel_recipe_passes_at_order_seven(tmp_path):
    # known defect (CHANGES.md): 6 of 10 roundtrip-error rows fail here,
    # worst 7.3e-8 against 1e-8, and all 10 at alpha = 10.  The spectral
    # rule on [0, b] instead of [0, 2b] passes every row at alpha = 7 but
    # still fails 4 of 10 at alpha = 10, so the mu_alpha weights
    # xi^(2 alpha + 1) on (b, 2b] amplify the forward transform's
    # truncation error, but are not the whole cause
    cfg = ExperimentConfig(
        "pl", recipe="plancherel", alpha=7, seed=7, trials=10, output_dir=str(tmp_path)
    )
    failed = [(r.params, r.value) for r in run(cfg) if not r.passed]
    assert not failed, failed


# the minimum ratios of the shipped ls-verify configs, bit for bit as they
# were when the configs capped the basis at 144 modes, above the 120 in use;
# at alpha = 1/2 as sin x / x gives them on the exact argument (with
# np.sinc(x / pi), which rounds x / pi first, it read 1.956246922996019e-05)
_SHIPPED_LS_RATIOS = {
    "ls-periodic-alpha0": 1.9778251232111482e-05,
    "ls-periodic-alpha05": 1.9562469229959684e-05,
    "ls-sparse-alpha0": 2.3819541914835764e-11,
}


@pytest.mark.parametrize("stem", sorted(_SHIPPED_LS_RATIOS))
def test_shipped_ls_verify_uses_every_mode_of_the_band(tmp_path, stem):
    cfg = parse_config(str(CONFIGS / f"{stem}.cfg"))
    last = run(replace(cfg, output_dir=str(tmp_path)))[-1]
    modes = mode_count(cfg.alpha, cfg.b, cfg.xmax)
    assert modes == 120
    assert last.params == f"quantity=empirical-min-ratio xmax=60 modes={modes}"
    assert last.value == _SHIPPED_LS_RATIOS[stem]


def test_cli_ls_verify_default_xmax_reports_every_mode(capsys):
    # x_max defaults to 20 + sup(omega) = 79, past the 128 modes a cap once
    # cut the basis to
    omega = str(CONFIGS / "omega-periodic.set")
    argv = ["ls", "verify", "--alpha", "0", "--a", "1", "--b", "1", "--omega", omega]
    assert cli.main(argv) == 0
    row = capsys.readouterr().out.splitlines()[2]
    assert mode_count(0.0, 1.0, 79.0) == 158
    assert row.startswith("quantity=empirical-min-ratio xmax=79 modes=158: value=")


def test_shipped_plancherel_config_at_band_two_passes(tmp_path):
    cfg = parse_config(str(CONFIGS / "plancherel-b2.cfg"))
    assert cfg.b == 2.0
    rows = run(replace(cfg, output_dir=str(tmp_path)))
    assert len(rows) == 2 * cfg.trials
    assert all(r.passed for r in rows), [(r.params, r.value) for r in rows]


def test_translation_symmetry_row_fails_under_an_asymmetric_fault(
    tmp_path, monkeypatch
):
    # the row's value translates from y to x on its own rule and its
    # reference from x to y, so a pass that scales its source point breaks
    # the symmetry.  That must flip every row whose translate is not zero
    # (trial 1: |x - y| is past the bump's support) off alpha = -1/2 (the
    # two-point form runs no theta pass)
    real_pass = translation._theta_pass

    def skewed(order, n, x, f, ys):
        return real_pass(order, n, x * (1.0 + 1e-6), f, ys)

    cfg = ExperimentConfig(
        "tr", recipe="translation", seed=7, trials=5, output_dir=str(tmp_path)
    )
    clean = [r for r in run(cfg) if r.params.startswith("quantity=symmetry")]
    assert len(clean) == 5 and all(r.passed for r in clean)
    monkeypatch.setattr(translation, "_theta_pass", skewed)
    rows = [r for r in run(cfg) if r.params.startswith("quantity=symmetry")]
    assert [r.passed for r in rows] == [True, True, False, False, False]
    assert "alpha=-0.5" in rows[0].params and rows[1].reference == 0.0


@pytest.mark.parametrize("chunk", [2_000_000, 1000])
def test_plancherel_trial_rows_do_not_depend_on_the_batch(
    tmp_path, monkeypatch, chunk
):
    # all trials of a run share the kernel blocks; a trial's rows are the
    # same bytes whichever trials run beside it, also over many row blocks
    monkeypatch.setattr(transform, "_LADDER_CHUNK", 2 * chunk)
    lines = {}
    for trials in (3, 7):
        out = tmp_path / str(trials)
        run(
            ExperimentConfig(
                "pl", recipe="plancherel", alpha=0.3, trials=trials, output_dir=str(out)
            )
        )
        lines[trials] = (out / "pl.csv").read_bytes().splitlines()[1:]
    assert len(lines[7]) == 1 + 2 * 7
    assert lines[3] == lines[7][: 1 + 2 * 3]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_good_bad_recipe_at_negative_order_is_warning_free(tmp_path):
    # the window at x = 1 starts at t = 0, where t^alpha is infinite for
    # alpha < 0; that point fails the growth bound without a warning.  The
    # rows are pinned: the in-order witness scan changes no value.  The
    # bad-mass values are sums of the window pieces' integrals; a kernel
    # pass of their own on the union of the bad windows gave them to within
    # 5e-15 relative.
    cfg = ExperimentConfig(
        name="gb",
        recipe="good-bad",
        alpha=-0.3,
        seed=7,
        trials=3,
        output_dir=str(tmp_path),
    )
    rows = run(cfg)
    assert all(r.passed for r in rows)
    body = (tmp_path / "gb.csv").read_text(encoding="utf-8").splitlines()[2:]
    assert body == [
        "gb,quantity=bad-mass trial=0 ab=0.05,0.0048038082253847401,0.34333333333333332,true",
        "gb,quantity=witnesses trial=0 ab=0.05,13,13,true",
        "gb,quantity=bad-mass trial=1 ab=0.1,0.016968708009293915,0.34333333333333332,true",
        "gb,quantity=witnesses trial=1 ab=0.1,13,13,true",
        "gb,quantity=bad-mass trial=2 ab=0.3,0,0.34333333333333332,true",
        "gb,quantity=witnesses trial=2 ab=0.3,15,15,true",
    ]


# The good-bad recipe at seed 7, 6 trials: per trial the bad-mass fraction
# and the witness count (of as many good windows), as computed when each
# trial made a second D^k pass over the windows' left ends.  Speed work on
# the recipe must keep the fractions to 1e-12 and the counts exactly.
_GOOD_BAD_PINS = {
    0.0: [
        (0.010628827294425, 12),
        (0.010855944447036116, 14),
        (0.0, 15),
        (0.007897936679895003, 13),
        (0.01179136294018253, 14),
        (0.0, 15),
    ],
    -0.3: [
        (0.004803808225384742, 13),
        (0.016968708009293922, 13),
        (0.0, 15),
        (0.009316832848960998, 12),
        (0.014628534534453591, 13),
        (0.0, 15),
    ],
    1.0: [
        (0.0, 15),
        (0.013453095798887635, 14),
        (0.0, 15),
        (0.0, 15),
        (0.008064949215411838, 14),
        (0.0, 15),
    ],
}


@pytest.mark.parametrize("alpha", sorted(_GOOD_BAD_PINS))
def test_good_bad_recipe_pinned_values(tmp_path, alpha):
    cfg = ExperimentConfig(
        name="gb", recipe="good-bad", alpha=alpha, seed=7, trials=6, output_dir=str(tmp_path)
    )
    rows = run(cfg)
    assert len(rows) == 12
    for t, (frac, found) in enumerate(_GOOD_BAD_PINS[alpha]):
        bad_mass, witnesses = rows[2 * t], rows[2 * t + 1]
        assert f"quantity=bad-mass trial={t} " in bad_mass.params
        assert bad_mass.value == pytest.approx(frac, rel=1e-12, abs=0.0)
        assert f"quantity=witnesses trial={t} " in witnesses.params
        assert (witnesses.value, witnesses.reference) == (found, found)


def test_run_guards_unknown_recipe():
    with pytest.raises(UsageError, match="unknown recipe"):
        ExperimentConfig(name="det", recipe="frobnicate")


def test_selftest_passes_one_check_per_table_entry(capsys):
    assert selftest() == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split(" (")[0].removeprefix("PASS ") for line in lines[:-1]]
    assert names == ["zero-table"] + [
        _selftest_label(recipe, keys) for recipe, _, keys in _SELFTEST_TABLE
    ]
    # translation picks its own orders and kovrijkine takes none
    assert {"translation", "kovrijkine"} <= set(names)
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == f"selftest: all {len(_SELFTEST_TABLE) + 1} checks passed"


def test_selftest_fails_only_the_entry_whose_recipe_breaks(capsys, monkeypatch):
    real_sides = experiments.bernstein_sides

    def doubled(pw, k):
        _, rhs = real_sides(pw, k)
        return 2.0 * rhs, rhs

    monkeypatch.setattr(experiments, "bernstein_sides", doubled)
    assert selftest() == 1
    out = capsys.readouterr().out
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1
    assert fails[0].startswith("FAIL bernstein alpha=0: 20 of 20 rows failed")
    assert out.count("PASS") == len(_SELFTEST_TABLE)


# --------------------------------------------------------------------------
# CLI plumbing


def test_cli_bessel_eval_prints_values(capsys):
    rc = cli.main(["bessel", "eval", "--alpha", "0.5", "--x", "0,2.0"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0]) == 1.0
    assert float(lines[1]) == pytest.approx(math.sin(2.0) / 2.0, rel=1e-12)


def test_cli_bessel_eval_large_order(capsys):
    rc = cli.main(["bessel", "eval", "--alpha", "200", "--x", "1.0,120"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    # reference values from mpmath's hyp0f1(201, -x^2/4) at 40 digits
    assert float(lines[0]) == pytest.approx(0.9987569882561332, rel=1e-12)
    assert float(lines[1]) == pytest.approx(6.726892846986747e-09, rel=1e-11)
    assert cli.main(["bessel", "eval", "--alpha", "301", "--x", "1"]) == 2


def test_cli_bessel_zeros_large_order(capsys):
    mpmath = pytest.importorskip("mpmath")
    rc = cli.main(["bessel", "zeros", "--alpha", "20", "--count", "64"])
    assert rc == 0
    zs = [float(s) for s in capsys.readouterr().out.splitlines()]
    assert len(zs) == 64
    for k in (1, 32, 64):
        assert zs[k - 1] == pytest.approx(float(mpmath.besseljzero(21, k)), abs=1e-12)


def test_cli_bessel_zeros_past_the_guess_range(capsys):
    # at alpha = 25 McMahon's guess of the first zero is 0.6 pi too high
    mpmath = pytest.importorskip("mpmath")
    rc = cli.main(["bessel", "zeros", "--alpha", "25", "--count", "64"])
    assert rc == 0
    zs = [float(s) for s in capsys.readouterr().out.splitlines()]
    assert len(zs) == 64
    for k in (1, 2, 32, 64):
        assert zs[k - 1] == pytest.approx(float(mpmath.besseljzero(26, k)), rel=1e-12)


def test_cli_bessel_zeros_at_the_top_order(capsys):
    # these are zeros of j_300, the highest order eval_j takes; the Newton step
    # must not ask for j_301
    rc = cli.main(["bessel", "zeros", "--alpha", "299", "--count", "8"])
    assert rc == 0
    zs = [float(s) for s in capsys.readouterr().out.splitlines()]
    # mpmath.besseljzero(300, k), k = 1..8, at 30 digits, frozen: its first
    # call at this order takes seconds
    ref = [312.5773616068493, 322.19191244675585, 330.1917822912456,
           337.3581757209017, 343.98795770238104, 350.2333678599056,
           356.18530201756823, 361.90337684382797]  # fmt: skip
    assert zs == pytest.approx(ref, rel=1e-12)


def test_cli_bessel_zeros_large_order_table_is_accepted(capsys):
    # the 64th zero of j_174.5 lies 0.16 pi from McMahon's expansion
    rc = cli.main(["bessel", "zeros", "--alpha", "173.5", "--count", "64"])
    assert rc == 0
    zs = [float(s) for s in capsys.readouterr().out.splitlines()]
    assert len(zs) == 64
    # mpmath.besseljzero(174.5, k) for k = 1 and 64, frozen
    assert zs[0] == pytest.approx(185.05502382969246, rel=1e-12)
    assert zs[63] == pytest.approx(439.2392617672405, rel=1e-12)


def test_cli_bessel_zeros(capsys):
    rc = cli.main(["bessel", "zeros", "--alpha", "0", "--count", "5"])
    assert rc == 0
    zs = [float(s) for s in capsys.readouterr().out.splitlines()]
    assert len(zs) == 5
    assert zs == sorted(zs)
    assert zs[0] == pytest.approx(3.8317059702075123, abs=1e-9)


def test_cli_measure_density(tmp_path, capsys):
    path = _write(tmp_path / "evens.set", EVENS)
    rc = cli.main(
        [
            "measure",
            "density",
            "--alpha",
            "0",
            "--set",
            path,
            "--a",
            "1",
            "--xmax",
            "9",
            "--step",
            "0.25",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,ratio"
    k = lines.index("gamma_min,argmin")
    gamma_min, argmin = (float(s) for s in lines[k + 1].split(","))
    assert gamma_min == pytest.approx(0.25, rel=1e-12)
    assert argmin == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize(
    "a, step", [("0", None), ("-1", None), ("1", "0"), ("1", "-0.5")]
)
def test_cli_measure_density_rejects_bad_grid(tmp_path, capsys, a, step):
    path = _write(tmp_path / "evens.set", EVENS)
    argv = ["measure", "density", "--alpha", "0", "--set", path]
    argv += ["--a", a, "--xmax", "9"]
    if step is not None:
        argv += ["--step", step]
    assert cli.main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_measure_density_caps_the_window_count(tmp_path, capsys):
    path = _write(tmp_path / "unit.set", UNIT)
    argv = ["measure", "density", "--alpha", "0", "--set", path, "--a", "1"]
    # 9.9e13 windows: a usage error, not a failed allocation
    assert cli.main(argv + ["--xmax", "100", "--step", "1e-12"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "99000000000001 windows" in err
    assert f"cap of {2**24}" in err


def test_cli_measure_density_large_order(tmp_path, capsys):
    path = _write(tmp_path / "unit2.set", "0 2\n")
    argv = ["measure", "density", "--alpha", "200", "--set", path, "--a", "1"]
    assert cli.main(argv + ["--xmax", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # window [1, 3] holds mu([1, 2]) / mu([1, 3]) = (2^402 - 1) / (3^402 - 1)
    k = lines.index("gamma_min,argmin")
    gamma_min, argmin = (float(s) for s in lines[k + 1].split(","))
    assert gamma_min == pytest.approx((2.0 / 3.0) ** 402, rel=1e-10)
    assert argmin == 2.0
    # 6^402 leaves the range of a double: refused, not a traceback
    assert cli.main(argv + ["--xmax", "5"]) == 2
    assert "overflows" in capsys.readouterr().err


def test_cli_transform_roundtrip_through_csvs(tmp_path):
    xs = np.linspace(0.0, 8.0, 1601)
    in_csv = tmp_path / "gauss.csv"
    with open(in_csv, "w", encoding="utf-8") as fh:
        fh.write("x,value\n")
        for x, v in zip(xs, np.exp(-math.pi * xs**2)):
            fh.write(f"{x:.17g},{v:.17g}\n")
    fwd_csv = tmp_path / "fwd.csv"
    rc = cli.main(
        [
            "transform",
            "--alpha",
            "0",
            "--in",
            str(in_csv),
            "--support",
            "0,8",
            "--nodes",
            "256",
            "--out",
            str(fwd_csv),
        ]
    )
    assert rc == 0
    out = np.loadtxt(fwd_csv, delimiter=",", skiprows=1)
    # the profile is its own transform; linear interpolation of the input
    # samples caps the attainable accuracy
    assert np.max(np.abs(out[:, 1] - np.exp(-math.pi * out[:, 0] ** 2))) < 1e-3
    back_csv = tmp_path / "back.csv"
    rc = cli.main(
        [
            "transform",
            "--alpha",
            "0",
            "--in",
            str(fwd_csv),
            "--support",
            "0,8",
            "--nodes",
            "256",
            "--out",
            str(back_csv),
        ]
    )
    assert rc == 0
    back = np.loadtxt(back_csv, delimiter=",", skiprows=1)
    assert np.max(np.abs(back[:, 1] - np.exp(-math.pi * back[:, 0] ** 2))) < 2e-3


def test_cli_transform_rejects_malformed_input(tmp_path):
    bad = _write(tmp_path / "bad.csv", "x,value,extra\n1,2,3\n")
    rc = cli.main(
        [
            "transform",
            "--alpha",
            "0",
            "--in",
            bad,
            "--support",
            "0,1",
            "--out",
            str(tmp_path / "out.csv"),
        ]
    )
    assert rc == 2


def test_cli_transform_writes_the_promised_node_count(tmp_path):
    # nodes / (hi - lo) per unit, times (hi - lo), once rounded up to 3377
    gauss = _write(tmp_path / "g.csv", "x,value\n0,1\n9,0.5\n")
    out = tmp_path / "out.csv"
    argv = ["transform", "--alpha", "0.3", "--in", gauss, "--nodes", "3376"]
    argv += ["--support=2.5821339227688793,8.712072323568385", "--out", str(out)]
    assert cli.main(argv) == 0
    assert len(np.loadtxt(out, delimiter=",", skiprows=1)) == 3376


def test_cli_transform_has_the_bits_of_mu_rule(tmp_path):
    gauss = _write(tmp_path / "g.csv", "x,value\n0,1\n9,0.5\n")
    out = tmp_path / "out.csv"
    argv = ["transform", "--alpha", "0.3", "--in", gauss, "--support=0,8"]
    assert cli.main(argv + ["--nodes", "256", "--out", str(out)]) == 0
    xs, vals = np.loadtxt(out, delimiter=",", skiprows=1).T
    order = Order(0.3)
    nodes, weights = mu_rule(order, IntervalSet.of([(0.0, 8.0)]), 32.0)
    f = np.interp(nodes, [0.0, 9.0], [1.0, 0.5])
    assert np.array_equal(xs, nodes)
    ref = transform.kernel_apply(order, nodes, nodes, weights * f)
    assert np.array_equal(vals, ref)


@pytest.mark.parametrize(
    "support,nodes",
    [("-1,1", "256"), ("0,1", "1"), ("0,1", "0"), ("0,1", "100001"), ("1,1", "256")],
)
def test_cli_transform_rejects_bad_support_and_nodes(tmp_path, capsys, support, nodes):
    gauss = _write(tmp_path / "g.csv", "x,value\n0,1\n1,0.5\n")
    out = tmp_path / "out.csv"
    argv = ["transform", "--alpha", "0.3", "--in", gauss]
    argv += [f"--support={support}", "--nodes", nodes, "--out", str(out)]
    assert cli.main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flag,text",
    [
        ("translate", "--y-grid", "0,1,-3"),
        ("translate", "--y-grid", "0,1,0"),
        ("translate", "--y-grid", "a,1,3"),
        ("translate", "--y-grid", "0,1,2.5"),
        ("translate", "--y-grid", "0,inf,3"),
        ("translate", "--y-grid", "nan,1,3"),
        ("extremal", "--x-grid", "0,1,-3"),
        ("extremal", "--x-grid", "0,1"),
        ("extremal", "--x-grid", "0,inf,3"),
        ("transform", "--support", "a,1"),
        ("transform", "--support", "0,1,2"),
        ("bessel", "--x", "1,a"),
    ],
)
def test_cli_number_lists_are_usage_errors(tmp_path, capsys, command, flag, text):
    csv = _write(tmp_path / "f.csv", "x,value\n0,1\n1,0\n")
    out = str(tmp_path / "out.csv")
    argv = {
        "translate": ["translate", "--alpha", "0", "--x", "1", "--f", csv],
        "extremal": ["pw", "extremal", "--alpha", "0", "--n", "1"],
        "transform": ["transform", "--alpha", "0", "--in", csv]
        + ["--out", out],
        "bessel": ["bessel", "eval", "--alpha", "0"],
    }[command]
    assert cli.main(argv + [flag, text]) == 2
    err = capsys.readouterr().err
    assert f"error: {flag} must be" in err


@pytest.mark.parametrize("x", ["nan", "inf"])
def test_cli_translate_rejects_non_finite_x(tmp_path, capsys, x):
    csv = _write(tmp_path / "f.csv", "x,value\n0,1\n1,0\n")
    argv = ["translate", "--alpha", "0.5", "--x", x, "--f", csv, "--y-grid", "0,1,3"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: translation arguments must be finite" in err


def test_cli_translate_matches_two_point_form(tmp_path, capsys):
    xs = np.linspace(0.0, 10.0, 2001)
    csv = tmp_path / "cos.csv"
    with open(csv, "w", encoding="utf-8") as fh:
        fh.write("x,value\n")
        for x, v in zip(xs, np.cos(xs)):
            fh.write(f"{x:.17g},{v:.17g}\n")
    rc = cli.main(
        [
            "translate",
            "--alpha",
            "-0.5",
            "--x",
            "0.7",
            "--f",
            str(csv),
            "--y-grid",
            "0,2,9",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "y,value"
    assert len(lines) == 10
    for line in lines[1:]:
        y, v = (float(s) for s in line.split(","))
        # shifting a cosine at order -1/2 factorizes exactly
        assert v == pytest.approx(math.cos(0.7) * math.cos(y), abs=1e-4)


def test_cli_pw_bernstein_table_and_determinism(capsys):
    argv = [
        "pw",
        "bernstein",
        "--alpha",
        "0.5",
        "--b",
        "1",
        "--k",
        "2",
        "--trials",
        "3",
        "--seed",
        "0x2A",
    ]
    rc = cli.main(argv)
    assert rc == 0
    first = capsys.readouterr().out
    lines = first.splitlines()
    assert lines[0] == "trial,lhs,rhs,ratio"
    assert len(lines) == 4
    for line in lines[1:]:
        ratio = float(line.split(",")[3])
        assert ratio <= 1.0 + 1e-6
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first


def test_cli_pw_bernstein_refuses_a_negative_seed(capsys):
    # the CSV header was printed before numpy's default_rng refused the seed
    argv = ["pw", "bernstein", "--alpha", "0", "--b", "1", "--k", "1", "--trials", "2"]
    assert cli.main(argv + ["--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: seed must be nonnegative\n")


def test_cli_pw_bernstein_large_order(capsys):
    # Gamma(alpha + k + 1) overflows a double here; the quotient
    # Gamma(201) / Gamma(202) = 1/201 does not
    argv = ["pw", "bernstein", "--alpha", "200", "--b", "1", "--k", "1", "--trials", "1"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "trial,lhs,rhs,ratio"
    _, lhs, rhs, ratio = (float(v) for v in lines[1].split(","))
    # the trial function has unit norm, so rhs = pi^(3/2) b / sqrt(201)
    assert rhs == pytest.approx(math.pi**1.5 / math.sqrt(201.0), rel=1e-12)
    assert 0.0 < lhs <= rhs
    assert ratio == pytest.approx(lhs / rhs, rel=1e-15)


@pytest.mark.parametrize(("b", "trials"), [("1e300", ""), ("1e150", 6), ("1e60", 6)])
def test_cli_run_refuses_a_bernstein_band_whose_fold_overflows(
    tmp_path, capsys, b, trials
):
    # b^(2 (alpha + k) + 2) leaves the range of a double: for the draw's
    # norm at 1e300, for k >= 1 at 1e150 and for k >= 2 at 1e60
    text = f"name = big\nrecipe = bernstein\nb = {b}\noutput_dir = out\n"
    if trials:
        text += f"trials = {trials}\n"
    cfg = _write(tmp_path / "big.cfg", text)
    rc, _, err = _main_result(capsys, ["run", "--config", cfg])
    assert rc == 2
    assert "mu_alpha measure overflows a double" in err


def test_cli_bernstein_keeps_a_band_whose_fold_fits(tmp_path, capsys):
    # at b = 1e60 the orders k = 0 and 1 fit a double, and k = 2 does not
    cfg = _write(
        tmp_path / "fits.cfg",
        "name = fits\nrecipe = bernstein\nb = 1e60\ntrials = 2\noutput_dir = out\n",
    )
    assert _main_result(capsys, ["run", "--config", cfg])[0] == 0
    argv = ["pw", "bernstein", "--alpha", "0", "--b", "1e60", "--trials", "2"]
    assert _main_result(capsys, argv + ["--k", "1"])[0] == 0
    rc, _, err = _main_result(capsys, argv + ["--k", "2"])
    assert rc == 2
    assert "mu_alpha measure overflows a double" in err


def test_cli_pw_extremal_peak_normalization(capsys):
    rc = cli.main(["pw", "extremal", "--alpha", "0", "--n", "0", "--x-grid", "0,0,1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,value"
    assert lines[1] == "0,1"


def test_extremal_recipe_builds_one_zero_table_per_size(
    tmp_path, monkeypatch, cold_zero_tables
):
    # members 1..150 and the recipe's own 150 nodes read tables of 64, 128
    # and 256 zeros; a cache keyed on the count asked for built 151
    calls = []
    real = bessel.zeros_of_j_prime
    monkeypatch.setattr(
        bessel, "zeros_of_j_prime", lambda o, n: calls.append(n) or real(o, n)
    )
    cfg = ExperimentConfig(
        name="extremal", alpha=7.0, trials=150, output_dir=str(tmp_path)
    )
    rows = run(cfg)
    assert len(rows) == 302 and all(r.passed for r in rows)
    assert sorted(calls) == [64, 128, 256]


def test_cli_pair_norm_matches_frozen_value(tmp_path, capsys):
    path = _write(tmp_path / "unit.set", UNIT)
    rc = cli.main(
        ["pair", "norm", "--alpha", "0", "--s", path, "--sigma", path, "--xmax", "1"]
    )
    assert rc == 0
    norm = float(capsys.readouterr().out.strip())
    assert norm == pytest.approx(0.9997619967469777, abs=1e-5)


@pytest.mark.parametrize(
    "alpha, sup_s, sup_sigma", [("0", 4.0, 2.0), ("0.3", 2.0, 2.0), ("1", 3.0, 1.0)]
)
def test_cli_pair_norm_clustered_top_spectrum(
    tmp_path, capsys, alpha, sup_s, sup_sigma
):
    s_path = _write(tmp_path / "s.set", f"0 {sup_s}\n")
    sigma_path = _write(tmp_path / "sigma.set", f"0 {sup_sigma}\n")
    argv = ["pair", "norm", "--alpha", alpha, "--s", s_path, "--sigma", sigma_path]
    rc = cli.main(argv + ["--xmax", str(sup_s)])
    assert rc == 0
    norm = float(capsys.readouterr().out.strip())
    assert 0.999999 < norm <= 1.0


@pytest.mark.parametrize(
    "sup_s, sup_sigma, rc",
    [(20.0, 20.0, 2), (8.0, 8.0, 2), (3.0, 3.0, 0), (20.0, 0.5, 2), (0.5, 20.0, 2)],
)
def test_cli_pair_norm_large_order(tmp_path, capsys, sup_s, sup_sigma, rc):
    # at alpha = 200 the mu_alpha weights on [0, sup] reach sup^402, which
    # leaves the range of a double for sup = 8 and 20: refused, not a
    # traceback from a NaN Gram.  That holds for either side, the one with
    # the quadrature rule and the one integrated in closed form.
    s_path = _write(tmp_path / "s.set", f"0 {sup_s}\n")
    sigma_path = _write(tmp_path / "sigma.set", f"0 {sup_sigma}\n")
    argv = ["pair", "norm", "--alpha", "200", "--s", s_path, "--sigma", sigma_path]
    assert cli.main(argv + ["--xmax", str(sup_s)]) == rc
    out, err = capsys.readouterr()
    if rc:
        assert "overflows" in err
    else:
        assert 0.0 < float(out) <= 1.0


@pytest.mark.parametrize("xmax, rc", [("nan", 2), ("inf", 0)])
def test_cli_pair_norm_refuses_a_nan_xmax(tmp_path, capsys, xmax, rc):
    # S fits in no window [0, nan], as it fits in none below sup S; it fits
    # in [0, inf), which leaves the norm as it is
    path = _write(tmp_path / "unit.set", UNIT)
    argv = ["pair", "norm", "--alpha", "0", "--s", path, "--sigma", path]
    assert cli.main(argv + ["--xmax", xmax]) == rc
    out, err = capsys.readouterr()
    if rc:
        assert err == "error: S must be contained in [0, x_max]\n"
    else:
        assert float(out) == pytest.approx(0.9997619967469777, abs=1e-5)


@pytest.mark.parametrize(
    "s_sup, message",
    [
        ("1e308", "a set reaching 1e+308 needs more nodes than a rule holds"),
        ("1e200", "exceeds the cap of 16777216 nodes on one interval"),
    ],
)
def test_cli_pair_norm_refuses_a_set_too_wide_for_a_rule(
    tmp_path, capsys, s_sup, message
):
    # 4 sup S overflowed to inf at 1e308, and ceil(inf) exited 1 with an
    # OverflowError traceback; at 1e200 the rule-size cap refuses it
    s_path = _write(tmp_path / "s.set", f"0 {s_sup}\n")
    sigma_path = _write(tmp_path / "sigma.set", "0 100\n")
    argv = ["pair", "norm", "--alpha", "0", "--s", s_path, "--sigma", sigma_path]
    assert cli.main(argv + ["--xmax", "inf"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


@pytest.mark.parametrize("a, b", [("1", "nan"), ("1", "inf"), ("nan", "1")])
def test_cli_ls_bound_refuses_a_non_finite_width_or_band(capsys, a, b):
    # a NaN a or b printed nan and an infinite one 0, with exit 0
    argv = ["ls", "bound", "--alpha", "0", "--a", a, "--b", b, "--gamma", "0.25"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "a and b must be positive and finite" in err


def test_cli_ls_bound_prints_value_and_log10(capsys):
    rc = cli.main(
        ["ls", "bound", "--alpha", "0", "--a", "1", "--b", "1", "--gamma", "0.25"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    # far below the smallest subnormal: the linear value underflows to zero
    assert float(lines[0]) == 0.0
    assert lines[1].startswith("log10 = ")
    log10 = float(lines[1].split("=")[1])
    assert log10 == pytest.approx(-3870.8439011237092, rel=1e-12)


def test_cli_ls_empirical_matches_library(tmp_path, capsys):
    path = _write(tmp_path / "evens.set", EVENS)
    rc = cli.main(
        [
            "ls",
            "empirical",
            "--alpha",
            "0",
            "--b",
            "1",
            "--omega",
            path,
            "--xmax",
            "10",
        ]
    )
    assert rc == 0
    got = float(capsys.readouterr().out.strip())
    ref = ls_empirical_min_ratio(
        Order(0.0), 1.0, IntervalSet.of([(2 * k, 2 * k + 1) for k in range(5)]), 10.0
    )
    assert 0.0 < got <= 1.0
    assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize(
    "b, xmax", [("nan", "60"), ("inf", "60"), ("1", "nan"), ("1", "inf")]
)
def test_cli_ls_empirical_refuses_a_non_finite_band_or_window(capsys, b, xmax):
    omega = str(CONFIGS / "omega-periodic.set")
    argv = ["ls", "empirical", "--alpha", "0", "--b", b, "--xmax", xmax]
    assert cli.main(argv + ["--omega", omega]) == 2
    assert "must be positive and finite" in capsys.readouterr().err


@pytest.mark.xfail(raises=AssertionError, strict=True)
def test_cli_ls_empirical_on_a_set_starting_just_above_zero(tmp_path, capsys):
    # ROADMAP item 11: on Omega = [1e-12, 1] the first panel takes
    # Gauss-Legendre with x^(2 alpha + 1) folded in, not smooth next to its
    # start, and the command exits 1 ("concentration spectrum escaped
    # [0, 1]: top 1.000007663").  On [0, 1] it prints 3.0055077241566093e-20;
    # the sliver [0, 1e-12] holds ~1e-17 of the measure of [0, 1], so the
    # two minimum ratios agree far within 1e-15
    argv = ["ls", "empirical", "--alpha", "-0.3", "--b", "1", "--xmax", "4"]
    assert cli.main(argv + ["--omega", _write(tmp_path / "at0.set", UNIT)]) == 0
    at_zero = float(capsys.readouterr().out)
    near = _write(tmp_path / "near.set", "1e-12 1\n")
    assert cli.main(argv + ["--omega", near]) == 0
    got = float(capsys.readouterr().out)
    assert 0.0 <= got <= 1.0 and abs(got - at_zero) <= 1e-15


def test_cli_ls_verify_reports_ordering(tmp_path, capsys):
    path = _write(tmp_path / "evens.set", EVENS)
    rc = cli.main(
        [
            "ls",
            "verify",
            "--alpha",
            "0",
            "--a",
            "1",
            "--b",
            "1",
            "--omega",
            path,
            "--gamma",
            "0.2",
            "--xmax",
            "12",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "quantity=gamma-min" in out
    assert "quantity=ls-bound" in out
    assert out.splitlines()[-1] == "PASS: empirical min ratio vs explicit bound"


def _ls_verify_argv(omega, *flags):
    return ["ls", "verify", "--alpha", "0", "--a", "1", "--b", "1", "--omega", omega, *flags]


@pytest.mark.parametrize(
    "b, xmax", [("1", "nan"), ("1", "inf"), ("nan", "60"), ("inf", "60")]
)
def test_cli_ls_verify_refuses_a_non_finite_band_or_window(capsys, b, xmax):
    omega = str(CONFIGS / "omega-periodic.set")
    argv = ["ls", "verify", "--alpha", "0", "--a", "1", "--b", b, "--omega", omega]
    assert cli.main(argv + ["--gamma", "0.25", "--xmax", xmax]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "must be positive and finite" in err


def test_cli_ls_verify_fails_on_a_failed_density_row(tmp_path, capsys):
    # gamma 1/2 is more than the periodic set's 1/4: the density row fails,
    # though the ordering row passes, and ls verify fails as run does
    omega = str(CONFIGS / "omega-periodic.set")
    assert cli.main(_ls_verify_argv(omega, "--gamma", "0.5", "--xmax", "60")) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "quantity=gamma-min argmin=1: value=0.25 reference=0.5"
    assert lines[-1] == "FAIL: 1 of 3 rows failed, first quantity=gamma-min argmin=1"
    cfg = _write(
        tmp_path / "dense.cfg",
        f"name = dense\nrecipe = ls-verify\ngamma = 0.5\nomega_file = {omega}\n"
        "xmax = 60\noutput_dir = .\n",
    )
    assert cli.main(["run", "--config", cfg]) == 1
    assert "dense: 2 of 3 rows passed" in capsys.readouterr().out


def test_cli_run_without_gamma_asks_only_for_relative_density(tmp_path, capsys):
    # the shipped periodic config without its gamma: gamma_min = 1/4 > 0
    omega = str(CONFIGS / "omega-periodic.set")
    cfg = _write(
        tmp_path / "undeclared.cfg",
        f"name = undeclared\nrecipe = ls-verify\nomega_file = {omega}\n"
        "xmax = 60\noutput_dir = .\n",
    )
    assert cli.main(["run", "--config", cfg]) == 0
    assert "undeclared: 3 of 3 rows passed" in capsys.readouterr().out
    lines = (tmp_path / "undeclared.csv").read_text(encoding="utf-8").splitlines()
    assert lines[2] == "undeclared,quantity=gamma-min argmin=1,0.25,0,true"


def test_cli_reports_a_set_that_is_not_relatively_dense(tmp_path, capsys):
    # every window [x - 1, x + 1] with 2 <= x <= 4 misses [0, 1] u [5, 6]:
    # gamma_min = 0, no bound applies, and the density row is the report
    gap = _write(tmp_path / "gap.set", "0 1\n5 6\n")
    assert cli.main(_ls_verify_argv(gap)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "quantity=gamma-min argmin=2: value=0 reference=0",
        "FAIL: 1 of 1 rows failed, first quantity=gamma-min argmin=2",
    ]
    cfg = _write(
        tmp_path / "gap.cfg",
        "name = gap\nrecipe = ls-verify\nomega_file = gap.set\noutput_dir = .\n",
    )
    assert cli.main(["run", "--config", cfg]) == 1
    lines = (tmp_path / "gap.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1:] == [
        "experiment,params,value,reference,passed",
        "gap,quantity=gamma-min argmin=2,0,0,false",
    ]


def test_cli_run_executes_config_and_writes_report(tmp_path, capsys):
    cfg_path = _write(
        tmp_path / "smoke.cfg",
        "name = smoke\nrecipe = kovrijkine\ntrials = 3\nseed = 0x1234\n"
        "output_dir = out\n",
    )
    rc = cli.main(["run", "--config", cfg_path])
    assert rc == 0
    assert "smoke: 3 of 3 rows passed" in capsys.readouterr().out
    lines = (tmp_path / "out" / "smoke.csv").read_text(encoding="utf-8").splitlines()
    assert "seed=4660" in lines[0]
    assert "name=smoke" in lines[0]
    assert len(lines) == 5
    assert all(line.endswith(",true") for line in lines[2:])


def test_cli_run_refuses_an_output_dir_under_a_file(tmp_path, capsys):
    # makedirs raised NotADirectoryError with a traceback (exit 1)
    _write(tmp_path / "afile", "")
    cfg = _write(
        tmp_path / "w.cfg",
        "name = w\nrecipe = kovrijkine\ntrials = 1\noutput_dir = afile/sub\n",
    )
    assert cli.main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    report = tmp_path / "afile" / "sub" / "w.csv"
    assert err.startswith(f"error: cannot write {report}: ")
    assert "Not a directory" in err


def test_cli_transform_refuses_an_unwritable_out(tmp_path, capsys):
    # open() raised NotADirectoryError with a traceback (exit 1)
    data = _write(tmp_path / "in.csv", "0,1\n1,2\n")
    _write(tmp_path / "afile", "")
    out = str(tmp_path / "afile" / "out.csv")
    argv = ["transform", "--alpha", "0", "--in", data, "--support", "0,1", "--out", out]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and "Not a directory" in err


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(["bessel", "eval", "--alpha", "-1.5", "--x", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_count_flags_below_their_minimum_exit_2(tmp_path, capsys):
    cfg_path = _write(
        tmp_path / "smoke.cfg",
        "name = smoke\nrecipe = kovrijkine\ntrials = 1\noutput_dir = out\n",
    )
    argv = ["pw", "bernstein", "--alpha", "0", "--b", "1", "--k", "1", "--trials", "-1"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "trials must be nonnegative" in err


def _main_result(capsys, argv):
    """Exit code, stdout and stderr of one `cli.main` call; argparse's own
    usage errors exit through SystemExit."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


def test_cli_parser_is_built_once_and_reused(tmp_path, capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    path = _write(tmp_path / "unit.set", UNIT)
    calls = [
        ["pair", "norm", "--alpha", "0"],  # usage error: required flags missing
        ["bessel", "eval", "--alpha", "0", "--x", "1,a"],  # usage error in the handler
        ["pair", "norm", "--alpha", "0", "--s", path, "--sigma", path, "--xmax", "1"],
        ["ls", "bound", "--alpha", "0", "--a", "1", "--b", "1", "--gamma", "0.25"],
    ]
    reused = [_main_result(capsys, argv) for argv in calls]
    # a parser built afresh for every call
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_main_result(capsys, argv) for argv in calls]
    assert [rc for rc, _, _ in reused] == [2, 2, 0, 0]
    assert [(rc, out) for rc, out, _ in reused] == [(rc, out) for rc, out, _ in fresh]
    assert "required" in reused[0][2]


def test_cli_convergence_failure_exits_3(tmp_path, capsys, monkeypatch):
    csv = _write(tmp_path / "f.csv", "x,value\n0,1\n1,0\n")

    def stall(*args, **kwargs):
        raise ConvergenceError("refinement stalled", last_iterate=0.5, residual=1e-3)

    monkeypatch.setattr(cli, "translate_batch", stall)
    rc = cli.main(
        ["translate", "--alpha", "1", "--x", "1", "--f", csv, "--y-grid", "0,1,3"]
    )
    assert rc == 3
    assert "refinement stalled" in capsys.readouterr().err


def test_cli_convergence_failure_names_the_residual(tmp_path, capsys, monkeypatch):
    # translate_batch made to refine its theta rule on a step, which never
    # settles: the error line names the residual of the last doubling
    csv = _write(tmp_path / "f.csv", "x,value\n0,1\n1,0\n")
    real = cli.translate_batch
    raised = []

    def stalling(order, x, f, ys, theta_nodes=None):
        step = lambda t: (np.asarray(t) < 1.0).astype(float)
        try:
            return real(order, x, step, ys)
        except ConvergenceError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(cli, "translate_batch", stalling)
    rc = cli.main(
        ["translate", "--alpha", "1", "--x", "1", "--f", csv, "--y-grid", "0,1,3"]
    )
    assert rc == 3
    [exc] = raised
    assert exc.residual > 0
    err = capsys.readouterr().err
    assert err.startswith("error: theta-quadrature did not stabilize")
    assert f"(residual {exc.residual:.3g})" in err


def test_cli_internal_failure_exits_1(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InternalError("consistency check tripped")

    monkeypatch.setattr(cli, "eval_j", broken)
    rc = cli.main(["bessel", "eval", "--alpha", "0", "--x", "1"])
    assert rc == 1
    assert "consistency check tripped" in capsys.readouterr().err


def test_cli_selftest_inject_fault_exits_1(capsys, monkeypatch):
    real_zeros = experiments.zeros_of_j_prime

    def swapped(order, count):
        # two zeros out of order, which zeros_of_j_prime itself would refuse
        zs = np.array(real_zeros(order, count))
        zs[10], zs[11] = zs[11], zs[10]
        return zs

    monkeypatch.setattr(experiments, "zeros_of_j_prime", swapped)
    rc = cli.main(["selftest"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL zero-table" in out
    assert f"1 of {len(_SELFTEST_TABLE) + 1} checks failed" in out
    # the corruption must not cascade into unrelated checks
    assert out.count("PASS") == len(_SELFTEST_TABLE)


def _compact_bump(t, width, poly):
    # one bump per call, as the translation recipe evaluated them before they
    # shared a grid pass
    u = np.asarray(t, dtype=float) / width
    out = np.zeros_like(u)
    inside = (u > 0.0) & (u < 1.0)
    v = u[inside] * (1.0 - u[inside])
    out[inside] = np.exp(4.0 - 1.0 / np.maximum(v, 1e-300)) * np.polyval(
        poly, u[inside]
    )
    return out


@pytest.mark.parametrize("seed", range(12))
def test_bump_family_square_has_the_bits_of_polymul(seed):
    # the square's coefficients come from np.convolve; np.polymul's are the
    # reference, on the recipe's draws and on one with a leading zero
    poly = np.random.default_rng(seed).uniform(-1.0, 1.0, size=3)
    if seed == 0:
        poly[0] = 0.0
    width = 2.0 + seed / 6.0
    s = np.linspace(-0.5, width + 0.5, 2001)
    want = _compact_bump(s, width, np.polymul(poly, poly)) + _compact_bump(
        s, width, np.array([0.1])
    )
    assert np.array_equal(_bump_family(width, poly)(s)[1], want)


@pytest.mark.parametrize("width", [2.0, 3.1, 4.0])
def test_bump_family_is_bit_equal_to_separate_bumps(width):
    poly = np.random.default_rng(5).uniform(-1.0, 1.0, size=3)
    edges = [0.0, width]
    near = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
    s = np.concatenate([np.linspace(-0.5, width + 0.5, 1001), edges, near])
    got = _bump_family(width, poly)(s)
    assert got.shape == (2, len(s))
    assert np.array_equal(got[0], _compact_bump(s, width, poly))
    f_pos = _compact_bump(s, width, np.polymul(poly, poly)) + _compact_bump(
        s, width, np.array([0.1])
    )
    assert np.array_equal(got[1], f_pos)
    # the grid straddles both support edges; next to them e underflows to 0
    inside = (s > 0.0) & (s < width)
    assert np.any(s < 0.0) and np.any(s > width)
    assert np.all(got[:, ~inside] == 0.0)
    assert np.all(got[1, inside] >= 0.0) and np.max(got[1]) > 0.0
