"""End-to-end tests: config parsing, CSV reports, recipes, and the CLI."""

import math
from dataclasses import fields

import numpy as np
import pytest

from hconc import __version__, cli, transform
from hconc.annihilation import ls_empirical_min_ratio
from hconc.bessel import Order
from hconc.errors import ConvergenceError, InternalError, UsageError
from hconc.experiments import (
    DEFAULT_SEED,
    ExperimentConfig,
    ReportRow,
    parse_config,
    run,
    selftest,
    write_report,
)
from hconc.measure import IntervalSet

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
        "nodes = 96\n"
        "trials = 7\n"
        "seed = 0x2A\n"
        "omega_file = omega.set\n"
        "output_dir = out\n",
    )
    cfg = parse_config(cfg_path)
    assert cfg.name == "smoke"
    assert cfg.recipe == "ls-verify"
    assert cfg.alpha == 0.5
    assert cfg.a == 2.0
    assert cfg.b == 0.125
    assert cfg.gamma == 0.3
    assert cfg.xmax == 12.5
    assert cfg.nodes == 96
    assert cfg.trials == 7
    assert cfg.seed == 42
    # relative paths resolve against the config's own directory
    assert cfg.omega_file == str(tmp_path / "omega.set")
    assert cfg.output_dir == str(tmp_path / "out")


def test_parse_config_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path / "min.cfg", "name = kovrijkine\n"))
    assert cfg.recipe == "kovrijkine"
    assert cfg.seed == DEFAULT_SEED
    assert cfg.trials == 100
    assert cfg.nodes == 128
    assert cfg.output_dir == "."
    assert cfg.omega_file is None


@pytest.mark.parametrize(
    "text,pattern",
    [
        ("name = smoke\nrecipe kovrijkine\n", r":2: expected"),
        ("name = smoke\nalpha = fast\n", r":2: bad number"),
        ("name = smoke\ntrials = 1.5\n", r":2: bad integer"),
        ("name = smoke\ncolor = red\n", r":2: unknown key"),
        ("alpha = 1.0\n", r"must set a name"),
    ],
)
def test_parse_config_rejects_malformed_lines(tmp_path, text, pattern):
    path = _write(tmp_path / "bad.cfg", text)
    with pytest.raises(UsageError, match=pattern):
        parse_config(path)


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
    with pytest.raises(UsageError, match="nodes"):
        ExperimentConfig(name="kovrijkine", nodes=0)
    with pytest.raises(UsageError, match="omega_file does not exist"):
        ExperimentConfig(name="ls-verify", omega_file=str(tmp_path / "gone.set"))
    # zero trials is a legal smoke configuration
    assert ExperimentConfig(name="kovrijkine", trials=0).trials == 0


def test_recipe_defaults_to_name():
    assert ExperimentConfig(name="bernstein").recipe == "bernstein"


# --------------------------------------------------------------------------
# reports


def test_write_report_provenance_and_format(tmp_path):
    cfg = ExperimentConfig(name="rep", recipe="kovrijkine", output_dir=str(tmp_path))
    rows = [
        ReportRow("rep", "quantity=x trial=0", 0.1, 1.0, True),
        ReportRow("rep", "quantity=y trial=1", 2.0, 3.0, False),
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
def test_reports_deterministic_across_reruns_and_jobs(tmp_path, recipe):
    # plancherel runs its trials in batches that share kernel blocks; --jobs
    # splits them into other batches and must change no value
    cfg = ExperimentConfig(
        name="det", recipe=recipe, trials=4, output_dir=str(tmp_path)
    )
    run(cfg, jobs=1)
    first = (tmp_path / "det.csv").read_bytes()
    run(cfg, jobs=1)
    assert (tmp_path / "det.csv").read_bytes() == first
    run(cfg, jobs=2)
    assert (tmp_path / "det.csv").read_bytes() == first


# --------------------------------------------------------------------------
# recipes


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
        name="pair", recipe="pair-norm", trials=4, xmax=1.0, output_dir=str(tmp_path)
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


@pytest.mark.parametrize("chunk", [2_000_000, 1000])
def test_plancherel_trial_rows_do_not_depend_on_the_batch(
    tmp_path, monkeypatch, chunk
):
    # all trials of a run share the kernel blocks; a trial's rows are the
    # same bytes whichever trials run beside it, also over many row blocks
    monkeypatch.setattr(transform, "_CHUNK", chunk)
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
    # rows are pinned: the in-order witness scan changes no value.
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
        "gb,quantity=bad-mass trial=0 ab=0.05,0.0048038082253847592,0.34333333333333332,true",
        "gb,quantity=witnesses trial=0 ab=0.05,13,13,true",
        "gb,quantity=bad-mass trial=1 ab=0.1,0.016968708009294002,0.34333333333333332,true",
        "gb,quantity=witnesses trial=1 ab=0.1,13,13,true",
        "gb,quantity=bad-mass trial=2 ab=0.3,0,0.34333333333333332,true",
        "gb,quantity=witnesses trial=2 ab=0.3,15,15,true",
    ]


def test_run_guards_unknown_recipe():
    with pytest.raises(UsageError, match="unknown recipe"):
        ExperimentConfig(name="det", recipe="frobnicate")


def test_selftest_rejects_unknown_fault():
    with pytest.raises(UsageError, match="unknown fault"):
        selftest(inject_fault="wobble")


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
            "forward",
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
            "inverse",
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
            "forward",
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


@pytest.mark.parametrize(
    "support,nodes",
    [("-1,1", "256"), ("0,1", "1"), ("0,1", "0"), ("0,1", "100001"), ("1,1", "256")],
)
def test_cli_transform_rejects_bad_support_and_nodes(tmp_path, capsys, support, nodes):
    gauss = _write(tmp_path / "g.csv", "x,value\n0,1\n1,0.5\n")
    out = tmp_path / "out.csv"
    argv = ["transform", "forward", "--alpha", "0.3", "--in", gauss]
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
        ("extremal", "--x-grid", "0,1,-3"),
        ("extremal", "--x-grid", "0,1"),
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
        "transform": ["transform", "forward", "--alpha", "0", "--in", csv]
        + ["--out", out],
        "bessel": ["bessel", "eval", "--alpha", "0"],
    }[command]
    assert cli.main(argv + [flag, text]) == 2
    err = capsys.readouterr().err
    assert f"error: {flag} must be" in err


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


def test_cli_pw_extremal_peak_normalization(capsys):
    rc = cli.main(["pw", "extremal", "--alpha", "0", "--n", "0", "--x-grid", "0,0,1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,value"
    assert lines[1] == "0,1"


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
            "--nodes",
            "48",
        ]
    )
    assert rc == 0
    got = float(capsys.readouterr().out.strip())
    ref = ls_empirical_min_ratio(
        Order(0.0), 1.0, IntervalSet.of([(2 * k, 2 * k + 1) for k in range(5)]), 10.0, 48
    )
    assert 0.0 < got <= 1.0
    assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("cap", ["-5", "-100", "0"])
def test_cli_ls_empirical_rejects_mode_cap_below_one(tmp_path, capsys, cap):
    path = _write(tmp_path / "evens.set", EVENS)
    argv = ["ls", "empirical", "--alpha", "0", "--b", "1", "--omega", path]
    assert cli.main(argv + ["--xmax", "10", "--nodes", cap]) == 2
    assert "n_modes must be >= 1" in capsys.readouterr().err


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
            "--nodes",
            "48",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "quantity=gamma-min" in out
    assert "quantity=ls-bound" in out
    assert out.splitlines()[-1] == "PASS: empirical min ratio vs explicit bound"


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


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(["bessel", "eval", "--alpha", "-1.5", "--x", "1"]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_cli_internal_failure_exits_1(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InternalError("consistency check tripped")

    monkeypatch.setattr(cli, "eval_j", broken)
    rc = cli.main(["bessel", "eval", "--alpha", "0", "--x", "1"])
    assert rc == 1
    assert "consistency check tripped" in capsys.readouterr().err


def test_cli_selftest_inject_fault_exits_1(capsys):
    rc = cli.main(["selftest", "--inject-fault", "zerotable"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL zero-table" in out
    assert "1 of 13 checks failed" in out
    # the corruption must not cascade into unrelated checks
    assert out.count("PASS") == 12
