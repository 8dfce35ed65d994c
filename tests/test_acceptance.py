"""Acceptance gate: every shipped guarantee at its stated tolerance and budget.

Each test prints one PASS/FAIL line with the measured quantity and elapsed
time.  The heavier checks reuse the experiment recipes, so a green run here
certifies the same code paths `hconc run` exercises.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from hconc.annihilation import LSParams, annihilation_constant, ls_bound, pair_norm
from hconc.annihilation import _pass_grams, _sigma_max, strong_pair_trials
from hconc.bessel import Order, eval_j, first_zeros
from hconc.experiments import ExperimentConfig, parse_config, run
from hconc.measure import IntervalSet
from hconc.paley_wiener import (
    PWFunction,
    extremal_family,
    dk_norm,
    extremal_peak,
    theta_constant,
)
from hconc.quadrature import build_rule
from oracles import eval_j_derivative

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _finish(name: str, ok: bool, detail: str, start: float, budget: float) -> None:
    elapsed = time.perf_counter() - start
    ok = bool(ok) and elapsed <= budget
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} {name}: {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"{name}: {detail}"


def test_criterion_01_half_order_closed_forms():
    start = time.perf_counter()
    xs = np.linspace(0.0, 100.0, 4001)
    sinc = np.ones_like(xs)
    sinc[1:] = np.sin(xs[1:]) / xs[1:]
    worst = max(
        float(np.max(np.abs(eval_j(Order(0.5), xs) - sinc))),
        float(np.max(np.abs(eval_j(Order(-0.5), xs) - np.cos(xs)))),
    )
    _finish(
        "criterion-01-half-order-forms",
        worst <= 1e-10,
        f"max deviation {worst:.3e} <= 1e-10 on [0, 100]",
        start,
        1.0,
    )


def _fd_derivative(order: Order, t: float, h: float = 5e-3) -> float:
    # five-point stencil: h^4 truncation against the 1e-8 target
    f = lambda u: float(eval_j(order, u))
    return (-f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)) / (12 * h)


def test_criterion_02_kernel_identity_suite():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (-0.5, 0.0, 0.5, 1.0, 2.3):
        o, o1 = Order(alpha), Order(alpha + 1.0)
        p = 2.0 * alpha + 1.0
        for s in (0.5, 1.0, 3.0):
            for x in (0.7, 2.0):
                t = s * x
                # derivative form against finite differences
                rel = abs(_fd_derivative(o, t) - eval_j_derivative(o, t)) / abs(
                    eval_j_derivative(o, t)
                )
                worst = max(worst, rel)
                # first moment of the kernel has a closed antiderivative
                lhs = quad(
                    lambda u: float(eval_j(o, u * x)) * u**p,
                    0.0,
                    s,
                    epsabs=1e-14,
                    epsrel=1e-12,
                )[0]
                rhs = s ** (p + 1.0) / (p + 1.0) * float(eval_j(o1, s * x))
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
                # squared-kernel mass in terms of boundary values
                jp, j = float(eval_j_derivative(o, t)), float(eval_j(o, t))
                lhs = quad(
                    lambda u: float(eval_j(o, u)) ** 2 * u**p,
                    0.0,
                    t,
                    epsabs=1e-14,
                    epsrel=1e-12,
                )[0]
                rhs = t ** (p + 1.0) / 2.0 * (
                    jp**2 + (2.0 * alpha / t) * jp * j + j**2
                )
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
            # cross product of two dilated kernels, u != v
            u, v = 0.7, 2.0
            lhs = quad(
                lambda w: float(eval_j(o, u * w)) * float(eval_j(o, v * w)) * w**p,
                0.0,
                s,
                epsabs=1e-14,
                epsrel=1e-12,
            )[0]
            rhs = (
                s**p
                / (u * u - v * v)
                * (
                    v * float(eval_j_derivative(o, v * s)) * float(eval_j(o, u * s))
                    - u * float(eval_j_derivative(o, u * s)) * float(eval_j(o, v * s))
                )
            )
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    _finish(
        "criterion-02-kernel-identities",
        worst <= 1e-8,
        f"worst relative defect {worst:.3e} <= 1e-8 over the identity grid",
        start,
        10.0,
    )


def test_criterion_03_plancherel_inversion(tmp_path):
    start = time.perf_counter()
    failed, total = 0, 0
    for alpha in (-0.5, 0.0, 0.5, 1.0):
        cfg = ExperimentConfig(
            name=f"acc-plancherel-{alpha}",
            recipe="plancherel",
            alpha=alpha,
            trials=100,
            output_dir=str(tmp_path),
        )
        rows = run(cfg)
        total += len(rows)
        failed += sum(1 for r in rows if not r.passed)
    _finish(
        "criterion-03-plancherel-inversion",
        failed == 0 and total == 800,
        f"{total - failed} of {total} isometry/roundtrip rows within 1e-7/1e-8",
        start,
        60.0,
    )


def test_criterion_04_translation_suite(tmp_path):
    start = time.perf_counter()
    cfg = ExperimentConfig(
        name="acc-translation",
        recipe="translation",
        trials=50,
        output_dir=str(tmp_path),
    )
    rows = run(cfg)
    failed = sum(1 for r in rows if not r.passed)
    _finish(
        "criterion-04-translation-suite",
        failed == 0 and len(rows) == 300,
        f"{len(rows) - failed} of {len(rows)} product/mass/contraction/"
        "intertwining rows passed on 50 random cases",
        start,
        120.0,
    )


def test_criterion_05_bernstein_inequality(tmp_path):
    start = time.perf_counter()
    failed, total = 0, 0
    for alpha in (-0.5, 0.0, 0.5, 1.3):
        cfg = ExperimentConfig(
            name=f"acc-bernstein-{alpha}",
            recipe="bernstein",
            alpha=alpha,
            trials=125,
            output_dir=str(tmp_path),
        )
        rows = run(cfg)
        total += len(rows)
        failed += sum(1 for r in rows if not r.passed)
    _finish(
        "criterion-05-bernstein",
        failed == 0 and total == 500,
        f"{total - failed} of {total} cases: lhs <= rhs(1+1e-6), k=0 equal to 1e-9",
        start,
        120.0,
    )


def test_criterion_06_extremal_family(tmp_path):
    start = time.perf_counter()
    ok = True
    worst_zero, worst_peak, worst_norm = 0.0, 0.0, 0.0
    spec_nodes, spec_weights = build_rule(0.0, 1.0 / (2.0 * math.pi), 256)
    for alpha in (0.0, 1.0):
        order = Order(alpha)
        cfg = ExperimentConfig(
            name=f"acc-extremal-{alpha}",
            recipe="extremal",
            alpha=alpha,
            trials=20,
            output_dir=str(tmp_path),
        )
        rows = run(cfg)
        ok = ok and all(r.passed for r in rows) and len(rows) == 42
        s_all = np.r_[0.0, first_zeros(order, 20)]
        theta = theta_constant(order)
        for n in range(21):
            s_n = s_all[n]
            peak_ref = extremal_peak(order, n)
            if n >= 1:
                direct = (alpha + 1.0) * float(eval_j(order, s_n)) ** 2
                worst_peak = max(worst_peak, abs(peak_ref - direct) / direct)
            # independent norm: the member's spectral profile is the kernel
            # itself, so Plancherel on that profile measures |f_n|^2
            pw = PWFunction(
                order=order,
                bandlimit=1.0 / (2.0 * math.pi),
                nodes=spec_nodes,
                weights=spec_weights,
                coeffs=theta * eval_j(order, 2.0 * math.pi * s_n * spec_nodes),
            )
            norm_sq = dk_norm(pw, 0) ** 2
            worst_norm = max(worst_norm, abs(norm_sq / theta - peak_ref) / peak_ref)
        zero_rows = [r for r in rows if "quantity=zeros" in r.params]
        worst_zero = max(
            worst_zero, max(r.value / (r.reference / 1e-8) for r in zero_rows)
        )
    ok = ok and worst_peak <= 1e-6 and worst_norm <= 1e-6
    _finish(
        "criterion-06-extremal-family",
        ok,
        f"zeros {worst_zero:.2e} of peak, peak defect {worst_peak:.2e}, "
        f"norm relation defect {worst_norm:.2e} (n <= 20, orders 0 and 1)",
        start,
        60.0,
    )


_SHIPPED_MIN_RATIOS = {
    "ls-periodic-alpha0": 1.977825e-05,
    "ls-periodic-alpha05": 1.956247e-05,
    "ls-sparse-alpha0": 2.381961e-11,
}


def test_criterion_07_main_ordering_shipped_configs(tmp_path):
    start = time.perf_counter()
    ok = True
    details = []
    for stem in sorted(_SHIPPED_MIN_RATIOS):
        cfg = replace(
            parse_config(str(CONFIG_DIR / f"{stem}.cfg")), output_dir=str(tmp_path)
        )
        rows = run(cfg)
        ok = ok and all(r.passed for r in rows)
        empirical = rows[-1].value
        # regression pin on the measured minimum ratio, not part of the
        # ordering requirement itself
        ok = ok and empirical == pytest.approx(_SHIPPED_MIN_RATIOS[stem], rel=1e-3)
        details.append(f"{stem}: min ratio {empirical:.3e} > bound")
    b_knee = math.log(2.0) / (160.0 * math.sqrt(3.0) * math.pi)
    pin = ls_bound(LSParams(gamma=1.0, a=1.0, b=b_knee, order=Order(0.0)))
    ref = (2.0 / 3.0) / 300.0**2
    ok = ok and abs(pin - ref) <= 1e-12 * ref
    details.append(f"constant pin {pin:.6e} vs {ref:.6e}")
    _finish(
        "criterion-07-main-ordering",
        ok,
        "; ".join(details),
        start,
        600.0,
    )


def test_criterion_08_good_bad_decomposition(tmp_path):
    start = time.perf_counter()
    cfg = ExperimentConfig(
        name="acc-good-bad",
        recipe="good-bad",
        trials=50,
        output_dir=str(tmp_path),
    )
    rows = run(cfg)
    failed = sum(1 for r in rows if not r.passed)
    worst_frac = max(r.value for r in rows if "quantity=bad-mass" in r.params)
    _finish(
        "criterion-08-good-bad",
        failed == 0 and len(rows) == 100,
        f"50 trials: worst bad-mass fraction {worst_frac:.3f} <= 1/3 + 0.01, "
        "witness found on every good window (k_max=8)",
        start,
        600.0,
    )


def test_criterion_09_kovrijkine_inequality(tmp_path):
    start = time.perf_counter()
    cfg = ExperimentConfig(
        name="acc-kovrijkine",
        recipe="kovrijkine",
        trials=50,
        output_dir=str(tmp_path),
    )
    rows = run(cfg)
    failed = sum(1 for r in rows if not r.passed)
    _finish(
        "criterion-09-kovrijkine",
        failed == 0 and len(rows) == 50 and "quantity=constant" in rows[0].params,
        f"{len(rows) - failed} of {len(rows)} doubling-inequality cases passed "
        "(one constant profile, 49 random polynomials)",
        start,
        30.0,
    )


def test_criterion_10_annihilation_operators():
    start = time.perf_counter()
    order = Order(0.0)
    unit = IntervalSet.of([(0.0, 1.0)])
    nested = (
        IntervalSet.of([(0.0, 0.6)]),
        unit,
        IntervalSet.of([(0.0, 1.0), (1.5, 2.0)]),
    )
    norms = [pair_norm(order, S, unit) for S in nested]
    ok = all(0.0 <= v <= 1.0 for v in norms)
    # growing the spatial set can only increase the compression norm
    ok = ok and norms[0] <= norms[1] + 5e-6 and norms[1] <= norms[2] + 5e-6
    coarse = pair_norm(order, unit, unit)
    # pair_norm stops at its second pass (scale 2) here; one pass on twice
    # that rule
    fine = _sigma_max(next(_pass_grams(order, unit, unit, (4,))))
    ok = ok and coarse < 1.0 and fine < 1.0 and abs(fine - coarse) <= 1e-5
    const = annihilation_constant(coarse)
    trials = strong_pair_trials(order, unit, unit, const, 1000, 20260814)
    holds = np.all(trials[:, 0] <= trials[:, 1] * (1.0 + 1e-9))
    ok = ok and bool(holds) and trials.shape == (1000, 2)
    _finish(
        "criterion-10-annihilation",
        ok,
        f"nested norms {norms[0]:.6f} <= {norms[1]:.6f} <= {norms[2]:.6f}, "
        f"doubling drift {abs(fine - coarse):.2e} <= 1e-5, "
        "strong inequality held in 1000 sampled trials",
        start,
        300.0,
    )
