import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hconc.bessel import Order
from hconc.errors import DomainError, UsageError
from hconc.measure import (
    IntervalSet,
    _pi_power_over_gamma,
    _window_masses,
    density_profile,
    density_profile_rows,
    load_interval_set,
    mu_density_constant,
    mu_measure,
)
from oracles import window_masses_by_interval

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_interval_set_sorts_and_merges():
    s = IntervalSet.of([(3.0, 4.0), (0.0, 1.0), (1.0, 2.0)])
    assert s.intervals == ((0.0, 2.0), (3.0, 4.0))
    assert s.length() == 3.0
    assert s.inf() == 0.0 and s.sup() == 4.0


def test_interval_set_validation():
    with pytest.raises(DomainError):
        IntervalSet.of([(1.0, 1.0)])
    with pytest.raises(DomainError):
        IntervalSet.of([(-0.5, 1.0)])
    with pytest.raises(DomainError):
        IntervalSet.of([(0.0, float("inf"))])
    assert IntervalSet.empty().is_empty()


def _member_grid(s: IntervalSet, xs: np.ndarray) -> np.ndarray:
    out = np.zeros(len(xs), dtype=bool)
    for lo, hi in s.intervals:
        out |= (xs >= lo) & (xs <= hi)
    return out


def test_set_algebra_against_membership_oracle():
    rng = np.random.default_rng(42)
    xs = np.linspace(0.0, 12.0, 4801)
    for _ in range(20):
        a = IntervalSet.of(
            [(lo, lo + w) for lo, w in zip(rng.uniform(0, 10, 4), rng.uniform(0.2, 2, 4))]
        )
        b = IntervalSet.of(
            [(lo, lo + w) for lo, w in zip(rng.uniform(0, 10, 3), rng.uniform(0.2, 2, 3))]
        )
        inter = IntervalSet.of(
            [p for lo, hi in b.intervals for p in a.intersect_window(lo, hi).intervals]
        )
        union = IntervalSet.of(a.intervals + b.intervals)
        comp = a.complement_within(0.0, 12.0)
        ma, mb = _member_grid(a, xs), _member_grid(b, xs)
        # open/closed endpoint mismatches affect finitely many grid points
        assert np.sum(_member_grid(inter, xs) != (ma & mb)) <= 16
        assert np.sum(_member_grid(union, xs) != (ma | mb)) <= 16
        assert np.sum(_member_grid(comp, xs) != ~ma) <= 16


def test_window_and_scale_operations():
    s = IntervalSet.of([(0.0, 2.0), (3.0, 5.0)])
    w = s.intersect_window(1.0, 3.5)
    assert w.intervals == ((1.0, 2.0), (3.0, 3.5))


@pytest.mark.parametrize("alpha", [-0.5, -0.2, 0.0, 0.5, 1.0, 3.0])
def test_mu_measure_matches_quadrature(alpha):
    order = Order(alpha)
    subset = IntervalSet.of([(0.1, 0.9), (1.5, 2.7), (4.0, 4.2)])
    dens = mu_density_constant(order)
    ref = sum(
        quad(lambda x: dens * x ** (2 * alpha + 1), lo, hi, epsabs=1e-14)[0]
        for lo, hi in subset.intervals
    )
    assert mu_measure(order, subset) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0])
def test_nu_measure_matches_quadrature(alpha):
    # nu_alpha, the image of mu_alpha under s = x^2, is the mu_alpha mass of
    # the root set; bad_mass_fraction integrates s-windows that way
    order = Order(alpha)
    subset = IntervalSet.of([(0.2, 1.3), (2.0, 2.8)])
    roots = IntervalSet.of([(math.sqrt(a), math.sqrt(b)) for a, b in subset.intervals])
    dens = math.pi ** (alpha + 1.0) / math.gamma(alpha + 1.0)
    ref = sum(
        quad(lambda s: dens * s**alpha, lo, hi, epsabs=1e-14)[0]
        for lo, hi in subset.intervals
    )
    assert mu_measure(order, roots) == pytest.approx(ref, rel=1e-12)


def test_measure_constants_at_large_orders():
    mpmath = pytest.importorskip("mpmath")
    order = Order(200.0)
    with mpmath.workdps(30):
        dens = 2 * mpmath.pi**201 / mpmath.gamma(201)
        mass = mpmath.pi**201 / mpmath.gamma(202) * mpmath.mpf(1.5) ** 402
    assert mu_density_constant(order) == pytest.approx(float(dens), rel=1e-12)
    assert mu_measure(order, IntervalSet.of([(0.0, 1.5)])) == pytest.approx(
        float(mass), rel=1e-12
    )
    # below Gamma's overflow the constant is the plain quotient, bit for bit
    assert mu_density_constant(Order(0.3)) == 2.0 * math.pi**1.3 / math.gamma(1.3)
    # pi^(alpha+1) / Gamma(alpha+1) underflows; 6^402 overflows
    with pytest.raises(DomainError, match="underflows"):
        mu_density_constant(Order(250.0))
    with pytest.raises(DomainError, match="overflows"):
        mu_measure(order, IntervalSet.of([(0.0, 6.0)]))
    with pytest.raises(DomainError, match="overflows"):
        density_profile(order, IntervalSet.of([(0.0, 2.0)]), 1.0, 5.0)


def test_mu_measure_at_half_order_is_twice_length():
    # at alpha = -1/2 the density is the constant 2 (even-extension doubling)
    order = Order(-0.5)
    subset = IntervalSet.of([(0.5, 2.5)])
    assert mu_measure(order, subset) == pytest.approx(4.0, rel=1e-14)


def test_density_profile_periodic_frozen():
    evens = IntervalSet.of([(2 * k, 2 * k + 1) for k in range(30)])
    gmin, argmin = density_profile(Order(0.0), evens, 1.0, 59.0)
    assert gmin == pytest.approx(0.25, abs=1e-14)
    assert argmin == pytest.approx(1.0, abs=1e-12)
    gmin5, argmin5 = density_profile(Order(0.5), evens, 1.0, 59.0)
    assert gmin5 == pytest.approx(0.125, abs=1e-14)
    assert argmin5 == pytest.approx(1.0, abs=1e-12)


def test_density_profile_against_bruteforce_scan():
    rng = np.random.default_rng(7)
    pieces = sorted(rng.uniform(0.0, 20.0, 8))
    subset = IntervalSet.of(
        [(pieces[2 * i], pieces[2 * i + 1]) for i in range(4)]
    )
    order = Order(0.7)
    a = 1.5
    # the default step a/100 = 0.015 divides 18 - a into 1100 steps
    gmin, argmin = density_profile(order, subset, a, 18.0)
    xs = a + 0.015 * np.arange(1101)
    ratios = []
    for x in xs:
        win = IntervalSet.of([(max(x - a, 0.0), x + a)])
        num = mu_measure(order, subset.intersect_window(max(x - a, 0.0), x + a))
        ratios.append(num / mu_measure(order, win))
    k = int(np.argmin(ratios))
    assert gmin == pytest.approx(ratios[k], rel=1e-12)
    assert argmin == pytest.approx(xs[k], abs=1e-9)
    row_xs, row_ratios = density_profile_rows(order, subset, a, 18.0, step=0.01)
    fine = a + 0.01 * np.arange(int((18.0 - a) / 0.01) + 1)
    assert row_xs == pytest.approx(fine, abs=1e-9)
    fine_ratios = [
        mu_measure(order, subset.intersect_window(max(x - a, 0.0), x + a))
        / mu_measure(order, IntervalSet.of([(max(x - a, 0.0), x + a)]))
        for x in fine
    ]
    assert row_ratios == pytest.approx(fine_ratios, rel=1e-12, abs=1e-15)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    alpha=st.floats(-0.5, 3.0),
    ends=st.lists(st.floats(0.0, 50.0), min_size=0, max_size=40, unique=True),
    windows=st.lists(
        st.tuples(st.floats(0.0, 60.0), st.floats(1e-3, 20.0)), min_size=1, max_size=20
    ),
)
def test_window_masses_match_the_per_interval_clip(alpha, ends, windows):
    order = Order(alpha)
    ends = sorted(ends)
    subset = IntervalSet.of(zip(ends[0::2], ends[1::2]))
    lo = np.array([w[0] for w in windows])
    hi = lo + np.array([w[1] for w in windows])
    part, full = _window_masses(order, subset, lo, hi)
    want_part, want_full = window_masses_by_interval(order, subset, lo, hi)
    assert np.array_equal(full, want_full)
    # each closed-form term of either sum is a difference of powers up to
    # hi^p, so both carry rounding of a few units of mu_alpha([0, hi]); a
    # window that holds no whole interval sums the same terms bit for bit
    top = _pi_power_over_gamma(order, alpha + 2.0) * hi ** (2.0 * alpha + 2.0)
    assert np.all(np.abs(part - want_part) <= 1e-14 * top)
    holds_whole = np.zeros(len(lo), dtype=bool)
    for a, b in subset.intervals:
        holds_whole |= (lo <= a) & (b <= hi)
    assert np.array_equal(part[~holds_whole], want_part[~holds_whole])


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 2.0])
def test_window_masses_match_the_per_interval_clip_on_shipped_sets(alpha):
    # the density scans of the shipped ls-verify configs, at their steps
    order = Order(alpha)
    for name, a in (("omega-periodic.set", 1.0), ("omega-sparse.set", 2.0)):
        subset = load_interval_set(str(CONFIGS / name))
        xs = a + a / 100.0 * np.arange(int((subset.sup() - a) / (a / 100.0)) + 1)
        lo, hi = np.maximum(xs - a, 0.0), xs + a
        part, full = _window_masses(order, subset, lo, hi)
        want_part, _ = window_masses_by_interval(order, subset, lo, hi)
        assert np.all(np.abs(part - want_part) <= 1e-14 * full)


def test_density_profile_domain_errors():
    s = IntervalSet.of([(0.0, 1.0)])
    with pytest.raises(DomainError):
        density_profile(Order(0.0), s, 2.0, 1.0)
    with pytest.raises(DomainError):
        density_profile(Order(0.0), s, -1.0, 5.0)
    bad = [(0.0, None), (-1.0, None), (1.0, 0.0), (1.0, -0.5), (math.nan, None)]
    for a, step in bad:
        with pytest.raises(DomainError):
            density_profile_rows(Order(0.0), s, a, 5.0, step)
    with pytest.raises(DomainError):
        density_profile_rows(Order(0.0), s, 1.0, math.nan)


def test_density_profile_rows_shapes():
    s = IntervalSet.of([(0.0, 1.0), (2.0, 3.0)])
    xs, ratios = density_profile_rows(Order(0.0), s, 1.0, 3.0, step=0.5)
    assert len(xs) == len(ratios) == 5
    assert np.all((0.0 <= ratios) & (ratios <= 1.0))


def test_load_interval_set(tmp_path):
    p = tmp_path / "sets.set"
    p.write_text("# comment\n0 1\n\n2.5 3.75\n")
    s = load_interval_set(str(p))
    assert s.intervals == ((0.0, 1.0), (2.5, 3.75))
    bad = tmp_path / "bad.set"
    bad.write_text("0 1\nnot numbers\n")
    with pytest.raises(UsageError, match=":2:"):
        load_interval_set(str(bad))
    with pytest.raises(UsageError):
        load_interval_set(str(tmp_path / "missing.set"))
