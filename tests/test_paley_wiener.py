import math
import tracemalloc

import numpy as np
import pytest

from hconc.bessel import Order, cached_zero_table, eval_j
from hconc.errors import DomainError
from hconc.measure import IntervalSet, mu_measure
from hconc.paley_wiener import (
    PWFunction,
    apply_Dk_all,
    bernstein_sides,
    dk_coefficients,
    dk_norm,
    extremal_family,
    extremal_norm_sq,
    extremal_peak,
    plancherel_norm,
    random_pw,
    synthesize,
    tail_mass,
    theta_constant,
)
from hconc.quadrature import build_rule, mu_rule
from oracles import apply_Dk


def test_theta_constant_closed_forms():
    assert theta_constant(Order(0.0)) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert theta_constant(Order(1.0)) == pytest.approx(
        (4.0 * math.pi) ** 2 * 2.0, rel=1e-15
    )


def test_pw_function_validation():
    rule = build_rule(0.0, 1.0, 16)
    with pytest.raises(DomainError):
        PWFunction(order=Order(0.0), bandlimit=-1.0, spectral_rule=rule, coeffs=np.ones(16))
    with pytest.raises(DomainError):
        PWFunction(order=Order(0.0), bandlimit=1.0, spectral_rule=rule, coeffs=np.ones(5))
    with pytest.raises(DomainError):
        # rule reaches past the declared bandlimit
        PWFunction(order=Order(0.0), bandlimit=0.5, spectral_rule=rule, coeffs=np.ones(16))


def test_mu_hat_weights_total_mass():
    pw = random_pw(Order(0.5), 2.0, 48, np.random.default_rng(0))
    total = float(np.sum(pw.mu_hat_weights()))
    assert total == pytest.approx(
        mu_measure(Order(0.5), IntervalSet.of([(0.0, 2.0)])), rel=1e-12
    )


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0])
def test_plancherel_vs_physical_norm(alpha):
    # spectral isometry against an independent physical-domain quadrature
    rng = np.random.default_rng(11)
    pw = random_pw(Order(alpha), 1.0, 128, rng, kind="smooth")
    assert plancherel_norm(pw) == pytest.approx(1.0, rel=1e-13)
    x, w = mu_rule(pw.order, IntervalSet.of([(0.0, 40.0)]), 10.0)
    physical = math.sqrt(np.dot(w, synthesize(pw, x) ** 2))
    assert physical == pytest.approx(1.0, rel=1e-7)


def test_synthesize_sequence_matches_members():
    order = Order(0.3)
    rngs = [np.random.default_rng(s) for s in range(3)]
    pws = [random_pw(order, 1.0, 48, rng, kind="smooth") for rng in rngs]
    xs = np.linspace(0.0, 20.0, 101)
    rows = synthesize(pws, xs)
    assert rows.shape == (3, len(xs))
    for row, pw in zip(rows, pws):
        assert np.array_equal(row, synthesize(pw, xs))
    other = random_pw(order, 0.5, 48, np.random.default_rng(3))
    with pytest.raises(DomainError):
        synthesize(pws + [other], xs)
    with pytest.raises(DomainError):
        synthesize(pws + [random_pw(Order(0.0), 1.0, 48, np.random.default_rng(4))], xs)


def test_dk_norm_at_zero_is_plancherel():
    pw = random_pw(Order(0.3), 1.5, 64, np.random.default_rng(1))
    assert dk_norm(pw, 0) == pytest.approx(plancherel_norm(pw), rel=1e-14)


def test_apply_dk_at_zero_is_synthesis():
    pw = random_pw(Order(0.7), 1.0, 64, np.random.default_rng(2))
    xs = np.linspace(0.0, 5.0, 11)
    assert np.max(np.abs(apply_Dk(pw, 0, xs) - synthesize(pw, xs))) < 1e-13


def test_apply_dk_matches_finite_difference():
    # spectral ladder vs (1/2x) d/dx of the synthesis, centered difference
    pw = random_pw(Order(0.5), 1.0, 96, np.random.default_rng(3))
    h = 1e-5
    for x in (0.5, 1.1, 2.3):
        fd = (synthesize(pw, np.array([x + h]))[0] - synthesize(pw, np.array([x - h]))[0]) / (
            2.0 * h
        )
        want = fd / (2.0 * x)
        got = apply_Dk(pw, 1, np.array([x]))[0]
        assert got == pytest.approx(want, rel=1e-6)


def test_dk_norm_matches_physical_quadrature():
    order = Order(0.0)
    pw = random_pw(order, 1.0, 128, np.random.default_rng(4), kind="smooth")
    x, w = mu_rule(order.shifted(1), IntervalSet.of([(0.0, 40.0)]), 10.0)
    phys = float(np.sqrt(np.dot(w, apply_Dk(pw, 1, x) ** 2)))
    assert dk_norm(pw, 1) == pytest.approx(phys, rel=1e-6)


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_apply_dk_all_rows_match_single_order(alpha):
    # arguments 2 pi x xi reach ~30, on both sides of the turning point
    # x = alpha + k of every order of the ladder
    pw = random_pw(Order(alpha), 0.3, 32, np.random.default_rng(7), kind="smooth")
    xs = np.sqrt(np.linspace(0.0, 256.0, 2001))
    rows = apply_Dk_all(pw, dk_coefficients(pw, 8), xs)
    assert rows.shape == (9, len(xs))
    for k in range(9):
        want = apply_Dk(pw, k, xs)
        assert np.max(np.abs(rows[k] - want)) <= 1e-12 * np.max(np.abs(want))
    with pytest.raises(DomainError):
        dk_coefficients(pw, 31)


def test_apply_dk_all_memory_is_chunked():
    # the finest witness grid: 1e5 points in the window around x = 15; an
    # unchunked ladder would hold 9 x 1e5 x 32 doubles, about 230 MB.
    pw = random_pw(Order(0.0), 0.05, 32, np.random.default_rng(8), kind="smooth")
    roots = np.sqrt(np.linspace(14.0**2, 16.0**2, 100_000))
    tracemalloc.start()
    try:
        rows = apply_Dk_all(pw, dk_coefficients(pw, 8), roots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (9, 100_000)
    assert peak <= 40e6


def test_dk_order_bounds():
    pw = random_pw(Order(0.0), 1.0, 16, np.random.default_rng(5))
    with pytest.raises(DomainError):
        dk_norm(pw, 31)
    with pytest.raises(DomainError):
        apply_Dk(pw, -1, np.array([1.0]))


def test_bernstein_sides_ordering_and_equality():
    rng = np.random.default_rng(6)
    for alpha in (-0.5, 0.0, 1.0):
        pw = random_pw(Order(alpha), 1.3, 48, rng)
        lhs0, rhs0 = bernstein_sides(pw, 0)
        assert lhs0 == pytest.approx(rhs0, rel=1e-14)
        for k in (1, 2, 5):
            lhs, rhs = bernstein_sides(pw, k)
            assert lhs <= rhs * (1 + 1e-12)


def test_random_pw_determinism_and_kinds():
    a = random_pw(Order(0.0), 1.0, 32, np.random.default_rng(42))
    b = random_pw(Order(0.0), 1.0, 32, np.random.default_rng(42))
    assert np.array_equal(a.coeffs, b.coeffs)
    with pytest.raises(DomainError):
        random_pw(Order(0.0), 1.0, 32, np.random.default_rng(0), kind="spiky")


def test_indicator_pw_synthesizes_order_shifted_kernel():
    # the normalized indicator spectrum on (0, 1/(2 pi)) synthesizes the
    # order-(alpha+1) kernel: the n = 0 member of the peaked family
    b = 1.0 / (2.0 * math.pi)
    rule = build_rule(0.0, b, 64)
    for alpha in (0.0, 1.0):
        order = Order(alpha)
        coeffs = np.full(len(rule), theta_constant(order))
        pw = PWFunction(order=order, bandlimit=b, spectral_rule=rule, coeffs=coeffs)
        xs = np.linspace(0.0, 12.0, 49)
        got = synthesize(pw, xs)
        want = eval_j(order.shifted(1), xs)
        assert np.max(np.abs(got - want)) < 1e-12


def _spectral_route_family(order: Order, n: int, n_spec: int = 256) -> PWFunction:
    # independent construction: spectrum theta * j_alpha(2 pi s'_n xi) on
    # (0, 1/(2 pi)); its synthesis must reproduce the closed-form family
    b = 1.0 / (2.0 * math.pi)
    rule = build_rule(0.0, b, n_spec)
    s = cached_zero_table(order.alpha, n).s_prime(n)
    coeffs = theta_constant(order) * eval_j(order, 2.0 * math.pi * s * rule.nodes)
    return PWFunction(order=order, bandlimit=b, spectral_rule=rule, coeffs=coeffs)


@pytest.mark.parametrize("alpha,n", [(0.0, 1), (0.0, 4), (1.0, 2), (0.5, 3)])
def test_extremal_family_matches_spectral_route(alpha, n):
    order = Order(alpha)
    pw = _spectral_route_family(order, n)
    xs = np.linspace(0.0, 30.0, 121)
    got = extremal_family(order, n, xs)
    want = synthesize(pw, xs)
    assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize("alpha,n", [(0.0, 1), (1.0, 2), (0.5, 5)])
def test_extremal_norm_matches_spectral_route(alpha, n):
    order = Order(alpha)
    pw = _spectral_route_family(order, n)
    assert plancherel_norm(pw) ** 2 == pytest.approx(
        extremal_norm_sq(order, n), rel=1e-11
    )


def test_extremal_family_peak_and_node_zeros():
    order = Order(0.0)
    table = cached_zero_table(0.0, 8)
    for n in (1, 3):
        s_n = table.s_prime(n)
        peak = extremal_peak(order, n)
        assert extremal_family(order, n, s_n) == pytest.approx(peak, rel=1e-12)
        for m in (1, 2, 4):
            if m == n:
                continue
            val = extremal_family(order, n, table.s_prime(m))
            assert abs(val) < 1e-12 * peak
    # n=0 member is the shifted kernel with unit peak at the origin
    assert extremal_family(order, 0, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert extremal_peak(order, 0) == 1.0


def test_extremal_family_patch_is_continuous():
    # values across the series-patch boundary around the node must agree
    order = Order(1.0)
    n = 2
    s = cached_zero_table(1.0, n).s_prime(n)
    for edge in (s * (1 - 1e-4), s * (1 + 1e-4)):
        left = extremal_family(order, n, edge * (1 - 1e-9))
        right = extremal_family(order, n, edge * (1 + 1e-9))
        assert left == pytest.approx(right, abs=1e-8 * extremal_peak(order, n))


def test_extremal_family_rejects_negative_index():
    with pytest.raises(DomainError):
        extremal_family(Order(0.0), -1, 1.0)


def test_tail_mass_behavior():
    order = Order(0.0)
    masses = [tail_mass(order, 3, a) for a in (2.0, 5.0, 10.0, 40.0)]
    assert all(0.0 <= m <= 1.0 for m in masses)
    assert masses == sorted(masses, reverse=True)
    assert masses[-1] < 0.05
    with pytest.raises(DomainError):
        tail_mass(order, 1, 0.0)
