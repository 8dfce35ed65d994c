import math

import numpy as np
import pytest
from scipy.integrate import quad

from hconc.bessel import Order, eval_j
from hconc.errors import ConvergenceError, DomainError
from hconc.measure import IntervalSet, mu_density_constant
from hconc.quadrature import mu_rule
from hconc import translation
from hconc.transform import kernel_apply
from hconc.translation import make_plan, translate, translate_batch
from oracles import convolve, kernel_W, translate_via_kernel


def _gauss(t):
    return np.exp(-np.pi * np.asarray(t) ** 2)


def _rule(order, hi, nodes_per_unit):
    return mu_rule(order, IntervalSet.of([(0.0, hi)]), nodes_per_unit)


def _bump(t):
    # smooth, compactly supported on (0, 1)
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 0.0) & (t < 1.0)
    u = t[inside]
    out[inside] = np.exp(4.0 - 1.0 / (u * (1.0 - u)))
    return out


@pytest.mark.parametrize("alpha,x,y", [(1.0, 2.0, 3.0), (0.5, 1.3, 0.7), (0.3, 0.9, 2.2)])
def test_two_translation_routes_agree(alpha, x, y):
    # theta-integral route vs kernel-density route, independently derived
    order = Order(alpha)
    plan = make_plan(order)
    via_theta = translate(plan, x, _gauss, y)
    via_kernel = translate_via_kernel(order, x, _gauss, y)
    assert via_theta == pytest.approx(via_kernel, rel=1e-10)


def test_translate_via_kernel_matches_quad_of_density():
    order = Order(1.0)
    x, y = 2.0, 3.0
    dens = mu_density_constant(order)
    lo, hi = abs(x - y), x + y
    ref = quad(
        lambda t: float(_gauss(t)) * kernel_W(order, x, y, t) * dens * t**3,
        lo,
        hi,
        epsabs=1e-13,
        limit=400,
    )[0]
    assert translate_via_kernel(order, x, _gauss, y) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.7])
def test_kernel_density_has_unit_mass(alpha):
    order = Order(alpha)
    x, y = 1.4, 2.3
    lo, hi = abs(x - y), x + y
    dens = mu_density_constant(order)
    # endpoint-singular for alpha < 1/2; split at interior points to help quad
    val, err = quad(
        lambda t: kernel_W(order, x, y, t) * dens * t ** (2 * alpha + 1),
        lo,
        hi,
        points=[lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)],
        epsabs=1e-12,
        limit=400,
    )
    assert val == pytest.approx(1.0, abs=5e-10)


def test_kernel_vanishes_outside_triangle_band():
    order = Order(0.5)
    ts = np.array([0.1, 0.9, 1.0, 4.0, 5.0, 7.0])
    w = kernel_W(order, 2.0, 3.0, ts)
    assert np.all(w[[0, 1, 2]] == 0.0)  # t <= |x-y|
    assert np.all(w[[4, 5]] == 0.0)  # t >= x+y
    assert w[3] > 0.0
    assert isinstance(kernel_W(order, 2.0, 3.0, 2.5), float)


def test_kernel_degenerate_cases():
    with pytest.raises(DomainError):
        kernel_W(Order(-0.5), 1.0, 2.0, 1.5)
    with pytest.raises(DomainError):
        kernel_W(Order(0.5), 0.0, 2.0, 1.5)


def test_translate_constant_is_constant():
    plan = make_plan(Order(0.7))
    ones = lambda t: np.ones_like(np.asarray(t, dtype=float))
    got = translate_batch(plan, 1.9, ones, np.linspace(0.0, 4.0, 9))
    assert np.max(np.abs(got - 1.0)) < 1e-12


def test_translate_at_origin_is_identity():
    plan = make_plan(Order(0.4))
    ys = np.linspace(0.0, 3.0, 7)
    got = translate_batch(plan, 0.0, _gauss, ys)
    assert np.max(np.abs(got - _gauss(ys))) < 1e-15


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_translation_symmetry_in_arguments(alpha):
    plan = make_plan(Order(alpha))
    for x, y in [(0.8, 2.1), (1.5, 1.5), (3.0, 0.2)]:
        assert translate(plan, x, _gauss, y) == pytest.approx(
            translate(plan, y, _gauss, x), rel=1e-11
        )


def test_half_order_two_point_formula():
    plan = make_plan(Order(-0.5))
    x, ys = 1.2, np.array([0.3, 1.2, 2.5])
    got = translate_batch(plan, x, _gauss, ys)
    want = 0.5 * (_gauss(x + ys) + _gauss(np.abs(x - ys)))
    assert np.max(np.abs(got - want)) < 1e-15


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.3])
def test_product_formula_under_transform(alpha):
    # transform of the translate equals j_alpha(2 pi x y) times the transform
    order = Order(alpha)
    plan = make_plan(order)
    x = 1.3
    nodes, w = _rule(order, 9.0, 48.0)
    shifted = translate_batch(plan, x, _gauss, nodes)
    ys = np.linspace(0.1, 2.0, 8)
    lhs = kernel_apply(order, ys, nodes, w * shifted)
    rhs = eval_j(order, 2.0 * np.pi * x * ys) * np.exp(-np.pi * ys**2)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_translation_preserves_mass():
    order = Order(0.5)
    plan = make_plan(order)
    x = 1.7
    # boundary-layer bump needs dense panels for the outer mu-integral
    nodes, w = _rule(order, 3.0, 32.0 * 16.0)
    mass_shifted = float(np.dot(w, translate_batch(plan, x, _bump, nodes)))
    base, base_w = _rule(order, 1.0, 32.0 * 16.0)
    mass = float(np.dot(base_w, _bump(base)))
    assert mass_shifted == pytest.approx(mass, rel=1e-8)


def test_translation_support_window():
    # supp f in [0,1] forces supp T_x f in [x-1, x+1]
    plan = make_plan(Order(0.8))
    got = translate_batch(plan, 3.0, _bump, np.array([0.5, 1.9, 4.1, 6.0]))
    assert np.all(got == 0.0)
    inside = translate_batch(plan, 3.0, _bump, np.array([3.0]))
    assert inside[0] > 0.0


def test_translation_is_lp_contraction():
    order = Order(0.6)
    plan = make_plan(order)
    x = 1.1
    nodes, w = _rule(order, 4.0, 256.0)
    tf = translate_batch(plan, x, _bump, nodes)
    base, base_w = _rule(order, 1.0, 512.0)
    f = _bump(base)
    # L1 and L2 norms against mu_alpha
    assert np.dot(w, np.abs(tf)) <= np.dot(base_w, np.abs(f)) * (1 + 1e-9)
    assert np.dot(w, tf**2) <= np.dot(base_w, f**2) * (1 + 1e-9) ** 2


def test_convolution_with_unit_is_mass_constant():
    order = Order(0.0)
    nodes, w = _rule(order, 6.0, 24.0)
    f = _gauss(nodes)
    ones = lambda t: np.ones_like(np.asarray(t, dtype=float))
    got = convolve(order, nodes, w, f, ones, np.array([0.0, 0.7, 2.5]))
    mass = float(np.dot(w, f))
    assert np.max(np.abs(got - mass)) < 1e-10


def test_convolution_theorem():
    # transform turns convolution into pointwise product
    order = Order(0.5)
    nodes, w = _rule(order, 7.0, 32.0)
    f = _gauss(nodes)
    g = lambda t: np.exp(-2.0 * np.asarray(t, dtype=float) ** 2)
    conv_vals = convolve(order, nodes, w, f, g, nodes)
    ys = np.linspace(0.05, 1.5, 7)
    lhs = kernel_apply(order, ys, nodes, w * conv_vals)
    Ff = kernel_apply(order, ys, nodes, w * f)
    Fg = kernel_apply(order, ys, nodes, w * g(nodes))
    assert np.max(np.abs(lhs - Ff * Fg)) < 1e-6


def test_young_inequality_cases():
    order = Order(0.5)
    nodes, w = _rule(order, 8.0, 32.0)
    f = _gauss(nodes)
    g = lambda t: np.exp(-1.5 * np.asarray(t, dtype=float) ** 2)
    gs = g(nodes)
    conv = convolve(order, nodes, w, f, g, nodes)
    l1 = lambda v: float(np.dot(w, np.abs(v)))
    l2 = lambda v: math.sqrt(np.dot(w, v**2))
    # (1,1,1): equality for nonnegative functions
    assert l1(conv) == pytest.approx(l1(f) * l1(gs), rel=1e-8)
    # (1,2,2): inequality
    assert l2(conv) <= l1(f) * l2(gs) * (1 + 1e-9)


def test_adaptive_refinement_raises_on_discontinuity():
    plan = make_plan(Order(0.5), n_theta=256)
    step = lambda t: (np.asarray(t) < 1.0).astype(float)
    with pytest.raises(ConvergenceError) as exc_info:
        translate_batch(plan, 1.0, step, np.array([1.0]))
    assert exc_info.value.last_iterate is not None
    assert exc_info.value.residual > 0


def test_translate_rejects_negative_arguments():
    plan = make_plan(Order(0.5))
    with pytest.raises(DomainError):
        translate_batch(plan, -1.0, _gauss, np.array([1.0]))
    with pytest.raises(DomainError):
        translate_batch(plan, 1.0, _gauss, np.array([-1.0]))


def test_fixed_rule_mode_skips_refinement():
    plan = make_plan(Order(0.5), n_theta=512)
    ys = np.linspace(0.2, 2.0, 5)
    fixed = translate_batch(plan, 1.1, _gauss, ys, adaptive=False)
    adaptive = translate_batch(plan, 1.1, _gauss, ys)
    assert np.max(np.abs(fixed - adaptive)) < 1e-9


def _spike(t):
    # width 0.005 at t = 1: from x = 1 the theta refinement needs 2048 nodes
    return np.exp(-(((np.asarray(t) - 1.0) / 0.005) ** 2))


def _three_sets(t):
    return np.stack([_gauss(t), _bump(t), np.cos(3.0 * np.asarray(t))])


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.7, 1.7])
@pytest.mark.parametrize("x,adaptive", [(1.3, True), (0.0, True), (1.3, False)])
def test_set_rows_are_bit_equal_to_single_calls(alpha, x, adaptive):
    plan = make_plan(Order(alpha))
    ys = np.linspace(0.0, 2.5, 11)
    got = translate_batch(plan, x, _three_sets, ys, adaptive=adaptive)
    assert got.shape == (3, len(ys))
    for row, f in zip(got, (_gauss, _bump, lambda t: np.cos(3.0 * np.asarray(t)))):
        solo = translate_batch(plan, x, f, ys, adaptive=adaptive)
        assert solo.shape == (len(ys),)
        assert np.array_equal(row, solo)


@pytest.mark.parametrize("alpha", [0.0, 0.7, 1.7])
@pytest.mark.parametrize("n", [256, 512, 4096])
def test_row_blocks_are_bit_equal_to_one_block(monkeypatch, alpha, n):
    # the theta pass runs in row blocks of ys; with ys over more than three
    # blocks, every row is the bits of a pass over the whole grid at once
    plan = make_plan(Order(alpha), n_theta=n)
    ys = np.linspace(0.0, 4.0, 3 * (translation._THETA_BLOCK // n) + 29)
    got = translate_batch(plan, 1.3, _three_sets, ys, adaptive=False)
    assert got.shape == (3, len(ys))
    monkeypatch.setattr(translation, "_THETA_BLOCK", n * len(ys))
    whole = translate_batch(plan, 1.3, _three_sets, ys, adaptive=False)
    assert np.array_equal(got, whole)
    # a y alone runs through a one-row product, which BLAS sums in another
    # order: the same values to rounding
    for i, y in enumerate(ys):
        solo = translate_batch(plan, 1.3, _three_sets, [y], adaptive=False)
        assert np.allclose(got[:, i], solo[:, 0], rtol=0, atol=1e-14)


def test_each_set_stops_at_its_own_doubling():
    order = Order(0.7)
    plan = make_plan(order)
    ys = np.array([0.5, 1.0, 1.5])
    pair = lambda t: np.stack([_gauss(t), _spike(t)])
    got = translate_batch(plan, 1.0, pair, ys)
    gauss_solo = translate_batch(plan, 1.0, _gauss, ys)
    spike_solo = translate_batch(plan, 1.0, _spike, ys)
    assert np.array_equal(got[0], gauss_solo)
    assert np.array_equal(got[1], spike_solo)
    # the spike stops at 2048 nodes, and the Gaussian's 2048-node value is a
    # different float, so a shared stopping rule would change its row
    at_2048 = lambda f: translate_batch(
        make_plan(order, 2048), 1.0, f, ys, adaptive=False
    )
    assert np.array_equal(spike_solo, at_2048(_spike))
    assert not np.array_equal(gauss_solo, at_2048(_gauss))


def test_a_set_that_never_settles_raises_for_the_call():
    plan = make_plan(Order(0.5), n_theta=256)
    step = lambda t: (np.asarray(t) < 1.0).astype(float)
    pair = lambda t: np.stack([_gauss(t), step(t)])
    with pytest.raises(ConvergenceError) as exc_info:
        translate_batch(plan, 1.0, pair, np.array([1.0]))
    assert exc_info.value.last_iterate.shape == (2, 1)
    assert exc_info.value.residual > 0


@pytest.mark.parametrize("alpha", [-0.5, 0.7])
@pytest.mark.parametrize("x", [0.0, 1.3])
def test_empty_ys_give_empty_results(alpha, x):
    plan = make_plan(Order(alpha))
    assert translate_batch(plan, x, _gauss, np.array([])).shape == (0,)
    assert translate_batch(plan, x, _three_sets, []).shape == (3, 0)


@pytest.mark.parametrize(
    "x,ys",
    [(math.nan, [1.0]), (math.inf, [1.0]), (1.0, [0.5, math.nan]), (1.0, [math.inf])],
)
def test_non_finite_arguments_raise_before_any_evaluation(x, ys):
    calls = []

    def f(t):
        calls.append(len(t))
        return _gauss(t)

    with pytest.raises(DomainError, match="finite"):
        translate_batch(make_plan(Order(0.5)), x, f, np.array(ys))
    assert calls == []
