import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hconc.bessel import (
    Order,
    ZeroTable,
    cached_zero_table,
    certify_bound,
    eval_j,
    eval_j_ladder,
    zeros_of_j_prime,
)
from hconc import bessel
from hconc.bessel import _direct_j, _kernel_table, _series_cutoff, _series_j
from hconc.errors import DomainError, InternalError
from oracles import (
    eval_j_derivative,
    hankel_j_two_horners,
    series_j_per_term_max,
    table_j_every_route,
    zeros_by_sign_change_64,
)

# 50-digit hypergeometric evaluations 0F1(alpha+1; -x^2/4), frozen
_J_ORACLE = [
    (-0.5, 0.1, 0.9950041652780258),
    (-0.5, 1.0, 0.5403023058681398),
    (-0.5, 4.7, -0.01238866346289056),
    (-0.5, 25.1, 0.9994640538508954),
    (-0.5, 120.3, 0.606234452747418),
    (-0.25, 0.1, 0.9966690468976671),
    (-0.25, 1.0, 0.6897665891000468),
    (-0.25, 4.7, -0.22958673352253692),
    (-0.25, 25.1, 0.33398571168816354),
    (-0.25, 120.3, 0.21469662560138847),
    (0.0, 0.1, 0.99750156206604),
    (0.0, 1.0, 0.7651976865579666),
    (0.0, 4.7, -0.2693307894197528),
    (0.0, 25.1, 0.10827567149994945),
    (0.0, 120.3, 0.07210251905913051),
    (0.5, 0.1, 0.9983341664682815),
    (0.5, 1.0, 0.8414709848078965),
    (0.5, 4.7, -0.21274962926895763),
    (0.5, 25.1, -0.001304198379714953),
    (0.5, 120.3, 0.006610856017807071),
    (1.0, 0.1, 0.9987505207248399),
    (1.0, 1.0, 0.880101171489867),
    (1.0, 4.7, -0.11875775993333419),
    (1.0, 25.1, -0.009134245747762754),
    (1.0, 120.3, 0.00016541010870632395),
    (2.5, 0.1, 0.9992859126683531),
    (2.5, 1.0, 0.9305257801706079),
    (2.5, 4.7, 0.12598845333741301),
    (2.5, 25.1, -8.241033674434413e-05),
    (2.5, 120.3, -6.9808389738892744e-06),
    (7.3, 0.1, 0.9996988356619664),
    (7.3, 1.0, 0.970281105855985),
    (7.3, 4.7, 0.5008351293233995),
    (7.3, 25.1, 3.2345011417845807e-06),
    (7.3, 120.3, 8.077845804559665e-12),
]

# first three positive zeros of the derivative, frozen from 50-digit search
_ZERO_ORACLE = {
    0.0: [3.8317059702075125, 7.015586669815619, 10.173468135062722],
    1.0: [5.135622301840683, 8.417244140399864, 11.619841172149059],
    0.5: [4.493409457909064, 7.725251836937707, 10.904121659428899],
    2.5: [6.98793200050052, 10.417118547379365, 13.698023153249249],
}

_JPRIME_ORACLE = [
    (0.0, 2.3, -0.5398725326043137),
    (1.5, 7.7, 0.05049371924722901),
]


@pytest.mark.parametrize("alpha,x,expected", _J_ORACLE)
def test_eval_j_against_frozen_oracle(alpha, x, expected):
    got = eval_j(Order(alpha), x)
    assert got == pytest.approx(expected, abs=5e-14)


def test_eval_j_even_and_bounded():
    rng = np.random.default_rng(11)
    for alpha in (-0.5, -0.3, 0.0, 1.2, 4.0):
        xs = rng.uniform(0.0, 200.0, size=200)
        vals = eval_j(Order(alpha), xs)
        assert np.all(np.abs(vals) <= 1.0)
        assert np.allclose(vals, eval_j(Order(alpha), -xs), atol=0)
        assert eval_j(Order(alpha), 0.0) == 1.0


def test_series_and_ratio_routes_agree_near_cutoff():
    from scipy import special

    for alpha in (-0.49, 0.0, 0.7, 3.2):
        xs = np.linspace(0.3, 0.8, 101)
        series = _series_j(alpha, xs)
        ratio = 2.0**alpha * math.gamma(alpha + 1.0) * special.jv(alpha, xs) / xs**alpha
        assert np.max(np.abs(series - ratio)) < 1e-13


@pytest.mark.parametrize("alpha", [-0.45, -0.3, 0.0, 0.3, 8.0, 28.0, 150.0])
def test_series_term_count_from_largest_argument_is_bit_exact(alpha):
    # _series_j takes its term count from the largest |x| alone; the oracle
    # stops on the largest |term| over the array after every term.  Arrays
    # of one element, and arrays with 0 and the cutoff's neighbours
    rng = np.random.default_rng(int(1000 * alpha) % 2**32)
    cut = _series_cutoff(alpha)
    edges = [0.0, np.nextafter(cut, 0.0), cut, np.nextafter(cut, np.inf)]
    arrays = [np.array([v]) for v in edges + [1e-300, 1e-9, 0.1 * cut, 0.7 * cut]]
    for size in (2, 3, 17, 400):
        for top in (1e-6, 0.05, 0.5, 1.0):
            x = rng.uniform(0.0, top * cut, size)
            arrays += [x, np.concatenate([x, edges]), -x]
    for x in arrays:
        assert np.array_equal(_series_j(alpha, x), series_j_per_term_max(alpha, x))


@pytest.mark.parametrize("alpha", [-0.45, -0.3, 0.3, 2.3, 8.0, 13.7, 20.5])
def test_table_route_gives_the_bits_of_every_route_evaluation(alpha):
    # eval_j and the two top rows of eval_j_ladder, from which the others
    # follow by a fixed recurrence, against the table route that runs
    # Hankel and Clenshaw on every sub-block and writes the series over the
    # small arguments; arrays of 1 to 40000 elements, mixed and single-band
    rng = np.random.default_rng(29)
    order = Order(alpha)
    tail = _kernel_table(alpha).x_tail

    def want(nu, x):
        return np.clip(table_j_every_route(nu, x), -1.0, 1.0)

    arrays = [np.array([v]) for v in (0.0, 0.25, 0.5, 3.0, float(tail), 80.0)]
    for size in (2, 12, 384, 8192, 40000):
        for top in (0.5, 3.0, tail, 4.0 * tail):
            arrays.append(rng.uniform(0.0, 1.0, size) ** 2 * top)
    for x in arrays:
        assert np.array_equal(eval_j(order, x), want(alpha, x))
        assert np.array_equal(eval_j(order, -x), want(alpha, x))
    x = rng.uniform(0.0, 2.0 * tail, 3000)
    base = order.shifted(-7.0) if alpha > 7.0 else order
    ladder = eval_j_ladder(base, 8, x)
    assert np.array_equal(ladder[8], want(base.shifted(8).alpha, x))
    assert np.array_equal(ladder[7], want(base.shifted(7).alpha, x))


def test_panel_degree_is_the_smallest_under_the_hankel_tolerance():
    # |j_nu^(k)| <= 1 bounds the Chebyshev coefficients of a panel of width
    # h by 2 (h/4)^k / k!: the first dropped one is below the tolerance the
    # Hankel tail works to, and the last kept one is not
    h = 1.0 / bessel._PANELS_PER_UNIT

    def bound(k):
        return 2.0 * (h / 4.0) ** k / math.factorial(k)

    d = bessel._PANEL_DEGREE
    assert bound(d + 1) <= bessel._HANKEL_TOL < bound(d)
    tab = _kernel_table(0.3)
    assert tab.cheb.shape == (d + 1, bessel._PANELS_PER_UNIT * tab.x_tail)


@pytest.mark.parametrize("alpha", [-0.3, 0.3, 2.3, 8.0, 20.5])
def test_hankel_one_loop_gives_the_bits_of_two_horner_loops(alpha):
    # P and Q/x share one Horner loop over a (2, n) array, the shorter row
    # padded with a zero at its top degree (Q at -0.3, 0.3, 8 and 20.5; none
    # at 2.3, where both rows have the same length)
    tab = _kernel_table(alpha)
    rng = np.random.default_rng(31)
    tail = float(tab.x_tail)
    x = np.concatenate(
        [
            [tail, np.nextafter(tail, np.inf), 600.0, 1e8],
            rng.uniform(tail, 4.0 * tail + 100.0, 4000),
            tail + rng.exponential(1e4, 1000),
        ]
    )
    assert np.array_equal(bessel._hankel_j(tab, x), hankel_j_two_horners(alpha, x))


# orders of each route of eval_j: the closed forms, scipy's j0 and j1, the
# table route at small and moderate orders, and jv past the tables
_ROUTE_ALPHAS = (-0.5, -0.3, 0.0, 0.3, 0.5, 1.0, 2.3, 8.0, 28.0, 31.5, 150.0)


@pytest.mark.parametrize("alpha", _ROUTE_ALPHAS)
def test_eval_j_on_mixed_arrays_equals_each_element_alone(alpha):
    # arrays that span every band of the route (series, Clenshaw panels,
    # Hankel tail, jv), with 0, the cutoff's and x_tail's neighbours and
    # negative arguments, give each element the bits it has alone
    order = Order(alpha)
    rng = np.random.default_rng(17)
    cut = _series_cutoff(alpha)
    tab = _kernel_table(alpha)
    tail = tab.x_tail if tab is not None else 40.0
    marks = [0.0, cut, float(tail)]
    near = [np.nextafter(m, d) for m in marks for d in (0.0, np.inf)]
    x = np.concatenate(
        [
            marks,
            near,
            rng.uniform(0.0, cut, 40),
            rng.uniform(cut, tail, 40),
            rng.uniform(tail, 4.0 * tail + 100.0, 40),
        ]
    )
    x = rng.permutation(np.concatenate([x, -x[::7]]))
    together = eval_j(order, x)
    alone = np.array([eval_j(order, float(v)) for v in x])
    assert np.array_equal(together, alone)


@pytest.mark.parametrize("alpha", [-0.3, 0.3, 2.3, 8.0])
def test_table_route_calls_only_the_bands_it_needs(monkeypatch, alpha):
    # an array wholly inside one band of the table route never enters the
    # other two
    order = Order(alpha)
    tab = _kernel_table(alpha)
    cut = _series_cutoff(alpha)
    bands = {
        "_series_j": np.linspace(0.0, np.nextafter(cut, 0.0), 50),
        "_chebyshev_j": np.linspace(cut, np.nextafter(tab.x_tail, 0.0), 50),
        "_hankel_j": np.linspace(tab.x_tail, 3.0 * tab.x_tail, 50),
    }
    want = {name: eval_j(order, x) for name, x in bands.items()}

    def refuse(*args):
        raise AssertionError("route entered with no argument in its band")

    for name, x in bands.items():
        with monkeypatch.context() as m:
            for other in bands:
                if other != name:
                    m.setattr(bessel, other, refuse)
            assert np.array_equal(eval_j(order, x), want[name])
            assert np.array_equal(eval_j(order, -x[::-1]), want[name][::-1])


# mpmath oracle grid: orders alpha + k, k <= 8, on [0, 600] with x = 0, the
# series cutoff 0.5, both sides of alpha + 10, and both sides of every panel
# edge n/4 <= x_tail of the fast route of each order.  At alpha = 25.3 the top
# orders, which seed the ladder, pass the table bound (~29) and take jv.
_MP_ALPHAS = (-0.5, 0.0, 0.3, 1.0, 2.3, 8.3, 25.3)
_MP_KMAX = 8


def _x_tail(nu):
    table = _kernel_table(nu)
    return 0 if table is None else table.x_tail


def _edges(top):
    quarters = np.arange(1, 4 * top + 1) / 4.0
    return (quarters[:, None] + np.array([-1e-9, 1e-9])).ravel()


def _mp_grid(alpha):
    switch = alpha + _MP_KMAX + 2.0
    extra = [0.0, 0.4999, 0.5, switch - 1e-9, switch, switch + 1e-9]
    top = max(_x_tail(alpha + k) for k in range(_MP_KMAX + 2))
    grid = [np.linspace(0.0, 40.0, 81), np.linspace(40.0, 600.0, 29)]
    return np.unique(np.concatenate(grid + [extra, _edges(top)]))


@lru_cache(maxsize=None)
def _mp_j_cached(nu, xs):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return np.array(
            [float(mpmath.hyp0f1(nu + 1, -mpmath.mpf(x) ** 2 / 4)) for x in xs]
        )


def _mp_j(nu, xs):
    return _mp_j_cached(float(nu), tuple(float(x) for x in xs))


def _assert_matches_mpmath(got, want):
    err = np.abs(got - want)
    assert np.max(err) <= 5e-14
    big = np.abs(want) >= 1e-3
    assert np.max(err[big] / np.abs(want[big]), initial=0.0) <= 1e-12


@pytest.mark.parametrize("alpha", _MP_ALPHAS)
def test_eval_j_matches_mpmath(alpha):
    xs = _mp_grid(alpha)
    for k in range(_MP_KMAX + 1):
        _assert_matches_mpmath(eval_j(Order(alpha + k), xs), _mp_j(alpha + k, xs))


@pytest.mark.parametrize("alpha", _MP_ALPHAS)
def test_ladder_matches_mpmath(alpha):
    xs = _mp_grid(alpha)
    ladder = eval_j_ladder(Order(alpha), _MP_KMAX, xs)
    assert ladder.shape == (_MP_KMAX + 1, len(xs))
    for k in range(_MP_KMAX + 1):
        _assert_matches_mpmath(ladder[k], _mp_j(alpha + k, xs))


@pytest.mark.parametrize(
    "nu, fast",
    [(28.5, True), (28.95, True), (29.0, False), (29.5, True), (30.5, False)],
)
def test_eval_j_matches_mpmath_where_jv_takes_over(nu, fast):
    # past x_tail = 64 the order keeps scipy's jv; 28.95 is the last order
    # below 29 with a table, and half-integer orders terminate the expansion
    assert (_kernel_table(nu) is not None) == fast
    top = _x_tail(nu) or 64
    xs = np.unique(np.concatenate([np.linspace(0.0, 600.0, 121), _edges(top)]))
    _assert_matches_mpmath(eval_j(Order(nu), xs), _mp_j(nu, xs))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    alpha=st.floats(-0.5, 30.0, exclude_min=True),
    x=st.floats(0.0, 1000.0),
)
def test_eval_j_property_matches_mpmath(alpha, x):
    _assert_matches_mpmath(eval_j(Order(alpha), np.array([x])), _mp_j(alpha, [x]))


def test_eval_j_fast_route_peak_memory_below_jv_route():
    # 2M arguments spread over the series band, the panels and the tail
    xs = np.linspace(0.0, 500.0, 2_000_000)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    fast = peak(lambda: eval_j(Order(0.3), xs))
    jv_route = peak(lambda: np.clip(_direct_j(0.3, np.abs(xs)), -1.0, 1.0))
    assert fast <= jv_route


@pytest.mark.parametrize("alpha", [100.0, 150.0, 200.0])
def test_eval_j_large_orders_match_mpmath(alpha):
    # 1, 10, 120, both sides of the widened series cutoff, and an x whose
    # x^alpha leaves the range of a double
    cut = _series_cutoff(alpha)
    xs = np.array([1.0, 10.0, 120.0, cut * (1 - 1e-9), cut, 500.0])
    assert eval_j(Order(alpha), xs) == pytest.approx(_mp_j(alpha, xs), rel=1e-11)


def test_eval_j_refuses_orders_above_its_range():
    assert eval_j(Order(300.0), 1.0) == pytest.approx(_mp_j(300.0, [1.0])[0], rel=1e-12)
    with pytest.raises(DomainError, match="alpha <= 300"):
        eval_j(Order(300.5), 1.0)


def test_ladder_shapes_and_validation():
    order = Order(0.3)
    xs = np.array([[0.0, 2.5], [-7.0, 30.0]])
    ladder = eval_j_ladder(order, 3, xs)
    assert ladder.shape == (4, 2, 2)
    for k in range(4):
        assert np.allclose(ladder[k], eval_j(order.shifted(k), xs), rtol=0, atol=5e-14)
    assert eval_j_ladder(order, 2, 1.5).shape == (3,)
    assert np.array_equal(eval_j_ladder(order, 0, xs)[0], eval_j(order, xs))
    # k_max = 1: both rows are the seeds, straight from eval_j
    pair = eval_j_ladder(order, 1, xs)
    assert pair.shape == (2, 2, 2)
    assert np.array_equal(pair[0], eval_j(order, xs))
    assert np.array_equal(pair[1], eval_j(order.shifted(1), xs))
    with pytest.raises(DomainError):
        eval_j_ladder(order, -1, xs)
    with pytest.raises(DomainError):
        eval_j_ladder(order, 4, np.array([1.0, float("nan")]))


def test_ladder_refuses_top_orders_above_300():
    # the ladder is seeded at its top order, so it has eval_j's range
    top = eval_j_ladder(Order(292.0), 8, np.array([1.0, 40.0]))
    assert top[8] == pytest.approx(_mp_j(300.0, [1.0, 40.0]), rel=1e-12)
    with pytest.raises(DomainError, match="alpha <= 300"):
        eval_j_ladder(Order(292.5), 8, np.array([1.0, 40.0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_j0_j1_route_is_exact_and_quiet_at_zero(alpha):
    # j0 and j1 run on the whole array, x = 0 included (2 j1(x) / x is 0/0
    # there), before the series band is written over them
    assert eval_j(Order(alpha), 0.0) == 1.0
    x = np.array([0.0, 1e-3, 0.25, 0.5, 3.0, 0.0, 40.0])
    got = eval_j(Order(alpha), x)
    assert got[0] == got[5] == 1.0
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, eval_j(Order(alpha), -x))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_half_order_is_sin_over_x_on_the_exact_argument():
    # sin x / x divided on x itself; np.sinc(x / pi) rounds x / pi first,
    # which moved the value by up to 5.7e-14 of the 1/x envelope here
    mpmath = pytest.importorskip("mpmath")
    xs = np.linspace(0.5, 500.0, 4001)
    with mpmath.workdps(30):
        want = np.array([float(mpmath.sin(x) / x) for x in xs])
    assert np.max(np.abs(eval_j(Order(0.5), xs) - want) * xs) <= 1e-15
    # 1 at x = 0 (also -0), and quiet there
    got = eval_j(Order(0.5), np.array([0.0, -0.0, 1e-300, 3.0]))
    assert got[0] == got[1] == got[2] == 1.0 and eval_j(Order(0.5), 0.0) == 1.0
    assert got[3] == math.sin(3.0) / 3.0


def test_eval_j_rejects_nonfinite():
    with pytest.raises(DomainError):
        eval_j(Order(0.0), float("nan"))
    with pytest.raises(DomainError):
        eval_j(Order(0.0), np.array([1.0, float("inf")]))


def test_order_validation():
    with pytest.raises(DomainError):
        Order(-0.51)
    assert Order(-0.5).shifted(1).alpha == 0.5


@pytest.mark.parametrize("alpha,x,expected", _JPRIME_ORACLE)
def test_derivative_frozen_oracle(alpha, x, expected):
    assert eval_j_derivative(Order(alpha), x) == pytest.approx(expected, abs=1e-13)


def test_derivative_matches_finite_differences():
    h = 1e-5
    for alpha in (-0.25, 0.0, 1.0, 3.5):
        for x in (0.3, 1.7, 6.2, 19.9):
            order = Order(alpha)
            fd = (eval_j(order, x + h) - eval_j(order, x - h)) / (2 * h)
            assert eval_j_derivative(order, x) == pytest.approx(fd, abs=5e-9)


def test_zeros_match_frozen_oracle():
    for alpha, zs in _ZERO_ORACLE.items():
        table = zeros_of_j_prime(Order(alpha), 3)
        assert np.allclose(table.zeros, zs, rtol=0, atol=1e-12)


def test_zeros_half_order_are_multiples_of_pi():
    table = zeros_of_j_prime(Order(-0.5), 50)
    expected = math.pi * np.arange(1, 51)
    assert np.max(np.abs(table.zeros - expected)) < 1e-10


def test_zero_residuals_small_deep_into_table():
    for alpha in (0.0, 0.7, 5.5):
        order = Order(alpha)
        table = zeros_of_j_prime(order, 400)
        res = np.abs(eval_j_derivative(order, table.zeros))
        # derivative amplitude decays like z^(-alpha-3/2); compare loosely
        assert np.all(res < 1e-11)


@pytest.mark.parametrize("nu", [1.0, 1.3, 1.5, 8.0, 26.0, 151.0])
def test_zero_bisection_stops_early_with_the_bits_of_64_passes(monkeypatch, nu):
    # bisection stops once every bracket is two adjacent doubles, 46 to 51
    # passes at these orders, and gives the bits of all 64 passes
    want = zeros_by_sign_change_64(Order(nu), 64)
    calls = []
    real = bessel.eval_j
    monkeypatch.setattr(bessel, "eval_j", lambda o, x: calls.append(1) or real(o, x))
    got = zeros_of_j_prime(Order(nu - 1.0), 64).zeros
    assert np.array_equal(got, want)
    # one grid pass, the bisection passes and one residual check
    assert len(calls) <= 1 + 51 + 1


def test_zero_table_validation_catches_corruption():
    order = Order(0.3)
    table = zeros_of_j_prime(order, 64)
    zs = np.array(table.zeros)
    zs[5], zs[6] = zs[6], zs[5]
    with pytest.raises(InternalError, match="interlacing"):
        ZeroTable(order=order, zeros=zs)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 15.0, 20.0, 25.0])
def test_zero_table_check_is_centred_on_mcmahon(alpha):
    # the last zero of a correct table sits (4 nu^2 - 1) / (8 beta) below
    # pi (n + (2 alpha + 1)/4), 0.18 pi at alpha = 15 and 0.30 pi at 20 for
    # n = 64, so no fixed slack around pi (n + (2 alpha + 1)/4) accepts it;
    # a table that starts at the second zero must still be rejected
    mpmath = pytest.importorskip("mpmath")
    order = Order(alpha)
    zs = np.array([float(mpmath.besseljzero(alpha + 1.0, k)) for k in range(1, 66)])
    assert len(ZeroTable(order=order, zeros=zs[:64])) == 64
    with pytest.raises(InternalError, match="interlacing"):
        ZeroTable(order=order, zeros=zs[1:])


# mpmath.besseljzero(alpha + 1, k) at 30 digits, frozen: its first call at
# an order near 300 takes seconds
_LARGE_ORDER_ZEROS = {
    173.5: (64, {1: 185.05502382969246, 2: 193.1957771542195, 32: 325.9075292842698,
                 63: 435.8134043099135, 64: 439.2392617672405}),
    201.0: (64, {1: 213.06463712212553, 2: 221.57535308059283, 32: 358.45648593926376,
                 63: 470.35334430956505, 64: 473.8291953171688}),
    298.0: (128, {1: 311.5637146339061, 2: 321.16827582217417, 64: 592.802933383213,
                  127: 812.1788905169457, 128: 815.5566913938081}),
}  # fmt: skip


@pytest.mark.parametrize("alpha", sorted(_LARGE_ORDER_ZEROS))
def test_zero_table_check_holds_at_large_orders(alpha):
    # McMahon's expansion is not uniform in the order: the correct 64th zero
    # of j_174.5 lies 0.16 pi from it.  The invariants in nu must accept the
    # true table, and reject it shifted by one zero or with one left out.
    count, ref = _LARGE_ORDER_ZEROS[alpha]
    order = Order(alpha)
    zs = zeros_of_j_prime(order, count).zeros
    for k, z in ref.items():
        assert zs[k - 1] == pytest.approx(z, rel=1e-12)
    assert len(ZeroTable(order=order, zeros=zs)) == count
    for bad in (zs[1:], np.delete(zs, 1), np.delete(zs, count // 2)):
        with pytest.raises(InternalError, match="interlacing"):
            ZeroTable(order=order, zeros=bad)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "alpha,count",
    [
        (-0.49, 64),
        (0.0, 64),
        (0.7, 64),
        (8.3, 64),
        (22.25, 64),
        (25.0, 64),
        (29.9, 64),
        (50.0, 64),
        (173.5, 40),
    ],
)
def test_zeros_match_mpmath(alpha, count):
    # small orders, where McMahon's expansion is close to the zeros, and
    # large ones, where it lies more than pi/2 above the low zeros; the
    # sign-change scan must find every zero either way
    mpmath = pytest.importorskip("mpmath")
    zs = zeros_of_j_prime(Order(alpha), count).zeros
    ks = range(1, count + 1)
    ref = np.array([float(mpmath.besseljzero(alpha + 1.0, k)) for k in ks])
    assert np.max(np.abs(zs - ref) / ref) < 1e-12


def test_s_prime_indexing():
    table = zeros_of_j_prime(Order(0.0), 10)
    assert table.s_prime(0) == 0.0
    assert table.s_prime(1) == pytest.approx(3.8317059702075125, abs=1e-12)
    with pytest.raises(DomainError):
        table.s_prime(-1)
    with pytest.raises(DomainError):
        table.s_prime(11)


def test_cached_zero_table_growth():
    t1 = cached_zero_table(1.25, 5)
    t2 = cached_zero_table(1.25, 40)
    assert len(t1) >= 5 and len(t2) >= 40
    assert np.allclose(t2.zeros[: len(t1)], t1.zeros, rtol=0, atol=0)


def test_certified_bound_dominates_dense_grid():
    for alpha in (0.0, 0.5, 2.0):
        order = Order(alpha)
        c_alpha = certify_bound(order, 300.0)
        ts = np.linspace(0.0, 300.0, 200_001)
        # the envelope quotient |j_alpha(t)| (1+t)^(alpha+1/2), whose grid
        # maximum the constant bounds within its 5% safety margin
        sup = float(np.max(np.abs(eval_j(order, ts)) * (1.0 + ts) ** (alpha + 0.5)))
        assert sup <= c_alpha <= 1.06 * sup


def test_envelope_amplitude_matches_tail():
    # |j_alpha(t)| * t^(alpha+1/2) oscillates up to the leading amplitude
    # 2^(alpha+1/2) Gamma(alpha+1) / sqrt(pi), overshooting it only by the
    # O(1/t) asymptotic correction
    for alpha in (0.0, 1.0):
        order = Order(alpha)
        amp = 2.0 ** (alpha + 0.5) * math.gamma(alpha + 1.0) / math.sqrt(math.pi)
        ts = np.linspace(300.0, 400.0, 40001)
        scaled = np.abs(eval_j(order, ts)) * ts ** (alpha + 0.5)
        assert np.max(scaled) == pytest.approx(amp, rel=1e-3)
        assert np.max(scaled) <= amp * (1 + 1e-2)


def test_zeros_count_validation():
    with pytest.raises(DomainError):
        zeros_of_j_prime(Order(0.0), 0)
