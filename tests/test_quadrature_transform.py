import math

import numpy as np
import pytest
from scipy.integrate import quad

from hconc.annihilation import pair_norm
from hconc.bessel import Order, eval_j
from hconc import cli, experiments
from hconc.errors import DomainError
from hconc.experiments import ExperimentConfig, run
from hconc.measure import IntervalSet, mu_density_constant, mu_measure
from hconc.quadrature import build_rule, mu_fold, mu_panels, mu_rule, set_rule_size
from hconc import transform
from hconc.transform import kernel_apply, round_trip


def test_build_rule_polynomial_exactness():
    nodes, weights = build_rule(0.5, 3.0, 8)
    for k in range(16):  # degree 2n-1 = 15
        exact = (3.0 ** (k + 1) - 0.5 ** (k + 1)) / (k + 1)
        assert np.dot(weights, nodes**k) == pytest.approx(exact, rel=1e-13)


def test_build_rule_validation():
    with pytest.raises(DomainError):
        build_rule(1.0, 1.0, 8)
    with pytest.raises(DomainError):
        build_rule(0.0, 1.0, 1)
    with pytest.raises(DomainError):
        build_rule(0.0, 1.0, 10**5 + 1)
    with pytest.raises(DomainError):
        build_rule(0.0, float("nan"), 8)


def _set_rule(order, intervals):
    return mu_rule(order, IntervalSet.of(intervals), 20.0)


def _unit_pieces(order, intervals):
    # one mu_panels row per unit piece [lo, lo + 1]
    lo = np.array([a for a, _ in intervals])
    x, w = mu_panels(order, lo, lo + 1.0)
    return x.ravel(), w.ravel()


@pytest.mark.parametrize("beta", [0.0, 0.02, 0.6, 1.0, 1.6])
@pytest.mark.parametrize(
    "rule, intervals, per_unit",
    [
        pytest.param(_set_rule, [(0.0, 1.3), (2.0, 2.5)], 20.0, id="set"),
        pytest.param(
            _unit_pieces, [(0.0, 1.0), (2.0, 3.0), (7.0, 8.0)], 16.0, id="unit-pieces"
        ),
    ],
)
def test_weighted_set_rule_integrates_power_weight(beta, rule, intervals, per_unit):
    # a rule at order alpha = (beta - 1) / 2 integrates against C x^beta
    order = Order(0.5 * (beta - 1.0))
    subset = IntervalSet.of(intervals)
    x, w = rule(order, intervals)
    w = w / mu_density_constant(order)
    assert len(x) == set_rule_size(subset, per_unit)
    for k in (0, 3, 7):
        p = k + beta + 1.0
        exact = sum(hi**p - lo**p for lo, hi in subset.intervals) / p
        assert float(np.dot(w, x**k)) == pytest.approx(exact, rel=1e-13)
    # cos(x) x^beta is not smooth at 0 for non-integer beta; the Jacobi panel
    # takes x^beta as its weight, so the rule keeps full accuracy
    got = float(np.dot(w, np.cos(x)))
    (lo0, hi0), *rest = intervals
    want = quad(np.cos, lo0, hi0, weight="alg", wvar=(beta, 0.0))[0] + sum(
        quad(lambda t: math.cos(t) * t**beta, lo, hi)[0] for lo, hi in rest
    )
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("alpha", [-0.3, 0.3])
@pytest.mark.parametrize("a", [0.0, 1.0, 7.0])
def test_mu_rule_on_one_panel_is_mu_panels(alpha, a):
    order = Order(alpha)
    x, w = mu_rule(order, IntervalSet.of([(a, a + 1.0)]), 16.0)
    px, pw = mu_panels(order, [a], [a + 1.0])
    assert np.array_equal(x, px.ravel()) and np.array_equal(w, pw.ravel())


@pytest.mark.parametrize("alpha", [-0.3, 0.3])
@pytest.mark.parametrize("top, per_unit", [(1.3, 20.0), (8.0, 48.0), (30.0, 12.0)])
def test_mu_rule_origin_panel_is_mu_panels_on_its_edges(alpha, top, per_unit):
    # the first panel of [0, top] takes its half-width from its own edges
    order = Order(alpha)
    subset = IntervalSet.of([(0.0, top)])
    x, w = mu_rule(order, subset, per_unit)
    edges = np.linspace(0.0, top, set_rule_size(subset, per_unit) // 16 + 1)
    px, pw = mu_panels(order, edges[:1], edges[1:2])
    assert np.array_equal(x[:16], px[0]) and np.array_equal(w[:16], pw[0])


# at alpha = -1/2 the density is the constant C = 2: mu_rule's weights are
# 2 dx, and on a panel at 0 its Gauss-Jacobi rule is Gauss-Legendre
HALF = Order(-0.5)


def test_plain_rule_oscillatory_vs_quad():
    nodes, weights = mu_rule(HALF, IntervalSet.of([(0.0, 30.0)]), 12.0)
    val = np.dot(weights / 2.0, np.cos(7.0 * nodes) * np.exp(-0.1 * nodes))
    ref = quad(lambda x: math.cos(7.0 * x) * math.exp(-0.1 * x), 0, 30, limit=400)[0]
    assert val == pytest.approx(ref, abs=1e-12)


def test_plain_rule_weight_total():
    nodes, weights = mu_rule(HALF, IntervalSet.of([(2.0, 9.5)]), 10.0)
    assert np.sum(weights / 2.0) == pytest.approx(7.5, rel=1e-14)
    assert np.all(weights > 0)
    assert np.all((nodes > 2.0) & (nodes < 9.5))


@pytest.mark.parametrize(
    "intervals",
    [[(0.0, 1.0)], [(0.0, 0.01)], [(0.0, 1.5), (2.0, 2.5)], [(0.5, 7.25), (9.0, 30.0)]],
)
@pytest.mark.parametrize("per_unit", [1.0, 16.0, 17.0, 36.5, 96.0, 1000.0])
def test_set_rule_size_counts_the_rule_without_building_it(intervals, per_unit):
    subset = IntervalSet.of(intervals)
    size = set_rule_size(subset, per_unit)
    assert size == len(mu_rule(HALF, subset, per_unit)[0])
    assert size == len(mu_rule(Order(0.3), subset, per_unit)[0])


def test_mu_rule_refuses_more_nodes_than_the_cap_on_one_interval():
    # 2^24 nodes on one interval are the most a rule takes; the sizing is
    # free, so an interval past the cap is refused before any array is made
    order = Order(0.0)
    top = 2**24 / 64.0
    assert len(mu_rule(order, IntervalSet.of([(0.0, 100.0)]), 64.0)[0]) == 6400
    with pytest.raises(DomainError, match="cap of 16777216 nodes"):
        mu_rule(order, IntervalSet.of([(0.0, top + 1.0)]), 64.0)
    # the count is per interval, and set_rule_size only sizes
    assert set_rule_size(IntervalSet.of([(0.0, top + 1.0)]), 64.0) > 2**24


@pytest.mark.parametrize("b", [1e300, 1e-300])
def test_plancherel_at_an_extreme_band_exits_2(tmp_path, capsys, b):
    # x_max = 40 at b = 1e300 with 1e301 nodes per unit, and x_max = 4e301 at
    # b = 1e-300 with 10: 4e302 nodes on one interval either way
    cfg = tmp_path / "pl.cfg"
    cfg.write_text(
        f"name = pl\nrecipe = plancherel\nb = {b!r}\ntrials = 1\noutput_dir = out\n"
    )
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert "4e+302 nodes" in capsys.readouterr().err


def test_pair_norm_sizes_a_far_side_past_the_cap_without_building_it():
    # the spectral side takes 112 nodes, the spatial side would take 1.7e7:
    # only the shorter side's rule is built, so the pair is resolved
    S, Sigma = IntervalSet.of([(0.0, 2.7e5)]), IntervalSet.of([(0.0, 1e-4)])
    assert set_rule_size(S, 64.0) > 2**24
    assert 0.0 <= pair_norm(Order(0.0), S, Sigma) <= 1.0


def test_plain_set_rule_matches_per_interval_quadrature():
    subset = IntervalSet.of([(0.0, 1.0), (2.0, 3.5)])
    nodes, weights = mu_rule(HALF, subset, 20.0)
    weights = weights / 2.0
    assert np.sum(weights) == pytest.approx(2.5, rel=1e-14)
    val = float(np.dot(weights, np.exp(-nodes)))
    ref = sum(quad(lambda x: math.exp(-x), lo, hi)[0] for lo, hi in subset.intervals)
    assert val == pytest.approx(ref, rel=1e-13)
    empty_nodes, empty_weights = mu_rule(HALF, IntervalSet.empty(), 20.0)
    assert len(empty_nodes) == 0 and len(empty_weights) == 0


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.8, 2.0])
def test_mu_weights_total_mass(alpha):
    # mu_fold of a Gauss-Legendre rule away from 0
    order = Order(alpha)
    nodes, weights = build_rule(0.3, 2.1, 48)
    total = float(np.sum(mu_fold(order, nodes, weights)))
    assert total == pytest.approx(
        mu_measure(order, IntervalSet.of([(0.3, 2.1)])), rel=1e-13
    )


@pytest.mark.parametrize("alpha", [-0.5, -0.3, 0.0, 0.3, 0.5, 1.3])
def test_gaussian_is_self_reciprocal(alpha):
    # exp(-pi x^2) is a fixed point of the transform at every order; the
    # Gauss-Jacobi panel at 0 integrates x^(2 alpha + 1) where it is not smooth
    order = Order(alpha)
    x, w = mu_rule(order, IntervalSet.of([(0.0, 8.0)]), 48.0)
    ys = np.linspace(0.0, 3.0, 31)
    got = kernel_apply(order, ys, x, w * np.exp(-np.pi * x**2))
    assert np.max(np.abs(got - np.exp(-np.pi * ys**2))) < 5e-12


def test_forward_matches_direct_quadrature_oracle():
    order = Order(0.7)
    x, w = mu_rule(order, IntervalSet.of([(0.0, 7.0)]), 96.0)
    dens = mu_density_constant(order)
    for y in (0.3, 1.1):
        got = kernel_apply(order, np.array([y]), x, w * np.exp(-(x**2)))[0]
        ref = quad(
            lambda x: math.exp(-x * x)
            * float(eval_j(order, np.array([2.0 * np.pi * x * y]))[0])
            * dens
            * x ** (2 * 0.7 + 1),
            0.0,
            7.0,
            limit=400,
            epsabs=1e-13,
        )[0]
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-10)


@pytest.mark.parametrize("alpha", [-0.5, -0.3, 0.0, 0.3, 1.0])
def test_transform_roundtrip_on_gaussian(alpha):
    order = Order(alpha)
    x, w = mu_rule(order, IntervalSet.of([(0.0, 6.0)]), 34.0)
    f = np.exp(-np.pi * x**2)
    _, [back] = round_trip(order, x, [w * f], x, w)
    assert np.max(np.abs(back - f)) < 1e-10


@pytest.mark.parametrize("alpha", [-0.3, 0.3, 1.7])
def test_mu_rule_weights_sum_to_mu_measure(alpha):
    order = Order(alpha)
    subset = IntervalSet.of([(0.0, 1.5), (2.0, 3.0)])
    nodes, weights = mu_rule(order, subset, 10.0)
    assert np.all((nodes > 0) & (nodes < 3.0))
    assert np.sum(weights) == pytest.approx(mu_measure(order, subset), rel=1e-13)


@pytest.mark.parametrize("chunk", [2_000_000, 1000])
def test_round_trip_matches_forward_and_inverse(monkeypatch, chunk):
    # one kernel pass gives the forward transform and the inverse of its
    # weighted values; a small budget (chunk entries per single-order
    # block) forces many row blocks
    monkeypatch.setattr(transform, "_LADDER_CHUNK", 2 * chunk)
    order = Order(0.3)
    x, wx = mu_rule(order, IntervalSet.of([(0.0, 6.0)]), 40.0)
    xi, wxi = mu_rule(order, IntervalSet.of([(0.0, 3.0)]), 40.0)
    f = np.exp(-np.pi * x**2)
    [hat], [back] = round_trip(order, x, [wx * f], xi, wxi)
    ref_hat = kernel_apply(order, xi, x, wx * f)
    ref_back = kernel_apply(order, x, xi, wxi * ref_hat)
    assert np.allclose(hat, ref_hat, rtol=0, atol=1e-13)
    assert np.allclose(back, ref_back, rtol=0, atol=1e-13)
    # the Gaussian is self-reciprocal and the round trip returns it
    assert np.max(np.abs(hat - np.exp(-np.pi * xi**2))) < 1e-10
    assert np.max(np.abs(back - f)) < 1e-10


def test_coefficient_sets_match_single_set_calls(monkeypatch):
    # m coefficient sets share each kernel block, yet every set keeps its
    # own matrix-vector product: the values are those of m separate calls,
    # here over many row blocks
    monkeypatch.setattr(transform, "_LADDER_CHUNK", 1000)
    order = Order(0.3)
    rng = np.random.default_rng(11)
    x, wx = mu_rule(order, IntervalSet.of([(0.0, 6.0)]), 20.0)
    xi, wxi = mu_rule(order, IntervalSet.of([(0.0, 3.0)]), 20.0)
    sets = rng.standard_normal((5, len(x)))
    hat, back = round_trip(order, x, sets, xi, wxi)
    assert hat.shape == (5, len(xi)) and back.shape == (5, len(x))
    for j, c in enumerate(sets):
        [one_hat], [one_back] = round_trip(order, x, [c], xi, wxi)
        assert np.array_equal(hat[j], one_hat)
        assert np.array_equal(back[j], one_back)
    ladder = rng.standard_normal((4, 5, len(x)))
    got = kernel_apply(order, xi, x, ladder)
    assert got.shape == (4, 5, len(xi))
    for j in range(5):
        assert np.array_equal(got[:, j], kernel_apply(order, xi, x, ladder[:, j]))
    # one order: (1, m, n) against m calls on (n,)
    single = kernel_apply(order, xi, x, ladder[:1])
    for j in range(5):
        assert np.array_equal(single[0, j], kernel_apply(order, xi, x, ladder[0, j]))


@pytest.mark.parametrize("rows", [24, 272, 527])
@pytest.mark.parametrize("sets", [1, 4])
@pytest.mark.parametrize("k_max", [0, 8])
def test_kernel_sums_equal_the_per_set_gemv_loop(k_max, sets, rows):
    # one stacked matmul per block against one gemv per block, order and
    # set, bit for bit; 527 rows of 32 nodes stream in two blocks at k_max 8
    order = Order(0.3)
    rng = np.random.default_rng(29)
    nodes = np.sort(rng.uniform(0.0, 0.3, 32))
    y = np.linspace(0.0, 16.0, rows)
    coeffs = rng.standard_normal((k_max + 1, sets, 32))
    want = np.empty((k_max + 1, sets, rows))
    blocks = list(transform._kernel_blocks(order, k_max, y, nodes))
    assert len(blocks) == (2 if (k_max, rows) == (8, 527) else 1)
    for block, kern in blocks:
        for k in range(k_max + 1):
            for j in range(sets):
                want[k, j, block] = kern[k] @ coeffs[k, j]
    got = transform._kernel_sums(blocks, rows, coeffs)
    assert np.array_equal(got, want)
    if sets == 1:
        # (k_max+1, n): one set per order
        flat = transform._kernel_sums(blocks, rows, coeffs[:, 0])
        assert np.array_equal(flat, want[:, 0])


@pytest.mark.parametrize("width", [1, 400, 640, 5000])
def test_single_order_kernel_blocks_stay_within_budget(width):
    order = Order(0.3)
    nodes = np.linspace(0.1, 5.0, width)
    out_nodes = np.linspace(0.0, 3.0, 1000)
    covered = []
    for block, kern in transform._kernel_blocks(order, 0, out_nodes, nodes):
        assert kern.shape == (1, len(out_nodes[block]), width)
        assert kern[0].size <= transform._LADDER_CHUNK // 2 == 65_536
        covered.extend(range(len(out_nodes))[block])
    assert covered == list(range(len(out_nodes)))


def test_hundred_plancherel_trials_share_one_kernel_pass(tmp_path, monkeypatch):
    # the batch size does not follow the cache-sized kernel blocks: all 100
    # trials go through one round trip, which evaluates each kernel entry once
    trips, entries = [], []
    real_trip, real_ladder = experiments.round_trip, transform.eval_j_ladder

    def counting_trip(order, nodes, coeffs, out_nodes, out_weights):
        trips.append((len(coeffs), len(nodes), len(out_nodes)))
        return real_trip(order, nodes, coeffs, out_nodes, out_weights)

    def counting_ladder(order, k_max, x):
        entries.append(np.size(x))
        return real_ladder(order, k_max, x)

    monkeypatch.setattr(experiments, "round_trip", counting_trip)
    monkeypatch.setattr(transform, "eval_j_ladder", counting_ladder)
    # blocks of 16k entries hold 25 rows of 640: a batch sized by them
    # would split the run into four round trips
    monkeypatch.setattr(transform, "_LADDER_CHUNK", 2 * 16_384)
    cfg = ExperimentConfig(
        "pl", recipe="plancherel", alpha=0.3, trials=100, output_dir=str(tmp_path)
    )
    rows = run(cfg)
    assert len(rows) == 200 and all(r.passed for r in rows)
    assert len(trips) == 1
    sets, n, m = trips[0]
    assert sets == 100
    # the round trip's kernel is n * m entries; synthesis adds one kernel
    # of n rows against each member's 128 spectral nodes
    assert m == 640 and sum(entries) == n * m + n * 128


def test_plancherel_for_gaussian():
    # norm preservation, checked against the closed form of the x-side norm
    order = Order(0.5)
    x, w = mu_rule(order, IntervalSet.of([(0.0, 8.0)]), 30.0)
    f = np.exp(-np.pi * x**2)
    F = kernel_apply(order, x, x, w * f)
    assert np.dot(w, F**2) == pytest.approx(np.dot(w, f**2), rel=1e-12)
    # ||f||^2 = mu_alpha-integral of exp(-2 pi x^2) = 2^-(alpha+1)
    assert np.dot(w, f**2) == pytest.approx(2.0 ** -(order.alpha + 1.0), rel=1e-13)


def test_dilate_is_isometric_and_covariant():
    # the dilation f -> lam^-(alpha+1) f(x / lam) goes with the mu_alpha rule
    # on [0, lam X] of nodes lam x and weights lam^(2 alpha + 2) w
    order = Order(0.3)
    lam = 1.7
    x, w = mu_rule(order, IntervalSet.of([(0.0, 5.0)]), 30.0)
    f = np.exp(-(x**2)) * x
    lam_x, lam_w = mu_rule(order, IntervalSet.of([(0.0, 5.0 * lam)]), 30.0 / lam)
    assert np.allclose(lam_x, lam * x, rtol=1e-14, atol=0)
    assert np.allclose(lam_w, lam ** (2.0 * order.alpha + 2.0) * w, rtol=1e-13, atol=0)
    g = lam ** -(order.alpha + 1.0) * f
    assert np.dot(lam_w, g**2) == pytest.approx(np.dot(w, f**2), rel=1e-13)
    # transform swaps dilation by lam for dilation by 1/lam
    ys = np.linspace(0.1, 2.0, 7)
    lhs = kernel_apply(order, ys, lam_x, lam_w * g)
    rhs = lam ** (order.alpha + 1.0) * kernel_apply(order, lam * ys, x, w * f)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
