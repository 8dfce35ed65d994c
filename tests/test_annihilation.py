import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg

from hconc import annihilation, paley_wiener, transform
from hconc.annihilation import (
    LSParams,
    _piece_integrals,
    _sigma_max,
    annihilation_constant,
    density_necessity_demo,
    good_bad_partition,
    kovrijkine_check,
    ls_bound,
    ls_bound_log10,
    ls_empirical_min_ratio,
    pair_norm,
    strong_pair_trials,
)
from hconc.bessel import Order
from hconc.errors import ConvergenceError, DomainError, InternalError
from hconc.measure import IntervalSet, load_interval_set, mu_density_constant
from hconc.paley_wiener import PWFunction, random_pw
from oracles import (
    ConcentrationMatrix,
    _pair_factor,
    _short_side_gram,
    apply_Dk,
    apply_Dk_all,
    bad_mass_fraction,
    concentration_matrix,
    dk_coefficients,
    grid_witnesses,
    lommel_gram_all_ends,
    mode_count,
    pair_gram,
    pair_nodes,
    pair_rules,
    prolate_deficit,
    sinc_pair_deficit,
    strong_pair_rows_dense,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# value pinned from a converged dense-SVD run of the unit S = Sigma = [0, 1]
# compression at order 0; the doubling loop must land on the same number
_FROZEN_UNIT_NORM = 0.9997619967469777


def test_sigma_max_matches_dense_svd():
    rng = np.random.default_rng(123)
    A = rng.normal(size=(15, 8))
    top = float(np.linalg.svd(A, compute_uv=False)[0])
    assert _sigma_max(A.T @ A) == pytest.approx(top, rel=1e-13)
    # rank 8 of 15: the factorization stops at the rank
    assert _sigma_max(A @ A.T) == pytest.approx(top, rel=1e-13)
    assert _sigma_max(np.zeros((3, 3))) == 0.0


def test_sigma_max_with_roundoff_negative_pivots():
    # rank 3 plus a symmetric perturbation at roundoff size: the trailing
    # pivots come out negative, and the factorization stops before them
    rng = np.random.default_rng(9)
    B = rng.normal(size=(12, 3))
    E = rng.normal(size=(12, 12))
    G = B @ B.T - 1e-16 * (E @ E.T)
    assert np.linalg.eigvalsh(G)[0] < 0.0
    want = math.sqrt(float(np.linalg.eigvalsh(G)[-1]))
    assert _sigma_max(G) == pytest.approx(want, rel=1e-13)
    assert _sigma_max(-np.eye(4)) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sigma_max_rejects_non_finite_gram(bad):
    # unchecked, dpstrf stops at a bad entry as at a small pivot: rank 0 for
    # a NaN on the diagonal, rank 3 of 4 for a bad entry off it, and a number
    # comes back either way
    for k, l in ((0, 0), (2, 3)):
        G = np.eye(4)
        G[k, l] = G[l, k] = bad
        with pytest.raises(InternalError):
            _sigma_max(G)


def test_lambda_min_matches_dense_eigh():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    lam = np.sort(rng.uniform(0.05, 0.95, 12))
    G = (q * lam) @ q.T
    G = 0.5 * (G + G.T)
    conc = ConcentrationMatrix(
        matrix=G,
        omega=IntervalSet.of([(0.0, 1.0)]),
        bandlimit=1.0,
        alpha=0.0,
        x_max=1.0,
        n_modes=12,
    )
    assert conc.eigs[0] == pytest.approx(float(np.linalg.eigvalsh(G)[0]), rel=1e-8)
    assert conc.eigs == pytest.approx(lam, rel=1e-8)


def test_pair_norm_frozen_unit_case():
    unit = IntervalSet.of([(0.0, 1.0)])
    assert pair_norm(Order(0.0), unit, unit) == pytest.approx(
        _FROZEN_UNIT_NORM, abs=1e-5
    )


def test_pair_norm_agrees_with_dense_svd_of_factor():
    pair = (
        Order(0.5),
        IntervalSet.of([(0.0, 1.0), (1.5, 2.0)]),
        IntervalSet.of([(0.0, 1.3)]),
    )
    iterated = pair_norm(*pair)
    dense = float(np.linalg.svd(_pair_factor(*pair, 4), compute_uv=False)[0])
    assert iterated == pytest.approx(dense, abs=5e-6)


def test_pair_norm_empty_sets():
    unit = IntervalSet.of([(0.0, 1.0)])
    assert pair_norm(Order(0.0), IntervalSet.empty(), unit) == 0.0


def test_pair_norm_near_one_for_matched_sets():
    norm = pair_norm(*_pair(0.0, 4.0, 4.0))
    assert 0.999 < norm <= 1.0


def test_pair_norm_monotone_in_spatial_set():
    sigma = IntervalSet.of([(0.0, 1.0)])
    small = pair_norm(Order(0.0), IntervalSet.of([(0.0, 0.5)]), sigma)
    large = pair_norm(Order(0.0), IntervalSet.of([(0.0, 1.0)]), sigma)
    assert small <= large + 5e-6


def _pair(alpha, sup_s, sup_sigma):
    """(order, S, Sigma) of S = [0, sup_s] and Sigma = [0, sup_sigma]."""
    return (
        Order(alpha),
        IntervalSet.of([(0.0, sup_s)]),
        IntervalSet.of([(0.0, sup_sigma)]),
    )


def _pass_gram(pair, scale=1):
    """The Gram of pair_norm's pass at `scale`, as pair_norm builds it."""
    return next(annihilation._pass_grams(*pair, (scale,)))


@pytest.mark.parametrize("sup_s, sup_sigma", [(1.0, 1.3), (3.0, 0.5)])
def test_pair_gram_is_the_short_side_gram_of_factor(sup_s, sup_sigma):
    pair = _pair(0.3, sup_s, sup_sigma)
    A = _pair_factor(*pair)
    dense = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    gram = _pass_gram(pair)
    assert gram.shape == (min(A.shape),) * 2
    assert np.max(np.abs(gram - dense)) <= 1e-13


# (alpha, S, Sigma), each with the set the Gram integrates in closed form
CLOSED_FORM_CASES = [
    (0.3, [(0.2, 0.4)], [(10.0, 10.5)]),  # Sigma, away from 0
    (25.3, [(0.2, 0.3)], [(30.0, 30.2), (31.0, 31.1)]),  # Sigma, away from 0
    (-0.49, [(0.2, 1.0)], [(0.0, 1.3)]),  # Sigma, from 0
    (25.3, [(0.0, 1.0), (1.5, 2.0)], [(30.0, 30.2), (31.0, 31.1)]),  # S, a union
    (-0.49, [(0.0, 1.0), (1.5, 2.0)], [(30.0, 30.2), (31.0, 31.1)]),  # S, a union
    (0.3, [(0.2, 1.0)], [(10.0, 10.5)]),  # S = [0.2, 1]
    (0.3, [(0.0, 0.3), (0.6, 1.0)], [(10.0, 10.5)]),  # S, a union
]
# the cases whose kernel product oscillates slowly enough for mpmath.quad
MPMATH_CASES = [CLOSED_FORM_CASES[0], CLOSED_FORM_CASES[2]]


def _closed_form_pair(alpha, S, Sigma):
    return Order(alpha), IntervalSet.of(S), IntervalSet.of(Sigma)


@pytest.mark.parametrize("alpha, S, Sigma", CLOSED_FORM_CASES)
def test_pair_gram_closed_form_matches_fine_factor(alpha, S, Sigma):
    # the other side's sum at 4x the first pass's rule is converged to
    # ~1e-13 here, while the first pass's rule is off by up to 1e-7 in the
    # fourth case
    pair = _closed_form_pair(alpha, S, Sigma)
    gram = _pass_gram(pair)
    fine = _short_side_gram(*pair, 4)
    assert gram.shape == fine.shape
    assert np.max(np.abs(gram - fine)) <= 1e-13


@pytest.mark.parametrize("alpha, S, Sigma", MPMATH_CASES)
def test_pair_gram_closed_form_entries_match_mpmath_quad(alpha, S, Sigma):
    mpmath = pytest.importorskip("mpmath")
    pair = _closed_form_pair(alpha, S, Sigma)
    gram = _pass_gram(pair)
    t, s, far = pair_nodes(*pair)
    n = len(t)
    with mpmath.workdps(20):
        a = mpmath.mpf(alpha)
        dens = 2 * mpmath.pi ** (a + 1) / mpmath.gamma(a + 1)
        for k, l in [(0, 0), (n // 2, n // 2 + 1), (1, n - 1)]:
            ak, al = 2 * mpmath.pi * t[k], 2 * mpmath.pi * t[l]

            def f(y):
                jk = mpmath.hyp0f1(a + 1, -((ak * y) ** 2) / 4)
                jl = mpmath.hyp0f1(a + 1, -((al * y) ** 2) / 4)
                return jk * jl * dens * y ** (2 * a + 1)

            ref = 0
            for lo, hi in far.intervals:
                # pieces shorter than a period of the product
                pieces = 1 + math.ceil((hi - lo) * (t[k] + t[l]))
                ref += mpmath.quad(f, mpmath.linspace(lo, hi, pieces + 1))
            assert gram[k, l] == pytest.approx(float(ref * s[k] * s[l]), abs=1e-14)


def _dense_pair_norm(pair):
    """pair_norm's node-doubling loop on dense svdvals of the whole factor."""
    prev = float(linalg.svdvals(_pair_factor(*pair))[0])
    for doubling in range(1, 5):
        cur = float(linalg.svdvals(_pair_factor(*pair, 2**doubling))[0])
        if abs(cur - prev) <= 1e-6:
            return min(cur, 1.0)
        prev = cur
    raise AssertionError("dense reference did not stabilize")


# inputs on which power iteration stalled: the top singular values cluster at 1
STALL_CASES = [(0.0, 4.0, 2.0), (0.3, 2.0, 2.0), (1.0, 3.0, 1.0)]


@pytest.mark.parametrize("alpha, sup_s, sup_sigma", STALL_CASES)
def test_pair_norm_clustered_top_spectrum(alpha, sup_s, sup_sigma):
    pair = _pair(alpha, sup_s, sup_sigma)
    norm = pair_norm(*pair)
    assert 0.999999 < norm <= 1.0
    assert norm == pytest.approx(_dense_pair_norm(pair), abs=1e-6)


# the top spectrum of S = Sigma = [0, 3] clusters at 1 so tightly that
# LAPACK's dstemr, asked for the top eigenvalue of the rank-27 core alone,
# fails with an internal error
@pytest.mark.parametrize(
    "alpha, sup_s, sup_sigma", STALL_CASES + [(0.0, 3.0, 3.0), (0.0, 15.0, 15.0)]
)
def test_sigma_max_matches_dense_eigvalsh_on_pair_grams(alpha, sup_s, sup_sigma):
    # the Grams of pair_norm's first pass, n = 128, 128, 64, 192 and 1392
    # (rank 468 at the last); eigvalsh runs on a copy, since _sigma_max
    # factors its argument in place
    gram = _pass_gram(_pair(alpha, sup_s, sup_sigma))
    want = math.sqrt(float(linalg.eigvalsh(gram)[-1]))
    assert _sigma_max(gram.copy()) == pytest.approx(want, rel=1e-13)


def test_pair_gram_and_sigma_max_hold_one_gram():
    # S = Sigma = [0, 15] at alpha = 0: n = 1392 on the first pass and 2n on
    # the second.  Each Gram is built and factored in place, and dropped
    # before the next is built, so beside the 2n x 2n array only row blocks,
    # the rank-r slice of the factor and the r x r core are held (1.12 times
    # the 2n x 2n array in all); the n x n Gram of the first pass, still
    # held, would add a quarter
    pair = _pair(0.0, 15.0, 15.0)
    n = len(pair_nodes(*pair)[0])
    assert n == 1392
    tracemalloc.start()
    try:
        # as pair_norm consumes them
        norms = list(map(_sigma_max, annihilation._pass_grams(*pair, (1, 2))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(norms) == 2
    assert peak <= 1.2 * (2 * n) ** 2 * 8


@pytest.mark.parametrize("alpha", [-0.49, -0.4, -0.3])
def test_pair_norm_converges_for_orders_near_minus_half(alpha):
    # x^(2 alpha + 1) is not smooth at 0 here; on a Gauss-Legendre rule the
    # norm moved by ~1e-5 per doubling and never met the 1e-6 stability test
    pair = _pair(alpha, 1.0, 3.0)
    norm = pair_norm(*pair)
    assert 0.99 < norm <= 1.0
    assert norm == pytest.approx(_dense_pair_norm(pair), abs=1e-6)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    alpha=st.floats(-0.5, 2.0),
    sup_s=st.floats(0.2, 3.0),
    sup_sigma=st.floats(0.2, 3.0),
)
def test_pair_norm_property_matches_dense_svd(alpha, sup_s, sup_sigma):
    pair = _pair(alpha, sup_s, sup_sigma)
    norm = pair_norm(*pair)
    assert 0.0 <= norm <= 1.0
    assert norm == pytest.approx(_dense_pair_norm(pair), abs=1e-6)


# 1-3 intervals in [0, 3], each at least 0.05 long, the first starting at 0
# or at 0.05 or above: `mu_rule` takes its Gauss-Jacobi origin panel only for
# a set that starts at 0, and a set starting just above 0 is not resolved
# (see the xfail test below)
_SPATIAL_ENDS = (
    st.integers(1, 3)
    .flatmap(lambda n: st.lists(st.floats(0.0, 3.0), min_size=2 * n, max_size=2 * n, unique=True))
    .map(lambda ends: [0.0 if e < 0.05 else e for e in sorted(ends)])
    .filter(lambda ends: min(np.diff(ends)[::2]) >= 0.05)
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    alpha=st.sampled_from([-0.3, 0.0, 0.3, 1.0]),
    ends=_SPATIAL_ENDS,
    sup_sigma=st.floats(0.2, 2.0),
    t=st.sampled_from([0.5, 2.0, 3.0]),
)
def test_pair_norm_dilation_covariance(alpha, ends, sup_sigma, t):
    # f -> f(. / t) maps PW_alpha(Sigma) onto PW_alpha(Sigma / t) and
    # restriction to S onto restriction to tS, so the norms are equal.  Each
    # side stops doubling once two passes agree to _STABILITY_TOL, and the
    # resolution floors depend on sup S, so the two sides run on different
    # rules and may each sit up to that tolerance from the limit
    def norm(scale):
        S = IntervalSet.of([(scale * a, scale * b) for a, b in zip(ends[::2], ends[1::2])])
        Sigma = IntervalSet.of([(0.0, sup_sigma / scale)])
        return pair_norm(Order(alpha), S, Sigma)

    assert norm(t) == pytest.approx(norm(1.0), abs=2 * annihilation._STABILITY_TOL)


@pytest.mark.xfail(raises=ConvergenceError, strict=True)
def test_pair_norm_resolves_a_set_starting_just_above_zero():
    # known defect: S = [1e-6, 1/2] takes Gauss-Legendre panels with the
    # density x^(2 alpha + 1) folded in, not smooth next to the panel's
    # start at alpha = -0.3, and node doubling does not settle; S = [0, 1/2]
    # takes the Gauss-Jacobi origin panel and converges
    def norm(lo):
        S = IntervalSet.of([(lo, 0.5)])
        Sigma = IntervalSet.of([(0.0, 2.0)])
        return pair_norm(Order(-0.3), S, Sigma)

    assert norm(1e-6) == pytest.approx(norm(0.0), abs=1e-5)


# (S, Sigma) from 0, above 0, and unions from 0 and above it, on either side
OPENING_SETS = [
    ([(0.0, 1.7)], [(0.0, 1.1)]),
    ([(0.3, 1.9)], [(0.2, 1.4)]),
    ([(0.0, 0.8), (1.2, 2.1)], [(0.0, 1.3)]),
    ([(0.4, 1.6)], [(0.0, 0.6), (0.9, 1.8)]),
    ([(0.0, 0.7), (1.1, 1.9)], [(0.25, 0.9), (1.3, 2.2)]),
]


def _pair_norm_pass_by_pass(pair):
    """pair_norm's loop with each pass's Gram from its own `pair_gram`."""
    prev = _sigma_max(pair_gram(*pair))
    for doubling in range(1, 5):
        cur = _sigma_max(pair_gram(*pair, 2**doubling))
        if abs(cur - prev) <= 1e-6:
            return min(cur, 1.0)
        prev = cur
    raise AssertionError("pass-by-pass loop did not stabilize")


# 30.5 and 31.5 take scipy's jv, whose normaliser branch follows the largest
# argument of a call
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0, 30.5])
@pytest.mark.parametrize("S, Sigma", OPENING_SETS)
def test_merged_opening_passes_give_the_bits_of_separate_passes(alpha, S, Sigma):
    # the first two passes share one rule call and one eval_j call per order
    pair = (Order(alpha), IntervalSet.of(S), IntervalSet.of(Sigma))
    grams = annihilation._pair_grams(*pair)
    for scale in (1, 2):
        assert np.array_equal(next(grams), pair_gram(*pair, scale))
    assert pair_norm(*pair) == _pair_norm_pass_by_pass(pair)


@pytest.mark.parametrize("alpha", [-0.3, 0.0, 0.3, 0.5, 1.0, 30.5])
@pytest.mark.parametrize(
    "far",
    [
        [(0.0, 1.7)],
        [(0.0, 0.8), (1.2, 2.1)],
        [(0.0, 0.5), (0.9, 1.4), (2.0, 3.1)],
        [(0.3, 1.9)],
        [(0.25, 0.9), (1.3, 2.2)],
    ],
)
def test_lommel_gram_without_zero_weight_ends_matches_all_ends(alpha, far):
    # an end at 0 has weight c(0) = 0; leaving it out of the kernel calls
    # keeps every bit, also where its zero row entered the dgemv sum
    order, far = Order(alpha), IntervalSet.of(far)
    t, w = annihilation.mu_rule(order, IntervalSet.of([(0.0, 1.3)]), 64)
    s = np.sqrt(w)
    [gram] = annihilation._lommel_grams(order, [(far, t, s)])
    assert np.array_equal(gram, lommel_gram_all_ends(order, far, t, s))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.3])
def test_strong_pair_trials_match_the_all_ends_gram(monkeypatch, alpha):
    order = Order(alpha)
    S = IntervalSet.of([(0.0, 0.6), (1.0, 1.5)])
    Sigma = IntervalSet.of([(0.0, 1.2)])
    rows = strong_pair_trials(order, S, Sigma, 4.0, trials=20, seed=3)

    def all_ends(order, parts):
        return (lommel_gram_all_ends(order, *part) for part in parts)

    monkeypatch.setattr(annihilation, "_lommel_grams", all_ends)
    want = strong_pair_trials(order, S, Sigma, 4.0, trials=20, seed=3)
    assert np.array_equal(rows, want)


def test_a_side_whose_rule_size_overflows_is_refused():
    # 4 sup overflows to inf: ceil raised OverflowError in both places
    order = Order(0.0)
    unit, wide = IntervalSet.of([(0.0, 1.0)]), IntervalSet.of([(0.0, 1e308)])
    for call in (
        lambda: pair_norm(order, wide, unit),
        lambda: pair_norm(order, unit, wide),
        lambda: strong_pair_trials(order, wide, unit, 4.0, trials=2, seed=3),
    ):
        with pytest.raises(DomainError, match="needs more nodes than a rule holds"):
            call()


@pytest.mark.parametrize("Sigma", [[(0.0, 1.2)], [(0.3, 0.8), (1.0, 1.4)]])
def test_strong_pair_trials_build_both_rules_in_one_call(monkeypatch, Sigma):
    # the rules on Sigma and on the rest of [0, 2 sup Sigma] come from one
    # mu_rules call, with the bits of a mu_rule call each; the trials take
    # the constant they are given and compute none
    order, S, Sigma = Order(0.3), IntervalSet.of([(0.0, 1.5)]), IntervalSet.of(Sigma)
    calls = []
    real_rules = annihilation.mu_rules

    def recording_rules(order, parts):
        calls.append(real_rules(order, parts))
        return calls[-1]

    def no_constant(norm):
        raise AssertionError("strong_pair_trials computed a constant")

    monkeypatch.setattr(annihilation, "mu_rules", recording_rules)
    monkeypatch.setattr(annihilation, "annihilation_constant", no_constant)
    strong_pair_trials(order, S, Sigma, 4.0, trials=3, seed=1)
    [[inside, outside]] = calls
    per_unit = math.ceil(4.0 * S.sup()) + 16
    big = 2.0 * Sigma.sup()
    for (x, w), part in zip(
        (inside, outside),
        (Sigma.intersect_window(0.0, big), Sigma.complement_within(0.0, big)),
    ):
        want_x, want_w = annihilation.mu_rule(order, part, per_unit)
        assert np.array_equal(x, want_x) and np.array_equal(w, want_w)


@pytest.mark.parametrize("sup", [1.0, 10.0])
def test_pair_norm_doubling_doubles_the_rule_in_use(monkeypatch, sup):
    # the resolution floor 4 sup + 32 nodes per unit used to absorb the
    # doubled budget: both passes then ran on one rule, and the stability
    # check compared a value with itself.  The first pass takes 64 nodes per
    # unit at sup = 1 and the floor, 72, at sup = 10.  Each pass picks its
    # side once (`_pair_side`) and hands one part to `_lommel_grams`
    per_unit, sizes = [], []
    real_side, real_grams = annihilation._pair_side, annihilation._lommel_grams

    def recording_side(*args):
        near, nodes_per_unit, far = real_side(*args)
        per_unit.append(nodes_per_unit)
        return near, nodes_per_unit, far

    def recording_grams(order, parts):
        sizes.extend(len(t) for _, t, _ in parts)
        return real_grams(order, parts)

    monkeypatch.setattr(annihilation, "_pair_side", recording_side)
    monkeypatch.setattr(annihilation, "_lommel_grams", recording_grams)
    assert 0.0 < pair_norm(*_pair(0.0, sup, sup)) <= 1.0
    # one rule per pass, the one in use
    assert len(per_unit) == len(sizes) >= 2
    assert per_unit[0] == max(64, math.ceil(4 * sup) + 32)
    for n0, n1 in zip(per_unit, per_unit[1:]):
        assert n1 == 2 * n0
    for n0, n1 in zip(sizes, sizes[1:]):
        assert n1 > n0


@pytest.mark.parametrize(
    "S, Sigma",
    [
        ([(0.0, 1.0)], [(0.0, 1.0)]),
        ([(0.0, 0.5)], [(0.0, 3.0)]),
        ([(0.0, 1.5), (2.0, 2.5)], [(0.0, 1.0)]),
        ([(0.0, 6.0)], [(0.5, 1.5)]),
    ],
)
def test_pair_nodes_builds_the_shorter_rule_only(monkeypatch, S, Sigma):
    # set_rule_size sizes both sides; the one rule a pass builds is the
    # shorter of the two that the dense reference builds (Sigma's on a tie),
    # bit for bit
    calls = []
    real_rules = annihilation.mu_rules

    def recording_rules(order, parts):
        calls.append(real_rules(order, parts))
        return calls[-1]

    monkeypatch.setattr(annihilation, "mu_rules", recording_rules)
    order, S, Sigma = Order(0.3), IntervalSet.of(S), IntervalSet.of(Sigma)
    for scale in (1, 2):
        calls.clear()
        next(annihilation._pass_grams(order, S, Sigma, (scale,)))
        [[(t, w)]] = calls
        far = annihilation._pair_side(S, Sigma, scale)[2]
        xi, su, x, sv = pair_rules(order, S, Sigma, scale)
        want = (xi, su, S) if len(xi) <= len(x) else (x, sv, Sigma)
        assert np.array_equal(t, want[0]) and np.array_equal(np.sqrt(w), want[1])
        assert far is want[2]


def test_annihilation_constant_values_and_domain():
    assert annihilation_constant(0.0) == 1.0
    assert annihilation_constant(0.5) == pytest.approx(4.0, rel=1e-15)
    with pytest.raises(DomainError):
        annihilation_constant(1.0)
    with pytest.raises(DomainError):
        annihilation_constant(-0.1)


def test_split_bound_dominates_union_norm():
    order = Order(0.0)
    cases = [
        ((0.0, 1.0), (2.0, 3.0), (0.0, 0.8), (1.2, 1.8)),
        ((0.0, 0.5), (1.0, 1.5), (0.0, 1.0), (1.5, 2.5)),
        ((0.5, 1.5), (2.5, 3.0), (0.0, 0.5), (0.8, 1.2)),
    ]
    for s0, sinf, g0, ginf in cases:
        # triangle inequality: the union pair's norm is at most the sum of
        # the four cross pair norms
        bound = sum(
            pair_norm(order, IntervalSet.of([s]), IntervalSet.of([g]))
            for s in (s0, sinf)
            for g in (g0, ginf)
        )
        union = pair_norm(
            order, IntervalSet.of([s0, sinf]), IntervalSet.of([g0, ginf])
        )
        assert union <= bound + 1e-5


def test_strong_pair_rows_hold_and_are_deterministic():
    order = Order(0.0)
    S = IntervalSet.of([(0.0, 1.0)])
    Sigma = IntervalSet.of([(0.0, 1.0)])
    const = annihilation_constant(pair_norm(order, S, Sigma))
    rows = strong_pair_trials(order, S, Sigma, const, trials=40, seed=5)
    assert rows.shape == (40, 2)
    assert np.all(rows[:, 0] <= rows[:, 1] * (1 + 1e-9))
    again = strong_pair_trials(order, S, Sigma, const, trials=40, seed=5)
    assert np.array_equal(rows, again)


@pytest.mark.parametrize("alpha", [-0.3, 0.0, 0.3, 1.0])
@pytest.mark.parametrize(
    "S,Sigma",
    [
        ([(0.0, 1.0)], [(0.0, 1.0)]),
        ([(0.0, 1.5), (2.0, 2.5)], [(0.0, 1.0)]),
        ([(0.0, 1.0)], [(0.5, 1.5)]),
        ([(0.0, 0.5)], [(0.0, 2.0)]),
    ],
)
def test_strong_pair_rows_match_a_dense_factor(alpha, S, Sigma):
    # each draw's mass on S from the closed-form Gram against the dense
    # factor on a fine rule over S, for four pairs at four orders
    order = Order(alpha)
    S, Sigma = IntervalSet.of(S), IntervalSet.of(Sigma)
    rows = strong_pair_trials(order, S, Sigma, 4.0, trials=20, seed=3)
    want = strong_pair_rows_dense(order, S, Sigma, 4.0, trials=20, seed=3)
    assert np.array_equal(rows[:, 0], want[:, 0])
    assert np.allclose(rows[:, 1], want[:, 1], rtol=1e-12, atol=0)


# 1 - sigma^2 of pair_norm against the sinc-kernel oracle, absolute: the
# top eigenvalue of an n-node Gram carries rounding of about n eps, and the
# pass pair_norm returns at b = 1 on [0, 60] has n = 544 (2 x 272 nodes on
# Sigma), so 544 eps = 1.2e-13.  Seen: at most 3.3e-14, with the oracle's
# own spread over 16, 24 and 32 nodes per panel at most 9.1e-15
_SINC_TOL = 544 * np.finfo(float).eps


@pytest.mark.parametrize(
    ("omega", "x_max", "alpha"),
    [
        ("periodic", 59.0, -0.5),
        ("periodic", 59.0, 0.5),
        ("periodic", 60.0, -0.5),
        ("sparse", 58.0, -0.5),
        ("sparse", 60.0, 0.5),
    ],
)
def test_pair_deficit_matches_the_sinc_kernel_oracle(omega, x_max, alpha):
    # S = the gaps of a shipped Omega in [0, X] and Sigma = [0, 1]: X on Omega
    # (59 periodic, 58 sparse) and inside a gap (60); at alpha = -1/2 the
    # pair's kernel is cos, at alpha = 1/2 sin x / x
    omega_set = load_interval_set(str(CONFIGS / f"omega-{omega}.set"))
    S = omega_set.complement_within(0.0, x_max)
    sigma = pair_norm(Order(alpha), S, IntervalSet.of([(0.0, 1.0)]))
    want = sinc_pair_deficit(1 if alpha < 0 else -1, S, 1.0, 24)
    assert abs((1.0 - sigma * sigma) - want) <= _SINC_TOL


# 1 - lambda_0 of Slepian's generalized prolates as (alpha, c / (2 pi),
# value), from a separate 40-digit mpmath computation (ROADMAP item 14),
# among them two values below pair_norm's floor (c / (2 pi) = 5)
_PROLATE_PROTOTYPE = [
    (-0.5, 1.0, 5.72466458953e-5),
    (0.0, 3.0, 1.92671318207e-14),
    (0.3, 5.0, 1.87213330766e-24),
    (1.0, 5.0, 4.8291712478e-23),
    (7.5, 3.0, 4.65759425874e-5),
]


@pytest.mark.parametrize(("alpha", "width", "want"), _PROLATE_PROTOTYPE)
def test_prolate_oracle_matches_its_prototype(alpha, width, want):
    assert prolate_deficit(alpha, 2.0 * math.pi * width) == pytest.approx(
        want, rel=1e-10
    )


# the absolute floor of pair_norm's 1 - sigma^2 against the prolate oracle,
# by the route of eval_j at order alpha, on single intervals at b = 1 and
# T <= 3.  Measured: at most 5.0e-16 on the closed forms (alpha = +-1/2),
# 9.4e-16 on j0 and j1 (alpha = 0, 1) and 1.1e-14 on the Chebyshev tables
# (alpha = 0.3 at T = 3; 9.4e-15 at alpha = 2.7)
_PROLATE_FLOOR = {"closed": 1e-15, "integer": 2e-15, "table": 2e-14}


@pytest.mark.parametrize(
    ("alpha", "width", "route"),
    [
        (-0.5, 1.0, "closed"),
        (-0.5, 2.0, "closed"),
        (0.5, 2.0, "closed"),
        (0.0, 1.0, "integer"),
        (0.0, 3.0, "integer"),
        (1.0, 3.0, "integer"),
        (0.3, 1.0, "table"),
        (0.3, 3.0, "table"),
        (2.7, 3.0, "table"),
        (7.5, 3.0, "table"),
    ],
)
def test_pair_deficit_matches_the_prolate_oracle(alpha, width, route):
    # S = [0, T], Sigma = [0, 1]: c = 2 pi T, every value above the floor
    sigma = pair_norm(
        Order(alpha), IntervalSet.of([(0.0, width)]), IntervalSet.of([(0.0, 1.0)])
    )
    want = prolate_deficit(alpha, 2.0 * math.pi * width)
    assert want > 2.0 * _PROLATE_FLOOR[route]
    assert abs((1.0 - sigma * sigma) - want) <= _PROLATE_FLOOR[route]


@pytest.mark.parametrize(
    ("alpha", "route", "pairs"),
    [
        (0.0, "integer", [(1.0, 2.0), (0.5, 4.0)]),
        (0.3, "table", [(1.0, 2.0), (2.0, 1.0)]),
        (2.7, "table", [(1.0, 1.5), (1.5, 1.0)]),
    ],
)
def test_pair_deficit_depends_on_c_alone(alpha, route, pairs):
    # (b, T) with the same c = 2 pi b T give the same 1 - sigma^2
    (b1, t1), (b2, t2) = pairs
    want = prolate_deficit(alpha, 2.0 * math.pi * b1 * t1)
    for b, t in pairs:
        sigma = pair_norm(
            Order(alpha), IntervalSet.of([(0.0, t)]), IntervalSet.of([(0.0, b)])
        )
        assert abs((1.0 - sigma * sigma) - want) <= _PROLATE_FLOOR[route]


# --------------------------------------------------------------------------
# concentration eigenproblem


def test_full_window_gram_is_identity():
    conc = concentration_matrix(
        Order(0.0), 1.0, IntervalSet.of([(0.0, 10.0)]), 10.0
    )
    g = conc.matrix
    assert np.max(np.abs(g - np.eye(len(g)))) < 1e-11


def test_half_window_spectrum_inside_unit_interval():
    conc = concentration_matrix(
        Order(0.5), 1.0, IntervalSet.of([(0.0, 5.0)]), 10.0
    )
    eigs = np.linalg.eigvalsh(conc.matrix)
    assert eigs[0] > -1e-12
    assert eigs[-1] < 1.0 + 1e-12


def test_empirical_ratio_matches_dense_eigh():
    order = Order(0.0)
    omega = IntervalSet.of([(2 * k, 2 * k + 1) for k in range(5)])
    conc = concentration_matrix(order, 1.0, omega, 10.0)
    dense = float(np.linalg.eigvalsh(conc.matrix)[0])
    got = ls_empirical_min_ratio(order, 1.0, omega, 10.0)
    assert got == pytest.approx(max(dense, 0.0), abs=1e-9)


def test_concentration_factor_is_factored_where_it_lies():
    # B is formed node-major and returned transposed, in LAPACK's column
    # order, so svdvals overwrites it with no copy: beside B the ratio holds
    # little more than svdvals' workspace (5.0 x B with the copy, at alpha 1/2,
    # whose kernel makes no temporaries)
    order = Order(0.5)
    omega = IntervalSet.of([(2 * k, 2 * k + 1) for k in range(30)])
    B = annihilation._concentration_factor(order, 1.0, omega, 60.0)
    assert B.shape == (120, 480) and B.flags.f_contiguous
    ls_empirical_min_ratio(order, 1.0, omega, 60.0)
    tracemalloc.start()
    try:
        ls_empirical_min_ratio(order, 1.0, omega, 60.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * B.nbytes


def test_empirical_ratio_monotone_in_omega():
    order = Order(0.0)
    sparse = IntervalSet.of([(4 * k, 4 * k + 1) for k in range(3)])
    dense_set = IntervalSet.of([(0.0, 10.0)])
    lo = ls_empirical_min_ratio(order, 1.0, sparse, 10.0)
    hi = ls_empirical_min_ratio(order, 1.0, dense_set, 10.0)
    assert lo <= hi + 1e-12
    assert hi == pytest.approx(1.0, abs=1e-9)


def test_empty_window_gives_zero_ratio():
    got = ls_empirical_min_ratio(
        Order(0.0), 1.0, IntervalSet.empty(), 10.0
    )
    assert got == 0.0


def test_concentration_matrix_validation():
    with pytest.raises(DomainError):
        ls_empirical_min_ratio(Order(0.0), 0.0, IntervalSet.of([(0.0, 1.0)]), 10.0)
    with pytest.raises(DomainError):
        ls_empirical_min_ratio(Order(0.0), 1.0, IntervalSet.of([(0.0, 20.0)]), 10.0)
    with pytest.raises(DomainError, match="lower b or x_max"):
        ls_empirical_min_ratio(Order(0.0), 1.0, IntervalSet.of([(0.0, 1e3)]), 1e3)


def test_concentration_gram_self_checks():
    omega = IntervalSet.of([(0.0, 1.0)])
    with pytest.raises(InternalError, match="symmetric"):
        ConcentrationMatrix(
            matrix=np.array([[0.5, 0.2], [0.1, 0.5]]),
            omega=omega,
            bandlimit=1.0,
            alpha=0.0,
            x_max=1.0,
            n_modes=2,
        )
    with pytest.raises(InternalError, match="escaped"):
        ConcentrationMatrix(
            matrix=np.diag([2.0, 0.5]),
            omega=omega,
            bandlimit=1.0,
            alpha=0.0,
            x_max=1.0,
            n_modes=2,
        )


@pytest.mark.parametrize("alpha, b, x_max", [(0.0, 1.0, 10.0), (0.5, 1.0, 80.0)])
def test_modes_are_every_derivative_zero_up_to_the_band(alpha, b, x_max):
    # the basis spans PW_alpha(b) on [0, x_max]: the constant and each
    # s'_m <= 2 pi b x_max, also past the 128 modes a cap once cut it to
    want = mode_count(alpha, b, x_max)
    omega = IntervalSet.of([(0.0, x_max)])
    conc = concentration_matrix(Order(alpha), b, omega, x_max)
    assert conc.n_modes == want
    assert conc.matrix.shape == (want, want)


# --------------------------------------------------------------------------
# explicit bound


def test_ls_bound_unit_exponent_pin():
    # a*b = ln 2 / (160 sqrt(3) pi) makes the exponent exactly 2 at order 0
    ab = math.log(2.0) / (160.0 * math.sqrt(3.0) * math.pi)
    params = LSParams(gamma=1.0, a=1.0, b=ab, order=Order(0.0))
    assert ls_bound(params) == pytest.approx((2.0 / 3.0) / 300.0**2, rel=1e-12)


def test_ls_bound_vanishing_product_limit():
    params = LSParams(gamma=1.0, a=1e-9, b=1e-9, order=Order(0.0))
    assert ls_bound(params) == pytest.approx((2.0 / 3.0) / 300.0, rel=1e-6)


def test_ls_bound_log10_frozen_shipped_parameters():
    periodic = LSParams(gamma=0.25, a=1.0, b=1.0, order=Order(0.0))
    assert ls_bound_log10(periodic) == pytest.approx(-3870.8439011237092, rel=1e-12)
    assert ls_bound(periodic) == 0.0  # underflows double precision
    half = LSParams(gamma=0.125, a=1.0, b=1.0, order=Order(0.5))
    assert ls_bound_log10(half) == pytest.approx(-4852.0715041622543, rel=1e-12)


def test_ls_bound_monotonicity():
    base = LSParams(gamma=0.5, a=1.0, b=1.0, order=Order(0.0))
    wider = LSParams(gamma=0.5, a=2.0, b=1.0, order=Order(0.0))
    denser = LSParams(gamma=0.8, a=1.0, b=1.0, order=Order(0.0))
    higher = LSParams(gamma=0.5, a=1.0, b=1.0, order=Order(1.0))
    assert ls_bound_log10(wider) < ls_bound_log10(base)
    assert ls_bound_log10(denser) > ls_bound_log10(base)
    assert ls_bound_log10(higher) < ls_bound_log10(base)


def test_ls_params_validation():
    with pytest.raises(DomainError):
        LSParams(gamma=0.0, a=1.0, b=1.0, order=Order(0.0))
    with pytest.raises(DomainError):
        LSParams(gamma=0.5, a=-1.0, b=1.0, order=Order(0.0))
    with pytest.raises(DomainError):
        ls_bound_log10(LSParams(gamma=0.5, a=1.0, b=1.0, order=Order(-0.25)))


# --------------------------------------------------------------------------
# good/bad windows


def _window_integrals(pw, x, k_max):
    """The integrals of `_piece_integrals` per window, the sum of its two
    pieces, for one center or an array of them."""
    centers = np.asarray(x, dtype=float)
    per_piece, halves, *_ = _piece_integrals(pw, centers.ravel(), k_max)
    ints = per_piece[halves[0]] + per_piece[halves[1]]
    return ints.reshape(centers.shape + (k_max + 1,))


def _left_rows(pw, coeffs, xs):
    """D^k f at the left ends y = x - 1 of the windows at `xs`, one column
    per window, from a kernel pass of their own."""
    return apply_Dk_all(pw, coeffs, np.asarray(xs, dtype=float) - 1.0)


def _partition_pass(pw, xs, k_max=8):
    """The pass of good_bad_partition(pw, ab, xs, k_max), from the module's
    `_piece_integrals` (looked up when called, so a test may patch it):
    each window's left and right piece, the pass's points and D^k f there,
    and the count of piece nodes, after which the piece starts follow."""
    per_piece, halves, points, dk, _ = annihilation._piece_integrals(pw, xs, k_max)
    return halves, points, dk, 16 * len(per_piece)


def test_good_bad_partition_threshold_scaling():
    pw = random_pw(Order(0.0), 1.0, 96, np.random.default_rng(3), kind="smooth")
    xs = np.arange(1.0, 9.0)
    # huge threshold: nothing can be bad; tiny threshold: something is
    bad, _, frac, _ = good_bad_partition(pw, 10.0, xs, 6)
    assert not np.any(bad)
    assert np.any(good_bad_partition(pw, 1e-3, xs, 6)[0])
    assert frac == 0.0


def test_bad_mass_fraction_bounds():
    # bandlimit far above the threshold product marks every window bad, and
    # the captured fraction must still be a fraction
    pw = random_pw(Order(0.5), 1.0, 96, np.random.default_rng(4), kind="smooth")
    xs = np.arange(1.0, 12.0)
    _, _, frac, _ = good_bad_partition(pw, 0.05, xs, 6)
    assert 0.0 <= frac <= 1.0 + 1e-9
    assert frac > 0.9  # windows cover nearly the whole support


@pytest.mark.parametrize("alpha", [-0.3, 0.0, 0.3, 1.0, 2.5])
def test_bad_mass_fraction_from_pieces_matches_its_own_kernel_pass(alpha):
    # the recipe's trials (seed 7, one per ab product, windows 1..15) and a
    # mask of every other window, against the oracle's kernel pass over a
    # rule on the union of the bad windows; windows at x and x + 1 share a
    # piece, which must count once
    xs = np.arange(1.0, 16.0)
    seen = 0
    for trial, ab in enumerate((0.05, 0.1, 0.3)):
        rng = np.random.default_rng((7, trial))
        pw = random_pw(Order(alpha), ab, 32, rng, kind="smooth")
        bad, _, frac, _ = good_bad_partition(pw, ab, xs, 8)
        want = bad_mass_fraction(pw, xs, bad)
        assert frac == pytest.approx(want, rel=1e-13, abs=0.0)
        seen += int(np.any(bad))
        # a threshold product 100 times smaller marks every window bad
        every, _, frac, _ = good_bad_partition(pw, 0.01 * ab, xs, 8)
        assert every.all()
        assert frac == pytest.approx(bad_mass_fraction(pw, xs, every), rel=1e-13)
    assert seen


def test_good_bad_validation():
    pw = random_pw(Order(0.0), 1.0, 32, np.random.default_rng(5))
    with pytest.raises(DomainError):
        good_bad_partition(pw, 0.0, np.array([2.0]), 4)
    with pytest.raises(DomainError):
        good_bad_partition(pw, 0.1, np.array([0.5]), 4)
    # off the integer lattice, pieces of neighbouring windows overlap
    with pytest.raises(DomainError, match="integers"):
        good_bad_partition(pw, 0.1, np.array([2.0, 2.5]), 4)


@pytest.mark.parametrize("alpha", [-0.3, 0.3, 1.0])
def test_window_integrals_match_lommel_closed_form(alpha):
    # every window of three recipe trials against the exact integral: in
    # y = sqrt(s) the k-th integral is (2 / C_(alpha+k)) ||D^k f||^2 on
    # [x - 1, x + 1] in mu_(alpha+k), and ||D^k f||^2 there is
    # pi^(2k) c_k^T G c_k with G from Lommel's closed form
    order = Order(alpha)
    xs = np.arange(1.0, 16.0)
    for trial, ab in enumerate((0.05, 0.1, 0.3)):
        rng = np.random.default_rng((7, trial))
        pw = random_pw(order, ab, 32, rng, kind="smooth")
        coeffs = dk_coefficients(pw, 8)
        ints = _window_integrals(pw, xs, 8)
        xi = pw.nodes
        for i, x in enumerate(xs):
            window = IntervalSet.of([(x - 1.0, x + 1.0)])
            for k in range(9):
                gram = lommel_gram_all_ends(
                    order.shifted(k), window, xi, np.ones(len(xi))
                )
                want = (
                    2.0
                    / mu_density_constant(order.shifted(k))
                    * math.pi ** (2 * k)
                    * float(coeffs[k] @ gram @ coeffs[k])
                )
                assert ints[i, k] == pytest.approx(want, rel=1e-9)


def _assert_growth_bounds(pw, ab, x, mass, t, k_max=8):
    """t lies in I_x and obeys every pointwise growth bound of the witness
    search, with D^k f at sqrt(t) from `apply_Dk`, one order at a time."""
    assert (x - 1.0) ** 2 <= t <= (x + 1.0) ** 2
    base = 12.0 * math.pi**2 * ab * ab
    for k in range(k_max + 1):
        dk = float(apply_Dk(pw, k, np.sqrt(np.array([t])))[0])
        assert t ** (pw.order.alpha + k) * dk**2 <= base**k * mass * (1 + 1e-9)


def test_witness_point_satisfies_growth_bounds():
    # the pw bandlimit must equal the threshold product for unit half-width
    # windows to be good, mirroring how the recipe pairs them
    ab, x, k_max = 0.1, 3.0, 8
    pw = random_pw(Order(0.0), ab, 96, np.random.default_rng(6), kind="smooth")
    (bad,), (mass,), _, (t,) = good_bad_partition(pw, ab, [x], k_max)
    assert not bad
    _assert_growth_bounds(pw, ab, x, mass, t, k_max)


@pytest.mark.parametrize("alpha", [-0.5, -0.3, 0.0, 1.0, 7.0])
def test_pass_witnesses_exist_where_the_grid_finds_one(alpha):
    # the seed-7 recipe trials, two per ab product: a good window has a
    # witness among the pass's points exactly where the 1000-point grid on
    # I_x has one, and every witness obeys each bound under an evaluation
    # of its own
    xs = np.arange(1.0, 16.0)
    first_at_origin = []
    for trial in range(6):
        pw, ab = _recipe_trial(alpha, trial)
        bad, mass, _, witness = good_bad_partition(pw, ab, xs, 8)
        assert not np.all(bad)
        assert np.isnan(witness[bad]).all()
        good = ~bad
        grid = grid_witnesses(pw, ab, xs[good], mass[good])
        assert np.array_equal(np.isfinite(witness[good]), np.isfinite(grid))
        for x, m, t in zip(xs[good], mass[good], witness[good]):
            if np.isfinite(t):
                _assert_growth_bounds(pw, ab, x, m, t)
        if good[0]:
            first_at_origin.append(witness[0])
    # at alpha < 0 the window at x = 1 has no witness at its left end t = 0
    assert first_at_origin
    if alpha < 0:
        assert all(t > 0.0 for t in first_at_origin)


@pytest.mark.parametrize(("alpha", "x"), [(-0.3, 1.0), (0.0, 5.0), (1.0, 11.0)])
def test_witnesses_take_the_first_candidate_that_holds(alpha, x):
    # the candidates of I_x in increasing t: the left end, the left piece's
    # nodes, the centre and the right piece's nodes, squared.  For each,
    # the mass just above the smallest mass at which it obeys every bound
    # (from an oracle pass at the plan's points) makes the first candidate
    # that holds at that mass the witness.  On these windows of the seed-7
    # trial 0 that smallest mass falls along the candidates, so each
    # candidate is the witness at its own mass; at x = 1 and alpha < 0 the
    # left end t = 0 holds at no mass
    pw, ab = _recipe_trial(alpha, 0)
    xs = np.arange(1.0, 16.0)
    halves, points, _, n = _partition_pass(pw, xs)
    dk = apply_Dk_all(pw, dk_coefficients(pw, 8), points)
    i = int(x) - 1
    left, right = halves[:, i]
    nodes = np.arange(16)
    cols = np.r_[n + left, 16 * left + nodes, n + right, 16 * right + nodes]
    t = points[cols] ** 2
    assert np.all(np.diff(t) > 0)
    assert t[0] == (x - 1.0) ** 2 and t[17] == x * x
    base = 12.0 * math.pi**2 * ab * ab
    with np.errstate(divide="ignore"):
        need = [t ** (alpha + k) * dk[k, cols] ** 2 / base**k for k in range(9)]
    need = np.max(need, axis=0)
    masses = need * (1 + 1e-9)
    finite = np.isfinite(masses)
    assert np.count_nonzero(finite) >= 33
    masses = masses[finite]
    want = [t[np.argmax(need <= m)] for m in masses]
    pieces = np.repeat(halves[:, i : i + 1], len(masses), axis=1)
    got = annihilation._witnesses(pw.order, ab, masses, pieces, points, dk)
    assert np.array_equal(got, want)
    assert np.array_equal(got, t[finite])


def _recording_ladders(monkeypatch):
    """The row counts of every kernel ladder built from here on, in a list
    that the caller may clear; a test that calls it takes `cold_plan`, so
    the count does not depend on what ran before."""
    built = []
    real = transform.eval_j_ladder

    def recording(order, k_max, x):
        built.append(np.shape(x)[0])
        return real(order, k_max, x)

    monkeypatch.setattr(transform, "eval_j_ladder", recording)
    return built


def _recipe_trial(alpha, trial):
    """The seed-7 good-bad recipe's function of trial `trial`, and its band
    product."""
    ab = (0.05, 0.1, 0.3)[trial % 3]
    rng = np.random.default_rng((7, trial))
    return random_pw(Order(alpha), ab, 32, rng, kind="smooth"), ab


def _plan_of(pw, xs, k_max=8):
    """The window plan that good_bad_partition(pw, ab, xs, k_max) reads."""
    rule = np.array([pw.nodes, pw.weights]).tobytes()
    return annihilation._window_plan(pw.order, k_max, xs.tobytes(), rule)


@pytest.mark.parametrize("alpha", [-0.3, 0.0, 1.0])
def test_good_bad_trial_makes_one_kernel_pass(monkeypatch, cold_plan, alpha):
    # the recipe's trials at seed 7: the partition's ladder over the 16 nodes
    # of each of the 16 pieces and the 16 piece starts is built by the first
    # trial of each band and held for the repeats, and it is the only
    # ladder of a trial, also at alpha < 0, where the window at x = 1 has
    # no witness at t = 0 and its witness is sought among the pass's points
    built = _recording_ladders(monkeypatch)
    xs = np.arange(1.0, 16.0)
    for trial in range(6):
        pw, ab = _recipe_trial(alpha, trial)
        built.clear()
        bad, _, _, got = good_bad_partition(pw, ab, xs, 8)
        assert built == ([17 * 16] if trial < 3 else [])
        at_left = np.array_equal(got[~bad], (xs[~bad] - 1.0) ** 2)
        assert at_left or alpha < 0


def test_planned_window_kernels_give_the_streamed_bits(monkeypatch, cold_plan):
    # the partition from a cleared cache, from a warm one, and with plans
    # that hold no kernel, so that every kernel streams through
    # _kernel_blocks: the same four results, bit for bit (the witnesses'
    # NaN where they are NaN)
    xs = np.arange(1.0, 16.0)
    for alpha in (-0.3, 0.0, 1.0):
        trials = [_recipe_trial(alpha, t) for t in range(3)]
        cold_plan.cache_clear()
        cold = [good_bad_partition(pw, ab, xs, 8) for pw, ab in trials]
        warm = [good_bad_partition(pw, ab, xs, 8) for pw, ab in trials]
        with monkeypatch.context() as m:
            m.setattr(annihilation, "_block_rows", lambda k_max, width: 0)
            cold_plan.cache_clear()
            streamed = [good_bad_partition(pw, ab, xs, 8) for pw, ab in trials]
            assert all(_plan_of(pw, xs)[4] == () for pw, _ in trials)
        cold_plan.cache_clear()
        for got in (warm, streamed):
            for want_parts, got_parts in zip(cold, got):
                for want, part in zip(want_parts, got_parts):
                    assert np.array_equal(want, part, equal_nan=True)


def test_six_trials_at_one_order_build_three_window_ladders(monkeypatch, cold_plan):
    built = _recording_ladders(monkeypatch)
    xs = np.arange(1.0, 16.0)
    for trial in range(6):
        pw, ab = _recipe_trial(0.0, trial)
        good_bad_partition(pw, ab, xs, 8)
    assert built == [17 * 16] * 3
    # one plan per band, each with its pieces, folded rows and ladder
    assert cold_plan.cache_info().currsize == 3


def test_window_plan_arrays_are_read_only(cold_plan):
    # after one trial the cache holds its plan; asking again hits it, its
    # folded rows are the bits of dk_coefficients, and every array of it is
    # read-only
    xs = np.arange(1.0, 16.0)
    pw, ab = _recipe_trial(0.0, 0)
    good_bad_partition(pw, ab, xs, 8)
    halves, points, rows, folded, held = _plan_of(pw, xs)
    info = cold_plan.cache_info()
    assert (info.hits, info.currsize) == (1, 1)
    [(block, kern)] = held
    assert halves.shape == (2, 15) and points.shape == (17 * 16,)
    assert rows.shape == (9, 16, 16) and folded.shape == (9, 32)
    assert block == slice(0, 409) and kern.shape == (9, 17 * 16, 32)
    assert np.array_equal(folded * pw.coeffs, dk_coefficients(pw, 8))
    for part in (halves, points, rows, folded, kern):
        with pytest.raises(ValueError):
            part.flat[0] = 0


def test_partition_past_one_block_streams_and_holds_nothing(monkeypatch, cold_plan):
    # 30 centers give 31 pieces, 17 x 31 = 527 points: 10 x 527 x 32
    # entries exceed one block of _LADDER_CHUNK (409 rows of 32), so each
    # call streams its kernel in two blocks and its plan holds no kernel
    built = _recording_ladders(monkeypatch)
    pw, ab = _recipe_trial(0.0, 0)
    good_bad_partition(pw, ab, np.arange(1.0, 16.0), 8)
    assert cold_plan.cache_info().currsize == 1
    built.clear()
    for _ in range(2):
        good_bad_partition(pw, ab, np.arange(1.0, 31.0), 8)
    assert built == [409, 118] * 2
    assert cold_plan.cache_info().currsize == 2
    assert _plan_of(pw, np.arange(1.0, 31.0))[4] == ()


@pytest.mark.parametrize("alpha", [-0.3, 0.0, 1.0])
def test_repeated_trials_build_no_rule_and_fold_once(monkeypatch, cold_plan, alpha):
    # per whole trial of the recipe at seed 7 (the draw, and the partition
    # with its witness search): subnormal spectral coefficients, `mu_panels`
    # calls (the pieces' rules), `mu_fold` calls wherever they are made,
    # `PWFunction` constructions, and kernel ladders.  The first trial of
    # each band builds its plan: the pieces, the nine folded rows and the
    # one ladder.  A repeated (alpha, ab), trials 3-5, builds no rule and no
    # ladder and folds once, for the draw's norm, at every order: the
    # witness search makes no kernel pass of its own.  Each draw builds one
    # PWFunction
    calls = {"mu_panels": 0, "mu_fold": 0, "PWFunction": 0, "ladder": 0}

    def counting(owner, name, key=None):
        real = getattr(owner, name)

        def wrapper(*args):
            calls[key or name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counting(annihilation, "mu_panels")
    counting(transform, "eval_j_ladder", "ladder")
    counting(PWFunction, "__post_init__", "PWFunction")
    for module in (annihilation, paley_wiener):
        counting(module, "mu_fold")
    xs = np.arange(1.0, 16.0)
    subnormal, counts = [], []
    for trial in range(6):
        before = dict(calls)
        pw, ab = _recipe_trial(alpha, trial)
        good_bad_partition(pw, ab, xs, 8)
        counts.append(tuple(calls[name] - before[name] for name in calls))
        mags = np.abs(pw.coeffs)
        subnormal.append(int(np.count_nonzero((mags > 0) & (mags < np.finfo(float).tiny))))
    assert subnormal == [0] * 6
    first = (1, 1 + 9, 1, 1)
    repeat = (0, 1, 1, 0)
    assert counts == [first] * 3 + [repeat] * 3


@pytest.mark.parametrize("alpha", [-0.3, 0.0, 1.0])
def test_partition_witnesses_come_from_its_own_pass(alpha):
    # the seed-7 recipe trials, one per ab: the witnesses the partition
    # returns are those of `_witnesses` on the good windows, from the
    # partition's masses and an oracle pass at the plan's points, bit for
    # bit, and NaN on the bad windows
    xs = np.arange(1.0, 16.0)
    beyond_left = False
    for trial in range(3):
        pw, ab = _recipe_trial(alpha, trial)
        bad, mass, _, witness = good_bad_partition(pw, ab, xs, 8)
        halves, points, _, _ = _partition_pass(pw, xs)
        dk = apply_Dk_all(pw, dk_coefficients(pw, 8), points)
        good = ~bad
        want = annihilation._witnesses(
            pw.order, ab, mass[good], halves[:, good], points, dk
        )
        assert np.array_equal(witness[good], want)
        assert np.isnan(witness[bad]).all()
        beyond_left |= not np.array_equal(want, (xs[good] - 1.0) ** 2)
    # at alpha < 0 the window at x = 1 takes a candidate past its left end
    assert beyond_left == (alpha < 0)


@pytest.mark.parametrize("ab", [math.nan, math.inf])
def test_good_bad_partition_refuses_a_non_finite_band_product(ab):
    pw, _ = _recipe_trial(0.0, 0)
    with pytest.raises(DomainError, match="positive and finite"):
        good_bad_partition(pw, ab, np.arange(1.0, 16.0), 8)


def test_good_bad_partition_refuses_a_ladder_past_the_dk_cap():
    pw, ab = _recipe_trial(0.0, 0)
    for k_max in (-1, 31):
        with pytest.raises(DomainError, match="derivative order"):
            good_bad_partition(pw, ab, np.arange(1.0, 16.0), k_max)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    alpha=st.floats(-0.45, 3.0),
    ab=st.floats(1e-3, 2.0),
    centers=st.sets(st.integers(1, 40), min_size=2, max_size=30).filter(
        lambda s: max(s) - min(s) + 1 > len(s)
    ),
)
# 24 pieces (408 points, one held block) and 25 (425 points, streamed)
@example(alpha=0.0, ab=0.1, centers=set(range(1, 12)) | set(range(14, 25)))
@example(alpha=0.0, ab=0.1, centers=set(range(1, 12)) | set(range(14, 26)))
def test_window_plan_gives_the_bits_of_apply_dk_all(alpha, ab, centers):
    # cold and warm plans, held kernels (up to 409 points: 24 pieces) and
    # streamed ones (25 pieces and more), against apply_Dk_all on the rows
    # of dk_coefficients at the plan's points, and the bad mask against
    # the loop over k of the threshold test; the witnesses are NaN on the
    # bad windows
    xs = np.array(sorted(centers), dtype=float)
    pw = random_pw(Order(alpha), ab, 32, np.random.default_rng(len(xs)), kind="smooth")
    annihilation._window_plan.cache_clear()
    cold = good_bad_partition(pw, ab, xs, 8)
    warm = good_bad_partition(pw, ab, xs, 8)
    halves, points, rows, folded, held = _plan_of(pw, xs)
    assert (len(held) == 1) == (len(points) <= 409)
    _, _, passed, _ = _partition_pass(pw, xs)
    annihilation._window_plan.cache_clear()
    for want, got in zip(cold, warm):
        assert np.array_equal(want, got, equal_nan=True)
    assert np.array_equal(folded * pw.coeffs, dk_coefficients(pw, 8))
    dk = apply_Dk_all(pw, dk_coefficients(pw, 8), points)
    assert np.array_equal(passed, dk)
    n = rows[0].size
    per_piece = np.sum(rows * dk[:, :n].reshape(rows.shape) ** 2, axis=2).T
    ints = per_piece[halves[0]] + per_piece[halves[1]]
    bad, factor = np.zeros(len(xs), dtype=bool), 1.0
    for k in range(1, 9):
        factor *= (2.0 * math.pi * ab) ** 2
        bad |= ints[:, k] >= factor * ints[:, 0]
    assert np.array_equal(cold[0], bad)
    assert np.array_equal(cold[1], ints[:, 0])
    assert np.isnan(cold[3][bad]).all()
    assert 0.0 <= cold[2] <= 1.0


def test_good_bad_partition_left_rows_are_dk_at_the_left_ends():
    # D^k f at y = x - 1 from the piece pass, against a pass of its own
    xs = np.arange(1.0, 16.0)
    for alpha in (-0.3, 0.0, 1.0):
        pw = random_pw(Order(alpha), 0.1, 32, np.random.default_rng((7, 1)), kind="smooth")
        halves, _, dk, n = _partition_pass(pw, xs)
        left = dk[:, n + halves[0]]
        want = _left_rows(pw, dk_coefficients(pw, 8), xs)
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert left.shape == want.shape
        assert np.all(np.abs(left - want) <= 1e-13 * scale)


def _threshold_witnesses(alpha):
    """The recipe's trial 2 at seed 7 (ab = 0.3), its windows at x = 2..15,
    each window's mass just above the smallest mass at which its left end
    t = (x - 1)^2 obeys every growth bound (from a D^k pass of its own at
    x - 1), and their witnesses from the pass of good_bad_partition."""
    ab, xs = 0.3, np.arange(2.0, 16.0)
    pw = random_pw(Order(alpha), ab, 32, np.random.default_rng((7, 2)), kind="smooth")
    coeffs = dk_coefficients(pw, 8)
    lo = (xs - 1.0) ** 2
    dk = _left_rows(pw, coeffs, xs)
    base = 12.0 * math.pi**2 * ab * ab
    need = np.max([lo ** (alpha + k) * dk[k] ** 2 / base**k for k in range(9)], axis=0)
    masses = need * (1 + 1e-9)
    halves, points, passed, _ = _partition_pass(pw, xs)
    got = annihilation._witnesses(pw.order, ab, masses, halves, points, passed)
    return pw, xs, masses, got


@pytest.mark.parametrize("alpha", [-0.3, 1.0])
def test_witness_point_left_end_probe_at_its_threshold(alpha):
    # the masses sit 1e-9 above each left end's threshold, so the probe
    # decides on the left rows' own values; the full-grid scan agrees
    pw, xs, masses, got = _threshold_witnesses(alpha)
    assert np.array_equal(got, (xs - 1.0) ** 2)
    assert np.array_equal(got, grid_witnesses(pw, 0.3, xs, masses))


def test_left_rows_from_the_right_piece_move_the_witness(monkeypatch):
    # fault: D^k f at the left end of each window taken at the start x of
    # its right piece instead of x - 1; at the threshold masses some left
    # end then fails its probe and the search moves past it
    real = annihilation._piece_integrals

    def right_piece_starts(pw, centers, k_max):
        per_piece, halves, points, dk, total = real(pw, centers, k_max)
        n = 16 * len(per_piece)
        shifted = dk.copy()
        shifted[:, n + halves[0]] = dk[:, n + halves[1]]
        return per_piece, halves, points, shifted, total

    monkeypatch.setattr(annihilation, "_piece_integrals", right_piece_starts)
    _, xs, _, got = _threshold_witnesses(1.0)
    assert not np.array_equal(got, (xs - 1.0) ** 2, equal_nan=True)


def test_witness_is_nan_where_no_candidate_holds():
    # a vanishing mass admits none of the 34 candidates of any window
    pw, ab = _recipe_trial(0.0, 2)
    xs = np.arange(2.0, 16.0)
    masses = 1e-30 * _window_integrals(pw, xs, 8)[:, 0]
    halves, points, dk, _ = _partition_pass(pw, xs)
    got = annihilation._witnesses(pw.order, ab, masses, halves, points, dk)
    assert np.isnan(got).all()


# --------------------------------------------------------------------------
# analytic doubling inequality


def test_kovrijkine_worked_linear_case():
    # phi(s) = s on I = [0,1], J = [0,1/2]: lhs = 1/3, m = 1, and the stadium
    # max is at the far right point z = 1 + 4 = 5, so M = 5 and the exponent
    # is 2 log2(5) + 1
    lhs, rhs = kovrijkine_check([0.0, 1.0], (0.0, 1.0), IntervalSet.of([(0.0, 0.5)]))
    assert lhs == pytest.approx(1.0 / 3.0, rel=1e-14)
    exponent = 2.0 * math.log(5.0) / math.log(2.0) + 1.0
    want_rhs = 600.0**exponent * (0.5**3 / 3.0)
    assert rhs == pytest.approx(want_rhs, rel=1e-12)
    assert lhs <= rhs


def test_kovrijkine_constant_is_tightest_case():
    lhs, rhs = kovrijkine_check([2.5], (0.0, 1.0), IntervalSet.of([(0.25, 0.75)]))
    # constant: M = m, exponent 1, both integrals scale with the lengths
    assert lhs == pytest.approx(2.5**2, rel=1e-14)
    assert rhs == pytest.approx(600.0 * 2.5**2 * 0.5, rel=1e-13)


def test_kovrijkine_polynomial_exact_integral_oracle():
    rng = np.random.default_rng(9)
    coeffs = rng.uniform(-1.0, 1.0, 4)
    I = (0.5, 2.0)
    J = IntervalSet.of([(0.7, 1.1)])
    lhs, rhs = kovrijkine_check(coeffs, I, J)
    sq = np.polynomial.polynomial.polymul(coeffs, coeffs)
    anti = np.polynomial.polynomial.polyint(sq)
    exact = np.polynomial.polynomial.polyval(
        2.0, anti
    ) - np.polynomial.polynomial.polyval(0.5, anti)
    assert lhs == pytest.approx(float(exact), rel=1e-13)
    assert lhs <= rhs


def test_kovrijkine_validation():
    with pytest.raises(DomainError):
        kovrijkine_check([1.0], (1.0, 1.0), IntervalSet.of([(0.9, 1.0)]))
    with pytest.raises(DomainError):
        kovrijkine_check([1.0], (0.0, 1.0), IntervalSet.of([(0.5, 1.5)]))
    with pytest.raises(DomainError):
        kovrijkine_check([0.0], (0.0, 1.0), IntervalSet.of([(0.0, 0.5)]))


# --------------------------------------------------------------------------
# necessity direction


def test_necessity_demo_full_support_passes():
    rows = density_necessity_demo(Order(0.0), IntervalSet.of([(0.0, 60.0)]), 0.5)
    assert rows
    assert all(r.passes for r in rows)
    assert any(r.concentrated for r in rows)
    for r in rows:
        assert 0.0 < r.gamma_implied
        assert 0.0 <= r.tail <= 1.0


def test_necessity_demo_gap_defeats_hypothesis():
    omega = IntervalSet.of([(0.0, 20.0), (45.0, 60.0)])
    rows = density_necessity_demo(Order(0.0), omega, 0.5)
    assert all(r.passes for r in rows)
    gap_rows = [r for r in rows if 25.0 < r.s_prime < 40.0]
    assert gap_rows
    assert all(not r.concentrated for r in gap_rows)


def test_necessity_demo_validation():
    with pytest.raises(DomainError):
        density_necessity_demo(Order(0.0), IntervalSet.of([(0.0, 10.0)]), 0.0)
    with pytest.raises(DomainError):
        density_necessity_demo(Order(0.0), IntervalSet.of([(0.0, 10.0)]), 1.0)
