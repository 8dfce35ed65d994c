import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from hconc import annihilation
from hconc.annihilation import (
    LSParams,
    ProjectionPair,
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
    witness_point,
)
from hconc.bessel import Order
from hconc.errors import ConvergenceError, DomainError, InternalError
from hconc.measure import IntervalSet, mu_density_constant
from hconc.paley_wiener import apply_Dk_all, dk_coefficients, random_pw
from oracles import (
    ConcentrationMatrix,
    _pair_factor,
    _short_side_gram,
    apply_Dk,
    bad_mass_fraction,
    concentration_matrix,
    lommel_gram_all_ends,
    mode_count,
    pair_gram,
    pair_nodes,
    pair_rules,
    strong_pair_rows_dense,
)

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


def _unit_pair(alpha=0.0):
    return ProjectionPair(
        order=Order(alpha),
        S=IntervalSet.of([(0.0, 1.0)]),
        Sigma=IntervalSet.of([(0.0, 1.0)]),
        x_max=1.0,
    )


def test_pair_norm_frozen_unit_case():
    assert pair_norm(_unit_pair()) == pytest.approx(_FROZEN_UNIT_NORM, abs=1e-5)


def test_pair_norm_agrees_with_dense_svd_of_factor():
    pair = ProjectionPair(
        order=Order(0.5),
        S=IntervalSet.of([(0.0, 1.0), (1.5, 2.0)]),
        Sigma=IntervalSet.of([(0.0, 1.3)]),
        x_max=2.0,
    )
    iterated = pair_norm(pair)
    dense = float(np.linalg.svd(_pair_factor(pair, 4), compute_uv=False)[0])
    assert iterated == pytest.approx(dense, abs=5e-6)


def test_pair_norm_empty_sets():
    pair = ProjectionPair(
        order=Order(0.0),
        S=IntervalSet.empty(),
        Sigma=IntervalSet.of([(0.0, 1.0)]),
        x_max=1.0,
    )
    assert pair_norm(pair) == 0.0


def test_pair_norm_near_one_for_matched_sets():
    pair = ProjectionPair(
        order=Order(0.0),
        S=IntervalSet.of([(0.0, 4.0)]),
        Sigma=IntervalSet.of([(0.0, 4.0)]),
        x_max=4.0,
    )
    norm = pair_norm(pair)
    assert 0.999 < norm <= 1.0


def test_pair_norm_monotone_in_spatial_set():
    sigma = IntervalSet.of([(0.0, 1.0)])
    small = ProjectionPair(
        order=Order(0.0), S=IntervalSet.of([(0.0, 0.5)]), Sigma=sigma, x_max=1.0
    )
    large = ProjectionPair(
        order=Order(0.0), S=IntervalSet.of([(0.0, 1.0)]), Sigma=sigma, x_max=1.0
    )
    assert pair_norm(small) <= pair_norm(large) + 5e-6


def _pair(alpha, sup_s, sup_sigma):
    return ProjectionPair(
        order=Order(alpha),
        S=IntervalSet.of([(0.0, sup_s)]),
        Sigma=IntervalSet.of([(0.0, sup_sigma)]),
        x_max=sup_s,
    )


def _pass_gram(pair, scale=1):
    """The Gram of pair_norm's pass at `scale`, as pair_norm builds it."""
    return next(annihilation._pass_grams(pair, (scale,)))


@pytest.mark.parametrize("sup_s, sup_sigma", [(1.0, 1.3), (3.0, 0.5)])
def test_pair_gram_is_the_short_side_gram_of_factor(sup_s, sup_sigma):
    pair = _pair(0.3, sup_s, sup_sigma)
    A = _pair_factor(pair)
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
    S, Sigma = IntervalSet.of(S), IntervalSet.of(Sigma)
    return ProjectionPair(order=Order(alpha), S=S, Sigma=Sigma, x_max=S.sup())


@pytest.mark.parametrize("alpha, S, Sigma", CLOSED_FORM_CASES)
def test_pair_gram_closed_form_matches_fine_factor(alpha, S, Sigma):
    # the other side's sum at 4x the first pass's rule is converged to
    # ~1e-13 here, while the first pass's rule is off by up to 1e-7 in the
    # fourth case
    pair = _closed_form_pair(alpha, S, Sigma)
    gram = _pass_gram(pair)
    fine = _short_side_gram(pair, 4)
    assert gram.shape == fine.shape
    assert np.max(np.abs(gram - fine)) <= 1e-13


@pytest.mark.parametrize("alpha, S, Sigma", MPMATH_CASES)
def test_pair_gram_closed_form_entries_match_mpmath_quad(alpha, S, Sigma):
    mpmath = pytest.importorskip("mpmath")
    pair = _closed_form_pair(alpha, S, Sigma)
    gram = _pass_gram(pair)
    t, s, far = pair_nodes(pair)
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
    prev = float(linalg.svdvals(_pair_factor(pair))[0])
    for doubling in range(1, 5):
        cur = float(linalg.svdvals(_pair_factor(pair, 2**doubling))[0])
        if abs(cur - prev) <= 1e-6:
            return min(cur, 1.0)
        prev = cur
    raise AssertionError("dense reference did not stabilize")


# inputs on which power iteration stalled: the top singular values cluster at 1
STALL_CASES = [(0.0, 4.0, 2.0), (0.3, 2.0, 2.0), (1.0, 3.0, 1.0)]


@pytest.mark.parametrize("alpha, sup_s, sup_sigma", STALL_CASES)
def test_pair_norm_clustered_top_spectrum(alpha, sup_s, sup_sigma):
    pair = _pair(alpha, sup_s, sup_sigma)
    norm = pair_norm(pair)
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
    n = len(pair_nodes(pair)[0])
    assert n == 1392
    tracemalloc.start()
    try:
        # as pair_norm consumes them
        norms = list(map(_sigma_max, annihilation._pass_grams(pair, (1, 2))))
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
    norm = pair_norm(pair)
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
    norm = pair_norm(pair)
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
        return pair_norm(ProjectionPair(Order(alpha), S, Sigma, x_max=S.sup()))

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
        return pair_norm(ProjectionPair(Order(-0.3), S, Sigma, x_max=0.5))

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
    prev = _sigma_max(pair_gram(pair))
    for doubling in range(1, 5):
        cur = _sigma_max(pair_gram(pair, 2**doubling))
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
    S, Sigma = IntervalSet.of(S), IntervalSet.of(Sigma)
    pair = ProjectionPair(Order(alpha), S, Sigma, x_max=S.sup())
    grams = annihilation._pair_grams(pair)
    for scale in (1, 2):
        assert np.array_equal(next(grams), pair_gram(pair, scale))
    assert pair_norm(pair) == _pair_norm_pass_by_pass(pair)


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
    rows = strong_pair_trials(order, S, Sigma, 0.5, trials=20, seed=3)

    def all_ends(order, parts):
        return (lommel_gram_all_ends(order, *part) for part in parts)

    monkeypatch.setattr(annihilation, "_lommel_grams", all_ends)
    want = strong_pair_trials(order, S, Sigma, 0.5, trials=20, seed=3)
    assert np.array_equal(rows, want)


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
    pair = ProjectionPair(
        order=Order(0.0),
        S=IntervalSet.of([(0.0, sup)]),
        Sigma=IntervalSet.of([(0.0, sup)]),
        x_max=sup,
    )
    assert 0.0 < pair_norm(pair) <= 1.0
    # one rule per pass, the one in use
    assert len(per_unit) == len(sizes) >= 2
    assert per_unit[0] == max(64, math.ceil(4 * sup) + 32)
    for n0, n1 in zip(per_unit, per_unit[1:]):
        assert n1 == 2 * n0
    for n0, n1 in zip(sizes, sizes[1:]):
        assert n1 > n0


@pytest.mark.parametrize(
    "S, Sigma, x_max",
    [
        ([(0.0, 1.0)], [(0.0, 1.0)], 1.0),
        ([(0.0, 0.5)], [(0.0, 3.0)], 1.0),
        ([(0.0, 1.5), (2.0, 2.5)], [(0.0, 1.0)], 3.0),
        ([(0.0, 6.0)], [(0.5, 1.5)], 6.0),
    ],
)
def test_pair_nodes_builds_the_shorter_rule_only(monkeypatch, S, Sigma, x_max):
    # set_rule_size sizes both sides; the one rule a pass builds is the
    # shorter of the two that the dense reference builds (Sigma's on a tie),
    # bit for bit
    calls = []
    real_rules = annihilation.mu_rules

    def recording_rules(order, parts):
        calls.append(real_rules(order, parts))
        return calls[-1]

    monkeypatch.setattr(annihilation, "mu_rules", recording_rules)
    pair = ProjectionPair(
        order=Order(0.3), S=IntervalSet.of(S), Sigma=IntervalSet.of(Sigma), x_max=x_max
    )
    for scale in (1, 2):
        calls.clear()
        next(annihilation._pass_grams(pair, (scale,)))
        [[(t, w)]] = calls
        far = annihilation._pair_side(pair, scale)[2]
        xi, su, x, sv = pair_rules(pair, scale)
        want = (xi, su, pair.S) if len(xi) <= len(x) else (x, sv, pair.Sigma)
        assert np.array_equal(t, want[0]) and np.array_equal(np.sqrt(w), want[1])
        assert far is want[2]


def test_projection_pair_validation():
    with pytest.raises(DomainError):
        ProjectionPair(
            order=Order(0.0),
            S=IntervalSet.of([(0.0, 2.0)]),
            Sigma=IntervalSet.of([(0.0, 1.0)]),
            x_max=1.0,
        )


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
            pair_norm(
                ProjectionPair(
                    order=order,
                    S=IntervalSet.of([s]),
                    Sigma=IntervalSet.of([g]),
                    x_max=s[1],
                )
            )
            for s in (s0, sinf)
            for g in (g0, ginf)
        )
        union = ProjectionPair(
            order=order,
            S=IntervalSet.of([s0, sinf]),
            Sigma=IntervalSet.of([g0, ginf]),
            x_max=sinf[1],
        )
        assert pair_norm(union) <= bound + 1e-5


def test_strong_pair_rows_hold_and_are_deterministic():
    order = Order(0.0)
    S = IntervalSet.of([(0.0, 1.0)])
    Sigma = IntervalSet.of([(0.0, 1.0)])
    norm = pair_norm(ProjectionPair(order=order, S=S, Sigma=Sigma, x_max=1.0))
    rows = strong_pair_trials(order, S, Sigma, norm, trials=40, seed=5)
    assert rows.shape == (40, 2)
    assert np.all(rows[:, 0] <= rows[:, 1] * (1 + 1e-9))
    again = strong_pair_trials(order, S, Sigma, norm, trials=40, seed=5)
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
    rows = strong_pair_trials(order, S, Sigma, 0.5, trials=20, seed=3)
    want = strong_pair_rows_dense(order, S, Sigma, 0.5, trials=20, seed=3)
    assert np.array_equal(rows[:, 0], want[:, 0])
    assert np.allclose(rows[:, 1], want[:, 1], rtol=1e-12, atol=0)


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


def _window_integrals(pw, x, coeffs):
    """The integrals of `_piece_integrals` per window, the sum of its two
    pieces, for one center or an array of them."""
    centers = np.asarray(x, dtype=float)
    per_piece, halves, _ = _piece_integrals(pw, centers.ravel(), coeffs)
    ints = per_piece[halves[0]] + per_piece[halves[1]]
    return ints.reshape(centers.shape + (len(coeffs),))


def _left_rows(pw, coeffs, xs):
    """D^k f at the left ends y = x - 1 of the windows at `xs`, one column
    per window, from a kernel pass of their own."""
    return apply_Dk_all(pw, coeffs, np.asarray(xs, dtype=float) - 1.0)


def test_good_bad_partition_threshold_scaling():
    pw = random_pw(Order(0.0), 1.0, 96, np.random.default_rng(3), kind="smooth")
    xs = np.arange(1.0, 9.0)
    coeffs = dk_coefficients(pw, 6)
    # huge threshold: nothing can be bad; tiny threshold: something is
    bad, _, frac, _ = good_bad_partition(pw, 10.0, xs, coeffs)
    assert not np.any(bad)
    assert np.any(good_bad_partition(pw, 1e-3, xs, coeffs)[0])
    assert frac == 0.0


def test_bad_mass_fraction_bounds():
    # bandlimit far above the threshold product marks every window bad, and
    # the captured fraction must still be a fraction
    pw = random_pw(Order(0.5), 1.0, 96, np.random.default_rng(4), kind="smooth")
    xs = np.arange(1.0, 12.0)
    _, _, frac, _ = good_bad_partition(pw, 0.05, xs, dk_coefficients(pw, 6))
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
        coeffs = dk_coefficients(pw, 8)
        bad, _, frac, _ = good_bad_partition(pw, ab, xs, coeffs)
        want = bad_mass_fraction(pw, xs, bad)
        assert frac == pytest.approx(want, rel=1e-13, abs=0.0)
        seen += int(np.any(bad))
        # a threshold product 100 times smaller marks every window bad
        every, _, frac, _ = good_bad_partition(pw, 0.01 * ab, xs, coeffs)
        assert every.all()
        assert frac == pytest.approx(bad_mass_fraction(pw, xs, every), rel=1e-13)
    assert seen


def test_good_bad_validation():
    pw = random_pw(Order(0.0), 1.0, 32, np.random.default_rng(5))
    coeffs = dk_coefficients(pw, 4)
    with pytest.raises(DomainError):
        good_bad_partition(pw, 0.0, np.array([2.0]), coeffs)
    with pytest.raises(DomainError):
        good_bad_partition(pw, 0.1, np.array([0.5]), coeffs)
    # off the integer lattice, pieces of neighbouring windows overlap
    with pytest.raises(DomainError, match="integers"):
        good_bad_partition(pw, 0.1, np.array([2.0, 2.5]), coeffs)


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
        ints = _window_integrals(pw, xs, coeffs)
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


def test_witness_point_satisfies_growth_bounds():
    # the pw bandlimit must equal the threshold product for unit half-width
    # windows to be good, mirroring how the recipe pairs them
    ab, x, k_max = 0.1, 3.0, 8
    pw = random_pw(Order(0.0), ab, 96, np.random.default_rng(6), kind="smooth")
    coeffs = dk_coefficients(pw, k_max)
    mass = _window_integrals(pw, x, coeffs)[0]
    (t,) = witness_point(pw, ab, [x], [mass], _left_rows(pw, coeffs, [x]), coeffs)
    lo, hi = (x - 1.0) ** 2, (x + 1.0) ** 2
    assert lo <= t <= hi
    base = 12.0 * math.pi**2 * ab * ab
    factor = 1.0
    alpha = pw.order.alpha
    for k in range(k_max + 1):
        dk = float(apply_Dk(pw, k, np.sqrt(np.array([t])))[0])
        assert t ** (alpha + k) * dk**2 <= factor * mass * (1 + 1e-9)
        factor *= base


def _witness_need(pw, ab, x, n, k_max=8):
    """Test oracle: the grid of n points on I_x and, at each point, the
    smallest window mass for which every growth bound of the witness search
    holds there, from one evaluation of the whole grid."""
    ts = np.linspace((x - 1.0) ** 2, (x + 1.0) ** 2, n)
    dk = apply_Dk_all(pw, dk_coefficients(pw, k_max), np.sqrt(ts))
    base = 12.0 * math.pi**2 * ab * ab
    with np.errstate(divide="ignore"):
        need = [
            ts ** (pw.order.alpha + k) * dk[k] ** 2 / base**k
            for k in range(k_max + 1)
        ]
    return ts, np.max(need, axis=0)


def _first_witness_full_grid(pw, ab, x, mass, k_max=8):
    """Test oracle: the witness search as a scan of every point of each grid,
    the first witness of the first grid that holds one, or None."""
    lo, hi = (x - 1.0) ** 2, (x + 1.0) ** 2
    alpha = pw.order.alpha
    base = 12.0 * math.pi**2 * ab * ab
    for n in (1000, 10_000, 100_000):
        ts = np.linspace(lo, hi, n)
        dk = apply_Dk_all(pw, dk_coefficients(pw, k_max), np.sqrt(ts))
        ok = np.ones(n, dtype=bool)
        factor = 1.0
        with np.errstate(divide="ignore"):
            for k in range(k_max + 1):
                ok &= ts ** (alpha + k) * dk[k] ** 2 <= factor * mass * (1 + 1e-12)
                factor *= base
        if np.any(ok):
            return float(ts[np.argmax(ok)])
    return None


@pytest.mark.parametrize("alpha", [0.0, -0.3])
def test_witness_point_matches_full_grid_scan(alpha):
    # the good windows of three recipe trials (seed 7, one per ab product)
    xs = np.arange(1.0, 16.0)
    first_at_origin = []
    for trial, ab in enumerate((0.05, 0.1, 0.3)):
        rng = np.random.default_rng((7, trial))
        pw = random_pw(Order(alpha), ab, 32, rng, kind="smooth")
        coeffs = dk_coefficients(pw, 8)
        bad, mass, _, left = good_bad_partition(pw, ab, xs, coeffs)
        assert not np.all(bad)
        got = witness_point(pw, ab, xs[~bad], mass[~bad], left[:, ~bad], coeffs)
        for x, m, t in zip(xs[~bad], mass[~bad], got):
            want = _first_witness_full_grid(pw, ab, x, m)
            assert want is not None
            assert t == want
            if x == 1.0:
                first_at_origin.append(want)
    # at alpha < 0 the window at x = 1 has no witness at its left end t = 0
    assert first_at_origin
    if alpha < 0:
        assert all(t > 0.0 for t in first_at_origin)


def test_witness_point_scans_every_point_in_order():
    # on the window at x = 1 at alpha = -0.3 the smallest mass that admits a
    # witness falls strictly along the 1000-point grid, so the mass that
    # admits grid point i makes i the first witness; i runs over the right
    # side of the chunk edge 1, both sides of the edges 17, 81 and 337, and
    # the last point.  There the left end t = 0 admits no finite mass; at
    # alpha = 0 it does, and that mass makes it the first witness, which is
    # the left side of the edge 1
    ab = 0.05
    pw = random_pw(Order(-0.3), ab, 32, np.random.default_rng((7, 0)), kind="smooth")
    ts, need = _witness_need(pw, ab, 1.0, 1000)
    assert np.all(np.diff(need[1:]) < 0)
    idx = [1, 2, 16, 17, 80, 81, 336, 337, 999]
    coeffs = dk_coefficients(pw, 8)
    xs = np.ones(len(idx))
    got = witness_point(pw, ab, xs, need[idx], _left_rows(pw, coeffs, xs), coeffs)
    assert np.array_equal(got, ts[idx])
    pw = random_pw(Order(0.0), ab, 32, np.random.default_rng((7, 0)), kind="smooth")
    ts, need = _witness_need(pw, ab, 1.0, 1000)
    mass = need[0]
    coeffs = dk_coefficients(pw, 8)
    (t,) = witness_point(pw, ab, [1.0], [mass], _left_rows(pw, coeffs, [1.0]), coeffs)
    assert t == ts[0] == _first_witness_full_grid(pw, ab, 1.0, mass)


@pytest.mark.parametrize("alpha", [-0.3, 0.0, 1.0])
def test_good_bad_trial_makes_one_kernel_pass(monkeypatch, alpha):
    # the recipe's trials at seed 7: the partition's pass over the 16 nodes
    # of each of the 16 pieces and the 16 piece starts is the only D^k pass
    # of a trial whose left ends are all witnesses; the others add grid
    # chunks.  At alpha < 0 the window at x = 1 has no witness at t = 0
    calls = []
    real_apply = annihilation.apply_Dk_all

    def recording_apply(pw, coeffs, x):
        calls.append(np.size(x))
        return real_apply(pw, coeffs, x)

    monkeypatch.setattr(annihilation, "apply_Dk_all", recording_apply)
    xs = np.arange(1.0, 16.0)
    one_pass = 0
    for trial in range(6):
        ab = (0.05, 0.1, 0.3)[trial % 3]
        rng = np.random.default_rng((7, trial))
        pw = random_pw(Order(alpha), ab, 32, rng, kind="smooth")
        coeffs = dk_coefficients(pw, 8)
        calls.clear()
        bad, mass, _, left = good_bad_partition(pw, ab, xs, coeffs)
        got = witness_point(pw, ab, xs[~bad], mass[~bad], left[:, ~bad], coeffs)
        assert calls[0] == 17 * 16
        if np.array_equal(got, (xs[~bad] - 1.0) ** 2):
            assert len(calls) == 1
            one_pass += 1
        else:
            assert len(calls) > 1
    assert one_pass == (0 if alpha < 0 else 6)


def test_good_bad_partition_left_rows_are_dk_at_the_left_ends():
    # D^k f at y = x - 1 from the piece pass, against a pass of its own
    xs = np.arange(1.0, 16.0)
    for alpha in (-0.3, 0.0, 1.0):
        pw = random_pw(Order(alpha), 0.1, 32, np.random.default_rng((7, 1)), kind="smooth")
        coeffs = dk_coefficients(pw, 8)
        left = good_bad_partition(pw, 0.1, xs, coeffs)[3]
        want = _left_rows(pw, coeffs, xs)
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert left.shape == want.shape
        assert np.all(np.abs(left - want) <= 1e-13 * scale)


def _threshold_witnesses(alpha):
    """The recipe's trial 2 at seed 7 (ab = 0.3), its windows at x = 2..15,
    each window's mass just above the smallest mass at which its left end
    t = (x - 1)^2 obeys every growth bound (from a D^k pass of its own at
    x - 1), and their witnesses with the left rows of good_bad_partition."""
    ab, xs = 0.3, np.arange(2.0, 16.0)
    pw = random_pw(Order(alpha), ab, 32, np.random.default_rng((7, 2)), kind="smooth")
    coeffs = dk_coefficients(pw, 8)
    lo = (xs - 1.0) ** 2
    dk = _left_rows(pw, coeffs, xs)
    base = 12.0 * math.pi**2 * ab * ab
    need = np.max([lo ** (alpha + k) * dk[k] ** 2 / base**k for k in range(9)], axis=0)
    masses = need * (1 + 1e-9)
    left = good_bad_partition(pw, ab, xs, coeffs)[3]
    return pw, xs, masses, witness_point(pw, ab, xs, masses, left, coeffs)


@pytest.mark.parametrize("alpha", [-0.3, 1.0])
def test_witness_point_left_end_probe_at_its_threshold(alpha):
    # the masses sit 1e-9 above each left end's threshold, so the probe
    # decides on the left rows' own values; the full-grid scan agrees
    pw, xs, masses, got = _threshold_witnesses(alpha)
    assert np.array_equal(got, (xs - 1.0) ** 2)
    for x, m, t in zip(xs, masses, got):
        assert t == _first_witness_full_grid(pw, 0.3, x, m)


def test_left_rows_from_the_right_piece_move_the_witness(monkeypatch):
    # fault: the left-end rows taken at the start x of each window's right
    # piece instead of x - 1; at the threshold masses some left end then
    # fails its probe and the scan moves past it
    real = annihilation._piece_integrals

    def right_piece_starts(pw, centers, coeffs):
        per_piece, halves, at_starts = real(pw, centers, coeffs)
        shifted = at_starts.copy()
        shifted[:, halves[0]] = at_starts[:, halves[1]]
        return per_piece, halves, shifted

    monkeypatch.setattr(annihilation, "_piece_integrals", right_piece_starts)
    _, xs, _, got = _threshold_witnesses(1.0)
    assert not np.array_equal(got, (xs - 1.0) ** 2, equal_nan=True)


def test_witness_point_refines_the_grid():
    # a mass between the smallest need on the 1000-point grid and on the
    # 10^4-point grid has no witness on the first grid and one on the second
    ab, x = 0.3, 10.0
    pw = random_pw(Order(0.0), ab, 32, np.random.default_rng((7, 2)), kind="smooth")
    coarse, need_coarse = _witness_need(pw, ab, x, 1000)
    fine, need_fine = _witness_need(pw, ab, x, 10_000)
    assert need_fine.min() < need_coarse.min() * (1 - 1e-6)
    mass = math.sqrt(need_fine.min() * need_coarse.min())
    coeffs = dk_coefficients(pw, 8)
    (t,) = witness_point(pw, ab, [x], [mass], _left_rows(pw, coeffs, [x]), coeffs)
    assert t == _first_witness_full_grid(pw, ab, x, mass)
    assert t in fine
    assert t not in coarse


def test_witness_point_is_nan_without_witness():
    ab, x = 0.3, 10.0
    pw = random_pw(Order(0.0), ab, 32, np.random.default_rng((7, 2)), kind="smooth")
    coeffs = dk_coefficients(pw, 8)
    mass = 1e-30 * _window_integrals(pw, x, coeffs)[0]
    left = _left_rows(pw, coeffs, [x])
    assert np.isnan(witness_point(pw, ab, [x], [mass], left, coeffs)).all()


def test_witness_point_scans_windows_in_lockstep():
    # one call over windows that finish at different steps: the second
    # (x = 10) needs the 10^4-point grid (the mass of the refinement test),
    # the windows at x = 2, 3, 5 finish in the first chunk, at their left
    # ends, and the last (x = 10 with a vanishing mass) has no witness; each
    # result is its window's own, also where a window ahead of it has
    # finished
    ab = 0.3
    pw = random_pw(Order(0.0), ab, 32, np.random.default_rng((7, 2)), kind="smooth")
    coeffs = dk_coefficients(pw, 8)
    _, need_coarse = _witness_need(pw, ab, 10.0, 1000)
    _, need_fine = _witness_need(pw, ab, 10.0, 10_000)
    xs = np.array([2.0, 10.0, 3.0, 5.0, 10.0])
    masses = _window_integrals(pw, xs, coeffs)[:, 0]
    masses[1] = math.sqrt(need_fine.min() * need_coarse.min())
    masses[4] *= 1e-30
    got = witness_point(pw, ab, xs, masses, _left_rows(pw, coeffs, xs), coeffs)
    for x, m, t in zip(xs[:-1], masses[:-1], got[:-1]):
        assert t == _first_witness_full_grid(pw, ab, x, m)
    assert np.isnan(got[-1])
    assert np.array_equal(got[[0, 2, 3]], (xs[[0, 2, 3]] - 1.0) ** 2)


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
