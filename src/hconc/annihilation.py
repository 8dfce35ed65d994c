"""Projection pairs, concentration eigenproblems, and the explicit
energy-concentration bound with its empirical verification.

Three numerical engines live here:

* pair_norm: the operator norm of (bandpass to Sigma) composed with
  (restrict to S), for plain interval sets S and Sigma, whose rules are
  sized from sup S and sup Sigma.  One side of the pair, the one whose
  quadrature rule has fewer nodes (n of them), is discretized on
  measure-weighted quadrature coordinates; the integral over the other set
  is exact, by Lommel's closed form for the integral of a product of two
  kernels, so the n x n Gram on the quadrature side comes from two kernel
  evaluations (orders alpha and alpha + 1) per node and set endpoint, an
  endpoint at 0 left out since its weight is 0, and one matrix product, in
  one n x n array.  Its numerical rank r is small (about |S| |Sigma| plus a
  log term), so LAPACK's pivoted Cholesky factors it in place to rank r in
  O(n^2 r) flops, and the top eigenvalue is that of the r x r core of the
  factor, against O(n^3) for a full eigensolver; node doubling repeats this
  until the norm is stable.  Every call runs the first two passes (scales
  1 and 2), so their rules come from one call and their kernel values from
  one call per order, which halves the fixed cost of those calls.

* ls_empirical_min_ratio: the minimum of ||f||^2_Omega / ||f||^2 over a
  discretized bandlimited space.  The discretization expands in the
  orthogonal mode basis j_alpha(s'_m x / X) on [0, X] (frequencies at scaled
  derivative zeros), whose Gram over the full window is exactly the identity;
  the minimum eigenvalue of the sub-window Gram is then a true concentration
  ratio with spectrum guaranteed inside [0, 1].  It is the squared smallest
  singular value of the Gram's factor, which keeps ratios far below 1e-16;
  the factor is formed in LAPACK's column order, so the SVD takes it
  without a copy.

* good/bad windows I_x = [(x-1)^2, (x+1)^2] in the squared variable, from
  one window plan per order, band and set of centers, kept across trials
  (`_window_plan`, the only good-bad cache): the window integrals on the
  unit pieces [x - 1, x] and [x, x + 1] of the root variable, each distinct
  piece integrated once (Gauss-Jacobi on the piece at 0), which also give
  the mass of the bad windows' union, and D^k f at every node and start of
  the pieces, from one kernel pass per trial.  A good window's witness is
  the first of its 34 points of that pass, in increasing s, that obeys
  every pointwise bound: its left end, probed first, then, only where the
  left end fails, its left piece's nodes, its centre and its right piece's
  nodes.  Also the analytic-growth inequality checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import linalg

from .bessel import Order, certify_bound, eval_j, zeros_below
from .errors import ConvergenceError, DomainError, InternalError
from .measure import IntervalSet, _check_power_range, mu_density_constant, mu_measure
from .paley_wiener import (
    PWFunction,
    _check_dk,
    _dk_signs,
    extremal_family,
    extremal_norm_sq,
    tail_mass,
    theta_constant,
)
from .quadrature import _PANEL, build_rule, mu_fold, mu_panels, mu_rule, mu_rules
from .quadrature import set_rule_size
from .transform import _block_rows, _kernel_blocks, _kernel_sums

_STABILITY_TOL = 1e-6
_MAX_DOUBLINGS = 4
# least nodes per unit length of each side's rule on pair_norm's first pass
_PAIR_PER_UNIT = 64
# entries of one row block of Lommel denominators a_k^2 - a_l^2
_DEN_BLOCK = 65536
# strong-pair trials draw spectra on [0, _TRIAL_BAND * sup Sigma]
_TRIAL_BAND = 2.0
# entries of the concentration factor (modes x Omega nodes): 128 MB
_FACTOR_ENTRIES = 2**24


# --------------------------------------------------------------------------
# pair norms


def _rate_per_unit(sup: float, pad: int) -> int:
    """ceil(4 sup) + pad: nodes per unit that resolve oscillation at rate ~ sup."""
    if math.isinf(4.0 * sup):
        raise DomainError(f"a set reaching {sup:g} needs more nodes than a rule holds")
    return math.ceil(4.0 * sup) + pad


def _pair_per_unit(S: IntervalSet, Sigma: IntervalSet, scale: int = 1):
    """Nodes per unit of the spectral rule on Sigma and of the spatial rule
    on S.  Each side takes `scale` times max(_PAIR_PER_UNIT, its resolution
    floor), so doubling the scale doubles the rule that is used, also where
    the floor rules."""
    # the spectral side must resolve oscillation in xi at rate ~ sup(S), and
    # the spatial side oscillation in x at rate ~ sup(Sigma)
    per_unit_xi = scale * max(_PAIR_PER_UNIT, _rate_per_unit(S.sup(), 32))
    per_unit_x = scale * max(_PAIR_PER_UNIT, _rate_per_unit(Sigma.sup(), 32))
    return per_unit_xi, per_unit_x


def _pair_side(S: IntervalSet, Sigma: IntervalSet, scale: int = 1):
    """(near, nodes per unit, far): the set of the side whose rule is
    shorter (Sigma on a tie), the nodes per unit of that rule, and the other
    side's set, over which `_lommel_grams` integrates in closed form.  The
    other side's rule is only sized, by `set_rule_size`."""
    per_unit_xi, per_unit_x = _pair_per_unit(S, Sigma, scale)
    if set_rule_size(Sigma, per_unit_xi) <= set_rule_size(S, per_unit_x):
        return Sigma, per_unit_xi, S
    return S, per_unit_x, Sigma


def _lommel_grams(order: Order, parts):
    """For each (far, t, s) of `parts`, one at a time, K[k, l] = s_k s_l
    integral over `far` of j_alpha(a_k y) j_alpha(a_l y) d mu_alpha(y),
    a = 2 pi t, in closed form (Lommel's integral).  With p = j_{alpha+1}(. R),
    q = j_alpha(. R) and c(R) = C R^(2 alpha + 2) / (2 (alpha + 1)), C the
    mu_alpha density constant,

        K_[0,R](a, b) = c(R) (a^2 p(aR) q(bR) - b^2 q(aR) p(bR)) / (a^2 - b^2),
        K_[0,R](a, a) = c(R) ((alpha + 1) q(aR)^2 - alpha p(aR) q(aR)
                              + (aR)^2 p(aR)^2 / (4 (alpha + 1))),

    and each interval [lo, hi) of `far` adds K_[0,hi] - K_[0,lo].  An end
    with c = 0, as an end at 0 has, adds nothing and takes no kernel values;
    those of every other end of every part come from one `eval_j` call per
    order, which works elementwise, so each Gram is the bits it has alone.
    P and Q hold s p and s q, one row per end, so over all ends the
    numerator is one product [diag(a^2) P^T C | -Q^T C] [Q; P diag(a^2)],
    C = diag(+-c).  It is divided by a_k^2 - a_l^2 in row blocks, in place,
    so the result is the only n x n array.  Raises DomainError where
    sup(far)^(2 alpha + 2) leaves the range of a double."""
    alpha = order.alpha
    prepared = []
    for far, t, s in parts:
        _check_power_range(order, far.sup(), 2.0 * alpha + 2.0)
        ends = np.array(far.intervals, dtype=float).ravel()
        signs = np.tile([-1.0, 1.0], len(far.intervals))
        c = signs * mu_density_constant(order) * ends ** (2.0 * alpha + 2.0)
        c /= 2.0 * alpha + 2.0
        a = 2.0 * math.pi * t
        prepared.append((c, a, np.outer(ends[c != 0.0], a), s))
    z = np.concatenate([z.ravel() for _, _, z, _ in prepared])
    q_all, p_all = eval_j(order, z), eval_j(order.shifted(1), z)
    start = 0
    for c, a, z, s in prepared:
        q = q_all[start : start + z.size].reshape(z.shape)
        p = p_all[start : start + z.size].reshape(z.shape)
        start += z.size
        kept = c != 0.0
        q *= s
        p *= s
        a2 = a * a
        cp = c[kept, None] * p * a2
        cq = c[kept, None] * q
        gram = np.hstack([cp.T, -cq.T]) @ np.vstack([q, p * a2])
        n = len(a)
        rows = max(1, _DEN_BLOCK // n)
        for i in range(0, n, rows):
            den = np.subtract.outer(a2[i : i + rows], a2)
            np.fill_diagonal(den[:, i:], 1.0)
            gram[i : i + rows] /= den
        # the diagonal sums over every end, a dropped one as a zero row:
        # dgemv's order of summation follows the row count, so leaving the
        # row out would move the last bits of unions that start at 0
        diag = np.zeros((len(c), n))
        diag[kept] = (alpha + 1.0) * q * q - alpha * p * q
        diag[kept] += z * z * p * p / (4.0 * alpha + 4.0)
        np.fill_diagonal(gram, c @ diag)
        yield gram
        del gram  # the caller is done with it: free it before the next


def _pass_grams(order: Order, S: IntervalSet, Sigma: IntervalSet, scales):
    """The Grams of the pair factor at each scale of `scales`, one at a
    time: each on the pass's shorter side (A A^T when Sigma has fewer
    nodes, else A^T A) and its mu_alpha rule (Gauss-Jacobi next to 0, so
    doubling converges fast also for alpha in (-1/2, 0), where
    x^(2 alpha + 1) is not smooth at 0), with the sum along the longer side
    replaced by the exact integral over its set (`_lommel_grams`), so that
    the factor is never formed.  The rules of all scales come from one
    `mu_rules` call."""
    sides = [_pair_side(S, Sigma, scale) for scale in scales]
    rules = mu_rules(order, [(near, per_unit) for near, per_unit, _ in sides])
    parts = [(far, t, np.sqrt(w)) for (t, w), (_, _, far) in zip(rules, sides)]
    return _lommel_grams(order, parts)


def _pair_grams(order: Order, S: IntervalSet, Sigma: IntervalSet):
    """The Grams of pair_norm's passes at scale 1, 2, 4, ...,
    2^_MAX_DOUBLINGS.  Every pair_norm call runs the first two, so they
    share their rule call and their kernel calls."""
    yield from _pass_grams(order, S, Sigma, (1, 2))
    for doubling in range(2, _MAX_DOUBLINGS + 1):
        yield from _pass_grams(order, S, Sigma, (2**doubling,))


def _sigma_max(gram: np.ndarray) -> float:
    """Top singular value of a factor from its n x n Gram G (A^T A or A A^T),
    the square root of G's largest eigenvalue; G is overwritten.

    LAPACK's pivoted Cholesky (dpstrf) factors P^T G P = L L^T + E in place
    and stops at rank r, where every pivot left is <= tol = n eps max_k
    G_kk.  The top eigenvalue of L L^T is that of the r x r core L^T L.  For
    a PSD Gram the rest E is PSD with trace <= (n - r) tol, so
    0 <= lambda_max(G) - lambda_max(L L^T) <= (n - r) tol.  Pivots below tol,
    roundoff-negative ones among them, end the factorization, so a
    rank-deficient Gram needs no care and a zero Gram has rank 0.  The cost
    is O(n^2 r + r^3) against O(n^3) for an eigensolver on G."""
    if not np.isfinite(gram).all():
        raise InternalError("pair Gram has non-finite entries")
    # gram.T is the Fortran-ordered view of the symmetric array, so dpstrf
    # factors it where it lies
    factor, _, rank, info = linalg.lapack.dpstrf(gram.T, lower=1, overwrite_a=1)
    if info < 0:
        raise InternalError(f"dpstrf rejected argument {-info}")
    if rank == 0:
        return 0.0
    lead = factor[:, :rank]
    lead[:rank] = np.tril(lead[:rank])  # dpstrf leaves G above the diagonal
    # the whole spectrum of the core: asking for the top eigenvalue alone
    # sends clustered spectra (S = Sigma = [0, 3]) to dstemr, which fails
    lam = linalg.eigvalsh(lead.T @ lead, overwrite_a=True, check_finite=False)
    return math.sqrt(max(float(lam[-1]), 0.0))


def pair_norm(order: Order, S: IntervalSet, Sigma: IntervalSet) -> float:
    """Operator norm ||F_Sigma E_S||: top singular value of the pair factor,
    refined by node doubling until 1e-6 stable, clipped to 1.  The rules are
    sized from sup S and sup Sigma (`_pair_per_unit`)."""
    if S.is_empty() or Sigma.is_empty():
        return 0.0
    # map drops each Gram once its norm is taken, before the next is built
    norms = map(_sigma_max, _pair_grams(order, S, Sigma))
    prev = next(norms)
    for cur in norms:
        if abs(cur - prev) <= _STABILITY_TOL:
            return min(cur, 1.0)
        prev = cur
    raise ConvergenceError(
        "pair norm did not stabilize under node doubling",
        last_iterate=prev,
        residual=abs(cur - prev),
    )


def annihilation_constant(norm: float) -> float:
    """(1 - norm)^-2; only certified when the norm is strictly below 1."""
    if not (0.0 <= norm < 1.0):
        raise DomainError(
            f"annihilation constant requires norm in [0, 1), got {norm}"
        )
    return (1.0 - norm) ** -2


def strong_pair_trials(
    order: Order,
    S: IntervalSet,
    Sigma: IntervalSet,
    const: float,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Monte-Carlo margins for the split-energy inequality
    ||f||^2 <= const (||f||^2 on S-complement + spectral mass outside
    Sigma), over random functions in a wide-band discretization; `const` is
    the annihilation constant of the pair (S, Sigma).

    Returns an array of rows (lhs, rhs); the inequality asks lhs <= rhs.
    """
    big = _TRIAL_BAND * Sigma.sup()
    # spectral nodes resolve the oscillation in xi at rate ~ sup(S)
    per_unit_xi = _rate_per_unit(S.sup(), 16)
    parts = (Sigma.intersect_window(0.0, big), Sigma.complement_within(0.0, big))
    (xi_in, u_in), (xi_out, u_out) = mu_rules(order, [(p, per_unit_xi) for p in parts])
    xi, u = np.concatenate([xi_in, xi_out]), np.concatenate([u_in, u_out])
    # z^T gram z is the mass on S of the function of weighted spectral coordinates z
    [gram] = _lommel_grams(order, [(S, xi, np.sqrt(u))])

    rng = np.random.default_rng(seed)
    rows = np.empty((trials, 2))
    for t in range(trials):
        z = rng.uniform(-1.0, 1.0, size=len(xi))
        total = float(z @ z)
        mass_s = float(z @ gram @ z)
        spec_out = float(z[len(xi_in) :] @ z[len(xi_in) :])
        rows[t] = (total, const * (max(total - mass_s, 0.0) + spec_out))
    return rows


# --------------------------------------------------------------------------
# concentration eigenproblem


def mode_frequencies(order: Order, b: float, x_max: float) -> np.ndarray:
    """Frequencies s'_m of the mode basis j_alpha(s'_m x / x_max) of
    PW_alpha(b) on [0, x_max]: 0 (the constant mode) and every positive zero
    of j_alpha' up to 2 pi b x_max, so the count grows with b x_max."""
    return np.concatenate([[0.0], zeros_below(order, 2.0 * math.pi * b * x_max)])


def _concentration_factor(
    order: Order, b: float, omega: IntervalSet, x_max: float
) -> np.ndarray:
    """Factor B, one row per mode of `mode_frequencies` and one column per
    mu_alpha quadrature node on Omega, whose Gram B B^T is the Omega-window
    energy form on the orthonormal mode basis.  The modes are mutually
    orthogonal on [0, x_max] by the two-frequency integral identity, and
    their mu_alpha norms there have closed forms."""
    if not (0 < b < math.inf and 0 < x_max < math.inf):
        raise DomainError(
            f"bandlimit and x_max must be positive and finite, got {b} and {x_max}"
        )
    if omega.sup() > x_max * (1 + 1e-12):
        raise DomainError("Omega must be contained in [0, x_max]")
    sp = mode_frequencies(order, b, x_max)
    norms = np.empty(len(sp))
    norms[0] = mu_measure(order, IntervalSet.of([(0.0, x_max)]))
    half_dens = 0.5 * mu_density_constant(order)  # pi^(alpha+1) / Gamma(alpha+1)
    jvals = eval_j(order, sp[1:])
    norms[1:] = half_dens * x_max ** (2.0 * order.alpha + 2.0) * jvals**2
    x, v = mu_rule(order, omega.intersect_window(0.0, x_max), max(12.0, 12.0 * b))
    if len(sp) * len(x) > _FACTOR_ENTRIES:
        raise DomainError(
            f"concentration factor of {len(sp)} modes x {len(x)} nodes exceeds "
            f"{_FACTOR_ENTRIES} entries; lower b or x_max"
        )
    # formed node-major and returned transposed: B is then in LAPACK's
    # column order, so svdvals factors it where it lies, with no copy
    kern = eval_j(order, np.outer(x, sp / x_max))
    kern *= np.sqrt(v)[:, None]
    kern /= np.sqrt(norms)[None, :]
    return kern.T


def ls_empirical_min_ratio(
    order: Order, b: float, omega: IntervalSet, x_max: float
) -> float:
    """Minimum concentration ratio min ||f||^2_Omega / ||f||^2 over the
    discretized bandlimited space: the smallest eigenvalue of the
    concentration Gram B B^T, guaranteed inside [0, 1], taken as the squared
    smallest singular value of the factor B.  An eigensolver on the Gram
    itself has absolute error ~1e-16, the size of the ratio where Omega
    leaves a gap in [0, x_max]; the singular values of B resolve it."""
    B = _concentration_factor(order, b, omega, x_max)
    if B.size:
        s = linalg.svdvals(B, overwrite_a=True, check_finite=False)
    else:
        s = np.zeros(1)
    if s[0] ** 2 > 1.0 + 1e-9:
        raise InternalError(f"concentration spectrum escaped [0, 1]: top {s[0]**2:.9f}")
    if B.shape[1] < len(B):
        return 0.0  # fewer nodes than modes leave the Gram singular
    return min(float(s[-1]) ** 2, 1.0)


# --------------------------------------------------------------------------
# the explicit bound


@dataclass(frozen=True)
class LSParams:
    """Density fraction gamma, window half-width a, bandlimit b, order."""

    gamma: float
    a: float
    b: float
    order: Order

    def __post_init__(self):
        if not (0 < self.gamma <= 1):
            raise DomainError(f"gamma must be in (0, 1], got {self.gamma}")
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise DomainError(
                f"a and b must be positive and finite, got {self.a} and {self.b}"
            )


def ls_bound_log10(params: LSParams) -> float:
    """Base-10 log of the explicit concentration constant
    (2/3) (gamma / (300 * 9^alpha))^(160 sqrt(3) pi ab / ln 2 + alpha ln3/ln2 + 1).

    Valid for order alpha >= 0.  Kept in log form because realistic
    (a, b) products underflow double precision.
    """
    alpha = params.order.alpha
    if alpha < 0:
        raise DomainError("the explicit bound requires order alpha >= 0")
    exponent = (
        160.0 * math.sqrt(3.0) * math.pi / math.log(2.0) * params.a * params.b
        + alpha * math.log(3.0) / math.log(2.0)
        + 1.0
    )
    log_base = math.log10(params.gamma) - math.log10(300.0) - alpha * math.log10(9.0)
    return math.log10(2.0 / 3.0) + exponent * log_base


def ls_bound(params: LSParams) -> float:
    """The explicit concentration constant itself; 0.0 on double underflow
    (see ls_bound_log10 for the exact logarithm)."""
    log10_val = ls_bound_log10(params)
    if log10_val < -307.0:
        return 0.0
    return 10.0**log10_val


# --------------------------------------------------------------------------
# good/bad windows in the squared variable


@lru_cache(maxsize=16)
def _window_plan(order: Order, k_max: int, centers: bytes, rule: bytes):
    """The arrays of a good-bad trial that depend on the order, k_max, the
    window centers and the spectral rule alone (keyed on the float64 bytes
    of the centers and of the rule's (2, n) nodes and weights), made once
    per process and read-only; 16 entries at most.  In order: each window's
    left and right piece index, shape (2, len(centers)); the points, the
    16-node `mu_panels` rules of the distinct unit pieces [s, s + 1],
    s in {x - 1, x}, then the starts s; the weight rows
    2 y^(2 alpha + 2k + 1) dy = (2 / C) y^(2k) d mu_alpha(y), k = 0..k_max;
    the folded spectral rows mu_fold(alpha + k); and the kernel ladder at
    the points and the spectral nodes as the one (block, kern) pair of
    `_kernel_blocks`, where it fits one row block (the recipe's 272 points
    x 32 nodes do), else none, and the kernel streams on each call."""
    _check_dk(k_max)
    x = np.frombuffer(centers)
    nodes, weights = np.frombuffer(rule).reshape(2, -1)
    starts, piece = np.unique(np.concatenate([x - 1.0, x]), return_inverse=True)
    y, w = mu_panels(order, starts, starts + 1.0)
    w *= 2.0 / mu_density_constant(order)
    y2 = y * y
    rows = np.empty((k_max + 1,) + y.shape)
    folded = np.empty((k_max + 1, len(nodes)))
    for k in range(k_max + 1):
        rows[k] = w
        w *= y2
        # one scalar power per row, as mu_hat_weights takes it: a power with
        # an array of exponents moves last bits
        folded[k] = mu_fold(order.shifted(k), nodes, weights)
    points = np.concatenate([y.ravel(), starts])
    held = ()
    if len(points) <= _block_rows(k_max, len(nodes)):
        held = tuple(_kernel_blocks(order, k_max, points, nodes))
    for part in (piece, points, rows, folded, *(kern for _, kern in held)):
        part.setflags(write=False)
    return piece.reshape(2, len(x)), points, rows, folded, held


def _piece_integrals(pw: PWFunction, centers: np.ndarray, k_max: int):
    """Integrals of |d^k g|^2 s^(alpha+k) over the pieces of the windows
    I_x = [(x-1)^2, (x+1)^2], k = 0..k_max, where g(s) = f(sqrt(s)), for the
    flat array `centers` of x.  In y = sqrt(s), where d^k g = D^k f, the
    integral is that of |D^k f(y)|^2 2 y^(2 alpha + 2k + 1) over the unit
    pieces [x - 1, x] and [x, x + 1]; neighbouring windows share a piece,
    and each distinct piece is integrated once.  One kernel pass over the
    window plan's points gives D^k f at the nodes of every piece and at
    every piece start; a window's left end is the start of its left piece.
    Returns the integrals of the distinct pieces, one row (k = 0..k_max) per
    piece, each window's left and right piece row, shape (2, len(centers))
    (a window's integrals are the sum of its two rows), the pass's points
    in y (the nodes of each piece, piece after piece, then the piece
    starts), D^k f there, one row per k, and the mu_alpha mass of f^2 on
    [0, inf) from the plan's folded row k = 0."""
    rule = np.asarray([pw.nodes, pw.weights], dtype=float).tobytes()
    plan = _window_plan(pw.order, k_max, centers.tobytes(), rule)
    halves, points, rows, folded, held = plan
    # at the recipe's 32 spectral nodes the rows are one kernel block and
    # the 16 per piece fill whole BLAS row groups: the starts after them
    # change no piece value
    blocks = held or _kernel_blocks(pw.order, k_max, points, pw.nodes)
    dk = _dk_signs(_kernel_sums(blocks, len(points), folded * pw.coeffs))
    n = rows[0].size
    per_piece = np.sum(rows * dk[:, :n].reshape(rows.shape) ** 2, axis=2).T
    total = float(np.dot(folded[0], pw.coeffs**2))
    return per_piece, halves, points, dk, total


def good_bad_partition(
    pw: PWFunction, ab: float, xs, k_max: int
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Label each window center x of `xs`, an integer >= 1, as bad when some
    derivative order k in [1, k_max] has >= (2 pi ab)^(2k) times the
    window's own mass: integral over I_x of |d^k g|^2 s^(alpha+k) >=
    (2 pi ab)^(2k) * integral over I_x of |g|^2 s^alpha.

    Returns the boolean bad-mask, the window masses (the k = 0 integrals),
    the bad-mass fraction (the share of the squared-variable energy on the
    union of the bad windows, against the closed-form total
    (Gamma(alpha+1)/pi^(alpha+1)) ||f||^2), and the witness of each good
    window (`_witnesses`), NaN on the bad ones.  On integer centers that
    union is the union of the distinct unit pieces of the bad windows, so
    its mass is the sum of their k = 0 integrals.  One kernel pass gives
    them and D^k f at every point where a witness is sought."""
    if not (0.0 < ab < math.inf):
        raise DomainError(f"bandlimit product ab must be positive and finite, got {ab}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(xs < 1.0):
        raise DomainError("window centers must be >= 1")
    if np.any(xs != np.round(xs)):
        raise DomainError("window centers must be integers")
    per_piece, halves, points, dk, total = _piece_integrals(pw, xs, k_max)
    ints = per_piece[halves[0]] + per_piece[halves[1]]
    mass = ints[:, 0]
    factors = np.cumprod(np.full(k_max, (2.0 * math.pi * ab) ** 2))
    bad = np.any(ints[:, 1:] >= factors * mass[:, None], axis=1)
    # the k = 0 integral of a piece is 2 / C times its mu_alpha mass of f^2,
    # and the total is the mu_alpha mass of f^2 on [0, inf)
    bad_pieces = np.unique(halves[:, bad])
    frac = (
        float(np.sum(per_piece[bad_pieces, 0]))
        * (0.5 * mu_density_constant(pw.order))
        / total
    )
    good = ~bad
    witness = np.full(len(xs), np.nan)
    witness[good] = _witnesses(pw.order, ab, mass[good], halves[:, good], points, dk)
    return bad, mass, frac, witness


def _witnesses(order: Order, ab: float, masses, pieces, points, dk) -> np.ndarray:
    """The witness of each window (its two pieces a column of `pieces`, its
    integral of |g|^2 s^alpha in `masses`): the first of its 34 points of
    the pass (`points` and `dk` as `_piece_integrals` returns them), in
    increasing t = y^2, where t^(alpha+k) |D^k f|^2 <= (12 pi^2 (ab)^2)^k *
    mass for every k, NaN where none is.  They are its left end, its left
    piece's nodes, its centre and its right piece's nodes; the left end is
    probed for every window, the rest only where it fails."""
    n = len(points) // (_PANEL + 1) * _PANEL  # the piece starts follow the nodes
    powers = (order.alpha + np.arange(len(dk)))[:, None, None]
    bounds = np.full((len(dk), 1, 1), 12.0 * math.pi**2 * ab * ab)
    bounds[0] = 1.0
    bounds = np.cumprod(bounds, axis=0)

    def holds(cols, mass):
        # t at the candidates `cols` (windows x candidates), and where every
        # bound holds; t = 0 fails the k = 0 bound for alpha < 0
        t = points[cols] ** 2
        with np.errstate(divide="ignore"):
            ok = t**powers * dk[:, cols] ** 2 <= bounds * mass[:, None] * (1 + 1e-12)
        return t, np.all(ok, axis=0)

    t, ok = holds(n + pieces[0, :, None], masses)
    witness = np.where(ok[:, 0], t[:, 0], np.nan)
    fail = np.flatnonzero(~ok[:, 0])
    if len(fail):
        left, right = pieces[:, fail, None]
        nodes = np.arange(_PANEL)
        t, ok = holds(
            np.hstack([left * _PANEL + nodes, n + right, right * _PANEL + nodes]),
            masses[fail],
        )
        first = t[np.arange(len(fail)), np.argmax(ok, axis=1)]
        witness[fail] = np.where(np.any(ok, axis=1), first, np.nan)
    return witness


# --------------------------------------------------------------------------
# analytic-growth (doubling) inequality


def kovrijkine_check(phi, interval, J: IntervalSet) -> tuple[float, float]:
    """Both sides of the analytic doubling inequality
    integral_I |phi|^2 <= (300 |I| / |J|)^(2 ln(M/m)/ln 2 + 1) integral_J |phi|^2
    with M the sup of |phi| on the stadium dist(z, I) < 4|I| and m its sup
    on I.  phi is a power-series coefficient sequence, lowest order first.
    By the maximum modulus principle the polynomial's sup on the closed
    stadium is taken on its boundary, so M is the maximum over samples of
    the boundary (and at least m).
    """
    phi = np.asarray(phi, dtype=float)
    polyval = np.polynomial.polynomial.polyval
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise DomainError("interval I is degenerate")
    if J.is_empty() or J.intersect_window(lo, hi).length() < J.length() * (1 - 1e-12):
        raise DomainError("J must be a positive-length subset of I")
    length = hi - lo
    nodes, weights = build_rule(lo, hi, 128)
    lhs = float(np.dot(weights, polyval(nodes, phi) ** 2))

    grid = np.linspace(lo, hi, 2001)
    m = float(np.max(np.abs(polyval(grid, phi))))
    if m == 0.0:
        raise DomainError("degenerate check: phi vanishes identically on I")

    r = 4.0 * length
    # stadium boundary: two semicircles and two horizontal edges; odd counts
    # keep the axis crossings (where polynomial moduli peak) on the grid
    t = np.linspace(0.0, math.pi, 257)
    left = lo + r * np.exp(1j * (t + math.pi / 2))
    right = hi + r * np.exp(1j * (t - math.pi / 2))
    xs = np.linspace(lo, hi, 257)
    stadium = np.concatenate([left, right, xs + 1j * r, xs - 1j * r])
    M = max(float(np.max(np.abs(polyval(stadium, phi)))), m)

    ratio = 300.0 * length / J.length()
    exponent = 2.0 * math.log(M / m) / math.log(2.0) + 1.0
    j_int = 0.0
    for a, b_hi in J.intervals:
        nodes, weights = build_rule(a, b_hi, 128)
        j_int += float(np.dot(weights, polyval(nodes, phi) ** 2))
    rhs = ratio**exponent * j_int
    return lhs, rhs


# --------------------------------------------------------------------------
# necessity-direction demonstration


@dataclass(frozen=True)
class NecessityRow:
    n: int
    s_prime: float
    a: float
    concentration: float
    concentrated: bool
    tail: float
    window_mass: float
    window_bound: float
    gamma_implied: float
    passes: bool


def density_necessity_demo(
    order: Order, omega: IntervalSet, c: float
) -> list[NecessityRow]:
    """Walk the peaked family across omega: wherever the concentration
    hypothesis (window energy fraction >= c) holds at a node, the window mass
    of omega around that node must exceed an explicit lower bound derived from
    the certified kernel envelope; a gap in omega shows up as a failed
    hypothesis row instead."""
    if not (0 < c < 1):
        raise DomainError("hypothesized concentration constant must be in (0,1)")
    alpha = order.alpha
    theta = theta_constant(order)
    c_a = certify_bound(order, 200.0)
    c_a2 = certify_bound(order.shifted(2), 200.0)
    big_c = 2.0 * math.pi ** (alpha + 1.0) * c_a**2 / (
        theta * math.gamma(alpha + 2.0)
    )
    a = max(5.0, 4.0 * big_c / c)
    rows: list[NecessityRow] = []
    omega_nodes, omega_w = mu_rule(order, omega, 12.0)
    for n, s in enumerate(zeros_below(order, omega.sup()).tolist(), start=1):
        if s < a:
            continue
        norm_sq = extremal_norm_sq(order, n)
        vals = extremal_family(order, n, omega_nodes)
        conc = float(np.dot(omega_w, vals**2)) / norm_sq
        tail = tail_mass(order, n, a)
        win_mass = mu_measure(order, omega.intersect_window(s - a, s + a))
        bound = (
            (alpha + 2.0) ** 2
            * (alpha + 1.0)
            * c
            / (2.0 ** (2 * alpha + 8.0) * a ** (2 * alpha + 5.0) * theta * c_a2**2)
            * s ** (2 * alpha + 1.0)
        )
        gamma_implied = bound / (
            2.0 ** (2 * alpha + 3.0)
            * math.pi ** (alpha + 1.0)
            / math.gamma(alpha + 1.0)
            * a
            * s ** (2 * alpha + 1.0)
        )
        hypothesis = conc >= c
        passes = (not hypothesis) or win_mass >= bound * (1 - 1e-9)
        rows.append(
            NecessityRow(
                n=n,
                s_prime=s,
                a=a,
                concentration=conc,
                concentrated=hypothesis,
                tail=tail,
                window_mass=win_mass,
                window_bound=bound,
                gamma_implied=gamma_implied,
                passes=passes,
            )
        )
    return rows
