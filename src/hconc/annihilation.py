"""Projection pairs, concentration eigenproblems, and the explicit
energy-concentration bound with its empirical verification.

Three numerical engines live here:

* pair_norm: the operator norm of (bandpass to Sigma) composed with
  (restrict to S).  One side of the pair, the one whose quadrature rule has
  fewer nodes (n of them), is discretized on measure-weighted quadrature
  coordinates; the integral over the other set is exact, by Lommel's closed
  form for the integral of a product of two kernels, so the n x n Gram on
  the quadrature side comes from two kernel evaluations (orders alpha and
  alpha + 1) per node and set endpoint, an endpoint at 0 left out since
  its weight is 0, and one matrix product, in one n x n array.  Its
  numerical rank r is small (about |S| |Sigma| plus a log term), so
  LAPACK's pivoted Cholesky factors it in place to rank r in O(n^2 r)
  flops, and the top eigenvalue is that of the r x r core of the factor,
  against O(n^3) for a full eigensolver; node doubling repeats this until
  the norm is stable.  Every call runs the first two passes (scales 1 and
  2), so their rules come from one call and their kernel values from one
  call per order, which halves the fixed cost of those calls.

* ls_empirical_min_ratio: the minimum of ||f||^2_Omega / ||f||^2 over a
  discretized bandlimited space.  The discretization expands in the
  orthogonal mode basis j_alpha(s'_m x / X) on [0, X] (frequencies at scaled
  derivative zeros), whose Gram over the full window is exactly the identity;
  the minimum eigenvalue of the sub-window Gram is then a true concentration
  ratio with spectrum guaranteed inside [0, 1].  It is the squared smallest
  singular value of the Gram's factor, which keeps ratios far below 1e-16;
  the factor is formed in LAPACK's column order, so the SVD takes it
  without a copy.

* good/bad windows I_x = [(x-1)^2, (x+1)^2] in the squared variable, in one
  kernel pass per trial: the window integrals on the unit pieces [x - 1, x]
  and [x, x + 1] of the root variable, each distinct piece integrated once
  (Gauss-Jacobi on the piece at 0), which also give the mass of the bad
  windows' union, and D^k f at the piece starts, the windows' left ends.  A
  witness scan of every good window probes its left end from that pass and
  builds grids, scanned in lockstep, only for the windows whose left end
  fails.  Also the analytic-growth inequality checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .bessel import Order, cached_zero_table, certify_bound, eval_j
from .errors import ConvergenceError, DomainError, InternalError
from .measure import IntervalSet, _check_power_range, mu_density_constant, mu_measure
from .paley_wiener import (
    PWFunction,
    apply_Dk_all,
    extremal_family,
    extremal_norm_sq,
    tail_mass,
    theta_constant,
)
from .quadrature import build_rule, mu_panels, mu_rule, mu_rules, set_rule_size

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


@dataclass(frozen=True)
class ProjectionPair:
    """A spatial set S, a spectral set Sigma, and the window [0, x_max]
    that holds S.  The quadrature rules are sized by `_pair_per_unit`."""

    order: Order
    S: IntervalSet
    Sigma: IntervalSet
    x_max: float

    def __post_init__(self):
        if self.S.sup() > self.x_max * (1 + 1e-12):
            raise DomainError("S must be contained in [0, x_max]")


def _pair_per_unit(pair: ProjectionPair, scale: int = 1):
    """Nodes per unit of the spectral rule on Sigma and of the spatial rule
    on S.  Each side takes `scale` times max(_PAIR_PER_UNIT, its resolution
    floor), so doubling the scale doubles the rule that is used, also where
    the floor rules."""
    # the spectral side must resolve oscillation in xi at rate ~ sup(S), and
    # the spatial side oscillation in x at rate ~ sup(Sigma)
    per_unit_xi = scale * max(_PAIR_PER_UNIT, math.ceil(4.0 * pair.S.sup()) + 32)
    per_unit_x = scale * max(_PAIR_PER_UNIT, math.ceil(4.0 * pair.Sigma.sup()) + 32)
    return per_unit_xi, per_unit_x


def _pair_side(pair: ProjectionPair, scale: int = 1):
    """(near, nodes per unit, far): the set of the side whose rule is
    shorter (Sigma on a tie), the nodes per unit of that rule, and the other
    side's set, over which `_lommel_grams` integrates in closed form.  The
    other side's rule is only sized, by `set_rule_size`."""
    per_unit_xi, per_unit_x = _pair_per_unit(pair, scale)
    if set_rule_size(pair.Sigma, per_unit_xi) <= set_rule_size(pair.S, per_unit_x):
        return pair.Sigma, per_unit_xi, pair.S
    return pair.S, per_unit_x, pair.Sigma


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


def _pass_grams(pair: ProjectionPair, scales):
    """The Grams of the pair factor at each scale of `scales`, one at a
    time: each on the pass's shorter side (A A^T when Sigma has fewer
    nodes, else A^T A) and its mu_alpha rule (Gauss-Jacobi next to 0, so
    doubling converges fast also for alpha in (-1/2, 0), where
    x^(2 alpha + 1) is not smooth at 0), with the sum along the longer side
    replaced by the exact integral over its set (`_lommel_grams`), so that
    the factor is never formed.  The rules of all scales come from one
    `mu_rules` call."""
    sides = [_pair_side(pair, scale) for scale in scales]
    rules = mu_rules(pair.order, [(near, per_unit) for near, per_unit, _ in sides])
    parts = [(far, t, np.sqrt(w)) for (t, w), (_, _, far) in zip(rules, sides)]
    return _lommel_grams(pair.order, parts)


def _pair_grams(pair: ProjectionPair):
    """The Grams of pair_norm's passes at scale 1, 2, 4, ...,
    2^_MAX_DOUBLINGS.  Every pair_norm call runs the first two, so they
    share their rule call and their kernel calls."""
    yield from _pass_grams(pair, (1, 2))
    for doubling in range(2, _MAX_DOUBLINGS + 1):
        yield from _pass_grams(pair, (2**doubling,))


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


def pair_norm(pair: ProjectionPair) -> float:
    """Operator norm ||F_Sigma E_S||: top singular value of the pair factor,
    refined by node doubling until 1e-6 stable, clipped to 1."""
    if pair.S.is_empty() or pair.Sigma.is_empty():
        return 0.0
    # map drops each Gram once its norm is taken, before the next is built
    norms = map(_sigma_max, _pair_grams(pair))
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
    norm: float,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Monte-Carlo margins for the split-energy inequality
    ||f||^2 <= (1-norm)^-2 (||f||^2 on S-complement + spectral mass outside
    Sigma), over random functions in a wide-band discretization; `norm` is
    pair_norm of the pair (S, Sigma).

    Returns an array of rows (lhs, rhs); the inequality asks lhs <= rhs.
    """
    big = _TRIAL_BAND * Sigma.sup()
    # spectral nodes resolve the oscillation in xi at rate ~ sup(S)
    per_unit_xi = math.ceil(4.0 * S.sup()) + 16
    xi_in, u_in = mu_rule(order, Sigma.intersect_window(0.0, big), per_unit_xi)
    xi_out, u_out = mu_rule(order, Sigma.complement_within(0.0, big), per_unit_xi)
    xi = np.concatenate([xi_in, xi_out])
    u = np.concatenate([u_in, u_out])
    sigma_mask = np.arange(len(xi)) < len(xi_in)
    # z^T gram z is the mass on S of the function with weighted spectral
    # coordinates z
    [gram] = _lommel_grams(order, [(S, xi, np.sqrt(u))])
    const = annihilation_constant(norm)

    rng = np.random.default_rng(seed)
    rows = np.empty((trials, 2))
    for t in range(trials):
        z = rng.uniform(-1.0, 1.0, size=len(xi))
        total = float(z @ z)
        mass_s = float(z @ gram @ z)
        spec_out = float(z[~sigma_mask] @ z[~sigma_mask])
        lhs = total
        rhs = const * (max(total - mass_s, 0.0) + spec_out)
        rows[t] = (lhs, rhs)
    return rows


# --------------------------------------------------------------------------
# concentration eigenproblem


def mode_frequencies(order: Order, b: float, x_max: float) -> np.ndarray:
    """Frequencies s'_m of the mode basis j_alpha(s'_m x / x_max) of
    PW_alpha(b) on [0, x_max]: 0 (the constant mode) and every positive zero
    of j_alpha' up to 2 pi b x_max, so the count grows with b x_max."""
    limit = 2.0 * math.pi * b * x_max
    count = max(8, int(limit / math.pi) + 8)
    table = cached_zero_table(order.alpha, count)
    while table.zeros[-1] < limit:
        count *= 2
        table = cached_zero_table(order.alpha, count)
    return np.concatenate([[0.0], table.zeros[table.zeros <= limit]])


def _concentration_factor(
    order: Order, b: float, omega: IntervalSet, x_max: float
) -> np.ndarray:
    """Factor B, one row per mode of `mode_frequencies` and one column per
    mu_alpha quadrature node on Omega, whose Gram B B^T is the Omega-window
    energy form on the orthonormal mode basis.  The modes are mutually
    orthogonal on [0, x_max] by the two-frequency integral identity, and
    their mu_alpha norms there have closed forms."""
    if b <= 0 or x_max <= 0:
        raise DomainError("bandlimit and x_max must be positive")
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
        if self.a <= 0 or self.b <= 0:
            raise DomainError("a and b must be positive")


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


def _piece_integrals(pw: PWFunction, centers: np.ndarray, coeffs: np.ndarray):
    """Integrals of |d^k g|^2 s^(alpha+k) over the pieces of the windows
    I_x = [(x-1)^2, (x+1)^2], k = 0..k_max, where g(s) = f(sqrt(s)), for the
    flat array `centers` of x.  `coeffs` = dk_coefficients(pw, k_max) are
    the D^k rows, and k_max = len(coeffs) - 1.

    In y = sqrt(s), where d^k g = D^k f, the integral is that of
    |D^k f(y)|^2 2 y^(2 alpha + 2k + 1) over the unit pieces [x - 1, x] and
    [x, x + 1].  Neighbouring windows share a piece; each distinct piece is
    integrated once by its 16-node rule from `mu_panels`.  One `apply_Dk_all`
    call gives D^k f at the nodes of every piece and, appended after them,
    at every piece start; a window's left end is the start of its left
    piece.  Returns the integrals of the distinct pieces, one row (k =
    0..k_max) per piece, a (2, len(centers)) array of the rows of each
    window's left and right piece (a window's integrals are the sum of its
    two rows), and D^k f at the piece starts, one column per piece."""
    k_max = len(coeffs) - 1
    starts, piece = np.unique(
        np.concatenate([centers - 1.0, centers]), return_inverse=True
    )
    y, w = mu_panels(pw.order, starts, starts + 1.0)
    # at the recipe's 32 spectral nodes the rows are one kernel block and
    # the 16 per piece fill whole BLAS row groups: the starts after them
    # change no piece value
    dk = apply_Dk_all(pw, coeffs, np.concatenate([y.ravel(), starts]))
    at_starts = dk[:, y.size :]
    dk = dk[:, : y.size].reshape((k_max + 1,) + y.shape)
    # 2 y^(2 alpha + 2k + 1) dy = (2 / C) y^(2k) d mu_alpha(y)
    w *= 2.0 / mu_density_constant(pw.order)
    y2 = y * y
    per_piece = np.empty((len(starts), k_max + 1))
    for k in range(k_max + 1):
        per_piece[:, k] = np.sum(w * dk[k] ** 2, axis=1)
        w *= y2
    return per_piece, piece.reshape(2, len(centers)), at_starts


def good_bad_partition(
    pw: PWFunction, ab: float, xs, coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Label each window center x of `xs`, an integer >= 1, as bad when some
    derivative order k in [1, k_max] has >= (2 pi ab)^(2k) times the
    window's own mass: integral over I_x of |d^k g|^2 s^(alpha+k) >=
    (2 pi ab)^(2k) * integral over I_x of |g|^2 s^alpha.  `coeffs` =
    dk_coefficients(pw, k_max) are the D^k rows, and k_max = len(coeffs) - 1.

    Returns the boolean bad-mask, the window masses (the k = 0 integrals),
    the bad-mass fraction, and D^k f at each window's left end y = x - 1
    (s = (x - 1)^2), shape (k_max + 1, len(xs)); witness_point takes the
    masses and left-end rows of the windows it scans.  The fraction is the
    share of the squared-variable energy on the union of the bad windows,
    against the closed-form total (Gamma(alpha+1)/pi^(alpha+1)) ||f||^2.
    On integer centers that union is the union of the distinct unit pieces
    of the bad windows, so its mass is the sum of their k = 0 integrals, and
    all four come from one kernel pass."""
    if ab <= 0:
        raise DomainError("bandlimit product ab must be positive")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(xs < 1.0):
        raise DomainError("window centers must be >= 1")
    if np.any(xs != np.round(xs)):
        raise DomainError("window centers must be integers")
    per_piece, halves, at_starts = _piece_integrals(pw, xs, coeffs)
    ints = per_piece[halves[0]] + per_piece[halves[1]]
    mass = ints[:, 0]
    bad = np.zeros(len(xs), dtype=bool)
    base = (2.0 * math.pi * ab) ** 2
    factor = 1.0
    for k in range(1, len(coeffs)):
        factor *= base
        bad |= ints[:, k] >= factor * mass
    # the k = 0 integral of a piece is 2 / C times its mu_alpha mass of f^2,
    # and the total is the mu_alpha mass of f^2 on [0, inf)
    bad_pieces = np.unique(halves[:, bad])
    total = float(np.dot(pw.mu_hat_weights(), pw.coeffs**2))
    frac = (
        float(np.sum(per_piece[bad_pieces, 0]))
        * (0.5 * mu_density_constant(pw.order))
        / total
    )
    return bad, mass, frac, at_starts[:, halves[0]]


def witness_point(
    pw: PWFunction, ab: float, xs, masses, left, coeffs: np.ndarray
) -> np.ndarray:
    """For each window center x of `xs`, the first point t of a grid on I_x
    where every derivative order obeys the pointwise growth bound
    t^(alpha+k) |d^k g(t)|^2 <= (12 pi^2 (ab)^2)^k * window mass, or NaN
    where no grid holds one.  The grids are 1000 equispaced points on I_x
    and two tenfold refinements, each starting at the left end (x - 1)^2.
    `masses` (the windows' integrals of |g|^2 s^alpha), `left` (D^k f at
    y = x - 1, one column per window) and `coeffs` = dk_coefficients(pw,
    k_max) are as good_bad_partition returns and takes them.

    The left end is probed first, from `left`, with no kernel pass; in the
    good-bad recipe's trials it is the witness of nearly every window.  The
    grids are built only for the windows whose left end fails, and scanned
    in order from their second point, in chunks of 16, 64, 256, ... points;
    a window stops at the first chunk that holds a witness, the first of
    its grid.  The windows scan in lockstep, one `apply_Dk_all` call per
    chunk step over the windows still open; the kernel is evaluated point
    by point, so no window's result depends on the others."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    masses = np.atleast_1d(np.asarray(masses, dtype=float))
    n_k = len(coeffs)
    powers = (pw.order.alpha + np.arange(n_k))[:, None, None]
    base = 12.0 * math.pi**2 * ab * ab
    bounds = np.cumprod(np.r_[1.0, np.full(n_k - 1, base)])[:, None, None]

    def holds(t, dk, mass):
        # every bound at every point of t (windows x points); t = 0 (the
        # window at x = 1) fails the k = 0 bound for alpha < 0
        with np.errstate(divide="ignore"):
            ok = t**powers * dk**2 <= bounds * mass * (1 + 1e-12)
        return np.all(ok, axis=0)

    lo = (xs - 1.0) ** 2
    at_left = holds(lo[:, None], left[:, :, None], masses[:, None])[:, 0]
    witness = np.where(at_left, lo, np.nan)
    todo = np.flatnonzero(~at_left)  # windows with no witness on the grids so far
    for n in (1000, 10_000, 100_000):
        if not len(todo):
            break
        ts = np.linspace(lo[todo], (xs[todo] + 1.0) ** 2, n, axis=-1)
        rows = np.arange(len(todo))  # rows of ts still open on this grid
        start, size = 1, 16
        while start < n and len(rows):
            t = ts[rows, start : start + size]
            dk = apply_Dk_all(pw, coeffs, np.sqrt(t).ravel())
            ok = holds(t, dk.reshape((n_k,) + t.shape), masses[todo[rows], None])
            hit = np.any(ok, axis=1)
            witness[todo[rows[hit]]] = t[hit, np.argmax(ok[hit], axis=1)]
            rows = rows[~hit]
            start += size
            size *= 4
        todo = todo[rows]
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
    sup = omega.sup()
    table = cached_zero_table(alpha, max(8, int(sup / math.pi) + 4))
    rows: list[NecessityRow] = []
    omega_nodes, omega_w = mu_rule(order, omega, 12.0)
    for n in range(1, len(table) + 1):
        s = table.s_prime(n)
        if s > sup:
            break
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
