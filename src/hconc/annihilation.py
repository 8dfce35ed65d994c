"""Projection pairs, concentration eigenproblems, and the explicit
energy-concentration bound with its empirical verification.

Three numerical engines live here:

* pair_norm: the operator norm of (bandpass to Sigma) composed with
  (restrict to S).  One side of the pair, the one whose quadrature rule has
  fewer nodes, is discretized on measure-weighted quadrature coordinates;
  the integral over the other set is exact, by Lommel's closed form for
  the integral of a product of two kernels, so the Gram on the quadrature
  side comes from two kernel evaluations per node and set endpoint and one
  matrix product, with no row blocks.  LAPACK's `eigvalsh` returns its top
  eigenvalue alone; node doubling repeats this until the norm is stable.

* ls_empirical_min_ratio: the minimum of ||f||^2_Omega / ||f||^2 over a
  discretized bandlimited space.  The discretization expands in the
  orthogonal mode basis j_alpha(s'_m x / X) on [0, X] (frequencies at scaled
  derivative zeros), whose Gram over the full window is exactly the identity;
  the minimum eigenvalue of the sub-window Gram is then a true concentration
  ratio with spectrum guaranteed inside [0, 1].  It is the squared smallest
  singular value of the Gram's factor, which keeps ratios far below 1e-16.

* good/bad windows I_x = [(x-1)^2, (x+1)^2] in the squared variable, in two
  batched kernel passes per trial: the window integrals on the unit pieces
  [x - 1, x] and [x, x + 1] of the root variable, each distinct piece
  integrated once (Gauss-Jacobi on the piece at 0), and a witness scan of
  every good window in lockstep.  Also the analytic-growth inequality
  checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .bessel import Order, cached_zero_table, certify_bound, eval_j
from .errors import ConvergenceError, DomainError, InternalError
from .measure import IntervalSet, mu_density_constant, mu_measure
from .paley_wiener import (
    PWFunction,
    apply_Dk_all,
    extremal_family,
    extremal_norm_sq,
    synthesize,
    tail_mass,
    theta_constant,
)
from .quadrature import build_rule, mu_pieces, mu_rule

_STABILITY_TOL = 1e-6
_MAX_DOUBLINGS = 4
# strong-pair trials draw spectra on [0, _TRIAL_BAND * sup Sigma]
_TRIAL_BAND = 2.0


# --------------------------------------------------------------------------
# pair norms


@dataclass(frozen=True)
class ProjectionPair:
    """A spatial set S, a spectral set Sigma, and discretization controls.

    nodes_per_interval is the starting x/xi budget for each interval; the
    norm computation doubles it until the value is stable.
    """

    order: Order
    S: IntervalSet
    Sigma: IntervalSet
    x_max: float
    nodes_per_interval: int = 64

    def __post_init__(self):
        if self.S.sup() > self.x_max * (1 + 1e-12):
            raise DomainError("S must be contained in [0, x_max]")
        if self.nodes_per_interval < 4:
            raise DomainError("node budget too small")


def _pair_nodes(pair: ProjectionPair, budget: int, scale: int = 1):
    """Spectral nodes xi on Sigma and spatial nodes x on S, each with the
    square root of its mu_alpha quadrature weight.  Each side takes `scale`
    times max(budget, its resolution floor) nodes per unit, so doubling the
    scale doubles the rule that is used, also where the floor rules.  The
    density x^(2 alpha+1) is integrated exactly by the rule (Gauss-Jacobi
    next to 0), so doubling converges fast also where it is not smooth at 0,
    for alpha in (-1/2, 0)."""
    # spectral side must resolve oscillation in xi at rate ~ sup(S)
    per_unit_xi = scale * max(budget, math.ceil(4.0 * pair.S.sup()) + 32)
    xi, u = mu_rule(pair.order, pair.Sigma, per_unit_xi)
    # spatial side must resolve oscillation in x at rate ~ sup(Sigma)
    per_unit_x = scale * max(budget, math.ceil(4.0 * pair.Sigma.sup()) + 32)
    x, v = mu_rule(pair.order, pair.S, per_unit_x)
    return xi, np.sqrt(u), x, np.sqrt(v)


def _pair_block(order: Order, rows, s_rows, cols, s_cols) -> np.ndarray:
    """Pair-factor entries s_rows j_alpha(2 pi rows cols) s_cols; the kernel
    is symmetric, so either node side can run along the rows."""
    blk = eval_j(order, 2.0 * math.pi * np.outer(rows, cols))
    blk *= s_rows[:, None]
    blk *= s_cols[None, :]
    return blk


def _lommel_gram(order: Order, far: IntervalSet, t: np.ndarray) -> np.ndarray:
    """K[k, l] = integral over `far` of j_alpha(a_k y) j_alpha(a_l y) d mu_alpha(y),
    a = 2 pi t, in closed form (Lommel's integral).  With p = j_{alpha+1}(. R),
    q = j_alpha(. R) and c(R) = C R^(2 alpha + 2) / (2 (alpha + 1)), C the
    mu_alpha density constant,

        K_[0,R](a, b) = c(R) (a^2 p(aR) q(bR) - b^2 q(aR) p(bR)) / (a^2 - b^2),
        K_[0,R](a, a) = c(R) ((alpha + 1) q(aR)^2 - alpha p(aR) q(aR)
                              + (aR)^2 p(aR)^2 / (4 (alpha + 1))),

    and each interval [lo, hi) of `far` adds K_[0,hi] - K_[0,lo].  Over all
    endpoints the numerator is M - M^T with M = diag(a^2) P^T diag(+-c) Q,
    P and Q holding p and q with one row per endpoint."""
    alpha = order.alpha
    ends = np.array(far.intervals, dtype=float).ravel()
    signs = np.tile([-1.0, 1.0], len(far.intervals))
    c = signs * mu_density_constant(order) * ends ** (2.0 * alpha + 2.0)
    c /= 2.0 * alpha + 2.0
    a = 2.0 * math.pi * t
    z = np.outer(ends, a)
    q = eval_j(order, z)
    p = eval_j(order.shifted(1), z)
    a2 = a * a
    m = a2[:, None] * ((c[:, None] * p).T @ q)
    den = np.subtract.outer(a2, a2)
    np.fill_diagonal(den, 1.0)
    gram = (m - m.T) / den
    diag = (alpha + 1.0) * q * q - alpha * p * q + z * z * p * p / (4.0 * alpha + 4.0)
    np.fill_diagonal(gram, c @ diag)
    return gram


def _pair_gram(pair: ProjectionPair, budget: int, scale: int = 1) -> np.ndarray:
    """Gram of the pair factor on its shorter side (A A^T when Sigma has
    fewer nodes, else A^T A), on the nodes of `_pair_nodes`, with the sum
    along the longer side replaced by the exact integral over its set, so
    that the factor is never formed."""
    xi, su, x, sv = _pair_nodes(pair, budget, scale)
    if len(xi) <= len(x):
        t, s, far = xi, su, pair.S
    else:
        t, s, far = x, sv, pair.Sigma
    gram = _lommel_gram(pair.order, far, t)
    gram *= s[:, None]
    gram *= s[None, :]
    return gram


def _sigma_max(gram: np.ndarray) -> float:
    """Top singular value of a factor from its Gram (A^T A or A A^T): the
    square root of the Gram's largest eigenvalue, which LAPACK computes
    alone."""
    n = len(gram)
    lam = linalg.eigvalsh(gram, subset_by_index=[n - 1, n - 1], check_finite=False)
    return math.sqrt(max(float(lam[0]), 0.0))


def pair_norm(pair: ProjectionPair) -> float:
    """Operator norm ||F_Sigma E_S||: top singular value of the pair factor,
    refined by node doubling until 1e-6 stable, clipped to 1."""
    if pair.S.is_empty() or pair.Sigma.is_empty():
        return 0.0
    budget = pair.nodes_per_interval
    prev = _sigma_max(_pair_gram(pair, budget))
    for doubling in range(1, _MAX_DOUBLINGS + 1):
        cur = _sigma_max(_pair_gram(pair, budget, 2**doubling))
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
    x, v = mu_rule(order, S, max(32, math.ceil(12.0 * big)))
    factor = _pair_block(order, xi, np.sqrt(u), x, np.sqrt(v))
    const = annihilation_constant(norm)

    rng = np.random.default_rng(seed)
    rows = np.empty((trials, 2))
    for t in range(trials):
        z = rng.uniform(-1.0, 1.0, size=len(xi))
        total = float(z @ z)
        mass_s = float(np.sum((z @ factor) ** 2))
        spec_out = float(z[~sigma_mask] @ z[~sigma_mask])
        lhs = total
        rhs = const * (max(total - mass_s, 0.0) + spec_out)
        rows[t] = (lhs, rhs)
    return rows


# --------------------------------------------------------------------------
# concentration eigenproblem


def _mode_table(order: Order, b: float, x_max: float, cap: int):
    """Frequencies s'_m / (2 pi x_max) <= b and the closed-form mode norms
    on [0, x_max] in mu_alpha.  Mode 0 is the constant; modes are mutually
    orthogonal on the window by the two-frequency integral identity."""
    a = order.alpha
    limit = 2.0 * math.pi * b * x_max
    count = max(8, int(limit / math.pi) + 8)
    table = cached_zero_table(a, count)
    while table.zeros[-1] < limit:
        count *= 2
        table = cached_zero_table(a, count)
    sp = np.concatenate([[0.0], table.zeros[table.zeros <= limit]])
    if len(sp) > cap:
        sp = sp[:cap]
    norms = np.empty(len(sp))
    norms[0] = mu_measure(order, IntervalSet.of([(0.0, x_max)]))
    if len(sp) > 1:
        jvals = eval_j(order, sp[1:])
        half_dens = 0.5 * mu_density_constant(order)  # pi^(a+1) / Gamma(a+1)
        norms[1:] = half_dens * x_max ** (2.0 * a + 2.0) * jvals**2
    return sp, norms


def _concentration_factor(
    order: Order, b: float, omega: IntervalSet, x_max: float, n_modes: int
) -> np.ndarray:
    """Factor B, one row per mode and one column per mu_alpha quadrature node
    on Omega, whose Gram B B^T is the Omega-window energy form on the
    orthonormal mode basis."""
    if b <= 0 or x_max <= 0:
        raise DomainError("bandlimit and x_max must be positive")
    if omega.sup() > x_max * (1 + 1e-12):
        raise DomainError("Omega must be contained in [0, x_max]")
    if n_modes < 1:
        raise DomainError(f"the mode cap n_modes must be >= 1, got {n_modes}")
    sp, norms = _mode_table(order, b, x_max, n_modes)
    x, v = mu_rule(order, omega.intersect_window(0.0, x_max), max(12.0, 12.0 * b))
    kern = eval_j(order, np.outer(sp / x_max, x))
    return kern * np.sqrt(v)[None, :] / np.sqrt(norms)[:, None]


def ls_empirical_min_ratio(
    order: Order,
    b: float,
    omega: IntervalSet,
    x_max: float,
    n_modes: int = 128,
) -> float:
    """Minimum concentration ratio min ||f||^2_Omega / ||f||^2 over the
    discretized bandlimited space: the smallest eigenvalue of the
    concentration Gram B B^T, guaranteed inside [0, 1], taken as the squared
    smallest singular value of the factor B.  An eigensolver on the Gram
    itself has absolute error ~1e-16, the size of the ratio where Omega
    leaves a gap in [0, x_max]; the singular values of B resolve it."""
    B = _concentration_factor(order, b, omega, x_max, n_modes)
    s = linalg.svdvals(B, check_finite=False) if B.size else np.zeros(1)
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


def _window_integrals(pw: PWFunction, x, coeffs: np.ndarray):
    """Integrals of |d^k g|^2 s^(alpha+k) over I_x = [(x-1)^2, (x+1)^2] for
    k = 0..k_max, where g(s) = f(sqrt(s)), along the last axis; x is one
    window center or an array of them.  `coeffs` = dk_coefficients(pw, k_max)
    are the D^k rows, and k_max = len(coeffs) - 1.

    In y = sqrt(s), where d^k g = D^k f, the integral is that of
    |D^k f(y)|^2 2 y^(2 alpha + 2k + 1) over the unit pieces [x - 1, x] and
    [x, x + 1].  Neighbouring windows share a piece; each distinct piece is
    integrated once by the 16-node rule of `mu_pieces`, with D^k f at the
    nodes of every piece from one `apply_Dk_all` call."""
    k_max = len(coeffs) - 1
    centers = np.asarray(x, dtype=float)
    flat = centers.ravel()
    starts, piece = np.unique(np.concatenate([flat - 1.0, flat]), return_inverse=True)
    y, w = mu_pieces(pw.order, starts)
    dk = apply_Dk_all(pw, coeffs, y.ravel()).reshape((k_max + 1,) + y.shape)
    # 2 y^(2 alpha + 2k + 1) dy = (2 / C) y^(2k) d mu_alpha(y)
    w *= 2.0 / mu_density_constant(pw.order)
    y2 = y * y
    per_piece = np.empty((len(starts), k_max + 1))
    for k in range(k_max + 1):
        per_piece[:, k] = np.sum(w * dk[k] ** 2, axis=1)
        w *= y2
    out = per_piece[piece[: len(flat)]] + per_piece[piece[len(flat) :]]
    return out.reshape(centers.shape + (k_max + 1,))


def good_bad_partition(
    pw: PWFunction, ab: float, xs, coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Label each window center x >= 1 of `xs` as bad when some derivative
    order k in [1, k_max] has >= (2 pi ab)^(2k) times the window's own mass:
    integral over I_x of |d^k g|^2 s^(alpha+k) >= (2 pi ab)^(2k) *
    integral over I_x of |g|^2 s^alpha.  `coeffs` = dk_coefficients(pw,
    k_max) are the D^k rows, and k_max = len(coeffs) - 1.  Returns the
    boolean bad-mask and the window masses (the k = 0 integrals);
    witness_point takes the masses and the same rows."""
    if ab <= 0:
        raise DomainError("bandlimit product ab must be positive")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(xs < 1.0):
        raise DomainError("window centers must be >= 1")
    ints = _window_integrals(pw, xs, coeffs)
    mass = ints[:, 0]
    bad = np.zeros(len(xs), dtype=bool)
    base = (2.0 * math.pi * ab) ** 2
    factor = 1.0
    for k in range(1, len(coeffs)):
        factor *= base
        bad |= ints[:, k] >= factor * mass
    return bad, mass


def bad_mass_fraction(pw: PWFunction, x_list, bad) -> float:
    """Fraction of the squared-variable energy carried by the union of the
    windows that the mask `bad` (from good_bad_partition) marks among the
    centers x_list, against the closed-form total
    (Gamma(alpha+1)/pi^(alpha+1)) ||f||^2."""
    xs = np.atleast_1d(np.asarray(x_list, dtype=float))[np.asarray(bad, dtype=bool)]
    if not len(xs):
        return 0.0
    total = float(np.dot(pw.mu_hat_weights(), pw.coeffs**2))
    # integrate back in the root variable x = sqrt(s), where the window I_x
    # is [x - 1, x + 1]: the s^alpha ds mass of a window equals
    # (Gamma(a+1)/pi^(a+1)) times its mu_alpha mass, and the shared constant
    # cancels against the total; merged windows can be long, so panels keep
    # the oscillation of f resolved
    union = IntervalSet.of([(c - 1.0, c + 1.0) for c in xs])
    x, w = mu_rule(pw.order, union, max(16.0, 12.0 * pw.bandlimit))
    mass = float(np.dot(w, synthesize(pw, x) ** 2))
    return mass / total


def witness_point(
    pw: PWFunction, ab: float, xs, masses, coeffs: np.ndarray
) -> np.ndarray:
    """For each window center x of `xs`, the first point t of a grid on I_x
    where every derivative order obeys the pointwise growth bound
    t^(alpha+k) |d^k g(t)|^2 <= (12 pi^2 (ab)^2)^k * window mass, or NaN
    where no grid holds one.  The grids are 1000 equispaced points on I_x
    and two tenfold refinements; each is scanned in order, in leading chunks
    of 16 points that grow fourfold, and a window stops at the first chunk
    that holds a witness, which is the first witness of its whole grid.  The
    windows scan in lockstep, one `apply_Dk_all` call per chunk step over
    the windows still open; the kernel is evaluated point by point, so no
    window's result depends on the others.  `masses` (the windows' integrals
    of |g|^2 s^alpha) and `coeffs` = dk_coefficients(pw, k_max) are as
    good_bad_partition returns and takes them; k_max = len(coeffs) - 1."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    masses = np.atleast_1d(np.asarray(masses, dtype=float))
    alpha = pw.order.alpha
    base = 12.0 * math.pi**2 * ab * ab
    witness = np.full(len(xs), np.nan)
    todo = np.arange(len(xs))  # windows with no witness on the grids so far
    for n in (1000, 10_000, 100_000):
        if not len(todo):
            break
        ts = np.linspace((xs[todo] - 1.0) ** 2, (xs[todo] + 1.0) ** 2, n, axis=-1)
        rows = np.arange(len(todo))  # rows of ts still open on this grid
        start, size = 0, 16
        while start < n and len(rows):
            t = ts[rows, start : start + size]
            dk = apply_Dk_all(pw, coeffs, np.sqrt(t).ravel())
            dk = dk.reshape((len(coeffs),) + t.shape)
            mass = masses[todo[rows], None]
            ok = np.ones(t.shape, dtype=bool)
            factor = 1.0
            # t = 0 (the window at x = 1) fails the k = 0 bound for alpha < 0
            with np.errstate(divide="ignore"):
                for k in range(len(coeffs)):
                    ok &= t ** (alpha + k) * dk[k] ** 2 <= factor * mass * (1 + 1e-12)
                    factor *= base
            hit = np.any(ok, axis=1)
            witness[todo[rows[hit]]] = t[hit, np.argmax(ok[hit], axis=1)]
            rows = rows[~hit]
            start += size
            size *= 4
        todo = todo[rows]
    return witness


# --------------------------------------------------------------------------
# analytic-growth (doubling) inequality


def _eval_phi(phi, z):
    coeffs = np.asarray(phi, dtype=float)
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    acc = np.zeros_like(zz)
    for c in coeffs[::-1]:
        acc = acc * zz + c
    return acc


def kovrijkine_check(phi, interval, J: IntervalSet) -> tuple[float, float]:
    """Both sides of the analytic doubling inequality
    integral_I |phi|^2 <= (300 |I| / |J|)^(2 ln(M/m)/ln 2 + 1) integral_J |phi|^2
    with M the sup of |phi| on the stadium dist(z, I) < 4|I| and m its sup
    on I.  phi is a power-series coefficient sequence.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise DomainError("interval I is degenerate")
    if J.is_empty() or J.intersect_window(lo, hi).length() < J.length() * (1 - 1e-12):
        raise DomainError("J must be a positive-length subset of I")
    length = hi - lo
    rule = build_rule(lo, hi, 128)
    vals = np.real(_eval_phi(phi, rule.nodes))
    lhs = float(np.dot(rule.weights, vals**2))

    grid = np.linspace(lo, hi, 2001)
    m = float(np.max(np.abs(np.real(_eval_phi(phi, grid)))))
    if m == 0.0:
        raise DomainError("degenerate check: phi vanishes identically on I")

    r = 4.0 * length
    # stadium boundary: two semicircles and two horizontal edges; odd counts
    # keep the axis crossings (where polynomial moduli peak) on the grid
    t = np.linspace(0.0, math.pi, 257)
    left = lo + r * np.exp(1j * (t + math.pi / 2))
    right = hi + r * np.exp(1j * (t - math.pi / 2))
    xs = np.linspace(lo, hi, 257)
    top = xs + 1j * r
    bot = xs - 1j * r
    # coarse interior fill
    gx, gy = np.meshgrid(np.linspace(lo - r, hi + r, 64), np.linspace(-r, r, 33))
    inside = (
        (np.abs(gy) < r)
        & (
            ((gx >= lo) & (gx <= hi))
            | (np.abs(gx - lo + 1j * gy) < r)
            | (np.abs(gx - hi + 1j * gy) < r)
        )
    )
    interior = (gx + 1j * gy)[inside]
    stadium = np.concatenate([left, right, top, bot, interior])
    M = float(np.max(np.abs(_eval_phi(phi, stadium))))
    M = max(M, m)

    ratio = 300.0 * length / J.length()
    exponent = 2.0 * math.log(M / m) / math.log(2.0) + 1.0
    j_int = 0.0
    for a, b_hi in J.intervals:
        rj = build_rule(a, b_hi, 128)
        vj = np.real(_eval_phi(phi, rj.nodes))
        j_int += float(np.dot(rj.weights, vj**2))
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
