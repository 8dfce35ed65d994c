"""Dense and independent references that the tests check production code
against.  None of them runs in the program; each docstring names the code it
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg, special

from hconc.annihilation import _concentration_factor, _pair_per_unit, _pair_side
from hconc.bessel import (
    _HANKEL_TERMS,
    _HANKEL_TOL,
    _SERIES_TERMS,
    _SUB_BLOCK,
    Order,
    _chebyshev_j,
    _hankel_j,
    _kernel_table,
    _mcmahon_guess,
    _series_cutoff,
    eval_j,
    zeros_of_j_prime,
)
from hconc.errors import DomainError, InternalError
from hconc.measure import IntervalSet, _pi_power_over_gamma, mu_density_constant
from hconc.paley_wiener import _MAX_DK, PWFunction, _check_dk, _dk_signs, synthesize
from hconc.quadrature import mu_rule
from hconc.transform import kernel_apply
from hconc.translation import translate_batch

# --------------------------------------------------------------------------
# kernel derivative (hconc.bessel)


def eval_j_derivative(order: Order, x) -> np.ndarray | float:
    """Derivative j_alpha'(x) = -x/(2(alpha+1)) * j_{alpha+1}(x), formed from
    `eval_j` at order alpha + 1.  The derivative form of the kernel identity
    suite checks `eval_j` through it against finite differences at order
    alpha, and zero tables through its residual at their entries."""
    scalar = np.isscalar(x)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(xv)):
        raise DomainError("eval_j_derivative requires finite arguments")
    higher = eval_j(order.shifted(1), xv)
    out = -xv / (2.0 * (order.alpha + 1.0)) * higher
    return float(out[0]) if scalar else out


# --------------------------------------------------------------------------
# the power series of the kernel (hconc.bessel)


def series_j_per_term_max(alpha: float, x: np.ndarray) -> np.ndarray:
    """The power series of j_alpha summed term by term, stopping after the
    first term whose largest |value| over the whole array is below 1e-18:
    the reference for `bessel._series_j`, which takes its term count from
    the largest |x| alone."""
    q = -0.25 * x * x
    total = np.ones_like(x)
    term = np.ones_like(x)
    for m in range(1, _SERIES_TERMS):
        term = term * q / (m * (m + alpha))
        total = total + term
        if np.max(np.abs(term)) < 1e-18:
            break
    return total


def table_j_every_route(nu: float, x: np.ndarray) -> np.ndarray:
    """j_nu on the table route as it ran before each element took one band:
    Hankel's expansion on the tail elements (called also when there are
    none), Clenshaw on every other element, and the per-term-max series
    written over the elements below the cutoff, in sub-blocks.  The
    reference for `bessel._table_j`, which must give the same bits."""
    tab = _kernel_table(nu)
    out = np.empty_like(x)
    cutoff = _series_cutoff(nu)
    for start in range(0, len(x), _SUB_BLOCK):
        ax = np.abs(x[start : start + _SUB_BLOCK])
        o = out[start : start + _SUB_BLOCK]
        tail = ax >= tab.x_tail
        o[tail] = _hankel_j(tab, ax[tail])
        near = ~tail
        xn = ax[near]
        vals = _chebyshev_j(tab, xn)
        small = xn < cutoff
        if small.any():
            vals[small] = series_j_per_term_max(nu, xn[small])
        o[near] = vals
    return out


def _horner_one_row(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    acc = np.full_like(u, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= u
        acc += c
    return acc


def hankel_j_two_horners(nu: float, x: np.ndarray) -> np.ndarray:
    """Hankel's expansion of j_nu at tail arguments x >= x_tail with P and Q/x
    summed by two separate Horner loops, each over its own coefficients
    alone (no zero padding), rebuilt from a_k(nu) (DLMF 10.17.1) with the
    term count of `bessel._kernel_table`.  The reference for
    `bessel._hankel_j`, which sums both in one loop and must give the same
    bits."""
    tab = _kernel_table(nu)
    a = [1.0]
    for k in range(1, _HANKEL_TERMS + 1):
        a.append(a[-1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))
    kept = next(k for k, ak in enumerate(a) if abs(ak) < _HANKEL_TOL * tab.x_tail**k)
    p = np.array(a[0:kept:2])
    q = np.array(a[1:kept:2])
    p[1::2] *= -1.0
    q[1::2] *= -1.0
    r = 1.0 / x
    u = r * r
    pv = _horner_one_row(p, u)
    qv = _horner_one_row(q, u)
    qv *= r
    cos_x = tab.cos_phi * pv + tab.sin_phi * qv
    sin_x = tab.sin_phi * pv - tab.cos_phi * qv
    cos_x *= np.cos(x)
    sin_x *= np.sin(x)
    cos_x += sin_x
    cos_x *= tab.front * x ** -(tab.nu + 0.5)
    return cos_x


def zeros_by_sign_change_64(high: Order, count: int) -> np.ndarray:
    """First `count` positive zeros of j_nu, nu = high.alpha, by sign changes
    on the grid nu + k pi/2 and exactly 64 bisection passes.  The reference
    for `bessel._zeros_by_sign_change`, which stops once every bracket is two
    adjacent doubles and must give the same bits."""
    nu = high.alpha
    step = 0.5 * math.pi
    end = _mcmahon_guess(nu, count) + math.pi
    while True:
        grid = nu + step * np.arange(int((end - nu) / step) + 2)
        f = eval_j(high, grid)
        change = np.flatnonzero(np.signbit(f[:-1]) != np.signbit(f[1:]))[:count]
        if len(change) == count:
            break
        end += step * (count - len(change) + 1)
    lo, flo = grid[change], f[change]
    hi = lo + step
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        fmid = eval_j(high, mid)
        left = np.signbit(fmid) == np.signbit(flo)
        lo = np.where(left, mid, lo)
        flo = np.where(left, fmid, flo)
        hi = np.where(left, hi, mid)
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# pair norms and the concentration eigenproblem (hconc.annihilation)


def pair_block(order: Order, rows, s_rows, cols, s_cols) -> np.ndarray:
    """Dense pair-factor entries s_rows j_alpha(2 pi rows cols) s_cols; the
    kernel is symmetric, so either node side can run along the rows."""
    blk = eval_j(order, 2.0 * math.pi * np.outer(rows, cols))
    return blk * s_rows[:, None] * s_cols[None, :]


def pair_rules(order: Order, S: IntervalSet, Sigma: IntervalSet, scale: int = 1):
    """Spectral nodes xi on Sigma and spatial nodes x on S, each with the
    square root of its mu_alpha quadrature weight: both rules of a pass of
    `annihilation.pair_norm`, of which `_pass_grams` builds the shorter."""
    per_unit_xi, per_unit_x = _pair_per_unit(S, Sigma, scale)
    xi, u = mu_rule(order, Sigma, per_unit_xi)
    x, v = mu_rule(order, S, per_unit_x)
    return xi, np.sqrt(u), x, np.sqrt(v)


def pair_nodes(order: Order, S: IntervalSet, Sigma: IntervalSet, scale: int = 1):
    """Nodes of the shorter side of a pass of `annihilation.pair_norm`
    (`_pair_side`), each with the square root of its mu_alpha quadrature
    weight, and the other side's set, from that pass's own `mu_rule`."""
    near, per_unit, far = _pair_side(S, Sigma, scale)
    t, w = mu_rule(order, near, per_unit)
    return t, np.sqrt(w), far


def pair_gram(
    order: Order, S: IntervalSet, Sigma: IntervalSet, scale: int = 1
) -> np.ndarray:
    """The Gram of one pass of `annihilation.pair_norm` on its own rule and
    kernel calls, with every end of the other side's set
    (`lommel_gram_all_ends`).  The reference for `annihilation._pass_grams`,
    which shares both among the passes it builds, leaves ends at 0 out of
    its kernel calls, and must give the same bits."""
    t, s, far = pair_nodes(order, S, Sigma, scale)
    return lommel_gram_all_ends(order, far, t, s)


def _pair_factor(
    order: Order, S: IntervalSet, Sigma: IntervalSet, scale: int = 1
) -> np.ndarray:
    """Factor A with A^T A = the compression of the Sigma-bandpass to S.

    A[k, p] = sqrt(u_k) j_alpha(2 pi x_p xi_k) sqrt(v_p) over mu_alpha
    quadrature weights u (spectral, on Sigma) and v (spatial, on S), held
    whole.  The dense reference for `pair_norm`."""
    return pair_block(order, *pair_rules(order, S, Sigma, scale))


def _short_side_gram(
    order: Order, S: IntervalSet, Sigma: IntervalSet, far_scale: int
) -> np.ndarray:
    """Gram of the pair factor on its shorter side on the first pass (the
    side `annihilation._pass_grams` keeps), with the sum along the other
    side taken on that side's quadrature rule at `far_scale`.  The dense
    reference for `_pass_grams`, which integrates the other side in closed
    form."""
    xi, su, x, sv = pair_rules(order, S, Sigma)
    fine_xi, fine_su, fine_x, fine_sv = pair_rules(order, S, Sigma, far_scale)
    if len(xi) <= len(x):
        A = pair_block(order, fine_x, fine_sv, xi, su)
    else:
        A = pair_block(order, fine_xi, fine_su, x, sv)
    return A.T @ A


def lommel_gram_all_ends(
    order: Order, far: IntervalSet, t: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """Lommel's closed-form Gram over `far` with kernel values at every end
    of `far`, also at an end at 0, whose weight c(0) = 0 zeroes its terms.
    The reference for `annihilation._lommel_grams`, which leaves such ends
    out of its kernel calls and must give the same bits."""
    alpha = order.alpha
    ends = np.array(far.intervals, dtype=float).ravel()
    signs = np.tile([-1.0, 1.0], len(far.intervals))
    c = signs * mu_density_constant(order) * ends ** (2.0 * alpha + 2.0)
    c /= 2.0 * alpha + 2.0
    a = 2.0 * math.pi * t
    z = np.outer(ends, a)
    q = eval_j(order, z) * s
    p = eval_j(order.shifted(1), z) * s
    a2 = a * a
    gram = np.hstack([(c[:, None] * p * a2).T, -(c[:, None] * q).T]) @ np.vstack(
        [q, p * a2]
    )
    den = np.subtract.outer(a2, a2)
    np.fill_diagonal(den, 1.0)
    gram /= den
    diag = (alpha + 1.0) * q * q - alpha * p * q + z * z * p * p / (4.0 * alpha + 4.0)
    np.fill_diagonal(gram, c @ diag)
    return gram


def strong_pair_rows_dense(
    order: Order, S: IntervalSet, Sigma: IntervalSet, const: float, trials, seed
) -> np.ndarray:
    """Rows (lhs, rhs) of `annihilation.strong_pair_trials`, with each
    draw's mass on S taken as |z^T A|^2 from the dense pair factor A against
    a mu_alpha rule on S at 12 * 2 sup(Sigma) nodes per unit, where the
    program takes z^T G_S z with G_S from Lommel's closed form."""
    big = 2.0 * Sigma.sup()
    per_unit_xi = math.ceil(4.0 * S.sup()) + 16
    xi_in, u_in = mu_rule(order, Sigma.intersect_window(0.0, big), per_unit_xi)
    xi_out, u_out = mu_rule(order, Sigma.complement_within(0.0, big), per_unit_xi)
    xi = np.concatenate([xi_in, xi_out])
    u = np.concatenate([u_in, u_out])
    x, v = mu_rule(order, S, max(32, math.ceil(12.0 * big)))
    factor = pair_block(order, xi, np.sqrt(u), x, np.sqrt(v))
    rng = np.random.default_rng(seed)
    rows = np.empty((trials, 2))
    for t in range(trials):
        z = rng.uniform(-1.0, 1.0, size=len(xi))
        total = float(z @ z)
        mass = float(np.sum((z @ factor) ** 2))
        outside = float(z[len(xi_in) :] @ z[len(xi_in) :])
        rows[t] = (total, const * (max(total - mass, 0.0) + outside))
    return rows


def mode_count(alpha: float, b: float, x_max: float) -> int:
    """1 + #{s'_m <= 2 pi b x_max}: the constant mode and one per positive
    zero of j_alpha' in the band, counted on a 512-zero table; the size of
    the basis `annihilation.mode_frequencies` must return."""
    limit = 2.0 * math.pi * b * x_max
    zeros = zeros_of_j_prime(Order(alpha), 512)
    if zeros[-1] <= limit:
        raise DomainError(f"512 zeros of j_alpha' do not pass {limit}")
    return 1 + int(np.count_nonzero(zeros <= limit))


@dataclass(frozen=True)
class ConcentrationMatrix:
    """Symmetric PSD Gram of the window-restricted energy form on an
    orthonormal bandlimited mode basis; eigenvalues are concentration ratios.
    `eigs` holds them in ascending order, from a dense `eigvalsh`: the
    reference spectrum for `annihilation.ls_empirical_min_ratio`."""

    matrix: np.ndarray = field(repr=False)
    omega: IntervalSet
    bandlimit: float
    alpha: float
    x_max: float
    n_modes: int
    eigs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        g = self.matrix
        eigs = np.empty(0)
        if g.size:
            skew = float(np.max(np.abs(g - g.T)))
            if skew > 1e-12:
                raise InternalError(f"Gram not symmetric: skew {skew:.3e}")
            eigs = np.linalg.eigvalsh(g)
            if eigs[0] < -1e-9 or eigs[-1] > 1.0 + 1e-9:
                raise InternalError(
                    "concentration spectrum escaped [0, 1]: "
                    f"[{eigs[0]:.3e}, {eigs[-1]:.9f}]"
                )
        object.__setattr__(self, "eigs", eigs)


def concentration_matrix(
    order: Order, b: float, omega: IntervalSet, x_max: float
) -> ConcentrationMatrix:
    """The Omega-window Gram B B^T of `annihilation._concentration_factor`
    on the orthonormal mode basis, assembled densely: the reference for
    `ls_empirical_min_ratio`, which takes singular values of B instead."""
    B = _concentration_factor(order, b, omega, x_max)
    g = B @ B.T
    return ConcentrationMatrix(
        matrix=0.5 * (g + g.T),
        omega=omega,
        bandlimit=b,
        alpha=order.alpha,
        x_max=x_max,
        n_modes=len(B),
    )


# --------------------------------------------------------------------------
# good/bad windows (hconc.annihilation)


def bad_mass_fraction(pw: PWFunction, x_list, bad) -> float:
    """Fraction of the squared-variable energy carried by the union of the
    windows that the mask `bad` marks among the centers x_list, against the
    closed-form total (Gamma(alpha+1)/pi^(alpha+1)) ||f||^2, by a kernel pass
    of its own over a rule on that union.  The reference for the fraction
    that `annihilation.good_bad_partition` sums from its window pieces."""
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
    mass = float(np.dot(w, synthesize([pw], x)[0] ** 2))
    return mass / total


def sinc_pair_deficit(parity: int, S: IntervalSet, b: float, per_unit: int) -> float:
    """1 - sigma^2 of the pair (S, Sigma = [0, b]) at alpha = -1/2 (parity
    +1) or alpha = 1/2 (parity -1), with no Bessel function: there the
    kernel is cos x or sin x / x, so PW_alpha(b) holds the even, or the odd
    over x, functions of the band-b Paley-Wiener space, and sigma^2 is the
    top eigenvalue of the operator on L^2(S, dx) with kernel
    K(x - y) + parity K(x + y), K(u) = sin(2 pi b u) / (pi u).  Nystrom on
    `per_unit`-node Gauss-Legendre panels of length at most 1, and `eigh`
    for the top eigenvalue alone.  The reference for `pair_norm` on unions at
    alpha = +-1/2 (Slepian and Pollak, Bell Syst. Tech. J. 40 (1961)); its
    own floor is the subtraction 1 - lambda, ~1e-14 absolute."""
    t, u = np.polynomial.legendre.leggauss(per_unit)
    x, w = [], []
    for lo, hi in S.intervals:
        edges = np.linspace(lo, hi, max(1, math.ceil(hi - lo)) + 1)
        half = 0.5 * np.diff(edges)[:, None]
        x.append((0.5 * (edges[:-1] + edges[1:])[:, None] + half * t).ravel())
        w.append((half * u).ravel())
    x, root = np.concatenate(x), np.sqrt(np.concatenate(w))
    kern = np.sinc(2.0 * b * np.subtract.outer(x, x))
    kern += parity * np.sinc(2.0 * b * np.add.outer(x, x))
    kern *= 2.0 * b * np.outer(root, root)
    n = len(x)
    [lam] = linalg.eigh(kern, eigvals_only=True, subset_by_index=[n - 1, n - 1])
    return 1.0 - lam


def prolate_deficit(alpha: float, c: float) -> float:
    """1 - lambda_0 of the finite Hankel transform of order alpha on [0, 1]
    with bandwidth c, the top eigenvalue of the pair S = [0, T],
    Sigma = [0, b], c = 2 pi b T, with no Bessel function: Slepian's
    generalized prolates (Bell Syst. Tech. J. 43 (1964) 3009).  In the
    orthonormal basis T_k(r) = sqrt(2 (2k + alpha + 1)) r^(alpha + 1/2)
    P_k^(alpha, 0)(1 - 2 r^2) the operator that commutes with the transform
    is the symmetric tridiagonal matrix with diagonal
    (alpha + 2k + 1/2)(alpha + 2k + 3/2) + c^2 (1 - a_k) / 2 and
    off-diagonal -c^2 b_(k+1) / 2, where a_k, b_k are the recurrence
    coefficients of the orthonormal Jacobi (alpha, 0) polynomials.  The
    eigenvector d of its smallest eigenvalue expands phi_0, and the r -> 0
    limit of the integral equation gives its eigenvalue
    gamma_0 = c^(alpha + 1/2) d_0 / (2^alpha Gamma(alpha + 1)
    sqrt(2 (alpha + 1)) sum_k d_k sqrt(2 (2k + alpha + 1)) C(k + alpha, k)),
    lambda_0 = c gamma_0^2.  Since 1 - lambda_0 falls like e^(-2c), d is
    refined by inverse iteration in mpmath at 0.87 c + 30 digits from
    `eigh_tridiagonal`'s float64 vector and shift, on 2c + 40 basis terms.
    The reference for `pair_norm` on single intervals at every order."""
    import mpmath
    n = int(2.0 * c) + 40
    with mpmath.workdps(int(0.87 * c) + 30):
        a, c2 = mpmath.mpf(alpha), mpmath.mpf(c) ** 2
        ks = [2 * k + a for k in range(n)]
        rec_a = [-a / (a + 2)] + [-a * a / (m * (m + 2)) for m in ks[1:n]]
        rec_b = [
            2 * k * (k + a) / (m * mpmath.sqrt((m + 1) * (m - 1)))
            for k, m in zip(range(1, n), ks[1:n])
        ]
        diag = [(m + 0.5) * (m + 1.5) + c2 * (1 - ak) / 2 for m, ak in zip(ks, rec_a)]
        off = [-c2 * bk / 2 for bk in rec_b]
        lam, vec = linalg.eigh_tridiagonal(
            np.array(diag, dtype=float),
            np.array(off, dtype=float),
            select="i",
            select_range=(0, 0),
        )
        shift = mpmath.mpf(float(lam[0]))
        d = [mpmath.mpf(float(v)) for v in vec[:, 0]]
        for _ in range(4):
            # the Thomas algorithm on (M - shift) x = d, then d = x / |x|
            w, g = [diag[0] - shift], [d[0]]
            for k in range(1, n):
                m = off[k - 1] / w[-1]
                w.append(diag[k] - shift - m * off[k - 1])
                g.append(d[k] - m * g[-1])
            x = [g[-1] / w[-1]]
            for k in range(n - 2, -1, -1):
                x.append((g[k] - off[k] * x[-1]) / w[k])
            x.reverse()
            size = mpmath.sqrt(mpmath.fsum(v * v for v in x))
            d = [v / size for v in x]
        at_zero = mpmath.fsum(
            dk * mpmath.sqrt(2 * (2 * k + a + 1)) * mpmath.binomial(k + a, k)
            for k, dk in enumerate(d)
        )
        gamma = mpmath.mpf(c) ** (a + 0.5) * d[0] / (
            2**a * mpmath.gamma(a + 1) * mpmath.sqrt(2 * (a + 1)) * at_zero
        )
        return float(1 - c * gamma**2)


# --------------------------------------------------------------------------
# window masses (hconc.measure)


def window_masses_by_interval(
    order: Order, subset: IntervalSet, lo: np.ndarray, hi: np.ndarray
):
    """mu_alpha(subset & [lo, hi]) and mu_alpha([lo, hi]) for arrays of
    windows, with every interval of the subset clipped to every window and
    the closed-form antiderivative summed over the intervals in order.  The
    reference for `measure._window_masses`, which clips two intervals per
    window and reads the rest off a prefix sum."""
    p = 2.0 * order.alpha + 2.0
    scale = _pi_power_over_gamma(order, order.alpha + 2.0)
    part = np.zeros_like(lo)
    for a_j, b_j in subset.intervals:
        part += np.clip(b_j, lo, hi) ** p - np.clip(a_j, lo, hi) ** p
    return scale * part, scale * (hi**p - lo**p)


# --------------------------------------------------------------------------
# D^k of the bandlimited model (hconc.paley_wiener)


def dk_coefficients(pw: PWFunction, k_max: int) -> np.ndarray:
    """Spectral coefficient rows of D^k f for k = 0..k_max: row k is the
    spectrum with the order-(alpha+k) measure folded in, one
    `mu_hat_weights` call per row.  The reference for the D^k rows of the
    good-bad window plan (`annihilation._window_plan`'s folded rows times
    the spectrum), from which `good_bad_partition` forms D^k f."""
    _check_dk(k_max)
    return np.stack([pw.mu_hat_weights(shift=k) for k in range(k_max + 1)]) * pw.coeffs


def apply_Dk_all(pw: PWFunction, coeffs: np.ndarray, x) -> np.ndarray:
    """D^k f at x for every k = 0..k_max, as the rows of a (k_max+1, len(x))
    array, from the D^k rows `coeffs` (`dk_coefficients`): one
    `kernel_apply` call over the order ladder, streamed in kernel blocks.
    The reference for the good-bad window pass, which sums the ladder held
    in its window plan at the plan's points."""
    return _dk_signs(kernel_apply(pw.order, x, pw.nodes, coeffs))


def grid_witnesses(pw: PWFunction, ab: float, xs, masses, k_max: int = 8) -> np.ndarray:
    """The witness search as a scan of 1000 equispaced points t of each
    window I_x = [(x - 1)^2, (x + 1)^2], from one D^k pass over all of them:
    the first point where t^(alpha+k) |D^k f(sqrt(t))|^2 <=
    (12 pi^2 (ab)^2)^k * mass * (1 + 1e-12) for every k = 0..k_max, NaN
    where none is.  The reference for the existence of the witnesses of
    `annihilation._witnesses`, which looks only at the points of the
    good-bad kernel pass."""
    xs = np.asarray(xs, dtype=float)
    ts = np.linspace((xs - 1.0) ** 2, (xs + 1.0) ** 2, 1000, axis=-1)
    dk = apply_Dk_all(pw, dk_coefficients(pw, k_max), np.sqrt(ts).ravel())
    ok = np.ones(ts.shape, dtype=bool)
    factor = 1.0
    with np.errstate(divide="ignore"):
        for k in range(k_max + 1):
            need = ts ** (pw.order.alpha + k) * dk[k].reshape(ts.shape) ** 2
            ok &= need <= factor * np.asarray(masses)[:, None] * (1 + 1e-12)
            factor *= 12.0 * math.pi**2 * ab * ab
    first = ts[np.arange(len(ts)), np.argmax(ok, axis=1)]
    return np.where(np.any(ok, axis=1), first, np.nan)


def apply_Dk(pw: PWFunction, k: int, x) -> np.ndarray | float:
    """k-th iterate of D = (1/2x) d/dx applied to the synthesis:
    D^k f(x) = (-pi)^k * integral of spectrum * j_{alpha+k}(2 pi x xi)
    against d mu_{alpha+k}.  It evaluates order alpha+k directly, one order
    at a time: the reference for `apply_Dk_all`, whose rows come from one
    order ladder."""
    if not (0 <= k <= _MAX_DK):
        raise DomainError(f"derivative order k must be in [0, {_MAX_DK}]")
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    coeffs = pw.mu_hat_weights(shift=k) * pw.coeffs
    vals = (-math.pi) ** k * kernel_apply(
        pw.order.shifted(k), xs, pw.nodes, coeffs
    )
    return float(vals[0]) if scalar else vals


# --------------------------------------------------------------------------
# translation by its kernel density (hconc.translation)


def _kernel_W_constant(a: float) -> float:
    """Normalising constant of the translation kernel density at order a."""
    return (
        2.0 ** (-2.0 * a)
        * math.gamma(a + 1.0) ** 2
        / (math.pi ** (a + 1.5) * math.gamma(a + 0.5))
    )


def kernel_W(order: Order, x: float, y: float, t) -> np.ndarray | float:
    """Density of the translation measure at t: supported on
    |x-y| < t < x+y, proportional to Delta(x,y,t)^(2a-1) / (xyt)^(2a) where
    Delta is the area factor sqrt((x+y)^2-t^2) * sqrt(t^2-(x-y)^2).  The
    kernel route to `translation.translate_batch`, which integrates over theta."""
    a = order.alpha
    if a == -0.5:
        raise DomainError(
            "kernel density is degenerate at order -1/2 (two endpoint atoms)"
        )
    if x <= 0 or y <= 0:
        raise DomainError("kernel_W requires x, y > 0")
    scalar = np.isscalar(t)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    lo, hi = abs(x - y), x + y
    inside = (t > lo) & (t < hi)
    if np.any(inside):
        ti = t[inside]
        delta = np.sqrt((hi * hi - ti * ti) * (ti * ti - lo * lo))
        const = _kernel_W_constant(a)
        out[inside] = const * delta ** (2.0 * a - 1.0) / (x * y * ti) ** (2.0 * a)
    return float(out[0]) if scalar else out


def translate_via_kernel(order: Order, x: float, f, y: float, n: int = 256) -> float:
    """Independent route to T_x f(y), the reference for
    `translation.translate_batch`: integrate f against the kernel density over
    (|x-y|, x+y) in mu_alpha.  The substitution t^2 = x^2 + y^2 + 2xy u
    turns the endpoint singularities into the Gauss-Jacobi weight."""
    a = order.alpha
    if a == -0.5:
        raise DomainError("no kernel density at order -1/2")
    if x == 0.0 or y == 0.0:
        return float(np.asarray(f(np.array([max(x, y)])))[0])
    u, w = special.roots_jacobi(n, a - 0.5, a - 0.5)
    t = np.sqrt(x * x + y * y + 2.0 * x * y * u)
    # W with the (1-u^2)^(a-1/2) factor stripped (absorbed by the rule):
    const = _kernel_W_constant(a)
    w_smooth = const * (2.0 * x * y) ** (2.0 * a - 1.0) / (x * y * t) ** (2.0 * a)
    dens = mu_density_constant(order) * t ** (2.0 * a + 1.0)
    jac = x * y / t  # dt = (x y / t) du
    vals = np.asarray(f(t), dtype=float)
    return float(np.dot(w, vals * w_smooth * dens * jac))


def convolve(order: Order, nodes, weights, values, g, out_nodes) -> np.ndarray:
    """(f * g)(x) = integral of f(t) T_x g(t) d mu_alpha(t), nested quadrature;
    f is known by its values at the nodes of a rule with mu_alpha weights.
    It checks `translation.translate_batch` through the convolution theorem
    and Young's inequality."""
    out_nodes = np.atleast_1d(np.asarray(out_nodes, dtype=float))
    mw = weights * values
    result = np.empty(len(out_nodes))
    for i, x in enumerate(out_nodes):
        tg = translate_batch(order, float(x), g, nodes)
        result[i] = float(np.dot(mw, tg))
    return result
