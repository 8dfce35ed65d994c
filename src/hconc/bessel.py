"""Normalized Bessel kernel of order alpha.

The central object is j_alpha(x) = 2^alpha * Gamma(alpha+1) * J_alpha(x) / x^alpha,
normalized so j_alpha(0) = 1.  It is even, entire, and bounded by 1 in absolute
value.  This module evaluates j_alpha, certifies the decay envelope
|j_alpha(t)| <= c_alpha (1+t)^(-alpha-1/2), and tabulates the zeros s'_n of
j_alpha' (equivalently, the zeros of j_{alpha+1}).

`eval_j` takes one of five routes, chosen by the order and the argument:

* closed form for alpha = -1/2 and 1/2: cos x and sin x / x, at every x,
  the latter divided on the exact argument (1 at x = 0); np.sinc(x / pi)
  rounds x / pi first, which costs up to 5.7e-14 of the 1/x envelope on
  [0.5, 500], and a third more time per element;
* power series for |x| below a cutoff: 0.5 (the J_alpha / x^alpha quotient
  loses accuracy there), widened at orders above ~120 to where J_alpha would
  come within reach of underflow;
* scipy's j0 / j1 above the cutoff for alpha = 0 and 1;
* for every other order up to alpha ~ 29 (those whose x_tail <= 64), a table
  built once per order and cached: a piecewise Chebyshev interpolant of
  degree 9 on quarter-unit panels from the cutoff to x_tail, fitted to the
  series and jv, and Hankel's asymptotic expansion from x_tail on, where
  its terms fall below 1e-17 (x_tail = 18-23 for alpha <= 12), in
  sub-blocks of 16384 elements.  Each element takes one band: series,
  Clenshaw or Hankel.  Measured on 8192 arguments (2-core shared Xeon VM,
  numpy 2.4), Clenshaw alone costs 18-22 ns per element, the route 46-56
  ns on [0, 60] at orders 0.3 and 8, against 23 ns for j0 and 370-800 ns
  for jv there;
* scipy's jv above the cutoff for the larger orders, ~1.6 us per element at
  alpha = 30.5 on the same arguments; its normaliser
  2^alpha Gamma(alpha+1) / x^alpha is formed in log space where the direct
  product would overflow.

Orders above 300 are refused (DomainError): there the series band needs more
terms than `_SERIES_TERMS` and loses digits to cancellation.

`eval_j_ladder` gives every order alpha + k, k = 0..k_max, from the two
`eval_j` calls at the top orders alpha + k_max and alpha + k_max - 1 and the
three-term recurrence in the order, run downward to alpha.  The seeds come
from the cached tables while alpha + k_max is below ~29 and from jv past it;
a ladder whose top order passes 300 is refused like `eval_j`.

Zeros s'_n are read-only arrays: `first_zeros` and `zeros_below` give prefixes
of cached tables of 64 2^j zeros (at most 1e6), sized here and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev
from scipy import special

from .errors import DomainError, InternalError

# Power series is used below this |x|; the J_alpha/x^alpha route loses accuracy
# there (0^alpha underflow/overflow for alpha near -1/2), the series gains it.
_SERIES_CUTOFF = 0.5
_SERIES_TERMS = 26
# Log of the largest normaliser 2^alpha Gamma(alpha+1) / x^alpha, and of either
# factor, that eval_j forms.  Its reciprocal, the leading term of J_alpha, then
# stays well above e^-665, below which scipy's jv returns 0.
_LOG_HUGE = 600.0
_MAX_ORDER = 300.0
# Fast route (`_KernelTable`): Chebyshev panels of width 1/_PANELS_PER_UNIT
# and degree _PANEL_DEGREE below x_tail, Hankel's expansion with at most
# _HANKEL_TERMS terms, the first dropped one below _HANKEL_TOL, from x_tail
# on; orders whose x_tail would exceed _TAIL_MAX (alpha above ~29) keep
# scipy's jv.  Arguments are processed in sub-blocks of _SUB_BLOCK elements.
# Since |j_nu^(k)| <= 1, a panel of width h has Chebyshev coefficients
# |c_k| <= 2 (h/4)^k / k!: at h = 1/4, c_9 <= 8.0e-17 and c_10 <= 5.0e-19,
# so 9 is the smallest degree whose first dropped term is below _HANKEL_TOL.
_PANELS_PER_UNIT = 4
_PANEL_DEGREE = 9
_HANKEL_TERMS = 30
_HANKEL_TOL = 1e-17
_TAIL_MAX = 64
_SUB_BLOCK = 16384
# Zero tables: the first two zeros of Airy's Ai, and the roundoff allowed in
# the checks of `validate_interlacing`, relative to the largest zero.
_AIRY_ZEROS = np.array([-2.338107410459767, -4.087949444130970])
_ZERO_SLACK = 1e-12
# most zeros of one table (8 MB)
_ZERO_TABLE_MAX = 10**6


@dataclass(frozen=True)
class Order:
    """Transform order alpha, validated once and carried everywhere."""

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise DomainError(f"order must be finite, got {self.alpha}")
        if self.alpha < -0.5:
            raise DomainError(f"order must be >= -1/2, got {self.alpha}")

    def shifted(self, k: float) -> "Order":
        return Order(self.alpha + k)


def _series_terms(alpha: float, x_max: float) -> int:
    """Number of series terms `_series_j` adds for arguments up to x_max: the
    first m with |term_m| < 1e-18, at most _SERIES_TERMS - 1.  The terms are
    replayed in Python floats, the same IEEE operations in the same order as
    the array recurrence; rounding is monotone, so |term_m| is largest at the
    largest |x|, and no other element needs more terms."""
    q = -0.25 * x_max * x_max
    term = 1.0
    for m in range(1, _SERIES_TERMS):
        term = term * q / (m * (m + alpha))
        if abs(term) < 1e-18:
            return m
    return _SERIES_TERMS - 1


def _series_j(alpha: float, x: np.ndarray) -> np.ndarray:
    # j_alpha(x) = sum_m (-1)^m Gamma(a+1)/(m! Gamma(m+a+1)) (x/2)^(2m),
    # with the recurrence term_m = term_{m-1} * (-(x/2)^2) / (m (m+alpha)),
    # on a non-empty array
    q = -0.25 * x * x
    total = np.ones_like(x)
    term = np.ones_like(x)
    for m in range(1, _series_terms(alpha, float(np.max(np.abs(x)))) + 1):
        term *= q
        term /= m * (m + alpha)
        total += term
    return total


def _series_cutoff(alpha: float) -> float:
    """|x| below which eval_j sums the power series: 0.5, or, where larger,
    the x at which the leading term (x/2)^alpha / Gamma(alpha+1) of J_alpha
    reaches e^-600, so that jv never works near underflow."""
    if alpha <= 0:
        return _SERIES_CUTOFF
    return max(
        _SERIES_CUTOFF, 2.0 * math.exp((math.lgamma(alpha + 1.0) - _LOG_HUGE) / alpha)
    )


def _normalized_jv(a: float, x: np.ndarray) -> np.ndarray:
    """2^a Gamma(a+1) J_a(x) / x^a at x >= _series_cutoff(a) > 0.  The
    normaliser is formed directly while 2^a Gamma(a+1) and x^a stay below
    e^600, and in log space elsewhere; past the cutoff it never exceeds
    e^600."""
    log_front = a * math.log(2.0) + math.lgamma(a + 1.0)
    jv = special.jv(a, x)
    far = (a * np.log(x) >= _LOG_HUGE) | (log_front >= _LOG_HUGE)
    out = np.empty_like(x)
    near = ~far
    if np.any(near):
        out[near] = 2.0**a * math.gamma(a + 1.0) * jv[near] / x[near] ** a
    out[far] = np.exp(log_front - a * np.log(x[far])) * jv[far]
    return out


def _direct_j(a: float, ax: np.ndarray) -> np.ndarray:
    """j_a at ax >= 0 by the power series below the cutoff and scipy's j0, j1
    or jv above it: the route of orders 0, 1 and those past _TAIL_MAX, and
    the values the Chebyshev table of every other order is fitted to."""
    small = ax < _series_cutoff(a)
    # j0 and j1 run on the whole array, with no gather or scatter of the
    # large arguments; the series band below overwrites x = 0, where 2 j1(x)/x
    # is 0/0.  jv runs past the cutoff only, where its normaliser is finite.
    if a == 0.0:
        out = special.j0(ax)
    elif a == 1.0:
        with np.errstate(invalid="ignore", divide="ignore"):
            out = special.j1(ax)
            out *= 2.0
            out /= ax
    else:
        out = np.empty_like(ax)
        big = ~small
        if np.any(big):
            out[big] = _normalized_jv(a, ax[big])
    if np.any(small):
        out[small] = _series_j(a, ax[small])
    return out


@dataclass(frozen=True)
class _KernelTable:
    """Fast route of one order nu: degree-9 Chebyshev coefficients of j_nu
    on the quarter-unit panels [n/4, (n+1)/4), n < 4 x_tail, whose first
    dropped coefficient is at most 5.0e-19, and Hankel's expansion (DLMF
    10.17.3) from x_tail on,

        j_nu(x) = front x^-(nu+1/2) (P(x) cos(x - phi) - Q(x) sin(x - phi)),

    phi = (2 nu + 1) pi / 4, front = 2^nu Gamma(nu+1) sqrt(2/pi).  P and Q/x
    are the rows of `pq`, polynomials in 1/x^2, lowest degree first; the
    shorter row is padded with a zero at its top degree."""

    nu: float
    x_tail: int
    cheb: np.ndarray = field(repr=False)  # (_PANEL_DEGREE + 1, 4 x_tail)
    pq: np.ndarray = field(repr=False)  # (2, ceil(kept / 2))
    front: float
    cos_phi: float
    sin_phi: float


@lru_cache(maxsize=256)
def _kernel_table(nu: float) -> _KernelTable | None:
    """The table of order nu, or None for the orders with closed forms
    (-1/2, 1/2), those that keep `_direct_j`: 0 and 1 (scipy's j0 and j1 are
    faster), and orders whose x_tail would exceed _TAIL_MAX.

    x_tail is the smallest integer x > nu at which a term |a_k(nu)| x^-k,
    k <= _HANKEL_TERMS, of the expansion falls below _HANKEL_TOL; the
    expansion keeps the terms before it.  Past that x every kept term shrinks
    and the first dropped one bounds the remainder (DLMF 10.17(iii)).  Below
    the turning point x = nu, J_nu is small against the terms, so the
    expansion is not used there even where it terminates (half-integer nu).
    """
    if nu in (-0.5, 0.0, 0.5, 1.0):
        return None
    a = [1.0]  # a_k(nu) (DLMF 10.17.1)
    for k in range(1, _HANKEL_TERMS + 1):
        a.append(a[-1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))
    for x_tail in range(math.floor(nu) + 1, _TAIL_MAX + 1):
        kept = next(
            (k for k, ak in enumerate(a) if abs(ak) < _HANKEL_TOL * x_tail**k), None
        )
        if kept is not None:
            break
    else:
        return None
    # P = sum_k (-1)^k a_2k u^k and Q/x = sum_k (-1)^k a_2k+1 u^k, u = 1/x^2
    pq = np.zeros((2, (kept + 1) // 2))
    pq[0] = a[0:kept:2]
    pq[1, : kept // 2] = a[1:kept:2]
    pq[:, 1::2] *= -1.0
    t = chebyshev.chebpts1(_PANEL_DEGREE + 1)
    panels = _PANELS_PER_UNIT * x_tail
    nodes = (np.arange(panels)[:, None] + 0.5 * (t + 1.0)) / _PANELS_PER_UNIT
    values = _direct_j(nu, nodes.ravel()).reshape(nodes.shape)
    cheb = np.linalg.solve(chebyshev.chebvander(t, _PANEL_DEGREE), values.T)
    phi = (2.0 * nu + 1.0) * math.pi / 4.0
    return _KernelTable(
        nu=nu,
        x_tail=x_tail,
        cheb=cheb,
        pq=pq,
        front=2.0**nu * math.gamma(nu + 1.0) * math.sqrt(2.0 / math.pi),
        cos_phi=math.cos(phi),
        sin_phi=math.sin(phi),
    )


def _horner(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Horner's rule in place, coefficients lowest order first along the last
    axis; each row of a 2-D coeffs gives one row of the result, in one loop.
    A zero top coefficient leaves its row's bits as they are without it."""
    coeffs = coeffs.T[..., None]
    acc = np.empty(coeffs.shape[1:-1] + u.shape)
    acc[...] = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc *= u
        acc += c
    return acc


def _hankel_j(tab: _KernelTable, x: np.ndarray) -> np.ndarray:
    # cos(x - phi) and sin(x - phi) from cos x and sin x of the exact
    # argument: x - phi would round away up to ulp(x) of the phase
    r = 1.0 / x
    p, q = _horner(tab.pq, r * r)
    q *= r
    cos_x = tab.cos_phi * p + tab.sin_phi * q
    sin_x = tab.sin_phi * p - tab.cos_phi * q
    cos_x *= np.cos(x)
    sin_x *= np.sin(x)
    cos_x += sin_x
    cos_x *= tab.front * x ** -(tab.nu + 0.5)
    return cos_x


def _chebyshev_j(tab: _KernelTable, x: np.ndarray) -> np.ndarray:
    # Clenshaw's recurrence b_k = c_k + 2 t b_{k+1} - b_{k+2} on the panel
    # [n/4, (n+1)/4) of each x, mapped to t in [-1, 1); 4 x is exact.  One
    # gather takes every element's coefficients, and b_k overwrites c_k
    x4 = _PANELS_PER_UNIT * x
    panel = x4.astype(np.intp)
    c = tab.cheb.take(panel, axis=1)
    t = 2.0 * (x4 - panel) - 1.0
    t2 = 2.0 * t
    tmp = x4  # free once t is formed
    b1, b2 = c[_PANEL_DEGREE], 0.0
    for k in range(_PANEL_DEGREE - 1, 0, -1):
        np.multiply(t2, b1, out=tmp)
        tmp -= b2
        c[k] += tmp
        b1, b2 = c[k], b1
    t *= b1
    t -= b2
    t += c[0]
    return t


def _table_j(tab: _KernelTable, x: np.ndarray) -> np.ndarray:
    """j_nu at the flat array x, in sub-blocks of _SUB_BLOCK elements so that
    the work arrays stay in cache and peak memory near the output's.  Each
    element takes one route: Hankel's expansion at or above x_tail, the
    series below the cutoff, Clenshaw between them; a route with no element
    in a sub-block is not called."""
    out = np.empty_like(x)
    cutoff = _series_cutoff(tab.nu)
    for start in range(0, len(x), _SUB_BLOCK):
        ax = np.abs(x[start : start + _SUB_BLOCK])
        o = out[start : start + _SUB_BLOCK]
        tail = ax >= tab.x_tail
        small = ax < cutoff
        for band, route in (
            (tail, _hankel_j),
            (~(tail | small), _chebyshev_j),
            (small, lambda _, v: _series_j(tab.nu, v)),
        ):
            count = np.count_nonzero(band)
            if count == len(ax):
                o[:] = route(tab, ax)
            elif count:
                o[band] = route(tab, ax[band])
    return out


def eval_j(order: Order, x) -> np.ndarray | float:
    """Evaluate j_alpha at x (scalar or array). Even in x; |result| <= 1.

    Orders up to alpha = 300 are supported; larger ones raise DomainError."""
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise DomainError("eval_j requires finite arguments")
    if order.alpha > _MAX_ORDER:
        raise DomainError(
            f"eval_j supports orders alpha <= {_MAX_ORDER:g}, got {order.alpha}"
        )
    # half-integer shortcuts: elementary closed forms, no clipping needed
    if order.alpha == -0.5:
        out = np.cos(x)
        return float(out[0]) if scalar else out
    if order.alpha == 0.5:
        out = np.sin(x)
        zero = x == 0.0
        with np.errstate(invalid="ignore"):  # 0 / 0, overwritten below
            out /= x
        out[zero] = 1.0
        return float(out[0]) if scalar else out
    tab = _kernel_table(order.alpha)
    if tab is None:
        out = _direct_j(order.alpha, np.abs(x))
    else:
        out = _table_j(tab, x.ravel()).reshape(x.shape)
    np.clip(out, -1.0, 1.0, out=out)
    return float(out[0]) if scalar else out


def eval_j_ladder(order: Order, k_max: int, x) -> np.ndarray:
    """j_{alpha+k}(x) for k = 0..k_max, stacked along a new first axis.

    Rows k_max and k_max - 1 are `eval_j` at orders alpha + k_max and
    alpha + k_max - 1 (both rows when k_max = 1); the others follow from the
    recurrence in the order (DLMF 10.6.1 for the normalized kernel), run
    downward:

        j_{nu-1}(x) = j_nu(x) - x^2 / (4 nu (nu+1)) * j_{nu+1}(x).

    Downward is the stable direction below the turning point nu = |x| and
    neutral above it, so one direction serves every argument, and each
    element depends only on its own argument.  The seeds take the table
    route of `eval_j` while alpha + k_max is below ~29 and scipy's jv past
    it; alpha + k_max above 300 raises DomainError, as `eval_j` does.
    """
    if k_max < 0:
        raise DomainError(f"ladder height k_max must be >= 0, got {k_max}")
    x = np.asarray(x, dtype=float)
    if k_max == 0:
        return np.reshape(eval_j(order, x), (1,) + x.shape)
    xr = x.ravel()
    out = np.empty((k_max + 1, xr.size))
    out[k_max] = eval_j(order.shifted(k_max), xr)
    out[k_max - 1] = eval_j(order.shifted(k_max - 1), xr)
    for k in range(k_max - 1, 0, -1):
        # x (x j_{nu+1}) rather than x^2 j_{nu+1}: x^2 overflows past 1e154
        nu = order.alpha + k
        row = out[k - 1]
        np.multiply(xr, out[k + 1], out=row)
        row *= xr
        row *= -0.25 / (nu * (nu + 1.0))
        row += out[k]
    np.clip(out, -1.0, 1.0, out=out)
    return out.reshape((k_max + 1,) + x.shape)


def validate_interlacing(order: Order, zeros: np.ndarray) -> None:
    """Check the ordering/spacing structure of a table of zeros of j_alpha'.

    The entries must be the zeros j_{nu,1} < j_{nu,2} < ... of J_nu,
    nu = alpha + 1 >= 1/2, so they obey invariants that hold uniformly in nu:

    * j_{nu,k}, k = 1, 2, lies between the bounds of Qu and Wong (Trans.
      AMS 351, 1999), L_k < j_{nu,k} < L_k + (3/20) a_k^2 (2/nu)^(1/3),
      L_k = nu - a_k (nu/2)^(1/3), a_k the k-th zero of Airy's Ai (checked
      against mpmath for nu in [1/2, 301]), so a table that starts late or
      lacks its second zero is caught;
    * the gaps j_{nu,k+1} - j_{nu,k} are at least pi and non-increasing, by
      Sturm comparison for sqrt(x) J_nu(x), which solves
      u'' + (1 - (nu^2 - 1/4) / x^2) u = 0.

    Raises InternalError naming the interlacing invariant where one of these
    fails beyond roundoff, or where the entries are not positive and
    strictly increasing.
    """
    z = np.asarray(zeros, dtype=float)
    if len(z) == 0:
        return
    if z[0] <= 0 or np.any(np.diff(z) <= 0):
        raise InternalError(
            "interlacing invariant violated: zero table entries must be "
            "strictly increasing and positive"
        )
    nu = order.alpha + 1.0
    tol = _ZERO_SLACK * z[-1]
    a = _AIRY_ZEROS[: len(z)]
    lo = nu - a * (0.5 * nu) ** (1.0 / 3.0)
    hi = lo + 0.15 * a**2 * (2.0 / nu) ** (1.0 / 3.0)
    first = z[: len(a)]
    if np.any(first <= lo - tol) or np.any(first >= hi + tol):
        raise InternalError(
            f"interlacing invariant violated: the first zeros {first} do not "
            f"lie in the intervals ({lo}, {hi}) of j_nu,1 and j_nu,2, nu = {nu:g}"
        )
    gaps = np.diff(z)
    if np.any(gaps < math.pi - tol) or np.any(np.diff(gaps) > tol):
        raise InternalError(
            "interlacing invariant violated: gaps between zeros must be at "
            "least pi and non-increasing"
        )


def _mcmahon_guess(nu: float, k: int) -> float:
    # Large-index expansion of the k-th positive zero of J_nu.
    beta = (k + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    guess = beta - (mu - 1.0) / (8.0 * beta)
    guess -= 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * beta) ** 3)
    return guess


def _zeros_by_sign_change(high: Order, count: int, tol: np.ndarray) -> np.ndarray:
    """First `count` positive zeros of j_nu, nu = high.alpha, without guesses:
    sign changes on the grid nu + k pi/2, bisected to the last bit.  No zero
    lies below nu and consecutive zeros are more than pi apart, so each grid
    step holds at most one zero and the n-th sign change is the n-th zero.

    Bisection runs at most 64 passes and stops early once every bracket is
    two adjacent doubles: each midpoint then rounds to lo or hi, and since
    f(hi) has the other sign than flo, no later pass would move a bit."""
    nu = high.alpha
    step = 0.5 * math.pi
    # McMahon's guess overshoots the low zeros of large orders; the grid is
    # extended until it holds `count` sign changes
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
        if np.all((mid == lo) | (mid == hi)):
            break
        fmid = eval_j(high, mid)
        left = np.signbit(fmid) == np.signbit(flo)
        lo = np.where(left, mid, lo)
        flo = np.where(left, fmid, flo)
        hi = np.where(left, hi, mid)
    z = 0.5 * (lo + hi)
    stalled = np.flatnonzero(np.abs(eval_j(high, z)) > tol)
    if len(stalled):
        i = stalled[0]
        raise InternalError(
            f"zero #{i + 1} refinement stalled: residual "
            f"{abs(eval_j(high, z[i])):.3e} exceeds {tol[i]:.3e}"
        )
    return z


def zeros_of_j_prime(order: Order, count: int) -> np.ndarray:
    """First `count` positive zeros of j_alpha', checked by
    `validate_interlacing`, as a read-only array.

    Each zero is a root of j_{alpha+1}, found by `_zeros_by_sign_change`:
    sign changes of j_{alpha+1} on a grid of step pi/2 from alpha + 1, which
    McMahon's large-index expansion only sizes, bisected to the last bit.
    Residual requirement: |j_{alpha+1}(s'_n)| <= 1e-12 * max(1, n).
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    if count > _ZERO_TABLE_MAX:
        raise DomainError("count must be <= 1e6")
    tol = 1e-12 * np.maximum(1.0, np.arange(1, count + 1, dtype=float))
    zeros = _zeros_by_sign_change(order.shifted(1), count, tol)
    validate_interlacing(order, zeros)
    zeros.flags.writeable = False
    return zeros


@lru_cache(maxsize=64)
def cached_zero_table(alpha: float, size: int) -> np.ndarray:
    """The zero table of order alpha with `size` zeros, one of the sizes
    `first_zeros` asks for: 64 2^j, capped at 1e6."""
    return zeros_of_j_prime(Order(alpha), size)


def first_zeros(order: Order, count: int) -> np.ndarray:
    """s'_1, ..., s'_count, a read-only prefix of the smallest cached table
    that holds them.  The first n zeros of a table do not depend on its size,
    bit for bit: each zero is bracketed and bisected on its own."""
    if not 0 <= count <= _ZERO_TABLE_MAX:
        raise DomainError(f"zero count must be in [0, 1e6], got {count}")
    size = max(64, 1 << (count - 1).bit_length())
    return cached_zero_table(order.alpha, min(size, _ZERO_TABLE_MAX))[:count]


def zeros_below(order: Order, limit: float) -> np.ndarray:
    """Every s'_n <= limit, a read-only prefix of one cached table of
    int(limit / pi) + 2 zeros.  `validate_interlacing` keeps the gaps >= pi,
    so the last zero of that table exceeds (n - 1) pi > limit."""
    if not limit <= math.pi * _ZERO_TABLE_MAX:
        raise DomainError(f"zeros up to {limit:g} exceed the cap of 1e6 zeros")
    zeros = first_zeros(order, int(max(limit, 0.0) / math.pi) + 2)
    if zeros[-1] <= limit:
        raise InternalError(f"zero table ends at {zeros[-1]:g}, below {limit:g}")
    return zeros[: np.searchsorted(zeros, limit, side="right")]


def certify_bound(order: Order, t_max: float) -> float:
    """Empirical envelope constant c_alpha on [0, t_max], with 5% margin:
    |j_alpha(t)| <= c_alpha (1+t)^(-alpha-1/2) there.

    c_alpha = 1.05 * max over a dense grid of |j_alpha(t)| (1+t)^(alpha+1/2);
    it is a grid maximum inflated by a safety margin, not an analytic bound.
    """
    if not (t_max > 0) or not math.isfinite(t_max):
        raise DomainError("t_max must be positive and finite")
    # ~64 samples per oscillation period pi
    n = int(min(2_000_000, max(4096, 64 * t_max / math.pi)))
    t = np.linspace(0.0, t_max, n)
    vals = np.abs(eval_j(order, t)) * (1.0 + t) ** (order.alpha + 0.5)
    return 1.05 * float(np.max(vals))
