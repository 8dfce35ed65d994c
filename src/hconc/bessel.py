"""Normalized Bessel kernel of order alpha.

The central object is j_alpha(x) = 2^alpha * Gamma(alpha+1) * J_alpha(x) / x^alpha,
normalized so j_alpha(0) = 1.  It is even, entire, and bounded by 1 in absolute
value.  This module evaluates j_alpha and its derivative, certifies the decay
envelope |j_alpha(t)| <= c_alpha (1+t)^(-alpha-1/2), and tabulates the zeros
s'_n of j_alpha' (equivalently, the zeros of j_{alpha+1}).

`eval_j` takes one of four routes, chosen by the order and the argument:

* closed form for alpha = -1/2 and 1/2: cos x and sin x / x, at every x;
* power series for |x| below a cutoff: 0.5 (the J_alpha / x^alpha quotient
  loses accuracy there), widened at orders above ~120 to where J_alpha would
  come within reach of underflow;
* scipy's j0 / j1 for alpha = 0 and 1;
* scipy's jv for every other order, some 25 times the cost of j0 per element;
  its normaliser 2^alpha Gamma(alpha+1) / x^alpha is formed in log space where
  the direct product would overflow.

Orders above 300 are refused (DomainError): there the series band needs more
terms than `_SERIES_TERMS` and loses digits to cancellation.

`eval_j_ladder` gives every order alpha + k, k = 0..k_max, from the two
`eval_j` calls at orders alpha and alpha + 1 and the three-term recurrence in
the order: upward where |x| >= T = alpha + k_max + 2, downward (Miller's
algorithm) below T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import optimize, special

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


@dataclass(frozen=True)
class BesselBound:
    """Certified envelope constant: |j_alpha(t)| <= c_alpha (1+t)^(-alpha-1/2).

    The constant is an empirical grid maximum inflated by a safety margin,
    valid on [0, grid_max]; it is not an analytic bound.
    """

    c_alpha: float
    grid_max: float
    alpha: float = 0.0

    def bound_at(self, t):
        t = np.asarray(t, dtype=float)
        return self.c_alpha * (1.0 + t) ** (-(self.alpha + 0.5))


def _series_j(alpha: float, x: np.ndarray) -> np.ndarray:
    # j_alpha(x) = sum_m (-1)^m Gamma(a+1)/(m! Gamma(m+a+1)) (x/2)^(2m),
    # with the recurrence term_m = term_{m-1} * (-(x/2)^2) / (m (m+alpha)).
    q = -0.25 * x * x
    total = np.ones_like(x)
    term = np.ones_like(x)
    for m in range(1, _SERIES_TERMS):
        term = term * q / (m * (m + alpha))
        total = total + term
        if np.max(np.abs(term)) < 1e-18:
            break
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
    if log_front < _LOG_HUGE and a * math.log(np.max(x)) < _LOG_HUGE:
        # every normaliser fits: one expression over the whole array, with
        # no masks or named temporaries on the large kernel blocks
        return 2.0**a * math.gamma(a + 1.0) * special.jv(a, x) / x**a
    jv = special.jv(a, x)
    far = (a * np.log(x) >= _LOG_HUGE) | (log_front >= _LOG_HUGE)
    out = np.empty_like(x)
    near = ~far
    if np.any(near):
        out[near] = 2.0**a * math.gamma(a + 1.0) * jv[near] / x[near] ** a
    out[far] = np.exp(log_front - a * np.log(x[far])) * jv[far]
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
        out = np.sinc(x / np.pi)
        return float(out[0]) if scalar else out
    ax = np.abs(x)
    out = np.empty_like(ax)
    small = ax < _series_cutoff(order.alpha)
    if np.any(small):
        out[small] = _series_j(order.alpha, ax[small])
    big = ~small
    if np.any(big):
        a = order.alpha
        xb = ax[big]
        if a == 0.0:
            out[big] = special.j0(xb)
        elif a == 1.0:
            out[big] = 2.0 * special.j1(xb) / xb
        else:
            out[big] = _normalized_jv(a, xb)
    np.clip(out, -1.0, 1.0, out=out)
    return float(out[0]) if scalar else out


def eval_j_ladder(order: Order, k_max: int, x) -> np.ndarray:
    """j_{alpha+k}(x) for k = 0..k_max, stacked along a new first axis.

    Rows 0 and 1 are `eval_j` at orders alpha and alpha + 1; the others follow
    from the recurrence in the order (DLMF 10.6.1 for the normalized kernel).
    Where |x| >= T = alpha + k_max + 2 every order of the ladder lies below
    the argument, and the recurrence runs upward from rows 0 and 1:

        j_{nu+1}(x) = 4 nu (nu+1) / x^2 * (j_nu(x) - j_{nu-1}(x)).

    Below T the upward direction amplifies rounding, so Miller's algorithm
    (DLMF 3.6(iii)) runs

        j_{nu-1}(x) = j_nu(x) - x^2 / (4 nu (nu+1)) * j_{nu+1}(x)

    downward from the values 1 and 0 at an order past the turning point of
    the largest argument; each column is then scaled to rows 0 and 1 by
    least squares (j_alpha and j_{alpha+1} never vanish together).
    """
    if k_max < 0:
        raise DomainError(f"ladder height k_max must be >= 0, got {k_max}")
    x = np.asarray(x, dtype=float)
    if k_max == 0:
        return np.reshape(eval_j(order, x), (1,) + x.shape)
    xr = x.ravel()
    out = np.empty((k_max + 1, xr.size))
    out[0] = eval_j(order, xr)
    out[1] = eval_j(order.shifted(1), xr)
    up = np.abs(xr) >= order.alpha + k_max + 2.0
    if np.any(up):
        _ladder_upward(out, up, xr[up] ** 2, order.alpha)
    down = ~up
    if np.any(down):
        _ladder_downward(out, down, xr[down] ** 2, order.alpha)
    np.clip(out, -1.0, 1.0, out=out)
    return out.reshape((k_max + 1,) + x.shape)


# The two helpers fill rows 2..k_max of `out` at the columns `cols`, whose
# squared arguments are x2, from rows 0 and 1.


def _ladder_upward(out: np.ndarray, cols, x2: np.ndarray, alpha: float) -> None:
    prev, cur = out[0, cols], out[1, cols]
    for k in range(1, len(out) - 1):
        nu = alpha + k
        prev, cur = cur, 4.0 * nu * (nu + 1.0) * (cur - prev) / x2
        out[k + 1, cols] = cur


def _ladder_downward(out: np.ndarray, cols, x2: np.ndarray, alpha: float) -> None:
    k_max = len(out) - 1
    x_top = math.sqrt(float(np.max(x2)))
    # start far enough past the turning point nu = x that the unwanted
    # solution has decayed below double precision by order alpha + k_max
    turn = x_top - alpha + 8.0 * (x_top / 2.0) ** (1 / 3)
    start = max(k_max + 2, math.ceil(turn) + 4)
    nxt = np.zeros_like(x2)
    cur = np.ones_like(x2)
    for m in range(start, 0, -1):
        # (cur, nxt) = (p_m, p_{m+1})  ->  (p_{m-1}, p_m)
        nxt *= x2
        nxt *= 0.25 / ((alpha + m) * (alpha + m + 1.0))
        np.subtract(cur, nxt, out=nxt)
        cur, nxt = nxt, cur
        if 2 <= m - 1 <= k_max:
            out[m - 1, cols] = cur
    # least-squares fit of (p_0, p_1) = (cur, nxt) to rows 0 and 1
    j0, j1 = out[0, cols], out[1, cols]
    scale = (j0 * j0 + j1 * j1) / (cur * j0 + nxt * j1)
    for k in range(2, k_max + 1):
        out[k, cols] *= scale


def eval_j_derivative(order: Order, x) -> np.ndarray | float:
    """Derivative j_alpha'(x) = -x/(2(alpha+1)) * j_{alpha+1}(x)."""
    scalar = np.isscalar(x)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(xv)):
        raise DomainError("eval_j_derivative requires finite arguments")
    higher = eval_j(order.shifted(1), xv)
    out = -xv / (2.0 * (order.alpha + 1.0)) * higher
    return float(out[0]) if scalar else out


def envelope_amplitude(order: Order) -> float:
    """Leading oscillation amplitude: j_alpha(t) ~ A t^(-alpha-1/2) cos(...)."""
    a = order.alpha
    return 2.0 ** (a + 0.5) * math.gamma(a + 1.0) / math.sqrt(math.pi)


@dataclass(frozen=True)
class ZeroTable:
    """Increasing positive zeros s'_1 < s'_2 < ... of j_alpha' (= zeros of
    j_{alpha+1}), with the convention s'_0 = 0 handled by `s_prime`."""

    order: Order
    zeros: np.ndarray = field(repr=False)

    def __post_init__(self):
        validate_interlacing(self)

    def s_prime(self, n: int) -> float:
        if n < 0:
            raise DomainError("zero index must be >= 0")
        if n == 0:
            return 0.0
        if n > len(self.zeros):
            raise DomainError(f"table holds {len(self.zeros)} zeros, asked for {n}")
        return float(self.zeros[n - 1])

    def __len__(self) -> int:
        return len(self.zeros)


def validate_interlacing(table: ZeroTable) -> None:
    """Check the ordering/spacing structure of a zero table.

    Raises InternalError naming the interlacing invariant if the entries are
    not strictly increasing, or if for large index the spacing drifts from
    the asymptotic value pi.
    """
    z = np.asarray(table.zeros, dtype=float)
    if len(z) == 0:
        return
    if z[0] <= 0 or np.any(np.diff(z) <= 0):
        raise InternalError(
            "interlacing invariant violated: zero table entries must be "
            "strictly increasing and positive"
        )
    alpha = table.order.alpha
    n = len(z)
    if n >= 50:
        # s'_n = pi (n + (2 alpha + 1)/4 + O(1/n)); allow a generous O(1/n).
        drift = abs(z[-1] / math.pi - n - (2 * alpha + 1) / 4.0)
        if drift > 10.0 / n + 1e-6:
            raise InternalError(
                "interlacing invariant violated: asymptotic spacing of the "
                f"zero table is off by {drift:.3e} at index {n}"
            )


def _mcmahon_guess(nu: float, ks: np.ndarray) -> np.ndarray:
    # Large-index expansion of the k-th positive zero of J_nu.
    beta = (ks + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    guess = beta - (mu - 1.0) / (8.0 * beta)
    guess -= 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * beta) ** 3)
    return guess


def zeros_of_j_prime(order: Order, count: int) -> ZeroTable:
    """First `count` positive zeros of j_alpha' as a validated ZeroTable.

    Each zero is a root of j_{alpha+1}: the initial guess comes from the
    large-index expansion, refined by Newton; roots that fail to converge are
    re-bracketed within guess +/- pi/2 and bisected.  Residual requirement:
    |j_{alpha+1}(s'_n)| <= 1e-12 * max(1, n).
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    if count > 10**6:
        raise DomainError("count must be <= 1e6")
    nu = order.alpha + 1.0
    high = Order(order.alpha).shifted(1)
    ks = np.arange(1, count + 1, dtype=float)
    guess = _mcmahon_guess(nu, ks)
    z = guess.copy()
    # Newton on j_{alpha+1}; its derivative is -x j_{alpha+2}(x) / (2(alpha+2)).
    higher2 = high.shifted(1)
    for _ in range(12):
        f = eval_j(high, z)
        fp = -z / (2.0 * (nu + 1.0)) * eval_j(higher2, z)
        step = f / fp
        z = z - step
        if np.max(np.abs(step)) < 1e-14 * max(1.0, z[-1]):
            break
    tol = 1e-12 * np.maximum(1.0, ks)
    bad = (np.abs(eval_j(high, z)) > tol) | (np.abs(z - guess) > math.pi / 2)
    for i in np.flatnonzero(bad):
        lo = guess[i] - math.pi / 2 + 1e-9
        hi = guess[i] + math.pi / 2 - 1e-9
        flo = eval_j(high, lo)
        fhi = eval_j(high, hi)
        if flo * fhi > 0:
            raise InternalError(
                f"failed to bracket zero #{i + 1} of j_{nu:g} within "
                f"[{lo:.6f}, {hi:.6f}]: f(lo)={flo:.3e}, f(hi)={fhi:.3e}"
            )
        z[i] = optimize.brentq(lambda t: eval_j(high, t), lo, hi, xtol=1e-14)
        if abs(eval_j(high, z[i])) > tol[i]:
            raise InternalError(
                f"zero #{i + 1} refinement stalled: residual "
                f"{abs(eval_j(high, z[i])):.3e} exceeds {tol[i]:.3e}"
            )
    return ZeroTable(order=order, zeros=z)


@lru_cache(maxsize=64)
def cached_zero_table(alpha: float, count: int) -> ZeroTable:
    """Memoized zero table; grows in powers of two to limit recomputation."""
    n = 1
    while n < count:
        n *= 2
    return zeros_of_j_prime(Order(alpha), max(n, 64))


def certify_bound(order: Order, t_max: float) -> BesselBound:
    """Empirical envelope constant c_alpha on [0, t_max], with 5% margin.

    c_alpha = 1.05 * max over a dense grid of |j_alpha(t)| (1+t)^(alpha+1/2).
    """
    if not (t_max > 0) or not math.isfinite(t_max):
        raise DomainError("t_max must be positive and finite")
    # ~64 samples per oscillation period pi
    n = int(min(2_000_000, max(4096, 64 * t_max / math.pi)))
    t = np.linspace(0.0, t_max, n)
    vals = np.abs(eval_j(order, t)) * (1.0 + t) ** (order.alpha + 0.5)
    c = 1.05 * float(np.max(vals))
    return BesselBound(c_alpha=c, grid_max=float(t_max), alpha=order.alpha)
