"""Bandlimited (Paley-Wiener) model, Bernstein bounds, and the peaked
interpolation family built from translated indicator transforms.

A PWFunction stores spectral samples of the transform on a rule over (0, b);
synthesis is the inverse-transform quadrature.  The iterated half-derivative
D = (1/2x) d/dx maps the model to order alpha+k with an explicit kernel, which
gives the norm of D^k f as an exact spectral sum (no physical truncation).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .bessel import Order, cached_zero_table, eval_j
from .errors import DomainError
from .measure import IntervalSet
from .quadrature import QuadratureRule, build_rule, mu_fold, mu_rule
from .transform import kernel_apply

_MAX_DK = 30


def theta_constant(order: Order) -> float:
    """Normalization making the [0, 1/(2 pi)] indicator transform peak at 1:
    (4 pi)^(alpha+1) * Gamma(alpha+2)."""
    a = order.alpha
    return (4.0 * math.pi) ** (a + 1.0) * math.gamma(a + 2.0)


@dataclass(frozen=True)
class PWFunction:
    """Member of the bandlimited model: spectral samples coeff[i] of the
    transform at spectral_rule.nodes[i] in (0, bandlimit)."""

    order: Order
    bandlimit: float
    spectral_rule: QuadratureRule
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (self.bandlimit > 0):
            raise DomainError("bandlimit must be positive")
        if len(self.coeffs) != len(self.spectral_rule):
            raise DomainError("coeffs must match the spectral rule length")
        lo, hi = self.spectral_rule.interval
        if lo < 0 or hi > self.bandlimit * (1 + 1e-12):
            raise DomainError("spectral rule must live inside (0, bandlimit)")

    def mu_hat_weights(self, shift: float = 0.0) -> np.ndarray:
        """Spectral weights with the order-(alpha+shift) measure folded in."""
        rule = self.spectral_rule
        return mu_fold(self.order.shifted(shift), rule.nodes, rule.weights)


def plancherel_norm(pw: PWFunction) -> float:
    """L2 norm from the spectral side (the transform is an isometry)."""
    return float(np.sqrt(np.dot(pw.mu_hat_weights(), pw.coeffs**2)))


def synthesize(pw: PWFunction | Sequence[PWFunction], x) -> np.ndarray | float:
    """f(x) = integral of the spectrum against j_alpha(2 pi x xi) d mu_alpha.

    A sequence of members that share one order and spectral rule gives one
    row per member, all from one pass over the kernel."""
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(pw, PWFunction):
        vals = kernel_apply(
            pw.order, xs, pw.spectral_rule.nodes, pw.mu_hat_weights() * pw.coeffs
        )
        return float(vals[0]) if scalar else vals
    first = pw[0]
    rule = first.spectral_rule
    for other in pw[1:]:
        if other.order != first.order or not (
            np.array_equal(other.spectral_rule.nodes, rule.nodes)
            and np.array_equal(other.spectral_rule.weights, rule.weights)
        ):
            raise DomainError("synthesized members must share order and spectral rule")
    coeffs = first.mu_hat_weights() * np.stack([p.coeffs for p in pw])
    return kernel_apply(first.order, xs, rule.nodes, coeffs[None])[0]


def dk_coefficients(pw: PWFunction, k_max: int) -> np.ndarray:
    """Spectral coefficient rows of D^k f for k = 0..k_max: row k is the
    spectrum with the order-(alpha+k) measure folded in.  A caller that
    evaluates D^k f at many point sets forms them once."""
    if not (0 <= k_max <= _MAX_DK):
        raise DomainError(f"derivative order k_max must be in [0, {_MAX_DK}]")
    return np.stack(
        [pw.mu_hat_weights(shift=k) * pw.coeffs for k in range(k_max + 1)]
    )


def apply_Dk_all(pw: PWFunction, coeffs: np.ndarray, x) -> np.ndarray:
    """D^k f at x for every k = 0..k_max, as the rows of a (k_max+1, len(x))
    array, from the rows `coeffs` = dk_coefficients(pw, k_max):
    D^k f(x) = (-pi)^k * integral of spectrum * j_{alpha+k}(2 pi x xi)
    against d mu_{alpha+k}.  All rows share one order ladder (two Bessel
    evaluations) per kernel block."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    vals = kernel_apply(pw.order, xs, pw.spectral_rule.nodes, coeffs)
    vals *= np.array([(-math.pi) ** k for k in range(len(coeffs))])[:, None]
    return vals


def dk_norm(pw: PWFunction, k: int) -> float:
    """L2 norm of D^k f in the order-(alpha+k) measure, via the exact
    spectral identity ||D^k f|| = pi^k * (spectral norm of the coefficients
    in mu_{alpha+k}).  No physical-domain truncation enters."""
    if not (0 <= k <= _MAX_DK):
        raise DomainError(f"derivative order k must be in [0, {_MAX_DK}]")
    return math.pi**k * float(
        np.sqrt(np.dot(pw.mu_hat_weights(shift=k), pw.coeffs**2))
    )


def bernstein_sides(pw: PWFunction, k: int) -> tuple[float, float]:
    """The two sides of the derivative-norm inequality:
    lhs = ||D^k f||_{alpha+k}, rhs = sqrt(G(a+1)/G(a+k+1)) (pi^(3/2) b)^k ||f||."""
    a = pw.order.alpha
    lhs = dk_norm(pw, k)
    if a + k + 1.0 < 171.0:
        factor = math.sqrt(math.gamma(a + 1.0) / math.gamma(a + k + 1.0))
    else:
        # Gamma overflows a double past 171; the quotient does not
        factor = math.exp(0.5 * (math.lgamma(a + 1.0) - math.lgamma(a + k + 1.0)))
    rhs = factor * (math.pi**1.5 * pw.bandlimit) ** k * plancherel_norm(pw)
    return lhs, rhs


def random_pw(
    order: Order,
    b: float,
    n_spec: int,
    rng: np.random.Generator,
    kind: str = "uniform",
) -> PWFunction:
    """Random unit-norm test function in the bandlimited model.

    kind="uniform": spectral samples i.i.d. uniform on [-1, 1] (rough; generic
    nonzero boundary values).  kind="smooth": random low-degree polynomial
    shaped by a bump that vanishes to all orders at both band edges, so the
    synthesized function decays faster than any power (usable wherever a
    truncated physical-domain integral must represent the full norm).
    """
    rule = build_rule(0.0, b, n_spec)
    if kind == "uniform":
        c = rng.uniform(-1.0, 1.0, size=n_spec)
    elif kind == "smooth":
        u = rule.nodes / b
        bump = np.exp(4.0 - 1.0 / np.maximum(u * (1.0 - u), 1e-300))
        deg = int(rng.integers(2, 7))
        poly = np.polynomial.polynomial.polyval(2.0 * u - 1.0, rng.uniform(-1, 1, deg + 1))
        c = bump * poly
        if float(np.max(np.abs(c))) == 0.0:
            c = bump
    else:
        raise DomainError(f"unknown random family {kind!r}")
    pw = PWFunction(order=order, bandlimit=b, spectral_rule=rule, coeffs=c)
    nrm = plancherel_norm(pw)
    if nrm == 0.0:
        raise DomainError("degenerate random draw")
    return PWFunction(order=order, bandlimit=b, spectral_rule=rule, coeffs=c / nrm)


# --- peaked interpolation family -------------------------------------------

_SING_WINDOW = 1e-4  # relative half-width of the series patch around s'_n


def extremal_peak(order: Order, n: int) -> float:
    """Value at its own node: 1 for n=0, else (alpha+1) j_alpha(s'_n)^2."""
    if n == 0:
        return 1.0
    s = cached_zero_table(order.alpha, n).s_prime(n)
    return (order.alpha + 1.0) * float(eval_j(order, s)) ** 2


def extremal_norm_sq(order: Order, n: int) -> float:
    """Closed-form squared L2 norm: theta_constant * peak value."""
    return theta_constant(order) * extremal_peak(order, n)


def extremal_family(order: Order, n: int, x) -> np.ndarray | float:
    """n-th member of the peaked family.

    n=0: j_{alpha+1}(x).  n>=1: j_alpha(s'_n) x^2 j_{alpha+1}(x)/(x^2-s'_n^2),
    whose singular-looking quotient is filled near x=s'_n by a cubic series of
    j_{alpha+1} about the node (where it vanishes).
    """
    if n < 0:
        raise DomainError("family index must be >= 0")
    scalar = np.isscalar(x)
    xs = np.abs(np.atleast_1d(np.asarray(x, dtype=float)))
    a = order.alpha
    high = order.shifted(1)
    if n == 0:
        vals = eval_j(high, xs)
        return float(vals[0]) if scalar else vals
    s = cached_zero_table(a, n).s_prime(n)
    js = float(eval_j(order, s))
    vals = np.empty_like(xs)
    near = np.abs(xs - s) <= _SING_WINDOW * s
    far = ~near
    if np.any(far):
        xf = xs[far]
        vals[far] = js * xf**2 * eval_j(high, xf) / (xf**2 - s * s)
    if np.any(near):
        # j_{alpha+1}(x)/(x-s) = u' + u'' d/2 + u''' d^2/6 + O(d^3), d = x-s,
        # with u = j_{alpha+1} and u(s) = 0; derivatives via the ladder rule.
        d = xs[near] - s
        j2 = float(eval_j(order.shifted(2), s))
        j3 = float(eval_j(order.shifted(3), s))
        j4 = float(eval_j(order.shifted(4), s))
        c2, c3, c4 = a + 2.0, a + 3.0, a + 4.0
        u1 = -s * j2 / (2.0 * c2)
        u2 = -j2 / (2.0 * c2) + s * s * j3 / (4.0 * c2 * c3)
        u3 = 3.0 * s * j3 / (4.0 * c2 * c3) - s**3 * j4 / (8.0 * c2 * c3 * c4)
        quot = u1 + u2 * d / 2.0 + u3 * d * d / 6.0
        xn = xs[near]
        vals[near] = js * xn**2 * quot / (xn + s)
    return float(vals[0]) if scalar else vals


def tail_mass(order: Order, n: int, a: float) -> float:
    """Energy fraction of the n-th family member outside [s'_n - a, s'_n + a],
    computed as 1 - (window integral) / (closed-form norm)."""
    if a <= 0:
        raise DomainError("window half-width must be positive")
    s = 0.0 if n == 0 else cached_zero_table(order.alpha, n).s_prime(n)
    lo, hi = max(0.0, s - a), s + a
    if hi <= lo:
        return 1.0
    x, w = mu_rule(order, IntervalSet.of([(lo, hi)]), 12.0)
    window = float(np.dot(w, extremal_family(order, n, x) ** 2))
    total = extremal_norm_sq(order, n)
    return max(0.0, 1.0 - window / total)
