"""Bandlimited (Paley-Wiener) model, Bernstein bounds, and the peaked
interpolation family built from translated indicator transforms.

A PWFunction stores spectral samples of the transform on a rule over (0, b);
synthesis is the inverse-transform quadrature.  The iterated half-derivative
D = (1/2x) d/dx maps the model to order alpha+k with an explicit kernel, which
gives the norm of D^k f as an exact spectral sum (no physical truncation).
D^k f at points is the kernel sums of the D^k rows, the spectrum times
mu_fold(alpha + k), times (-pi)^k (`_dk_signs`); its one caller is the
good-bad window pass, which forms D^k f at every point it needs in one
kernel pass over the whole ladder.  Nothing here is cached.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .bessel import Order, eval_j, first_zeros
from .errors import DomainError
from .measure import IntervalSet, _check_power_range
from .quadrature import build_rule, mu_fold, mu_rule
from .transform import kernel_apply

_MAX_DK = 30


def theta_constant(order: Order) -> float:
    """Normalization making the [0, 1/(2 pi)] indicator transform peak at 1:
    (4 pi)^(alpha+1) * Gamma(alpha+2)."""
    a = order.alpha
    return (4.0 * math.pi) ** (a + 1.0) * math.gamma(a + 2.0)


@dataclass(frozen=True)
class PWFunction:
    """Member of the bandlimited model: spectral samples coeffs[i] of the
    transform at the nodes[i] in [0, bandlimit] of a quadrature rule with
    the plain (Lebesgue) weights[i]; the three arrays have one length."""

    order: Order
    bandlimit: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (self.bandlimit > 0):
            raise DomainError("bandlimit must be positive")
        if not len(self.nodes) == len(self.weights) == len(self.coeffs):
            raise DomainError("nodes, weights and coeffs must have equal lengths")
        if len(self.nodes) == 0:
            raise DomainError("the spectral rule has no nodes")
        if not (np.min(self.nodes) >= 0 and np.max(self.nodes) <= self.bandlimit):
            raise DomainError("spectral nodes must lie in [0, bandlimit]")

    def mu_hat_weights(self, shift: float = 0.0) -> np.ndarray:
        """Spectral weights with the order-(alpha+shift) measure folded in."""
        return mu_fold(self.order.shifted(shift), self.nodes, self.weights)


def synthesize(pws: Sequence[PWFunction], x) -> np.ndarray:
    """f(x) = integral of the spectrum against j_alpha(2 pi x xi) d mu_alpha,
    one row per member of `pws`.  The members share one order and spectral
    rule, and every row comes from one pass over the kernel."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    first = pws[0]
    for other in pws[1:]:
        if other.order != first.order or not (
            np.array_equal(other.nodes, first.nodes)
            and np.array_equal(other.weights, first.weights)
        ):
            raise DomainError("synthesized members must share order and spectral rule")
    coeffs = first.mu_hat_weights() * np.stack([p.coeffs for p in pws])
    return kernel_apply(first.order, xs, first.nodes, coeffs[None])[0]


def _check_dk(k: int) -> None:
    if not (0 <= k <= _MAX_DK):
        raise DomainError(f"derivative order must be in [0, {_MAX_DK}], got {k}")


def _dk_signs(sums: np.ndarray) -> np.ndarray:
    """Kernel sums of the D^k rows, one row per order alpha + k, made D^k f
    in place: row k times (-pi)^k."""
    sums *= np.array([(-math.pi) ** k for k in range(len(sums))])[:, None]
    return sums


def dk_norm(pw: PWFunction, k: int) -> float:
    """L2 norm of D^k f in the order-(alpha+k) measure, via the exact
    spectral identity ||D^k f|| = pi^k * (spectral norm of the coefficients
    in mu_{alpha+k}); at k = 0 it is Plancherel's ||f||.  No physical-domain
    truncation enters.  Raises DomainError where b^(2 (alpha + k) + 2), which
    the fold of mu_{alpha+k} approaches, leaves the range of a double."""
    _check_dk(k)
    _check_power_range(pw.order, pw.bandlimit, 2.0 * (pw.order.alpha + k) + 2.0)
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
    rhs = factor * (math.pi**1.5 * pw.bandlimit) ** k * dk_norm(pw, 0)
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
    truncated physical-domain integral must represent the full norm).  The
    bump is set to 0 where it would be subnormal (below the smallest normal
    double), as at the two end nodes of a 32-node rule: arithmetic on
    subnormals is slow, and the draw's norm is the same bits, since the
    square of a subnormal is already 0.

    The spectrum is a sum over an n_spec-node rule, not a continuous one, so
    the synthesized function decays to ~1e-13 and then rises again: the
    alias starts near x = 0.47 n_spec / b.  A physical window [0, x_max]
    needs n_spec >= 3 b x_max or so.  Raises DomainError where
    b^(2 alpha + 2), which the fold of mu_alpha approaches, leaves the range
    of a double.
    """
    _check_power_range(order, b, 2.0 * order.alpha + 2.0)
    nodes, weights = build_rule(0.0, b, n_spec)
    if kind == "uniform":
        c = rng.uniform(-1.0, 1.0, size=n_spec)
    elif kind == "smooth":
        u = nodes / b
        bump = np.exp(4.0 - 1.0 / np.maximum(u * (1.0 - u), 1e-300))
        bump[bump < np.finfo(float).tiny] = 0.0
        deg = int(rng.integers(2, 7))
        poly = np.polynomial.polynomial.polyval(2.0 * u - 1.0, rng.uniform(-1, 1, deg + 1))
        c = bump * poly
        if float(np.max(np.abs(c))) == 0.0:
            c = bump
    else:
        raise DomainError(f"unknown random family {kind!r}")
    # the bits of dk_norm(pw, 0), with the one PWFunction built after it
    nrm = float(np.sqrt(np.dot(mu_fold(order, nodes, weights), c**2)))
    if nrm == 0.0:
        raise DomainError("degenerate random draw")
    return PWFunction(order, b, nodes, weights, c / nrm)


# --- peaked interpolation family -------------------------------------------

_SING_WINDOW = 1e-4  # relative half-width of the series patch around s'_n


def extremal_peak(order: Order, n: int) -> float:
    """Value at its own node: 1 for n=0, else (alpha+1) j_alpha(s'_n)^2."""
    if n == 0:
        return 1.0
    s = float(first_zeros(order, n)[-1])
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
    s = float(first_zeros(order, n)[-1])
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
    s = 0.0 if n == 0 else float(first_zeros(order, n)[-1])
    lo, hi = max(0.0, s - a), s + a
    if hi <= lo:
        return 1.0
    x, w = mu_rule(order, IntervalSet.of([(lo, hi)]), 12.0)
    window = float(np.dot(w, extremal_family(order, n, x) ** 2))
    total = extremal_norm_sq(order, n)
    return max(0.0, 1.0 - window / total)
