"""Dense and independent references that the tests check production code
against.  None of them runs in the program; each docstring names the code it
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from hconc.annihilation import (
    ProjectionPair,
    _concentration_factor,
    _pair_block,
    _pair_nodes,
)
from hconc.bessel import Order, eval_j
from hconc.errors import DomainError, InternalError
from hconc.measure import IntervalSet, mu_density_constant
from hconc.paley_wiener import _MAX_DK, PWFunction
from hconc.transform import kernel_apply
from hconc.translation import make_plan, translate_batch

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
# pair norms and the concentration eigenproblem (hconc.annihilation)


def _pair_factor(pair: ProjectionPair, budget: int, scale: int = 1) -> np.ndarray:
    """Factor A with A^T A = the compression of the Sigma-bandpass to S.

    A[k, p] = sqrt(u_k) j_alpha(2 pi x_p xi_k) sqrt(v_p) over mu_alpha
    quadrature weights u (spectral, on Sigma) and v (spatial, on S), held
    whole.  The dense reference for `pair_norm`."""
    return _pair_block(pair.order, *_pair_nodes(pair, budget, scale))


def _short_side_gram(pair: ProjectionPair, budget: int, far_budget: int) -> np.ndarray:
    """Gram of the pair factor on its shorter side at `budget` (the side
    `annihilation._pair_gram` keeps), with the sum along the other side taken
    on that side's quadrature rule at `far_budget`.  The dense reference for
    `_pair_gram`, which integrates the other side in closed form."""
    xi, su, x, sv = _pair_nodes(pair, budget)
    fine_xi, fine_su, fine_x, fine_sv = _pair_nodes(pair, far_budget)
    if len(xi) <= len(x):
        A = _pair_block(pair.order, fine_x, fine_sv, xi, su)
    else:
        A = _pair_block(pair.order, fine_xi, fine_su, x, sv)
    return A.T @ A


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
    order: Order,
    b: float,
    omega: IntervalSet,
    x_max: float,
    n_modes: int = 128,
) -> ConcentrationMatrix:
    """The Omega-window Gram B B^T of `annihilation._concentration_factor`
    on the orthonormal mode basis, assembled densely: the reference for
    `ls_empirical_min_ratio`, which takes singular values of B instead."""
    B = _concentration_factor(order, b, omega, x_max, n_modes)
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
# D^k of the bandlimited model (hconc.paley_wiener)


def apply_Dk(pw: PWFunction, k: int, x) -> np.ndarray | float:
    """k-th iterate of D = (1/2x) d/dx applied to the synthesis:
    D^k f(x) = (-pi)^k * integral of spectrum * j_{alpha+k}(2 pi x xi)
    against d mu_{alpha+k}.  It evaluates order alpha+k directly, one order
    at a time: the reference for `paley_wiener.apply_Dk_all`, whose rows come
    from one order ladder."""
    if not (0 <= k <= _MAX_DK):
        raise DomainError(f"derivative order k must be in [0, {_MAX_DK}]")
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    coeffs = pw.mu_hat_weights(shift=k) * pw.coeffs
    vals = (-math.pi) ** k * kernel_apply(
        pw.order.shifted(k), xs, pw.spectral_rule.nodes, coeffs
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
    kernel route to `translation.translate`, which integrates over theta."""
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
    `translation.translate`: integrate f against the kernel density over
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
    plan = make_plan(order)
    mw = weights * values
    result = np.empty(len(out_nodes))
    for i, x in enumerate(out_nodes):
        tg = translate_batch(plan, float(x), g, nodes)
        result[i] = float(np.dot(mw, tg))
    return result
