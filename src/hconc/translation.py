"""Generalized translation on the half-line.

The translation of f from x to y averages f over the triangle-side distance
sqrt(x^2 + y^2 - 2 x y cos(theta)) against the weight sin(theta)^(2 alpha):

    T_x f(y) = Gamma(a+1)/(sqrt(pi) Gamma(a+1/2)) *
               integral_0^pi f(dist(theta)) sin(theta)^(2a) d theta.

The endpoint-singular weight is handled by Gauss-Jacobi nodes in t=cos(theta)
whose weight (1-t^2)^(a-1/2) equals the theta-weight exactly, so the stored
theta-rule absorbs sin(theta)^(2a) into its weights.  At a = -1/2 the measure
degenerates to the two endpoint atoms and the closed two-point form is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .bessel import Order
from .errors import ConvergenceError, DomainError
from .quadrature import QuadratureRule

_AGREE_TOL = 1e-10
_MAX_THETA_NODES = 4096


@lru_cache(maxsize=128)
def _theta_rule(alpha: float, n: int) -> QuadratureRule:
    # Gauss-Jacobi on (-1,1) with weight (1-t^2)^(alpha-1/2), mapped to theta.
    t, w = special.roots_jacobi(n, alpha - 0.5, alpha - 0.5)
    theta = np.arccos(t[::-1])
    return QuadratureRule((0.0, math.pi), theta, w[::-1].copy())


@dataclass(frozen=True)
class TranslationPlan:
    """Order plus a theta-rule on (0, pi) with the sin^(2 alpha) weight folded
    into the weights."""

    order: Order
    theta_rule: QuadratureRule


def make_plan(order: Order, n_theta: int = 256) -> TranslationPlan:
    if order.alpha == -0.5:
        # two-point limit; the rule is never consulted but keep the type whole
        return TranslationPlan(order, _theta_rule(0.0, 2))
    return TranslationPlan(order, _theta_rule(order.alpha, n_theta))


def _translate_once(
    order: Order, rule: QuadratureRule, x: float, f, ys: np.ndarray
) -> np.ndarray:
    cos_t = np.cos(rule.nodes)
    # dist^2 = (x - y)^2 + 2 x y (1 - cos theta), grouped to avoid cancellation
    d2 = (x - ys[:, None]) ** 2 + 2.0 * x * ys[:, None] * (1.0 - cos_t[None, :])
    dist = np.sqrt(np.maximum(d2, 0.0))
    vals = np.asarray(f(dist.ravel()), dtype=float).reshape(dist.shape)
    norm = math.gamma(order.alpha + 1.0) / (
        math.sqrt(math.pi) * math.gamma(order.alpha + 0.5)
    )
    return norm * (vals @ rule.weights)


def translate_batch(
    plan: TranslationPlan, x: float, f, ys, adaptive: bool = True
) -> np.ndarray:
    """T_x f at every y in ys; node count doubles until two successive
    evaluations agree to 1e-10.  adaptive=False evaluates once on the plan's
    own rule (for sampled/interpolated f whose kinks defeat refinement)."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if x < 0 or np.any(ys < 0):
        raise DomainError("translation arguments live on R+")
    order = plan.order
    if order.alpha == -0.5:
        left = np.asarray(f(x + ys), dtype=float)
        right = np.asarray(f(np.abs(x - ys)), dtype=float)
        return 0.5 * (left + right)
    if x == 0.0:
        return np.asarray(f(ys), dtype=float)
    n = len(plan.theta_rule)
    if not adaptive:
        return _translate_once(order, _theta_rule(order.alpha, n), x, f, ys)
    prev = _translate_once(order, _theta_rule(order.alpha, n), x, f, ys)
    while True:
        n *= 2
        cur = _translate_once(order, _theta_rule(order.alpha, n), x, f, ys)
        diff = float(np.max(np.abs(cur - prev)))
        if diff <= _AGREE_TOL * max(1.0, float(np.max(np.abs(cur)))):
            return cur
        if n >= _MAX_THETA_NODES:
            raise ConvergenceError(
                f"theta-quadrature did not stabilize at {n} nodes",
                last_iterate=cur,
                residual=diff,
            )
        prev = cur


def translate(plan: TranslationPlan, x: float, f, y: float) -> float:
    """T_x f(y) for a single evaluation point."""
    return float(translate_batch(plan, x, f, np.array([y]))[0])
