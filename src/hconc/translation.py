"""Generalized translation on the half-line.

The translation of f from x to y averages f over the triangle-side distance
sqrt(x^2 + y^2 - 2 x y cos(theta)) against the weight sin(theta)^(2 alpha):

    T_x f(y) = Gamma(a+1)/(sqrt(pi) Gamma(a+1/2)) *
               integral_0^pi f(dist(theta)) sin(theta)^(2a) d theta.

The endpoint-singular weight is handled by Gauss-Jacobi nodes in t=cos(theta)
whose weight (1-t^2)^(a-1/2) equals the theta-weight exactly, so the stored
theta-rule absorbs sin(theta)^(2a) into its weights.  At a = -1/2 the measure
degenerates to the two endpoint atoms and the closed two-point form is used.

`translate_batch` evaluates f on the (len(ys), n) grid of distances of each
theta-rule, in row blocks of about _THETA_BLOCK points, so that the grid, f's
values and the weight products of a block stay in cache.  Each row is formed
by the same arithmetic in any block, so blocking changes no value.  f may
return several functions (sets) on the same distances, as an (m, len) array;
every set then shares the distance grid and the f calls, while the weights
are applied to each set by its own matrix-vector product and the node
doubling stops for each set on its own, so a set's result is bit-equal to
translating it alone.
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
# distance-grid points per row block of a theta pass (128 KB per temporary)
_THETA_BLOCK = 16_384
# rows per block are a multiple of this: BLAS groups the rows of a
# matrix-vector product in eights (OpenBLAS), so a block's rows then sum as
# the same rows of the whole grid do, bit for bit
_ROW_GROUP = 8


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


def _theta_pass(order: Order, n: int, x: float, f, ys: np.ndarray) -> np.ndarray:
    """T_x f at ys on the n-node theta-rule: per row block of ys, one f call
    over the block's distance grid, then one matrix-vector product per set."""
    rule = _theta_rule(order.alpha, n)
    one_minus_cos = 1.0 - np.cos(rule.nodes)
    norm = math.gamma(order.alpha + 1.0) / (
        math.sqrt(math.pi) * math.gamma(order.alpha + 0.5)
    )
    rows = max(1, _THETA_BLOCK // n // _ROW_GROUP) * _ROW_GROUP
    out = None
    # empty ys still make one (empty) f call, which fixes the set count
    for start in range(0, max(len(ys), 1), rows):
        yb = ys[start : start + rows, None]
        # dist^2 = (x - y)^2 + 2 x y (1 - cos theta), grouped to avoid cancellation
        dist = (2.0 * x * yb) * one_minus_cos
        dist += (x - yb) ** 2
        np.maximum(dist, 0.0, out=dist)
        np.sqrt(dist, out=dist)
        vals = np.asarray(f(dist.ravel()), dtype=float)
        lead = vals.shape[:-1]
        sets = vals.reshape((math.prod(lead),) + dist.shape)
        if out is None:
            out = np.empty((len(sets), len(ys)))
        for j, v in enumerate(sets):
            out[j, start : start + rows] = norm * (v @ rule.weights)
    return out.reshape(lead + (len(ys),))


def translate_batch(
    plan: TranslationPlan, x: float, f, ys, adaptive: bool = True
) -> np.ndarray:
    """T_x f at every y in ys.  f maps a 1-D array of distances to one value
    each, or to an (m, len) array holding m functions (sets) on the same
    distances; the result is (len(ys),) or (m, len(ys)), every set from the
    same f calls.  The node count doubles until two successive evaluations
    agree to 1e-10, for each set on its own: a set's value is that of the
    first doubling at which its own results agree, so it does not depend on
    the other sets.  adaptive=False evaluates once on the plan's own rule
    (for sampled/interpolated f whose kinks defeat refinement)."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if not (math.isfinite(x) and np.all(np.isfinite(ys))):
        raise DomainError("translation arguments must be finite")
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
    first = _theta_pass(order, n, x, f, ys)
    if not adaptive or len(ys) == 0:
        return first
    prev = np.atleast_2d(first)
    result = np.empty_like(prev)
    open_sets = np.ones(len(prev), dtype=bool)
    while True:
        n *= 2
        cur = np.atleast_2d(_theta_pass(order, n, x, f, ys))
        diff = np.max(np.abs(cur - prev), axis=1)
        agree = diff <= _AGREE_TOL * np.maximum(1.0, np.max(np.abs(cur), axis=1))
        done = open_sets & agree
        result[done] = cur[done]
        open_sets &= ~done
        if not open_sets.any():
            return result.reshape(first.shape)
        if n >= _MAX_THETA_NODES:
            raise ConvergenceError(
                f"theta-quadrature did not stabilize at {n} nodes",
                last_iterate=cur.reshape(first.shape),
                residual=float(np.max(diff[open_sets])),
            )
        prev = cur


def translate(plan: TranslationPlan, x: float, f, y: float) -> float:
    """T_x f(y) for a single function and evaluation point."""
    return float(translate_batch(plan, x, f, np.array([y]))[0])
