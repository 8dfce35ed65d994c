"""Fourier-Bessel (Hankel) transform of order alpha on the half-line.

F(y) = integral of f(x) j_alpha(2 pi x y) d mu_alpha(x).  The kernel is
self-reciprocal, so `inverse` and `forward` share one implementation; they
and the norms act on SampledFunction carriers whose rule covers the support.
`mu_rule` and `round_trip` work on bare nodes and mu_alpha weights, and
`round_trip` gives a transform and its inverse from one pass over the kernel.
"""

from __future__ import annotations

import numpy as np

from .bessel import Order, eval_j_ladder
from .errors import DomainError
from .measure import IntervalSet, mu_density_constant
from .quadrature import QuadratureRule, SampledFunction, weighted_set_rule

# Kernel sums run in row blocks to bound peak memory.  A single-order block
# holds at most _CHUNK kernel entries.  An order-ladder block counts its
# entries across all k_max + 2 planes (the argument and k_max + 1 orders)
# against the smaller _LADDER_CHUNK, which keeps the recurrence's work
# arrays in cache and the ladder's peak memory near a single-order block's.
_CHUNK = 2_000_000
_LADDER_CHUNK = 131_072


def mu_weights(order: Order, rule: QuadratureRule) -> np.ndarray:
    """Quadrature weights with the mu_alpha density folded in."""
    return rule.weights * mu_density_constant(order) * rule.nodes ** (
        2.0 * order.alpha + 1.0
    )


def mu_rule(order: Order, subset: IntervalSet, nodes_per_unit: float):
    """Nodes on the subset and their mu_alpha quadrature weights: the density
    x^(2 alpha + 1) integrated by `weighted_set_rule` (Gauss-Jacobi on a panel
    that starts at 0, where it is not smooth), times its constant."""
    beta = 2.0 * order.alpha + 1.0
    nodes, weights = weighted_set_rule(subset, nodes_per_unit, beta)
    return nodes, mu_density_constant(order) * weights


def _kernel_blocks(order: Order, k_max: int, out_nodes: np.ndarray, nodes):
    """Row blocks (block, kern) of the kernel ladder j_{alpha+k}(2 pi y x),
    y = out_nodes[block], x in nodes, kern of shape (k_max+1, rows, len(nodes))."""
    budget = _CHUNK if k_max == 0 else _LADDER_CHUNK // (k_max + 2)
    rows = max(1, budget // max(1, len(nodes)))
    for start in range(0, len(out_nodes), rows):
        block = slice(start, start + rows)
        args = 2.0 * np.pi * np.outer(out_nodes[block], nodes)
        yield block, eval_j_ladder(order, k_max, args)


def kernel_apply(order: Order, out_nodes, nodes, coeffs) -> np.ndarray:
    """Kernel sums sum_i coeffs[k, i] j_{alpha+k}(2 pi y nodes_i) at each
    output node y, one row per order k = 0..len(coeffs)-1, all orders of a
    block from one `eval_j_ladder` call.  A 1-D `coeffs` is the single order
    alpha and gives a 1-D result."""
    coeffs = np.asarray(coeffs, dtype=float)
    per_order = np.atleast_2d(coeffs)
    k_max = len(per_order) - 1
    y = np.atleast_1d(np.asarray(out_nodes, dtype=float))
    out = np.empty((k_max + 1, len(y)))
    for block, kern in _kernel_blocks(order, k_max, y, nodes):
        for k in range(k_max + 1):
            out[k, block] = kern[k] @ per_order[k]
    return out if coeffs.ndim == 2 else out[0]


def round_trip(order: Order, nodes, coeffs, out_nodes, out_weights):
    """(F, back): the kernel sums F(y) = sum_i coeffs_i j_alpha(2 pi y x_i)
    at y in out_nodes, as `kernel_apply`, and the sums back(x_i) =
    sum_m out_weights_m F(y_m) j_alpha(2 pi y_m x_i) of the inverse
    transform at the nodes, each kernel block evaluated once."""
    y = np.asarray(out_nodes, dtype=float)
    F = np.empty(len(y))
    back = np.zeros(len(nodes))
    for block, kern in _kernel_blocks(order, 0, y, nodes):
        F[block] = kern[0] @ coeffs
        back += (out_weights[block] * F[block]) @ kern[0]
    return F, back


def forward(order: Order, f: SampledFunction, out_nodes) -> np.ndarray:
    """Transform values at out_nodes by mu_alpha-weighted quadrature."""
    coeffs = mu_weights(order, f.rule) * f.values
    return kernel_apply(order, out_nodes, f.rule.nodes, coeffs)


def inverse(order: Order, F: SampledFunction, out_nodes) -> np.ndarray:
    """Inverse transform; identical kernel (the transform is self-inverse)."""
    return forward(order, F, out_nodes)


def dilate(order: Order, lam: float, f: SampledFunction) -> SampledFunction:
    """Measure-normalized dilation: values lam^-(alpha+1) f(x / lam) on the
    rule mapped to lam * interval.  Isometric on the mu_alpha L2 norm."""
    if not (lam > 0) or not np.isfinite(lam):
        raise DomainError(f"dilation factor must be positive, got {lam}")
    lo, hi = f.rule.interval
    rule = QuadratureRule(
        (lam * lo, lam * hi), lam * f.rule.nodes, lam * f.rule.weights
    )
    values = lam ** (-(order.alpha + 1.0)) * f.values
    return SampledFunction(rule=rule, values=values)


def norm_l2(order: Order, f: SampledFunction) -> float:
    """L2 norm against mu_alpha over the rule's interval."""
    return float(np.sqrt(np.dot(mu_weights(order, f.rule), f.values**2)))


def norm_lp(order: Order, f: SampledFunction, p: float) -> float:
    """Lp norm against mu_alpha over the rule's interval, p >= 1."""
    if p < 1:
        raise DomainError("p must be >= 1")
    w = mu_weights(order, f.rule)
    return float(np.dot(w, np.abs(f.values) ** p) ** (1.0 / p))
