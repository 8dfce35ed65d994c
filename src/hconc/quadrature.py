"""Gauss-Legendre quadrature rules and the mu_alpha measure weights.

`build_rule` produces a single mapped Gauss-Legendre rule (exact for
polynomials up to degree 2n-1 on its interval).  For long oscillatory
integrands the composite `panel_rule` is preferred: fixed 16-node panels keep
node counts proportional to the number of oscillation periods without the
cost of huge single rules.

This is the one module that forms mu_alpha quadrature weights: `mu_fold`
folds the density C x^(2 alpha + 1) into given weights, and `mu_rule` gives
nodes and mu_alpha weights on a set, integrating the density exactly on a
panel that starts at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special

from .bessel import Order
from .errors import DomainError
from .measure import IntervalSet, mu_density_constant

_PANEL = 16  # nodes per panel of the composite rules


@lru_cache(maxsize=256)
def _gl_nodes(n: int):
    x, w = special.roots_legendre(n)
    return x, w


@lru_cache(maxsize=64)
def _gj_nodes(n: int, beta: float):
    # Gauss-Jacobi rule of the weight (1 + t)^beta on [-1, 1]
    x, w = special.roots_jacobi(n, 0.0, beta)
    return x, w


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights on (lo, hi)."""

    interval: tuple[float, float]
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.nodes) != len(self.weights):
            raise DomainError("nodes and weights must have equal length")

    def __len__(self) -> int:
        return len(self.nodes)

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


def build_rule(lo: float, hi: float, n: int) -> QuadratureRule:
    """Gauss-Legendre rule mapped affinely to (lo, hi); 2 <= n <= 1e5."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise DomainError(f"degenerate interval ({lo}, {hi})")
    if not (2 <= n <= 10**5):
        raise DomainError(f"node count must be in [2, 1e5], got {n}")
    x, w = _gl_nodes(int(n))
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return QuadratureRule((float(lo), float(hi)), mid + half * x, half * w)


def panel_rule(lo: float, hi: float, nodes_per_unit: float) -> QuadratureRule:
    """Composite Gauss-Legendre rule with roughly nodes_per_unit density."""
    if hi <= lo:
        raise DomainError(f"degenerate interval ({lo}, {hi})")
    total = max(_PANEL, int(math.ceil((hi - lo) * nodes_per_unit)))
    npan = max(1, int(math.ceil(total / _PANEL)))
    x, w = _gl_nodes(_PANEL)
    edges = np.linspace(lo, hi, npan + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + halves[:, None] * x[None, :]).ravel()
    weights = (halves[:, None] * w[None, :]).ravel()
    return QuadratureRule((float(lo), float(hi)), nodes, weights)


def set_rule(subset: IntervalSet, nodes_per_unit: float):
    """Composite rule covering every interval of a set; returns a single
    node/weight pair spanning the union (intervals are disjoint)."""
    if subset.is_empty():
        return np.empty(0), np.empty(0)
    parts = [panel_rule(a, b, nodes_per_unit) for a, b in subset.intervals]
    nodes = np.concatenate([p.nodes for p in parts])
    weights = np.concatenate([p.weights for p in parts])
    return nodes, weights


def mu_fold(order: Order, nodes, weights) -> np.ndarray:
    """Quadrature weights with the mu_alpha density C x^(2 alpha + 1)
    folded in."""
    return weights * mu_density_constant(order) * nodes ** (2.0 * order.alpha + 1.0)


def mu_rule(order: Order, subset: IntervalSet, nodes_per_unit: float):
    """Nodes on the subset and their mu_alpha quadrature weights: `set_rule`
    with the density folded in by `mu_fold`.  A panel that starts at 0 takes
    the Gauss-Jacobi rule of the weight x^(2 alpha + 1) instead, so the rule
    keeps the Gauss-Legendre rate for smooth integrands also where the
    density is not smooth at 0 (2 alpha + 1 not an integer)."""
    nodes, weights = set_rule(subset, nodes_per_unit)
    weights = mu_fold(order, nodes, weights)
    if subset.intervals and subset.inf() == 0.0:
        # the first panel is [0, 2 half]; its Gauss-Legendre nodes are symmetric
        beta = 2.0 * order.alpha + 1.0
        half = 0.5 * (nodes[0] + nodes[_PANEL - 1])
        t, w = _gj_nodes(_PANEL, beta)
        nodes[:_PANEL] = half * (t + 1.0)
        weights[:_PANEL] = mu_density_constant(order) * (w * half ** (beta + 1.0))
    return nodes, weights

