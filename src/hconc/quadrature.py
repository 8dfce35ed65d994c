"""Gauss-Legendre quadrature rules and sampled-function carriers.

`build_rule` produces a single mapped Gauss-Legendre rule (exact for
polynomials up to degree 2n-1 on its interval).  For long oscillatory
integrands the composite `panel_rule` is preferred: fixed-order panels keep
node counts proportional to the number of oscillation periods without the
cost of huge single rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import DomainError
from .measure import IntervalSet


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


@dataclass(frozen=True)
class SampledFunction:
    """Function known at the nodes of a rule; values[i] = f(nodes[i])."""

    rule: QuadratureRule
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.values) != len(self.rule):
            raise DomainError("values must match rule length")


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


def panel_rule(
    lo: float, hi: float, nodes_per_unit: float, order_per_panel: int = 16
) -> QuadratureRule:
    """Composite Gauss-Legendre rule with roughly nodes_per_unit density."""
    if hi <= lo:
        raise DomainError(f"degenerate interval ({lo}, {hi})")
    total = max(order_per_panel, int(math.ceil((hi - lo) * nodes_per_unit)))
    npan = max(1, int(math.ceil(total / order_per_panel)))
    x, w = _gl_nodes(order_per_panel)
    edges = np.linspace(lo, hi, npan + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + halves[:, None] * x[None, :]).ravel()
    weights = (halves[:, None] * w[None, :]).ravel()
    return QuadratureRule((float(lo), float(hi)), nodes, weights)


def set_rule(subset: IntervalSet, nodes_per_unit: float, order_per_panel: int = 16):
    """Composite rule covering every interval of a set; returns a single
    node/weight pair spanning the union (intervals are disjoint)."""
    if subset.is_empty():
        return np.empty(0), np.empty(0)
    parts = [
        panel_rule(a, b, nodes_per_unit, order_per_panel) for a, b in subset.intervals
    ]
    nodes = np.concatenate([p.nodes for p in parts])
    weights = np.concatenate([p.weights for p in parts])
    return nodes, weights


def weighted_set_rule(subset: IntervalSet, nodes_per_unit: float, beta: float):
    """set_rule for the weight x^beta, beta > -1: nodes and weights w with
    sum w f(x) ~ the integral of f(x) x^beta over the subset.  A panel that
    starts at 0 takes the Gauss-Jacobi rule of the weight, so the rule keeps
    the Gauss-Legendre rate for smooth f even where x^beta is not smooth;
    every other panel folds x^beta into its Gauss-Legendre weights."""
    order = 16  # nodes per panel
    nodes, weights = set_rule(subset, nodes_per_unit, order)
    weights = weights * nodes**beta
    if subset.intervals and subset.inf() == 0.0:
        # the first panel is [0, 2 half]; its Gauss-Legendre nodes are symmetric
        half = 0.5 * (nodes[0] + nodes[order - 1])
        t, w = _gj_nodes(order, float(beta))
        nodes[:order] = half * (t + 1.0)
        weights[:order] = w * half ** (beta + 1.0)
    return nodes, weights


def default_transform_nodes(x_max: float, y_max: float) -> int:
    """Node-count heuristic for the oscillatory transform kernel: the phase
    2 pi x y completes ~x_max*y_max cycles, so 4 per cycle plus headroom."""
    return int(math.ceil(4.0 * x_max * y_max)) + 32
