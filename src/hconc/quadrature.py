"""Gauss-Legendre quadrature rules and the mu_alpha measure weights.

Every rule is a pair of arrays (nodes, weights).  `build_rule` gives a
single mapped Gauss-Legendre rule (exact for polynomials up to degree 2n-1
on its interval).

This is the one module that forms mu_alpha quadrature weights: `mu_fold`
folds the density C x^(2 alpha + 1) into given weights, and `mu_panels`
gives nodes and mu_alpha weights of 16-node rules on given panels, with the
Gauss-Jacobi rule of the density on a panel that starts at 0.  `mu_rule`
cuts a set into panels for it (`mu_rules` several sets, in one call); fixed
16-node panels keep node counts proportional to the number of oscillation
periods without the cost of huge single rules.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special

from .bessel import Order
from .errors import DomainError
from .measure import IntervalSet, _check_power_range, mu_density_constant

_PANEL = 16  # nodes per panel of the composite rules
# most nodes of a rule on one interval: 2^24 doubles per array, 128 MB, the
# cap that `measure` puts on the windows of a density profile
_MAX_NODES = 2**24


@lru_cache(maxsize=256)
def _gl_nodes(n: int):
    x, w = special.roots_legendre(n)
    return x, w


@lru_cache(maxsize=64)
def _gj_nodes(n: int, beta: float):
    # Gauss-Jacobi rule of the weight (1 + t)^beta on [-1, 1]
    x, w = special.roots_jacobi(n, 0.0, beta)
    return x, w


def build_rule(lo: float, hi: float, n: int):
    """Nodes and weights of the Gauss-Legendre rule mapped affinely to
    (lo, hi); 2 <= n <= 1e5."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise DomainError(f"degenerate interval ({lo}, {hi})")
    if not (2 <= n <= 10**5):
        raise DomainError(f"node count must be in [2, 1e5], got {n}")
    x, w = _gl_nodes(int(n))
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return mid + half * x, half * w


def _panel_count(lo: float, hi: float, nodes_per_unit: float) -> int:
    """Number of _PANEL-node panels of `mu_rule` on (lo, hi)."""
    total = max(_PANEL, int(math.ceil((hi - lo) * nodes_per_unit)))
    return max(1, int(math.ceil(total / _PANEL)))


def set_rule_size(subset: IntervalSet, nodes_per_unit: float) -> int:
    """Node count of `mu_rule` on the subset, without building the rule."""
    panels = sum(_panel_count(a, b, nodes_per_unit) for a, b in subset.intervals)
    return _PANEL * panels


def mu_fold(order: Order, nodes, weights) -> np.ndarray:
    """Quadrature weights with the mu_alpha density C x^(2 alpha + 1)
    folded in."""
    return weights * mu_density_constant(order) * nodes ** (2.0 * order.alpha + 1.0)


def mu_panels(order: Order, lo, hi):
    """Nodes and mu_alpha weights of _PANEL-node rules on the panels
    [lo_i, hi_i], one row per panel: Gauss-Legendre with the density folded
    in by `mu_fold`, and on a panel that starts at 0 the Gauss-Jacobi rule
    of the weight x^(2 alpha + 1), scaled by the panel's half-width, so the
    rule keeps the Gauss-Legendre rate for smooth integrands also where the
    density is not smooth at 0 (2 alpha + 1 not an integer).  Raises
    DomainError where max(hi)^(2 alpha + 2), which the weights of the top
    panel approach, leaves the range of a double."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    beta = 2.0 * order.alpha + 1.0
    _check_power_range(order, float(np.max(hi, initial=0.0)), beta + 1.0)
    x, w = _gl_nodes(_PANEL)
    mid = 0.5 * (hi + lo)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    nodes = mid + half * x
    weights = mu_fold(order, nodes, half * w)
    origin = lo == 0.0
    if np.any(origin):
        t, wj = _gj_nodes(_PANEL, beta)
        half = half[origin]
        nodes[origin] = half * (t + 1.0)
        weights[origin] = mu_density_constant(order) * (wj * half ** (beta + 1.0))
    return nodes, weights


def _panel_edges(subset: IntervalSet, nodes_per_unit: float):
    """Starts and ends of the panels of `mu_rule` on a non-empty subset:
    each interval cut into `_panel_count` equal panels.  Raises DomainError
    where an interval would take more than _MAX_NODES nodes."""
    edges = []
    for a, b in subset.intervals:
        count = _panel_count(a, b, nodes_per_unit)
        if _PANEL * count > _MAX_NODES:
            raise DomainError(
                f"mu_alpha rule of {_PANEL * count:.3g} nodes on [{a:g}, {b:g}] "
                f"exceeds the cap of {_MAX_NODES} nodes on one interval"
            )
        edges.append(np.linspace(a, b, count + 1))
    lo = np.concatenate([e[:-1] for e in edges])
    return lo, np.concatenate([e[1:] for e in edges])


def mu_rules(order: Order, parts):
    """The (nodes, weights) of `mu_rule` on each (non-empty subset,
    nodes_per_unit) of `parts`, from one `mu_panels` call on the panels of
    all of them.  Each panel's rule depends on that panel alone, so every
    result is the bits of its own `mu_rule` call."""
    lo, hi = zip(*(_panel_edges(subset, per_unit) for subset, per_unit in parts))
    nodes, weights = mu_panels(order, np.concatenate(lo), np.concatenate(hi))
    cuts = np.cumsum([len(x) for x in lo[:-1]])
    return [
        (n.ravel(), w.ravel())
        for n, w in zip(np.split(nodes, cuts), np.split(weights, cuts))
    ]


def mu_rule(order: Order, subset: IntervalSet, nodes_per_unit: float):
    """Nodes on the subset and their mu_alpha quadrature weights: each
    interval is cut into `_panel_count` equal panels, about nodes_per_unit
    nodes per unit length, which take the rules of `mu_panels`."""
    if subset.is_empty():
        return np.empty(0), np.empty(0)
    [rule] = mu_rules(order, [(subset, nodes_per_unit)])
    return rule
