"""Fourier-Bessel (Hankel) transform of order alpha on the half-line.

F(y) = integral of f(x) j_alpha(2 pi x y) d mu_alpha(x).  The kernel is
self-reciprocal, so the inverse is the same sum.  Both act on bare nodes and
mu_alpha weights from `quadrature.mu_rule`: `kernel_apply` gives the kernel
sums at output nodes, for one order or a whole ladder alpha + k, and
`round_trip` gives a transform and its inverse from one pass over the kernel.
"""

from __future__ import annotations

import numpy as np

from .bessel import Order, eval_j_ladder

# Kernel sums run in row blocks to bound peak memory.  A single-order block
# holds at most _CHUNK kernel entries.  An order-ladder block counts its
# entries across all k_max + 2 planes (the argument and k_max + 1 orders)
# against the smaller _LADDER_CHUNK, which keeps the recurrence's work
# arrays in cache and the ladder's peak memory near a single-order block's.
_CHUNK = 2_000_000
_LADDER_CHUNK = 131_072


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
