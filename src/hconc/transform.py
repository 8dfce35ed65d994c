"""Fourier-Bessel (Hankel) transform of order alpha on the half-line.

F(y) = integral of f(x) j_alpha(2 pi x y) d mu_alpha(x).  The kernel is
self-reciprocal, so the inverse is the same sum.  Both act on bare nodes and
mu_alpha weights from `quadrature.mu_rule`: `kernel_apply` gives the kernel
sums at output nodes, for one order or a whole ladder alpha + k, and
`round_trip` gives a transform and its inverse from one pass over the kernel.
Both take several coefficient sets at once (one per function on the same
nodes): every kernel block is evaluated once and applied to each set by its
own matrix-vector product, so a set's result does not depend on the others.
`_kernel_sums` serves `kernel_apply` and the good-bad window plan, over the
(block, kern) pairs `_kernel_blocks` streams or the plan holds; `round_trip`
makes one forward-and-back pass per block itself.  No cache is held here.
"""

from __future__ import annotations

import numpy as np

from .bessel import Order, eval_j_ladder

# Kernel sums run in row blocks sized to stay in cache: the arguments, the
# kernel values and the matrix-vector products of a block reuse the same
# few hundred KB instead of streaming a whole kernel from memory.  A block
# counts its entries across all k_max + 2 planes (the argument and k_max + 1
# orders) against _LADDER_CHUNK, which also keeps the recurrence's work
# arrays in cache; a single-order block holds 65,536 kernel entries.  How
# many coefficient sets share one pass is a separate budget, _SET_ENTRIES,
# of entries in the sets' own arrays.
_LADDER_CHUNK = 131_072
_SET_ENTRIES = 2_000_000


def max_sets(width: int) -> int:
    """How many coefficient sets of `width` entries (or results of that
    many output nodes) fit the _SET_ENTRIES of one batch."""
    return max(1, _SET_ENTRIES // max(1, width))


def _block_rows(k_max: int, width: int) -> int:
    """Output nodes per row block of a ladder of k_max + 1 orders against
    `width` nodes, so that the block fits _LADDER_CHUNK."""
    return max(1, _LADDER_CHUNK // (k_max + 2) // max(1, width))


def _kernel_blocks(order: Order, k_max: int, out_nodes: np.ndarray, nodes):
    """Row blocks (block, kern) of the kernel ladder j_{alpha+k}(2 pi y x),
    y = out_nodes[block], x in nodes, kern of shape (k_max+1, rows, len(nodes))."""
    rows = _block_rows(k_max, len(nodes))
    for start in range(0, len(out_nodes), rows):
        block = slice(start, start + rows)
        args = np.outer(out_nodes[block], nodes)
        args *= 2.0 * np.pi
        yield block, eval_j_ladder(order, k_max, args)


def _kernel_sums(blocks, n_out: int, coeffs) -> np.ndarray:
    """The sums of `kernel_apply` at n_out output nodes over the (block,
    kern) pairs of `blocks`, kern of shape (k_max+1, rows, n): one
    matrix-vector product per block, order and coefficient set, all of a
    block from one stacked `np.matmul`, which hands each to BLAS gemv as
    `kern[k] @ c` does."""
    coeffs = np.asarray(coeffs, dtype=float)
    # (n,) and (k_max+1, n) hold one set per order
    sets = coeffs if coeffs.ndim == 3 else coeffs.reshape(-1, 1, coeffs.shape[-1])
    sets = np.ascontiguousarray(sets)
    out = np.empty(sets.shape[:2] + (n_out,))
    for block, kern in blocks:
        out[:, :, block] = np.matmul(kern[:, None], sets[..., None])[..., 0]
    return out.reshape(coeffs.shape[:-1] + (n_out,))


def kernel_apply(order: Order, out_nodes, nodes, coeffs) -> np.ndarray:
    """Kernel sums sum_i coeffs[k, i] j_{alpha+k}(2 pi y nodes_i) at each
    output node y, one row per order k = 0..len(coeffs)-1, all orders of a
    block from one `eval_j_ladder` call.  A 1-D `coeffs` is the single order
    alpha and gives a 1-D result.  A 3-D `coeffs` of shape (k_max+1, m, n)
    holds m coefficient sets per order and gives shape (k_max+1, m, len(y))."""
    y = np.atleast_1d(np.asarray(out_nodes, dtype=float))
    k_max = len(coeffs) - 1 if np.ndim(coeffs) > 1 else 0
    return _kernel_sums(_kernel_blocks(order, k_max, y, nodes), len(y), coeffs)


def round_trip(order: Order, nodes, coeffs, out_nodes, out_weights):
    """(F, back): the kernel sums F(y) = sum_i coeffs_i j_alpha(2 pi y x_i)
    at y in out_nodes, as `kernel_apply`, and the sums back(x_i) =
    sum_m out_weights_m F(y_m) j_alpha(2 pi y_m x_i) of the inverse
    transform at the nodes, each kernel block evaluated once.  `coeffs` is
    (m, n), one set per row, and F and back hold one row per set."""
    sets = np.ascontiguousarray(coeffs, dtype=float)
    y = np.asarray(out_nodes, dtype=float)
    F = np.empty((len(sets), len(y)))
    back = np.zeros((len(sets), len(nodes)))
    for block, kern in _kernel_blocks(order, 0, y, nodes):
        for j, c in enumerate(sets):
            F[j, block] = kern[0] @ c
            back[j] += (out_weights[block] * F[j, block]) @ kern[0]
    return F, back
