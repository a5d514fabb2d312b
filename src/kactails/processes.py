"""Branching-representation samplers for the solution and max processes.

At time t the leaf count nu_t is geometric, P{nu_t = n} = e^-t (1-e^-t)^(n-1).
Conditioned on nu_t = n the weights grow to exactly n leaves and each leaf
receives an i.i.d. initial draw X_j, which is valid because the weights,
the leaf count and the X's are mutually independent.  forest_statistics
grows the forest; a reducer, reduce(flat, starts, rng), turns each grown
tree into per-path values, working through the forest in blocks of whole
trees: law_sums gives, from one shared set of per-leaf products,

    V_t = sum_j beta_j X_j      and      H_t = max_j |beta_j X_j|,

so tail-ratio estimates of the pair use common random numbers, and
alpha_sums gives M_nu(alpha) = sum_j beta_j^alpha and max_j beta_j.

Stream order, per sub-batch: the Yule counts, the growth (grow_weights_batch),
then the reducer's draws.  A reducer that draws nothing (alpha_sums) leaves
the stream where growth left it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .weights import grow_weights_batch

# Expected leaf total per forest_statistics sub-batch (it fixes the order
# in which the rng stream is consumed; see forest_statistics).
_LEAF_BUDGET = 1 << 23

# Leaves per block of whole trees in which the reducers draw and reduce:
# 1 MB of float64, which stays in L2 between the draw and the reductions,
# like deviations._ROW_BUDGET.  A tree longer than a block is a block of
# its own.  A law whose draws concatenate (SymmetricPareto) gives the same
# values at any block size; AsymmetricPareto, which draws all of a call's
# sign uniforms first, gives other draws of the same law.
_TREE_BLOCK = 1 << 17

# Largest t at which every leaf count fits in int64.  The largest inverse-
# transform draw is log(2^-53) / log1p(-e^-t), about 36.74 e^t leaves:
# 8.6e18 < 2^63 at t = 40, past 2^63 beyond t ~ 40.06.  (e^-t itself
# underflows to 0 beyond t ~ 745.)
YULE_T_MAX = 40.0


class ForestSample(NamedTuple):
    """Leaf counts nu and the reducer's per-path arrays, aligned by path."""

    nu: np.ndarray
    stats: tuple


def sample_yule(t, rng, size):
    """`size` leaf counts at time t: geometric on {1, 2, ...} with p = e^-t.

    Inverse transform: n = ceil(log(1-u) / log(1-p)).  Raises ValueError
    unless 0 <= t <= YULE_T_MAX: beyond it the cast to int64 overflows,
    and beyond t ~ 745 p underflows to 0, where the transform returns 1.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if not t <= YULE_T_MAX:
        raise ValueError(f"leaf counts at t = {t!r} are not representable: they overflow "
                         f"int64 beyond t = {YULE_T_MAX:g}, and e^-t underflows to 0 "
                         "beyond t ~ 745")
    p = math.exp(-t)
    if p >= 1.0:
        return np.ones(int(size), dtype=np.int64)
    n = np.ceil(np.log1p(-rng.random(int(size))) / math.log1p(-p)).astype(np.int64)
    np.maximum(n, 1, out=n)
    return n


def _tree_blocks(flat, starts):
    """Blocks of whole consecutive trees, each of at most _TREE_BLOCK
    leaves or one tree longer than that: (trees, leaves, seg, scratch)
    per block, the slice of its trees, the view of their leaves in flat,
    their starts counted from the block's first leaf, and a scratch view
    of the block's length.  All blocks share one scratch buffer, so a
    caller finishes a block before taking the next."""
    ends = np.append(starts[1:], flat.size)
    # trees are sorted largest first, so no block is longer than
    # _TREE_BLOCK or the first tree
    scratch = np.empty(min(flat.size, max(_TREE_BLOCK, int(ends[0]))))
    j0 = 0
    while j0 < starts.size:
        lo = int(starts[j0])
        j1 = max(int(np.searchsorted(ends, lo + _TREE_BLOCK, side="right")), j0 + 1)
        hi = int(ends[j1 - 1])
        yield slice(j0, j1), flat[lo:hi], starts[j0:j1] - lo, scratch[:hi - lo]
        j0 = j1


def law_sums(law):
    """Reducer to (V, H) from one law draw per leaf, drawn block by block
    of whole trees (_tree_blocks)."""
    def reduce(flat, starts, rng):
        v, h = np.empty(starts.size), np.empty(starts.size)
        for trees, leaves, seg, prod in _tree_blocks(flat, starts):
            law.sample(rng, prod.size, out=prod)
            prod *= leaves
            np.add.reduceat(prod, seg, out=v[trees])
            np.abs(prod, out=prod)
            np.maximum.reduceat(prod, seg, out=h[trees])
        return v, h
    return reduce


def alpha_sums(alpha):
    """Reducer to (M_nu(alpha), beta_max), block by block of whole trees
    as law_sums; it draws nothing."""
    alpha = float(alpha)

    def reduce(flat, starts, rng):
        m = np.empty(starts.size)
        for trees, leaves, seg, w in _tree_blocks(flat, starts):
            np.copyto(w, leaves)
            w **= alpha
            np.add.reduceat(w, seg, out=m[trees])
        return m, np.maximum.reduceat(flat, starts)
    return reduce


def forest_statistics(kernel, t, n_paths, rng, reduce) -> ForestSample:
    """Sample n_paths >= 1 independent paths at time t, vectorized.

    Paths are drawn in sub-batches of at most 2^16, sized so the expected
    leaf total per batch stays near _LEAF_BUDGET; the batch size fixes the
    order in which the rng stream is consumed, so changing _LEAF_BUDGET
    changes every result for a given stream.  Each sub-batch calls
    reduce(flat, starts, rng) once on its grown forest (the layout of
    grow_weights_batch) and scatters the returned per-sorted-tree arrays
    through `order`.  A sub-batch allocates one leaf-length array
    (weights.leaf_array), the weights, and no more: the reducers work in
    blocks of whole trees of about _TREE_BLOCK leaves.
    """
    n_paths = int(n_paths)
    nu_out = np.empty(n_paths, dtype=np.int64)
    cols = ()
    batch = int(min(max(_LEAF_BUDGET / math.exp(t), 32), 1 << 16))
    done = 0
    while done < n_paths:
        m = min(batch, n_paths - done)
        nu = sample_yule(t, rng, m)
        flat, starts, order = grow_weights_batch(kernel, nu, rng)
        sl = slice(done, done + m)
        nu_out[sl] = nu
        per_tree = reduce(flat, starts, rng)
        cols = cols or tuple(np.empty(n_paths, c.dtype) for c in per_tree)
        for col, c in zip(cols, per_tree):
            col[sl][order] = c
        done += m
    return ForestSample(nu_out, cols)
