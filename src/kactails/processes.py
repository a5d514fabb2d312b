"""Branching-representation samplers for the solution and max processes.

At time t the leaf count nu_t is geometric, P{nu_t = n} = e^-t (1-e^-t)^(n-1).
Conditioned on nu_t = n the weights grow to exactly n leaves and each leaf
receives an i.i.d. initial draw X_j, which is valid because the weights,
the leaf count and the X's are mutually independent.  forest_statistics
grows the forest; a reducer, reduce(flat, sizes, rng), turns each grown
tree into per-path values.  The weights are slot-major (see
weights.grow_weights_batch): row r holds slot r of every tree with more
than r leaves, so a reducer works through the forest in blocks of whole
rows and adds each row into, or maxes it into, the values of the trees
it spans.  law_sums gives, from one shared set of per-leaf products,

    V_t = sum_j beta_j X_j      and      H_t = max_j |beta_j X_j|,

so tail-ratio estimates of the pair use common random numbers, and
alpha_sums gives M_nu(alpha) = sum_j beta_j^alpha and max_j beta_j.

Stream order, per sub-batch: the Yule counts, the growth (grow_weights_batch),
then the reducer's draws.  A reducer that draws nothing (alpha_sums) leaves
the stream where growth left it.
"""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple

import numpy as np

from .weights import grow_weights_batch, slot_offsets

# Expected leaf total per forest_statistics sub-batch (it fixes the order
# in which the rng stream is consumed; see forest_statistics).
_LEAF_BUDGET = 1 << 23

# Leaves per block of whole slot rows in which the reducers draw and
# reduce: 1 MB of float64, which stays in L2 between the draw and the
# reductions, like deviations._ROW_BUDGET.  A row longer than a block is a
# block of its own.  Each tree's sum runs over its rows in slot order
# whatever the blocks, so a law whose draws concatenate (SymmetricPareto)
# gives the same values at any block size; AsymmetricPareto, which draws
# all of a call's sign uniforms first, gives other draws of the same law.
_ROW_BLOCK = 1 << 17

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


def _row_blocks(flat, sizes):
    """Blocks of whole consecutive slot rows (weights.slot_offsets), each
    of at most _ROW_BLOCK leaves or one row longer than that: (leaves,
    rows, scratch) per block, the view of its leaves in flat, the (start,
    end) of each of its rows counted from the block's first leaf, and a
    scratch view of the block's length.  All blocks share one scratch
    buffer, so a caller finishes a block before taking the next."""
    off = slot_offsets(sizes).tolist()
    # rows narrow from the first on, so no block is longer than
    # _ROW_BLOCK or the first row
    scratch = np.empty(min(flat.size, max(_ROW_BLOCK, off[1])))
    r0 = 0
    while r0 < len(off) - 1:
        lo = off[r0]
        r1 = max(bisect.bisect_right(off, lo + _ROW_BLOCK) - 1, r0 + 1)
        hi = off[r1]
        rows = [(off[r] - lo, off[r + 1] - lo) for r in range(r0, r1)]
        yield flat[lo:hi], rows, scratch[:hi - lo]
        r0 = r1


def law_sums(law):
    """Reducer to (V, H) from one law draw per leaf, drawn block by block
    of whole slot rows (_row_blocks): each row adds into V and maxes into
    H for the trees it spans."""
    def reduce(flat, sizes, rng):
        v, h = np.zeros(sizes.size), np.zeros(sizes.size)
        for leaves, rows, prod in _row_blocks(flat, sizes):
            law.sample(rng, prod.size, out=prod)
            prod *= leaves
            for lo, hi in rows:
                np.add(v[:hi - lo], prod[lo:hi], out=v[:hi - lo])
            np.abs(prod, out=prod)
            for lo, hi in rows:
                np.maximum(h[:hi - lo], prod[lo:hi], out=h[:hi - lo])
        return v, h
    return reduce


def alpha_sums(alpha):
    """Reducer to (M_nu(alpha), beta_max), block by block of whole slot
    rows as law_sums; it draws nothing."""
    alpha = float(alpha)

    def reduce(flat, sizes, rng):
        m, beta_max = np.zeros(sizes.size), np.zeros(sizes.size)
        for leaves, rows, w in _row_blocks(flat, sizes):
            np.power(leaves, alpha, out=w)
            for lo, hi in rows:
                np.add(m[:hi - lo], w[lo:hi], out=m[:hi - lo])
                np.maximum(beta_max[:hi - lo], leaves[lo:hi], out=beta_max[:hi - lo])
        return m, beta_max
    return reduce


def forest_statistics(kernel, t, n_paths, rng, reduce) -> ForestSample:
    """Sample n_paths >= 1 independent paths at time t, vectorized.

    Paths are drawn in sub-batches of at most 2^16, sized so the expected
    leaf total per batch stays near _LEAF_BUDGET; the batch size fixes the
    order in which the rng stream is consumed, so changing _LEAF_BUDGET
    changes every result for a given stream.  Each sub-batch calls
    reduce(flat, sizes, rng) once on its grown forest (the slot-major
    layout of grow_weights_batch and the sizes of its sorted trees) and
    scatters the returned per-sorted-tree arrays through `order`.  A
    sub-batch allocates one leaf-length array (weights.leaf_array), the
    weights, and no more: the reducers work in blocks of whole slot rows
    of about _ROW_BLOCK leaves.  A leaf array that cannot be mapped
    raises MemoryError naming t, the sub-batch's leaf count and its bytes.
    """
    n_paths = int(n_paths)
    nu_out = np.empty(n_paths, dtype=np.int64)
    cols = ()
    batch = int(min(max(_LEAF_BUDGET / math.exp(t), 32), 1 << 16))
    done = 0
    while done < n_paths:
        m = min(batch, n_paths - done)
        nu = sample_yule(t, rng, m)
        try:
            flat, sizes, order = grow_weights_batch(kernel, nu, rng)
        except (OSError, OverflowError) as exc:
            # mmap raises OverflowError for lengths past 2^63 - 1 bytes, and
            # the int64 leaf total itself can wrap there (t near YULE_T_MAX)
            leaves = sum(nu.tolist())
            raise MemoryError(f"cannot map the leaf array of a sub-batch at t = {t:g}: "
                              f"{leaves} leaves, {8 * leaves} bytes ({exc})") from exc
        sl = slice(done, done + m)
        nu_out[sl] = nu
        per_tree = reduce(flat, sizes, rng)
        cols = cols or tuple(np.empty(n_paths, c.dtype) for c in per_tree)
        for col, c in zip(cols, per_tree):
            col[sl][order] = c
        done += m
    return ForestSample(nu_out, cols)
