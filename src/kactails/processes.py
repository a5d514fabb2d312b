"""Branching-representation samplers for the solution and max processes.

At time t the leaf count nu_t is geometric, P{nu_t = n} = e^-t (1-e^-t)^(n-1).
Conditioned on nu_t = n the weights grow to exactly n leaves and each leaf
receives an i.i.d. initial draw X_j, which is valid because the weights,
the leaf count and the X's are mutually independent.  forest_statistics
grows the forest; a reducer turns each grown tree into per-path values:
law_sums gives, from one shared set of per-leaf products,

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

from .weights import grow_weights_batch, leaf_array

# Expected leaf total per forest_statistics sub-batch (it fixes the order
# in which the rng stream is consumed; see forest_statistics).
_LEAF_BUDGET = 1 << 23

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


def law_sums(law):
    """Reducer to (V, H) from one law draw per leaf, drawn into `work`."""
    def reduce(flat, starts, work, rng):
        prod = law.sample(rng, flat.size, out=work)
        prod *= flat
        v = np.add.reduceat(prod, starts)
        np.abs(prod, out=prod)
        return v, np.maximum.reduceat(prod, starts)
    return reduce


def alpha_sums(alpha):
    """Reducer to (M_nu(alpha), beta_max); it draws nothing."""
    alpha = float(alpha)

    def reduce(flat, starts, work, rng):
        np.copyto(work, flat)
        work **= alpha
        return np.add.reduceat(work, starts), np.maximum.reduceat(flat, starts)
    return reduce


def forest_statistics(kernel, t, n_paths, rng, reduce) -> ForestSample:
    """Sample n_paths >= 1 independent paths at time t, vectorized.

    Paths are drawn in sub-batches of at most 2^16, sized so the expected
    leaf total per batch stays near _LEAF_BUDGET; the batch size fixes the
    order in which the rng stream is consumed, so changing _LEAF_BUDGET
    changes every result for a given stream.  Each sub-batch calls
    reduce(flat, starts, work, rng) once on its grown forest (the layout
    of grow_weights_batch) and scatters the returned per-sorted-tree
    arrays through `order`.  A sub-batch allocates two leaf-length arrays
    (weights.leaf_array) and no more: the weights, and the scratch `work`,
    which takes the index uniforms while the trees grow and is then the
    reducer's to overwrite.
    """
    n_paths = int(n_paths)
    nu_out = np.empty(n_paths, dtype=np.int64)
    cols = ()
    batch = int(min(max(_LEAF_BUDGET / math.exp(t), 32), 1 << 16))
    done = 0
    while done < n_paths:
        m = min(batch, n_paths - done)
        nu = sample_yule(t, rng, m)
        work = leaf_array(int(nu.sum()))
        flat, starts, order = grow_weights_batch(kernel, nu, rng, scratch=work)
        sl = slice(done, done + m)
        nu_out[sl] = nu
        per_tree = reduce(flat, starts, work, rng)
        cols = cols or tuple(np.empty(n_paths, c.dtype) for c in per_tree)
        for col, c in zip(cols, per_tree):
            col[sl][order] = c
        done += m
    return ForestSample(nu_out, cols)
