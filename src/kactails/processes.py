"""Branching-representation samplers for the solution and max processes.

At time t the leaf count nu_t is geometric, P{nu_t = n} = e^-t (1-e^-t)^(n-1).
Conditioned on nu_t = n the weights grow to exactly n leaves and each leaf
receives an i.i.d. initial draw X_j, which is valid because the weights,
the leaf count and the X's are mutually independent.  From one shared set
of per-leaf products the samplers report

    V_t = sum_j beta_j X_j      and      H_t = max_j |beta_j X_j|,

so tail-ratio estimates of the pair use common random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import grow_weights_batch

# Expected leaf total per forest_statistics sub-batch (it fixes the order
# in which the rng stream is consumed; see forest_statistics).
_LEAF_BUDGET = 1 << 23

# Largest t at which every leaf count fits in int64.  The largest inverse-
# transform draw is log(2^-53) / log1p(-e^-t), about 36.74 e^t leaves:
# 8.6e18 < 2^63 at t = 40, past 2^63 beyond t ~ 40.06.  (e^-t itself
# underflows to 0 beyond t ~ 745.)
YULE_T_MAX = 40.0


@dataclass
class ForestSample:
    """Vectorized path statistics; arrays are aligned by path index.

    nu is always filled.  A call with a law fills V and H and leaves M and
    beta_max None; a call without one fills M (the alpha-sums M_nu(alpha)
    for its one alpha) and beta_max and leaves V and H None.
    """

    t: float
    nu: np.ndarray
    M: np.ndarray | None = None
    beta_max: np.ndarray | None = None
    V: np.ndarray | None = None
    H: np.ndarray | None = None


def sample_yule(t, rng, size=None):
    """Leaf count at time t: geometric on {1, 2, ...} with p = e^-t.

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
    scalar = size is None
    m = 1 if scalar else int(size)
    if p >= 1.0:
        n = np.ones(m, dtype=np.int64)
    else:
        u = rng.random(m)
        n = np.ceil(np.log1p(-u) / math.log1p(-p)).astype(np.int64)
        np.maximum(n, 1, out=n)
    return int(n[0]) if scalar else n


def forest_statistics(kernel, t, n_paths, rng, law=None, alpha=None) -> ForestSample:
    """Sample n_paths independent paths at time t, vectorized.

    Returns nu and, with a law, V and H from shared per-leaf products
    beta_j X_j; without one, M(alpha) and beta_max.  alpha is read only
    when no law is given.  Paths are drawn in sub-batches of at most
    2^16, sized so the expected leaf total per batch stays near
    _LEAF_BUDGET.  Each sub-batch draws its Yule counts, kernel pairs and
    initial values in turn, so the batch size fixes the order in which
    the rng stream is consumed: changing _LEAF_BUDGET changes every
    result for a given stream.
    """
    n_paths = int(n_paths)
    nu_out = np.empty(n_paths, dtype=np.int64)
    if law is None:
        if alpha is None:
            raise ValueError("forest_statistics needs a law or an alpha")
        alpha = float(alpha)
        m_out = np.empty(n_paths)
        bmax_out = np.empty(n_paths)
    else:
        v_out = np.empty(n_paths)
        h_out = np.empty(n_paths)

    batch = int(min(max(_LEAF_BUDGET / math.exp(t), 32), 1 << 16))
    done = 0
    while done < n_paths:
        m = min(batch, n_paths - done)
        nu = sample_yule(t, rng, m)
        flat, starts, order = grow_weights_batch(kernel, nu, rng)
        sl = slice(done, done + m)
        nu_out[sl] = nu
        if law is None:
            m_out[sl][order] = np.add.reduceat(flat ** alpha, starts)
            bmax_out[sl][order] = np.maximum.reduceat(flat, starts)
        else:
            prod = law.sample(rng, flat.size)
            prod *= flat
            v_out[sl][order] = np.add.reduceat(prod, starts)
            np.abs(prod, out=prod)
            h_out[sl][order] = np.maximum.reduceat(prod, starts)
        done += m
    if law is None:
        return ForestSample(t=float(t), nu=nu_out, M=m_out, beta_max=bmax_out)
    return ForestSample(t=float(t), nu=nu_out, V=v_out, H=h_out)
