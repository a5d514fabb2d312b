"""Recursive collision weights beta_{j,n} and their alpha-sums.

Growth rule: beta_{1,1} = 1; the step from n to n+1 picks a uniform index
I and replaces beta_I by the pair (L*beta_I, R*beta_I).  grow_weights_batch
applies it to a whole forest at once, one step index at a time; callers
take the sums M_n(alpha) = sum_j beta_{j,n}^alpha from the grown weights
with a segmented reduction over its layout.

The mean normalization m_n(alpha) = Gamma(n+Q(a)) / (Gamma(n) Gamma(Q(a)+1))
is evaluated through its multiplicative recurrence
m_{n+1} = m_n (1 + Q(a)/n) in log space; Gamma ratios overflow for large n
and fractional exponents.  M~_n(alpha) = M_n(alpha)/m_n(alpha) has mean 1
for every n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WeightNorm:
    S_alpha: float
    n: int
    m: float
    log_m: float


def grow_weights_batch(kernel, sizes, rng):
    """Grow many independent weight arrays at once.

    Returns (flat, starts, order): the weights of sorted tree j live in
    flat[starts[j] : starts[j] + sorted_sizes[j]], and order[j] is the
    caller's index of that tree (trees are processed largest first so the
    active set at each step is a prefix).  Per-tree statistics computed on
    the sorted layout must be scattered back through `order`.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size == 0:
        return np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if sizes.min() < 1:
        raise ValueError("every tree size must be >= 1")
    order = np.argsort(-sizes, kind="stable")
    s_sorted = sizes[order]
    starts = np.zeros(s_sorted.size, dtype=np.int64)
    np.cumsum(s_sorted[:-1], out=starts[1:])
    total = int(s_sorted.sum())
    flat = np.zeros(total)
    flat[starts] = 1.0
    n_max = int(s_sorted[0])
    if n_max == 1:
        return flat, starts, order

    counts = np.bincount(s_sorted, minlength=n_max + 2)
    ge = np.cumsum(counts[::-1])[::-1]  # ge[v] = number of trees with size >= v
    n_draws = total - s_sorted.size
    u_all = rng.random(n_draws)
    l_all, r_all = kernel.sample(rng, n_draws)
    ptr = 0
    for k in range(1, n_max):
        a = int(ge[k + 1])
        if a == 0:
            break
        u = u_all[ptr:ptr + a]
        lk = l_all[ptr:ptr + a]
        rk = r_all[ptr:ptr + a]
        ptr += a
        idx = np.minimum((u * k).astype(np.int64), k - 1)
        pos = starts[:a] + idx
        old = flat[pos]
        flat[pos] = old * lk
        flat[starts[:a] + k] = old * rk
    return flat, starts, order


def mean_weight_norm(S_alpha, n) -> WeightNorm:
    """m_n(alpha) via the log-space recurrence, exact to ~1e-13 relative.

    Valid for S_alpha > -1 (Gamma(S+1) finite and positive).  The sum of
    log1p terms is accumulated with math.fsum so the n = 1e7 contract on
    log_m holds.
    """
    if S_alpha <= -1.0:
        raise ValueError("mean weight norm needs S_alpha > -1")
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1 or S_alpha == 0.0:
        return WeightNorm(S_alpha=S_alpha, n=n, m=1.0, log_m=0.0)
    log_m = math.fsum(np.log1p(S_alpha / np.arange(1, n, dtype=float)))
    return WeightNorm(S_alpha=S_alpha, n=n, m=math.exp(log_m), log_m=log_m)
