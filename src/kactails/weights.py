"""Recursive collision weights beta_{j,n} and their alpha-sums.

Growth rule: beta_{1,1} = 1; the step from n to n+1 picks a uniform index
I and replaces beta_I by the pair (L*beta_I, R*beta_I).  grow_weights_batch
applies it to a whole forest at once, one step index at a time; callers
take the sums M_n(alpha) = sum_j beta_{j,n}^alpha from the grown weights
with a segmented reduction over its layout.

Stream order: a batch draws every index uniform first, in one call, and
then the kernel pairs step by step, only for the trees still growing at
that step.  A kernel's draws concatenate (see CollisionKernel.sample), so
this is the stream one call for all pairs would consume.  The batch holds
two leaf-length arrays at its peak: the weights and the index uniforms,
which a caller can have drawn into a scratch array of its own.

The mean normalization m_n(alpha) = Gamma(n+Q(a)) / (Gamma(n) Gamma(Q(a)+1))
is evaluated through its multiplicative recurrence
m_{n+1} = m_n (1 + Q(a)/n) in log space; Gamma ratios overflow for large n
and fractional exponents.  M~_n(alpha) = M_n(alpha)/m_n(alpha) has mean 1
for every n.
"""

from __future__ import annotations

import math
import mmap

import numpy as np


def leaf_array(n):
    """n >= 1 float64 zeros on private anonymous pages of their own.

    Leaf-length arrays run to tens of MB.  Taken from the heap, how much
    of a freed one stays resident depends on the allocator's thresholds
    and on where small objects landed next to it, so peak memory would
    differ between runs of the same work.  A mapping of its own is
    returned to the OS when the array is released.  It asks for huge
    pages, as NumPy does for its own large buffers; without them the
    first touch of each page costs about twice as much.
    """
    pages = mmap.mmap(-1, 8 * n, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        pages.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(pages, dtype=np.float64)


def grow_weights_batch(kernel, sizes, rng, scratch=None):
    """Grow many independent weight arrays at once.

    Returns (flat, starts, order): the weights of sorted tree j live in
    flat[starts[j] : starts[j] + sorted_sizes[j]], and order[j] is the
    caller's index of that tree (trees are processed largest first so the
    active set at each step is a prefix).  Per-tree statistics computed on
    the sorted layout must be scattered back through `order`.

    The rng gives the index uniforms of all steps, then step k's kernel
    pairs for its `a` growing trees, in sorted-tree order, step after
    step; beyond `flat` and the index uniforms, a step holds only arrays
    of length a.  With `scratch` (a float64 array of at least
    sum(sizes) - len(sizes) elements) the index uniforms are drawn into
    its head, the same values as without it, and no leaf-length array
    but `flat` is allocated.
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
    flat = leaf_array(total)
    flat[starts] = 1.0
    n_max = int(s_sorted[0])
    if n_max == 1:
        return flat, starts, order

    counts = np.bincount(s_sorted)
    ge = np.cumsum(counts[::-1])[::-1]  # ge[v] = number of trees with size >= v
    n_draws = total - s_sorted.size
    if scratch is None:
        scratch = leaf_array(n_draws)
    u_all = rng.random(out=scratch[:n_draws])
    ptr = 0
    for k in range(1, n_max):
        a = int(ge[k + 1])
        u = u_all[ptr:ptr + a]
        ptr += a
        lk, rk = kernel.sample(rng, a)
        idx = np.minimum((u * k).astype(np.int64), k - 1)
        pos = starts[:a] + idx
        old = flat[pos]
        flat[pos] = old * lk
        flat[starts[:a] + k] = old * rk
    return flat, starts, order


def mean_weight_norm(S_alpha, n) -> float:
    """m_n(alpha) via the log-space recurrence, exact to ~1e-13 relative.

    Valid for S_alpha > -1 (Gamma(S+1) finite and positive).  The sum of
    log1p terms is accumulated with math.fsum so log m_n holds to 1e-12
    relative up to n = 1e7.
    """
    if S_alpha <= -1.0:
        raise ValueError("mean weight norm needs S_alpha > -1")
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1 or S_alpha == 0.0:
        return 1.0
    return math.exp(math.fsum(np.log1p(S_alpha / np.arange(1, n, dtype=float))))
