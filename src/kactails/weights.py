"""Recursive collision weights beta_{j,n} and their alpha-sums.

Growth rule: beta_{1,1} = 1; the step from n to n+1 picks a uniform index
I and replaces beta_I by the pair (L*beta_I, R*beta_I).  grow_weights_batch
applies it to a whole forest at once, one step index at a time, in a
slot-major layout (slot_offsets): row k holds slot k of every tree still
growing at step k, so a step writes its new right children as one
contiguous row.  Callers take the sums M_n(alpha) = sum_j beta_{j,n}^alpha
by adding the rows into per-tree sums (processes.alpha_sums).

Stream order: a batch takes every index uniform first, as one call for
all of them would, and then the kernel pairs step by step, only for the
trees still growing at that step.  A kernel's draws concatenate (see
CollisionKernel.sample), so this is the stream one call for all pairs
would consume.  The index uniforms come step by step from a twin of the
generator, while the generator itself jumps past them (PCG64 `advance`),
so the batch holds one leaf-length array, the weights, and no more.

The mean normalization m_n(alpha) = Gamma(n+Q(a)) / (Gamma(n) Gamma(Q(a)+1))
is evaluated through its multiplicative recurrence
m_{n+1} = m_n (1 + Q(a)/n) in log space; Gamma ratios overflow for large n
and fractional exponents.  M~_n(alpha) = M_n(alpha)/m_n(alpha) has mean 1
for every n.
"""

from __future__ import annotations

import copy
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


def slot_offsets(sizes):
    """off[r], the first leaf of slot row r in the slot-major layout of a
    forest whose tree sizes are sorted largest first, for r = 0..max(sizes).

    Row r holds slot r of every tree with more than r leaves; those trees
    are a prefix of the sorted order, so slot r of tree j lives at
    flat[off[r] + j], row r is flat[off[r]:off[r + 1]], and off[-1] is the
    leaf total.
    """
    counts = np.bincount(sizes)
    off = np.zeros(counts.size, dtype=np.int64)
    # the width of row r is the number of trees of more than r leaves
    np.cumsum(np.cumsum(counts[:0:-1])[::-1], out=off[1:])
    return off


def grow_weights_batch(kernel, sizes, rng):
    """Grow many independent weight arrays at once.

    Returns (flat, sorted_sizes, order): trees are processed largest first
    (stable), so the trees still growing at each step are a prefix;
    sorted tree j has sorted_sizes[j] leaves, and order[j] is the caller's
    index of that tree.  The layout is slot-major (slot_offsets): slot r
    of sorted tree j lives at flat[off[r] + j], so each step writes its
    new leaves as one contiguous row.  Per-tree statistics computed on the
    sorted layout must be scattered back through `order`.

    The rng gives the index uniforms of all steps, then step k's kernel
    pairs for its `a` growing trees, in sorted-tree order, step after
    step.  The uniforms are read step by step from a twin of rng made at
    entry, and rng advances past them at once, keeping its buffered
    32-bit half; rng ends in the state that drawing them in one call
    would leave.  Advancing by one step per double holds for PCG64 and
    PCG64DXSM only, so any other bit generator raises TypeError.  Beyond
    `flat`, a step holds only arrays of length a.
    """
    bits = rng.bit_generator
    if not isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM)):
        raise TypeError(f"grow_weights_batch needs a PCG64 or PCG64DXSM generator, "
                        f"not {type(bits).__name__}")
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size == 0:
        return np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if sizes.min() < 1:
        raise ValueError("every tree size must be >= 1")
    order = np.argsort(-sizes, kind="stable")
    s_sorted = sizes[order]
    total = int(s_sorted.sum())
    flat = leaf_array(total)
    flat[:s_sorted.size] = 1.0
    n_max = int(s_sorted[0])
    if n_max == 1:
        return flat, s_sorted, order

    off = slot_offsets(s_sorted)
    rows = off.tolist()
    twin = copy.deepcopy(rng)
    state = bits.state
    bits.advance(total - s_sorted.size)
    after = bits.state
    after["has_uint32"], after["uinteger"] = state["has_uint32"], state["uinteger"]
    bits.state = after
    u_step = np.empty(rows[2] - rows[1])
    tree = np.arange(u_step.size)
    for k in range(1, n_max):
        a = rows[k + 1] - rows[k]
        u = twin.random(out=u_step[:a])
        lk, rk = kernel.sample(rng, a)
        u *= k
        idx = u.astype(np.int64)
        np.minimum(idx, k - 1, out=idx)
        pos = off[idx]
        pos += tree[:a]
        old = flat[pos]
        np.multiply(old, rk, out=flat[rows[k]:rows[k + 1]])
        old *= lk
        flat[pos] = old
    return flat, s_sorted, order


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
