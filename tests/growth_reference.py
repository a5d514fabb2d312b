"""Per-tree references for the batch weight grower.

grow_tree is an independent grower: one tree, its own draws, the growth
rule written out leaf by leaf.  replay_batch makes the draws that
grow_weights_batch makes, feeds them to the same rule one tree at a time
and lays the trees out as the batch does, so its output must equal the
batch output bit for bit.  tree_major undoes that layout for references
that reduce tree by tree.  None of them uses kactails.

The batch layout is slot-major: the trees are sorted largest first
(stable), row r holds slot r of every tree with more than r leaves, and
slot r of sorted tree j lives at off[r] + j, where off[r] is the leaf
count of the rows before r.
"""

import numpy as np


def grow_tree(kernel, n, rng):
    """Weights of one tree grown to n leaves: step k picks a uniform index
    i among the k leaves and replaces beta_i by (L beta_i, R beta_i)."""
    betas = np.zeros(n)
    betas[0] = 1.0
    for k in range(1, n):
        i = int(rng.integers(0, k))
        (L,), (R,) = kernel.sample(rng, 1)
        betas[i], betas[k] = betas[i] * L, betas[i] * R
    return betas


def _row_offsets(sorted_sizes):
    """off[r] for r = 0..max: the widths of the rows, summed."""
    s = np.asarray(sorted_sizes)
    widths = [int((s > r).sum()) for r in range(int(s.max()))]
    return np.concatenate(([0], np.cumsum(widths))).astype(np.int64)


def tree_major(flat, sorted_sizes):
    """(values, starts): the slot-major `flat` rearranged tree after tree,
    so sorted tree j's slots are values[starts[j] : starts[j] + n_j] in
    slot order, ready for ufunc.reduceat(values, starts)."""
    off = _row_offsets(sorted_sizes)
    idx = np.concatenate([off[:n] + j for j, n in enumerate(sorted_sizes)])
    starts = np.concatenate(([0], np.cumsum(sorted_sizes)[:-1])).astype(np.int64)
    return flat[idx], starts


def replay_batch(kernel, sizes, rng):
    """(flat, order) as grow_weights_batch(kernel, sizes, rng) returns them.

    The batch sorts the trees by size, largest first (stable).  Step k
    draws a uniforms and then a kernel pairs, where a is the number of
    trees that still grow at step k, and gives draw j of each to tree j
    of the sorted order.  The replay takes those draws step by step, then
    grows each tree on its own from its share of them.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    order = np.argsort(-sizes, kind="stable")
    s = [int(v) for v in sizes[order]]
    off = _row_offsets(s)
    draws = []  # (u, L, R) of step k, for k = 1..max - 1
    for a in np.diff(off)[1:].tolist():  # trees that grow at step k: the width of row k
        u = rng.random(a)
        draws.append((u, *kernel.sample(rng, a)))
    flat = np.empty(sum(s))
    for j, n in enumerate(s):
        betas = [1.0]
        for k in range(1, n):
            u, lk, rk = draws[k - 1]
            i = min(int(u[j] * k), k - 1)
            old = betas[i]
            betas[i] = old * lk[j]
            betas.append(old * rk[j])
        flat[off[:n] + j] = betas
    return flat, order
