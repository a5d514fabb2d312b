"""Per-tree references for the batch weight grower.

grow_tree is an independent grower: one tree, its own draws, the growth
rule written out leaf by leaf.  replay_batch feeds the draws that
grow_weights_batch makes to the same rule one tree at a time, so its
output must equal the batch output bit for bit.  Neither uses kactails.
"""

import numpy as np


def grow_tree(kernel, n, rng):
    """Weights of one tree grown to n leaves: step k picks a uniform index
    i among the k leaves and replaces beta_i by (L beta_i, R beta_i)."""
    betas = np.zeros(n)
    betas[0] = 1.0
    for k in range(1, n):
        i = int(rng.integers(0, k))
        L, R = kernel.sample(rng)
        betas[i], betas[k] = betas[i] * L, betas[i] * R
    return betas


def replay_batch(kernel, sizes, rng):
    """(flat, order) as grow_weights_batch(kernel, sizes, rng) returns them.

    The batch sorts the trees by size, largest first (stable), draws every
    uniform and then every kernel pair, and gives step k the next draws in
    sorted-tree order for the trees that still grow.  So tree j of the
    sorted order takes, at step k, draw number (draws of steps < k) + j.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    order = np.argsort(-sizes, kind="stable")
    s = [int(v) for v in sizes[order]]
    n_draws = sum(s) - len(s)
    u = rng.random(n_draws)
    lk, rk = kernel.sample(rng, n_draws)
    growing = [sum(v > k for v in s) for k in range(max(s))]
    trees = []
    for j, n in enumerate(s):
        betas = [1.0]
        for k in range(1, n):
            d = sum(growing[1:k]) + j
            i = min(int(u[d] * k), k - 1)
            old = betas[i]
            betas[i] = old * lk[d]
            betas.append(old * rk[d])
        trees.append(betas)
    return np.concatenate(trees), order
