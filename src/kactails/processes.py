"""Branching-representation samplers for the solution and max processes.

At time t the leaf count nu_t is geometric, P{nu_t = n} = e^-t (1-e^-t)^(n-1).
Conditioned on nu_t = n the weights grow to exactly n leaves and each leaf
receives an i.i.d. initial draw X_j, which is valid because the weights,
the leaf count and the X's are mutually independent.  From one shared set
of per-leaf products the samplers report

    V_t = sum_j beta_j X_j      and      H_t = max_j |beta_j X_j|,

so tail-ratio estimates of the pair use common random numbers.

wild_oracle_max draws H conditioned on nu_t = n through an independent
route: a uniform split recursion (size i against n-i, i uniform on
1..n-1) composed with max(L*., R*.).  Its cost is exponential in n, which
caps it at n <= 12; it exists purely as a distributional oracle for the
tree sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import grow_weights, grow_weights_batch

_DEFAULT_LEAF_BUDGET = 1 << 23


@dataclass(frozen=True)
class PathSample:
    """One draw of the branching representation at time t."""

    t: float
    n: int
    V: float
    H: float
    M_alpha: float
    beta_max: float
    alpha: float


@dataclass
class ForestSample:
    """Vectorized path statistics; arrays are aligned by path index."""

    t: float
    nu: np.ndarray
    M: dict[float, np.ndarray]
    beta_max: np.ndarray
    V: np.ndarray | None = None
    H: np.ndarray | None = None


def sample_yule(t, rng, size=None):
    """Leaf count at time t: geometric on {1, 2, ...} with p = e^-t.

    Inverse transform: n = ceil(log(1-u) / log(1-p)).  Raises ValueError
    when p underflows to 0 (t > ~745), where the transform would return 1.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    p = math.exp(-t)
    if p == 0.0:
        raise ValueError(f"e^-t underflows to 0 at t = {t!r}; no leaf count is representable")
    scalar = size is None
    m = 1 if scalar else int(size)
    if p >= 1.0:
        n = np.ones(m, dtype=np.int64)
    else:
        u = rng.random(m)
        n = np.ceil(np.log1p(-u) / math.log1p(-p)).astype(np.int64)
        np.maximum(n, 1, out=n)
    return int(n[0]) if scalar else n


def sample_path(kernel, law, t, alpha, rng) -> PathSample:
    """One path sample: V and H are computed from the same weights and X's."""
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    n = sample_yule(t, rng)
    w = grow_weights(kernel, n, (alpha,), rng)
    x = law.sample(rng, n)
    prod = w.betas * x
    return PathSample(
        t=float(t),
        n=n,
        V=float(prod.sum()),
        H=float(np.abs(prod).max()),
        M_alpha=w.M[float(alpha)],
        beta_max=w.beta_max,
        alpha=float(alpha),
    )


def rescaled(p: PathSample, mu_alpha):
    """(e^{-mu(alpha) t} V, e^{-mu(alpha) t} H)."""
    f = math.exp(-mu_alpha * p.t)
    return f * p.V, f * p.H


def forest_statistics(kernel, t, alphas, n_paths, rng, law=None,
                      leaf_budget=_DEFAULT_LEAF_BUDGET) -> ForestSample:
    """Sample n_paths independent paths at time t, vectorized.

    Always returns nu, M(alpha) for each tracked alpha, and beta_max; when
    a law is given it also returns V and H from shared per-leaf products.
    Internally processes sub-batches sized so the expected leaf total per
    batch stays near leaf_budget; the output is a function of the rng
    stream alone (sub-batching does not alter it).
    """
    alphas = tuple(float(a) for a in alphas)
    n_paths = int(n_paths)
    nu_out = np.empty(n_paths, dtype=np.int64)
    m_out = {a: np.empty(n_paths) for a in alphas}
    bmax_out = np.empty(n_paths)
    with_vh = law is not None
    v_out = np.empty(n_paths) if with_vh else None
    h_out = np.empty(n_paths) if with_vh else None

    batch = int(min(max(leaf_budget / math.exp(t), 32), 1 << 16))
    done = 0
    while done < n_paths:
        m = min(batch, n_paths - done)
        nu = sample_yule(t, rng, m)
        flat, starts, order = grow_weights_batch(kernel, nu, rng)
        sl = slice(done, done + m)
        nu_out[sl] = nu
        scatter = np.empty(m)
        for a in alphas:
            scatter[order] = np.add.reduceat(flat ** a, starts)
            m_out[a][sl] = scatter
        scatter[order] = np.maximum.reduceat(flat, starts)
        bmax_out[sl] = scatter
        if with_vh:
            x = law.sample(rng, flat.size)
            prod = flat * x
            scatter[order] = np.add.reduceat(prod, starts)
            v_out[sl] = scatter
            np.abs(prod, out=prod)
            scatter[order] = np.maximum.reduceat(prod, starts)
            h_out[sl] = scatter
        done += m
    return ForestSample(t=float(t), nu=nu_out, M=m_out, beta_max=bmax_out, V=v_out, H=h_out)


def wild_oracle_max(kernel, law, n, rng, size=None):
    """Independent sampler of the max process conditioned on n leaves.

    Recursion: level 1 is |X|; level n picks i uniform on {1..n-1} and
    returns max(L * draw(i), R * draw(n-i)).
    """
    if not 1 <= n <= 12:
        raise ValueError("wild oracle supports 1 <= n <= 12 (exponential cost)")
    scalar = size is None
    out = _wild_batch(kernel, law, int(n), rng, 1 if scalar else int(size))
    return float(out[0]) if scalar else out


def _wild_batch(kernel, law, n, rng, m):
    if m == 0:
        return np.empty(0)
    if n == 1:
        return np.abs(law.sample(rng, m))
    split = rng.integers(1, n, size=m)
    lk, rk = kernel.sample(rng, m)
    out = np.empty(m)
    for i in range(1, n):
        sel = np.flatnonzero(split == i)
        if sel.size == 0:
            continue
        a = _wild_batch(kernel, law, i, rng, sel.size)
        b = _wild_batch(kernel, law, n - i, rng, sel.size)
        out[sel] = np.maximum(lk[sel] * a, rk[sel] * b)
    return out
