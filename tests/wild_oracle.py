"""Split-recursion oracle for the max process conditioned on n leaves.

wild_oracle_max draws H conditioned on nu_t = n through a route
independent of the tree sampler: a uniform split recursion (size i
against n-i, i uniform on 1..n-1) composed with max(L*., R*.).  Its cost
is exponential in n, which caps it at n <= 12; it exists purely as a
distributional oracle for the tree sampler.  It uses only the kernel's
and the law's `sample`.
"""

import numpy as np


def wild_oracle_max(kernel, law, n, rng, size):
    """`size` independent draws of the max process conditioned on n leaves.

    Recursion: level 1 is |X|; level n picks i uniform on {1..n-1} and
    returns max(L * draw(i), R * draw(n-i)).
    """
    if not 1 <= n <= 12:
        raise ValueError("wild oracle supports 1 <= n <= 12 (exponential cost)")
    return _wild_batch(kernel, law, int(n), rng, int(size))


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
