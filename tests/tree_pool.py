"""The mixing pool from trees: e^{-Q(a) t} M_{nu_t}(a) at large t.

It targets the law of the fixed point Z that `limits.zpool_iterate`
approximates by population dynamics, so the two pools agreeing is a
two-sided check (acceptance check 07 and tests/test_limits.py).
"""

import math
import warnings

import numpy as np

from kactails.kernels import rescale_factor, spectral
from kactails.limits import ZPool
from kactails.processes import alpha_sums, forest_statistics


def zpool_from_trees(kernel, alpha, t, size, rng) -> ZPool:
    """Pool of e^{-Q(a) t} M_{nu_t}(a) draws from the branching sampler.

    Warns when the rescaled maximal weight is not yet small at this t
    (the tree functional is then still far from its limit).
    """
    m, beta_max = forest_statistics(kernel, t, size, rng, alpha_sums(alpha)).stats
    z = math.exp(-spectral(kernel, alpha) * t) * m
    beta_scale = float(np.median(beta_max)) * rescale_factor(kernel, alpha, t)
    if beta_scale > 0.25:
        warnings.warn(f"median rescaled beta_max = {beta_scale:.3g} at t = {t:g}; "
                      "increase t for a converged tree pool", stacklevel=2)
    return ZPool(z, float(alpha))
