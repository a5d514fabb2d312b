"""Draws of the limit law V_inf = Z^(1/a) S_a from a mixing pool.

The CLI never draws V_inf: its cf-V and cdf-H rows take the limits as
pool averages (kactails.limits).  The tests draw it to check those
averages, and the stable law they rest on, against samples.
"""

import math

import numpy as np

from kactails.limits import ZPool


def _stable_standard(alpha, beta_skew, rng, size):
    """Stable draw with exponent |xi|^a (1 - i beta tan(pi a/2) sign xi).

    Polar (Chambers-Mallows-Stuck) construction, alpha != 1:
    with U uniform(-pi/2, pi/2), W exp(1),
    B = atan(beta tan(pi a/2))/a and S = (1 + beta^2 tan^2(pi a/2))^(1/2a),

        X = S sin(a(U+B)) / cos(U)^(1/a) * (cos(U - a(U+B)) / W)^((1-a)/a).
    """
    u = math.pi * (rng.random(size) - 0.5)
    w = rng.standard_exponential(size)
    if beta_skew == 0.0:
        b = 0.0
        scale = 1.0
    else:
        tb = beta_skew * math.tan(math.pi * alpha / 2.0)
        b = math.atan(tb) / alpha
        scale = (1.0 + tb * tb) ** (1.0 / (2.0 * alpha))
    au = alpha * (u + b)
    x = scale * np.sin(au) / np.cos(u) ** (1.0 / alpha)
    x *= (np.cos(u - au) / w) ** ((1.0 - alpha) / alpha)
    return x


def sample_V_infinity(pool: ZPool, law, rng, size):
    """`size` draws of the limit law Z^(1/a) S_a, S_1 = lambda Cauchy at a = 1."""
    z = pool.samples[rng.integers(0, pool.samples.size, size=size)]
    a, lam = law.alpha, law.stable_scale
    if a == 1.0:
        return z * (lam * np.tan(math.pi * (rng.random(size) - 0.5)))
    s = lam ** (1.0 / a) * _stable_standard(a, law.stable_skew, rng, size)
    return z ** (1.0 / a) * s
