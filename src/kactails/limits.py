"""Limit objects: the mixing variable and the limit laws.

The mixing variable Z solves the distributional fixed point

    Z  =law=  Theta^Q(a) (L^a Z1 + R^a Z2),      Theta uniform(0, 1),

with E[Z] = 1; its law is approximated by population dynamics on that
equation.  The tree functional e^{-Q(a) t} M_{nu_t}(a) at large t targets
the same law; the tests draw that pool (tests/tree_pool.py) and check the
two against each other.

Given tail constants (c0+, c0-) of the initial law, the rescaled sum
converges to V_inf = Z^(1/a) S_a where S_a is alpha-stable with
characteristic exponent

    lambda |xi|^a (1 - i eta tan(pi a / 2) sign xi),

whose scale lambda and skew eta the law gives as `stable_scale` and
`stable_skew`; at alpha = 1 the law is symmetric, eta = 0 and S_1 is
Cauchy with scale lambda = c0+ pi.  The rescaled max converges to a scale
mixture of Frechet laws, P{H_inf <= x} = E[exp(-c0 x^-a Z)] for x > 0.
Both limits are pool averages of exp(-s Z), which `_mean_exp` evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .initial_data import power_or_inf
from .kernels import DeterministicKernel, spectral


@dataclass
class ZPool:
    """Empirical population approximating the law of the mixing variable."""

    samples: np.ndarray
    alpha: float

    @classmethod
    def ones(cls, size, alpha):
        """Default initial pool: degenerate at 1 (mean-1 consistent)."""
        return cls(np.ones(int(size)), float(alpha))

    @classmethod
    def from_samples(cls, samples, alpha):
        samples = np.asarray(samples, dtype=float)
        if samples.size == 0:
            raise ValueError("pool must be non-empty")
        if not np.isfinite(samples).all():
            raise ValueError("pool entries must be finite")
        if np.any(samples < 0):
            raise ValueError("pool entries must be non-negative")
        return cls(samples, float(alpha))


def zpool_iterate(pool: ZPool, kernel, rng, iterations=1) -> ZPool:
    """Population-dynamics steps on the fixed-point equation.

    Each new sample is Theta^Q(a) (L^a Z1 + R^a Z2), with Z1, Z2 resampled
    with replacement from the previous pool and Q(a) = spectral(kernel, a)
    at the pool's alpha; E[Theta^Q(a)] E[L^a + R^a] = 1 keeps the mean in
    expectation.  At Q(a) = 0 the Theta factor is 1 and no uniform is drawn.

    A DeterministicKernel draws nothing and gives the same pair every time,
    so (l^a, r^a) is computed once per call, through NumPy's array power
    (the routine that powers a sampled (L, R); Python's float ** can differ
    from it in the last bit).  Other kernels draw (L, R) every step and
    power the new arrays in place.

    The working arrays are allocated once per call: at pool sizes near 1e6
    each fresh 8 MB array costs its page faults anew.  Step i writes its
    pool into buffer i % 2 while reading the other (at the first step, the
    caller's samples, which are never written); Z2 goes to a third buffer.
    `np.take` with `out=` buffers its result under the default
    mode="raise"; mode="clip" writes into `out` directly, and changes
    nothing here since `rng.integers(0, n)` only gives indices in range.

    A constant positive pool under a DeterministicKernel at Q(a) = 0 is
    iterated as one number and draws nothing: each entry of the array path
    would compute c * l^a + c * r^a from that constant c, and the same
    ufuncs in the same order on a one-element array give the same bits,
    also when c drifts because l^a + r^a is not exactly 1.  (Positive, as
    0.0 == -0.0 while their products differ in sign.)
    """
    z = pool.samples
    n = z.size
    if n == 0:
        raise ValueError("pool must be non-empty")
    a = pool.alpha
    s = spectral(kernel, a)
    if s <= -1.0:
        raise ValueError(f"fixed-point iteration needs Q(alpha) > -1, not {s!r} at alpha = {a:g}")
    fixed = isinstance(kernel, DeterministicKernel)
    if fixed:
        la, ra = np.array([kernel.l, kernel.r]) ** a
        first = z.flat[0]
        if s == 0.0 and int(iterations) >= 1 and first > 0.0 and (z == first).all():
            c = np.array([first], dtype=float)
            for _ in range(int(iterations)):
                c = c * la + c * ra
            return ZPool(np.full(n, c[0]), a)
    pools = (np.empty(n), np.empty(n))
    z2 = np.empty(n)
    for i in range(int(iterations)):
        z1 = np.take(z, rng.integers(0, n, size=n), out=pools[i % 2], mode="clip")
        np.take(z, rng.integers(0, n, size=n), out=z2, mode="clip")
        if not fixed:
            la, ra = kernel.sample(rng, n)
            la **= a
            ra **= a
        z1 *= la
        z2 *= ra
        z1 += z2
        if s != 0.0:
            # Theta = 1 - u lies in (0, 1]: safe under the negative powers used here
            theta = rng.random(n)
            np.subtract(1.0, theta, out=theta)
            theta **= s
            z1 *= theta
        z = z1
    return ZPool(z, a)


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


def _mean_exp(z, s, skew=None):
    """Pool average of exp(-s Z), s >= 0, or of exp(-(s Z) skew) for a
    complex `skew`.

    A term whose s Z overflows is 0, whatever its phase.  When s itself
    overflows only the Z = 0 terms keep exponent 0, so the average is the
    pool's mass at zero.
    """
    if s == math.inf:
        return float(np.mean(z == 0.0))
    with np.errstate(over="ignore"):
        e = np.multiply(-s, z)
    if skew is None:
        return float(np.exp(e, out=e).mean())
    inf = np.isinf(e)
    e[inf] = 0.0
    term = np.multiply(e, skew)
    np.exp(term, out=term)
    term[inf] = 0.0
    return complex(term.mean())


def cf_V_infinity(xi, pool: ZPool, law):
    """Characteristic function of the limit law, averaged over the pool:
    E exp(-|xi|^a lambda Z (1 - i eta tan(pi a/2) sign xi)) for every alpha."""
    xi_arr = np.asarray(xi, dtype=float)
    flat = np.atleast_1d(xi_arr)
    a, lam, eta = law.alpha, law.stable_scale, law.stable_skew
    out = np.empty(flat.size, dtype=complex)
    for i, x in enumerate(flat):
        with np.errstate(over="ignore"):
            s = abs(x) ** a * lam
        skew = 1.0 - 1j * eta * math.tan(math.pi * a / 2.0) * np.sign(x)
        out[i] = _mean_exp(pool.samples, s, skew)
    return complex(out[0]) if xi_arr.ndim == 0 else out


def cdf_H_infinity(x, pool: ZPool, law) -> float:
    """Distribution function of the max-process limit: E[exp(-c0 x^-a Z)]
    for x > 0, the pool's mass at zero for x = 0, and 0 for x < 0."""
    if x < 0:
        return 0.0
    return _mean_exp(pool.samples, law.c0 * power_or_inf(float(x), -law.alpha))
