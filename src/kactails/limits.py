"""Limit objects: the mixing variable, stable parameters, and limit laws.

The mixing variable Z solves the distributional fixed point

    Z  =law=  Theta^Q(a) (L^a Z1 + R^a Z2),      Theta uniform(0, 1),

with E[Z] = 1; its law is approximated either by population dynamics on
that equation or by the tree functional e^{-Q(a) t} M_{nu_t}(a) at large t.
Both constructions target the same law, which makes their agreement a
two-sided check.

Given tail constants (c0+, c0-) of the initial law, the rescaled sum
converges to V_inf = Z^(1/a) S_a where S_a is alpha-stable with
characteristic exponent

    lambda |xi|^a (1 - i eta tan(pi a / 2) sign xi),
    lambda = (c0+ + c0-) pi / (2 Gamma(a) sin(pi a / 2)),
    eta = (c0+ - c0-) / (c0+ + c0-),

and the rescaled max converges to a scale mixture of Frechet laws,
P{H_inf <= x} = E[exp(-c0 x^-a Z)] for x > 0.  For alpha = 1 the stable
factor degenerates to V_inf = Z (gamma0 + Cauchy(c0+ pi)), obtained by
factorizing the alpha = 1 characteristic function.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import DeterministicKernel, spectral
from .processes import forest_statistics


@dataclass
class ZPool:
    """Empirical population approximating the law of the mixing variable."""

    samples: np.ndarray
    alpha: float
    S_alpha: float

    @classmethod
    def ones(cls, size, alpha, S_alpha):
        """Default initial pool: degenerate at 1 (mean-1 consistent)."""
        return cls(np.ones(int(size)), float(alpha), float(S_alpha))

    @classmethod
    def from_samples(cls, samples, alpha, S_alpha):
        samples = np.asarray(samples, dtype=float)
        if samples.size == 0:
            raise ValueError("pool must be non-empty")
        if not np.isfinite(samples).all():
            raise ValueError("pool entries must be finite")
        if np.any(samples < 0):
            raise ValueError("pool entries must be non-negative")
        return cls(samples, float(alpha), float(S_alpha))


@dataclass(frozen=True)
class StableParams:
    """Scale/skew of the stable factor in the limit law."""

    lam: float
    eta_skew: float
    alpha: float
    gamma0: float | None = None
    cauchy_scale: float | None = None


def stable_params(c0_plus, c0_minus, alpha, gamma0=0.0) -> StableParams:
    """Map tail constants to the stable scale lambda and skew eta."""
    if c0_plus < 0 or c0_minus < 0 or c0_plus + c0_minus <= 0:
        raise ValueError("need c0_plus, c0_minus >= 0 with c0_plus + c0_minus > 0")
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    c0 = c0_plus + c0_minus
    eta = (c0_plus - c0_minus) / c0
    lam = c0 * math.pi / (2.0 * math.gamma(alpha) * math.sin(math.pi * alpha / 2.0))
    if alpha == 1.0:
        if c0_plus != c0_minus:
            raise ValueError("alpha = 1 requires c0_plus = c0_minus")
        return StableParams(lam=lam, eta_skew=0.0, alpha=1.0,
                            gamma0=float(gamma0), cauchy_scale=c0_plus * math.pi)
    return StableParams(lam=lam, eta_skew=eta, alpha=float(alpha))


def zpool_iterate(pool: ZPool, kernel, rng, iterations=1) -> ZPool:
    """Population-dynamics steps on the fixed-point equation.

    Each new sample is Theta^Q(a) (L^a Z1 + R^a Z2) with Z1, Z2 resampled
    with replacement from the previous pool.  The mean is preserved in
    expectation since E[Theta^Q(a)] E[L^a + R^a] = 1.  At Q(a) = 0 the
    Theta factor is the constant 1 and no uniform draw is consumed.

    A DeterministicKernel is not sampled: its draw consumes nothing from
    the stream and is the same pair every time, so (l^a, r^a) is computed
    once per call and scales the resampled Z1, Z2 in place.  The powers go
    through NumPy's array power, the same routine that acts on a sampled
    (L, R); Python's float ** can differ from it in the last bit.  Other
    kernels draw (L, R) every step and raise the draws to the power a in
    place (the kernels hand out new arrays).

    The working arrays are allocated once per call, not once per step: at
    pool sizes near 1e6 each fresh 8 MB array costs its page faults anew.
    Step i writes its pool into buffer i % 2 while reading the other (or,
    at the first step, the caller's samples, which are never written), and
    Z2 is gathered into a third buffer.  `np.take` with `out=` buffers its
    result under the default mode="raise"; mode="clip" writes straight
    into `out`, and changes nothing here since `rng.integers(0, n)` only
    gives indices in range.

    A constant positive pool under a DeterministicKernel at Q(a) = 0 is
    iterated as one number and consumes nothing from the stream: every
    resampled Z1, Z2 equals that constant c, so each entry of the array
    path computes c * l^a + c * r^a.  The same ufuncs in the same order
    on a one-element array give the same bits, also when l^a + r^a is not
    exactly 1 and c drifts.  (Positive, because 0.0 == -0.0 while their
    products differ in sign.)
    """
    z = pool.samples
    n = z.size
    if n == 0:
        raise ValueError("pool must be non-empty")
    s = pool.S_alpha
    if s <= -1.0:
        raise ValueError("fixed-point iteration needs S_alpha > -1")
    a = pool.alpha
    fixed = isinstance(kernel, DeterministicKernel)
    if fixed:
        la, ra = np.array([kernel.l, kernel.r]) ** a
        first = z.flat[0]
        if s == 0.0 and int(iterations) >= 1 and first > 0.0 and (z == first).all():
            c = np.array([first], dtype=float)
            for _ in range(int(iterations)):
                c = c * la + c * ra
            return ZPool(np.full(n, c[0]), a, s)
    pools = (np.empty(n), np.empty(n))
    z2 = np.empty(n)
    for i in range(int(iterations)):
        z1 = np.take(z, rng.integers(0, n, size=n), out=pools[i % 2], mode="clip")
        np.take(z, rng.integers(0, n, size=n), out=z2, mode="clip")
        if fixed:
            z1 *= la
            z2 *= ra
        else:
            lk, rk = kernel.sample(rng, n)
            lk **= a
            rk **= a
            z1 *= lk
            z2 *= rk
        z1 += z2
        if s != 0.0:
            # Theta = 1 - u lies in (0, 1]: safe under the negative powers used here
            theta = rng.random(n)
            np.subtract(1.0, theta, out=theta)
            theta **= s
            z1 *= theta
        z = z1
    return ZPool(z, a, s)


def zpool_from_trees(kernel, alpha, t, size, rng) -> ZPool:
    """Pool of e^{-Q(a) t} M_{nu_t}(a) draws from the branching sampler.

    Warns when the rescaled maximal weight is not yet small at this t
    (the tree functional is then still far from its limit).
    """
    s_alpha = spectral(kernel, alpha, rng=rng).Q_s
    stats = forest_statistics(kernel, t, size, rng, alpha=alpha)
    z = math.exp(-s_alpha * t) * stats.M
    mu = s_alpha / alpha
    beta_scale = float(np.median(stats.beta_max)) * math.exp(-mu * t)
    if beta_scale > 0.25:
        warnings.warn(
            f"median rescaled beta_max = {beta_scale:.3g} at t = {t:g}; "
            "increase t for a converged tree pool",
            stacklevel=2,
        )
    return ZPool(z, float(alpha), float(s_alpha))


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


def sample_V_infinity(pool: ZPool, params: StableParams, rng, size=None):
    """Draw from the limit law: Z^(1/a) S_a, or Z (gamma0 + Cauchy) at a = 1."""
    scalar = size is None
    m = 1 if scalar else int(size)
    z = pool.samples[rng.integers(0, pool.samples.size, size=m)]
    a = params.alpha
    if a == 1.0:
        c = params.gamma0 + params.cauchy_scale * np.tan(math.pi * (rng.random(m) - 0.5))
        out = z * c
    else:
        s = params.lam ** (1.0 / a) * _stable_standard(a, params.eta_skew, rng, m)
        out = z ** (1.0 / a) * s
    return float(out[0]) if scalar else out


def cf_V_infinity(xi, pool: ZPool, params: StableParams):
    """Characteristic function of the limit law, averaged over the pool.

    alpha != 1: E exp(-|xi|^a lambda Z (1 - i eta tan(pi a/2) sign xi));
    alpha == 1: E exp(Z (i gamma0 xi - c0+ pi |xi|)).
    """
    xi_arr = np.asarray(xi, dtype=float)
    z = pool.samples
    flat = np.atleast_1d(xi_arr)
    a = params.alpha
    out = np.empty(flat.size, dtype=complex)
    for i, x in enumerate(flat):
        if a == 1.0:
            # the real part of each exponent is -c0+ pi |xi| Z; where it
            # overflows the term is 0 to rounding, whatever its phase
            with np.errstate(over="ignore"):
                e = z * (1j * params.gamma0 * x - params.cauchy_scale * abs(x))
            inf = np.isinf(e.real)
            e[inf] = 0.0
            term = np.exp(e)
            term[inf] = 0.0
            out[i] = term.mean()
            continue
        skew = 1.0 - 1j * params.eta_skew * math.tan(math.pi * a / 2.0) * np.sign(x)
        # each term is exp(-u) e^{icu} with u = |xi|^a lambda Z >= 0; where
        # u overflows the term is 0 to rounding, whatever its phase
        with np.errstate(over="ignore"):
            u = abs(x) ** a * params.lam * z
        inf = np.isinf(u)
        u[inf] = 0.0
        term = np.exp(-u * skew)
        term[inf] = 0.0
        out[i] = term.mean()
    return complex(out[0]) if xi_arr.ndim == 0 else out


def cdf_H_infinity(x, pool: ZPool, c0, alpha) -> float:
    """Distribution function of the max-process limit.

    E[exp(-c0 x^-a Z)] for x > 0, the pool's mass at zero for x = 0,
    and 0 for x < 0.
    """
    if x < 0:
        return 0.0
    z = pool.samples
    if x == 0:
        return float(np.mean(z == 0.0))
    return float(np.exp(-c0 * x ** (-alpha) * z).mean())
