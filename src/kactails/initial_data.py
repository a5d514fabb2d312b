"""Initial laws in the domain of normal attraction of an alpha-stable law.

A law F_0 qualifies when x^alpha * (1 - F_0(x)) -> c0+ and
|x|^alpha * F_0(-x) -> c0- as x -> +/- infinity.  The finite-n deviation
bounds additionally need the exact tail metadata

    R(x)    = x^alpha P{|X| > x} / c0 - 1          (c0 = c0+ + c0-)
    Rbar(x) = sup_{y >= x} |R(y)|                  (non-increasing envelope)
    K0      = c0 (||R||_inf + 1)

which the catalog laws provide in closed form.  User laws must declare
their constants explicitly; tail metadata is never inferred from samples.

The default test law is the symmetric Pareto with xmin = 1: its tail is
an exact power beyond xmin, so R(x) = 0 for x >= 1 and the deviation
bounds carry no remainder noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# rng.random() can return exactly 0.0; inverse power transforms need (0, 1)
_U_FLOOR = 2.0 ** -53


class UnsupportedLawError(ValueError):
    """The law does not carry the tail metadata needed for this operation."""


@dataclass(frozen=True)
class TailProfile:
    """Exact deviation-bound constants of an initial law."""

    c0: float
    K0: float
    K1: float
    rbar: Callable[[float], float]


def _pareto_magnitude(rng, size, xmin, alpha):
    # xmin * max(u, floor)^(-1/alpha), computed in place on the draw buffer
    m = rng.random(size)
    np.maximum(m, _U_FLOOR, out=m)
    m **= -1.0 / alpha
    m *= xmin
    return m


@dataclass(frozen=True)
class SymmetricPareto:
    """|X| Pareto(alpha) on [xmin, inf), independent fair sign.

    P{|X| > x} = (x/xmin)^-alpha exactly for x >= xmin, so
    c0+ = c0- = xmin^alpha / 2 and R(x) = 0 beyond xmin.
    """

    alpha: float
    xmin: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie in (0, 2)")
        if self.xmin <= 0:
            raise ValueError("xmin must be positive")

    @property
    def c0_plus(self):
        return 0.5 * self.xmin ** self.alpha

    @property
    def c0_minus(self):
        return 0.5 * self.xmin ** self.alpha

    @property
    def gamma0(self):
        # truncated means vanish by symmetry (alpha = 1 hypothesis)
        return 0.0 if self.alpha == 1.0 else None

    def sample(self, rng, size=None):
        scalar = size is None
        # one uniform per draw: v = 2u - 1 carries the sign (v < 0 exactly
        # when u < 0.5; u = 0.5 gives +0.0, a positive draw) and 1 - |v|
        # the magnitude; every step writes into one of two buffers.  With
        # u in [2^-53, 1 - 2^-53], 1 - |v| >= 2^-52 is exact and positive,
        # so it needs no floor of its own before the negative power.
        v = rng.random(1 if scalar else size)
        np.maximum(v, _U_FLOOR, out=v)
        v *= 2.0
        v -= 1.0
        m = np.abs(v)
        np.subtract(1.0, m, out=m)
        m **= -1.0 / self.alpha
        m *= self.xmin
        x = np.copysign(m, v, out=m)
        return float(x[0]) if scalar else x

    def abs_tail(self, x):
        return np.minimum(1.0, (np.asarray(x, dtype=float) / self.xmin) ** -self.alpha)

    def remainder(self, x):
        # exact power tail: R(x) = 0 beyond xmin, (x/xmin)^alpha - 1 below
        x = np.asarray(x, dtype=float)
        out = np.where(x >= self.xmin, 0.0, (x / self.xmin) ** self.alpha - 1.0)
        return float(out) if out.ndim == 0 else out

    def envelope(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= self.xmin, 0.0, 1.0 - (x / self.xmin) ** self.alpha)
        return float(out) if out.ndim == 0 else out

    @property
    def r_sup(self):
        return 1.0

    @property
    def trunc_mean_dev(self):
        return 0.0


@dataclass(frozen=True)
class AsymmetricPareto:
    """Signed Pareto magnitude: sign + with probability c_plus/(c_plus+c_minus).

    When xmin is omitted it is set to (c_plus + c_minus)^(1/alpha), which
    makes the realized tail constants equal to the requested ones exactly.
    An explicit xmin rescales the magnitude law; the constants then become
    c0+/- = xmin^alpha * c+-/(c+ + c-) and the inputs only fix the skew.

    For alpha > 1 the law is shifted by its closed-form mean so that
    E[X] = 0 exactly; the shift leaves the tail constants untouched but
    makes R(x) nonzero, so the envelope switches to an analytic
    over-estimate (valid, slightly loose).
    """

    alpha: float
    c_plus: float
    c_minus: float
    xmin: float | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie in (0, 2)")
        if self.c_plus < 0 or self.c_minus < 0 or self.c_plus + self.c_minus <= 0:
            raise ValueError("need c_plus, c_minus >= 0 with c_plus + c_minus > 0")
        if self.alpha == 1.0 and self.c_plus != self.c_minus:
            raise ValueError("alpha = 1 requires c_plus = c_minus")
        xmin = self.xmin
        if xmin is None:
            xmin = (self.c_plus + self.c_minus) ** (1.0 / self.alpha)
        elif xmin <= 0:
            raise ValueError("xmin must be positive")
        object.__setattr__(self, "xmin", float(xmin))
        p = self.c_plus / (self.c_plus + self.c_minus)
        object.__setattr__(self, "_p", p)
        shift = 0.0
        if self.alpha > 1.0:
            shift = (2.0 * p - 1.0) * self.xmin * self.alpha / (self.alpha - 1.0)
        object.__setattr__(self, "_shift", shift)

    @property
    def c0_plus(self):
        return self._p * self.xmin ** self.alpha

    @property
    def c0_minus(self):
        return (1.0 - self._p) * self.xmin ** self.alpha

    @property
    def gamma0(self):
        return 0.0 if self.alpha == 1.0 else None

    def sample(self, rng, size=None):
        scalar = size is None
        n = 1 if scalar else size
        # the sign uniforms come first in the stream, then the magnitudes;
        # sign = +0.5 where u < p and -0.5 elsewhere, applied by copysign
        sign = rng.random(n)
        np.less(sign, self._p, out=sign)
        sign -= 0.5
        x = _pareto_magnitude(rng, n, self.xmin, self.alpha)
        np.copysign(x, sign, out=x)
        x -= self._shift
        return float(x[0]) if scalar else x

    def _raw_upper(self, y):
        # P{sign * magnitude > y}
        p, q, xmin, a = self._p, 1.0 - self._p, self.xmin, self.alpha
        if y >= xmin:
            return p * (y / xmin) ** -a
        if y > -xmin:
            return p
        return p + q * (1.0 - (abs(y) / xmin) ** -a)

    def _raw_lower(self, z):
        # P{sign * magnitude < z}
        p, q, xmin, a = self._p, 1.0 - self._p, self.xmin, self.alpha
        if z <= -xmin:
            return q * (abs(z) / xmin) ** -a
        if z < xmin:
            return q
        return q + p * (1.0 - (z / xmin) ** -a)

    def abs_tail(self, x):
        x = np.asarray(x, dtype=float)
        m = self._shift
        flat = np.atleast_1d(x)
        out = np.array([self._raw_upper(v + m) + self._raw_lower(m - v) for v in flat])
        return float(out[0]) if x.ndim == 0 else out

    def remainder(self, x):
        if self._shift == 0.0:
            x = np.asarray(x, dtype=float)
            out = np.where(x >= self.xmin, 0.0, (x / self.xmin) ** self.alpha - 1.0)
            return float(out) if out.ndim == 0 else out
        x = np.asarray(x, dtype=float)
        c0 = self.c0_plus + self.c0_minus
        out = x ** self.alpha * self.abs_tail(x) / c0 - 1.0
        return float(out) if np.ndim(out) == 0 else out

    def envelope(self, x):
        m = abs(self._shift)
        a = self.alpha
        xmin = self.xmin
        x = np.asarray(x, dtype=float)
        if m == 0.0:
            out = np.where(x >= xmin, 0.0, 1.0 - (x / xmin) ** a)
            return float(out) if out.ndim == 0 else out
        # beyond x_far both shifted tails are pure powers and
        # |R(y)| <= (1 - m/y)^-alpha - 1, which is decreasing in y
        x_far = xmin + m
        cap = self._envelope_cap()
        far = (1.0 - m / np.maximum(x, x_far)) ** -a - 1.0
        out = np.where(x >= x_far, np.minimum(far, cap), cap)
        return float(out) if out.ndim == 0 else out

    def _envelope_cap(self):
        # T(x) <= 1 gives R(x) <= x_far^alpha/c0 - 1 on (0, x_far]; R >= -1 always
        m = abs(self._shift)
        x_far = self.xmin + m
        c0 = self.xmin ** self.alpha
        return max(1.0, x_far ** self.alpha / c0 - 1.0,
                   (1.0 - m / x_far) ** -self.alpha - 1.0)

    @property
    def r_sup(self):
        return 1.0 if self._shift == 0.0 else self._envelope_cap()

    @property
    def trunc_mean_dev(self):
        return 0.0 if self.alpha == 1.0 else None


class UserLaw:
    """Caller-supplied initial law with declared tail metadata.

    sampler(rng, size) -> array of draws.  Constants (alpha, c0+, c0-) are
    mandatory; rbar (the non-increasing envelope, defined on [0, inf) with
    rbar(0) = ||R||_inf) is required by the deviation bounds, abs_tail by
    tail_remainder, gamma0 and trunc_mean_dev by the alpha = 1 bounds.
    """

    def __init__(self, sampler, alpha, c0_plus, c0_minus, gamma0=None,
                 rbar=None, abs_tail=None, trunc_mean_dev=None):
        if not 0.0 < alpha < 2.0:
            raise ValueError("alpha must lie in (0, 2)")
        if c0_plus < 0 or c0_minus < 0 or c0_plus + c0_minus <= 0:
            raise ValueError("need c0_plus, c0_minus >= 0 with c0_plus + c0_minus > 0")
        if alpha == 1.0:
            if c0_plus != c0_minus:
                raise ValueError("alpha = 1 requires c0_plus = c0_minus")
            if gamma0 is None or not math.isfinite(gamma0):
                raise ValueError("alpha = 1 requires a finite gamma0")
        self._sampler = sampler
        self.alpha = float(alpha)
        self.c0_plus = float(c0_plus)
        self.c0_minus = float(c0_minus)
        self.gamma0 = None if gamma0 is None else float(gamma0)
        self._rbar = rbar
        self._abs_tail = abs_tail
        self.trunc_mean_dev = trunc_mean_dev

    def sample(self, rng, size=None):
        scalar = size is None
        x = np.asarray(self._sampler(rng, 1 if scalar else size), dtype=float)
        return float(x.ravel()[0]) if scalar else x

    def abs_tail(self, x):
        if self._abs_tail is None:
            raise UnsupportedLawError("user law declares no exact tail function")
        x = np.asarray(x, dtype=float)
        out = np.asarray(self._abs_tail(x), dtype=float)
        return float(out) if out.ndim == 0 else out

    def envelope(self, x):
        if self._rbar is None:
            raise UnsupportedLawError("user law declares no remainder envelope")
        x = np.asarray(x, dtype=float)
        out = np.asarray(self._rbar(x), dtype=float)
        return float(out) if out.ndim == 0 else out

    @property
    def r_sup(self):
        return self.envelope(0.0)


def tail_profile(law) -> TailProfile:
    """Assemble (c0, K0, K1, Rbar) for the finite-n deviation bounds.

    K1 follows the alpha split: K0^2/(1-alpha)^2 below 1,
    K0^2 alpha^2/(alpha-1)^2 above 1, and
    (gamma0 + sup_R |truncated mean - gamma0|)^2 at alpha = 1.
    """
    c0 = law.c0_plus + law.c0_minus
    try:
        r_sup = float(law.r_sup)
    except UnsupportedLawError:
        raise
    except AttributeError:
        raise UnsupportedLawError("law carries no remainder envelope") from None
    k0 = c0 * (r_sup + 1.0)
    a = law.alpha
    if a < 1.0:
        k1 = k0 ** 2 / (1.0 - a) ** 2
    elif a > 1.0:
        k1 = k0 ** 2 * a ** 2 / (a - 1.0) ** 2
    else:
        dev = getattr(law, "trunc_mean_dev", None)
        if dev is None:
            raise UnsupportedLawError("alpha = 1 bounds need trunc_mean_dev")
        k1 = (law.gamma0 + dev) ** 2
    return TailProfile(c0=c0, K0=k0, K1=k1, rbar=law.envelope)


def tail_remainder(law, x) -> float:
    """R(x) = x^alpha P{|X| > x} / c0 - 1 from the law's exact tail."""
    if np.any(np.asarray(x) <= 0):
        raise ValueError("x must be positive")
    if hasattr(law, "remainder"):
        return law.remainder(x)
    c0 = law.c0_plus + law.c0_minus
    t = law.abs_tail(x)
    out = np.asarray(x, dtype=float) ** law.alpha * t / c0 - 1.0
    return float(out) if np.ndim(out) == 0 else out
