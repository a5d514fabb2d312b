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

# Elements per transform block of the Pareto samplers: a block and its
# scratch stay in the L2 cache across the chain of elementwise passes.
# The uniforms are drawn block by block too, which leaves the stream as
# one rng.random(n) call would: the same doubles and the same final state.
_BLOCK = 1 << 14


class UnsupportedLawError(ValueError):
    """The law does not carry the tail metadata needed for this operation."""


@dataclass(frozen=True)
class TailProfile:
    """Exact deviation-bound constants of an initial law."""

    c0: float
    K0: float
    K1: float
    rbar: Callable[[float], float]


def _check_tail_constant(xmin, alpha):
    """A ValueError unless xmin and c0 = xmin^alpha, the tail constant of a
    Pareto magnitude on [xmin, inf), are finite and positive floats."""
    try:
        c0 = xmin ** alpha
    except OverflowError:
        c0 = math.inf
    if not (0 < xmin < math.inf and 0 < c0 < math.inf):
        raise ValueError(f"xmin = {xmin!r} gives tail constant c0 = xmin^alpha = {c0!r}; "
                         "both must be finite and positive")


def _draw_buffer(size, out):
    """The array a draw of `size` values fills: `out`, which must have shape
    (size,), or a new one (one element for a scalar draw)."""
    n = 1 if size is None else size
    if out is None:
        return np.empty(n)
    if out.shape != (n,):
        raise ValueError(f"out has shape {out.shape}; a draw of {n} values needs ({n},)")
    return out


def _blocks(x):
    """Consecutive views of x of _BLOCK elements (the last one shorter),
    each paired with a scratch view of its length; all pairs share one
    scratch buffer, so a caller finishes a block before taking the next."""
    scratch = np.empty(min(x.size, _BLOCK))
    for lo in range(0, x.size, _BLOCK):
        block = x[lo:lo + _BLOCK]
        yield block, scratch[:block.size]


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
            try:
                xmin = (self.c_plus + self.c_minus) ** (1.0 / self.alpha)
            except OverflowError:
                xmin = math.inf
        elif xmin <= 0:
            raise ValueError("xmin must be positive")
        _check_tail_constant(xmin, self.alpha)
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

    def sample(self, rng, size=None, out=None):
        """A float for size None, else `size` draws: written into `out` (a
        float64 array of shape (size,)) and returned when it is given, in
        a new array otherwise."""
        x = _draw_buffer(size, out)
        # all n sign uniforms come first in the stream, then all n
        # magnitudes; sign = +0.5 where u < p and -0.5 elsewhere, applied by
        # copysign to xmin * max(u, floor)^(-1/alpha)
        rng.random(out=x)
        for sign, m in _blocks(x):
            np.less(sign, self._p, out=sign)
            sign -= 0.5
            rng.random(out=m)
            np.maximum(m, _U_FLOOR, out=m)
            m **= -1.0 / self.alpha
            m *= self.xmin
            np.copysign(m, sign, out=sign)
            sign -= self._shift
        return float(x[0]) if size is None else x

    def _signed_tails(self, y):
        # (P{X > y}, P{X < -y}) elementwise, with X = S M - shift, S = +1 with
        # probability p and M Pareto on [xmin, inf).  T(u) = P{M > |u|} is
        # (max(|u|, xmin)/xmin)^-alpha: 1 on [-xmin, xmin], and 0 is never
        # raised to a negative power.
        p, q, xmin, a = self._p, 1.0 - self._p, self.xmin, self.alpha
        y = np.asarray(y, dtype=float)
        u = y + self._shift             # X > y   iff  S M > u
        v = self._shift - y             # X < -y  iff  S M < v
        tu = (np.maximum(np.abs(u), xmin) / xmin) ** -a
        tv = (np.maximum(np.abs(v), xmin) / xmin) ** -a
        upper = np.where(u > -xmin, p * tu, p + q * (1.0 - tu))
        lower = np.where(v < xmin, q * tv, q + p * (1.0 - tv))
        return upper, lower

    def abs_tail(self, x):
        upper, lower = self._signed_tails(x)
        out = upper + lower
        return float(out) if np.ndim(out) == 0 else out

    def remainder(self, x):
        x = np.asarray(x, dtype=float)
        if self._shift == 0.0:
            # exact power tail: R(x) = 0 beyond xmin, (x/xmin)^alpha - 1 below
            out = np.where(x >= self.xmin, 0.0, (x / self.xmin) ** self.alpha - 1.0)
        else:
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
        # |R(y)| <= (1 - m/y)^-alpha - 1, which is decreasing in y; below it
        # T(x) <= 1 gives R(x) <= x_far^alpha/c0 - 1, and R >= -1 always
        x_far = xmin + m
        cap = max(1.0, x_far ** a / xmin ** a - 1.0, (1.0 - m / x_far) ** -a - 1.0)
        far = (1.0 - m / np.maximum(x, x_far)) ** -a - 1.0
        out = np.where(x >= x_far, np.minimum(far, cap), cap)
        return float(out) if out.ndim == 0 else out

    @property
    def trunc_mean_dev(self):
        return 0.0 if self.alpha == 1.0 else None


class SymmetricPareto(AsymmetricPareto):
    """The Pareto law at c+ = c-: |X| Pareto(alpha) on [xmin, inf), a fair
    sign and no shift, so c0+ = c0- = xmin^alpha / 2 and R(x) = 0 beyond
    xmin.  Only the sampler is its own: one uniform per draw."""

    def __init__(self, alpha, xmin=1.0):
        super().__init__(alpha, 0.5, 0.5, xmin)

    def sample(self, rng, size=None, out=None):
        """As AsymmetricPareto.sample, from one uniform per draw."""
        x = _draw_buffer(size, out)
        # v = 2u - 1 carries the sign (v < 0 exactly when u < 0.5; u = 0.5
        # gives +0.0, a positive draw) and 1 - |v| the magnitude.  With u in
        # [2^-53, 1 - 2^-53], 1 - |v| >= 2^-52 is exact and positive, so it
        # needs no floor of its own before the negative power.
        for v, m in _blocks(x):
            rng.random(out=v)
            np.maximum(v, _U_FLOOR, out=v)
            v *= 2.0
            v -= 1.0
            np.abs(v, out=m)
            np.subtract(1.0, m, out=m)
            m **= -1.0 / self.alpha
            m *= self.xmin
            np.copysign(m, v, out=v)
        return float(x[0]) if size is None else x


class UserLaw:
    """Caller-supplied initial law with declared tail metadata.

    sampler(rng, size) -> array of draws.  Constants (alpha, c0+, c0-) are
    mandatory; rbar (the non-increasing envelope, defined on [0, inf) with
    rbar(0) = ||R||_inf) is required by the deviation bounds, abs_tail by
    tail_remainder, gamma0 and trunc_mean_dev by the alpha = 1 bounds.
    Like every law here, sample() returns an array the caller owns (a copy
    of the sampler's, or the caller's own `out`), so callers may work in it
    in place.
    """

    def __init__(self, sampler, alpha, c0_plus, c0_minus, gamma0=None,
                 rbar=None, abs_tail=None, trunc_mean_dev=None):
        if not 0.0 < alpha < 2.0:
            raise ValueError("alpha must lie in (0, 2)")
        if not (c0_plus >= 0 and c0_minus >= 0 and 0 < c0_plus + c0_minus < math.inf):
            raise ValueError("need c0_plus, c0_minus >= 0 with c0_plus + c0_minus finite and > 0")
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

    def sample(self, rng, size=None, out=None):
        """A float for size None, else `size` draws of the sampler, copied
        into `out` and returned when it is given."""
        scalar = size is None
        x = np.array(self._sampler(rng, 1 if scalar else size), dtype=float)
        if scalar:
            return float(x.ravel()[0])
        if out is None:
            return x
        _draw_buffer(size, out)[...] = x
        return out

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


def tail_profile(law) -> TailProfile:
    """Assemble (c0, K0, K1, Rbar) for the finite-n deviation bounds.

    K1 follows the alpha split: K0^2/(1-alpha)^2 below 1,
    K0^2 alpha^2/(alpha-1)^2 above 1, and
    (gamma0 + sup_R |truncated mean - gamma0|)^2 at alpha = 1.
    """
    c0 = law.c0_plus + law.c0_minus
    try:
        r_sup = float(law.envelope(0.0))
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
