"""Initial laws in the domain of normal attraction of an alpha-stable law.

A law F_0 qualifies when x^alpha * (1 - F_0(x)) -> c0+ and
|x|^alpha * F_0(-x) -> c0- as x -> +/- infinity.  The finite-n deviation
bounds additionally need the exact tail metadata

    R(x)    = x^alpha P{|X| > x} / c0 - 1          (c0 = c0+ + c0-)
    Rbar(x) = sup_{y >= x} |R(y)|                  (non-increasing envelope)
    K0      = c0 (||R||_inf + 1)
    K1      = K0^2 / (1 - alpha)^2 (alpha < 1), K0^2 alpha^2 / (alpha - 1)^2
              (alpha > 1), 0 (alpha = 1)

which every law here provides in closed form, as `c0`, `K0`, `K1` and
`envelope`; tail metadata is never inferred from samples.  The same
constants fix the stable factor S_a of the limit law V_inf = Z^(1/a) S_a:
its scale `stable_scale` and skew `stable_skew`,

    lambda = c0 pi / (2 Gamma(a) sin(pi a / 2)),
    eta    = (c0+ - c0-) / c0,

with eta = 0 at alpha = 1, where every law here is symmetric.

The default test law is the symmetric Pareto with xmin = 1: its tail is
an exact power beyond xmin, so R(x) = 0 for x >= 1 and the deviation
bounds carry no remainder noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# rng.random() can return exactly 0.0; inverse power transforms need (0, 1)
_U_FLOOR = 2.0 ** -53

# Elements per transform block of the Pareto samplers: a block and its
# scratch stay in the L2 cache across the chain of elementwise passes.
# The uniforms are drawn block by block too, which leaves the stream as
# one rng.random(n) call would: the same doubles and the same final state.
_BLOCK = 1 << 14


def power_or_inf(base, e):
    """base ** e for floats, or inf where it leaves the float range or is
    0 to a negative power (Python's ** raises there)."""
    try:
        return base ** e
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _check_tail_constant(xmin, alpha):
    """A ValueError unless xmin and c0 = xmin^alpha, the tail constant of a
    Pareto magnitude on [xmin, inf), are finite and positive floats."""
    c0 = power_or_inf(xmin, alpha)
    if not (0 < xmin < math.inf and 0 < c0 < math.inf):
        raise ValueError(f"xmin = {xmin!r} gives tail constant c0 = xmin^alpha = {c0!r}; "
                         "both must be finite and positive")


def _draw_buffer(size, out):
    """The array a draw of `size` values fills: `out` of shape (size,), or new."""
    if out is None:
        return np.empty(size)
    if out.shape != (size,):
        raise ValueError(f"out has shape {out.shape}; a draw of {size} values needs ({size},)")
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

    `max_abs_draw` is the largest |draw| the sampler can return; a law
    whose largest draw is not finite is refused.
    """

    alpha: float
    c_plus: float
    c_minus: float
    xmin: float | None = None

    _U_MIN = _U_FLOOR  # the smallest uniform sample() raises to -1/alpha

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie in (0, 2)")
        if not (self.c_plus >= 0 and self.c_minus >= 0
                and 0 < self.c_plus + self.c_minus < math.inf):
            raise ValueError("need c_plus, c_minus >= 0 with 0 < c_plus + c_minus < inf")
        if self.alpha == 1.0 and self.c_plus != self.c_minus:
            raise ValueError("alpha = 1 requires c_plus = c_minus")
        xmin = self.xmin
        if xmin is None:
            xmin = power_or_inf(self.c_plus + self.c_minus, 1.0 / self.alpha)
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
        # the largest |draw|: xmin u^(-1/alpha) at the smallest u the sampler
        # raises to that power, plus the shift
        top = power_or_inf(self._U_MIN, -1.0 / self.alpha) * self.xmin + abs(shift)
        object.__setattr__(self, "max_abs_draw", top)
        if not top < math.inf:
            u_min = f"2^{math.log2(self._U_MIN):.0f}"
            raise ValueError(f"alpha = {self.alpha!r} and xmin = {self.xmin!r} give draws up "
                             f"to xmin * ({u_min})^(-1/alpha) + |shift| = inf; "
                             "every draw must be finite")

    @property
    def c0_plus(self):
        return self._p * self.xmin ** self.alpha

    @property
    def c0_minus(self):
        return (1.0 - self._p) * self.xmin ** self.alpha

    @property
    def c0(self):
        return self.c0_plus + self.c0_minus

    @property
    def K0(self):
        return self.c0 * (float(self.envelope(0.0)) + 1.0)

    @property
    def K1(self):
        """inf past the float range; 0 at alpha = 1, where the law is
        symmetric and unshifted, so its truncated means are all 0."""
        a = self.alpha
        if a == 1.0:
            return 0.0
        k0_2 = power_or_inf(self.K0, 2)
        return k0_2 / (1.0 - a) ** 2 if a < 1.0 else k0_2 * a ** 2 / (a - 1.0) ** 2

    @property
    def stable_scale(self):
        a = self.alpha
        return self.c0 * math.pi / (2.0 * math.gamma(a) * math.sin(math.pi * a / 2.0))

    @property
    def stable_skew(self):
        return (self.c0_plus - self.c0_minus) / self.c0

    def sample(self, rng, size, out=None):
        """`size` draws: written into `out` (a float64 array of shape
        (size,)) and returned when it is given, in a new array otherwise."""
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
        return x

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

    def envelope(self, x):
        m = abs(self._shift)
        a = self.alpha
        xmin = self.xmin
        x = np.asarray(x, dtype=float)
        if m == 0.0:
            out = 1.0 - (np.minimum(x, xmin) / xmin) ** a
            return float(out) if out.ndim == 0 else out
        # beyond x_far both shifted tails are pure powers and
        # |R(y)| <= (1 - m/y)^-alpha - 1, which is decreasing in y; below it
        # T(x) <= 1 gives R(x) <= x_far^alpha/c0 - 1, and R >= -1 always
        x_far = xmin + m
        cap = max(1.0, x_far ** a / xmin ** a - 1.0, (1.0 - m / x_far) ** -a - 1.0)
        far = (1.0 - m / np.maximum(x, x_far)) ** -a - 1.0
        out = np.where(x >= x_far, np.minimum(far, cap), cap)
        return float(out) if out.ndim == 0 else out


class SymmetricPareto(AsymmetricPareto):
    """The Pareto law at c+ = c-: |X| Pareto(alpha) on [xmin, inf), a fair
    sign and no shift, so c0+ = c0- = xmin^alpha / 2 and R(x) = 0 beyond
    xmin.  Only the sampler is its own: one uniform per draw."""

    _U_MIN = 2.0 ** -52  # 1 - |v| >= 2^-52, see sample()

    def __init__(self, alpha, xmin=1.0):
        super().__init__(alpha, 0.5, 0.5, xmin)

    def sample(self, rng, size, out=None):
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
        return x

