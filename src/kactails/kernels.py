"""Collision kernels: samplable laws of a non-negative pair (L, R).

The spectral data of a kernel,

    Q(s)  = E[L^s + R^s] - 1        (convention 0^0 = 0)
    mu(s) = Q(s) / s                (s > 0),

drive everything downstream: mu(alpha) is the self-similar rescaling rate,
and the relative position of mu(2*alpha) versus mu(alpha), together with
the sign of 2*Q(alpha) + 1, selects the growth function h(t) that an
admissible threshold schedule x_t must outpace.

Kernels are immutable after construction and safe to share across workers;
`sample(rng, size)` draws arrays from a caller-provided numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_SQRT_PI = math.sqrt(math.pi)
_HALF_PI = 0.5 * math.pi

# case-id values for Regime.  The slug encodes the position of mu(2a)
# relative to mu(a) ("down" = strictly smaller, "up" = strictly larger,
# "flat" = equal within tolerance) and the position of 2*Q(a) relative
# to -1 where it matters.
CASE_UNRESTRICTED = "unrestricted"
CASE_DOWN_CRITICAL = "mu-down-critical"    # mu(2a) < mu(a), 2Q(a) = -1  -> h(t) = t
CASE_DOWN_STEEP = "mu-down-steep"          # mu(2a) < mu(a), 2Q(a) < -1  -> exp(-(2Q(a)+1) t)
CASE_UP = "mu-up"                          # mu(2a) > mu(a)              -> exp((Q(2a)-2Q(a)) t)
CASE_FLAT_POSITIVE = "mu-flat-positive"    # mu(2a) = mu(a), Q(a) > 0    -> exp(eta t)
CASE_FLAT_STEEP = "mu-flat-steep"          # mu(2a) = mu(a), 2Q(a) < -1  -> t exp(-(2Q(a)+1) t)
CASE_FLAT_CRITICAL = "mu-flat-critical"    # mu(2a) = mu(a), 2Q(a) = -1  -> t^2
CASE_FLAT_MODERATE = "mu-flat-moderate"    # mu(2a) = mu(a), -1 < 2Q(a) <= 0 -> t


class RegimeUnavailableError(ValueError):
    """Q(2*alpha) is infinite, so no tail-regime classification exists."""


class CollisionKernel:
    """Base interface.  Concrete kernels implement sample() and pair_moment()."""

    kind = "abstract"

    def sample(self, rng: np.random.Generator, size: int):
        """Draw `size` pairs (L, R) as two new float arrays that the caller
        may overwrite; a single draw is size 1."""
        raise NotImplementedError

    def pair_moment(self, s: float) -> float | None:
        """E[L^s + R^s] in closed form, or None when unavailable."""
        return None


@dataclass(frozen=True)
class DeterministicKernel(CollisionKernel):
    """Degenerate kernel: (L, R) = (l, r) on every draw."""

    l: float
    r: float
    kind = "deterministic"

    def __post_init__(self):
        if self.l < 0 or self.r < 0:
            raise ValueError("collision coefficients must be non-negative")
        if not (self.l > 0 and self.r > 0):
            # standing assumption P{L>0} + P{R>0} > 1
            raise ValueError("deterministic kernel needs l > 0 and r > 0")

    def sample(self, rng, size):
        return np.full(size, self.l), np.full(size, self.r)

    def pair_moment(self, s):
        return self.l ** s + self.r ** s


@dataclass(frozen=True)
class KacKernel(CollisionKernel):
    """(L, R) = (|sin(theta)|, |cos(theta)|) with theta uniform on [0, 2*pi).

    Sampled as arrays L = sin(phi), R = sqrt(1 - L^2) with phi = (pi/2) u
    and u uniform on [0, 1).  Folding theta into the first quadrant by the
    symmetries of |sin| and |cos| maps the uniform law on [0, 2*pi) onto
    the uniform law on [0, pi/2), where cos = sqrt(1 - sin^2), so the pair
    has the same law at one transcendental call per draw.  Each draw
    consumes one double from the stream.  Near phi = pi/2, R carries an
    absolute error of ~1e-8 and can come out as exactly 0 (probability
    ~1e-8 per draw), which the kernel contract allows.  The law keeps
    L^2 + R^2 = 1, so Q(2) = 0 exactly; draws meet it up to rounding.
    """

    kind = "kac"

    def sample(self, rng, size):
        u = rng.random(size)
        u *= _HALF_PI
        l = np.sin(u, out=u)
        r = np.multiply(l, l)
        np.subtract(1.0, r, out=r)
        np.sqrt(r, out=r)
        return l, r

    def pair_moment(self, s):
        if s == 2.0:
            return 1.0  # L^2 + R^2 = 1 on every draw
        # E|sin|^s = E|cos|^s = Gamma((s+1)/2) / (sqrt(pi) Gamma(s/2 + 1))
        return 2.0 * math.gamma((s + 1.0) / 2.0) / (_SQRT_PI * math.gamma(s / 2.0 + 1.0))


@dataclass(frozen=True)
class DiscreteKernel(CollisionKernel):
    """Finite mixture of deterministic pairs: P{(L,R) = atoms[i]} = probs[i]."""

    atoms: tuple[tuple[float, float], ...]
    probs: tuple[float, ...]
    kind = "discrete-mixture"

    def __post_init__(self):
        atoms = tuple((float(l), float(r)) for l, r in self.atoms)
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)
        if len(atoms) != len(probs) or not atoms:
            raise ValueError("atoms and probs must be non-empty and of equal length")
        if any(p <= 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("probabilities must be positive and sum to 1")
        if any(l < 0 or r < 0 for l, r in atoms):
            raise ValueError("collision coefficients must be non-negative")
        p_l = sum(p for (l, _), p in zip(atoms, probs) if l > 0)
        p_r = sum(p for (_, r), p in zip(atoms, probs) if r > 0)
        if not p_l + p_r > 1.0:
            raise ValueError("kernel must satisfy P{L>0} + P{R>0} > 1")
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        ls = np.array([l for l, _ in atoms])
        rs = np.array([r for _, r in atoms])
        object.__setattr__(self, "_cum", cum)
        object.__setattr__(self, "_ls", ls)
        object.__setattr__(self, "_rs", rs)

    def sample(self, rng, size):
        idx = np.searchsorted(self._cum, rng.random(size), side="right")
        return self._ls[idx], self._rs[idx]

    def pair_moment(self, s):
        # 0^s = 0 for s > 0, matching the 0^0 = 0 convention as s -> 0
        return float(sum(p * (l ** s + r ** s) for (l, r), p in zip(self.atoms, self.probs)))


class UserKernel(CollisionKernel):
    """Caller-supplied sampler, with an optional closed-form pair moment.

    The sampler must accept (rng, size) and return a pair of non-negative
    arrays; the standing assumption P{L>0} + P{R>0} > 1 is the caller's
    responsibility.
    """

    kind = "user"

    def __init__(self, sampler: Callable, moment: Callable[[float], float] | None = None):
        self._sampler = sampler
        self._moment = moment

    def sample(self, rng, size):
        l, r = self._sampler(rng, size)
        return np.array(l, dtype=float), np.array(r, dtype=float)

    def pair_moment(self, s):
        return None if self._moment is None else float(self._moment(s))


@dataclass(frozen=True)
class SpectralReport:
    s: float
    Q_s: float
    mu_s: float
    method: str          # "closed-form" | "monte-carlo"
    std_error: float


def spectral(kernel, s, budget=None, rng=None) -> SpectralReport:
    """Estimate Q(s) = E[L^s + R^s] - 1 and mu(s) = Q(s)/s.

    Uses the kernel's closed form when it has one, and Monte Carlo
    otherwise.  Monte Carlo requires an rng and a budget of at least 1000
    draws and flags a diverging moment (heavy single-draw dominance) as
    Q_s = +inf.
    """
    if s <= 0:
        raise ValueError("spectral data defined for s > 0 only")
    m = kernel.pair_moment(s)
    if m is not None:
        q = m - 1.0
        return SpectralReport(s, q, q / s, "closed-form", 0.0)

    if rng is None:
        raise ValueError("monte-carlo spectral estimation needs an rng")
    n = int(budget) if budget else 100_000
    if n < 1000:
        raise ValueError("monte-carlo spectral budget must be >= 1000")
    L, R = kernel.sample(rng, n)
    vals = L ** s + R ** s
    total = float(vals.sum())
    if not np.isfinite(total) or (total > 0 and float(vals.max()) > 0.5 * total):
        # a single draw carrying most of the mass is the signature of an
        # infinite moment at this sample size
        return SpectralReport(s, math.inf, math.inf, "monte-carlo", math.inf)
    q = total / n - 1.0
    se = float(vals.std(ddof=1)) / math.sqrt(n)
    return SpectralReport(s, q, q / s, "monte-carlo", se)


@dataclass(frozen=True)
class Regime:
    """Spectral classification of (kernel, alpha) for threshold schedules."""

    alpha: float
    S_alpha: float
    S_2alpha: float
    mu_alpha: float
    mu_2alpha: float
    case_id: str
    eta: float = 0.1
    tol: float = 1e-9


def classify_regime(kernel, alpha, eta=0.1, tol=1e-9, rng=None, budget=200_000) -> Regime:
    """Compute Q(alpha), Q(2*alpha) and pick the matching case-id.

    Equality comparisons (mu(2a) = mu(a), 2Q(a) in {-1, 0}) are resolved
    within the relative tolerance `tol`.  Raises RegimeUnavailableError
    when Q(alpha) or Q(2*alpha) is infinite or overflows a float, or when
    Q(alpha) underflows to -1.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    if eta <= 0:
        raise ValueError("eta must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    try:
        s_a = spectral(kernel, alpha, budget=budget, rng=rng).Q_s
        s_2a = spectral(kernel, 2.0 * alpha, budget=budget, rng=rng).Q_s
    except OverflowError:  # a closed-form moment past the float range
        s_a = s_2a = math.inf
    if not math.isfinite(s_2a) or not math.isfinite(s_a):
        raise RegimeUnavailableError(
            f"Q({2 * alpha:g}) is not finite; no regime classification applies"
        )
    if s_a <= -1.0:  # E[L^a + R^a] > 0 for every kernel, unless it underflows
        raise RegimeUnavailableError(
            f"Q({alpha:g}) = -1: the kernel's moments underflow; no regime classification applies"
        )
    mu_a = s_a / alpha
    mu_2a = s_2a / (2.0 * alpha)

    def close(x, y):
        return abs(x - y) <= tol * max(1.0, abs(x), abs(y))

    two_s = 2.0 * s_a
    if close(mu_2a, mu_a):
        if s_a > 0 and not close(s_a, 0.0):
            case = CASE_FLAT_POSITIVE
        elif close(two_s, -1.0):
            case = CASE_FLAT_CRITICAL
        elif two_s < -1.0:
            case = CASE_FLAT_STEEP
        else:
            case = CASE_FLAT_MODERATE
    elif mu_2a > mu_a:
        case = CASE_UP
    elif close(two_s, -1.0):
        case = CASE_DOWN_CRITICAL
    elif two_s < -1.0:
        case = CASE_DOWN_STEEP
    else:
        case = CASE_UNRESTRICTED
    return Regime(alpha, s_a, s_2a, mu_a, mu_2a, case, eta, tol)


def log_h_of_t(regime: Regime, t: float) -> float:
    """log h(t) for the regime's schedule growth function h = exp(log h),
    which is 1 when unrestricted and can overflow a float otherwise."""
    if t < 0:
        raise ValueError("t must be non-negative")
    c = regime.case_id
    if c == CASE_UNRESTRICTED:
        return 0.0
    if c in (CASE_DOWN_CRITICAL, CASE_FLAT_MODERATE):
        return math.log(t) if t > 0 else -math.inf
    if c == CASE_DOWN_STEEP:
        return -(2.0 * regime.S_alpha + 1.0) * t
    if c == CASE_UP:
        # 2*alpha*(mu(2a) - mu(a)) = Q(2a) - 2 Q(a)
        return (regime.S_2alpha - 2.0 * regime.S_alpha) * t
    if c == CASE_FLAT_POSITIVE:
        return regime.eta * t
    if c == CASE_FLAT_STEEP:
        lt = math.log(t) if t > 0 else -math.inf
        return lt - (2.0 * regime.S_alpha + 1.0) * t
    if c == CASE_FLAT_CRITICAL:
        return 2.0 * math.log(t) if t > 0 else -math.inf
    raise ValueError(f"unknown case id {c!r}")
