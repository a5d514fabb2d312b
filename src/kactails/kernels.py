"""Collision kernels: samplable laws of a non-negative pair (L, R).

The spectral data of a kernel,

    Q(s)  = E[L^s + R^s] - 1        (convention 0^0 = 0)
    mu(s) = Q(s) / s                (s > 0),

drive everything downstream: mu(alpha) is the self-similar rescaling rate,
and the relative position of mu(2*alpha) versus mu(alpha), together with
the sign of Q(alpha) where the two are equal, selects the growth function
h(t) that an admissible threshold schedule x_t must outpace.

Kernels are immutable after construction and safe to share across workers;
`sample(rng, size)` draws arrays from a caller-provided numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT_PI = math.sqrt(math.pi)
_QUARTER_PI = 0.25 * math.pi

# case-id values for Regime.  The slug encodes the position of mu(2a)
# relative to mu(a) ("up" = strictly larger, "flat" = equal within TOL)
# and, where they are equal, the sign of Q(a).  Under the standing
# assumption P{L>0} + P{R>0} > 1, Jensen gives 1 + Q(2a) >= (1 + Q(a))^2 / 2
# > 0, so Q(2a) > -1 and neither mu(2a) < mu(a) nor mu(2a) = mu(a) can
# come with 2Q(a) <= -1: these four cases are all there is.
CASE_UNRESTRICTED = "unrestricted"         # mu(2a) < mu(a)              -> 1
CASE_UP = "mu-up"                          # mu(2a) > mu(a)              -> exp((Q(2a)-2Q(a)) t)
CASE_FLAT_POSITIVE = "mu-flat-positive"    # mu(2a) = mu(a), Q(a) > 0    -> exp(ETA t)
CASE_FLAT_MODERATE = "mu-flat-moderate"    # mu(2a) = mu(a), Q(a) <= 0   -> t

ETA = 0.1   # growth rate of h(t) = exp(ETA t) in the mu-flat-positive case
TOL = 1e-9  # relative tolerance of the tests mu(2a) = mu(a) and Q(a) = 0


class RegimeUnavailableError(ValueError):
    """Q(2*alpha) is infinite, so no tail-regime classification exists."""


class CollisionKernel:
    """Base interface.  Concrete kernels implement sample() and pair_moment()."""

    kind = "abstract"

    def sample(self, rng: np.random.Generator, size: int):
        """Draw `size` pairs (L, R) as two new float arrays that the caller
        may overwrite; a single draw is size 1.

        Draws concatenate: sample(rng, m) followed by sample(rng, n)
        returns the same pairs as sample(rng, m + n) and leaves rng in the
        same state."""
        raise NotImplementedError

    def pair_moment(self, s: float) -> float:
        """E[L^s + R^s] in closed form."""
        raise NotImplementedError


@dataclass(frozen=True)
class DeterministicKernel(CollisionKernel):
    """Degenerate kernel: (L, R) = (l, r) on every draw."""

    l: float
    r: float
    kind = "deterministic"

    def __post_init__(self):
        if not (0 <= self.l < math.inf and 0 <= self.r < math.inf):
            raise ValueError("collision coefficients must be finite and non-negative")
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

    Folding theta into the first quadrant by the symmetries of |sin| and
    |cos| maps the uniform law on [0, 2*pi) onto the uniform law of
    phi = (pi/2) u on [0, pi/2), with u uniform on [0, 1).  Sampled in the
    half-angle form: s = tan(phi/2) in [0, 1), g = 2 / (1 + s^2), and
    L = s g = sin(phi), R = g - 1 = cos(phi), so the pair has the same law
    at one tan per draw, which NumPy runs on its SIMD path where the CPU
    has one (its float64 sin runs through scalar libm).  Each draw
    consumes one double from the stream.  L and R are within about 3e-16
    of sin(phi) and cos(phi); 0 <= L <= 1 and R >= 0.  The law keeps
    L^2 + R^2 = 1, so Q(2) = 0 exactly; draws meet it up to rounding.
    """

    kind = "kac"

    def sample(self, rng, size):
        s = rng.random(size)
        s *= _QUARTER_PI
        np.tan(s, out=s)
        g = s * s
        g += 1.0
        np.divide(2.0, g, out=g)
        s *= g
        g -= 1.0
        return s, g

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
        # + 0.0 turns a -0.0 coefficient into 0.0, so x / 0 keeps the sign of x
        atoms = tuple((float(l) + 0.0, float(r) + 0.0) for l, r in self.atoms)
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)
        if len(atoms) != len(probs) or not atoms:
            raise ValueError("atoms and probs must be non-empty and of equal length")
        if not (all(p > 0 for p in probs) and abs(sum(probs) - 1.0) <= 1e-12):
            raise ValueError("probabilities must be positive and sum to 1")
        if not all(0 <= l < math.inf and 0 <= r < math.inf for l, r in atoms):
            raise ValueError("collision coefficients must be finite and non-negative")
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


def spectral(kernel, s) -> float:
    """Q(s) = E[L^s + R^s] - 1 from the kernel's closed-form pair moment;
    mu(s) is Q(s)/s."""
    if not s > 0:
        raise ValueError("spectral data defined for s > 0 only")
    return kernel.pair_moment(s) - 1.0


def rescale_factor(kernel, alpha, t) -> float:
    """e^(-mu(alpha) t), which scales V_t and H_t to their limits; a
    ValueError naming t and the kernel unless it is a finite nonzero float."""
    mu = spectral(kernel, alpha) / alpha
    try:
        f = math.exp(-mu * t)
    except OverflowError:
        f = math.inf
    if not 0.0 < f < math.inf:
        raise ValueError(f"t = {t!r} gives e^(-mu(alpha) t) = {f!r} with mu(alpha) = {mu!r} "
                         f"from the kernel at alpha = {alpha:g}; it must be finite and nonzero")
    return f


@dataclass(frozen=True)
class Regime:
    """Spectral classification of (kernel, alpha) for threshold schedules."""

    alpha: float
    S_alpha: float
    S_2alpha: float
    mu_alpha: float
    mu_2alpha: float
    case_id: str


def classify_regime(kernel, alpha) -> Regime:
    """Compute Q(alpha), Q(2*alpha) and pick the matching case-id.

    Equality comparisons (mu(2a) = mu(a), Q(a) = 0) are resolved within
    the relative tolerance TOL.  Raises RegimeUnavailableError
    when Q(alpha) or Q(2*alpha) is infinite or overflows a float, or when
    Q(alpha) underflows to -1.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    try:
        s_a = spectral(kernel, alpha)
        s_2a = spectral(kernel, 2.0 * alpha)
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
        return abs(x - y) <= TOL * max(1.0, abs(x), abs(y))

    if close(mu_2a, mu_a):
        # Q(a) > 0 by more than TOL
        case = CASE_FLAT_POSITIVE if s_a > TOL else CASE_FLAT_MODERATE
    elif mu_2a > mu_a:
        case = CASE_UP
    else:
        case = CASE_UNRESTRICTED
    return Regime(alpha, s_a, s_2a, mu_a, mu_2a, case)


def log_h_of_t(regime: Regime, t: float) -> float:
    """log h(t) for the regime's schedule growth function h = exp(log h),
    which is 1 when unrestricted and can overflow a float otherwise."""
    if not t >= 0:
        raise ValueError("t must be non-negative")
    c = regime.case_id
    if c == CASE_UNRESTRICTED:
        return 0.0
    if c == CASE_FLAT_MODERATE:
        return math.log(t) if t > 0 else -math.inf
    if c == CASE_UP:
        # 2*alpha*(mu(2a) - mu(a)) = Q(2a) - 2 Q(a)
        return (regime.S_2alpha - 2.0 * regime.S_alpha) * t
    if c == CASE_FLAT_POSITIVE:
        return ETA * t
    raise ValueError(f"unknown case id {c!r}")
