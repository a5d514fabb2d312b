"""Tail-probability estimators, finite-n bounds and schedule checks.

Everything here is plain Monte Carlo with binomial standard errors and a
minimum-expected-hits guard (N * p >= 20) flagged on each estimate; rare
tails get common random numbers rather than importance sampling.

The finite-n sandwich for S_n = sum_j b_j X_j, valid for every x > 0,
0 < eps < 1 and gamma > 0 under the tail hypotheses on F_0, reads

  x^a P{|S_n| > x} >= Delta(eps x) c0 (1 - Rbar(x(1+eps)/b(n))) B / (1+eps)^a
                      - K0^2 B^2 / (x^a (1+eps)^{2a})
  x^a P{|S_n| > x} <= [c0 (1 + Rbar(x(1-eps)/b(n))) / (1-eps)^a
                      + 2 K0 / (eps^2 (2-a) x^{(2-a)(1-gamma)})] B
                      + [K0^2 / x^{a(2gamma-1)}
                      + K1 / (eps^2 x^{2-a+2(a-1)gamma})] B^2

with B = sum_j b_j^a, b(n) = max_j b_j, and
Delta(y) = P{|S_n| + b(n)|X_1| <= y}, estimated from an independent
sample batch.  The max analogue is

  c0 B (1 - Rbar(x/b(n))) - K0^2 B^2 / x^a
      <= x^a P{max_j |b_j X_j| > x} <= c0 B (1 + Rbar(x/b(n))).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .initial_data import tail_profile
from .kernels import CASE_UNRESTRICTED, classify_regime, log_h_of_t, spectral
from .processes import forest_statistics

_ROW_BUDGET = 1 << 22  # elements per i.i.d. sampling block


class AdmissibilityWarning(UserWarning):
    """The regime restricts threshold schedules; a single t cannot certify one."""


@dataclass(frozen=True)
class TailEstimate:
    t: float
    x: float
    N: int
    hits_V: int
    hits_H: int
    p_V: float
    p_H: float
    se_V: float
    se_H: float
    ratio_paper: float
    ratio_max: float
    low_precision: bool


@dataclass(frozen=True)
class BoundsReport:
    n: int
    b: np.ndarray
    x: float
    epsilon: float
    gamma: float
    lower: float
    upper: float
    max_lower: float
    max_upper: float
    mc_estimate: float
    mc_se: float
    max_mc: float
    max_mc_se: float
    delta_hat: float


@dataclass(frozen=True)
class BaselineEstimate:
    n: int
    x: float
    N: int
    p_sum: float
    se_sum: float
    p_max: float
    se_max: float
    ratio_paper: float
    ratio_max: float


def _binom_se(p, n):
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def estimate_tail(kernel, law, t, xs, N, rng) -> list[TailEstimate]:
    """Single-pass tail estimates of rescaled |V_t| and H_t at each x.

    All x thresholds and the V/H pair share the same N paths (common
    random numbers), so x -> hits is non-increasing by construction and
    the ratio p_V/p_H has reduced variance.  Attaches a low-precision
    flag when the expected hit count N c0 / x^a falls below 20.
    """
    xs = [float(x) for x in xs]
    if any(x <= 0 for x in xs):
        raise ValueError("thresholds must be positive")
    N = int(N)
    if N < 10_000:
        raise ValueError("tail estimation needs N >= 1e4")
    alpha = law.alpha
    mu = spectral(kernel, alpha, rng=rng).mu_s
    c0 = law.c0_plus + law.c0_minus
    try:
        regime = classify_regime(kernel, alpha, rng=rng)
        if regime.case_id != CASE_UNRESTRICTED:
            warnings.warn(
                f"regime {regime.case_id!r} restricts admissible schedules; "
                "verify x_t with admissible_schedule",
                AdmissibilityWarning,
                stacklevel=2,
            )
    except ValueError:
        warnings.warn("regime classification unavailable for this kernel",
                      AdmissibilityWarning, stacklevel=2)

    hits_v, hits_h = tail_hit_counts(kernel, law, t, mu, xs, N, rng)
    return assemble_tail_estimates(t, xs, N, hits_v, hits_h, alpha, c0)


def tail_hit_counts(kernel, law, t, mu_alpha, xs, n_paths, rng):
    """Exceedance counts of (rescaled |V|, rescaled H) over shared paths.

    This is the mergeable chunk primitive: counts from disjoint path
    blocks add associatively.
    """
    stats = forest_statistics(kernel, t, n_paths, rng, law=law)
    f = math.exp(-mu_alpha * t)
    av = np.abs(stats.V) * f
    ah = stats.H * f
    hits_v = np.array([(av > x).sum() for x in xs], dtype=np.int64)
    hits_h = np.array([(ah > x).sum() for x in xs], dtype=np.int64)
    return hits_v, hits_h


def assemble_tail_estimates(t, xs, N, hits_v, hits_h, alpha, c0):
    out = []
    for x, hv, hh in zip(xs, hits_v, hits_h):
        p_v = hv / N
        p_h = hh / N
        se_v = _binom_se(p_v, N)
        se_h = _binom_se(p_h, N)
        ratio_paper = x ** alpha * p_v / c0
        ratio_max = p_v / p_h if hh > 0 else math.nan
        out.append(TailEstimate(
            t=float(t), x=float(x), N=int(N), hits_V=int(hv), hits_H=int(hh),
            p_V=p_v, p_H=p_h, se_V=se_v, se_H=se_h,
            ratio_paper=ratio_paper, ratio_max=ratio_max,
            low_precision=(N * c0 / x ** alpha < 20),
        ))
    return out


def admissible_schedule(regime, epsilon, t, x_t, growth_factor=1.5):
    """Check the growth condition x_t^(alpha-eps) / h(t) -> infinity.

    `t` is a grid of times (at least two points, increasing, positive) and
    `x_t` either a callable evaluated on it or an aligned array.  In the
    unrestricted regime any schedule passes.  Otherwise the witness
    w(t) = (alpha-eps) log x_t - log h(t) must be strictly increasing over
    the second half of the grid and gain at least log(growth_factor)
    there; a heuristic, but one that separates exponent races from
    polynomial losers on the default grids.
    """
    if epsilon <= 0 or epsilon >= regime.alpha:
        raise ValueError("epsilon must lie in (0, alpha)")
    if regime.case_id == CASE_UNRESTRICTED:
        return "unrestricted"
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size < 4 or np.any(np.diff(t) <= 0) or t[0] <= 0:
        raise ValueError("t must be an increasing positive grid with >= 4 points")
    xs = np.asarray([x_t(v) for v in t], dtype=float) if callable(x_t) \
        else np.asarray(x_t, dtype=float)
    if xs.shape != t.shape:
        raise ValueError("x_t values must align with the t grid")
    if np.any(xs <= 0):
        return "inadmissible"
    logw = (regime.alpha - epsilon) * np.log(xs) \
        - np.array([log_h_of_t(regime, v) for v in t])
    half = t.size // 2
    tail = logw[half:]
    if np.all(np.diff(tail) > 0) and tail[-1] - tail[0] > math.log(growth_factor):
        return "admissible"
    return "inadmissible"


def _iid_block_rows(n):
    return max(1, _ROW_BUDGET // max(n, 1))


def _row_blocks(law, n, n_rows, rng):
    """n_rows i.i.d. rows of length n, drawn from rng in (m, n) blocks of
    _iid_block_rows(n) rows, the last one partial.  Every block is a view
    of one buffer that the next block overwrites."""
    block = _iid_block_rows(n)
    buf = np.empty(min(block, n_rows) * n)
    done = 0
    while done < n_rows:
        m = min(block, n_rows - done)
        yield law.sample(rng, m * n, out=buf[:m * n]).reshape(m, n)
        done += m


def iid_baseline(law, n, x, N, rng) -> BaselineEstimate:
    """Tail ratios for the plain i.i.d. sum at the stable scaling n^(1/a).

    Estimates P{|n^(-1/a) sum X_i| > x} and P{n^(-1/a) max |X_j| > x}
    from the same draws and reports x^a p_sum / c0 and p_sum / p_max.
    """
    n = int(n)
    N = int(N)
    alpha = law.alpha
    c0 = law.c0_plus + law.c0_minus
    threshold = x * n ** (1.0 / alpha)
    hits_sum, hits_max = iid_hit_counts(law, n, [threshold], N, rng)
    return assemble_baseline_estimates(n, [x], N, hits_sum, hits_max, alpha, c0)[0]


def assemble_baseline_estimates(n, xs, N, hits_sum, hits_max, alpha, c0):
    out = []
    for x, hs, hm in zip(xs, hits_sum, hits_max):
        p_sum = hs / N
        p_max = hm / N
        out.append(BaselineEstimate(
            n=int(n), x=float(x), N=int(N),
            p_sum=p_sum, se_sum=_binom_se(p_sum, N),
            p_max=p_max, se_max=_binom_se(p_max, N),
            ratio_paper=x ** alpha * p_sum / c0,
            ratio_max=p_sum / p_max if hm > 0 else math.nan,
        ))
    return out


def iid_hit_counts(law, n, thresholds, n_rows, rng):
    """Counts of {|sum| > thr} and {max |X| > thr} over n_rows i.i.d. rows.

    All thresholds share the same draws (common random numbers); counts
    from disjoint row blocks merge by addition.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    hits_sum = np.zeros(thresholds.size, dtype=np.int64)
    hits_max = np.zeros(thresholds.size, dtype=np.int64)
    for x in _row_blocks(law, n, n_rows, rng):
        s = np.abs(x.sum(axis=1))
        a = np.maximum(x.max(axis=1), -x.min(axis=1))
        for i, thr in enumerate(thresholds):
            hits_sum[i] += int((s > thr).sum())
            hits_max[i] += int((a > thr).sum())
    return hits_sum, hits_max


def lemma_bounds(b, law, x, epsilon, gamma, N, rng) -> BoundsReport:
    """Evaluate the finite-n sandwich and an independent MC estimate.

    The Delta factor of the lower bound is estimated from its own batch
    of N samples (correlation with the main estimate would bias the
    bracket); the main batch supplies x^a P{|S_n| > x} and the max-process
    probability from shared draws.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.size == 0 or np.any(b < 0) or not np.any(b > 0):
        raise ValueError("b must be a non-negative weight vector with some mass")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if x <= 0:
        raise ValueError("x must be positive")
    n = b.size
    N = int(N)
    prof = tail_profile(law)
    a = law.alpha
    c0, k0, k1, rbar = prof.c0, prof.K0, prof.K1, prof.rbar
    b_sum = float((b ** a).sum())
    b_max = float(b.max())

    # independent batch for Delta(eps x) = P{|S_n| + b(n)|X_1| <= eps x}
    delta_hat = _delta_factor(law, b, b_max, epsilon * x, N, rng)

    lower = (delta_hat * c0 * (1.0 - float(rbar(x * (1.0 + epsilon) / b_max)))
             * b_sum / (1.0 + epsilon) ** a
             - k0 ** 2 * b_sum ** 2 / (x ** a * (1.0 + epsilon) ** (2 * a)))
    upper = ((c0 * (1.0 + float(rbar(x * (1.0 - epsilon) / b_max)))
              / (1.0 - epsilon) ** a
              + 2.0 * k0 / (epsilon ** 2 * (2.0 - a) * x ** ((2.0 - a) * (1.0 - gamma))))
             * b_sum
             + (k0 ** 2 / x ** (a * (2.0 * gamma - 1.0))
                + k1 / (epsilon ** 2 * x ** (2.0 - a + 2.0 * (a - 1.0) * gamma)))
             * b_sum ** 2)
    max_lower = c0 * b_sum * (1.0 - float(rbar(x / b_max))) - k0 ** 2 * b_sum ** 2 / x ** a
    max_upper = c0 * b_sum * (1.0 + float(rbar(x / b_max)))

    hits_sum, hits_max = _weighted_hit_counts(law, b, x, N, rng)
    p_sum = hits_sum / N
    p_max = hits_max / N
    return BoundsReport(
        n=n, b=b, x=float(x), epsilon=float(epsilon), gamma=float(gamma),
        lower=lower, upper=upper, max_lower=max_lower, max_upper=max_upper,
        mc_estimate=x ** a * p_sum, mc_se=x ** a * _binom_se(p_sum, N),
        max_mc=x ** a * p_max, max_mc_se=x ** a * _binom_se(p_max, N),
        delta_hat=delta_hat,
    )


def _weighted_hit_counts(law, b, x, n_rows, rng):
    hits_sum = 0
    hits_max = 0
    for xv in _row_blocks(law, b.size, n_rows, rng):
        s = xv @ b
        np.abs(xv, out=xv)
        xv *= b
        hits_sum += int((np.abs(s) > x).sum())
        hits_max += int((xv.max(axis=1) > x).sum())
    return hits_sum, hits_max


def _delta_factor(law, b, b_max, y, n_rows, rng):
    hits = 0
    for xv in _row_blocks(law, b.size, n_rows, rng):
        s = xv @ b
        hits += int((np.abs(s) + b_max * np.abs(xv[:, 0]) <= y).sum())
    return hits / n_rows


def max_ode_residual(kernel, law, t, x, delta, N, rng):
    """Finite-difference residual of the max-process kinetic equation.

    residual = [F_{t+d}(x) - F_t(x)] / d + F_t(x) - E[F_t(x/L) F_t(x/R)]
    with F the empirical distribution function of H (N fresh samples per
    time point) and the expectation over N fresh kernel draws using the
    conventions F(x/0) = 1 for x >= 0 and 0 for x < 0.  The reported se
    propagates the binomial errors of the three terms to first order
    (the product-term correlation with F_t(x) is neglected; it averages
    over many evaluation points).
    """
    if not 0.0 < delta <= 0.1:
        raise ValueError("delta must lie in (0, 0.1]")
    if x == 0:
        raise ValueError("x must be nonzero")
    N = int(N)
    h_t = np.sort(forest_statistics(kernel, t, N, rng, law=law).H)
    h_td = forest_statistics(kernel, t + delta, N, rng, law=law).H

    def ecdf_t(q):
        return np.searchsorted(h_t, q, side="right") / N

    f_t = float(ecdf_t(x))
    f_td = float((h_td <= x).sum() / N)
    lk, rk = kernel.sample(rng, N)
    fl = _cdf_with_zero_convention(ecdf_t, x, lk)
    fr = _cdf_with_zero_convention(ecdf_t, x, rk)
    prod = fl * fr
    gain = float(prod.mean())
    residual = (f_td - f_t) / delta + f_t - gain
    se = math.sqrt(
        _binom_se(f_td, N) ** 2 / delta ** 2
        + _binom_se(f_t, N) ** 2 * (1.0 - 1.0 / delta) ** 2
        + float(prod.var(ddof=1)) / N
    )
    return residual, se


def _cdf_with_zero_convention(ecdf, x, coeffs):
    out = np.empty(coeffs.size)
    zero = coeffs == 0.0
    if zero.any():
        out[zero] = 1.0 if x >= 0 else 0.0
    nz = ~zero
    out[nz] = ecdf(x / coeffs[nz])
    return out
