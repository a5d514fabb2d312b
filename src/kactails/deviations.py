"""Tail-probability estimators, finite-n bounds and schedule checks.

Everything here is plain Monte Carlo.  The chunk primitives
`tail_hit_counts` and `iid_hit_counts` count exceedances over shared
paths or rows (common random numbers, not importance sampling) with one
counter, `lemma_bounds` runs the same row count on rows weighted by b,
and `tail_ratios` turns the merged counts into probabilities with
binomial standard errors and the two large-deviation ratios.  The CLI
notes each tail row whose expected hit count N c0 / x^a falls below 20.

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

`sandwich` evaluates the four bounds from the law's c0, K0, K1 and
envelope Rbar and refuses any that is not finite; `lemma_bounds` pairs
them with Monte Carlo estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .initial_data import power_or_inf
from .kernels import CASE_UNRESTRICTED, log_h_of_t, rescale_factor
from .processes import forest_statistics, law_sums

# Elements per i.i.d. row block: 1 MB of doubles, so a block is drawn,
# summed and maximised while it sits in a core's L2 cache.  On a 2-core
# host with 2 MB of L2 per core, 2^16, 2^17 and 2^18 ran within noise of
# each other, and 2^22 (a 33.5 MB block) took 1.2-1.4x the time per
# draw and 31 MB more peak memory.
_ROW_BUDGET = 1 << 17


@dataclass(frozen=True)
class BoundsReport:
    n: int
    x: float
    epsilon: float
    gamma: float
    lower: float
    upper: float
    max_lower: float
    max_upper: float
    mc: float
    mc_se: float
    max_mc: float
    max_mc_se: float
    delta_hat: float


def binom_se(p, n):
    """Binomial standard error of a proportion p over n trials."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def tail_ratios(law, xs, n, hits, hits_max):
    """(p, se, p_max, se_max, ratio_paper, ratio_max) at each x.

    hits[i] and hits_max[i] count {|S| > x_i} and {max > x_i} over the
    same n paths or rows, as `tail_hit_counts` and `iid_hit_counts` give
    them.  ratio_paper is x^a p / c0 and ratio_max is p / p_max (NaN
    without a max hit); both tend to 1 in the large-deviation regime.
    """
    alpha, c0 = law.alpha, law.c0
    out = []
    for x, h, hm in zip(xs, hits, hits_max):
        p = h / n
        p_max = hm / n
        out.append((p, binom_se(p, n), p_max, binom_se(p_max, n),
                    x ** alpha * p / c0, p / p_max if hm > 0 else math.nan))
    return out


def tail_hit_counts(kernel, law, t, xs, n_paths, rng):
    """Counts of e^(-mu(alpha) t) (|V_t|, H_t) > x, with the kernel's mu(alpha).

    All x thresholds and the V/H pair share the same paths (common random
    numbers), so x -> hits is non-increasing by construction.  This is the
    mergeable chunk primitive: counts from disjoint path blocks add
    associatively.
    """
    f = rescale_factor(kernel, law.alpha, t)
    v, h = forest_statistics(kernel, t, n_paths, rng, law_sums(law)).stats
    return _exceedances(np.abs(v) * f, xs), _exceedances(h * f, xs)


def _exceedances(values, thresholds):
    """#{values > x} at each threshold x, as int64."""
    return np.array([(values > x).sum() for x in thresholds], dtype=np.int64)


def admissible_schedule(regime, epsilon, t, x_t):
    """Check the growth condition x_t^(alpha-eps) / h(t) -> infinity.

    `t` is a grid of times (at least four points, increasing, positive)
    and `x_t` either a callable evaluated on it or an aligned array, whose
    values must be finite.  In the unrestricted regime any schedule passes.  Otherwise the witness
    w(t) = (alpha-eps) log x_t - log h(t) must be strictly increasing over
    the second half of the grid and gain more than log 1.5 there; a
    heuristic, but one that separates exponent races from polynomial
    losers on the default grids.
    """
    if not 0 < epsilon < regime.alpha:
        raise ValueError("epsilon must lie in (0, alpha)")
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size < 4 or not (np.all(np.diff(t) > 0) and t[0] > 0):
        raise ValueError("t must be an increasing positive grid with >= 4 points")
    xs = np.asarray([x_t(v) for v in t], dtype=float) if callable(x_t) \
        else np.asarray(x_t, dtype=float)
    if xs.shape != t.shape or not np.isfinite(xs).all():
        raise ValueError("x_t values must be finite and align with the t grid")
    if regime.case_id == CASE_UNRESTRICTED:
        return "unrestricted"
    if np.any(xs <= 0):
        return "inadmissible"
    logw = (regime.alpha - epsilon) * np.log(xs) \
        - np.array([log_h_of_t(regime, v) for v in t])
    half = t.size // 2
    tail = logw[half:]
    if np.all(np.diff(tail) > 0) and tail[-1] - tail[0] > math.log(1.5):
        return "admissible"
    return "inadmissible"


def _row_blocks(law, n, n_rows, rng):
    """n_rows i.i.d. rows of length n, drawn from rng in (m, n) blocks of
    _ROW_BUDGET // n rows (at least one); the last block holds what is
    left.  Every block is a view of one buffer that the next block
    overwrites.  Each block is one `law.sample` call, so a law whose draws
    concatenate (SymmetricPareto) gives the same rows at any block height,
    while AsymmetricPareto, which draws all of a call's sign uniforms
    first, gives other rows of the same law."""
    block = max(1, _ROW_BUDGET // max(n, 1))
    buf = np.empty(min(block, n_rows) * n)
    for done in range(0, n_rows, block):
        m = min(block, n_rows - done)
        yield law.sample(rng, m * n, out=buf[:m * n]).reshape(m, n)


def _row_hits(rows, thresholds):
    """int64 counts of {|row sum| > x} and {max |entry| > x} at each
    threshold x, over the (m, n) row blocks `rows`."""
    hits_sum = hits_max = np.zeros(len(thresholds), dtype=np.int64)
    for x in rows:
        hits_sum = hits_sum + _exceedances(np.abs(x.sum(axis=1)), thresholds)
        hits_max = hits_max + _exceedances(np.maximum(x.max(axis=1), -x.min(axis=1)),
                                           thresholds)
    return hits_sum, hits_max


def iid_hit_counts(law, n, thresholds, n_rows, rng):
    """Counts of {|sum| > thr} and {max |X| > thr} over n_rows i.i.d. rows.

    All thresholds share the same draws (common random numbers); counts
    from disjoint row blocks merge by addition.
    """
    return _row_hits(_row_blocks(law, n, n_rows, rng), np.asarray(thresholds, dtype=float))


def sandwich(b, law, x, epsilon, gamma, delta):
    """(lower, upper, max_lower, max_upper) of the finite-n bounds at
    x > 0, 0 < epsilon < 1 and gamma > 0, with delta the estimate of
    Delta(eps x).

    One ValueError lists every problem and names the config field at
    fault: B^2, or the largest |draw| times sum_j b_j + b(n), which bounds
    the Monte Carlo sums (`b`), K0^2 or K1 (`initial`) not finite, or a
    power x^e of the bound terms not finite and nonzero (`xs`); when those are all
    fine, K0^2 B^2 or K1 B^2 (`b and initial`) or a bound (`xs`) not
    finite.  The lower bound is delta A - C with C >= 0: when it is finite
    at delta = 1, so are A and C, and so it is at every delta in [0, 1].
    """
    a, c0, k0, k1, rbar = law.alpha, law.c0, law.K0, law.K1, law.envelope
    b_max = float(b.max())
    with np.errstate(over="ignore"):
        b_sum = float((b ** a).sum())
        # bounds |S_n| + b(n) |X_1| and every partial sum of the Monte Carlo rows
        mc_top = law.max_abs_draw * (float(b.sum()) + b_max)
    b2, k0_2 = power_or_inf(b_sum, 2), power_or_inf(k0, 2)
    at = f"at alpha = {a:g}"
    errors = [f"{field}: {name} = {value!r} {at}; the bounds need it finite"
              for field, name, value in (
                  ("b", f"B^2 (B = sum_j b_j^alpha = {b_sum!r})", b2),
                  ("initial", "K0^2", k0_2), ("initial", "K1", k1))
              if not math.isfinite(value)]
    if not math.isfinite(mc_top):
        errors.append(f"b: (largest |draw| = {law.max_abs_draw!r}) * (sum_j b_j + max_j b_j) "
                      f"= {mc_top!r}; the Monte Carlo sums need it finite")
    at += f", gamma = {gamma:g}"
    powers = {name: power_or_inf(x, e) for name, e in (
        ("alpha", a), ("(2 - alpha)(1 - gamma)", (2 - a) * (1 - gamma)),
        ("alpha (2 gamma - 1)", a * (2 * gamma - 1)),
        ("2 - alpha + 2 (alpha - 1) gamma", 2 - a + 2 * (a - 1) * gamma))}
    errors += [f"xs: x = {x!r} gives x^({name}) = {value!r} {at}; "
               "the bounds need it finite and nonzero"
               for name, value in powers.items() if not 0 < value < math.inf]
    if not errors:
        errors = [f"b and initial: {name} = {value!r} {at}; the bounds need it finite"
                  for name, value in (("K0^2 B^2", k0_2 * b2), ("K1 B^2", k1 * b2))
                  if not math.isfinite(value)]
    if errors:
        raise ValueError("\n".join(errors))
    xa, x1, x2, x3 = powers.values()
    # a NumPy scalar, so that a denominator that underflows to 0 gives an
    # infinite bound rather than a ZeroDivisionError
    eps2 = np.float64(epsilon ** 2)
    with np.errstate(all="ignore"):
        bounds = {
            "lower": (delta * c0 * (1.0 - float(rbar(x * (1.0 + epsilon) / b_max)))
                      * b_sum / (1.0 + epsilon) ** a
                      - k0_2 * b2 / (xa * (1.0 + epsilon) ** (2 * a))),
            "upper": ((c0 * (1.0 + float(rbar(x * (1.0 - epsilon) / b_max)))
                       / (1.0 - epsilon) ** a
                       + 2.0 * k0 / (eps2 * (2.0 - a) * x1)) * b_sum
                      + (k0_2 / x2 + k1 / (eps2 * x3)) * b2),
            "max_lower": c0 * b_sum * (1.0 - float(rbar(x / b_max))) - k0_2 * b2 / xa,
            "max_upper": c0 * b_sum * (1.0 + float(rbar(x / b_max))),
        }
    bad = [f"{name} = {float(value)!r}" for name, value in bounds.items()
           if not math.isfinite(value)]
    if bad:
        raise ValueError(f"xs: x = {x!r} gives {', '.join(bad)} {at}; "
                         "the bounds need them finite")
    return tuple(float(value) for value in bounds.values())


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
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if not x > 0:
        raise ValueError("x must be positive")
    sandwich(b, law, x, epsilon, gamma, 1.0)  # raises before any draw
    N = int(N)

    # independent batch for Delta(eps x) = P{|S_n| + b(n)|X_1| <= eps x}
    b_max, hits = float(b.max()), 0
    for xv in _row_blocks(law, b.size, N, rng):
        lead = b_max * np.abs(xv[:, 0])
        s = np.multiply(xv, b, out=xv).sum(axis=1)
        hits += int((np.abs(s) + lead <= epsilon * x).sum())
    delta_hat = hits / N
    lower, upper, max_lower, max_upper = sandwich(b, law, x, epsilon, gamma, delta_hat)

    # rows weighted in place: max_j |b_j X_j| = max_j b_j |X_j| exactly, as b >= 0
    weighted = (np.multiply(xv, b, out=xv) for xv in _row_blocks(law, b.size, N, rng))
    p_sum, p_max = (int(h[0]) / N for h in _row_hits(weighted, (x,)))
    a = law.alpha
    return BoundsReport(
        n=b.size, x=float(x), epsilon=float(epsilon), gamma=float(gamma),
        lower=lower, upper=upper, max_lower=max_lower, max_upper=max_upper,
        mc=x ** a * p_sum, mc_se=x ** a * binom_se(p_sum, N),
        max_mc=x ** a * p_max, max_mc_se=x ** a * binom_se(p_max, N),
        delta_hat=delta_hat,
    )


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
    if not (math.isfinite(x) and x != 0):
        raise ValueError("x must be finite and nonzero")
    N = int(N)
    h_t = np.sort(forest_statistics(kernel, t, N, rng, law_sums(law)).stats[1])
    h_td = forest_statistics(kernel, t + delta, N, rng, law_sums(law)).stats[1]

    def ecdf_t(q):
        return np.searchsorted(h_t, q, side="right") / N

    f_t = float(ecdf_t(x))
    f_td = float((h_td <= x).sum() / N)
    lk, rk = kernel.sample(rng, N)
    with np.errstate(divide="ignore"):  # x / 0 = +-inf, where ecdf_t is 1 or 0
        prod = ecdf_t(x / lk) * ecdf_t(x / rk)
    gain = float(prod.mean())
    residual = (f_td - f_t) / delta + f_t - gain
    se = math.sqrt(
        binom_se(f_td, N) ** 2 / delta ** 2
        + binom_se(f_t, N) ** 2 * (1.0 - 1.0 / delta) ** 2
        + float(prod.var(ddof=1)) / N
    )
    return residual, se
