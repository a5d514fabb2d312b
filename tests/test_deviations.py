import math

import numpy as np
import pytest

import kactails as kt
from kactails.kernels import CASE_UP, Regime, rescale_factor

from stable_reference import stable_abs_tail_ratio

S1_KAC = 4.0 / math.pi - 1.0


def rng(seed=0):
    return np.random.default_rng(seed)


def det_kernel(a=1.5):
    return kt.DeterministicKernel(2 ** (-1 / a), 2 ** (-1 / a))


def tail_estimates(kernel, law, t, xs, n_paths, g):
    """(hits_V, hits_H, tail_ratios rows) of rescaled |V_t| and H_t at each x."""
    hits_v, hits_h = kt.tail_hit_counts(kernel, law, t, xs, n_paths, g)
    return hits_v, hits_h, kt.tail_ratios(law, xs, n_paths, hits_v, hits_h)


def test_tail_hit_counts_refuses_a_rescale_factor_out_of_the_float_range():
    # mu(0.5) = 2e100: e^(-mu t) underflows to 0 at t = 3, and every count would be 0
    kernel = kt.DiscreteKernel(((1.0e200, 1.0e200), (0.5, 0.0)), (0.5, 0.5))
    g = rng(3)
    with pytest.raises(ValueError, match=r"t = 3\.0 gives e\^\(-mu\(alpha\) t\) = 0\.0 .* kernel"):
        kt.tail_hit_counts(kernel, kt.SymmetricPareto(0.5), 3.0, [10.0], 1000, g)
    assert g.random() == rng(3).random()  # refused before any draw
    # mu(0.052) is about -19.2 for l = r = 1e-200: e^(-mu t) overflows at t = 40
    with pytest.raises(ValueError, match=r"= inf .* kernel"):
        rescale_factor(kt.DeterministicKernel(1e-200, 1e-200), 0.052, 40.0)
    assert rescale_factor(kt.KacKernel(), 1.5, 0.0) == 1.0


def baseline_estimate(law, n, x, n_rows, g):
    """tail_ratios row of the i.i.d. sum and max at the stable scaling n^(1/a)."""
    hits_sum, hits_max = kt.iid_hit_counts(law, n, [x * n ** (1.0 / law.alpha)], n_rows, g)
    return kt.tail_ratios(law, [x], n_rows, hits_sum, hits_max)[0]


def test_tail_estimate_at_time_zero():
    # V_0 = X_1, so the rescaled-sum tail is the exact Pareto tail and the
    # max hits coincide with the sum hits path by path
    law = kt.SymmetricPareto(1.5)
    hits_v, hits_h, ratios = tail_estimates(det_kernel(), law, 0.0, [10.0], 100_000, rng(1))
    p_v, se_v, _, _, ratio_paper, ratio_max = ratios[0]
    target = 10.0 ** -1.5
    assert hits_v[0] == hits_h[0]
    assert abs(p_v - target) <= 4 * se_v
    assert abs(ratio_paper - 1.0) <= 4 * se_v / target
    assert ratio_max == 1.0


def test_tail_estimate_monotone_in_x():
    law = kt.SymmetricPareto(1.5)
    hits_v, hits_h, _ = tail_estimates(det_kernel(), law, 2.0, [5.0, 10.0, 20.0, 40.0],
                                       50_000, rng(2))
    assert list(hits_v) == sorted(hits_v, reverse=True)
    assert list(hits_h) == sorted(hits_h, reverse=True)


def test_tail_ratios_formula():
    law = kt.AsymmetricPareto(1.2, 0.7, 0.3)
    rows = kt.tail_ratios(law, [2.0, 5.0], 1000, np.array([40, 0]), np.array([50, 0]))
    p, se, p_max, se_max, ratio_paper, ratio_max = rows[0]
    assert (p, p_max) == (0.04, 0.05)
    assert se == math.sqrt(0.04 * 0.96 / 1000) and se_max == math.sqrt(0.05 * 0.95 / 1000)
    assert ratio_paper == 2.0 ** 1.2 * 0.04 / (law.c0_plus + law.c0_minus)
    assert ratio_max == 0.04 / 0.05
    assert rows[1][:5] == (0.0, 0.0, 0.0, 0.0, 0.0) and math.isnan(rows[1][5])


def _regime_up():
    # h(t) = exp((S2a - 2Sa) t) = exp(t/8)
    return Regime(alpha=1.5, S_alpha=-0.5, S_2alpha=-7 / 8,
                  mu_alpha=-1 / 3, mu_2alpha=-7 / 24, case_id=CASE_UP)


def test_admissible_schedule_decisions():
    reg = _regime_up()
    t = np.geomspace(1.0, 500.0, 97)
    # x_t = e^{t/9}: exponent (1.5 - 0.25)/9 = 0.1389 beats 1/8
    assert kt.admissible_schedule(reg, 0.25, t, lambda v: math.exp(v / 9.0)) \
        == "admissible"
    # polynomial schedule loses against an exponential h
    assert kt.admissible_schedule(reg, 0.25, t, lambda v: v ** 2) == "inadmissible"
    # unrestricted regime accepts anything
    free = kt.classify_regime(det_kernel(), 1.5)
    assert kt.admissible_schedule(free, 0.25, t, lambda v: v) == "unrestricted"


def test_admissible_schedule_borderline_and_errors():
    reg = _regime_up()
    t = np.geomspace(1.0, 500.0, 97)
    # exact balance does not diverge
    assert kt.admissible_schedule(reg, 0.25, t, lambda v: math.exp(v / 10.0)) \
        == "inadmissible"
    with pytest.raises(ValueError):
        kt.admissible_schedule(reg, 1.5, t, lambda v: v)
    with pytest.raises(ValueError):
        kt.admissible_schedule(reg, 0.25, [1.0, 2.0], lambda v: v)
    # a NaN epsilon or x_t gave a verdict
    free = kt.classify_regime(det_kernel(), 1.5)
    for regime, epsilon, x_t in ((reg, math.nan, lambda v: v), (free, math.nan, lambda v: v),
                                 (reg, 0.25, lambda v: math.nan if v > 100 else v)):
        with pytest.raises(ValueError):
            kt.admissible_schedule(regime, epsilon, t, x_t)


def test_iid_baseline_exact_single_jump_identity():
    # n P{|X1| > n^(1/a) x} = c0 / x^a exactly for the unit Pareto when
    # n^(1/a) x >= xmin
    law = kt.SymmetricPareto(1.5)
    for n, x in ((100, 2.0), (10_000, 10.0)):
        thr = x * n ** (2.0 / 3.0)
        assert abs(n * float(law.abs_tail(thr)) - x ** -1.5) < 1e-12


def test_iid_baseline_small_case():
    law = kt.SymmetricPareto(1.5)
    p_sum, se_sum, p_max, se_max, ratio_paper, ratio_max = \
        baseline_estimate(law, 100, 8.0, 200_000, rng(6))
    assert p_sum > 0 and p_max > 0
    # at x = 8 the limit ratio carries a ~+20% second-order term; just pin
    # finiteness and the CRN ordering here, precision tests live elsewhere
    assert 0.7 <= ratio_paper <= 1.5
    assert 0.9 <= ratio_max <= 1.6
    assert se_sum > 0 and se_max > 0


def test_iid_baseline_diagnostic_small_x():
    # no asymptotic claim at fixed small x; estimator still returns numbers
    law = kt.SymmetricPareto(1.5)
    *_, ratio_paper, ratio_max = baseline_estimate(law, 1000, 1.0, 20_000, rng(7))
    assert math.isfinite(ratio_paper)
    assert math.isfinite(ratio_max)


def test_lemma_bounds_single_weight_exact_case():
    # n = 1, b = (1), x = 10: the max upper bound is exactly c0 = 1 and the
    # lower is 1 - K0^2/x^a
    law = kt.SymmetricPareto(1.5)
    rep = kt.lemma_bounds(np.array([1.0]), law, 10.0, 0.5, 0.75, 200_000, rng(8))
    assert rep.max_upper == 1.0
    assert abs(rep.max_lower - (1.0 - 4.0 / 10.0 ** 1.5)) < 1e-12
    assert abs(rep.max_lower - 0.8735088935932648) < 1e-12
    assert abs(rep.max_mc - 1.0) <= 4 * rep.max_mc_se
    assert abs(rep.mc - 1.0) <= 4 * rep.mc_se
    assert rep.max_lower <= rep.max_mc <= rep.max_upper + 4 * rep.max_mc_se


def test_lemma_bounds_flat_weight_case():
    # n = 8 flat weights at the stable scaling, x = 20
    law = kt.SymmetricPareto(1.5)
    rep = kt.lemma_bounds(np.full(8, 8.0 ** (-1 / 1.5)), law, 20.0,
                          0.5, 0.75, 1_000_000, rng(14))
    assert rep.lower - 3 * rep.mc_se <= rep.mc <= rep.upper + 3 * rep.mc_se
    assert rep.max_lower - 3 * rep.max_mc_se <= rep.max_mc \
        <= rep.max_upper + 3 * rep.max_mc_se
    assert 0 <= rep.delta_hat <= 1


def test_lemma_bounds_sandwich_randomized():
    g = rng(9)
    for trial in range(12):
        alpha = float(g.choice([0.5, 1.5]))
        law = kt.SymmetricPareto(alpha)
        n = int(g.integers(1, 17))
        b = g.uniform(0.05, 1.0, size=n)
        x = float(g.uniform(10.0, 50.0))
        rep = kt.lemma_bounds(b, law, x, 0.5, 0.75, 100_000, g)
        assert rep.lower - 3 * rep.mc_se <= rep.mc, (trial, alpha)
        assert rep.mc <= rep.upper + 3 * rep.mc_se, (trial, alpha)
        assert rep.max_lower - 3 * rep.max_mc_se <= rep.max_mc, (trial, alpha)
        assert rep.max_mc <= rep.max_upper + 3 * rep.max_mc_se, (trial, alpha)


def test_lemma_bounds_validation():
    law = kt.SymmetricPareto(1.5)
    with pytest.raises(ValueError):
        kt.lemma_bounds(np.zeros(3), law, 10.0, 0.5, 0.75, 1000, rng(0))
    with pytest.raises(ValueError):
        kt.lemma_bounds(np.ones(3), law, 10.0, 1.5, 0.75, 1000, rng(0))
    with pytest.raises(ValueError):
        kt.lemma_bounds(np.ones(3), law, -1.0, 0.5, 0.75, 1000, rng(0))


@pytest.mark.parametrize("b, xmin, field", [
    ([1.0e+300, 1.0], 1.0, "b"),            # B = inf: NaN lower bound
    ([1.0e+103], 1.0, "b"),                 # B^2 overflows
    ([0.5] * 4, 1.0e+103, "initial"),       # K0^2 overflows
])
def test_lemma_bounds_needs_finite_constants(b, xmin, field):
    # these used to write NaN and inf bounds or raise OverflowError
    law = kt.SymmetricPareto(1.5, xmin)
    with pytest.raises(ValueError, match=f"^{field}: "):
        kt.lemma_bounds(np.array(b), law, 1.0e+110, 0.5, 0.75, 1000, rng(0))


@pytest.mark.parametrize("x, gamma", [(math.nan, 0.75), (math.inf, 0.75), (10.0, math.nan)])
def test_lemma_bounds_needs_finite_x_and_gamma(x, gamma):
    # these returned NaN bounds, or mc = nan at x = inf, without an error
    with pytest.raises(ValueError):
        kt.lemma_bounds(np.ones(2), kt.SymmetricPareto(1.5), x, 0.5, gamma, 1000, rng(0))


def test_weighted_sum_tail_corollary():
    # flat weights b_j = n^{-1/a}: sum b_j^a = 1 and b(n) -> 0, so the tail
    # ratio x^a P{|S_n| > x} follows the stable-limit curve and settles at
    # c0 once x grows.  x_n = n^0.1 stays too small for the limit value at
    # desk-scale n (the second-order tail term decays like x^-a), so the
    # check is (i) agreement with an independent quadrature reference on
    # the slow schedule and (ii) visible convergence to c0 on x_n = n^0.3.
    law = kt.SymmetricPareto(1.5)
    lam = math.pi / (2.0 * math.gamma(1.5) * math.sin(0.75 * math.pi))
    g = rng(10)
    n = 1000
    rep = kt.lemma_bounds(np.full(n, n ** (-2.0 / 3.0)), law, n ** 0.1,
                          0.5, 0.75, 100_000, g)
    ref = stable_abs_tail_ratio(n ** 0.1, lam, 1.5)
    assert abs(rep.mc - ref) <= 5 * rep.mc_se + 0.05
    assert rep.lower - 3 * rep.mc_se <= rep.mc <= rep.upper + 3 * rep.mc_se

    devs = []
    for n, n_rows in ((1000, 100_000), (10_000, 50_000)):
        rep = kt.lemma_bounds(np.full(n, n ** (-2.0 / 3.0)), law, n ** 0.3,
                              0.5, 0.75, n_rows, g)
        devs.append(abs(rep.mc - 1.0))
    assert devs[1] < devs[0]
    assert devs[1] <= 0.15


def test_ode_residual_trivial_branches():
    law = kt.SymmetricPareto(1.5)
    res, se = kt.max_ode_residual(kt.KacKernel(), law, 1.0, -2.0, 0.01,
                                  20_000, rng(11))
    assert res == 0.0
    res, se = kt.max_ode_residual(kt.KacKernel(), law, 1.0, 1e9, 0.01,
                                  20_000, rng(12))
    assert abs(res) < 1e-3


def test_ode_residual_kac_small_run():
    law = kt.SymmetricPareto(1.5)
    res, se = kt.max_ode_residual(kt.KacKernel(), law, 1.0, 2.0, 0.01,
                                  200_000, rng(13))
    assert abs(res) <= 3 * se + 0.05 * 0.01


def test_ode_residual_validation():
    law = kt.SymmetricPareto(1.5)
    with pytest.raises(ValueError):
        kt.max_ode_residual(kt.KacKernel(), law, 1.0, 2.0, 0.5, 1000, rng(0))
    with pytest.raises(ValueError):
        kt.max_ode_residual(kt.KacKernel(), law, 1.0, 0.0, 0.01, 1000, rng(0))
    with pytest.raises(ValueError):  # gave (-100.0, 0.0)
        kt.max_ode_residual(kt.KacKernel(), law, 1.0, math.nan, 0.01, 1000, rng(0))


def test_iid_hit_counts_match_abs_max_formula():
    # many row blocks of _ROW_BUDGET / n rows each, the last one partial
    from kactails.deviations import _ROW_BUDGET, iid_hit_counts

    law, n, n_rows = kt.SymmetricPareto(1.5), 4096, 2500
    thresholds = np.array([50.0, 500.0, 5000.0])
    hits_sum, hits_max = iid_hit_counts(law, n, thresholds, n_rows, rng(41))
    g = rng(41)
    ref_sum = np.zeros(thresholds.size, dtype=np.int64)
    ref_max = np.zeros(thresholds.size, dtype=np.int64)
    block, done = _ROW_BUDGET // n, 0
    assert 2 * block < n_rows and n_rows % block
    while done < n_rows:
        m = min(block, n_rows - done)
        x = law.sample(g, m * n).reshape(m, n)
        s = np.abs(x.sum(axis=1))
        a = np.abs(x).max(axis=1)
        ref_sum += (s[:, None] > thresholds).sum(axis=0)
        ref_max += (a[:, None] > thresholds).sum(axis=0)
        done += m
    assert hits_sum.dtype == hits_max.dtype == np.int64
    np.testing.assert_array_equal(hits_sum, ref_sum)
    np.testing.assert_array_equal(hits_max, ref_max)
    assert ref_max.min() > 0


def test_row_blocks_are_views_of_one_buffer():
    # three blocks, the last one partial, all at one address; each holds
    # the draws an allocating sample() call gives at its stream position
    from kactails.deviations import _ROW_BUDGET, _row_blocks

    law, n, n_rows = kt.AsymmetricPareto(1.2, 0.7, 0.3), 4096, 80
    twin = rng(44)
    addresses, shapes = set(), []
    for x in _row_blocks(law, n, n_rows, rng(44)):
        addresses.add(x.__array_interface__["data"][0])
        shapes.append(x.shape)
        assert x.tobytes() == law.sample(twin, x.size).tobytes()
    block = _ROW_BUDGET // n
    assert shapes == [(block, n), (block, n), (n_rows - 2 * block, n)]
    assert len(addresses) == 1


def test_lemma_bounds_replays_the_matrix_product_formulas():
    # the Delta batch, then the main batch, from one stream, in blocks of
    # _ROW_BUDGET / n rows (many here, the last one partial), recomputed with
    # S = X @ b and max_j |X_j| b_j; b_1 = 0, so b(n) |X_1| must come from
    # the unweighted row.  lemma_bounds sums b_j X_j in another order, so a
    # count could move only where |S| lies within rounding of a threshold.
    from kactails.deviations import _ROW_BUDGET

    law, n, N, x, eps = kt.AsymmetricPareto(1.5, 0.7, 0.3), 1000, 10_000, 200.0, 0.5
    b = rng(42).uniform(0.05, 1.0, size=n)
    b[::7] = 0.0
    rep = kt.lemma_bounds(b, law, x, eps, 0.75, N, rng(43))

    g, block = rng(43), _ROW_BUDGET // n
    assert 2 * block < N and N % block

    def batch():
        for done in range(0, N, block):
            m = min(block, N - done)
            yield law.sample(g, m * n).reshape(m, n)

    b_max = b.max()
    delta_hits = sum(int((np.abs(xv @ b) + b_max * np.abs(xv[:, 0]) <= eps * x).sum())
                     for xv in batch())
    hits_sum = hits_max = 0
    for xv in batch():
        hits_sum += int((np.abs(xv @ b) > x).sum())
        hits_max += int(((np.abs(xv) * b).max(axis=1) > x).sum())
    assert 0 < delta_hits < N and 0 < hits_max <= hits_sum < N
    assert rep.delta_hat == delta_hits / N
    assert rep.mc == x ** law.alpha * (hits_sum / N)
    assert rep.max_mc == x ** law.alpha * (hits_max / N)


@pytest.mark.parametrize("budget", [1 << 22, 1 << 16])
def test_symmetric_rows_do_not_depend_on_the_block_height(monkeypatch, budget):
    # SymmetricPareto draws concatenate and sum(axis=1) reduces each row
    # alone, so the row blocks' height changes no count and no bit
    from kactails import deviations

    law, n, N = kt.SymmetricPareto(1.5), 1000, 10_000
    thresholds = [x * n ** (1.0 / law.alpha) for x in (1.0, 3.0, 10.0)]
    b = rng(46).uniform(0.05, 1.0, size=n)

    def run():
        return (deviations.iid_hit_counts(law, n, thresholds, N, rng(47)),
                deviations.lemma_bounds(b, law, 300.0, 0.5, 0.75, N, rng(48)))

    (hits, hits_max), report = run()
    assert N % (deviations._ROW_BUDGET // n) and N % (budget // n)
    monkeypatch.setattr(deviations, "_ROW_BUDGET", budget)
    (other, other_max), other_report = run()
    np.testing.assert_array_equal(hits, other)
    np.testing.assert_array_equal(hits_max, other_max)
    assert 0 < hits[-1] and 0 < hits_max[-1]
    assert report == other_report
    assert 0 < report.delta_hat < 1 and 0 < report.max_mc <= report.mc


def test_iid_row_blocks_stay_cache_sized():
    # one row block of check 09's row length is about 1 MB, and the
    # sampler's scratch and the row reductions are smaller still
    import tracemalloc

    from kactails.deviations import iid_hit_counts

    law = kt.SymmetricPareto(1.5)
    tracemalloc.start()
    try:
        iid_hit_counts(law, 10_000, [1.0e3], 500, rng(45))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def _ode_residual_with_zero_convention(kernel, law, t, x, delta, N, g):
    """max_ode_residual with F(x / 0) = 1 for x >= 0 and 0 for x < 0 set
    by hand wherever a kernel draw is 0."""
    from kactails.deviations import binom_se
    from kactails.processes import forest_statistics, law_sums

    h_t = np.sort(forest_statistics(kernel, t, N, g, law_sums(law)).stats[1])
    h_td = forest_statistics(kernel, t + delta, N, g, law_sums(law)).stats[1]
    f_t = float(np.searchsorted(h_t, x, side="right") / N)
    f_td = float((h_td <= x).sum() / N)
    prod = np.ones(N)
    for coeffs in kernel.sample(g, N):
        f = np.full(N, 1.0 if x >= 0 else 0.0)
        nz = coeffs != 0.0
        f[nz] = np.searchsorted(h_t, x / coeffs[nz], side="right") / N
        prod = prod * f
    residual = (f_td - f_t) / delta + f_t - float(prod.mean())
    se = math.sqrt(binom_se(f_td, N) ** 2 / delta ** 2
                   + binom_se(f_t, N) ** 2 * (1.0 - 1.0 / delta) ** 2
                   + float(prod.var(ddof=1)) / N)
    return residual, se


@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["zero", "negative-zero"])
@pytest.mark.parametrize("x", [2.0, -2.0])
def test_ode_residual_zero_coefficient_convention(zero, x):
    # atoms (0.9, 0) and (0, 0.7): about 60% of the draws have L or R = 0;
    # a -0.0 atom counts as 0, not as a negative coefficient
    kernel = kt.DiscreteKernel(((0.9, zero), (zero, 0.7), (0.6, 0.8)), (0.3, 0.3, 0.4))
    law = kt.SymmetricPareto(1.5)
    got = kt.max_ode_residual(kernel, law, 1.0, x, 0.01, 4000, rng(17))
    ref = _ode_residual_with_zero_convention(kernel, law, 1.0, x, 0.01, 4000, rng(17))
    assert got == ref
    assert (got[0] == 0.0) == (x < 0)

