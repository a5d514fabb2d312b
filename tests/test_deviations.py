import math

import numpy as np
import pytest

import kactails as kt
from kactails.deviations import AdmissibilityWarning
from kactails.kernels import CASE_UP, Regime

from stable_reference import stable_abs_tail_ratio

S1_KAC = 4.0 / math.pi - 1.0


def rng(seed=0):
    return np.random.default_rng(seed)


def det_kernel(a=1.5):
    return kt.DeterministicKernel(2 ** (-1 / a), 2 ** (-1 / a))


def test_tail_estimate_at_time_zero():
    # V_0 = X_1, so the rescaled-sum tail is the exact Pareto tail and the
    # max hits coincide with the sum hits path by path
    law = kt.SymmetricPareto(1.5)
    ests = kt.estimate_tail(det_kernel(), law, 0.0, [10.0], 100_000, rng(1))
    est = ests[0]
    target = 10.0 ** -1.5
    assert est.hits_V == est.hits_H
    assert abs(est.p_V - target) <= 4 * est.se_V
    assert abs(est.ratio_paper - 1.0) <= 4 * est.se_V / target
    assert est.ratio_max == 1.0
    assert not est.low_precision


def test_tail_estimate_monotone_in_x():
    law = kt.SymmetricPareto(1.5)
    ests = kt.estimate_tail(det_kernel(), law, 2.0, [5.0, 10.0, 20.0, 40.0],
                            50_000, rng(2))
    hits = [e.hits_V for e in ests]
    assert hits == sorted(hits, reverse=True)
    hits_h = [e.hits_H for e in ests]
    assert hits_h == sorted(hits_h, reverse=True)


def test_tail_estimate_flags_low_precision():
    law = kt.SymmetricPareto(1.5)
    ests = kt.estimate_tail(det_kernel(), law, 1.0, [10.0, 1000.0], 10_000, rng(3))
    assert not ests[0].low_precision
    assert ests[1].low_precision


def test_tail_estimate_validates_input():
    law = kt.SymmetricPareto(1.5)
    with pytest.raises(ValueError):
        kt.estimate_tail(det_kernel(), law, 1.0, [10.0], 5000, rng(4))
    with pytest.raises(ValueError):
        kt.estimate_tail(det_kernel(), law, 1.0, [-1.0], 10_000, rng(4))


def test_tail_estimate_warns_outside_unrestricted_regime():
    a = 1.5
    k = kt.DeterministicKernel(0.25 ** (1 / a), 0.25 ** (1 / a))  # mu-up case
    law = kt.SymmetricPareto(a)
    with pytest.warns(AdmissibilityWarning):
        kt.estimate_tail(k, law, 1.0, [10.0], 10_000, rng(5))


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


def test_iid_baseline_exact_single_jump_identity():
    # n P{|X1| > n^(1/a) x} = c0 / x^a exactly for the unit Pareto when
    # n^(1/a) x >= xmin
    law = kt.SymmetricPareto(1.5)
    for n, x in ((100, 2.0), (10_000, 10.0)):
        thr = x * n ** (2.0 / 3.0)
        assert abs(n * float(law.abs_tail(thr)) - x ** -1.5) < 1e-12


def test_iid_baseline_small_case():
    law = kt.SymmetricPareto(1.5)
    est = kt.iid_baseline(law, 100, 8.0, 200_000, rng(6))
    assert est.p_sum > 0 and est.p_max > 0
    # at x = 8 the limit ratio carries a ~+20% second-order term; just pin
    # finiteness and the CRN ordering here, precision tests live elsewhere
    assert 0.7 <= est.ratio_paper <= 1.5
    assert 0.9 <= est.ratio_max <= 1.6
    assert est.se_sum > 0 and est.se_max > 0


def test_iid_baseline_diagnostic_small_x():
    # no asymptotic claim at fixed small x; estimator still returns numbers
    law = kt.SymmetricPareto(1.5)
    est = kt.iid_baseline(law, 1000, 1.0, 20_000, rng(7))
    assert math.isfinite(est.ratio_paper)
    assert math.isfinite(est.ratio_max)


def test_lemma_bounds_single_weight_exact_case():
    # n = 1, b = (1), x = 10: the max upper bound is exactly c0 = 1 and the
    # lower is 1 - K0^2/x^a
    law = kt.SymmetricPareto(1.5)
    rep = kt.lemma_bounds(np.array([1.0]), law, 10.0, 0.5, 0.75, 200_000, rng(8))
    assert rep.max_upper == 1.0
    assert abs(rep.max_lower - (1.0 - 4.0 / 10.0 ** 1.5)) < 1e-12
    assert abs(rep.max_lower - 0.8735088935932648) < 1e-12
    assert abs(rep.max_mc - 1.0) <= 4 * rep.max_mc_se
    assert abs(rep.mc_estimate - 1.0) <= 4 * rep.mc_se
    assert rep.max_lower <= rep.max_mc <= rep.max_upper + 4 * rep.max_mc_se


def test_lemma_bounds_flat_weight_case():
    # n = 8 flat weights at the stable scaling, x = 20
    law = kt.SymmetricPareto(1.5)
    rep = kt.lemma_bounds(np.full(8, 8.0 ** (-1 / 1.5)), law, 20.0,
                          0.5, 0.75, 1_000_000, rng(14))
    assert rep.lower - 3 * rep.mc_se <= rep.mc_estimate <= rep.upper + 3 * rep.mc_se
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
        assert rep.lower - 3 * rep.mc_se <= rep.mc_estimate, (trial, alpha)
        assert rep.mc_estimate <= rep.upper + 3 * rep.mc_se, (trial, alpha)
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
    assert abs(rep.mc_estimate - ref) <= 5 * rep.mc_se + 0.05
    assert rep.lower - 3 * rep.mc_se <= rep.mc_estimate <= rep.upper + 3 * rep.mc_se

    devs = []
    for n, n_rows in ((1000, 100_000), (10_000, 50_000)):
        rep = kt.lemma_bounds(np.full(n, n ** (-2.0 / 3.0)), law, n ** 0.3,
                              0.5, 0.75, n_rows, g)
        devs.append(abs(rep.mc_estimate - 1.0))
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


def test_iid_hit_counts_match_abs_max_formula():
    # several row blocks of 2^22 / n rows each, the last one partial
    from kactails.deviations import _iid_block_rows, iid_hit_counts

    law, n, n_rows = kt.SymmetricPareto(1.5), 4096, 2500
    thresholds = np.array([50.0, 500.0, 5000.0])
    hits_sum, hits_max = iid_hit_counts(law, n, thresholds, n_rows, rng(41))
    g = rng(41)
    ref_sum = np.zeros(thresholds.size, dtype=np.int64)
    ref_max = np.zeros(thresholds.size, dtype=np.int64)
    block, done = _iid_block_rows(n), 0
    assert block < n_rows
    while done < n_rows:
        m = min(block, n_rows - done)
        x = law.sample(g, m * n).reshape(m, n)
        s = np.abs(x.sum(axis=1))
        a = np.abs(x).max(axis=1)
        ref_sum += (s[:, None] > thresholds).sum(axis=0)
        ref_max += (a[:, None] > thresholds).sum(axis=0)
        done += m
    np.testing.assert_array_equal(hits_sum, ref_sum)
    np.testing.assert_array_equal(hits_max, ref_max)
    assert ref_max.min() > 0


def test_row_blocks_are_views_of_one_buffer():
    # several blocks, the last one partial, all at one address; each holds
    # the draws an allocating sample() call gives at its stream position
    from kactails.deviations import _iid_block_rows, _row_blocks

    law, n, n_rows = kt.AsymmetricPareto(1.2, 0.7, 0.3), 4096, 2500
    twin = rng(44)
    addresses, shapes = set(), []
    for x in _row_blocks(law, n, n_rows, rng(44)):
        addresses.add(x.__array_interface__["data"][0])
        shapes.append(x.shape)
        assert x.tobytes() == law.sample(twin, x.size).tobytes()
    block = _iid_block_rows(n)
    assert shapes == [(block, n), (block, n), (n_rows - 2 * block, n)]
    assert len(addresses) == 1


def test_weighted_hit_counts_match_abs_product_formula():
    from kactails.deviations import _weighted_hit_counts

    law = kt.AsymmetricPareto(1.5, 0.7, 0.3)
    b = rng(42).uniform(0.05, 1.0, size=12)
    x = 20.0
    hits_sum, hits_max = _weighted_hit_counts(law, b, x, 200_000, rng(43))
    xv = law.sample(rng(43), 200_000 * b.size).reshape(-1, b.size)
    assert hits_sum == int((np.abs(xv @ b) > x).sum())
    assert hits_max == int(((np.abs(xv) * b).max(axis=1) > x).sum())
    assert hits_max > 0
