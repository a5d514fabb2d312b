import math

import numpy as np
import pytest
from scipy import stats

import kactails as kt

S1_KAC = 4.0 / math.pi - 1.0
LAMBDA_15 = math.pi / (2.0 * math.gamma(1.5) * math.sin(0.75 * math.pi))


def rng(seed=0):
    return np.random.default_rng(seed)


def det_kernel(a=1.5):
    return kt.DeterministicKernel(2 ** (-1 / a), 2 ** (-1 / a))


def test_all_ones_pool_is_fixed_under_conservative_kernel():
    pool = kt.ZPool.ones(1000, 1.5, 0.0)
    out = kt.zpool_iterate(pool, det_kernel(), rng(1))
    np.testing.assert_allclose(out.samples, 1.0, atol=1e-14)


def test_pool_variance_halves_under_conservative_kernel():
    g = rng(2)
    pool = kt.ZPool.from_samples(g.standard_exponential(100_000), 1.5, 0.0)
    prev = pool.samples.var(ddof=1)
    for _ in range(8):
        pool = kt.zpool_iterate(pool, det_kernel(), g)
        var = pool.samples.var(ddof=1)
        assert abs(var / prev - 0.5) <= 0.05  # within 10% of halving
        prev = var


def test_pool_mean_is_preserved():
    g = rng(3)
    pool = kt.ZPool.ones(100_000, 1.0, S1_KAC)
    for _ in range(5):
        new = kt.zpool_iterate(pool, kt.KacKernel(), g)
        drift = new.samples.mean() - pool.samples.mean()
        se = math.hypot(new.samples.std(ddof=1), pool.samples.std(ddof=1)) \
            / math.sqrt(new.samples.size)
        assert abs(drift) <= 4 * max(se, 1e-12)
        assert abs(new.samples.mean() - 1.0) <= 4 * max(se, 1e-12)
        pool = new


def test_pool_higher_moment_stays_bounded():
    # E[Z^(delta/alpha)] with delta = 2, alpha = 1: second moment bounded
    g = rng(4)
    pool = kt.ZPool.ones(50_000, 1.0, S1_KAC)
    m2 = []
    for _ in range(30):
        pool = kt.zpool_iterate(pool, kt.KacKernel(), g)
        m2.append(float(np.mean(pool.samples ** 2)))
    m2 = np.array(m2)
    assert m2.max() <= 2.0 * np.median(m2)


def test_zpool_validation():
    with pytest.raises(ValueError):
        kt.ZPool.from_samples([], 1.0, 0.0)
    with pytest.raises(ValueError):
        kt.ZPool.from_samples([-1.0, 1.0], 1.0, 0.0)
    pool = kt.ZPool.ones(10, 1.0, -1.5)
    with pytest.raises(ValueError):
        kt.zpool_iterate(pool, kt.KacKernel(), rng(0))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            kt.ZPool.from_samples([bad, 1.0], 1.5, 0.0)


def _replay_zpool_iterate(pool, kernel, g, iterations):
    """zpool_iterate as first written: every step samples (L, R) and powers
    the draws, whatever the kernel."""
    z, n, a, s = pool.samples, pool.samples.size, pool.alpha, pool.S_alpha
    for _ in range(iterations):
        z1 = z[g.integers(0, n, size=n)]
        z2 = z[g.integers(0, n, size=n)]
        lk, rk = kernel.sample(g, n)
        z = lk ** a * z1 + rk ** a * z2
        if s != 0.0:
            z *= (1.0 - g.random(n)) ** s
    return z


def _pow_disagreement(a):
    """A coefficient whose Python float power differs in the last bit from
    NumPy's array power, where the platform's two routines differ at all."""
    grid = np.linspace(0.05, 0.95, 4001)
    powered = grid ** a
    for v, p in zip(grid.tolist(), powered.tolist()):
        if v ** a != p:
            return v
    return 0.55


ZPOOL_KERNELS = {
    "det-0.6-0.7": lambda a: kt.DeterministicKernel(0.6, 0.7),
    "det-conservative-1.5": lambda a: kt.DeterministicKernel(2 ** (-2 / 3), 2 ** (-2 / 3)),
    "det-pow-disagreement": lambda a: kt.DeterministicKernel(_pow_disagreement(a), 0.75),
    "kac": lambda a: kt.KacKernel(),
    "mixture": lambda a: kt.DiscreteKernel(((0.9, 0.3), (0.5, 0.8)), (0.4, 0.6)),
    # a sampler that hands out one array as both L and R
    "user-aliased": lambda a: kt.UserKernel(
        lambda g, n: (lambda u: (u, u))(0.3 + 0.4 * g.random(n))),
}


@pytest.mark.parametrize("s_alpha", [0.0, 0.25])
@pytest.mark.parametrize("alpha", [0.8, 1.5, 1.9])
@pytest.mark.parametrize("name", sorted(ZPOOL_KERNELS))
def test_zpool_iterate_matches_sampling_replay(name, alpha, s_alpha):
    kernel = ZPOOL_KERNELS[name](alpha)
    start = kt.ZPool.from_samples(rng(30).standard_exponential(1001), alpha, s_alpha)
    before = start.samples.tobytes()
    # 0 to 3 steps, so the last step writes either of the two pool buffers
    for iterations in range(4):
        g1, g2 = rng(31), rng(31)
        out = kt.zpool_iterate(start, kernel, g1, iterations=iterations)
        ref = _replay_zpool_iterate(start, kernel, g2, iterations)
        assert out.samples.tobytes() == ref.tobytes()
        assert g1.random() == g2.random()  # the same stream was consumed
        assert start.samples.tobytes() == before  # the caller's pool is never written


def test_tree_pool_conservative_kernel_is_degenerate():
    pool = kt.zpool_from_trees(det_kernel(), 1.5, 6.0, 2000, rng(5))
    np.testing.assert_allclose(pool.samples, 1.0, atol=1e-9)


def test_tree_pool_mean_one():
    pool = kt.zpool_from_trees(kt.KacKernel(), 1.0, 6.0, 50_000, rng(6))
    se = pool.samples.std(ddof=1) / math.sqrt(pool.samples.size)
    assert abs(pool.samples.mean() - 1.0) <= 4 * se


def test_tree_pool_warns_at_small_t():
    with pytest.warns(UserWarning):
        kt.zpool_from_trees(kt.KacKernel(), 1.0, 0.5, 2000, rng(7))


def test_tree_and_fixed_point_pools_agree():
    g = rng(8)
    fixed = kt.zpool_iterate(kt.ZPool.ones(40_000, 1.0, S1_KAC),
                             kt.KacKernel(), g, iterations=60)
    tree = kt.zpool_from_trees(kt.KacKernel(), 1.0, 7.0, 40_000, g)
    d = stats.ks_2samp(fixed.samples, tree.samples)
    assert d.statistic <= 0.03


def test_stable_params_values():
    p = kt.stable_params(0.5, 0.5, 1.5)
    assert abs(p.lam - LAMBDA_15) < 1e-12
    assert abs(p.lam - 2.5066282746310002) < 1e-12
    assert p.eta_skew == 0.0
    assert kt.stable_params(0.7, 0.0, 1.5).eta_skew == 1.0
    c = kt.stable_params(0.5, 0.5, 1.0, gamma0=0.0)
    assert abs(c.cauchy_scale - math.pi / 2.0) < 1e-12
    assert c.gamma0 == 0.0
    with pytest.raises(ValueError):
        kt.stable_params(0.6, 0.4, 1.0)
    with pytest.raises(ValueError):
        kt.stable_params(0.0, 0.0, 1.5)


def test_stable_sampler_characteristic_function():
    # degenerate pool: pure stable draws; empirical CF vs exp(-lam |xi|^a)
    g = rng(9)
    pool = kt.ZPool.ones(100, 1.5, 0.0)
    params = kt.stable_params(0.5, 0.5, 1.5)
    v = kt.sample_V_infinity(pool, params, g, size=100_000)
    for xi in (0.5, 1.0, 2.0):
        emp = np.exp(1j * xi * v).mean()
        assert abs(emp - math.exp(-params.lam * xi ** 1.5)) <= 0.02, xi
    # symmetric case: median straddles zero
    frac = (v > 0).mean()
    assert abs(frac - 0.5) <= 4 * 0.5 / math.sqrt(v.size)


def test_stable_sampler_skewed_characteristic_function():
    g = rng(10)
    pool = kt.ZPool.ones(100, 1.5, 0.0)
    params = kt.stable_params(0.8, 0.2, 1.5)
    v = kt.sample_V_infinity(pool, params, g, size=200_000)
    for xi in (0.5, 1.0, -1.0):
        emp = np.exp(1j * xi * v).mean()
        target = kt.cf_V_infinity(xi, pool, params)
        assert abs(emp - target) <= 0.02, xi


def test_limit_tail_recovers_c0():
    # x^a P{|V_inf| > x} -> c0; at x = 30 the second-order term is ~2.6%
    g = rng(11)
    pool = kt.ZPool.ones(100, 1.5, 0.0)
    params = kt.stable_params(0.5, 0.5, 1.5)
    v = kt.sample_V_infinity(pool, params, g, size=10_000_000)
    ratio = 30.0 ** 1.5 * (np.abs(v) > 30.0).mean()
    assert abs(ratio - 1.0) <= 0.15


def test_cauchy_composition_matches_characteristic_function():
    g = rng(12)
    pool = kt.zpool_iterate(kt.ZPool.ones(50_000, 1.0, S1_KAC),
                            kt.KacKernel(), g, iterations=40)
    params = kt.stable_params(0.5, 0.5, 1.0, gamma0=0.3)
    v = kt.sample_V_infinity(pool, params, g, size=200_000)
    for xi in (0.5, 1.0, 2.0):
        emp = np.exp(1j * xi * v).mean()
        target = kt.cf_V_infinity(xi, pool, params)
        assert abs(emp - target) <= 0.02, xi


def test_cf_properties():
    pool = kt.ZPool.from_samples(rng(13).standard_exponential(5000), 1.5, 0.0)
    params = kt.stable_params(0.5, 0.5, 1.5)
    assert kt.cf_V_infinity(0.0, pool, params) == 1.0 + 0.0j
    grid = np.array([-2.0, -0.5, 0.3, 1.7])
    vals = kt.cf_V_infinity(grid, pool, params)
    assert np.all(np.abs(vals) <= 1.0 + 1e-12)
    # Hermitian symmetry and zero imaginary part in the symmetric case
    conj = kt.cf_V_infinity(-grid, pool, params)
    np.testing.assert_allclose(vals, np.conj(conj), rtol=0, atol=1e-12)
    np.testing.assert_allclose(vals.imag, 0.0, atol=1e-12)
    # closed form at a degenerate pool
    ones = kt.ZPool.ones(10, 1.5, 0.0)
    assert abs(kt.cf_V_infinity(1.0, ones, params)
               - math.exp(-params.lam)) < 1e-12


@pytest.mark.parametrize("c0_plus, c0_minus", [(0.5, 0.5), (0.7, 0.3)])
def test_cf_overflowing_exponent_is_zero_and_finite_ones_keep_their_bits(c0_plus, c0_minus):
    # |xi|^a lambda = 7.1e307 is finite, times Z > 2.5 it overflows: the
    # terms are 0, where an inf * 0 product used to give NaN phases
    pool = kt.ZPool.from_samples([0.5, 1.0, 3.0, 10.0], 1.5, 0.0)
    params = kt.stable_params(c0_plus, c0_minus, 1.5)
    assert kt.cf_V_infinity(2.0e205, pool, params) == 0j
    assert kt.cf_V_infinity(-2.0e205, pool, params) == 0j
    # where every exponent is finite, the value is the direct average
    z = rng(15).standard_exponential(2000)
    pool = kt.ZPool.from_samples(z, 1.5, 0.0)
    grid = np.array([-3.0, -0.4, 0.0, 0.7, 2.5, 1.0e200])
    tan = math.tan(0.75 * math.pi)
    direct = [np.exp(-abs(x) ** 1.5 * params.lam * z
                     * (1.0 - 1j * params.eta_skew * tan * np.sign(x))).mean() for x in grid]
    assert kt.cf_V_infinity(grid, pool, params).tobytes() == np.array(direct).tobytes()


@pytest.mark.parametrize("gamma0", [0.0, 0.3])
def test_cf_alpha_one_overflowing_exponent_is_zero_and_finite_ones_keep_their_bits(gamma0):
    # c0+ pi |xi| = 1.6e308 is finite, times Z > 1.2 it overflows: the terms
    # are 0, where the product used to warn and could give NaN phases
    params = kt.stable_params(0.5, 0.5, 1.0, gamma0=gamma0)
    pool = kt.ZPool.from_samples([0.5, 1.0, 3.0, 10.0], 1.0, S1_KAC)
    assert kt.cf_V_infinity(1.0e308, pool, params) == 0j
    assert kt.cf_V_infinity(-1.0e308, pool, params) == 0j
    z = rng(16).standard_exponential(2000)
    pool = kt.ZPool.from_samples(z, 1.0, S1_KAC)
    grid = np.array([-3.0, -0.4, 0.0, 0.7, 2.5, 1.0e200])
    direct = [np.exp(z * (1j * gamma0 * x - params.cauchy_scale * abs(x))).mean()
              for x in grid]
    assert kt.cf_V_infinity(grid, pool, params).tobytes() == np.array(direct).tobytes()


def test_cdf_H_infinity_branches():
    pool = kt.ZPool.ones(1000, 1.5, 0.0)
    assert kt.cdf_H_infinity(-1.0, pool, 1.0, 1.5) == 0.0
    assert kt.cdf_H_infinity(0.0, pool, 1.0, 1.5) == 0.0  # P{Z = 0} = 0
    # degenerate mixing gives the bare Frechet law
    for x in (0.5, 1.0, 3.0):
        assert abs(kt.cdf_H_infinity(x, pool, 1.0, 1.5)
                   - math.exp(-x ** -1.5)) < 1e-12
    assert kt.cdf_H_infinity(1e9, pool, 1.0, 1.5) > 1.0 - 1e-9
    withzeros = kt.ZPool.from_samples([0.0, 0.0, 1.0, 1.0], 1.5, 0.0)
    assert kt.cdf_H_infinity(0.0, withzeros, 1.0, 1.5) == 0.5


def test_cdf_H_infinity_monotone_grid():
    pool = kt.ZPool.from_samples(rng(14).standard_exponential(20_000), 1.0, S1_KAC)
    xs = np.linspace(0.01, 20.0, 200)
    vals = [kt.cdf_H_infinity(x, pool, 1.0, 1.0) for x in xs]
    assert np.all(np.diff(vals) >= -1e-15)
    # right-continuous at 0 when the pool carries no mass at zero
    assert kt.cdf_H_infinity(0.0, pool, 1.0, 1.0) == 0.0
    assert kt.cdf_H_infinity(1e-9, pool, 1.0, 1.0) < 1e-12


CONSTANT_POOLS = {
    "ones": lambda a: kt.ZPool.ones(1001, a, 0.0),
    "0.7": lambda a: kt.ZPool.from_samples(np.full(1001, 0.7), a, 0.0),
    "size-1": lambda a: kt.ZPool.ones(1, a, 0.0),
}


@pytest.mark.parametrize("pool", sorted(CONSTANT_POOLS))
@pytest.mark.parametrize("alpha", [0.8, 1.5, 1.9])
@pytest.mark.parametrize("name", sorted(k for k in ZPOOL_KERNELS if k.startswith("det-")))
def test_constant_pool_under_deterministic_kernel_draws_nothing(name, alpha, pool):
    kernel = ZPOOL_KERNELS[name](alpha)
    start = CONSTANT_POOLS[pool](alpha)
    before = start.samples.tobytes()
    for iterations in range(4):
        g1, g2 = rng(32), rng(32)
        out = kt.zpool_iterate(start, kernel, g1, iterations=iterations)
        ref = _replay_zpool_iterate(start, kernel, g2, iterations)
        assert out.samples.tobytes() == ref.tobytes()
        assert start.samples.tobytes() == before
        assert g1.random() == rng(32).random()  # the generator was not advanced


def _one_ulp_off(k):
    z = np.full(1001, 0.7)
    z[k] = np.nextafter(0.7, 1.0)
    return z


SAMPLED_POOLS = {
    "one-ulp-off-first": (lambda: _one_ulp_off(0), 0.0),
    "one-ulp-off-last": (lambda: _one_ulp_off(-1), 0.0),
    "constant-s0.25": (lambda: np.full(1001, 0.7), 0.25),
    # 0.0 == -0.0, but c * l^a keeps each entry's sign
    "signed-zeros": (lambda: np.where(np.arange(1001) % 2, -0.0, 0.0), 0.0),
}


@pytest.mark.parametrize("alpha", [0.8, 1.5, 1.9])
@pytest.mark.parametrize("pool", sorted(SAMPLED_POOLS))
def test_near_constant_pool_takes_the_sampling_path(pool, alpha):
    make, s_alpha = SAMPLED_POOLS[pool]
    kernel = ZPOOL_KERNELS["det-conservative-1.5"](alpha)
    start = kt.ZPool.from_samples(make(), alpha, s_alpha)
    for iterations in range(1, 4):
        g1, g2 = rng(33), rng(33)
        out = kt.zpool_iterate(start, kernel, g1, iterations=iterations)
        ref = _replay_zpool_iterate(start, kernel, g2, iterations)
        assert out.samples.tobytes() == ref.tobytes()
        assert g1.random() == g2.random()  # the replay's stream was consumed
