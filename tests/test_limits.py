import functools
import math

import numpy as np
import pytest
from scipy import stats

import kactails as kt

from limit_sampler import sample_V_infinity
from tree_pool import zpool_from_trees

LAMBDA_15 = math.pi / (2.0 * math.gamma(1.5) * math.sin(0.75 * math.pi))


def rng(seed=0):
    return np.random.default_rng(seed)


def det_kernel(a=1.5):
    return kt.DeterministicKernel(2 ** (-1 / a), 2 ** (-1 / a))


def test_all_ones_pool_is_fixed_under_conservative_kernel():
    pool = kt.ZPool.ones(1000, 1.5)
    out = kt.zpool_iterate(pool, det_kernel(), rng(1))
    np.testing.assert_allclose(out.samples, 1.0, atol=1e-14)


def test_pool_variance_halves_under_conservative_kernel():
    g = rng(2)
    pool = kt.ZPool.from_samples(g.standard_exponential(100_000), 1.5)
    prev = pool.samples.var(ddof=1)
    for _ in range(8):
        pool = kt.zpool_iterate(pool, det_kernel(), g)
        var = pool.samples.var(ddof=1)
        assert abs(var / prev - 0.5) <= 0.05  # within 10% of halving
        prev = var


def test_pool_mean_is_preserved():
    g = rng(3)
    pool = kt.ZPool.ones(100_000, 1.0)
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
    pool = kt.ZPool.ones(50_000, 1.0)
    m2 = []
    for _ in range(30):
        pool = kt.zpool_iterate(pool, kt.KacKernel(), g)
        m2.append(float(np.mean(pool.samples ** 2)))
    m2 = np.array(m2)
    assert m2.max() <= 2.0 * np.median(m2)


def test_zpool_validation():
    with pytest.raises(ValueError):
        kt.ZPool.from_samples([], 1.0)
    with pytest.raises(ValueError):
        kt.ZPool.from_samples([-1.0, 1.0], 1.0)
    # Q(1.9) of this kernel underflows to -1.0: Theta^Q(a) has no finite mean
    tiny = kt.DeterministicKernel(1e-300, 1e-300)
    assert kt.spectral(tiny, 1.9) == -1.0
    with pytest.raises(ValueError, match=r"Q\(alpha\) > -1"):
        kt.zpool_iterate(kt.ZPool.ones(10, 1.9), tiny, rng(0))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            kt.ZPool.from_samples([bad, 1.0], 1.5)


def _replay_zpool_iterate(pool, kernel, g, iterations):
    """zpool_iterate as first written: every step samples (L, R) and powers
    the draws, whatever the kernel, with Q(a) from the kernel."""
    z, n, a = pool.samples, pool.samples.size, pool.alpha
    s = kt.spectral(kernel, a)
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


# l = r = 2^(-1/a) up to an ulp, at which l^a + r^a - 1, that is Q(a), is exactly 0.0
CONSERVATIVE = {0.8: 0.4204482076268573, 1.5: 0.6299605249474366, 1.9: 0.6943255713073281}


@functools.lru_cache(maxsize=None)
def _drifting_conservative(a):
    """A deterministic kernel with Q(a) exactly 0.0 whose NumPy powers
    l^a + r^a are not exactly 1, so a constant pool drifts; where the
    platform has none near the grid of _pow_disagreement, one with Q(a) = 0."""
    found = None
    for l in np.linspace(0.05, 0.95, 4001).tolist():
        r0 = (1.0 - l ** a) ** (1.0 / a)
        for r in sorted((r0 + k * math.ulp(r0) for k in range(-8, 9)), key=lambda r: abs(r - r0)):
            kernel = kt.DeterministicKernel(l, r)
            if kt.spectral(kernel, a) == 0.0:
                if np.sum(np.array([l, r]) ** a) != 1.0:
                    return kernel
                found = found or kernel
    return found


ZPOOL_KERNELS = {
    "det-0.6-0.7": lambda a: kt.DeterministicKernel(0.6, 0.7),
    "det-conservative": lambda a: kt.DeterministicKernel(CONSERVATIVE[a], CONSERVATIVE[a]),
    "det-conservative-drift": _drifting_conservative,
    "det-pow-disagreement": lambda a: kt.DeterministicKernel(_pow_disagreement(a), 0.75),
    "kac": lambda a: kt.KacKernel(),
    "mixture": lambda a: kt.DiscreteKernel(((0.9, 0.3), (0.5, 0.8)), (0.4, 0.6)),
    # atoms with L = 0 or R = 0: the in-place power meets 0^a
    "mixture-with-zeros": lambda a: kt.DiscreteKernel(
        ((1.0, 0.0), (0.0, 0.8), (0.6, 0.7)), (0.3, 0.3, 0.4)),
    # both atoms have L^a + R^a = 1, so Q(a) = 0: a sampled kernel without Theta
    "mixture-conservative": lambda a: kt.DiscreteKernel(
        ((1.0, 0.0), (CONSERVATIVE[a], CONSERVATIVE[a])), (0.5, 0.5)),
}
# the kernels at which Q(a) is exactly 0.0, so the iteration draws no Theta
ZERO_Q = ("det-conservative", "det-conservative-drift", "mixture-conservative")


def _exponential_with_zeros():
    z = rng(30).standard_exponential(1001)
    z[::3] = 0.0
    return z


# spread start pools; Z = 0 entries meet the products with L^a, R^a = 0 and Theta^Q(a)
START_POOLS = {
    "exponential": lambda: rng(30).standard_exponential(1001),
    "with-zeros": _exponential_with_zeros,
}


@pytest.mark.parametrize("start_pool", sorted(START_POOLS))
@pytest.mark.parametrize("alpha", [0.8, 1.5, 1.9])
@pytest.mark.parametrize("name", sorted(ZPOOL_KERNELS))
def test_zpool_iterate_matches_sampling_replay(name, alpha, start_pool):
    kernel = ZPOOL_KERNELS[name](alpha)
    assert (kt.spectral(kernel, alpha) == 0.0) == (name in ZERO_Q)
    start = kt.ZPool.from_samples(START_POOLS[start_pool](), alpha)
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
    pool = zpool_from_trees(det_kernel(), 1.5, 6.0, 2000, rng(5))
    np.testing.assert_allclose(pool.samples, 1.0, atol=1e-9)


def test_tree_pool_mean_one():
    pool = zpool_from_trees(kt.KacKernel(), 1.0, 6.0, 50_000, rng(6))
    se = pool.samples.std(ddof=1) / math.sqrt(pool.samples.size)
    assert abs(pool.samples.mean() - 1.0) <= 4 * se


def test_tree_pool_warns_at_small_t():
    with pytest.warns(UserWarning):
        zpool_from_trees(kt.KacKernel(), 1.0, 0.5, 2000, rng(7))


def test_tree_and_fixed_point_pools_agree():
    g = rng(8)
    fixed = kt.zpool_iterate(kt.ZPool.ones(40_000, 1.0),
                             kt.KacKernel(), g, iterations=60)
    tree = zpool_from_trees(kt.KacKernel(), 1.0, 7.0, 40_000, g)
    d = stats.ks_2samp(fixed.samples, tree.samples)
    assert d.statistic <= 0.03


def test_stable_scale_and_skew_on_the_law():
    law = kt.SymmetricPareto(1.5)
    assert abs(law.stable_scale - LAMBDA_15) < 1e-12
    assert abs(law.stable_scale - 2.5066282746310002) < 1e-12
    assert law.stable_skew == 0.0
    assert kt.AsymmetricPareto(1.5, 0.7, 0.0).stable_skew == 1.0
    cauchy = kt.SymmetricPareto(1.0)
    assert abs(cauchy.stable_scale - math.pi / 2.0) < 1e-12
    assert cauchy.stable_skew == 0.0
    with pytest.raises(ValueError):
        kt.AsymmetricPareto(1.0, 0.6, 0.4)
    with pytest.raises(ValueError):
        kt.AsymmetricPareto(1.5, 0.0, 0.0)


def test_stable_sampler_characteristic_function():
    # degenerate pool: pure stable draws; empirical CF vs exp(-lam |xi|^a)
    g = rng(9)
    pool = kt.ZPool.ones(100, 1.5)
    law = kt.SymmetricPareto(1.5)
    v = sample_V_infinity(pool, law, g, size=100_000)
    for xi in (0.5, 1.0, 2.0):
        emp = np.exp(1j * xi * v).mean()
        assert abs(emp - math.exp(-law.stable_scale * xi ** 1.5)) <= 0.02, xi
    # symmetric case: median straddles zero
    frac = (v > 0).mean()
    assert abs(frac - 0.5) <= 4 * 0.5 / math.sqrt(v.size)


def test_stable_sampler_skewed_characteristic_function():
    g = rng(10)
    pool = kt.ZPool.ones(100, 1.5)
    law = kt.AsymmetricPareto(1.5, 0.8, 0.2)
    v = sample_V_infinity(pool, law, g, size=200_000)
    for xi in (0.5, 1.0, -1.0):
        emp = np.exp(1j * xi * v).mean()
        target = kt.cf_V_infinity(xi, pool, law)
        assert abs(emp - target) <= 0.02, xi


def test_limit_tail_recovers_c0():
    # x^a P{|V_inf| > x} -> c0; at x = 30 the second-order term is ~2.6%
    g = rng(11)
    pool = kt.ZPool.ones(100, 1.5)
    v = sample_V_infinity(pool, kt.SymmetricPareto(1.5), g, size=10_000_000)
    ratio = 30.0 ** 1.5 * (np.abs(v) > 30.0).mean()
    assert abs(ratio - 1.0) <= 0.15


def test_cauchy_composition_matches_characteristic_function():
    g = rng(12)
    pool = kt.zpool_iterate(kt.ZPool.ones(50_000, 1.0),
                            kt.KacKernel(), g, iterations=40)
    law = kt.SymmetricPareto(1.0)
    v = sample_V_infinity(pool, law, g, size=200_000)
    for xi in (0.5, 1.0, 2.0):
        emp = np.exp(1j * xi * v).mean()
        target = kt.cf_V_infinity(xi, pool, law)
        assert abs(emp - target) <= 0.02, xi


def test_cf_properties():
    pool = kt.ZPool.from_samples(rng(13).standard_exponential(5000), 1.5)
    law = kt.SymmetricPareto(1.5)
    assert kt.cf_V_infinity(0.0, pool, law) == 1.0 + 0.0j
    grid = np.array([-2.0, -0.5, 0.3, 1.7])
    vals = kt.cf_V_infinity(grid, pool, law)
    assert np.all(np.abs(vals) <= 1.0 + 1e-12)
    # Hermitian symmetry and zero imaginary part in the symmetric case
    conj = kt.cf_V_infinity(-grid, pool, law)
    np.testing.assert_allclose(vals, np.conj(conj), rtol=0, atol=1e-12)
    np.testing.assert_allclose(vals.imag, 0.0, atol=1e-12)
    # closed form at a degenerate pool
    ones = kt.ZPool.ones(10, 1.5)
    assert abs(kt.cf_V_infinity(1.0, ones, law)
               - math.exp(-law.stable_scale)) < 1e-12


@pytest.mark.parametrize("c_plus, c_minus", [(0.5, 0.5), (0.7, 0.3)])
def test_cf_overflowing_exponent_is_zero_and_finite_ones_keep_their_bits(c_plus, c_minus):
    # |xi|^a lambda = 7.1e307 is finite, times Z > 2.5 it overflows: the
    # terms are 0, where an inf * 0 product used to give NaN phases
    law = kt.AsymmetricPareto(1.5, c_plus, c_minus)
    pool = kt.ZPool.from_samples([0.5, 1.0, 3.0, 10.0], 1.5)
    assert kt.cf_V_infinity(2.0e205, pool, law) == 0j
    assert kt.cf_V_infinity(-2.0e205, pool, law) == 0j
    # where every exponent is finite, the value is the direct average
    z = rng(15).standard_exponential(2000)
    pool = kt.ZPool.from_samples(z, 1.5)
    grid = np.array([-3.0, -0.4, 0.0, 0.7, 2.5, 1.0e200])
    tan = math.tan(0.75 * math.pi)
    direct = [np.exp(-abs(x) ** 1.5 * law.stable_scale * z
                     * (1.0 - 1j * law.stable_skew * tan * np.sign(x))).mean() for x in grid]
    assert kt.cf_V_infinity(grid, pool, law).tobytes() == np.array(direct).tobytes()


def test_cf_alpha_one_overflowing_exponent_is_zero_and_finite_ones_keep_their_bits():
    # c0+ pi |xi| = 1.6e308 is finite, times Z > 1.2 it overflows: the terms
    # are 0, where the product used to warn and could give NaN phases
    law = kt.SymmetricPareto(1.0)
    pool = kt.ZPool.from_samples([0.5, 1.0, 3.0, 10.0], 1.0)
    assert kt.cf_V_infinity(1.0e308, pool, law) == 0j
    assert kt.cf_V_infinity(-1.0e308, pool, law) == 0j
    # the general formula at eta = 0 gives the bits of the Cauchy one,
    # E exp(-lambda |xi| Z)
    z = rng(16).standard_exponential(2000)
    pool = kt.ZPool.from_samples(z, 1.0)
    grid = np.array([-3.0, -0.4, 0.0, 0.7, 2.5, 1.0e200])
    direct = [np.exp(z * (1j * 0.0 * x - law.stable_scale * abs(x))).mean()
              for x in grid]
    assert kt.cf_V_infinity(grid, pool, law).tobytes() == np.array(direct).tobytes()


def test_limits_are_the_mass_at_zero_where_the_exponent_scale_overflows():
    # s = |xi|^a lambda overflows, and so does c0 x^-a Z at Z = 3: the
    # Z = 0 terms are 1 and the others 0, where s Z gave NaN or a warning
    pool = kt.ZPool.from_samples([0.0, 0.0, 1.0, 3.0], 1.5)
    assert kt.cf_V_infinity(3.0e205, pool, kt.SymmetricPareto(1.5)) == 0.5
    assert kt.cf_V_infinity(1.0e308, pool, kt.SymmetricPareto(1.0, xmin=2.0)) == 0.5
    assert kt.cdf_H_infinity(1.0e-205, pool, kt.SymmetricPareto(1.5, xmin=2.0)) == 0.5


def test_cdf_H_infinity_branches():
    pool = kt.ZPool.ones(1000, 1.5)
    law = kt.SymmetricPareto(1.5)
    assert kt.cdf_H_infinity(-1.0, pool, law) == 0.0
    assert kt.cdf_H_infinity(0.0, pool, law) == 0.0  # P{Z = 0} = 0
    # degenerate mixing gives the bare Frechet law
    for x in (0.5, 1.0, 3.0):
        assert abs(kt.cdf_H_infinity(x, pool, law)
                   - math.exp(-x ** -1.5)) < 1e-12
    assert kt.cdf_H_infinity(1e9, pool, law) > 1.0 - 1e-9
    withzeros = kt.ZPool.from_samples([0.0, 0.0, 1.0, 1.0], 1.5)
    assert kt.cdf_H_infinity(0.0, withzeros, law) == 0.5


def test_cdf_H_infinity_monotone_grid():
    pool = kt.ZPool.from_samples(rng(14).standard_exponential(20_000), 1.0)
    law = kt.SymmetricPareto(1.0)
    xs = np.linspace(0.01, 20.0, 200)
    vals = [kt.cdf_H_infinity(x, pool, law) for x in xs]
    assert np.all(np.diff(vals) >= -1e-15)
    # right-continuous at 0 when the pool carries no mass at zero
    assert kt.cdf_H_infinity(0.0, pool, law) == 0.0
    assert kt.cdf_H_infinity(1e-9, pool, law) < 1e-12


CONSTANT_POOLS = {
    "ones": lambda a: kt.ZPool.ones(1001, a),
    "0.7": lambda a: kt.ZPool.from_samples(np.full(1001, 0.7), a),
    "size-1": lambda a: kt.ZPool.ones(1, a),
}


@pytest.mark.parametrize("pool", sorted(CONSTANT_POOLS))
@pytest.mark.parametrize("alpha", [0.8, 1.5, 1.9])
@pytest.mark.parametrize("name", [k for k in ZERO_Q if k.startswith("det-")])
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


# (pool, kernel): a constant pool takes the sampling path where Q(a) != 0
SAMPLED_POOLS = {
    "one-ulp-off-first": (lambda: _one_ulp_off(0), "det-conservative"),
    "one-ulp-off-last": (lambda: _one_ulp_off(-1), "det-conservative"),
    "constant-q-nonzero": (lambda: np.full(1001, 0.7), "det-0.6-0.7"),
    # 0.0 == -0.0, but c * l^a keeps each entry's sign
    "signed-zeros": (lambda: np.where(np.arange(1001) % 2, -0.0, 0.0), "det-conservative"),
}


@pytest.mark.parametrize("alpha", [0.8, 1.5, 1.9])
@pytest.mark.parametrize("pool", sorted(SAMPLED_POOLS))
def test_near_constant_pool_takes_the_sampling_path(pool, alpha):
    make, name = SAMPLED_POOLS[pool]
    kernel = ZPOOL_KERNELS[name](alpha)
    start = kt.ZPool.from_samples(make(), alpha)
    for iterations in range(1, 4):
        g1, g2 = rng(33), rng(33)
        out = kt.zpool_iterate(start, kernel, g1, iterations=iterations)
        ref = _replay_zpool_iterate(start, kernel, g2, iterations)
        assert out.samples.tobytes() == ref.tobytes()
        assert g1.random() == g2.random()  # the replay's stream was consumed


@pytest.mark.parametrize("kernel, c, ratio", [
    # E[(sin cos)^1.5] over the quarter circle: Gamma(5/4)^2 / (pi Gamma(5/2))
    (kt.KacKernel(), math.gamma(1.25) ** 2 / (math.pi * math.gamma(2.5)), 1.044054),
    (kt.DeterministicKernel(0.6, 0.7), (0.6 * 0.7) ** 1.5, 1.004692),
])
def test_iterated_pool_second_moment_matches_fixed_point(kernel, c, ratio):
    # at the fixed point E[Z^2] (1 + 2Q(a)) = (1 + Q(2a)) E[Z^2] + 2c E[Z]^2
    # with c = E[L^a R^a], so E[Z^2]/E[Z]^2 = 2c/(-Delta), Delta = Q(2a) - 2Q(a);
    # the ratio does not depend on the scale, which the pool mean's random
    # walk moves
    a = 1.5
    s_a = kt.spectral(kernel, a)
    target = 2.0 * c / (2.0 * s_a - kt.spectral(kernel, 2.0 * a))
    assert target == pytest.approx(ratio, abs=1e-6)
    z = kt.zpool_iterate(kt.ZPool.ones(100_000, a), kernel, rng(0), iterations=60).samples
    assert abs(np.mean(z ** 2) / np.mean(z) ** 2 - target) < 2e-3
