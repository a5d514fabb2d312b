import math

import numpy as np
import pytest
from scipy import stats

import kactails as kt
from kactails.weights import grow_weights_batch, leaf_array, slot_offsets

from growth_reference import grow_tree, replay_batch, tree_major
from weight_norm_reference import mean_weight_norm_table

S1_KAC = 4.0 / math.pi - 1.0


def rng(seed=0):
    return np.random.default_rng(seed)


KERNELS = {
    "kac": kt.KacKernel(),
    "deterministic": kt.DeterministicKernel(0.6, 0.7),
    "mixture": kt.DiscreteKernel(((0.9, 0.4), (0.3, 0.8)), (0.5, 0.5)),
}


def _same_state(a, b):
    # bit generator states nest dicts and, for Philox and MT19937, arrays
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _assert_batch_replays(kernel, sizes, g=None, ref_g=None):
    # the batch consumes its draws exactly as the tree-by-tree growth rule
    # does, puts slot r of sorted tree j at the replay's off[r] + j, and
    # leaves the generator in the state the replay's per-step uniform and
    # kernel calls do: the law draws of forest_statistics come next
    g, ref_g = g or rng(1), ref_g or rng(1)
    flat, _, order = grow_weights_batch(kernel, sizes, g)
    ref_flat, ref_order = replay_batch(kernel, sizes, ref_g)
    assert flat.tobytes() == ref_flat.tobytes()
    np.testing.assert_array_equal(order, ref_order)
    assert _same_state(g.bit_generator.state, ref_g.bit_generator.state)


@pytest.mark.parametrize("name", KERNELS)
def test_batch_replays_growth_rule_exactly(name):
    _assert_batch_replays(KERNELS[name], [5, 1, 3, 7, 1, 4, 7, 2])


@pytest.mark.parametrize("name", KERNELS)
def test_deep_batch_replays_growth_rule_exactly(name):
    # Yule sizes at t = 4: ~300 trees, the largest growing for hundreds of steps
    sizes = kt.sample_yule(4.0, rng(40), 300)
    assert sizes.max() > 200
    _assert_batch_replays(KERNELS[name], sizes)


@pytest.mark.parametrize("bits", [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                                  np.random.MT19937, np.random.SFC64],
                         ids=lambda b: b.__name__)
@pytest.mark.parametrize("name", KERNELS)
def test_batch_replays_on_every_bit_generator(name, bits):
    # the grower draws straight from the caller's generator, whatever its
    # bit generator
    g, ref_g = (np.random.Generator(bits(1)) for _ in range(2))
    _assert_batch_replays(KERNELS[name], kt.sample_yule(3.0, rng(41), 200), g, ref_g)


def test_slot_offsets_are_the_summed_row_widths():
    # rows 0..3 of trees of 4, 2, 2 and 1 leaves hold 4, 3, 1 and 1 slots
    assert slot_offsets(np.array([4, 2, 2, 1])).tolist() == [0, 4, 7, 8, 9]
    assert slot_offsets(np.array([1, 1])).tolist() == [0, 2]


def test_largest_uniform_picks_an_index_below_k():
    # the grower takes step k's leaf index as int(u * k) with no clamp:
    # Generator.random gives u <= 1 - 2^-53, and at that u the product
    # must round to below k for every step index k < 2^53
    edges = [2 ** e + d for e in range(22, 53) for d in (-1, 0, 1)]
    ks = np.concatenate([np.arange(1, 2 ** 22), edges, [2 ** 53 - 1]])
    u = np.full(ks.size, 1.0 - 2.0 ** -53)
    assert u[0] == np.nextafter(1.0, 0.0)
    u *= ks.astype(np.float64)
    assert np.all(u < ks)
    assert np.array_equal(u.astype(np.int64), ks - 1)


@pytest.mark.parametrize("n", [1, 513, 1 << 20])
def test_leaf_array_is_a_zeroed_writable_float_array(n):
    a = leaf_array(n)
    assert a.shape == (n,) and a.dtype == np.float64 and a.flags.writeable
    assert not a.any()
    a[:] = 1.5
    assert a.sum() == 1.5 * n


def test_single_tree_invariants():
    flat, sizes, order = grow_weights_batch(kt.KacKernel(), [64], rng(2))
    assert flat.size == 64 and sizes.tolist() == [64] and order.tolist() == [0]
    assert np.all(flat > 0) and flat.max() <= 1.0
    assert flat.sum() >= flat.max()  # M(a) >= beta_max^a
    # L^2 + R^2 = 1 for the Kac kernel, so every split keeps M(2) = 1
    assert abs((flat ** 2).sum() - 1.0) < 1e-12


def test_conservative_kernel_preserves_alpha_sum():
    a = 1.5
    k = kt.DeterministicKernel(2 ** (-1 / a), 2 ** (-1 / a))
    flat, sizes, _ = grow_weights_batch(k, [512, 3, 1], rng(3))
    np.testing.assert_allclose(np.add.reduceat(*tree_major(flat ** a, sizes)), 1.0,
                               rtol=0, atol=1e-12)


def test_martingale_mean_small_grid():
    # E[M~_n(alpha)] = 1 for every kernel and alpha with finite Q(alpha)
    g = rng(5)
    configs = [(kt.KacKernel(), 1.0, S1_KAC), (kt.KacKernel(), 0.7, None),
               (kt.DiscreteKernel(((0.9, 0.4), (0.3, 0.8)), (0.5, 0.5)), 1.2, None)]
    for kernel, a, s in configs:
        s_a = kt.spectral(kernel, a) if s is None else s
        for n in (4, 64):
            flat, sizes, _ = grow_weights_batch(kernel, np.full(4000, n), g)
            tm = np.add.reduceat(*tree_major(flat ** a, sizes)) / kt.mean_weight_norm(s_a, n)
            se = tm.std(ddof=1) / math.sqrt(tm.size)
            assert abs(tm.mean() - 1.0) <= 4 * se, (kernel.kind, a, n)


def test_kac_martingale_mean_n256():
    g = rng(6)
    n = 256
    flat, sizes, _ = grow_weights_batch(kt.KacKernel(), np.full(20_000, n), g)
    tm = np.add.reduceat(*tree_major(flat, sizes)) / kt.mean_weight_norm(S1_KAC, n)
    se = tm.std(ddof=1) / math.sqrt(tm.size)
    assert abs(tm.mean() - 1.0) <= 4 * se


def test_mean_weight_norm_special_values():
    assert kt.mean_weight_norm(0.0, 123) == 1.0
    # S = 1 gives m_n = n exactly (telescoping Gamma ratio)
    assert abs(kt.mean_weight_norm(1.0, 1000) - 1000.0) < 1e-9
    # S = -1/2, n = 2: one recurrence step, 1 * (1 - 0.5/1)
    assert abs(kt.mean_weight_norm(-0.5, 2) - 0.5) < 1e-15
    assert kt.mean_weight_norm(0.7, 1) == 1.0


def test_mean_weight_norm_against_gamma_ratio():
    # independent oracle: log m_n = loggamma(n+S) - loggamma(n) - loggamma(S+1),
    # evaluated in extended precision with exact arguments (float gammaln
    # loses ~ulp(n) * log(n) to argument rounding and cancellation)
    import mpmath as mp

    mp.mp.dps = 40
    for s in (-0.5, 0.273, 0.7):
        for n in (10, 10_000, 10_000_000):
            ours = math.log(kt.mean_weight_norm(s, n))
            ms = mp.mpf(s)
            ref = float(mp.loggamma(n + ms) - mp.loggamma(mp.mpf(n))
                        - mp.loggamma(1 + ms))
            assert abs(ours - ref) <= 1e-12 * max(1.0, abs(ref)), (s, n)


def test_mean_weight_norm_domain():
    with pytest.raises(ValueError):
        kt.mean_weight_norm(-1.0, 10)
    with pytest.raises(ValueError):
        kt.mean_weight_norm(-1.5, 10)


def test_mean_weight_norm_table_matches_scalar():
    tab = mean_weight_norm_table(0.4, 50)
    for n in (1, 2, 17, 50):
        assert abs(tab[n - 1] - kt.mean_weight_norm(0.4, n)) < 1e-10


def test_batch_layout_and_distributional_match():
    g = rng(8)
    sizes = np.array([5, 1, 3, 7, 1, 4])
    flat, sorted_sizes, order = grow_weights_batch(kt.KacKernel(), sizes, g)
    assert flat.size == sizes.sum()
    # sorted tree j is the caller's tree order[j], largest first
    np.testing.assert_array_equal(sorted_sizes, sizes[order])
    assert np.all(np.diff(sorted_sizes) <= 0)
    # M~ from the batch engine and from single-tree growth share one law
    n = 8
    m_n = kt.mean_weight_norm(S1_KAC, n)
    flat, sorted_sizes, _ = grow_weights_batch(kt.KacKernel(), np.full(3000, n), g)
    tm_batch = np.add.reduceat(*tree_major(flat, sorted_sizes)) / m_n
    tm_single = np.array([grow_tree(kt.KacKernel(), n, g).sum() / m_n
                          for _ in range(3000)])
    d = stats.ks_2samp(tm_batch, tm_single)
    assert d.statistic < 0.05


def test_rescaled_max_weight_vanishes():
    # beta_(n) / m_n(alpha)^(1/alpha) -> 0 in probability when mu(2) < mu(1)
    g = rng(9)
    meds = []
    for n in (4, 16, 64, 256, 1024, 4096):
        flat, sizes, _ = grow_weights_batch(kt.KacKernel(), np.full(400, n), g)
        bmax = np.maximum.reduceat(*tree_major(flat, sizes))
        meds.append(np.median(bmax) / kt.mean_weight_norm(S1_KAC, n))
    meds = np.array(meds)
    assert np.all(meds[1:] < meds[:-1] * 1.05)
    assert meds[-1] < meds[0] / 4


def test_second_moment_growth_bounded():
    # E[M~_n(1)^2] stays below a fixed multiple of the comparison series
    # sum_{i<=n} i^(2 alpha (mu(2a)-mu(a)) - 1); for the kac kernel at
    # alpha = 1 the exponent is 2(0 - S1) - 1
    g = rng(10)
    exponent = -2.0 * S1_KAC - 1.0
    ratios = []
    for n in (4, 16, 64, 256, 1024):
        flat, sizes, _ = grow_weights_batch(kt.KacKernel(), np.full(5000, n), g)
        tm = np.add.reduceat(*tree_major(flat, sizes)) / kt.mean_weight_norm(S1_KAC, n)
        bound = np.sum(np.arange(1, n + 1, dtype=float) ** exponent)
        ratios.append(float(np.mean(tm ** 2)) / bound)
    assert max(ratios) <= 1.0  # pinned from a pilot run (observed max ~0.62)
    assert ratios[-1] <= ratios[0]


def test_grow_weights_validates_n():
    with pytest.raises(ValueError):
        grow_weights_batch(kt.KacKernel(), np.array([3, 0]), rng(0))
