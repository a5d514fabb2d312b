import math
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

import kactails as kt
from kactails import processes, weights
from kactails.kernels import rescale_factor
from kactails.processes import alpha_sums, forest_statistics, law_sums

from growth_reference import grow_tree, replay_batch, tree_major
from weight_norm_reference import mean_weight_norm_table
from wild_oracle import wild_oracle_max

S1_KAC = 4.0 / math.pi - 1.0


def rng(seed=0):
    return np.random.default_rng(seed)


def test_yule_at_zero_time():
    g = rng(1)
    assert np.all(kt.sample_yule(0.0, g, 1000) == 1)
    with pytest.raises(ValueError):
        kt.sample_yule(-1.0, g, 1)


def test_yule_pmf_at_log2():
    # P{n = k} = 2^-k when t = ln 2
    n = kt.sample_yule(math.log(2.0), rng(2), 100_000)
    for k in range(1, 13):
        p = 2.0 ** -k
        se = math.sqrt(p * (1 - p) / n.size)
        assert abs((n == k).mean() - p) <= 5 * se, k


def test_yule_mean():
    n = kt.sample_yule(2.0, rng(3), 100_000)
    se = n.std(ddof=1) / math.sqrt(n.size)
    assert abs(n.mean() - math.e ** 2) <= 4 * se


def test_path_sample_at_time_zero():
    g = rng(4)
    law = kt.SymmetricPareto(1.5)
    fs = forest_statistics(kt.KacKernel(), 0.0, 100, g, law_sums(law))
    assert np.all(fs.nu == 1)
    v, h = fs.stats
    np.testing.assert_array_equal(h, np.abs(v))
    m, beta_max = forest_statistics(kt.KacKernel(), 0.0, 100, g, alpha_sums(1.5)).stats
    assert np.all(m == 1.0)
    assert np.all(beta_max == 1.0)


def test_conservative_kernel_path_invariant():
    a = 1.5
    k = kt.DeterministicKernel(2 ** (-1 / a), 2 ** (-1 / a))
    law = kt.SymmetricPareto(a)
    m, _ = forest_statistics(k, 3.0, 2000, rng(5), alpha_sums(a)).stats
    np.testing.assert_allclose(m, 1.0, atol=1e-10)
    _, h = forest_statistics(k, 3.0, 2000, rng(5), law_sums(law)).stats
    # H is the max of per-leaf products, hence H <= sum of |products| = |V| bound fails,
    # but H <= (sum |b x|^a)^(1/a) is not asserted either; only positivity here
    assert np.all(h >= 0)


def _reference_forest(kernel, t, alphas, n_paths, g, law, batch):
    """forest_statistics written out: sub-batches of `batch` paths, each
    grown, given its law draws in one call over the whole forest, and
    reduced in a loop, tree after tree.  Besides the columns, "V_abs"
    holds each tree's sum of |beta X| (the alpha terms are positive)."""
    cols = {}
    for done in range(0, n_paths, batch):
        m = min(batch, n_paths - done)
        nu = kt.sample_yule(t, g, m)
        flat, sizes, order = kt.grow_weights_batch(kernel, nu, g)

        def per_path(key, values, reduce):
            per_tree, starts = tree_major(values, sizes)
            out = np.empty(m)
            out[order] = [reduce(tree) for tree in np.split(per_tree, starts[1:])]
            cols.setdefault(key, []).append(out)

        cols.setdefault("nu", []).append(nu)
        if law is None:
            for a in alphas:
                per_path(a, flat ** a, np.sum)
            per_path("beta_max", flat, np.max)
        else:
            prod = flat * law.sample(g, flat.size)
            per_path("V", prod, np.sum)
            per_path("V_abs", np.abs(prod), np.sum)
            per_path("H", np.abs(prod), np.max)
    return {k: np.concatenate(v) for k, v in cols.items()}


FOREST_CASES = [
    (kt.KacKernel(), kt.SymmetricPareto(1.5)),
    (kt.DeterministicKernel(0.6, 0.7), kt.AsymmetricPareto(1.2, 0.7, 0.3)),
    (kt.DiscreteKernel(((0.9, 0.3), (0.5, 0.8)), (0.4, 0.6)), kt.SymmetricPareto(0.8)),
]


@pytest.mark.parametrize("kernel, law", FOREST_CASES)
def test_forest_statistics_equals_reference_reduction(monkeypatch, kernel, law):
    # a small leaf budget splits 300 paths into sub-batches of 94.  The
    # reducers add slot rows, so a tree's sum may run in another order
    # than np.sum's: maxima match exactly, sums within rounding
    monkeypatch.setattr(kt.processes, "_LEAF_BUDGET", 256)
    batch = int(256 / math.e)
    alphas = (law.alpha, 2.0)
    g, g_ref = rng(21), rng(21)
    fs = forest_statistics(kernel, 1.0, 300, g, law_sums(law))
    ref = _reference_forest(kernel, 1.0, alphas, 300, g_ref, law, batch)
    np.testing.assert_array_equal(fs.nu, ref["nu"])
    v, h = fs.stats
    assert np.all(np.abs(v - ref["V"]) <= 1e-14 * ref["V_abs"])
    assert h.tobytes() == ref["H"].tobytes()
    # per sub-batch the stream gives the Yule counts, the growth, then the
    # reducer's draws, so it goes on where the reference's does
    assert g.random(4).tobytes() == g_ref.random(4).tobytes()

    # one alpha per call; M takes no draws, so each replays the stream
    g_ref = rng(22)
    ref = _reference_forest(kernel, 1.0, alphas, 300, g_ref, None, batch)
    after = g_ref.random(4)
    for a in alphas:
        g = rng(22)
        trees = forest_statistics(kernel, 1.0, 300, g, alpha_sums(a))
        np.testing.assert_array_equal(trees.nu, ref["nu"])
        m, beta_max = trees.stats
        assert np.all(np.abs(m - ref[a]) <= 1e-14 * ref[a])
        assert beta_max.tobytes() == ref["beta_max"].tobytes()
        assert g.random(4).tobytes() == after.tobytes()


def _tree_major_hit_counts(kernel, law, t, xs, n_paths, g):
    """tail_hit_counts on a forest laid out tree after tree: the replay's
    weights, the law draws in tree order, then reduceat per tree."""
    nu = kt.sample_yule(t, g, n_paths)
    flat, order = replay_batch(kernel, nu, g)
    weights_by_tree, starts = tree_major(flat, nu[order])
    prod = weights_by_tree * law.sample(g, weights_by_tree.size)
    f = rescale_factor(kernel, law.alpha, t)
    v = np.abs(np.add.reduceat(prod, starts)) * f
    h = np.maximum.reduceat(np.abs(prod), starts) * f
    return [(v > x).sum() for x in xs], [(h > x).sum() for x in xs]


@pytest.mark.parametrize("law", [kt.SymmetricPareto(1.5), kt.AsymmetricPareto(1.2, 0.7, 0.3)],
                         ids=["symmetric", "asymmetric"])
def test_slot_major_draws_keep_the_law_of_the_tail_counts(law):
    # the law draws land on other leaves than in a tree-major layout; the
    # counts of |V| > x and H > x must still be those of the same law
    kernel, xs, n = kt.KacKernel(), (2.0, 5.0, 20.0), 20_000
    hits_v, hits_h = kt.tail_hit_counts(kernel, law, 3.0, xs, n, rng(41))
    ref_v, ref_h = _tree_major_hit_counts(kernel, law, 3.0, xs, n, rng(42))
    for ours, ref in ((hits_v, ref_v), (hits_h, ref_h)):
        for x, a, b in zip(xs, ours, ref):
            p, q = a / n, b / n
            se = math.sqrt((p * (1 - p) + q * (1 - q)) / n)
            assert abs(p - q) <= 4 * se, (x, a, b)
            assert b > 20, (x, b)


@pytest.mark.parametrize("reducer", [law_sums(kt.SymmetricPareto(1.5)), alpha_sums(1.5)],
                         ids=["symmetric", "no-law"])
def test_reducers_do_not_depend_on_the_row_block(reducer, monkeypatch):
    # at 16 leaves the first slot rows (one slot of each of hundreds of
    # trees) are longer than a block, and the narrow last rows share
    # blocks; each tree's sums still run over its slots in order, and the
    # symmetric law's draws concatenate, so the values and the stream
    # after them are those of the default 2^17-leaf blocks
    def run():
        g = rng(23)
        fs = forest_statistics(kt.KacKernel(), 2.0, 500, g, reducer)
        return fs, g.bit_generator.state

    ref, ref_state = run()
    widths = np.array([(ref.nu > r).sum() for r in range(ref.nu.max())])
    assert ref.nu.sum() < processes._ROW_BLOCK
    assert widths[0] > 16 and (widths < 8).sum() > 10
    monkeypatch.setattr(processes, "_ROW_BLOCK", 16)
    fs, state = run()
    np.testing.assert_array_equal(fs.nu, ref.nu)
    for col, ref_col in zip(fs.stats, ref.stats):
        assert col.tobytes() == ref_col.tobytes()
    assert state == ref_state


def test_rescaled_tree_sum_has_unit_mean():
    # E[e^{-Q(a) t} M_{nu_t}(a)] = 1 at every t
    g = rng(6)
    m, _ = forest_statistics(kt.KacKernel(), 3.0, 100_000, g, alpha_sums(1.0)).stats
    z = math.exp(-S1_KAC * 3.0) * m
    se = z.std(ddof=1) / math.sqrt(z.size)
    assert abs(z.mean() - 1.0) <= 4 * se


def test_mean_normalization_identity():
    # E[m_{nu_t}(a)] = e^{Q(a) t}, via the geometric series identity
    g = rng(7)
    for t in (1.0, 2.0, 3.0):
        nu = kt.sample_yule(t, g, 100_000)
        table = mean_weight_norm_table(S1_KAC, int(nu.max()))
        m = table[nu - 1]
        se = m.std(ddof=1) / math.sqrt(m.size)
        assert abs(m.mean() - math.exp(S1_KAC * t)) <= 4 * se, t


def test_geometric_gamma_series_identity():
    # sum_n Gamma(g+n)/(Gamma(n)Gamma(g+1)) (1-u)^(n-1) = u^-(g+1)
    for gam in (-0.5, S1_KAC, 1.0):
        for u in (0.2, 0.5):
            n = np.arange(1, 200_000, dtype=float)
            log_terms = np.concatenate((
                [0.0], np.cumsum(np.log1p(gam / n[:-1]))
            )) + np.log1p(-u) * (n - 1)
            total = np.exp(log_terms).sum()
            assert abs(total - u ** -(gam + 1.0)) < 1e-6 * u ** -(gam + 1.0)


def test_wild_oracle_base_cases():
    g = rng(8)
    law = kt.SymmetricPareto(1.5)
    draws = wild_oracle_max(kt.KacKernel(), law, 1, g, size=5000)
    assert np.all(draws >= 1.0)  # |X| >= xmin
    # n = 2 is max(L|X1|, R|X2|): compare against a direct construction
    direct_rng = rng(9)
    L, R = kt.KacKernel().sample(direct_rng, 20_000)
    x1 = np.abs(law.sample(direct_rng, 20_000))
    x2 = np.abs(law.sample(direct_rng, 20_000))
    direct = np.maximum(L * x1, R * x2)
    oracle = wild_oracle_max(kt.KacKernel(), law, 2, g, size=20_000)
    d = stats.ks_2samp(direct, oracle)
    assert d.statistic < 0.02


def test_wild_oracle_matches_tree_conditional_law():
    g = rng(10)
    law = kt.SymmetricPareto(1.5)
    kernel = kt.KacKernel()
    oracle = wild_oracle_max(kernel, law, 5, g, size=20_000)
    flat, sizes, _ = kt.grow_weights_batch(kernel, np.full(20_000, 5), g)
    x = law.sample(g, flat.size)
    tree = np.maximum.reduceat(*tree_major(np.abs(flat * x), sizes))
    d = stats.ks_2samp(oracle, tree)
    assert d.statistic < 0.025


def test_wild_oracle_range_check():
    with pytest.raises(ValueError):
        wild_oracle_max(kt.KacKernel(), kt.SymmetricPareto(1.5), 13, rng(0), 1)


def test_forest_matches_single_path_sampler():
    g1, g2 = rng(11), rng(12)
    law = kt.SymmetricPareto(1.5)
    kernel = kt.KacKernel()
    v, _ = forest_statistics(kernel, 1.0, 3000, g1, law_sums(law)).stats

    def single_path_V():
        n = int(kt.sample_yule(1.0, g2, 1)[0])
        return (grow_tree(kernel, n, g2) * law.sample(g2, n)).sum()

    singles = np.array([single_path_V() for _ in range(3000)])
    d = stats.ks_2samp(v, singles)
    assert d.statistic < 0.05


@pytest.mark.parametrize("kernel", [kt.KacKernel(), kt.DeterministicKernel(0.6, 0.7)],
                         ids=["kac", "deterministic"])
@pytest.mark.parametrize("reducer", [law_sums(kt.SymmetricPareto(1.5)),
                                     law_sums(kt.AsymmetricPareto(1.2, 0.7, 0.3)),
                                     alpha_sums(1.5)], ids=["symmetric", "asymmetric", "no-law"])
def test_forest_statistics_peaks_at_one_leaf_array(kernel, reducer, monkeypatch):
    # one 16,384-path sub-batch at t = 4 holds ~0.9M leaves; growth holds the
    # weights and one step's index uniforms, the reducer the weights and one
    # block of products (or of beta ** alpha), and nothing else of leaf
    # length.  NumPy reports its buffers to tracemalloc, but not the mappings
    # leaf_array returns, so the weights come from np.zeros here.
    monkeypatch.setattr(weights, "leaf_array", np.zeros)
    g = rng(31)
    tracemalloc.start()
    try:
        fs = forest_statistics(kernel, 4.0, 16_384, g, reducer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    leaf_array = 8 * int(fs.nu.sum())
    assert peak <= 1.5 * leaf_array, peak / leaf_array


_RESIDENT_PEAK = """
import resource, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import kactails as kt
from kactails.processes import forest_statistics, law_sums

kernel, g = kt.KacKernel(), np.random.default_rng(32)
law = law_sums(kt.SymmetricPareto(1.5))
forest_statistics(kernel, 1.0, 16_384, g, law)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
leaves = max(int(forest_statistics(kernel, t, 16_384, g, law).nu.sum())
             for t in (3.0, 3.0, 4.0, 4.0))
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(1024 * grown / (8 * leaves))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_forest_statistics_resident_peak_is_one_leaf_array():
    # what the process holds, not only what NumPy reports: sub-batches of
    # ~0.3M and ~0.9M leaves one after another, in a fresh interpreter, raise
    # its peak RSS by one leaf array, not by what freed heap blocks of
    # earlier sub-batches leave resident (2.8-3.0 with the leaf arrays
    # taken from the heap, 1.97 with a second leaf array for the index
    # uniforms and the law draws)
    src = pathlib.Path(kt.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", _RESIDENT_PEAK, str(src)],
                          capture_output=True, text=True, check=True)
    assert float(proc.stdout) <= 1.5, proc.stdout


def test_rescaled_quantiles_are_tight_in_t():
    # diagnostic: the 99% quantiles of e^{-mu(a) t} V_t and H_t stabilize
    g = rng(13)
    law = kt.SymmetricPareto(1.0)
    kernel = kt.KacKernel()
    mu = S1_KAC
    qv, qh = {}, {}
    for t in (2.0, 4.0, 6.0):
        v, h = forest_statistics(kernel, t, 30_000, g, law_sums(law)).stats
        f = math.exp(-mu * t)
        qv[t] = np.quantile(np.abs(v) * f, 0.99)
        qh[t] = np.quantile(h * f, 0.99)
    for t in (2.0, 4.0):
        assert abs(qv[t] / qv[6.0] - 1.0) <= 0.2
        assert abs(qh[t] / qh[6.0] - 1.0) <= 0.2


def test_yule_refuses_underflowing_success_probability():
    # e^-800 underflows to 0; the transform used to return 1 leaf silently
    assert math.exp(-800.0) == 0.0
    with pytest.raises(ValueError, match="underflow"):
        kt.sample_yule(800.0, rng(4), 10)


@pytest.mark.parametrize("t", [40.07, 43.0, 44.0, 60.0, 700.0])
def test_yule_refuses_counts_that_overflow_int64(t):
    # the largest draw, about 36.74 e^t leaves, passes 2^63 beyond t ~ 40.06;
    # the int64 cast used to warn and hand out junk counts there
    with pytest.raises(ValueError, match="overflow"):
        kt.sample_yule(t, rng(4), 5)


def test_yule_counts_fit_int64_up_to_the_bound():
    top = SimpleNamespace(random=lambda m: np.full(m, 1.0 - 2.0 ** -53))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n = kt.sample_yule(40.0, rng(5), 10 ** 5)
        largest = kt.sample_yule(40.0, top, 1)
    assert n.min() >= 1
    assert 8e18 < largest[0] < 2 ** 63
