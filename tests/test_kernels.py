import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kactails as kt
from kactails.kernels import (
    CASE_FLAT_MODERATE,
    CASE_FLAT_POSITIVE,
    CASE_UNRESTRICTED,
    CASE_UP,
    Regime,
    RegimeUnavailableError,
    log_h_of_t,
)

from spectral_reference import kac_Q_quadrature

Q1_KAC = 4.0 / math.pi - 1.0


def rng(seed=0):
    return np.random.default_rng(seed)


_SAMPLERS = {
    "deterministic": lambda g: kt.DeterministicKernel(0.5, 0.5).sample(g),
    "kac": lambda g: kt.KacKernel().sample(g),
    "discrete": lambda g: kt.DiscreteKernel(((1.0, 0.5), (0.5, 1.0)), (0.5, 0.5)).sample(g),
    "symmetric": lambda g: kt.SymmetricPareto(1.5).sample(g),
    "asymmetric": lambda g: kt.AsymmetricPareto(1.5, 0.7, 0.3).sample(g),
    "yule": lambda g: kt.sample_yule(1.0, g),
    "V-infinity": lambda g: kt.sample_V_infinity(kt.ZPool.ones(10, 1.5),
                                                 kt.SymmetricPareto(1.5), g),
}


@pytest.mark.parametrize("draw", _SAMPLERS.values(), ids=_SAMPLERS.keys())
def test_samplers_need_a_size(draw):
    # every sampler draws arrays; a single draw is size 1
    with pytest.raises(TypeError):
        draw(rng(0))


@pytest.mark.parametrize("kernel", [
    kt.DeterministicKernel(0.6, 0.7),
    kt.KacKernel(),
    kt.DiscreteKernel(((0.9, 0.3), (0.5, 0.8)), (0.4, 0.6)),
    kt.DiscreteKernel(((0.7, 0.7),), (1.0,)),
], ids=["deterministic", "kac", "discrete", "discrete-one-atom"])
def test_kernel_sample_returns_new_unshared_arrays(kernel):
    # zpool_iterate raises L and R to a power in place, so the two arrays of
    # a draw may share no memory with each other or with an earlier draw's
    g = rng(8)
    first = kernel.sample(g, 100)
    second = kernel.sample(g, 100)
    for a in first + second:
        assert isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == (100,)
    for l, r in (first, second):
        assert not np.shares_memory(l, r)
    for old in first:
        for new in second:
            assert not np.shares_memory(old, new)


@pytest.mark.parametrize("kernel", [
    kt.KacKernel(),
    kt.DeterministicKernel(0.6, 0.7),
    kt.DiscreteKernel(((0.9, 0.0), (0.5, 0.8)), (0.4, 0.6)),
], ids=["kac", "deterministic", "discrete-zero-atom"])
@pytest.mark.parametrize("m, n", [(0, 7), (1, 1), (3, 1000), (257, 31)])
def test_kernel_draws_concatenate(kernel, m, n):
    # grow_weights_batch draws its pairs step by step and must consume the
    # stream of one call: the same pairs, and the generator left where it was
    whole, split = rng(21), rng(21)
    l, r = kernel.sample(whole, m + n)
    parts = [kernel.sample(split, m), kernel.sample(split, n)]
    assert np.concatenate([p[0] for p in parts]).tobytes() == l.tobytes()
    assert np.concatenate([p[1] for p in parts]).tobytes() == r.tobytes()
    assert split.random(4).tobytes() == whole.random(4).tobytes()


def test_deterministic_sample_is_degenerate():
    k = kt.DeterministicKernel(0.5, 0.5)
    L, R = k.sample(rng(1), 1000)
    assert np.all(L == 0.5) and np.all(R == 0.5)


def test_kac_pair_lies_on_unit_circle():
    k = kt.KacKernel()
    L, R = k.sample(rng(2), 10_000)
    assert np.all(L >= 0) and np.all(R >= 0)
    assert np.all(L <= 1) and np.all(R <= 1)
    np.testing.assert_allclose(L**2 + R**2, 1.0, atol=1e-12)


def test_discrete_mixture_mean_matches_expectation():
    # E[L] = 0.5*1 + 0.5*0.5 = 0.75; Var(L) = 0.0625
    k = kt.DiscreteKernel(((1.0, 0.5), (0.5, 1.0)), (0.5, 0.5))
    L, _ = k.sample(rng(3), 100_000)
    se = 0.25 / math.sqrt(L.size)
    assert abs(L.mean() - 0.75) <= 4 * se


def test_degenerate_support_mixture_is_rejected():
    # P{L>0} + P{R>0} = 1 violates the standing assumption
    with pytest.raises(ValueError):
        kt.DiscreteKernel(((1.0, 0.0), (0.0, 1.0)), (0.5, 0.5))
    with pytest.raises(ValueError):
        kt.DeterministicKernel(1.0, 0.0)
    with pytest.raises(ValueError):
        kt.DeterministicKernel(-0.1, 1.0)


def test_discrete_probabilities_validated():
    with pytest.raises(ValueError):
        kt.DiscreteKernel(((0.5, 0.5),), (0.7,))
    with pytest.raises(ValueError):
        kt.DiscreteKernel(((0.5, 0.5), (1.0, 1.0)), (0.5, -0.5))


@pytest.mark.parametrize("make", [
    lambda: kt.DeterministicKernel(math.inf, 0.5),
    lambda: kt.DeterministicKernel(0.5, math.inf),
    lambda: kt.DiscreteKernel(((math.nan, 1.0), (1.0, 1.0)), (0.5, 0.5)),
    lambda: kt.DiscreteKernel(((1.0, math.inf), (1.0, 1.0)), (0.5, 0.5)),
    lambda: kt.DiscreteKernel(((1.0, 1.0), (0.5, 0.5)), (math.nan, 0.5)),
], ids=["det-l-inf", "det-r-inf", "discrete-nan-atom", "discrete-inf-atom",
        "discrete-nan-prob"])
def test_kernels_reject_non_finite_parameters(make):
    # a NaN atom passed the sign checks and an infinite coefficient made
    # 0 * inf = NaN in the pool; a NaN probability failed only the support test
    with pytest.raises(ValueError, match="finite and non-negative|positive and sum to 1"):
        make()


def test_spectral_conservative_deterministic_kernel():
    a = 1.5
    k = kt.DeterministicKernel(2 ** (-1 / a), 2 ** (-1 / a))
    assert abs(kt.spectral(k, a)) < 1e-14


def test_spectral_kac_closed_forms():
    k = kt.KacKernel()
    assert kt.spectral(k, 2.0) == 0.0
    assert abs(kt.spectral(k, 1.0) - Q1_KAC) < 1e-14


def test_spectral_quadrature_agrees_with_closed_form():
    k = kt.KacKernel()
    for s in (0.5, 1.0, 1.7, 3.0):
        quad, err = kac_Q_quadrature(s)
        closed = kt.spectral(k, s)
        assert abs(quad - closed) <= max(1e-9, 5 * err)


@pytest.mark.parametrize("s", [0.0, -0.5, -math.inf, math.nan])
def test_spectral_requires_positive_s(s):
    # s = NaN returned a NaN Q(s) instead of an error
    with pytest.raises(ValueError):
        kt.spectral(kt.KacKernel(), s)


def test_convexity_of_spectral_function_closed_form():
    # Q(s2) <= lam Q(s1) + (1-lam) Q(s3) on every closed-form kernel
    kernels = [
        kt.KacKernel(),
        kt.DeterministicKernel(0.3, 0.9),
        kt.DiscreteKernel(((0.2, 0.9), (1.1, 0.4)), (0.3, 0.7)),
    ]
    grid = [(0.5, 1.0, 2.0), (0.25, 1.5, 3.0), (1.0, 2.0, 2.5)]
    for k in kernels:
        for s1, s2, s3 in grid:
            lam = (s3 - s2) / (s3 - s1)
            q1, q2, q3 = (kt.spectral(k, s) for s in (s1, s2, s3))
            assert q2 <= lam * q1 + (1 - lam) * q3 + 1e-12


def test_classify_regime_conservative_case():
    a = 1.5
    k = kt.DeterministicKernel(2 ** (-1 / a), 2 ** (-1 / a))
    reg = kt.classify_regime(k, a)
    assert abs(reg.S_alpha) < 1e-12
    assert abs(reg.S_2alpha + 0.5) < 1e-12
    assert reg.case_id == CASE_UNRESTRICTED


def test_classify_regime_dissipative_case():
    # l = r with l^alpha = 1/4: S(a) = -1/2, S(2a) = -7/8, mu(2a) > mu(a)
    a = 1.5
    l = 0.25 ** (1 / a)
    reg = kt.classify_regime(kt.DeterministicKernel(l, l), a)
    assert abs(reg.S_alpha + 0.5) < 1e-12
    assert abs(reg.S_2alpha + 7 / 8) < 1e-12
    assert reg.mu_2alpha > reg.mu_alpha
    assert reg.case_id == CASE_UP


def test_classify_regime_expanding_case():
    reg = kt.classify_regime(kt.DeterministicKernel(1.0, 1.0), 1.5)
    assert reg.S_alpha == 1.0
    assert reg.mu_2alpha < reg.mu_alpha
    assert 2 * reg.S_alpha > -1
    assert reg.case_id == CASE_UNRESTRICTED


def test_classify_regime_flat_cases():
    # l = r with l^a = u solving 2u^2 - 1 = 2(2u - 1) gives mu(2a) = mu(a)
    # exactly; u = 1 - sqrt(2)/2 lands in the moderate case (Q(a) <= 0) and
    # u = 1 + sqrt(2)/2 in the positive one
    a = 1.5
    for u, case in ((1.0 - math.sqrt(2) / 2, CASE_FLAT_MODERATE),
                    (1.0 + math.sqrt(2) / 2, CASE_FLAT_POSITIVE)):
        k = kt.DeterministicKernel(u ** (1 / a), u ** (1 / a))
        reg = kt.classify_regime(k, a)
        assert abs(reg.mu_2alpha - reg.mu_alpha) < 1e-12
        assert reg.case_id == case, u


_COEFFICIENT = st.floats(1e-6, 3.0)


@st.composite
def _discrete_kernels(draw):
    n = draw(st.integers(1, 4))
    atoms = draw(st.lists(st.tuples(st.one_of(st.just(0.0), _COEFFICIENT),
                                    st.one_of(st.just(0.0), _COEFFICIENT)),
                          min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    try:
        return kt.DiscreteKernel(atoms, tuple(w / sum(weights) for w in weights))
    except ValueError:  # P{L>0} + P{R>0} <= 1
        return draw(st.nothing())


_KERNELS = st.one_of(
    _discrete_kernels(),
    st.builds(kt.DeterministicKernel, _COEFFICIENT, _COEFFICIENT),
)


@settings(max_examples=300, deadline=None)
@given(kernel=_KERNELS, alpha=st.floats(0.05, 1.95))
# Q(3) rounds to exactly -1.0 here, yet mu(3) > mu(1.5)
@example(kernel=kt.DeterministicKernel(1e-10 ** (2 / 3), 1e-10 ** (2 / 3)), alpha=1.5)
def test_jensen_bound_leaves_four_regime_cases(kernel, alpha):
    # E[L^2a + R^2a] >= E[L^a + R^a]^2 / 2 under P{L>0} + P{R>0} > 1, so
    # Q(2a) > -1 and no case with 2Q(a) <= -1 is reached
    m_a, m_2a = kernel.pair_moment(alpha), kernel.pair_moment(2.0 * alpha)
    assert m_2a >= m_a ** 2 / 2.0 * (1.0 - 1e-12)
    assert kt.classify_regime(kernel, alpha).case_id in (
        CASE_UNRESTRICTED, CASE_UP, CASE_FLAT_POSITIVE, CASE_FLAT_MODERATE)


@pytest.mark.parametrize("kernel,alpha,case", [
    (kt.KacKernel(), 1.0, CASE_UNRESTRICTED),
    (kt.DeterministicKernel(0.25 ** (2 / 3), 0.25 ** (2 / 3)), 1.5, CASE_UP),
    (kt.DeterministicKernel(1.0, 1.0), 1.5, CASE_UNRESTRICTED),
], ids=["kac", "det-quarter", "det-one"])
def test_classify_regime_of_three_kernels(kernel, alpha, case):
    assert kt.classify_regime(kernel, alpha).case_id == case


@pytest.mark.parametrize("kernel", [
    kt.DeterministicKernel(1e200, 0.5),
    kt.DiscreteKernel(((1e200, 0.5), (0.5, 0.5)), (0.5, 0.5)),
    kt.DeterministicKernel(1e-300, 1e-300),
])
def test_classify_regime_reports_an_out_of_range_moment_as_unavailable(kernel):
    # l^(2a) past the float range used to escape as an OverflowError, and
    # l^a underflowing to 0 gave Q(a) = -1, which the pool and m_n refuse
    with pytest.raises(RegimeUnavailableError):
        kt.classify_regime(kernel, 1.5)


def test_classify_regime_validates_inputs():
    k = kt.KacKernel()
    with pytest.raises(ValueError):
        kt.classify_regime(k, 2.0)


def _regime(case, S_a=-0.5, S_2a=-0.375):
    return Regime(alpha=1.5, S_alpha=S_a, S_2alpha=S_2a,
                  mu_alpha=S_a / 1.5, mu_2alpha=S_2a / 3.0, case_id=case)


def test_h_of_t_table_rows():
    # the rows of h(t), read through log h = log_h_of_t
    # growing-mu case with S(2a) - 2S(a) = 1/8 at t = 8 gives h = e^1
    reg = _regime(CASE_UP, S_a=-0.5, S_2a=-7 / 8)
    assert log_h_of_t(reg, 8.0) == 1.0
    # linear row
    assert log_h_of_t(_regime(CASE_FLAT_MODERATE), 5.0) == math.log(5.0)
    # unrestricted convention h = 1
    assert log_h_of_t(_regime(CASE_UNRESTRICTED), 3.7) == 0.0
    assert log_h_of_t(_regime(CASE_UNRESTRICTED), 0.0) == 0.0


def test_h_of_t_remaining_rows():
    # h = e^0.2
    assert log_h_of_t(_regime(CASE_FLAT_POSITIVE, S_a=0.3), 2.0) == 0.2


@pytest.mark.parametrize("t", [-1.0, math.nan])
def test_h_of_t_rejects_negative_and_nan_t(t):
    # t = NaN gave log h = 0 in the unrestricted case instead of an error
    with pytest.raises(ValueError):
        log_h_of_t(_regime(CASE_UNRESTRICTED), t)


def test_kac_coordinate_means():
    # E|sin theta| = E|cos theta| = 2/pi
    L, R = kt.KacKernel().sample(rng(34), 1_000_000)
    for v in (L, R):
        se = v.std(ddof=1) / math.sqrt(v.size)
        assert abs(v.mean() - 2.0 / math.pi) <= 5 * se


@pytest.mark.parametrize("s", [0.5, 1.5, 3.0])
def test_kac_pair_moment_matches_monte_carlo(s):
    k = kt.KacKernel()
    L, R = k.sample(rng(35), 1_000_000)
    vals = L**s + R**s
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - k.pair_moment(s)) <= 5 * se
