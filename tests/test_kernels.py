import math

import numpy as np
import pytest

import kactails as kt
from kactails.kernels import (
    CASE_DOWN_CRITICAL,
    CASE_FLAT_MODERATE,
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


def test_deterministic_sample_is_degenerate():
    k = kt.DeterministicKernel(0.5, 0.5)
    g = rng(1)
    for _ in range(50):
        assert k.sample(g) == (0.5, 0.5)
    L, R = k.sample(g, 1000)
    assert np.all(L == 0.5) and np.all(R == 0.5)


def test_kac_pair_lies_on_unit_circle():
    # batch and scalar draws lie on the quarter circle
    k = kt.KacKernel()
    L, R = k.sample(rng(2), 10_000)
    assert np.all(L >= 0) and np.all(R >= 0)
    assert np.all(L <= 1) and np.all(R <= 1)
    np.testing.assert_allclose(L**2 + R**2, 1.0, atol=1e-12)
    g = rng(3)
    for _ in range(200):
        l, r = k.sample(g)
        assert isinstance(l, float) and isinstance(r, float)
        assert 0 <= l <= 1 and 0 <= r <= 1
        assert abs(l * l + r * r - 1.0) <= 1e-12


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


def test_spectral_conservative_deterministic_kernel():
    a = 1.5
    k = kt.DeterministicKernel(2 ** (-1 / a), 2 ** (-1 / a))
    rep = kt.spectral(k, a)
    assert rep.method == "closed-form"
    assert rep.std_error == 0.0
    assert abs(rep.Q_s) < 1e-14


def test_spectral_kac_closed_forms():
    k = kt.KacKernel()
    assert kt.spectral(k, 2.0).Q_s == 0.0
    rep = kt.spectral(k, 1.0)
    assert abs(rep.Q_s - Q1_KAC) < 1e-14
    assert abs(rep.mu_s - Q1_KAC) < 1e-14


def test_spectral_quadrature_agrees_with_closed_form():
    k = kt.KacKernel()
    for s in (0.5, 1.0, 1.7, 3.0):
        quad, err = kac_Q_quadrature(s)
        closed = kt.spectral(k, s)
        assert abs(quad - closed.Q_s) <= max(1e-9, 5 * err)


def test_spectral_monte_carlo_matches_closed_form():
    sampler = kt.KacKernel().sample
    user = kt.UserKernel(lambda g, size: sampler(g, size))
    rep = kt.spectral(user, 1.0, budget=200_000, rng=rng(4))
    assert rep.method == "monte-carlo"
    assert rep.std_error > 0
    assert abs(rep.Q_s - Q1_KAC) <= 5 * rep.std_error


def test_spectral_monte_carlo_flags_infinite_moment():
    def heavy(g, size):
        # Pareto index 0.3: E[L] infinite
        u = np.maximum(g.random(size), 2.0**-53)
        v = u ** (-1 / 0.3)
        return v, v

    rep = kt.spectral(kt.UserKernel(heavy), 1.0, budget=50_000, rng=rng(5))
    assert math.isinf(rep.Q_s)


def test_spectral_requires_positive_s_and_budget():
    with pytest.raises(ValueError):
        kt.spectral(kt.KacKernel(), 0.0)
    with pytest.raises(ValueError):
        kt.spectral(kt.UserKernel(lambda g, n: (g.random(n), g.random(n))),
                    1.0, budget=10, rng=rng(0))


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
            q1, q2, q3 = (kt.spectral(k, s).Q_s for s in (s1, s2, s3))
            assert q2 <= lam * q1 + (1 - lam) * q3 + 1e-12


def test_convexity_probe_monte_carlo():
    sampler = kt.KacKernel().sample
    user = kt.UserKernel(lambda g, size: sampler(g, size))
    g = rng(6)
    s1, s2, s3 = 0.5, 1.0, 2.0
    lam = (s3 - s2) / (s3 - s1)
    r1, r2, r3 = (kt.spectral(user, s, budget=50_000, rng=g) for s in (s1, s2, s3))
    se = math.hypot(lam * r1.std_error, (1 - lam) * r3.std_error, r2.std_error)
    assert r2.Q_s <= lam * r1.Q_s + (1 - lam) * r3.Q_s + 5 * se


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
    # exactly; u = 1 - sqrt(2)/2 lands in the moderate band (-1 < 2Q(a) <= 0)
    # and u = 1 + sqrt(2)/2 in the positive one
    from kactails.kernels import CASE_FLAT_MODERATE, CASE_FLAT_POSITIVE
    a = 1.5
    for u, case in ((1.0 - math.sqrt(2) / 2, CASE_FLAT_MODERATE),
                    (1.0 + math.sqrt(2) / 2, CASE_FLAT_POSITIVE)):
        k = kt.DeterministicKernel(u ** (1 / a), u ** (1 / a))
        reg = kt.classify_regime(k, a)
        assert abs(reg.mu_2alpha - reg.mu_alpha) < 1e-12
        assert reg.case_id == case, u


def test_classify_regime_scale_consistent_under_tighter_tol():
    cases = [
        (kt.KacKernel(), 1.0),
        (kt.DeterministicKernel(0.25 ** (2 / 3), 0.25 ** (2 / 3)), 1.5),
        (kt.DeterministicKernel(1.0, 1.0), 1.5),
    ]
    for k, a in cases:
        assert kt.classify_regime(k, a, tol=1e-9).case_id \
            == kt.classify_regime(k, a, tol=1e-10).case_id


def test_classify_regime_rejects_infinite_second_moment():
    def heavy(g, size):
        u = np.maximum(g.random(size), 2.0**-53)
        v = u ** (-1 / 0.4)
        return v, v

    with pytest.raises(RegimeUnavailableError):
        kt.classify_regime(kt.UserKernel(heavy), 1.0, rng=rng(7), budget=20_000)


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
    with pytest.raises(ValueError):
        kt.classify_regime(k, 1.0, eta=0.0)


def _regime(case, S_a=-0.5, S_2a=-0.375, eta=0.1):
    return Regime(alpha=1.5, S_alpha=S_a, S_2alpha=S_2a,
                  mu_alpha=S_a / 1.5, mu_2alpha=S_2a / 3.0,
                  case_id=case, eta=eta)


def test_h_of_t_table_rows():
    # the rows of h(t), read through log h = log_h_of_t
    # growing-mu case with S(2a) - 2S(a) = 1/8 at t = 8 gives h = e^1
    reg = _regime(CASE_UP, S_a=-0.5, S_2a=-7 / 8)
    assert log_h_of_t(reg, 8.0) == 1.0
    # linear row
    assert log_h_of_t(_regime(CASE_DOWN_CRITICAL), 5.0) == math.log(5.0)
    assert log_h_of_t(_regime(CASE_FLAT_MODERATE), 5.0) == math.log(5.0)
    # unrestricted convention h = 1
    assert log_h_of_t(_regime(CASE_UNRESTRICTED), 3.7) == 0.0
    assert log_h_of_t(_regime(CASE_UNRESTRICTED), 0.0) == 0.0


def test_h_of_t_remaining_rows():
    from kactails.kernels import CASE_FLAT_CRITICAL, CASE_FLAT_POSITIVE, CASE_FLAT_STEEP, CASE_DOWN_STEEP
    # h = 9, e^0.2, e^1.2 and 2 e^1.2
    assert log_h_of_t(_regime(CASE_FLAT_CRITICAL), 3.0) == 2.0 * math.log(3.0)
    assert log_h_of_t(_regime(CASE_FLAT_POSITIVE, S_a=0.3), 2.0) == 0.2
    reg = _regime(CASE_DOWN_STEEP, S_a=-0.8)
    assert abs(log_h_of_t(reg, 2.0) - 1.2) < 1e-15
    reg = _regime(CASE_FLAT_STEEP, S_a=-0.8)
    assert abs(log_h_of_t(reg, 2.0) - (math.log(2.0) + 1.2)) < 1e-15


def test_kac_scalar_and_batch_draws_agree():
    # one double per draw in both paths: scalar draws replay the batch
    k = kt.KacKernel()
    L, R = k.sample(rng(33), 50)
    g = rng(33)
    pairs = [k.sample(g) for _ in range(50)]
    np.testing.assert_allclose([p[0] for p in pairs], L, rtol=0, atol=1e-15)
    np.testing.assert_allclose([p[1] for p in pairs], R, rtol=0, atol=1e-15)


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
