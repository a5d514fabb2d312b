import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import kactails as kt
from kactails.initial_data import _BLOCK
from pareto_tail_reference import abs_tail_reference


def rng(seed=0):
    return np.random.default_rng(seed)


def test_symmetric_pareto_tail_probability():
    law = kt.SymmetricPareto(1.5)
    x = law.sample(rng(1), 1_000_000)
    p = (np.abs(x) > 2.0).mean()
    target = 2.0 ** -1.5
    se = math.sqrt(target * (1 - target) / x.size)
    assert abs(p - target) <= 4 * se


def test_symmetric_pareto_mean_and_support():
    law = kt.SymmetricPareto(1.5)
    x = law.sample(rng(2), 1_000_000)
    assert np.all(np.abs(x) >= 1.0)
    se = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean()) <= 4 * se


def test_symmetric_pareto_profile_constants():
    law = kt.SymmetricPareto(1.5)
    assert law.c0 == 1.0
    assert law.K0 == 2.0
    assert law.envelope(2.0) == 0.0
    assert law.envelope(1.0) == 0.0
    assert law.envelope(0.5) == 1.0 - 0.5 ** 1.5


def test_alpha_one_profile_constants():
    # K1 = (gamma0 + sup_R |truncated mean - gamma0|)^2 = 0 by symmetry
    assert kt.SymmetricPareto(1.0).K1 == 0.0


@pytest.mark.parametrize("alpha,expected", [(0.5, 16.0), (1.5, 36.0)])
def test_k1_alpha_split(alpha, expected):
    # K0 = 2 for the unit symmetric Pareto; K1 = K0^2/(1-a)^2 below 1 and
    # K0^2 a^2/(a-1)^2 above 1
    assert abs(kt.SymmetricPareto(alpha).K1 - expected) < 1e-12


def test_tail_normalization_converges_to_c0():
    # x^alpha * empirical tail -> c0 within the Monte Carlo CI
    law = kt.SymmetricPareto(1.5)
    x = np.abs(law.sample(rng(3), 1_000_000))
    for thr in (5.0, 20.0):
        p = (x > thr).mean()
        se = math.sqrt(p * (1 - p) / x.size)
        assert abs(thr ** 1.5 * p - 1.0) <= 4 * se * thr ** 1.5


@pytest.mark.parametrize("law", [
    kt.SymmetricPareto(0.7),
    kt.SymmetricPareto(1.5, xmin=2.0),
    kt.AsymmetricPareto(0.8, 0.7, 0.3),
    kt.AsymmetricPareto(1.5, 0.7, 0.3),
    kt.AsymmetricPareto(1.5, 1.2, 0.2, xmin=1.0),
])
def test_envelope_dominates_remainder_and_is_monotone(law):
    grid = np.geomspace(1e-3, 1e4, 600)
    rb = np.array([law.envelope(v) for v in grid])
    # R(x) = x^alpha P{|X| > x} / c0 - 1
    rr = np.abs(grid ** law.alpha * law.abs_tail(grid) / law.c0 - 1.0)
    assert np.all(rr <= rb + 1e-12)
    assert np.all(np.diff(rb) <= 1e-12)
    assert rb[-1] < 1e-3  # envelope decays at infinity


def test_asymmetric_default_scale_reproduces_constants():
    law = kt.AsymmetricPareto(1.2, 0.7, 0.3)
    assert abs(law.c0_plus - 0.7) < 1e-12
    assert abs(law.c0_minus - 0.3) < 1e-12


def test_asymmetric_centered_mean_zero():
    law = kt.AsymmetricPareto(1.5, 0.7, 0.3)
    x = law.sample(rng(4), 2_000_000)
    se = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean()) <= 4 * se


def test_asymmetric_tail_constants_after_centering():
    law = kt.AsymmetricPareto(1.5, 0.7, 0.3)
    # closed-form tail: x^a P{|X| > x} -> c0 despite the mean shift
    assert abs(1e8 ** 1.5 * law.abs_tail(1e8) - 1.0) < 1e-6


def test_asymmetric_sign_split():
    law = kt.AsymmetricPareto(0.8, 0.75, 0.25)
    x = law.sample(rng(5), 400_000)
    frac = (x > 0).mean()
    se = math.sqrt(0.75 * 0.25 / x.size)
    assert abs(frac - 0.75) <= 4 * se


def test_alpha_one_requires_symmetry():
    with pytest.raises(ValueError):
        kt.AsymmetricPareto(1.0, 0.6, 0.4)


def test_invalid_constructions():
    with pytest.raises(ValueError):
        kt.SymmetricPareto(2.0)
    with pytest.raises(ValueError):
        kt.SymmetricPareto(1.5, xmin=0.0)
    with pytest.raises(ValueError):
        kt.AsymmetricPareto(1.5, 0.0, 0.0)


# Direct, allocating forms of the Pareto samplers, kept as oracles.  The
# in-place samplers run the same floating-point operations in the same
# order (SymmetricPareto omits the second floor, which never binds for u in
# [0, 1)), so their draws must match these byte for byte.
def _symmetric_oracle(law, u):
    u = np.maximum(u, 2.0 ** -53)
    mag = law.xmin * np.maximum(1.0 - np.abs(2.0 * u - 1.0), 2.0 ** -53) ** (-1.0 / law.alpha)
    return np.where(u < 0.5, -mag, mag)


def _asymmetric_oracle(law, u_sign, u_mag):
    sign = np.where(u_sign < law._p, 1.0, -1.0)
    mag = law.xmin * np.maximum(u_mag, 2.0 ** -53) ** (-1.0 / law.alpha)
    return sign * mag - law._shift


class _StubGenerator:
    """Hands out the same fixed uniforms on every random() call."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size=None, out=None):
        if out is None:
            assert size == self.u.size
            return self.u.copy()
        assert out.size == self.u.size
        out[...] = self.u
        return out


_EDGE_UNIFORMS = [0.0, 2.0 ** -54, 0.25, 0.5, 1.0 - 2.0 ** -53]

_ASYMMETRIC_LAWS = [
    kt.AsymmetricPareto(1.5, 0.7, 0.3),          # shifted by its mean
    kt.AsymmetricPareto(0.5, 0.2, 0.8, xmin=2.0),
    kt.AsymmetricPareto(1.0, 0.5, 0.5),
]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("xmin", [1.0, 2.0])
def test_symmetric_pareto_matches_oracle_bytes(alpha, xmin):
    law = kt.SymmetricPareto(alpha, xmin)
    x = law.sample(rng(21), 100_000)
    u = rng(21).random(100_000)
    assert x.tobytes() == _symmetric_oracle(law, u).tobytes()


@pytest.mark.parametrize("xmin", [1.0, 2.0])
def test_symmetric_pareto_edge_uniforms(xmin):
    law = kt.SymmetricPareto(1.5, xmin)
    x = law.sample(_StubGenerator(_EDGE_UNIFORMS), len(_EDGE_UNIFORMS))
    oracle = _symmetric_oracle(law, np.array(_EDGE_UNIFORMS))
    assert x.tobytes() == oracle.tobytes()
    # u = 0.5 gives v = +0.0 and the positive draw xmin
    assert x[3] == xmin and np.all(x[:3] < 0) and x[4] > 0
    assert np.all(np.isfinite(x)) and np.all(np.abs(x) >= xmin)


@pytest.mark.parametrize("law", _ASYMMETRIC_LAWS, ids=lambda l: f"a{l.alpha}")
def test_asymmetric_pareto_matches_oracle_bytes(law):
    x = law.sample(rng(23), 100_000)
    g = rng(23)
    u_sign = g.random(100_000)
    u_mag = g.random(100_000)
    assert x.tobytes() == _asymmetric_oracle(law, u_sign, u_mag).tobytes()


@pytest.mark.parametrize("law", _ASYMMETRIC_LAWS, ids=lambda l: f"a{l.alpha}")
def test_asymmetric_pareto_edge_uniforms(law):
    u = np.array(_EDGE_UNIFORMS)
    x = law.sample(_StubGenerator(u), u.size)
    assert x.tobytes() == _asymmetric_oracle(law, u, u).tobytes()
    assert np.all(np.isfinite(x))


_SMALL_ALPHA_LAWS = {
    "sym-xmin1": (lambda a: kt.SymmetricPareto(a), lambda a, u: _symmetric_oracle(
        SimpleNamespace(alpha=a, xmin=1.0), u)),
    "sym-xmin2": (lambda a: kt.SymmetricPareto(a, 2.0), lambda a, u: _symmetric_oracle(
        SimpleNamespace(alpha=a, xmin=2.0), u)),
    "asym": (lambda a: kt.AsymmetricPareto(a, 0.7, 0.3, xmin=1.0), lambda a, u: _asymmetric_oracle(
        SimpleNamespace(alpha=a, xmin=1.0, _p=0.7, _shift=0.0), u, u)),
}


@pytest.mark.parametrize("make, oracle", _SMALL_ALPHA_LAWS.values(), ids=_SMALL_ALPHA_LAWS.keys())
def test_laws_refuse_exactly_the_alphas_whose_draws_overflow(make, oracle):
    # alpha 0.002 drew inf for two thirds of the rows, and inf - inf made NaN
    # row sums that counted as no hit; bisect to the smallest accepted alpha
    with pytest.raises(ValueError, match="inf"):
        make(0.002)
    lo, hi = 0.002, 0.5
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        try:
            make(mid)
            hi = mid
        except ValueError:
            lo = mid
    u = np.array(_EDGE_UNIFORMS)
    x = make(hi).sample(_StubGenerator(u), u.size)
    assert np.all(np.isfinite(x))
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(oracle(lo, u)))


# draw counts on both sides of each transform-block boundary
_BLOCK_SIZES = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]


@pytest.mark.parametrize("n", _BLOCK_SIZES)
@pytest.mark.parametrize("law", [kt.SymmetricPareto(1.5, 2.0), _ASYMMETRIC_LAWS[0]],
                         ids=["sym", "asym"])
def test_pareto_sample_into_out_keeps_bytes_and_stream(law, n):
    g, twin, ref = rng(31), rng(31), rng(31)
    buf = np.full(n, np.nan)
    assert law.sample(g, n, out=buf) is buf
    assert buf.tobytes() == law.sample(twin, n).tobytes()
    if isinstance(law, kt.SymmetricPareto):
        oracle = _symmetric_oracle(law, ref.random(n))
    else:
        oracle = _asymmetric_oracle(law, ref.random(n), ref.random(n))
    assert buf.tobytes() == oracle.tobytes()
    assert g.bit_generator.state == twin.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("law", [
    kt.SymmetricPareto(1.5), _ASYMMETRIC_LAWS[0],
], ids=["sym", "asym"])
def test_sample_rejects_an_out_of_the_wrong_shape(law):
    for bad in (np.empty(4), np.empty((5, 1))):
        with pytest.raises(ValueError):
            law.sample(rng(34), 5, out=bad)


@pytest.mark.parametrize("make", [
    lambda: kt.SymmetricPareto(1.5, 1.0e-300),                # c0 = xmin^a underflows to 0
    lambda: kt.SymmetricPareto(1.5, 1.0e+300),                # c0 overflows
    lambda: kt.AsymmetricPareto(0.1, 1.0e+300, 1.0e+300),     # the default xmin overflows
    lambda: kt.AsymmetricPareto(1.5, 0.5, 0.5, xmin=1.0e-300),
    lambda: kt.AsymmetricPareto(1.5, 1.0e+308, 1.0e+308, xmin=1.0),  # c+ + c- overflows
], ids=["sym-underflow", "sym-overflow", "asym-default-xmin", "asym-xmin", "asym-sum"])
def test_laws_reject_tail_constants_outside_the_float_range(make):
    # c0 = 0 gave NaN tail ratios; an overflowing xmin raised OverflowError
    with pytest.raises(ValueError):
        make()


def _pareto_laws():
    laws = []
    for alpha in (0.5, 0.8, 1.0, 1.2, 1.5, 1.9):
        laws += [kt.SymmetricPareto(alpha), kt.SymmetricPareto(alpha, 2.0)]
        laws += [kt.AsymmetricPareto(alpha, cp, cm)
                 for cp, cm in ((0.7, 0.3), (1.0, 0.0), (0.0, 2.0), (0.5, 0.5))
                 if alpha != 1.0 or cp == cm]
    return laws


_PARETO_LAWS = _pareto_laws()


@pytest.mark.parametrize("law", _PARETO_LAWS, ids=repr)
def test_abs_tail_matches_the_scalar_signed_tails(law):
    # the grid holds every branch point of the scalar reference: x = xmin,
    # the shift, xmin +/- shift, their neighbours, and both signs
    m, xmin = law._shift, law.xmin
    points = [0.0, xmin, m, xmin + m, xmin - m, m - xmin, -xmin - m, 1.0e8]
    points += [np.nextafter(v, s) for v in points[1:7] for s in (-np.inf, np.inf)]
    grid = np.concatenate([points, np.geomspace(1e-3, 1e6, 300), -np.geomspace(1e-3, 1e6, 60)])
    ref = np.array([abs_tail_reference(law, float(v)) for v in grid])
    np.testing.assert_allclose(law.abs_tail(grid), ref, rtol=2e-15, atol=0)
    scalars = np.array([law.abs_tail(float(v)) for v in grid])
    np.testing.assert_allclose(scalars, ref, rtol=2e-15, atol=0)
    assert all(isinstance(law.abs_tail(float(v)), float) for v in points)


@pytest.mark.parametrize("law", _PARETO_LAWS, ids=repr)
def test_abs_tail_at_zero_is_one_without_a_warning(law):
    # (0/xmin)^-alpha divided by zero in the symmetric law's tail
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert law.abs_tail(0.0) == 1.0


@pytest.mark.parametrize("c_plus,c_minus", [
    (math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5), (0.5, math.inf),
], ids=["c-plus-nan", "c-minus-nan", "c-plus-inf", "c-minus-inf"])
def test_asymmetric_law_with_xmin_rejects_non_finite_constants(c_plus, c_minus):
    # with xmin given, a NaN or infinite constant left the sign
    # probability c+/(c+ + c-) NaN and the law sampled every sign negative
    with pytest.raises(ValueError, match="c_plus"):
        kt.AsymmetricPareto(1.5, c_plus, c_minus, xmin=1.0)


def test_exact_power_envelope_stays_quiet_far_beyond_xmin():
    # (x/xmin)^alpha overflowed in a branch that np.where then discarded
    law = kt.SymmetricPareto(1.5)
    assert law.envelope(1e300) == 0.0
