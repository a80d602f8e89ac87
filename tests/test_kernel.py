"""Differential oracles for the deviance-form density kernel.

Densities are l*(x) - D(x || mu), and the SNML and Jeffreys integrands see a
history only through its length n and its mean x-bar.  Each check below
compares that path with an independent one: scipy.stats, the per-observation
sums the strategies used before, or exact rational arithmetic.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as hs
from scipy import stats

import snmlkit as sk
from snmlkit import strategies


def assert_close(got, want, rel):
    """|got - want| <= rel * max(1, |want|): relative error, absolute near 0."""
    assert abs(got - want) <= rel * max(1.0, abs(want)), (got, want)


# ---- log_density_mean against scipy.stats ------------------------------------

means = hs.floats(min_value=0.01, max_value=100.0)


@given(
    sigma2=hs.floats(min_value=0.01, max_value=100.0),
    mu=hs.floats(min_value=-100.0, max_value=100.0),
    x=hs.floats(min_value=-100.0, max_value=100.0),
)
def test_gaussian_matches_scipy(sigma2, mu, x):
    want = stats.norm.logpdf(x, loc=mu, scale=math.sqrt(sigma2))
    assert_close(sk.GaussianLocation(sigma2).log_density_mean(mu, x), want, 1e-12)


@given(shape=hs.floats(min_value=0.1, max_value=20.0), mu=means, x=hs.floats(min_value=1e-3, max_value=1e3))
def test_gamma_matches_scipy(shape, mu, x):
    want = stats.gamma.logpdf(x, a=shape, scale=mu / shape)
    assert_close(sk.GammaShape(shape).log_density_mean(mu, x), want, 1e-12)


@given(mu=means, x=hs.integers(min_value=0, max_value=200))
def test_poisson_matches_scipy(mu, x):
    assert_close(sk.Poisson().log_density_mean(mu, float(x)), stats.poisson.logpmf(x, mu), 1e-12)


@given(mu=hs.floats(min_value=1e-6, max_value=1.0 - 1e-6), x=hs.sampled_from((0.0, 1.0)))
def test_bernoulli_matches_scipy(mu, x):
    assert_close(sk.Bernoulli().log_density_mean(mu, x), stats.bernoulli.logpmf(x, mu), 1e-12)


@given(mu=hs.floats(min_value=0.5, max_value=4.0), x=hs.floats(min_value=1e-3, max_value=1e3))
def test_restricted_gamma_matches_scipy(mu, x):
    fam = sk.GammaShape(2.0, mean_domain=(0.5, 4.0))
    assert_close(fam.log_density_mean(mu, x), stats.gamma.logpdf(x, a=2.0, scale=mu / 2.0), 1e-12)


# ---- the law of a sum of k members: l*_k(t) - k D(t / k || mu) --------------------


def sum_log_density(family, k, mu, t):
    return family._saturated_log_likelihood(t, k) - k * family._divergence(t / k, mu)


def tweedie_sum_log_density_series(k, mu, t):
    """N ~ Poisson(k sqrt(mu)) exponential jumps of mean sqrt(mu): the Poisson
    mixture of Gamma(N) densities, summed term by term."""
    root = math.sqrt(mu)
    terms = [
        -k * root + n * math.log(k * root) - math.lgamma(n + 1) + stats.gamma.logpdf(t, a=n, scale=root)
        for n in range(1, 400)
    ]
    return float(np.logaddexp.reduce(terms))


@pytest.mark.parametrize("k", [2, 3, 7])
@pytest.mark.parametrize("mu", [0.3, 1.0, 4.5])
def test_sum_laws_match_scipy(k, mu):
    for t in (0.05, 0.8, 3.0, 11.0):
        assert_close(
            sum_log_density(sk.GaussianLocation(2.0), k, mu, t), stats.norm.logpdf(t, k * mu, math.sqrt(2.0 * k)), 1e-12
        )
        for shape in (0.5, 2.0):
            want = stats.gamma.logpdf(t, a=k * shape, scale=mu / shape)
            assert_close(sum_log_density(sk.GammaShape(shape), k, mu, t), want, 1e-12)
        assert_close(sum_log_density(sk.Tweedie32(), k, mu, t), tweedie_sum_log_density_series(k, mu, t), 1e-12)
    for t in range(0, 30):
        assert_close(sum_log_density(sk.Poisson(), k, mu, float(t)), stats.poisson.logpmf(t, k * mu), 1e-12)
    p = mu / 5.0
    for t in range(0, k + 1):
        assert_close(sum_log_density(sk.Bernoulli(), k, p, float(t)), stats.binom.logpmf(t, k, p), 1e-12)
    # the sum is 0 only when every member sits on the Tweedie atom
    assert_close(sum_log_density(sk.Tweedie32(), k, mu, 0.0), -k * math.sqrt(mu), 1e-12)


def test_restricted_domain_rejects_outside_means():
    fam = sk.GammaShape(2.0, mean_domain=(0.5, 4.0))
    with pytest.raises(sk.DomainError):
        fam.log_density_mean(0.25, 1.0)
    with pytest.raises(sk.DomainError):
        fam.kl_divergence(1.0, 5.0)


@pytest.mark.parametrize("shape,want", [(0.5, math.inf), (1.0, -math.log(2.5)), (2.0, -math.inf)])
def test_gamma_at_zero(shape, want):
    assert sk.GammaShape(shape).log_density_mean(2.5, 0.0) == want


def test_degenerate_means_are_point_masses():
    assert sk.Bernoulli().log_density_mean(1.0, 1.0) == 0.0
    assert sk.Bernoulli().log_density_mean(1.0, 0.0) == -math.inf
    assert sk.Poisson().log_density_mean(0.0, 0.0) == 0.0
    assert sk.Poisson().log_density_mean(0.0, 2.0) == -math.inf
    assert sk.Tweedie32().log_density_mean(0.0, 0.0) == 0.0
    assert sk.Tweedie32().log_density_mean(0.0, 0.5) == -math.inf


# ---- strategy integrands against per-observation sums ------------------------


def _reciprocal(x):
    return 1.0 / x


def _reciprocal_derivative(y):
    return -1.0 / (y * y)


def levy():
    return sk.transform_family(sk.GammaShape(0.5), _reciprocal, _reciprocal, _reciprocal_derivative)


# (family, a mean inside its domain from which to draw data)
INTEGRAND_CASES = {
    "gaussian": (lambda: sk.GaussianLocation(2.5), 1.5),
    "gamma0.5": (lambda: sk.GammaShape(0.5), 2.0),
    "gamma1": (lambda: sk.GammaShape(1.0), 0.7),
    "gamma2": (lambda: sk.GammaShape(2.0), 5.0),
    "tweedie": (lambda: sk.Tweedie32(), 0.8),
    "poisson": (lambda: sk.Poisson(), 3.0),
    "bernoulli": (lambda: sk.Bernoulli(), 0.3),
    # data drawn near mean 6 fall mostly outside the domain, so clipping acts
    "restricted-gamma2": (lambda: sk.GammaShape(2.0, mean_domain=(0.5, 4.0)), 6.0),
    "levy": (levy, 0.5),
}


def per_observation_sup_log_likelihood(family, values):
    """The sum over observations at the clipped MLE, one density at a time."""
    if not values:
        return 0.0
    mu_hat = family.mle_mean(values).value
    return math.fsum(family.log_density_mean(mu_hat, v) for v in values)


def history_mean(family, values):
    # x-bar is that of the values pulled back to the untransformed family
    base, pulled, _ = family._untransformed(values)
    return strategies._history_mean(base, len(pulled), sum(map(base._exact_statistic, pulled)))


def per_observation_log_likelihood(family, values, mu):
    return math.fsum(family.log_density_mean(mu, v) for v in values)


def draws(family, mean, size, rng):
    if isinstance(family, sk.TransformedFamily):
        return tuple(float(v) for v in family.sample(mean, size, rng))
    return tuple(float(v) for v in family.sample(family.mean_domain.clip(mean), size, rng))


def raw_draws(name, family, mean, size, rng):
    # the restricted family samples only inside its domain; draw from the full one
    if name.startswith("restricted"):
        return draws(sk.GammaShape(2.0), mean, size, rng)
    return draws(family, mean, size, rng)


@pytest.mark.parametrize("name", sorted(INTEGRAND_CASES))
def test_snml_integrand_matches_per_observation_sums(name):
    build, mean = INTEGRAND_CASES[name]
    family = build()
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 16):
        hist = raw_draws(name, family, mean, n, rng)
        if isinstance(family, sk.TransformedFamily):
            # the strategies unwrap a transformed family; its gain is the predictive's weight
            predictive = sk.snml_predictive(family, hist)
            gain = lambda y: predictive.log_density(y) + predictive.log_normalizer
        else:
            gain = strategies._snml_log_gain(family, n, history_mean(family, hist))
        base = per_observation_sup_log_likelihood(family, hist)
        for y in raw_draws(name, family, mean, 6, rng):
            want = per_observation_sup_log_likelihood(family, hist + (y,)) - base
            assert_close(gain(y), want, 1e-12)


@pytest.mark.parametrize("name", sorted(INTEGRAND_CASES))
def test_jeffreys_integrand_matches_per_observation_sums(name):
    build, mean = INTEGRAND_CASES[name]
    family = build()
    rng = np.random.default_rng(11)
    lo, hi = family.mean_domain.bounds()
    for n in (1, 2, 5, 16):
        hist = raw_draws(name, family, mean, n, rng)
        xbar = history_mean(family, hist)
        anchor = strategies._chart_anchor(family, n, xbar)
        relative = strategies._relative_log_likelihood(family, n, xbar)
        base = per_observation_sup_log_likelihood(family, hist)
        y = raw_draws(name, family, mean, 1, rng)[0]
        for beta in (-2.0, -0.5, 0.0, 0.3, 1.7):
            try:
                mu = family.mean_from_geodesic(beta, anchor)
            except sk.DomainError:
                continue
            if not lo < mu < hi:
                continue
            want = per_observation_log_likelihood(family, hist, mu) - base
            assert_close(relative(mu), want, 1e-12)
            want_y = want + family.log_density_mean(mu, y)
            untransformed, (x,), (log_jacobian,) = family._untransformed((y,))
            assert_close(relative(mu) + untransformed._log_density(mu, x) + log_jacobian, want_y, 1e-12)


# ---- the Gaussian SNML weight far from the origin ----------------------------


@pytest.mark.parametrize("center", [1e6, -1e6, 1e8, -1e8])
@pytest.mark.parametrize("offsets", [(0.3,), (0.3, -1.1), (0.3, -1.1, 0.45), (0.9, -0.7, 0.2, -0.4)])
def test_gaussian_snml_log_weight_far_from_origin(center, offsets):
    """The weight depends on the history through x-bar, which as a float is off
    by up to half an ulp (7.5e-9 at 1e8); with |y - x-bar| <= 1 that moves the
    weight by less than 7.5e-9.  The natural-parameter form theta*y - A(theta)
    loses every digit here."""
    family = sk.GaussianLocation(1.0)
    hist = tuple(center + o for o in offsets)
    n = len(hist)
    gain = strategies._snml_log_gain(family, n, history_mean(family, hist))
    xbar = sum(Fraction(v) for v in hist) / n
    for shift in (-0.8, 0.05, 0.7):
        y = float(xbar) + shift
        # sup log-likelihood gain: -log(2 pi)/2 - (n / (n + 1)) (y - xbar)^2 / 2, exactly
        d = Fraction(y) - xbar
        want = -0.5 * math.log(2.0 * math.pi) - float(n * d * d / (2 * (n + 1)))
        assert abs(gain(y) - want) <= 1e-8, (y, gain(y), want)
