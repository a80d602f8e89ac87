"""Tests for the compound-Poisson density, sampler, and moments."""

import math
from math import exp, lgamma, log

import mpmath as mp
import numpy as np
import pytest
from scipy.special import iv, ive

import snmlkit as sk
from snmlkit import quadrature, tweedie
from snmlkit.errors import DomainError


def brute_force_density(mu, z, terms=400):
    """Direct mixture sum: N ~ Poisson(sqrt(mu)), jumps Exp(mean sqrt(mu))."""
    lam = math.sqrt(mu)
    rate = 1.0 / math.sqrt(mu)
    total = 0.0
    for k in range(1, terms):
        log_pois = -lam + k * log(lam) - lgamma(k + 1)
        log_gamma_term = k * log(rate) + (k - 1) * log(z) - rate * z - lgamma(k)
        total += exp(log_pois + log_gamma_term)
    return total


class TestDensity:
    @pytest.mark.parametrize("mu", [0.25, 1.0, 2.0, 7.0])
    def test_atom_mass(self, mu):
        value = tweedie.log_density(mu, 0.0)
        assert value.atom_mass_at_zero == pytest.approx(math.exp(-math.sqrt(mu)), rel=1e-14)

    def test_bessel_identity_at_unit_mean(self):
        value = tweedie.log_density(1.0, 1.0)
        want = math.exp(-2.0) * iv(1, 2.0)
        assert math.exp(value.continuous_log_density) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 7.0])
    @pytest.mark.parametrize("z", [0.1, 0.7, 1.5, 4.0, 12.0])
    def test_matches_brute_force_series(self, mu, z):
        got = math.exp(tweedie.log_density(mu, z).continuous_log_density)
        assert got == pytest.approx(brute_force_density(mu, z), rel=1e-12)

    @pytest.mark.parametrize("mu", [0.5, 2.0])
    def test_normalizes_with_atom(self, mu):
        res = quadrature.integrate(
            lambda y: math.exp(tweedie.log_density(mu, y).continuous_log_density),
            (1e-300, math.inf),
            tol_abs=1e-12,
            tol_rel=1e-10,
            peak_hint=mu,
        )
        total = math.exp(-math.sqrt(mu)) + res.value
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_matches_mpmath_bessel_form(self):
        # log p = -sqrt(mu) - z/sqrt(mu) + log I_1(2 sqrt z) - log(z)/2, at 50 digits
        fam = sk.Tweedie32()
        with mp.workdps(50):
            for mu in np.geomspace(0.01, 100.0, 9):
                for z in np.geomspace(1e-8, 1e5, 27):
                    m, x = mp.mpf(float(mu)), mp.mpf(float(z))
                    want = -mp.sqrt(m) - x / mp.sqrt(m) + mp.log(mp.besseli(1, 2 * mp.sqrt(x))) - mp.log(x) / 2
                    bound = 1e-13 * max(1.0, abs(float(want)))
                    for got in (tweedie.log_density(mu, z).continuous_log_density, fam.log_density(mu, z)):
                        assert abs(float(mp.mpf(got) - want)) <= bound, (mu, z, got, want)

    @pytest.mark.parametrize("mu,z", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5)])
    def test_domain_errors(self, mu, z):
        with pytest.raises(DomainError):
            tweedie.log_density(mu, z)


def mp_log_ive1(x):
    return mp.log(mp.besseli(1, mp.mpf(x))) - mp.mpf(x)


class TestLargeArguments:
    """scipy's ive(1, x) is NaN for x > 2^30 - 1/2, where l*(z) takes the
    large-argument expansion instead."""

    def test_expansion_matches_mpmath(self):
        switch = tweedie.IVE_LAST_FINITE
        with mp.workdps(50):
            for x in [*np.geomspace(1e8, 1e24, 33), switch, math.nextafter(switch, math.inf)]:
                want = mp_log_ive1(x)
                assert abs(float(tweedie.log_ive1_large(x) - want)) <= 1e-15 * abs(float(want)), x

    def test_switch_keeps_scipy_below_and_is_continuous(self):
        switch = tweedie.IVE_LAST_FINITE
        # adjacent floats z whose arguments 2 sqrt(z) straddle the switch
        below = (0.5 * switch) ** 2
        while 2.0 * math.sqrt(below) > switch:
            below = math.nextafter(below, 0.0)
        above = math.nextafter(below, math.inf)
        while 2.0 * math.sqrt(above) <= switch:
            below, above = above, math.nextafter(above, math.inf)
        for z in (1e10, 1e16, below):
            x = 2.0 * math.sqrt(z)
            assert tweedie.saturated_log_likelihood(z) == math.log(ive(1, x)) - 0.5 * math.log(z)
        assert abs(math.log(ive(1, switch)) - tweedie.log_ive1_large(switch)) <= 1e-15 * abs(tweedie.log_ive1_large(switch))
        with mp.workdps(50):
            for z in (below, above, 1e20, 1e48):
                want = mp_log_ive1(2 * mp.sqrt(mp.mpf(z))) - mp.log(mp.mpf(z)) / 2
                got = tweedie.saturated_log_likelihood(z)
                assert abs(float(mp.mpf(got) - want)) <= 1e-15 * abs(float(want)), z

    @pytest.mark.parametrize("z", [1e18, 1e30])
    @pytest.mark.parametrize("k", [3, 10])
    def test_sum_of_k_members_matches_mpmath(self, z, k):
        with mp.workdps(50):
            want = mp_log_ive1(2 * mp.sqrt(mp.mpf(k) * z)) - mp.log(mp.mpf(z) / k) / 2
            got = tweedie.saturated_log_likelihood(z, k)
            assert abs(float(mp.mpf(got) - want)) <= 1e-15 * abs(float(want))


class TestMoments:
    @pytest.mark.parametrize("mu", [0.25, 1.0, 4.0])
    def test_mean_and_variance(self, mu):
        mean, variance = tweedie.moments(mu)
        assert mean == pytest.approx(mu, rel=1e-14)
        assert variance == pytest.approx(2.0 * mu**1.5, rel=1e-14)


class TestSampler:
    def test_seed_determinism(self):
        a = tweedie.sample(1.0, 50, seed=11)
        b = tweedie.sample(1.0, 50, seed=11)
        assert np.array_equal(np.asarray(a), np.asarray(b))

    def test_different_seeds_differ(self):
        a = np.asarray(tweedie.sample(1.0, 50, seed=11))
        b = np.asarray(tweedie.sample(1.0, 50, seed=12))
        assert not np.array_equal(a, b)

    def test_draws_live_on_the_support(self):
        xs = np.asarray(tweedie.sample(0.5, 2000, seed=3))
        assert np.all(xs >= 0.0)
        assert np.any(xs == 0.0)
        assert np.any(xs > 0.0)

    def test_moments_at_modest_sample_size(self):
        mu = 2.0
        xs = np.asarray(tweedie.sample(mu, 20000, seed=5))
        se_mean = math.sqrt(2.0 * mu**1.5 / xs.size)
        assert abs(xs.mean() - mu) < 4 * se_mean
        p0 = math.exp(-math.sqrt(mu))
        se_p0 = math.sqrt(p0 * (1 - p0) / xs.size)
        assert abs(np.mean(xs == 0.0) - p0) < 4 * se_p0

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            tweedie.sample(-1.0, 10, seed=0)


class TestFamilyBridge:
    def test_family_log_density_delegates(self):
        fam = sk.Tweedie32()
        for z in (0.3, 1.0, 4.0):
            assert fam.log_density(1.5, z) == pytest.approx(
                tweedie.log_density(1.5, z).continuous_log_density, rel=1e-14
            )

    def test_family_atom_at_zero(self):
        fam = sk.Tweedie32()
        assert fam.log_density(1.5, 0.0) == pytest.approx(-math.sqrt(1.5), rel=1e-14)

    def test_family_sampler_matches_module(self):
        fam = sk.Tweedie32()
        rng = np.random.default_rng(9)
        xs = fam.sample(1.0, 25, rng)
        assert xs.shape == (25,)
        assert np.all(xs >= 0.0)
