"""Tests for the compound-Poisson density, sampler, and moments."""

import math
from math import exp, lgamma, log

import mpmath as mp
import numpy as np
import pytest
from scipy.special import iv

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


def mp_saturated(z, k=1):
    return mp_log_ive1(2 * mp.sqrt(mp.mpf(k) * mp.mpf(z))) - mp.log(mp.mpf(z) / k) / 2


def digits(x):
    """A working precision above x's digit count: log I_1(x) - x cancels about
    log10(x) digits."""
    return 40 + max(0, math.ceil(math.log10(x)))


# 2^30 - 1/2 and its successor: the last finite argument of scipy's ive(1, x)
# and the first at which it is NaN; i1e is finite on both sides
IVE_EDGE = (2.0**30 - 0.5, math.nextafter(2.0**30 - 0.5, math.inf))


class TestLargeArguments:
    """log(I_1(x) exp(-x)) from scipy's i1e, and l* and l*_k through it, stay
    within 1e-15 relative of mpmath out to x = 1e24, past 2^30 - 1/2 too."""

    @pytest.mark.parametrize("x", [*np.geomspace(1e-6, 1e8, 15), *np.geomspace(1e8, 1e24, 33)[1:], *IVE_EDGE])
    def test_log_ive1_matches_mpmath(self, x):
        x = float(x)
        with mp.workdps(digits(x)):
            want = mp_log_ive1(x)
            assert abs(float(math.log(tweedie._ive1(x)) - want)) <= 1e-15 * abs(float(want))

    @pytest.mark.parametrize("x", [*np.geomspace(1e8, 1e24, 33), *IVE_EDGE])
    def test_saturated_matches_mpmath(self, x):
        z = (0.5 * float(x)) ** 2
        with mp.workdps(digits(x)):
            want = mp_saturated(z)
            got = tweedie.saturated_log_likelihood(z)
            assert abs(float(mp.mpf(got) - want)) <= 1e-15 * abs(float(want)), z

    @pytest.mark.parametrize("z", [1e10, 1e18, 1e30, 1e40, 1e48])
    @pytest.mark.parametrize("k", [3, 10])
    def test_sum_of_k_members_matches_mpmath(self, z, k):
        with mp.workdps(digits(2.0 * math.sqrt(k * z))):
            want = mp_saturated(z, k)
            got = tweedie.saturated_log_likelihood(z, k)
            assert abs(float(mp.mpf(got) - want)) <= 1e-15 * abs(float(want))


    @pytest.mark.parametrize("z", [1e300, 1.7e308])
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_sum_of_k_members_where_k_z_overflows(self, z, k):
        """k z passes the float maximum at 1.7e308, where l*_k(z) is about
        -533, not -inf."""
        with mp.workdps(digits(2.0 * math.sqrt(k) * math.sqrt(z))):
            want = mp_saturated(z, k)
            got = tweedie.saturated_log_likelihood(z, k)
            assert abs(float(mp.mpf(got) - want)) <= 1e-15 * abs(float(want))


class TestSaturatedEdges:
    @pytest.mark.parametrize("k", [1, 3])
    def test_zero_is_the_point_mass(self, k):
        assert tweedie.saturated_log_likelihood(0.0, k) == 0.0

    def test_smallest_positive_z(self):
        # l*_k(z) -> log k as z -> 0+: the continuous part, not the atom
        z = 5e-324
        assert tweedie.saturated_log_likelihood(z) == 0.0
        with mp.workdps(40):
            want = mp_saturated(z, 3)
        assert float(want) == pytest.approx(math.log(3.0), rel=1e-16)
        assert tweedie.saturated_log_likelihood(z, 3) == pytest.approx(float(want), rel=1e-15)

    @pytest.mark.parametrize("k", [1, 3])
    def test_infinity_reads_minus_infinity(self, k):
        assert tweedie.saturated_log_likelihood(math.inf, k) == -math.inf

    def test_family_density_at_the_smallest_positive_z(self):
        assert sk.Tweedie32().log_density(2.0, 5e-324) == pytest.approx(-math.sqrt(2.0), rel=1e-15)


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
