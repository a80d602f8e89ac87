"""Tests for the exponential-family abstraction and the five built-ins."""

import dataclasses
import math
import re
import sys

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as hs
from scipy.integrate import quad

import snmlkit as sk
from snmlkit import quadrature
from snmlkit.errors import (
    DomainError,
    EmptyWindow,
    NonMonotone,
    UnsupportedPoint,
)

FAMILIES = {
    "gaussian": sk.GaussianLocation(1.0),
    "gamma1": sk.GammaShape(1.0),
    "gamma2": sk.GammaShape(2.0),
    "tweedie": sk.Tweedie32(),
    "bernoulli": sk.Bernoulli(),
    "poisson": sk.Poisson(),
}

# interior means safe for every parameterization test of each family
INTERIOR = {
    "gaussian": (-2.0, 0.3, 5.0),
    "gamma1": (0.25, 1.0, 4.0),
    "gamma2": (0.25, 1.0, 4.0),
    "tweedie": (0.25, 1.0, 4.0),
    "bernoulli": (0.1, 0.5, 0.9),
    "poisson": (0.25, 1.0, 4.0),
}


TRANSFORMED = {
    "levy": sk.transform_family(sk.GammaShape(0.5), lambda x: 1.0 / x, lambda y: 1.0 / y, lambda y: -1.0 / (y * y)),
    "reflected-gamma2": sk.transform_family(sk.GammaShape(2.0), lambda x: -x, lambda y: -y, lambda y: -1.0),
}


CUMULANT_FAMILIES = {**FAMILIES, "gamma0.5": sk.GammaShape(0.5), "gaussian4": sk.GaussianLocation(4.0)}
CUMULANT_MEANS = {name: (0.05, 0.25, 1.0, 4.0, 50.0) for name in CUMULANT_FAMILIES}
CUMULANT_MEANS.update(gaussian=(-2.0, 0.3, 5.0), gaussian4=(-2.0, 0.3, 5.0), bernoulli=(0.02, 0.1, 0.5, 0.9, 0.98))


# ---- charts -----------------------------------------------------------------


class TestCharts:
    def test_tweedie_geodesic_closed_form(self):
        fam = FAMILIES["tweedie"]
        assert fam.geodesic_from_mean(16.0, 1.0) == pytest.approx(2 * math.sqrt(2), rel=1e-12)

    def test_gaussian_geodesic_is_standardized_mean(self):
        fam = sk.GaussianLocation(4.0)
        assert fam.geodesic_from_mean(3.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_gamma_geodesic_is_scaled_log(self):
        fam = sk.GammaShape(4.0)
        assert fam.geodesic_from_mean(math.e, 1.0) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_mean_geodesic_round_trip(self, name):
        fam = FAMILIES[name]
        for mu0 in INTERIOR[name]:
            for mu in INTERIOR[name]:
                beta = fam.geodesic_from_mean(mu, mu0)
                back = fam.mean_from_geodesic(beta, mu0)
                assert back == pytest.approx(mu, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_mean_natural_round_trip(self, name):
        fam = FAMILIES[name]
        for mu in INTERIOR[name]:
            theta = fam.convert(mu, "natural")
            back = fam.convert(theta, "mean")
            assert back.value == pytest.approx(mu, rel=1e-10)
            assert back.chart == sk.Chart.MEAN

    @pytest.mark.parametrize("name", sorted(CUMULANT_MEANS))
    def test_cumulant_derivatives_are_the_mean_and_the_variance(self, name):
        """A'(theta(mu)) = mu and A''(theta(mu)) = V(mu), by central differences
        with a step of 1e-3 / sigma(mu), a thousandth of the unit-Fisher scale.
        The worst errors measured on this grid are 6.7e-7 for A' and 3.8e-6
        for A''."""
        family = CUMULANT_FAMILIES[name]
        for mu in CUMULANT_MEANS[name]:
            theta = family.natural_from_mean(mu)
            h = 1e-3 / family.sigma(mu)
            below, at, above = (family.cumulant(theta + d * h) for d in (-1, 0, 1))
            assert abs((above - below) / (2 * h) - mu) <= 2e-6 * max(1.0, abs(mu))
            assert abs((above - 2 * at + below) / (h * h) - family.variance(mu)) <= 1e-5 * family.variance(mu)

    @pytest.mark.parametrize("name", ["gamma0.5", "gamma2", "tweedie"])
    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_non_negative_natural_parameter_raises(self, name, theta):
        family = CUMULANT_FAMILIES[name]
        with pytest.raises(DomainError):
            family.cumulant(theta)
        with pytest.raises(DomainError):
            family.mean_from_natural(theta)

    def test_natural_chart_is_increasing_in_mean(self):
        fam = FAMILIES["tweedie"]
        thetas = [fam.convert(mu, "natural").value for mu in (0.5, 1.0, 2.0, 4.0)]
        assert thetas == sorted(thetas)


# ---- KL divergence ----------------------------------------------------------

EPS = 2.0**-52


def divergence_pairs(name):
    """(mu0, mu1) pairs whose relative distance runs from 1e-9 to 0.5 either
    way; on a half-line also ratios 1e-12 to 1e12."""
    steps = [sign * d for d in (1e-9, 1e-6, 1e-3, 0.5) for sign in (1.0, -1.0)]
    if name == "bernoulli":
        return [(mu0, mu0 + d * min(mu0, 1.0 - mu0)) for mu0 in (1e-3, 0.3, 0.5, 0.9) for d in steps]
    pairs = [(mu0, mu0 * (1.0 + d)) for mu0 in (0.3, 1.0, 7.0) for d in steps]
    return pairs + [(1.0, 10.0**k) for k in range(-12, 13, 2) if k]


class TestKl:
    @pytest.mark.parametrize(
        "name,mu0,mu1,expected",
        [
            ("tweedie", 1.0, 4.0, 0.5),
            ("gaussian", 0.0, 2.0, 2.0),
            ("gamma1", 2.0, 1.0, 2.0 - 1.0 - math.log(2.0)),
            ("gamma2", 2.0, 1.0, 2 * (2.0 - 1.0 - math.log(2.0))),
            ("bernoulli", 0.25, 0.5, 0.25 * math.log(0.5) + 0.75 * math.log(1.5)),
            ("poisson", 2.0, 1.0, 2.0 * math.log(2.0) - 1.0),
        ],
    )
    def test_closed_forms(self, name, mu0, mu1, expected):
        assert FAMILIES[name].kl_divergence(mu0, mu1) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_matches_variance_integral(self, name):
        # D(mu0 || mu1) = integral of (mu - mu0)/V(mu) from mu0 to mu1
        fam = FAMILIES[name]
        grid = INTERIOR[name]
        for mu0 in grid:
            for mu1 in grid:
                if mu0 == mu1:
                    continue
                lo, hi = min(mu0, mu1), max(mu0, mu1)
                value = quad(lambda mu: (mu - mu0) / fam.variance(mu), lo, hi, epsabs=1e-12, epsrel=1e-10)[0]
                oriented = value if mu1 > mu0 else -value
                assert fam.kl_divergence(mu0, mu1) == pytest.approx(oriented, abs=1e-8)

    @given(
        mu0=hs.floats(min_value=0.05, max_value=20.0),
        mu1=hs.floats(min_value=0.05, max_value=20.0),
    )
    def test_nonnegative_and_zero_iff_equal(self, mu0, mu1):
        fam = FAMILIES["tweedie"]
        d = fam.kl_divergence(mu0, mu1)
        assert d >= 0.0
        if mu0 == mu1:
            assert d == 0.0
        else:
            assert d > 0.0

    def test_rejects_exterior_means(self):
        with pytest.raises(DomainError):
            FAMILIES["bernoulli"].kl_divergence(0.5, 1.5)

    @pytest.mark.parametrize("name", ["gamma0.5", "gamma1", "gamma2", "poisson", "bernoulli"])
    def test_log_ratio_divergences_match_mpmath_near_and_far(self, name):
        """D at the exact float means, in 50-digit arithmetic.  Near mu0 = mu1
        the error is a few ulps of |mu1 - mu0| (of the ratio's distance from
        1, scaled by the shape, for Gamma), not a fixed 1e-16: each
        divergence is a multiple of r - 1 - log r at one rounded ratio r,
        whose rounding cancels to first order."""
        fam = CUMULANT_FAMILIES[name]
        for mu0, mu1 in divergence_pairs(name):
            with mpmath.workdps(50):
                a, b = mpmath.mpf(mu0), mpmath.mpf(mu1)
                if name == "bernoulli":
                    want = a * mpmath.log(a / b) + (1 - a) * mpmath.log((1 - a) / (1 - b))
                elif name == "poisson":
                    want = a * mpmath.log(a / b) - a + b
                else:
                    want = fam.shape * (a / b - 1 - mpmath.log(a / b))
                want = float(want)
            spacing = abs(mu1 - mu0) * (fam.shape / mu1 if name.startswith("gamma") else 1.0)
            got = fam.kl_divergence(mu0, mu1)
            assert abs(got - want) <= 1e-13 * want + 8 * EPS * spacing, (mu0, mu1, got, want)


# ---- the counting kernels ---------------------------------------------------


def reference_poisson_divergence(mu0, mu1):
    """Poisson's divergence with its zero and infinite means as guards: the
    reference of the shared counting kernel."""
    if mu1 == 0.0:
        return 0.0 if mu0 == 0.0 else math.inf
    if math.isinf(mu1):
        return math.inf
    r = mu1 / mu0 if mu0 else math.inf
    if r == 0.0:
        return math.inf
    return mu0 * (r - 1.0 - math.log(r)) if r < math.inf else mu1


def reference_bernoulli_divergence(mu0, mu1):
    """Bernoulli's divergence as a loop over its two terms: the reference of
    its sum of two counting kernels."""
    if mu0 == mu1:
        return 0.0
    terms = 0.0
    for p, q in ((mu0, mu1), (1.0 - mu0, 1.0 - mu1)):
        r = q / p if p else math.inf
        if r == 0.0:
            return math.inf
        terms += p * (r - 1.0 - math.log(r)) if r < math.inf else q
    return terms


POISSON_EDGES = (0.0, 5e-324, 1e-300, 0.5, 1.0 - EPS / 2, 1.0, 1.0 + EPS, 30.0, 1e300, sys.float_info.max, math.inf)
BERNOULLI_EDGES = (0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0 - 1e-8, 1.0 - EPS / 2, 1.0)


def near(edges, lo, hi):
    """A float from the edges or the range, or one a few ulps from either."""
    base = hs.one_of(hs.sampled_from(edges), hs.floats(lo, hi))
    return hs.one_of(
        base,
        hs.tuples(base.filter(math.isfinite), hs.integers(-4, 4)).map(
            lambda t: min(max(t[0] + t[1] * math.ulp(t[0]), lo), hi)
        ),
    )


class TestCountingKernels:
    """Poisson's divergence takes its zero and infinite means as limits of
    p (r - 1 - log r), and Bernoulli's is the sum of a Poisson pair's."""

    def test_poisson_divergence_limits(self):
        D = sk.Poisson()._divergence
        assert D(0.0, 0.0) == 0.0
        for q in (5e-324, 0.5, 1e300, sys.float_info.max):
            assert D(0.0, q) == q
        for p in (5e-324, 0.5, 1e300, sys.float_info.max, math.inf):
            assert D(p, 0.0) == math.inf
            assert D(p, math.inf) == math.inf
        assert D(0.0, math.inf) == math.inf
        for q in (5e-324, 0.5, 1e300, sys.float_info.max, math.inf):
            assert D(math.inf, q) == math.inf

    def test_bernoulli_divergence_at_the_atoms(self):
        D = sk.Bernoulli()._divergence
        assert D(0.0, 0.0) == D(1.0, 1.0) == 0.0
        for p in (5e-324, 0.5, 1.0 - EPS / 2, 1.0):
            assert D(p, 0.0) == math.inf
        for p in (0.0, 5e-324, 0.5, 1.0 - EPS / 2):
            assert D(p, 1.0) == math.inf
        for q in (1e-300, 0.25, 0.5, 0.9):
            # a point mass against a member: -log of the member's mass there
            assert D(0.0, q) == pytest.approx(-math.log1p(-q), rel=1e-14)
            assert D(1.0, q) == pytest.approx(-math.log(q), rel=1e-14)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(mu0=near(POISSON_EDGES, 0.0, math.inf), mu1=near(POISSON_EDGES, 0.0, math.inf))
    def test_poisson_divergence_is_the_reference(self, mu0, mu1):
        assert sk.Poisson()._divergence(mu0, mu1) == reference_poisson_divergence(mu0, mu1)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(mu0=near(BERNOULLI_EDGES, 0.0, 1.0), mu1=near(BERNOULLI_EDGES, 0.0, 1.0))
    def test_bernoulli_divergence_is_the_reference(self, mu0, mu1):
        assert sk.Bernoulli()._divergence(mu0, mu1) == reference_bernoulli_divergence(mu0, mu1)


# ---- variance and sigma ------------------------------------------------------


@pytest.mark.parametrize(
    "name,mu,expected",
    [
        ("tweedie", 4.0, 16.0),
        ("tweedie", 1.0, 2.0),
        ("gaussian", -3.0, 1.0),
        ("gamma2", 2.0, 2.0),
        ("bernoulli", 0.25, 0.1875),
        ("poisson", 3.0, 3.0),
    ],
)
def test_variance_closed_forms(name, mu, expected):
    assert FAMILIES[name].variance(mu) == pytest.approx(expected, rel=1e-12)


def test_variance_rejects_degenerate_boundary():
    with pytest.raises(DomainError):
        FAMILIES["bernoulli"].variance(1.0)


def test_sigma_far_out_is_the_unchecked_sigma():
    """sqrt(V) overflows where sigma itself is finite: Gamma's mu^2 past
    1e154, and Tweedie's mu^1.5 raises OverflowError past 3.2e205."""
    assert sk.GammaShape(1.0).sigma(1e200) == 1e200
    assert sk.GammaShape(4.0).sigma(1e200) == 5e199
    assert sk.Tweedie32().sigma(1e250) == pytest.approx(math.sqrt(2.0) * 1e250**0.75, rel=1e-15)
    assert sk.Tweedie32().variance(1e250) == math.inf
    assert sk.Tweedie32().variance(1e205) == pytest.approx(2.0 * 1e205**1.5, rel=1e-15)
    with pytest.raises(DomainError):
        sk.Tweedie32().sigma(0.0)


@pytest.mark.parametrize(
    "fam,want",
    [
        (sk.GammaShape(2.0, mean_domain=(2.0, 5.0)), 3.5),
        (sk.GaussianLocation(1.0, mean_domain=(1.0, math.inf)), 2.0),
        (sk.GaussianLocation(1.0, mean_domain=(-math.inf, -1.0)), -2.0),
        (sk.Bernoulli(mean_domain=(0.6, 0.9)), 0.75),
    ],
    ids=["bounded-midpoint", "lower-end-plus-one", "upper-end-minus-one", "bernoulli-midpoint"],
)
def test_default_reference_outside_a_restricted_domain(fam, want):
    """The preferred reference lies outside each domain: a bounded domain
    takes its midpoint, a half-line the point 1 inside its finite end."""
    assert fam.default_reference() == want


# ---- MLE --------------------------------------------------------------------


class TestMle:
    def test_sample_mean_interior(self):
        est = FAMILIES["tweedie"].mle_mean((0.0, 0.0, 3.0))
        assert est.value == pytest.approx(1.0)
        assert not est.boundary

    def test_all_zero_tweedie_hits_boundary(self):
        est = FAMILIES["tweedie"].mle_mean((0.0, 0.0))
        assert est.value == 0.0
        assert est.boundary

    def test_restricted_domain_clips(self):
        fam = sk.GaussianLocation(1.0, mean_domain=(1.0, math.inf))
        est = fam.mle_mean((0.2, 0.4))
        assert est.value == 1.0
        assert est.boundary

    def test_window_selects_slice(self):
        fam = FAMILIES["gaussian"]
        est = fam.mle_mean((10.0, 1.0, 3.0), window=(1, 3))
        assert est.value == pytest.approx(2.0)

    def test_empty_values_rejected(self):
        with pytest.raises(EmptyWindow):
            FAMILIES["gamma1"].mle_mean(())


# ---- support, cores, domains ------------------------------------------------


@pytest.mark.parametrize(
    "name,lower,upper,lower_in,upper_in",
    [
        ("gaussian", -math.inf, math.inf, False, False),
        ("gamma1", 0.0, math.inf, False, False),
        ("tweedie", 0.0, math.inf, True, False),
        ("bernoulli", 0.0, 1.0, True, True),
        ("poisson", 0.0, math.inf, True, False),
    ],
)
def test_convex_core(name, lower, upper, lower_in, upper_in):
    core = FAMILIES[name].convex_core()
    assert (core.lower, core.upper) == (lower, upper)
    assert (core.lower_included, core.upper_included) == (lower_in, upper_in)


def test_interval_membership_respects_flags():
    iv = sk.Interval(0.0, 1.0, True, False)
    assert iv.contains(0.0)
    assert iv.contains(0.5)
    assert not iv.contains(1.0)


@pytest.mark.parametrize(
    "name,bad",
    [
        ("gamma1", -1.0),
        ("bernoulli", 0.5),
        ("poisson", 1.5),
        ("tweedie", -0.1),
    ],
)
def test_observations_outside_support_rejected(name, bad):
    with pytest.raises((UnsupportedPoint, DomainError)):
        FAMILIES[name].log_density(INTERIOR[name][1], bad)


# ---- densities normalize ----------------------------------------------------


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_density_normalizes(name):
    fam = FAMILIES[name]
    mu = INTERIOR[name][1]
    core = fam.convex_core()
    if name == "bernoulli":
        total = sum(math.exp(fam.log_density(mu, x)) for x in (0.0, 1.0))
    elif name == "poisson":
        total = quadrature.sum_counting(lambda k: math.exp(fam.log_density(mu, float(k))), peak=0)
    else:
        # scipy's own quadrature, split at the mean, as an independent oracle
        lower = 1e-300 if name == "tweedie" else core.lower
        density = lambda x: math.exp(fam.log_density(mu, x))
        total = math.fsum(quad(density, *ends, epsabs=1e-10, epsrel=1e-8)[0] for ends in ((lower, mu), (mu, core.upper)))
        if name == "tweedie":
            total += math.exp(fam.log_density(mu, 0.0))
    assert total == pytest.approx(1.0, abs=1e-6)


def test_gaussian_log_density_value():
    fam = sk.GaussianLocation(4.0)
    want = -0.5 * math.log(2 * math.pi * 4.0) - (2.0 - 1.0) ** 2 / 8.0
    assert fam.log_density(1.0, 2.0) == pytest.approx(want, rel=1e-12)


# ---- transformed families ---------------------------------------------------


class TestTransforms:
    def test_identity_preserves_log_density(self):
        base = sk.GammaShape(1.0)
        ident = sk.transform_family(base, lambda x: x, lambda y: y, lambda y: 1.0)
        for mu in (0.5, 1.0, 2.0):
            for x in (0.3, 1.0, 4.0):
                assert ident.log_density(mu, x) == pytest.approx(base.log_density(mu, x), rel=1e-12)

    def test_affine_gaussian_matches_shifted_family(self):
        base = sk.GaussianLocation(1.0)
        moved = sk.transform_family(
            base,
            forward=lambda x: 2 * x + 3,
            inverse=lambda y: (y - 3) / 2,
            inverse_derivative=lambda y: 0.5,
        )
        # pushforward of N(mu, 1) under 2x+3 is N(2 mu + 3, 4)
        direct = sk.GaussianLocation(4.0)
        for mu in (-1.0, 0.5):
            for y in (0.0, 3.0, 5.5):
                assert moved.log_density(mu, y) == pytest.approx(
                    direct.log_density(2 * mu + 3, y), rel=1e-10
                )

    def test_reciprocal_gamma_half_gives_stable_tail_density(self):
        c = 2.0
        base = sk.GammaShape(0.5)
        fam = sk.transform_family(
            base,
            forward=lambda x: 1.0 / x,
            inverse=lambda y: 1.0 / y,
            inverse_derivative=lambda y: -1.0 / (y * y),
            support=(0.0, math.inf),
        )
        for z in (0.2, 0.5, 1.0, 3.0, 10.0):
            want = math.sqrt(c / (2 * math.pi)) * z**-1.5 * math.exp(-c / (2 * z))
            assert math.exp(fam.log_density(1.0 / c, z)) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("name", sorted(TRANSFORMED))
    def test_parameter_side_is_the_base_family(self, name):
        """A transform acts on observations only: every parameter-side value is
        the base family's, to the bit."""
        family = TRANSFORMED[name]
        base = family.base
        for mu in (0.25, 1.0, 4.0):
            assert family.variance(mu) == base.variance(mu)
            assert family.sigma(mu) == base.sigma(mu)
            theta = family.convert(mu, "natural")
            assert theta == base.convert(mu, "natural")
            assert family.convert(theta, "mean") == base.convert(theta, "mean")
            assert family.cumulant(theta.value) == base.cumulant(theta.value)
            assert family.convert(mu, "geodesic", 1.3) == base.convert(mu, "geodesic", 1.3)
            beta = sk.ParamValue.geodesic(0.7, mu)
            assert family.convert(beta, "mean") == base.convert(beta, "mean")
            for nu in (0.5, 2.0):
                assert family.kl_divergence(mu, nu) == base.kl_divergence(mu, nu)

    def test_convex_core_is_the_image_of_the_base_support(self):
        assert TRANSFORMED["levy"].convex_core().bounds() == (0.0, math.inf)
        assert TRANSFORMED["reflected-gamma2"].convex_core().bounds() == (-math.inf, 0.0)

    @pytest.mark.parametrize(
        "maps,message",
        [
            # GammaShape's probe grid holds x = 1.0
            ((lambda x: 1 / (x - 1), lambda y: 1 + 1 / y, lambda y: -1 / y**2), "forward map raises at the probe point x=1.0"),
            ((lambda x: math.log(x - 0.5), lambda y: math.exp(y) + 0.5, math.exp), "forward map raises at the probe point x="),
            ((lambda x: x - 1, lambda y: y * y / y + 1, lambda y: 1.0), "inverse raises at the probe point y=0.0"),
            ((lambda x: x + 2, lambda y: y - 2, lambda y: math.sqrt(y - 3)), "inverse derivative raises at the probe point y="),
        ],
        ids=["forward-zero-division", "forward-log", "inverse", "inverse-derivative"],
    )
    def test_map_raising_at_a_probe_is_rejected(self, maps, message):
        """A map that raised ZeroDivisionError or ValueError at a probe escaped as that bare error."""
        with pytest.raises(NonMonotone, match=re.escape(message)):
            sk.transform_family(sk.GammaShape(1.0), *maps)

    def test_non_monotone_map_rejected(self):
        with pytest.raises(NonMonotone):
            sk.transform_family(
                sk.GaussianLocation(1.0),
                forward=lambda x: x * x,
                inverse=lambda y: math.sqrt(abs(y)),
                inverse_derivative=lambda y: 1.0,
            )


# ---- serialization ----------------------------------------------------------


@pytest.mark.parametrize(
    "fam",
    [
        sk.GaussianLocation(2.5),
        sk.GammaShape(0.5),
        sk.GammaShape(2.0, mean_domain=(0.5, 4.0)),
        sk.Tweedie32(),
        sk.Bernoulli(),
        sk.Poisson(),
    ],
    ids=lambda f: type(f).__name__,
)
def test_json_round_trip(fam):
    clone = sk.from_json(fam.to_json())
    assert type(clone) is type(fam)
    assert clone == fam
    assert hash(clone) == hash(fam)
    core = fam.convex_core()
    lo = max(core.lower, -4.0)
    hi = min(core.upper, 4.0)
    mid = fam.default_reference()
    assert clone.kl_divergence(mid, mid) == 0.0
    x = 1.0 if core.lower >= 0 else 0.5
    assert clone.log_density(mid, x) == pytest.approx(fam.log_density(mid, x), rel=1e-12)
    assert (lo, hi) == (max(clone.convex_core().lower, -4.0), min(clone.convex_core().upper, 4.0))


def test_from_json_rejects_unknown_kind():
    with pytest.raises(DomainError):
        sk.from_json('{"kind": "cauchy"}')


@pytest.mark.parametrize(
    "payload,message",
    [
        ("[1, 2]", "a family payload must be a JSON object, got [1, 2]"),
        ('"poisson"', "a family payload must be a JSON object, got 'poisson'"),
        ('{"kind": [1]}', "unknown family kind [1]"),
        ('{"kind": "poisson", "mean_domain": 5}', "mean_domain must be null or an array of two numbers, got 5"),
        ({"kind": "poisson", "mean_domain": [0, 1, 2]}, "mean_domain must be null or an array of two numbers, got [0, 1, 2]"),
        ({"kind": "poisson", "mean_domain": ["a", 1]}, "mean_domain must be null or an array of two numbers, got ['a', 1]"),
        ('{"kind": "gaussian_location", "sigma2": null}', "sigma2 must be a number, got None"),
        ({"kind": "gamma_shape", "shape": "x"}, "shape must be a number, got 'x'"),
    ],
    ids=["list", "string", "kind-list", "domain-number", "domain-three", "domain-text", "null-parameter", "text-parameter"],
)
def test_from_json_names_a_malformed_payload(payload, message):
    """These escaped as bare AttributeError, TypeError or ValueError."""
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        sk.from_json(payload)


# ---- value semantics --------------------------------------------------------


RESTRICTED = [
    sk.GaussianLocation(2.5, mean_domain=(-1.0, math.inf)),
    sk.GammaShape(2.0, mean_domain=(0.5, 4.0)),
    sk.Tweedie32(mean_domain=(0.0, 3.0)),
    sk.Bernoulli(mean_domain=(0.1, 0.9)),
    sk.Poisson(mean_domain=sk.Interval(0.5, 10.0)),
]


@pytest.mark.parametrize("fam", RESTRICTED, ids=lambda f: type(f).__name__)
def test_restricted_family_is_a_value(fam):
    clone = sk.from_json(fam.to_json())
    assert clone == fam
    assert hash(clone) == hash(fam)
    assert clone != type(fam)()
    assert clone.to_json() == fam.to_json()


def test_mean_domain_given_as_the_full_domain_is_the_default():
    assert sk.Bernoulli(mean_domain=(0.1, 0.9)) != sk.Bernoulli()
    assert sk.Bernoulli(mean_domain=(0, 1)) == sk.Bernoulli()
    assert hash(sk.Bernoulli(mean_domain=(0, 1))) == hash(sk.Bernoulli())
    assert sk.GammaShape(2) == sk.GammaShape(2.0, mean_domain=sk.Interval(0.0, math.inf))
    assert sk.GammaShape(2.0) != sk.GammaShape(2.5)
    assert sk.GaussianLocation() != sk.GammaShape()


@pytest.mark.parametrize("fam", list(FAMILIES.values()) + RESTRICTED, ids=list(FAMILIES) + ["restricted"] * len(RESTRICTED))
def test_every_field_is_frozen(fam):
    for field in dataclasses.fields(fam):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(fam, field.name, getattr(fam, field.name))


def test_transformed_families_compare_by_identity():
    def make():
        return sk.transform_family(sk.GammaShape(0.5), lambda x: 1.0 / x, lambda y: 1.0 / y, lambda y: -1.0 / (y * y))

    first, second = make(), make()
    assert first == first
    assert first != second
    assert first != sk.GammaShape(0.5)


# ---- hyperparameter validation ----------------------------------------------


@pytest.mark.parametrize(
    "ctor",
    [
        lambda: sk.GaussianLocation(0.0),
        lambda: sk.GaussianLocation(-1.0),
        lambda: sk.GammaShape(0.0),
        lambda: sk.GammaShape(-2.0),
    ],
)
def test_invalid_hyperparameters_rejected(ctor):
    with pytest.raises(DomainError):
        ctor()


# ---- observation sequences --------------------------------------------------


@pytest.mark.parametrize("m", [1.5, math.nan, math.inf])
def test_observation_sequence_rejects_a_non_integral_m(m):
    """m = 1.5 used to pass construction and fail at the first slice with a TypeError."""
    with pytest.raises(ValueError, match="m must be an integer"):
        sk.ObservationSequence((1.0, 2.0, 3.0), m=m)


def test_observation_sequence_keeps_an_integral_m():
    seq = sk.ObservationSequence((1.0, 2.0, 3.0), m=2.0)
    assert seq.m == 2 and type(seq.m) is int
    assert seq.history == (1.0, 2.0) and seq.continuation == (3.0,)
    with pytest.raises(ValueError):
        sk.ObservationSequence((1.0,), m=2)
