"""Tests for the quadrature wrapper: closed forms, tails, and mixed measures."""

import math

import pytest
from hypothesis import given, strategies as hs

from snmlkit import quadrature
from snmlkit.errors import NanIntegrand, NonConvergence


def gaussian_bump(x):
    return math.exp(-x * x / 2.0)


@pytest.mark.parametrize(
    "fn,domain,expected",
    [
        (gaussian_bump, (-math.inf, math.inf), math.sqrt(2 * math.pi)),
        (lambda x: math.exp(-x), (0.0, math.inf), 1.0),
        (lambda t: t**-3 * math.exp(-2.0 / t) if t > 0 else 0.0, (0.0, math.inf), 0.25),
        (lambda t: math.exp(-t * t) if t > 0 else 1.0, (0.0, math.inf), math.sqrt(math.pi) / 2),
        (
            lambda t: math.exp(-t * t - 1.0 / (t * t)) if t > 0 else 0.0,
            (0.0, math.inf),
            math.sqrt(math.pi) / 2 * math.exp(-2.0),
        ),
        (
            lambda t: math.exp(-t * t - 4.0 / (t * t)) if t > 0 else 0.0,
            (0.0, math.inf),
            math.sqrt(math.pi) / 2 * math.exp(-4.0),
        ),
    ],
)
def test_closed_forms(fn, domain, expected):
    res = quadrature.integrate(fn, domain)
    assert res.value == pytest.approx(expected, abs=1e-10, rel=1e-10)
    assert res.abs_error_estimate >= 0.0
    assert res.abs_error_estimate <= max(1e-10, 1e-8 * abs(res.value))


def test_additivity():
    fn = lambda x: math.exp(-x)
    whole = quadrature.integrate(fn, (0.0, 3.0))
    left = quadrature.integrate(fn, (0.0, 1.0))
    right = quadrature.integrate(fn, (1.0, 3.0))
    budget = 2 * (whole.abs_error_estimate + left.abs_error_estimate + right.abs_error_estimate)
    assert abs(whole.value - (left.value + right.value)) <= max(budget, 1e-14)


def test_truncated_domain_is_finite():
    res = quadrature.integrate(gaussian_bump, (-math.inf, math.inf))
    lo, hi = res.truncated_domain
    assert math.isfinite(lo) and math.isfinite(hi)
    assert lo < 0 < hi


@pytest.mark.parametrize(
    "fn,domain,peak_hint,expected",
    [
        # envelope ~ y^(-3/2): most of the far tail lies beyond any fixed cutoff
        (lambda y: 1.0 / (math.sqrt(y) * (1.0 + y)) if y > 0 else 0.0, (0.0, math.inf), 1.0, math.pi),
        # Cauchy: both tails ~ x^(-2) hold about 5e-9 beyond the window
        (lambda x: 1.0 / (math.pi * (1.0 + x * x)), (-math.inf, math.inf), 0.0, 1.0),
    ],
    ids=["one-sided", "cauchy"],
)
def test_heavy_power_tail_mass_is_kept(fn, domain, peak_hint, expected):
    res = quadrature.integrate(fn, domain, tol_abs=1e-12, tol_rel=1e-10, peak_hint=peak_hint)
    assert res.value == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize(
    "fn,domain,peak_hint,expected,old_calls",
    [
        (lambda x: math.exp(-x * x / 2.0) / math.sqrt(2 * math.pi), (-math.inf, math.inf), 0.0, 1.0, 398),
        (lambda x: math.exp(-x), (0.0, math.inf), 1.0, 1.0, 351),
        (
            lambda x: math.exp(-((x - 1000.0) ** 2) / 2.0) / math.sqrt(2 * math.pi),
            (-math.inf, math.inf),
            1000.0,
            1.0,
            662,
        ),
    ],
    ids=["normal", "exponential", "normal-at-1000"],
)
def test_tail_window_ends_at_first_decayed_probe(fn, domain, peak_hint, expected, old_calls):
    """Panels past the first decayed probe of the scan are left to the 1/x tail
    pass; old_calls is the count when the window ran to the last probe."""
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return fn(x)

    res = quadrature.integrate(counted, domain, tol_abs=1e-12, tol_rel=1e-10, peak_hint=peak_hint)
    assert res.value == pytest.approx(expected, abs=1e-12)
    assert calls < old_calls


def test_peak_far_from_origin():
    res = quadrature.integrate(
        lambda x: math.exp(-((x - 50.0) ** 2) / 2.0),
        (-math.inf, math.inf),
        peak_hint=50.0,
    )
    assert res.value == pytest.approx(math.sqrt(2 * math.pi), rel=1e-9)


def test_narrow_spike_found_via_peak_hint():
    scale = 1e-3
    res = quadrature.integrate(
        lambda x: math.exp(-((x - 3.0) / scale) ** 2 / 2.0),
        (-math.inf, math.inf),
        peak_hint=3.0,
    )
    assert res.value == pytest.approx(scale * math.sqrt(2 * math.pi), rel=1e-8)


def test_nan_integrand_reported():
    with pytest.raises(NanIntegrand):
        quadrature.integrate(lambda x: float("nan"), (-math.inf, math.inf))


def test_non_decaying_integrand_rejected():
    with pytest.raises(NonConvergence):
        quadrature.integrate(lambda x: 1.0, (0.0, math.inf))


def test_empty_domain_rejected():
    with pytest.raises(ValueError):
        quadrature.integrate(gaussian_bump, (2.0, 2.0))


@given(
    mean=hs.floats(min_value=-20.0, max_value=20.0),
    sd=hs.floats(min_value=0.1, max_value=10.0),
)
def test_normal_density_integrates_to_one(mean, sd):
    res = quadrature.integrate(
        lambda x: math.exp(-((x - mean) ** 2) / (2 * sd * sd)) / (sd * math.sqrt(2 * math.pi)),
        (-math.inf, math.inf),
        peak_hint=mean,
    )
    assert res.value == pytest.approx(1.0, abs=1e-7)


class TestSumCounting:
    def test_poisson_masses(self):
        total = quadrature.sum_counting(
            lambda k: math.exp(-2.0) * 2.0**k / math.factorial(k), start=0
        )
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_geometric_series(self):
        total = quadrature.sum_counting(lambda k: 0.5**k, start=1)
        assert total == pytest.approx(1.0, rel=1e-12)


class TestIntegrateMixed:
    def test_atoms_only_expectation(self):
        measure = quadrature.MixedMeasure(
            density=lambda x: 0.0, atoms=((0.0, 0.4), (1.0, 0.6))
        )
        res = quadrature.integrate_mixed(measure, lambda x: x, (0.0, 2.0))
        assert res.value == pytest.approx(0.6, abs=1e-12)

    def test_empty_measure(self):
        measure = quadrature.MixedMeasure(density=lambda x: 0.0, atoms=())
        res = quadrature.integrate_mixed(measure, lambda x: 1.0, (0.0, 1.0))
        assert res.value == 0.0

    def test_density_plus_atom_normalizes(self):
        measure = quadrature.MixedMeasure(
            density=lambda x: 0.5 * math.exp(-x), atoms=((0.0, 0.5),)
        )
        res = quadrature.integrate_mixed(measure, lambda x: 1.0, (0.0, math.inf))
        assert res.value == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize(
    "n,boundary,expected",
    [
        (1, False, math.sqrt(2 * math.pi)),
        (4, False, math.sqrt(math.pi / 2)),
        (4, True, math.sqrt(math.pi / 2) / 2),
        (50, False, math.sqrt(2 * math.pi / 50)),
    ],
)
def test_laplace_reference(n, boundary, expected):
    assert quadrature.laplace_reference(n, boundary) == pytest.approx(expected, rel=1e-15)


class TestGuarded:
    def test_exceptions_become_zero(self):
        fn = quadrature.guarded(lambda x: 1.0 / x)
        assert fn(0.0) == 0.0
        assert fn(2.0) == 0.5

    def test_infinities_become_zero(self):
        fn = quadrature.guarded(lambda x: math.inf)
        assert fn(1.0) == 0.0

    def test_nan_passes_through(self):
        fn = quadrature.guarded(lambda x: float("nan"))
        assert math.isnan(fn(1.0))
