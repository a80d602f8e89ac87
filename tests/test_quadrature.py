"""Tests for the quadrature wrapper: closed forms, tails, and counting sums."""

import math
import re

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
    whole = quadrature.integrate(gaussian_bump, (-1.0, 2.0))
    left = quadrature.integrate(gaussian_bump, (-1.0, 0.0))
    right = quadrature.integrate(gaussian_bump, (0.0, 2.0))
    budget = 2 * (whole.abs_error_estimate + left.abs_error_estimate + right.abs_error_estimate)
    assert abs(whole.value - (left.value + right.value)) <= max(budget, 1e-14)


@pytest.mark.parametrize(
    "fn,domain,expected,old_calls",
    [
        (lambda x: math.exp(-x * x / 2.0) / math.sqrt(2 * math.pi), (-math.inf, math.inf), 1.0, 398),
        (lambda x: math.exp(-x), (0.0, math.inf), 1.0, 351),
    ],
    ids=["normal", "exponential"],
)
def test_tail_window_ends_at_first_decayed_probe(fn, domain, expected, old_calls, integrand_calls):
    """Panels past the first decayed probe of the scan are left to the tail
    bound; old_calls is the count when the window ran to the last probe."""
    res = quadrature.integrate(fn, domain, tol_abs=1e-12, tol_rel=1e-10)
    assert res.value == pytest.approx(expected, abs=1e-12)
    assert integrand_calls.count < old_calls


@pytest.mark.parametrize("domain", [(-1e4, math.inf), (-1e8, math.inf), (-math.inf, 1e4)])
def test_bump_far_from_a_finite_edge(domain):
    """A finite side is scanned like an unbounded one, up to its edge; the
    integrand decays long before it, so the probes up to the decay become
    break points.  Without them one panel from the edge to the bump's scale
    probe at -1 (or +1) hid that flank of the bump: 24% of the mass was lost
    at an edge 1e4 away."""
    res = quadrature.integrate(lambda x: math.exp(-x * x / 8.0), domain)
    assert res.value == pytest.approx(math.sqrt(8.0 * math.pi), rel=1e-10)


def test_narrow_spike_found_via_peak_hint():
    """Halving inward from +-1 puts break points at the spike's own scale."""
    scale = 1e-3
    res = quadrature.integrate(lambda x: math.exp(-((x / scale) ** 2) / 2.0), (-math.inf, math.inf))
    assert res.value == pytest.approx(scale * math.sqrt(2 * math.pi), rel=1e-8)


def test_nan_integrand_reported():
    with pytest.raises(NanIntegrand):
        quadrature.integrate(lambda x: float("nan"), (-math.inf, math.inf))


def test_non_decaying_integrand_rejected():
    with pytest.raises(NonConvergence):
        quadrature.integrate(lambda x: 1.0, (0.0, math.inf))


def test_non_decaying_left_tail_names_side_probe_and_distance():
    """The last probe is the 80th, 2**79 from 0."""
    with pytest.raises(NonConvergence) as err:
        quadrature.integrate(lambda x: 1.0 if x < 0.0 else math.exp(-x), (-math.inf, math.inf))
    message = str(err.value)
    assert "left tail" in message
    match = re.search(r"last probe x=(\S+)\)", message)
    assert float(match.group(1)) == pytest.approx(-(2.0**79), rel=1e-2)


def test_empty_domain_rejected():
    with pytest.raises(ValueError):
        quadrature.integrate(gaussian_bump, (2.0, 2.0))


@pytest.mark.parametrize(
    "window", [(1.0, 3.0), (-3.0, -1.0), (1.0, math.inf), (-math.inf, -1.0), (0.0, 0.0), (1.0, -1.0)]
)
def test_window_must_hold_zero(window):
    """Every integrand is a chart integrand with its bump at 0."""
    with pytest.raises(ValueError, match="does not hold 0"):
        quadrature.integrate(gaussian_bump, window)


@given(sd=hs.floats(min_value=0.1, max_value=10.0))
def test_normal_density_integrates_to_one(sd):
    res = quadrature.integrate(
        lambda x: math.exp(-(x**2) / (2 * sd * sd)) / (sd * math.sqrt(2 * math.pi)),
        (-math.inf, math.inf),
    )
    assert res.value == pytest.approx(1.0, abs=1e-7)


class TestSumCounting:
    def test_poisson_masses(self):
        total = quadrature.sum_counting(lambda k: math.exp(-2.0) * 2.0**k / math.factorial(k), peak=0)
        assert total == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("mean", [2000.0, 1e4])
    def test_poisson_masses_summed_from_the_peak(self, mean):
        """Summed from 0, the first 25 masses underflow to 0 and the sum stops there."""
        total = quadrature.sum_counting(
            lambda k: math.exp(k * math.log(mean) - mean - math.lgamma(k + 1.0)), peak=round(mean)
        )
        assert total == pytest.approx(1.0, rel=1e-10)

    def test_geometric_series(self):
        total = quadrature.sum_counting(lambda k: 0.5 ** (k + 1), peak=0)
        assert total == pytest.approx(1.0, rel=1e-12)


def _bump_except_at_zero(at_zero):
    """exp(-x^2), except that x = 0, where the scan starts, calls at_zero."""
    return lambda x: math.exp(-x * x) if x else at_zero()


def _raise(error):
    raise error("at x = 0")


@pytest.mark.parametrize("window", [(-math.inf, math.inf), (-5.0, 5.0)], ids=["scanned", "finite"])
class TestGuarded:
    """integrate guards its integrand at every point it evaluates, scan
    probes included: an isolated point that raises or is infinite reads 0."""

    @pytest.mark.parametrize("error", [ValueError, ZeroDivisionError, OverflowError])
    def test_exceptions_become_zero(self, window, error):
        res = quadrature.integrate(_bump_except_at_zero(lambda: _raise(error)), window)
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-8)

    def test_infinities_become_zero(self, window):
        res = quadrature.integrate(_bump_except_at_zero(lambda: math.inf), window)
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-8)

    def test_nan_passes_through(self, window):
        with pytest.raises(NanIntegrand):
            quadrature.integrate(lambda x: math.nan if x > 0.5 else math.exp(-x * x), window)


@pytest.mark.parametrize("p", [5.0, 10.0, 20.0])
def test_power_tails_keep_their_mass(p):
    """At these p, |x| f(x) of an x^-p tail halves between doubling probes
    fast enough that its decayed probes bound its mass far below the
    tolerance."""
    half_line = quadrature.integrate(lambda x: (1.0 + x) ** -p, (0.0, math.inf))
    assert half_line.value == pytest.approx(1.0 / (p - 1.0), rel=1e-10)
    line = quadrature.integrate(lambda x: (1.0 + x * x) ** (-p / 2.0), (-math.inf, math.inf))
    want = math.sqrt(math.pi) * math.exp(math.lgamma((p - 1.0) / 2.0) - math.lgamma(p / 2.0))
    assert line.value == pytest.approx(want, rel=1e-10)


def _power_tail_cases():
    for p in (1.5, 2.0, 3.0):
        yield pytest.param(lambda x, p=p: (1.0 + x) ** -p, (0.0, math.inf), {}, "right", id=f"half-line-p{p}")
        yield pytest.param(
            lambda x, p=p: (1.0 + x * x) ** (-p / 2.0), (-math.inf, math.inf), {}, "right", id=f"line-p{p}"
        )
        yield pytest.param(lambda x, p=p: (1.0 - x) ** -p, (-math.inf, 0.0), {}, "left", id=f"left-half-line-p{p}")


def _probes_grow(x):
    # beyond the Gaussian bump 1e-21 x e^(-x / 1e5) is below 1e-16 of the
    # peak at every probe out to 64, but |x| f(x) grows from probe to probe:
    # its mass, 1e-11, lies beyond them
    return math.exp(-x * x) + (1e-21 * x * math.exp(-x / 1e5) if x > 0 else 0.0)


@pytest.mark.parametrize(
    "fn,domain,options,side",
    [
        pytest.param(
            lambda t: t**-3 * math.exp(-2.0 / t) if t > 0 else 0.0, (0.0, math.inf), {}, "right", id="t^-3-e^-2/t"
        ),
        # envelope ~ y^(-3/2): most of the far tail lies beyond any fixed cutoff
        pytest.param(
            lambda y: 1.0 / (math.sqrt(y) * (1.0 + y)) if y > 0 else 0.0,
            (0.0, math.inf),
            {"tol_abs": 1e-12, "tol_rel": 1e-10},
            "right",
            id="one-sided",
        ),
        # both tails ~ x^(-2) hold about 5e-9 beyond the window; the right one is checked first
        pytest.param(
            lambda x: 1.0 / (math.pi * (1.0 + x * x)),
            (-math.inf, math.inf),
            {"tol_abs": 1e-12, "tol_rel": 1e-10},
            "right",
            id="cauchy",
        ),
        *_power_tail_cases(),
        pytest.param(
            _probes_grow,
            (-math.inf, math.inf),
            {"tol_abs": 1e-300, "tol_rel": 1e-14},
            "right",
            id="probes-grow",
        ),
    ],
)
def test_tail_its_decayed_probes_cannot_bound_raises(fn, domain, options, side):
    """Only the window is integrated.  A tail whose decayed probes do not
    bound its mass within 1e-3 of the tolerance is not cut off silently:
    NonConvergence names its side and the window edge, which lies on that
    side of 0."""
    with pytest.raises(NonConvergence) as err:
        quadrature.integrate(fn, domain, **options)
    match = re.search(r"the (\w+) tail beyond the window edge x=(\S+) ", str(err.value))
    assert match is not None, str(err.value)
    assert match.group(1) == side
    edge = float(match.group(2))
    assert edge > 1.0 if side == "right" else edge < -1.0
