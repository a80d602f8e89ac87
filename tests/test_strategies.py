"""Tests for the four prediction strategies and their joints and regrets."""

import itertools
import math
import time
import tracemalloc
from fractions import Fraction
from math import lgamma

from hypothesis import example, given, settings, strategies as hs
import mpmath
import pytest
import scipy.integrate
from scipy.integrate import quad
from scipy.special import ive

import snmlkit as sk
from snmlkit import quadrature, strategies
from snmlkit.errors import (
    DivergentNormalizer,
    ImproperPosterior,
    QuadratureError,
    SnmlkitError,
)
from snmlkit.families import ObservationSequence
from snmlkit.strategies import STRATEGIES


def gamma_snml_log_density(k, history, y):
    """Closed-form one-step log density for a fixed-shape family on (0, inf).

    With t observations total and history sum S, the sup-likelihood envelope
    is proportional to y^(k-1) (S+y)^(-tk); the normalizer is a Beta integral.
    """
    t = len(history) + 1
    s = sum(history)
    log_beta = lgamma(k) + lgamma((t - 1) * k) - lgamma(t * k)
    return (k - 1) * math.log(y) - t * k * math.log(s + y) - (1 - t) * k * math.log(s) - log_beta


def gamma_snml_density(k, history, y):
    return math.exp(gamma_snml_log_density(k, history, y))


def tweedie_log_predictive(history, y):
    """Closed-form Jeffreys (= SNML) one-step log density of the Tweedie 3/2 family.

    The base measure is h(y) = I_1(2 sqrt y) / sqrt y on y > 0 plus a unit
    atom at 0, and the posterior normalizer of n observations with sum s is
    Z(n, s) = sqrt(pi / n) exp(-2 sqrt(n s)); the density is h(y) Z(n+1, s+y) / Z(n, s).
    """
    n, s = len(history), math.fsum(history)
    log_h = 0.0 if y == 0.0 else math.log(ive(1, 2.0 * math.sqrt(y))) + 2.0 * math.sqrt(y) - 0.5 * math.log(y)
    return log_h + 0.5 * math.log(n / (n + 1)) - 2.0 * math.sqrt((n + 1) * (s + y)) + 2.0 * math.sqrt(n * s)


def gaussian_snml_density(sigma2, history, y):
    t = len(history) + 1
    center = sum(history) / len(history)
    var = sigma2 * t / (t - 1)
    return math.exp(-((y - center) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)


LEVY = sk.transform_family(sk.GammaShape(0.5), lambda x: 1.0 / x, lambda y: 1.0 / y, lambda y: -1.0 / (y * y))
# support (-inf, 0): outside the domain of the base family's charts
REFLECTED_GAMMA = sk.transform_family(sk.GammaShape(2.0), lambda x: -x, lambda y: -y, lambda y: -1.0)


# ---- SNML closed forms --------------------------------------------------------


class TestSnmlClosedForms:
    def test_gaussian_example_point(self):
        pred = sk.snml_predictive(sk.GaussianLocation(1.0), (0.0, 2.0))
        assert pred.density(1.0) == pytest.approx(1.0 / math.sqrt(3 * math.pi), rel=1e-12)

    @pytest.mark.parametrize("history", [(0.5,), (0.5, -1.0), (2.0, 0.3, -0.7)])
    @pytest.mark.parametrize("y", [-1.5, 0.0, 1.0, 2.5])
    def test_gaussian_general(self, history, y):
        pred = sk.snml_predictive(sk.GaussianLocation(1.0), history)
        assert pred.density(y) == pytest.approx(
            gaussian_snml_density(1.0, history, y), rel=1e-10
        )

    def test_gamma_unit_shape_single_observation(self):
        pred = sk.snml_predictive(sk.GammaShape(1.0), (1.0,))
        for y in (0.25, 1.0, 3.0):
            assert pred.density(y) == pytest.approx(1.0 / (1.0 + y) ** 2, rel=1e-9)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("history", [(1.0,), (0.5, 2.0), (1.0, 3.0, 0.4), (0.0, 1.5)])
    def test_gamma_general(self, k, history):
        pred = sk.snml_predictive(sk.GammaShape(k), history)
        for y in (0.3, 1.0, 2.5):
            assert pred.density(y) == pytest.approx(
                gamma_snml_density(k, history, y), rel=1e-8
            )

    def test_bernoulli_masses(self):
        empty = sk.snml_predictive(sk.Bernoulli(), ())
        assert empty.density(1.0) == pytest.approx(0.5, abs=1e-15)
        after_one = sk.snml_predictive(sk.Bernoulli(), (1.0,))
        assert after_one.density(1.0) == pytest.approx(0.8, abs=1e-15)
        assert after_one.density(0.0) == pytest.approx(0.2, abs=1e-15)


# ---- Bayes closed forms -------------------------------------------------------


class TestBayesClosedForms:
    def test_gamma_unit_shape_matches_snml_closed_form(self):
        pred = sk.bayes_jeffreys_predictive(sk.GammaShape(1.0), (1.0,))
        for y in (0.25, 1.0, 3.0):
            assert pred.density(y) == pytest.approx(1.0 / (1.0 + y) ** 2, rel=1e-9)

    def test_bernoulli_posterior_mean(self):
        pred = sk.bayes_jeffreys_predictive(sk.Bernoulli(), (1.0,))
        assert pred.density(1.0) == pytest.approx(0.75, rel=1e-10)

    def test_bernoulli_empty_history_is_uniform(self):
        pred = sk.bayes_jeffreys_predictive(sk.Bernoulli(), ())
        assert pred.density(1.0) == pytest.approx(0.5, rel=1e-10)

    def test_gaussian_matches_flat_prior_predictive(self):
        pred = sk.bayes_jeffreys_predictive(sk.GaussianLocation(1.0), (0.0, 2.0))
        for y in (-1.0, 1.0, 2.5):
            want = math.exp(-((y - 1.0) ** 2) / 3.0) / math.sqrt(3 * math.pi)
            assert pred.density(y) == pytest.approx(want, rel=1e-10)


def poisson_jeffreys_log_predictive(history, y):
    """Negative binomial: after n counts with sum s the Jeffreys posterior is
    Gamma(s + 1/2, rate n), and its predictive mass at y has this log."""
    n, a = len(history), math.fsum(history) + 0.5
    return lgamma(a + y) - lgamma(a) - lgamma(y + 1) + a * math.log(n / (n + 1)) - y * math.log(n + 1)


@pytest.mark.parametrize("history", [(1.0,), (3.0, 0.0, 7.0), (2000.0,)])
def test_poisson_bayes_matches_the_negative_binomial(history):
    """Checked out to 3 x-bar + 30.  After (2000,) the mass at 6030 is 44
    predictive standard deviations out, where an integral over the mean
    anchored at the history's mean was 57 off in log."""
    mean = math.fsum(history) / len(history)
    top = int(3 * mean + 30)
    points = range(top + 1) if top < 100 else (0, 1000, 1900, 2000, 2100, 3000, 4500, top)
    pred = sk.bayes_jeffreys_predictive(sk.Poisson(), history)
    for y in points:
        want = poisson_jeffreys_log_predictive(history, float(y))
        assert abs(pred.log_density(y) - want) <= 1e-9 * max(1.0, abs(want)), y


@pytest.mark.parametrize("x", [30.0, 1e3, 1e10, 1e12, 1e14, 1e100, 2.5e305, 1e308, 1.7976931348623157e308])
def test_poisson_bayes_at_large_counts_matches_the_negative_binomial(x):
    """The predictive of x after (x,), against the negative binomial in
    mpmath at 1400 bits, which its cancelling loggamma terms need out to
    the largest float.  x log x - lgamma(x + 1) in the saturated
    log-likelihood was 3.8e-3 off at 1e12 and overflowed past 2.5e305."""
    with mpmath.workprec(1400):
        a, y = mpmath.mpf(x) + mpmath.mpf(1) / 2, mpmath.mpf(x)
        want = float(mpmath.loggamma(a + y) - mpmath.loggamma(a) - mpmath.loggamma(y + 1) - (a + y) * mpmath.log(2))
    got = sk.bayes_jeffreys_predictive(sk.Poisson(), (x,)).log_density(x)
    assert abs(got - want) <= 5e-16 * abs(want)


def test_poisson_snml_at_the_largest_counts_raises_a_typed_error_or_is_finite():
    """After (1e308,) the SNML normalizer either settles or raises the
    package's own error, never a bare OverflowError."""
    try:
        pred = sk.snml_predictive(sk.Poisson(), (1e308,))
    except SnmlkitError:
        return
    assert math.isfinite(pred.log_normalizer) and math.isfinite(pred.log_density(1e308))


def test_bernoulli_bayes_joints_are_exact():
    """The Krichevsky-Trofimov products: (1/2)(1/4)(1/2) for (1, 0, 1), and
    (1/4)(1/2) after its first draw."""
    ber = sk.Bernoulli()
    assert sk.strategy_joint(ber, "bayes", ObservationSequence((1.0, 0.0, 1.0))) == Fraction(1, 16)
    assert sk.strategy_joint(ber, "bayes", ObservationSequence((1.0, 0.0, 1.0), 1)) == Fraction(1, 8)
    assert sk.strategy_joint(ber, "bayes", ObservationSequence((1.0, 0.0, 1.0), 3)) == Fraction(1)


def mp_poisson_log_jeffreys(n, mean):
    """log of the integral of exp(-n D(x-bar || mu)) / sqrt(mu) over mu > 0:
    log Gamma(a + 1/2) + a - a log x-bar - (a + 1/2) log n with a = n x-bar."""
    a = n * mpmath.mpf(mean)
    return mpmath.loggamma(a + 0.5) + a - (a * mpmath.log(mean) if a else 0) - (a + 0.5) * mpmath.log(n)


def mp_bernoulli_log_jeffreys(n, mean):
    """log of the integral of exp(-n D(x-bar || mu)) / sqrt(mu (1 - mu)) over
    (0, 1): log B(a + 1/2, b + 1/2) - a log x-bar - b log(1 - x-bar) with
    a = n x-bar and b = n - a."""
    x = mpmath.mpf(mean)
    a, b = n * x, n * (1 - x)
    return mpmath.log(mpmath.beta(a + 0.5, b + 0.5)) - (a * mpmath.log(x) if a else 0) - (b * mpmath.log(1 - x) if b else 0)


@pytest.mark.parametrize("a", [0, 1, 29, 30, 31, 1e3, 1e7])
@pytest.mark.parametrize("n", [1, 3, 1000])
def test_poisson_jeffreys_normalizer_matches_mpmath(n, a):
    """a = n x-bar on both sides of the switch to the asymptotic remainder at 30."""
    mean = a / n
    with mpmath.workdps(50):
        want = mp_poisson_log_jeffreys(n, mean)
        assert abs(float(sk.Poisson()._log_jeffreys_normalizer(n, mean) - want)) <= 1e-13 * abs(float(want))


@pytest.mark.parametrize("n", [1, 2, 7, 30, 61, 1000, 10**6])
def test_bernoulli_jeffreys_normalizer_matches_mpmath(n):
    for ones in sorted({0, 1, n // 2, n - 1, n}):
        mean = ones / n
        with mpmath.workdps(50):
            want = mp_bernoulli_log_jeffreys(n, mean)
            got = sk.Bernoulli()._log_jeffreys_normalizer(n, mean)
            assert abs(float(got - want)) <= 1e-13 * abs(float(want)), ones
    assert sk.Bernoulli()._log_jeffreys_normalizer(0, 0.0) == math.log(math.pi)


@pytest.mark.parametrize(
    "family,totals",
    [
        (sk.Poisson(), lambda n: (0, 1, 3, 2 * n, 37 * n)),
        (sk.Bernoulli(), lambda n: (0, 1, n // 3, n - 1, n)),
        (sk.Tweedie32(), lambda n: (0, 1e-6 * n, n, 1e3 * n, 1e10 * n, 1e20 * n)),
        (sk.GaussianLocation(1.0), lambda n: (-1e6 * n, -n, 0, 0.3 * n, 1e3 * n, 1e6 * n)),
        (sk.GaussianLocation(4.0), lambda n: (-1e6 * n, -n, 0, 0.3 * n, 1e3 * n, 1e6 * n)),
    ],
    ids=["poisson", "bernoulli", "tweedie", "gaussian", "gaussian-4"],
)
@pytest.mark.parametrize("n", [1, 2, 5, 17, 100])
def test_jeffreys_closed_forms_match_the_concentration_integral(family, totals, n):
    for total in sorted(set(totals(n))):
        mean = total / n
        want = math.log(strategies._concentration_integral(family, n, mean, 1e-13, 1e-11))
        assert abs(family._log_jeffreys_normalizer(n, mean) - want) <= 1e-10, total


def mp_tweedie_log_jeffreys(n, mean):
    """log of the integral of exp(-n D(x-bar || mu)) / sigma(mu) over mu > 0,
    by mpmath quadrature.  With u = mu^(1/4) and r = x-bar^(1/4) it is
    2 sqrt(2) times the integral of exp(-n (u - r^2 / u)^2) over u > 0, a
    bump 1 / sqrt(n) wide at u = r.  It is taken in z with
    u = r (1 + e z), e = 1 / (sqrt(n) r), where the exponent is
    -(z (2 + e z) / (1 + e z))^2 at any scale; for x-bar = 0 in z = sqrt(n) u."""
    with mpmath.workdps(40):
        n = mpmath.mpf(n)
        if mean == 0.0:
            lo, f = 0, lambda z: mpmath.exp(-z * z)
        else:
            e = 1 / (mpmath.sqrt(n) * mpmath.mpf(mean) ** 0.25)
            lo = -1 / e
            f = lambda z: mpmath.exp(-((z * (2 + e * z) / (1 + e * z)) ** 2)) if 1 + e * z else 0
        points = [lo] + [z for z in (-8, -2, 0, 2, 8) if z > lo] + [mpmath.inf]
        return mpmath.log(2 * mpmath.sqrt(2) / mpmath.sqrt(n) * mpmath.quad(f, points))


@pytest.mark.parametrize("mean", [0.0, 1e-300, 1e-6, 1.0, 1e20, 1e300])
@pytest.mark.parametrize("n", [1, 2, 6, 7, 100, 10**6, 10**16])
def test_tweedie_jeffreys_normalizer_matches_mpmath(n, mean):
    """log(2 pi / n) / 2 whatever x-bar, against the integral itself."""
    want = mp_tweedie_log_jeffreys(n, mean)
    got = sk.Tweedie32()._log_jeffreys_normalizer(n, mean)
    assert abs(float(got - want)) <= 1e-13 * abs(float(want))


def test_tweedie_jeffreys_normalizer_of_no_history_is_improper():
    """The Jeffreys prior itself does not normalize."""
    with pytest.raises(ImproperPosterior, match="n=0"):
        strategies._jeffreys_posterior(sk.Tweedie32(), 0, 0.0)


def mp_gaussian_log_jeffreys(sigma2, n):
    """log of the integral of exp(-n D(x-bar || mu)) / sigma over the line, by
    mpmath quadrature, taken in the offset d = mu - x-bar, where
    D(x-bar || mu) = d^2 / (2 sigma2) whatever x-bar: a bump sigma / sqrt(n)
    wide at d = 0."""
    with mpmath.workdps(40):
        sigma2, n = mpmath.mpf(sigma2), mpmath.mpf(n)
        width = mpmath.sqrt(sigma2 / n)
        points = [-mpmath.inf] + [z * width for z in (-8, -2, 0, 2, 8)] + [mpmath.inf]
        return mpmath.log(mpmath.quad(lambda d: mpmath.exp(-n * d * d / (2 * sigma2)), points) / mpmath.sqrt(sigma2))


@pytest.mark.parametrize("sigma2", [1e-3, 1.0, 4.0])
@pytest.mark.parametrize("n", [1, 2, 6, 7, 100, 10**6, 10**16])
def test_gaussian_jeffreys_normalizer_matches_mpmath(n, sigma2):
    """log(2 pi / n) / 2 for every sigma2 and x-bar, against the integral."""
    want = mp_gaussian_log_jeffreys(sigma2, n)
    family = sk.GaussianLocation(sigma2)
    for mean in (0.0, 1e-300, -1e-300, 1.0, -1.0, 1e20, -1e20, 1e300, -1e300):
        got = family._log_jeffreys_normalizer(n, mean)
        assert abs(float(got - want)) <= 1e-13 * abs(float(want)), mean


# The Bayes values of every family and domain whose Jeffreys normalizer is an
# integral, as float.hex: the Bayes predictive's log normalizer and log
# density at values[t] after values[:t] for t = 1, 2, 3, then the log joint
# of values[1:] after values[0].  Recorded at commit a326dfd, before any
# closed form, so they show those paths untouched; tweedie-restricted at
# f299fe0, the commit before Tweedie's closed form.  The joints of gamma0.5,
# gamma2-restricted, levy and poisson-restricted moved 1 ulp when the joint's
# numerator became the two-ends sup-likelihood ratio, and are pinned there
# (test_gamma_bayes_joints_match_mpmath checks them).  The full-domain Tweedie
# and Gaussian, whose normalizers are now closed, are checked against mpmath
# instead (test_tweedie_bayes_values_match_mpmath,
# test_gaussian_bayes_values_match_mpmath).
BAYES_QUADRATURE_CORPUS = {
    "gaussian-restricted": (
        sk.GaussianLocation(1.0, mean_domain=(0.0, 1.0)),
        (0.3, 1.1, -0.7, 2.6),
        (
            ("-0x1.e6549ea5f1ae5p-5", "-0x1.224a57854830fp+0"),
            ("-0x1.d47aba7f59fbcp-4", "-0x1.a8d33c1a7d183p+0"),
            ("-0x1.9cd3f859f8d89p-3", "-0x1.8fe2b81e4760bp+1"),
        ),
        "-0x1.7ab8c0f71502ap+2",
    ),
    "gamma0.5": (
        sk.GammaShape(0.5),
        (0.3, 1.1, 2.6, 0.7),
        (
            ("0x1.128682473d0dep+0", "-0x1.10bf7bcaa9254p+1"),
            ("0x1.4e8de8082e30ap-1", "-0x1.74f9c3b753638p+1"),
            ("0x1.b2a21b1c1313fp-2", "-0x1.49f73b5c5747bp+0"),
        ),
        "-0x1.955a6e9814164p+2",
    ),
    "gamma2": (
        sk.GammaShape(2.0),
        (0.3, 1.1, 2.6, 0.7),
        (
            ("0x1.eba9b8188a919p-1", "-0x1.dde44e0d09e62p+0"),
            ("0x1.2fb217bff8d84p-1", "-0x1.82a41e5b66a3dp+1"),
            ("0x1.88b674f4ed64fp-2", "-0x1.5d0cec97067d8p-1"),
        ),
        "-0x1.646cc043d69b2p+2",
    ),
    "gamma2-restricted": (
        sk.GammaShape(2.0, mean_domain=(2.0, 5.0)),
        (3.0, 1.1, 6.0, 2.6),
        (
            ("0x1.87c06f950dce8p-3", "-0x1.7b24083f5cfd2p+0"),
            ("-0x1.8e253fdd72c2fp-4", "-0x1.8b4beec9069d7p+1"),
            ("0x1.8eaf3624fe18dp-5", "-0x1.a8aeac7e17fcap+0"),
        ),
        "-0x1.8e9aa493e08d4p+2",
    ),
    "tweedie-restricted": (
        sk.Tweedie32(mean_domain=(1.0, 3.0)),
        (1.2, 0.0, 9.0, 0.7),
        (
            ("-0x1.70650f56fed48p-3", "-0x1.505db89445b89p+0"),
            ("-0x1.f05557ac0bb8ep-2", "-0x1.431b8bb362c19p+2"),
            ("-0x1.54fbbc3aa9d00p-1", "-0x1.9ac927335d460p+0"),
        ),
        "-0x1.fde543a54b814p+2",
    ),
    "levy": (
        LEVY,
        (0.3, 1.1, 2.6, 0.7),
        (
            ("0x1.128682473d0dep+0", "-0x1.10bf7bcaa9254p+1"),
            ("0x1.4e8de8082e30ap-1", "-0x1.7d54f6ce96c2cp+1"),
            ("0x1.b2a21b1c13139p-2", "-0x1.387d7fa58bde1p+0"),
        ),
        "-0x1.9529993602eb8p+2",
    ),
    "poisson-restricted": (
        sk.Poisson(mean_domain=(0.5, 20.0)),
        (2.0, 0.0, 3.0, 1.0),
        (
            ("0x1.b870c8bf10a56p-1", "-0x1.dbb5a1170e70dp+0"),
            ("0x1.8d9bcce076035p-2", "-0x1.230fd07fd91b5p+1"),
            ("0x1.6872eadb8876fp-2", "-0x1.436975651124fp+0"),
        ),
        "-0x1.594faddef4731p+2",
    ),
    "bernoulli-restricted": (
        sk.Bernoulli(mean_domain=(0.2, 0.8)),
        (1.0, 0.0, 1.0, 1.0),
        (
            ("-0x1.bdd331c30d680p-3", "-0x1.a874656eb0caap-1"),
            ("0x1.dcfa770b45862p-4", "-0x1.62e42fefa39efp-1"),
            ("-0x1.b5db2cbe845fdp-5", "-0x1.2bf23d36ef08ap-1"),
        ),
        "-0x1.0dd2b4a550dc8p+1",
    ),
}


@pytest.mark.parametrize("name", BAYES_QUADRATURE_CORPUS)
def test_integral_bayes_values_are_bit_identical(name):
    family, values, steps, joint = BAYES_QUADRATURE_CORPUS[name]
    for t, (log_normalizer, log_density) in enumerate(steps, 1):
        pred = sk.bayes_jeffreys_predictive(family, values[:t])
        assert (pred.log_normalizer.hex(), pred.log_density(values[t]).hex()) == (log_normalizer, log_density), t
    assert strategies._log_joint(family, "bayes", ObservationSequence(values, 1)).hex() == joint


def mp_gamma_log_predictive(shape, history, y):
    """The Jeffreys one-step log density of Gamma with this shape after the
    history: the rate posterior is Gamma(n shape, sum x), so the predictive is
    y^(a-1) / Gamma(a) * S^(n a) Gamma((n+1) a) / (Gamma(n a) (S + y)^((n+1) a))."""
    with mpmath.workdps(50):
        a, n = mpmath.mpf(shape), len(history)
        s, y = mpmath.fsum(mpmath.mpf(v) for v in history), mpmath.mpf(y)
        return (
            (a - 1) * mpmath.log(y)
            - mpmath.loggamma(a)
            + n * a * mpmath.log(s)
            - mpmath.loggamma(n * a)
            + mpmath.loggamma((n + 1) * a)
            - (n + 1) * a * mpmath.log(s + y)
        )


@pytest.mark.parametrize("name,shape", [("gamma0.5", 0.5), ("gamma2", 2.0), ("levy", 0.5)])
def test_gamma_bayes_joints_match_mpmath(name, shape):
    """The corpus joints of the full-domain Gamma and Levy, the sum of the
    closed Jeffreys predictives of values[t] after values[:t], t = 1, 2, 3,
    within 1e-15 relative; Levy takes Gamma(1/2)'s on 1/x with the Jacobian
    -2 log y."""
    family, values, _, _ = BAYES_QUADRATURE_CORPUS[name]
    with mpmath.workdps(50):
        if family is LEVY:
            base = [1 / mpmath.mpf(v) for v in values]
            terms = (mp_gamma_log_predictive(shape, base[:t], base[t]) - 2 * mpmath.log(values[t]) for t in (1, 2, 3))
        else:
            terms = (mp_gamma_log_predictive(shape, values[:t], values[t]) for t in (1, 2, 3))
        want = float(mpmath.fsum(terms))
    got = strategies._log_joint(family, "bayes", ObservationSequence(values, 1))
    assert abs(got - want) <= 1e-15 * abs(want)


def test_tweedie_bayes_values_match_mpmath():
    """The corpus entry of the full-domain Tweedie, whose Jeffreys normalizer
    is now closed: the log normalizer, log(2 pi / t) / 2, and the log density
    at values[t] after values[:t] for t = 1, 2, 3, then the log joint of
    values[1:] after values[0], the sum of those log densities, each within
    1e-15 relative of mpmath."""
    family, values = sk.Tweedie32(), (1.2, 0.0, 2.6, 0.7)
    densities = []
    for t in (1, 2, 3):
        pred = sk.bayes_jeffreys_predictive(family, values[:t])
        with mpmath.workdps(50):
            want = float(mpmath.log(2 * mpmath.pi / t) / 2)
        assert abs(pred.log_normalizer - want) <= 1e-15 * abs(want), t
        densities.append(mp_tweedie_log_predictive(values[:t], values[t]))
        assert abs(pred.log_density(values[t]) - densities[-1]) <= 1e-15 * abs(densities[-1]), t
    want = math.fsum(densities)
    assert abs(strategies._log_joint(family, "bayes", ObservationSequence(values, 1)) - want) <= 1e-15 * abs(want)


def mp_gaussian_log_predictive(sigma2, history, y):
    """The Jeffreys (flat prior) one-step log density of the Gaussian with
    variance sigma2 after the history: N(x-bar, sigma2 (n + 1) / n) at y."""
    with mpmath.workdps(50):
        n, sigma2 = len(history), mpmath.mpf(sigma2)
        var = sigma2 * (n + 1) / n
        d = mpmath.mpf(y) - mpmath.fsum(mpmath.mpf(v) for v in history) / n
        return float(-mpmath.log(2 * mpmath.pi * var) / 2 - d * d / (2 * var))


def test_gaussian_bayes_values_match_mpmath():
    """The corpus entry of the full-domain Gaussian, whose Jeffreys normalizer
    is now closed: the log normalizer, log(2 pi / t) / 2, and the log density
    at values[t] after values[:t] for t = 1, 2, 3, then the log joint of
    values[1:] after values[0], the sum of those log densities, each within
    1e-15 relative of mpmath."""
    family, values = sk.GaussianLocation(1.0), (0.3, 1.1, -0.7, 2.6)
    densities = []
    for t in (1, 2, 3):
        pred = sk.bayes_jeffreys_predictive(family, values[:t])
        with mpmath.workdps(50):
            want = float(mpmath.log(2 * mpmath.pi / t) / 2)
        assert abs(pred.log_normalizer - want) <= 1e-15 * abs(want), t
        densities.append(mp_gaussian_log_predictive(1.0, values[:t], values[t]))
        assert abs(pred.log_density(values[t]) - densities[-1]) <= 1e-15 * abs(densities[-1]), t
    want = math.fsum(densities)
    assert abs(strategies._log_joint(family, "bayes", ObservationSequence(values, 1)) - want) <= 1e-15 * abs(want)


RESTRICTED_BAYES_CASES = [
    ("gamma_two", sk.GammaShape(2.0, mean_domain=(2.0, 5.0)), [(1.0,), (3.0, 4.5), (10.0,)], (0.1, 1.0, 3.0, 9.0, 20.0)),
    ("poisson", sk.Poisson(mean_domain=(1.0, 10.0)), [(0.0,), (3.0, 0.0, 7.0), (20.0,)], (0.0, 1.0, 3.0, 10.0, 25.0)),
    ("bernoulli", sk.Bernoulli(mean_domain=(0.2, 0.8)), [(), (1.0,), (0.0, 0.0, 1.0)], (0.0, 1.0)),
]


@pytest.mark.parametrize("name,family,histories,points", RESTRICTED_BAYES_CASES, ids=[c[0] for c in RESTRICTED_BAYES_CASES])
def test_restricted_bayes_matches_the_posterior_integral(name, family, histories, points):
    """The Jeffreys predictive from its definition, in the mean chart:
    the integral of p_mu(y) prod_i p_mu(x_i) / sigma(mu) over the mean domain,
    over that of prod_i p_mu(x_i) / sigma(mu), both scaled by the history's
    sup-likelihood."""
    lo, hi = family.mean_domain.bounds()
    for history in histories:
        pred = sk.bayes_jeffreys_predictive(family, history)
        sup = family.sup_log_likelihood(history)

        def posterior(mu):
            return math.exp(math.fsum(family.log_density_mean(mu, x) for x in history) - sup) / family.sigma(mu)

        def integral(f):
            return quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]

        norm = integral(posterior)
        for y in points:
            want = integral(lambda mu: math.exp(family.log_density_mean(mu, y)) * posterior(mu)) / norm
            assert pred.density(y) == pytest.approx(want, rel=1e-9), (history, y)


# ---- equivalence and non-equivalence ------------------------------------------


EQUIVALENCE_CASES = [
    ("gaussian", sk.GaussianLocation(1.0), [(0.5,), (0.5, -1.0), (2.0, 0.3, -0.7), (0.1, 1.2, -0.4, 0.9)], (-1.5, 0.0, 1.0, 2.5)),
    ("gamma_half", sk.GammaShape(0.5), [(1.0,), (0.5, 2.0), (1.0, 3.0, 0.4), (0.0, 1.5)], (0.3, 1.0, 2.5)),
    ("gamma_one", sk.GammaShape(1.0), [(1.0,), (0.5, 2.0), (1.0, 3.0, 0.4)], (0.3, 1.0, 2.5)),
    ("gamma_two", sk.GammaShape(2.0), [(1.0,), (0.5, 2.0), (1.0, 3.0, 0.4), (0.0, 1.5)], (0.3, 1.0, 2.5)),
    ("tweedie", sk.Tweedie32(), [(1.0,), (0.5, 2.0), (1.0, 3.0, 0.4), (0.7, 0.0, 1.1, 2.0)], (0.0, 0.3, 1.0, 2.5)),
]


@pytest.mark.parametrize("name,family,histories,points", EQUIVALENCE_CASES, ids=[c[0] for c in EQUIVALENCE_CASES])
def test_snml_equals_bayes_on_exchangeable_families(name, family, histories, points):
    for history in histories:
        snml = sk.snml_predictive(family, history)
        bayes = sk.bayes_jeffreys_predictive(family, history)
        for y in points:
            a, b = snml.density(y), bayes.density(y)
            assert abs(a - b) <= 1e-6 * max(abs(a), abs(b))


def test_bernoulli_strategies_disagree():
    snml = sk.snml_predictive(sk.Bernoulli(), (1.0,)).density(1.0)
    bayes = sk.bayes_jeffreys_predictive(sk.Bernoulli(), (1.0,)).density(1.0)
    assert snml == pytest.approx(0.8, abs=1e-14)
    assert bayes == pytest.approx(0.75, rel=1e-10)


def test_poisson_strategies_disagree_by_over_one_percent():
    snml = sk.snml_predictive(sk.Poisson(), (1.0,)).density(0.0)
    bayes = sk.bayes_jeffreys_predictive(sk.Poisson(), (1.0,)).density(0.0)
    assert abs(snml - bayes) / max(snml, bayes) > 0.01


# ---- CNML and NML --------------------------------------------------------------


class TestCnml:
    def test_empty_continuation_is_one(self):
        seq = ObservationSequence((1.0, 2.0), m=2)
        assert sk.cnml_joint(sk.GammaShape(1.0), seq) == 1.0

    def test_bernoulli_full_block(self):
        assert sk.cnml_joint(sk.Bernoulli(), ObservationSequence((1.0, 1.0))) == Fraction(2, 5)

    def test_gaussian_one_step_value(self):
        seq = ObservationSequence((0.0, 0.0), m=1)
        assert sk.cnml_joint(sk.GaussianLocation(1.0), seq) == pytest.approx(
            1.0 / math.sqrt(4 * math.pi), rel=1e-10
        )

    @pytest.mark.parametrize(
        "name,family,history,y",
        [
            ("gaussian", sk.GaussianLocation(1.0), (0.5, -1.0), 0.7),
            ("gamma", sk.GammaShape(0.5), (1.0,), 0.4),
            ("tweedie", sk.Tweedie32(), (0.5, 2.0), 1.3),
            ("bernoulli", sk.Bernoulli(), (1.0, 0.0), 1.0),
            ("poisson", sk.Poisson(), (2.0, 1.0), 3.0),
            # both sup-likelihoods are 0 here; the ratio is 40/729
            ("gamma-zero-in-prefix", sk.GammaShape(2.0), (1.0, 0.0), 2.0),
            # transformed families take the base family's joint times the Jacobian
            ("levy", LEVY, (1.0, 0.3), 2.0),
            ("reflected-gamma", REFLECTED_GAMMA, (-1.0,), -2.0),
            ("poisson-far-from-zero", sk.Poisson(), (2000.0,), 2010.0),
        ],
        ids=["gaussian", "gamma", "tweedie", "bernoulli", "poisson", "gamma-zero-in-prefix", "levy",
             "reflected-gamma", "poisson-far-from-zero"],
    )
    def test_one_step_reduces_to_snml(self, name, family, history, y):
        seq = ObservationSequence(history + (y,), m=len(history))
        joint = float(sk.cnml_joint(family, seq))
        assert joint == pytest.approx(sk.snml_predictive(family, history).density(y), rel=1e-8)


# ---- CNML at any horizon: closed forms and exact sums ----------------------------


def gaussian_cnml(sigma2, values, m):
    """sup-likelihood ratio of the continuation over sqrt((m + k) / m), the
    Gaussian conditional Shtarkov integral over k free observations."""
    k = len(values) - m

    def rss(v):
        center = sum(v) / len(v)
        return sum((x - center) ** 2 for x in v)

    log_ratio = -0.5 * k * math.log(2 * math.pi * sigma2) - (rss(values) - rss(values[:m])) / (2 * sigma2)
    return math.exp(log_ratio) / math.sqrt((m + k) / m)


def gamma_log_cnml(a, values, m):
    """Gamma(a) CNML over k free observations after m with sum S, total T:
    prod y^(a-1) T^(-N a) S^(m a) Gamma(N a) / (Gamma(a)^k Gamma(m a)), from the
    Dirichlet integral over the simplex and a Beta integral over the sum."""
    n, k = len(values), len(values) - m
    s, t = sum(values[:m]), sum(values)
    return (
        (a - 1) * sum(math.log(y) for y in values[m:])
        - n * a * math.log(t)
        + m * a * math.log(s)
        + lgamma(n * a)
        - k * lgamma(a)
        - lgamma(m * a)
    )


def poisson_log_cnml_mpmath(values, m):
    """Sums over the sum t of the k free counts: the k^t / t! multinomial
    weight collects the 1/y! of every continuation with that sum."""
    mpmath.mp.dps = 40
    n, k = len(values), len(values) - m
    s = sum(values[:m])

    def sup_exponent(total, count):
        return 0 if total == 0 else total * mpmath.log(mpmath.mpf(total) / count) - total

    numerator = sup_exponent(sum(values), n) - sum(mpmath.loggamma(v + 1) for v in values[m:])
    terms = [
        mpmath.exp(sup_exponent(s + t, n) + t * mpmath.log(k) - mpmath.loggamma(t + 1)) for t in range(400)
    ]
    return float(numerator - mpmath.log(mpmath.fsum(terms)))


def bernoulli_sup(values):
    ones, n = values.count(1.0), len(values)
    return Fraction(ones, n) ** ones * Fraction(n - ones, n) ** (n - ones) if n else Fraction(1)


def bernoulli_enumerated_shtarkov(history, k):
    return sum(bernoulli_sup(history + bits) for bits in itertools.product((0.0, 1.0), repeat=k))


WAVE = tuple(math.sin(1.7 * i) for i in range(23))


class TestCnmlHorizons:
    @pytest.mark.parametrize("sigma2", [1.0, 4.0])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("k", [6, 20])
    def test_gaussian_closed_form(self, sigma2, m, k):
        values = WAVE[: m + k]
        joint = sk.cnml_joint(sk.GaussianLocation(sigma2), ObservationSequence(values, m))
        assert joint == pytest.approx(gaussian_cnml(sigma2, values, m), rel=1e-10)

    @pytest.mark.parametrize("m", [1, 3])
    def test_poisson_mpmath_sum_at_ten(self, m):
        values = (2.0, 0.0, 5.0, 1.0, 3.0, 0.0, 4.0, 2.0, 1.0, 6.0, 2.0, 3.0, 1.0)[: m + 10]
        joint = sk.cnml_joint(sk.Poisson(), ObservationSequence(values, m))
        assert math.log(joint) == pytest.approx(poisson_log_cnml_mpmath(values, m), abs=1e-12)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("k", [2, 3, 6, 10])
    def test_gamma_beta_closed_form(self, a, m, k):
        values = tuple(0.4 + 0.37 * ((7 * i) % 5) for i in range(m + k))
        joint = sk.cnml_joint(sk.GammaShape(a), ObservationSequence(values, m))
        assert joint == pytest.approx(math.exp(gamma_log_cnml(a, values, m)), rel=1e-10)

    @pytest.mark.parametrize("history", [(), (1.0,), (0.0, 0.0, 1.0)])
    @pytest.mark.parametrize("k", range(1, 13))
    def test_bernoulli_fractions_equal_the_enumeration(self, history, k):
        continuation = tuple(float(i % 3 == 0) for i in range(k))
        seq = ObservationSequence(history + continuation, len(history))
        want = bernoulli_sup(seq.values) / bernoulli_enumerated_shtarkov(history, k)
        assert sk.cnml_joint(sk.Bernoulli(), seq) == want
        if not history:
            assert sk.nml_joint(sk.Bernoulli(), seq) == want
            assert sk.shtarkov_sum(sk.Bernoulli(), k) == bernoulli_enumerated_shtarkov((), k)

    @pytest.mark.parametrize("history", [(), (1.0,), (1.0, 1.0, 0.0)])
    def test_restricted_bernoulli_float_enumeration(self, history):
        family = sk.Bernoulli(mean_domain=(0.2, 0.8))

        def sup(values):
            ones, n = sum(values), len(values)
            mu = min(max(ones / n, 0.2), 0.8)
            return math.exp(ones * math.log(mu) + (n - ones) * math.log(1.0 - mu))

        continuation = (1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0)
        total = math.fsum(sup(history + bits) for bits in itertools.product((0.0, 1.0), repeat=8))
        joint = sk.cnml_joint(family, ObservationSequence(history + continuation, len(history)))
        assert joint == pytest.approx(sup(history + continuation) / total, rel=1e-12)

    @pytest.mark.parametrize(
        "family,values,m",
        [
            (sk.GaussianLocation(1.0), WAVE[:21], 1),
            (sk.GammaShape(0.5), (1.0, 0.3, 2.0, 0.7, 1.1, 4.0, 0.2, 0.9, 1.5, 0.6, 2.2), 1),
            (sk.GammaShape(1.0, mean_domain=(0.5, 3.0)), (1.0, 2.0, 0.5, 0.1), 1),
            (sk.Tweedie32(), (1.0, 0.0, 2.5, 0.0, 0.7), 2),
            (sk.Poisson(), (3.0, 1.0, 0.0, 4.0, 2.0, 2.0, 1.0, 5.0, 0.0, 3.0, 1.0), 1),
            (LEVY, (1.0, 2.0, 0.5, 4.0), 1),
        ],
        ids=["gaussian-20", "gamma-10", "restricted-gamma-3", "tweedie-3", "poisson-10", "levy-3"],
    )
    def test_one_integral_at_any_horizon(self, family, values, m, monkeypatch):
        calls = []

        def counted(name):
            original = getattr(quadrature, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        for name in ("integrate", "sum_counting"):
            monkeypatch.setattr(quadrature, name, counted(name))
        assert sk.cnml_joint(family, ObservationSequence(values, m)) > 0.0
        assert len(calls) == 1


# ---- CNML at horizon 2 against nested quadrature from the definition ------------


def _line_integral(f, points, lo, hi):
    edges = [lo, *sorted(p for p in points if lo < p < hi), hi]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        value, error = quad(f, a, b, epsabs=1e-300, epsrel=1e-11, limit=200, full_output=1)[:2]
        assert error <= 1e-9 * abs(value) + 1e-300
        total += value
    return total


def horizon_two_cnml(log_suplik, prefix, continuation, window, kinks=(), atom=False):
    """CNML joint of two free observations: their sup-likelihood ratio over the
    double integral of it, each integral taken by scipy quad.  A positive
    support is integrated in u = log y over the window, beyond which these
    integrands hold less than 1e-13 of their mass; window None is the real
    line.  kinks are values c of y1 + y2 where the clipped maximum-likelihood
    mean meets a bound; atom adds a unit point mass at 0 for either
    observation."""
    base = log_suplik(prefix)

    def weight(y1, y2):
        return math.exp(log_suplik(prefix + (y1, y2)) - base)

    if window:

        def along(g, points):
            logs = [0.0] + [math.log(p) for p in points if p > 0]
            return _line_integral(lambda u: g(math.exp(u)) * math.exp(u), logs, *window)

    else:

        def along(g, points):
            return _line_integral(g, points, -math.inf, math.inf)

    def inner(y1):
        return along(lambda y2: weight(y1, y2), [c - y1 for c in kinks])

    total = along(inner, kinks)
    if atom:
        total += 2.0 * inner(0.0) + weight(0.0, 0.0)
    return math.exp(log_suplik(prefix + continuation) - base) / total


def gaussian_log_suplik(values):
    center = sum(values) / len(values)
    return -0.5 * len(values) * math.log(2 * math.pi) - 0.5 * sum((x - center) ** 2 for x in values)


def gamma_log_suplik(a, lo=0.0, hi=math.inf):
    def log_suplik(values):
        mu = min(max(sum(values) / len(values), lo), hi)
        return sum((a - 1) * math.log(x) - lgamma(a) + a * math.log(a / mu) - a * x / mu for x in values)

    return log_suplik


def tweedie_log_suplik(values):
    """log of prod h(z) exp(-sqrt(mu) - z / sqrt(mu)) at mu = the mean, with
    h(z) = I_1(2 sqrt z) / sqrt z on z > 0 and h(0) = 1 for the atom."""
    log_h = sum(
        0.0 if z == 0.0 else math.log(ive(1, 2.0 * math.sqrt(z))) + 2.0 * math.sqrt(z) - 0.5 * math.log(z)
        for z in values
    )
    return log_h - 2.0 * len(values) * math.sqrt(sum(values) / len(values))


def levy_log_suplik(values):
    return gamma_log_suplik(0.5)(tuple(1.0 / y for y in values)) - 2.0 * sum(math.log(y) for y in values)


@pytest.mark.parametrize(
    "family,log_suplik,prefix,continuation,window,kinks,atom",
    [
        (sk.GaussianLocation(1.0), gaussian_log_suplik, (0.5,), (1.2, -0.4), None, (), False),
        (sk.GammaShape(2.0), gamma_log_suplik(2.0), (1.0,), (2.0, 0.5), (-40.0, 20.0), (), False),
        (sk.Tweedie32(), tweedie_log_suplik, (1.0, 2.0), (0.5, 1.3), (-40.0, 12.0), (), True),
        (sk.Tweedie32(), tweedie_log_suplik, (1.0, 2.0), (0.0, 1.3), (-40.0, 12.0), (), True),
        # the clipped mean of (1, y1, y2) meets 0.5 at y1 + y2 = 0.5 and 3 at y1 + y2 = 8
        (sk.GammaShape(1.0, mean_domain=(0.5, 3.0)), gamma_log_suplik(1.0, 0.5, 3.0), (1.0,), (2.0, 0.5),
         (-40.0, 20.0), (0.5, 8.0), False),
        # both y -> 0 together leaves mass ~ e^(u/2): 2e-9 of it lies below u = -40
        (LEVY, levy_log_suplik, (1.0,), (2.0, 0.5), (-80.0, 80.0), (), False),
    ],
    ids=["gaussian", "gamma2", "tweedie", "tweedie-zero", "restricted-gamma", "levy"],
)
def test_horizon_two_matches_nested_quadrature(family, log_suplik, prefix, continuation, window, kinks, atom):
    want = horizon_two_cnml(log_suplik, prefix, continuation, window, kinks, atom)
    joint = sk.cnml_joint(family, ObservationSequence(prefix + continuation, len(prefix)))
    assert joint == pytest.approx(want, rel=1e-9)


def test_poisson_horizon_two_matches_the_double_sum():
    def log_suplik(values):
        mean = sum(values) / len(values)
        return sum(x * math.log(mean) - mean - lgamma(x + 1.0) if mean else 0.0 for x in values)

    prefix, base = (2.0,), log_suplik((2.0,))
    total = math.fsum(
        math.exp(log_suplik(prefix + (float(y1), float(y2))) - base) for y1 in range(80) for y2 in range(80)
    )
    want = math.exp(log_suplik((2.0, 1.0, 3.0)) - base) / total
    assert sk.cnml_joint(sk.Poisson(), ObservationSequence((2.0, 1.0, 3.0), 1)) == pytest.approx(want, rel=1e-9)


class TestNml:
    def test_bernoulli_values(self):
        assert sk.nml_joint(sk.Bernoulli(), ObservationSequence((1.0, 0.0))) == Fraction(1, 10)
        assert sk.nml_joint(sk.Bernoulli(), ObservationSequence((1.0,))) == Fraction(1, 2)

    def test_gaussian_normalizer_diverges(self):
        with pytest.raises(DivergentNormalizer):
            sk.nml_joint(sk.GaussianLocation(1.0), ObservationSequence((0.0, 1.0)))

    def test_requires_empty_conditioning(self):
        with pytest.raises(ValueError):
            sk.nml_joint(sk.Bernoulli(), ObservationSequence((1.0, 0.0), m=1))


class TestShtarkov:
    def test_small_sums(self):
        ber = sk.Bernoulli()
        assert sk.shtarkov_sum(ber, 1) == Fraction(2)
        assert sk.shtarkov_sum(ber, 2) == Fraction(5, 2)

    def test_refused_outside_bernoulli(self):
        with pytest.raises(DivergentNormalizer):
            sk.shtarkov_sum(sk.GaussianLocation(1.0), 2)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_transformed_bernoulli_has_the_same_sum(self, n):
        """A counting support has no Jacobian, so the image of Bernoulli
        under y = 2x + 1 has Bernoulli's sum, as nml_joint already divides by."""
        assert sk.shtarkov_sum(AFFINE_BERNOULLI, n) == sk.shtarkov_sum(sk.Bernoulli(), n)


# ---- joints --------------------------------------------------------------------


class TestStrategyJoint:
    def test_bernoulli_exact_rationals(self):
        ber = sk.Bernoulli()
        assert sk.strategy_joint(ber, "snml", ObservationSequence((1.0, 1.0, 0.0))) == Fraction(8, 155)
        assert sk.strategy_joint(ber, "snml", ObservationSequence((1.0, 0.0, 1.0))) == Fraction(1, 20)

    def test_gaussian_permuted_continuations_agree(self):
        fam = sk.GaussianLocation(1.0)
        j1 = sk.strategy_joint(fam, "snml", ObservationSequence((0.0, 0.0, 2.0), m=1))
        j2 = sk.strategy_joint(fam, "snml", ObservationSequence((0.0, 2.0, 0.0), m=1))
        want = (1.0 / (2 * math.sqrt(math.pi))) * math.exp(-4.0 / 3.0) / math.sqrt(3 * math.pi)
        assert j1 == pytest.approx(want, rel=1e-10)
        assert j1 == pytest.approx(j2, rel=1e-12)

    def test_matches_product_of_one_steps(self):
        fam = sk.GammaShape(1.0)
        seq = ObservationSequence((1.0, 0.5, 2.0), m=1)
        joint = sk.strategy_joint(fam, "bayes", seq)
        step1 = sk.bayes_jeffreys_predictive(fam, (1.0,)).density(0.5)
        step2 = sk.bayes_jeffreys_predictive(fam, (1.0, 0.5)).density(2.0)
        assert joint == pytest.approx(step1 * step2, rel=1e-12)

    @pytest.mark.parametrize("strategy", ["snml", "bayes", "cnml"])
    def test_overflowing_joint_is_inf(self, strategy):
        """Gamma(1) after 1e-8, 44 more copies: the joint density is about
        e^764.5, past the float range, and exp raised OverflowError."""
        seq = ObservationSequence((1e-8,) * 45, m=1)
        assert sk.strategy_joint(sk.GammaShape(1.0), strategy, seq) == math.inf

    @pytest.mark.parametrize(
        "family,history,continuation",
        [
            (sk.Poisson(), (1.0,), (0.0, 3.0, 7.0)),
            (sk.Bernoulli(), (1.0,), (0.0, 1.0, 1.0, 0.0)),
            (sk.GammaShape(1.0), (1.0,), (0.5, 2.0, 3.5)),
            (sk.Tweedie32(), (1.0,), (0.0, 2.0, 0.7)),
        ],
        ids=["poisson", "bernoulli", "gamma1", "tweedie"],
    )
    def test_bayes_joints_of_permutations_agree(self, family, history, continuation):
        """A Bayes mixture is exchangeable for every family, unlike SNML."""
        joints = [
            sk.strategy_joint(family, "bayes", ObservationSequence(history + p, len(history)))
            for p in sorted(set(itertools.permutations(continuation)))
        ]
        for joint in joints[1:]:
            assert joint == pytest.approx(joints[0], rel=1e-12)

    def test_strategy_names(self):
        assert set(STRATEGIES) == {"snml", "bayes", "cnml", "nml"}
        with pytest.raises(ValueError):
            sk.strategy_joint(sk.Bernoulli(), "mdl", ObservationSequence((1.0,)))


def test_bayes_joint_takes_two_concentration_integrals_at_any_horizon(monkeypatch):
    """The one-step ratios C(t, x-bar_t) / C(t - 1, x-bar_{t-1}) telescope to
    C(m, x-bar_m) / C(n, x-bar_n).  The product of the k one-step predictives
    took k + 1 integrals.  On a restricted mean domain, where C is not in
    closed form."""
    calls = []
    integral = strategies._concentration_integral

    def counted(*args):
        calls.append(args)
        return integral(*args)

    monkeypatch.setattr(strategies, "_concentration_integral", counted)
    cache = strategies._jeffreys_posterior
    values = (1.0, 2.0, 5.0, 3.0, 0.0, 4.0)
    for k in (1, 2, 5):
        cache.cache_clear()
        calls.clear()
        sk.strategy_joint(sk.Poisson(mean_domain=(0.5, 20.0)), "bayes", ObservationSequence(values[: 1 + k], m=1))
        assert cache.cache_info().misses == len(calls) == 2, k


AFFINE_TWEEDIE = sk.transform_family(sk.Tweedie32(), lambda x: 3.0 * x + 1.0, lambda y: (y - 1.0) / 3.0, lambda y: 1.0 / 3.0)
AFFINE_GAUSSIAN = sk.transform_family(
    sk.GaussianLocation(1.0), lambda x: 3.0 * x + 1.0, lambda y: (y - 1.0) / 3.0, lambda y: 1.0 / 3.0
)


@pytest.mark.parametrize(
    "family,values",
    [
        (sk.Poisson(), (1.0, 2.0, 5.0, 3.0, 0.0, 4.0)),
        (sk.Bernoulli(), (1.0, 0.0, 1.0, 1.0, 0.0, 0.0)),
        (sk.Tweedie32(), (1.2, 0.0, 2.6, 0.7, 3.1, 0.0)),
        (AFFINE_TWEEDIE, (4.6, 1.0, 8.8, 3.1, 10.3, 1.0)),
        (sk.GaussianLocation(1.0), (0.3, 1.1, -0.7, 2.6, 0.4, -1.2)),
        (sk.GaussianLocation(4.0), (0.3, 1.1, -0.7, 2.6, 0.4, -1.2)),
        (AFFINE_GAUSSIAN, (1.9, 4.3, -1.1, 8.8, 2.2, -2.6)),
    ],
    ids=["poisson", "bernoulli", "tweedie", "affine-tweedie", "gaussian", "gaussian-4", "affine-gaussian"],
)
def test_full_domain_closed_form_bayes_takes_no_integral(family, values, integrand_calls):
    """Their Jeffreys normalizers are in closed form, and Bernoulli's joints
    exact; a transformed family takes its base family's."""
    pred = sk.bayes_jeffreys_predictive(family, values[:3])
    pred.log_density(values[3])
    pred.log_density(values[4])
    sk.strategy_joint(family, "bayes", ObservationSequence(values, m=1))
    sk.conditional_regret(family, "bayes", ObservationSequence(values, m=2))
    assert integrand_calls.count == 0


@pytest.mark.parametrize(
    "family,values",
    [
        (sk.Bernoulli(), (1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0)),
        (sk.Poisson(), (1.0, 2.0, 5.0, 3.0, 0.0, 4.0, 2.0, 2.0, 7.0, 1.0, 0.0, 3.0)),
        (sk.GaussianLocation(1.0), tuple(math.sin(1.7 * i) for i in range(12))),
        (sk.Tweedie32(), (1.2, 0.0, 2.6, 0.7, 3.1, 0.0, 0.4, 5.5, 0.0, 1.9, 0.8, 2.2)),
        (AFFINE_GAUSSIAN, tuple(3.0 * math.sin(1.7 * i) + 1.0 for i in range(12))),
    ],
    ids=["bernoulli", "poisson", "gaussian", "tweedie", "affine-gaussian"],
)
def test_closed_form_bayes_joint_builds_no_gain(family, values, monkeypatch):
    """Its numerator is the sup-likelihood ratio of the two ends and its
    normalizer is closed, so no SNML gain is built; chained gains built one
    per continuation value."""
    calls = []
    gain = strategies._snml_log_gain

    def counted(*args):
        calls.append(args)
        return gain(*args)

    monkeypatch.setattr(strategies, "_snml_log_gain", counted)
    strategies._log_joint(family, "bayes", ObservationSequence(values, m=1))
    assert calls == []


POSITIVE = hs.floats(0.01, 100.0)
ORDER_FAMILIES = {
    "gaussian": (sk.GaussianLocation(1.0), hs.floats(-100.0, 100.0)),
    "gamma0.5": (sk.GammaShape(0.5), POSITIVE),
    "gamma1": (sk.GammaShape(1.0), POSITIVE),
    "gamma2": (sk.GammaShape(2.0), POSITIVE),
    "gamma2-restricted": (sk.GammaShape(2.0, mean_domain=(0.5, 3.0)), POSITIVE),
    "tweedie": (sk.Tweedie32(), hs.one_of(hs.just(0.0), POSITIVE)),
    "poisson": (sk.Poisson(), hs.integers(0, 50).map(float)),
    "bernoulli": (sk.Bernoulli(), hs.sampled_from((0.0, 1.0))),
    "bernoulli-restricted": (sk.Bernoulli(mean_domain=(0.2, 0.8)), hs.sampled_from((0.0, 1.0))),
    "levy": (LEVY, POSITIVE),
}


@pytest.mark.parametrize("name", ORDER_FAMILIES)
@settings(derandomize=True, max_examples=8, deadline=None)
@given(data=hs.data())
def test_bayes_and_cnml_joints_ignore_continuation_order(name, data):
    """Bayes and CNML are exchangeable: their log joints and regrets are the
    same float for every ordering of the continuation.  Gains chained in
    ordering order moved their last bits."""
    family, element = ORDER_FAMILIES[name]
    history = (data.draw(element),)
    continuation = tuple(data.draw(hs.lists(element, min_size=2, max_size=4)))
    seqs = [ObservationSequence(history + p, 1) for p in set(itertools.permutations(continuation))]
    for strategy in ("bayes", "cnml"):
        joints = {strategies._log_joint(family, strategy, s).hex() for s in seqs}
        regrets = {sk.conditional_regret(family, strategy, s).regret.hex() for s in seqs}
        assert len(joints) == len(regrets) == 1, (strategy, joints, regrets)


@pytest.mark.parametrize(
    "call",
    [
        lambda: sk.bayes_jeffreys_predictive(sk.Tweedie32(mean_domain=(1.0, 3.0)), (1.2,)),
        lambda: sk.snml_predictive(sk.Tweedie32(), (1.2,)),
        lambda: sk.strategy_joint(sk.Tweedie32(), "cnml", ObservationSequence((1.2, 0.0, 2.6), 1)),
        lambda: sk.condition_integral(sk.Tweedie32(), 1.2, 2),
        lambda: sk.check_constancy(sk.Tweedie32(), 2, (0.5, 2.0)),
        lambda: sk.laplace_asymptotics_check(sk.Tweedie32(), 1.0, n_list=(2, 5)),
    ],
    ids=["restricted-bayes", "snml", "cnml", "condition-integral", "constancy", "laplace"],
)
def test_tweedie_keeps_the_integral_off_the_full_domain_bayes(call, integrand_calls):
    """Restricted domains, the Shtarkov normalizers and the analyses, whose
    numerical C the closed form checks, still integrate."""
    call()
    assert integrand_calls.count > 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: sk.bayes_jeffreys_predictive(sk.GaussianLocation(1.0, mean_domain=(0.0, 1.0)), (0.3,)),
        lambda: sk.snml_predictive(sk.GaussianLocation(1.0), (0.3,)),
        lambda: sk.strategy_joint(sk.GaussianLocation(1.0), "cnml", ObservationSequence((0.3, 1.1, -0.7), 1)),
        lambda: sk.condition_integral(sk.GaussianLocation(1.0), 0.3, 2),
        lambda: sk.check_constancy(sk.GaussianLocation(1.0), 2, (-1.0, 2.0)),
        lambda: sk.laplace_asymptotics_check(sk.GaussianLocation(1.0), 0.0, n_list=(2, 5)),
    ],
    ids=["restricted-bayes", "snml", "cnml", "condition-integral", "constancy", "laplace"],
)
def test_gaussian_keeps_the_integral_off_the_full_domain_bayes(call, integrand_calls):
    """Restricted domains, the Shtarkov normalizers and the analyses, whose
    numerical C the closed form checks, still integrate."""
    call()
    assert integrand_calls.count > 0


JOINT_ORACLE_VALUES = {
    "gaussian": (0.3, 1.1, -0.7, 2.6),
    "gamma0.5": (0.3, 1.1, 2.6, 0.7),
    "gamma1": (0.3, 1.1, 2.6, 0.7),
    "gamma2": (0.3, 1.1, 2.6, 0.7),
    "tweedie": (1.2, 0.0, 2.6, 0.7),
    "poisson": (2.0, 0.0, 3.0, 1.0),
    "bernoulli": (1.0, 0.0, 1.0, 1.0),
    "levy": (0.3, 1.1, 2.6, 0.7),
    "gamma2-restricted": (3.0, 1.1, 6.0, 2.6),
}


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("maker", [sk.snml_predictive, sk.bayes_jeffreys_predictive], ids=["snml", "bayes"])
@pytest.mark.parametrize("name", JOINT_ORACLE_VALUES)
def test_joint_is_the_product_of_its_one_step_predictives(name, maker, k):
    """A joint chains the SNML gains and divides by its own normalizer; the
    product of the one-step densities is the sequential definition."""
    family = sk.GammaShape(2.0, mean_domain=(2.0, 5.0)) if name == "gamma2-restricted" else BENCHMARK_FAMILIES[name]
    values = JOINT_ORACLE_VALUES[name][: 1 + k]
    strategy = "snml" if maker is sk.snml_predictive else "bayes"
    want = sum(maker(family, values[:t]).log_density(values[t]) for t in range(1, 1 + k))
    assert strategies._log_joint(family, strategy, ObservationSequence(values, 1)) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("strategy", ["snml", "bayes", "cnml"])
def test_levy_joint_is_the_pulled_back_gamma_joint(strategy):
    """The Levy law is the reciprocal of Gamma(0.5): its joint is the Gamma
    one on the reciprocals times the Jacobian 1 / y^2 of each continuation
    value."""
    values = (0.3, 1.1, 2.6, 0.7)
    pulled = ObservationSequence(tuple(1.0 / v for v in values), 1)
    want = strategies._log_joint(sk.GammaShape(0.5), strategy, pulled) - 2.0 * sum(math.log(v) for v in values[1:])
    assert strategies._log_joint(LEVY, strategy, ObservationSequence(values, 1)) == pytest.approx(want, rel=1e-12)


AFFINE_BERNOULLI = sk.transform_family(sk.Bernoulli(), lambda x: 2.0 * x + 1.0, lambda y: (y - 1.0) / 2.0, lambda y: 0.5)
REFLECTED_LEVY = sk.transform_family(LEVY, lambda x: -x, lambda y: -y, lambda y: -1.0)


def test_affine_bernoulli_maps_its_support():
    assert AFFINE_BERNOULLI.finite_support == (1.0, 3.0)
    assert AFFINE_BERNOULLI.convex_core() == sk.Interval(1.0, 3.0, True, True)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_affine_bernoulli_joints_are_the_base_joints(m):
    """y = 2x + 1 of Bernoulli: a counting support has no Jacobian, so every
    joint is the exact Bernoulli Fraction on the pulled-back values."""
    for xs in itertools.product((0.0, 1.0), repeat=4):
        ys = tuple(2.0 * x + 1.0 for x in xs)
        for strategy in STRATEGIES if m == 0 else ("snml", "bayes", "cnml"):
            got = sk.strategy_joint(AFFINE_BERNOULLI, strategy, ObservationSequence(ys, m))
            want = sk.strategy_joint(sk.Bernoulli(), strategy, ObservationSequence(xs, m))
            assert got == want and type(got) is type(want), (strategy, xs)
            assert isinstance(got, Fraction)


@pytest.mark.parametrize("maker", [sk.snml_predictive, sk.bayes_jeffreys_predictive], ids=["snml", "bayes"])
def test_affine_bernoulli_predictives_are_the_base_predictives(maker):
    for k in range(4):
        for xs in itertools.product((0.0, 1.0), repeat=k):
            got = maker(AFFINE_BERNOULLI, tuple(2.0 * x + 1.0 for x in xs))
            want = maker(sk.Bernoulli(), xs)
            assert got.log_normalizer == want.log_normalizer
            assert [got.log_density(y) for y in (1.0, 3.0)] == [want.log_density(x) for x in (0.0, 1.0)]


def test_affine_bernoulli_exchangeability_is_the_base_report():
    """Exact joints give the exact spread 1/32 at m = 1, n = 3, and the
    increasing map keeps the lexicographically first witnesses."""
    got = sk.exchangeability_test(AFFINE_BERNOULLI, 1, 3, "all-discrete")
    want = sk.exchangeability_test(sk.Bernoulli(), 1, 3, "all-discrete")
    assert got.max_abs_deviation == want.max_abs_deviation == 1 / 32
    assert got.values == want.values
    assert got.grid == tuple(tuple(2.0 * x + 1.0 for x in cont) for cont in want.grid)
    mapped = {key: [2.0 * x + 1.0 for x in v] if isinstance(v, list) else v for key, v in want.details["witness"].items()}
    assert got.details["witness"] == mapped


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_affine_bernoulli_rejects_points_off_the_mapped_lattice(strategy):
    """2.0 pulls back to 0.5, which is no Bernoulli outcome."""
    with pytest.raises(sk.UnsupportedPoint):
        sk.strategy_joint(AFFINE_BERNOULLI, strategy, ObservationSequence((1.0, 2.0), 0 if strategy == "nml" else 1))


@pytest.mark.parametrize("maker", [sk.snml_predictive, sk.bayes_jeffreys_predictive], ids=["snml", "bayes"])
def test_affine_bernoulli_predictives_reject_points_off_the_mapped_lattice(maker):
    with pytest.raises(sk.UnsupportedPoint):
        maker(AFFINE_BERNOULLI, (2.0,))
    with pytest.raises(sk.UnsupportedPoint):
        maker(AFFINE_BERNOULLI, (3.0,)).log_density(2.0)


def mp_log_fraction(value):
    """log of a Fraction in mpmath at 40 digits: the logs of its numerator
    and denominator in floats differ from it by up to 1e-13 at n = 300."""
    with mpmath.workdps(40):
        return mpmath.log(value.numerator) - mpmath.log(value.denominator)


def assert_log_joint_is_the_log_of_the_fraction(family, strategy, seq):
    want = mp_log_fraction(sk.strategy_joint(family, strategy, seq))
    got = strategies._log_joint(family, strategy, seq)
    assert type(got) is float
    assert abs(got - want) <= 1e-12 * abs(want), (strategy, seq)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    bits=hs.integers(0, 120).flatmap(lambda n: hs.lists(hs.booleans(), min_size=n, max_size=n)),
    cut=hs.floats(0.0, 1.0),
    family=hs.sampled_from([sk.Bernoulli(), AFFINE_BERNOULLI]),
)
def test_bernoulli_log_joints_are_the_logs_of_the_fractions(bits, cut, family):
    """The float route of every strategy against the mpmath log of the exact
    Fraction, on Bernoulli and on its image under y = 2x + 1."""
    values = tuple(2.0 * b + 1.0 if family is AFFINE_BERNOULLI else float(b) for b in bits)
    m = int(cut * len(values))
    for strategy in STRATEGIES if m == 0 else ("snml", "bayes", "cnml"):
        assert_log_joint_is_the_log_of_the_fraction(family, strategy, ObservationSequence(values, m))


# 30% ones, spread evenly by the golden ratio
LONG_BITS = tuple(float((0.6180339887 * i) % 1.0 < 0.3) for i in range(3000))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_bernoulli_log_joint_at_three_hundred(strategy):
    assert_log_joint_is_the_log_of_the_fraction(sk.Bernoulli(), strategy, ObservationSequence(LONG_BITS[:300], 0))


def mp_bernoulli_log_sup(n, ones):
    """log sup_mu of the Bernoulli likelihood of n draws with this many ones."""
    n, ones = mpmath.mpf(n), mpmath.mpf(ones)
    return sum((c * mpmath.log(c / n) for c in (ones, n - ones) if c), mpmath.mpf(0))


@pytest.mark.parametrize("m", [0, 10])
def test_bernoulli_snml_regret_at_three_thousand(m):
    """The SNML regret is log sup(x^m) plus the sum of log Z_t, Z_t the
    one-step Shtarkov sum over the sup-likelihood of x^t: every
    sup-likelihood ratio but these cancels against the best expert."""
    ones = list(itertools.accumulate(map(int, LONG_BITS), initial=0))
    with mpmath.workdps(30):
        want = mp_bernoulli_log_sup(m, ones[m])
        for t in range(m, len(LONG_BITS)):
            head = mp_bernoulli_log_sup(t, ones[t])
            tails = (mp_bernoulli_log_sup(t + 1, ones[t] + s) - head for s in (0, 1))
            want += mpmath.log(mpmath.fsum(mpmath.exp(v) for v in tails))
    record = sk.conditional_regret(sk.Bernoulli(), "snml", ObservationSequence(LONG_BITS, m))
    assert record.regret == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("strategy,m", [("nml", 0), ("cnml", 10), ("cnml", 300)])
def test_bernoulli_cnml_regret_at_one_thousand(strategy, m):
    """The CNML regret is the log of the Shtarkov sum
    sum_s C(k, s) sup(x^m, s more ones among k = n - m draws)."""
    values = LONG_BITS[:1000]
    n, ones = len(values), int(sum(values[:m]))
    with mpmath.workdps(30):
        terms = (mpmath.binomial(n - m, s) * mpmath.exp(mp_bernoulli_log_sup(n, ones + s)) for s in range(n - m + 1))
        want = float(mpmath.log(mpmath.fsum(terms)))
    record = sk.conditional_regret(sk.Bernoulli(), strategy, ObservationSequence(values, m))
    assert record.regret == pytest.approx(want, rel=1e-12)


def mp_bernoulli_saturated(k, t):
    """l*_k(t) = log of the Binomial(k, t / k) mass at t, at 40 digits."""
    with mpmath.workdps(40):
        k, t = mpmath.mpf(k), mpmath.mpf(t)
        return mpmath.log(mpmath.binomial(k, t)) + mp_bernoulli_log_sup(k, t)


@pytest.mark.parametrize("k", [1, 2, 3, 29, 30, 31, 61, 1000, 3000, 10**5, 10**6])
def test_bernoulli_saturated_log_likelihood_matches_mpmath(k):
    """From the Stirling remainders, on both sides of their switch at 30."""
    family = sk.Bernoulli()
    for t in sorted({1, 2, 29, 30, 31, k // 3, k // 2, k - 31, k - 30, k - 29, k - 2, k - 1}):
        if 0 < t < k:
            want = mp_bernoulli_saturated(k, t)
            assert abs(float(family._saturated_log_likelihood(float(t), k) - want)) <= 1e-13 * abs(float(want)), t
    assert family._saturated_log_likelihood(0.0, k) == family._saturated_log_likelihood(float(k), k) == 0.0


def test_bernoulli_cnml_log_joint_of_three_thousand_draws_is_fast():
    """l*_k was the log of math.comb(k, t), a big integer: the k + 1 terms of
    the CNML normalizer took 0.76 s of the 0.88 s of this joint.  The best of
    five runs, each with cold caches."""
    seq = ObservationSequence(LONG_BITS, 10)
    times = []
    for _ in range(5):
        strategies._snml_log_normalizer.cache_clear()
        start = time.perf_counter()
        strategies._log_joint(sk.Bernoulli(), "cnml", seq)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.05, times


def assert_relative(got, want, rel):
    """|got - want| <= rel * max(1, |want|): relative error, absolute near 0."""
    assert abs(got - want) <= rel * max(1.0, abs(want)), (got, want)


def reflected_levy_pullback(values):
    """(the Gamma(0.5) values under y -> -y then x -> 1 / x, and the summed
    log-Jacobian, log 1 / y^2)."""
    return tuple(-1.0 / v for v in values), math.fsum(-2.0 * math.log(-v) for v in values)


@pytest.mark.parametrize("strategy", ["snml", "bayes", "cnml"])
def test_reflected_levy_joint_is_the_doubly_pulled_back_gamma_joint(strategy):
    values = (-0.3, -1.1, -2.6, -0.7)
    pulled, _ = reflected_levy_pullback(values)
    _, log_jacobian = reflected_levy_pullback(values[1:])
    want = strategies._log_joint(sk.GammaShape(0.5), strategy, ObservationSequence(pulled, 1)) + log_jacobian
    assert_relative(strategies._log_joint(REFLECTED_LEVY, strategy, ObservationSequence(values, 1)), want, 1e-14)


@pytest.mark.parametrize("maker", [sk.snml_predictive, sk.bayes_jeffreys_predictive], ids=["snml", "bayes"])
@pytest.mark.parametrize("history", [(-0.3,), (-2.0, -0.5), (-1.0, -4.0, -0.2)])
def test_reflected_levy_predictive_is_the_doubly_pulled_back_gamma_predictive(maker, history):
    got = maker(REFLECTED_LEVY, history)
    want = maker(sk.GammaShape(0.5), reflected_levy_pullback(history)[0])
    for y in (-0.01, -0.3, -1.0, -7.0, -200.0):
        (x,), log_jacobian = reflected_levy_pullback((y,))
        assert_relative(got.log_density(y), want.log_density(x) + log_jacobian, 1e-14)


DOUBLED_LEVY = sk.transform_family(LEVY, lambda x: 2.0 * x, lambda y: 0.5 * y, lambda y: 0.5)
# (a transform of the Levy law, the map from its observations back to Gamma(0.5)
# draws, the log-Jacobian of that map)
NESTED_TRANSFORMS = {
    "reflected": (REFLECTED_LEVY, lambda y: 1.0 / -y, lambda y: -2.0 * math.log(-y)),
    "doubled": (DOUBLED_LEVY, lambda y: 1.0 / (0.5 * y), lambda y: math.log(2.0) - 2.0 * math.log(y)),
}


@pytest.mark.parametrize("name", sorted(NESTED_TRANSFORMS))
def test_nested_transform_mle_and_sup_likelihood_are_the_doubly_pulled_back_gamma_values(name):
    """Gamma(0.5) draws (0.4, 1.3, 2.2) through both maps: the
    maximum-likelihood mean is that of the draws pulled back through both
    maps, not through the outer one alone, and the sup log-likelihood is the
    Gamma(0.5) one plus the summed log-Jacobians."""
    family, pullback, log_jacobian = NESTED_TRANSFORMS[name]
    ys = tuple(family._forward(1.0 / g) for g in (0.4, 1.3, 2.2))
    pulled = tuple(map(pullback, ys))
    gamma = sk.GammaShape(0.5)
    assert family.mle_mean(ys) == gamma.mle_mean(pulled)
    want = gamma.sup_log_likelihood(pulled) + math.fsum(map(log_jacobian, ys))
    assert_relative(family.sup_log_likelihood(ys), want, 1e-14)
    for strategy in ("snml", "bayes", "cnml"):
        record = sk.conditional_regret(family, strategy, ObservationSequence(ys, 1))
        assert_relative(record.best_expert_loglik, want, 1e-14)


SCALED_BERNOULLI = sk.transform_family(sk.Bernoulli(), lambda x: 0.1 * x + 0.7, lambda y: (y - 0.7) / 0.1, lambda y: 10.0)


def test_scaled_bernoulli_support_points_pull_back_exactly():
    """y = 0.1 x + 0.7 maps 1 to 0.7999999999999999, which the inverse takes
    to 0.9999999999999998: the points of a finite support map back exactly,
    as atoms do, so the family's own support points are Bernoulli outcomes."""
    low, high = SCALED_BERNOULLI.finite_support
    assert (low, high) == (0.7, 0.7999999999999999)
    want = sk.strategy_joint(sk.Bernoulli(), "cnml", ObservationSequence((0.0, 1.0, 1.0, 0.0), 1))
    assert want == Fraction(4, 103)
    assert sk.strategy_joint(SCALED_BERNOULLI, "cnml", ObservationSequence((low, high, high, low), 1)) == want
    got = sk.exchangeability_test(SCALED_BERNOULLI, 1, 3, "all-discrete")
    base = sk.exchangeability_test(sk.Bernoulli(), 1, 3, "all-discrete")
    assert (got.values, got.max_abs_deviation, got.verdict) == (base.values, base.max_abs_deviation, base.verdict)


@pytest.mark.parametrize("family", [LEVY, REFLECTED_LEVY], ids=["levy", "reflected-levy"])
def test_numerical_code_never_sees_a_transformed_family(family, monkeypatch):
    """Every entry point unwraps a transformed family (Family._untransformed),
    so with its parameter-side delegates made to raise, every strategy and
    analysis still runs."""

    def unreachable(self, *args):
        raise AssertionError("numerical code was handed a transformed family")

    for name in ("_divergence", "_variance", "_sigma", "geodesic_from_mean", "mean_from_geodesic"):
        monkeypatch.setattr(sk.TransformedFamily, name, unreachable)
    strategies._snml_log_normalizer.cache_clear()
    strategies._jeffreys_posterior.cache_clear()
    sign = -1.0 if family is REFLECTED_LEVY else 1.0
    history, continuation = (sign * 1.0,), tuple(sign * v for v in (0.3, 2.0, 5.0))
    for maker in (sk.snml_predictive, sk.bayes_jeffreys_predictive):
        assert math.isfinite(maker(family, history).log_density(sign * 0.7))
    seq = ObservationSequence(history + continuation, 1)
    for strategy in ("snml", "bayes", "cnml"):
        assert sk.strategy_joint(family, strategy, seq) > 0.0
        assert math.isfinite(sk.conditional_regret(family, strategy, seq).regret)
    report = sk.exchangeability_test(family, 1, 4, history=history, continuations=[continuation])
    assert report.verdict is sk.Verdict.CONSTANT
    assert sk.condition_integral(family, 1.0, 3) > 0.0
    assert sk.check_constancy(family, 3, (0.5, 2.0)).verdict is sk.Verdict.CONSTANT
    assert sk.laplace_asymptotics_check(family, 1.0, n_list=(2, 5)).values


class CountedInverse:
    """A transform's inverse that counts its calls."""

    def __init__(self, inverse):
        self.inverse, self.calls = inverse, 0

    def __call__(self, y):
        self.calls += 1
        return self.inverse(y)


# each entry point on reflected Levy values, and how many values it is handed
ENTRY_POINTS = {
    "log_density_mean": (lambda f, v: f.log_density_mean(1.0, v[0]), 1),
    "mle_mean": (lambda f, v: f.mle_mean(v[:3]), 3),
    "sup_log_likelihood": (lambda f, v: f.sup_log_likelihood(v[:3]), 3),
    "snml_predictive": (lambda f, v: sk.snml_predictive(f, v[:2]), 2),
    "bayes_jeffreys_predictive": (lambda f, v: sk.bayes_jeffreys_predictive(f, v[:2]), 2),
    "snml log_density": (lambda f, v: sk.snml_predictive(f, v[:1]).log_density(v[1]), 2),
    "bayes log_density": (lambda f, v: sk.bayes_jeffreys_predictive(f, v[:1]).log_density(v[1]), 2),
    "snml joint": (lambda f, v: sk.strategy_joint(f, "snml", ObservationSequence(v, 1)), 4),
    "bayes joint": (lambda f, v: sk.strategy_joint(f, "bayes", ObservationSequence(v, 1)), 4),
    "cnml joint": (lambda f, v: sk.cnml_joint(f, ObservationSequence(v, 1)), 4),
    # the joint and both sup-likelihoods from one pull-back
    "conditional_regret": (lambda f, v: sk.conditional_regret(f, "cnml", ObservationSequence(v, 1)), 4),
    # the ordering extremes, then the two witness joints
    "exchangeability_test": (lambda f, v: sk.exchangeability_test(f, 1, 4, history=v[:1], continuations=[v[1:]]), 12),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_each_value_is_pulled_back_once_per_transform(entry):
    """Family._untransformed checks and pulls back each value in one pass, so
    every entry point calls each level's inverse once per value it is
    handed, whatever the number of levels."""
    call, values = entry
    inner, outer = CountedInverse(lambda y: 1.0 / y), CountedInverse(lambda y: -y)
    levy = sk.transform_family(sk.GammaShape(0.5), lambda x: 1.0 / x, inner, lambda y: -1.0 / (y * y))
    reflected = sk.transform_family(levy, lambda x: -x, outer, lambda y: -1.0)
    inner.calls = outer.calls = 0
    call(reflected, (-1.0, -0.3, -2.0, -5.0))
    assert (outer.calls, inner.calls) == (values, values)


# each entry point with a bad point among good values
UNSUPPORTED_CALLS = {
    "mle_mean": lambda f, good, bad: f.mle_mean(good + (bad,)),
    "sup_log_likelihood": lambda f, good, bad: f.sup_log_likelihood(good + (bad,)),
    "log_density_mean": lambda f, good, bad: f.log_density_mean(f.default_reference(), bad),
    "snml_predictive": lambda f, good, bad: sk.snml_predictive(f, good + (bad,)),
    "bayes_jeffreys_predictive": lambda f, good, bad: sk.bayes_jeffreys_predictive(f, good + (bad,)),
    "snml log_density": lambda f, good, bad: sk.snml_predictive(f, good).log_density(bad),
    "bayes log_density": lambda f, good, bad: sk.bayes_jeffreys_predictive(f, good).log_density(bad),
    **{
        f"{strategy} joint": lambda f, good, bad, s=strategy: sk.strategy_joint(f, s, ObservationSequence(good + (bad,), 1))
        for strategy in ("snml", "bayes", "cnml")
    },
    "nml joint": lambda f, good, bad: sk.nml_joint(f, ObservationSequence(good + (bad,), 0)),
    "exchangeability continuation": lambda f, good, bad: sk.exchangeability_test(
        f, 1, 4, history=good[:1], continuations=[good[1:] + (bad,)]
    ),
    "exchangeability history": lambda f, good, bad: sk.exchangeability_test(f, 1, 4, history=(bad,), continuations=[good]),
}
# (family, good values, a point off the image, a point whose pull-back is off
# the base: the Levy law sends 0 to infinity, 2 pulls back to Bernoulli 0.5)
UNSUPPORTED_CASES = {
    "reflected-levy": (REFLECTED_LEVY, (-1.0, -0.3, -2.0), 1.0, 0.0),
    "affine-bernoulli": (AFFINE_BERNOULLI, (1.0, 3.0, 3.0), 5.0, 2.0),
}


@pytest.mark.parametrize("case", UNSUPPORTED_CASES.values(), ids=UNSUPPORTED_CASES)
@pytest.mark.parametrize("call", UNSUPPORTED_CALLS.values(), ids=UNSUPPORTED_CALLS)
def test_every_entry_point_rejects_points_off_the_image_or_its_pullback(case, call):
    family, good, off_image, bad_pullback = case
    for bad in (off_image, bad_pullback):
        with pytest.raises(sk.UnsupportedPoint):
            call(family, good, bad)


def gaussian_half_line_predictives(maker, upper):
    """The predictive of GaussianLocation(1.0) on (-inf, 0] after (0.5,) when
    upper, else on [0, inf) after (-0.5,): the history's mean lies beyond the
    domain, so the chart is based just inside the endpoint 0."""
    domain, history = ((-math.inf, 0.0), (0.5,)) if upper else ((0.0, math.inf), (-0.5,))
    return maker(sk.GaussianLocation(1.0, mean_domain=domain), history)


@pytest.mark.parametrize("maker", [sk.snml_predictive, sk.bayes_jeffreys_predictive], ids=["snml", "bayes"])
def test_upper_endpoint_chart_anchor_mirrors_the_lower(maker):
    """y -> -y maps one half-line problem onto the other, so the predictives
    agree at mirrored points, whichever end of the domain anchors the chart."""
    upper, lower = gaussian_half_line_predictives(maker, True), gaussian_half_line_predictives(maker, False)
    assert_relative(upper.log_normalizer, lower.log_normalizer, 1e-13)
    for y in (-3.0, -0.5, 0.0, 0.4, 2.5):
        assert_relative(upper.log_density(y), lower.log_density(-y), 1e-13)


def test_bayes_density_at_a_seen_extended_multiset_is_a_cache_hit():
    family, cache = sk.GammaShape(2.0), strategies._jeffreys_posterior
    cache.cache_clear()
    sk.bayes_jeffreys_predictive(family, (1.0, 2.0)).density(3.0)
    before = cache.cache_info()
    sk.bayes_jeffreys_predictive(family, (3.0, 1.0)).density(2.0)
    after = cache.cache_info()
    # a miss for the history (1, 3), a hit for (1, 2, 3)
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


# ---- regret --------------------------------------------------------------------


class TestRegret:
    def test_bernoulli_nml_equalizes_at_n2(self):
        ber = sk.Bernoulli()
        for obs in itertools.product((0.0, 1.0), repeat=2):
            record = sk.conditional_regret(ber, "nml", ObservationSequence(obs))
            assert record.regret == pytest.approx(math.log(2.5), abs=1e-14)

    def test_record_identity(self):
        record = sk.conditional_regret(sk.Bernoulli(), "nml", ObservationSequence((1.0, 0.0)))
        assert record.regret == pytest.approx(
            record.strategy_loss + record.best_expert_loglik, abs=1e-12
        )
        assert (record.m, record.n) == (0, 2)

    def test_cnml_regret_depends_on_history_only(self):
        fam = sk.GaussianLocation(1.0)
        r1 = sk.conditional_regret(fam, "cnml", ObservationSequence((0.5, 2.0), m=1))
        r2 = sk.conditional_regret(fam, "cnml", ObservationSequence((0.5, -1.0), m=1))
        assert r1.regret == pytest.approx(r2.regret, abs=1e-10)

    @pytest.mark.parametrize("strategy", ["snml", "bayes", "cnml"])
    def test_gaussian_regret_after_a_far_observation(self, strategy):
        """Each strategy predicts N(0, 2) after 0, whose density at 60 is
        e^-900 / sqrt(4 pi): the joint underflows to 0 and its log raised a
        math domain error.  The regret is 1/2 log 2 - 1/2 log 2 pi."""
        record = sk.conditional_regret(sk.GaussianLocation(1.0), strategy, ObservationSequence((0.0, 60.0), 1))
        assert record.regret == pytest.approx(0.5 * math.log(2.0) - 0.5 * math.log(2.0 * math.pi), abs=1e-10)

    @pytest.mark.parametrize("strategy", ["snml", "bayes", "cnml"])
    def test_regret_of_an_overflowing_joint(self, strategy):
        """The Gamma(1) joint of 44 copies of 1e-8 after 1e-8 is
        Gamma(45) s_1 / s_45^45 under each strategy, about e^764.5."""
        record = sk.conditional_regret(sk.GammaShape(1.0), strategy, ObservationSequence((1e-8,) * 45, 1))
        want = lgamma(45.0) + math.log(1e-8) - 45.0 * math.log(45e-8)
        assert record.strategy_loss == pytest.approx(-want, rel=1e-10)

    @pytest.mark.parametrize("strategy", ["snml", "bayes", "cnml"])
    def test_nothing_predicted_loses_positive_zero(self, strategy):
        """With m = n the joint is 1: its loss is 0.0, not -0.0."""
        record = sk.conditional_regret(sk.Bernoulli(), strategy, ObservationSequence((1.0,), 1))
        assert record.strategy_loss == 0.0 and math.copysign(1.0, record.strategy_loss) == 1.0
        assert record.regret == record.best_expert_loglik == 0.0

    def test_snml_regret_nonnegative_for_bernoulli(self):
        record = sk.conditional_regret(sk.Bernoulli(), "snml", ObservationSequence((1.0, 0.0, 1.0)))
        assert record.regret >= 0.0


def test_cnml_regret_is_one_float_for_every_continuation():
    """The CNML regret is log sup(x^m) plus the one log Shtarkov integral, so
    it is NML's equalizer in floats: loss plus best gave two values 2 ulp
    apart for the continuations 1 and -3 after 0, and NaN for 1e160."""
    family = sk.GaussianLocation(1.0)
    seqs = [ObservationSequence((0.0, y), 1) for y in (1.0, -3.0, 1e160)]
    regrets = {sk.conditional_regret(family, "cnml", seq).regret for seq in seqs}
    assert len(regrets) == 1
    assert_relative(regrets.pop(), -0.5 * math.log(math.pi), 1e-14)


def test_sup_log_likelihood_below_the_float_range_is_minus_inf():
    """Poisson counts 0, 1.64e308 and 0 have log-likelihoods of about -5.5e307
    and -7.1e307 at their mean; their sum is below the float range, where
    fsum raised OverflowError."""
    values = (0.0, 1.6394156936377907e308, 0.0)
    assert sk.Poisson().sup_log_likelihood(values) == -math.inf
    record = sk.conditional_regret(sk.Poisson(), "bayes", ObservationSequence(values, 1))
    assert record.best_expert_loglik == -math.inf and math.isfinite(record.regret)


# (values, m): a continuation whose squared deviation overflows, a history
# of mean 1e10, and a wide sequence at each m
GAUSSIAN_BAYES_REGRETS = {
    "far-continuation": ((0.0, 1e160), 1),
    "large-mean": ((1e10, 1e10 + 3.0, 7.0), 1),
    "wide-m1": ((-5.0, 3.0, 1e3, -1e3), 1),
    "wide-m2": ((-5.0, 3.0, 1e3, -1e3), 2),
    "wide-m3": ((-5.0, 3.0, 1e3, -1e3), 3),
}


@pytest.mark.parametrize("values, m", GAUSSIAN_BAYES_REGRETS.values(), ids=GAUSSIAN_BAYES_REGRETS)
def test_gaussian_bayes_regret_against_mpmath(values, m):
    """On the full line the unit Gaussian's Jeffreys normalizer is
    C(n) = sqrt(2 pi / n), so the Bayes regret is log sup(x^m) + 1/2 log(n / m)
    with log sup(x^m) = -m/2 log 2 pi - 1/2 sum (x_i - x-bar_m)^2.  Loss plus
    best gave NaN, 0.0 and 1.8e-10 relative off for the first three."""
    got = sk.conditional_regret(sk.GaussianLocation(1.0), "bayes", ObservationSequence(values, m)).regret
    with mpmath.workdps(60):
        history = [mpmath.mpf(v) for v in values[:m]]
        mean = mpmath.fsum(history) / m
        spread = mpmath.fsum((x - mean) ** 2 for x in history)
        want = (mpmath.log(mpmath.mpf(len(values)) / m) - m * mpmath.log(2 * mpmath.pi) - spread) / 2
        assert abs(got - want) <= 1e-14 * abs(want), (got, want)


NONNEGATIVE = hs.floats(min_value=0.0, allow_infinity=False)
# each family, with observations drawn from the whole float range
REGRET_FAMILIES = {
    "gaussian": (sk.GaussianLocation(1.0), hs.floats(allow_nan=False, allow_infinity=False)),
    "gamma0.5": (sk.GammaShape(0.5), NONNEGATIVE),
    "gamma1": (sk.GammaShape(1.0), NONNEGATIVE),
    "gamma2": (sk.GammaShape(2.0), NONNEGATIVE),
    "gamma2-restricted": (sk.GammaShape(2.0, mean_domain=(0.5, 3.0)), NONNEGATIVE),
    "tweedie": (sk.Tweedie32(), NONNEGATIVE),
    "poisson": (sk.Poisson(), NONNEGATIVE.map(math.floor).map(float)),
    "bernoulli-restricted": (sk.Bernoulli(mean_domain=(0.2, 0.8)), hs.sampled_from((0.0, 1.0))),
    "levy": (LEVY, hs.floats(5e-324, 1.8e308)),
}


@pytest.mark.parametrize("name", REGRET_FAMILIES)
@settings(derandomize=True, max_examples=12, deadline=None)
@given(data=hs.data())
def test_regret_is_the_history_sup_likelihood_plus_the_normalizer(name, data):
    """A regret is log sup(x^m) + L, in which the continuation cancels.  So it
    is never NaN, and finite wherever the history's sup-likelihood is (every
    normalizer taken is finite); the CNML regret is one float for every
    continuation of one history and length; and where the loss and the best
    expert's log-likelihood are finite, the regret is their sum up to that
    sum's own rounding, a few ulp of the largest of the three.  Where a
    normalizer cannot be taken, a SnmlkitError is raised instead."""
    family, element = REGRET_FAMILIES[name]
    m, k = data.draw(hs.integers(1, 2)), data.draw(hs.integers(1, 2))
    history = tuple(data.draw(hs.lists(element, min_size=m, max_size=m)))
    continuations = [tuple(data.draw(hs.lists(element, min_size=k, max_size=k))) for _ in range(2)]
    for strategy in ("snml", "bayes", "cnml"):
        regrets = set()
        for continuation in continuations:
            try:
                record = sk.conditional_regret(family, strategy, ObservationSequence(history + continuation, m))
            except SnmlkitError:
                continue
            regret, loss, best = record.regret, record.strategy_loss, record.best_expert_loglik
            assert not math.isnan(regret), (strategy, continuation, record)
            if math.isfinite(family.sup_log_likelihood(history)):
                assert math.isfinite(regret), (strategy, continuation, record)
            if math.isfinite(loss) and math.isfinite(best):
                largest = max(abs(loss), abs(best), abs(regret))
                assert abs(regret - (loss + best)) <= 4 * math.ulp(largest), (strategy, record)
            regrets.add(regret.hex())
        if strategy == "cnml":
            assert len(regrets) <= 1, (history, continuations, regrets)


# k x-bar overflows inside the Shtarkov integrand, which raised NanIntegrand
GAMMA_NAN_SHTARKOV = (1.7486935674044702e308, 1.1846013671472016e16, 1.0464415589533143e308)


def test_nan_inside_a_shtarkov_integral_is_a_divergent_normalizer():
    with pytest.raises(DivergentNormalizer):
        sk.conditional_regret(sk.GammaShape(1.0), "cnml", ObservationSequence(GAMMA_NAN_SHTARKOV, 1))


# the continuation's log-likelihoods overflow fsum's partial sums, which raised a bare OverflowError
POISSON_FSUM_OVERFLOW = (0.0, 1.7976931348623157e308, 2.0814389159204404e65, 8.786468322622611e301)


@pytest.mark.parametrize("strategy", ["bayes", "cnml"])
def test_joint_numerator_beyond_the_float_range(strategy):
    seq = ObservationSequence(POISSON_FSUM_OVERFLOW, 1)
    assert sk.strategy_joint(sk.Poisson(), strategy, seq) == 0.0
    assert math.isfinite(sk.conditional_regret(sk.Poisson(), strategy, seq).regret)


def test_poisson_snml_joint_beyond_the_float_range_is_a_divergent_normalizer():
    seq = ObservationSequence(POISSON_FSUM_OVERFLOW, 1)
    for call in (sk.strategy_joint, sk.conditional_regret):
        with pytest.raises(DivergentNormalizer):
            call(sk.Poisson(), "snml", seq)


def test_gaussian_snml_far_out_is_right_or_raises():
    """After -1.07e17 the chart integral's right tail is not bounded by its
    decayed probes.  A tail pass once took it and gave log Z = 1.8537, where
    1/2 log 2 = 0.3466 is right; a value, when there is one, is the right one."""
    try:
        log_normalizer = sk.snml_predictive(sk.GaussianLocation(1.0), (-1.0715406513822232e17,)).log_normalizer
    except DivergentNormalizer:
        return
    assert log_normalizer == pytest.approx(0.5 * math.log(2.0), rel=1e-9)


ANY_FLOAT = hs.floats(allow_nan=False, allow_infinity=False)
COUNTS = NONNEGATIVE.map(math.floor).map(float)
BITS = hs.sampled_from((0.0, 1.0))
# each family, with observations drawn from the whole float range
TOTALITY_FAMILIES = {
    "gaussian": (sk.GaussianLocation(1.0), ANY_FLOAT),
    "gaussian-nonnegative": (sk.GaussianLocation(1.0, mean_domain=(0.0, math.inf)), ANY_FLOAT),
    "gamma0.01": (sk.GammaShape(0.01), NONNEGATIVE),
    "gamma0.5": (sk.GammaShape(0.5), NONNEGATIVE),
    "gamma1": (sk.GammaShape(1.0), NONNEGATIVE),
    "gamma2-restricted": (sk.GammaShape(2.0, mean_domain=(0.5, 5.0)), NONNEGATIVE),
    "tweedie": (sk.Tweedie32(), NONNEGATIVE),
    "tweedie-restricted": (sk.Tweedie32(mean_domain=(0.5, 20.0)), NONNEGATIVE),
    "poisson": (sk.Poisson(), COUNTS),
    "poisson-restricted": (sk.Poisson(mean_domain=(0.5, 20.0)), COUNTS),
    "bernoulli": (sk.Bernoulli(), BITS),
    "bernoulli-restricted": (sk.Bernoulli(mean_domain=(0.1, 0.9)), BITS),
    "levy": (LEVY, hs.floats(5e-324, 1.8e308)),
}


# an input each family once failed on: history, continuation and fresh point
TOTALITY_EXAMPLES = {
    "gamma1": ([GAMMA_NAN_SHTARKOV[0]], list(GAMMA_NAN_SHTARKOV[1:]), 1.0),
    "poisson": ([POISSON_FSUM_OVERFLOW[0]], list(POISSON_FSUM_OVERFLOW[1:]), 1.0),
    "levy": ([1e200], [1.0], 1e-200),
}


@pytest.mark.parametrize("name", TOTALITY_FAMILIES)
def test_every_call_returns_a_number_or_a_typed_error(name):
    """SNML and Bayes log densities at a fresh point, and CNML and Bayes
    regrets, at any magnitude: each is a float that is not NaN, or raises a
    SnmlkitError, never a bare OverflowError or ValueError and never a
    QuadratureError from inside an integral.  Few draws per family: a
    Poisson SNML normalizer far from 0 walks 200,000 series terms."""
    family, element = TOTALITY_FAMILIES[name]
    points = hs.lists(element, min_size=1, max_size=2)

    @settings(derandomize=True, max_examples=4, deadline=None)
    @given(history=points, continuation=points, fresh=element)
    def check(history, continuation, fresh):
        seq = ObservationSequence(tuple(history + continuation), len(history))
        calls = {
            "snml density": lambda: sk.snml_predictive(family, history).log_density(fresh),
            "bayes density": lambda: sk.bayes_jeffreys_predictive(family, history).log_density(fresh),
            "cnml regret": lambda: sk.conditional_regret(family, "cnml", seq).regret,
            "bayes regret": lambda: sk.conditional_regret(family, "bayes", seq).regret,
        }
        for call_name, call in calls.items():
            try:
                value = call()
            except SnmlkitError as exc:
                assert not isinstance(exc, QuadratureError), (call_name, exc)
                continue
            assert not math.isnan(value), call_name

    if name in TOTALITY_EXAMPLES:
        check = example(*TOTALITY_EXAMPLES[name])(check)
    check()


# ---- predictive distribution contract -------------------------------------------


ALL_PREDICTIVE_CASES = [
    ("gaussian", sk.GaussianLocation(1.0), (0.5, -1.0)),
    ("gamma", sk.GammaShape(0.5), (1.0, 2.0)),
    ("tweedie", sk.Tweedie32(), (1.0,)),
    ("bernoulli", sk.Bernoulli(), (1.0, 0.0)),
    ("poisson", sk.Poisson(), (2.0,)),
]


@pytest.mark.parametrize("maker", [sk.snml_predictive, sk.bayes_jeffreys_predictive], ids=["snml", "bayes"])
@pytest.mark.parametrize("name,family,history", ALL_PREDICTIVE_CASES, ids=[c[0] for c in ALL_PREDICTIVE_CASES])
def test_predictive_normalizes(name, family, history, maker):
    pred = maker(family, history)
    core = family.convex_core()
    if name == "bernoulli":
        total = pred.density(0.0) + pred.density(1.0)
    elif name == "poisson":
        total = quadrature.sum_counting(lambda k: pred.density(float(k)), start=0)
    else:
        # scipy's own quadrature, split at the maximum-likelihood mean, as an
        # independent oracle: it reaches the heavy observation-space tails
        # that the library's chart integrals never meet
        split = family.mle_mean(history).value
        total = math.fsum(quad(pred.density, *ends, limit=200)[0] for ends in ((core.lower, split), (split, core.upper)))
        total += sum(mass for _, mass in pred.atoms)
    assert total == pytest.approx(1.0, abs=1e-6)
    assert pred.normalizer > 0.0


@pytest.mark.parametrize("log_normalizer,want", [(709.5, math.exp(709.5)), (709.8, math.inf), (-800.0, 0.0)])
def test_normalizer_is_exp_of_its_log_up_to_overflow(log_normalizer, want):
    """exp stays finite up to log(max float) = 709.78; past it the normalizer
    reads inf, never an OverflowError."""
    pred = strategies.PredictiveDistribution(sk.GaussianLocation(1.0), lambda y: 0.0, log_normalizer)
    assert pred.normalizer == want


@pytest.mark.parametrize("maker", [sk.snml_predictive, sk.bayes_jeffreys_predictive], ids=["snml", "bayes"])
def test_overflowing_density_is_inf(maker):
    """Gamma(0.01) after 1 has log density about 731.7 at 5e-324, past
    log(max float); the density reads inf, never an OverflowError."""
    pred = maker(sk.GammaShape(0.01), (1.0,))
    assert pred.log_density(5e-324) > 731.0
    assert pred.density(5e-324) == math.inf


@pytest.mark.parametrize("maker", [sk.snml_predictive, sk.bayes_jeffreys_predictive], ids=["snml", "bayes"])
@pytest.mark.parametrize("history", [(0.3,), (2.0, 0.5), (1.0, 4.0, 0.2), (0.05, 0.7, 3.0, 11.0, 0.9)])
def test_levy_matches_the_pulled_back_gamma_closed_form(maker, history):
    """The Levy law is the reciprocal of the half-shape Gamma family, so its
    predictive density at y is the Gamma one at 1/y times 1/y^2."""
    levy = sk.transform_family(sk.GammaShape(0.5), lambda x: 1.0 / x, lambda y: 1.0 / y, lambda y: -1.0 / (y * y))
    pred = maker(levy, history)
    pulled = tuple(1.0 / x for x in history)
    for y in (0.01, 0.3, 1.0, 7.0, 200.0):
        want = gamma_snml_density(0.5, pulled, 1.0 / y) / (y * y)
        assert pred.density(y) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("maker", [sk.snml_predictive, sk.bayes_jeffreys_predictive], ids=["snml", "bayes"])
def test_permuted_histories_share_one_normalizer(maker):
    cache = strategies._snml_log_normalizer if maker is sk.snml_predictive else strategies._jeffreys_posterior
    family = sk.GammaShape(2.0)
    cache.cache_clear()
    preds = [maker(family, h) for h in ((0.7, 2.5, 1.1), (2.5, 1.1, 0.7), (1.1, 0.7, 2.5))]
    assert cache.cache_info().misses == 1
    assert len({p.log_normalizer for p in preds}) == 1
    assert len({p.density(1.3) for p in preds}) == 1


@pytest.mark.parametrize("maker", [sk.snml_predictive, sk.bayes_jeffreys_predictive], ids=["snml", "bayes"])
def test_equal_families_share_cache_entries(maker):
    cache = strategies._snml_log_normalizer if maker is sk.snml_predictive else strategies._jeffreys_posterior
    family = sk.GammaShape(2.0)
    cache.cache_clear()
    maker(family, (0.7, 2.5))
    maker(sk.from_json(family.to_json()), (2.5, 0.7))
    info = cache.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_tweedie_predictive_has_zero_atom():
    pred = sk.snml_predictive(sk.Tweedie32(), (1.0,))
    atoms = dict(pred.atoms)
    assert set(atoms) == {0.0}
    assert 0.0 < atoms[0.0] < 1.0


def test_densities_are_nonnegative():
    pred = sk.snml_predictive(sk.GaussianLocation(1.0), (0.0,))
    for y in (-50.0, -1.0, 0.0, 1.0, 50.0):
        assert pred.density(y) >= 0.0


# ---- divergence guards -----------------------------------------------------------


@pytest.mark.parametrize(
    "family",
    [sk.GaussianLocation(1.0), sk.GammaShape(1.0), sk.Tweedie32(), sk.Poisson()],
    ids=lambda f: type(f).__name__,
)
def test_empty_history_diverges_for_most_families(family):
    with pytest.raises(DivergentNormalizer):
        sk.snml_predictive(family, ())
    # Gamma used to return a number here: its flat chart integrand stops where
    # exp(beta) leaves the float range
    with pytest.raises(DivergentNormalizer):
        sk.cnml_joint(family, ObservationSequence((1.0, 2.0), 0))
    with pytest.raises((ImproperPosterior, DivergentNormalizer)):
        sk.bayes_jeffreys_predictive(family, ())


# ---- early, typed failures -----------------------------------------------------


@pytest.mark.parametrize(
    "strategy,error",
    [
        ("snml", DivergentNormalizer),
        ("bayes", ImproperPosterior),
        ("cnml", DivergentNormalizer),
        ("nml", DivergentNormalizer),
    ],
)
def test_unconditioned_gaussian_joints_raise_before_any_integral(strategy, error, integrand_calls):
    with pytest.raises(error):
        sk.strategy_joint(sk.GaussianLocation(1.0), strategy, ObservationSequence((0.5, 1.5), 0))
    assert integrand_calls.count == 0



@pytest.mark.parametrize(
    "strategy,error,free",
    [
        ("snml", DivergentNormalizer, 1),
        ("cnml", DivergentNormalizer, 1),
        ("cnml", DivergentNormalizer, 2),
    ],
)
def test_unsettled_normalizers_raise_typed_errors(strategy, error, free):
    """After (-1e308, 1e308, 1e308), x-bar = 3.3e307, the Gaussian chart point
    cannot move off the anchor, so no Shtarkov normalizer settles.  Each
    strategy raises its own typed error, not the integrator's
    NonConvergence, and names the prefix length.  Bayes, whose normalizer is
    closed, has a value (test_gaussian_bayes_after_the_largest_history)."""
    seq = ObservationSequence((-1e308, 1e308, 1e308) + (0.0,) * free, 3)
    with pytest.raises(error, match="n=3") as caught:
        sk.strategy_joint(sk.GaussianLocation(1.0), strategy, seq)
    assert not isinstance(caught.value, sk.NonConvergence)
    if strategy == "cnml":
        assert f"k={free} " in str(caught.value)


def test_gaussian_bayes_after_the_largest_history():
    """After (-1e308, 1e308, 1e308) the Bayes predictive is N(x-bar, 4/3): its
    log density at x-bar is -log(8 pi / 3) / 2.  The Bayes joint of 0.0 after
    it is 0.0, where the true log density is about -4e614.  As an integral
    the normalizer raised ImproperPosterior."""
    family, history = sk.GaussianLocation(1.0), (-1e308, 1e308, 1e308)
    mean = family.mle_mean(history).value
    assert sk.bayes_jeffreys_predictive(family, history).log_density(mean) == pytest.approx(
        -0.5 * math.log(8.0 * math.pi / 3.0), rel=1e-15
    )
    assert sk.strategy_joint(family, "bayes", ObservationSequence(history + (0.0,), 3)) == 0.0


RESTRICTED_GAUSSIAN, RESTRICTED_POISSON = sk.GaussianLocation(1.0, mean_domain=(0.0, 1.0)), sk.Poisson(mean_domain=(0.5, 20.0))
FAR_OUTSIDE_THE_MEAN_DOMAIN = {
    "gaussian-snml": lambda: sk.snml_predictive(RESTRICTED_GAUSSIAN, (-1e200,)),
    "gaussian-bayes": lambda: sk.bayes_jeffreys_predictive(RESTRICTED_GAUSSIAN, (-1e200,)),
    "gaussian-cnml": lambda: sk.strategy_joint(
        RESTRICTED_GAUSSIAN, "cnml", ObservationSequence((-1e-6, -1e12, 1e300, -1e-300), 2)
    ),
    "poisson-snml": lambda: sk.snml_predictive(RESTRICTED_POISSON, (1e307,)),
    "poisson-bayes": lambda: sk.bayes_jeffreys_predictive(RESTRICTED_POISSON, (1e307,)),
}


@pytest.mark.parametrize("call", FAR_OUTSIDE_THE_MEAN_DOMAIN.values(), ids=FAR_OUTSIDE_THE_MEAN_DOMAIN)
def test_history_far_outside_a_restricted_mean_domain_raises_before_any_integral(call, integrand_calls):
    """n D(x-bar || clip x-bar) overflows, and every weight took inf - inf:
    the predictives raised NanIntegrand and the CNML joint returned nan.
    DomainError names n and x-bar."""
    with pytest.raises(sk.DomainError, match=r"n=\d+ observations have mean .* overflows"):
        call()
    assert integrand_calls.count == 0


@pytest.mark.parametrize(
    "family,history,y",
    [(RESTRICTED_GAUSSIAN, (0.5,), 1e160), (RESTRICTED_GAUSSIAN, (0.5,), -1e200), (RESTRICTED_POISSON, (2.0,), 1e307)],
)
def test_bayes_density_where_the_weight_vanishes_needs_no_normalizer(family, history, y):
    """The sup-likelihood of the history extended by y is 0, so the Jeffreys
    density is too, though the extended history has no normalizer; it raised
    NanIntegrand."""
    assert sk.bayes_jeffreys_predictive(family, history).log_density(y) == -math.inf
    assert sk.snml_predictive(family, history).log_density(y) == -math.inf


BUILT_IN = {
    "GaussianLocation(sigma2=1.0)": sk.GaussianLocation(1.0),
    "GammaShape(shape=0.5)": sk.GammaShape(0.5),
    "GammaShape(shape=2.0)": sk.GammaShape(2.0),
    "Tweedie32()": sk.Tweedie32(),
    "Bernoulli()": sk.Bernoulli(),
    "Poisson()": sk.Poisson(),
    "TransformedFamily(transformed(gamma_shape))": LEVY,
}


@pytest.mark.parametrize("family", BUILT_IN.values(), ids=BUILT_IN)
@pytest.mark.parametrize("entry", ["snml_predictive", "bayes_jeffreys_predictive", "log_density"])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_observations_are_unsupported(family, entry, x):
    with pytest.raises(sk.UnsupportedPoint):
        if entry == "log_density":
            family.log_density(family.default_reference(), x)
        else:
            getattr(sk, entry)(family, (x,))


LEVY_AT_ZERO = {
    "snml density": lambda levy: sk.snml_predictive(levy, (1.0,)).density(0.0),
    "bayes density": lambda levy: sk.bayes_jeffreys_predictive(levy, (1.0,)).density(0.0),
    "log_density_mean": lambda levy: levy.log_density_mean(1.0, 0.0),
    "snml history": lambda levy: sk.snml_predictive(levy, (1.0, 0.0)),
    "bayes history": lambda levy: sk.bayes_jeffreys_predictive(levy, (0.0, 2.0)),
    "joint": lambda levy: sk.strategy_joint(levy, "snml", sk.ObservationSequence((1.0, 0.0, 2.0), 1)),
}


@pytest.mark.parametrize("call", LEVY_AT_ZERO.values(), ids=LEVY_AT_ZERO.keys())
def test_levy_closure_point_without_finite_pullback_is_unsupported(call):
    """0 closes the Levy support, but the reciprocal map sends it to infinity."""
    with pytest.raises(sk.UnsupportedPoint):
        call(LEVY)


LEVY_FAR_OUT = {
    "sup_log_likelihood": lambda y: LEVY.sup_log_likelihood((y,)),
    "snml_predictive": lambda y: sk.snml_predictive(LEVY, (y,)),
    "conditional_regret": lambda y: sk.conditional_regret(LEVY, "cnml", ObservationSequence((y, 1.0), 1)),
}


@pytest.mark.parametrize("call", LEVY_FAR_OUT.values(), ids=LEVY_FAR_OUT.keys())
@pytest.mark.parametrize("y", [1e200, 1e-200])
def test_levy_point_without_finite_log_jacobian_is_unsupported(call, y):
    """The inverse derivative -1/y^2 rounds to -0.0 at 1e200, whose log
    raised ValueError, and divides by 0.0 at 1e-200, which raised
    ZeroDivisionError."""
    with pytest.raises(sk.UnsupportedPoint) as info:
        call(y)
    assert repr(y) in str(info.value)


@pytest.mark.parametrize("shape", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("history", [(0.0,), (0.0, 0.0), (0.0,) * 10_000])
def test_degenerate_mle_raises_one_domain_error_before_quadrature(shape, history, monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran for a degenerate history")

    monkeypatch.setattr(quadrature, "integrate", no_quadrature)
    family = sk.GammaShape(shape)
    messages = set()
    for predictive in (sk.snml_predictive, sk.bayes_jeffreys_predictive):
        with pytest.raises(sk.DomainError) as info:
            predictive(family, history)
        messages.add(str(info.value))
    (message,) = messages
    # the message names n and x-bar, not the history, so it does not grow with n
    assert f"n={len(history)}" in message and len(message) < 200


# ---- x-bar, the correctly rounded mean of the exact sum --------------------------

# a float sum, about the first value or in any order, loses the mean of each
CANCELLING_HISTORIES = [(1e16, 1.0, -1e16, 3.0), (-1e308, 1e308, 1e308), (1.7e308, 1.7e308, -1.7e308)]


def fraction_mean(values):
    return float(sum(map(Fraction, values)) / len(values))


@pytest.mark.parametrize("history", CANCELLING_HISTORIES)
def test_sample_mean_is_the_exact_mean_in_every_order(history):
    family = sk.GaussianLocation(1.0)
    want = fraction_mean(history)
    for order in itertools.permutations(history):
        assert family.mle_mean(order).value == want, order
        assert strategies._history_mean(family, len(order), sum(map(family._exact_statistic, order))) == want, order


def test_gaussian_snml_after_a_cancelling_history_is_centred_at_its_mean():
    """After (1e16, 1, -1e16, 3), x-bar = 1 and the SNML predictive is N(1, 5/4)."""
    want = -0.5 * math.log(2.0 * math.pi * 1.25) - (2.5 - 1.0) ** 2 / 2.5
    for order in itertools.permutations(CANCELLING_HISTORIES[0]):
        pred = sk.snml_predictive(sk.GaussianLocation(1.0), order)
        assert pred.log_density(2.5) == pytest.approx(want, rel=1e-12), order


@given(
    hs.lists(hs.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8).flatmap(
        lambda values: hs.tuples(hs.just(values), hs.permutations(values))
    )
)
def test_sample_mean_does_not_depend_on_the_order(pair):
    values, order = pair
    family = sk.GaussianLocation(1.0)
    assert family.mle_mean(order).value == family.mle_mean(values).value == fraction_mean(values)


def test_long_joints_leave_linear_cache_memory(monkeypatch):
    """The normalizer caches key on (family, n, x-bar), so the SNML, Bayes and
    CNML joints of n observations leave O(n) bytes in them, not the n^2 / 2
    floats of their prefixes.  The integrals are stubbed out: only the keys
    and the walk are measured."""
    monkeypatch.setattr(strategies, "_log_shtarkov", lambda *args: 0.0)
    monkeypatch.setattr(strategies, "_concentration_integral", lambda *args: 1.0)
    family = sk.GammaShape(1.0)
    retained = {}
    for n in (2000, 4000):
        seq = ObservationSequence(tuple(0.5 + (0.618034 * i) % 1.0 for i in range(n)), 1)
        strategies._snml_log_normalizer.cache_clear()
        strategies._jeffreys_posterior.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for strategy in ("snml", "bayes", "cnml"):
                strategies._log_joint(family, strategy, seq)
            retained[n] = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            strategies._snml_log_normalizer.cache_clear()
            strategies._jeffreys_posterior.cache_clear()
    assert retained[4000] <= 2.5 * retained[2000], retained
    assert retained[4000] < 1_000_000, retained


# ---- observation integrals in the unit-Fisher chart ------------------------------

SCALES = [1e-8, 1e-4, 1.0, 1e4, 1e8]


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("k", [0.1, 0.5, 1.0, 2.0])
def test_gamma_snml_matches_closed_form_across_scales(k, scale):
    family = sk.GammaShape(k)
    for history in ((scale,), (0.3 * scale, 2.0 * scale)):
        pred = sk.snml_predictive(family, history)
        for y in (0.01 * scale, scale, 100.0 * scale):
            assert pred.log_density(y) == pytest.approx(gamma_snml_log_density(k, history, y), abs=1e-9)


@pytest.mark.parametrize("scale", SCALES)
def test_tweedie_snml_matches_closed_form_across_scales(scale):
    for history in ((scale,), (0.3 * scale, 2.0 * scale)):
        pred = sk.snml_predictive(sk.Tweedie32(), history)
        for y in (0.0, 0.01 * scale, scale, 100.0 * scale):
            assert pred.log_density(y) == pytest.approx(tweedie_log_predictive(history, y), abs=1e-9)


def mp_tweedie_log_predictive(history, y):
    """tweedie_log_predictive with mpmath's I_1, at 50 digits more than the
    square roots of the sums, whose leading digits cancel."""
    with mpmath.workdps(50 + int(math.log10(1.0 + math.fsum(history) + y)) // 2):
        n, s, y = len(history), mpmath.fsum(mpmath.mpf(v) for v in history), mpmath.mpf(y)
        log_h = 0 if y == 0 else mpmath.log(mpmath.besseli(1, 2 * mpmath.sqrt(y))) - mpmath.log(y) / 2
        return float(
            log_h + mpmath.log(mpmath.mpf(n) / (n + 1)) / 2 - 2 * mpmath.sqrt((n + 1) * (s + y)) + 2 * mpmath.sqrt(n * s)
        )


@pytest.mark.parametrize("history", [(1e20,), (1e24,), (1e4,), (1e12,)])
def test_tweedie_predictives_far_from_zero(history):
    """l*(y) uses ive(1, 2 sqrt y), which is NaN past y = 2.9e17, and both
    predictives raised NanIntegrand.  An integral over the mean per Bayes
    density point, anchored at the history's mean, lost the far tail: after
    (1e4,) it gave -742.5 at 1e6 for -654.5, and after (1e12,) -642,651.6 at
    1e10 for -642,553.0."""
    x = history[0]
    sd = math.sqrt(2.0 * x**1.5)
    points = (0.0, 0.01 * x, x - 3.0 * sd, x, x + sd, 100.0 * x)
    for strategy in (sk.snml_predictive, sk.bayes_jeffreys_predictive):
        pred = strategy(sk.Tweedie32(), history)
        for y in points:
            want = mp_tweedie_log_predictive(history, y)
            assert abs(pred.log_density(y) - want) <= 1e-10 * max(1.0, abs(want)), (strategy.__name__, y)


@pytest.mark.parametrize("history", [(1e-300,), (1e-6, 3e-6), (1e20,), (1e20, 3e20, 5e19), (1e100,), (1e300,)])
def test_tweedie_bayes_far_from_zero(history):
    """The Jeffreys normalizer sqrt(2 pi / n) takes no integral, so the Bayes
    predictive holds at any magnitude.  As an integral it read log C
    2.9e-13 relative off log(2 pi) / 2 after (1e20,), and evaluated to 0, so
    that the predictive raised ImproperPosterior, after (1e100,) and
    (1e300,)."""
    x = math.fsum(history) / len(history)
    pred = sk.bayes_jeffreys_predictive(sk.Tweedie32(), history)
    assert pred.log_normalizer == 0.5 * math.log(2.0 * math.pi / len(history))
    for y in (0.0, 0.01 * x, x, 100.0 * x):
        want = mp_tweedie_log_predictive(history, y)
        assert abs(pred.log_density(y) - want) <= 1e-13 * max(1.0, abs(want)), y


@pytest.mark.parametrize("shape,want", [(0.5, math.inf), (2.0, -math.inf)])
def test_bayes_density_at_zero_follows_the_snml_weight(shape, want):
    """p_mu(0) is infinite for every mean of Gamma(0.5) and 0 for Gamma(2), and
    so is the Jeffreys density there.  Gamma(0.5) gave -inf, because the guard
    turned its infinite integrand into 0."""
    for strategy in (sk.bayes_jeffreys_predictive, sk.snml_predictive):
        assert strategy(sk.GammaShape(shape), (1.0,)).log_density(0.0) == want


def test_gamma_snml_far_out_on_the_line():
    """The chart anchored at 1e300 reaches y = inf at beta = 20.3; the mass the
    float range cannot hold, x / (x + 1.8e308) = 5.6e-9 of the total, is lost.
    Integrated in y, the tail pass raised ZeroDivisionError."""
    pred = sk.snml_predictive(sk.GammaShape(1.0), (1e300,))
    assert pred.log_normalizer == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-7)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    sigma2=hs.floats(1e-3, 1e3),
    history=hs.lists(hs.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=5),
)
def test_gaussian_bayes_holds_at_any_magnitude(sigma2, history):
    """The Bayes predictive is N(x-bar, sigma2 (n + 1) / n) at every
    magnitude: its log normalizer is log(2 pi / n) / 2, and its log density
    at the history's own maximum-likelihood mean is
    -log(2 pi sigma2 (n + 1) / n) / 2.  As an integral the normalizer
    raised ImproperPosterior from |x-bar| = 1e10 and was wrong from 1e16."""
    family, n = sk.GaussianLocation(sigma2), len(history)
    pred = sk.bayes_jeffreys_predictive(family, history)
    assert pred.log_normalizer == 0.5 * math.log(2.0 * math.pi / n)
    with mpmath.workdps(30):
        want = float(-mpmath.log(2 * mpmath.pi * mpmath.mpf(sigma2) * (n + 1) / n) / 2)
    got = pred.log_density(family.mle_mean(history).value)
    assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("center", [0.0, 1.0, -1e3, 1e6, -1e6])
def test_gaussian_log_normalizer_far_from_zero(center):
    family = sk.GaussianLocation(1.0)
    one = sk.snml_predictive(family, (center,)).log_normalizer
    two = sk.snml_predictive(family, (center - 1.0, center + 1.0)).log_normalizer
    assert one == pytest.approx(0.5 * math.log(2.0), rel=1e-10)
    assert two == pytest.approx(0.5 * math.log(1.5), rel=1e-10)


def test_restricted_gamma_normalizer_breaks_at_the_kinks(integrand_calls):
    """The clipped MLE of (1, y) meets the bounds 2 and 5 at y = 3 and y = 9;
    the weight has a kink at each, and they are break points of the integral.
    Without them the chart integral takes 776 calls and misses by 1.1e-10."""
    pred = sk.snml_predictive(sk.GammaShape(2.0, mean_domain=(2.0, 5.0)), (1.0,))
    assert pred.log_normalizer == pytest.approx(0.10429681238665809, rel=1e-10)  # mpmath, 40 digits
    assert integrand_calls.count < 776


@pytest.mark.parametrize("x", [2000.0, 1e4, 1e6])
def test_poisson_snml_far_from_zero(x):
    """Summed from k = 0 the series stopped on 25 masses that underflow to 0.
    The oracle sums the same sup-likelihood ratios in mpmath over 12 standard
    deviations sqrt(2x) either side of x."""
    mpmath.mp.dps = 25
    mx = mpmath.mpf(x)
    width = int(12 * math.sqrt(2 * x))
    terms = []
    for k in range(max(0, int(x) - width), int(x) + width + 1):
        s = mx + k
        terms.append(mpmath.exp(s * mpmath.log(s / 2) - s - mpmath.loggamma(k + 1) - mx * mpmath.log(mx) + mx))
    want = float(mpmath.log(mpmath.fsum(terms)))
    assert sk.snml_predictive(sk.Poisson(), (x,)).log_normalizer == pytest.approx(want, abs=1e-10)


def test_chart_halves_the_gamma_half_normalizer_work(integrand_calls):
    """Integrated in y, the y^(-1/2) endpoint took 1432 integrand calls."""
    sk.snml_predictive(sk.GammaShape(0.5), (1.3,))
    assert integrand_calls.count < 1432 // 2


def test_chart_cuts_the_gamma_cnml_work(integrand_calls):
    """sup-likelihood ratio (3/3.5)^3 / (27/2) = 16/343; integrated in y the
    two nested layers took 404,754 integrand calls."""
    joint = sk.cnml_joint(sk.GammaShape(1.0), ObservationSequence((1.0, 2.0, 0.5), m=1))
    assert joint == pytest.approx(16.0 / 343.0, rel=1e-8)
    assert integrand_calls.count < 404_754


@pytest.mark.parametrize("family,values", [(sk.GammaShape(0.5), (1.0, 0.5, 2.0)), (LEVY, (1.0, 2.0, 0.5))], ids=["gamma", "levy"])
def test_half_shape_cnml_over_two_free_observations(family, values):
    """Gamma(k) after (1,): the joint of (y1, y2) is (y1 y2)^(k-1) (1+y1+y2)^(-3k)
    over B(k, k) B(2k, k).  The Levy values pull back to (1, 0.5, 2) with
    Jacobian 1/y1^2 * 1/y2^2 = 1.  Integrated in y, the y^(-1/2) endpoints
    left the Gamma value 1.3e-6 off and the Levy one 2.4e-10."""
    k = 0.5
    log_beta = 3 * lgamma(k) - lgamma(3 * k)  # log of B(k, k) B(2k, k)
    want = math.exp((k - 1) * math.log(0.5 * 2.0) - 3 * k * math.log(3.5) - log_beta)
    joint = sk.cnml_joint(family, ObservationSequence(values, m=1))
    assert joint == pytest.approx(want, rel=1e-10)


BENCHMARK_FAMILIES = {
    "gaussian": sk.GaussianLocation(1.0),
    "gamma0.5": sk.GammaShape(0.5),
    "gamma1": sk.GammaShape(1.0),
    "gamma2": sk.GammaShape(2.0),
    "tweedie": sk.Tweedie32(),
    "poisson": sk.Poisson(),
    "bernoulli": sk.Bernoulli(),
    "levy": LEVY,
}
CONTINUOUS_BENCHMARK_FAMILIES = ("gaussian", "gamma0.5", "gamma1", "gamma2", "tweedie", "levy")


def _normalizers(family, n):
    """SNML and Jeffreys log normalizers after a fixed history of length n."""
    if family.finite_support:
        cycle = (0.0, 1.0, 1.0, 0.0)
    elif family.is_discrete:
        cycle = (0.0, 1.0, 3.0, 2.0)
    else:
        cycle = (0.3, 1.1, 2.6, 0.7)
    history = tuple(cycle[i % 4] for i in range(n))
    snml = sk.snml_predictive(family, history)
    bayes = sk.bayes_jeffreys_predictive(family, history)
    return snml.log_normalizer, bayes.log_normalizer


def test_gaussian_snml_normalizer_takes_one_quad_call(integrand_calls, monkeypatch):
    """Both Gaussian tails are bounded by their decayed probes, so only the
    window is integrated.  With a pass for each tail it took 3 calls and 356
    integrand evaluations."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counted)
    pred = sk.snml_predictive(sk.GaussianLocation(1.0), (0.4,))
    assert pred.log_normalizer == pytest.approx(0.5 * math.log(2.0), rel=1e-12)
    assert len(calls) == 1
    assert integrand_calls.count < 356


# integrand evaluations of the battery below when every unbounded side got a
# tail pass
_BATTERY_EVALS_WITH_ALL_TAIL_PASSES = 11_740


def test_normalizer_work_budget(integrand_calls):
    """A timing-free guard on the normalizers' work: SNML and Jeffreys log
    normalizers of the six continuous benchmark families at n = 1, 4, 16."""
    for name in CONTINUOUS_BENCHMARK_FAMILIES:
        for n in (1, 4, 16):
            _normalizers(BENCHMARK_FAMILIES[name], n)
    assert integrand_calls.count <= 0.8 * _BATTERY_EVALS_WITH_ALL_TAIL_PASSES
