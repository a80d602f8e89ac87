"""Reference values for the benchmark, written without importing snmlkit.

Every function here is a closed form or an exact rational computed from the
model definitions, so a wrong answer from the library cannot also appear in
its own reference.  ``self_test`` checks the float closed forms against
integrals and series in mpmath at 50 significant digits (one double
integral, in floats, against scipy).

Conventions follow the library: a density is taken with respect to the
family's base measure, so at an atom (Tweedie zero, counts) it is the mass.
Jeffreys priors are dmu / sigma(mu).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from scipy import special

LOG_2PI = math.log(2.0 * math.pi)


class OracleMismatch(AssertionError):
    """A library value missed its reference by more than the tolerance."""


def rel_err(got: float, want: float, floor: float = 1e-300) -> float:
    """|got - want| / max(|want|, floor); floor = 1 suits log-scale values near 0."""
    got, want = float(got), float(want)
    if got == want:
        return 0.0
    return abs(got - want) / max(abs(want), floor)


def expect_close(got, want, tol: float, what: str, floor: float = 1e-300) -> float:
    """Return the relative error, or raise OracleMismatch beyond tol."""
    err = rel_err(got, want, floor)
    if not err <= tol:
        raise OracleMismatch(f"{what}: got {float(got)!r}, want {float(want)!r} (rel err {err:.3g} > {tol:g})")
    return err


# ---- Gaussian location, unit variance ---------------------------------------


def gaussian_log_predictive(hist: Sequence[float], y: float) -> float:
    """SNML and Jeffreys predictive: N(mean(hist), (n+1)/n)."""
    n = len(hist)
    var = (n + 1.0) / n
    d = y - math.fsum(hist) / n
    return -0.5 * (LOG_2PI + math.log(var)) - d * d / (2.0 * var)


def _rss(values: Sequence[float]) -> float:
    mean = math.fsum(values) / len(values)
    return math.fsum((v - mean) ** 2 for v in values)


def gaussian_log_suplik(values: Sequence[float]) -> float:
    return -0.5 * len(values) * LOG_2PI - 0.5 * _rss(values)


def gaussian_log_cnml(values: Sequence[float], m: int) -> float:
    """Conditional NML joint of values[m:] given values[:m].

    The conditional Shtarkov integral of exp(-RSS/2) over the free
    coordinates is Gaussian; its quadratic form has determinant m/N.
    """
    n = len(values)
    return -0.5 * (n - m) * LOG_2PI + 0.5 * math.log(m / n) - 0.5 * (_rss(values) - _rss(values[:m]))


# ---- Gamma with fixed shape k -------------------------------------------------


def gamma_log_predictive(hist: Sequence[float], y: float, k: float) -> float:
    """Jeffreys predictive (a beta-prime law); SNML equals it for this family."""
    n = len(hist)
    s = math.fsum(hist)
    return (
        (k - 1.0) * math.log(y)
        + n * k * math.log(s)
        - special.betaln(k, n * k)
        - (n + 1.0) * k * math.log(s + y)
    )


def gamma_log_suplik(values: Sequence[float], k: float) -> float:
    mu = math.fsum(values) / len(values)
    return math.fsum(
        (k - 1.0) * math.log(x) - k * x / mu + k * math.log(k / mu) - special.gammaln(k) for x in values
    )


# ---- Tweedie, V(mu) = 2 mu^(3/2) ---------------------------------------------


def tweedie_log_base(z: float) -> float:
    """log h(z) of the base measure: h(z) = I_1(2 sqrt z) / sqrt z, h(0) = 1 (atom)."""
    if z == 0.0:
        return 0.0
    r = 2.0 * math.sqrt(z)
    return math.log(special.ive(1, r)) + r - 0.5 * math.log(z)


def tweedie_log_predictive(hist: Sequence[float], y: float) -> float:
    """Jeffreys predictive h(y) Z(n+1, s+y) / Z(n, s), Z(n, s) ~ n^(-1/2) e^(-2 sqrt(ns))."""
    n = len(hist)
    s = math.fsum(hist)
    return (
        tweedie_log_base(y)
        + 0.5 * math.log(n / (n + 1.0))
        + 2.0 * math.sqrt(n * s)
        - 2.0 * math.sqrt((n + 1.0) * (s + y))
    )


def tweedie_log_suplik(values: Sequence[float]) -> float:
    mean = math.fsum(values) / len(values)
    return math.fsum(tweedie_log_base(x) for x in values) - 2.0 * len(values) * math.sqrt(mean)


# ---- Poisson -----------------------------------------------------------------


def _xlogx_over(t: float, n: float) -> float:
    return t * math.log(t / n) if t > 0 else 0.0


def poisson_log_suplik(values: Sequence[float]) -> float:
    t = math.fsum(values)
    return _xlogx_over(t, len(values)) - t - math.fsum(special.gammaln(x + 1.0) for x in values)


def poisson_log_bayes_predictive(hist: Sequence[float], y: float) -> float:
    """Negative binomial: Gamma(s + 1/2, n) posterior under the Jeffreys prior."""
    n = len(hist)
    a = math.fsum(hist) + 0.5
    return (
        special.gammaln(a + y)
        - special.gammaln(a)
        - special.gammaln(y + 1.0)
        + a * math.log(n / (n + 1.0))
        - y * math.log(n + 1.0)
    )


def _poisson_series(log_term, start_mode: float) -> float:
    """log of sum_{t>=0} exp(log_term(t)), summed until terms are negligible."""
    peak = max(log_term(float(t)) for t in range(int(start_mode) + 2))
    total = 0.0
    t = 0
    while True:
        term = math.exp(log_term(float(t)) - peak)
        total += term
        if t > start_mode and term < 1e-20 * total:
            return math.log(total) + peak
        t += 1


def poisson_log_cnml(values: Sequence[float], m: int) -> float:
    """Conditional NML joint of values[m:] given values[:m].

    The sup-likelihood depends on the free block only through its total t,
    and sum over blocks with total t of prod 1/y_i! is f^t / t!.
    """
    n, free = len(values), len(values) - m
    s = math.fsum(values[:m])
    hist_fact = math.fsum(special.gammaln(x + 1.0) for x in values[:m])

    def log_term(t: float) -> float:
        return _xlogx_over(s + t, n) - (s + t) + t * math.log(free) - special.gammaln(t + 1.0)

    return poisson_log_suplik(values) + hist_fact - _poisson_series(log_term, (s + 1.0) * free / max(m, 1) + 5.0)


def poisson_log_snml_predictive(hist: Sequence[float], y: float) -> float:
    return poisson_log_cnml(tuple(hist) + (y,), len(hist))


# ---- Bernoulli (exact) --------------------------------------------------------


def bernoulli_sup(ones: int, n: int) -> Fraction:
    """sup_mu mu^k (1-mu)^(n-k) as an exact rational, with 0^0 = 1."""
    out = Fraction(1)
    if ones:
        out *= Fraction(ones, n) ** ones
    if n - ones:
        out *= Fraction(n - ones, n) ** (n - ones)
    return out


def bernoulli_snml_predictive(hist: Sequence[float], y: float) -> Fraction:
    n, s = len(hist), int(sum(hist))
    one, zero = bernoulli_sup(s + 1, n + 1), bernoulli_sup(s, n + 1)
    return (one if y == 1.0 else zero) / (one + zero)


def bernoulli_kt_predictive(hist: Sequence[float], y: float) -> Fraction:
    """Krichevsky-Trofimov: the Jeffreys predictive (s + 1/2) / (n + 1)."""
    n, s = len(hist), int(sum(hist))
    ones = Fraction(2 * s + 1, 2 * n + 2)
    return ones if y == 1.0 else 1 - ones


def bernoulli_cnml(values: Sequence[float], m: int) -> Fraction:
    """Exact conditional NML joint; m = 0 is NML."""
    n, free = len(values), len(values) - m
    s = int(sum(values[:m]))
    shtarkov = sum(math.comb(free, j) * bernoulli_sup(s + j, n) for j in range(free + 1))
    return bernoulli_sup(int(sum(values)), n) / shtarkov


def bernoulli_log_suplik(values: Sequence[float]) -> float:
    return math.log(bernoulli_sup(int(sum(values)), len(values)))


def sequential_joint(predictive, values: Sequence[float], m: int):
    """Product of one-step predictives over values[m:]."""
    total = 1
    for t in range(m, len(values)):
        total = total * predictive(tuple(values[:t]), values[t])
    return total


def sequential_log_joint(log_predictive, values: Sequence[float], m: int) -> float:
    return math.fsum(log_predictive(tuple(values[:t]), values[t]) for t in range(m, len(values)))


# ---- analyses -----------------------------------------------------------------


def concentration_integral(kind: str, mu0: float, n: int) -> float:
    """Integral of exp(-n KL(mu0 || mu)) / sigma(mu) dmu, in the chart where dmu / sigma is flat.

    Bernoulli: mu = sin^2(phi), dmu / sigma = 2 dphi.  Poisson: mu = r^2, dmu / sigma = 2 dr.
    """
    from scipy import integrate

    if kind == "bernoulli":
        def kl(mu):
            return mu0 * math.log(mu0 / mu) + (1 - mu0) * math.log((1 - mu0) / (1 - mu))

        lo, hi, peak, to_mean = 0.0, 0.5 * math.pi, math.asin(math.sqrt(mu0)), lambda phi: math.sin(phi) ** 2
    elif kind == "poisson":
        def kl(mu):
            return mu0 * math.log(mu0 / mu) - mu0 + mu

        lo, hi, peak, to_mean = 0.0, math.inf, math.sqrt(mu0), lambda r: r * r
    else:
        raise ValueError(kind)

    def integrand(u: float) -> float:
        mu = to_mean(u)
        return 2.0 * math.exp(-n * kl(mu)) if 0.0 < mu < (1.0 if kind == "bernoulli" else math.inf) else 0.0

    if math.isinf(hi):
        parts = [(lo, peak), (peak, 2 * peak + 10), (2 * peak + 10, hi)]
    else:
        parts = [(lo, peak), (peak, hi)]
    return math.fsum(integrate.quad(integrand, a, b, epsabs=0, epsrel=1e-13, limit=200)[0] for a, b in parts)


def spread(joints: Sequence) -> float:
    """Relative spread (max - min) / max, as exchangeability_test reports it."""
    top, low = max(joints), min(joints)
    return float((top - low) / top) if top > 0 else 0.0


def verdict(deviation: float, scale: float, tolerance: float, fail_threshold: float) -> str:
    if deviation <= tolerance * scale:
        return "Constant"
    if deviation >= fail_threshold * scale:
        return "NonConstant"
    return "Inconclusive"


def sigma_ode_constant(kind: str, coef: tuple[float, ...]) -> float | None:
    """(sigma')^2 + 3 sigma sigma'' for the exchangeable variance forms, else None."""
    if kind == "constant":
        return 0.0
    if kind == "gamma_line":
        return coef[0] ** 2
    if kind == "tweedie_class":
        return 0.0
    return None


# ---- self-test at 50 digits -----------------------------------------------------


def self_test() -> float:
    """Check the float closed forms against mpmath; return the worst relative error."""
    import mpmath as mp
    from scipy import integrate

    mp.mp.dps = 50
    worst = 0.0

    def agree(got: float, want, what: str) -> None:
        nonlocal worst
        worst = max(worst, expect_close(got, float(want), 1e-12, f"self-test {what}"))

    hist = (0.7, 2.5, 1.3)
    n, s = len(hist), sum(mp.mpf(x) for x in hist)

    # Gaussian: flat-prior predictive by direct integration of the posterior.
    y = 0.4
    post = lambda mu: mp.exp(-sum((mp.mpf(x) - mu) ** 2 for x in hist) / 2)
    want = mp.quad(lambda mu: post(mu) * mp.npdf(y, mu, 1), [-mp.inf, 1.5, mp.inf]) / mp.quad(
        post, [-mp.inf, 1.5, mp.inf]
    )
    agree(math.exp(gaussian_log_predictive(hist, y)), want, "gaussian predictive")

    # Gaussian CNML: the conditional Shtarkov integral over the free coordinates.
    # The sup-likelihood is (2 pi)^(-N/2) exp(-RSS/2), so the (2 pi) factors cancel.
    def rss(xs):
        mean = sum(xs) / len(xs)
        return sum((x - mean) ** 2 for x in xs)

    fixed = tuple(mp.mpf(x) for x in hist[:2])
    norm = mp.quad(lambda z: mp.exp(-rss(fixed + (z,)) / 2), [-mp.inf, sum(fixed) / 2, mp.inf])
    agree(gaussian_log_cnml(hist, 2), -rss([mp.mpf(x) for x in hist]) / 2 - mp.log(norm), "gaussian cnml m=2")
    # free horizon 2, as in cnml-joints: a double integral, in floats (mpmath takes minutes here)
    norm = integrate.dblquad(lambda z2, z1: math.exp(-float(rss((hist[0], z1, z2))) / 2),
                             -math.inf, math.inf, -math.inf, math.inf, epsabs=0, epsrel=1e-12)[0]
    worst = max(worst, expect_close(gaussian_log_cnml(hist, 1), -float(rss(hist)) / 2 - math.log(norm), 1e-10,
                                    "self-test gaussian cnml m=1"))

    # Gamma shape k: beta-prime predictive against the rate-posterior integral.
    for k in (0.5, 2.0):
        k = mp.mpf(k)
        like = lambda lam, xs: mp.fprod(x ** (k - 1) * lam**k * mp.exp(-lam * x) / mp.gamma(k) for x in xs)
        xs = [mp.mpf(x) for x in hist]
        want = mp.quad(lambda lam: like(lam, xs + [mp.mpf(y)]) / lam, [0, 1, mp.inf]) / mp.quad(
            lambda lam: like(lam, xs) / lam, [0, 1, mp.inf]
        )
        agree(math.exp(gamma_log_predictive(hist, y, float(k))), want, f"gamma({k}) predictive")

    # Tweedie: base measure from its power series, normalizer by integration.
    for z in (1e-6, 0.3, 4.0, 90.0):
        series = mp.fsum(mp.mpf(z) ** (j - 1) / (mp.factorial(j) * mp.factorial(j - 1)) for j in range(1, 80))
        agree(math.exp(tweedie_log_base(z)), series, f"tweedie h({z})")
    zfun = lambda nn, ss: mp.quad(lambda t: mp.exp(-t * ss - nn / t) * t ** mp.mpf(-1.5), [0, 1, mp.inf])
    for yy in (0.0, 1.7):
        want = mp.log(zfun(n + 1, s + yy) / zfun(n, s))
        agree(tweedie_log_predictive(hist, yy) - tweedie_log_base(yy), want, f"tweedie Z ratio y={yy}")

    # Poisson: negative binomial and the conditional Shtarkov series.
    counts = (3.0, 0.0, 5.0)
    a = mp.mpf(sum(counts)) + mp.mpf(1) / 2
    post = lambda mu: mp.power(mu, a - 1) * mp.exp(-len(counts) * mu)
    for yy in (0.0, 4.0):
        want = mp.quad(lambda mu: post(mu) * mp.exp(-mu) * mu**yy / mp.factorial(yy), [0, 3, mp.inf])
        want /= mp.quad(post, [0, 3, mp.inf])
        agree(math.exp(poisson_log_bayes_predictive(counts, yy)), want, f"poisson predictive y={yy}")

    def suplik(xs):
        t = mp.mpf(sum(xs))
        lead = t * mp.log(t / len(xs)) if t > 0 else 0
        return mp.exp(lead - t) / mp.fprod(mp.factorial(x) for x in xs)

    seq = (2.0, 1.0, 4.0)
    denom = mp.fsum(suplik((seq[0], i, j)) for i in range(60) for j in range(60))
    agree(poisson_log_cnml(seq, 1), mp.log(suplik(seq) / denom), "poisson cnml")
    return worst
