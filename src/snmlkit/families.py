"""One-parameter natural exponential families on the real line.

Every family is indexed by its mean value mu.  Members expose the cumulant
A(theta), the variance function V(mu), KL divergence in closed form, and three
coordinate charts:

* natural  -- the canonical parameter theta with dA/dtheta = mu,
* mean     -- mu itself,
* geodesic -- beta with d(beta)/d(mu) = 1/sigma(mu), the chart in which the
  Fisher information is identically 1.

Densities share one kernel in deviance form,

    log p_mu(x) = l*(x) - D(x || mu),

where l*(x) = log p_x(x) is the saturated log-likelihood and D the KL
divergence.  The log-likelihood of x_1..x_n therefore depends on mu only
through n and the sample mean xbar:
sum_i log p_mu(x_i) = sum_i log p_xbar(x_i) - n * D(xbar || mu).
The sum t of k observations has the same form, l*_k(t) - k * D(t/k || mu),
with l*_k the saturated log-density of a sum of k members.

The support of the base measure is reported as a closed-or-open interval (the
convex hull of the support, with endpoint flags recording whether an atom sits
there).  Boundary means that carry an atom (Bernoulli 0 and 1, Poisson 0,
Tweedie 0) act as degenerate point masses; mean domains may be restricted to a
closed sub-interval, in which case maximum-likelihood means are clipped into
it.

The built-in families are frozen values: equal fields make equal, equally
hashed families, which share the strategy caches keyed on (family, n, x-bar).
``to_json`` writes the fields and ``kind``, one of ``gaussian_location``
(field ``sigma2``), ``gamma_shape`` (``shape``), ``tweedie32``,
``bernoulli``, ``poisson``; ``mean_domain`` is a two-element array whose
entries may be the strings ``"inf"``/``"-inf"``.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import _json
from . import tweedie as tweedie_ops
from .errors import DomainError, EmptyWindow, NonMonotone, UnsupportedPoint


class Chart(str, Enum):
    NATURAL = "natural"
    MEAN = "mean"
    GEODESIC = "geodesic"


@dataclass(frozen=True)
class ParamValue:
    """A parameter value tagged with its chart.

    Geodesic values carry the base point (a mean) from which arc length is
    measured.
    """

    value: float
    chart: Chart = Chart.MEAN
    reference: float | None = None

    @staticmethod
    def mean(value: float) -> "ParamValue":
        return ParamValue(float(value), Chart.MEAN)

    @staticmethod
    def natural(value: float) -> "ParamValue":
        return ParamValue(float(value), Chart.NATURAL)

    @staticmethod
    def geodesic(value: float, reference: float) -> "ParamValue":
        return ParamValue(float(value), Chart.GEODESIC, float(reference))


@dataclass(frozen=True)
class Interval:
    """An interval with endpoint-inclusion flags."""

    lower: float
    upper: float
    lower_included: bool = False
    upper_included: bool = False

    def __post_init__(self):
        if not self.lower < self.upper:
            raise DomainError(f"empty interval [{self.lower}, {self.upper}]")
        if math.isinf(self.lower) and self.lower_included:
            raise DomainError("an infinite endpoint cannot be included")
        if math.isinf(self.upper) and self.upper_included:
            raise DomainError("an infinite endpoint cannot be included")

    def contains(self, x: float) -> bool:
        if x < self.lower or x > self.upper:
            return False
        if x == self.lower and not self.lower_included:
            return False
        if x == self.upper and not self.upper_included:
            return False
        return True

    def closure_contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper

    def strictly_contains(self, x: float) -> bool:
        return self.lower < x < self.upper

    def clip(self, x: float) -> float:
        return min(max(x, self.lower), self.upper)

    def bounds(self) -> tuple[float, float]:
        return self.lower, self.upper


@dataclass(frozen=True)
class ObservationSequence:
    """A sequence x_1..x_n with the first m values held as conditioning."""

    values: tuple[float, ...]
    m: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not float(self.m).is_integer():
            raise ValueError(f"m must be an integer, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))
        if not 0 <= self.m <= len(self.values):
            raise ValueError(f"m={self.m} outside 0..{len(self.values)}")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def history(self) -> tuple[float, ...]:
        return self.values[: self.m]

    @property
    def continuation(self) -> tuple[float, ...]:
        return self.values[self.m :]


class MleEstimate(NamedTuple):
    value: float
    boundary: bool


def exact_mean(n: int, total: int) -> float:
    """x-bar: the mean of n statistics whose exact sum is total units of 2^-1074
    (``Family._exact_statistic``), correctly rounded whatever their order or
    magnitudes, since int true division rounds once."""
    return total / (n << 1074)


def _window_slice(values: tuple[float, ...], window) -> tuple[float, ...]:
    if window is None:
        return values
    if isinstance(window, slice):
        return values[window]
    start, stop = window
    return values[start:stop]


class Family(ABC):
    """Base class: a one-dimensional natural exponential family in its mean chart.

    A family supplies its charts, its cumulant A(theta), its saturated
    log-likelihood l*(x) = log p_x(x) and its KL divergence D, unchecked, on
    the closure of its full mean domain, and its variance function V,
    unchecked, on the interior.  Every density is then
    log p_mu(x) = l*(x) - D(x || mu).  The checked surface (``variance``,
    ``kl_divergence``) validates against the possibly restricted mean domain;
    integrals over the observation space need the unchecked one, because
    observations range over the whole support.

    A built-in family is a frozen dataclass whose fields are its positive
    finite parameters, then ``mean_domain`` (None, a pair or an Interval,
    made the restricted Interval).  Transformed families compare by identity.
    """

    kind: str = "abstract"
    is_discrete: bool = False
    # shortest history for which the one-step strategy normalizers converge
    min_conditioning: int = 1
    # point masses of the base measure inside a continuous support
    _observation_atoms: tuple[float, ...] = ()
    # full support enumerable for discrete families, else None
    finite_support: tuple[float, ...] | None = None
    _preferred_reference: float = 1.0
    # Convex hull of the support, endpoints flagged where an atom sits.  For
    # these steep families it is also the full mean domain: a boundary mean
    # exists exactly where the support has an atom (the degenerate point mass).
    _support: Interval

    def __post_init__(self):
        for f in fields(self):
            if f.name != "mean_domain":
                value = getattr(self, f.name)
                if not value > 0 or math.isinf(value):
                    raise DomainError(f"{f.name} must be positive and finite, got {value!r}")
                object.__setattr__(self, f.name, float(value))
        object.__setattr__(self, "mean_domain", self._restricted_domain(self.mean_domain))

    def _restricted_domain(self, mean_domain: tuple[float, float] | Interval | None) -> Interval:
        full = self._full_mean_domain()
        if mean_domain is None:
            return full
        if isinstance(mean_domain, Interval):
            lo, hi = mean_domain.lower, mean_domain.upper
        else:
            lo, hi = float(mean_domain[0]), float(mean_domain[1])
        if lo < full.lower or hi > full.upper:
            raise DomainError(
                f"mean domain [{lo}, {hi}] exceeds the maximal domain "
                f"[{full.lower}, {full.upper}] of kind {self.kind}"
            )
        # restriction endpoints are closed so clipped maxima are attained
        lo_inc = full.lower_included if lo == full.lower else not math.isinf(lo)
        hi_inc = full.upper_included if hi == full.upper else not math.isinf(hi)
        return Interval(lo, hi, lo_inc, hi_inc)

    # ---- per-family surface -------------------------------------------------

    def _full_mean_domain(self) -> Interval:
        return self._support

    def convex_core(self) -> Interval:
        """Convex hull of the base-measure support, endpoints flagged if atomic."""
        return self._support

    def variance(self, mu: float) -> float:
        """V(mu) for an interior mean of the mean domain."""
        return self._variance(self._check_mean(mu, interior=True))

    @abstractmethod
    def _variance(self, mu: float) -> float:
        """V(mu) on the interior of the full mean domain, unchecked."""

    @abstractmethod
    def natural_from_mean(self, mu: float) -> float: ...

    @abstractmethod
    def mean_from_natural(self, theta: float) -> float: ...

    @abstractmethod
    def cumulant(self, theta: float) -> float:
        """A(theta), the log normalizer against the family's base measure."""

    @abstractmethod
    def _saturated_log_likelihood(self, x: float, k: int = 1) -> float:
        """l*_k(x), the log density at x of the sum of k members with mean x / k.

        k = 1 is l*(x) = log p_x(x).  The sum of k members with mean mu has
        log density l*_k(x) - k D(x / k || mu), the deviance form over the
        k-fold convolution of the base measure."""

    @abstractmethod
    def _divergence(self, mu0: float, mu1: float) -> float:
        """D(mu0 || mu1) on the closure of the full mean domain, unchecked."""

    @abstractmethod
    def geodesic_from_mean(self, mu: float, reference: float) -> float: ...

    @abstractmethod
    def mean_from_geodesic(self, beta: float, reference: float) -> float: ...

    @abstractmethod
    def sample(self, mu: float, size: int, rng: np.random.Generator) -> np.ndarray: ...

    # ---- shared machinery ---------------------------------------------------

    def _log_density(self, mu: float, x: float) -> float:
        """log p_mu(x) = l*(x) - D(x || mu) for a validated observation and mean.

        D is 0 or inf at a degenerate boundary mean, which makes it the point
        mass at that boundary."""
        return self._saturated_log_likelihood(x) - self._divergence(x, mu)

    def _untransformed(self, values: Iterable[float]) -> tuple[Family, tuple[float, ...], tuple[float, ...]]:
        """(the family under every transform, the values pulled back to it,
        each value's summed density log-Jacobian): the identity here, after the
        only observation check.  UnsupportedPoint unless each value is a finite
        point of the support closure, and a lattice point if counting."""
        values = tuple(map(float, values))
        core = self.convex_core()
        for x in values:
            if not math.isfinite(x) or not core.closure_contains(x):
                raise UnsupportedPoint(f"observation {x!r} is not a finite point of the support closure {core.bounds()}")
            if self.is_discrete and x != math.floor(x):
                raise UnsupportedPoint(f"observation {x!r} is not a lattice point")
        return self, values, (0.0,) * len(values)

    def _log_jeffreys_normalizer(self, n: int, mean: float) -> float | None:
        """log C(n, x-bar) on the full mean domain in closed form, or None
        where the family has none: C is the integral of
        exp(-n D(x-bar || mu)) / sigma(mu) over the means, the Jeffreys
        posterior normalizer of n observations with mean x-bar relative to
        their sup-likelihood."""
        return None

    def _exact_statistic(self, x: float) -> int:
        """The sufficient statistic of a validated observation of an
        untransformed family, x itself, as the integer multiple of 2^-1074
        that every finite float is, so sums are exact."""
        numerator, denominator = x.as_integer_ratio()
        return numerator << (1075 - denominator.bit_length())

    def observation_atoms(self) -> tuple[float, ...]:
        return self._observation_atoms

    def sigma(self, mu: float) -> float:
        """sigma(mu) = sqrt(V(mu)) for an interior mean of the mean domain."""
        return self._sigma(self._check_mean(mu, interior=True))

    def _sigma(self, mu: float) -> float:
        """sigma(mu) on the interior of the full mean domain, unchecked."""
        return math.sqrt(self._variance(mu))

    def default_reference(self) -> float:
        lo, hi = self.mean_domain.lower, self.mean_domain.upper
        if lo < self._preferred_reference < hi:
            return self._preferred_reference
        if math.isfinite(lo) and math.isfinite(hi):
            return 0.5 * (lo + hi)
        if math.isfinite(lo):
            return lo + 1.0
        return hi - 1.0

    def _check_mean(self, mu: float, interior: bool = False) -> float:
        """Validate a mean; interior=True additionally rejects degenerate
        boundary points of the full family (restricted-domain endpoints that
        are regular for the full family still pass)."""
        mu = float(mu)
        if math.isnan(mu):
            raise DomainError("mean is NaN")
        if not self.mean_domain.closure_contains(mu):
            raise DomainError(f"mean {mu!r} outside {self.mean_domain.bounds()}")
        full = self._full_mean_domain()
        if math.isfinite(mu) and not full.contains(mu):
            raise DomainError(f"kind {self.kind} has no member with mean {mu!r}")
        if interior and not full.strictly_contains(mu):
            raise DomainError(f"mean {mu!r} is a degenerate boundary point of kind {self.kind}")
        return mu

    def kl_divergence(self, mu0: float, mu1: float) -> float:
        return self._divergence(self._check_mean(mu0), self._check_mean(mu1))

    def log_density_mean(self, mu: float, x: float) -> float:
        """Log density (w.r.t. the family's base measure) at x under mean mu:
        the untransformed family's at the pulled-back point, plus its
        log-Jacobian."""
        base, (x,), (log_jacobian,) = self._untransformed((x,))
        return base._log_density(self._check_mean(mu), x) + log_jacobian

    def log_density(self, param: ParamValue | float, x: float) -> float:
        return self.log_density_mean(self.mean_value(param), x)

    def mean_value(self, param: ParamValue | float) -> float:
        """Convert a parameter in any chart to its mean value."""
        if not isinstance(param, ParamValue):
            return float(param)
        if param.chart is Chart.MEAN:
            return param.value
        if param.chart is Chart.NATURAL:
            return self.mean_from_natural(param.value)
        reference = param.reference if param.reference is not None else self.default_reference()
        return self.mean_from_geodesic(param.value, self._check_mean(reference, interior=True))

    def convert(
        self,
        param: ParamValue | float,
        target_chart: Chart | str,
        reference: float | None = None,
    ) -> ParamValue:
        target = Chart(target_chart)
        mu = self._check_mean(self.mean_value(param))
        if target is Chart.MEAN:
            return ParamValue(mu, Chart.MEAN)
        mu = self._check_mean(mu, interior=True)
        if target is Chart.NATURAL:
            return ParamValue(self.natural_from_mean(mu), Chart.NATURAL)
        if reference is None and isinstance(param, ParamValue) and param.reference is not None:
            reference = param.reference
        if reference is None:
            reference = self.default_reference()
        reference = self._check_mean(reference, interior=True)
        return ParamValue(self.geodesic_from_mean(mu, reference), Chart.GEODESIC, reference)

    def mle_mean(self, values: Sequence[float], window=None) -> MleEstimate:
        """Maximum-likelihood mean, clipped into the closure of the mean domain."""
        values = tuple(float(v) for v in values)
        selected = _window_slice(values, window)
        if len(selected) == 0:
            raise EmptyWindow("estimation window selects no observations")
        base, pulled, _ = self._untransformed(selected)
        clipped = self.mean_domain.clip(exact_mean(len(pulled), sum(map(base._exact_statistic, pulled))))
        lo, hi = self.mean_domain.bounds()
        boundary = (math.isfinite(lo) and clipped == lo) or (math.isfinite(hi) and clipped == hi)
        return MleEstimate(clipped, boundary)

    def sup_log_likelihood(self, values: Sequence[float]) -> float:
        """log sup over the (clipped) mean domain of the joint density at values:
        the untransformed family's at the pulled-back values, at their clipped
        mean, plus their log-Jacobians."""
        base, pulled, log_jacobians = self._untransformed(values)
        return base._sup_log_likelihood(pulled, log_jacobians)

    def _sup_log_likelihood(self, values: tuple[float, ...], log_jacobians: tuple[float, ...]) -> float:
        """``sup_log_likelihood`` of values already checked and pulled back to
        this untransformed family, with their log-Jacobians: 0.0 for none."""
        if not values:
            return 0.0
        mu = self._check_mean(self.mean_domain.clip(exact_mean(len(values), sum(map(self._exact_statistic, values)))))
        terms = [self._log_density(mu, x) + j for x, j in zip(values, log_jacobians)]
        try:
            return math.fsum(terms)
        except OverflowError:
            # beyond the float range, where the plain sum overflows to the same infinity
            return sum(terms)

    # ---- serialization ------------------------------------------------------

    def to_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload.update(kind=self.kind, mean_domain=list(self.mean_domain.bounds()))
        return _json.dumps(payload, sort_keys=True)


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_remainder(z: float) -> float:
    """s(z) = lgamma(z) - (z - 1/2) log z + z - log(2 pi) / 2 for z > 0.

    From z = 30 four terms of its asymptotic series, within 1e-16 of it
    there, where the lgamma form would cancel most of its digits."""
    if z >= 30.0:
        w = 1.0 / z
        w2 = w * w
        return w * (1 / 12 + w2 * (-1 / 360 + w2 * (1 / 1260 - w2 / 1680)))
    return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _HALF_LOG_2PI


def _half_stirling_remainder(z: float) -> float:
    """r(z) = lgamma(z + 1/2) - z log z + z - log(2 pi) / 2 for z >= 0, with
    r(0) = -log(2) / 2; from z = 30 four terms of its asymptotic series, as
    for s."""
    if z >= 30.0:
        w = 1.0 / z
        w2 = w * w
        return w * (-1 / 24 + w2 * (7 / 2880 + w2 * (-31 / 40320 + w2 * 127 / 215040)))
    if not z:
        return -0.5 * math.log(2.0)
    return math.lgamma(z + 0.5) - z * math.log(z) + z - _HALF_LOG_2PI


def _gaussian_log_jeffreys_normalizer(n: int, mean: float) -> float | None:
    """log C(n, x-bar) = log(2 pi / n) / 2 whatever x-bar, for the families
    whose concentration integral is a Gaussian integral in some coordinate
    (GaussianLocation, Tweedie32).  None at n = 0, where the Jeffreys prior
    itself is improper, which the integral reports as ImproperPosterior."""
    return 0.5 * math.log(2.0 * math.pi / n) if n else None


# The counting kernels.  Binomial(k, mu) is the first of two independent
# Poissons, with means k mu and k (1 - mu), given that their sum is k.  So
# Bernoulli's divergence is the sum of the pair's, and its l*_k(x) is
# l*(x) + l*(k - x) - l*(k) in Poisson's l*.


def _poisson_divergence(p: float, q: float) -> float:
    """D(p || q) = p log(p / q) + q - p between Poisson means in [0, inf].

    p (r - 1 - log r) at one rounded ratio r = q / p, whose rounding cancels
    to first order, so n D stays accurate at large n; q at p = 0, and inf at
    q = 0 < p and wherever a mean is infinite."""
    r = q / p if p else math.inf
    if r == 0.0:
        return math.inf
    return p * (r - 1.0 - math.log(r)) if r < math.inf else q


def _poisson_saturated(x: float, k: int = 1) -> float:
    """l*(x) = x log x - x - log x! of the Poisson family, also l*_k: the
    sum of k members is Poisson with mean k mu.

    From x = 30 it is -log(2 pi x) / 2 - s(x), where x log x - lgamma(x + 1)
    would cancel most of its digits and overflow past 2.5e305; the log is
    split, as 2 pi x overflows past 2.86e307."""
    if x >= 30.0:
        return -_HALF_LOG_2PI - 0.5 * math.log(x) - _stirling_remainder(x)
    return (x * math.log(x) if x else 0.0) - x - math.lgamma(x + 1.0)


@dataclass(frozen=True)
class GaussianLocation(Family):
    """Gaussian with known variance sigma2, indexed by its mean.

    Density (2*pi*sigma2)^(-1/2) exp(-(x - mu)^2 / (2*sigma2)) on the line;
    V(mu) = sigma2.
    """

    kind = "gaussian_location"
    min_conditioning = 1
    _preferred_reference = 0.0
    _support = Interval(-math.inf, math.inf)

    sigma2: float = 1.0
    mean_domain: Interval | tuple[float, float] | None = None

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "_scale", math.sqrt(self.sigma2))
        object.__setattr__(self, "_log_peak", -0.5 * math.log(2.0 * math.pi * self.sigma2))

    def _variance(self, mu: float) -> float:
        return self.sigma2

    def _sigma(self, mu: float) -> float:
        return self._scale

    def natural_from_mean(self, mu: float) -> float:
        return mu / self.sigma2

    def mean_from_natural(self, theta: float) -> float:
        return theta * self.sigma2

    def cumulant(self, theta: float) -> float:
        return 0.5 * self.sigma2 * theta * theta

    def _saturated_log_likelihood(self, x: float, k: int = 1) -> float:
        # the sum of k members is Gaussian with variance k sigma2; k = 1 is on
        # the path of every density evaluation, so it skips the log
        return self._log_peak if k == 1 else self._log_peak - 0.5 * math.log(k)

    def _divergence(self, mu0: float, mu1: float) -> float:
        d = mu0 - mu1
        return d * d / (2.0 * self.sigma2)

    # with beta = (mu - x-bar) / sigma, n D(x-bar || mu) = n beta^2 / 2 and
    # d mu / sigma = d beta: C is the integral of exp(-n beta^2 / 2) over the
    # line, sqrt(2 pi / n), for every sigma2 and x-bar
    _log_jeffreys_normalizer = staticmethod(_gaussian_log_jeffreys_normalizer)

    def geodesic_from_mean(self, mu: float, reference: float) -> float:
        return (mu - reference) / self._scale

    def mean_from_geodesic(self, beta: float, reference: float) -> float:
        return reference + beta * self._scale

    def sample(self, mu: float, size: int, rng: np.random.Generator) -> np.ndarray:
        mu = self._check_mean(mu)
        return rng.normal(mu, math.sqrt(self.sigma2), size=size)


@dataclass(frozen=True)
class GammaShape(Family):
    """Gamma with fixed shape k, indexed by its mean mu = k * scale.

    Density x^(k-1) e^(-k x / mu) (k / mu)^k / Gamma(k) on x > 0;
    V(mu) = mu^2 / k.
    """

    kind = "gamma_shape"
    min_conditioning = 1
    _preferred_reference = 1.0
    _support = Interval(0.0, math.inf)

    shape: float = 1.0
    mean_domain: Interval | tuple[float, float] | None = None

    def __post_init__(self):
        super().__post_init__()
        a = self.shape
        object.__setattr__(self, "_root_shape", math.sqrt(a))
        # l*(x) + log x, the constant of the saturated log-likelihood
        object.__setattr__(self, "_saturated_constant", a * math.log(a) - a - math.lgamma(a))

    def _variance(self, mu: float) -> float:
        return mu * mu / self.shape

    def _sigma(self, mu: float) -> float:
        # not sqrt(V): mu * mu overflows above 1e154
        return mu / self._root_shape

    def natural_from_mean(self, mu: float) -> float:
        return -self.shape / mu

    def mean_from_natural(self, theta: float) -> float:
        if not theta < 0:
            raise DomainError(f"natural parameter must be negative, got {theta!r}")
        return -self.shape / theta

    def cumulant(self, theta: float) -> float:
        if not theta < 0:
            raise DomainError(f"natural parameter must be negative, got {theta!r}")
        return -self.shape * math.log(-theta)

    def _saturated_log_likelihood(self, x: float, k: int = 1) -> float:
        # the sum of k members is Gamma with shape k * shape
        a = k * self.shape
        return a * math.log(a) - a - math.lgamma(a) - math.log(x)

    def _divergence(self, mu0: float, mu1: float) -> float:
        if math.isinf(mu0) or math.isinf(mu1):
            return math.inf
        # shape (r - 1 - log r) at one rounded ratio r, the form of
        # _poisson_divergence, written out: a call would make each Gamma
        # divergence about a fifth slower
        r = mu0 / mu1
        # below the normal range r has lost bits or rounded to 0, so its log
        # comes from the two means (-inf at mu0 = 0)
        log_r = math.log(r) if r >= 2.2250738585072014e-308 else math.log(mu0) - math.log(mu1) if mu0 else -math.inf
        return self.shape * (r - 1.0 - log_r) if r != math.inf else math.inf

    def _log_density(self, mu: float, x: float) -> float:
        if x == 0.0:
            # l*(0) and D(0 || mu) are both infinite; the factor x^(k-1) decides
            k = self.shape
            if k < 1.0:
                return math.inf
            return -math.log(mu) if k == 1.0 else -math.inf
        return self._saturated_constant - math.log(x) - self._divergence(x, mu)

    def geodesic_from_mean(self, mu: float, reference: float) -> float:
        return self._root_shape * math.log(mu / reference)

    def mean_from_geodesic(self, beta: float, reference: float) -> float:
        return reference * math.exp(beta / self._root_shape)

    def sample(self, mu: float, size: int, rng: np.random.Generator) -> np.ndarray:
        mu = self._check_mean(mu, interior=True)
        return rng.gamma(self.shape, mu / self.shape, size=size)


@dataclass(frozen=True)
class Tweedie32(Family):
    """Tweedie family with V(mu) = 2*mu^(3/2) in compound-Poisson form.

    Mixed base measure: Lebesgue on (0, inf) plus an atom at 0 of mass
    exp(-sqrt(mu)).  Means are positive; mu = 0 appears only as the degenerate
    point mass reached by clipping.
    """

    kind = "tweedie32"
    min_conditioning = 1
    _observation_atoms = (0.0,)
    _preferred_reference = 1.0
    _support = Interval(0.0, math.inf, lower_included=True)

    mean_domain: Interval | tuple[float, float] | None = None

    def _variance(self, mu: float) -> float:
        # mu ** 1.5 raises OverflowError past 3.2e205, where V is already inf
        return 2.0 * mu ** 1.5 if mu < 3e205 else math.inf

    def _sigma(self, mu: float) -> float:
        return math.sqrt(2.0) * mu ** 0.75

    def natural_from_mean(self, mu: float) -> float:
        return -1.0 / math.sqrt(mu)

    def mean_from_natural(self, theta: float) -> float:
        if not theta < 0:
            raise DomainError(f"natural parameter must be negative, got {theta!r}")
        return 1.0 / (theta * theta)

    def cumulant(self, theta: float) -> float:
        if not theta < 0:
            raise DomainError(f"natural parameter must be negative, got {theta!r}")
        return -1.0 / theta

    # the module's kernels themselves, with no forwarding frame per node
    _saturated_log_likelihood = staticmethod(tweedie_ops.saturated_log_likelihood)
    _divergence = staticmethod(tweedie_ops.divergence)

    # with u = mu^(1/4), D(x-bar || mu) = (u - c / u)^2 for c = sqrt(x-bar) and
    # d mu / sigma(mu) = 2 sqrt(2) du.  By the Cauchy-Schlomilch identity the
    # integral of exp(-n (u - c / u)^2) over u > 0 is that of exp(-n v^2) over
    # v > 0, sqrt(pi / n) / 2, for every c >= 0: so C = sqrt(2 pi / n)
    # whatever x-bar
    _log_jeffreys_normalizer = staticmethod(_gaussian_log_jeffreys_normalizer)

    def geodesic_from_mean(self, mu: float, reference: float) -> float:
        return 2.0 * math.sqrt(2.0) * (mu ** 0.25 - reference ** 0.25)

    def mean_from_geodesic(self, beta: float, reference: float) -> float:
        root = reference ** 0.25 + beta / (2.0 * math.sqrt(2.0))
        if root <= 0.0:
            raise DomainError(f"geodesic value {beta!r} leaves the mean domain")
        return root ** 4

    def sample(self, mu: float, size: int, rng: np.random.Generator) -> np.ndarray:
        return tweedie_ops.draw(self._check_mean(mu, interior=True), size, rng)


@dataclass(frozen=True)
class Bernoulli(Family):
    """Bernoulli on {0, 1}, indexed by the success probability mu; V = mu(1-mu)."""

    kind = "bernoulli"
    is_discrete = True
    min_conditioning = 0
    finite_support = (0.0, 1.0)
    _preferred_reference = 0.5
    _support = Interval(0.0, 1.0, lower_included=True, upper_included=True)

    mean_domain: Interval | tuple[float, float] | None = None

    def _variance(self, mu: float) -> float:
        return mu * (1.0 - mu)

    def natural_from_mean(self, mu: float) -> float:
        return math.log(mu / (1.0 - mu))

    def mean_from_natural(self, theta: float) -> float:
        return 0.5 * (1.0 + math.tanh(0.5 * theta))

    def cumulant(self, theta: float) -> float:
        return float(np.logaddexp(0.0, theta))

    def _saturated_log_likelihood(self, x: float, k: int = 1) -> float:
        # log of the Binomial(k, x / k) mass at x, a Poisson pair's
        # l*(x) + l*(k - x) conditioned on their sum's l*(k).  Draws all alike
        # are their own mean and have mass 1; every k = 1 call is one, so it
        # returns before the three l* calls
        if x == 0.0 or x == k:
            return 0.0
        return _poisson_saturated(x) + _poisson_saturated(k - x) - _poisson_saturated(k)

    def _divergence(self, mu0: float, mu1: float) -> float:
        # the q - p of the two Poisson terms cancel
        return _poisson_divergence(mu0, mu1) + _poisson_divergence(1.0 - mu0, 1.0 - mu1)

    def _log_jeffreys_normalizer(self, n: int, mean: float) -> float:
        # B(a + 1/2, b + 1/2) / (x-bar^a (1 - x-bar)^b) with a = n x-bar ones
        # and b = n (1 - x-bar) zeros, through the remainders, which cancel
        # nothing.  b is rounded once; n - a would carry the rounding of a,
        # up to an ulp of n
        if not n:
            return math.log(math.pi)  # B(1/2, 1/2)
        return (
            0.5 * math.log(2.0 * math.pi / n)
            + _half_stirling_remainder(n * mean)
            + _half_stirling_remainder(n * (1.0 - mean))
            - _stirling_remainder(n)
        )

    def geodesic_from_mean(self, mu: float, reference: float) -> float:
        return 2.0 * (math.asin(math.sqrt(mu)) - math.asin(math.sqrt(reference)))

    def mean_from_geodesic(self, beta: float, reference: float) -> float:
        angle = math.asin(math.sqrt(reference)) + 0.5 * beta
        if not 0.0 <= angle <= 0.5 * math.pi:
            raise DomainError(f"geodesic value {beta!r} leaves the mean domain")
        return math.sin(angle) ** 2

    def sample(self, mu: float, size: int, rng: np.random.Generator) -> np.ndarray:
        mu = self._check_mean(mu)
        return (rng.random(size) < mu).astype(float)


@dataclass(frozen=True)
class Poisson(Family):
    """Poisson on the nonnegative integers, indexed by its mean; V(mu) = mu."""

    kind = "poisson"
    is_discrete = True
    min_conditioning = 1
    finite_support = None
    _preferred_reference = 1.0
    _support = Interval(0.0, math.inf, lower_included=True)

    mean_domain: Interval | tuple[float, float] | None = None

    def _variance(self, mu: float) -> float:
        return mu

    def natural_from_mean(self, mu: float) -> float:
        return math.log(mu)

    def mean_from_natural(self, theta: float) -> float:
        return math.exp(theta)

    def cumulant(self, theta: float) -> float:
        return math.exp(theta)

    # the counting kernels themselves, which Bernoulli also calls
    _saturated_log_likelihood = staticmethod(_poisson_saturated)
    _divergence = staticmethod(_poisson_divergence)

    def _log_jeffreys_normalizer(self, n: int, mean: float) -> float:
        # Gamma(a + 1/2) (e / a)^a / sqrt(n) with a = n x-bar: the Gamma(a + 1/2,
        # rate n) posterior's normalizer, through the remainder, which cancels nothing
        return 0.5 * math.log(2.0 * math.pi / n) + _half_stirling_remainder(n * mean)

    def geodesic_from_mean(self, mu: float, reference: float) -> float:
        return 2.0 * (math.sqrt(mu) - math.sqrt(reference))

    def mean_from_geodesic(self, beta: float, reference: float) -> float:
        root = math.sqrt(reference) + 0.5 * beta
        if root <= 0.0:
            raise DomainError(f"geodesic value {beta!r} leaves the mean domain")
        return root * root

    def sample(self, mu: float, size: int, rng: np.random.Generator) -> np.ndarray:
        mu = self._check_mean(mu)
        return rng.poisson(mu, size=size).astype(float)


def _probe_grid(core: Interval) -> np.ndarray:
    lo, hi = core.lower, core.upper
    if math.isinf(lo) and math.isinf(hi):
        return np.array([-7.0, -3.0, -1.0, -0.3, 0.0, 0.3, 1.0, 3.0, 7.0])
    if math.isinf(hi):
        return lo + np.geomspace(1e-3, 1e3, 13)
    if math.isinf(lo):
        return hi - np.geomspace(1e-3, 1e3, 13)[::-1]
    width = hi - lo
    return lo + width * np.linspace(0.05, 0.95, 13)


def _endpoint_image(forward: Callable[[float], float], endpoint: float, inward: float) -> float:
    """Limit of forward at an endpoint, approached from inside the support."""
    if math.isfinite(endpoint):
        try:
            y = forward(endpoint)
            if math.isfinite(y):
                return y
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
        xs = [endpoint + inward * 10.0 ** (-k) for k in range(4, 13)]
    else:
        sign = 1.0 if endpoint > 0 else -1.0
        xs = [sign * 10.0 ** k for k in range(4, 13)]
    ys = [forward(x) for x in xs]
    last, prev = ys[-1], ys[-2]
    if math.isinf(last):
        return last
    if abs(last - prev) <= 1e-8 * max(1.0, abs(last)):
        # converged; snap tiny limits to an exact zero endpoint
        return 0.0 if abs(last) < 1e-8 else last
    return math.copysign(math.inf, last)


class TransformedFamily(Family):
    """Image of a family under a strictly monotone smooth data transformation.

    The parameter space is the base family's mean domain (the transform acts on
    observations, not parameters).  Densities pull back through the inverse with
    the usual Jacobian factor; point masses and counting supports map without
    one.  Every entry point unwraps all transforms at once, and checks each
    value as it is pulled back (``_untransformed``).
    """

    kind = "transformed"

    def __init__(
        self,
        base: Family,
        forward: Callable[[float], float],
        inverse: Callable[[float], float],
        inverse_derivative: Callable[[float], float],
        support: tuple[float, float] | None = None,
        label: str | None = None,
    ):
        if base.is_discrete and base.finite_support is None:
            raise DomainError("transforming a counting family with infinite support is not supported")
        self.base = base
        self._forward = forward
        self._inverse = inverse
        self._inverse_derivative = inverse_derivative
        self.label = label or f"transformed({base.kind})"

        core = base.convex_core()
        probes = _probe_grid(core)
        images = np.array([forward(float(x)) for x in probes])
        diffs = np.diff(images)
        if np.all(diffs > 0):
            self._increasing = True
        elif np.all(diffs < 0):
            self._increasing = False
        else:
            raise NonMonotone("forward map is not strictly monotone on the support")
        for x, y in zip(probes, images):
            back = inverse(float(y))
            if not math.isfinite(back) or abs(back - x) > 1e-8 * max(1.0, abs(x)):
                raise NonMonotone(f"inverse(forward({x!r})) = {back!r} does not return the input")
            v = inverse_derivative(float(y))
            if not math.isfinite(v) or v == 0.0:
                raise NonMonotone(f"inverse derivative is degenerate at y={y!r}")

        if support is not None:
            lo, hi = float(support[0]), float(support[1])
            lo_inc = hi_inc = False
        else:
            img_lower = _endpoint_image(forward, core.lower, +1.0)
            img_upper = _endpoint_image(forward, core.upper, -1.0)
            if self._increasing:
                lo, hi = img_lower, img_upper
                lo_inc, hi_inc = core.lower_included, core.upper_included
            else:
                lo, hi = img_upper, img_lower
                lo_inc, hi_inc = core.upper_included, core.lower_included
        atoms = tuple(sorted(float(forward(a)) for a in base.observation_atoms()))
        for a in atoms:
            if a == lo:
                lo_inc = True
            if a == hi:
                hi_inc = True
        self._core = Interval(lo, hi, lo_inc, hi_inc)
        # atoms and finite support points map back exactly, not through the inverse
        exact_points = base.observation_atoms() + (base.finite_support or ())
        self._exact_pullback = {float(forward(a)): a for a in exact_points}

        self.is_discrete = base.is_discrete
        self.min_conditioning = base.min_conditioning
        self._observation_atoms = atoms
        if base.finite_support is not None:
            self.finite_support = tuple(float(forward(v)) for v in base.finite_support)
        self._preferred_reference = base._preferred_reference
        self.mean_domain = base.mean_domain

    # parameter-side structure is the base family's
    def _full_mean_domain(self) -> Interval:
        return self.base._full_mean_domain()

    def _variance(self, mu: float) -> float:
        return self.base._variance(mu)

    def _sigma(self, mu: float) -> float:
        return self.base._sigma(mu)

    def natural_from_mean(self, mu: float) -> float:
        return self.base.natural_from_mean(mu)

    def mean_from_natural(self, theta: float) -> float:
        return self.base.mean_from_natural(theta)

    def cumulant(self, theta: float) -> float:
        return self.base.cumulant(theta)

    def _divergence(self, mu0: float, mu1: float) -> float:
        return self.base._divergence(mu0, mu1)

    def geodesic_from_mean(self, mu: float, reference: float) -> float:
        return self.base.geodesic_from_mean(mu, reference)

    def mean_from_geodesic(self, beta: float, reference: float) -> float:
        return self.base.mean_from_geodesic(beta, reference)

    def convex_core(self) -> Interval:
        return self._core

    def _density_log_jacobian(self, y: float) -> float:
        """log |d inverse / dy|, the log-Jacobian a density picks up at y: none
        at atoms or on a counting support."""
        if self.is_discrete or y in self._exact_pullback:
            return 0.0
        return math.log(abs(self._inverse_derivative(float(y))))

    def pullback(self, y: float) -> float:
        if y in self._exact_pullback:
            return self._exact_pullback[y]
        return float(self._inverse(float(y)))

    def _saturated_log_likelihood(self, y: float, k: int = 1) -> float:
        raise NotImplementedError("densities of a transformed family are taken after _untransformed")

    def _untransformed(self, values: Iterable[float]) -> tuple[Family, tuple[float, ...], tuple[float, ...]]:
        """The base's ``_untransformed`` (and its checks) of the values pulled
        back once, each checked first: UnsupportedPoint unless it is a finite
        point of the image's support closure that pulls back to one of the
        base's."""
        values = tuple(map(float, values))
        core, base_core = self._core, self.base.convex_core()
        pulled = []
        for y in values:
            if not math.isfinite(y) or not core.closure_contains(y):
                raise UnsupportedPoint(f"observation {y!r} is not a finite point of the support closure {core.bounds()}")
            # a closure point of the image can pull back to infinity (0 under the reciprocal map)
            try:
                x = self.pullback(y)
            except (ArithmeticError, ValueError):
                x = math.nan
            if not math.isfinite(x) or not base_core.closure_contains(x):
                raise UnsupportedPoint(
                    f"observation {y!r} does not pull back to a finite point of the base support closure {base_core.bounds()}"
                )
            pulled.append(x)
        base, pulled, log_jacobians = self.base._untransformed(pulled)
        return base, pulled, tuple(j + self._density_log_jacobian(y) for j, y in zip(log_jacobians, values))

    def sample(self, mu: float, size: int, rng: np.random.Generator) -> np.ndarray:
        base_draws = self.base.sample(mu, size, rng)
        return np.array([float(self._forward(float(v))) for v in base_draws])

    def to_json(self) -> str:
        raise DomainError("transformed families hold arbitrary callables and do not serialize")

    def __repr__(self) -> str:
        return f"TransformedFamily({self.label})"


def transform_family(
    family: Family,
    forward: Callable[[float], float],
    inverse: Callable[[float], float],
    inverse_derivative: Callable[[float], float],
    support: tuple[float, float] | None = None,
    label: str | None = None,
) -> TransformedFamily:
    """Push a family through a strictly monotone smooth observation map.

    forward maps base observations to transformed ones; inverse and its
    derivative evaluate on the transformed scale.  Raises NonMonotone when the
    probes detect a direction change or an inconsistent inverse.
    """
    return TransformedFamily(family, forward, inverse, inverse_derivative, support=support, label=label)


_KINDS = {cls.kind: cls for cls in (GaussianLocation, GammaShape, Tweedie32, Bernoulli, Poisson)}


def from_json(payload: str | dict) -> Family:
    """Rebuild a family from its to_json payload (or an equivalent dict).

    Keys that are not fields of the kind are ignored."""
    data = json.loads(payload) if isinstance(payload, str) else dict(payload)
    kind = data.get("kind")
    if kind not in _KINDS:
        raise DomainError(f"unknown family kind {kind!r}")
    cls = _KINDS[kind]
    domain = None
    if data.get("mean_domain") is not None:
        lo, hi = data["mean_domain"]
        domain = (float(lo), float(hi))
    parameters = {f.name: float(data[f.name]) for f in fields(cls) if f.name != "mean_domain" and f.name in data}
    return cls(**parameters, mean_domain=domain)
