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

The support of the base measure is reported as a closed-or-open interval (the
convex hull of the support, with endpoint flags recording whether an atom sits
there).  Boundary means that carry an atom (Bernoulli 0 and 1, Poisson 0,
Tweedie 0) act as degenerate point masses; mean domains may be restricted to a
closed sub-interval, in which case maximum-likelihood means are clipped into
it.

Serialization keys (``to_json``/``from_json``): ``kind`` is one of
``gaussian_location`` (extra key ``sigma2``), ``gamma_shape`` (``shape``),
``tweedie32``, ``bernoulli``, ``poisson``; ``mean_domain`` is a two-element
array whose entries may be the strings ``"inf"``/``"-inf"``.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

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
    the closure of its full mean domain.  Every density is then
    log p_mu(x) = l*(x) - D(x || mu).
    """

    kind: str = "abstract"
    is_discrete: bool = False
    # shortest history for which the one-step strategy normalizers converge
    min_conditioning: int = 1
    # None when the unconditioned Shtarkov normalizer is finite
    shtarkov_divergent_tails: str | None = "both"
    # point masses of the base measure inside a continuous support
    _observation_atoms: tuple[float, ...] = ()
    # full support enumerable for discrete families, else None
    finite_support: tuple[float, ...] | None = None
    _preferred_reference: float = 1.0
    # Convex hull of the support, endpoints flagged where an atom sits.  For
    # these steep families it is also the full mean domain: a boundary mean
    # exists exactly where the support has an atom (the degenerate point mass).
    _support: Interval

    def __init__(self, mean_domain: tuple[float, float] | Interval | None = None):
        full = self._full_mean_domain()
        if mean_domain is None:
            self.mean_domain = full
        else:
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
            self.mean_domain = Interval(lo, hi, lo_inc, hi_inc)

    # ---- per-family surface -------------------------------------------------

    def _full_mean_domain(self) -> Interval:
        return self._support

    def convex_core(self) -> Interval:
        """Convex hull of the base-measure support, endpoints flagged if atomic."""
        return self._support

    @abstractmethod
    def variance(self, mu: float) -> float:
        """V(mu) for an interior mean."""

    @abstractmethod
    def natural_from_mean(self, mu: float) -> float: ...

    @abstractmethod
    def mean_from_natural(self, theta: float) -> float: ...

    @abstractmethod
    def cumulant(self, theta: float) -> float:
        """A(theta), the log normalizer against the family's base measure."""

    @abstractmethod
    def _saturated_log_likelihood(self, x: float) -> float:
        """l*(x) = log p_x(x), the log density at x of the member with mean x."""

    @abstractmethod
    def _divergence(self, mu0: float, mu1: float) -> float:
        """D(mu0 || mu1) on the closure of the full mean domain, unchecked."""

    @abstractmethod
    def geodesic_from_mean(self, mu: float, reference: float) -> float: ...

    @abstractmethod
    def mean_from_geodesic(self, beta: float, reference: float) -> float: ...

    @abstractmethod
    def sample(self, mu: float, size: int, rng: np.random.Generator) -> np.ndarray: ...

    def _hyper_json(self) -> dict:
        return {}

    # ---- shared machinery ---------------------------------------------------

    def _log_density(self, mu: float, x: float) -> float:
        """log p_mu(x) = l*(x) - D(x || mu) for a validated observation and mean.

        D is 0 or inf at a degenerate boundary mean, which makes it the point
        mass at that boundary."""
        return self._saturated_log_likelihood(x) - self._divergence(x, mu)

    def _statistic(self, x: float) -> float:
        """The sufficient statistic of an observation, on the mean scale."""
        return x

    def _sample_mean(self, values: tuple[float, ...]) -> float:
        """Mean of the sufficient statistic over validated observations.

        Summed about the first value, so that close values far from 0 lose
        nothing to the sum and the mean is rounded once at its own magnitude.
        """
        first = self._statistic(values[0])
        return first + math.fsum(self._statistic(v) - first for v in values) / len(values)

    def observation_atoms(self) -> tuple[float, ...]:
        return self._observation_atoms

    def sigma(self, mu: float) -> float:
        return math.sqrt(self.variance(mu))

    def mean_interior(self) -> tuple[float, float]:
        return self.mean_domain.lower, self.mean_domain.upper

    def default_reference(self) -> float:
        lo, hi = self.mean_domain.lower, self.mean_domain.upper
        if lo < self._preferred_reference < hi:
            return self._preferred_reference
        if math.isfinite(lo) and math.isfinite(hi):
            return 0.5 * (lo + hi)
        if math.isfinite(lo):
            return lo + 1.0
        return hi - 1.0

    def _mle_or_reference(self, history: Sequence[float]) -> float:
        """The clipped maximum-likelihood mean of history, or the default
        reference when history is empty or has no valid estimate."""
        try:
            return self.mle_mean(history).value
        except (EmptyWindow, DomainError):
            return self.default_reference()

    def observation_hint(self, history: tuple[float, ...]) -> float | None:
        """A point near the bulk of sup-likelihood weight, usable as a
        quadrature breakpoint; None when no interior point is available."""
        return self._point_near(self._mle_or_reference(history))

    def _point_near(self, mean: float) -> float | None:
        """The observation equal to this mean if it lies inside the support."""
        return mean if self.convex_core().strictly_contains(mean) else None

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

    def _check_observation(self, x: float) -> float:
        x = float(x)
        core = self.convex_core()
        if not math.isfinite(x) or not core.closure_contains(x):
            raise UnsupportedPoint(f"observation {x!r} is not a finite point of the support closure {core.bounds()}")
        if self.is_discrete and x != math.floor(x):
            raise UnsupportedPoint(f"observation {x!r} is not a lattice point")
        return x

    def kl_divergence(self, mu0: float, mu1: float) -> float:
        return self._divergence(self._check_mean(mu0), self._check_mean(mu1))

    def log_density_mean(self, mu: float, x: float) -> float:
        """Log density (w.r.t. the family's base measure) at x under mean mu."""
        x = self._check_observation(x)
        return self._log_density(self._check_mean(mu), x)

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

    def fisher_information(self, param: ParamValue | float) -> float:
        chart = param.chart if isinstance(param, ParamValue) else Chart.MEAN
        mu = self._check_mean(self.mean_value(param), interior=True)
        if chart is Chart.MEAN:
            return 1.0 / self.variance(mu)
        if chart is Chart.NATURAL:
            return self.variance(mu)
        return 1.0

    def mle_mean(self, values: Sequence[float], window=None) -> MleEstimate:
        """Maximum-likelihood mean, clipped into the closure of the mean domain."""
        values = tuple(float(v) for v in values)
        selected = _window_slice(values, window)
        if len(selected) == 0:
            raise EmptyWindow("estimation window selects no observations")
        for v in selected:
            self._check_observation(v)
        clipped = self.mean_domain.clip(self._sample_mean(selected))
        lo, hi = self.mean_domain.bounds()
        boundary = (math.isfinite(lo) and clipped == lo) or (math.isfinite(hi) and clipped == hi)
        return MleEstimate(clipped, boundary)

    def sup_log_likelihood(self, values: Sequence[float]) -> float:
        """log sup over the (clipped) mean domain of the joint density at values."""
        values = tuple(float(v) for v in values)
        if not values:
            return 0.0
        mu_hat = self.mle_mean(values).value
        return math.fsum(self.log_density_mean(mu_hat, v) for v in values)

    # ---- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self._json_dict(), sort_keys=True)

    def _json_dict(self) -> dict:
        payload = {"kind": self.kind}
        payload.update(self._hyper_json())
        payload["mean_domain"] = [_encode_bound(self.mean_domain.lower), _encode_bound(self.mean_domain.upper)]
        return payload

    def __repr__(self) -> str:
        hyper = ", ".join(f"{k}={v}" for k, v in self._hyper_json().items())
        return f"{type(self).__name__}({hyper})"


def _encode_bound(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


class GaussianLocation(Family):
    """Gaussian with known variance sigma2, indexed by its mean.

    Density (2*pi*sigma2)^(-1/2) exp(-(x - mu)^2 / (2*sigma2)) on the line;
    V(mu) = sigma2.
    """

    kind = "gaussian_location"
    min_conditioning = 1
    shtarkov_divergent_tails = "both"
    _preferred_reference = 0.0
    _support = Interval(-math.inf, math.inf)

    def __init__(self, sigma2: float = 1.0, mean_domain=None):
        if not sigma2 > 0 or math.isinf(sigma2):
            raise DomainError(f"sigma2 must be positive and finite, got {sigma2!r}")
        self.sigma2 = float(sigma2)
        super().__init__(mean_domain)

    def variance(self, mu: float) -> float:
        self._check_mean(mu)
        return self.sigma2

    def natural_from_mean(self, mu: float) -> float:
        return mu / self.sigma2

    def mean_from_natural(self, theta: float) -> float:
        return theta * self.sigma2

    def cumulant(self, theta: float) -> float:
        return 0.5 * self.sigma2 * theta * theta

    def _saturated_log_likelihood(self, x: float) -> float:
        return -0.5 * math.log(2.0 * math.pi * self.sigma2)

    def _divergence(self, mu0: float, mu1: float) -> float:
        d = mu0 - mu1
        return d * d / (2.0 * self.sigma2)

    def geodesic_from_mean(self, mu: float, reference: float) -> float:
        return (mu - reference) / math.sqrt(self.sigma2)

    def mean_from_geodesic(self, beta: float, reference: float) -> float:
        return reference + beta * math.sqrt(self.sigma2)

    def sample(self, mu: float, size: int, rng: np.random.Generator) -> np.ndarray:
        mu = self._check_mean(mu)
        return rng.normal(mu, math.sqrt(self.sigma2), size=size)

    def _hyper_json(self) -> dict:
        return {"sigma2": self.sigma2}


class GammaShape(Family):
    """Gamma with fixed shape k, indexed by its mean mu = k * scale.

    Density x^(k-1) e^(-k x / mu) (k / mu)^k / Gamma(k) on x > 0;
    V(mu) = mu^2 / k.
    """

    kind = "gamma_shape"
    min_conditioning = 1
    shtarkov_divergent_tails = "both"
    _preferred_reference = 1.0
    _support = Interval(0.0, math.inf)

    def __init__(self, shape: float = 1.0, mean_domain=None):
        if not shape > 0 or math.isinf(shape):
            raise DomainError(f"shape must be positive and finite, got {shape!r}")
        self.shape = float(shape)
        super().__init__(mean_domain)

    def variance(self, mu: float) -> float:
        mu = self._check_mean(mu, interior=True)
        return mu * mu / self.shape

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

    def _saturated_log_likelihood(self, x: float) -> float:
        k = self.shape
        return k * math.log(k) - k - math.lgamma(k) - math.log(x)

    def _divergence(self, mu0: float, mu1: float) -> float:
        if math.isinf(mu0) or math.isinf(mu1):
            return math.inf
        return self.shape * (mu0 / mu1 - 1.0 + math.log(mu1 / mu0))

    def _log_density(self, mu: float, x: float) -> float:
        if x == 0.0:
            # l*(0) and D(0 || mu) are both infinite; the factor x^(k-1) decides
            k = self.shape
            if k < 1.0:
                return math.inf
            return -math.log(mu) if k == 1.0 else -math.inf
        return super()._log_density(mu, x)

    def geodesic_from_mean(self, mu: float, reference: float) -> float:
        return math.sqrt(self.shape) * math.log(mu / reference)

    def mean_from_geodesic(self, beta: float, reference: float) -> float:
        return reference * math.exp(beta / math.sqrt(self.shape))

    def sample(self, mu: float, size: int, rng: np.random.Generator) -> np.ndarray:
        mu = self._check_mean(mu, interior=True)
        return rng.gamma(self.shape, mu / self.shape, size=size)

    def _hyper_json(self) -> dict:
        return {"shape": self.shape}


class Tweedie32(Family):
    """Tweedie family with V(mu) = 2*mu^(3/2) in compound-Poisson form.

    Mixed base measure: Lebesgue on (0, inf) plus an atom at 0 of mass
    exp(-sqrt(mu)).  Means are positive; mu = 0 appears only as the degenerate
    point mass reached by clipping.
    """

    kind = "tweedie32"
    min_conditioning = 1
    shtarkov_divergent_tails = "right"
    _observation_atoms = (0.0,)
    _preferred_reference = 1.0
    _support = Interval(0.0, math.inf, lower_included=True)

    def variance(self, mu: float) -> float:
        mu = self._check_mean(mu, interior=True)
        return 2.0 * mu ** 1.5

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

    def _saturated_log_likelihood(self, x: float) -> float:
        return tweedie_ops.saturated_log_likelihood(x)

    def _divergence(self, mu0: float, mu1: float) -> float:
        return tweedie_ops.divergence(mu0, mu1)

    def geodesic_from_mean(self, mu: float, reference: float) -> float:
        return 2.0 * math.sqrt(2.0) * (mu ** 0.25 - reference ** 0.25)

    def mean_from_geodesic(self, beta: float, reference: float) -> float:
        root = reference ** 0.25 + beta / (2.0 * math.sqrt(2.0))
        if root <= 0.0:
            raise DomainError(f"geodesic value {beta!r} leaves the mean domain")
        return root ** 4

    def sample(self, mu: float, size: int, rng: np.random.Generator) -> np.ndarray:
        return tweedie_ops.draw(self._check_mean(mu, interior=True), size, rng)


class Bernoulli(Family):
    """Bernoulli on {0, 1}, indexed by the success probability mu; V = mu(1-mu)."""

    kind = "bernoulli"
    is_discrete = True
    min_conditioning = 0
    shtarkov_divergent_tails = None
    finite_support = (0.0, 1.0)
    _preferred_reference = 0.5
    _support = Interval(0.0, 1.0, lower_included=True, upper_included=True)

    def variance(self, mu: float) -> float:
        mu = self._check_mean(mu, interior=True)
        return mu * (1.0 - mu)

    def natural_from_mean(self, mu: float) -> float:
        return math.log(mu / (1.0 - mu))

    def mean_from_natural(self, theta: float) -> float:
        return 0.5 * (1.0 + math.tanh(0.5 * theta))

    def cumulant(self, theta: float) -> float:
        return float(np.logaddexp(0.0, theta))

    def _saturated_log_likelihood(self, x: float) -> float:
        return 0.0

    def _divergence(self, mu0: float, mu1: float) -> float:
        if mu0 == mu1:
            return 0.0
        terms = 0.0
        for p, q in ((mu0, mu1), (1.0 - mu0, 1.0 - mu1)):
            if p == 0.0:
                continue
            if q == 0.0:
                return math.inf
            terms += p * math.log(p / q)
        return terms

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


class Poisson(Family):
    """Poisson on the nonnegative integers, indexed by its mean; V(mu) = mu."""

    kind = "poisson"
    is_discrete = True
    min_conditioning = 1
    shtarkov_divergent_tails = "right"
    finite_support = None
    _preferred_reference = 1.0
    _support = Interval(0.0, math.inf, lower_included=True)

    def variance(self, mu: float) -> float:
        mu = self._check_mean(mu, interior=True)
        return mu

    def natural_from_mean(self, mu: float) -> float:
        return math.log(mu)

    def mean_from_natural(self, theta: float) -> float:
        return math.exp(theta)

    def cumulant(self, theta: float) -> float:
        return math.exp(theta)

    def _saturated_log_likelihood(self, x: float) -> float:
        return (x * math.log(x) if x else 0.0) - x - math.lgamma(x + 1.0)

    def _divergence(self, mu0: float, mu1: float) -> float:
        if mu1 == 0.0:
            return 0.0 if mu0 == 0.0 else math.inf
        if math.isinf(mu1):
            return math.inf
        if mu0 == 0.0:
            return mu1
        return mu0 * math.log(mu0 / mu1) - mu0 + mu1

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
    the usual Jacobian factor; point masses map without one.
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
        self._atom_pullback = {float(forward(a)): a for a in base.observation_atoms()}

        self.is_discrete = base.is_discrete
        self.min_conditioning = base.min_conditioning
        self.shtarkov_divergent_tails = base.shtarkov_divergent_tails
        self._observation_atoms = atoms
        if base.finite_support is not None:
            self.finite_support = tuple(float(forward(v)) for v in base.finite_support)
        self._preferred_reference = base._preferred_reference
        super().__init__(base.mean_domain)

    # parameter-side structure is the base family's
    def _full_mean_domain(self) -> Interval:
        return self.base._full_mean_domain()

    def variance(self, mu: float) -> float:
        return self.base.variance(mu)

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

    def log_jacobian(self, y: float) -> float:
        """log |d inverse / dy| at a non-atomic observation."""
        if y in self._atom_pullback:
            return 0.0
        return math.log(abs(self._inverse_derivative(float(y))))

    def _density_log_jacobian(self, y: float) -> float:
        """The log-Jacobian a density picks up at y: none at atoms or on a counting support."""
        return 0.0 if self.is_discrete else self.log_jacobian(y)

    def pullback(self, y: float) -> float:
        if y in self._atom_pullback:
            return self._atom_pullback[y]
        return float(self._inverse(float(y)))

    # the sufficient statistic is the base family's, read off the pulled-back observation
    _statistic = pullback

    def _log_density(self, mu: float, y: float) -> float:
        # through the base kernel, which keeps its own boundary cases (Gamma at 0)
        return self.base._log_density(mu, self.pullback(y)) + self._density_log_jacobian(y)

    def _saturated_log_likelihood(self, y: float) -> float:
        return self._log_density(self.pullback(y), y)

    def _check_observation(self, x: float) -> float:
        x = float(x)
        core = self._core
        if not math.isfinite(x) or not core.closure_contains(x):
            raise UnsupportedPoint(f"observation {x!r} is not a finite point of the support closure {core.bounds()}")
        # a closure point of the image can pull back to infinity (0 under the reciprocal map)
        try:
            back = self.pullback(x)
        except (ArithmeticError, ValueError):
            back = math.nan
        base_core = self.base.convex_core()
        if not math.isfinite(back) or not base_core.closure_contains(back):
            raise UnsupportedPoint(
                f"observation {x!r} does not pull back to a finite point of the base support closure {base_core.bounds()}"
            )
        return x

    def _point_near(self, mean: float) -> float | None:
        base_point = self.base._point_near(mean)
        if base_point is None:
            return None
        y = float(self._forward(base_point))
        return y if self._core.strictly_contains(y) else None

    def sample(self, mu: float, size: int, rng: np.random.Generator) -> np.ndarray:
        base_draws = self.base.sample(mu, size, rng)
        return np.array([float(self._forward(float(v))) for v in base_draws])

    def _hyper_json(self) -> dict:
        raise DomainError("transformed families hold arbitrary callables and do not serialize")

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


_KIND_BUILDERS = {
    "gaussian_location": lambda d, dom: GaussianLocation(sigma2=float(d.get("sigma2", 1.0)), mean_domain=dom),
    "gamma_shape": lambda d, dom: GammaShape(shape=float(d.get("shape", 1.0)), mean_domain=dom),
    "tweedie32": lambda d, dom: Tweedie32(mean_domain=dom),
    "bernoulli": lambda d, dom: Bernoulli(mean_domain=dom),
    "poisson": lambda d, dom: Poisson(mean_domain=dom),
}


def from_json(payload: str | dict) -> Family:
    """Rebuild a family from its to_json payload (or an equivalent dict)."""
    data = json.loads(payload) if isinstance(payload, str) else dict(payload)
    kind = data.get("kind")
    if kind not in _KIND_BUILDERS:
        raise DomainError(f"unknown family kind {kind!r}")
    domain = None
    if "mean_domain" in data and data["mean_domain"] is not None:
        lo, hi = data["mean_domain"]
        domain = (float(lo), float(hi))
    return _KIND_BUILDERS[kind](data, domain)
