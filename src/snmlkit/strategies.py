"""Sequential prediction strategies under logarithmic loss.

One-step predictives for a history x_1..x_{t-1}:

* ``snml``  -- weight sup_mu p_mu(x_1..x_{t-1}, y), normalized over y: the
  last-step normalized-maximum-likelihood rule;
* ``bayes`` -- the posterior predictive under the Jeffreys prior, whose weight
  in the mean chart is 1/sigma(mu).

Fixed-horizon joints:

* ``cnml`` -- sup-likelihood of the full sequence normalized over all
  continuations of the conditioning prefix x_1..x_m;
* ``nml``  -- the unconditioned case m = 0 (finite here only for Bernoulli).

Every log joint is one float route for every family (``_log_joint``), and
every regret is the history's log sup-likelihood plus the strategy's log
normalizer (``conditional_regret``).  On Bernoulli over the maximal domain
the calls that return a joint (``strategy_joint``, ``cnml_joint``,
``nml_joint``), ``shtarkov_sum`` and the exchangeability witnesses return
exact ``fractions.Fraction``s instead, from ``_exact_joint``; everything
else is float.

A history enters every value through n and x-bar alone, x-bar the correctly
rounded mean of the exact sum of its statistics (``families.exact_mean``),
so all orderings of one multiset give one value.  A joint walks one running
exact sum, O(n) in time and memory, and the normalizer caches key on
(family, n, x-bar).

Every float value is one numerator over one normalizer.  A predictive's
numerator is the SNML gain of the new observation, the sup-likelihood of
the history extended by it over that of the history (``_snml_log_gain``).
Over a continuation these gains telescope, so a joint's numerator is
sup(x^n) / sup(x^m), read from the two ends alone (``_log_joint``): one
float for every ordering of the continuation.  Only the normalizers
differ:

* SNML divides each step by its Shtarkov integral Z(n, x-bar) over y;
* Jeffreys-Bayes multiplies each step by C(n + 1, x-bar') / C(n, x-bar), C
  the Jeffreys normalizer relative to the sup-likelihood
  (``_jeffreys_posterior``).  On the full mean domain the Gaussian,
  Bernoulli, Poisson and Tweedie 3/2 give C in closed form
  (``Family._log_jeffreys_normalizer``), and every other case takes one
  integral (``_concentration_integral``).
  Over a continuation these ratios telescope to
  C(m, x-bar_m) / C(n, x-bar_n): two normalizers at any horizon;
* CNML divides by one Shtarkov integral over all n - m free observations.
  They enter only through the sum t of their sufficient statistics, so it
  is one integral, or one sum, over t, and SNML's Z is its k = 1 case.

So Bayes and CNML joints see the continuation as a multiset, and are the
same float for every ordering of it; SNML joints differ between orderings
through their normalizers alone.

A regret is log sup(x^n) minus the log joint, and the joint's numerator
cancels the continuation exactly: the regret is log sup(x^m) + L, L the
log normalizer above.  So the continuation enters a regret only through
L, and a CNML regret, log sup(x^m) plus one Shtarkov integral over the
free observations, is one float for every continuation of a history and
length: NML's equalizer property, in floats.

A transformed family's values are those of the family under all its
transforms on the pulled-back observations, times the Jacobian of the
continuation.  Each entry point unwraps it once (``Family._untransformed``):
the predictives, a predictive's ``log_density``, the joints and the ordering
extremes here, the family's density and maximum-likelihood surface
(``log_density_mean``, ``mle_mean``, and ``sup_log_likelihood``, which
unwraps its values itself) and ``analysis.condition_integral``.  That one
call is also the only observation check: each value is checked and pulled
back once, and a bad one raises UnsupportedPoint before any integral.
Everything below sees untransformed families only.  So a transformed
Bernoulli's joints are exact too; only its exchangeability witnesses,
which take both routes, pull their values back twice.

Every integral is taken in a unit-Fisher chart based at the clipped
maximum-likelihood mean (``_chart_anchor``), where the Fisher information is
1: of the mean for C, of the continuation's mean t / k for Z
(``_log_shtarkov``).  The bump of each integrand is about one unit wide at
beta = 0 there, whatever the scale of the history, and no endpoint
singularity (sigma -> 0, or t^(a-1) under Gamma(a)) reaches the integrator.
Counting supports are summed outward from k times the clipped mean.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable

from . import quadrature
from .errors import (
    DivergentNormalizer,
    DomainError,
    ImproperPosterior,
    QuadratureError,
)
from .families import Bernoulli, Family, ObservationSequence, exact_mean, sum_logs

STRATEGIES = ("snml", "bayes", "cnml", "nml")

_NORMALIZER_TOL_ABS = 1e-12
_NORMALIZER_TOL_REL = 1e-10


@dataclass(frozen=True)
class RegretRecord:
    """A strategy's regret on x_{m+1}..x_n given x_1..x_m.

    ``strategy_loss`` is minus the log joint and ``best_expert_loglik`` the
    log sup-likelihood of all n values; either may be +-inf.  ``regret`` is
    log sup(x^m) + L, the history's log sup-likelihood plus the strategy's
    log normalizer relative to it (``conditional_regret``).  It is their sum
    up to rounding, and finite wherever the history's sup-likelihood is,
    also where that float sum would be inf - inf.
    """

    strategy_loss: float
    best_expert_loglik: float
    regret: float
    m: int
    n: int


class PredictiveDistribution:
    """A normalized one-step law over the observation space.

    ``density(x)`` is taken with respect to the family's own base measure: a
    Lebesgue density for continuous families, a probability mass for counting
    families, and at the locations listed in ``atoms`` the point mass itself.
    ``normalizer`` is the denominator actually computed (Shtarkov integral or
    posterior-predictive normalizer), relative to the history's own
    sup-likelihood sup_mu p_mu(history).  The log weight is that of the
    untransformed family at the pulled-back point; ``log_density`` adds the
    point's log-Jacobian.
    """

    def __init__(self, family: Family, log_weight: Callable[[float], float], log_normalizer: float):
        self.family = family
        self._log_weight = log_weight
        self.log_normalizer = float(log_normalizer)
        self.normalizer = _exp(self.log_normalizer)

    def log_density(self, x: float) -> float:
        _, (y,), (log_jacobian,) = self.family._untransformed((x,))
        return self._log_weight(y) + log_jacobian - self.log_normalizer

    def density(self, x: float) -> float:
        """exp of ``log_density``: inf where it overflows."""
        return _exp(self.log_density(x))

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        return tuple((a, self.density(a)) for a in self.family.observation_atoms())


# Bernoulli on the maximal domain, whose joints are exact Fractions
_EXACT_BERNOULLI = Bernoulli()


def _bernoulli_sup_fraction(n: int, ones: int) -> Fraction:
    """sup_mu of the Bernoulli likelihood of n draws with this many ones, as
    an exact rational, 0^0 = 1."""
    zeros = n - ones
    return Fraction(ones**ones * zeros**zeros, n**n)


def _history_mean(family: Family, n: int, total: int) -> float:
    """x-bar of n observations whose exact statistics sum to total (0 for none).

    By the deviance identity
    sum_i log p_mu(x_i) = sum_i log p_xbar(x_i) - n * D(xbar || mu),
    the strategy integrands see the history only through n and x-bar.  That
    needs a member with mean x-bar, so a degenerate maximum-likelihood mean
    (an all-zero history under Gamma, on any mean domain) raises DomainError
    here, before any quadrature.  So does a mean so far outside a restricted
    mean domain that n D(x-bar || clip x-bar), the history's log-likelihood
    ratio against the full family, overflows: every weight would take
    inf - inf.
    """
    if not n:
        return 0.0
    mean = exact_mean(n, total)
    if not family._full_mean_domain().contains(mean):
        raise DomainError(f"n={n} observations have mean {mean!r}, and kind {family.kind} has no member with it")
    clipped = family.mean_domain.clip(mean)
    if clipped != mean and n * family._divergence(mean, clipped) == math.inf:
        raise DomainError(
            f"n={n} observations have mean {mean!r}, so far outside the mean domain "
            f"{family.mean_domain.bounds()} of kind {family.kind} that their log-likelihood ratio overflows"
        )
    return mean


def _relative_log_likelihood(family: Family, n: int, mean: float) -> Callable[[float], float]:
    """mu -> sum_i log p_mu(x_i) - sup_nu sum_i log p_nu(x_i) for a history of
    length n with mean x-bar: n D(x-bar || clip(x-bar)) - n D(x-bar || mu)."""
    if n == 0:
        return lambda mu: 0.0
    offset = n * family._divergence(mean, family.mean_domain.clip(mean))
    return lambda mu: offset - n * family._divergence(mean, mu)


def _snml_log_gain(family: Family, n: int, mean: float, k: int = 1) -> Callable[[float], float]:
    """t -> log weight of t in the Shtarkov normalizer over the next k
    observations, t the sum of their sufficient statistics; for k = 1, t is
    the next observation y and the weight is the sup log-likelihood of the
    history extended by y minus that of the history.

    The history enters through its length n and its mean x-bar alone: the
    extended history has maximum-likelihood mean mu' = clip((n x-bar + t) / (n + k)).
    By the deviance identity the k observations have log-likelihood at mu'
    equal to their saturated value minus k D(t / k || mu'), and over all
    continuations with sum t the saturated values integrate to the law of a
    sum of k members at its own mean, l*_k(t).  The weight is therefore
    l*_k(t) - k D(t / k || mu') + n D(x-bar || clip x-bar) - n D(x-bar || mu').
    Per call only the family's kernel hooks run; the offset
    n D(x-bar || clip x-bar), the shift and the bounds of the mean domain are
    bound once.  The family is untransformed, so the statistic of t is t
    itself.
    """
    lo, hi = family.mean_domain.bounds()
    offset = n * family._divergence(mean, family.mean_domain.clip(mean)) if n else 0.0
    shift, size = k * mean, n + k
    log_density, saturated, divergence = family._log_density, family._saturated_log_likelihood, family._divergence

    def log_gain(t: float) -> float:
        mu = mean + (t - shift) / size
        mu = lo if mu < lo else hi if mu > hi else mu
        # at k = 1 the family's own kernel, with its boundary cases (Gamma at 0)
        head = log_density(mu, t) if k == 1 else saturated(t, k) - k * divergence(t / k, mu)
        return head + (offset - n * divergence(mean, mu)) if n else head

    return log_gain


def _chart_anchor(family: Family, n: int, mean: float) -> float:
    """The base point of the unit-Fisher charts after n observations of mean
    x-bar: clip(x-bar), or the default reference for no history, moved 1e-6
    of the scale inside the mean domain where it sits on or beyond an
    endpoint."""
    est = family.mean_domain.clip(mean) if n else family.default_reference()
    lo, hi = family.mean_domain.bounds()
    if math.isfinite(lo) and math.isfinite(hi):
        pad = 1e-6 * (hi - lo)
        return min(max(est, lo + pad), hi - pad)
    if math.isfinite(lo) and est <= lo:
        return lo + 1e-6 * max(1.0, abs(lo))
    if math.isfinite(hi) and est >= hi:
        return hi - 1e-6 * max(1.0, abs(hi))
    return est


def _chart_window(family: Family, bounds: tuple[float, float], anchor: float) -> tuple[float, float]:
    """Image of an interval of means under the unit-Fisher chart based at anchor.

    The interval is the mean domain for integrals over the parameter, and the
    support for integrals over the observation, which for these steep
    families is the closure of the full mean domain.
    """
    edges = []
    for end, side in zip(bounds, (-math.inf, math.inf)):
        try:
            beta = family.geodesic_from_mean(end, anchor)
        except (ValueError, OverflowError):
            beta = side
        edges.append(side if math.isnan(beta) else beta)
    return edges[0], edges[1]


def _log_shtarkov(family: Family, n: int, mean: float, k: int) -> float:
    """log of the sum or integral over the next k observations of their
    sup-likelihood together with n observations of mean x-bar, relative to
    the sup-likelihood of those n alone.

    k = 1 is the SNML normalizer, and k = n - m the CNML normalizer.  The
    weight (_snml_log_gain) sees the k observations only through the sum t of
    their statistics, so this is one sum or integral over t.  A counting
    support is summed outward from k times the clipped mean, which must lie
    below 2**53, where consecutive counts stop being distinct floats.  A
    continuous one is integrated in the unit-Fisher chart of the
    continuation's mean s = t / k based at the clipped mean,
    s = mean_from_geodesic(beta, anchor), dt = k sigma(s) d beta, and the
    continuations made of atoms alone are added.  In that chart a Gamma(a) weight t^(k a - 1) e^(-...) at 0 becomes
    smooth with exponential tails, the Tweedie left edge is finite, and the
    bump of the weight is about one unit wide around beta = 0.  sigma is the
    unchecked one: s ranges over the whole support, also where a restricted
    mean domain has no member.  Raises DivergentNormalizer, naming k, n and
    x-bar, when the sum or the integral does not settle, meets NaN,
    overflows or is 0 or inf.
    """
    log_weight = _snml_log_gain(family, n, mean, k)
    where = f"Shtarkov normalizer over k={k} observation(s) after n={n} of mean {mean!r}"
    try:
        if family.finite_support is not None:
            # the sums of k draws from {0, 1}
            total = math.fsum(math.exp(log_weight(float(t))) for t in range(k + 1))
        elif family.is_discrete:
            bulk = k * family.mean_domain.clip(mean)
            if bulk >= 2.0**53:
                raise DivergentNormalizer(
                    f"{where}: counts near k x-bar = {bulk:.3g} lie past 2**53, where consecutive "
                    "integers are no longer distinct floats, so the series cannot be summed term by term"
                )
            total = quadrature.sum_counting(lambda t: math.exp(log_weight(float(t))), peak=round(bulk))
        else:
            lo, hi = family.convex_core().bounds()
            anchor = _chart_anchor(family, n, mean)
            to_observation = family.mean_from_geodesic
            sigma = family._sigma

            def integrand(beta: float) -> float:
                s = to_observation(beta, anchor)
                # far out, s rounds onto an endpoint, where the weight may be infinite
                if not lo < s < hi:
                    return 0.0
                w = math.exp(log_weight(k * s))
                # sigma may overflow where the weight has underflowed
                return w * sigma(s) if w else 0.0

            # the weight has a kink where the maximum-likelihood mean of the n + k
            # observations reaches a bound b of a restricted mean domain, at
            # t = (n + k) b - n x-bar
            kinks = (mean + (n + k) * (b - mean) / k for b in family.mean_domain.bounds() if math.isfinite(b))
            res = quadrature.integrate(
                integrand,
                _chart_window(family, (lo, hi), anchor),
                tol_abs=_NORMALIZER_TOL_ABS,
                tol_rel=_NORMALIZER_TOL_REL,
                breaks=[family.geodesic_from_mean(s, anchor) for s in kinks if lo < s < hi],
            )
            total = k * res.value + math.fsum(math.exp(log_weight(k * a)) for a in family.observation_atoms())
    # OverflowError: float arithmetic past the float range outside the guarded integrand
    except (QuadratureError, OverflowError) as exc:
        raise DivergentNormalizer(f"{where}: {exc}") from exc
    if not 0.0 < total < math.inf:
        raise DivergentNormalizer(f"{where} evaluated to {total!r}")
    return math.log(total)


@lru_cache(maxsize=8192)
def _snml_log_normalizer(family: Family, n: int, mean: float) -> float:
    """log integral (or sum) over y of sup_mu p_mu(history, y) / sup_mu p_mu(history)
    for a history of n observations with mean x-bar."""
    return _log_shtarkov(family, n, mean, 1)


def _require_conditioning(family: Family, m: int, strategy: str) -> None:
    """Raise, before any integral, where m conditioning observations are fewer
    than the family needs: ImproperPosterior for bayes, DivergentNormalizer
    for the maximum-likelihood strategies."""
    if m < family.min_conditioning:
        if strategy == "bayes":
            error, reason = ImproperPosterior, "the Jeffreys posterior is improper"
        else:
            error, reason = DivergentNormalizer, "the maximum-likelihood envelope is not normalizable"
        raise error(
            f"kind {family.kind} needs at least m={family.min_conditioning} conditioning "
            f"observations; got {m} ({reason})"
        )


def _concentration_integral(family: Family, n: int, mean: float, tol_abs: float, tol_rel: float) -> float:
    """Integral of exp(n D(x-bar || clip x-bar) - n D(x-bar || mu)) / sigma(mu) d mu.

    The weight 1/sigma(mu) d mu is arc length in the unit-Fisher chart, so the
    integral is taken there, over the image of the mean domain under the chart
    based at ``_chart_anchor``: no weight factor, and no endpoint singularity
    from sigma -> 0.  It is the Jeffreys posterior normalizer of a history of
    n observations with mean x-bar, relative to its sup-likelihood, and for
    x-bar = mu0 the concentration integral of the constancy and Laplace
    checks.  Raises ImproperPosterior, naming the kind, n and x-bar, when the
    integral does not settle, meets NaN, or is 0 or inf.
    """
    anchor = _chart_anchor(family, n, mean)
    relative = _relative_log_likelihood(family, n, mean)
    where = f"Jeffreys posterior normalizer of kind {family.kind} after n={n} observations of mean {mean!r}"

    def integrand(beta: float) -> float:
        return math.exp(relative(family.mean_from_geodesic(beta, anchor)))

    try:
        total = quadrature.integrate(
            integrand,
            _chart_window(family, family.mean_domain.bounds(), anchor),
            tol_abs=tol_abs,
            tol_rel=tol_rel,
        ).value
    except QuadratureError as exc:
        raise ImproperPosterior(f"{where}: {exc}") from exc
    if not 0.0 < total < math.inf:
        raise ImproperPosterior(f"{where} evaluated to {total!r}")
    return total


@lru_cache(maxsize=4096)
def _jeffreys_posterior(family: Family, n: int, mean: float) -> float:
    """log C(n, x-bar), the Jeffreys posterior normalizer of a history of n
    observations with mean x-bar, relative to its sup-likelihood: the
    family's closed form on its full mean domain where it has one (Gaussian,
    Bernoulli, Poisson and Tweedie 3/2), else the concentration integral."""
    if family.mean_domain == family._full_mean_domain():
        closed = family._log_jeffreys_normalizer(n, mean)
        if closed is not None:
            return closed
    return math.log(_concentration_integral(family, n, mean, 1e-13, 1e-11))


def _predictive(family: Family, strategy: str, history: Iterable[float]) -> PredictiveDistribution:
    """The snml or bayes predictive after a history, its weight and normalizer
    taken in the untransformed family on the pulled-back history."""
    base, hist, _ = family._untransformed(history)
    _require_conditioning(family, len(hist), strategy)
    n, total = len(hist), sum(map(base._exact_statistic, hist))
    mean = _history_mean(base, n, total)
    gain = _snml_log_gain(base, n, mean)
    if strategy == "snml":
        return PredictiveDistribution(family, gain, _snml_log_normalizer(base, n, mean))

    def log_weight(y: float) -> float:
        head = gain(y)
        # a zero weight needs no normalizer, which a history extended far out may not have
        if head == -math.inf:
            return head
        extended = _history_mean(base, n + 1, total + base._exact_statistic(y))
        return head + _jeffreys_posterior(base, n + 1, extended)

    return PredictiveDistribution(family, log_weight, _jeffreys_posterior(base, n, mean))


def snml_predictive(family: Family, history: Iterable[float] = ()) -> PredictiveDistribution:
    """Last-step NML predictive given the history."""
    return _predictive(family, "snml", history)


def bayes_jeffreys_predictive(family: Family, history: Iterable[float] = ()) -> PredictiveDistribution:
    """Jeffreys-prior posterior predictive given the history."""
    return _predictive(family, "bayes", history)


def _bernoulli_shtarkov_fraction(n: int, ones: int, k: int) -> Fraction:
    """Exact sum of the sup-likelihood over the 2^k binary continuations of n
    draws with this many ones: the C(k, s) continuations with s ones share
    one value."""
    return sum(math.comb(k, s) * _bernoulli_sup_fraction(n + k, ones + s) for s in range(k + 1))


def _joint_inputs(family: Family, strategy: str, seq: ObservationSequence) -> tuple[str, Family, tuple, tuple]:
    """(strategy name, untransformed family, pulled-back values, their
    log-Jacobians) of a joint, with its arguments checked before any
    integral: the strategy, the sequence type, each observation, nml at
    m = 0 and the conditioning length."""
    name = str(strategy).lower()
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if not isinstance(seq, ObservationSequence):
        raise TypeError("expected an ObservationSequence (values plus conditioning length m)")
    base, values, log_jacobians = family._untransformed(seq.values)
    if name == "nml" and seq.m != 0:
        raise ValueError("nml conditions on nothing; use cnml_joint when m > 0")
    # NML is CNML at m = 0, and needs its normalizer even with nothing to predict
    if name == "nml" or seq.n > seq.m:
        _require_conditioning(family, seq.m, name)
    return name, base, values, log_jacobians


def _joint_terms(m: int, name: str, base: Family, values: tuple, log_jacobians: tuple) -> tuple[float, float]:
    """(log joint, L) of the continuation x_{m+1}..x_n given x_1..x_m, from
    the outputs of ``_joint_inputs``; L is the strategy's log normalizer
    relative to sup(x^m): the sum of the one-step log Shtarkov integrals for
    SNML, log C(m) - log C(n) for Bayes, and the one log Shtarkov integral
    over the n - m free observations for CNML and NML.  0.0 for both where
    nothing is predicted.  See ``_log_joint``."""
    free = len(values) - m
    if free == 0:
        return 0.0, 0.0

    # x-bar of x_1..x_t for t = m..n, from one running exact sum: SNML takes a
    # normalizer at each, and each prefix raises its own DomainError
    totals = itertools.accumulate(map(base._exact_statistic, values), initial=0)
    means = [_history_mean(base, t, total) for t, total in enumerate(totals) if t >= m]
    # log sup(x^n) - log sup(x^m) at the clipped mean of all n values, one
    # float for every ordering of the continuation
    fitted = base.mean_domain.clip(means[-1])
    log_numerator = sum_logs([base._log_density(fitted, y) for y in values[m:]])
    log_numerator += _relative_log_likelihood(base, m, means[0])(fitted)
    if name == "snml":
        log_normalizer = sum(_snml_log_normalizer(base, t, mean) for t, mean in enumerate(means[:-1], m))
    elif name == "bayes":
        log_normalizer = _jeffreys_posterior(base, m, means[0]) - _jeffreys_posterior(base, len(values), means[-1])
    else:
        log_normalizer = _log_shtarkov(base, m, means[0], free)
    return log_numerator - log_normalizer + math.fsum(log_jacobians[m:]), log_normalizer


def _log_joint(family: Family, strategy: str, seq: ObservationSequence) -> float:
    """log joint of the continuation x_{m+1}..x_n given x_1..x_m, for every
    family, exact Bernoulli included.

    It is log sup(x^n) - log sup(x^m) minus the strategy's log normalizer L,
    all in the untransformed family, plus the continuation's log-Jacobians,
    and stays finite where a joint of many or far-out observations over- or
    underflows.  The numerator reads only x-bar_m, x-bar_n and the
    continuation: with mu = clip(x-bar_n), the exactly rounded sum of
    log p_mu(x_i) over the continuation plus
    m D(x-bar_m || clip x-bar_m) - m D(x-bar_m || mu), finite where both
    sup-likelihoods are 0 (a 0 among x_1..x_m under Gamma with shape > 1).
    So it is one float for every ordering of the continuation, and so are
    the Bayes and CNML joints.  Exact Bernoulli takes this route too: on 40
    sequences of 300 draws every strategy is within 2.4e-16 relative of the
    mpmath log of ``_exact_joint``'s Fraction, where log(numerator) -
    log(denominator) of that Fraction is up to 1.1e-13 off.
    """
    return _joint_terms(seq.m, *_joint_inputs(family, strategy, seq))[0]


def _log_normalizer(family: Family, strategy: str, seq: ObservationSequence) -> float:
    """L of the joint (``_joint_terms``): where the shared numerator
    sup(x^n) / sup(x^m) is 0, the joints of two strategies, or of two
    orderings, still differ by it."""
    return _joint_terms(seq.m, *_joint_inputs(family, strategy, seq))[1]


def _exact_joint(family: Family, strategy: str, seq: ObservationSequence) -> Fraction | None:
    """The joint of the continuation x_{m+1}..x_n given x_1..x_m as an exact
    Fraction for exact Bernoulli, transformed or not (a counting support has
    no Jacobian), else None.

    It has the shape of the float route: sup(x^n) / sup(x^m) over the
    strategy's normalizer relative to sup(x^m).  With o_t the ones among
    x_1..x_t and S(t, o, k) the exact Shtarkov sum over k more draws, that
    normalizer is the product of S(t, o_t, 1) / sup(x^t) over t = m..n-1
    for SNML, S(m, o_m, n - m) / sup(x^m) for CNML and NML, and C(m) / C(n)
    for Bayes, where C(t) = KT(x^t) / sup(x^t) and
    KT(x^t) = B(o_t + 1/2, t - o_t + 1/2) / pi is the Krichevsky-Trofimov
    mass.  Each is evaluated with its sup-likelihoods cancelled.
    """
    # the untransformed family of no values, so that no value is pulled back twice
    if family._untransformed(())[0] != _EXACT_BERNOULLI:
        return None
    name, _, values, _ = _joint_inputs(family, strategy, seq)
    ones = list(itertools.accumulate((v == 1.0 for v in values), initial=0))
    m, n = seq.m, seq.n
    sup, shtarkov = _bernoulli_sup_fraction, _bernoulli_shtarkov_fraction
    if name == "snml":
        # step by step sup(x^(t+1)) / S(t, o_t, 1), so that the product never holds a sup(x^t)
        steps = (sup(t + 1, ones[t + 1]) / shtarkov(t, ones[t], 1) for t in range(m, n))
        return math.prod(steps, start=Fraction(1))
    if name == "bayes":
        # KT(x^t) = (2 o_t - 1)!! (2 (t - o_t) - 1)!! / (2^t t!)
        kt = [math.prod(range(1, 2 * ones[t], 2)) * math.prod(range(1, 2 * (t - ones[t]), 2)) for t in (m, n)]
        return Fraction(kt[1], kt[0] * 2 ** (n - m) * math.prod(range(m + 1, n + 1)))
    return sup(n, ones[n]) / shtarkov(m, ones[m], n - m)


def _snml_ordering_extremes(
    family: Family, history: tuple[float, ...], continuation: tuple[float, ...]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The orderings of a continuation after a history with the largest and
    the smallest SNML joint, found from their normalizers alone.

    Every ordering has the same numerator, the sup-likelihood of history and
    continuation over that of the history, so its joint is that over the
    product of its one-step normalizers Z, one per proper prefix.  A prefix
    enters Z only as a sub-multiset of the continuation, so F, the sum of
    log Z along an ordering, is a path sum on the lattice of sub-multisets
    (count vectors) from the empty one to the whole: each Z is taken once,
    2^k - 1 of them for k distinct values, and dynamic programming gives an
    ordering with the smallest F (the largest joint) and one with the
    largest F.  Exact Bernoulli takes the product of its exact Z ratios in
    place of F.  Among orderings with equal F the lexicographically first is
    returned.  ``_log_joint`` takes the numerator N once from the two ends
    and sums F in ordering order, as here, so an ordering's log joint is
    N - F exactly: the two orderings' joints are exactly the largest and the
    smallest of all, ties included.  The Z are taken in the untransformed
    family on the pulled-back values.
    """
    m = len(history)
    base, pulled, _ = family._untransformed(history + continuation)
    _require_conditioning(family, m, "snml")
    history_total = sum(map(base._exact_statistic, pulled[:m]))
    # each distinct continuation value and the statistic it pulls back to
    statistic = dict(zip(continuation, map(base._exact_statistic, pulled[m:])))
    values = sorted(statistic)
    counts = tuple(continuation.count(v) for v in values)
    statistics = [statistic[v] for v in values]
    exact = base == _EXACT_BERNOULLI
    combine = operator.mul if exact else operator.add

    # predecessors come first in the product order
    nodes = list(itertools.product(*(range(c + 1) for c in counts)))
    full = nodes[-1]
    weight = {}
    for node in nodes[:-1]:
        n, total = m + sum(node), history_total + sum(map(operator.mul, node, statistics))
        if exact:
            # total counts units of 2^-1074 (Family._exact_statistic)
            ones = total >> 1074
            weight[node] = _bernoulli_shtarkov_fraction(n, ones, 1) / _bernoulli_sup_fraction(n, ones)
        else:
            weight[node] = _snml_log_normalizer(base, n, _history_mean(base, n, total))

    def extreme(sign: int) -> tuple[float, ...]:
        # per node, the best F of a path to it and the lexicographically first
        # ordering that attains it
        best = {nodes[0]: (Fraction(1) if exact else 0.0, ())}
        for node in nodes[1:]:
            steps = ((node[:i] + (j - 1,) + node[i + 1 :], values[i]) for i, j in enumerate(node) if j)
            best[node] = min(
                ((combine(best[p][0], weight[p]), best[p][1] + (v,)) for p, v in steps),
                key=lambda pair: (sign * pair[0], pair[1]),
            )
        return best[full][1]

    return extreme(1), extreme(-1)


def _exp(log_value: float) -> float:
    """exp(log_value): inf where it overflows, 0.0 where it underflows."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def cnml_joint(family: Family, seq: ObservationSequence) -> float | Fraction:
    """Conditional NML joint of x_{m+1}..x_n given x_1..x_m; for continuous
    observations a joint density."""
    return strategy_joint(family, "cnml", seq)


def nml_joint(family: Family, seq: ObservationSequence) -> float | Fraction:
    """Unconditioned NML joint; requires a finite Shtarkov normalizer."""
    return strategy_joint(family, "nml", seq)


def shtarkov_sum(family: Family, n: int) -> Fraction:
    """Exact Shtarkov sum over n draws of Bernoulli on the maximal domain,
    transformed or not (a counting support has no Jacobian)."""
    if family._untransformed(())[0] != _EXACT_BERNOULLI:
        raise DivergentNormalizer("exact Shtarkov sums are available for the maximal Bernoulli family only")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _bernoulli_shtarkov_fraction(0, 0, n)


def strategy_joint(family: Family, strategy: str, seq: ObservationSequence) -> float | Fraction:
    """Joint strategy value of the continuation x_{m+1}..x_n given x_1..x_m:
    the exact Fraction of exact Bernoulli (``_exact_joint``), else the exp of
    ``_log_joint``, inf where it overflows and 0.0 where it underflows."""
    exact = _exact_joint(family, strategy, seq)
    return exact if exact is not None else _exp(_log_joint(family, strategy, seq))


def conditional_regret(family: Family, strategy: str, seq: ObservationSequence) -> RegretRecord:
    """Excess log loss of the strategy over the best single family member in
    hindsight: log sup(x^m) + L, the history's sup-likelihood (its
    log-Jacobians included) plus the strategy's log normalizer relative to
    it (``_joint_terms``).

    The continuation's numerator sup(x^n) / sup(x^m) cancels exactly, so no
    two terms of size n D are subtracted: the CNML regret is one float for
    every continuation of a history and length (NML's equalizer property),
    and the regret is finite wherever L and sup(x^m) are.  Each value is
    pulled back once.  ``strategy_loss`` (minus the log joint) and
    ``best_expert_loglik`` (log sup(x^n)) are reported as they are and may
    be +-inf; the regret equals their sum only up to its rounding, and at
    m = n it is ``best_expert_loglik`` itself.
    """
    name, base, values, log_jacobians = _joint_inputs(family, strategy, seq)
    log_joint, log_normalizer = _joint_terms(seq.m, name, base, values, log_jacobians)
    best, history = (base._sup_log_likelihood(values[:t], log_jacobians[:t]) for t in (seq.n, seq.m))
    # 0.0 - x, not -x: nothing predicted (m = n) loses 0.0, not -0.0
    return RegretRecord(0.0 - log_joint, best, history + log_normalizer, seq.m, seq.n)
