"""Numerical integration of unit-Fisher chart integrands, and counting sums.

Thin wrapper over adaptive Gauss-Kronrod quadrature for the integrals the
normalizers take in the unit-Fisher chart based at the clipped
maximum-likelihood mean: every integrand has its bump at beta = 0, and every
window holds 0.  Where the window has an unbounded side, both sides are
scanned outward from 0 at doubling distances until four probes in a row lie
below 1e-16 of the running peak, or a finite side's edge is reached.  On an
unbounded side the finite window ends at the first probe of that run.  The
window is integrated alone, with the probes inside it as break points.  The
mass beyond an unbounded side's edge is bounded by the four decayed probes:
where |x| |f(x)| at least halves from each probe to the next, twice its sum
over them bounds that tail.  A bound of at most 1e-3 of the requested
accuracy is added to the error estimate; any larger one, as for a power tail
x^-p with p <= 2, whose |x| f(x) never halves, raises NonConvergence.

Every integral is asked for one accuracy, max(_ABS_TOL, _REL_TOL |window
value|): the Shtarkov and Jeffreys normalizers that the equivalence of SNML
and Jeffreys-Bayes compares, and the concentration integral of the analyses,
are all taken to the same target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import NanIntegrand, NonConvergence

DECAY_FACTOR = 1e-16
_ABS_TOL = 1e-13
_REL_TOL = 1e-11
_DECAY_RUN = 4
_TAIL_SKIP_FRACTION = 1e-3
_MAX_SUBDIVISIONS = 400
_SERIES_REL_TOL = 1e-15
_SERIES_PATIENCE = 25
_MAX_SERIES_TERMS = 200_000


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    subdivisions: int


def _truncate_side(f, direction: int, peak: float, bound: float) -> tuple[float, float, list[float], float]:
    """Scan outward from 0; return (window edge, updated peak, probe points,
    tail bound).

    The probes start at +-1 and double their distance from 0 each step.  The
    scan stops after a run of _DECAY_RUN probes below DECAY_FACTOR of the
    peak, and the window edge is the first probe of that run.  The probes up
    to the edge are reused as integrator break points so slowly decaying
    tails cannot hide between sample points of a wide panel.  On a finite
    side (bound finite) the edge is the bound.  There the probes up to the
    first decayed one become break points only when the integrand decays
    before the bound, so a bump far from it cannot hide either; a scan that
    reaches the bound first returns none, and the side stays one panel.

    The tail bound is _tail_bound of |x| |f(x)| at the decayed probes of an
    unbounded side, which lie from its edge out; on a finite side, where
    nothing lies beyond the edge, it is 0.
    """
    step = 1.0
    run = 0
    probes: list[float] = []
    weights: list[float] = []
    for _ in range(80):
        x = direction * step
        if direction * (x - bound) >= 0.0:
            return bound, peak, [], 0.0
        fx = abs(f(x))
        if math.isnan(fx):
            raise NanIntegrand(f"integrand returned NaN at x={x!r}")
        probes.append(x)
        weights.append(step * fx)
        peak = max(peak, fx)
        if fx < DECAY_FACTOR * max(peak, 1e-300):
            run += 1
            if run >= _DECAY_RUN:
                if math.isfinite(bound):
                    return bound, peak, probes[: -_DECAY_RUN + 1], 0.0
                return probes[-_DECAY_RUN], peak, probes[: -_DECAY_RUN + 1], _tail_bound(weights[-_DECAY_RUN:])
        else:
            run = 0
        step *= 2.0
    side = "right" if direction > 0 else "left"
    raise NonConvergence(f"integrand does not decay on the {side} tail (last probe x={x:.3g})")


def _tail_bound(weights: Sequence[float]) -> float:
    """Bound on the mass beyond a window edge from the weights |x| |f(x)| of
    the decayed probes from the edge out, or inf where they do not halve.

    The probes double their distance from 0, so the panel from one probe to
    the next holds about the weight of the first.  Where the weight at least
    halves from each probe to the next, and goes on halving, the weights
    beyond the last probe sum to at most the last one, and twice the sum over
    the probes bounds the whole tail.  A power tail x^-p with p <= 2 never
    halves.
    """
    if all(b <= 0.5 * a for a, b in zip(weights, weights[1:])):
        return 2.0 * sum(weights)
    return math.inf


def _peak_scale_probes(f, lo: float, hi: float, central: float) -> list[float]:
    """Bracket the width of the bump at 0 by halving inward from +-1; central
    is |f(0)|.

    A peak much narrower than the panel spacing can slip between the sample
    points of the embedded rule; break points at the bump's own scale force
    panels that resolve it.  Probing stops once the integrand at the probe is
    within half the central value, so smooth O(1)-width integrands pay only a
    couple of extra evaluations.
    """
    if not (math.isfinite(central) and central > 0.0):
        return []
    probes: list[float] = []
    for direction in (1.0, -1.0):
        delta = 1.0
        for _ in range(60):
            x = direction * delta
            if lo < x < hi:
                fx = abs(f(x))
                probes.append(x)
                if math.isfinite(fx) and fx >= 0.5 * central:
                    break
            delta /= 2.0
    return probes


def _guarded(fn: Callable[[float], float]) -> Callable[[float], float]:
    """Make an integrand total on the closed window.

    Adaptive rules can land exactly on an endpoint where the integrand has an
    integrable singularity or the model raises a domain error; those isolated
    points contribute nothing, so they evaluate to 0.  NaN still passes
    through for the integrator's own diagnostics.
    """

    def wrapped(x: float) -> float:
        try:
            value = fn(x)
        except (ValueError, ZeroDivisionError, OverflowError):
            return 0.0
        if math.isinf(value):
            return 0.0
        return value

    return wrapped


def integrate(
    f: Callable[[float], float],
    window: tuple[float, float],
    breaks: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate a chart integrand f, whose bump sits at 0, over a window
    (a, b) with a <= 0 <= b and a < b; any other window raises ValueError.
    The requested accuracy is max(_ABS_TOL, _REL_TOL |value|), the same for
    every integral.

    f is guarded (_guarded): a ValueError, ZeroDivisionError or
    OverflowError it raises, and an inf it returns, read 0.  breaks are points
    where f is known not to be smooth (kinks); they become break points of
    the window, so no panel straddles one, and so does 0.  On each unbounded
    side the window ends at the first probe of the final run of decayed
    probes (see _truncate_side); a finite side is probed up to its edge, so a
    bump far from that edge still gets panels at its own scale.  A window
    whose two edges are both finite is not scanned.  The window is
    integrated alone, with the probes inside it and probes at the bump's own
    scale (_peak_scale_probes) as breakpoints; f is evaluated at 0 once, for
    both.  The mass beyond an unbounded side's edge is the bound the decayed
    probes put on it (_tail_bound): where that is at most 1e-3 of the
    requested accuracy it is added to abs_error_estimate; otherwise, as for a
    power tail x^-p with p <= 2, NonConvergence names the side and its edge.
    QUADPACK's warnings are forgiven where the error estimate is within 100
    times the requested accuracy.
    """
    # imported on first use: scipy.integrate is about half of the package's import time
    from scipy import integrate as _scipy_integrate

    a, b = float(window[0]), float(window[1])
    if not (a <= 0.0 <= b and a < b):
        raise ValueError(f"integration window ({a}, {b}) does not hold 0")

    f = _guarded(f)
    lo, hi = a, b
    breaks = [*breaks, 0.0]
    lo_bound = hi_bound = 0.0
    scanned = math.isinf(a) or math.isinf(b)
    if scanned or a < 0.0 < b:
        # the one evaluation at 0: the scan's first peak and the bump-scale probes' central value
        central = abs(f(0.0))
    if scanned:
        if math.isnan(central):
            raise NanIntegrand("integrand returned NaN at x=0.0")
        lo, peak, probes, lo_bound = _truncate_side(f, -1, central, a)
        breaks.extend(probes)
        hi, peak, probes, hi_bound = _truncate_side(f, +1, peak, b)
        breaks.extend(probes)
    if lo < 0.0 < hi:
        breaks.extend(_peak_scale_probes(f, lo, hi, central))
    points = sorted(x for x in set(breaks) if lo < x < hi) or None

    out = _scipy_integrate.quad(
        f,
        lo,
        hi,
        epsabs=_ABS_TOL,
        epsrel=_REL_TOL,
        limit=_MAX_SUBDIVISIONS,
        points=points,
        full_output=1,
    )
    value, abserr, info = out[0], out[1], out[2]
    warning = out[3] if len(out) > 3 else None

    if math.isnan(value):
        raise NanIntegrand("integration produced NaN")
    accuracy = max(_ABS_TOL, _REL_TOL * abs(value))
    for side, edge, tail_bound in (("right", hi, hi_bound), ("left", lo, lo_bound)):
        if not tail_bound <= _TAIL_SKIP_FRACTION * accuracy:
            raise NonConvergence(
                f"the {side} tail beyond the window edge x={edge:.3g} is not bounded by its decayed probes"
            )
        abserr += tail_bound
    # QUADPACK flagged a problem; accept benign roundoff-limited results
    if warning is not None and abserr > accuracy * 100.0:
        raise NonConvergence(f"quadrature did not converge: {warning}")
    return QuadratureResult(
        value=float(value),
        abs_error_estimate=float(abserr),
        subdivisions=int(info["last"]),
    )


def sum_counting(f: Callable[[int], float], peak: int) -> float:
    """Sum f(k) over the integers k >= 0, outward from peak.

    The sum runs upward from peak until a long run of negligible terms, then
    downward from peak - 1 until such a run or until 0.  Starting at the
    bulk matters: summed from 0, a series whose mass sits at k = 10^4 meets
    25 terms that underflow to 0 before any mass and stops there.  Intended
    for nonnegative series that decay monotonically away from their bulk
    (likelihood tails over counting measure).
    """
    first = max(0, peak)
    total = 0.0
    used = 0
    for k, step in ((first, 1), (first - 1, -1)):
        run = 0
        while k >= 0 and run < _SERIES_PATIENCE:
            if used >= _MAX_SERIES_TERMS:
                raise NonConvergence(f"series did not settle within {_MAX_SERIES_TERMS} terms")
            term = f(k)
            used += 1
            if math.isnan(term):
                raise NanIntegrand(f"series term is NaN at k={k}")
            total += term
            run = run + 1 if term <= _SERIES_REL_TOL * max(total, 1e-300) else 0
            k += step
    return total
