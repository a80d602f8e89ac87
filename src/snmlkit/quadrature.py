"""Numerical integration against Lebesgue and counting measures.

Thin wrapper over adaptive Gauss-Kronrod quadrature.  Where the domain has
an unbounded side, both sides are scanned outward from a peak hint at
doubling distances until four probes in a row lie below 1e-16 of the
running peak, or a finite side's edge is reached.  On an unbounded side the
finite window ends at the first probe of that run.  The window is
integrated alone, with the probes inside it as break points.  The mass
beyond an unbounded side's edge is bounded by the four decayed probes:
where |x - a| |f(x)| at least halves from each probe to the next, a the
scan anchor, twice its sum over them bounds that tail.  A bound of at most
1e-3 of max(tol_abs, tol_rel |window value|) is added to the error
estimate; any larger one, as for a power tail x^-p with p <= 2, whose
|x| f(x) never halves, raises NonConvergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import NanIntegrand, NonConvergence

DECAY_FACTOR = 1e-16
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


def _truncate_side(
    f, anchor: float, direction: int, peak: float, bound: float
) -> tuple[float, float, list[float], float]:
    """Scan outward from anchor; return (window edge, updated peak, probe
    points, tail bound).

    The probes double their distance from the anchor each step.  The scan
    stops after a run of _DECAY_RUN probes below DECAY_FACTOR of the peak,
    and the window edge is the first probe of that run.  The probes up to
    the edge are reused as integrator break points so slowly
    decaying tails cannot hide between sample points of a wide panel.  On a
    finite side (bound finite) the edge is the bound.  There the probes up to
    the first decayed one become break points only when the integrand decays
    before the bound, so a bump far from it cannot hide either; a scan that
    reaches the bound first returns none, and the side stays one panel.

    The tail bound is _tail_bound of |x - anchor| |f(x)| at the decayed probes
    of an unbounded side, which lie from its edge out; on a finite side,
    where nothing lies beyond the edge, it is 0.
    """
    step = max(1.0, abs(anchor))
    run = 0
    x = anchor
    probes: list[float] = []
    weights: list[float] = []
    for _ in range(80):
        x = anchor + direction * step
        if direction * (x - bound) >= 0.0:
            return bound, peak, [], 0.0
        fx = abs(f(x))
        if math.isnan(fx):
            raise NanIntegrand(f"integrand returned NaN at x={x!r}")
        probes.append(x)
        weights.append(abs(x - anchor) * fx)
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
    raise NonConvergence(
        f"integrand does not decay on the {side} tail (last probe x={x:.3g}, "
        f"{abs(x - anchor):.3g} from the anchor {anchor:.3g})"
    )


def _tail_bound(weights: Sequence[float]) -> float:
    """Bound on the mass beyond a window edge from the weights
    |x - anchor| |f(x)| of the decayed probes from the edge out, or inf where
    they do not halve.

    The probes double their distance from the anchor, so the panel from one
    probe to the next holds about the weight of the first.  Where the weight
    at least halves from each probe to the next, and goes on halving, the
    weights beyond the last probe sum to at most the last one, and twice the
    sum over the probes bounds the whole tail.  A power tail x^-p with p <= 2
    never halves.
    """
    if all(b <= 0.5 * a for a, b in zip(weights, weights[1:])):
        return 2.0 * sum(weights)
    return math.inf


def _peak_scale_probes(f, center: float, lo: float, hi: float) -> list[float]:
    """Bracket the width of the bump at center by halving inward.

    A peak much narrower than the panel spacing can slip between the sample
    points of the embedded rule; break points at the bump's own scale force
    panels that resolve it.  Probing stops once the integrand at the probe is
    within half the central value, so smooth O(1)-width integrands pay only a
    couple of extra evaluations.
    """
    central = abs(f(center))
    if not (math.isfinite(central) and central > 0.0):
        return []
    probes: list[float] = []
    for direction in (1.0, -1.0):
        delta = max(1.0, abs(center))
        for _ in range(60):
            x = center + direction * delta
            if x != center and lo < x < hi:
                fx = abs(f(x))
                probes.append(x)
                if math.isfinite(fx) and fx >= 0.5 * central:
                    break
            delta /= 2.0
    return probes


def integrate(
    f: Callable[[float], float],
    domain: tuple[float, float],
    tol_abs: float = 1e-10,
    tol_rel: float = 1e-8,
    peak_hint: float | None = None,
    breaks: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate f over an interval, handling unbounded endpoints.

    peak_hint marks where the integrand is expected to be largest; it anchors
    a scan that locates the decaying tail region.  breaks are points where f
    is known not to be smooth (kinks); they become break points of the
    window, so no panel straddles one.  On each unbounded side the
    window ends at the first probe of the final run of decayed probes (see
    _truncate_side); a finite side is probed up to its edge, so a bump far
    from that edge still gets panels at its own scale.  The window is
    integrated alone, with the probes inside it as breakpoints.  The mass
    beyond an unbounded side's edge is the bound the decayed probes put on
    it (_tail_bound): where that is at most 1e-3 of max(tol_abs, tol_rel
    |window value|) it is added to abs_error_estimate; otherwise, as for a
    power tail x^-p with p <= 2, NonConvergence names the side and its edge.
    """
    # imported on first use: scipy.integrate is about half of the package's import time
    from scipy import integrate as _scipy_integrate

    a, b = float(domain[0]), float(domain[1])
    if not a < b:
        raise ValueError(f"empty integration domain ({a}, {b})")

    lo, hi = a, b
    breaks = list(breaks)
    lo_bound = hi_bound = 0.0
    if math.isinf(a) or math.isinf(b):
        if peak_hint is not None and a < peak_hint < b:
            anchor = peak_hint
        elif not math.isinf(a):
            anchor = a + 1.0
        elif not math.isinf(b):
            anchor = b - 1.0
        else:
            anchor = 0.0
        peak = abs(f(anchor))
        if math.isnan(peak):
            raise NanIntegrand(f"integrand returned NaN at x={anchor!r}")
        lo, peak, probes, lo_bound = _truncate_side(f, anchor, -1, peak, a)
        breaks.extend(probes)
        hi, peak, probes, hi_bound = _truncate_side(f, anchor, +1, peak, b)
        breaks.extend(probes)

    if peak_hint is not None:
        breaks.append(peak_hint)
        if lo < peak_hint < hi:
            breaks.extend(_peak_scale_probes(f, peak_hint, lo, hi))
    points = sorted(x for x in set(breaks) if lo < x < hi) or None

    out = _scipy_integrate.quad(
        f,
        lo,
        hi,
        epsabs=tol_abs,
        epsrel=tol_rel,
        limit=_MAX_SUBDIVISIONS,
        points=points,
        full_output=1,
    )
    value, abserr, info = out[0], out[1], out[2]
    warning = out[3] if len(out) > 3 else None

    if math.isnan(value):
        raise NanIntegrand("integration produced NaN")
    negligible = _TAIL_SKIP_FRACTION * max(tol_abs, tol_rel * abs(value))
    for side, edge, tail_bound in (("right", hi, hi_bound), ("left", lo, lo_bound)):
        if not tail_bound <= negligible:
            raise NonConvergence(
                f"the {side} tail beyond the window edge x={edge:.3g} is not bounded by its decayed probes"
            )
        abserr += tail_bound
    if warning is not None:
        # QUADPACK flagged a problem; accept benign roundoff-limited results.
        bound = max(tol_abs, tol_rel * abs(value)) * 100.0
        if abserr > bound:
            raise NonConvergence(f"quadrature did not converge: {warning}")
    return QuadratureResult(
        value=float(value),
        abs_error_estimate=float(abserr),
        subdivisions=int(info["last"]),
    )


def sum_counting(
    f: Callable[[int], float],
    start: int = 0,
    peak: int | None = None,
) -> float:
    """Sum f(k) over the integers k >= start, outward from peak (default start).

    The sum runs upward from peak until a long run of negligible terms, then
    downward from peak - 1 until such a run or until start.  Starting at the
    bulk matters: summed from start, a series whose mass sits at k = 10^4
    meets 25 terms that underflow to 0 before any mass and stops at 0.
    Intended for nonnegative series that decay monotonically away from their
    bulk (likelihood tails over counting measure).
    """
    first = start if peak is None else max(start, int(peak))
    total = 0.0
    used = 0
    for k, step in ((first, 1), (first - 1, -1)):
        run = 0
        while k >= start and run < _SERIES_PATIENCE:
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


def guarded(fn: Callable[[float], float]) -> Callable[[float], float]:
    """Make an integrand total on the closed domain.

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


def laplace_reference(n: float, boundary: bool = False) -> float:
    """Leading Laplace value of a unit-Fisher concentration integral.

    sqrt(2*pi/n) for an interior point, half that when the point sits on the
    domain boundary (half of the mass bump is cut off).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    value = math.sqrt(2.0 * math.pi / n)
    return 0.5 * value if boundary else value
