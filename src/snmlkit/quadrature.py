"""Numerical integration against Lebesgue, counting, and mixed base measures.

Thin wrapper over adaptive Gauss-Kronrod quadrature.  An unbounded side is
scanned outward from a peak hint at doubling distances until four probes in a
row lie below 1e-16 of the running peak.  The finite window ends at the first
probe of that run and is integrated with the probes inside it as break
points; the rest of the tail is integrated under the map u = 1/x, so no mass
is cut off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NanIntegrand, NonConvergence

DECAY_FACTOR = 1e-16
_DECAY_RUN = 4


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    subdivisions: int
    truncated_domain: tuple[float, float]


@dataclass(frozen=True)
class MixedMeasure:
    """A density plus point masses, e.g. Lebesgue with an atom at zero."""

    density: Callable[[float], float]
    atoms: tuple[tuple[float, float], ...] = ()


def _truncate_side(f, anchor: float, direction: int, peak: float) -> tuple[float, float, list[float]]:
    """Scan outward from anchor; return (window edge, updated peak, probe points).

    The probes double their distance from the anchor each step.  The scan
    stops after a run of _DECAY_RUN probes below DECAY_FACTOR of the peak,
    and the window edge is the first probe of that run: integrate's 1/x tail
    pass covers everything beyond it.  The edge stays on its side of 0 so the
    1/x map is finite; where the run starts at or across 0 the last probe is
    the edge instead.  The probes up to the edge are reused as integrator
    break points so slowly decaying tails cannot hide between sample points
    of a wide panel.
    """
    step = max(1.0, abs(anchor))
    run = 0
    x = anchor
    probes: list[float] = []
    for _ in range(80):
        x = anchor + direction * step
        fx = abs(f(x))
        if math.isnan(fx):
            raise NanIntegrand(f"integrand returned NaN at x={x!r}")
        probes.append(x)
        peak = max(peak, fx)
        if fx < DECAY_FACTOR * max(peak, 1e-300):
            run += 1
            if run >= _DECAY_RUN:
                edge = probes[-_DECAY_RUN]
                if direction * edge > 0.0:
                    return edge, peak, probes[: -_DECAY_RUN + 1]
                return x, peak, probes
        else:
            run = 0
        step *= 2.0
    side = "right" if direction > 0 else "left"
    raise NonConvergence(f"integrand does not decay on the {side} tail (no cutoff below |x|={x:.3g})")


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
    max_subdivisions: int = 400,
) -> QuadratureResult:
    """Integrate f over an interval, handling unbounded endpoints.

    peak_hint marks where the integrand is expected to be largest; it anchors
    a scan that locates the decaying tail region.  On each unbounded side the
    window ends at the first probe of the final run of decayed probes (see
    _truncate_side).  The bulk is integrated over the window with the probes
    inside it as breakpoints, and each unbounded tail beyond the window is
    integrated separately under the 1/x transform, so slowly decaying tails
    contribute their true mass instead of being cut.
    """
    # imported on first use: scipy.integrate is about half of the package's import time
    from scipy import integrate as _scipy_integrate

    a, b = float(domain[0]), float(domain[1])
    if not a < b:
        raise ValueError(f"empty integration domain ({a}, {b})")

    lo, hi = a, b
    breaks: list[float] = []
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
        if math.isinf(a):
            lo, peak, probes = _truncate_side(f, anchor, -1, peak)
            breaks.extend(probes)
        else:
            lo = a
        if math.isinf(b):
            hi, peak, probes = _truncate_side(f, anchor, +1, peak)
            breaks.extend(probes)
        else:
            hi = b

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
        limit=max_subdivisions,
        points=points,
        full_output=1,
    )
    value, abserr, info = out[0], out[1], out[2]
    subdivisions = int(info["last"])
    warning = out[3] if len(out) > 3 else None

    # The window edges always keep hi > 0 and lo < 0 on unbounded sides, so each
    # discarded tail maps under u = 1/x to a finite window touching zero.
    # That keeps slowly decaying tails resolvable where the native infinite
    # transform would compress their mass into an invisibly thin layer.
    def tail_transformed(u: float) -> float:
        if u == 0.0:
            return 0.0
        x = 1.0 / u
        if math.isinf(x):
            return 0.0
        fx = f(x)
        return fx / (u * u) if math.isfinite(fx) else 0.0

    tails: list[tuple[float, float]] = []
    if math.isinf(b) and hi < b:
        tails.append((0.0, 1.0 / hi))
    if math.isinf(a) and a < lo:
        tails.append((1.0 / lo, 0.0))
    for t_lo, t_hi in tails:
        tail = _scipy_integrate.quad(
            tail_transformed,
            t_lo,
            t_hi,
            epsabs=tol_abs,
            epsrel=tol_rel,
            limit=max_subdivisions,
            full_output=1,
        )
        value += tail[0]
        abserr += tail[1]
        subdivisions += int(tail[2]["last"])
        if len(tail) > 3 and warning is None:
            warning = tail[3]

    if math.isnan(value):
        raise NanIntegrand("integration produced NaN")
    if warning is not None:
        # QUADPACK flagged a problem; accept benign roundoff-limited results.
        bound = max(tol_abs, tol_rel * abs(value)) * 100.0
        if abserr > bound:
            raise NonConvergence(f"quadrature did not converge: {warning}")
    return QuadratureResult(
        value=float(value),
        abs_error_estimate=float(abserr),
        subdivisions=subdivisions,
        truncated_domain=(lo, hi),
    )


def integrate_mixed(
    measure: MixedMeasure,
    weight: Callable[[float], float],
    domain: tuple[float, float],
    tol_abs: float = 1e-10,
    tol_rel: float = 1e-8,
    peak_hint: float | None = None,
) -> QuadratureResult:
    """Integrate weight against density*dx plus the atom masses."""
    atom_total = 0.0
    a, b = domain
    for location, mass in measure.atoms:
        if a <= location <= b:
            atom_total += mass * weight(location)
    cont = integrate(
        lambda x: measure.density(x) * weight(x),
        domain,
        tol_abs=tol_abs,
        tol_rel=tol_rel,
        peak_hint=peak_hint,
    )
    return QuadratureResult(
        value=cont.value + atom_total,
        abs_error_estimate=cont.abs_error_estimate,
        subdivisions=cont.subdivisions,
        truncated_domain=cont.truncated_domain,
    )


def sum_counting(
    f: Callable[[int], float],
    start: int = 0,
    rel_tol: float = 1e-15,
    patience: int = 25,
    max_terms: int = 200_000,
) -> float:
    """Sum f(k) for k = start, start+1, ... until a long run of negligible terms.

    Intended for nonnegative series that eventually decay monotonically
    (likelihood tails over counting measure).
    """
    total = 0.0
    run = 0
    k = start
    for _ in range(max_terms):
        term = f(k)
        if math.isnan(term):
            raise NanIntegrand(f"series term is NaN at k={k}")
        total += term
        if term <= rel_tol * max(total, 1e-300):
            run += 1
            if run >= patience:
                return total
        else:
            run = 0
        k += 1
    raise NonConvergence(f"series did not settle within {max_terms} terms")


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


def grid(lower: float, upper: float, count: int) -> np.ndarray:
    """Evenly spaced interior evaluation points (endpoints excluded)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    edges = np.linspace(lower, upper, count + 2)
    return edges[1:-1]
