"""Constancy, exchangeability, Laplace, and variance-function analyses.

Every check returns an AnalysisReport: the evaluation grid, the per-point
values, a deviation against a reference, and a three-way verdict.  ``Constant``
means the deviation stays within tolerance relative to max(1, |reference|);
``NonConstant`` means it exceeds the failure threshold; anything in between is
``Inconclusive``.

The variance-function checks work on a VarianceFunctionSpec: either a closed
form (differentiated symbolically) or a table (not-a-knot quintic spline
interpolant, differentiated exactly as the piecewise polynomial it is).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import _json, quadrature
from ._expression import derivative_functions
from ._spline import QuinticSpline
from .errors import DifferentiationError, DomainError
from .families import Family, ObservationSequence
from .strategies import _concentration_integral, _exact_joint, _exp, _log_joint, _snml_ordering_extremes


class Verdict(str, Enum):
    CONSTANT = "Constant"
    NON_CONSTANT = "NonConstant"
    INCONCLUSIVE = "Inconclusive"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _jsonable(obj):
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _jsonable(getattr(obj, k)) for k in obj.__dataclass_fields__}
    return obj


@dataclass(frozen=True)
class AnalysisReport:
    """Outcome of a grid check.

    The verdict invariant: Constant iff max_abs_deviation is at most
    tolerance_used * max(1, |reference_value|).  For checks that compare
    against an asymptotic limit the stored deviation is the one the verdict is
    judged on (documented per check).
    """

    grid: tuple
    values: tuple
    max_abs_deviation: float
    reference_value: float
    verdict: Verdict
    tolerance_used: float
    details: dict = field(default_factory=dict)

    @staticmethod
    def _judge(deviation: float, scale: float, tolerance: float, fail_threshold: float) -> Verdict:
        if deviation <= tolerance * scale:
            return Verdict.CONSTANT
        if deviation >= fail_threshold * scale:
            return Verdict.NON_CONSTANT
        return Verdict.INCONCLUSIVE

    @classmethod
    def from_values(
        cls,
        grid: Sequence,
        values: Sequence[float],
        tolerance: float,
        fail_threshold: float,
        reference: float | None = None,
        details: dict | None = None,
    ) -> "AnalysisReport":
        values = tuple(float(v) for v in values)
        if not values:
            raise DomainError("a report needs at least one grid value")
        ref = float(reference) if reference is not None else math.fsum(values) / len(values)
        deviation = max(abs(v - ref) for v in values)
        scale = max(1.0, abs(ref))
        verdict = cls._judge(deviation, scale, tolerance, fail_threshold)
        return cls(
            grid=tuple(grid),
            values=values,
            max_abs_deviation=deviation,
            reference_value=ref,
            verdict=verdict,
            tolerance_used=float(tolerance),
            details=dict(details or {}),
        )

    def deviations(self) -> tuple[float, ...]:
        return tuple(abs(v - self.reference_value) for v in self.values)

    def to_dict(self) -> dict:
        return {
            "grid": _jsonable(self.grid),
            "values": _jsonable(self.values),
            "max_abs_deviation": self.max_abs_deviation,
            "reference_value": self.reference_value,
            "verdict": self.verdict.value,
            "tolerance_used": self.tolerance_used,
            "details": _jsonable(self.details),
        }

    def to_json(self, indent: int | None = None) -> str:
        return _json.dumps(self.to_dict(), indent=indent)

    def to_csv(self) -> str:
        lines = ["point,value,deviation"]
        for point, value, dev in zip(self.grid, self.values, self.deviations()):
            if isinstance(point, (tuple, list, np.ndarray)):
                cell = '"' + " ".join(_fmt(p) for p in point) + '"'
            else:
                cell = _fmt(point)
            lines.append(f"{cell},{_fmt(value)},{_fmt(dev)}")
        return "\n".join(lines) + "\n"


def parse_report_csv(text: str) -> tuple[tuple, tuple, tuple]:
    """Parse to_csv output back into (grid, values, deviations)."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != "point,value,deviation":
        raise ValueError("not an AnalysisReport CSV (missing header)")
    grid, values, deviations = [], [], []
    for ln in lines[1:]:
        if ln.startswith('"'):
            closing = ln.index('"', 1)
            point = tuple(float(p) for p in ln[1:closing].split())
            rest = ln[closing + 2 :]
        else:
            cell, rest = ln.split(",", 1)
            point = float(cell)
        value_s, dev_s = rest.split(",")
        grid.append(point)
        values.append(float(value_s))
        deviations.append(float(dev_s))
    return tuple(grid), tuple(values), tuple(deviations)


# ---- concentration integrals ------------------------------------------------


def _integer(name: str, value, least: int) -> int:
    """value as an int; DomainError naming the argument unless it is an
    integer of at least least (0 or 1)."""
    if not (value >= least and float(value).is_integer()):
        raise DomainError(f"{name} must be a {'positive' if least else 'nonnegative'} integer, got {value!r}")
    return int(value)


_CONDITION_TOL_ABS = 1e-12
_CONDITION_TOL_REL = 1e-10


def condition_integral(family: Family, mu0: float, n: int) -> float:
    """Integral of exp(-n KL(mu0 || mu)) / sigma(mu) over the mean domain.

    It is taken in the unit-Fisher chart based at mu0 (just inside, at an
    endpoint), where 1/sigma(mu) d mu is d beta: the integral of
    exp(-n KL(mu0 || mu(beta))) over the image of the mean domain.  This is
    the Jeffreys posterior normalizer of n observations with mean mu0, taken
    by the same code in the family under all its transforms, so it raises
    ImproperPosterior where the integral does not settle or is 0 or inf.
    """
    n = _integer("n", n, 1)
    mu0 = family._check_mean(mu0, interior=True)
    return _concentration_integral(family._untransformed(())[0], n, mu0, _CONDITION_TOL_ABS, _CONDITION_TOL_REL)


def check_constancy(
    family: Family,
    n: int,
    mu0_grid: Sequence[float],
    tolerance: float = 1e-4,
    fail_threshold: float = 5e-3,
) -> AnalysisReport:
    """Evaluate the concentration integral across mu0 values.

    A 0.5% max deviation from the grid mean is a 1% total spread, the
    separation the negative cases are expected to clear.
    """
    grid = tuple(float(m) for m in mu0_grid)
    if len(grid) < 1:
        raise DomainError("mu0 grid is empty")
    values = [condition_integral(family, mu0, n) for mu0 in grid]
    return AnalysisReport.from_values(grid, values, tolerance, fail_threshold, details={"n": int(n)})


def laplace_asymptotics_check(
    family: Family,
    mu0: float,
    position: str = "interior",
    n_list: Sequence[int] = (2, 5, 10, 20, 50),
    fail_threshold: float | None = None,
) -> AnalysisReport:
    """Ratios of the concentration integral to its Laplace reference.

    The reference is sqrt(2*pi/n), halved when mu0 sits on a (restricted)
    domain boundary.  The verdict judges the final ratio only, with tolerance
    5/n_last; the stored deviation is that final-n deviation.
    """
    pos = str(position).strip().lower()
    if pos not in ("interior", "boundary"):
        raise DomainError(f"position must be 'interior' or 'boundary', got {position!r}")
    boundary = pos == "boundary"
    n_list = tuple(_integer("n", n, 1) for n in n_list)
    if not n_list:
        raise DomainError("n_list must hold positive integers")
    lo, hi = family.mean_domain.bounds()
    if boundary:
        if not (mu0 == lo or mu0 == hi) or not math.isfinite(mu0):
            raise DomainError(f"mu0={mu0!r} is not a finite endpoint of the mean domain ({lo}, {hi})")
    elif not lo < mu0 < hi:
        raise DomainError(f"mu0={mu0!r} is not interior to the mean domain ({lo}, {hi})")

    ratios = [condition_integral(family, mu0, n) / quadrature.laplace_reference(n, boundary) for n in n_list]
    tolerance = 5.0 / n_list[-1]
    fail = fail_threshold if fail_threshold is not None else max(0.25, 2.0 * tolerance)
    deviation = abs(ratios[-1] - 1.0)
    verdict = AnalysisReport._judge(deviation, 1.0, tolerance, fail)
    return AnalysisReport(
        grid=n_list,
        values=tuple(ratios),
        max_abs_deviation=deviation,
        reference_value=1.0,
        verdict=verdict,
        tolerance_used=tolerance,
        details={"position": pos, "mu0": float(mu0)},
    )


# ---- exchangeability ---------------------------------------------------------


def _spread(joints: Sequence[tuple[float, Fraction | None]]) -> tuple[float, int, int]:
    """(max - min) / max over joints given as (log joint, exact joint or None),
    with the indices of the first max and the last min, so that tied joints
    name two orderings.

    Exact joints give an exact spread.  Otherwise the spread is -expm1 of the
    log difference, which holds where both joints underflow; a tie reads 0.0.
    """
    exact = all(e is not None for _, e in joints)
    key = (lambda i: joints[i][1]) if exact else (lambda i: joints[i][0])
    hi = max(range(len(joints)), key=key)
    lo = min(reversed(range(len(joints))), key=key)
    (log_top, top), (log_low, low) = joints[hi], joints[lo]
    if exact:
        return float((top - low) / top), hi, lo
    # 0.0 - expm1(0.0) is 0.0, where -expm1(0.0) is -0.0
    return (0.0 - math.expm1(log_low - log_top) if log_top > -math.inf else 0.0), hi, lo


def exchangeability_test(
    family: Family,
    m: int,
    n: int,
    test_set: str = "random",
    *,
    count: int = 20,
    seed: int = 0,
    history: Sequence[float] | None = None,
    continuations: Sequence[Sequence[float]] | None = None,
    sample_mean: float | None = None,
    tolerance: float = 1e-6,
    fail_threshold: float = 1e-3,
) -> AnalysisReport:
    """Max relative spread of SNML joints across permutations of x_{m+1}..x_n.

    ``all-discrete`` enumerates every history multiset and continuation
    multiset over a finite support (an SNML joint sees its history only
    through the multiset, so each ordering of a history gives the same
    spread); ``random`` draws ``count``
    continuations (and the history, unless given) at ``sample_mean``;
    explicit ``continuations`` override the test set.

    Every ordering of a continuation has the same SNML numerator, one float
    from the two ends of the sequence, so the normalizers alone decide which
    orderings have the largest and the smallest joint.  The prefixes of all
    orderings are the proper sub-multisets of the continuation, so a case
    costs 2^k - 1 one-step normalizers for k distinct values (fewer where
    values repeat), and dynamic programming over them finds both orderings
    without a walk over the k! orderings.  Among orderings with equal
    normalizers the lexicographically first is taken.  The two witnesses'
    joints are exactly the largest and the smallest joint over all
    orderings, ties included.  A continuation with at most two
    orderings has both as its witnesses.  The spread is that of the two
    witness joints, each computed once per route: exact for exact
    Bernoulli, else -expm1 of their log difference, and 0 where both joints
    are 0.  The worst witness pair is recorded in details, with its joints
    and their logs, which come from the float route for every family: the
    joints may underflow to 0 where the logs still show the spread.
    """
    m, n, count = _integer("m", m, 0), _integer("n", n, 0), _integer("count", count, 1)
    if not m < n:
        raise DomainError(f"need 0 <= m < n, got m={m}, n={n}")
    free = n - m
    mode = str(test_set).strip().lower().replace("_", "-")

    cases: list[tuple[tuple[float, ...], tuple[float, ...]]] = []
    if continuations is not None:
        hist = tuple(float(v) for v in history) if history is not None else ()
        if len(hist) != m:
            raise DomainError(f"explicit continuations need a history of length m={m}")
        for cont in continuations:
            cont = tuple(float(v) for v in cont)
            if len(cont) != free:
                raise DomainError(f"continuation {cont!r} does not have length n-m={free}")
            cases.append((hist, cont))
    elif mode in ("all-discrete", "alldiscrete"):
        if history is not None:
            raise DomainError("all-discrete enumerates every history; give a history with explicit continuations")
        support = family.finite_support
        if support is None:
            raise DomainError(f"kind {family.kind} has no finite support; use the random test set")
        if len(support) ** n > 4096:
            raise DomainError(f"enumerating {len(support)}^{n} sequences is above the supported size")
        for hist in itertools.combinations_with_replacement(support, m):
            for multiset in itertools.combinations_with_replacement(support, free):
                cases.append((hist, multiset))
    elif mode == "random":
        rng = np.random.default_rng(seed)
        mean = float(sample_mean) if sample_mean is not None else family.default_reference()
        if history is not None:
            hist = tuple(float(v) for v in history)
            if len(hist) != m:
                raise DomainError(f"history must have length m={m}")
        else:
            hist = tuple(float(v) for v in family.sample(mean, m, rng))
        for _ in range(count):
            cases.append((hist, tuple(float(v) for v in family.sample(mean, free, rng))))
    else:
        raise DomainError(f"unknown test set {test_set!r}; expected 'all-discrete' or 'random'")

    grid: list[tuple[float, ...]] = []
    values: list[float] = []
    witness: dict | None = None
    worst = -1.0
    for hist, cont in cases:
        if len(cont) <= 2 or len(set(cont)) == 1:
            # at most two orderings, and both are witnesses.  Their two joints
            # cost less than the lattice and its exact Fractions: through the
            # lattice the all-discrete Bernoulli check (m = 1, n = 3) took
            # 0.90-0.96 ms, against 0.52 ms (Xeon, 2 CPUs)
            orderings = sorted(set(itertools.permutations(cont)))
        else:
            orderings = sorted(set(_snml_ordering_extremes(family, hist, cont)))
        seqs = [ObservationSequence(hist + p, m) for p in orderings]
        joints = [(_log_joint(family, "snml", s), _exact_joint(family, "snml", s)) for s in seqs]
        spread, hi_i, lo_i = _spread(joints)
        grid.append(cont)
        values.append(spread)
        if spread > worst:
            worst = spread
            witness = {"history": list(hist)}
            for label, i in (("max", hi_i), ("min", lo_i)):
                log_joint, exact = joints[i]
                witness[f"{label}_ordering"] = list(orderings[i])
                witness[f"{label}_joint"] = exact if exact is not None else _exp(log_joint)
                witness[f"{label}_log_joint"] = log_joint
    details = {"m": m, "n": n, "strategy": "snml", "witness": witness}
    return AnalysisReport.from_values(grid, values, tolerance, fail_threshold, reference=0.0, details=details)


def bayes_cnml_agreement(
    family: Family,
    m: int,
    n: int,
    sequences: Iterable[Sequence[float] | ObservationSequence],
    tolerance: float = 1e-4,
    fail_threshold: float = 1e-2,
) -> AnalysisReport:
    """Relative gap between the Jeffreys posterior-predictive joint and CNML.

    details holds both joints of each sequence and their logs (``log_cnml``,
    ``log_bayes``), which still show the gap where the joints underflow.
    """
    m, n = _integer("m", m, 0), _integer("n", n, 0)
    seqs: list[ObservationSequence] = []
    for s in sequences:
        if not isinstance(s, ObservationSequence):
            s = ObservationSequence(tuple(float(v) for v in s), m)
        if s.m != m or s.n != n:
            raise DomainError(f"sequence {s.values!r} does not match m={m}, n={n}")
        seqs.append(s)
    if not seqs:
        raise DomainError("no sequences supplied")
    gaps, cnml_values, bayes_values, cnml_logs, bayes_logs = [], [], [], [], []
    for s in seqs:
        log_c, log_b = _log_joint(family, "cnml", s), _log_joint(family, "bayes", s)
        cnml_values.append(_exp(log_c))
        bayes_values.append(_exp(log_b))
        cnml_logs.append(log_c)
        bayes_logs.append(log_b)
        # |b - c| / c, which holds where both joints underflow
        gaps.append(abs(math.expm1(log_b - log_c)) if log_b != log_c else 0.0)
    details = {
        "m": m,
        "n": n,
        "cnml": cnml_values,
        "bayes": bayes_values,
        "log_cnml": cnml_logs,
        "log_bayes": bayes_logs,
    }
    return AnalysisReport.from_values(
        [s.values for s in seqs], gaps, tolerance, fail_threshold, reference=0.0, details=details
    )


# ---- variance functions ------------------------------------------------------


@dataclass(frozen=True)
class DerivativeBundle:
    """Divergence derivatives in the unit-Fisher chart at one mean point.

    d2..d6 are the Taylor coefficients D_k of the divergence from the point;
    they reduce to polynomials in sigma and its first four mean-derivatives.
    c is the constant of the second-order condition when the grid sweep found
    one, else None.
    """

    mu: float
    sigma: float
    sigma_derivs: tuple[float, float, float, float]
    d2: float
    d3: float
    d4: float
    d5: float
    d6: float
    c: float | None = None


def _bundle_from_profile(mu: float, profile: tuple[float, float, float, float, float], c: float | None) -> DerivativeBundle:
    s, s1, s2, s3, s4 = profile
    d3 = -s1
    d4 = s1 * s1 - 2.0 * s * s2
    d5 = -(s1**3) + 2.0 * s * s1 * s2 - 3.0 * s * s * s3
    d6 = s1**4 - 4.0 * s * s1 * s1 * s2 - 3.0 * s * s * s1 * s3 + 4.0 * s * s * s2 * s2 - 4.0 * s**3 * s4
    return DerivativeBundle(
        mu=float(mu),
        sigma=s,
        sigma_derivs=(s1, s2, s3, s4),
        d2=1.0,
        d3=d3,
        d4=d4,
        d5=d5,
        d6=d6,
        c=c,
    )


class VarianceFunctionSpec:
    """A positive variance function V(mu) on a bounded open interval.

    ``closed`` takes an expression in ``mu`` (numbers, + - * / ** or ^,
    parentheses, exp, log and sqrt; anything else raises DomainError before
    it is evaluated) and differentiates its tree exactly; ``from_table``
    interpolates sigma = sqrt(V) through (mu, V) samples with a not-a-knot
    quintic spline (``_spline.QuinticSpline``), whose derivatives are those of
    its own polynomial pieces.  A table's profiles for a whole grid take one
    spline evaluation, and are defined on the whole table, its ends included.

    ``sigma_fn`` maps a mean to sigma; ``profiles_fn`` maps a list of means
    to their profiles.
    """

    def __init__(self, label, domain, sigma_fn, profiles_fn, kind, default_tolerance):
        lo, hi = float(domain[0]), float(domain[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise DomainError(f"variance domain must be a bounded interval, got {domain!r}")
        self.label = label
        self.domain = (lo, hi)
        self.kind = kind
        self.default_tolerance = default_tolerance
        self._sigma_fn = sigma_fn
        self._profiles_fn = profiles_fn
        grid = self.default_grid(7)
        try:
            profiles = self.sigma_profiles(grid)
        except DifferentiationError as exc:
            raise DomainError(f"variance spec invalid on its domain: {exc}") from exc
        for mu, profile in zip(grid, profiles):
            v = profile[0] * profile[0]
            if not v > 0:
                raise DomainError(f"variance must be positive on the domain; V({mu}) = {v}")

    @classmethod
    def closed(cls, expression, domain, label: str | None = None) -> "VarianceFunctionSpec":
        # sqrt(V) of a perfect square is |.|, whose higher derivatives are
        # distributions.  Differentiating V itself stays smooth; the sigma
        # derivatives then follow from the exact identities obtained by
        # differentiating sigma^2 = V.
        text, funcs = derivative_functions(expression, 5)

        def derivatives(mu: float, count: int) -> list[float]:
            """V and its first count - 1 derivatives at mu, V positive."""
            try:
                out = [float(f(mu)) for f in funcs[:count]]
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise DifferentiationError(f"variance derivative undefined at mu={mu}: {exc}") from exc
            if not out[0] > 0:
                raise DifferentiationError(f"variance must be positive, got V({mu}) = {out[0]}")
            return out

        def sigma(mu: float) -> float:
            return math.sqrt(derivatives(mu, 1)[0])

        def profile(mu: float) -> tuple[float, float, float, float, float]:
            v, v1, v2, v3, v4 = derivatives(mu, 5)
            s = math.sqrt(v)
            s1 = v1 / (2.0 * s)
            s2 = (v2 - 2.0 * s1 * s1) / (2.0 * s)
            s3 = (v3 - 6.0 * s1 * s2) / (2.0 * s)
            s4 = (v4 - 6.0 * s2 * s2 - 8.0 * s1 * s3) / (2.0 * s)
            return (s, s1, s2, s3, s4)

        def profiles(mus: list[float]) -> list[tuple[float, float, float, float, float]]:
            return [profile(mu) for mu in mus]

        return cls(label or text, domain, sigma, profiles, "closed", default_tolerance=1e-6)

    @classmethod
    def from_table(cls, mu_values, v_values, label: str | None = None) -> "VarianceFunctionSpec":
        """The spec of a (mu, V) table: sigma = sqrt(V) is interpolated by the
        not-a-knot quintic spline on the knots of scipy's
        ``make_interp_spline(mu, sigma, k=5)``, at least 12 rows, and its
        profiles are the spline's own derivatives."""
        mu_arr = np.asarray(mu_values, dtype=float)
        v_arr = np.asarray(v_values, dtype=float)
        if mu_arr.ndim != 1 or mu_arr.shape != v_arr.shape:
            raise DomainError("mu and V tables must be equal-length vectors")
        if len(mu_arr) < 12:
            raise DomainError(f"need at least 12 table rows for stable fourth derivatives, got {len(mu_arr)}")
        if not np.all(np.diff(mu_arr) > 0):
            raise DomainError("mu table must be strictly increasing")
        if not np.all(np.isfinite(v_arr)):
            i = int(np.argmin(np.isfinite(v_arr)))
            raise DomainError(f"V table must be finite; row {i + 1} has V({float(mu_arr[i])!r}) = {float(v_arr[i])!r}")
        if not np.all(v_arr > 0):
            raise DomainError("V table must be positive")
        spline = QuinticSpline(mu_arr, np.sqrt(v_arr))

        def sigma(mu: float) -> float:
            return float(spline(mu))

        def profiles(mus: list[float]) -> list[tuple[float, float, float, float, float]]:
            return list(zip(*(row.tolist() for row in spline.derivatives(np.array(mus), 5))))

        domain = (float(mu_arr[0]), float(mu_arr[-1]))
        return cls(label or "tabulated", domain, sigma, profiles, "tabulated", default_tolerance=1e-3)

    def sigma_profiles(self, grid: Sequence[float]) -> list[tuple[float, float, float, float, float]]:
        """(sigma, sigma', sigma'', sigma''', sigma'''') at every point of a grid."""
        mus = [float(mu) for mu in grid]
        lo, hi = self.domain
        for mu in mus:
            if not lo <= mu <= hi:
                raise DomainError(f"mu={mu} outside the variance domain {self.domain}")
        return self._profiles_fn(mus)

    def sigma_profile(self, mu: float) -> tuple[float, float, float, float, float]:
        return self.sigma_profiles((mu,))[0]

    def sigma_at(self, mu: float) -> float:
        lo, hi = self.domain
        if not lo <= mu <= hi:
            raise DomainError(f"mu={mu} outside the variance domain {self.domain}")
        return self._sigma_fn(float(mu))

    def variance_at(self, mu: float) -> float:
        s = self.sigma_at(mu)
        return s * s

    def default_grid(self, count: int) -> tuple[float, ...]:
        lo, hi = self.domain
        pad = 0.05 * (hi - lo)
        return tuple(np.linspace(lo + pad, hi - pad, count))

    def __repr__(self) -> str:
        return f"VarianceFunctionSpec({self.label!r}, domain={self.domain}, kind={self.kind})"


def sigma_ode_check(
    vf: VarianceFunctionSpec,
    mu_grid: Sequence[float] | None = None,
    tolerance: float | None = None,
    fail_threshold: float = 1e-2,
) -> AnalysisReport:
    """Constancy of g(mu) = (sigma')^2 + 3 sigma sigma'' across the grid.

    When constant, the shared value is reported as c (reference_value and
    details["c"]); a DerivativeBundle per grid point sits in details.
    """
    grid = tuple(float(m) for m in (mu_grid if mu_grid is not None else vf.default_grid(9)))
    tol = tolerance if tolerance is not None else vf.default_tolerance
    profiles = vf.sigma_profiles(grid)
    g_values = [p[1] * p[1] + 3.0 * p[0] * p[2] for p in profiles]
    report = AnalysisReport.from_values(grid, g_values, tol, fail_threshold)
    c = report.reference_value if report.verdict is Verdict.CONSTANT else None
    bundles = tuple(_bundle_from_profile(mu, p, c) for mu, p in zip(grid, profiles))
    return replace(report, details={**report.details, "c": c, "bundles": bundles, "label": vf.label})


def higher_order_check(
    vf: VarianceFunctionSpec,
    mu_grid: Sequence[float] | None = None,
    tolerance: float | None = None,
    fail_threshold: float = 1e-2,
) -> AnalysisReport:
    """Constancy of the higher-order divergence combinations.

    Checks 5*D3^2 - 3*D4 (fifth order) and
    385*D3^4 + 105*D4^2 - 24*D6 - 630*D3^2*D4 + 168*D3*D5 (seventh order) on
    the grid; when the second-order check found a constant c, the seventh-order
    values are also matched against the reduced form -(64/3)*c'*(sigma')^2 +
    41*c'^2 with c' = (2/3)c.  The top-level values are the seventh-order
    combination; the verdict is Constant only when every tested combination is
    constant, judged through a shared normalized deviation.
    """
    grid = tuple(float(m) for m in (mu_grid if mu_grid is not None else vf.default_grid(9)))
    tol = tolerance if tolerance is not None else vf.default_tolerance
    ode = sigma_ode_check(vf, grid, tolerance=tol, fail_threshold=fail_threshold)
    bundles: tuple[DerivativeBundle, ...] = ode.details["bundles"]

    fifth = [5.0 * b.d3 * b.d3 - 3.0 * b.d4 for b in bundles]
    seventh = [
        385.0 * b.d3**4 + 105.0 * b.d4**2 - 24.0 * b.d6 - 630.0 * b.d3**2 * b.d4 + 168.0 * b.d3 * b.d5
        for b in bundles
    ]
    fifth_report = AnalysisReport.from_values(grid, fifth, tol, fail_threshold)
    seventh_report = AnalysisReport.from_values(grid, seventh, tol, fail_threshold)

    # one normalized deviation drives the conjunction verdict
    normalized = [
        fifth_report.max_abs_deviation / max(1.0, abs(fifth_report.reference_value)),
        seventh_report.max_abs_deviation / max(1.0, abs(seventh_report.reference_value)),
    ]
    reduced_detail = None
    if ode.verdict is Verdict.CONSTANT:
        c_unit = (2.0 / 3.0) * ode.reference_value
        reduced = [
            -(64.0 / 3.0) * c_unit * b.sigma_derivs[0] ** 2 + 41.0 * c_unit * c_unit for b in bundles
        ]
        mismatch = max(abs(s - r) for s, r in zip(seventh, reduced))
        scale = max(1.0, abs(seventh_report.reference_value))
        normalized.append(mismatch / scale)
        reduced_detail = {
            "values": reduced,
            "max_mismatch": mismatch,
            "verdict": AnalysisReport._judge(mismatch, scale, tol, fail_threshold),
        }

    scale7 = max(1.0, abs(seventh_report.reference_value))
    deviation = max(normalized) * scale7
    verdict = AnalysisReport._judge(deviation, scale7, tol, fail_threshold)
    details = {
        "label": vf.label,
        "fifth_order": {
            "values": fifth,
            "reference_value": fifth_report.reference_value,
            "verdict": fifth_report.verdict,
        },
        "seventh_order": {
            "values": seventh,
            "reference_value": seventh_report.reference_value,
            "verdict": seventh_report.verdict,
        },
        "reduced_form": reduced_detail,
        "ode_constant": ode.details["c"],
    }
    return AnalysisReport(
        grid=grid,
        values=tuple(seventh),
        max_abs_deviation=deviation,
        reference_value=seventh_report.reference_value,
        verdict=verdict,
        tolerance_used=tol,
        details=details,
    )


# ---- classification ----------------------------------------------------------


class FamilyClass(str, Enum):
    GAUSSIAN_LOCATION = "GaussianLocation"
    GAMMA_LINEAR_SIGMA = "GammaLinearSigma"
    TWEEDIE32_CLASS = "Tweedie32Class"
    NOT_EXCHANGEABLE = "NotExchangeable"


@dataclass(frozen=True)
class Classification:
    family_class: FamilyClass
    reason: str | None = None
    coefficients: dict | None = None

    def to_dict(self) -> dict:
        return {
            "family_class": self.family_class.value,
            "reason": self.reason,
            "coefficients": _jsonable(self.coefficients),
        }


_FIT_RTOL = 1e-8
_CLASSIFY_GRID_SIZE = 33


def _affine_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares y ~ k*x + ell; returns (k, ell, max abs residual)."""
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = np.max(np.abs(design @ coef - y))
    return float(coef[0]), float(coef[1]), float(resid)


def classify_family(vf: VarianceFunctionSpec) -> Classification:
    """Match the variance function against the exchangeable solution forms.

    Constant V is a location-Gaussian; sigma affine in mu with nonzero slope
    is the Gamma line; sigma^(4/3) affine with nonzero slope is the 3/2-power
    class.  Everything else is NotExchangeable, with the reason naming the
    failed check: a quadratic variance that is not a perfect square, a
    non-constant second-order combination, or a non-constant higher-order
    combination.
    """
    mu = np.asarray(vf.default_grid(_CLASSIFY_GRID_SIZE), dtype=float)
    sigma = np.array([profile[0] for profile in vf.sigma_profiles(mu)])
    v = sigma * sigma
    v_scale = float(np.max(np.abs(v)))
    width = vf.domain[1] - vf.domain[0]

    v_mean = float(np.mean(v))
    if float(np.max(np.abs(v - v_mean))) <= _FIT_RTOL * v_scale:
        return Classification(FamilyClass.GAUSSIAN_LOCATION, coefficients={"variance": v_mean})

    k, ell, resid = _affine_fit(mu, sigma)
    sigma_scale = float(np.max(sigma))
    if resid <= _FIT_RTOL * sigma_scale and abs(k) * width > _FIT_RTOL * sigma_scale:
        coeffs = {"k": k, "ell": ell, "exponent": 2.0}
        if abs(ell) <= _FIT_RTOL * sigma_scale:
            coeffs["gamma_shape"] = 1.0 / (k * k)
        return Classification(FamilyClass.GAMMA_LINEAR_SIGMA, coefficients=coeffs)

    w = sigma ** (4.0 / 3.0)
    k, ell, resid = _affine_fit(mu, w)
    w_scale = float(np.max(w))
    if resid <= _FIT_RTOL * w_scale and abs(k) * width > _FIT_RTOL * w_scale:
        return Classification(
            FamilyClass.TWEEDIE32_CLASS, coefficients={"k": k, "ell": ell, "exponent": 1.5}
        )

    quad = np.polyfit(mu, v, 2)
    quad_resid = float(np.max(np.abs(np.polyval(quad, mu) - v)))
    if quad_resid <= _FIT_RTOL * v_scale:
        a, b, c0 = (float(q) for q in quad)
        disc = b * b - 4.0 * a * c0
        return Classification(
            FamilyClass.NOT_EXCHANGEABLE,
            reason=(
                f"variance is quadratic (a={a:.6g}, b={b:.6g}, c={c0:.6g}) with discriminant "
                f"{disc:.6g} != 0, so it is not a perfect square; quadratic-variance families "
                f"outside the square form are not exchangeable"
            ),
            coefficients={"a": a, "b": b, "c": c0, "discriminant": disc},
        )

    higher = higher_order_check(vf)
    if higher.details["ode_constant"] is None:
        return Classification(
            FamilyClass.NOT_EXCHANGEABLE,
            reason="(sigma')^2 + 3*sigma*sigma'' varies across the grid (second-order condition fails)",
        )
    if higher.verdict is not Verdict.CONSTANT:
        return Classification(
            FamilyClass.NOT_EXCHANGEABLE,
            reason="higher-order divergence combinations vary across the grid",
        )
    return Classification(
        FamilyClass.NOT_EXCHANGEABLE,
        reason="no affine sigma or sigma^(4/3) profile matched within tolerance",
    )
