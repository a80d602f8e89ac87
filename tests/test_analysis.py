"""Tests for the grid analyses: constancy, exchangeability, Laplace ratios,
variance-function checks, and classification."""

import itertools
import math
import re
from fractions import Fraction
from math import gamma as gamma_fn

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import snmlkit as sk
from snmlkit import (
    AnalysisReport,
    FamilyClass,
    VarianceFunctionSpec,
    Verdict,
    parse_report_csv,
)
from snmlkit import ObservationSequence, analysis, strategies
from snmlkit._spline import QuinticSpline
from snmlkit.errors import DomainError


def gamma_condition_value(k: float, n: int) -> float:
    """Exact value of the concentration integral for a fixed-shape family."""
    nk = n * k
    return math.sqrt(k) * gamma_fn(nk) * math.exp(nk) / nk**nk


def log_form_gamma_condition_value(k: float, n: int) -> float:
    """gamma_condition_value through lgamma, finite for large n k."""
    nk = n * k
    return math.exp(0.5 * math.log(k) + nk + math.lgamma(nk) - nk * math.log(nk))


def poisson_log_snml(history, y):
    """log SNML mass of y after the counts in history: the sup log-likelihood
    of history + (y,), less the log of its sum over every next count z."""

    def log_sup(values):
        mean = math.fsum(values) / len(values)
        return math.fsum((x * math.log(mean) if x else 0.0) - mean - math.lgamma(x + 1) for x in values)

    logs = [log_sup(history + (float(z),)) for z in range(int(4 * max(history)) + 200)]
    top = max(logs)
    return log_sup(history + (y,)) - top - math.log(math.fsum(math.exp(v - top) for v in logs))


def reciprocal_gamma_half():
    def recip(x: float) -> float:
        return 1.0 / x

    return sk.transform_family(
        sk.GammaShape(0.5), recip, recip, lambda z: -1.0 / (z * z)
    )


# ---- report container -----------------------------------------------------------


class TestAnalysisReport:
    def test_verdict_values(self):
        assert Verdict.CONSTANT.value == "Constant"
        assert Verdict.NON_CONSTANT.value == "NonConstant"
        assert Verdict.INCONCLUSIVE.value == "Inconclusive"

    @given(
        values=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=8),
        tolerance=st.floats(min_value=1e-12, max_value=1e-2),
    )
    def test_judge_rule(self, values, tolerance):
        fail_threshold = tolerance * 100
        report = AnalysisReport.from_values(range(len(values)), values, tolerance, fail_threshold)
        scale = max(1.0, abs(report.reference_value))
        if report.verdict is Verdict.CONSTANT:
            assert report.max_abs_deviation <= tolerance * scale
        elif report.verdict is Verdict.NON_CONSTANT:
            assert report.max_abs_deviation >= fail_threshold * scale
        else:
            assert tolerance * scale < report.max_abs_deviation < fail_threshold * scale

    def test_reference_defaults_to_mean(self):
        report = AnalysisReport.from_values((1.0, 2.0), (3.0, 5.0), 1e-6, 1e-3)
        assert report.reference_value == pytest.approx(4.0)
        assert report.max_abs_deviation == pytest.approx(1.0)
        assert report.deviations() == (pytest.approx(1.0), pytest.approx(1.0))

    def test_empty_values_rejected(self):
        with pytest.raises(DomainError):
            AnalysisReport.from_values((), (), 1e-6, 1e-3)

    def test_json_writes_non_finite_floats_as_strings(self):
        import json

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        report = AnalysisReport.from_values(
            (0.5, 1.0), (math.inf, 1.0), 1e-6, 1e-3, reference=0.0, details={"x": [-math.inf, math.nan]}
        )
        payload = json.loads(report.to_json(), parse_constant=reject)
        assert payload["values"] == ["inf", 1.0]
        assert payload["max_abs_deviation"] == "inf"
        assert payload["details"]["x"] == ["-inf", "nan"]

    def test_json_shape(self):
        import json

        report = AnalysisReport.from_values((0.5,), (1.0,), 1e-6, 1e-3)
        payload = json.loads(report.to_json())
        assert payload["verdict"] == "Constant"
        assert payload["values"] == [1.0]
        assert set(payload) >= {"grid", "values", "max_abs_deviation", "reference_value", "tolerance_used"}

    def test_csv_round_trip_scalar_grid(self):
        grid = (0.1234567890123456, 2.0, 37.5)
        values = (1 / 3, 1e-17, 123456.789012345)
        report = AnalysisReport.from_values(grid, values, 1e-6, 1e-3)
        parsed_grid, parsed_values, parsed_devs = parse_report_csv(report.to_csv())
        assert parsed_grid == grid
        assert parsed_values == values
        assert parsed_devs == report.deviations()

    def test_csv_round_trip_tuple_grid(self):
        report = AnalysisReport.from_values(((0.5, 2.0), (1.0, 1.0)), (0.25, 0.75), 1e-6, 1e-3)
        parsed_grid, parsed_values, _ = parse_report_csv(report.to_csv())
        assert parsed_grid == ((0.5, 2.0), (1.0, 1.0))
        assert parsed_values == (0.25, 0.75)

    def test_csv_header_required(self):
        with pytest.raises(ValueError):
            parse_report_csv("a,b\n1,2\n")


# ---- concentration integral ------------------------------------------------------


class TestConditionIntegral:
    def test_gaussian_example(self):
        value = sk.condition_integral(sk.GaussianLocation(1.0), 0.0, 4)
        assert value == pytest.approx(math.sqrt(math.pi / 2), rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("sigma2", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("mu0", [-1.0, 0.0, 2.0])
    def test_gaussian_value_free_of_mu0_and_scale(self, n, sigma2, mu0):
        value = sk.condition_integral(sk.GaussianLocation(sigma2), mu0, n)
        assert value == pytest.approx(math.sqrt(2 * math.pi / n), rel=1e-9)

    @pytest.mark.parametrize(
        "k,n,expected",
        [
            (1.0, 2, math.e**2 / 4),
            (1.0, 3, 2 * math.e**3 / 27),
            (0.5, 2, gamma_condition_value(0.5, 2)),
            (2.0, 3, gamma_condition_value(2.0, 3)),
        ],
    )
    def test_gamma_closed_form(self, k, n, expected):
        value = sk.condition_integral(sk.GammaShape(k), 1.0, n)
        assert value == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("mu0", [0.5, 1.0, 3.0])
    def test_gamma_value_free_of_mu0(self, mu0):
        value = sk.condition_integral(sk.GammaShape(2.0), mu0, 3)
        assert value == pytest.approx(gamma_condition_value(2.0, 3), rel=1e-9)

    def test_tweedie_example(self):
        value = sk.condition_integral(sk.Tweedie32(), 1.0, 2)
        assert value == pytest.approx(math.sqrt(math.pi), rel=1e-8)

    def test_rejects_bad_n(self):
        fam = sk.GaussianLocation(1.0)
        with pytest.raises(DomainError):
            sk.condition_integral(fam, 0.0, 0)
        with pytest.raises(DomainError):
            sk.condition_integral(fam, 0.0, 2.5)

    def test_rejects_boundary_mu0(self):
        with pytest.raises(DomainError):
            sk.condition_integral(sk.Tweedie32(), 0.0, 2)

    @pytest.mark.parametrize("n", [1, 2, 5, 50, 200])
    @pytest.mark.parametrize(
        "family,closed_form",
        [
            (sk.GaussianLocation(1.0), lambda n: math.sqrt(2 * math.pi / n)),
            (sk.GaussianLocation(4.0), lambda n: math.sqrt(2 * math.pi / n)),
            (sk.Tweedie32(), lambda n: math.sqrt(2 * math.pi / n)),
            (sk.GammaShape(0.5), lambda n: log_form_gamma_condition_value(0.5, n)),
            (sk.GammaShape(1.0), lambda n: log_form_gamma_condition_value(1.0, n)),
            (sk.GammaShape(2.0), lambda n: log_form_gamma_condition_value(2.0, n)),
        ],
        ids=["gaussian", "gaussian-sigma2-4", "tweedie", "gamma0.5", "gamma1", "gamma2"],
    )
    def test_closed_forms_over_six_decades(self, family, closed_form, n):
        want = closed_form(n)
        for mu0 in np.geomspace(1e-3, 1e3, 13):
            assert sk.condition_integral(family, mu0, n) == pytest.approx(want, rel=1e-10), mu0

    @pytest.mark.parametrize("n", [10**10, 10**12, 10**14, 10**16])
    @pytest.mark.parametrize(
        "family,mu0,correction,rel",
        [
            (sk.GammaShape(1.0), 1.0, 1 / 12, 1e-10),
            (sk.GammaShape(0.5), 2.0, 1 / 6, 5e-9),
            (sk.GammaShape(2.0), 0.7, 1 / 24, 5e-9),
            (sk.Poisson(), 1.0, 0.0, 5e-9),
            (sk.Bernoulli(), 0.3, 0.0, 5e-9),
        ],
        ids=["gamma1", "gamma0.5", "gamma2", "poisson", "bernoulli"],
    )
    def test_large_n_stays_on_the_laplace_value(self, family, mu0, correction, rel, n):
        """sqrt(2 pi / n) (1 + 1 / (12 n k)) for Gamma(k) by Stirling, and
        sqrt(2 pi / n) to O(1/n) for the others: n D(mu0 || mu) near mu0 is
        accurate at these n, since D is computed from one rounded ratio."""
        want = math.sqrt(2 * math.pi / n) * (1 + correction / n)
        assert sk.condition_integral(family, mu0, n) == pytest.approx(want, rel=rel)


class TestCheckConstancy:
    CONSTANT_CASES = [
        ("gaussian", sk.GaussianLocation(1.0), (-2.0, 0.0, 1.0, 3.0)),
        ("gamma_half", sk.GammaShape(0.5), (0.5, 1.0, 2.0, 5.0)),
        ("gamma_one", sk.GammaShape(1.0), (0.5, 1.0, 2.0, 5.0)),
        ("gamma_two", sk.GammaShape(2.0), (0.5, 1.0, 2.0, 5.0)),
        ("tweedie", sk.Tweedie32(), (0.25, 0.5, 1.0, 4.0)),
    ]

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("name,family,grid", CONSTANT_CASES, ids=[c[0] for c in CONSTANT_CASES])
    def test_exchangeable_families_are_constant(self, name, family, grid, n):
        report = sk.check_constancy(family, n, grid)
        assert report.verdict is Verdict.CONSTANT
        assert report.details["n"] == n

    def test_poisson_values(self):
        report = sk.check_constancy(sk.Poisson(), 2, (0.25, 0.5, 1.0, 4.0))
        assert report.verdict is Verdict.NON_CONSTANT
        expected = (
            1.6487212707001282,
            1.7034305224077748,
            1.7364015881638324,
            1.7632546487727634,
        )
        for got, want in zip(report.values, expected):
            assert got == pytest.approx(want, rel=1e-10)

    def test_bernoulli_not_constant(self):
        report = sk.check_constancy(sk.Bernoulli(), 2, (0.2, 0.35, 0.5, 0.65, 0.8))
        assert report.verdict is Verdict.NON_CONSTANT
        assert report.max_abs_deviation > 0.01 * max(1.0, abs(report.reference_value))

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            sk.check_constancy(sk.GaussianLocation(1.0), 2, ())


# ---- exchangeability --------------------------------------------------------------


class TestExchangeability:
    def test_bernoulli_all_sequences(self):
        report = sk.exchangeability_test(sk.Bernoulli(), 0, 3, "all-discrete")
        assert report.verdict is Verdict.NON_CONSTANT
        assert report.max_abs_deviation == pytest.approx(1 / 32, abs=1e-15)
        witness = report.details["witness"]
        assert witness["max_ordering"] == [0.0, 0.0, 1.0]
        assert witness["min_ordering"] == [0.0, 1.0, 0.0]
        assert witness["max_joint"] == Fraction(8, 155)
        assert witness["min_joint"] == Fraction(1, 20)
        assert report.details["strategy"] == "snml"

    def test_tied_joints_name_both_orderings(self):
        """On an exact tie the spread reads 0.0, not -0.0, and the witness names
        the first maximum and the last minimum: two orderings, not one twice."""
        for joints in ([(-1.5, None)] * 2, [(math.log(0.25), Fraction(1, 4))] * 2):
            spread, hi, lo = analysis._spread(joints)
            assert (spread, hi, lo) == (0.0, 0, 1) and math.copysign(1.0, spread) == 1.0
        report = sk.exchangeability_test(sk.GaussianLocation(1.0), 1, 3, history=(0.3,), continuations=[(-1.2, 3.0)])
        witness = report.details["witness"]
        assert witness["max_log_joint"] == witness["min_log_joint"]
        assert {tuple(witness["max_ordering"]), tuple(witness["min_ordering"])} == {(-1.2, 3.0), (3.0, -1.2)}
        assert math.copysign(1.0, report.values[0]) == 1.0

    @pytest.mark.parametrize("continuation", [(0.0, 2.0, 0.5), (0.0, 2.0)], ids=["lattice", "two-orderings"])
    def test_joints_zero_by_their_shared_numerator_still_spread(self, continuation):
        """Under Gamma(2) the density at 0 is 0, so every ordering's joint is 0
        by their shared numerator, and the spread read 0.0, Constant.  The
        orderings still differ by their normalizers: the spread and the
        witnesses are those with 1e-300 in place of 0."""
        family = sk.GammaShape(2.0, mean_domain=(0.5, 3.0))
        near = tuple(1e-300 if v == 0.0 else v for v in continuation)
        zero, tiny = (
            sk.exchangeability_test(family, 1, 1 + len(c), history=(1.0,), continuations=[c]) for c in (continuation, near)
        )
        assert zero.max_abs_deviation == pytest.approx(tiny.max_abs_deviation, rel=1e-12)
        assert zero.verdict is tiny.verdict is Verdict.NON_CONSTANT
        witness, tiny_witness = zero.details["witness"], tiny.details["witness"]
        assert witness["max_log_joint"] == witness["min_log_joint"] == -math.inf
        for label in ("max_ordering", "min_ordering"):
            assert [1e-300 if v == 0.0 else v for v in witness[label]] == tiny_witness[label]

    def test_all_discrete_enumerates_history_multisets(self):
        ber = sk.Bernoulli()
        report = sk.exchangeability_test(ber, 2, 4, "all-discrete")
        # 3 history multisets times 3 continuation multisets
        assert len(report.grid) == 9
        conts = [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        ordered = [
            sk.exchangeability_test(ber, 2, 4, history=h, continuations=conts).max_abs_deviation
            for h in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
        ]
        assert report.max_abs_deviation == max(ordered)
        assert ordered[1] == ordered[2]

    def test_gaussian_explicit_pair_is_exact(self):
        report = sk.exchangeability_test(
            sk.GaussianLocation(1.0), 1, 3, history=(0.5,), continuations=[(0.0, 2.0)]
        )
        assert report.verdict is Verdict.CONSTANT
        assert report.max_abs_deviation == 0.0

    @pytest.mark.parametrize(
        "name,family,n,count,seed",
        [
            ("gamma_half", sk.GammaShape(0.5), 3, 6, 0),
            ("gamma_one", sk.GammaShape(1.0), 4, 3, 1),
            ("tweedie", sk.Tweedie32(), 3, 3, 0),
        ],
        ids=["gamma_half", "gamma_one", "tweedie"],
    )
    def test_random_continuations_constant(self, name, family, n, count, seed):
        report = sk.exchangeability_test(family, 1, n, "random", count=count, seed=seed, sample_mean=1.0)
        assert report.verdict is Verdict.CONSTANT
        assert report.max_abs_deviation < 1e-9

    def test_transformed_family_stays_constant(self):
        report = sk.exchangeability_test(
            reciprocal_gamma_half(), 1, 3, "random", count=4, seed=2, sample_mean=1.0
        )
        assert report.verdict is Verdict.CONSTANT
        assert report.max_abs_deviation < 1e-9

    def test_poisson_not_constant(self):
        report = sk.exchangeability_test(sk.Poisson(), 1, 3, "random", count=6, seed=0)
        assert report.verdict is Verdict.NON_CONSTANT
        assert 1e-3 < report.max_abs_deviation < 1.0

    def test_restricted_gaussian_loses_the_property(self):
        fam = sk.GaussianLocation(1.0, mean_domain=(1.0, math.inf))
        report = sk.exchangeability_test(fam, 1, 3, history=(1.5,), continuations=[(0.2, 4.0)])
        assert report.verdict is Verdict.NON_CONSTANT
        assert report.max_abs_deviation == pytest.approx(0.13071, rel=1e-3)

    def test_poisson_spread_of_underflowing_joints(self):
        """Both joints of (0, 1000) after (1,) are below 1e-300 and underflowed
        to 0, which read as spread 0 and Constant."""
        report = sk.exchangeability_test(sk.Poisson(), 1, 3, history=(1.0,), continuations=[(0.0, 1000.0)])
        a = poisson_log_snml((1.0,), 0.0) + poisson_log_snml((1.0, 0.0), 1000.0)
        b = poisson_log_snml((1.0,), 1000.0) + poisson_log_snml((1.0, 1000.0), 0.0)
        assert report.verdict is Verdict.NON_CONSTANT
        assert report.max_abs_deviation == pytest.approx(-math.expm1(-abs(a - b)), rel=1e-6)
        assert report.max_abs_deviation == pytest.approx(0.0102, abs=1e-4)

    def test_poisson_witness_logs_show_the_spread(self):
        """The witness joints underflow to 0.0; their logs keep the spread."""
        report = sk.exchangeability_test(sk.Poisson(), 1, 3, history=(1.0,), continuations=[(0.0, 1000.0)])
        witness = report.details["witness"]
        top, low = witness["max_log_joint"], witness["min_log_joint"]
        assert math.isfinite(top) and math.isfinite(low)
        assert witness["max_joint"] == 0.0 and witness["min_joint"] == 0.0
        assert top - low == pytest.approx(-math.log1p(-report.max_abs_deviation), abs=1e-12)

    def test_report_csv_round_trip(self):
        report = sk.exchangeability_test(sk.Bernoulli(), 0, 2, "all-discrete")
        grid, values, _ = parse_report_csv(report.to_csv())
        assert grid == report.grid
        assert values == report.values

    def test_bad_inputs(self):
        ber = sk.Bernoulli()
        with pytest.raises(DomainError):
            sk.exchangeability_test(ber, 2, 2, "all-discrete")
        with pytest.raises(DomainError):
            sk.exchangeability_test(sk.GaussianLocation(1.0), 0, 2, "all-discrete")
        with pytest.raises(DomainError):
            sk.exchangeability_test(ber, 0, 13, "all-discrete")
        with pytest.raises(DomainError):
            sk.exchangeability_test(ber, 1, 3, history=(1.0,), continuations=[(1.0,)])
        with pytest.raises(DomainError):
            sk.exchangeability_test(ber, 1, 3, history=(1.0, 0.0), continuations=[(1.0, 0.0)])
        with pytest.raises(DomainError):
            sk.exchangeability_test(ber, 0, 2, "exhaustive")

    @pytest.mark.parametrize(
        "m,n,count,message",
        [
            (1.5, 3, 2, "m must be a nonnegative integer, got 1.5"),
            (1, 3.7, 2, "n must be a nonnegative integer, got 3.7"),
            (1, 3, 2.5, "count must be a positive integer, got 2.5"),
            (1, 3, 0, "count must be a positive integer, got 0"),
            (1, 3, -2, "count must be a positive integer, got -2"),
        ],
        ids=["m", "n", "count", "count_zero", "count_negative"],
    )
    def test_non_integral_arguments_are_named(self, m, n, count, message):
        """1.5, 3.7 and 2.5 used to run as 1, 3 and 2; count 0 failed for an empty grid."""
        with pytest.raises(DomainError, match=f"^{message}$"):
            sk.exchangeability_test(sk.GaussianLocation(1.0), m, n, count=count)

    def test_all_discrete_rejects_a_history(self):
        """all-discrete enumerates the histories; a given one was ignored, 5.0 unchecked."""
        with pytest.raises(DomainError, match="history"):
            sk.exchangeability_test(sk.Bernoulli(), 1, 3, "all-discrete", history=(5.0,))


def _log_normalizer_sum(family, history, ordering):
    """F: the sum of the log one-step SNML normalizers over the prefixes of an
    ordering, or for exact Bernoulli the product of the exact Shtarkov ratios."""
    while isinstance(family, sk.TransformedFamily):
        history, ordering = tuple(map(family.pullback, history)), tuple(map(family.pullback, ordering))
        family = family.base
    values = history + ordering
    if family == sk.Bernoulli():
        out = Fraction(1)
        for t in range(len(history), len(values)):
            ones = int(sum(values[:t]))
            out *= strategies._bernoulli_shtarkov_fraction(t, ones, 1) / strategies._bernoulli_sup_fraction(t, ones)
        return out
    out = 0.0
    for t in range(len(history), len(values)):
        total = sum(map(family._exact_statistic, values[:t]))
        out += strategies._snml_log_normalizer(family, t, strategies._history_mean(family, t, total))
    return out


def _brute_force(family, history, continuation):
    """Every distinct ordering, its (log joint, exact joint or None) and its
    F, lexicographically."""
    orderings = sorted(set(itertools.permutations(continuation)))
    seqs = [ObservationSequence(history + p, len(history)) for p in orderings]
    joints = [(strategies._log_joint(family, "snml", s), strategies._exact_joint(family, "snml", s)) for s in seqs]
    return orderings, joints, [_log_normalizer_sum(family, history, p) for p in orderings]


LATTICE_CASES = {
    "gaussian": (sk.GaussianLocation(1.0), (0.5,), (-1.3, 0.2, 0.9, 2.4, 3.1)),
    "gamma1": (sk.GammaShape(1.0), (1.0,), (0.1, 0.7, 1.9, 4.2, 0.35)),
    "tweedie": (sk.Tweedie32(), (1.2,), (0.0, 0.0, 0.8, 2.5, 5.0)),
    "levy": (reciprocal_gamma_half(), (1.0,), (0.3, 1.7, 4.0, 12.0)),
    "poisson_repeats": (sk.Poisson(), (3.0,), (0.0, 0.0, 2.0, 2.0, 9.0)),
    "poisson_far": (sk.Poisson(), (1.0,), (0.0, 1000.0, 4.0)),
    "gamma2_restricted": (sk.GammaShape(2.0, mean_domain=(0.5, 3.0)), (1.0,), (0.05, 0.3, 2.0, 6.0, 11.0)),
    "bernoulli": (sk.Bernoulli(), (1.0,), (0.0, 1.0, 1.0, 0.0, 1.0)),
    "bernoulli_no_history": (sk.Bernoulli(), (), (1.0, 0.0, 0.0, 1.0)),
}


class TestOrderingLattice:
    """The sub-multiset lattice against a walk over every distinct ordering."""

    @pytest.mark.parametrize("name", LATTICE_CASES)
    def test_extremes_of_the_normalizer_sum(self, name):
        """The lattice's orderings are the lexicographically first ones with
        the smallest and the largest F."""
        family, history, continuation = LATTICE_CASES[name]
        orderings, _, sums = _brute_force(family, history, continuation)
        lowest = orderings[min(range(len(sums)), key=sums.__getitem__)]
        highest = orderings[max(range(len(sums)), key=sums.__getitem__)]
        assert strategies._snml_ordering_extremes(family, history, continuation) == (lowest, highest)

    @pytest.mark.parametrize("name", LATTICE_CASES)
    def test_report_matches_every_ordering(self, name):
        """Same verdict and spread as the maximum and minimum over all the
        joints: exact for Fractions, to 1e-14 for floats; each witness attains
        its extreme joint exactly, and is the first ordering with it wherever
        the extreme joints are exact or stand apart."""
        family, history, continuation = LATTICE_CASES[name]
        report = sk.exchangeability_test(
            family, len(history), len(history) + len(continuation), history=history, continuations=[continuation]
        )
        orderings, joints, _ = _brute_force(family, history, continuation)
        exact = joints[0][1] is not None
        keys = [j[1] if exact else j[0] for j in joints]
        top, low = max(keys), min(keys)
        spread = float((top - low) / top) if exact else -math.expm1(low - top)
        if exact:
            assert report.values == (spread,)
        else:
            assert abs(report.values[0] - spread) <= 1e-14
        brute = AnalysisReport.from_values([continuation], [spread], 1e-6, 1e-3, reference=0.0)
        assert report.verdict is brute.verdict
        witness = report.details["witness"]
        for extreme, label in ((top, "max_ordering"), (low, "min_ordering")):
            assert keys[orderings.index(tuple(witness[label]))] == extreme
            first = keys.index(extreme)
            others = keys[:first] + keys[first + 1 :]
            if exact or all(abs(k - extreme) > 1e-9 for k in others):
                assert tuple(witness[label]) == orderings[first]

    def test_free_horizon_eight_takes_each_normalizer_once(self, monkeypatch):
        """k = 8 values whose sub-multisets all have distinct sums: 2^8 - 1
        normalizers, not 8! orderings of 8 gains each, and the numerator only
        for the two witness joints."""
        calls = []
        log_joint = strategies._log_joint

        def counted(*args, **kwargs):
            calls.append(args)
            return log_joint(*args, **kwargs)

        monkeypatch.setattr(analysis, "_log_joint", counted)
        strategies._snml_log_normalizer.cache_clear()
        continuation = tuple(0.15 * 2.0**i for i in range(8))
        report = sk.exchangeability_test(sk.GammaShape(1.0), 1, 9, history=(1.0,), continuations=[continuation])
        assert strategies._snml_log_normalizer.cache_info().misses == 255
        witness = report.details["witness"]
        orderings = {tuple(witness["max_ordering"]), tuple(witness["min_ordering"])}
        assert len(calls) == len(orderings)
        assert {args[2].continuation for args in calls} == orderings
        assert report.verdict is Verdict.CONSTANT


class TestBayesCnmlAgreement:
    def test_bernoulli_block_disagrees(self):
        report = sk.bayes_cnml_agreement(sk.Bernoulli(), 1, 2, [(1.0, 1.0)])
        assert report.verdict is Verdict.NON_CONSTANT
        assert report.max_abs_deviation == pytest.approx(0.0625, abs=1e-12)
        assert report.details["cnml"][0] == pytest.approx(0.8, abs=1e-14)
        assert report.details["bayes"][0] == pytest.approx(0.75, rel=1e-10)

    def test_poisson_gap_of_underflowing_joints(self):
        """Both joints of 2000 after 1 are about e^-1380 and underflowed to 0,
        which read as gap 0.  One-step CNML is SNML, and the Jeffreys
        predictive of a count is negative binomial."""
        report = sk.bayes_cnml_agreement(sk.Poisson(), 1, 2, [(1.0, 2000.0)])
        a, y = 1.5, 2000.0
        log_bayes = math.lgamma(a + y) - math.lgamma(a) - math.lgamma(y + 1) - (a + y) * math.log(2.0)
        want = abs(math.expm1(log_bayes - poisson_log_snml((1.0,), y)))
        assert report.max_abs_deviation == pytest.approx(want, rel=1e-6)
        assert report.verdict is Verdict.NON_CONSTANT

    def test_poisson_log_joints_show_the_gap(self):
        """The joints of 2000 after 1 underflow to 0.0; their logs keep the gap."""
        report = sk.bayes_cnml_agreement(sk.Poisson(), 1, 2, [(1.0, 2000.0)])
        assert report.details["cnml"] == [0.0] and report.details["bayes"] == [0.0]
        (log_cnml,), (log_bayes,) = report.details["log_cnml"], report.details["log_bayes"]
        assert abs(math.expm1(log_bayes - log_cnml)) == report.max_abs_deviation
        assert report.max_abs_deviation == pytest.approx(0.024, abs=5e-4)

    def test_joints_zero_by_their_shared_numerator_still_differ(self):
        """Under Gamma(2) the density at 0 is 0, so both joints of 0 after 1
        are 0 by their shared numerator, and the gap read 0.0, Constant.  The
        normalizers still differ: the gap is that of 1e-300 after 1."""
        family = sk.GammaShape(2.0, mean_domain=(0.5, 3.0))
        zero, tiny = (sk.bayes_cnml_agreement(family, 1, 2, [(1.0, y)]) for y in (0.0, 1e-300))
        assert zero.details["cnml"] == zero.details["bayes"] == [0.0]
        assert zero.details["log_cnml"] == zero.details["log_bayes"] == [-math.inf]
        assert zero.max_abs_deviation == pytest.approx(tiny.max_abs_deviation, rel=1e-12)
        assert zero.verdict is tiny.verdict is Verdict.NON_CONSTANT

    def test_gaussian_blocks_agree(self):
        report = sk.bayes_cnml_agreement(
            sk.GaussianLocation(1.0), 1, 3, [(0.5, -1.0, 0.3), (0.0, 1.0, 2.0)]
        )
        assert report.verdict is Verdict.CONSTANT
        assert report.max_abs_deviation < 1e-9

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            sk.bayes_cnml_agreement(sk.Bernoulli(), 1, 2, [(1.0, 1.0, 0.0)])
        with pytest.raises(DomainError):
            sk.bayes_cnml_agreement(sk.Bernoulli(), 1, 2, [])
        with pytest.raises(DomainError, match="^m must be"):
            sk.bayes_cnml_agreement(sk.Bernoulli(), 1.5, 2, [(1.0, 1.0)])
        with pytest.raises(DomainError, match="^n must be"):
            sk.bayes_cnml_agreement(sk.Bernoulli(), 1, 2.5, [(1.0, 1.0)])


# ---- Laplace ----------------------------------------------------------------------


class TestLaplace:
    def test_gamma_ratio_series(self):
        report = sk.laplace_asymptotics_check(sk.GammaShape(1.0), 1.0)
        assert report.verdict is Verdict.CONSTANT
        assert report.grid == (2, 5, 10, 20, 50)
        assert report.values[2] == pytest.approx(1.008365, rel=1e-5)
        for n, ratio in zip(report.grid, report.values):
            assert abs(ratio - 1.0 - 1.0 / (12 * n)) < 1.0 / n**2

    def test_gaussian_ratio_is_exactly_one(self):
        report = sk.laplace_asymptotics_check(sk.GaussianLocation(1.0), 0.0, n_list=(2, 10))
        for ratio in report.values:
            assert ratio == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize(
        "family,mu0,position",
        [
            (sk.GaussianLocation(1.0), 0.3, "interior"),
            (sk.GaussianLocation(1.0, mean_domain=(0.0, math.inf)), 0.0, "boundary"),
        ],
    )
    def test_laplace_reference(self, family, mu0, position):
        """For the Gaussian both references are exact: sqrt(2 pi / n) in the
        interior, and half that at 0 on [0, inf)."""
        report = sk.laplace_asymptotics_check(family, mu0, position, n_list=(1, 4, 50))
        for ratio in report.values:
            assert ratio == pytest.approx(1.0, rel=1e-10)

    def test_tweedie_converges(self):
        report = sk.laplace_asymptotics_check(sk.Tweedie32(), 1.0)
        assert report.verdict is Verdict.CONSTANT
        assert abs(report.values[-1] - 1.0) < 0.02

    def test_boundary_ratio_halves_the_reference(self):
        fam = sk.GaussianLocation(1.0, mean_domain=(1.0, math.inf))
        report = sk.laplace_asymptotics_check(fam, 1.0, "boundary", n_list=(2, 5, 20))
        assert report.verdict is Verdict.CONSTANT
        for ratio in report.values:
            assert ratio == pytest.approx(1.0, abs=1e-7)
        assert report.details["position"] == "boundary"

    def test_non_integral_n_is_rejected(self):
        """n = 2.5 and 5.9 were truncated to 2 and 5 and reported as such."""
        with pytest.raises(DomainError, match="positive integer"):
            sk.laplace_asymptotics_check(sk.GammaShape(1.0), 1.0, n_list=(2.5, 5.9))

    def test_position_validation(self):
        fam = sk.GaussianLocation(1.0, mean_domain=(1.0, math.inf))
        with pytest.raises(DomainError):
            sk.laplace_asymptotics_check(fam, 2.0, "boundary")
        with pytest.raises(DomainError):
            sk.laplace_asymptotics_check(fam, 1.0, "interior")
        with pytest.raises(DomainError):
            sk.laplace_asymptotics_check(fam, 2.0, "edge")
        with pytest.raises(DomainError):
            sk.laplace_asymptotics_check(fam, 2.0, n_list=())


# ---- variance functions -------------------------------------------------------------


BATTERY = [
    ("const", "3", (0.5, 4.0), Verdict.CONSTANT, 0.0),
    ("square_affine", "(2*mu + 1)**2", (0.5, 4.0), Verdict.CONSTANT, 4.0),
    ("three_half", "(mu + 2)**(3/2)", (0.5, 4.0), Verdict.CONSTANT, 0.0),
    ("linear", "mu", (0.5, 4.0), Verdict.NON_CONSTANT, None),
    ("logistic", "mu*(1 - mu)", (0.1, 0.9), Verdict.NON_CONSTANT, None),
    ("cubic", "mu**3", (0.5, 4.0), Verdict.NON_CONSTANT, None),
    ("exponential", "exp(mu)", (0.5, 4.0), Verdict.NON_CONSTANT, None),
]


class TestSigmaOde:
    @pytest.mark.parametrize("name,expr,domain,verdict,c", BATTERY, ids=[b[0] for b in BATTERY])
    def test_battery(self, name, expr, domain, verdict, c):
        vf = VarianceFunctionSpec.closed(expr, domain)
        report = sk.sigma_ode_check(vf)
        assert report.verdict is verdict
        if c is None:
            assert report.details["c"] is None
        else:
            assert report.details["c"] == pytest.approx(c, abs=1e-9)

    @pytest.mark.parametrize("name,expr,domain,verdict,c", BATTERY, ids=[b[0] for b in BATTERY])
    def test_higher_order_battery(self, name, expr, domain, verdict, c):
        vf = VarianceFunctionSpec.closed(expr, domain)
        report = sk.higher_order_check(vf)
        assert report.verdict is verdict

    def test_reduced_seventh_order_form_present_when_constant(self):
        vf = VarianceFunctionSpec.closed("(2*mu + 1)**2", (0.5, 4.0))
        report = sk.higher_order_check(vf)
        reduced = report.details["reduced_form"]
        assert reduced is not None
        assert reduced["verdict"] is Verdict.CONSTANT

    def test_gamma_shape_constant_value(self):
        vf = VarianceFunctionSpec.closed("mu**2/2", (0.5, 4.0))
        report = sk.sigma_ode_check(vf)
        assert report.verdict is Verdict.CONSTANT
        assert report.details["c"] == pytest.approx(0.5, abs=1e-9)

    def test_bundles_cover_the_grid(self):
        vf = VarianceFunctionSpec.closed("mu**2/2", (0.5, 4.0))
        report = sk.sigma_ode_check(vf, mu_grid=(1.0, 2.0, 3.0))
        bundles = report.details["bundles"]
        assert [b.mu for b in bundles] == [1.0, 2.0, 3.0]
        assert all(b.c == pytest.approx(0.5, abs=1e-9) for b in bundles)


class TestDerivativeBundle:
    def test_cubic_variance_values(self):
        vf = VarianceFunctionSpec.closed("mu**3", (0.5, 4.0))
        bundle = sk.sigma_ode_check(vf, mu_grid=(1.0,)).details["bundles"][0]
        assert bundle.d2 == 1.0
        assert bundle.d3 == pytest.approx(-1.5, abs=1e-10)
        assert bundle.d4 == pytest.approx(0.75, abs=1e-10)
        assert bundle.d5 == pytest.approx(0.0, abs=1e-9)
        assert bundle.d6 == pytest.approx(0.0, abs=1e-9)
        assert bundle.sigma == pytest.approx(1.0, abs=1e-12)
        assert bundle.sigma_derivs[0] == pytest.approx(1.5, abs=1e-10)

    @pytest.mark.parametrize(
        "family,mu0",
        [(sk.GammaShape(2.0), 1.5), (sk.Tweedie32(), 2.0)],
        ids=["gamma", "tweedie"],
    )
    def test_unit_second_derivative_in_geodesic_chart(self, family, mu0):
        reference = 1.0
        beta0 = family.geodesic_from_mean(mu0, reference)

        def kl_of_beta(beta: float) -> float:
            return family.kl_divergence(mu0, family.mean_from_geodesic(beta, reference))

        h = 1e-4
        second = (kl_of_beta(beta0 + h) + kl_of_beta(beta0 - h)) / h**2
        assert second == pytest.approx(1.0, abs=1e-6)


class TestVarianceFunctionSpec:
    def test_closed_profile_matches_derivatives(self):
        vf = VarianceFunctionSpec.closed("mu**2", (0.5, 4.0))
        s, s1, s2, s3, s4 = vf.sigma_profile(2.0)
        assert s == pytest.approx(2.0, rel=1e-12)
        assert s1 == pytest.approx(1.0, rel=1e-10)
        assert abs(s2) < 1e-9 and abs(s3) < 1e-9 and abs(s4) < 1e-9

    def test_variance_and_sigma(self):
        vf = VarianceFunctionSpec.closed("2*mu**(3/2)", (0.5, 4.0))
        assert vf.variance_at(4.0) == pytest.approx(16.0, rel=1e-12)
        assert vf.sigma_at(4.0) == pytest.approx(4.0, rel=1e-12)

    def test_from_table_recovers_constant(self):
        mu = np.linspace(0.5, 4.0, 64)
        vf = VarianceFunctionSpec.from_table(mu, mu**2 / 2)
        report = sk.sigma_ode_check(vf)
        assert report.verdict is Verdict.CONSTANT
        assert report.details["c"] == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_from_table_rejects_a_non_finite_variance_by_its_row(self, bad):
        mu = np.linspace(0.5, 4.0, 20)
        v = (0.8 * mu + 0.3) ** 2
        v[7] = bad
        with pytest.raises(DomainError, match=re.escape(f"row 8 has V({float(mu[7])!r}) = {bad!r}")):
            VarianceFunctionSpec.from_table(mu, v)

    def test_from_table_flags_nonconstant(self):
        mu = np.linspace(0.5, 4.0, 64)
        vf = VarianceFunctionSpec.from_table(mu, mu)
        assert sk.sigma_ode_check(vf).verdict is Verdict.NON_CONSTANT

    @pytest.mark.parametrize(
        "expr,domain",
        [
            ("mu - 2", (0.5, 4.0)),
            ("nu**2", (0.5, 4.0)),
            ("mu**2", (0.5, math.inf)),
            ("mu**2", (4.0, 0.5)),
            ("mu**", (0.5, 4.0)),
            ("(mu - 5)**(3/2)", (0.5, 4.0)),
            ("foo(mu)", (0.5, 4.0)),
            ("__import__('math').sqrt(4)*mu", (0.5, 4.0)),
            ("mu.real", (0.5, 4.0)),
            ("mu[0]", (0.5, 4.0)),
            ("'mu'", (0.5, 4.0)),
            ("log(mu, 2)", (0.5, 4.0)),
            ("exp(x=mu)", (0.5, 4.0)),
            ("lambda: mu", (0.5, 4.0)),
            ("mu if mu else 1", (0.5, 4.0)),
            ("True*mu", (0.5, 4.0)),
            ("1j*mu", (0.5, 4.0)),
            ("1e400*mu", (0.5, 4.0)),
            ("1/0 + mu", (0.5, 4.0)),
            ("log(0)*mu", (0.5, 4.0)),
            ("10**400 + mu", (0.5, 4.0)),
            ("(" * 300 + "mu" + ")" * 300, (0.5, 4.0)),
        ],
        ids=[
            "negative",
            "unknown-symbol",
            "unbounded",
            "reversed",
            "syntax-error",
            "complex-power",
            "unknown-call",
            "import",
            "attribute",
            "subscript",
            "string",
            "two-arguments",
            "keyword-argument",
            "lambda",
            "conditional",
            "bool",
            "complex-constant",
            "infinite-constant",
            "constant-division-by-zero",
            "constant-log-of-zero",
            "constant-overflow",
            "nested-too-deep",
        ],
    )
    def test_invalid_closed_specs(self, expr, domain):
        with pytest.raises(DomainError):
            VarianceFunctionSpec.closed(expr, domain)

    @pytest.mark.parametrize("variance", [lambda mu: mu**2 / 2, lambda mu: (1.3 * mu + 0.4) ** 1.5, np.exp])
    def test_grid_profiles_equal_per_point_profiles(self, variance):
        mu = np.linspace(0.5, 4.0, 41)
        vf = VarianceFunctionSpec.from_table(mu, variance(mu))
        grid = vf.default_grid(33) + (0.5, 0.501, 2.0, 3.999, 4.0)
        want = [vf.sigma_profile(x) for x in grid]
        assert vf.sigma_profiles(grid) == want
        assert [vf.sigma_at(x) for x in grid] == [p[0] for p in want]

    @pytest.mark.parametrize("rows", [12, 13, 41, 64, 200])
    @pytest.mark.parametrize(
        "sigma",
        [lambda mu: mu / math.sqrt(2), lambda mu: (1.3 * mu + 0.4) ** 0.75, lambda mu: np.exp(mu / 2), np.sin],
    )
    def test_quintic_spline_matches_scipy(self, rows, sigma):
        from scipy.interpolate import make_interp_spline

        mu = np.linspace(0.5, 4.0, rows)
        points = np.concatenate(
            [mu, np.random.default_rng(rows).uniform(0.5, 4.0, 200), [0.5, 4.0, np.nextafter(4.0, 0.0)]]
        )
        spline = QuinticSpline(mu, sigma(mu))
        reference = make_interp_spline(mu, sigma(mu), k=5)
        np.testing.assert_allclose(spline(points), reference(points), rtol=1e-13, atol=0.0)
        # derivatives relative to max(1, max |want|); each bound about 10x the worst case of this grid
        got = spline.derivatives(points, 5)
        for d, bound in enumerate((5e-15, 2e-12, 5e-10, 6e-8, 4e-6)):
            want = reference(points, nu=d)
            assert np.max(np.abs(got[d] - want)) <= bound * max(1.0, np.max(np.abs(want))), d

    def test_quintic_spline_reproduces_affine_sigma(self):
        mu = np.linspace(0.5, 4.0, 41)
        points = np.concatenate([mu, np.random.default_rng(0).uniform(0.5, 4.0, 500)])
        value, slope, *higher = QuinticSpline(mu, 0.8 * mu + 0.3).derivatives(points, 5)
        np.testing.assert_allclose(value, 0.8 * points + 0.3, rtol=4 * np.finfo(float).eps, atol=0.0)
        np.testing.assert_allclose(slope, 0.8, rtol=1e-12, atol=0.0)
        assert max(np.max(np.abs(d)) for d in higher) <= 1e-8

    def test_table_profiles_reach_both_ends(self):
        mu = np.linspace(0.5, 4.0, 41)
        vf = VarianceFunctionSpec.from_table(mu, mu**2)
        lo, hi = vf.sigma_profiles((0.5, 4.0))
        assert lo[:2] == pytest.approx((0.5, 1.0), rel=1e-12)
        assert hi[:2] == pytest.approx((4.0, 1.0), rel=1e-12)
        assert max(abs(d) for d in lo[2:] + hi[2:]) < 1e-8
        with pytest.raises(DomainError):
            vf.sigma_profiles((2.0, 4.5))
        with pytest.raises(DomainError):
            vf.sigma_profiles((np.nextafter(0.5, 0.0),))
        assert vf.variance_at(0.501) == pytest.approx(0.501**2, rel=1e-6)

    def test_invalid_tables(self):
        with pytest.raises(DomainError):
            VarianceFunctionSpec.from_table([1.0, 2.0, 3.0], [1.0, 4.0, 9.0])
        mu = np.linspace(0.5, 4.0, 16)
        shuffled = np.concatenate([mu[8:], mu[:8]])
        with pytest.raises(DomainError):
            VarianceFunctionSpec.from_table(shuffled, shuffled**2)


# ---- classification -----------------------------------------------------------------


class TestClassifyFamily:
    @pytest.mark.parametrize(
        "expr,domain,expected",
        [
            ("3", (0.5, 4.0), FamilyClass.GAUSSIAN_LOCATION),
            ("mu**2/2", (0.5, 4.0), FamilyClass.GAMMA_LINEAR_SIGMA),
            ("(2*mu + 1)**2", (0.5, 4.0), FamilyClass.GAMMA_LINEAR_SIGMA),
            ("2*mu**(3/2)", (0.5, 4.0), FamilyClass.TWEEDIE32_CLASS),
            ("(mu + 2)**(3/2)", (0.5, 4.0), FamilyClass.TWEEDIE32_CLASS),
            ("1 + mu**2", (0.5, 4.0), FamilyClass.NOT_EXCHANGEABLE),
            ("exp(mu)", (0.5, 4.0), FamilyClass.NOT_EXCHANGEABLE),
        ],
        ids=["const", "gamma2", "affine-sigma", "tweedie", "shifted-tweedie", "quadratic", "exp"],
    )
    def test_classes(self, expr, domain, expected):
        result = sk.classify_family(VarianceFunctionSpec.closed(expr, domain))
        assert result.family_class is expected

    def test_gamma_shape_coefficient(self):
        result = sk.classify_family(VarianceFunctionSpec.closed("mu**2/2", (0.5, 4.0)))
        assert result.coefficients["gamma_shape"] == pytest.approx(2.0, rel=1e-8)
        assert result.coefficients["exponent"] == 2.0

    def test_tweedie_exponent(self):
        result = sk.classify_family(VarianceFunctionSpec.closed("2*mu**(3/2)", (0.5, 4.0)))
        assert result.coefficients["exponent"] == 1.5

    def test_quadratic_reason_names_the_discriminant(self):
        result = sk.classify_family(VarianceFunctionSpec.closed("1 + mu**2", (0.5, 4.0)))
        assert result.family_class is FamilyClass.NOT_EXCHANGEABLE
        assert result.coefficients["discriminant"] == pytest.approx(-4.0, abs=1e-8)
        assert "discriminant" in result.reason

    def test_nonconstant_ode_reason(self):
        result = sk.classify_family(VarianceFunctionSpec.closed("exp(mu)", (0.5, 4.0)))
        assert "second-order" in result.reason

    def test_tabulated_input_classifies(self):
        mu = np.linspace(0.5, 4.0, 64)
        result = sk.classify_family(VarianceFunctionSpec.from_table(mu, mu**2 / 2))
        assert result.family_class is FamilyClass.GAMMA_LINEAR_SIGMA
        assert result.coefficients["gamma_shape"] == pytest.approx(2.0, rel=1e-6)

    def test_to_dict_is_json_ready(self):
        import json

        result = sk.classify_family(VarianceFunctionSpec.closed("3", (0.5, 4.0)))
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["family_class"] == "GaussianLocation"
