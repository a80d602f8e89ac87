"""Acceptance gate: ten pass/fail criteria with stated tolerances.

Each test drives one criterion through the public API and reports a single
ACCEPTANCE line (collected into the terminal summary by conftest).
"""

import itertools
import math
from fractions import Fraction
from math import comb, gamma as gamma_fn

import numpy as np
from scipy.integrate import quad

import snmlkit as sk
from snmlkit import Verdict, tweedie
from snmlkit.families import ObservationSequence

from conftest import ACCEPTANCE_LINES


def check(number: int, description: str, fn) -> None:
    label = f"criterion {number:02d} ({description})"
    try:
        fn()
    except BaseException:
        line = f"ACCEPTANCE {label}: FAIL"
        ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    line = f"ACCEPTANCE {label}: PASS"
    ACCEPTANCE_LINES.append(line)
    print(line)


def test_criterion_01_tweedie_kl_closed_form():
    def body():
        fam = sk.Tweedie32()
        grid = (0.25, 0.5, 1.0, 2.0, 4.0)
        for mu0 in grid:
            for mu1 in grid:
                closed = fam.kl_divergence(mu0, mu1)
                if mu0 == mu1:
                    assert closed == 0.0
                    continue
                lo, hi = sorted((mu0, mu1))
                value = quad(lambda mu: (mu - mu0) / (2.0 * mu**1.5), lo, hi, epsabs=1e-10, epsrel=1e-8)[0]
                numeric = value if mu1 >= mu0 else -value
                assert abs(closed - numeric) <= 1e-8

    check(1, "Tweedie KL closed form vs variance integral", body)


def test_criterion_02_concentration_integral_constancy():
    def body():
        for n in (2, 3, 5):
            gauss = sk.check_constancy(sk.GaussianLocation(1.0), n, (-2.0, 0.0, 1.0, 3.0))
            for value in gauss.values:
                assert abs(value - math.sqrt(2 * math.pi / n)) <= 1e-10

            gamma_want = gamma_fn(n) * math.exp(n) / n**n
            gamma = sk.check_constancy(sk.GammaShape(1.0), n, (0.5, 1.0, 2.0, 5.0))
            for value in gamma.values:
                assert abs(value - gamma_want) <= 1e-8

            twee = sk.check_constancy(sk.Tweedie32(), n, (0.25, 0.5, 1.0, 4.0))
            for value in twee.values:
                assert abs(value - math.sqrt(2 * math.pi / n)) <= 1e-4

            poisson = sk.check_constancy(sk.Poisson(), n, (0.25, 0.5, 1.0, 4.0))
            assert poisson.verdict is Verdict.NON_CONSTANT
            assert (max(poisson.values) - min(poisson.values)) > 0.01 * poisson.reference_value

            bernoulli = sk.check_constancy(sk.Bernoulli(), n, (0.2, 0.35, 0.5, 0.8))
            assert bernoulli.verdict is Verdict.NON_CONSTANT
            assert (max(bernoulli.values) - min(bernoulli.values)) > 0.01 * bernoulli.reference_value

    check(2, "concentration integral constant exactly for the three families", body)


SNML_BAYES_CASES = [
    (sk.GaussianLocation(1.0), [(0.5,), (0.5, -1.0), (2.0, 0.3, -0.7)], (-1.5, 0.0, 1.0, 2.5)),
    (sk.GammaShape(0.5), [(1.0,), (0.5, 2.0), (1.0, 3.0, 0.4)], (0.3, 1.0, 2.5)),
    (sk.GammaShape(1.0), [(1.0,), (0.5, 2.0), (1.0, 3.0, 0.4)], (0.3, 1.0, 2.5)),
    (sk.GammaShape(2.0), [(1.0,), (0.5, 2.0), (1.0, 3.0, 0.4)], (0.3, 1.0, 2.5)),
    (sk.Tweedie32(), [(1.0,), (0.5, 2.0), (1.0, 3.0, 0.4)], (0.0, 0.3, 1.0, 2.5)),
]


def test_criterion_03_snml_bayes_equivalence():
    def body():
        for family, histories, points in SNML_BAYES_CASES:
            for history in histories:
                snml = sk.snml_predictive(family, history)
                bayes = sk.bayes_jeffreys_predictive(family, history)
                for y in points:
                    a, b = snml.density(y), bayes.density(y)
                    assert abs(a - b) <= 1e-6 * max(abs(a), abs(b))

        ber = sk.Bernoulli()
        snml_mass = sk.snml_predictive(ber, (1.0,)).density(1.0)
        bayes_mass = sk.bayes_jeffreys_predictive(ber, (1.0,)).density(1.0)
        assert abs(snml_mass - 0.8) <= 1e-14
        assert abs(bayes_mass - 0.75) <= 1e-12
        assert snml_mass != bayes_mass

        unit = sk.GammaShape(1.0)
        for x in (0.25, 1.0, 3.0):
            want = 1.0 / (1.0 + x) ** 2
            assert abs(sk.snml_predictive(unit, (1.0,)).density(x) - want) <= 1e-8 * want
            assert abs(sk.bayes_jeffreys_predictive(unit, (1.0,)).density(x) - want) <= 1e-8 * want

    check(3, "SNML and Jeffreys-Bayes one-step predictives agree", body)


def test_criterion_04_exchangeability():
    def body():
        ber = sk.Bernoulli()
        assert sk.strategy_joint(ber, "snml", ObservationSequence((1.0, 1.0, 0.0))) == Fraction(8, 155)
        assert sk.strategy_joint(ber, "snml", ObservationSequence((1.0, 0.0, 1.0))) == Fraction(1, 20)

        for family in (sk.GaussianLocation(1.0), sk.GammaShape(1.0), sk.Tweedie32()):
            for n, count, seed in ((3, 10, 0), (4, 10, 1)):
                report = sk.exchangeability_test(
                    family, 1, n, "random", count=count, seed=seed, sample_mean=1.0
                )
                assert report.max_abs_deviation < 1e-6

    check(4, "SNML joints permutation-invariant except Bernoulli", body)


def test_criterion_05_nml_equalizer():
    def body():
        ber = sk.Bernoulli()
        for seq in itertools.product((0.0, 1.0), repeat=2):
            record = sk.conditional_regret(ber, "nml", ObservationSequence(seq))
            assert abs(record.regret - math.log(2.5)) <= 1e-12

        for n in range(1, 7):
            shtarkov = Fraction(0)
            for k in range(n + 1):
                shtarkov += comb(n, k) * Fraction(k**k * (n - k) ** (n - k), n**n)
            assert sk.shtarkov_sum(ber, n) == shtarkov
            for seq in itertools.product((0.0, 1.0), repeat=n):
                k = sum(int(v) for v in seq)
                sup = Fraction(k**k * (n - k) ** (n - k), n**n)
                assert sk.nml_joint(ber, ObservationSequence(seq)) == sup / shtarkov

    check(5, "Bernoulli NML regret is an exact equalizer up to n=6", body)


def test_criterion_06_laplace_asymptotics():
    def body():
        report = sk.laplace_asymptotics_check(sk.GammaShape(1.0), 1.0, n_list=(10, 20, 50))
        for n, ratio in zip(report.grid, report.values):
            assert abs(ratio - 1.0 - 1.0 / (12 * n)) < 1.0 / n**2

        restricted = sk.GaussianLocation(1.0, mean_domain=(1.0, math.inf))
        raw = sk.condition_integral(restricted, 1.0, 100) / math.sqrt(2 * math.pi / 100)
        assert abs(raw - 0.5) < 0.05

    check(6, "Laplace ratio 1 + 1/(12n) interior, 1/2 on the boundary", body)


ODE_BATTERY = [
    ("3", (0.5, 4.0), Verdict.CONSTANT),
    ("(2*mu + 1)**2", (0.5, 4.0), Verdict.CONSTANT),
    ("(mu + 2)**(3/2)", (0.5, 4.0), Verdict.CONSTANT),
    ("mu", (0.5, 4.0), Verdict.NON_CONSTANT),
    ("mu*(1 - mu)", (0.1, 0.9), Verdict.NON_CONSTANT),
    ("mu**3", (0.5, 4.0), Verdict.NON_CONSTANT),
    ("exp(mu)", (0.5, 4.0), Verdict.NON_CONSTANT),
]


def test_criterion_07_ode_battery():
    def body():
        for expr, domain, verdict in ODE_BATTERY:
            vf = sk.VarianceFunctionSpec.closed(expr, domain)
            assert sk.sigma_ode_check(vf).verdict is verdict, expr
            assert sk.higher_order_check(vf).verdict is verdict, expr

    check(7, "ODE and higher-order verdicts match the analytic table 7/7", body)


def test_criterion_08_levy_transformation():
    def body():
        def recip(x: float) -> float:
            return 1.0 / x

        fam = sk.transform_family(sk.GammaShape(0.5), recip, recip, lambda z: -1.0 / (z * z))
        c = 2.0
        mu0 = 1.0 / c
        for z in (0.2, 0.5, 1.0, 3.0, 10.0):
            want = math.sqrt(c / (2 * math.pi)) * z**-1.5 * math.exp(-c / (2 * z))
            got = math.exp(fam.log_density(mu0, z))
            assert abs(got - want) <= 1e-10 * want

        report = sk.exchangeability_test(fam, 1, 3, "random", count=6, seed=2, sample_mean=1.0)
        assert report.verdict is Verdict.CONSTANT
        assert report.max_abs_deviation < 1e-6

    check(8, "reciprocal of the half-shape family stays exchangeable", body)


def test_criterion_09_tweedie_sampler_moments():
    def body():
        n = 100_000
        draws = tweedie.sample(1.0, n, seed=123)
        mean = float(np.mean(draws))
        assert abs(mean - 1.0) <= 3.0 * math.sqrt(2.0 / n)
        zero_fraction = float(np.mean(draws == 0.0))
        p = math.exp(-1.0)
        assert abs(zero_fraction - p) <= 3.0 * math.sqrt(p * (1 - p) / n)

    check(9, "compound-Poisson sampler reproduces mean and atom mass", body)


ONE_STEP_CASES = [
    (sk.GaussianLocation(1.0), (0.5, -1.0), (-0.5, 0.7)),
    (sk.GammaShape(0.5), (1.0,), (0.4, 2.0)),
    (sk.GammaShape(1.0), (0.5, 2.0), (0.4, 2.0)),
    (sk.Tweedie32(), (0.5, 2.0), (0.0, 1.3)),
    (sk.Bernoulli(), (1.0, 0.0), (0.0, 1.0)),
    (sk.Poisson(), (2.0, 1.0), (0.0, 3.0)),
]


def test_criterion_10_one_step_consistency():
    def body():
        for family, history, points in ONE_STEP_CASES:
            predictive = sk.snml_predictive(family, history)
            for y in points:
                joint = float(sk.cnml_joint(family, ObservationSequence(history + (y,), m=len(history))))
                step = predictive.density(y)
                assert abs(joint - step) <= 1e-8 * max(abs(joint), abs(step))

    check(10, "one-step CNML equals the SNML predictive", body)
