"""Tests for the four prediction strategies and their joints and regrets."""

import itertools
import math
from fractions import Fraction
from math import lgamma

import pytest

import snmlkit as sk
from snmlkit import quadrature, strategies
from snmlkit.errors import (
    DivergentNormalizer,
    HorizonTooLarge,
    ImproperPosterior,
)
from snmlkit.families import ObservationSequence
from snmlkit.strategies import STRATEGIES


def gamma_snml_density(k, history, y):
    """Closed-form one-step density for a fixed-shape family on (0, inf).

    With t observations total and history sum S, the sup-likelihood envelope
    is proportional to y^(k-1) (S+y)^(-tk); the normalizer is a Beta integral.
    """
    t = len(history) + 1
    s = sum(history)
    log_beta = lgamma(k) + lgamma((t - 1) * k) - lgamma(t * k)
    return math.exp(
        (k - 1) * math.log(y)
        - t * k * math.log(s + y)
        - (1 - t) * k * math.log(s)
        - log_beta
    )


def gaussian_snml_density(sigma2, history, y):
    t = len(history) + 1
    center = sum(history) / len(history)
    var = sigma2 * t / (t - 1)
    return math.exp(-((y - center) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)


# ---- SNML closed forms --------------------------------------------------------


class TestSnmlClosedForms:
    def test_gaussian_example_point(self):
        pred = sk.snml_predictive(sk.GaussianLocation(1.0), (0.0, 2.0))
        assert pred.density(1.0) == pytest.approx(1.0 / math.sqrt(3 * math.pi), rel=1e-12)

    @pytest.mark.parametrize("history", [(0.5,), (0.5, -1.0), (2.0, 0.3, -0.7)])
    @pytest.mark.parametrize("y", [-1.5, 0.0, 1.0, 2.5])
    def test_gaussian_general(self, history, y):
        pred = sk.snml_predictive(sk.GaussianLocation(1.0), history)
        assert pred.density(y) == pytest.approx(
            gaussian_snml_density(1.0, history, y), rel=1e-10
        )

    def test_gamma_unit_shape_single_observation(self):
        pred = sk.snml_predictive(sk.GammaShape(1.0), (1.0,))
        for y in (0.25, 1.0, 3.0):
            assert pred.density(y) == pytest.approx(1.0 / (1.0 + y) ** 2, rel=1e-9)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("history", [(1.0,), (0.5, 2.0), (1.0, 3.0, 0.4), (0.0, 1.5)])
    def test_gamma_general(self, k, history):
        pred = sk.snml_predictive(sk.GammaShape(k), history)
        for y in (0.3, 1.0, 2.5):
            assert pred.density(y) == pytest.approx(
                gamma_snml_density(k, history, y), rel=1e-8
            )

    def test_bernoulli_masses(self):
        empty = sk.snml_predictive(sk.Bernoulli(), ())
        assert empty.density(1.0) == pytest.approx(0.5, abs=1e-15)
        after_one = sk.snml_predictive(sk.Bernoulli(), (1.0,))
        assert after_one.density(1.0) == pytest.approx(0.8, abs=1e-15)
        assert after_one.density(0.0) == pytest.approx(0.2, abs=1e-15)


# ---- Bayes closed forms -------------------------------------------------------


class TestBayesClosedForms:
    def test_gamma_unit_shape_matches_snml_closed_form(self):
        pred = sk.bayes_jeffreys_predictive(sk.GammaShape(1.0), (1.0,))
        for y in (0.25, 1.0, 3.0):
            assert pred.density(y) == pytest.approx(1.0 / (1.0 + y) ** 2, rel=1e-9)

    def test_bernoulli_posterior_mean(self):
        pred = sk.bayes_jeffreys_predictive(sk.Bernoulli(), (1.0,))
        assert pred.density(1.0) == pytest.approx(0.75, rel=1e-10)

    def test_bernoulli_empty_history_is_uniform(self):
        pred = sk.bayes_jeffreys_predictive(sk.Bernoulli(), ())
        assert pred.density(1.0) == pytest.approx(0.5, rel=1e-10)

    def test_gaussian_matches_flat_prior_predictive(self):
        pred = sk.bayes_jeffreys_predictive(sk.GaussianLocation(1.0), (0.0, 2.0))
        for y in (-1.0, 1.0, 2.5):
            want = math.exp(-((y - 1.0) ** 2) / 3.0) / math.sqrt(3 * math.pi)
            assert pred.density(y) == pytest.approx(want, rel=1e-10)


# ---- equivalence and non-equivalence ------------------------------------------


EQUIVALENCE_CASES = [
    ("gaussian", sk.GaussianLocation(1.0), [(0.5,), (0.5, -1.0), (2.0, 0.3, -0.7), (0.1, 1.2, -0.4, 0.9)], (-1.5, 0.0, 1.0, 2.5)),
    ("gamma_half", sk.GammaShape(0.5), [(1.0,), (0.5, 2.0), (1.0, 3.0, 0.4), (0.0, 1.5)], (0.3, 1.0, 2.5)),
    ("gamma_one", sk.GammaShape(1.0), [(1.0,), (0.5, 2.0), (1.0, 3.0, 0.4)], (0.3, 1.0, 2.5)),
    ("gamma_two", sk.GammaShape(2.0), [(1.0,), (0.5, 2.0), (1.0, 3.0, 0.4), (0.0, 1.5)], (0.3, 1.0, 2.5)),
    ("tweedie", sk.Tweedie32(), [(1.0,), (0.5, 2.0), (1.0, 3.0, 0.4), (0.7, 0.0, 1.1, 2.0)], (0.0, 0.3, 1.0, 2.5)),
]


@pytest.mark.parametrize("name,family,histories,points", EQUIVALENCE_CASES, ids=[c[0] for c in EQUIVALENCE_CASES])
def test_snml_equals_bayes_on_exchangeable_families(name, family, histories, points):
    for history in histories:
        snml = sk.snml_predictive(family, history)
        bayes = sk.bayes_jeffreys_predictive(family, history)
        for y in points:
            a, b = snml.density(y), bayes.density(y)
            assert abs(a - b) <= 1e-6 * max(abs(a), abs(b))


def test_bernoulli_strategies_disagree():
    snml = sk.snml_predictive(sk.Bernoulli(), (1.0,)).density(1.0)
    bayes = sk.bayes_jeffreys_predictive(sk.Bernoulli(), (1.0,)).density(1.0)
    assert snml == pytest.approx(0.8, abs=1e-14)
    assert bayes == pytest.approx(0.75, rel=1e-10)


def test_poisson_strategies_disagree_by_over_one_percent():
    snml = sk.snml_predictive(sk.Poisson(), (1.0,)).density(0.0)
    bayes = sk.bayes_jeffreys_predictive(sk.Poisson(), (1.0,)).density(0.0)
    assert abs(snml - bayes) / max(snml, bayes) > 0.01


# ---- CNML and NML --------------------------------------------------------------


class TestCnml:
    def test_empty_continuation_is_one(self):
        seq = ObservationSequence((1.0, 2.0), m=2)
        assert sk.cnml_joint(sk.GammaShape(1.0), seq) == 1.0

    def test_bernoulli_full_block(self):
        assert sk.cnml_joint(sk.Bernoulli(), ObservationSequence((1.0, 1.0))) == Fraction(2, 5)

    def test_gaussian_one_step_value(self):
        seq = ObservationSequence((0.0, 0.0), m=1)
        assert sk.cnml_joint(sk.GaussianLocation(1.0), seq) == pytest.approx(
            1.0 / math.sqrt(4 * math.pi), rel=1e-10
        )

    @pytest.mark.parametrize(
        "name,family,history,y",
        [
            ("gaussian", sk.GaussianLocation(1.0), (0.5, -1.0), 0.7),
            ("gamma", sk.GammaShape(0.5), (1.0,), 0.4),
            ("tweedie", sk.Tweedie32(), (0.5, 2.0), 1.3),
            ("bernoulli", sk.Bernoulli(), (1.0, 0.0), 1.0),
            ("poisson", sk.Poisson(), (2.0, 1.0), 3.0),
            # both sup-likelihoods are 0 here; the ratio is 40/729
            ("gamma-zero-in-prefix", sk.GammaShape(2.0), (1.0, 0.0), 2.0),
        ],
        ids=["gaussian", "gamma", "tweedie", "bernoulli", "poisson", "gamma-zero-in-prefix"],
    )
    def test_one_step_reduces_to_snml(self, name, family, history, y):
        seq = ObservationSequence(history + (y,), m=len(history))
        joint = float(sk.cnml_joint(family, seq))
        assert joint == pytest.approx(sk.snml_predictive(family, history).density(y), rel=1e-8)

    def test_continuous_horizon_cap(self):
        with pytest.raises(HorizonTooLarge):
            sk.cnml_joint(sk.GaussianLocation(1.0), ObservationSequence((0.0,) * 6, m=1))

    def test_discrete_horizon_cap(self):
        with pytest.raises(HorizonTooLarge):
            sk.cnml_joint(sk.Bernoulli(), ObservationSequence((1.0,) * 14, m=1))


class TestNml:
    def test_bernoulli_values(self):
        assert sk.nml_joint(sk.Bernoulli(), ObservationSequence((1.0, 0.0))) == Fraction(1, 10)
        assert sk.nml_joint(sk.Bernoulli(), ObservationSequence((1.0,))) == Fraction(1, 2)

    def test_gaussian_normalizer_diverges(self):
        with pytest.raises(DivergentNormalizer):
            sk.nml_joint(sk.GaussianLocation(1.0), ObservationSequence((0.0, 1.0)))

    def test_requires_empty_conditioning(self):
        with pytest.raises(ValueError):
            sk.nml_joint(sk.Bernoulli(), ObservationSequence((1.0, 0.0), m=1))


class TestShtarkov:
    def test_small_sums(self):
        ber = sk.Bernoulli()
        assert sk.shtarkov_sum(ber, 1) == Fraction(2)
        assert sk.shtarkov_sum(ber, 2) == Fraction(5, 2)

    def test_refused_outside_bernoulli(self):
        with pytest.raises(DivergentNormalizer):
            sk.shtarkov_sum(sk.GaussianLocation(1.0), 2)


# ---- joints --------------------------------------------------------------------


class TestStrategyJoint:
    def test_bernoulli_exact_rationals(self):
        ber = sk.Bernoulli()
        assert sk.strategy_joint(ber, "snml", ObservationSequence((1.0, 1.0, 0.0))) == Fraction(8, 155)
        assert sk.strategy_joint(ber, "snml", ObservationSequence((1.0, 0.0, 1.0))) == Fraction(1, 20)

    def test_gaussian_permuted_continuations_agree(self):
        fam = sk.GaussianLocation(1.0)
        j1 = sk.strategy_joint(fam, "snml", ObservationSequence((0.0, 0.0, 2.0), m=1))
        j2 = sk.strategy_joint(fam, "snml", ObservationSequence((0.0, 2.0, 0.0), m=1))
        want = (1.0 / (2 * math.sqrt(math.pi))) * math.exp(-4.0 / 3.0) / math.sqrt(3 * math.pi)
        assert j1 == pytest.approx(want, rel=1e-10)
        assert j1 == pytest.approx(j2, rel=1e-12)

    def test_matches_product_of_one_steps(self):
        fam = sk.GammaShape(1.0)
        seq = ObservationSequence((1.0, 0.5, 2.0), m=1)
        joint = sk.strategy_joint(fam, "bayes", seq)
        step1 = sk.bayes_jeffreys_predictive(fam, (1.0,)).density(0.5)
        step2 = sk.bayes_jeffreys_predictive(fam, (1.0, 0.5)).density(2.0)
        assert joint == pytest.approx(step1 * step2, rel=1e-12)

    def test_strategy_names(self):
        assert set(STRATEGIES) == {"snml", "bayes", "cnml", "nml"}
        with pytest.raises(ValueError):
            sk.strategy_joint(sk.Bernoulli(), "mdl", ObservationSequence((1.0,)))


# ---- regret --------------------------------------------------------------------


class TestRegret:
    def test_bernoulli_nml_equalizes_at_n2(self):
        ber = sk.Bernoulli()
        for obs in itertools.product((0.0, 1.0), repeat=2):
            record = sk.conditional_regret(ber, "nml", ObservationSequence(obs))
            assert record.regret == pytest.approx(math.log(2.5), abs=1e-14)

    def test_record_identity(self):
        record = sk.conditional_regret(sk.Bernoulli(), "nml", ObservationSequence((1.0, 0.0)))
        assert record.regret == pytest.approx(
            record.strategy_loss + record.best_expert_loglik, abs=1e-12
        )
        assert (record.m, record.n) == (0, 2)

    def test_cnml_regret_depends_on_history_only(self):
        fam = sk.GaussianLocation(1.0)
        r1 = sk.conditional_regret(fam, "cnml", ObservationSequence((0.5, 2.0), m=1))
        r2 = sk.conditional_regret(fam, "cnml", ObservationSequence((0.5, -1.0), m=1))
        assert r1.regret == pytest.approx(r2.regret, abs=1e-10)

    def test_snml_regret_nonnegative_for_bernoulli(self):
        record = sk.conditional_regret(sk.Bernoulli(), "snml", ObservationSequence((1.0, 0.0, 1.0)))
        assert record.regret >= 0.0


# ---- predictive distribution contract -------------------------------------------


ALL_PREDICTIVE_CASES = [
    ("gaussian", sk.GaussianLocation(1.0), (0.5, -1.0)),
    ("gamma", sk.GammaShape(0.5), (1.0, 2.0)),
    ("tweedie", sk.Tweedie32(), (1.0,)),
    ("bernoulli", sk.Bernoulli(), (1.0, 0.0)),
    ("poisson", sk.Poisson(), (2.0,)),
]


@pytest.mark.parametrize("maker", [sk.snml_predictive, sk.bayes_jeffreys_predictive], ids=["snml", "bayes"])
@pytest.mark.parametrize("name,family,history", ALL_PREDICTIVE_CASES, ids=[c[0] for c in ALL_PREDICTIVE_CASES])
def test_predictive_normalizes(name, family, history, maker):
    pred = maker(family, history)
    core = family.convex_core()
    if name == "bernoulli":
        total = pred.density(0.0) + pred.density(1.0)
    elif name == "poisson":
        total = quadrature.sum_counting(lambda k: pred.density(float(k)), start=0)
    else:
        lo = core.lower if math.isinf(core.lower) else core.lower + 1e-300
        res = quadrature.integrate(
            quadrature.guarded(pred.density),
            (lo, core.upper),
            peak_hint=family.mle_mean(history).value if history else None,
        )
        total = res.value + sum(mass for _, mass in pred.atoms)
    assert total == pytest.approx(1.0, abs=1e-6)
    assert pred.normalizer > 0.0


@pytest.mark.parametrize("maker", [sk.snml_predictive, sk.bayes_jeffreys_predictive], ids=["snml", "bayes"])
@pytest.mark.parametrize("history", [(0.3,), (2.0, 0.5), (1.0, 4.0, 0.2), (0.05, 0.7, 3.0, 11.0, 0.9)])
def test_levy_matches_the_pulled_back_gamma_closed_form(maker, history):
    """The Levy law is the reciprocal of the half-shape Gamma family, so its
    predictive density at y is the Gamma one at 1/y times 1/y^2."""
    levy = sk.transform_family(sk.GammaShape(0.5), lambda x: 1.0 / x, lambda y: 1.0 / y, lambda y: -1.0 / (y * y))
    pred = maker(levy, history)
    pulled = tuple(1.0 / x for x in history)
    for y in (0.01, 0.3, 1.0, 7.0, 200.0):
        want = gamma_snml_density(0.5, pulled, 1.0 / y) / (y * y)
        assert pred.density(y) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("maker", [sk.snml_predictive, sk.bayes_jeffreys_predictive], ids=["snml", "bayes"])
def test_permuted_histories_share_one_normalizer(maker):
    cache = strategies._snml_log_normalizer if maker is sk.snml_predictive else strategies._jeffreys_posterior
    family = sk.GammaShape(2.0)
    cache.cache_clear()
    preds = [maker(family, h) for h in ((0.7, 2.5, 1.1), (2.5, 1.1, 0.7), (1.1, 0.7, 2.5))]
    assert cache.cache_info().misses == 1
    assert len({p.log_normalizer for p in preds}) == 1
    assert len({p.density(1.3) for p in preds}) == 1


def test_tweedie_predictive_has_zero_atom():
    pred = sk.snml_predictive(sk.Tweedie32(), (1.0,))
    atoms = dict(pred.atoms)
    assert set(atoms) == {0.0}
    assert 0.0 < atoms[0.0] < 1.0


def test_densities_are_nonnegative():
    pred = sk.snml_predictive(sk.GaussianLocation(1.0), (0.0,))
    for y in (-50.0, -1.0, 0.0, 1.0, 50.0):
        assert pred.density(y) >= 0.0


# ---- divergence guards -----------------------------------------------------------


@pytest.mark.parametrize(
    "family",
    [sk.GaussianLocation(1.0), sk.GammaShape(1.0), sk.Tweedie32(), sk.Poisson()],
    ids=lambda f: type(f).__name__,
)
def test_empty_history_diverges_for_most_families(family):
    with pytest.raises(DivergentNormalizer):
        sk.snml_predictive(family, ())
    with pytest.raises((ImproperPosterior, DivergentNormalizer)):
        sk.bayes_jeffreys_predictive(family, ())


# ---- early, typed failures -----------------------------------------------------

BUILT_IN = [
    sk.GaussianLocation(1.0),
    sk.GammaShape(0.5),
    sk.GammaShape(2.0),
    sk.Tweedie32(),
    sk.Bernoulli(),
    sk.Poisson(),
    sk.transform_family(sk.GammaShape(0.5), lambda x: 1.0 / x, lambda y: 1.0 / y, lambda y: -1.0 / (y * y)),
]


@pytest.mark.parametrize("family", BUILT_IN, ids=repr)
@pytest.mark.parametrize("entry", ["snml_predictive", "bayes_jeffreys_predictive", "log_density"])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_observations_are_unsupported(family, entry, x):
    with pytest.raises(sk.UnsupportedPoint):
        if entry == "log_density":
            family.log_density(family.default_reference(), x)
        else:
            getattr(sk, entry)(family, (x,))


LEVY_AT_ZERO = {
    "snml density": lambda levy: sk.snml_predictive(levy, (1.0,)).density(0.0),
    "bayes density": lambda levy: sk.bayes_jeffreys_predictive(levy, (1.0,)).density(0.0),
    "log_density_mean": lambda levy: levy.log_density_mean(1.0, 0.0),
    "snml history": lambda levy: sk.snml_predictive(levy, (1.0, 0.0)),
    "bayes history": lambda levy: sk.bayes_jeffreys_predictive(levy, (0.0, 2.0)),
    "joint": lambda levy: sk.strategy_joint(levy, "snml", sk.ObservationSequence((1.0, 0.0, 2.0), 1)),
}


@pytest.mark.parametrize("call", LEVY_AT_ZERO.values(), ids=LEVY_AT_ZERO.keys())
def test_levy_closure_point_without_finite_pullback_is_unsupported(call):
    """0 closes the Levy support, but the reciprocal map sends it to infinity."""
    levy = BUILT_IN[-1]
    with pytest.raises(sk.UnsupportedPoint):
        call(levy)


@pytest.mark.parametrize("shape", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("history", [(0.0,), (0.0, 0.0)])
def test_degenerate_mle_raises_one_domain_error_before_quadrature(shape, history, monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran for a degenerate history")

    monkeypatch.setattr(quadrature, "integrate", no_quadrature)
    family = sk.GammaShape(shape)
    messages = set()
    for predictive in (sk.snml_predictive, sk.bayes_jeffreys_predictive):
        with pytest.raises(sk.DomainError) as info:
            predictive(family, history)
        messages.add(str(info.value))
    assert len(messages) == 1
