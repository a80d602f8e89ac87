"""The benchmark workloads: seeded inputs, the library calls, and their oracles.

A workload is an endless sequence of rounds.  Each round holds one op of
every op class, in a seeded order, so the input mix is the same in every
round and every run; only the drawn values change with the seed.  Inputs are
drawn here with numpy; the library receives only the drawn values (and, for
``exchangeability_test``'s random set, a drawn seed).

An op's ``call`` is the timed library call and returns plain values that can
be compared bit for bit; ``check`` compares them with an oracle from
``oracles`` and returns the largest relative error.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles as orc
from oracles import OracleMismatch, expect_close

TOL = 1e-6  # quadrature values against closed forms, and the paper's SNML = Bayes
VARIANCE_DOMAIN = (0.5, 4.0)


@dataclass
class Op:
    cls: str
    call: Callable[[object], object]  # called with the snmlkit module
    check: Callable[[object], float]
    stratum: int = 0  # slice of the drawn mean's range; metrics weigh (cls, stratum) cells


@dataclass
class Context:
    """What set-up builds before the first timed op."""

    families: dict = field(default_factory=dict)
    specs: list = field(default_factory=list)  # (case, closed spec, tabulated spec)
    spec_build_s: float = 0.0


@dataclass(frozen=True)
class Slice:
    """Slice ``index`` of ``count`` equal slices of a range on the log scale."""

    index: int = 0
    count: int = 1

    def log_uniform(self, rng, lo: float = 0.2, hi: float = 20.0) -> float:
        u = (self.index + rng.uniform()) / self.count
        return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _log_uniform(rng, lo: float = 0.2, hi: float = 20.0) -> float:
    return Slice().log_uniform(rng, lo, hi)


def _rounds(rng, makers, strata: int):
    """Endless rounds: every op class once, in seeded order.

    ``makers[i](rng, slice)`` builds an op of class i.  Its main mean is
    stratified across rounds: every ``strata`` consecutive rounds give each
    class one mean from each slice of the range, in seeded order, so op
    costs that depend on the mean average out within a run.
    """
    for r in itertools.count():
        if r % strata == 0:
            orders = [rng.permutation(strata) for _ in makers]
        ops = []
        for make, order in zip(makers, orders):
            op = make(rng, Slice(int(order[r % strata]), strata))
            op.stratum = int(order[r % strata])
            ops.append(op)
        yield [ops[i] for i in rng.permutation(len(ops))]


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


# ---- families and their samplers ----------------------------------------------


def _reciprocal(x: float) -> float:
    return 1.0 / x


def _reciprocal_derivative(z: float) -> float:
    return -1.0 / (z * z)


FAMILY_BUILDERS = {
    "gaussian": lambda sk: sk.GaussianLocation(1.0),
    "gamma0.5": lambda sk: sk.GammaShape(0.5),
    "gamma1": lambda sk: sk.GammaShape(1.0),
    "gamma2": lambda sk: sk.GammaShape(2.0),
    "tweedie": lambda sk: sk.Tweedie32(),
    "poisson": lambda sk: sk.Poisson(),
    "bernoulli": lambda sk: sk.Bernoulli(),
    # Levy law: the reciprocal of the half-shape gamma family
    "levy": lambda sk: sk.transform_family(sk.GammaShape(0.5), _reciprocal, _reciprocal, _reciprocal_derivative),
}
_GAMMA_SHAPE = {"gamma0.5": 0.5, "gamma1": 1.0, "gamma2": 2.0}


def draw(rng, kind: str, mean: float, size: int) -> tuple[float, ...]:
    """Observations from the family member with this mean (Bernoulli: odds)."""
    if kind == "gaussian":
        return _floats(rng.normal(mean, 1.0, size))
    if kind in _GAMMA_SHAPE:
        k = _GAMMA_SHAPE[kind]
        return _floats(rng.gamma(k, mean / k, size))
    if kind == "levy":
        return _floats(1.0 / rng.gamma(0.5, 2.0 * mean, size))
    if kind == "tweedie":
        root = math.sqrt(mean)
        arrivals = rng.poisson(root, size)
        return tuple(float(rng.gamma(a, root)) if a else 0.0 for a in arrivals)
    if kind == "poisson":
        return _floats(rng.poisson(mean, size))
    if kind == "bernoulli":
        return _floats(rng.random(size) < mean / (1.0 + mean))
    raise ValueError(kind)


def log_predictive(kind: str, strategy: str, hist: tuple[float, ...], y: float) -> float:
    """Reference log density of the one-step SNML or Jeffreys predictive."""
    if kind == "gaussian":
        return orc.gaussian_log_predictive(hist, y)
    if kind in _GAMMA_SHAPE:
        return orc.gamma_log_predictive(hist, y, _GAMMA_SHAPE[kind])
    if kind == "levy":
        return orc.gamma_log_predictive(tuple(1.0 / x for x in hist), 1.0 / y, 0.5) - 2.0 * math.log(y)
    if kind == "tweedie":
        return orc.tweedie_log_predictive(hist, y)
    if kind == "poisson":
        if strategy == "snml":
            return orc.poisson_log_snml_predictive(hist, y)
        return orc.poisson_log_bayes_predictive(hist, y)
    if kind == "bernoulli":
        pred = orc.bernoulli_snml_predictive if strategy == "snml" else orc.bernoulli_kt_predictive
        return math.log(pred(hist, y))
    raise ValueError(kind)


def log_suplik(kind: str, values: tuple[float, ...]) -> float:
    if kind == "gaussian":
        return orc.gaussian_log_suplik(values)
    if kind in _GAMMA_SHAPE:
        return orc.gamma_log_suplik(values, _GAMMA_SHAPE[kind])
    if kind == "tweedie":
        return orc.tweedie_log_suplik(values)
    if kind == "poisson":
        return orc.poisson_log_suplik(values)
    if kind == "bernoulli":
        return orc.bernoulli_log_suplik(values)
    raise ValueError(kind)


# ---- predict-cold -------------------------------------------------------------

PREDICT_LENGTHS = (1, 2, 4, 8, 16)
PREDICT_POINTS = 2


def _predict_op(rng, slc: Slice, kind: str, n: int) -> Op:
    mean = slc.log_uniform(rng)
    hist = draw(rng, kind, mean, n)
    points = draw(rng, kind, mean, PREDICT_POINTS)
    build = FAMILY_BUILDERS[kind]

    def call(sk):
        # a fresh family object per op: the strategies caches key on it
        family = build(sk)
        snml = sk.snml_predictive(family, hist)
        bayes = sk.bayes_jeffreys_predictive(family, hist)
        return tuple(snml.density(y) for y in points) + tuple(bayes.density(y) for y in points)

    def check(values) -> float:
        worst = 0.0
        for i, strategy in enumerate(("snml", "bayes")):
            for j, y in enumerate(points):
                want = math.exp(log_predictive(kind, strategy, hist, y))
                got = values[i * PREDICT_POINTS + j]
                worst = max(worst, expect_close(got, want, TOL, f"{strategy} {kind} {hist} at {y}"))
        return worst

    return Op(f"{kind}-n{n}", call, check)


def _predict_rounds(ctx: Context, rng):
    makers = [
        lambda rng, slc, kind=kind, n=n: _predict_op(rng, slc, kind, n)
        for kind in FAMILY_BUILDERS
        for n in PREDICT_LENGTHS
    ]
    return _rounds(rng, makers, 4)


# ---- cnml-joints ----------------------------------------------------------------


def _joint_check(kind: str, strategy: str, values: tuple[float, ...], m: int):
    """Reference joint of values[m:] (exact Fraction for Bernoulli)."""
    if kind == "bernoulli":
        if strategy in ("cnml", "nml"):
            return orc.bernoulli_cnml(values, m)
        pred = orc.bernoulli_snml_predictive if strategy == "snml" else orc.bernoulli_kt_predictive
        return orc.sequential_joint(pred, values, m)
    if strategy == "cnml" and kind == "gaussian":
        return math.exp(orc.gaussian_log_cnml(values, m))
    if strategy == "cnml" and kind == "poisson":
        return math.exp(orc.poisson_log_cnml(values, m))
    if strategy == "cnml" and len(values) - m != 1:
        raise ValueError("continuous CNML references are one-step here")
    if strategy == "cnml":
        strategy = "snml"  # one-step CNML is the SNML predictive
    return math.exp(orc.sequential_log_joint(lambda h, y: log_predictive(kind, strategy, h, y), values, m))


# (op class, family, strategy, m, n, regret?).  Continuous CNML at free
# horizon 2 nests two adaptive integrals; its two classes are a sixth of the
# mix, so op_p90_ms falls inside their latencies.  Five classes cost 30-90 ms
# and hold the median, clear of the cheap and the nested classes.
CNML_CLASSES = (
    ("gaussian-h2-cnml-joint", "gaussian", "cnml", 1, 3, False),
    ("gaussian-h2-cnml-regret", "gaussian", "cnml", 1, 3, True),
    ("gaussian-h2-snml-joint", "gaussian", "snml", 1, 3, False),
    ("gaussian-h2-bayes-regret", "gaussian", "bayes", 1, 3, True),
    ("gamma1-h1-cnml-joint", "gamma1", "cnml", 2, 3, False),
    ("tweedie-h1-cnml-joint", "tweedie", "cnml", 2, 3, False),
    ("tweedie-h1-snml-regret", "tweedie", "snml", 2, 3, True),
    ("tweedie-h1-bayes-joint", "tweedie", "bayes", 2, 3, False),
    ("poisson-h2-cnml-joint", "poisson", "cnml", 1, 3, False),
    ("bernoulli-nml-regret", "bernoulli", "nml", 0, 12, True),  # exact, 2^12 sequences
    ("bernoulli-cnml-joint", "bernoulli", "cnml", 2, 12, False),
    ("bernoulli-bayes-regret", "bernoulli", "bayes", 1, 12, True),
)


def _cnml_op(ctx: Context, rng, slc: Slice, cls, kind, strategy, m, n, regret) -> Op:
    values = draw(rng, kind, slc.log_uniform(rng), n)
    family = ctx.families[kind]

    def call(sk):
        seq = sk.ObservationSequence(values, m)
        if regret:
            record = sk.conditional_regret(family, strategy, seq)
            return (record.strategy_loss, record.best_expert_loglik, record.regret)
        return sk.strategy_joint(family, strategy, seq)

    def check(result) -> float:
        want = _joint_check(kind, strategy, values, m)
        if not regret:
            if kind == "bernoulli" and strategy != "bayes":
                if result != want:
                    raise OracleMismatch(f"{cls} {values}: got {result}, want {want}")
                return 0.0
            return expect_close(result, want, TOL, f"{cls} {values}")
        loss, best, reg = result
        want_best = log_suplik(kind, values)
        worst = expect_close(math.exp(-loss), want, TOL, f"{cls} {values} joint")
        worst = max(worst, expect_close(best, want_best, TOL, f"{cls} {values} sup-likelihood", floor=1.0))
        return max(worst, expect_close(reg, loss + best, 1e-12, f"{cls} regret identity", floor=1.0))

    return Op(cls, call, check)


def _cnml_rounds(ctx: Context, rng):
    return _rounds(rng, [lambda rng, slc, spec=spec: _cnml_op(ctx, rng, slc, *spec) for spec in CNML_CLASSES], 3)


# ---- analyses -------------------------------------------------------------------

# (kind, expression template); the first three are the exchangeable forms.
VARIANCE_FORMS = (
    ("constant", "{a}"),
    ("gamma_line", "({k}*mu + {l})**2"),
    ("tweedie_class", "({k}*mu + {l})**(3/2)"),
    ("linear", "{a}*mu"),
    ("cubic", "{a}*mu**3"),
    ("exponential", "{a}*exp(mu)"),
)
_EXPECTED_CLASS = {"constant": "GaussianLocation", "gamma_line": "GammaLinearSigma", "tweedie_class": "Tweedie32Class"}
TABLE_ROWS = 41


@dataclass
class VarianceCase:
    kind: str
    expression: str
    coef: tuple[float, ...]

    def variance(self, mu: np.ndarray) -> np.ndarray:
        a, ell = self.coef
        if self.kind == "constant":
            return np.full_like(mu, a)
        if self.kind == "gamma_line":
            return (a * mu + ell) ** 2
        if self.kind == "tweedie_class":
            return (a * mu + ell) ** 1.5
        if self.kind == "linear":
            return a * mu
        if self.kind == "cubic":
            return a * mu**3
        return a * np.exp(mu)


def variance_cases(seed: int) -> list[VarianceCase]:
    """One seeded case of each variance form; coefficients printed to 6 digits."""
    rng = np.random.default_rng([seed, 1])
    cases = []
    for kind, template in VARIANCE_FORMS:
        a, k, ell = (float(f"{x:.6g}") for x in (rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.0)))
        coef = (k, ell) if kind in ("gamma_line", "tweedie_class") else (a, 0.0)
        cases.append(VarianceCase(kind, template.format(a=a, k=k, l=ell), coef))
    return cases


def build_specs(sk, cases: list[VarianceCase]) -> list:
    """(case, closed-form spec, tabulated spec) for every variance case."""
    mu = np.linspace(*VARIANCE_DOMAIN, TABLE_ROWS)
    out = []
    for case in cases:
        closed = sk.VarianceFunctionSpec.closed(case.expression, VARIANCE_DOMAIN)
        table = sk.VarianceFunctionSpec.from_table(mu, case.variance(mu), label=case.kind)
        out.append((case, closed, table))
    return out


def _variance_op(spec, case: VarianceCase, tabulated: bool) -> Op:
    c_tol = 1e-3 if tabulated else 1e-6
    c_want = orc.sigma_ode_constant(case.kind, case.coef)

    def call(sk):
        ode = sk.sigma_ode_check(spec)
        # fourth derivatives of a spline are too rough for the higher-order
        # combinations at the tabulated tolerance, so only closed forms run them
        higher = None if tabulated else sk.higher_order_check(spec).verdict.value
        return (ode.verdict.value, ode.reference_value, higher, sk.classify_family(spec).family_class.value)

    def check(result) -> float:
        ode_verdict, c, higher, family_class = result
        expected = "Constant" if c_want is not None else "NonConstant"
        want_class = _EXPECTED_CLASS.get(case.kind, "NotExchangeable")
        what = f"{'table' if tabulated else 'closed'} {case.expression}"
        if ode_verdict != expected or higher != (None if tabulated else expected) or family_class != want_class:
            raise OracleMismatch(f"{what}: got {result}, want {expected} / {want_class}")
        if c_want is None:
            return 0.0
        err = abs(c - c_want) / max(1.0, abs(c_want))
        if not err <= c_tol:
            raise OracleMismatch(f"{what}: ODE constant {c!r}, want {c_want!r}")
        return err

    return Op(f"variance-{'table' if tabulated else 'closed'}-{case.kind}", call, check)


def _gamma_concentration(k: float, n: int) -> float:
    """Concentration integral of Gamma(k): sqrt(k) e^(nk) Gamma(nk) / (nk)^(nk)."""
    nk = n * k
    return math.exp(0.5 * math.log(k) + nk + math.lgamma(nk) - nk * math.log(nk))


def _constancy_op(ctx: Context, rng, kind: str) -> Op:
    n = int(rng.choice((2, 3, 5)))
    if kind == "bernoulli":
        grid = tuple(sorted(float(x) for x in rng.uniform(0.1, 0.9, 4)))
    else:
        grid = tuple(sorted(_log_uniform(rng, 0.25, 5.0) for _ in range(4)))
    if kind == "gaussian":
        grid = tuple(x - 2.5 for x in grid)
    family = ctx.families[kind]

    def call(sk):
        report = sk.check_constancy(family, n, grid)
        return report.verdict.value, report.values

    def check(result) -> float:
        got_verdict, values = result
        tol = 1e-4 if kind == "tweedie" else 1e-6
        if kind in ("gaussian", "tweedie"):
            want = [math.sqrt(2 * math.pi / n)] * len(grid)
        elif kind == "gamma1":
            want = [_gamma_concentration(1.0, n)] * len(grid)
        else:
            want = [orc.concentration_integral(kind, mu0, n) for mu0 in grid]
        # the library's rule: deviation from the grid mean against 1e-4 and 5e-3
        ref = math.fsum(want) / len(want)
        want_verdict = orc.verdict(max(abs(w - ref) for w in want), max(1.0, ref), 1e-4, 5e-3)
        if got_verdict != want_verdict:
            raise OracleMismatch(f"constancy {kind} n={n} grid={grid}: got {got_verdict}, want {want_verdict}")
        return max(expect_close(v, w, tol, f"constancy {kind} n={n}") for v, w in zip(values, want, strict=True))

    return Op(f"constancy-{kind}", call, check)


def _laplace_op(ctx: Context, rng, slc: Slice, kind: str) -> Op:
    mu0 = slc.log_uniform(rng, 0.25, 5.0)
    n_list = (10, 20, 50)
    family = ctx.families[kind]
    k = _GAMMA_SHAPE.get(kind)

    def call(sk):
        report = sk.laplace_asymptotics_check(family, mu0, n_list=n_list)
        return report.verdict.value, report.values

    def check(result) -> float:
        got_verdict, ratios = result
        if got_verdict != "Constant":
            raise OracleMismatch(f"laplace {kind} mu0={mu0}: got {got_verdict}, want Constant")
        worst = 0.0
        for n, ratio in zip(n_list, ratios):
            # exact Gamma ratio, 1 + 1/(12 n k) + O(n^-2) by Stirling; 1 for the others
            want = _gamma_concentration(k, n) / math.sqrt(2 * math.pi / n) if k else 1.0
            tol = 1e-4 if kind == "tweedie" else 1e-8
            worst = max(worst, expect_close(ratio, want, tol, f"laplace {kind} n={n}"))
        return worst

    return Op(f"laplace-{kind}", call, check)


# n per family: the four continuous classes then cost alike (100-170 ms on a
# 2-core box) and hold the workload's 90th percentile between them.
EXCHANGEABILITY_N = {"gaussian": 4, "gamma1": 4, "tweedie": 3, "levy": 3, "poisson": 4, "bernoulli": 3}


def _exchangeability_op(ctx: Context, rng, slc: Slice, kind: str) -> Op:
    n = EXCHANGEABILITY_N[kind]
    family = ctx.families[kind]
    if kind in ("poisson", "bernoulli"):
        return _discrete_exchangeability_op(rng, slc, kind, family, n)
    seed = int(rng.integers(2**31))
    mean = slc.log_uniform(rng, 0.5, 2.0)

    def call(sk):
        report = sk.exchangeability_test(family, 1, n, "random", count=2, seed=seed, sample_mean=mean)
        return report.verdict.value, report.max_abs_deviation

    def check(result) -> float:
        # the paper: SNML joints of these families are permutation invariant
        if result[0] != "Constant" or not result[1] < 1e-6:
            raise OracleMismatch(f"exchangeability {kind} n={n} seed={seed}: got {result}, want Constant")
        return result[1]

    return Op(f"exchangeability-{kind}", call, check)


def _discrete_exchangeability_op(rng, slc: Slice, kind: str, family, n: int) -> Op:
    """Poisson: drawn history and distinct-valued continuations; Bernoulli: all sequences."""
    if kind == "poisson":
        mean = slc.log_uniform(rng, 1.0, 6.0)
        hist = draw(rng, kind, mean, 1)
        conts = []
        while len(conts) < 2:
            cont = draw(rng, kind, mean, n - 1)
            if len(set(cont)) > 1:
                conts.append(cont)
        cases = [(hist, c) for c in conts]
    else:
        cases = [((h,), tuple(float(v) for v in c)) for h in (0.0, 1.0) for c in _multisets(n - 1)]

    def call(sk):
        if kind == "poisson":
            report = sk.exchangeability_test(family, 1, n, history=hist, continuations=conts)
        else:
            report = sk.exchangeability_test(family, 1, n, "all-discrete")
        return report.verdict.value, report.max_abs_deviation

    def check(result) -> float:
        def joint(values):
            if kind == "bernoulli":
                return orc.sequential_joint(orc.bernoulli_snml_predictive, values, 1)
            return math.exp(orc.sequential_log_joint(orc.poisson_log_snml_predictive, values, 1))

        worst = max(
            orc.spread([joint(h + p) for p in sorted(set(itertools.permutations(c)))]) for h, c in cases
        )
        want = orc.verdict(worst, 1.0, 1e-6, 1e-3)
        if result[0] != want:
            raise OracleMismatch(f"exchangeability {kind} n={n}: got {result}, want {want} (spread {worst})")
        return expect_close(result[1], worst, TOL, f"exchangeability {kind} spread")

    return Op(f"exchangeability-{kind}", call, check)


def _multisets(size: int):
    return [(0.0,) * (size - j) + (1.0,) * j for j in range(size + 1)]


def _analysis_rounds(ctx: Context, rng):
    makers = [lambda rng, slc, kind=kind: _constancy_op(ctx, rng, kind)
              for kind in ("gaussian", "gamma1", "tweedie", "poisson", "bernoulli")]
    makers += [lambda rng, slc, kind=kind: _laplace_op(ctx, rng, slc, kind)
               for kind in ("gaussian", "gamma0.5", "gamma2", "tweedie")]
    makers += [lambda rng, slc, kind=kind: _exchangeability_op(ctx, rng, slc, kind)
               for kind in ("gaussian", "gamma1", "tweedie", "levy", "poisson", "bernoulli")]
    makers += [lambda rng, slc, spec=spec, case=case, tab=tab: _variance_op(spec, case, tab)
               for case, closed, table in ctx.specs for spec, tab in ((closed, False), (table, True))]
    return _rounds(rng, makers, 4)


# ---- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple[str, ...]
    rounds: Callable
    uses_specs: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # each predict-cold op builds its own family, so set-up builds none
        Workload("predict-cold", (), _predict_rounds),
        Workload("cnml-joints", ("gaussian", "gamma1", "tweedie", "poisson", "bernoulli"), _cnml_rounds),
        Workload("analyses", tuple(FAMILY_BUILDERS), _analysis_rounds, uses_specs=True),
    )
}


def build(workload: Workload, sk, seed: int) -> Context:
    """Set-up: the workload's families and variance specs."""
    ctx = Context({kind: FAMILY_BUILDERS[kind](sk) for kind in workload.families})
    if workload.uses_specs:
        start = time.perf_counter()
        ctx.specs = build_specs(sk, variance_cases(seed))
        ctx.spec_build_s = time.perf_counter() - start
    return ctx


class OpStream:
    """The seeded op sequence, generated a round at a time and kept for replays.

    ``classes`` is the length of one round: every op class once.
    """

    def __init__(self, workload: Workload, ctx: Context, seed: int):
        self._rounds = workload.rounds(ctx, np.random.default_rng(seed))
        self.ops: list[Op] = list(next(self._rounds))
        self.classes = len(self.ops)

    def __getitem__(self, index: int) -> Op:
        while len(self.ops) <= index:
            self.ops.extend(next(self._rounds))
        return self.ops[index]
