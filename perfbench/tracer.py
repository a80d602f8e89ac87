"""Spans and work counters recorded from outside the library.

``Tracer.install`` wraps the public functions of each layer and rebinds every
name under which snmlkit modules look them up (``analysis`` imports
``strategy_joint`` by name, ``strategies`` calls ``quadrature.integrate``
through the module, ``Tweedie32`` calls ``tweedie_ops.log_density``), so
calls between layers pass through the wrappers too.  ``uninstall`` puts the
originals back.

A wrapped call pushes a frame; when it returns, its duration is charged to
the parent frame, and its self time is the duration minus what its children
covered.  Calls above the kernel layer are kept as spans (name, start, end,
parent, op id); kernel calls (family log-densities, the Tweedie series) run
10^5 to 10^6 times per op, so they are counted and timed but not kept.

Counters and self times accumulate per op, so a fixed window of ops gives
the same counts on every run with the same seed.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# (module, owner attribute path, metric name, keep as span)
_FUNCTIONS = (
    ("tweedie", "log_density", "tweedie.log_density", False),
    ("families", "Family.log_density_mean", "families.log_density_mean", False),
    ("families", "Family.sup_log_likelihood", "families.sup_log_likelihood", False),
    ("families", "TransformedFamily.sup_log_likelihood", "families.sup_log_likelihood", False),
    ("quadrature", "integrate", "quadrature.integrate", True),
    ("quadrature", "sum_counting", "quadrature.sum_counting", True),
    ("strategies", "snml_predictive", "strategies.snml_predictive", True),
    ("strategies", "bayes_jeffreys_predictive", "strategies.bayes_jeffreys_predictive", True),
    ("strategies", "PredictiveDistribution.log_density", "strategies.PredictiveDistribution.log_density", True),
    ("strategies", "cnml_joint", "strategies.cnml_joint", True),
    ("strategies", "strategy_joint", "strategies.strategy_joint", True),
    ("strategies", "conditional_regret", "strategies.conditional_regret", True),
    ("analysis", "condition_integral", "analysis.condition_integral", True),
    ("analysis", "check_constancy", "analysis.check_constancy", True),
    ("analysis", "laplace_asymptotics_check", "analysis.laplace_asymptotics_check", True),
    ("analysis", "exchangeability_test", "analysis.exchangeability_test", True),
    ("analysis", "sigma_ode_check", "analysis.sigma_ode_check", True),
    ("analysis", "higher_order_check", "analysis.higher_order_check", True),
    ("analysis", "classify_family", "analysis.classify_family", True),
)
_KL_CLASSES = ("GaussianLocation", "GammaShape", "Tweedie32", "Bernoulli", "Poisson", "TransformedFamily")
_CACHES = ("_snml_log_normalizer", "_jeffreys_posterior")
_MODULES = ("", "tweedie", "families", "quadrature", "strategies", "analysis")


def _caches(sk):
    return [getattr(sk.strategies, name) for name in _CACHES if hasattr(sk.strategies, name)]


def clear_caches(sk) -> None:
    """Empty the strategies caches so a replay starts from the same state."""
    for cache in _caches(sk):
        cache.cache_clear()


def cache_counts(sk) -> tuple[int, int]:
    hits = misses = 0
    for cache in _caches(sk):
        info = cache.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


class Tracer:
    def __init__(self, sk):
        self.sk = sk
        self._stack: list[list] = []  # [start, child time, span id]
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list = []
        self.ops: list[dict] = []  # per op: {"calls", "self_s", "counts"}
        self._op = None
        self._op_id = -1
        self._cache0 = (0, 0)

    # ---- installation -------------------------------------------------------

    def install(self) -> None:
        import importlib

        mods = {name: importlib.import_module(f"snmlkit.{name}" if name else "snmlkit") for name in _MODULES}
        for module, path, name, keep in _FUNCTIONS:
            owner = mods[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._patch(owner, attr, name, keep, mods)
        for cls_name in _KL_CLASSES:
            self._patch(getattr(mods["families"], cls_name), "kl_divergence", "families.kl_divergence", False, {})

    def _patch(self, owner, attr, name, keep, mods) -> None:
        if isinstance(owner, type):
            if attr not in vars(owner):
                return
            orig = vars(owner)[attr]
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig, keep))
            return
        orig = getattr(owner, attr)
        wrapped = self._wrap(name, orig, keep)
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _wrap(self, name: str, fn, keep: bool):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self
        arg_counter = _ARG_COUNTERS.get(name)
        result_counter = _RESULT_COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            op = tracer._op
            span_id = parent = None
            if keep:
                span_id = len(spans)
                spans.append(None)
                parent = next(f[2] for f in reversed(stack) if f[2] is not None)
            if arg_counter is not None:
                args = (_counted(args[0], op["counts"], arg_counter),) + args[1:]
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                stack[-1][1] += duration
                self_time = duration - frame[1]
                op["calls"][name] += 1
                op["self_s"][name] += self_time
                if keep:
                    spans[span_id] = (name, frame[0], end, parent, tracer._op_id, self_time)
            if result_counter is not None:
                op["counts"][result_counter[0]] += getattr(result, result_counter[1], 0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ---- ops ------------------------------------------------------------------

    def begin_op(self) -> None:
        self._op_id += 1
        self._op = {"calls": Counter(), "self_s": defaultdict(float), "counts": Counter()}
        self._cache0 = cache_counts(self.sk)
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append([time.perf_counter(), 0.0, span_id])

    def end_op(self) -> None:
        start, child, span_id = self._stack.pop()
        end = time.perf_counter()
        self.spans[span_id] = ("op", start, end, None, self._op_id, end - start - child)
        hits, misses = cache_counts(self.sk)
        self._op["counts"]["strategies.cache_hits"] += hits - self._cache0[0]
        self._op["counts"]["strategies.cache_misses"] += misses - self._cache0[1]
        self.ops.append(self._op)
        self._op = None

    def window(self, count: int) -> dict:
        """Summed calls, self times and counters of the first count ops."""
        calls, self_s, counts = Counter(), defaultdict(float), Counter()
        for op in self.ops[:count]:
            calls.update(op["calls"])
            counts.update(op["counts"])
            for key, value in op["self_s"].items():
                self_s[key] += value
        return {"calls": calls, "self_s": self_s, "counts": counts}

    def work_counts(self, start: int, count: int) -> list:
        """Per-op calls and counters of ops start..start+count: what must repeat."""
        return [(sorted(op["calls"].items()), sorted(op["counts"].items())) for op in self.ops[start : start + count]]

    def write_spans(self, path) -> None:
        fields = ("name", "start", "end", "parent", "op", "self_s")
        with open(path, "w") as out:
            for span_id, span in enumerate(self.spans):
                if span is not None:
                    out.write(json.dumps({"id": span_id, **dict(zip(fields, span))}) + "\n")


# Work counted inside a call: evaluations of the callable passed first, and
# the series length a Tweedie density reports.
_ARG_COUNTERS = {
    "quadrature.integrate": "quadrature.integrand_evals",
    "quadrature.sum_counting": "quadrature.series_terms",
}
_RESULT_COUNTERS = {"tweedie.log_density": ("tweedie.series_terms", "series_terms_used")}


def _counted(f, counts, key):
    def counted(x):
        counts[key] += 1
        return f(x)

    return counted
