"""snmlkit benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload predict-cold --seed 1 --seconds 20 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  One caller runs the workload's ops in a closed loop (the next op
starts when the previous returns) for ``--seconds``, and at least one full
round of op classes.  Every result is checked against an oracle.  Times
are scaled to a reference host speed (see ``hostspeed``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit, the sample count and provenance.  Each run
also appends a record to ``.perfbench_out/results.jsonl`` (read by
``compare.py summary``) and a traced run writes its spans beside it.
"""

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# pinned before numpy loads (it loads with hostspeed, workloads and snmlkit), here and in every child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hostspeed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 120


@dataclass
class Sample:
    cell: tuple[str, int]  # (op class, stratum): the unit of the input mix
    began: float
    latency: float
    value: object
    failure: str | None
    rel_err: float


def run_ops(stream, call, reset, seconds: float, min_ops: int, check: bool = True,
            speed: hostspeed.HostSpeed | None = None) -> list[Sample]:
    """Closed loop: run ops from the stream until seconds pass and min_ops are done.

    ``reset`` runs untimed before each round, so every round starts from the
    same library state.  With ``speed``, the host-speed kernel is timed
    between ops, untimed for them.
    """
    samples = []
    clock = time.perf_counter
    start = clock()
    index = 0
    while index < min_ops or clock() - start < seconds:
        if speed is not None:
            speed.maybe_sample()
        if index % stream.classes == 0:
            reset()
        op = stream[index]
        index += 1
        began = clock()
        try:
            value = call(op)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            failure = f"{op.cls}: {type(exc).__name__}: {exc}"
            samples.append(Sample((op.cls, op.stratum), began, clock() - began, None, failure, 0.0))
            continue
        latency = clock() - began
        failure, err = None, 0.0
        if check:
            try:
                err = op.check(value)
            except Exception as exc:
                failure = f"{op.cls}: {type(exc).__name__}: {exc}"
        samples.append(Sample((op.cls, op.stratum), began, latency, value, failure, err))
    if speed is not None:
        speed.sample()
    return samples


def replay(stream, call, reset, count: int) -> list[Sample]:
    return run_ops(stream, call, reset, 0.0, count, check=False)


def class_means(samples: list[Sample]) -> dict[str, float]:
    by_class: dict[str, list[float]] = {}
    for s in samples:
        by_class.setdefault(s.cell[0], []).append(s.latency)
    return {cls: statistics.fmean(v) for cls, v in sorted(by_class.items())}


def cell_latencies(samples: list[Sample], speed: hostspeed.HostSpeed | None = None) -> dict[tuple, list[float]]:
    """Latencies by (class, slice) cell, each scaled to the reference host speed by ``speed``."""
    by_cell: dict[tuple, list[float]] = {}
    for s in samples:
        scale = speed.scale(s.began + 0.5 * s.latency) if speed else 1.0
        by_cell.setdefault(s.cell, []).append(s.latency * scale)
    return by_cell


def quantile(weighted: list[tuple[float, float]], q: float) -> float:
    """Quantile of (value, weight) pairs, interpolated between the midpoints of their weights."""
    ordered = sorted(weighted)
    total = math.fsum(w for _, w in ordered)
    mids, below = [], 0.0
    for _, w in ordered:
        mids.append((below + 0.5 * w) / total)
        below += w
    i = bisect.bisect_left(mids, q)
    if i == 0 or i == len(ordered):
        return ordered[min(i, len(ordered) - 1)][0]
    (lo, _), (hi, _) = ordered[i - 1], ordered[i]
    return lo + (hi - lo) * (q - mids[i - 1]) / (mids[i] - mids[i - 1])


def setup_times(workload, seed: int) -> list[dict]:
    """Start fresh interpreters that import snmlkit and build the workload's inputs.

    Each start follows a reference start (``hostspeed.REFERENCE_IMPORTS``),
    and ``wall_s`` is its wall time scaled by ``REFERENCE_IMPORT_S`` over the
    reference start's.
    """

    def start(argv: list[str]) -> tuple[float, str]:
        began = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
        wall = time.perf_counter() - began
        if done.returncode != 0:
            raise RuntimeError(f"{argv[1]} failed: {done.stderr.strip()}")
        return wall, done.stdout

    reference = [sys.executable, "-c", "import " + ", ".join(hostspeed.REFERENCE_IMPORTS)]
    probe = [sys.executable, str(BENCH / "setup_probe.py"), "--workload", workload.name, "--seed", str(seed)]
    runs = []
    for _ in range(SETUP_RUNS):
        reference_s, _ = start(reference)
        wall, out = start(probe)
        runs.append({"wall_s": wall * hostspeed.REFERENCE_IMPORT_S / reference_s, "raw_wall_s": wall,
                     "reference_s": reference_s, **json.loads(out.strip().splitlines()[-1])})
    return runs


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    import sympy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # not a git checkout; src_sha256 still names the tree
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(samples: list[Sample], setups: list[dict], speed: hostspeed.HostSpeed) -> dict:
    # every cell weighs the same, so the mix is the stated one even when a run ends mid-round
    by_cell = cell_latencies(samples, speed)
    cost = [statistics.median(v) for v in by_cell.values()]
    ops = [(latency, 1.0 / len(v)) for v in by_cell.values() for latency in v]
    return {
        # closed loop, one caller: throughput is 1 / mean op cost at the stated mix
        "ops_per_s": metric(1.0 / statistics.fmean(cost), "1/s"),
        "op_p50_ms": metric(1e3 * quantile(ops, 0.5), "ms"),
        "op_p90_ms": metric(1e3 * quantile(ops, 0.9), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": metric(statistics.median(s["wall_s"] for s in setups), "s"),
    }


def timed_run(sk, stream, seconds: float, setups: list[dict]):
    import tracer as tr

    # the strategies caches are emptied before every round, as in a traced run
    speed = hostspeed.HostSpeed()
    speed.sample(hostspeed.MIN_SAMPLES)
    samples = run_ops(stream, lambda op: op.call(sk), lambda: tr.clear_caches(sk), seconds, stream.classes,
                      speed=speed)
    raw = statistics.fmean(statistics.median(v) for v in cell_latencies(samples).values())
    print(f"host speed: kernel median {1e3 * speed.median_s():.4g} ms over {len(speed.durations)} samples "
          f"(reference {1e3 * hostspeed.REFERENCE_S:.4g} ms); unscaled ops_per_s {1.0 / raw:.5g}")
    return samples, end_to_end(samples, setups, speed), []


def traced_run(sk, workload, stream, seconds: float, setups: list[dict], seed: int):
    """Untraced pass, then the same ops traced, then the first round traced again.

    The traced values must equal the untraced ones bit for bit, and the second
    traced pass must repeat the first one's work counts op by op.
    """
    import oracles
    import tracer as tr

    problems = []
    window = stream.classes
    reset = lambda: tr.clear_caches(sk)
    samples = run_ops(stream, lambda op: op.call(sk), reset, seconds / 3.0, window)

    tracer = tr.Tracer(sk)
    tracer.install()
    try:
        def traced(op):
            tracer.begin_op()
            try:
                return op.call(sk)
            finally:
                tracer.end_op()

        first = replay(stream, traced, reset, len(samples))
        again = replay(stream, traced, reset, window)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload.name}-seed{seed}.jsonl")

    for i, (u, t) in enumerate(zip(samples, first)):
        if u.value != t.value:
            problems.append(f"op {i} ({u.cell[0]}): traced value differs from the untraced one")
    failures = [s.failure for s in first + again if s.failure]
    problems += failures
    if tracer.work_counts(0, window) != tracer.work_counts(len(first), window):
        problems.append("work counts of the traced round differ between two passes")
    try:
        worst = oracles.self_test()
        print(f"oracle self-test against mpmath (50 digits): worst rel err {worst:.3g}")
    except oracles.OracleMismatch as exc:
        problems.append(str(exc))

    metrics = layer_metrics(tracer.window(window), sum(s.latency for s in first[:window]), setups)
    metrics["trace.overhead_ratio"] = metric(
        sum(s.latency for s in samples) / sum(s.latency for s in first), "ratio"
    )
    return samples, metrics, problems


# Self times are reported as shares of the traced window's op time, so a
# function a workload never calls reads 0 as a ratio rather than as a time.
TIMED_FUNCTIONS = (
    "tweedie.log_density",
    "families.log_density_mean",
    "families.sup_log_likelihood",
    "quadrature.integrate",
    "strategies.snml_predictive",
    "strategies.bayes_jeffreys_predictive",
    "strategies.PredictiveDistribution.log_density",
    "strategies.strategy_joint",
)
ANALYSIS_CHECKS = ("condition_integral", "check_constancy", "laplace_asymptotics_check", "exchangeability_test",
                   "sigma_ode_check", "higher_order_check", "classify_family")
COUNTERS = ("tweedie.series_terms", "quadrature.integrand_evals", "quadrature.series_terms")


def layer_metrics(window: dict, window_s: float, setups: list[dict]) -> dict:
    calls, self_s, counts = window["calls"], window["self_s"], window["counts"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {}
    for name in TIMED_FUNCTIONS:
        m[f"{name}.calls"] = metric(calls[name], "count")
        m[f"{name}.self_share"] = metric(ratio(self_s[name], window_s), "ratio")
    for name in COUNTERS:
        m[name] = metric(counts[name], "count")
    m["tweedie.log_density.us_per_call"] = metric(
        1e6 * ratio(self_s["tweedie.log_density"], calls["tweedie.log_density"]), "us"
    )
    m["families.kl_divergence.calls"] = metric(calls["families.kl_divergence"], "count")
    m["quadrature.evals_per_integrate"] = metric(
        ratio(counts["quadrature.integrand_evals"], calls["quadrature.integrate"]), "count"
    )
    m["quadrature.sum_counting.calls"] = metric(calls["quadrature.sum_counting"], "count")
    hits, misses = counts["strategies.cache_hits"], counts["strategies.cache_misses"]
    m["strategies.cache_hits"] = metric(hits, "count")
    m["strategies.cache_misses"] = metric(misses, "count")
    m["strategies.cache_hit_ratio"] = metric(ratio(hits, hits + misses), "ratio")
    for name in ANALYSIS_CHECKS:
        m[f"analysis.{name}.self_share"] = metric(ratio(self_s[f"analysis.{name}"], window_s), "ratio")
    setup_s = statistics.median(s["raw_wall_s"] for s in setups)
    m["analysis.variance_spec_build_share"] = metric(statistics.median(s["spec_build_s"] for s in setups) / setup_s,
                                                     "ratio")
    # every snmlkit process pays this, the command line included
    m["cli.import_s"] = metric(statistics.median(s["import_s"] for s in setups), "s")
    m["trace.window_s"] = metric(window_s, "s")
    return m


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "snmlkit" / "__init__.py").is_file():
        print(f"error: no snmlkit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))

    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    declared = declared_metrics()[args.trace]

    setups = setup_times(workload, args.seed)
    import snmlkit as sk
    if not Path(sk.__file__).resolve().is_relative_to(SRC):
        print(f"error: snmlkit was imported from {sk.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    ctx = wl.build(workload, sk, args.seed)
    stream = wl.OpStream(workload, ctx, args.seed)

    if args.trace:
        samples, metrics, problems = traced_run(sk, workload, stream, args.seconds, setups, args.seed)
    else:
        samples, metrics, problems = timed_run(sk, stream, args.seconds, setups)
    if sorted(metrics) != sorted(declared):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared)}", file=sys.stderr)
        return 2

    failures = [s.failure for s in samples if s.failure]
    attempted, failed = len(samples), len(failures)
    correct = not failures and not problems
    info = provenance(args.seed)
    window = f", per-layer metrics over the first {stream.classes} (one round)" if args.trace else ""
    print(f"workload {workload.name}: seed {args.seed}, {attempted} ops ({stream.classes} classes per round{window}), "
          f"closed loop with 1 caller, trace {args.trace}")
    for name in declared:
        print(f"  {name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(f"  fail_ratio = {failed}/{attempted} = {failed / attempted:.3g}")
    print(f"  max_rel_err vs oracles = {max(s.rel_err for s in samples):.3g}")
    for key in ("wall_s", "raw_wall_s", "reference_s"):
        print(f"  setup runs, {key}: {', '.join(format(s[key], '.4f') for s in setups)}")
    for problem in (failures + problems)[:10]:
        print(f"  FAIL {problem}")
    print("  provenance " + json.dumps(info, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed, "samples": attempted,
        "max_rel_err": max(s.rel_err for s in samples), "metrics": metrics, "setups": setups,
        "class_mean_s": class_means(samples),
        "problems": (failures + problems)[:20], "provenance": info, "time": time.time(),
    }
    with open(OUT / "results.jsonl", "a") as out:
        out.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
