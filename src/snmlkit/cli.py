"""Command-line front end.

Subcommands: kl, predict, joint, regret, check-constancy,
check-exchangeability, check-ode, classify, laplace, sample-tweedie.

Output: every subcommand writes one result, to stdout or to --output.
Under --format json it is the JSON payload; otherwise it is the plain value
(kl, joint, regret) or the CSV table (predict and the check reports).
classify writes JSON only, and sample-tweedie one draw per line.

Exit codes: 0 on success (and when a check verdict matches --expect), 1 when a
check verdict contradicts --expect, 2 on usage, configuration or domain errors,
a malformed family payload (--family-json) among them.
Floats are printed with 17 significant digits so CSV output round-trips.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import _json, analysis, families, strategies, tweedie
from .analysis import Verdict, _fmt
from .errors import SnmlkitError
from .families import ObservationSequence

# --family names and the serialization kind each one builds
_FAMILY_KINDS = {
    "gaussian": "gaussian_location",
    "gamma": "gamma_shape",
    "tweedie32": "tweedie32",
    "bernoulli": "bernoulli",
    "poisson": "poisson",
}
_FAMILY_NAMES = tuple(_FAMILY_KINDS)


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    if text is None or text.strip() == "":
        return ()
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise SnmlkitError(f"{flag} expects comma-separated numbers, got {text!r}: {exc}") from None


def _parse_bounds(text: str, flag: str) -> tuple[float, float]:
    bounds = _parse_floats(text, flag)
    if len(bounds) != 2:
        raise SnmlkitError(f"{flag} expects LO,HI, got {text!r}")
    return bounds


def _parse_grid(text: str, flag: str = "--grid") -> tuple[float, ...]:
    if text.startswith("linspace:"):
        try:
            lo, hi, count = text.split(":")[1:]
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError:
            raise SnmlkitError(f"{flag} linspace form is linspace:LO:HI:COUNT, got {text!r}") from None
        return tuple(np.linspace(lo, hi, count))
    return _parse_floats(text, flag)


def _family_from_args(args) -> families.Family:
    spec = args.family_json
    if spec:
        if spec.startswith("@"):
            spec = Path(spec[1:]).read_text()
        return families.from_json(spec)
    name = args.family or ""
    if name not in _FAMILY_KINDS:
        raise SnmlkitError(f"--family must be one of {_FAMILY_NAMES} (or pass --family-json), got {name!r}")
    domain = _parse_bounds(args.mean_domain, "--mean-domain") if args.mean_domain else None
    return families.from_json({"kind": _FAMILY_KINDS[name], "sigma2": args.sigma2, "shape": args.shape, "mean_domain": domain})


def _variance_from_args(args) -> analysis.VarianceFunctionSpec:
    if args.table:
        # blank lines and #-comments are skipped, and the first other line may
        # be a header; every other line starts with the two numbers mu,V
        rows, header_allowed = [], True
        for number, line in enumerate(Path(args.table).read_text().splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                mu, v = map(float, line.split(",")[:2])
                rows.append((mu, v))
            except ValueError:
                if not header_allowed:
                    raise SnmlkitError(f"{args.table}, line {number}: expected mu,V numbers, got {line!r}") from None
            header_allowed = False
        if not rows:
            raise SnmlkitError(f"no numeric mu,V rows found in {args.table}")
        mu, v = zip(*rows)
        return analysis.VarianceFunctionSpec.from_table(mu, v, label=args.table)
    if args.variance:
        if not args.domain:
            raise SnmlkitError("--variance needs --domain LO,HI")
        return analysis.VarianceFunctionSpec.closed(args.variance, _parse_bounds(args.domain, "--domain"))
    raise SnmlkitError("supply a variance function via --variance/--domain or --table")


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_result(args, payload, plain: str, indent: int | None = None) -> None:
    """Write payload as JSON under --format json, else the plain or CSV text."""
    _emit(args, _json.dumps(payload, indent=indent) if args.format == "json" else plain)


def _emit_report(args, report: analysis.AnalysisReport) -> int:
    _emit_result(args, report.to_dict(), report.to_csv(), indent=2)
    if args.expect is None:
        return 0
    wanted = Verdict.CONSTANT if args.expect == "constant" else Verdict.NON_CONSTANT
    return 0 if report.verdict is wanted else 1


# ---- subcommand handlers -----------------------------------------------------


def _cmd_kl(args) -> int:
    value = _family_from_args(args).kl_divergence(args.mu0, args.mu1)
    _emit_result(args, {"mu0": args.mu0, "mu1": args.mu1, "kl": value}, _fmt(value))
    return 0


def _cmd_predict(args) -> int:
    family = _family_from_args(args)
    history = _parse_floats(args.history, "--history")
    points = _parse_floats(args.points, "--points")
    if not points:
        raise SnmlkitError("--points expects at least one evaluation point")
    make = strategies.snml_predictive if args.strategy == "snml" else strategies.bayes_jeffreys_predictive
    predictive = make(family, history)
    log_densities = [predictive.log_density(p) for p in points]
    densities = [strategies._exp(ld) for ld in log_densities]
    payload = {
        "strategy": args.strategy,
        "history": list(history),
        "points": list(points),
        "density": densities,
        "log_density": log_densities,
    }
    rows = [f"{_fmt(p)},{_fmt(d)},{_fmt(ld)}" for p, d, ld in zip(points, densities, log_densities)]
    _emit_result(args, payload, "\n".join(["point,density,log_density", *rows]), indent=2)
    return 0


def _sequence_from_args(args) -> ObservationSequence:
    values = _parse_floats(args.seq, "--seq")
    if not values:
        raise SnmlkitError("--seq expects at least one observation")
    return ObservationSequence(values, args.m)


def _cmd_joint(args) -> int:
    family = _family_from_args(args)
    seq = _sequence_from_args(args)
    value = strategies.strategy_joint(family, args.strategy, seq)
    payload = {
        "strategy": args.strategy,
        "m": seq.m,
        "n": seq.n,
        "sequence": list(seq.values),
        "value": float(value),
    }
    if not isinstance(value, float):
        payload["exact"] = str(value)
    _emit_result(args, payload, _fmt(value))
    return 0


def _cmd_regret(args) -> int:
    family = _family_from_args(args)
    seq = _sequence_from_args(args)
    record = strategies.conditional_regret(family, args.strategy, seq)
    _emit_result(args, {"strategy": args.strategy, **asdict(record)}, _fmt(record.regret))
    return 0


def _cmd_check_constancy(args) -> int:
    family = _family_from_args(args)
    grid = _parse_grid(args.grid)
    if len(grid) < 2:
        raise SnmlkitError("--grid must resolve to at least 2 points")
    report = analysis.check_constancy(
        family, args.n, grid, tolerance=args.tolerance, fail_threshold=args.fail_threshold
    )
    return _emit_report(args, report)


def _cmd_check_exchangeability(args) -> int:
    family = _family_from_args(args)
    test_set = args.test_set
    if test_set == "auto":
        test_set = "all-discrete" if family.finite_support is not None else "random"
    history = _parse_floats(args.history, "--history") if args.history else None
    continuations = None
    if args.continuations:
        continuations = [
            _parse_floats(chunk, "--continuations") for chunk in args.continuations.split(";") if chunk.strip()
        ]
    report = analysis.exchangeability_test(
        family,
        args.m,
        args.n,
        test_set,
        count=args.count,
        seed=args.seed,
        history=history,
        continuations=continuations,
        sample_mean=args.sample_mean,
        tolerance=args.tolerance,
        fail_threshold=args.fail_threshold,
    )
    return _emit_report(args, report)


def _cmd_check_ode(args) -> int:
    vf = _variance_from_args(args)
    grid = _parse_grid(args.mu_grid, "--mu-grid") if args.mu_grid else None
    check = analysis.higher_order_check if args.higher_order else analysis.sigma_ode_check
    report = check(vf, grid, tolerance=args.tolerance)
    return _emit_report(args, report)


def _cmd_classify(args) -> int:
    vf = _variance_from_args(args)
    result = analysis.classify_family(vf)
    _emit(args, _json.dumps(result.to_dict(), indent=2))
    return 0


def _cmd_laplace(args) -> int:
    family = _family_from_args(args)
    n_list = _parse_floats(args.n_list, "--n-list")
    report = analysis.laplace_asymptotics_check(family, args.mu0, args.position, n_list)
    return _emit_report(args, report)


def _cmd_sample_tweedie(args) -> int:
    draws = tweedie.sample(args.mu, args.count, seed=args.seed)
    _emit(args, "\n".join(_fmt(x) for x in draws))
    return 0


# ---- parser ------------------------------------------------------------------


def _add_family_flags(sub) -> None:
    sub.add_argument("--family", choices=_FAMILY_NAMES, help="built-in family kind")
    sub.add_argument("--sigma2", type=float, default=1.0, help="Gaussian variance (default 1)")
    sub.add_argument("--shape", type=float, default=1.0, help="Gamma shape (default 1)")
    sub.add_argument("--mean-domain", help="restrict the mean domain, e.g. 0,inf")
    sub.add_argument("--family-json", help="family JSON (inline, or @path)")


def _add_output_flags(sub, formats=("json", "csv"), default="json") -> None:
    sub.add_argument("--format", choices=formats, default=default)
    sub.add_argument("--output", help="write to this path instead of stdout")


def _add_expect_flag(sub) -> None:
    sub.add_argument("--expect", choices=("constant", "nonconstant"), help="turn the check into an assertion")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="snmlkit", description="sequential prediction strategies and analyses")
    commands = parser.add_subparsers(dest="command", required=True)

    kl = commands.add_parser("kl", help="KL divergence between two means")
    _add_family_flags(kl)
    kl.add_argument("--mu0", type=float, required=True)
    kl.add_argument("--mu1", type=float, required=True)
    _add_output_flags(kl, formats=("plain", "json"), default="plain")
    kl.set_defaults(func=_cmd_kl)

    predict = commands.add_parser("predict", help="one-step predictive density on a point grid")
    _add_family_flags(predict)
    predict.add_argument("--strategy", choices=("snml", "bayes"), default="snml")
    predict.add_argument("--history", help="comma-separated past observations")
    predict.add_argument("--points", required=True, help="comma-separated evaluation points")
    _add_output_flags(predict)
    predict.set_defaults(func=_cmd_predict)

    joint = commands.add_parser("joint", help="joint strategy value of a sequence")
    _add_family_flags(joint)
    joint.add_argument("--strategy", choices=strategies.STRATEGIES, default="snml")
    joint.add_argument("--seq", required=True, help="comma-separated observations x_1..x_n")
    joint.add_argument("--m", type=int, default=0, help="conditioning prefix length")
    _add_output_flags(joint, formats=("plain", "json"), default="plain")
    joint.set_defaults(func=_cmd_joint)

    regret = commands.add_parser("regret", help="regret of a strategy against the best expert")
    _add_family_flags(regret)
    regret.add_argument("--strategy", choices=strategies.STRATEGIES, default="snml")
    regret.add_argument("--seq", required=True)
    regret.add_argument("--m", type=int, default=0)
    _add_output_flags(regret, formats=("plain", "json"), default="json")
    regret.set_defaults(func=_cmd_regret)

    constancy = commands.add_parser("check-constancy", help="concentration-integral constancy across mu0")
    _add_family_flags(constancy)
    constancy.add_argument("--n", type=int, required=True)
    constancy.add_argument("--grid", required=True, help="mu0 grid: comma list or linspace:LO:HI:COUNT")
    constancy.add_argument("--tolerance", type=float, default=1e-4)
    constancy.add_argument("--fail-threshold", type=float, default=5e-3)
    _add_expect_flag(constancy)
    _add_output_flags(constancy)
    constancy.set_defaults(func=_cmd_check_constancy)

    exch = commands.add_parser("check-exchangeability", help="permutation invariance of SNML joints")
    _add_family_flags(exch)
    exch.add_argument("--m", type=int, required=True)
    exch.add_argument("--n", type=int, required=True)
    exch.add_argument("--test-set", choices=("auto", "all-discrete", "random"), default="auto")
    exch.add_argument("--count", type=int, default=20)
    exch.add_argument("--seed", type=int, default=0)
    exch.add_argument("--sample-mean", type=float)
    exch.add_argument("--history", help="fixed conditioning prefix, comma-separated")
    exch.add_argument("--continuations", help="explicit continuations, e.g. 0,2;2,0")
    exch.add_argument("--tolerance", type=float, default=1e-6)
    exch.add_argument("--fail-threshold", type=float, default=1e-3)
    _add_expect_flag(exch)
    _add_output_flags(exch)
    exch.set_defaults(func=_cmd_check_exchangeability)

    ode = commands.add_parser("check-ode", help="constancy of the sigma ODE combination")
    ode.add_argument("--variance", help="closed-form V(mu), e.g. '2*mu**(3/2)'")
    ode.add_argument("--domain", help="variance domain LO,HI")
    ode.add_argument("--table", help="CSV of mu,V rows")
    ode.add_argument("--mu-grid", help="evaluation grid override")
    ode.add_argument("--tolerance", type=float)
    ode.add_argument("--higher-order", action="store_true", help="check the higher-order combinations instead")
    _add_expect_flag(ode)
    _add_output_flags(ode)
    ode.set_defaults(func=_cmd_check_ode)

    classify = commands.add_parser("classify", help="match a variance function to the exchangeable forms")
    classify.add_argument("--variance")
    classify.add_argument("--domain")
    classify.add_argument("--table")
    _add_output_flags(classify, formats=("json",), default="json")
    classify.set_defaults(func=_cmd_classify)

    laplace = commands.add_parser("laplace", help="Laplace-asymptotics ratios of the concentration integral")
    _add_family_flags(laplace)
    laplace.add_argument("--mu0", type=float, required=True)
    laplace.add_argument("--position", choices=("interior", "boundary"), default="interior")
    laplace.add_argument("--n-list", default="2,5,10,20,50")
    _add_expect_flag(laplace)
    _add_output_flags(laplace)
    laplace.set_defaults(func=_cmd_laplace)

    sample = commands.add_parser("sample-tweedie", help="draw from the 3/2-power compound-Poisson family")
    sample.add_argument("--mu", type=float, required=True)
    sample.add_argument("--count", type=int, required=True)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--output")
    sample.set_defaults(func=_cmd_sample_tweedie)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SnmlkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
