"""Closed-form variance expressions: the grammar, its typed errors, and the
derivatives, checked against sympy as the reference."""

import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import sympy

import snmlkit as sk
from snmlkit import analysis, cli
from snmlkit._expression import derivative_functions
from snmlkit.analysis import VarianceFunctionSpec
from snmlkit.errors import DomainError

MU = sympy.Symbol("mu", real=True)


def sympy_derivative_functions(expression: str, count: int):
    """The reference source of V and its derivatives: sympify, diff, lambdify."""
    expr = sympy.sympify(expression, locals={"mu": MU})
    funcs, d = [], expr
    for _ in range(count):
        funcs.append(sympy.lambdify(MU, d, modules="math"))
        d = sympy.diff(d, MU)
    return str(expr), funcs


def workload_forms(seed: int) -> list[str]:
    """The six variance forms of the analyses benchmark, coefficients seeded and printed to 6 digits."""
    rng = np.random.default_rng([seed, 1])
    a, k, ell = (float(f"{x:.6g}") for x in (rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.0)))
    return [f"{a}", f"({k}*mu + {ell})**2", f"({k}*mu + {ell})**(3/2)", f"{a}*mu", f"{a}*mu**3", f"{a}*exp(mu)"]


WIDE = (0.5, 4.0)
ORACLE_CASES = [(expr, WIDE) for seed in (1, 2, 3) for expr in workload_forms(seed)] + [
    ("mu*(1 - mu)", (0.1, 0.9)),
    ("1 + mu**2", WIDE),
    ("2**mu", WIDE),
    ("mu**mu", WIDE),
    ("log(mu) + sqrt(mu)", WIDE),
    ("(mu + 1)/(mu**2 + 2)", WIDE),
    ("-mu**(-1/2) + 3/mu", WIDE),
]

ODE_BATTERY = [
    ("3", WIDE),
    ("(2*mu + 1)**2", WIDE),
    ("(mu + 2)**(3/2)", WIDE),
    ("mu", WIDE),
    ("mu*(1 - mu)", (0.1, 0.9)),
    ("mu**3", WIDE),
    ("exp(mu)", WIDE),
]


@pytest.mark.parametrize("expr,domain", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_derivatives_match_sympy(expr, domain):
    """V..V'''' at 33 points within 1e-13 max(1, |ref|) of sympy.diff, evaluated at 30 digits."""
    _, funcs = derivative_functions(expr, 5)
    d = sympy.sympify(expr, locals={"mu": MU})
    with mp.workdps(30):
        for order, f in enumerate(funcs):
            ref_fn = sympy.lambdify(MU, d, modules="mpmath")
            for x in np.linspace(*domain, 33):
                ref = float(ref_fn(mp.mpf(float(x))))
                got = f(float(x))
                assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (expr, order, x, got, ref)
            d = sympy.diff(d, MU)


@pytest.mark.parametrize(
    "expr,domain",
    ODE_BATTERY + [(expr, WIDE) for seed in range(1, 8) for expr in workload_forms(seed)],
)
def test_analyses_match_sympy_derivatives(expr, domain, monkeypatch):
    """Verdicts, the ODE constant c and the class are those of the sympy-built spec."""

    def analyses():
        vf = VarianceFunctionSpec.closed(expr, domain)
        ode = sk.sigma_ode_check(vf)
        return ode.verdict, ode.details["c"], sk.higher_order_check(vf).verdict, sk.classify_family(vf).family_class

    ours = analyses()
    monkeypatch.setattr(analysis, "derivative_functions", sympy_derivative_functions)
    want = analyses()
    assert (ours[0], ours[2], ours[3]) == (want[0], want[2], want[3])
    if want[1] is None:
        assert ours[1] is None
    else:
        assert abs(ours[1] - want[1]) <= 1e-12


class TestGrammar:
    def test_caret_is_power(self):
        assert VarianceFunctionSpec.closed("2*mu^(3/2)", WIDE).variance_at(4.0) == 16.0

    @pytest.mark.parametrize("expr,want", [("-mu + 5", 3.0), ("+mu", 2.0), ("--mu", 2.0), ("3/2*mu", 3.0)])
    def test_signs_and_constant_folding(self, expr, want):
        _, (v, *_) = derivative_functions(expr, 5)
        assert v(2.0) == want

    def test_label_is_the_parsed_expression(self):
        assert VarianceFunctionSpec.closed("2*mu^(3/2)", WIDE).label == "2 * mu ** (3 / 2)"
        assert VarianceFunctionSpec.closed("mu**2", WIDE, label="gamma").label == "gamma"

    def test_compiled_functions_see_no_builtins(self):
        _, funcs = derivative_functions("exp(mu) + mu**mu", 5)
        assert all(f.__globals__["__builtins__"] == {} for f in funcs)

    def test_fractional_power_of_a_negative_base_raises(self):
        _, (v, *_) = derivative_functions("(mu - 5)**(3/2)", 5)
        with pytest.raises(ValueError):
            v(1.0)


SENTINEL = "__import__('builtins').print('x')"


def test_a_call_in_the_expression_is_never_executed(capsys):
    with pytest.raises(DomainError):
        VarianceFunctionSpec.closed(SENTINEL, WIDE)
    with pytest.raises(DomainError):
        VarianceFunctionSpec.closed(f"mu + {SENTINEL}", WIDE)
    assert capsys.readouterr().out == ""


def test_cli_rejects_an_untrusted_expression_with_the_typed_error_code(capsys):
    code = cli.main(["check-ode", "--variance", SENTINEL, "--domain", "0.5,4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: variance expression may not contain")


def test_closed_specs_load_no_sympy():
    code = (
        "import sys, snmlkit as sk; "
        "vf = sk.VarianceFunctionSpec.closed('2*mu**(3/2)', (0.5, 4.0)); "
        "sk.classify_family(vf); "
        "print('sympy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sk.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "False"
