"""End-to-end tests of the command-line interface via cli.main."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import snmlkit
from snmlkit import cli, families, parse_report_csv, tweedie


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKl:
    def test_plain_output(self, capsys):
        code, out, err = run(capsys, "kl", "--family", "tweedie32", "--mu0", "1", "--mu1", "4")
        assert code == 0
        assert err == ""
        assert float(out.strip()) == pytest.approx(0.5, rel=1e-12)

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "kl", "--family", "gaussian", "--mu0", "0", "--mu1", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mu0"] == 0.0
        assert payload["mu1"] == 2.0
        assert payload["kl"] == pytest.approx(2.0, rel=1e-12)

    def test_domain_error_exits_2(self, capsys):
        code, out, err = run(capsys, "kl", "--family", "bernoulli", "--mu0", "1.5", "--mu1", "0.5")
        assert code == 2
        assert out == ""
        assert "error:" in err and "1.5" in err


class TestPredict:
    def test_csv_symmetric_densities(self, capsys):
        code, out, _ = run(
            capsys,
            "predict",
            "--family",
            "gaussian",
            "--history",
            "0.5,-1.0",
            "--points=-0.75,-0.25,0.25",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "point,density,log_density"
        rows = [line.split(",") for line in lines[1:]]
        densities = [float(r[1]) for r in rows]
        assert densities[0] == pytest.approx(densities[2], rel=1e-12)
        assert densities[1] == pytest.approx(1.0 / math.sqrt(3 * math.pi), rel=1e-10)
        for r in rows:
            assert float(r[1]) == pytest.approx(math.exp(float(r[2])), rel=1e-12)

    def test_json_bayes(self, capsys):
        code, out, _ = run(
            capsys,
            "predict",
            "--family",
            "gamma",
            "--shape",
            "1.0",
            "--strategy",
            "bayes",
            "--history",
            "1.0",
            "--points",
            "1.0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["strategy"] == "bayes"
        assert payload["density"][0] == pytest.approx(0.25, rel=1e-9)

    def test_gaussian_bayes_far_from_zero(self, capsys):
        """N(1e12, 2) at its mean, 1 / (2 sqrt(pi)).  The normalizer is closed;
        as an integral it exited 2 with "quadrature did not converge"."""
        code, out, err = run(
            capsys,
            "predict",
            "--family",
            "gaussian",
            "--strategy",
            "bayes",
            "--history",
            "1e12",
            "--points",
            "1e12",
            "--format",
            "json",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["density"] == [0.28209479177387814]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_density_prints_inf(self, capsys, fmt):
        """Gamma(0.01) after 1 has log density 731.7 at 5e-324, past the float
        range; exp raised OverflowError, a traceback and exit code 1."""
        argv = ("predict", "--family", "gamma", "--shape", "0.01", "--strategy", "bayes")
        code, out, err = run(capsys, *argv, "--history", "1", "--points", "5e-324", "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            assert json.loads(out)["density"] == ["inf"]
        else:
            assert out.strip().splitlines()[1].split(",")[1] == "inf"

    def test_missing_points_exits_2(self, capsys):
        code, _, err = run(capsys, "predict", "--family", "gaussian", "--points", "")
        assert code == 2
        assert "error:" in err


class TestJoint:
    def test_bernoulli_exact_field(self, capsys):
        code, out, _ = run(
            capsys, "joint", "--family", "bernoulli", "--seq", "1,1,0", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == "8/155"
        assert payload["value"] == pytest.approx(8 / 155, rel=1e-15)
        assert (payload["m"], payload["n"]) == (0, 3)

    def test_bernoulli_bayes_exact_field(self, capsys):
        """The Krichevsky-Trofimov joint (1/2)(1/4)(1/2)."""
        code, out, _ = run(
            capsys, "joint", "--family", "bernoulli", "--strategy", "bayes", "--seq", "1,0,1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == "1/16"
        assert payload["value"] == 0.0625

    def test_plain_gaussian_value(self, capsys):
        code, out, _ = run(
            capsys, "joint", "--family", "gaussian", "--seq", "0,0,2", "--m", "1"
        )
        assert code == 0
        want = (1.0 / (2 * math.sqrt(math.pi))) * math.exp(-4.0 / 3.0) / math.sqrt(3 * math.pi)
        assert float(out.strip()) == pytest.approx(want, rel=1e-10)

    def test_gaussian_cnml_at_horizon_nine(self, capsys):
        values = (0.3, -1.2, 0.8, 2.1, -0.4, 0.0, 1.5, -2.2, 0.6, 1.1)
        code, out, _ = run(
            capsys, "joint", "--family", "gaussian", "--strategy", "cnml", "--m", "1",
            "--seq", ",".join(str(v) for v in values),
        )
        assert code == 0
        # sup-likelihood ratio of the 9 free values over sqrt((m + k) / m) = sqrt(10)
        rss = sum((v - sum(values) / 10) ** 2 for v in values)
        want = math.exp(-4.5 * math.log(2 * math.pi) - rss / 2) / math.sqrt(10)
        assert float(out.strip()) == pytest.approx(want, rel=1e-10)

    def test_overflowing_joint_prints_inf(self, capsys):
        code, out, err = run(capsys, "joint", "--family", "gamma", "--m", "1", "--seq", ",".join(["1e-8"] * 45))
        assert code == 0, err
        assert float(out.strip()) == math.inf

    def test_overflowing_joint_is_strict_json(self, capsys):
        """JSON has no Infinity token: the value is written as the string "inf"."""

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        argv = ("joint", "--family", "gamma", "--m", "1", "--seq", ",".join(["1e-8"] * 45), "--format", "json")
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        payload = json.loads(out, parse_constant=reject)
        assert payload["value"] == "inf"

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(capsys, "joint", "--family", "bernoulli", "--values", "1,0")
        assert code == 2


class TestRegret:
    def test_nml_equalizer_value(self, capsys):
        code, out, _ = run(
            capsys,
            "regret",
            "--family",
            "bernoulli",
            "--strategy",
            "nml",
            "--seq",
            "1,0",
            "--format",
            "plain",
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(math.log(2.5), abs=1e-12)

    def test_json_fields_satisfy_identity(self, capsys):
        code, out, _ = run(
            capsys, "regret", "--family", "bernoulli", "--strategy", "snml", "--seq", "1,0,1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["regret"] == pytest.approx(
            payload["strategy_loss"] + payload["best_expert_loglik"], abs=1e-12
        )

    def test_nothing_predicted_prints_positive_zero_loss(self, capsys):
        code, out, err = run(capsys, "regret", "--family", "bernoulli", "--seq", "1", "--m", "1", "--format", "json")
        assert code == 0, err
        assert '"strategy_loss": 0.0' in out
        loss = json.loads(out)["strategy_loss"]
        assert loss == 0.0 and math.copysign(1.0, loss) == 1.0

    def test_bernoulli_regret_of_three_thousand_values(self, capsys):
        """Exact Bernoulli takes the float route for its regret, where the
        exact SNML joint of 3000 values would take minutes."""
        values = tuple(float((0.6180339887 * i) % 1.0 < 0.3) for i in range(3000))
        seq = ",".join(str(int(v)) for v in values)
        code, out, err = run(capsys, "regret", "--family", "bernoulli", "--seq", seq, "--format", "plain")
        assert code == 0, err
        want = snmlkit.conditional_regret(snmlkit.Bernoulli(), "snml", families.ObservationSequence(values))
        assert float(out.strip()) == want.regret

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "gaussian", "--seq", "0,60"),
            ("--family", "gamma", "--seq", ",".join(["1e-8"] * 45)),
        ],
        ids=["underflow", "overflow"],
    )
    def test_regret_of_a_joint_out_of_float_range(self, capsys, argv):
        code, out, err = run(capsys, "regret", "--strategy", "bayes", "--m", "1", "--format", "json", *argv)
        assert code == 0, err
        payload = json.loads(out)
        assert math.isfinite(payload["regret"])


class TestCheckConstancy:
    def test_gamma_expect_constant(self, capsys):
        code, out, _ = run(
            capsys,
            "check-constancy",
            "--family",
            "gamma",
            "--shape",
            "1",
            "--n",
            "2",
            "--grid",
            "0.5,1,2,5",
            "--expect",
            "constant",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "Constant"
        for value in payload["values"]:
            assert value == pytest.approx(math.e**2 / 4, rel=1e-8)

    def test_expect_contradiction_exits_1(self, capsys):
        code, out, _ = run(
            capsys,
            "check-constancy",
            "--family",
            "gamma",
            "--n",
            "2",
            "--grid",
            "0.5,1,2",
            "--expect",
            "nonconstant",
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "Constant"

    def test_poisson_nonconstant_with_linspace_grid(self, capsys):
        code, out, _ = run(
            capsys,
            "check-constancy",
            "--family",
            "poisson",
            "--n",
            "2",
            "--grid",
            "linspace:0.5:2:4",
            "--expect",
            "nonconstant",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["grid"] == [0.5, 1.0, 1.5, 2.0]

    def test_csv_output_file_round_trips(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run(
            capsys,
            "check-constancy",
            "--family",
            "gaussian",
            "--n",
            "3",
            "--grid",
            "0,1",
            "--format",
            "csv",
            "--output",
            str(target),
        )
        assert code == 0
        assert out == ""
        grid, values, _ = parse_report_csv(target.read_text())
        assert grid == (0.0, 1.0)
        for value in values:
            assert value == pytest.approx(math.sqrt(2 * math.pi / 3), rel=1e-9)

    def test_single_point_grid_exits_2(self, capsys):
        code, _, err = run(
            capsys, "check-constancy", "--family", "gaussian", "--n", "2", "--grid", "1.0"
        )
        assert code == 2
        assert "error:" in err


class TestCheckExchangeability:
    def test_bernoulli_auto_uses_full_enumeration(self, capsys):
        code, out, _ = run(
            capsys,
            "check-exchangeability",
            "--family",
            "bernoulli",
            "--m",
            "0",
            "--n",
            "3",
            "--expect",
            "nonconstant",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "NonConstant"
        witness = payload["details"]["witness"]
        assert witness["max_joint"] == "8/155"
        assert witness["min_joint"] == "1/20"

    def test_gaussian_explicit_continuations(self, capsys):
        code, out, _ = run(
            capsys,
            "check-exchangeability",
            "--family",
            "gaussian",
            "--m",
            "1",
            "--n",
            "3",
            "--history",
            "0.5",
            "--continuations",
            "0,2;1,-1",
            "--expect",
            "constant",
        )
        assert code == 0
        assert json.loads(out)["max_abs_deviation"] == 0.0

    def test_deterministic_output(self, capsys):
        argv = (
            "check-exchangeability",
            "--family",
            "gamma",
            "--m",
            "1",
            "--n",
            "3",
            "--count",
            "3",
            "--seed",
            "5",
        )
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestCheckOde:
    def test_tweedie_variance_constant(self, capsys):
        code, out, _ = run(
            capsys,
            "check-ode",
            "--variance",
            "2*mu**(3/2)",
            "--domain",
            "0.5,4",
            "--expect",
            "constant",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["details"]["c"] == pytest.approx(0.0, abs=1e-9)

    def test_higher_order_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "check-ode",
            "--variance",
            "mu**3",
            "--domain",
            "0.5,4",
            "--higher-order",
            "--expect",
            "nonconstant",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "NonConstant"

    def test_table_input(self, capsys, tmp_path):
        table = tmp_path / "variance.csv"
        rows = [f"{0.5 + 3.5 * i / 63},{(0.5 + 3.5 * i / 63) ** 2 / 2}" for i in range(64)]
        table.write_text("\n".join(rows) + "\n")
        code, out, _ = run(
            capsys, "check-ode", "--table", str(table), "--expect", "constant"
        )
        assert code == 0
        assert json.loads(out)["details"]["c"] == pytest.approx(0.5, abs=1e-6)

    def test_missing_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "check-ode")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("domain", ["1", "1,2,3"])
    @pytest.mark.parametrize("command", ["check-ode", "classify"])
    def test_domain_needs_two_numbers(self, capsys, command, domain):
        code, out, err = run(capsys, command, "--variance", "1+mu", "--domain", domain)
        assert code == 2 and out == ""
        assert err == f"error: --domain expects LO,HI, got {domain!r}\n"


class TestClassify:
    def test_gamma_shape_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--variance", "mu**2/2", "--domain", "0.5,4")
        assert code == 0
        payload = json.loads(out)
        assert payload["family_class"] == "GammaLinearSigma"
        assert payload["coefficients"]["gamma_shape"] == pytest.approx(2.0, rel=1e-8)

    def test_not_exchangeable_reason(self, capsys):
        code, out, _ = run(capsys, "classify", "--variance", "1 + mu**2", "--domain", "0.5,4")
        assert code == 0
        payload = json.loads(out)
        assert payload["family_class"] == "NotExchangeable"
        assert "discriminant" in payload["reason"]

    @staticmethod
    def gamma_line_rows(count):
        mus = [0.5 + 3.5 * i / (count - 1) for i in range(count)]
        return [f"{mu},{(0.8 * mu + 0.3) ** 2}" for mu in mus]

    def test_table_skips_blank_lines_comments_and_a_header(self, capsys, tmp_path):
        table = tmp_path / "gamma_line.csv"
        rows = self.gamma_line_rows(20)
        lines = ["# V = (0.8 mu + 0.3)^2", "", "mu,V", *rows[:10], "# half way", "", *rows[10:]]
        table.write_text("\n".join(lines))
        code, out, _ = run(capsys, "classify", "--table", str(table))
        assert code == 0
        payload = json.loads(out)
        assert payload["family_class"] == "GammaLinearSigma"
        assert payload["coefficients"]["k"] == pytest.approx(0.8, rel=1e-6)

    @pytest.mark.parametrize("bad_row", [8, 12])
    def test_malformed_table_row_exits_2_with_its_line(self, capsys, tmp_path, bad_row):
        """Row 8 separated by ';' and row 12 with V written 1.2.3: the first of
        them present is reported by its line (the header is line 1)."""
        table = tmp_path / "gamma_line.csv"
        rows = self.gamma_line_rows(20)
        mu, v = rows[bad_row - 1].split(",")
        rows[bad_row - 1] = f"{mu};{v}" if bad_row == 8 else f"{mu},1.2.3"
        table.write_text("mu,V\n" + "\n".join(rows) + "\n")
        code, out, err = run(capsys, "classify", "--table", str(table))
        assert code == 2
        assert out == ""
        assert f"{table}, line {bad_row + 1}:" in err

    @pytest.mark.parametrize("command", ["classify", "check-ode"])
    def test_infinite_variance_row_exits_2_naming_it(self, capsys, tmp_path, command):
        table = tmp_path / "gamma_line.csv"
        rows = self.gamma_line_rows(20)
        mu = rows[7].split(",")[0]
        rows[7] = f"{mu},inf"
        table.write_text("mu,V\n" + "\n".join(rows) + "\n")
        code, out, err = run(capsys, command, "--table", str(table))
        assert code == 2
        assert out == ""
        assert f"row 8 has V({float(mu)!r}) = inf" in err

    def test_second_header_line_exits_2(self, capsys, tmp_path):
        table = tmp_path / "gamma_line.csv"
        table.write_text("mu,V\nmean,variance\n" + "\n".join(self.gamma_line_rows(20)) + "\n")
        code, _, err = run(capsys, "classify", "--table", str(table))
        assert code == 2
        assert "line 2:" in err


class TestLaplace:
    def test_gamma_ratios(self, capsys):
        code, out, _ = run(
            capsys,
            "laplace",
            "--family",
            "gamma",
            "--shape",
            "1",
            "--mu0",
            "1",
            "--expect",
            "constant",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "Constant"
        assert payload["values"][2] == pytest.approx(1.008365, rel=1e-5)

    def test_boundary_needs_restricted_domain(self, capsys):
        code, out, _ = run(
            capsys,
            "laplace",
            "--family",
            "gaussian",
            "--mean-domain",
            "1,inf",
            "--mu0",
            "1",
            "--position",
            "boundary",
            "--n-list",
            "2,5",
        )
        assert code == 0
        for ratio in json.loads(out)["values"]:
            assert ratio == pytest.approx(1.0, abs=1e-7)

    def test_non_integral_n_list_exits_2(self, capsys):
        code, out, err = run(capsys, "laplace", "--family", "gamma", "--mu0", "1", "--n-list", "2.5,5.9")
        assert code == 2
        assert out == ""
        assert "positive integer" in err


class TestSampleTweedie:
    def test_matches_library_sampler(self, capsys):
        code, out, _ = run(capsys, "sample-tweedie", "--mu", "1", "--count", "5", "--seed", "7")
        assert code == 0
        got = [float(line) for line in out.strip().splitlines()]
        assert got == list(tweedie.sample(1.0, 5, seed=7))

    def test_seventeen_digit_output_round_trips(self, capsys):
        code, out, _ = run(capsys, "sample-tweedie", "--mu", "2", "--count", "8", "--seed", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        for line, value in zip(lines, tweedie.sample(2.0, 8, seed=0)):
            assert line == format(value, ".17g")


class TestFamilySelection:
    def test_family_json_inline(self, capsys):
        spec = json.dumps({"kind": "gamma_shape", "shape": 2.0})
        code, out, _ = run(capsys, "kl", "--family-json", spec, "--mu0", "1", "--mu1", "2")
        assert code == 0
        want = 2.0 * (1 / 2 - 1 - math.log(1 / 2))
        assert float(out.strip()) == pytest.approx(want, rel=1e-12)

    def test_family_json_from_file(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"kind": "gaussian_location", "sigma2": 4.0}))
        code, out, _ = run(capsys, "kl", "--family-json", f"@{path}", "--mu0", "0", "--mu1", "2")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.5, rel=1e-12)

    def test_mean_domain_restriction_is_enforced(self, capsys):
        code, _, err = run(
            capsys,
            "kl",
            "--family",
            "gaussian",
            "--mean-domain",
            "1,inf",
            "--mu0",
            "0.5",
            "--mu1",
            "2",
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("domain", ["1", "1,2,3"])
    def test_mean_domain_needs_two_numbers(self, capsys, domain):
        code, out, err = run(capsys, "kl", "--family", "gaussian", "--mean-domain", domain, "--mu0", "1", "--mu1", "2")
        assert code == 2 and out == ""
        assert err == f"error: --mean-domain expects LO,HI, got {domain!r}\n"

    def test_missing_family_exits_2(self, capsys):
        code, _, err = run(capsys, "kl", "--mu0", "0", "--mu1", "1")
        assert code == 2
        assert "error:" in err

    def test_flags_build_the_equal_family_value(self):
        args = cli.build_parser().parse_args(["kl", "--family", "gamma", "--shape", "2", "--mu0", "1", "--mu1", "2"])
        assert cli._family_from_args(args) == snmlkit.GammaShape(2.0)

    def test_family_names_cover_the_serialization_kinds(self):
        assert sorted(cli._FAMILY_KINDS.values()) == sorted(families._KINDS)


class TestUsage:
    def test_no_subcommand_exits_2(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_bad_choice_exits_2(self, capsys):
        assert cli.main(["joint", "--family", "bernoulli", "--strategy", "mdl", "--seq", "1"]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "kl" in out and "sample-tweedie" in out


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter with snmlkit's source tree on the path."""
    env = dict(os.environ, PYTHONPATH=str(Path(snmlkit.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, check=True, env=env)


_LAZY_IMPORTS = """
import json, math, sys
import numpy as np
import snmlkit

def loaded(prefix):
    return sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))

out = {"import": loaded("scipy") + loaded("sympy")}
mu = np.linspace(0.5, 4.0, 41)
spec = snmlkit.VarianceFunctionSpec.from_table(mu, (0.8 * mu + 0.3) ** 2)
snmlkit.sigma_ode_check(spec)
snmlkit.classify_family(spec)
out["table"] = loaded("scipy.interpolate")
out["special_before_tweedie"] = loaded("scipy.special")
from snmlkit import tweedie
cases = [(z, k) for z in (1e-300, 1e-3, 0.7, 2.5, 40.0, 1e6, 1e12) for k in (1, 3)]
lazy = [tweedie.saturated_log_likelihood(z, k) for z, k in cases]
from scipy import special
eager = [math.log(special.i1e(2.0 * math.sqrt(k) * math.sqrt(z))) + 0.5 * (math.log(k) - math.log(z)) for z, k in cases]
out["tweedie_bit_identical"] = lazy == eager
print(json.dumps(out))
"""


def test_import_loads_no_heavy_modules():
    """No scipy or sympy module loads on import, scipy.interpolate on no table
    analysis, and scipy.special only on the first Tweedie l* evaluation, with
    the same bits as calling it directly."""
    out = json.loads(_fresh_python("-c", _LAZY_IMPORTS).stdout)
    assert out == {"import": [], "table": [], "special_before_tweedie": [], "tweedie_bit_identical": True}


def test_table_commands_in_a_subprocess(tmp_path):
    """check-ode and classify on a Gamma-line table: the verdict, c and class
    read before the spline moved into the library, and no scipy.interpolate."""
    table = tmp_path / "gamma_line.csv"
    rows = [f"{0.5 + 3.5 * i / 63},{(0.8 * (0.5 + 3.5 * i / 63) + 0.3) ** 2}" for i in range(64)]
    table.write_text("mu,V\n" + "\n".join(rows) + "\n")

    ode = _fresh_python("-X", "importtime", "-m", "snmlkit.cli", "check-ode", "--table", str(table))
    classify = _fresh_python("-X", "importtime", "-m", "snmlkit.cli", "classify", "--table", str(table))
    report = json.loads(ode.stdout)
    assert report["verdict"] == "Constant"
    assert report["details"]["c"] == pytest.approx(0.6399999996883605, abs=1e-8)
    result = json.loads(classify.stdout)
    assert result["family_class"] == "GammaLinearSigma"
    assert result["coefficients"]["k"] == pytest.approx(0.8, rel=1e-12)
    assert result["coefficients"]["ell"] == pytest.approx(0.3, rel=1e-12)
    for run in (ode, classify):
        assert "scipy.interpolate" not in run.stderr
