import json
import pathlib

import pytest

from heckeis import cli
from heckeis.cli import (ENV_VAR, CliParseError, build_parser, default_tol,
                         main)
from heckeis.eisenstein import EisensteinEvaluator
from heckeis.errors import ConvergenceError
from heckeis.reports import VerificationReport
from heckeis.verify import run_suite

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_eisenstein_example(capsys):
    code, out, err = run_cli(
        capsys, "eval-eisenstein", "--base-field", "Q",
        "--lattice", "1,0.0+1.0,1", "--s", "2", "--method", "direct")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["E"]["re"] - 3.0134060198459700) < 1e-6
    assert abs(payload["E"]["im"]) < 1e-12
    assert "E(Lambda" in err


def test_eval_auto_method_small_s(capsys):
    # s = 0.3 is outside the direct-sum domain; auto takes the expansion and
    # the result satisfies the functional equation on the self-dual lattice
    code, out, _ = run_cli(
        capsys, "eval-eisenstein", "--base-field", "Q",
        "--lattice", "1,0.0+1.0,1", "--s", "0.3")
    assert code == 0
    e1 = json.loads(out)["Ehat"]["re"]
    code, out, _ = run_cli(
        capsys, "eval-eisenstein", "--base-field", "Q",
        "--lattice", "1,0.0+1.0,1", "--s", "0.7")
    e2 = json.loads(out)["Ehat"]["re"]
    assert abs(e1 - e2) < 1e-9


def test_eval_quaternionic_lattice(capsys):
    code, out, _ = run_cli(
        capsys, "eval-eisenstein", "--base-field", "Q(sqrt-1)",
        "--lattice", "1,0.0:0.0:1.0:0.0,1", "--s", "2", "--method", "expansion")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["Ehat"]["re"] - 0.9912979482428089) < 1e-8


def test_malformed_lattice_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "eval-eisenstein", "--base-field", "Q",
        "--lattice", "junk", "--s", "2")
    assert code == 2
    assert "lattice" in err


def test_direct_method_failure_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "eval-eisenstein", "--base-field", "Q",
        "--lattice", "1,0.0+1.0,1", "--s", "0.3", "--method", "direct")
    assert code == 3
    assert "expansion" in err


def _fail(*args, **kwargs):
    raise ConvergenceError("did not stabilize")


def test_expansion_failure_hints_the_other_routes(capsys):
    # on this skewed lattice the pair sum's rounding floor lies above tol
    code, _, err = run_cli(
        capsys, "eval-eisenstein", "--base-field", "Q(sqrt-1)",
        "--lattice", "1,0.3:0.2:0.05:0.0,1", "--s", "3", "--tol", "1e-10",
        "--method", "expansion")
    assert code == 3
    assert err.splitlines()[-1] == (
        "hint: try --method lattice or --method direct or a looser --tol")


@pytest.mark.parametrize("method,s,hint", [
    # Re s <= 1.05 lies outside the direct sum's domain
    ("direct", "0.3", "--method expansion or --method lattice"),
    ("auto", "3", "--method lattice or --method direct"),
    ("auto", "1.05", "--method lattice"),
    ("expansion", "0.3,2", "--method lattice"),
    ("lattice", "2,1", "--method expansion or --method direct"),
    ("lattice", "0.5", "--method expansion"),
])
def test_numeric_failure_hints_the_routes_not_tried(capsys, monkeypatch,
                                                    method, s, hint):
    monkeypatch.setattr(EisensteinEvaluator, "ehat_expansion", _fail)
    monkeypatch.setattr(EisensteinEvaluator, "ehat_lattice", _fail)
    code, _, err = run_cli(
        capsys, "eval-eisenstein", "--base-field", "Q",
        "--lattice", "1,0.0+1.0,1", "--s", s, "--method", method)
    assert code == 3
    assert err.splitlines()[-1] == f"hint: try {hint} or a looser --tol"


def test_numeric_failure_hints_without_routes(capsys, monkeypatch):
    # limit-formula has no --method, only a --tol; verify has neither
    monkeypatch.setattr(cli, "relative_klf_check", _fail)
    code, _, err = run_cli(capsys, "limit-formula", "--K", "Q(sqrt5)")
    assert code == 3
    assert err.splitlines()[-1] == "hint: try a looser --tol"
    monkeypatch.setattr(cli, "run_suite", _fail)
    code, _, err = run_cli(capsys, "verify", "--suite", "theta")
    assert code == 3
    assert "hint" not in err


def test_enumeration_cap_exits_3(capsys):
    # EnumerationCapError is also a ValueError; it must still count as a
    # numeric failure, not a parse error
    code, _, err = run_cli(
        capsys, "eval-eisenstein", "--base-field", "Q",
        "--lattice", "1,0.0+1e-7,1", "--s", "2", "--method", "direct")
    assert code == 3
    assert "exceeds the cap" in err


def test_direct_rounding_floor_exits_3(capsys):
    # E = 4.3e6 at s = 2: the requested tol lies below double precision
    code, _, err = run_cli(
        capsys, "eval-eisenstein", "--base-field", "Q",
        "--lattice", "1,0.0+5e-4,1", "--s", "2", "--method", "direct")
    assert code == 3
    assert "rounding floor" in err


def test_unknown_suite_exits_2(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "nonsense")
    assert code == 2


def test_verify_theta_suite(capsys, tmp_path):
    out_file = tmp_path / "reports.json"
    code, out, err = run_cli(capsys, "verify", "--suite", "theta",
                             "--seed", "7", "--out", str(out_file))
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 40
    for r in reports:
        assert set(r) == {"command", "field", "parameters", "lhs", "rhs",
                          "absError", "tolerance", "pass", "wallTimeMs"}
        assert r["pass"]
        rt = VerificationReport.from_json_dict(r)
        assert rt.to_json_dict() == r
    assert json.loads(out_file.read_text()) == reports


def test_verify_determinism():
    a = run_suite("theta", seed=7)
    b = run_suite("theta", seed=7)
    ja = [r.to_json_dict() for r in a]
    jb = [r.to_json_dict() for r in b]
    for x, y in zip(ja, jb):
        x.pop("wallTimeMs"), y.pop("wallTimeMs")
    assert ja == jb
    # a different seed draws different data
    c = [r.to_json_dict() for r in run_suite("theta", seed=8)]
    for x in c:
        x.pop("wallTimeMs")
    assert ja != c


def test_golden_theta_reports():
    golden = json.loads((DATA / "golden_theta_seed7.json").read_text())
    fresh = [r.to_json_dict() for r in run_suite("theta", seed=7)]
    assert len(golden) == len(fresh)
    for g, f in zip(golden, fresh):
        assert g["command"] == f["command"]
        assert g["field"] == f["field"]
        assert g["pass"] and f["pass"]
        for side in ("lhs", "rhs"):
            assert abs(g[side]["re"] - f[side]["re"]) \
                <= 1e-12 * max(1.0, abs(g[side]["re"]))
            assert abs(g[side]["im"] - f[side]["im"]) <= 1e-12


def test_limit_formula_command(capsys):
    code, out, _ = run_cli(capsys, "limit-formula", "--K", "Q(sqrt5)",
                           "--ideal", "O")
    assert code == 0
    payload = json.loads(out)
    assert payload["absError"] < 1e-5
    assert {"ct_xi_F_term", "log_norm_term", "quadrature_term"} \
        <= set(payload["terms"])


def test_limit_formula_rejects_imaginary(capsys):
    code, _, _ = run_cli(capsys, "limit-formula", "--K", "Q(sqrt-1)")
    assert code == 2


def test_quad_element_parser():
    from fractions import Fraction

    from heckeis.basefield import make_field
    from heckeis.cli import CliParseError, parse_quad_element
    F = make_field(-5)
    cases = {"1": (1, 0), "3/2": (Fraction(3, 2), 0), "2w": (0, 2),
             "3/2w": (0, Fraction(3, 2)), "1+2w": (1, 2),
             "-1/2-3w": (Fraction(-1, 2), -3), "w": (0, 1), "-w": (0, -1),
             "2-1w": (2, -1), "-3+1/2w": (-3, Fraction(1, 2))}
    for s, (a, b) in cases.items():
        e = parse_quad_element(F, s)
        assert (e.a, e.b) == (Fraction(a), Fraction(b)), s
    for bad in ("", "1+", "w2", "2ww", "1.5", "--w"):
        with pytest.raises(CliParseError):
            parse_quad_element(F, bad)


def test_precision_env_override(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "1e-6")
    assert default_tol() == 1e-6
    for bad in ("not-a-number", "1e-20", "1e-3", "nan"):
        monkeypatch.setenv(ENV_VAR, bad)
        with pytest.raises(CliParseError, match=ENV_VAR):
            build_parser()


def test_precision_env_sets_cli_default_tol(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "1e-7")
    args = build_parser().parse_args(
        ["eval-eisenstein", "--base-field", "Q",
         "--lattice", "1,0.0+1.0,1", "--s", "2"])
    assert args.tol == 1e-7
    monkeypatch.delenv(ENV_VAR)
    args = build_parser().parse_args(
        ["eval-eisenstein", "--base-field", "Q",
         "--lattice", "1,0.0+1.0,1", "--s", "2"])
    assert args.tol == 1e-9


@pytest.mark.parametrize("raw", ["abc", "1e-20"])
def test_bad_precision_env_exits_2(capsys, monkeypatch, raw):
    # a malformed or out-of-range value is a parse error with a one-line
    # message, whatever the command
    monkeypatch.setenv(ENV_VAR, raw)
    code, out, err = run_cli(capsys, "verify", "--suite", "theta")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and ENV_VAR in err and raw in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["eval-eisenstein", "--base-field", "Q", "--lattice", "1,0.0+1.0,1",
     "--s", "2"],
    ["limit-formula", "--K", "Q(sqrt5)"]])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_tol_must_be_finite_and_positive(capsys, command, tol):
    code, out, err = run_cli(capsys, *command, "--tol", tol)
    assert code == 2
    assert out == ""
    assert "--tol" in err and "finite and > 0" in err


@pytest.mark.parametrize("s, methods", [
    ("1e308", ["direct", "expansion", "lattice", "auto"]),
    ("0.5,1e6", ["expansion", "lattice"])])
def test_overflow_and_division_by_zero_exit_3(capsys, s, methods):
    # an OverflowError or ZeroDivisionError deep in the numerics is a
    # numeric failure with the hint, not a traceback
    for method in methods:
        code, out, err = run_cli(
            capsys, "eval-eisenstein", "--base-field", "Q",
            "--lattice", "1,0.3+1.1,1", "--s", s, "--method", method)
        assert code == 3, (method, err)
        assert out == "" and "Traceback" not in err
        assert "numeric failure" in err and "hint: try" in err


@pytest.mark.parametrize("s", ["nan", "inf", "1,-inf", "1,nan", "2,inf", "1e309"])
def test_non_finite_s_exits_2(capsys, s):
    code, out, err = run_cli(
        capsys, "eval-eisenstein", "--base-field", "Q",
        "--lattice", "1,0.3+1.1,1", "--s", s)
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert "must be finite" in err
