"""Command-line behaviour: formats, determinism, exit codes."""

import hashlib
import json
from pathlib import Path

import pytest

from pendinv.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nf_pretty_and_agreement(capsys):
    code, out, _ = run(capsys, "nf", "--order", "6")
    assert code == 0
    assert "(-9/256)*j1*j2^2" in out
    assert "True" in out


def test_nf_json_schema_round_trip(capsys):
    code, out, _ = run(capsys, "nf", "--order", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lie_equals_inversion"] is True
    from pendinv.series import Series
    series = Series.from_json(json.dumps(payload["series"]))
    from pendinv.normalform import lie_normalize
    assert series == lie_normalize(10)


def test_nf_order_2_is_linear(capsys):
    code, out, _ = run(capsys, "nf", "--order", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["series"]["terms"] == [
        {"a": 1, "b": 0, "num": "1", "den": "1"}]


def test_action_critical_point(capsys):
    code, out, _ = run(capsys, "action", "--h", "0", "--j2", "0")
    assert code == 0
    assert "2 pi I1 = 8" in out


def test_action_csv_schema(capsys):
    code, out, _ = run(capsys, "action", "--h", "0.2", "--j2", "0.1",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "h,j2,I1,J1,W,T,method"


def test_action_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "action", "--h", "-3", "--j2", "0")
    assert code == 2
    assert "domain error" in err


def test_verify_legendre(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "legendre")
    assert code == 0
    assert "PASS" in out and "IU - JT - 8" in out


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 0
    assert "FAIL" not in out


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "invariants", "--order", "8", "--precision", "80",
                      "--samples", "40", "--format", "json")
    _, second, _ = run(capsys, "invariants", "--order", "8", "--precision", "80",
                       "--samples", "40", "--format", "json")
    assert first == second
    payload = json.loads(first)
    assert payload["quadrature_checked_samples"] == 5     # one per circle
    assert 0 <= payload["quadrature_max_abs_diff"] <= 2.0 ** (10 - 80) * 11


def test_pendulum_scalar_json(capsys):
    code, out, _ = run(capsys, "pendulum", "--h", "1.0", "--format", "json")
    payload = json.loads(out)
    assert payload["legendre_combination"] == pytest.approx(8.0, abs=1e-12)


def test_pendulum_series_csv(capsys):
    code, out, _ = run(capsys, "pendulum", "--series", "nome", "--order", "7",
                       "--format", "csv")
    rows = out.strip().splitlines()
    assert rows[0] == "exponent,numerator,denominator"
    assert rows[2] == "2,-6,1"


def test_twist_json(capsys):
    code, out, _ = run(capsys, "twist", "--r", "0.1", "--format", "json")
    payload = json.loads(out)
    assert payload["W_on_curve"] == pytest.approx(payload["W_star_approx"],
                                                  rel=0.05)


def test_orbit_search_and_trace(tmp_path, capsys):
    trace = tmp_path / "orbit.csv"
    code, out, _ = run(capsys, "orbit", "--W", "3/4", "--r", "0.75",
                       "--tol", "1e-11", "--trace", str(trace))
    assert code == 0
    payload = json.loads(out)
    assert payload["closure_error"] < 1e-6
    header = trace.read_text().splitlines()[0]
    assert header == "t,x,y,z,px,py,pz"
    uv = tmp_path / "orbit_uv.csv"
    uv_lines = uv.read_text().splitlines()
    assert uv_lines[0] == "u,v"
    float(uv_lines[1].split(",")[0])   # plain numbers, no wrapper reprs
    assert "(" not in uv_lines[1]


def test_special_subcommand(capsys):
    code, out, _ = run(capsys, "special", "K", "0.0")
    assert code == 0
    assert float(out) == pytest.approx(1.5707963267948966)


@pytest.mark.parametrize("argv", [("special", "K", "1.0"),
                                  ("special", "Pi", "0.5", "--n", "1.0")])
def test_divergence_is_a_domain_error_exit(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("domain error:") and "Traceback" not in err


def test_pendulum_next_to_the_critical_energy(capsys):
    code, out, _ = run(capsys, "pendulum", "--h", "1e-17", "--format", "json")
    assert code == 0
    assert json.loads(out)["legendre_combination"] == pytest.approx(8.0, abs=1e-12)


def test_exact_outputs_match_the_benchmark_digests(capsys):
    golden = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                         / "golden.json").read_text())
    commands = {"nf": ["nf", "--order", "20", "--format", "json"],
                "nome": ["pendulum", "--series", "nome", "--order", "12",
                         "--format", "csv"]}
    for key, argv in commands.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == golden[key], key
