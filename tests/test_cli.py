"""Command-line behaviour: formats, determinism, exit codes."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from pendinv import actions, cli, pendulum, quadrature
from pendinv.cli import build_parser, main
from pendinv.series import Series


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


def test_action_json_at_the_critical_value_is_strict(capsys):
    # W and T are undefined there; JSON has no NaN, so they are null
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    code, out, _ = run(capsys, "action", "--h", "0", "--j2", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out, parse_constant=refuse)
    assert payload["W"] is None and payload["T"] is None
    assert payload["two_pi_I1"] == 8.0


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


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    built = []

    def counting():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_PARSER", None)
    first = run(capsys, "action", "--h", "0.2", "--j2", "0.1")
    with pytest.raises(SystemExit):
        main(["action", "--h", "0.2", "--bogus"])
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert run(capsys, "action", "--h", "0.2", "--j2", "0.1") == first
    assert len(built) == 1
    assert build_parser() is not build_parser()


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


@pytest.mark.parametrize("kind, library, head", [
    ("invariant", pendulum.invariant_series_exact, ["2,3,32", "3,-5,512", "4,55,32768"]),
    ("nome-inverse", lambda n: pendulum.nome_series(n).l_of_q,
     ["1,1,1", "2,6,1", "3,24,1"]),
    ("reciprocal", lambda n: pendulum.nome_series(n).reciprocal_series,
     ["0,6,1", "1,-12,1", "2,76,1"]),
    ("theta", pendulum.J_of_q_theta, ["1,32,1", "2,192,1", "3,768,1"])])
def test_pendulum_series_csv_rows_are_the_library_series(capsys, kind, library, head):
    code, out, _ = run(capsys, "pendulum", "--series", kind, "--order", "7",
                       "--format", "csv")
    rows = out.strip().splitlines()
    assert code == 0 and rows[0] == "exponent,numerator,denominator"
    assert rows[1:4] == head
    assert rows[1:] == [f"{a},{c.numerator},{c.denominator}"
                        for (a,), c in sorted(library(7).terms().items())]


def test_twist_json(capsys):
    for r in ("0.1", "1e-307"):                 # at 1e-307, 32/r overflows
        code, out, _ = run(capsys, "twist", "--r", r, "--format", "json")
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


@pytest.mark.parametrize("trace, uv", [
    ("orbit.csv", "orbit_uv.csv"), ("orbit", "orbit_uv.csv"),
    ("./orbit", "./orbit_uv.csv"), ("run.v2/orbit", "run.v2/orbit_uv.csv")])
def test_orbit_trace_names_the_uv_file_from_the_stem(tmp_path, monkeypatch, capsys, trace, uv):
    # a dot in a directory name is no extension
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.v2").mkdir()
    code, out, err = run(capsys, "orbit", "--W", "3/4", "--trace", trace)
    assert (code, err) == (0, "")
    assert json.loads(out)["target"] == "3/4"
    assert Path(trace).read_text().splitlines()[0] == "t,x,y,z,px,py,pz"
    assert Path(uv).read_text().splitlines()[0] == "u,v"


def test_orbit_that_does_not_close_is_a_verification_failure(capsys):
    # --tol 1e-9 is accepted, but over its 32 periods the 31/32 orbit
    # closes only to about 6e-6 and misses the 1e-6 closure check: one
    # line on stderr and exit 1, as for other failures
    code, out, err = run(capsys, "orbit", "--W", "31/32", "--tol", "1e-9")
    assert code == 1 and out == ""
    assert err.startswith("verification failure: orbit failed to close")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


# Run in a fresh interpreter: the test process has numpy and scipy loaded.
_HEAVY_MODULES_SCRIPT = """
import json, sys
from pendinv import cli

def heavy():
    return sorted(m for m in ("numpy", "scipy") if m in sys.modules)

seen = {"import": heavy()}
for argv in (["nf", "--order", "4"], ["verify", "--suite", "nf"],
             ["action", "--h", "0.2", "--j2", "0.1"],
             ["rotation", "--h", "0.1", "--j2", "0.05"],
             ["pendulum", "--series", "nome"], ["twist", "--r", "0.1"],
             ["orbit", "--W", "3/4"], ["special", "K", "0.5"],
             ["invariants", "--order", "8", "--precision", "80", "--samples", "40"]):
    assert cli.main(argv) == 0, argv
    seen[argv[0]] = heavy()
print(json.dumps(seen))
"""


def test_no_subcommand_loads_numpy_or_scipy():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _HEAVY_MODULES_SCRIPT],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == dict.fromkeys(["import", *_offered_options()], [])


def test_special_subcommand(capsys):
    code, out, _ = run(capsys, "special", "K", "0.0")
    assert code == 0
    assert float(out) == pytest.approx(1.5707963267948966)


def test_special_E_and_lambda0_against_mpmath(capsys):
    # Heuman's Lambda0 at m = k^2 = 1/2 from its definition, at 50 digits:
    # (2/pi) (E F(phi|k'^2) + K E(phi|k'^2) - K F(phi|k'^2))
    with mp.workdps(50):
        m, phi = mp.mpf("0.5"), mp.mpf("1.0")
        K, E = mp.ellipk(m), mp.ellipe(m)
        F_inc, E_inc = mp.ellipf(phi, 1 - m), mp.ellipe(phi, 1 - m)
        refs = {("E", "0.5"): float(E),
                ("lambda0", "0.5", "--phi", "1.0"):
                    float(2 / mp.pi * (E * F_inc + K * E_inc - K * F_inc))}
    for argv, ref in refs.items():
        code, out, _ = run(capsys, "special", *argv)
        assert code == 0 and float(out) == pytest.approx(ref, rel=1e-15), argv


@pytest.mark.parametrize("argv", [("special", "K", "1.0"),
                                  ("special", "Pi", "0.5", "--n", "1.0"),
                                  ("special", "Pi", "0.5", "--n", "nan"),
                                  ("special", "Pi", "0.5", "--n=-inf"),
                                  ("special", "lambda0", "0.5", "--phi", "nan"),
                                  ("twist", "--r", "1e-320"),
                                  ("pendulum", "--h", "inf"),
                                  ("orbit", "--W", "3/4", "--r", "nan"),
                                  ("orbit", "--W", "3/4", "--r", "-0.5"),
                                  ("orbit", "--W", "5/7", "--r", "1.1")])
def test_divergence_is_a_domain_error_exit(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("domain error:") and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("h, j2", [("1e30", "1"), ("1e308", "1e154")])
def test_action_where_the_j1_series_overflows_is_a_domain_error_exit(capsys, h, j2, fmt):
    # the point lies in the image; J1 read -inf or nan, and JSON raised on it
    code, out, err = run(capsys, "action", "--h", h, "--j2", j2, "--format", fmt)
    assert code == 2 and out == ""
    assert err.startswith("domain error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


# argparse's own test for a negative number, ^-\d+$|^-\d*\.\d+$, takes these
# for option flags
@pytest.mark.parametrize("argv, decimal", [
    (("action", "--h", "-1e-3", "--j2", "0.1"), ("action", "--h", "-0.001", "--j2", "0.1")),
    (("rotation", "--h", "0.1", "--j2", "-1e-2"), ("rotation", "--h", "0.1", "--j2", "-0.01")),
    (("pendulum", "--h", "-1.5e0"), ("pendulum", "--h", "-1.5")),
    (("special", "Pi", "0.5", "--n", "-1e-3"), ("special", "Pi", "0.5", "--n", "-0.001")),
    (("special", "Pi", "1E-1", "--n", "-2e0"), ("special", "Pi", "0.1", "--n", "-2.0")),
])
def test_negative_numbers_in_exponent_form_are_values(capsys, argv, decimal):
    assert run(capsys, *argv) == run(capsys, *decimal)


@pytest.mark.parametrize("argv", [
    ("special", "Pi", "0.5", "--n", "-inf"), ("special", "lambda0", "0.5", "--phi", "-nan"),
    ("special", "lambda0", "0.5", "--phi", "-inf"),
    ("action", "--h", "-inf"), ("action", "--h", "0.1", "--j2", "-nan"),
    ("rotation", "--h", "-nan", "--j2", "0.1"), ("rotation", "--h", "0.1", "--j2", "-inf"),
    ("twist", "--r", "-inf"), ("pendulum", "--h", "-nan"),
    ("orbit", "--W", "3/4", "--r", "-inf"),
])
def test_negative_non_finite_values_are_domain_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("domain error:") and "Traceback" not in err


@pytest.mark.parametrize("m", ["-0.001", "-1e-3", "1.5", "nan", "-nan", "-inf"])
def test_special_parameter_outside_the_unit_interval_is_refused_by_name(capsys, m):
    # the error names m as typed; -1e-3 and -nan are read as values, not as flags
    with pytest.raises(SystemExit) as refused:
        main(["special", "K", m])
    out, err = capsys.readouterr()
    assert refused.value.code == 2 and out == ""
    assert (err.splitlines()[-1]
            == f"pendinv special: error: argument m: {m} lies outside [0, 1]")


@pytest.mark.parametrize("argv", [
    ("invariants", "--order", "1"), ("invariants", "--order", "3"),
    ("invariants", "--order", "11"), ("invariants", "--precision", "0"),
    ("invariants", "--precision", "-5"), ("invariants", "--precision", "8"),
    ("invariants", "--precision", "63"), ("nf", "--order", "1"),
    ("pendulum", "--series", "nome", "--order", "0"),
    ("pendulum", "--series", "nome-inverse", "--order", "0"),
    ("pendulum", "--series", "reciprocal", "--order", "0"),
    ("orbit", "--W", "3/4", "--tol", "1e-3"), ("orbit", "--W", "3/4", "--tol", "nan"),
    ("orbit", "--W", "3/4", "--tol", "1e-8"),
    ("orbit", "--W", "abc"), ("orbit", "--W", "1/0"),
    ("invariants", "--samples", "0"), ("invariants", "--samples", "-5")])
def test_out_of_range_arguments_are_refused_by_the_parser(capsys, argv):
    # exit 1 means a verification failure, so these never reach a command
    with pytest.raises(SystemExit) as refused:
        main(list(argv))
    out, err = capsys.readouterr()
    assert refused.value.code == 2 and out == ""
    assert err.splitlines()[-1].startswith(f"pendinv {argv[0]}: error: argument {argv[-2]}:")
    assert "Traceback" not in err


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


# sha256 of the stdout of the benchmark's fit command (perfbench
# FIT_COMMAND): a change to the fit that moves a printed value changes it
FIT_COMMAND_SHA256 = "9bc528d196ca7a2dd2ffee169dbd37930ea367ace3aeb1e428b1ca90a010f46c"
# the same before the quadrature oracle and the closed form's elliptic
# kernels ran in fixed point, which moved only the largest
# closed-form/quadrature difference
MPF_ORACLE_SHA256 = "7852fc9cbe44ce098f76cf9f2d72d2660be9ceaddd8ac0236af97a43e1e0df81"
MPF_ORACLE_MAX_DIFF = "1.793662034335766e-43"


def test_fit_output_is_pinned(capsys):
    code, out, _ = run(capsys, "invariants", "--order", "8", "--precision", "128",
                       "--samples", "80", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FIT_COMMAND_SHA256
    # every other byte is as before, and the differences agree within
    # 2^-128 (1 + |2 pi I1|), |2 pi I1| < 10 on the fit circles
    diff = json.loads(out)["quadrature_max_abs_diff"]
    old = out.replace(f'"quadrature_max_abs_diff": {diff!r}',
                      f'"quadrature_max_abs_diff": {MPF_ORACLE_MAX_DIFF}')
    assert hashlib.sha256(old.encode()).hexdigest() == MPF_ORACLE_SHA256
    assert abs(diff - float(MPF_ORACLE_MAX_DIFF)) <= 2.0 ** -128 * 11


# sha256 of the stdout of the default fit (order 10, 256 bits, 160 samples),
# with its largest closed-form/quadrature difference
DEFAULT_FIT_SHA256 = "74828b9c8ad0f44a17797c7df6694932ad1dce2afe8c22013fd870a688c89d19"
DEFAULT_FIT_MAX_DIFF = "2.635549485807631e-82"


def test_default_fit_output_is_pinned(capsys):
    code, out, _ = run(capsys, "invariants", "--format", "json")
    assert code == 0
    # every byte but the difference is pinned, and the difference agrees
    # within 2^-256 (1 + |2 pi I1|), |2 pi I1| < 10 on the fit circles
    diff = json.loads(out)["quadrature_max_abs_diff"]
    pinned = out.replace(f'"quadrature_max_abs_diff": {diff!r}',
                         f'"quadrature_max_abs_diff": {DEFAULT_FIT_MAX_DIFF}')
    assert hashlib.sha256(pinned.encode()).hexdigest() == DEFAULT_FIT_SHA256
    assert abs(diff - float(DEFAULT_FIT_MAX_DIFF)) <= 2.0 ** -256 * 11


@pytest.mark.parametrize("gate", ["reference", "quadrature"])
def test_a_failed_fit_is_a_verification_failure(monkeypatch, capsys, gate):
    # the (2, 2) reference moved by 1e-5, or a quadrature oracle that stops
    # unconverged: one line on stderr, nothing on stdout, exit 1
    if gate == "reference":
        terms = dict(actions.invariant_polynomial(4).terms())
        terms[(2, 2)] += Fraction(1, 100000)
        moved = Series(4, ("j1", "j2"), terms)
        monkeypatch.setattr(actions, "invariant_polynomial", lambda order=4: moved)
    else:
        monkeypatch.setattr(quadrature, "MAX_LEVEL", 4)
    code, out, err = run(capsys, "invariants", "--order", "8", "--precision", "128",
                         "--samples", "80")
    assert (code, out) == (1, "")
    assert err.startswith("verification failure: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("order", range(4, 11))
def test_every_accepted_fit_order_fits(capsys, order):
    code, out, err = run(capsys, "invariants", "--order", str(order),
                         "--precision", "80", "--samples", "40", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["order"] == order


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _offered_formats() -> dict[str, tuple]:
    """Each subcommand's --format choices, read from the parser."""
    return {name: next((a.choices for a in p._actions if a.dest == "format"), ())
            for name, p in _subparsers().items()}


def _offered_options() -> dict[str, set]:
    """Each subcommand's option strings, read from the parser, without
    -h/--help."""
    return {name: {o for a in p._actions for o in a.option_strings}
            - {"-h", "--help"} for name, p in _subparsers().items()}


OPTIONS = {
    "nf": {"--order", "--format"},
    "invariants": {"--order", "--precision", "--samples", "--format"},
    "action": {"--h", "--j2", "--format"},
    "rotation": {"--h", "--j2", "--format"},
    "twist": {"--r", "--format"},
    "pendulum": {"--h", "--series", "--order", "--true-pendulum", "--format"},
    "orbit": {"--W", "--r", "--tol", "--trace"},
    "special": {"--n", "--phi"},
    "verify": {"--suite"},
}


def test_option_census():
    assert _offered_options() == OPTIONS


# one quick invocation per subcommand, and per output of `pendulum`
CONTRACT_ARGV = {
    "nf": [("nf", "--order", "4")],
    "invariants": [("invariants", "--order", "8", "--precision", "80",
                    "--samples", "40")],
    "action": [("action", "--h", "0.2", "--j2", "0.1")],
    "rotation": [("rotation", "--h", "0.1", "--j2", "0.05")],
    "twist": [("twist", "--r", "0.1")],
    "pendulum": [("pendulum", "--h", "0.5"), ("pendulum", "--series", "nome")],
    "orbit": [],
    "special": [],
    "verify": [],
}


@pytest.mark.parametrize("command", sorted(_offered_formats()))
def test_each_offered_format_is_the_format_written(capsys, command):
    formats = _offered_formats()[command]
    invocations = CONTRACT_ARGV[command]
    assert bool(formats) == bool(invocations)
    for argv in invocations:
        for fmt in formats:
            code, out, _ = run(capsys, *argv, "--format", fmt)
            assert code == 0
            if fmt == "json":
                json.loads(out)
            elif fmt == "csv":
                header = out.splitlines()[0].split(",")
                assert len(header) > 1 and all(f.isidentifier() for f in header)
            else:
                with pytest.raises(ValueError):
                    json.loads(out)
