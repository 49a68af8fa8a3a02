"""Command-line surface: reproducible experiments, machine-readable output.

Exit codes: 0 success, 1 verification failure, 2 domain error.  Nothing
is sampled at random and grid sweeps are assembled in deterministic
order, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import actions, dynamics, elliptic, normalform, pendulum
from .elliptic import DivergenceError, DomainError, EnergyMomentum


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_nf(args) -> int:
    lie = normalform.lie_normalize(args.order)
    inv = actions.birkhoff_by_inversion(args.order)
    agree = lie == inv
    if args.format == "json":
        payload = {"order": args.order, "series": json.loads(lie.to_json()),
                   "lie_equals_inversion": agree}
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    else:
        lines = [f"normal form through grade {args.order}:",
                 "  H = " + lie.pretty(),
                 f"lie route == inversion route: {agree}"]
        _emit("\n".join(lines), args.output)
    return 0 if agree else 1


def cmd_invariants(args) -> int:
    res = actions.fit_invariant_S(order=args.order, precision=args.precision,
                                  samples=args.samples)
    known = actions._known_invariant_terms(4)
    rows = []
    for (a, b) in sorted(res.coefficients, key=lambda k: (k[0] + k[1], k[1])):
        fitted = res.coefficients[(a, b)]
        if (a, b) == (1, 0):
            reference = math.log(32.0)
            label = "ln 32"
        elif (a, b) in known:
            reference = float(known[(a, b)])
            label = str(known[(a, b)])
        else:
            reference, label = None, ""
        rows.append({"a": a, "b": b, "fitted": fitted,
                     "reference": reference, "reference_label": label})
    if args.format == "json":
        payload = {"order": res.order, "precision": res.precision,
                   "samples": res.samples, "residual_max": res.residual_max,
                   "residual_rms": res.residual_rms, "coefficients": rows,
                   "quadrature_checked_samples": res.oracle_samples,
                   "quadrature_max_abs_diff": res.oracle_max_diff}
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    else:
        lines = [f"invariant fit: order {res.order}, {res.precision} bits, "
                 f"{res.samples} samples, residual {res.residual_max:.3e}",
                 f"closed-form action checked by quadrature at "
                 f"{res.oracle_samples} samples: max |difference| "
                 f"{res.oracle_max_diff:.3e}"]
        for row in rows:
            ref = (f"  reference {row['reference_label']}"
                   f" (|err| = {abs(row['fitted'] - row['reference']):.2e})"
                   if row["reference"] is not None else "")
            lines.append(f"  j1^{row['a']} j2^{row['b']}: {row['fitted']:+.12e}{ref}")
        _emit("\n".join(lines), args.output)
    return 0


def cmd_action(args) -> int:
    em = EnergyMomentum(args.h, args.j2)
    act = actions.action_I1(em, method=args.method)
    j1 = actions.j1_of_energy(args.h, args.j2)
    if args.j2 == 0.0 and args.h == 0.0:
        w_val, t_val = float("nan"), float("nan")
    else:
        w_val = actions.rotation_W_numeric(em)
        t_val = actions.period_T_numeric(em)
    if args.format == "csv":
        _emit("h,j2,I1,J1,W,T,method\n"
              f"{args.h},{args.j2},{act.value!r},{j1!r},{w_val!r},{t_val!r},{act.method}",
              args.output)
    elif args.format == "json":
        _emit(json.dumps({"h": args.h, "j2": args.j2, "I1": act.value,
                          "two_pi_I1": act.two_pi, "J1": j1, "W": w_val,
                          "T": t_val, "method": act.method},
                         indent=2, sort_keys=True), args.output)
    else:
        _emit(f"2 pi I1 = {act.two_pi:.15g}   (I1 = {act.value:.15g}, "
              f"method {act.method})\nJ1 = {j1:.15g}\nW = {w_val:.15g}\n"
              f"T = {t_val:.15g}", args.output)
    return 0


def cmd_rotation(args) -> int:
    em = EnergyMomentum(args.h, args.j2)
    w_num = actions.rotation_W_numeric(em)
    j1 = actions.j1_of_energy(args.h, args.j2)
    w_mod = actions.rotation_W_model(j1, args.j2)
    payload = {"h": args.h, "j2": args.j2, "W_elliptic": w_num,
               "W_model": w_mod, "difference": w_num - w_mod}
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    else:
        _emit("\n".join(f"{k} = {v!r}" for k, v in payload.items()), args.output)
    return 0


def cmd_twist(args) -> int:
    s = actions.twistless_curve(args.r)
    w_star = actions.W_star(args.r)
    payload = {"r": args.r, "s_twistless": s, "W_on_curve": w_star,
               "W_star_approx": actions.W_star_approx(args.r)}
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    else:
        _emit("\n".join(f"{k} = {v!r}" for k, v in payload.items()), args.output)
    return 0


def cmd_pendulum(args) -> int:
    if args.series:
        order = args.order
        if args.series == "invariant":
            ser = pendulum.invariant_series_exact(order)
        elif args.series == "nome":
            ser = pendulum.nome_from_invariant(order).q_of_l
        elif args.series == "nome-inverse":
            ser = pendulum.nome_from_invariant(order).l_of_q
        elif args.series == "reciprocal":
            ser = pendulum.nome_from_invariant(order).reciprocal_series
        elif args.series == "theta":
            ser = pendulum.J_of_q_theta(order)
        else:
            raise ValueError(f"unknown series {args.series}")
        if args.format == "csv":
            lines = ["exponent,numerator,denominator"]
            for (a,), c in sorted(ser.terms().items()):
                lines.append(f"{a},{c.numerator},{c.denominator}")
            _emit("\n".join(lines), args.output)
        else:
            _emit(ser.to_json(), args.output)
        return 0
    quad = pendulum.pendulum_quadruple(args.h, true_pendulum=args.true_pendulum)
    payload = {"h": args.h, "branch": quad.branch, "I": quad.action,
               "J": quad.imaginary_action, "T": quad.period,
               "U": quad.imaginary_period,
               "legendre_combination": quad.legendre_combination()}
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    else:
        _emit("\n".join(f"{k} = {v!r}" for k, v in payload.items()), args.output)
    return 0


def cmd_orbit(args) -> int:
    target = Fraction(args.W)
    res = dynamics.periodic_orbit_search(target, args.r, tol=args.tol)
    payload = {"target": str(target), "s": res.s, "h": res.h, "j2": res.j2,
               "closure_error": res.closure_error}
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    if args.trace:
        lines = ["t,x,y,z,px,py,pz"]
        for t, y in zip(res.record.times, res.record.states):
            lines.append(",".join(repr(float(v)) for v in [t, *y]))
        with open(args.trace, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        uv = res.record.stereographic_trace()
        stem, dot, ext = args.trace.rpartition(".")
        uv_path = (stem or args.trace) + "_uv." + (ext if dot else "csv")
        with open(uv_path, "w") as fh:
            fh.write("u,v\n")
            fh.write("\n".join(f"{float(u)!r},{float(v)!r}" for u, v in uv) + "\n")
    return 0


def cmd_special(args) -> int:
    mc = 1 - args.msq                  # the kernels take k'^2 = 1 - m
    if args.function == "K":
        val = elliptic.ellint_K(mc)
    elif args.function == "E":
        val = elliptic.ellint_E(mc)
    elif args.function == "Pi":
        val = elliptic.ellint_Pi(args.n, mc)
    elif args.function == "lambda0":
        val = elliptic.heuman_lambda0(args.phi, mc)
    else:
        raise ValueError(args.function)
    _emit(repr(val), args.output)
    return 0


def _suite_legendre() -> tuple[bool, list[str]]:
    hs = [(-1.9 + 6.9 * i / 49) for i in range(50)]
    hs = [h if abs(h) > 1e-9 else 0.05 for h in hs]
    rows = [(h, abs(pendulum.pendulum_quadruple(h).legendre_combination() - 8.0))
            for h in hs]
    worst = max(r[1] for r in rows)
    lines = [f"h = {h:+.4f}: |IU - JT - 8| = {err:.3e}" for h, err in rows]
    lines.append(f"worst residual: {worst:.3e}")
    return worst < 1e-12, lines


def _suite_nf() -> tuple[bool, list[str]]:
    try:
        actions.verify_birkhoff_equivalence(10)
        nf_data = normalform.verify_linear_nf()
        ok = nf_data.all_ok
    except Exception as exc:  # noqa: BLE001 - report any failure
        return False, [f"failure: {exc}"]
    return ok, ["lie route == inversion route through grade 10",
                "linear normalization identities hold exactly"]


def _suite_nome() -> tuple[bool, list[str]]:
    ok = pendulum.theta_inverse_matches_nome(7)
    ns = pendulum.nome_from_invariant(7)
    ints = ns.integer_coefficients()
    return ok and ints, [f"theta inversion exact: {ok}",
                         f"integer coefficients: {ints}"]


def _suite_rotation() -> tuple[bool, list[str]]:
    rep = actions.rotation_expansion_check()
    return rep.passed, [f"ln coefficient exact: {rep.ln_coefficient_ok}",
                        f"frequency-ratio series exact: {rep.a_series_ok}",
                        f"worst numeric deviation: {rep.worst_numeric:.3e}"]


def _suite_averaging() -> tuple[bool, list[str]]:
    rep = normalform.canonical_pt_cross_check()
    return rep.passed, [f"average matches: {rep.average_ok}",
                        f"first order agreement: {rep.first_order_ok}",
                        rep.observed_relation]


_SUITES = {
    "legendre": _suite_legendre,
    "nf": _suite_nf,
    "nome": _suite_nome,
    "rotation": _suite_rotation,
    "averaging": _suite_averaging,
}


def cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    output = []
    all_ok = True
    for name in names:
        ok, lines = _SUITES[name]()
        all_ok &= ok
        output.append(f"[{'PASS' if ok else 'FAIL'}] suite {name}")
        output.extend("    " + line for line in lines)
    _emit("\n".join(output), args.output)
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pendinv",
        description="Normal form, actions and symplectic invariants of the "
                    "spherical pendulum")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("pretty", "json", "csv"),
                       default="pretty")
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    p = sub.add_parser("nf", help="Birkhoff normal form, both routes")
    p.add_argument("--order", type=int, default=10, help="maximum grade (default 10)")
    common(p)
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("invariants", help="fit the symplectic invariant")
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--precision", type=int, default=256)
    p.add_argument("--samples", type=int, default=160)
    common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("action", help="action values at one point")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--j2", type=float, default=0.0)
    p.add_argument("--method", default="lambda0",
                   choices=("lambda0", "quadrature"))
    common(p)
    p.set_defaults(func=cmd_action)

    p = sub.add_parser("rotation", help="rotation number, elliptic vs model")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--j2", type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_rotation)

    p = sub.add_parser("twist", help="twistless circle data at radius r")
    p.add_argument("--r", type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("pendulum", help="planar pendulum values and series")
    p.add_argument("--h", type=float, default=0.5)
    p.add_argument("--series",
                   choices=("invariant", "nome", "nome-inverse", "reciprocal",
                            "theta"))
    p.add_argument("--order", type=int, default=7)
    p.add_argument("--true-pendulum", action="store_true")
    common(p)
    p.set_defaults(func=cmd_pendulum)

    p = sub.add_parser("orbit", help="periodic orbit with rotation number p/q")
    p.add_argument("--W", required=True, help="rational target, e.g. 3/4")
    p.add_argument("--r", type=float, default=0.75)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--trace", default=None, help="CSV path for the orbit trace")
    common(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("special", help="evaluate a special function")
    p.add_argument("function", choices=("K", "E", "Pi", "lambda0"))
    p.add_argument("msq", type=float, help="the parameter m = k^2")
    p.add_argument("--n", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=math.pi / 2)
    common(p)
    p.set_defaults(func=cmd_special)

    p = sub.add_parser("verify", help="run a named acceptance suite")
    p.add_argument("--suite", default="all",
                   choices=tuple(_SUITES) + ("all",))
    common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, DivergenceError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except (actions.ConsistencyError, actions.FitQualityError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
