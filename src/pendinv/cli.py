"""Command-line surface: reproducible experiments, machine-readable output.

Every subcommand writes to stdout (`orbit --trace` also writes CSV files).
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


def _json(payload) -> str:
    """Indented JSON; NaN or infinity raises ValueError, as JSON has neither."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _within(kind, low=-math.inf, high=math.inf):
    """An argparse type: `kind` of the text, refused outside [low, high]."""
    def parse(text):
        try:
            value = kind(text)
        except ZeroDivisionError:             # Fraction("1/0")
            raise ValueError(text) from None
        if not low <= value <= high:          # NaN is refused too
            raise argparse.ArgumentTypeError(f"{text} lies outside [{low}, {high}]")
        return value
    parse.__name__ = kind.__name__            # argparse names it in errors
    return parse


class _Parser(argparse.ArgumentParser):
    """argparse reads -1e-3, -inf and -nan as option flags, since only
    plain negative numbers look like values to it; this parser, and every
    subparser it makes, reads each float literal as a value."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None                           # a positional value


def _emit_payload(payload: dict, args) -> None:
    """Print `payload` as indented JSON, a CSV header and row, or
    `key = value` lines, by --format."""
    if args.format == "json":
        print(_json(payload))
    elif args.format == "csv":
        print(",".join(payload) + "\n" + ",".join(map(str, payload.values())))
    else:
        print("\n".join(f"{k} = {v!r}" for k, v in payload.items()))


def cmd_nf(args) -> int:
    lie = normalform.lie_normalize(args.order)
    agree = lie == actions.birkhoff_series(args.order // 2)
    if args.format == "json":
        payload = {"order": args.order, "series": json.loads(lie.to_json()),
                   "lie_equals_inversion": agree}
        print(_json(payload))
    else:
        lines = [f"normal form through grade {args.order}:",
                 "  H = " + lie.pretty(),
                 f"lie route == inversion route: {agree}"]
        print("\n".join(lines))
    return 0 if agree else 1


def cmd_invariants(args) -> int:
    res = actions.fit_invariant_S(order=args.order, precision=args.precision,
                                  samples=args.samples)
    known = actions.invariant_polynomial(4).terms()
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
        payload = {"order": args.order, "precision": args.precision,
                   "samples": res.samples, "residual_max": res.residual_max,
                   "residual_rms": res.residual_rms, "coefficients": rows,
                   "quadrature_checked_samples": res.oracle_samples,
                   "quadrature_max_abs_diff": res.oracle_max_diff}
        print(_json(payload))
    else:
        lines = [f"invariant fit: order {args.order}, {args.precision} bits, "
                 f"{res.samples} samples, residual {res.residual_max:.3e}",
                 f"closed-form action checked by quadrature at "
                 f"{res.oracle_samples} samples: max |difference| "
                 f"{res.oracle_max_diff:.3e}"]
        for row in rows:
            ref = (f"  reference {row['reference_label']}"
                   f" (|err| = {abs(row['fitted'] - row['reference']):.2e})"
                   if row["reference"] is not None else "")
            lines.append(f"  j1^{row['a']} j2^{row['b']}: {row['fitted']:+.12e}{ref}")
        print("\n".join(lines))
    return 0


def cmd_action(args) -> int:
    em = EnergyMomentum(args.h, args.j2)
    act = actions.action_I1(em)
    j1 = actions.j1_of_energy(args.h, args.j2)
    critical = args.j2 == 0.0 and args.h == 0.0   # W and T are undefined
    if critical:
        w_val, t_val = float("nan"), float("nan")
    else:
        w_val = actions.rotation_W_numeric(em)
        t_val = actions.period_T_numeric(em)
    if args.format == "csv":
        print("h,j2,I1,J1,W,T,method\n"
              f"{args.h},{args.j2},{act.value!r},{j1!r},{w_val!r},{t_val!r},{act.method}")
    elif args.format == "json":
        print(_json({"h": args.h, "j2": args.j2, "I1": act.value,
                     "two_pi_I1": act.two_pi, "J1": j1,
                     "W": None if critical else w_val,
                     "T": None if critical else t_val, "method": act.method}))
    else:
        print(f"2 pi I1 = {act.two_pi:.15g}   (I1 = {act.value:.15g}, "
              f"method {act.method})\nJ1 = {j1:.15g}\nW = {w_val:.15g}\n"
              f"T = {t_val:.15g}")
    return 0


def cmd_rotation(args) -> int:
    em = EnergyMomentum(args.h, args.j2)
    w_num = actions.rotation_W_numeric(em)
    j1 = actions.j1_of_energy(args.h, args.j2)
    w_mod = actions.rotation_W_model(j1, args.j2)
    _emit_payload({"h": args.h, "j2": args.j2, "W_elliptic": w_num,
                   "W_model": w_mod, "difference": w_num - w_mod}, args)
    return 0


def cmd_twist(args) -> int:
    s = actions.twistless_curve(args.r)
    w_star = actions.rotation_W_model(args.r * math.sin(s), args.r * math.cos(s))
    _emit_payload({"r": args.r, "s_twistless": s, "W_on_curve": w_star,
                   "W_star_approx": actions.W_star_approx(args.r)}, args)
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
        else:  # "theta", the last of the argparse choices
            ser = pendulum.J_of_q_theta(order)
        if args.format == "csv":
            lines = ["exponent,numerator,denominator"]
            for (a,), c in sorted(ser.terms().items()):
                lines.append(f"{a},{c.numerator},{c.denominator}")
            print("\n".join(lines))
        elif args.format == "json":
            print(ser.to_json())
        else:
            print(ser.pretty())
        return 0
    quad = pendulum.pendulum_quadruple(args.h, true_pendulum=args.true_pendulum)
    _emit_payload({"h": args.h, "branch": quad.branch, "I": quad.action,
                   "J": quad.imaginary_action, "T": quad.period,
                   "U": quad.imaginary_period,
                   "legendre_combination": quad.legendre_combination()}, args)
    return 0


def cmd_orbit(args) -> int:
    try:
        res = dynamics.periodic_orbit_search(args.W, args.r, tol=args.tol)
    except dynamics.IntegrationError as exc:     # e.g. no closure of 31/32 at --tol 1e-9
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    payload = {"target": str(args.W), "s": res.s, "h": res.h, "j2": res.j2,
               "closure_error": res.closure_error}
    print(_json(payload))
    if args.trace:
        lines = ["t,x,y,z,px,py,pz"]
        for t, y in zip(res.record.times, res.record.states):
            lines.append(",".join(map(repr, [t, *y])))
        with open(args.trace, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        uv = res.record.stereographic_trace()
        stem, dot, ext = args.trace.rpartition(".")
        uv_path = (stem or args.trace) + "_uv." + (ext if dot else "csv")
        with open(uv_path, "w") as fh:
            fh.write("u,v\n")
            fh.write("\n".join(f"{u!r},{v!r}" for u, v in uv) + "\n")
    return 0


def cmd_special(args) -> int:
    mc = 1 - args.msq                  # the kernels take k'^2 = 1 - m
    if args.function == "K":
        val = elliptic.ellint_K(mc)
    elif args.function == "E":
        val = elliptic.ellint_E(mc)
    elif args.function == "Pi":
        val = elliptic.ellint_Pi(args.n, mc)
    else:  # "lambda0", the last of the argparse choices
        val = elliptic.heuman_lambda0(args.phi, mc)
    print(repr(val))
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
        if normalform.lie_normalize(10) != actions.birkhoff_series(5):
            return False, ["lie route != inversion route through grade 10"]
        normalform.verify_linear_nf()
    except Exception as exc:  # noqa: BLE001 - report any failure
        return False, [f"failure: {exc}"]
    return True, ["lie route == inversion route through grade 10",
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
                        "integral of the oscillating part equals the Lie "
                        "generator (+W4); the mixed-variable generating "
                        "function is its negative"]


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
    print("\n".join(output))
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pendinv",
        description="Normal form, actions and symplectic invariants of the "
                    "spherical pendulum")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, *formats):
        p.add_argument("--format", choices=formats, default="pretty")

    p = sub.add_parser("nf", help="Birkhoff normal form, both routes")
    p.add_argument("--order", type=_within(int, 2), default=10,
                   help="maximum grade (default 10)")
    add_format(p, "pretty", "json")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("invariants", help="fit the symplectic invariant")
    p.add_argument("--order", type=_within(int, 4, 10), default=10)
    p.add_argument("--precision", type=_within(int, 64), default=256)
    p.add_argument("--samples", type=_within(int, 1), default=160,
                   help="total samples over the circles (default 160); each "
                        "circle is raised to at least 2 order + 3")
    add_format(p, "pretty", "json")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("action", help="action values at one point")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--j2", type=float, default=0.0)
    add_format(p, "pretty", "json", "csv")
    p.set_defaults(func=cmd_action)

    p = sub.add_parser("rotation", help="rotation number, elliptic vs model")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--j2", type=float, required=True)
    add_format(p, "pretty", "json")
    p.set_defaults(func=cmd_rotation)

    p = sub.add_parser("twist", help="twistless circle data at radius r")
    p.add_argument("--r", type=float, required=True)
    add_format(p, "pretty", "json")
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("pendulum", help="planar pendulum values and series")
    p.add_argument("--h", type=float, default=0.5)
    p.add_argument("--series",
                   choices=("invariant", "nome", "nome-inverse", "reciprocal",
                            "theta"))
    p.add_argument("--order", type=_within(int, 1), default=7)
    p.add_argument("--true-pendulum", action="store_true")
    add_format(p, "pretty", "json", "csv")
    p.set_defaults(func=cmd_pendulum)

    p = sub.add_parser("orbit", help="periodic orbit with rotation number p/q")
    p.add_argument("--W", type=_within(Fraction), required=True,
                   help="rational target, e.g. 3/4")
    p.add_argument("--r", type=float, default=0.75)
    p.add_argument("--tol", type=_within(float, 1e-13, 1e-9), default=1e-10)
    p.add_argument("--trace", default=None, help="CSV path for the orbit trace")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("special", help="evaluate a special function")
    p.add_argument("function", choices=("K", "E", "Pi", "lambda0"))
    p.add_argument("msq", type=_within(float, 0, 1), metavar="m",
                   help="the parameter m = k^2, in [0, 1]")
    p.add_argument("--n", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=math.pi / 2)
    p.set_defaults(func=cmd_special)

    p = sub.add_parser("verify", help="run a named acceptance suite")
    p.add_argument("--suite", default="all",
                   choices=tuple(_SUITES) + ("all",))
    p.set_defaults(func=cmd_verify)
    return parser


# one parser per process, built by the first `main`: parsing leaves it
# unchanged, and a fresh one per call leaves ~800 objects in reference cycles
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
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
