"""The four benchmark workloads: one operation each, and its correctness check.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returns.  ``prepare`` runs untimed before each
operation, ``operation`` is the timed call into pendinv, and ``check``
returns the reasons an operation's output is wrong (empty when correct).
``setup`` is the workload's declared set-up, measured in ``setup_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import sweepgen

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"


def clear_caches() -> None:
    """Empty every cache a command-line user rebuilds on each invocation.

    That is every lru cache on a pendinv module-level function plus the
    quadrature node table.
    """
    for name, module in list(sys.modules.items()):
        if name == "pendinv" or name.startswith("pendinv."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    from pendinv import quadrature
    getattr(quadrature, "_node_cache", {}).clear()


def run_cli(argv: list[str]) -> tuple[int | str, str]:
    """Call ``pendinv.cli.main`` with `argv`; return (exit code, stdout).

    An exception that escapes ``main`` is returned in place of the exit
    code, so it counts as a failed operation.
    """
    from pendinv import cli
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        code = f"raised {type(exc).__name__}"
    return code, buf.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name = ""
    trace_ops = 1                  # operations in one traced run
    min_ops = 1                    # operations a timed run completes in any case
    input_set: tuple = ()          # the fixed inputs an operation cycles through

    def setup(self) -> None:
        """Declared set-up, part of ``setup_s``; runs once per process."""
        from pendinv import cli  # noqa: F401 - imports every pendinv module

    def inputs(self, seed: int):
        """Endless iterator of operation inputs for `seed`."""
        while True:
            yield None

    def key(self, inp):
        """What tells `inp` apart when inputs repeat (``run.attempted_failed``)."""
        return inp

    def prepare(self, inp) -> None:
        """Untimed work before each operation."""

    def operation(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def start(self, seed: int) -> None:
        """Reset per-run state before the first operation."""

    def retain(self, idx: int, records: list) -> None:
        """Drop outputs the final checks will not need; all are kept here."""

    def final_checks(self, records: list) -> dict[int, list[str]]:
        """Checks over the whole run, by record index; none by default."""
        return {}

    def known_defect(self, record) -> bool:
        """True when every failure reason of `record` is a listed defect."""
        return False

    def report(self, records: list) -> list[str]:
        """Extra human-readable lines about the run."""
        return []


# -- fit ---------------------------------------------------------------------

# The test suite's reduced fit (order 8, 128 bits, 80 samples), about a
# quarter of the 13-18 s default fit: several fits fit in one run, where a
# single default fit per run moved by 14-21 % between identical runs.
FIT_COMMAND = ["invariants", "--order", "8", "--precision", "128",
               "--samples", "80", "--format", "json"]


class FitWorkload(Workload):
    """``pendinv invariants`` with cold caches, checked against criterion 04."""

    name = "fit"

    def prepare(self, inp) -> None:
        clear_caches()

    def operation(self, inp):
        return run_cli(FIT_COMMAND)

    def check(self, inp, out) -> list[str]:
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        payload = json.loads(text)
        reasons = []
        if not payload["residual_max"] < 1e-9:
            reasons.append(f"residual_max {payload['residual_max']:.3e}")
        for row in payload["coefficients"]:
            ref = row["reference"]
            if ref is not None and not abs(row["fitted"] - ref) < 1e-6:
                reasons.append(f"coefficient ({row['a']},{row['b']}) off "
                               f"{row['reference_label']} by {abs(row['fitted'] - ref):.3e}")
        return reasons


# -- exact -------------------------------------------------------------------

EXACT_COMMANDS = {
    "nf": ["nf", "--order", "20", "--format", "json"],
    "nome": ["pendulum", "--series", "nome", "--order", "12", "--format", "csv"],
}


class ExactWorkload(Workload):
    """Cold exact normal form through grade 20, then the nome series."""

    name = "exact"

    def prepare(self, inp) -> None:
        clear_caches()

    def operation(self, inp):
        return {key: run_cli(argv) for key, argv in EXACT_COMMANDS.items()}

    def check(self, inp, out) -> list[str]:
        golden = json.loads(GOLDEN.read_text())
        reasons = []
        for key, (code, text) in out.items():
            if code != 0:
                reasons.append(f"{key}: exit code {code}")
            elif _sha256(text) != golden[key]:
                reasons.append(f"{key}: output digest differs from golden")
        code, text = out["nf"]
        if code == 0 and json.loads(text).get("lie_equals_inversion") is not True:
            reasons.append("nf: lie_equals_inversion is not true")
        return reasons


# -- orbit -------------------------------------------------------------------

ORBIT_TARGETS = [Fraction(4, 7), Fraction(3, 5), Fraction(5, 8), Fraction(2, 3),
                 Fraction(5, 7), Fraction(3, 4), Fraction(4, 5), Fraction(7, 8)]
ORBIT_RADIUS = 0.75
ORBIT_TOL = 1e-10                  # the CLI default of ``pendinv orbit``


class OrbitWorkload(Workload):
    """One periodic-orbit search per operation, cycling through the targets.

    Its ``op_s`` is the time of the whole set of eight searches.
    """

    name = "orbit"
    input_set = tuple(ORBIT_TARGETS)
    trace_ops = min_ops = len(ORBIT_TARGETS)

    def setup(self) -> None:
        super().setup()
        from pendinv import actions
        actions.energy_of_j(0.1, 0.1)          # fills the normal-form cache

    def inputs(self, seed: int):
        while True:
            yield from ORBIT_TARGETS

    def operation(self, target):
        from pendinv import dynamics
        try:
            return dynamics.periodic_orbit_search(target, ORBIT_RADIUS, tol=ORBIT_TOL)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            return exc

    def check(self, target, res) -> list[str]:
        if isinstance(res, Exception):
            return [f"{target}: raised {type(res).__name__}"]
        reasons = []
        if not res.closure_error < 1e-6:
            reasons.append(f"{target}: closure {res.closure_error:.3e}")
        # the integrated rotation number is independent of the
        # elliptic-integral search that chose the orbit
        w = res.record.rotation_number
        if w is None or not abs(w - float(target)) < 1e-6:
            reasons.append(f"{target}: integrated rotation number {w}")
        return reasons

    def retain(self, idx: int, records: list) -> None:
        records[idx].out = None


# -- sweep -------------------------------------------------------------------

def _call(fn, *args):
    """('ok', value) or ('raise', exception type)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the outcome is classified later
        return ("raise", type(exc))


def evaluate_point(h: float, j2: float, inside: bool) -> dict:
    """The library user's per-point evaluation, as one sweep operation.

    Inside the image the model rotation number and the twist are added
    where |j| <= 1, and the pendulum quadruple on the j2 = 0 slice.
    """
    from pendinv import actions, pendulum
    from pendinv.elliptic import EnergyMomentum

    em = EnergyMomentum(h, j2)
    out = {"action_I1": _call(actions.action_I1, em),
           "rotation_W_numeric": _call(actions.rotation_W_numeric, em),
           "period_T_numeric": _call(actions.period_T_numeric, em),
           "j1_of_energy": _call(actions.j1_of_energy, h, j2)}
    kind, j1 = out["j1_of_energy"]
    if inside and kind == "ok" and 0.0 < math.hypot(j1, j2) <= 1.0:
        out["rotation_W_model"] = _call(actions.rotation_W_model, j1, j2)
        out["twist"] = _call(actions.twist, j1, j2)
    if j2 == 0.0:
        out["pendulum_quadruple"] = _call(pendulum.pendulum_quadruple, h)
    return out


def _finite_values(name: str, value) -> list[float]:
    if name == "action_I1":
        return [value.value]
    if name == "pendulum_quadruple":
        return [value.action, value.imaginary_action, value.period,
                value.imaginary_period]
    return [value]


def classify(point: sweepgen.SweepPoint, outcomes: dict) -> list[str]:
    """Failure reasons of one evaluated point (empty when it succeeded).

    Outside the image every call must raise DomainError; a returned value
    or any other exception fails.  Inside, every call must return finite
    values; any exception, DomainError included, fails.  On the j2 = 0
    slice the Legendre relation |IU - JT - 8| < 1e-12 must hold.
    """
    from pendinv.elliptic import DomainError

    reasons = []
    for name, (kind, value) in outcomes.items():
        if not point.in_image:
            if kind == "ok":
                reasons.append(f"{name}: returned outside the image")
            elif not issubclass(value, DomainError):
                reasons.append(f"{name}: raised {value.__name__}")
        elif kind == "raise":
            reasons.append(f"{name}: raised {value.__name__}")
        elif not all(math.isfinite(v) for v in _finite_values(name, value)):
            reasons.append(f"{name}: non-finite value")
        elif (name == "pendulum_quadruple"
              and not abs(value.legendre_combination() - 8.0) < 1e-12):
            reasons.append("pendulum_quadruple: |IU - JT - 8| >= 1e-12")
    return reasons


def oracle_checks(point: sweepgen.SweepPoint, outcomes: dict) -> list[str]:
    """Compare one point's values with independent routes.

    Where the test suite has an oracle for a quantity, its tolerance is
    used, and only in the region where that oracle is valid: action
    against tanh-sinh quadrature (or the planar pendulum on the axis),
    period and rotation number against finite differences of quadrature
    (or the axis limits), j1 against the complex contour, and the model
    rotation number against the same rotation-number oracle.  The twist
    is checked against a central difference of the model rotation number
    along the energy line.  An oracle that cannot run at the point leaves
    that quantity unchecked.
    """
    from pendinv import actions, pendulum
    from pendinv.elliptic import EnergyMomentum

    h, j2 = point.h, point.j2
    em = EnergyMomentum(h, j2)
    rho = math.hypot(h, j2)
    values = {name: value for name, (kind, value) in outcomes.items() if kind == "ok"}
    reasons = []

    def compare(name, ref_fn, tol, get=lambda v: v):
        if name not in values:
            return
        try:
            ref = ref_fn()
        except Exception:  # noqa: BLE001 - no oracle here, nothing to compare
            return
        got = get(values[name])
        if not abs(got - ref) <= tol:
            reasons.append(f"{name}: disagrees with oracle "
                           f"({got!r} vs {ref!r}, tol {tol:g})")

    step = 1e-5                                  # the finite-difference step
    if abs(j2) <= 1e-9 * abs(h):
        # on the axis, where quadrature slows down by orders of magnitude;
        # |dI1/dj2| = |W| <= 1 bounds the distance to the j2 = 0 value
        compare("action_I1", lambda: pendulum.pendulum_quadruple(h).action,
                1e-10 + abs(j2), lambda v: v.value)
        compare("period_T_numeric", lambda: pendulum.pendulum_quadruple(h).period, 1e-9)
    else:
        compare("action_I1",
                lambda: float(actions.two_pi_I1_quadrature(h, j2, prec=80)[0]),
                1e-10, lambda v: v.two_pi)
        if rho >= 0.14 and all(sweepgen.in_image(h + d, j2) for d in (-step, step)):
            compare("period_T_numeric",
                    lambda: actions.period_T_fd(em, step=step, prec=120), 1e-9)
    w_ref = None                                 # oracle rotation number
    if abs(j2) <= 1e-7 and abs(h) >= 0.05:
        w_ref, w_tol = math.copysign(1.0 if h > 0 else 0.5, j2), 1e-5
    elif (rho >= 0.05 and abs(j2) > 10 * step
          and all(sweepgen.in_image(h, j2 + d) for d in (-step, step))):
        try:
            w_ref, w_tol = actions.rotation_W_fd(em, step=step, prec=120), 1e-6
        except Exception:  # noqa: BLE001 - no oracle here, nothing to compare
            pass
    if w_ref is not None:
        compare("rotation_W_numeric", lambda: w_ref, w_tol)
        if rho <= 0.36 or abs(j2) <= 1e-7:
            compare("rotation_W_model", lambda: w_ref, 1e-4)
    if rho <= 0.15:
        compare("j1_of_energy", lambda: actions.action_J1_numeric(em).value, 1e-9)
    if "twist" in values and abs(j2) > 2e-5 * math.hypot(values["j1_of_energy"], j2):
        # the stencil must not cross j2 = 0, where the model rotation
        # number jumps
        j1 = values["j1_of_energy"]

        def twist_fd():
            a = float(actions.A_series(9).evaluate(j1, j2))
            d = 1e-5 * math.hypot(j1, j2)
            up = actions.rotation_W_model(j1 - a * d, j2 + d)
            dn = actions.rotation_W_model(j1 + a * d, j2 - d)
            return (up - dn) / (2 * d)
        compare("twist", twist_fd, 1e-6 * (1 + abs(values["twist"])))
    return reasons


def known_defects(point: sweepgen.SweepPoint, reasons: list[str]) -> list[str]:
    """Names of the listed program defects that explain `reasons`.

    A reason no listed defect explains is left out, so a run is flagged
    incorrect when ``len(result) < len(reasons)``.  Every listed defect
    still counts as a failure in ``failed`` and ``ok_frac``.
    """
    finite = math.isfinite(point.h) and math.isfinite(point.j2)
    rho = math.hypot(point.h, point.j2) if finite else math.inf
    out = []
    for reason in reasons:
        name, _, what = reason.split(" (")[0].partition(": ")
        if not finite and what == "returned outside the image":
            out.append("non-finite input passes through")
        elif (point.in_image and (rho < 1e-6 or point.h < -2 + 1e-3)
              and what == "raised DomainError"
              and name in ("action_I1", "rotation_W_numeric", "period_T_numeric")):
            out.append("cubic_roots rejects regular points near the critical "
                       "value or the potential minimum")
        elif (point.in_image and abs(point.j2) < 1e-9
              and name == "rotation_W_numeric"
              and what in ("raised ZeroDivisionError", "raised DivergenceError",
                           "non-finite value", "disagrees with oracle")):
            out.append("rotation_W_numeric fails for |j2| < 1e-9: cancellation, "
                       "then NaN, then ZeroDivisionError once j2^2 underflows")
        elif (point.in_image and -1e-9 < point.j2 < 0.0
              and name == "rotation_W_model" and what == "disagrees with oracle"):
            out.append("rotation_W_model is off by one for tiny j2 < 0 with "
                       "j1 < 0: atan2 rounds to -pi and the arg maps it to +pi")
        elif (point.in_image and point.j2 * point.j2 > 2 * (point.h + 1)
              and name == "action_I1" and what == "disagrees with oracle"):
            out.append("action_I1 Lambda0 route is wrong where zeta1 < 0, "
                       "i.e. j2^2 > 2 (h + 1)")
        elif (not point.in_image and point.j2 == 0.0 and point.h < -2
              and name == "rotation_W_numeric"
              and what == "returned outside the image"):
            out.append("rotation_W_numeric returns the axis limit below h = -2")
        elif (finite and not point.in_image and name == "j1_of_energy"
              and what == "returned outside the image"):
            out.append("j1_of_energy evaluates the series outside the image")
    return out


class SweepWorkload(Workload):
    """One seeded (h, j2) point of the momentum-map image per operation.

    A run cycles through a seeded block of BLOCK distinct points and
    evaluates the whole block at least once, however long that takes, so
    which points a run checks, and so its attempted and failed counts,
    depend on the seed alone.  No pendinv cache is keyed by the point, so
    a repeated point costs what a new one would.
    """

    name = "sweep"
    BLOCK = 8000
    min_ops = BLOCK
    trace_ops = 3000
    checks_per_stratum = 4

    def setup(self) -> None:
        super().setup()
        evaluate_point(0.2, 0.1, True)           # fills the series caches

    def points(self, seed: int) -> list:
        """The seed's block, drawn once per process."""
        if getattr(self, "_block_seed", None) != seed:
            self._block, self._block_seed = sweepgen.block(seed, self.BLOCK), seed
        return self._block

    def inputs(self, seed: int):
        points = self.points(seed)
        while True:
            yield from points

    def key(self, point):
        return point.index

    def operation(self, point):
        return evaluate_point(point.h, point.j2, point.in_image)

    def check(self, point, out) -> list[str]:
        return classify(point, out)

    def start(self, seed: int) -> None:
        """Choose the oracle-checked points: a seeded sample per stratum."""
        rng = random.Random(f"oracle-{seed}")
        by_stratum: dict[str, list[int]] = {}
        for point in self.points(seed):
            if point.in_image:
                by_stratum.setdefault(point.stratum, []).append(point.index)
        self._oracle = {i for stratum in sorted(by_stratum)
                        for i in rng.sample(by_stratum[stratum],
                                            min(self.checks_per_stratum,
                                                len(by_stratum[stratum])))}
        self._kept: dict[int, int] = {}          # point index -> record index

    def retain(self, idx: int, records: list) -> None:
        """Keep only the first output of each oracle-checked point.

        Memory stays flat however many points a run evaluates.
        """
        point = records[idx].inp
        if point.index in self._oracle and point.index not in self._kept:
            self._kept[point.index] = idx
        else:
            records[idx].out = None

    def final_checks(self, records: list) -> dict[int, list[str]]:
        """Oracle checks on the sampled points."""
        failed = {}
        for idx in sorted(self._kept.values()):
            reasons = oracle_checks(records[idx].inp, records[idx].out)
            if reasons:
                failed[idx] = reasons
        return failed

    def known_defect(self, record) -> bool:
        return len(known_defects(record.inp, record.reasons)) == len(record.reasons)

    def report(self, records: list) -> list[str]:
        """Failures per stratum and per known defect, over distinct points."""
        reasons: dict[int, set] = {}
        for rec in records:
            reasons.setdefault(rec.inp.index, set()).update(rec.reasons)
        points = {rec.inp.index: rec.inp for rec in records}
        table: dict[str, dict] = {}
        for index, why in reasons.items():
            row = table.setdefault(points[index].stratum,
                                   {"attempted": 0, "failed": 0, "reasons": Counter()})
            row["attempted"] += 1
            if why:
                row["failed"] += 1
                row["reasons"].update({r.split(" (")[0] for r in why})
        lines = []
        for stratum in sweepgen.STRATA:
            row = table.get(stratum)
            if row:
                lines.append(f"stratum {stratum}: {row['failed']} of "
                             f"{row['attempted']} points failed "
                             + json.dumps(dict(row["reasons"].most_common())))
        defects = Counter(name for index, why in reasons.items()
                          for name in set(known_defects(points[index], sorted(why))))
        lines.extend(f"known defect, {n} points: {name}"
                     for name, n in defects.most_common())
        return lines


WORKLOADS = {w.name: w for w in (FitWorkload(), SweepWorkload(),
                                 ExactWorkload(), OrbitWorkload())}
