"""Direct integration of the spherical pendulum on the cotangent bundle.

Redundant Cartesian coordinates (r, p) in R^3 x R^3 with per-step
projection back onto the constraint set (r, r) = 1, (r, p) = 0 avoid the
polar coordinate singularity at the pole, which is exactly where the
interesting orbits climb.  Scaled units m = g = l = 1 throughout, so the
unstable equilibrium sits at r = e_z with energy zero.  A state is six
floats (x, y, z, p_x, p_y, p_z) from `initial_condition` to the record's
states, and `_conserved` alone computes its energy and j2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .actions import brentq, energy_of_j, period_T_numeric, rotation_W_numeric, unwrap
from .elliptic import DomainError, EnergyMomentum, _discriminant, cubic_roots


def _rhs(_t: float, y) -> tuple:
    """Right-hand side dr/dt = L x r, dp/dt = L x p - e_z/|r| + (e_z.r) r/|r|^3.

    Scalar cross products on Python floats, on any sequence of six, too
    short for numpy to pay off.  A step calls this 12 times (11 stages,
    then the restart from the projected state), 11 more per rejected try
    and 4 more at a turning point (f at the unprojected end, 3 stages).
    """
    rx, ry, rz, px, py, pz = y
    lx = ry * pz - rz * py
    ly = rz * px - rx * pz
    lz = rx * py - ry * px
    norm = math.sqrt(rx * rx + ry * ry + rz * rz)
    c = rz / norm ** 3
    return (ly * rz - lz * ry, lz * rx - lx * rz, lx * ry - ly * rx,
            ly * pz - lz * py + c * rx, lz * px - lx * pz + c * ry,
            lx * py - ly * px - 1.0 / norm + c * rz)


def _zdot(y) -> float:
    """dz/dt = (L x r)_z; it falls through zero at a maximum of z."""
    rx, ry, rz, px, py, pz = y
    return (ry * pz - rz * py) * ry - (rz * px - rx * pz) * rx


def _project(y) -> tuple:
    """Back onto (r, r) = 1, (r, p) = 0: r scaled to unit length, then the
    radial part of p removed."""
    rx, ry, rz, px, py, pz = y
    norm = math.sqrt(rx * rx + ry * ry + rz * rz)
    rx, ry, rz = rx / norm, ry / norm, rz / norm
    rp = rx * px + ry * py + rz * pz
    return (rx, ry, rz, px - rp * rx, py - rp * ry, pz - rp * rz)


def _conserved(y) -> tuple:
    """Energy |L|^2/2 + z/|r| - 1, j2 = L_z, |(r, r) - 1| and |(r, p)|."""
    rx, ry, rz, px, py, pz = y
    lx = ry * pz - rz * py
    ly = rz * px - rx * pz
    lz = rx * py - ry * px
    rr = rx * rx + ry * ry + rz * rz
    return (0.5 * (lx * lx + ly * ly + lz * lz) + rz / math.sqrt(rr) - 1.0, lz,
            abs(rr - 1.0), abs(rx * px + ry * py + rz * pz))


# Dormand-Prince 8(5,3) (Hairer, Norsett and Wanner, Sec. II.10): scipy's
# DOP853 coefficients, each written by its repr so it round-trips, and each
# row the tuple of its nonzero (index, coefficient) pairs.  _A and _C start
# at stage 1, as stage 0 is f at the start; 12 stages, the 13th is f at the
# new point
_A = (
    ((0, 0.05260015195876773),),
    ((0, 0.0197250569845379), (1, 0.0591751709536137)),
    ((0, 0.02958758547680685), (2, 0.08876275643042054)),
    ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792)),
    ((0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242)),
    ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596),
     (5, -0.017578125)),
    ((0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
     (5, -0.015319437748624402), (6, 0.008273789163814023)),
    ((0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726),
     (5, 27.59209969944671), (6, 20.154067550477894), (7, -43.48988418106996)),
    ((0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
     (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
     (8, -0.020331201708508627)),
    ((0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295),
     (5, -8.149787010746927), (6, -18.52006565999696), (7, 22.739487099350505),
     (8, 2.4936055526796523), (9, -3.0467644718982196)),
    ((0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
     (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
     (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636)),
)
_C = (0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
      0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
      0.8571428571428571, 1.0)
_B = ((0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
      (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
      (10, 0.20136540080403034), (11, 0.04471061572777259))
_E3 = ((0, -0.18980075407240762), (5, 4.450312892752409), (6, 1.8915178993145003),
       (7, -5.801203960010585), (8, -0.4226823213237919), (9, -0.1521609496625161),
       (10, 0.20136540080403034), (11, 0.02265179219836082))
_E5 = ((0, 0.01312004499419488), (5, -1.2251564463762044), (6, -0.4957589496572502),
       (7, 1.6643771824549864), (8, -0.35032884874997366), (9, 0.3341791187130175),
       (10, 0.08192320648511571), (11, -0.022355307863886294))
_D = (
    ((0, -8.428938276109013), (5, 0.5667149535193777), (6, -3.0689499459498917),
     (7, 2.38466765651207), (8, 2.117034582445028), (9, -0.871391583777973),
     (10, 2.2404374302607883), (11, 0.6315787787694688), (12, -0.08899033645133331),
     (13, 18.148505520854727), (14, -9.194632392478356), (15, -4.436036387594894)),
    ((0, 10.427508642579134), (5, 242.28349177525817), (6, 165.20045171727028),
     (7, -374.5467547226902), (8, -22.113666853125306), (9, 7.733432668472264),
     (10, -30.674084731089398), (11, -9.332130526430229), (12, 15.697238121770845),
     (13, -31.139403219565178), (14, -9.35292435884448), (15, 35.81684148639408)),
    ((0, 19.985053242002433), (5, -387.0373087493518), (6, -189.17813819516758),
     (7, 527.8081592054236), (8, -11.57390253995963), (9, 6.8812326946963),
     (10, -1.0006050966910838), (11, 0.7777137798053443), (12, -2.778205752353508),
     (13, -60.19669523126412), (14, 84.32040550667716), (15, 11.99229113618279)),
    ((0, -25.69393346270375), (5, -154.18974869023643), (6, -231.5293791760455),
     (7, 357.6391179106141), (8, 93.40532418362432), (9, -37.45832313645163),
     (10, 104.0996495089623), (11, 29.8402934266605), (12, -43.53345659001114),
     (13, 96.32455395918828), (14, -39.17726167561544), (15, -149.72683625798564)),
)
_A_EXTRA = (
    ((0, 0.056167502283047954), (6, 0.25350021021662483), (7, -0.2462390374708025),
     (8, -0.12419142326381637), (9, 0.15329179827876568), (10, 0.00820105229563469),
     (11, 0.007567897660545699), (12, -0.008298)),
    ((0, 0.03183464816350214), (5, 0.028300909672366776), (6, 0.053541988307438566),
     (7, -0.05492374857139099), (10, -0.00010834732869724932),
     (11, 0.0003825710908356584), (12, -0.00034046500868740456),
     (13, 0.1413124436746325)),
    ((0, -0.42889630158379194), (5, -4.697621415361164), (6, 7.683421196062599),
     (7, 4.06898981839711), (8, 0.3567271874552811), (12, -0.0013990241651590145),
     (13, 2.9475147891527724), (14, -9.15095847217987)),
)
_C_EXTRA = (0.1, 0.2, 0.7777777777777778)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 8           # error estimator of order 7


def _row_sum(row, i: int) -> str:
    """Source of sum_j a_j k_j, component i, over the row's nonzero (j, a_j):
    from 0.0 and left to right, which fixes every bit and the sign of a zero;
    only + and *, as sum() of floats is compensated from Python 3.12."""
    return "(0.0" + "".join(f" + {a!r} * k{j}_{i}" for j, a in row) + ")"


@lru_cache(maxsize=None)
def _straight_line() -> tuple:
    """The tableau's arithmetic as straight-line code, generated from the
    literal rows on first use.  ``attempt`` evaluates a step's 11 stages
    from f0 = f(t, y) and returns its 12 stages, y_new and the E5 and E3
    sums of squares; ``dense`` evaluates the 3 extra stages from the 13
    stages k and returns the `_D` rows times h."""
    def vec(term) -> str:
        return "(" + ", ".join(map(term, range(6))) + ")"

    def unpack(name: str, value: str) -> str:
        return f"{vec(lambda i: f'{name}_{i}')} = {name} = {value}"

    def stages(rows, nodes, first: int) -> list:
        return [unpack(f"k{j}", f"fun(t + {c!r} * h, "
                       + vec(lambda i: f"y{i} + {_row_sum(row, i)} * h") + ")")
                for j, (row, c) in enumerate(zip(rows, nodes), first)]

    attempt = [unpack("k0", "f0"), *stages(_A, _C, 1),
               unpack("y_new", vec(lambda i: f"y{i} + h * {_row_sum(_B, i)}")),
               *(f"s{i} = atol + max(abs(y{i}), abs(y_new_{i})) * rtol" for i in range(6)),
               *(f"e{n} = fsum({vec(lambda i: f'({_row_sum(row, i)} / s{i}) ** 2')})"
                 for n, row in ((5, _E5), (3, _E3))),
               f"return [{', '.join(f'k{j}' for j in range(12))}], y_new, e5, e3"]
    dense = [*(unpack(f"k{j}", f"k[{j}]") for j in range(13)), *stages(_A_EXTRA, _C_EXTRA, 13),
             f"return [{', '.join(vec(lambda i: f'h * {_row_sum(row, i)}') for row in _D)}]"]
    head, namespace = "\n    y0, y1, y2, y3, y4, y5 = y\n    ", {"fsum": math.fsum}
    exec("def attempt(fun, t, h, y, f0, atol, rtol):" + head + "\n    ".join(attempt) +
         "\ndef dense(fun, t, h, y, k):" + head + "\n    ".join(dense), namespace)
    return namespace["attempt"], namespace["dense"]


def _rms(values) -> float:
    return math.sqrt(math.fsum(v * v for v in values) / len(values))


class DOP853:
    """scipy's DOP853 on a 6-vector of Python floats, forward in time.

    Same tableau, the literal `_A` to `_C_EXTRA` above, and the same
    initial step selection, step controller (safety 0.9, factors 0.2 to
    10, exponent -1/8, a minimum step of 10 ulp of t), hybrid E5/E3 error
    norm and dense output as ``scipy.integrate.DOP853``; only the
    summation order differs, so results agree with scipy's to rounding.
    The stages run as `_straight_line` code.  Every evaluation of the
    right-hand side goes through ``fun``.  ``y`` and ``f``, six floats
    each, may be reassigned between steps; ``f`` unless assigned is
    fun(t, y), evaluated on its first read after a step.
    """

    TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

    def __init__(self, fun, t0: float, y0, t_bound: float, *, rtol: float,
                 atol: float):
        y0 = tuple(float(v) for v in y0)
        if not all(map(math.isfinite, y0)):
            raise ValueError("All components of the initial state `y0` must be finite.")
        if not t_bound > t0:
            raise ValueError("DOP853 integrates forward: t_bound must exceed t0")
        self.fun, self.t, self.y, self.t_bound = fun, t0, y0, t_bound
        self.rtol, self.atol = rtol, atol
        self.status = "running"
        self.f = fun(t0, y0)
        self._attempt, self._dense = _straight_line()
        self.h_abs = self._initial_step()

    @property
    def f(self):
        """fun(t, y), evaluated on the first read after a step."""
        if self._f is None:
            self._f = self.fun(self.t, self.y)
        return self._f

    @f.setter
    def f(self, value):
        self._f = value

    def _initial_step(self) -> float:
        """Hairer-Norsett-Wanner's starting step, as scipy selects it."""
        t0, y0, f0 = self.t, self.y, self.f
        interval = self.t_bound - t0
        scale = [self.atol + abs(v) * self.rtol for v in y0]
        d0 = _rms([v / s for v, s in zip(y0, scale)])
        d1 = _rms([v / s for v, s in zip(f0, scale)])
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        f1 = self.fun(t0 + h0, [v + h0 * d for v, d in zip(y0, f0)])
        d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        return min(100 * h0, h1, interval)

    def step(self):
        """One accepted step; returns None, or the message of a failure."""
        t, y, f, fun, attempt = self.t, self.y, self.f, self.fun, self._attempt
        rtol, atol = self.rtol, self.atol
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return self.TOO_SMALL_STEP
            t_new = min(t + h_abs, self.t_bound)
            h = h_abs = t_new - t
            stages, y_new, e5, e3 = attempt(fun, t, h, y, f, atol, rtol)
            error_norm = h * e5 / math.sqrt((e5 + 0.01 * e3) * 6) if e5 or e3 else 0.0
            if error_norm < 1:
                factor = _MAX_FACTOR if error_norm == 0 else \
                    min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                self.h_abs = h_abs * (min(1.0, factor) if rejected else factor)
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        self.t_old, self.y_old, self.stages = t, y, stages
        self.t, self.y, self._f = t_new, y_new, None
        if t_new >= self.t_bound:
            self.status = "finished"
        return None

    def dense_output(self):
        """The step's interpolant t -> y, a list of six floats.

        Three extra stages, then the 7-row Horner form in alternating
        x and 1 - x, x the fraction of the step.
        """
        t_old, y_old, h = self.t_old, self.y_old, self.t - self.t_old
        f_old = self.stages[0]
        dy = [a - b for a, b in zip(self.y, y_old)]
        rows = [dy, [h * f - d for f, d in zip(f_old, dy)],
                [2 * d - h * (f + g) for d, f, g in zip(dy, self.f, f_old)]]
        rows += self._dense(self.fun, t_old, h, y_old, self.stages + [self.f])
        columns = list(zip(*reversed(rows)))

        def dense(s: float) -> list:
            x = (s - t_old) / h
            factors = (x, 1 - x) * 3 + (x,)
            out = []
            for col, v0 in zip(columns, y_old):
                v = 0.0
                for c, m in zip(col, factors):
                    v = (v + c) * m
                out.append(v + v0)
            return out
        return dense


@dataclass
class OrbitRecord:
    """Trajectory samples, turning points, rotation number and drifts."""

    times: list                         # floats: 0, then each accepted step
    states: list                        # 6-tuples: the projected states
    rotation_number: float | None
    turning_times: list
    energy_drift: float
    j2_drift: float
    constraint_drift: float

    def stereographic_trace(self) -> list:
        """(u, v) = (x, y)/(1 + z) pairs: unstable equilibrium at the origin."""
        return [(x / (1.0 + z), y / (1.0 + z)) for x, y, z, *_ in self.states]


class IntegrationError(RuntimeError):
    pass


def integrate(y0, t_end: float, tol: float = 1e-12) -> OrbitRecord:
    """Adaptive eighth-order integration with per-step constraint projection.

    Projects `y0`, any six numbers (r, p) such as a tuple, list or numpy
    array, converted to Python floats once, onto the constraint set, steps
    the in-module `DOP853` on its literal tableau from t = 0 to t_end > 0,
    projects every accepted state back and restarts the next step from it
    and f there.  Records every accepted step, tracks the continuous
    azimuth, and refines each inclination turning point (maximum of z, the
    pericenter of the reduced motion) as the root of z' on the dense
    interpolant of its step, by the in-package `actions.brentq` to
    1e-13 max(1, t); the interpolant, and the f at the step's unprojected
    end that it needs, are evaluated for those steps only.  The record
    keeps the turning times, whose spacing is the reduced period, and the
    rotation number: the mean azimuth advance between successive turning
    points over 2 pi, or None with fewer than two.  Per step, `_conserved`
    gives the energy and j2 drift from the projected start and the
    constraint residuals, each held by the tests within 10 * tol * t_end.
    A t_end that is not finite and positive, a non-finite state, or an r
    of zero or non-finite length, which cannot be projected, raises
    ValueError.
    """
    if not 1e-13 <= tol <= 1e-6:
        raise ValueError("tol must lie in [1e-13, 1e-6]")
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be finite and positive")
    rx, ry, rz, px, py, pz = map(float, y0)
    norm = math.sqrt(rx * rx + ry * ry + rz * rz)      # as `_project` computes it
    if not 0.0 < norm < math.inf:
        raise ValueError(f"|r| = {norm} is not finite and nonzero, so r cannot be "
                         f"projected onto the constraint set (r, r) = 1")
    y0 = _project((rx, ry, rz, px, py, pz))
    solver = DOP853(_rhs, 0.0, y0, t_end, rtol=tol, atol=tol)
    h0, j20, res_r, res_rp = _conserved(y0)
    energy_drift = j2_drift = 0.0
    constraint_drift = max(res_r, res_rp)

    times = [0.0]
    states = [y0]
    phi = math.atan2(y0[1], y0[0])            # continuous azimuth of the last state
    turning: list[tuple[float, float]] = []   # (time, unwrapped phi)
    prev_zdot = _zdot(y0)
    while solver.status == "running":
        msg = solver.step()
        if solver.status == "failed":
            raise IntegrationError(f"step failed: {msg}")
        t = solver.t
        y = _project(solver.y)
        energy, j2, res_r, res_rp = _conserved(y)
        energy_drift = max(energy_drift, abs(energy - h0))
        j2_drift = max(j2_drift, abs(j2 - j20))
        constraint_drift = max(constraint_drift, res_r, res_rp)
        cur_zdot = _zdot(y)
        if prev_zdot > 0.0 and cur_zdot <= 0.0 and len(times) > 1:
            # z-maximum inside (t_prev, t]: a root of z' on the step's
            # interpolant, built before the projection below replaces
            # solver.y and solver.f.  The interpolant starts at the projected
            # previous state, where z' > 0, and ends at the unprojected
            # state, whose z' may keep its sign; the maximum is then t
            dense = solver.dense_output()
            t_star = t if _zdot(dense(t)) > 0 else brentq(
                lambda s: _zdot(dense(s)), times[-1], t, xtol=1e-13 * max(1.0, abs(t)))
            y_star = dense(t_star)
            turning.append((t_star, unwrap(phi, math.atan2(y_star[1], y_star[0]))))
        phi = unwrap(phi, math.atan2(y[1], y[0]))
        solver.y = y
        solver.f = solver.fun(t, y)
        prev_zdot = cur_zdot
        times.append(t)
        states.append(y)
        if len(times) > 200000:
            raise IntegrationError("sample budget exhausted")

    rotation = ((turning[-1][1] - turning[0][1]) / (len(turning) - 1) / (2 * math.pi)
                if len(turning) >= 2 else None)         # the mean advance, telescoped
    return OrbitRecord(times=times, states=states, rotation_number=rotation,
                       turning_times=[t for t, _ in turning], energy_drift=energy_drift,
                       j2_drift=j2_drift, constraint_drift=constraint_drift)


def initial_condition(em: EnergyMomentum) -> tuple:
    """State (r, p), six floats, at the inclination turning point closest
    to the upper pole.

    Places the orbit at zeta1 (maximum of z) in the x-z plane with purely
    azimuthal momentum carrying the requested angular momentum.
    """
    data = cubic_roots(em)
    z = data.zeta1
    sin_theta = math.sqrt(max(0.0, 1.0 - z * z))
    if sin_theta == 0.0:
        raise DomainError("turning point at the pole; no regular orbit there")
    return sin_theta, 0.0, z, 0.0, em.j2 / sin_theta, 0.0


def rotation_number_measured(em: EnergyMomentum, n_periods: int = 3,
                             tol: float = 1e-12) -> tuple[float, OrbitRecord]:
    """Rotation number from direct integration over a few reduced periods."""
    state = initial_condition(em)
    t_est = period_T_numeric(em)
    record = integrate(state, (n_periods + 0.25) * t_est, tol=tol)
    if record.rotation_number is None:
        raise IntegrationError("no full reduced period inside the time window")
    return record.rotation_number, record


def _brackets(f, grid):
    """Yield, in grid order, (a, b) for neighbouring grid points where f
    changes sign and (a, a) where f(a) is exactly 0.

    A point where f raises DomainError is skipped, and no bracket spans it.
    f == 0 at two neighbouring points, a stretch and not a root, raises it.
    """
    prev = None
    for x in grid:
        try:
            fx = f(x)
        except DomainError:
            prev = None
            continue
        if fx == 0.0:
            if prev is not None and prev[1] == 0.0:
                raise DomainError(f"the rotation number equals the target along a "
                                  f"stretch of the line, from {prev[0]!r} to {x!r}")
            yield x, x
        elif prev is not None and prev[1] * fx < 0:
            yield prev[0], x
        prev = (x, fx)


@dataclass
class OrbitSearchResult:
    s: float
    j2: float
    h: float
    closure_error: float
    record: OrbitRecord


def periodic_orbit_search(w_target: Fraction, radius: float,
                          tol: float = 1e-12) -> OrbitSearchResult:
    """Find the periodic orbit with rotation number p/q on a polar circle.

    The polar angle is measured from the positive j2 axis (j1 = r sin s,
    j2 = r cos s).  The first bracket of `_brackets` on a grid of 80 angles
    is refined by the in-package `actions.brentq` on the elliptic-integral
    rotation number to full accuracy, and the orbit is then integrated over
    q reduced periods and checked to close to 1e-6 in phase space.  Raises
    DomainError for a radius outside (0, 1], the disk of the models that
    take (j1, j2), and when no angle of the grid brackets the target.
    """
    if not 0 < radius <= 1:
        raise DomainError("radius must lie in (0, 1]")
    w_val = float(w_target)
    q = Fraction(w_target).denominator

    def f(s: float) -> float:
        j1 = radius * math.sin(s)
        j2 = radius * math.cos(s)
        return rotation_W_numeric(EnergyMomentum(energy_of_j(j1, j2), j2)) - w_val

    lo, hi = -math.pi / 2 + 1e-3, math.pi / 2 - 1e-3
    grid = [lo + i * ((hi - lo) / 79) for i in range(79)] + [hi]  # as np.linspace
    a, b = next(_brackets(f, grid), (None, None))
    if a is None:
        raise DomainError(
            f"rotation number {w_target} not attained on the circle r = {radius}")
    s_root = a if a == b else brentq(f, a, b, xtol=1e-14)

    j1 = radius * math.sin(s_root)
    j2 = radius * math.cos(s_root)
    h = energy_of_j(j1, j2)
    em = EnergyMomentum(h, j2)
    state0 = initial_condition(em)
    t_period = period_T_numeric(em)
    record = integrate(state0, q * t_period, tol=tol)
    closure = math.dist(record.states[-1], record.states[0])
    if closure > 1e-6:
        raise IntegrationError(
            f"orbit failed to close: |final - initial| = {closure:.3e}")
    return OrbitSearchResult(s=s_root, j2=j2, h=h, closure_error=closure,
                             record=record)


def _j2_max(h: float) -> float:
    """jmax(h), the edge of the image: the largest float j2 at which
    `_discriminant` admits (h, j2), by bisection from [0, 2 sqrt(h + 2)].
    j2 = 0 lies in the image for every h >= -2, and the upper end lies
    outside it, for once j2^2 > 2 (h + 2), P < 0 on all of [-1, 1]."""
    lo, hi = 0.0, 2 * math.sqrt(h + 2)
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        try:
            _discriminant(h, mid)
        except DomainError:
            hi = mid
        else:
            lo = mid
    return lo


def orbits_at_energy(h: float, w_target: Fraction) -> list[EnergyMomentum]:
    """All j2 > 0 with the given rotation number at fixed energy: every
    bracket of `_brackets` on 400 values of j2 across (0, jmax(h)), refined
    by `brentq`; jmax(h) is the largest float j2 in the momentum-map image
    (`_j2_max`).  Raises DomainError for an h that is not finite or lies
    below -2, and where W equals the target at two neighbouring j2 (the
    float W rounds to 1 on stretches of the line from h ~ 1e7).

    Two solutions straddling the twistless circle exist for targets just
    below the local maximum of W along the energy line.
    """
    if not -2 <= h < math.inf:
        raise DomainError(f"h = {h} is not a finite energy of at least -2")
    w_val, j2_max = float(w_target), _j2_max(h)

    def f(j2: float) -> float:
        return rotation_W_numeric(EnergyMomentum(h, j2)) - w_val

    grid = [j2_max * i / 401 for i in range(1, 401)]
    return [EnergyMomentum(h, a if a == b else brentq(f, a, b, xtol=1e-13))
            for a, b in _brackets(f, grid)]


@dataclass
class GeometryReport:
    theta_min: float
    theta_max: float
    north_asymptotic: float
    south_asymptotic: float
    excluded_radius: float
    excluded_radius_asymptotic: float
    outer_size: float
    outer_size_asymptotic: float


def geometry_report(radius: float, s: float) -> GeometryReport:
    """Orbit geometry at polar point (j1, j2) = r (sin s, cos s).

    Compares the exact inclination range from the cubic roots with the
    leading-order polar formulas: distance to the upper pole
    sqrt(r (1 - sin s)), to the lower pole r |cos s| / 2, the excluded-disk
    radius sqrt(r (1 - sin s))/2 and the overall stereographic size
    4 / (r |cos s|).
    """
    j1 = radius * math.sin(s)
    j2 = radius * math.cos(s)
    h = energy_of_j(j1, j2)
    data = cubic_roots(EnergyMomentum(h, j2))
    theta_min = math.acos(min(1.0, data.zeta1))
    theta_max = math.acos(max(-1.0, data.zeta0))
    north = math.sqrt(max(0.0, radius * (1 - math.sin(s))))
    south = radius * abs(math.cos(s)) / 2
    # stereographic radii for the projection (x, y)/(1 + z)
    excluded = math.sqrt(max(0.0, (1 - data.zeta1) / (1 + data.zeta1))) \
        if data.zeta1 > -1 else math.inf
    outer = math.sqrt((1 - data.zeta0) / (1 + data.zeta0)) \
        if data.zeta0 > -1 else math.inf
    return GeometryReport(
        theta_min=theta_min, theta_max=theta_max,
        north_asymptotic=north, south_asymptotic=math.pi - south,
        excluded_radius=excluded, excluded_radius_asymptotic=north / 2,
        outer_size=outer, outer_size_asymptotic=4 / (radius * abs(math.cos(s)))
        if math.cos(s) != 0 else math.inf)
