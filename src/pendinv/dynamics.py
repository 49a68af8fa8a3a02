"""Direct integration of the spherical pendulum on the cotangent bundle.

Redundant Cartesian coordinates (r, p) in R^3 x R^3 with per-step
projection back onto the constraint set (r, r) = 1, (r, p) = 0 avoid the
polar coordinate singularity at the pole, which is exactly where the
interesting orbits climb.  Scaled units m = g = l = 1 throughout, so the
unstable equilibrium sits at r = e_z with energy zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.integrate import DOP853
from scipy.optimize import brentq

from .actions import energy_of_j, period_T_numeric, rotation_W_numeric, unwrap
from .elliptic import DomainError, EnergyMomentum, cubic_roots


@dataclass
class PhaseState:
    """Point of the constrained phase space with its conserved quantities."""

    r: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.p = np.asarray(self.p, dtype=float)

    @property
    def angular_momentum(self) -> np.ndarray:
        return np.cross(self.r, self.p)

    @property
    def energy(self) -> float:
        norm = float(np.linalg.norm(self.r))
        ll = self.angular_momentum
        return 0.5 * float(ll @ ll) + self.r[2] / norm - 1.0

    @property
    def j2(self) -> float:
        return float(self.angular_momentum[2])


def _rhs(_t: float, y: np.ndarray) -> np.ndarray:
    """Right-hand side dr/dt = L x r, dp/dt = L x p - e_z/|r| + (e_z.r) r/|r|^3.

    Scalar cross products on Python floats: the solver calls this about 14
    times per step, and numpy's cross on 3-vectors spends its time on axis
    handling rather than arithmetic.
    """
    rx, ry, rz, px, py, pz = y.tolist()
    lx = ry * pz - rz * py
    ly = rz * px - rx * pz
    lz = rx * py - ry * px
    norm = math.sqrt(rx * rx + ry * ry + rz * rz)
    c = rz / norm ** 3
    return np.array([ly * rz - lz * ry, lz * rx - lx * rz, lx * ry - ly * rx,
                     ly * pz - lz * py + c * rx, lz * px - lx * pz + c * ry,
                     lx * py - ly * px - 1.0 / norm + c * rz])


def _zdot(y: np.ndarray) -> float:
    """dz/dt = (L x r)_z; it falls through zero at a maximum of z."""
    rx, ry, rz, px, py, pz = y.tolist()
    return (ry * pz - rz * py) * ry - (rz * px - rx * pz) * rx


def _project(y: np.ndarray) -> np.ndarray:
    """Back onto (r, r) = 1, (r, p) = 0: r scaled to unit length, then the
    radial part of p removed."""
    rx, ry, rz, px, py, pz = y.tolist()
    norm = math.sqrt(rx * rx + ry * ry + rz * rz)
    rx, ry, rz = rx / norm, ry / norm, rz / norm
    rp = rx * px + ry * py + rz * pz
    return np.array([rx, ry, rz, px - rp * rx, py - rp * ry, pz - rp * rz])


@dataclass
class OrbitRecord:
    """Trajectory samples, turning points and the rotation number."""

    times: np.ndarray
    states: np.ndarray                  # shape (n, 6)
    rotation_number: float | None
    turning_times: list = field(default_factory=list)
    energy_drift: float = 0.0
    j2_drift: float = 0.0
    constraint_drift: float = 0.0

    def stereographic_trace(self) -> np.ndarray:
        """Projection (x, y)/(1 + z): unstable equilibrium at the origin."""
        xyz = self.states[:, :3]
        denom = 1.0 + xyz[:, 2]
        return np.column_stack([xyz[:, 0] / denom, xyz[:, 1] / denom])


class IntegrationError(RuntimeError):
    pass


def integrate(state0: PhaseState, t_end: float, tol: float = 1e-12) -> OrbitRecord:
    """Adaptive eighth-order integration with per-step constraint projection.

    Records every accepted step, tracks the continuous azimuth, and refines
    each inclination turning point (maximum of z, the pericenter of the
    reduced motion) as the root of z' on the dense interpolant of its step,
    by `brentq` to 1e-13 max(1, t); the interpolant is built for those
    steps only.  The record keeps the turning times, whose spacing is the
    reduced period, and the rotation number: the mean azimuth advance
    between successive turning points over 2 pi, or None with fewer than
    two.  Energy, angular-momentum and constraint drift are reported; the
    tests hold them within 10 * tol * t_end.
    """
    if not 1e-13 <= tol <= 1e-6:
        raise ValueError("tol must lie in [1e-13, 1e-6]")
    y0 = _project(np.concatenate([state0.r, state0.p]))
    solver = DOP853(_rhs, 0.0, y0, t_end, rtol=tol, atol=tol)
    h0 = state0.energy
    j20 = state0.j2

    times = [0.0]
    states = [y0.copy()]
    phis = [math.atan2(y0[1], y0[0])]
    turning: list[tuple[float, float]] = []   # (time, unwrapped phi)
    prev_zdot = _zdot(y0)
    while solver.status == "running":
        msg = solver.step()
        if solver.status == "failed":
            raise IntegrationError(f"step failed: {msg}")
        t = solver.t
        y = _project(solver.y)
        phi = unwrap(phis[-1], math.atan2(y[1], y[0]))
        cur_zdot = _zdot(y)
        if prev_zdot > 0.0 and cur_zdot <= 0.0 and len(times) > 1:
            # z-maximum inside (t_prev, t]: a root of z' on the step's
            # interpolant, built before the projection below rewrites
            # solver.y and solver.f.  The interpolant starts at the projected
            # previous state, where z' > 0, and ends at the unprojected
            # state, whose z' may keep its sign; the maximum is then t
            dense = solver.dense_output()
            t_star = t if _zdot(dense(t)) > 0 else brentq(
                lambda s: _zdot(dense(s)), times[-1], t, xtol=1e-13 * max(1.0, abs(t)))
            y_star = dense(t_star)
            phi_star = unwrap(phis[-1], math.atan2(y_star[1], y_star[0]))
            turning.append((t_star, phi_star))
        solver.y[:] = y
        solver.f = solver.fun(t, solver.y)
        prev_zdot = cur_zdot
        times.append(t)
        states.append(y)
        phis.append(phi)
        if len(times) > 200000:
            raise IntegrationError("sample budget exhausted")

    arr = np.array(states)
    energies = 0.5 * np.sum(np.cross(arr[:, :3], arr[:, 3:]) ** 2, axis=1) \
        + arr[:, 2] / np.linalg.norm(arr[:, :3], axis=1) - 1.0
    j2s = np.cross(arr[:, :3], arr[:, 3:])[:, 2]
    res_r = np.abs(np.sum(arr[:, :3] ** 2, axis=1) - 1.0)
    res_rp = np.abs(np.sum(arr[:, :3] * arr[:, 3:], axis=1))

    rotation = None
    if len(turning) >= 2:
        rotation = float(np.mean(np.diff([f for _, f in turning]))) / (2 * math.pi)
    return OrbitRecord(times=np.array(times), states=arr, rotation_number=rotation,
                       turning_times=[t for t, _ in turning],
                       energy_drift=float(np.max(np.abs(energies - h0))),
                       j2_drift=float(np.max(np.abs(j2s - j20))),
                       constraint_drift=float(max(res_r.max(), res_rp.max())))


def initial_condition(em: EnergyMomentum) -> PhaseState:
    """State at the inclination turning point closest to the upper pole.

    Places the orbit at zeta1 (maximum of z) in the x-z plane with purely
    azimuthal momentum carrying the requested angular momentum.
    """
    data = cubic_roots(em)
    z = data.zeta1
    sin_theta = math.sqrt(max(0.0, 1.0 - z * z))
    if sin_theta == 0.0:
        raise DomainError("turning point at the pole; no regular orbit there")
    r = np.array([sin_theta, 0.0, z])
    p = np.array([0.0, em.j2 / sin_theta, 0.0])
    return PhaseState(r, p)


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
    """
    prev = None
    for x in grid:
        try:
            fx = f(x)
        except DomainError:
            prev = None
            continue
        if fx == 0.0:
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
    is refined by `brentq` on the elliptic-integral rotation number to full
    accuracy, and the orbit is then integrated over q reduced periods and
    checked to close to 1e-6 in phase space.  Raises DomainError when no
    angle of the grid brackets the target.
    """
    w_val = float(w_target)
    q = Fraction(w_target).denominator

    def f(s: float) -> float:
        j1 = radius * math.sin(s)
        j2 = radius * math.cos(s)
        return rotation_W_numeric(EnergyMomentum(energy_of_j(j1, j2), j2)) - w_val

    eps = 1e-3
    grid = np.linspace(-math.pi / 2 + eps, math.pi / 2 - eps, 80)
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
    y_end = record.states[-1]
    y_start = record.states[0]
    closure = float(np.linalg.norm(y_end - y_start))
    if closure > 1e-6:
        raise IntegrationError(
            f"orbit failed to close: |final - initial| = {closure:.3e}")
    return OrbitSearchResult(s=s_root, j2=j2, h=h, closure_error=closure,
                             record=record)


def orbits_at_energy(h: float, w_target: Fraction) -> list[EnergyMomentum]:
    """All j2 > 0 with the given rotation number at fixed energy: every
    bracket of `_brackets` on 400 values of j2, refined by `brentq`.

    Two solutions straddling the twistless circle exist for targets just
    below the local maximum of W along the energy line.
    """
    w_val = float(w_target)
    j2_max = math.sqrt(max(0.0, 2 * (1 + h)))  # crude upper bound for scanning

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
