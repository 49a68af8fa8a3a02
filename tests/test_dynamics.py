"""Orbit integration against the elliptic-integral predictions."""

import hashlib
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from pendinv import actions, dynamics
from pendinv.actions import brentq, period_T_numeric, rotation_W_numeric
from pendinv.dynamics import (_conserved, _project, _rhs, _zdot,
                              geometry_report, initial_condition, integrate,
                              orbits_at_energy, periodic_orbit_search,
                              rotation_number_measured)
from pendinv.elliptic import DomainError, EnergyMomentum, _discriminant


def field(r, p):
    """(dr/dt, dp/dt) from the integrator's right-hand side."""
    y = np.asarray(_rhs(0.0, np.concatenate([r, p])))
    return y[:3], y[3:]


# numpy forms of the scalar kernels, kept as their oracle


def rhs_vector(y):
    r, p = y[:3], y[3:]
    ll = np.cross(r, p)
    norm = math.sqrt(float(r @ r))
    dp = np.cross(ll, p)
    dp[2] -= 1.0 / norm
    dp += (r[2] / norm ** 3) * r
    return np.concatenate([np.cross(ll, r), dp])


def project_vector(y):
    r = y[:3] / math.sqrt(float(y[:3] @ y[:3]))
    return np.concatenate([r, y[3:] - float(r @ y[3:]) * r])


def zdot_vector(y):
    r, p = y[:3], y[3:]
    return float(np.cross(np.cross(r, p), r)[2])


def conserved_vector(y):
    r, p = y[:3], y[3:]
    ll = np.cross(r, p)
    return (0.5 * float(ll @ ll) + r[2] / np.linalg.norm(r) - 1.0, ll[2],
            abs(float(r @ r) - 1.0), abs(float(r @ p)))


def near_constraint_states(n=100, seed=3):
    """Seeded states with |p| from 1e-3 to 1e3, moved off the constraint
    set by a relative 1e-9, as an integration step leaves them."""
    rng = np.random.default_rng(seed)
    for size in np.logspace(-3, 3, n):
        r = rng.normal(size=3)
        r /= np.linalg.norm(r)
        p = rng.normal(size=3)
        p -= (r @ p) * r
        y = np.concatenate([r, p * (size / np.linalg.norm(p))])
        yield y * (1 + 1e-9 * rng.normal(size=6))


def test_scalar_kernels_match_the_vector_forms():
    for y in near_constraint_states():
        for new, old in ((_rhs(0.0, y), rhs_vector(y)),
                         (_project(y), project_vector(y))):
            assert np.linalg.norm(new - old) <= 1e-15 * np.linalg.norm(old)
        assert abs(_zdot(y) - zdot_vector(y)) <= 1e-15 * abs(zdot_vector(y))


def test_conserved_matches_the_vector_forms():
    # a few ulps of each value's terms: |L|^2 / 2 + 1 for the energy, |r| |p|
    # for j2 and (r, p), 1 for (r, r) - 1
    ulp = np.finfo(float).eps
    for y in near_constraint_states():
        rp = np.linalg.norm(y[:3]) * np.linalg.norm(y[3:])
        for new, old, scale in zip(_conserved(y), conserved_vector(y),
                                   (rp * rp / 2 + 1, rp, 1.0, rp)):
            assert abs(new - old) <= 4 * ulp * scale


def test_projection_lands_on_the_constraint_set():
    # residuals of the stored floats, in exact arithmetic; u = 2^-53
    u = F(1, 2 ** 53)
    for y in near_constraint_states():
        out = [F(v) for v in _project(y)]
        r, p = out[:3], out[3:]
        assert abs(sum(a * a for a in r) - 1) <= 6 * u
        assert abs(sum(a * b for a, b in zip(r, p))) \
            <= 4 * u * F(np.linalg.norm(y[3:]))


def test_vector_field_equilibria():
    for r in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0]):
        dr, dp = field(np.array(r), np.zeros(3))
        assert np.allclose(dr, 0) and np.allclose(dp, 0)


def test_energy_conserved_along_field():
    rng = np.random.default_rng(0)
    for _ in range(8):
        r = rng.normal(size=3)
        r /= np.linalg.norm(r)
        p = rng.normal(size=3)
        p -= (r @ p) * r
        dr, dp = field(r, p)
        eps = 1e-6
        plus = _conserved(np.concatenate([r + eps * dr, p + eps * dp]))[0]
        minus = _conserved(np.concatenate([r - eps * dr, p - eps * dp]))[0]
        assert abs(plus - minus) / (2 * eps) < 1e-9


def test_constraints_conserved_along_field():
    rng = np.random.default_rng(1)
    for _ in range(8):
        r = rng.normal(size=3)
        r /= np.linalg.norm(r)
        p = rng.normal(size=3)
        p -= (r @ p) * r
        dr, dp = field(r, p)
        assert abs(2 * r @ dr) < 1e-14          # d(r.r)/dt
        assert abs(dr @ p + r @ dp) < 1e-14     # d(r.p)/dt


def test_small_oscillation_period():
    amp = 0.02
    state = (math.sin(amp), 0.0, -math.cos(amp), 0.0, 0.0, 0.0)
    rec = integrate(state, 20.0, tol=1e-12)
    # z-maxima repeat every half oscillation; the full period carries the
    # classical amplitude correction 2 pi (1 + amp^2/16 + ...)
    assert len(rec.turning_times) >= 3
    period = 2 * float(np.mean(np.diff(rec.turning_times)))
    assert period == pytest.approx(2 * math.pi * (1 + amp ** 2 / 16), rel=1e-6)


def test_drift_bounds_hundred_periods():
    em = EnergyMomentum(0.1, 0.15)
    state = initial_condition(em)
    t_end = 100 * period_T_numeric(em)
    tol = 1e-11
    rec = integrate(state, t_end, tol=tol)
    assert rec.energy_drift <= 10 * tol * t_end
    assert rec.j2_drift <= 10 * tol * t_end
    assert rec.constraint_drift <= 10 * tol * t_end


def test_time_reversal():
    em = EnergyMomentum(0.05, 0.2)
    state = initial_condition(em)
    t_end = 7.0
    tol = 1e-11
    fwd = integrate(state, t_end, tol=tol)
    y_end = np.asarray(fwd.states[-1])
    back = integrate(np.concatenate([y_end[:3], -y_end[3:]]), t_end, tol=tol)
    y_back = np.asarray(back.states[-1])
    recovered = np.concatenate([y_back[:3], -y_back[3:]])
    assert np.linalg.norm(recovered - fwd.states[0]) < 1e-7


def test_drift_is_measured_from_the_projected_start():
    # r scaled by 1.1: the first projection's jump in energy and j2 is no
    # drift of the integration
    state = initial_condition(EnergyMomentum(0.1, 0.1))
    t_end, tol = 10.0, 1e-10
    rec = integrate([1.1 * v for v in state[:3]] + list(state[3:]), t_end, tol=tol)
    assert rec.energy_drift <= 10 * tol * t_end
    assert rec.j2_drift <= 10 * tol * t_end
    assert rec.constraint_drift <= 10 * tol * t_end


def test_any_sequence_of_six_numbers_starts_the_same_orbit():
    # `orbit --trace` writes each state value by repr: numpy scalars must not
    # reach the record
    state = initial_condition(EnergyMomentum(0.1, 0.1))
    records = [integrate(y0, 5.0, tol=1e-10)
               for y0 in (np.array(state), list(state), tuple(state))]
    for rec in records:
        assert all(type(v) is float for y in rec.states for v in y)
        assert all(type(t) is float for t in rec.times)
    assert records[0] == records[1] == records[2]


def test_tolerance_validation():
    state = initial_condition(EnergyMomentum(0.1, 0.1))
    with pytest.raises(ValueError):
        integrate(state, 1.0, tol=1e-3)


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -1.0, 0.0])
def test_end_time_validation(t_end):
    state = initial_condition(EnergyMomentum(0.1, 0.1))
    with pytest.raises(ValueError, match="t_end"):
        integrate(state, t_end)


def test_non_finite_state_is_refused():
    with pytest.raises(ValueError, match="finite"):
        integrate((0.6, 0.0, math.nan, 0.0, 0.1, 0.0), 1.0)


@pytest.mark.parametrize("r", [[0.0, 0.0, 0.0], [1e-200, 0.0, 0.0], [1e200, 0.0, 0.0],
                               [math.inf, 0.0, 0.0]])
def test_state_that_cannot_be_projected_is_refused(r):
    # |r| = 0 divided by zero in the first projection; a square that
    # underflows or overflows gives the same 0 or inf there
    with pytest.raises(ValueError, match=r"\(r, r\) = 1"):
        integrate(r + [0.0, 0.1, 0.0], 1.0)


class ScipyDOP853(scipy.integrate.DOP853):
    """scipy's solver, the oracle: `integrate` assigns y and f as tuples."""

    def __setattr__(self, name, value):
        if name in ("y", "f"):
            value = np.asarray(value, dtype=float)
        super().__setattr__(name, value)


def _dense(rows, width):
    """The rows of nonzero (index, coefficient) pairs as a full array."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        indices = [j for j, _ in row]
        assert indices == sorted(set(indices)) and all(c != 0 for _, c in row)
        for j, c in row:
            out[i, j] = c
    return out


def test_tableau_literal_is_scipys():
    tableau = scipy.integrate.DOP853
    pairs = [
        (np.vstack([np.zeros((1, 12)), _dense(dynamics._A, 12)]), tableau.A),
        ([0.0, *dynamics._C], tableau.C),
        (_dense([dynamics._B], 12)[0], tableau.B),
        (_dense([dynamics._E3], 13)[0], tableau.E3),
        (_dense([dynamics._E5], 13)[0], tableau.E5),
        (_dense(dynamics._D, 16), tableau.D),
        (_dense(dynamics._A_EXTRA, 16), tableau.A_EXTRA),
        (dynamics._C_EXTRA, tableau.C_EXTRA)]
    for ours, theirs in pairs:
        assert np.array_equal(ours, theirs)


def test_stepper_matches_scipy_dop853(monkeypatch):
    state = initial_condition(EnergyMomentum(0.1, 0.1))
    y0 = _project(state)
    for tol in (1e-8, 1e-10, 1e-12):
        ours = dynamics.DOP853(_rhs, 0.0, y0, 40.0, rtol=tol, atol=tol)
        oracle = ScipyDOP853(_rhs, 0.0, y0, 40.0, rtol=tol, atol=tol)
        ours.step()
        oracle.step()
        assert ours.t == oracle.t
        # only the summation order differs: a few ulps
        assert all(abs(a - b) <= 16 * np.spacing(abs(b))
                   for a, b in zip(ours.y, oracle.y))
        t_mid = 0.5 * (ours.t_old + ours.t)
        mid = np.asarray(ours.dense_output()(t_mid))
        assert np.max(np.abs(mid - oracle.dense_output()(t_mid))) <= 1e-14

    runs = []
    for solver in (dynamics.DOP853, ScipyDOP853):
        monkeypatch.setattr(dynamics, "DOP853", solver)
        runs.append(periodic_orbit_search(F(3, 4), 0.75, tol=1e-10).record)
    ours, oracle = runs
    assert len(ours.times) == len(oracle.times)
    assert len(ours.turning_times) == len(oracle.turning_times) >= 2
    assert np.max(np.abs(np.subtract(ours.turning_times, oracle.turning_times))) <= 1e-12
    assert abs(ours.rotation_number - oracle.rotation_number) <= 1e-13


def _combine(stages, row):
    """sum_j a_j k_j by an accumulating loop from 0.0: the reference the
    generated straight-line row sums match bit for bit."""
    sums = [0.0] * 6
    for j, a in row:
        for i, k in enumerate(stages[j]):
            sums[i] += a * k
    return sums


def test_generated_row_sums_match_the_accumulating_loop():
    rng = random.Random(5)

    def vector():
        return tuple(rng.choice([-0.0, 0.0, rng.uniform(-9.0, 9.0) * 10.0 ** rng.randint(-6, 6)])
                     for _ in range(6))

    def same(a, b):
        return repr(tuple(a)) == repr(tuple(b))

    attempt, dense = dynamics._straight_line()
    # first case: every first product is -0.0, which the leading 0.0 turns
    # into +0.0, so y0 + (0.0 + a k) h differs in sign from y0 + a k h
    cases = [((-0.0,) * 6, (-0.0,) * 6)] + [(vector(), vector()) for _ in range(30)]
    for y, f0 in cases:
        t, h, tol = rng.uniform(0.0, 10.0), rng.uniform(1e-3, 1.0), 10.0 ** rng.randint(-13, -6)
        calls = []

        def fun(s, x):
            calls.append((s, x, vector()))
            return calls[-1][2]

        stages, y_new, e5, e3 = attempt(fun, t, h, y, f0, tol, tol)
        ref = [f0]
        for row, c, (s, x, k) in zip(dynamics._A, dynamics._C, calls, strict=True):
            assert s == t + c * h
            assert same(x, [v + d * h for v, d in zip(y, _combine(ref, row))])
            ref.append(k)
        assert stages == ref
        assert same(y_new, [v + h * d for v, d in zip(y, _combine(ref, dynamics._B))])
        scale = [tol + max(abs(a), abs(b)) * tol for a, b in zip(y, y_new)]
        for ours, row in ((e5, dynamics._E5), (e3, dynamics._E3)):
            assert same([ours], [math.fsum((e / s) ** 2
                                           for e, s in zip(_combine(ref, row), scale))])
        stages.append(vector())
        calls.clear()
        rows = dense(fun, t, h, y, stages)
        for row, c, (s, x, k) in zip(dynamics._A_EXTRA, dynamics._C_EXTRA, calls, strict=True):
            assert s == t + c * h
            assert same(x, [v + d * h for v, d in zip(y, _combine(stages, row))])
            stages.append(k)
        for ours, row in zip(rows, dynamics._D, strict=True):
            assert same(ours, [h * v for v in _combine(stages, row)])


def test_orbit_search_is_pinned_bitwise(monkeypatch):
    # the record of the 3/4 orbit at tol 1e-10, and its right-hand-side
    # evaluations: 1477 while each step also evaluated f at its unprojected
    # end, 1368 since only turning-point steps do (107 steps, 6 rejected
    # tries, 4 turning points)
    calls = []

    def counted(t, y):
        calls.append(t)
        return _rhs(t, y)

    monkeypatch.setattr(dynamics, "_rhs", counted)
    rec = periodic_orbit_search(F(3, 4), 0.75, tol=1e-10).record
    pinned = repr((rec.times, rec.states, rec.turning_times, rec.rotation_number,
                   rec.energy_drift, rec.j2_drift, rec.constraint_drift))
    assert hashlib.sha256(pinned.encode()).hexdigest() == (
        "dcaaf48404f4fa6917ddb08f8ce043ea412cea1103f522270c21815f202d145b")
    assert len(rec.times) == 108 and len(rec.turning_times) == 4
    assert len(calls) == 1368


def test_rotation_number_matches_elliptic():
    for (h, j2) in [(0.1, 0.1), (0.05, 0.3), (-0.2, 0.25)]:
        em = EnergyMomentum(h, j2)
        w_meas, rec = rotation_number_measured(em, n_periods=2, tol=1e-12)
        assert w_meas == pytest.approx(rotation_W_numeric(em), abs=1e-6)
        t_meas = float(np.mean(np.diff(rec.turning_times)))
        assert t_meas == pytest.approx(period_T_numeric(em), abs=1e-6)


def test_reduced_period_at_reference_point():
    em = EnergyMomentum(0.1, 0.1)
    _, rec = rotation_number_measured(em, n_periods=3, tol=1e-12)
    t_meas = float(np.mean(np.diff(rec.turning_times)))
    assert abs(t_meas - period_T_numeric(em)) < 1e-6


def test_periodic_orbit_three_quarters(monkeypatch):
    built = []

    class Spy(dynamics.DOP853):
        def dense_output(self):
            built.append(self.t)
            return super().dense_output()

    monkeypatch.setattr(dynamics, "DOP853", Spy)
    res = periodic_orbit_search(F(3, 4), 0.75, tol=1e-12)
    assert res.closure_error < 1e-6
    # measured winding over q periods closes to the target
    assert res.record.rotation_number == pytest.approx(0.75, abs=1e-7)
    # a step's interpolant is built only to refine a turning point in it
    assert len(built) == len(res.record.turning_times) >= 2


def test_turning_points_use_the_interpolant_of_the_unprojected_step(monkeypatch):
    # reference: each step's interpolant built as soon as the step is taken,
    # before the projection rewrites the solver state
    class Eager(dynamics.DOP853):
        def step(self):
            message = super().step()
            self.eager = super().dense_output()
            return message

        def dense_output(self):
            return self.eager

    # at a loose tolerance the projection moves the state enough to change
    # an interpolant built after it
    state = initial_condition(EnergyMomentum(0.1, 0.1))
    lazy = integrate(state, 40.0, tol=1e-8)
    monkeypatch.setattr(dynamics, "DOP853", Eager)
    eager = integrate(state, 40.0, tol=1e-8)
    assert len(lazy.turning_times) >= 2
    assert lazy.turning_times == eager.turning_times
    assert lazy.rotation_number == eager.rotation_number


def test_rotation_target_limits_small_radius():
    # the angle solving W = 3/4 tends to zero with the circle radius
    s_small = periodic_orbit_search(F(3, 4), 0.05, tol=1e-11).s
    s_large = periodic_orbit_search(F(3, 4), 0.5, tol=1e-11).s
    assert abs(s_small) < 0.12
    assert abs(s_small) < abs(s_large)


def test_unattainable_target_raises():
    with pytest.raises(DomainError):
        periodic_orbit_search(F(1, 3), 0.3)


@pytest.mark.parametrize("radius", [math.nan, -0.5, 0.0, 1.1, math.inf])
def test_radius_outside_the_unit_disk_raises(radius):
    # the energy comes from the normal form, refused beyond |j| = 1
    with pytest.raises(DomainError, match=r"^radius must lie in \(0, 1\]$"):
        periodic_orbit_search(F(3, 4), radius)


# -- root brackets on a grid ---------------------------------------------------

def test_brackets_at_sign_changes():
    grid = [-2.0, -1.0, 1.0, 2.0]
    assert list(dynamics._brackets(lambda x: x * x - 2.0, grid)) == [(-2.0, -1.0),
                                                                   (1.0, 2.0)]


def test_brackets_an_exact_zero_by_itself():
    # neither pair next to the zero changes sign strictly
    assert list(dynamics._brackets(lambda x: x - 1.0, [0.0, 1.0, 2.0])) == [(1.0, 1.0)]


def test_brackets_never_span_a_refused_point():
    def f(x):
        if x == 1.0:
            raise DomainError("outside the image")
        return (x - 1.0) * (x - 2.5)

    # f changes sign between 0 and 2 only across the refused point
    assert list(dynamics._brackets(f, [0.0, 1.0, 2.0, 3.0])) == [(2.0, 3.0)]


def test_search_grid_is_numpys_linspace(monkeypatch):
    grids, brackets = [], dynamics._brackets

    def spy(f, grid):
        grids.append(grid)
        return brackets(f, grid)

    monkeypatch.setattr(dynamics, "_brackets", spy)
    monkeypatch.setattr(dynamics, "rotation_W_numeric", lambda em: 0.5)
    with pytest.raises(DomainError):
        periodic_orbit_search(F(3, 4), 0.5)
    assert grids == [list(np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, 80))]


def test_search_without_a_bracket_raises(monkeypatch):
    monkeypatch.setattr(dynamics, "rotation_W_numeric", lambda em: 0.5)
    with pytest.raises(DomainError,
                       match=r"^rotation number 3/4 not attained on the circle r = 0\.5$"):
        periodic_orbit_search(F(3, 4), 0.5)


def test_two_orbits_same_rotation_number():
    pair = orbits_at_energy(0.05, F(5, 6))
    assert len(pair) == 2
    assert pair[0].j2 < pair[1].j2
    for em in pair:
        w_meas, _ = rotation_number_measured(em, n_periods=4, tol=1e-12)
        assert w_meas == pytest.approx(5 / 6, abs=1e-6)


@pytest.mark.parametrize("h, target, j2s", [(0.3, F(514, 575), [0.5597, 1.66]),
                                            (-1.5, F(111, 196), [0.3])])
def test_orbits_at_energy_scans_to_the_edge_of_the_image(h, target, j2s):
    # the scan reaches jmax(h), 1.7066 at h = 0.3 and 0.4689 at h = -1.5;
    # sqrt(2 (h + 1)) stops at 1.6125 and 0
    found = orbits_at_energy(h, target)
    assert [em.j2 for em in found] == pytest.approx(j2s, abs=1e-4)
    for em in found:
        assert abs(rotation_W_numeric(em) - float(target)) <= 1e-12


def _inside(h: float, j2: float) -> bool:
    """Whether (h, j2) lies in the momentum-map image, decided exactly."""
    try:
        _discriminant(h, j2)
    except DomainError:
        return False
    return True


@pytest.mark.parametrize("h", [-2.0, math.nextafter(-2.0, 0.0), -1.5, 0.05, 0.3,
                               1e6, 1e103, 1e300, 1.7e308])
def test_j2_max_is_the_largest_float_in_the_image(h):
    # the image at energy h is the interval |j2| <= jmax(h)
    j2_max = dynamics._j2_max(h)
    assert _inside(h, j2_max) and not _inside(h, math.nextafter(j2_max, math.inf))


@pytest.mark.parametrize("h", [1e103, 1e150, 1e160, 1e300])
def test_orbits_at_energy_scans_to_the_edge_at_large_energy(h):
    # unscaled, 216 (root - b) overflowed from h ~ 2.4e101: jmax read 0 at
    # 1e103 and 1e150 (400 copies of j2 = 0 came back) and NaN at 1e160
    # and 1e300
    lo, hi = math.sqrt(h), 2 * math.sqrt(h)          # jmax ~ sqrt(2 h)
    assert _inside(h, lo) and not _inside(h, hi)
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _inside(h, mid) else (lo, mid)
    j2_max = dynamics._j2_max(h)
    assert math.isfinite(j2_max) and abs(j2_max - lo) <= 2 * math.ulp(lo)
    # the float W is exactly 1 along the energy line there, so each grid
    # point came back as a solution
    with pytest.raises(DomainError, match="equals the target along a stretch"):
        orbits_at_energy(h, F(1))


@pytest.mark.parametrize("h", [math.nan, math.inf, -3.0])
def test_orbits_at_energy_refuses_energies_off_the_image(h):
    with pytest.raises(DomainError, match="not a finite energy of at least -2"):
        orbits_at_energy(h, F(5, 6))


# -- brentq against scipy's ----------------------------------------------------

def _evaluations(solver, f, a, b, **kwargs):
    """The root, or the error, and every x at which the solver evaluated f."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)
    try:
        return solver(g, a, b, **kwargs), xs
    except (ValueError, RuntimeError) as exc:
        return (type(exc), str(exc)), xs


def test_brentq_matches_scipy_on_seeded_brackets(monkeypatch):
    # each shape changes sign at x0; the staircase has plateaus of equal |f|
    shapes = [lambda x, x0: x ** 3 - x0 ** 3, lambda x, x0: math.exp(x) - math.exp(x0),
              lambda x, x0: math.atan(x - x0), lambda x, x0: (x - x0) ** 5 + x - x0,
              lambda x, x0: math.floor(8 * x) - math.floor(8 * x0) + 0.5]
    rng = random.Random(7)
    outcomes = set()
    for _ in range(400):
        shape, x0, sign = rng.choice(shapes), rng.uniform(-2.0, 2.0), rng.choice([-1, 1])
        a, b = x0 - rng.uniform(0.0, 3.0), x0 + rng.uniform(0.0, 3.0)
        if rng.random() < 0.5:
            a, b = b, a
        xtol, rtol, maxiter = rng.choice([
            (2e-12, actions.BRENTQ_RTOL, 100), (1e-14, actions.BRENTQ_RTOL, 100),
            (0.1, actions.BRENTQ_RTOL, 100), (2e-12, 1e-10, 100),
            (1e-13, actions.BRENTQ_RTOL, 6)])
        monkeypatch.setattr(actions, "BRENTQ_RTOL", rtol)
        monkeypatch.setattr(actions, "BRENTQ_MAXITER", maxiter)

        def f(x, shape=shape, x0=x0, sign=sign):
            return sign * shape(x, x0)
        ours = _evaluations(brentq, f, a, b, xtol=xtol)
        assert ours == _evaluations(scipy.optimize.brentq, f, a, b,
                                    xtol=xtol, rtol=rtol, maxiter=maxiter)
        outcomes.add(type(ours[0]))
    assert outcomes == {float, tuple}      # roots, and runs out of iterations


def test_brentq_matches_scipy_at_every_call_site(monkeypatch):
    calls = []

    def spy(f, a, b, **kwargs):
        calls.append((f, a, b, kwargs))
        return brentq(f, a, b, **kwargs)

    monkeypatch.setattr(actions, "brentq", spy)
    monkeypatch.setattr(dynamics, "brentq", spy)
    rng = random.Random(11)
    for r in [rng.uniform(0.01, 1.0) for _ in range(4)]:
        actions.twistless_curve(r)
    n_twist = len(calls)
    periodic_orbit_search(F(3, 4), 0.75, tol=1e-10)    # the angle, then turning points
    n_search = len(calls)
    orbits_at_energy(0.05, F(5, 6))
    assert n_twist == 4 and n_search - n_twist >= 3 and len(calls) - n_search == 2
    for f, a, b, kwargs in calls:
        ours = _evaluations(brentq, f, a, b, **kwargs)
        assert ours == _evaluations(scipy.optimize.brentq, f, a, b, **kwargs,
                                    rtol=actions.BRENTQ_RTOL,
                                    maxiter=actions.BRENTQ_MAXITER)


def test_brentq_errors_are_scipys(monkeypatch):
    with pytest.raises(ValueError, match=r"^f\(a\) and f\(b\) must have different signs$"):
        brentq(lambda x: x * x + 1.0, 0.0, 1.0, xtol=2e-12)
    with pytest.raises(ValueError, match="is NaN"):
        brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, xtol=2e-12)
    monkeypatch.setattr(actions, "BRENTQ_MAXITER", 2)
    with pytest.raises(RuntimeError, match="^Failed to converge after 2 iterations.$"):
        brentq(lambda x: math.exp(x) - 1.5, -3.0, 10.0, xtol=2e-12)


def test_stereographic_trace_window():
    res = periodic_orbit_search(F(3, 4), 0.75, tol=1e-11)
    uv = res.record.stereographic_trace()
    assert np.shape(uv)[1] == 2
    assert np.max(np.abs(uv)) < 8.0   # the standard display window


def test_geometry_report_polar_axis():
    rep = geometry_report(0.75, 0.0)
    assert rep.excluded_radius == pytest.approx(rep.excluded_radius_asymptotic,
                                                rel=0.2)
    assert rep.outer_size == pytest.approx(rep.outer_size_asymptotic, rel=0.2)


def test_geometry_report_pole_access():
    # s -> +pi/2: both pole distances vanish (j2 -> 0 with h > 0)
    rep = geometry_report(0.3, math.pi / 2 - 1e-4)
    assert rep.theta_min < 0.01
    assert math.pi - rep.theta_max < 0.05
    # s -> -pi/2: the upper pole stays excluded
    rep2 = geometry_report(0.3, -math.pi / 2 + 1e-4)
    assert rep2.theta_min > 0.5


def test_geometry_report_pole_distance_asymptotics():
    # the leading polar formulas carry a relative error of order r: within
    # 0.3 % at r = 0.01, and about three times smaller than at r = 0.03
    def gaps(r, s):
        rep = geometry_report(r, s)
        return (abs(rep.theta_min / rep.north_asymptotic - 1),
                abs((math.pi - rep.theta_max) / (math.pi - rep.south_asymptotic) - 1))

    for s in (-1.0, 0.0, 0.7, 1.3):
        small, large = gaps(0.01, s), gaps(0.03, s)
        for g_small, g_large in zip(small, large):
            assert g_small < 3e-3
            assert g_small < g_large / 2.5
