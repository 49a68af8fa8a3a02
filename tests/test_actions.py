"""Action integrals, series identities, invariant fit, twist, monodromy."""

import math
import warnings
from fractions import Fraction as F

import pytest

import mpmath as mp

from pendinv import actions
from pendinv.actions import (A_series, ConsistencyError, J1_series,
                             action_I1, action_J1_numeric,
                             birkhoff_by_inversion, birkhoff_series,
                             energy_of_j, fit_invariant_S, invariant_polynomial,
                             j1_of_energy, model_error_sweep, monodromy_check,
                             period_T_fd, period_T_model, period_T_numeric,
                             rotation_expansion_check, rotation_W_fd,
                             rotation_W_model, rotation_W_numeric, twist,
                             twistless_curve, two_pi_I1_closed,
                             two_pi_I1_energy_expansion, two_pi_I1_model,
                             two_pi_I1_quadrature,
                             verify_birkhoff_equivalence, W_star, W_star_approx)
from pendinv.elliptic import EnergyMomentum
from pendinv.normalform import lie_normalize
from pendinv.series import Series

TWO_PI = 2 * math.pi


# -- imaginary-action series ---------------------------------------------------

def test_j1_series_displayed_terms():
    j1 = J1_series(4)
    assert j1.terms() == {
        (1, 0): F(1),
        (2, 0): F(-1, 16), (0, 2): F(-3, 16),
        (3, 0): F(3, 256), (1, 2): F(15, 256),
        (4, 0): F(-25, 8192), (2, 2): F(-210, 8192), (0, 4): F(-105, 8192),
    }


def test_j1_series_even_in_j2():
    assert all(b % 2 == 0 for (_, b) in J1_series(11).terms())


def test_birkhoff_inversion_identity():
    # J1(H(j1, j2), j2) = j1 exactly
    comp = J1_series(10).compose_first(birkhoff_series(10).relabel(("j1", "j2")))
    assert comp == Series.variable(0, 10, ("j1", "j2"))


@pytest.mark.parametrize("order", [4, 6, 8, 10, 12])
def test_lie_equals_inversion(order):
    # grade 12 exercises degree-6 coefficients with no reference values at
    # all: two independent derivations must coincide exactly
    assert lie_normalize(order) == birkhoff_by_inversion(order)
    verify_birkhoff_equivalence(order)


def test_birkhoff_by_inversion_low_order():
    h = birkhoff_by_inversion(4)
    assert h.terms() == {(1, 0): F(1), (2, 0): F(1, 16), (0, 2): F(3, 16)}


# -- numeric actions -------------------------------------------------------------

def test_action_critical_value():
    act = action_I1(EnergyMomentum(0.0, 0.0))
    assert act.two_pi == pytest.approx(8.0, abs=1e-13)


def test_action_forms_agree_with_quadrature():
    # the last two: within 1e-8 of the critical value, and near h = -2
    # where zeta0 and zeta1 both sit near -1
    for (h, j2) in [(0.2, 0.1), (0.3, 0.2), (-0.1, 0.05), (0.5, 0.0),
                    (-0.9, 0.1), (0.05, 0.3), (1e-9, 1e-9),
                    (-1.9999999848921983, -7.096793468803744e-09)]:
        em = EnergyMomentum(h, j2)
        quad = float(two_pi_I1_quadrature(h, j2, prec=80)[0])
        assert action_I1(em).two_pi == pytest.approx(quad, abs=1e-10)


def test_lambda0_route_where_zeta1_is_negative():
    # j2^2 > 2 (h + 1) puts zeta1 below 0, where the Lambda0 angle is
    # arcsin, not pi - arcsin
    for (h, j2) in [(-1.5, 0.3), (-1.2, 0.6), (-0.9, 0.5)]:
        quad = float(two_pi_I1_quadrature(h, j2, prec=80)[0])
        assert abs(action_I1(EnergyMomentum(h, j2)).two_pi - quad) <= 1e-12


def _on_fit_circle(r, j2):
    """(h, j2) of the fit sample at radius r and height j2, j1 < 0 and > 0."""
    h_series = birkhoff_series(14)
    j1 = math.sqrt(r * r - j2 * j2)
    return [(h_series.evaluate(mp.mpf(s * j1), mp.mpf(j2), prec=300), j2)
            for s in (1, -1)]


@pytest.mark.parametrize("prec", [128, 256])
def test_closed_form_action_matches_quadrature(prec):
    # fit circles (|j2| = 1e-3 is the closest any fit sample comes to the
    # axis), h > 0, and zeta1 < 0 where j2^2 > 2 (h + 1)
    points = (_on_fit_circle(0.08, 1e-3) + _on_fit_circle(0.32, 1e-3)
              + _on_fit_circle(0.2, 0.15)
              + [(0.5, 0.3), (2.0, 1.0), (-1.5, 0.3), (-1.2, 0.6), (-0.9, 0.5)])
    for h, j2 in points:
        quad, _ = two_pi_I1_quadrature(h, j2, prec=prec)
        closed = two_pi_I1_closed(h, j2, prec=prec)
        assert abs(closed - quad) <= mp.mpf(2) ** -prec * (1 + abs(quad))
    # on the axis, where quadrature stalls, against the float route
    for h in (-2.0, -0.5, 0.5):
        assert float(two_pi_I1_closed(h, 0.0, prec=prec)) == pytest.approx(
            action_I1(EnergyMomentum(h, 0.0)).two_pi, abs=1e-13)
    assert two_pi_I1_closed(0.0, 0.0, prec=prec) == 8


def test_action_even_in_j2():
    for (h, j2) in [(0.1, 0.2), (-0.2, 0.15)]:
        up = action_I1(EnergyMomentum(h, j2)).two_pi
        dn = action_I1(EnergyMomentum(h, -j2)).two_pi
        assert abs(up - dn) < 1e-12


def test_action_near_separatrix_stays_on_the_closed_form():
    # k'^2 < 1e-6 at these points: no fallback, no warning
    for (h, j2) in [(1e-7, 1e-7), (-1e-9, 1e-9), (1e-17, -1e-17), (0.0, 1e-200)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            act = action_I1(EnergyMomentum(h, j2))
        assert act.method == "lambda0"
        closed = float(two_pi_I1_closed(h, j2, prec=80))
        assert abs(act.two_pi - closed) <= 4e-14 * (1 + abs(closed))


def test_action_model_matches_inside_half_disk():
    # spot values of the invariant-model representation
    for (h, j2) in [(-0.1, 0.05), (0.2, 0.1)]:
        em = EnergyMomentum(h, j2)
        numeric = action_I1(em).two_pi
        j1 = j1_of_energy(h, j2)
        assert two_pi_I1_model(j1, j2) == pytest.approx(numeric, abs=1e-4)


def test_j1_contour_matches_series():
    for (h, j2) in [(0.0, 0.0), (0.1, 0.0), (0.1, 0.1), (0.05, 0.15),
                    (-0.2, 0.1)]:
        val = action_J1_numeric(EnergyMomentum(h, j2)).value
        ref = j1_of_energy(h, j2, 14)
        assert val == pytest.approx(ref, abs=1e-9)


def test_energy_expansion_pointwise():
    # displayed truncation including the rational degree-3 term; the first
    # omitted order is rho^4, calibrated with a factor-10 safety margin
    for rho in (0.05, 0.1, 0.2):
        for ang in (0.5, 1.8, 3.0, 4.6):
            h = rho * math.cos(ang)
            j2 = rho * math.sin(ang)
            numeric = action_I1(EnergyMomentum(h, j2)).two_pi
            model = two_pi_I1_energy_expansion(h, j2)
            assert abs(numeric - model) < 10 * rho ** 4


# -- frequency ratio -------------------------------------------------------------

def test_a_series_displayed_terms():
    a = A_series(9)
    assert a.coeff(0, 1) == F(3, 8)
    assert a.coeff(1, 1) == F(-15, 128)
    assert a.coeff(2, 1) == F(45, 1024)
    assert a.coeff(0, 3) == F(30, 1024)
    assert a.coeff(3, 1) == F(-1125, 65536)
    assert a.coeff(1, 3) == F(-1935, 65536)


def test_a_series_odd_in_j2_and_axis_zero():
    a = A_series(9)
    assert all(b % 2 == 1 for (_, b) in a.terms())


# -- rotation number and period ---------------------------------------------------

def test_rotation_axis_limits():
    assert rotation_W_numeric(EnergyMomentum(0.1, 0.0)) == 1.0
    assert rotation_W_numeric(EnergyMomentum(-0.1, 0.0)) == 0.5
    assert rotation_W_numeric(EnergyMomentum(0.1, 1e-7)) == pytest.approx(1.0, abs=1e-5)
    assert rotation_W_numeric(EnergyMomentum(-0.1, 1e-7)) == pytest.approx(0.5, abs=1e-5)


def test_rotation_near_the_axis_tends_to_its_limits():
    # the n- term has a pole as delta0 -> 0; taken out in closed form, the
    # limits +-1 (h > 0) and +-1/2 (h < 0) hold down to underflowing j2
    for h in (-1.5, -0.3, 0.3, 2.0):
        for k in range(9, 301):
            for j2 in (10.0 ** -k, -10.0 ** -k):
                limit = math.copysign(1.0 if h > 0 else 0.5, j2)
                w = rotation_W_numeric(EnergyMomentum(h, j2))
                assert abs(w - limit) <= 1e-5 + abs(j2)


def test_rotation_next_to_the_critical_value():
    # within 1e-8 of the critical value, against a quadrature derivative
    # (j2 +- 2^-50 is exact in floats)
    em = EnergyMomentum(-2.9e-9, -1.23e-9)
    assert rotation_W_numeric(em) == pytest.approx(
        rotation_W_fd(em, step=2.0 ** -50, prec=160), abs=1e-13)
    # the limit sgn(j2) - arg(h + i j2) / (2 pi) on both sides of the
    # switch to it at |h + i j2| = 1e-20, and at the smallest j2
    for rho in (1e-19, 1e-21):
        h, j2 = rho * math.cos(2.0), rho * math.sin(2.0)
        limit = 1 - math.atan2(j2, h) / TWO_PI
        assert rotation_W_numeric(EnergyMomentum(h, j2)) == pytest.approx(limit, abs=1e-15)
    assert rotation_W_numeric(EnergyMomentum(0.0, 5e-324)) == 0.75


def test_rotation_odd_in_j2():
    for (h, j2) in [(0.05, 0.1), (-0.2, 0.3)]:
        assert rotation_W_numeric(EnergyMomentum(h, j2)) == pytest.approx(
            -rotation_W_numeric(EnergyMomentum(h, -j2)), abs=1e-13)


def test_rotation_matches_finite_differences():
    for (h, j2) in [(0.05, 0.1), (0.1, 0.2), (-0.1, 0.15)]:
        em = EnergyMomentum(h, j2)
        assert rotation_W_numeric(em) == pytest.approx(
            rotation_W_fd(em, prec=120), abs=1e-6)


def test_period_formula_vs_fd_and_model():
    for (h, j2) in [(0.1, 0.1), (0.05, 0.2)]:
        em = EnergyMomentum(h, j2)
        t_num = period_T_numeric(em)
        assert t_num == pytest.approx(period_T_fd(em, prec=120), abs=1e-9)
        j1 = j1_of_energy(h, j2)
        assert period_T_model(j1, j2) == pytest.approx(t_num, abs=1e-4)


def test_period_leading_log():
    # T ~ ln(32/|j|) as j -> 0
    for rho in (1e-3, 1e-4):
        t = period_T_model(rho, 0.0)
        assert t == pytest.approx(math.log(32 / rho), rel=1e-3)


def test_period_next_to_the_critical_value():
    # k^2 rounds to 1 at these in-image points; the period is finite and
    # follows the ln(32/|j|) asymptote, whose error is O(|j| ln|j|)
    for h, j2 in [(1e-17, 1e-17), (0.0, 1e-200)]:
        t = period_T_numeric(EnergyMomentum(h, j2))
        rho = math.hypot(j1_of_energy(h, j2), j2)
        assert t == pytest.approx(math.log(32 / rho), rel=1e-13)
    # k'^2 underflows to 0 here, and every gap with it
    t = period_T_numeric(EnergyMomentum(0.0, 5e-324))
    assert t == pytest.approx(math.log(32) - math.log(5e-324), rel=1e-15)


def test_rotation_model_vs_numeric():
    worst = 0.0
    for (h, j2) in [(0.05, 0.1), (0.1, 0.2), (0.2, 0.3), (-0.1, 0.2),
                    (0.3, 0.1), (-0.3, 0.05)]:
        w_num = rotation_W_numeric(EnergyMomentum(h, j2))
        w_mod = rotation_W_model(j1_of_energy(h, j2), j2)
        worst = max(worst, abs(w_num - w_mod))
    assert worst < 1e-4


def test_rotation_model_axis_values():
    assert rotation_W_model(-0.1, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert rotation_W_model(0.1, 0.0) == pytest.approx(1.0, abs=1e-12)
    # just below the negative j1 axis atan2 rounds to -pi; the value is the
    # limit from below, not the axis value +1/2 shifted by one
    assert rotation_W_model(-0.3, -1e-300) == -0.5
    assert rotation_W_model(-0.3, 0.0) == 0.5


def test_rotation_expansion_report():
    rep = rotation_expansion_check()
    assert rep.ln_coefficient_ok and rep.a_series_ok
    assert rep.worst_numeric < 1e-5


# -- invariant fit ---------------------------------------------------------------

def test_invariant_polynomial_table():
    poly = invariant_polynomial(4)
    assert poly.coeff(2, 0) == F(3, 32)
    assert poly.coeff(0, 2) == F(9, 32)
    assert poly.coeff(3, 0) == F(-5, 512)
    assert poly.coeff(1, 2) == F(-51, 512)
    assert poly.coeff(4, 0) == F(55, 32768)
    assert poly.coeff(2, 2) == F(1230, 32768)
    assert poly.coeff(0, 4) == F(271, 32768)
    assert all(b % 2 == 0 for (_, b) in poly.terms())


REDUCED_FIT = dict(order=8, precision=128, samples=80,
                   radii=(0.08, 0.14, 0.2, 0.26), h_degree=12, max_level=11)


@pytest.mark.slow
def test_fit_invariant_reduced(monkeypatch):
    quadratures = []

    def counted(*args, **kwargs):
        quadratures.append(args)
        return two_pi_I1_quadrature(*args, **kwargs)

    monkeypatch.setattr(actions, "two_pi_I1_quadrature", counted)
    res = fit_invariant_S(**REDUCED_FIT)
    assert res.residual_max < 1e-9
    assert res.ln32_error < 1e-8
    for err in res.reference_errors.values():
        assert err < 1e-6
    # the closed form is the production route; quadrature checks exactly
    # one sample per circle, and the largest difference is reported
    assert len(quadratures) == res.oracle_samples == 4
    assert res.oracle_max_diff <= 2.0 ** (10 - 128) * 11


def test_fit_raises_when_the_closed_form_disagrees_with_quadrature(monkeypatch):
    def perturbed(h, j2, prec):
        return two_pi_I1_closed(h, j2, prec) + mp.mpf("1e-30")

    monkeypatch.setattr(actions, "two_pi_I1_closed", perturbed)
    with pytest.raises(ConsistencyError):
        fit_invariant_S(**REDUCED_FIT)


@pytest.mark.slow
def test_fit_stability_under_sample_doubling():
    a = fit_invariant_S(**REDUCED_FIT)
    b = fit_invariant_S(**{**REDUCED_FIT, "samples": 160})
    for mono in [(1, 0), (2, 0), (0, 2), (3, 0), (1, 2), (4, 0), (2, 2), (0, 4)]:
        assert abs(a.coefficients[mono] - b.coefficients[mono]) < 1e-9


def test_fit_rank_guard():
    with pytest.raises(ValueError):
        fit_invariant_S(order=8, radii=(0.1, 0.3))


# -- twist -----------------------------------------------------------------------

def test_twist_sign_change_and_curve():
    for r in (0.05, 0.1, 0.3, 0.75):
        s = twistless_curve(r)
        assert -math.pi / 2 < s < math.pi / 2
        assert abs(twist(r * math.sin(s), r * math.cos(s))) < 1e-10


def test_twistless_angle_vanishes_with_radius():
    s_values = [twistless_curve(r) for r in (0.02, 0.05, 0.1)]
    assert all(s > 0 for s in s_values)
    assert s_values[0] < s_values[1] < s_values[2] < 0.12


def test_w_star_approximation():
    assert W_star(0.1) == pytest.approx(W_star_approx(0.1), rel=0.05)


def test_rotation_range_for_positive_j1():
    for r in (0.05, 0.2, 0.5, 0.75):
        for i in range(1, 8):
            s = math.pi / 2 * i / 8
            j1 = r * math.sin(s)
            j2 = r * math.cos(s)
            w = rotation_W_numeric(EnergyMomentum(energy_of_j(j1, j2), j2))
            assert 0.75 < w <= 1.0 + 1e-12


# -- monodromy --------------------------------------------------------------------

def test_monodromy_unit_winding():
    res = monodromy_check(0.3, 720)
    assert abs(res.mu) == 1
    assert res.raw == pytest.approx(res.mu, abs=1e-3)


def test_monodromy_orientation_and_step_doubling():
    base = monodromy_check(0.3, 720)
    rev = monodromy_check(0.3, 720, orientation=-1)
    dbl = monodromy_check(0.3, 1440)
    assert rev.mu == -base.mu
    assert dbl.mu == base.mu


# -- model error sweep -------------------------------------------------------------

def test_model_error_reproduces_reference_bound():
    # displayed-order model vs elliptic action, in units of the action
    # itself: 1.04e-4 inside radius 1/2 and 3.34e-3 inside radius 1
    err_half = model_error_sweep(0.5, n_radii=5, n_angles=40)
    err_one = model_error_sweep(1.0, n_radii=5, n_angles=40)
    assert err_half / TWO_PI < 1.1e-4
    assert err_one / TWO_PI < 3.4e-3
    # and the error is genuinely above the literal 2-pi-scaled reading
    assert err_half > 1.0e-4


def test_model_error_exact_coordinate_matches_high_order_series():
    # contour coordinate vs degree-14 J1 series: two independent routes to
    # j1, both 3.354e-5 in units of the action inside radius 1/2
    exact = model_error_sweep(0.5, n_radii=5, n_angles=40, j1_order=None)
    series = model_error_sweep(0.5, n_radii=5, n_angles=40, j1_order=14)
    assert abs(exact - series) < 1e-7


# -- complex coordinate -------------------------------------------------------

def test_complex_j_principal_branch():
    from pendinv.actions import ComplexJ

    jc = ComplexJ(-0.1, 0.0)
    assert jc.arg == pytest.approx(math.pi)       # boundary maps to +pi
    assert ComplexJ(0.1, 0.0).arg == 0.0
    assert -math.pi < ComplexJ(-0.1, -1e-12).arg <= math.pi
    assert ComplexJ(3.0, 4.0).modulus == pytest.approx(5.0)
    assert ComplexJ(1.0, 2.0).value == 1.0 + 2.0j
