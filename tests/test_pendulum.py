"""Planar pendulum: branch formulas, exact invariants, nome, theta."""

import math
from fractions import Fraction as F

import mpmath as mp
import pytest

from pendinv.elliptic import DomainError
from pendinv.pendulum import (AXIS_INVARIANT_FRACTIONS, J_of_q_theta,
                              action_log_series, complex_nome_diagonal_matches,
                              complex_nome_series, invariant_series_exact,
                              nome_from_invariant, pendulum_normal_form,
                              pendulum_quadruple, pendulum_series_check,
                              theta_inverse_matches_nome)
from pendinv.series import Series

mp.mp.dps = 30


# -- branch formulas ---------------------------------------------------------

def test_quadruple_value_h2():
    quad = pendulum_quadruple(2.0)
    # k^2 = 1/2 there; I+ = (4 sqrt(2)/pi) E(1/2)
    assert quad.action == pytest.approx(
        4 * math.sqrt(2) / math.pi * float(mp.ellipe(0.5)), rel=1e-14)


# next to the critical energy, on both branches
NEAR_SEPARATRIX = [s * 10.0 ** -k for k in range(1, 301) for s in (1, -1)]


def test_legendre_relation_log_grid():
    values = [-1.9 + 6.9 * i / 49 for i in range(50)] + NEAR_SEPARATRIX
    for h in values:
        if abs(h) < 1e-9:
            continue
        quad = pendulum_quadruple(h)
        assert abs(quad.legendre_combination() - 8.0) < 1e-12


def _quadruple_mp(h):
    """(I, J, T, U) from mpmath at 1200 bits, with k^2 itself as the parameter."""
    with mp.workprec(1200):
        h = mp.mpf(h)
        if h > 0:
            ksq, kcsq = 2 / (2 + h), h / (2 + h)
            k = mp.sqrt(ksq)
            return (4 / (mp.pi * k) * mp.ellipe(ksq),
                    8 / (mp.pi * k) * (mp.ellipk(kcsq) - mp.ellipe(kcsq)),
                    2 * k * mp.ellipk(ksq), 4 * k * mp.ellipk(kcsq))
        ksq, kcsq = (2 + h) / 2, -h / 2
        return (4 / mp.pi * (mp.ellipe(ksq) - kcsq * mp.ellipk(ksq)),
                8 / mp.pi * (ksq * mp.ellipk(kcsq) - mp.ellipe(kcsq)),
                2 * mp.ellipk(ksq), 4 * mp.ellipk(kcsq))


def test_quadruple_next_to_the_separatrix():
    for h in NEAR_SEPARATRIX:
        quad = pendulum_quadruple(h)
        action, imag_action, period, imag_period = map(float, _quadruple_mp(h))
        assert abs(quad.action - action) <= 1e-14, h
        assert abs(quad.imaginary_action - imag_action) <= 1e-14, h
        assert quad.period == pytest.approx(period, rel=1e-15), h
        assert quad.imaginary_period == pytest.approx(imag_period, rel=1e-15), h


def test_appell_duality():
    for h in (-0.5, -1.2, -1.9, -0.05):
        left = pendulum_quadruple(h).imaginary_action
        right = -2 * pendulum_quadruple(-2 - h).action
        assert left == pytest.approx(right, abs=1e-12)


def test_branch_continuity():
    eps = 1e-6
    above = pendulum_quadruple(eps)
    below = pendulum_quadruple(-eps)
    assert abs(above.imaginary_action - below.imaginary_action) < 1e-5
    assert abs(above.imaginary_period - below.imaginary_period) < 1e-5


def test_domain_errors():
    with pytest.raises(DomainError):
        pendulum_quadruple(-2.5)
    with pytest.raises(DomainError):
        pendulum_quadruple(0.0)


def test_true_pendulum_flag():
    quad = pendulum_quadruple(-0.5)
    bare = pendulum_quadruple(-0.5, true_pendulum=True)
    assert bare.action == pytest.approx(2 * quad.action)
    assert bare.period == pytest.approx(2 * quad.period)
    assert bare.imaginary_action == quad.imaginary_action


# -- exact expansions ---------------------------------------------------------

def test_action_log_series_displayed_coefficients():
    ls = action_log_series(6)
    # 2 pi I = 8 + h + (h - h^2/16 + ...) ln(32/|h|) + (3/32) h^2 + ...
    # a series in (h, L): exponents (n, 0) are plain, (n, 1) carry L
    assert ls.coeff(0, 0) == F(8)
    assert ls.coeff(1, 0) == F(1)
    assert ls.coeff(2, 0) == F(3, 32)
    assert ls.coeff(1, 1) == F(1)
    assert ls.coeff(2, 1) == F(-1, 16)
    assert ls.coeff(3, 1) == F(3, 256)


def test_imaginary_period_series():
    # U / 2 pi = dJ/dh = 1 - h/8 + 9 h^2/256 - ...
    dj = action_log_series(6).partial(1).partial(0)
    assert dj.coeff(0, 0) == F(1)
    assert dj.coeff(1, 0) == F(-1, 8)
    assert dj.coeff(2, 0) == F(9, 256)


def test_pendulum_normal_form_axis():
    h_of_j = pendulum_normal_form(5)
    assert h_of_j.coeff(1) == F(1)
    assert h_of_j.coeff(2) == F(1, 16)
    assert h_of_j.coeff(3) == F(-1, 256)
    assert h_of_j.coeff(4) == F(5, 8192)


def test_invariant_series_exact_fractions():
    s = invariant_series_exact(8)
    for d, frac in AXIS_INVARIANT_FRACTIONS.items():
        assert s.coeff(d) == frac
    assert s.coeff(0) == 0 and s.coeff(1) == 0


def test_series_check_report():
    rep = pendulum_series_check()
    assert rep.invariant_fractions_ok
    # truncation at cubic order over |h| <= 0.2: generous empirical caps
    assert rep.worst_action < 5e-4
    assert rep.worst_imaginary_action < 5e-5
    assert rep.worst_period < 2e-3
    assert rep.worst_imaginary_period < 5e-3


def test_axis_action_model():
    # 2 pi I(j) = 8 + j (1 + ln(32/|j|)) + invariant tail
    s = invariant_series_exact(8)
    for j in (0.05, 0.1, -0.08):
        model = 8 + j * (1 + math.log(32 / abs(j))) + s.evaluate(j)
        h = pendulum_normal_form(12).evaluate(j)
        quad = pendulum_quadruple(h)
        assert 2 * math.pi * quad.action == pytest.approx(model, abs=5e-9)


# -- nome and theta ------------------------------------------------------------

def test_nome_series_displayed():
    ns = nome_from_invariant(7)
    assert ns.q_of_l.coeffs()[1:] == [F(1), F(-6), F(48), F(-436), F(4254),
                                      F(-43452), F(458192)]


def test_reciprocal_series_displayed():
    ns = nome_from_invariant(7)
    assert ns.reciprocal_pole == F(1)
    for exponent, value in [(0, 6), (1, -12), (2, 76), (3, -606), (4, 5412)]:
        assert ns.reciprocal_series.coeff(exponent) == value


def test_nome_integrality():
    ns = nome_from_invariant(7)
    assert ns.integer_coefficients()


def test_nome_inverse_round_trip():
    ns = nome_from_invariant(7)
    ell = Series.variable(0, 7, ("l",))
    assert ns.l_of_q.relabel(("l",)).compose(ns.q_of_l) == ell


def test_theta_series_displayed():
    th = J_of_q_theta(7).scale(F(1, 32))
    assert th.coeffs()[1:5] == [F(1), F(6), F(24), F(76)]
    assert all(c.denominator == 1 for c in J_of_q_theta(12).terms().values())


def test_theta_numerator_terms():
    # q d(theta4)/dq = -2(q - 4 q^4 + 9 q^9 - ...)
    th = J_of_q_theta(10)
    # spot check via the assembled series at a small nome value
    q = 0.01
    theta4 = 1 + 2 * sum((-1) ** n * q ** (n * n) for n in range(1, 6))
    dtheta = 2 * sum((-1) ** n * n * n * q ** (n * n) for n in range(1, 6))
    ref = -16 * dtheta / theta4 ** 3
    assert th.evaluate(q) == pytest.approx(ref, rel=1e-12)


def test_theta_inversion_exact():
    assert theta_inverse_matches_nome(7)


def test_theta_round_trip():
    ns = nome_from_invariant(7)
    j32 = J_of_q_theta(7).scale(F(1, 32))
    comp = ns.q_of_l.relabel(("q",)).compose(j32.relabel(("q",)))
    assert comp == Series.variable(0, 7, ("q",))


def test_nome_against_modulus_route():
    # 2 pi dI/dJ = pi K(k)/K(k') with k^2 = 2/(2+h); the expansion runs at
    # modulus -> 1, so the period ratio is the reciprocal of the usual one
    for j in (0.02, 0.05):
        h = pendulum_normal_form(14).evaluate(j)
        msq = 2 / (2 + h)
        mcsq = h / (2 + h)
        q_ref = math.exp(-math.pi * float(mp.ellipk(msq) / mp.ellipk(mcsq)))
        q_series = nome_from_invariant(10).q_of_l.evaluate(j / 32)
        assert q_series == pytest.approx(q_ref, rel=1e-8)


# -- complex nome ----------------------------------------------------------------

def test_complex_nome_displayed_terms():
    q_hat = complex_nome_series(4)
    assert q_hat.coeff(1, 0) == F(1)
    assert q_hat.coeff(2, 0) == F(6)
    assert q_hat.coeff(1, 1) == F(-12)
    assert q_hat.coeff(3, 0) == F(-51)
    assert q_hat.coeff(2, 1) == F(-6)
    assert q_hat.coeff(1, 2) == F(105)
    assert q_hat.coeff(4, 0) == F(74)
    assert q_hat.coeff(3, 1) == F(1332)
    assert q_hat.coeff(2, 2) == F(-1266)
    assert q_hat.coeff(1, 3) == F(-576)


def test_complex_nome_integer_coefficients():
    q_hat = complex_nome_series(4)
    assert all(c.denominator == 1 for c in q_hat.terms().values())


def test_complex_nome_reduces_to_axis():
    assert complex_nome_diagonal_matches(4)


def test_complex_nome_order_guard():
    with pytest.raises(ValueError):
        complex_nome_series(5)


def test_complex_nome_rejects_an_imaginary_part(monkeypatch):
    # an invariant odd in j2 leaves an imaginary part that must not be dropped
    from pendinv import pendulum
    odd = Series(4, ("j1", "j2"), {(2, 1): F(1, 32)})
    monkeypatch.setattr(pendulum, "invariant_polynomial", lambda order: odd)
    with pytest.raises(ArithmeticError):
        complex_nome_series.__wrapped__(4)
