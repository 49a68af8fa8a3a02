"""Action integrals, series identities, invariant fit, twist, monodromy."""

import hashlib
import math
import random
import re
import warnings
from fractions import Fraction as F

import pytest

import mpmath as mp

from pendinv import actions, dynamics, elliptic, quadrature
from pendinv.actions import (A_series, ConsistencyError, FitQualityError, J1_series,
                             action_I1, action_J1_numeric,
                             birkhoff_series,
                             energy_of_j, fit_invariant_S, invariant_polynomial,
                             j1_of_energy, model_error_sweep, monodromy_check,
                             period_T_fd, period_T_model, period_T_numeric,
                             rotation_expansion_check, rotation_W_fd,
                             rotation_W_model, rotation_W_numeric, twist,
                             twistless_curve, two_pi_I1_closed,
                             two_pi_I1_energy_expansion, two_pi_I1_model,
                             two_pi_I1_quadrature, W_star, W_star_approx)
from pendinv.elliptic import DivergenceError, DomainError, EnergyMomentum, cubic_roots
from pendinv.normalform import lie_normalize
from pendinv.pendulum import pendulum_quadruple
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
    comp = J1_series(10).compose(birkhoff_series(10).relabel(("j1", "j2")))
    assert comp == Series.variable(0, 10, ("j1", "j2"))


@pytest.mark.parametrize("order", [4, 6, 8, 10, 12, 30])
def test_lie_equals_inversion(order):
    # grade 12 exercises degree-6 coefficients with no reference values at
    # all: two independent derivations must coincide exactly; grade 30 pins
    # the triangle beyond the golden grade 20
    assert lie_normalize(order) == birkhoff_series(order // 2)


def test_birkhoff_by_inversion_low_order():
    h = birkhoff_series(4 // 2)
    assert h.terms() == {(1, 0): F(1), (2, 0): F(1, 16), (0, 2): F(3, 16)}


# -- numeric actions -------------------------------------------------------------

def test_action_critical_value():
    # the action has the limit 8 there; the period and rotation number do
    # not exist, numerically at (h, j2) = 0 nor in the model at j = 0
    em = EnergyMomentum(0.0, 0.0)
    assert action_I1(em).two_pi == 8.0
    assert two_pi_I1_model(0.0, 0.0) == 8.0
    for fn in (rotation_W_numeric, period_T_numeric):
        with pytest.raises(DomainError):
            fn(em)
    for fn in (rotation_W_model, period_T_model, twist):
        with pytest.raises(DomainError):
            fn(0.0, 0.0)


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


def test_quadrature_reports_whether_it_converged():
    # on the axis quadrature stalls short of its tolerance
    assert two_pi_I1_quadrature(0.5, 0.0, prec=80)[2] is False
    for prec in (53, 80):
        assert two_pi_I1_quadrature(0.1, 0.1, prec=prec)[2] is True


def _within_old_pin(value, old: str, prec: int) -> bool:
    """Whether `value` lies within 2^-prec (1 + |value|) of a print of the
    working value that the mpf-tuple sums gave before the fixed-point sums."""
    with mp.workprec(prec + 60):
        return abs(value - mp.mpf(old)) <= mp.mpf(2) ** -prec * (1 + abs(value))


def test_quadrature_value_is_pinned_bitwise(monkeypatch):
    # the 148-bit working value of the fixed-point sums, printed to 50 digits
    monkeypatch.setattr(quadrature, "_node_cache", {})
    value, err, converged = two_pi_I1_quadrature(0.01, 0.003, prec=128)
    assert converged is True
    # the odd k of the full tables of 5, 10, 20, 39, 78, 156, 311, 621 nodes
    assert [len(quadrature._node_cache[(128, level)]) for level in range(8)] \
        == [5, 5, 10, 20, 39, 78, 156, 311]
    with mp.workdps(50):
        assert repr(value) == "mpf('8.0722512719197606135904782982296526254953517854754308')"
        assert repr(err) == "mpf('6.3677244296462607410087750232027052871185151057975879e-39')"
    assert _within_old_pin(value, "8.0722512719197606135904782982296526254953518303169817", 128)


@pytest.mark.parametrize("h, j2, prec, converged, value, err, old", [
    (0.01, 0.003, 80, True,
     "mpf('8.0722512719197606135904782982233547641976403111678962')",
     "mpf('0.0')",                              # levels 6 and 7 round alike
     "8.072251271919760613590478298122380568329350800075195"),
    (0.01, 0.003, 256, True,
     "mpf('8.0722512719197606135904782982296526254953517697425926')",
     "mpf('7.9152891064121127358591872384592864451116653138744045e-76')",
     "8.072251271919760613590478298229652625495351769742592612488562779147966022632343759001498"),
    (-1.2, 0.6, 128, True,                      # zeta0 < zeta1 < 0
     "mpf('0.49707016172759681801652224459762136148113059044934163')",
     "mpf('4.9227615051730823701550620260974753691875602018121999e-41')",
     "0.49707016172759681801652224459762136148113059325193856"),
    # the axis, converged; the mpf sums stopped unconverged 7e-11 off
    (0.5, 0.0, 53, True,
     "mpf('10.540734326382429208313271638310093525348065668367781')",
     "mpf('0.00000000000008514036372621325288179150447831489145755767822265625')",
     None),
], ids=["80-bit", "256-bit", "negative-zeta1", "axis-53-bit"])
def test_quadrature_values_are_pinned_bitwise(monkeypatch, h, j2, prec, converged,
                                              value, err, old):
    # 50-digit prints of the working values of the fixed-point sums; the
    # old 276-bit value is printed to 85 digits
    monkeypatch.setattr(quadrature, "_node_cache", {})
    result = two_pi_I1_quadrature(h, j2, prec=prec)
    with mp.workdps(50):
        assert (repr(result[0]), repr(result[1]), result[2]) == (value, err, converged)
    if old is not None:
        assert _within_old_pin(result[0], old, prec)


def test_quadrature_node_tables_are_pinned_bitwise(monkeypatch):
    # sign, mantissa, exponent and bit count of every (d, w) at 128 bits,
    # as built from one exponential per node
    monkeypatch.setattr(quadrature, "_node_cache", {})
    digest = hashlib.sha256()
    for level in range(8):
        for d, w in quadrature._nodes(128, level):
            digest.update(repr([int(v) for v in d + w]).encode())
    assert digest.hexdigest() \
        == "fbd47a00e90bd98ef4493c38f5444640817cc7e5c7d380a0c081c3700ee9bc2e"


@pytest.mark.parametrize("prec, lengths", [
    (53, [5, 5, 9, 17, 34, 67, 132, 263, 523]),
    (80, [5, 5, 9, 18, 36, 72, 143, 284, 567]),
    (128, [5, 5, 10, 20, 39, 78, 156, 311, 620]),
    (256, [6, 6, 12, 22, 44, 88, 176, 352, 702]),
])
def test_quadrature_node_tables_match_their_definition(monkeypatch, prec, lengths):
    # every (d, w) of levels 0-8 against d = 1 - tanh u and w = h (pi/2)
    # cosh t / cosh^2 u, u = (pi/2) sinh t, by mpmath at prec + 80 bits plus
    # the bits by which d falls below 1, which 1 - tanh u cancels
    monkeypatch.setattr(quadrature, "_node_cache", {})
    assert [len(quadrature._nodes(prec, level)) for level in range(9)] == lengths
    for level in range(9):
        h = mp.ldexp(1, -level)
        for i, (d, w) in enumerate(quadrature._nodes(prec, level)):
            d, w = mp.make_mpf(d), mp.make_mpf(w)
            with mp.workprec(prec + 80 - mp.mag(d)):
                t = (i + 1 if level == 0 else 2 * i + 1) * h
                u = mp.pi / 2 * mp.sinh(t)
                refs = (1 - mp.tanh(u), h * mp.pi / 2 * mp.cosh(t) / mp.cosh(u) ** 2)
                for value, ref in zip((d, w), refs):
                    assert abs(value - ref) <= mp.ldexp(ref, -(prec + 16))


def test_quadrature_evaluates_each_node_once(monkeypatch):
    monkeypatch.setattr(quadrature, "_node_cache", {})
    frac = quadrature.fraction_bits(128, -1, 1)
    one_sq = 1 << 2 * frac
    calls = []

    def integrand(x):                           # sqrt(1 - x x), scale 2^frac
        calls.append(x)
        return math.isqrt(one_sq - x * x)

    value, _, converged = quadrature.tanh_sinh(integrand, -1, 1, prec=128)
    assert converged is True
    with mp.workprec(148):
        assert abs(value - mp.pi / 2) < mp.mpf(2) ** -120
    # the midpoint plus both mirror nodes of every cached entry, and no
    # node is cached twice
    distances = [d for table in quadrature._node_cache.values() for d, _ in table]
    assert len(calls) == 1 + 2 * len(distances)
    assert len(set(distances)) == len(distances)


@pytest.mark.parametrize("prec", [53, 80, 128])
def test_converged_quadrature_meets_its_tolerance(prec):
    # the axis (1/sqrt ends), near the critical value, zeta1 < 0, and the
    # fit's region; at 53 bits the axis points converge
    for h, j2 in [(0.5, 0.0), (-0.5, 0.0), (0.2, 0.0), (-1.9, 0.0), (0.2, 0.1),
                  (0.1, 0.1), (1e-9, 1e-9), (-1.2, 0.6)]:
        value, _, converged = two_pi_I1_quadrature(h, j2, prec=prec)
        assert converged or (prec > 53 and j2 == 0.0)
        if converged:
            closed = two_pi_I1_closed(h, j2, prec=prec + 40)
            assert abs(value - closed) <= mp.mpf(2) ** (10 - prec) * (1 + abs(value))


def test_quadrature_reports_the_axis_stall():
    # at 80 bits the axis differences stall near 2^(17 - 80), above the
    # tolerance 2^(10 - 80), and the value is off by more than it
    value, _, converged = two_pi_I1_quadrature(0.5, 0.0, prec=80)
    assert converged is False
    closed = two_pi_I1_closed(0.5, 0.0, prec=120)
    assert abs(value - closed) > mp.mpf(2) ** (10 - 80) * (1 + abs(value))


def test_quadrature_accepts_differences_at_the_noise_plateau(monkeypatch):
    # next to the critical value the differences fall doubly exponentially
    # to a rounding plateau near 2^(4 - prec) at level 9 and stay there
    monkeypatch.setattr(quadrature, "MAX_LEVEL", 9)
    value, _, converged = two_pi_I1_quadrature(1e-9, 1e-9, prec=128)
    assert converged is True
    assert abs(value - two_pi_I1_closed(1e-9, 1e-9, prec=148)) <= 2.0 ** (10 - 128)


def test_quadrature_refuses_differences_that_fall_too_slowly(monkeypatch):
    # the kink of f = 1 + 2^-s |x - c| makes the level differences fall
    # about geometrically.  At s = 20 levels 10-12 meet the tolerance 2^-43
    # (2^-46.3, 2^-43.6, 2^-45.7), and d_L <= d_(L-1)^1.25 refuses each.  At
    # s = 24 it refuses levels 8-9 (2^-43.6, 2^-44.5); level 10's 2^-50.3
    # lies below the floor 2^-47 and is accepted
    one = 1 << quadrature.fraction_bits(53, -1, 1)
    c = mp.mpf(0.3141592653589793)
    kink = int(c * one)                         # exact: c has 53 bits

    def run(shift, max_level):
        monkeypatch.setattr(quadrature, "MAX_LEVEL", max_level)
        return quadrature.tanh_sinh(lambda x: one + (abs(x - kink) >> shift),
                                    -1, 1, prec=53)

    for shift, refused in ((20, (10, 11, 12)), (24, (8, 9))):
        for level in refused:
            value, err, converged = run(shift, level)
            assert converged is False
            assert err <= mp.mpf(2) ** -43 * (1 + abs(value))
    value, _, converged = run(24, 12)
    assert converged is True
    with mp.workprec(120):
        exact = 2 + mp.mpf(2) ** -24 * (1 + c * c)
        assert abs(value - exact) <= mp.mpf(2) ** -48 * (1 + abs(value))


@pytest.mark.parametrize("prec", [80, 128, 256])
def test_landen_incomplete_integrals_match_mpmath(prec):
    # mpmath's ellipf and ellipe form 1/sin^2 phi - 1 and 1 - mc, which lose
    # about 2 (prec + 20) and 140 bits here, so the reference runs at 3 prec
    # + 100 bits; phi = pi/2 is rounded down, where F(phi | 1) is finite
    rng = random.Random(prec)
    with mp.workprec(prec + 20):
        half_pi = mp.mpf(mp.libmp.mpf_pi(prec + 20, mp.libmp.round_floor)) / 2
        phis = [mp.mpf(0), half_pi] + [half_pi * rng.random() for _ in range(3)]
    with mp.workprec(4 * prec):
        mcs = ([mp.mpf("1e-300"), mp.mpf("1e-30"), 1 - mp.mpf(2) ** -140, mp.mpf(1)]
               + [mp.mpf(10) ** -rng.uniform(0, 300) for _ in range(6)])
    for phi in phis:
        for mc in mcs:
            with mp.workprec(prec + 20):
                F, E = actions._incomplete_mp(phi, mc)
            with mp.workprec(3 * prec + 100):
                refs = (mp.ellipf(phi, mc), mp.ellipe(phi, mc))
            for value, ref in zip((F, E), refs):
                assert abs(value - ref) <= mp.mpf(2) ** -prec * (1 + abs(ref))


@pytest.mark.parametrize("prec", [80, 128, 256])
def test_complete_integrals_match_mpmath(prec):
    # K and E at parameter m = 1 - mc, formed exactly.  mpmath's ellipe takes
    # dK/dm from a difference with step 2^-(wp + 20), which must lie below
    # mc, so the reference runs at 3 prec + 100 bits plus the bits of 1/mc
    rng = random.Random(prec)
    with mp.workprec(4 * prec):
        mcs = ([mp.mpf("1e-300"), mp.mpf("1e-30"), mp.mpf(2) ** -140,
                1 - mp.mpf(2) ** -140, mp.mpf(1)]
               + [mp.mpf(10) ** -rng.uniform(0, 300) for _ in range(6)])
    for mc in mcs:
        with mp.workprec(prec + 20):
            K, E = actions._complete_mp(mc)
        with mp.workprec(3 * prec + 100 + max(0, -mp.mag(mc))):
            m = mp.fsub(1, mc, exact=True)
            refs = (mp.ellipk(m), mp.ellipe(m))
        for value, ref in zip((K, E), refs):
            assert abs(value - ref) <= mp.mpf(2) ** -prec * (1 + abs(ref))


def _gap_equations(h, j2):
    """Each gap's own equation, as (f, f'), with f(gap) = 0."""
    jsq = j2 * j2
    return {"delta0": (lambda x: 2 * x * (2 - x) * (h + 2 - x) - jsq,
                       lambda x: 2 * ((2 - 2 * x) * (h + 2 - x) - x * (2 - x))),
            "eps1": (lambda x: 2 * x * (2 - x) * (h + x) - jsq,
                     lambda x: 2 * ((2 - 2 * x) * (h + x) + x * (2 - x))),
            "eps2": (lambda x: 2 * x * (2 + x) * (x - h) - jsq,
                     lambda x: 2 * ((2 + 2 * x) * (x - h) + x * (2 + x)))}


@pytest.mark.parametrize("prec", [128, 256])
def test_high_precision_gaps_solve_their_equations(prec):
    # fit circles, the critical value, the axis, next to h = -2, large h
    # and subnormal j2 (where the float delta0 underflows to 0)
    points = (_on_fit_circle(0.08, 1e-3) + _on_fit_circle(0.32, 1e-3)
              + _on_fit_circle(0.2, 0.15)
              + [(1e-12, 1e-12), (1e-9, 1e-9), (0.5, 0.0), (-1.999999, 1e-9),
                 (1e6, 10.0), (0.3, 5e-324), (-0.3, 5e-324), (0.0, 5e-324),
                 (5e-324, 5e-324)])
    for h, j2 in points:
        d = actions._cubic_roots_mp(h, j2, prec)
        with mp.workprec(prec + 20):
            h = +mp.mpf(h)                    # the energy the solver sees
        with mp.workprec(3 * prec + 100):
            ref = {}
            for name, (f, slope) in _gap_equations(h, mp.mpf(j2)).items():
                x = mp.mpf(getattr(d, name))
                assert x > 0 or j2 == 0
                # in y = gap / x - 1 findroot's absolute tolerance is relative
                ref[name] = x * (1 + mp.findroot(lambda y: f(x * (1 + y)) / (x * slope(x)), 0)) \
                    if x else x
            ref["width"] = 2 - ref["eps1"] - ref["delta0"]
            for name, r in ref.items():
                assert abs(getattr(d, name) - r) <= abs(r) * mp.mpf(2) ** -(prec + 15)


@pytest.mark.parametrize("prec", [128, 256])
def test_closed_form_action_matches_quadrature(prec):
    # fit circles (|j2| = 1e-3 is the closest any fit sample comes to the
    # axis), h > 0, and zeta1 < 0 where j2^2 > 2 (h + 1)
    points = (_on_fit_circle(0.08, 1e-3) + _on_fit_circle(0.32, 1e-3)
              + _on_fit_circle(0.2, 0.15)
              + [(0.5, 0.3), (2.0, 1.0), (-1.5, 0.3), (-1.2, 0.6), (-0.9, 0.5)])
    for h, j2 in points:
        quad, _, converged = two_pi_I1_quadrature(h, j2, prec=prec)
        assert converged
        closed = two_pi_I1_closed(h, j2, prec=prec)
        assert abs(closed - quad) <= mp.mpf(2) ** -prec * (1 + abs(quad))
    # on the axis, where quadrature stalls, against the float route
    for h in (-2.0, -0.5, 0.5):
        assert float(two_pi_I1_closed(h, 0.0, prec=prec)) == pytest.approx(
            action_I1(EnergyMomentum(h, 0.0)).two_pi, abs=1e-13)
    assert two_pi_I1_closed(0.0, 0.0, prec=prec) == 8


def test_relative_equilibrium_edge_at_large_h_is_in_range():
    # an in-image point where the float gaps put (eps1 + eps2) / span an
    # ulp above 1; with k'^2 capped at 1 no Legendre kernel refuses it
    em = EnergyMomentum(float.fromhex("0x1.a5deb459185a6p+25"),
                        float.fromhex("0x1.48a1ae55fd73cp+13"))
    d = cubic_roots(em)
    assert (d.eps1 + d.eps2) / d.span > 1.0 and d.kcsq == 1.0
    # the action is 2e-13 there, and the large-h gaps lose about 1e-11 of it
    assert abs(action_I1(em).two_pi - float(two_pi_I1_closed(em.h, em.j2, prec=80))) < 1e-10
    assert rotation_W_numeric(em) == pytest.approx(1.0, abs=1e-15)
    assert period_T_numeric(em) == pytest.approx(math.sqrt(2) * math.pi / math.sqrt(d.span),
                                                 rel=1e-15)


@pytest.mark.parametrize("h, j2, bits", [
    ("0x1.0000000000000p-1", "0x0.0p+0",                 # the axis, h > 0
     ["0x1.ad77d8dc97747p+0", "0x1.0000000000000p+0",
      "0x1.026b818341756p+2", "0x1.f1548f6594b31p-2"]),
    ("-0x1.0000000000000p-1", "0x0.0p+0",                # the axis, h < 0
     ["0x1.b60743c019f57p-1", "0x1.0000000000000p-1",
      "0x1.1408b469a95fap+2", "-0x1.08dd9e23fa7e3p-1"]),
    ("0x1.12e0be826d695p-30", "0x1.12e0be826d695p-30",   # (1e-9, 1e-9)
     ["0x1.45f306e9d5b40p+0", "0x1.c000000b4892cp-1",
      "0x1.7d7a95efbba96p+4", "0x1.12e0be8146438p-30"]),
    ("-0x1.e666666666666p+0", "0x1.999999999999ap-5",    # h = -1.9
     ["0x1.9ada92a6c6ca5p-6", "0x1.04f47ef62ad4cp-1",
      "0x1.973b83a050fe1p+1", "-0x1.28cc6f89681cbp+1"]),
    ("-0x1.3333333333333p+0", "0x1.3333333333333p-1",    # zeta1 < 0
     ["0x1.440a13e150758p-4", "0x1.48f4565a2e8eap-1",
      "0x1.b51f6fe12dba6p+1", "-0x1.756cd1696c4f7p+0"]),
    ("0x1.3333333333333p-2", "0x1.b4e56b5e2d6bcp+0",     # 2 ulp below jmax(0.3)
     ["0x1.a000000000001p-50", "0x1.c9fcc5ebab5c6p-1",
      "0x1.827089f3a0e29p+1", "-0x1.813eed276199fp-2"]),
    ("0x1.e848000000000p+19", "0x1.4000000000000p+3",    # h = 1e6
     ["0x1.5f0db69755dd8p+10", "0x1.fffffffffffe7p-1",
      "0x1.232b2b60dad09p-8", "-0x1.5dbe3d48ed2bbp+219"]),
    ("0x1.999999999999ap-3", "0x1.999999999999ap-4",     # (0.2, 0.1)
     ["0x1.5e3d07db5c504p+0", "0x1.e3b291fba6b57p-1",
      "0x1.3987c032510c0p+2", "0x1.910a8c835c83fp-3"]),
    ("-0x1.999999999999ap-4", "-0x1.999999999999ap-5",   # (-0.1, -0.05)
     ["0x1.234b32a5775b0p+0", "-0x1.2bece5256b3bap-1",
      "0x1.6ce6aeadc35b8p+2", "-0x1.9e3141b71ef21p-4"]),
])
def test_point_physics_is_pinned_bitwise(h, j2, bits):
    # the float results of the per-point functions, as computed when each
    # function solved the cubic on its own
    h, j2 = float.fromhex(h), float.fromhex(j2)
    em = EnergyMomentum(h, j2)
    assert [action_I1(em).value.hex(), rotation_W_numeric(em).hex(),
            period_T_numeric(em).hex(), j1_of_energy(h, j2).hex()] == bits


@pytest.mark.parametrize("h, j2, value", [(1e30, 1.0, "-inf"), (1e308, 1e154, "nan")])
def test_j1_of_energy_refuses_a_non_finite_series_value(h, j2, value):
    # both points lie in the image, where the degree-12 series overflows
    assert not _raises_domain_error(lambda: cubic_roots(EnergyMomentum(h, j2)))
    assert value == repr(float(J1_series(12).evaluate(h, j2)))
    with pytest.raises(DivergenceError,
                       match=re.escape(f"diverges to {value} at (h, j2) = ({h}, {j2})")):
        j1_of_energy(h, j2)


def _raises_domain_error(call) -> bool:
    try:
        call()
    except DomainError:
        return True
    return False


def _edge_j2(h: float) -> float:
    """The largest float j2 >= 0 with (h, j2) in the image, by bisection."""
    lo, hi = 0.0, 4 * (abs(h) + 2)
    while (mid := (lo + hi) / 2) not in (lo, hi):
        if _raises_domain_error(lambda: cubic_roots(EnergyMomentum(h, mid))):
            hi = mid
        else:
            lo = mid
    return lo


def test_j1_of_energy_refuses_exactly_what_cubic_roots_refuses():
    rng = random.Random(1818)
    points = [(math.nan, 0.1), (0.1, math.nan), (math.inf, 0.1), (-math.inf, 0.0),
              (0.1, math.inf), (0.1, -math.inf), (-2.5, 0.0), (-3.0, 0.1),
              (math.nextafter(-2.0, -3.0), 0.0), (-2.0, 0.0), (-2.0, 1e-300)]
    points += [(rng.uniform(-2.5, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(200)]
    for _ in range(12):                          # both sides of a relative equilibrium
        h = rng.choice([rng.uniform(-2.0, 0.0), rng.uniform(0.0, 5.0), rng.uniform(5.0, 1e6)])
        j2 = _edge_j2(h)
        for ulps in range(-3, 4):
            edge = j2
            for _ in range(abs(ulps)):
                edge = math.nextafter(edge, math.copysign(math.inf, ulps))
            points += [(h, edge), (h, -edge)]
    outcomes = set()
    for h, j2 in points:
        refused = _raises_domain_error(lambda: cubic_roots(EnergyMomentum(h, j2)))
        assert _raises_domain_error(lambda: j1_of_energy(h, j2)) == refused, (h, j2)
        outcomes.add(refused)
    assert outcomes == {True, False}


def test_each_energy_momentum_solves_its_cubic_once(monkeypatch):
    solves = []
    gaps = elliptic._gaps

    def counting(*args):
        solves.append(args[:2])
        return gaps(*args)

    monkeypatch.setattr(elliptic, "_gaps", counting)
    em = EnergyMomentum(0.2, 0.1)
    action_I1(em), rotation_W_numeric(em), period_T_numeric(em)
    dynamics.initial_condition(em)
    assert solves == [(0.2, 0.1)]
    # the stored roots are no field: equal, hashed and printed as a fresh pair
    fresh = EnergyMomentum(0.2, 0.1)
    assert (fresh, hash(fresh), repr(fresh)) == (em, hash(em), repr(em))
    # equal pairs built apart are solved apart: no cache keyed by value
    period_T_numeric(fresh), period_T_numeric(EnergyMomentum(0.2, 0.1))
    assert len(solves) == 3
    # a refused pair stores nothing and raises on every call
    outside = EnergyMomentum(-1.9, 1.5)
    for _ in range(2):
        for call in (action_I1, rotation_W_numeric, period_T_numeric):
            with pytest.raises(DomainError):
                call(outside)
    assert len(solves) == 3


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


def test_j1_vanishing_cycle_matches_series():
    # the closed form and the degree-14 residue series are independent
    # routes to J1; next to the critical value the series is exact to
    # rounding, and so must the closed form be, relative to J1
    near = [(1e-8, 1e-8), (-1e-12, 1e-12), (1e-3, 1e-12), (-0.01, 0.01)]
    for (h, j2) in [(0.0, 0.0), (0.1, 0.0), (0.1, 0.1), (0.05, 0.15),
                    (-0.2, 0.1)] + near:
        val = action_J1_numeric(EnergyMomentum(h, j2)).value
        ref = float(J1_series(14).evaluate(h, j2))
        assert abs(val - ref) <= (1e-14 * abs(ref) if (h, j2) in near else 1e-9), (h, j2)


def test_j1_at_relative_equilibria_and_far_from_the_origin():
    # (0.625, 1.875) has the double root -1/4 and (-2, 0) is the stable
    # equilibrium, where J1 = -8/pi; the other references are 40-digit
    # principal-value quadratures of the defining integral
    for (h, j2), ref in [((0.625, 1.875), -0.16673121197741082),
                         ((-2.0, 0.0), -8 / math.pi),
                         ((-1.999999, 1e-9), -2.5464732703686903),
                         ((1e6, 10.0), 12509.83673468677)]:
        act = action_J1_numeric(EnergyMomentum(h, j2))
        assert act.method == "vanishing_cycle"
        assert abs(act.value - ref) <= 1e-14 * (1 + abs(ref)), (h, j2)


def _j1_reference(h, j2):
    """J1 by the formula of `action_J1_numeric` at 60 digits: mpmath's
    Carlson forms on the 240-bit gaps of `_cubic_roots_mp`."""
    d = actions._cubic_roots_mp(h, j2, 240)
    with mp.workdps(60):
        h, j2 = mp.mpf(h), mp.mpf(j2)
        delta0, eps1, eps2, width, span = (d.delta0, d.eps1, d.eps2, d.width, d.span)
        mc = width / span
        K = mp.elliprf(0, mc, 1)
        D = (eps1 + eps2) / span / 3 * mp.elliprd(0, mc, 1)
        n = (eps1 + eps2) / (2 + eps2)
        g = (2 * (eps2 * (K - D) - h * K - (2 - delta0) * D)
             + j2 * j2 / 2 * ((K + n / 3 * mp.elliprj(0, mc, 1, (width + delta0) / (2 + eps2)))
                              / (2 + eps2)
                              + mp.elliprj(0, mc, 1, (2 - delta0) / span) / (3 * span)))
        return -2 / mp.pi * mp.sqrt(2 / span) * g


@pytest.mark.parametrize("h, j2", [(1e297, 0.0), (1e300, 1.0), (1e305, 0.0), (1e305, 1e150),
                                   (1e306, 0.0), (1.7e308, 0.0), (1.7e308, 1e154)])
def test_j1_at_the_largest_energies(h, j2):
    # from h ~ 1e297 the first R_J duplication step squared an underflowing
    # product (ZeroDivisionError), and from h ~ 3e305 the terms overflowed
    # (J1 = inf, or OverflowError at 1.7e308)
    ref = _j1_reference(h, j2)
    assert abs(action_J1_numeric(EnergyMomentum(h, j2)).value - ref) <= 2e-15 * abs(ref)


@pytest.mark.parametrize("h", [-1.999999, -1.5, -0.05, 0.05, 2.0, 1e6])
def test_j1_on_the_axis_is_the_pendulum_imaginary_action(h):
    # |h| >= 0.05: the pendulum form itself cancels next to h = 0
    j1 = action_J1_numeric(EnergyMomentum(h, 0.0)).value
    assert abs(j1 - pendulum_quadruple(h).imaginary_action) <= 1e-14 * (1 + abs(j1))


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


@pytest.mark.parametrize("order", range(1, 20))
def test_a_series_equals_its_substitution_route(order):
    # -dJ1/dj2 with the normal form substituted, by implicit differentiation
    # of J1(H(j1, j2), j2) = j1
    subst = -J1_series(order + 1).partial(1).compose(birkhoff_series(order + 1))
    assert A_series(order) == subst.truncate(order)


def test_a_series_builds_without_composing(monkeypatch):
    calls = []
    compose = Series.compose

    def spy(self, *gs):
        calls.append(self.order)
        return compose(self, *gs)

    birkhoff_series(10)                   # inverting J1 composes; warm it first
    monkeypatch.setattr(Series, "compose", spy)
    A_series.cache_clear()
    try:
        a = A_series(9)
    finally:
        A_series.cache_clear()
    assert calls == [] and a.coeff(0, 1) == F(3, 8)


# -- rotation number and period ---------------------------------------------------

def test_one_complete_integral_of_the_first_kind_per_curve(monkeypatch):
    # the action, the rotation number's Pi(n+) and the period share the
    # curve's K = R_F(0, k'^2, 1); at (0.2, 0.1) the rotation number takes
    # its other branch, with no K
    calls = []
    carlson_rf = elliptic.carlson_rf

    def spy(*args):
        calls.append(args)
        return carlson_rf(*args)

    monkeypatch.setattr(elliptic, "carlson_rf", spy)
    for h, j2 in [(-0.5, 0.3), (0.2, 0.1)]:
        em = EnergyMomentum(h, j2)
        calls.clear()
        action_I1(em), rotation_W_numeric(em), period_T_numeric(em)
        d = cubic_roots(em)
        assert calls.count((0.0, d.kcsq, 1.0)) == 1
        # K is kept on the instance, outside the fields
        fresh = cubic_roots(EnergyMomentum(h, j2))
        assert d.__dict__["K"] == fresh.K == elliptic.ellint_K(d.kcsq)
        assert "K" not in repr(d) and d == fresh and hash(d) == hash(fresh)
    # the 80-bit closed form takes K from its own kernel, on mpf data
    two_pi = action_I1(EnergyMomentum(-0.5, 0.3)).two_pi
    monkeypatch.setattr(elliptic.EllipticData, "K", property(lambda d: pytest.fail("read K")))
    assert two_pi_I1_closed(-0.5, 0.3, 80) == pytest.approx(two_pi, rel=1e-14)


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


def _horner_passes(monkeypatch, call) -> int:
    """How many times `call` evaluates a series."""
    count = [0]
    evaluate = Series.evaluate

    def spy(self, *point, **kwargs):
        count[0] += 1
        return evaluate(self, *point, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Series, "evaluate", spy)
        call()
    return count[0]


def test_models_evaluate_only_the_slopes_they_use(monkeypatch):
    # S2 = dS/dj2 enters the rotation number alone; twist and the period
    # take S1 = ln 32 + dS/dj1 and no S2
    for call, passes in ((lambda: twist(0.05, 0.1), 7),
                         (lambda: period_T_model(0.05, 0.1), 2),
                         (lambda: rotation_W_model(0.05, 0.1), 3)):
        assert _horner_passes(monkeypatch, call) == passes


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
    assert rotation_W_model(-0.3, -0.0) == 0.5


def test_rotation_expansion_report():
    rep = rotation_expansion_check()
    assert rep.ln_coefficient_ok and rep.a_series_ok
    assert rep.worst_numeric < 1e-5


def test_rotation_expansion_reports_disagreeing_a_routes(monkeypatch):
    # a j2^4 term added to the normal form breaks J1(H(j1, j2), j2) = j1,
    # so the partial-ratio and substitution routes of A_series part ways
    def bent(degree):
        return birkhoff_series(degree) + Series(degree, ("j1", "j2"), {(0, 4): F(1)})

    monkeypatch.setattr(actions, "birkhoff_series", bent)
    A_series.cache_clear()
    try:
        rep = rotation_expansion_check()
    finally:
        A_series.cache_clear()
    assert rep.a_series_ok is False and not rep.passed
    assert rep.ln_coefficient_ok and rep.worst_numeric < 1e-5


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


# the command line's reduced fit: 19 angles per circle, one on the axis
CLI_FIT = dict(order=8, precision=128, samples=80)


def test_fit_invariant_reduced(monkeypatch):
    quadratures = []

    def counted(*args, **kwargs):
        quadratures.append(args)
        return two_pi_I1_quadrature(*args, **kwargs)

    closed = []

    def counted_closed(*args, **kwargs):
        closed.append(args)
        return two_pi_I1_closed(*args, **kwargs)

    monkeypatch.setattr(actions, "two_pi_I1_quadrature", counted)
    monkeypatch.setattr(actions, "two_pi_I1_closed", counted_closed)
    res = fit_invariant_S(**CLI_FIT)
    assert res.residual_max < 1e-9
    # the rows run by degree, then by b; ln 32 and the degree-4 terms
    # carry a reference, the higher degrees none
    monos = [(row["a"], row["b"]) for row in res.coefficients]
    assert monos == sorted(monos, key=lambda m: (m[0] + m[1], m[1]))
    assert len(monos) == 24 and all(b % 2 == 0 for _, b in monos)
    refs = {(row["a"], row["b"]): row for row in res.coefficients
            if row["reference"] is not None}
    assert set(refs) == {(1, 0), *invariant_polynomial(4).terms()}
    assert refs[(1, 0)]["reference_label"] == "ln 32"
    assert abs(refs[(1, 0)]["fitted"] - refs[(1, 0)]["reference"]) < 1e-8
    for mono, row in refs.items():
        assert abs(row["fitted"] - row["reference"]) < 1e-6
        if mono != (1, 0):
            exact = invariant_polynomial(4).terms()[mono]
            assert (row["reference"], row["reference_label"]) == (float(exact), str(exact))
    assert all(row["reference_label"] == "" for row in res.coefficients
               if row["reference"] is None)
    # the closed form is the production route, run once per mirror pair:
    # the axis sample and the 9 below it on each of the 5 circles of 19
    assert res.samples == 95 and len(closed) == 5 * (1 + 9)
    assert all(j2 <= 0 for _, j2 in closed)
    # quadrature checks exactly one sample per circle, and the largest
    # difference is reported
    assert len(quadratures) == res.quadrature_checked_samples == 5
    assert res.quadrature_max_abs_diff <= 2.0 ** (10 - 128) * 11


@pytest.mark.parametrize("n", [19, 20, 23, 32])
@pytest.mark.parametrize("prec", [148, 276])
def test_midpoint_circle_mirror_pairs_are_exact(n, prec):
    # the fit evaluates each mirror pair once, so sample n - 1 - i must be
    # (j1, -j2) of sample i bit for bit; the lower half is the direct formula
    with mp.workprec(prec):
        for r in (0.08, 0.32):
            circle = actions._midpoint_circle(r, n)
            assert len(circle) == n
            for i, (j1, j2) in enumerate(circle):
                mirror = circle[n - 1 - i]
                assert (mirror[0]._mpf_, mirror[1]._mpf_) == (j1._mpf_, (-j2)._mpf_)
                theta = mp.mpf(2 * i + 1) / n
                direct = (r * mp.cospi(theta), r * mp.sinpi(theta))
                if i >= n // 2:
                    assert (j1, j2) == direct
                else:
                    assert abs(j1 - direct[0]) <= mp.eps and abs(j2 - direct[1]) <= mp.eps
            if n % 2:
                assert circle[n // 2][1] == 0 and circle[n // 2][0] == -r


@pytest.mark.parametrize("precision", [128, 256])
def test_fit_terms_are_even_in_j2_bitwise(precision):
    # the energy, the closed-form action and the singular terms the fit
    # subtracts take the same bits at (j1, j2) and (j1, -j2)
    rng = random.Random(20)
    h_series = birkhoff_series(actions._FIT_H_DEGREE)
    with mp.workprec(precision + 20):
        for _ in range(6):
            r, theta = rng.uniform(0.05, 0.32), rng.uniform(0.0, 1.0)
            j1, j2 = r * mp.cospi(theta), r * mp.sinpi(theta)
            h_up = h_series.evaluate(j1, j2, prec=precision + 20)
            h_down = h_series.evaluate(j1, -j2, prec=precision + 20)
            assert h_up._mpf_ == h_down._mpf_
            assert (two_pi_I1_closed(h_up, j2, prec=precision)._mpf_
                    == two_pi_I1_closed(h_up, -j2, prec=precision)._mpf_)
            assert (actions._singular_terms(j1, j2, mp)._mpf_
                    == actions._singular_terms(j1, -j2, mp)._mpf_)


@pytest.mark.parametrize("fit", [CLI_FIT, {**CLI_FIT, "samples": 100}],
                         ids=["odd-grid", "even-grid"])
def test_harmonic_solve_equals_dense_qr(monkeypatch, fit):
    solves, qr_rows = [], []
    harmonic_lsq, qr_solve = actions._harmonic_lsq, mp.qr_solve

    def spy_lsq(radii, values, order):
        out = harmonic_lsq(radii, values, order)
        solves.append((radii, values, out[0]))
        return out

    def spy_qr(A, b, **kwargs):
        qr_rows.append(A.rows)
        return qr_solve(A, b, **kwargs)

    monkeypatch.setattr(actions, "_harmonic_lsq", spy_lsq)
    monkeypatch.setattr(mp, "qr_solve", spy_qr)
    fit_invariant_S(**fit)
    monkeypatch.undo()
    [(radii, values, coeffs)] = solves
    # only radial blocks, one row per circle, reach the QR
    assert qr_rows and max(qr_rows) <= len(radii)
    n = len(values[0])
    if n % 2:                                   # the middle sample is on the axis
        assert all(actions._midpoint_circle(r, n)[n // 2][1] == 0 for r in radii)
    # the dense monomial system on the same points, solved as one QR
    with mp.workprec(fit["precision"] + 20):
        monos = list(coeffs)
        rows, rhs = [], []
        for r, circle in zip(radii, values):
            for (j1, j2), y in zip(actions._midpoint_circle(r, n), circle):
                rows.append([j1 ** a * j2 ** b for a, b in monos])
                rhs.append(y)
        dense, _ = mp.qr_solve(mp.matrix(rows), mp.matrix(rhs))
        assert max(abs(coeffs[mono] - dense[i]) for i, mono in enumerate(monos)) < 1e-30


def test_fit_raises_on_an_unconverged_oracle(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_LEVEL", 4)
    with pytest.raises(ConsistencyError, match="unconverged"):
        fit_invariant_S(**CLI_FIT)


def test_fit_raises_when_the_closed_form_disagrees_with_quadrature(monkeypatch):
    def perturbed(h, j2, prec):
        return two_pi_I1_closed(h, j2, prec) + mp.mpf("1e-30")

    monkeypatch.setattr(actions, "two_pi_I1_closed", perturbed)
    with pytest.raises(ConsistencyError):
        fit_invariant_S(**CLI_FIT)


# The fit's quality gates.  Each perturbation, 1e-5, lies above the
# residual threshold, 1e-3 times the smallest reference (55/32768), and
# above the 1e-6 reference tolerance, which binds from order 6 on.

def moved_reference_table(mono, step):
    """`invariant_polynomial(4)` with the coefficient of `mono` moved."""
    terms = dict(invariant_polynomial(4).terms())
    terms[mono] += step
    return Series(4, ("j1", "j2"), terms)


def test_fit_raises_on_a_residual_above_threshold(monkeypatch):
    harmonic_lsq = actions._harmonic_lsq

    def shifted(radii, values, order):
        coeffs, residuals = harmonic_lsq(radii, values, order)
        return coeffs, [x + mp.mpf("1e-5") for x in residuals]

    monkeypatch.setattr(actions, "_harmonic_lsq", shifted)
    with pytest.raises(FitQualityError, match="fit residual .* above threshold"):
        fit_invariant_S(**CLI_FIT)


@pytest.mark.parametrize("order", [5, 8])
def test_fit_checks_the_reference_table_from_order_6(monkeypatch, order):
    moved = moved_reference_table((2, 2), F(1, 100000))
    monkeypatch.setattr(actions, "invariant_polynomial", lambda order=4: moved)
    if order < 6:
        fit_invariant_S(**{**CLI_FIT, "order": order})     # no gate yet: it returns
    else:
        with pytest.raises(FitQualityError, match=r"fitted coefficient \(2, 2\) off"):
            fit_invariant_S(**{**CLI_FIT, "order": order})


def test_fit_checks_the_linear_coefficient_against_ln32(monkeypatch):
    harmonic_lsq = actions._harmonic_lsq

    def shifted(radii, values, order):
        coeffs, residuals = harmonic_lsq(radii, values, order)
        coeffs[(1, 0)] += mp.mpf("1e-5")
        return coeffs, residuals

    monkeypatch.setattr(actions, "_harmonic_lsq", shifted)
    with pytest.raises(FitQualityError, match="ln 32"):
        fit_invariant_S(**CLI_FIT)


def test_fit_stability_under_sample_doubling():
    a = fit_invariant_S(**CLI_FIT)
    b = fit_invariant_S(**{**CLI_FIT, "samples": 160})
    rows = [(ra, rb) for ra, rb in zip(a.coefficients, b.coefficients)
            if ra["a"] + ra["b"] <= 4]
    assert [(ra["a"], ra["b"]) for ra, _ in rows] == [
        (1, 0), (2, 0), (0, 2), (3, 0), (1, 2), (4, 0), (2, 2), (0, 4)]
    for ra, rb in rows:
        assert (ra["a"], ra["b"]) == (rb["a"], rb["b"])
        assert abs(ra["fitted"] - rb["fitted"]) < 1e-9


def test_fit_rank_guard():
    # five circles leave a kernel above degree 10; below 4 the reference
    # terms are not fitted.  The command line refuses the same orders.
    for order in (1, 3, 11):
        with pytest.raises(ValueError, match="outside 4 to 10"):
            fit_invariant_S(order=order)


# -- twist -----------------------------------------------------------------------

def test_twist_sign_change_and_curve():
    for r in (0.05, 0.1, 0.3, 0.75):
        s = twistless_curve(r)
        assert -math.pi / 2 < s < math.pi / 2
        assert abs(twist(r * math.sin(s), r * math.cos(s))) < 1e-10


def test_twist_model_restricted_to_the_unit_disk():
    with pytest.raises(DomainError, match=r"\|j\| <= 1"):
        twist(2.0, 0.5)
    # the half circle r = 1 lies on the boundary and stays inside
    assert twistless_curve(1.0) == pytest.approx(0.18813981813633235, abs=1e-12)
    assert W_star(1.0) == pytest.approx(0.8963478858965611, abs=1e-12)


def test_twistless_angle_vanishes_with_radius():
    # at r = 1e-200, |j|^2 underflows; the twist is formed without it
    s_values = [twistless_curve(r) for r in (1e-200, 0.02, 0.05, 0.1)]
    assert s_values[0] == pytest.approx(0.0, abs=1e-14)
    assert W_star(1e-200) == 0.75
    assert all(s > 0 for s in s_values[1:])
    assert s_values[0] < s_values[1] < s_values[2] < s_values[3] < 0.12


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
    err_half = model_error_sweep(0.5)
    err_one = model_error_sweep(1.0)
    assert err_half / TWO_PI < 1.1e-4
    assert err_one / TWO_PI < 3.4e-3
    # and the error is genuinely above the literal 2-pi-scaled reading
    assert err_half > 1.0e-4


def test_model_error_exact_coordinate_matches_high_order_series():
    # vanishing-cycle coordinate vs degree-14 J1 series: two independent
    # routes to j1, both 3.354e-5 in units of the action inside radius 1/2
    exact = model_error_sweep(0.5, j1_order=None)
    series = model_error_sweep(0.5, j1_order=14)
    assert abs(exact - series) < 1e-7


# -- complex coordinate -------------------------------------------------------

def test_complex_j_principal_branch():
    from pendinv.actions import _arg

    assert _arg(-0.1, 0.0) == pytest.approx(math.pi)       # boundary maps to +pi
    assert _arg(-0.1, -0.0) == math.pi
    assert _arg(0.1, 0.0) == 0.0
    assert -math.pi < _arg(-0.1, -1e-12) <= math.pi
