"""Properties over the momentum-map image, checked with Hypothesis.

The image oracle here is written independently of the program: the
discriminant of P(z) = 2 (1 - z^2)(h + 1 - z) - j2^2 in exact rational
arithmetic, from the general cubic formula.  (h, j2) is inside exactly
when both are finite, h >= -2 and that discriminant is non-negative.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pendinv.actions import (action_I1, energy_of_j, j1_of_energy,
                             period_T_model, period_T_numeric, rotation_W_model,
                             rotation_W_numeric, twist, two_pi_I1_closed,
                             two_pi_I1_energy_expansion, two_pi_I1_model)
from pendinv.elliptic import DomainError, EnergyMomentum, cubic_roots

SETTINGS = settings(deadline=None, max_examples=150)


def in_image(h: float, j2: float) -> bool:
    if not (math.isfinite(h) and math.isfinite(j2)) or h < -2:
        return False
    u, j = Fraction(h) + 1, Fraction(j2)
    a, b, c, d = 2, -2 * u, -2, 2 * u - j * j      # P = a z^3 + b z^2 + c z + d
    disc = (18 * a * b * c * d - 4 * b ** 3 * d + b * b * c * c
            - 4 * a * c ** 3 - 27 * a * a * d * d)
    return disc >= 0


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


any_float = st.floats(allow_nan=True, allow_infinity=True)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])

outside = st.one_of(
    st.tuples(non_finite, any_float),
    st.tuples(any_float, non_finite),
    st.tuples(st.floats(max_value=-2.0, exclude_max=True, allow_nan=False,
                        allow_infinity=False), any_float),
    # below the relative equilibria: |j2| too large for the energy
    st.tuples(finite(-2.0, 3.0), finite(-6.0, 6.0)),
).filter(lambda p: not in_image(*p))

# interior, the last 1e-6 around the critical value, and the last 1e-6
# above the potential minimum; large h up to 50
inside = st.one_of(
    st.tuples(finite(-2.0, 50.0), finite(-3.0, 3.0)),
    st.tuples(finite(-1e-6, 1e-6), finite(-1e-6, 1e-6)),
    st.tuples(finite(0.0, 1e-6).map(lambda dh: -2.0 + dh), finite(-1e-6, 1e-6)),
).filter(lambda p: in_image(*p))


@SETTINGS
@given(outside)
@example((-2.5, 0.0))
@example((-3.0, 0.0))
@example((math.nan, 0.1))
@example((-1.99, 0.5))
def test_outside_the_image_raises_domain_error(point):
    h, j2 = point
    em = EnergyMomentum(h, j2)                 # building the pair never raises
    for call in (lambda: cubic_roots(em), lambda: action_I1(em),
                 lambda: rotation_W_numeric(em), lambda: period_T_numeric(em),
                 lambda: j1_of_energy(h, j2)):
        with pytest.raises(DomainError):
            call()


@SETTINGS
@given(st.one_of(st.tuples(non_finite, any_float), st.tuples(any_float, non_finite)))
@example((math.nan, 0.1))
@example((0.1, math.inf))
def test_model_functions_reject_non_finite_coordinates(point):
    j1, j2 = point
    for fn in (two_pi_I1_model, rotation_W_model, twist, period_T_model,
               energy_of_j):
        with pytest.raises(DomainError):
            fn(j1, j2)


def _residual_ok(terms):
    """The exact sum of `terms` is small against the sum of their sizes.

    Below the smallest normal float nothing is resolved, which is the
    absolute floor.
    """
    terms = [Fraction(t) for t in terms]
    return abs(sum(terms)) <= 1e-12 * sum(abs(t) for t in terms) + 2.0 ** -1022


@SETTINGS
@given(inside)
@example((1e-9, 1e-9))
@example((-1.9999999848921983, -7.096793468803744e-09))
@example((-2.0, 0.0))
@example((0.0, 0.0))
def test_gaps_are_non_negative_roots_of_their_equations(point):
    h, j2 = point
    d = cubic_roots(EnergyMomentum(h, j2))
    assert min(d.delta0, d.eps1, d.eps2, d.width) >= 0
    assert -1 <= d.zeta0 <= d.zeta1 <= 1 <= d.zeta2
    hf, jsq = Fraction(h), Fraction(j2) ** 2
    x = Fraction(d.delta0)     # 2x(2 - x)(h + 2 - x) = j2^2, expanded
    assert _residual_ok([2 * x ** 3, -2 * (hf + 4) * x * x, 4 * (hf + 2) * x, -jsq])
    x = Fraction(d.eps1)       # 2x(2 - x)(h + x) = j2^2
    assert _residual_ok([-2 * x ** 3, 2 * (2 - hf) * x * x, 4 * hf * x, -jsq])
    x = Fraction(d.eps2)       # 2x(2 + x)(x - h) = j2^2
    assert _residual_ok([2 * x ** 3, 2 * (2 - hf) * x * x, -4 * hf * x, -jsq])


@SETTINGS
@given(inside)
@example((1e-9, 1e-9))
@example((-1.5, 0.3))
def test_action_even_in_j2(point):
    h, j2 = point
    up = action_I1(EnergyMomentum(h, j2))
    down = action_I1(EnergyMomentum(h, -j2))
    assert up.value == down.value and up.method == down.method


def polar(log_rho_lo, log_rho_hi):
    """Points at radius 10^u, u uniform in [lo, hi], about the critical value."""
    return st.tuples(finite(log_rho_lo, log_rho_hi), finite(-math.pi, math.pi)).map(
        lambda p: (10 ** p[0] * math.cos(p[1]), 10 ** p[0] * math.sin(p[1]))
    ).filter(lambda p: in_image(*p))


@SETTINGS
@given(st.one_of(inside, polar(-300, -1)))
@example((0.0, 1e-200))
@example((1e-300, 0.0))
@example((-1e-300, 0.0))
@example((1e-40, 1e-40))
@example((1e-150, 1e-150))
@example((1e-17, -1e-17))
@example((-1e-16, 1e-20))
@example((0.0, 5e-324))
@example((-2.0, 0.0))
@example((0.625, 1.875))        # a relative equilibrium, zeta0 = zeta1 = -1/4
@example((1e6, 1.0))
def test_float_action_matches_the_closed_form(point):
    h, j2 = point
    closed = float(two_pi_I1_closed(h, j2, prec=80))
    value = action_I1(EnergyMomentum(h, j2)).two_pi
    assert math.isfinite(value)
    assert abs(value - closed) <= 4e-14 * (1 + abs(closed))


@SETTINGS
@given(polar(-300, -3))
def test_closed_form_action_tends_to_the_energy_expansion(point):
    # an independent route next to the critical value: the displayed
    # expansion, whose first omitted order is rho^4
    h, j2 = point
    rho = math.hypot(h, j2)
    closed = float(two_pi_I1_closed(h, j2, prec=80))
    assert abs(closed - two_pi_I1_energy_expansion(h, j2)) <= 10 * rho ** 4 + 4e-15


# Off the axis: at j2 = 0 both signs of zero give the same axis limit.
@SETTINGS
@given(inside.filter(lambda p: p[1] != 0))
@example((0.3, 0.2))
@example((-1.5, 0.3))
@example((0.3, 1e-300))
@example((-0.3, 5e-324))
@example((0.0, 5e-324))
@example((-2.9e-9, 1.23e-9))
def test_rotation_odd_in_j2(point):
    h, j2 = point
    assert rotation_W_numeric(EnergyMomentum(h, -j2)) == \
        -rotation_W_numeric(EnergyMomentum(h, j2))
