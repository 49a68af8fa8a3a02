"""The planar pendulum as the zero-angular-momentum slice.

Actions, periods and their complementary-cycle partners on both sides of
the critical energy, the exact invariant series obtained by composing the
classical logarithmic expansions of K and E with the normal form, the nome
series whose coefficients are integers after the 32-scaling, the theta
-function inversion, and the complex nome of the full problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .actions import J1_series, birkhoff_series, invariant_polynomial
from .elliptic import DomainError, ellint_E, ellint_K
from .series import Series, binom_frac, exp_series, log1p_series


# -- numeric branch formulas ---------------------------------------------------

@dataclass
class PendulumQuadruple:
    """Action, imaginary action, period, imaginary period at one energy."""

    action: float             # I
    imaginary_action: float   # J
    period: float             # T
    imaginary_period: float   # U
    branch: str               # "above" (h > 0) or "below" (h < 0)

    def legendre_combination(self) -> float:
        """I*U - J*T, which must equal 8 on both branches."""
        return self.action * self.imaginary_period - self.imaginary_action * self.period


def pendulum_quadruple(h: float, true_pendulum: bool = False) -> PendulumQuadruple:
    """Evaluate (I, J, T, U) at scaled energy h (critical value at 0).

    Below the critical energy the values follow the convention compatible
    with the angular-momentum-zero slice of the spherical problem, half the
    bare libration quantities, which makes I continuous across h = 0.
    `true_pendulum` restores the bare factors for I and T on that branch.
    The elliptic kernels take the complementary parameter, so the modulus
    k of the real cycle enters through k'^2 (h / (2 + h) above, -h / 2
    below), which keeps its digits next to the critical energy, and the
    imaginary cycle's through k^2.
    """
    if h <= -2:
        raise DomainError(f"h = {h} at or below the potential minimum -2")
    if h == 0:
        raise DomainError("period diverges at the critical energy h = 0")
    if h > 0:
        ksq = 2 / (2 + h)
        kcsq = h / (2 + h)
        k = math.sqrt(ksq)
        K_c = ellint_K(ksq)
        E_c = ellint_E(ksq)
        action = 4 / (math.pi * k) * ellint_E(kcsq)
        imag_action = 8 / (math.pi * k) * (K_c - E_c)
        period = 2 * k * ellint_K(kcsq)
        imag_period = 4 * k * K_c
        return PendulumQuadruple(action, imag_action, period, imag_period, "above")
    ksq = (2 + h) / 2
    kcsq = -h / 2
    K = ellint_K(kcsq)
    E = ellint_E(kcsq)
    K_c = ellint_K(ksq)
    E_c = ellint_E(ksq)
    action = 4 / math.pi * (E - kcsq * K)
    imag_action = 8 / math.pi * (ksq * K_c - E_c)
    period = 2 * K
    imag_period = 4 * K_c
    if true_pendulum:
        action *= 2
        period *= 2
    return PendulumQuadruple(action, imag_action, period, imag_period, "below")


# -- exact logarithmic expansions near the separatrix --------------------------
#
# An expansion A(t) + B(t) * Lam with an abstract logarithm Lam (here
# ln(4/k') or ln(32/|h|)) is a Series in (t, Lam) where Lam has weight 0,
# so the truncation counts powers of t alone.

LOG_WEIGHTS = (1, 0)


def _k_prime_log_series(order: int) -> Series:
    """K(k) as A(t) + B(t) * Lam with t = k'^2 and Lam = ln(4/k').

    Classical expansion: K = sum_m r_m t^m (ln(4/k') - c_m) with
    r_m = ((2m choose m) / 4^m)^2 and c_m = sum_{i<=m} (2/(2i-1) - 1/i).
    """
    terms = {}
    c_val = Fraction(0)
    for m_idx in range(order + 1):
        r = Fraction(math.comb(2 * m_idx, m_idx), 4 ** m_idx) ** 2
        if m_idx > 0:
            c_val += Fraction(2, 2 * m_idx - 1) - Fraction(1, m_idx)
        terms[(m_idx, 0)] = -r * c_val
        terms[(m_idx, 1)] = r
    return Series(order, ("t", "Lam"), terms, LOG_WEIGHTS)


def _e_prime_log_series(order: int) -> Series:
    """E(k) as A(t) + B(t) * Lam, Lam = ln(4/k'), derived from K through the ODE.

    In x = k' the Legendre relation dE/dx (1 - x^2) = -x E + x K becomes
    2 (1 - t) dE/dt = K - E for t = x^2; substituting E = A + B*Lam with
    dLam/dt = -1/(2t) yields a two-term recurrence solved order by order.
    """
    kk = _k_prime_log_series(order + 1)
    a = [Fraction(1)]
    b = [Fraction(0)]
    for n in range(order):
        b_next = (kk.coeff(n, 1) + (2 * n - 1) * b[n]) / (2 * (n + 1))
        a_next = (kk.coeff(n, 0) + (2 * n - 1) * a[n] + b_next - b[n]) / (2 * (n + 1))
        b.append(b_next)
        a.append(a_next)
    terms = {(n, 0): c for n, c in enumerate(a)}
    terms.update({(n, 1): c for n, c in enumerate(b)})
    return Series(order, ("t", "Lam"), terms, LOG_WEIGHTS)


@lru_cache(maxsize=None)
def action_log_series(order: int = 12) -> Series:
    """2 pi I(h) for h > 0 as P(h) + Q(h) * L, L = ln(32/h), exact.

    A Series in (h, L).  Composes the E expansion with t = h/(2+h) and
    ln(4/k') = (1/2) L + (1/2) ln(1 + h/2).  The logarithmic coefficient Q
    must coincide with the imaginary-action series on the axis; that
    equality is asserted here, tying the residue route to the classical one.
    """
    vars_ = ("h", "L")
    h = Series.variable(0, order, vars_, LOG_WEIGHTS)
    half_h = h.scale(Fraction(1, 2))
    t_of_h = half_h * (1 + half_h).reciprocal()          # h / (2 + h)
    lam = (Series.variable(1, order, vars_, LOG_WEIGHTS)
           + log1p_series(half_h)).scale(Fraction(1, 2))
    # 2 pi I = (8/k) E = 8 sqrt(1 + h/2) E
    sqrt_series = Series(order, vars_,
                         {(m, 0): binom_frac(Fraction(1, 2), m) * Fraction(1, 2 ** m)
                          for m in range(order + 1)}, LOG_WEIGHTS)
    result = _e_prime_log_series(order).compose(t_of_h, lam) * sqrt_series.scale(8)

    axis = {(a, 1): c for (a, b), c in J1_series(order).terms().items() if b == 0}
    if result.map(lambda k, c: c if k[1] == 1 else 0) != Series(order, vars_, axis,
                                                              LOG_WEIGHTS):
        raise ArithmeticError("logarithm coefficient disagrees with the "
                              "imaginary-action series")
    return result


@lru_cache(maxsize=None)
def pendulum_normal_form(order: int = 12) -> Series:
    """h as a series in the axis action j (zero-angular-momentum slice)."""
    axis = {(a,): c for (a, b), c in birkhoff_series(order).terms().items() if b == 0}
    return Series(order, ("j",), axis)


@lru_cache(maxsize=None)
def invariant_series_exact(order: int = 10) -> Series:
    """Quadratic-and-up part of the axis invariant, exact in j.

    2 pi I = P(h) + Q(h) L with L = ln(32/h); substituting the normal form
    h = H(j) and ln(32/|h|) = ln(32/|j|) - ln(H(j)/j) gives a series in
    (j, ln(32/|j|)) whose logarithmic part is Q(H(j)) L = j L, so its
    plain part is 8 + j + S>=2(j).
    """
    vars_ = ("j", "L")
    h_of_j = pendulum_normal_form(order + 1).terms()
    h_sub = Series(order + 1, vars_, {(a, 0): c for (a,), c in h_of_j.items()},
                   LOG_WEIGHTS)
    ratio = Series(order + 1, vars_, {(a - 1, 0): c for (a,), c in h_of_j.items()},
                   LOG_WEIGHTS)                          # H(j) / j
    log_sub = Series.variable(1, order + 1, vars_, LOG_WEIGHTS) - log1p_series(ratio - 1)
    two_pi_i = action_log_series(order + 1).compose(h_sub, log_sub)
    plain = {(a,): c for (a, b), c in two_pi_i.terms().items() if b == 0}
    return Series(order, ("j",), plain) - 8 - Series.variable(0, order, ("j",))


# -- nome ----------------------------------------------------------------------

@dataclass
class NomeSeries:
    """Nome as a series in l = j/32, its inverse, and the reciprocal."""

    q_of_l: Series
    l_of_q: Series
    reciprocal_pole: Fraction          # coefficient of 1/l
    reciprocal_series: Series

    def integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self.q_of_l.terms().values()) and \
            all(c.denominator == 1 for c in self.l_of_q.terms().values()) and \
            self.reciprocal_pole.denominator == 1 and \
            all(c.denominator == 1 for c in self.reciprocal_series.terms().values())


@lru_cache(maxsize=None)
def nome_from_invariant(order: int = 7) -> NomeSeries:
    """q = exp(-2 pi dI/dJ) as an exact series in l = j/32.

    The derivative of the action with respect to the imaginary action is
    ln(32/|j|) plus the derivative of the invariant, so the logarithm
    exponentiates to j/32 and the rest is an exact exp-series.  The
    reciprocal keeps the 1/l pole separate.
    """
    s_prime = invariant_series_exact(order + 1).partial(0).truncate(order)
    q_of_j = Series.variable(0, order, ("j",)).scale(Fraction(1, 32)) \
        * exp_series(-s_prime)
    q_of_l = q_of_j.compose(Series.variable(0, order, ("l",)).scale(32))
    l_of_q = q_of_l.relabel(("q",)).invert()

    # exp(+2 pi dI/dJ) = (32/j) exp(s') = (1/l) * exp-series
    exp_plus = exp_series(s_prime)
    # (32/j) * sum_d s_d j^d = 32 s_1 + 32 s_2 j + ... plus the 1/l pole
    recip_terms = {(d - 1,): exp_plus.coeff(d) * Fraction(32) * Fraction(32) ** (d - 1)
                   for d in range(1, order + 1)}
    reciprocal = Series(order - 1 if order > 0 else 0, ("l",), recip_terms)
    return NomeSeries(q_of_l=q_of_l, l_of_q=l_of_q,
                      reciprocal_pole=Fraction(1),
                      reciprocal_series=reciprocal)


@lru_cache(maxsize=None)
def J_of_q_theta(order: int = 7) -> Series:
    """Imaginary action as a function of the nome via the theta-quotient.

    J(q) = -16 q (d theta4 / dq) / theta4^3 with theta4 = sum (-1)^n q^(n^2);
    all series arithmetic exact, so the integrality of J/32 comes out of
    the computation itself, not an observation.
    """
    theta = {(0,): Fraction(1)}
    dtheta = {}
    n = 1
    while n * n <= order:
        sign = Fraction((-1) ** n)
        theta[(n * n,)] = 2 * sign
        dtheta[(n * n,)] = 2 * sign * n * n   # q d/dq picks up n^2
        n += 1
    theta4 = Series(order, ("q",), theta)
    q_dtheta = Series(order, ("q",), dtheta)
    inv_cubed = theta4.reciprocal() ** 3
    return q_dtheta.scale(-16) * inv_cubed


def theta_inverse_matches_nome(order: int = 7) -> bool:
    """Exact check: the compositional inverse of J(q)/32 equals q(l).

    Equivalently J(q)/32 itself is the series l(q); both identities are
    exercised in the tests.
    """
    j32 = J_of_q_theta(order).scale(Fraction(1, 32))
    ns = nome_from_invariant(order)
    return j32.invert() == ns.q_of_l.relabel(("q",)) and j32 == ns.l_of_q


# -- complex nome of the full system -------------------------------------------

@lru_cache(maxsize=None)
def complex_nome_series(order: int = 4) -> Series:
    """The singularity-free complex nome as a series in (l, lbar).

    Built as l * exp(-S1 + i S2) with the invariant partials rewritten
    through j1 = 16 (l + lbar), j2 = -16 i (l - lbar); the imaginary part
    cancels identically and the coefficients come out integers.  Restricted
    to the diagonal lbar = l it reduces to the axis nome series.
    """
    if order > 4:
        raise ValueError("exact invariant data available through degree 4 "
                         "limits the complex nome to order 4")
    vars_ = ("l", "lbar")
    poly = invariant_polynomial(4)
    l_v = Series.variable(0, order, vars_)
    lb_v = Series.variable(1, order, vars_)
    j1 = (l_v + lb_v).scale(16)
    d = (l_v - lb_v).scale(-16)            # j2 = i d

    def subst(series: Series) -> list[Series]:
        """[re, im] of series(j1, i d): i^b is real for even b, imaginary for odd."""
        parts = [Series(order, vars_), Series(order, vars_)]
        for (a, b), c in series.terms().items():
            parts[b % 2] = parts[b % 2] + (j1 ** a * d ** b).scale(c * (-1) ** (b // 2))
        return parts

    s1_re, s1_im = subst(poly.partial(0))
    s2_re, s2_im = subst(poly.partial(1))
    w_re, w_im = -s2_im - s1_re, s2_re - s1_im         # w = i S2 - S1
    # Im(l exp(w)) = l exp(w_re) sin(w_im) vanishes through `order`
    # exactly when l * w_im does
    if not (l_v * w_im).is_zero():
        raise ArithmeticError("complex nome has a nonvanishing imaginary part")
    return l_v * exp_series(w_re)


def complex_nome_diagonal_matches(order: int = 4) -> bool:
    """Exact reduction check q_hat(l, l) == q(l) through `order`."""
    ell = Series.variable(0, order, ("l",))
    return (complex_nome_series(order).compose(ell, ell)
            == nome_from_invariant(order).q_of_l.truncate(order))


# -- displayed-truncation checks ------------------------------------------------

@dataclass
class SeriesCheckReport:
    worst_action: float
    worst_imaginary_action: float
    worst_period: float
    worst_imaginary_period: float
    invariant_fractions_ok: bool
    samples: tuple

    @property
    def passed(self) -> bool:
        return (self.invariant_fractions_ok
                and self.worst_action < 1.0 and self.worst_imaginary_action < 1.0
                and self.worst_period < 1.0 and self.worst_imaginary_period < 1.0)


# quadratic-and-up invariant fractions on the axis
AXIS_INVARIANT_FRACTIONS = {
    2: Fraction(3, 32),
    3: Fraction(-5, 512),
    4: Fraction(55, 32768),
    5: Fraction(-189, 524288),
    6: Fraction(3689, 41943040),
    7: Fraction(-3129, 134217728),
    8: Fraction(1575405, 240518168576),
}


def pendulum_series_check(h_values=(0.05, -0.05, 0.1, -0.1, 0.2, -0.2),
                          order: int = 3) -> SeriesCheckReport:
    """Evaluate the low-order expansions against the closed branch formulas.

    The expansions of 2 pi I, J, T and U at |h| -> 0 are produced exactly
    from the logarithmic series engine (both branches share them) and
    compared at the sample energies; the error must shrink like the first
    omitted order.  Also verifies the axis invariant fractions exactly.
    """
    ls = action_log_series(order + 1)            # P(h) + Q(h) L
    q_ser = ls.partial(1)                        # Q(h), the imaginary action
    # T = d(2 pi I)/dh with dL/dh = -1/h: P' + Q' L - Q/h;  U = 2 pi Q'
    q_over_h = Series(order, ls.vars,
                      {(a - 1, b): c for (a, b), c in q_ser.terms().items() if a >= 1},
                      ls.weights)
    t_ser = (ls.partial(0) - q_over_h).truncate(order - 1)
    u_ser = q_ser.partial(0).truncate(order - 1)

    worst = [0.0, 0.0, 0.0, 0.0]
    for h in h_values:
        quad = pendulum_quadruple(h)
        L = math.log(32 / abs(h))
        two_pi_i = ls.truncate(order).evaluate(h, L)
        j_val = q_ser.truncate(order).evaluate(h, L)
        t_val = t_ser.evaluate(h, L)
        u_val = 2 * math.pi * u_ser.evaluate(h, L)
        worst[0] = max(worst[0], abs(two_pi_i - 2 * math.pi * quad.action))
        worst[1] = max(worst[1], abs(j_val - quad.imaginary_action))
        worst[2] = max(worst[2], abs(t_val - quad.period))
        worst[3] = max(worst[3], abs(u_val - quad.imaginary_period))

    s_exact = invariant_series_exact(8)
    fractions_ok = all(s_exact.coeff(d) == frac
                       for d, frac in AXIS_INVARIANT_FRACTIONS.items())
    return SeriesCheckReport(worst_action=worst[0], worst_imaginary_action=worst[1],
                             worst_period=worst[2], worst_imaginary_period=worst[3],
                             invariant_fractions_ok=fractions_ok,
                             samples=tuple(h_values))
