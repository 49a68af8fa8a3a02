"""The planar pendulum as the zero-angular-momentum slice.

Actions, periods and their complementary-cycle partners on both sides of
the critical energy, the exact invariant series obtained by composing the
classical logarithmic expansions of K and E with the normal form, the
integer nome series, taken from the theta quotient with the route through
the invariant as its oracle, and the complex nome of the full problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .actions import J1_series, invariant_polynomial
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


def _K_underflow(num: float, den: float) -> float:
    """K where k'^2 = num / den underflows to 0 but num does not: ln 4 - ln k'
    from logs.  The next term, O(k'^2 ln k'), lies far below an ulp."""
    return math.log(4) - (math.log(num) - math.log(den)) / 2


def pendulum_quadruple(h: float, true_pendulum: bool = False) -> PendulumQuadruple:
    """Evaluate (I, J, T, U) at scaled energy h (critical value at 0).

    Below the critical energy the values follow the convention compatible
    with the angular-momentum-zero slice of the spherical problem, half the
    bare libration quantities, which makes I continuous across h = 0.
    `true_pendulum` restores the bare factors for I and T on that branch.
    The elliptic kernels take the complementary parameter, so the modulus
    k of the real cycle enters through k'^2 (h / (2 + h) above, -h / 2
    below), which keeps its digits next to the critical energy, and the
    imaginary cycle's through k^2.  Where k'^2 underflows (h = +-5e-324),
    K is `_K_underflow` and E is 1.
    """
    if not math.isfinite(h):
        raise DomainError(f"non-finite energy h = {h}")
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
        period = 2 * k * (ellint_K(kcsq) if kcsq else _K_underflow(h, 2 + h))
        imag_period = 4 * k * K_c
        return PendulumQuadruple(action, imag_action, period, imag_period, "above")
    ksq = (2 + h) / 2
    kcsq = -h / 2
    K = ellint_K(kcsq) if kcsq else _K_underflow(-h, 2)
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
    """h(j) on the axis j2 = 0: the inverse of the axis slice of `J1_series`,
    which is the axis slice of the full inverse since H(J1(h, 0), 0) = h."""
    axis = {(a,): c for (a, b), c in J1_series(order).terms().items() if b == 0}
    return Series(order, ("j",), axis).invert()


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
    """Nome as a series in l = j/32, its inverse, and the reciprocal.

    The reciprocal 1/q is 1/l plus `reciprocal_series`; its pole
    coefficient is 1 by construction, as q/l has constant term 1.  Built
    by `nome_series`, and by its oracle `nome_from_invariant`.
    """

    q_of_l: Series
    l_of_q: Series
    reciprocal_series: Series

    def integer_coefficients(self) -> bool:
        return all(c.denominator == 1
                   for ser in (self.q_of_l, self.l_of_q, self.reciprocal_series)
                   for c in ser.terms().values())


@lru_cache(maxsize=None)
def nome_series(order: int = 7) -> NomeSeries:
    """The nome series through `order`, from the theta quotient.

    l(q) = J(q)/32 needs no inversion, q(l) is its one certified inversion,
    and 1/q - 1/l is the reciprocal of q/l with the exponents shifted down
    by one; q/l through `order` needs J and q through order + 1.
    """
    l_of_q = J_of_q_theta(order + 1).scale(Fraction(1, 32))
    q_of_l = l_of_q.relabel(("l",)).invert()
    q_over_l = Series(order, ("l",), {(a - 1,): c for (a,), c in q_of_l.terms().items()})
    l_over_q = q_over_l.reciprocal().terms()
    reciprocal = Series(max(order - 1, 0), ("l",),
                        {(a - 1,): c for (a,), c in l_over_q.items() if a})
    return NomeSeries(q_of_l=q_of_l.truncate(order), l_of_q=l_of_q.truncate(order),
                      reciprocal_series=reciprocal)


@lru_cache(maxsize=None)
def nome_from_invariant(order: int = 7) -> NomeSeries:
    """q = exp(-2 pi dI/dJ) in l = j/32, the oracle of `nome_series`.

    The derivative of the action with respect to the imaginary action is
    ln(32/|j|) plus the derivative of the invariant, so the logarithm
    exponentiates to j/32 and the rest is an exact exp-series.  The
    reciprocal 1/q = 1/l + `reciprocal_series` leaves out its pole, whose
    coefficient is 1 because exp(S') has constant term 1.
    """
    s_prime = invariant_series_exact(order + 1).partial(0).truncate(order)
    s_of_l = s_prime.map(lambda k, c: c * 32 ** k[0]).relabel(("l",))    # s'(32 l)
    q_of_l = Series.variable(0, order, ("l",)) * exp_series(-s_of_l)
    l_of_q = q_of_l.relabel(("q",)).invert()
    # exp(+2 pi dI/dJ) = (1/l) exp(s'(32 l)): the exponents shift down by one
    reciprocal = Series(max(order - 1, 0), ("l",),
                        {(a - 1,): c for (a,), c in exp_series(s_of_l).terms().items() if a})
    return NomeSeries(q_of_l=q_of_l, l_of_q=l_of_q, reciprocal_series=reciprocal)


@lru_cache(maxsize=None)
def J_of_q_theta(order: int = 7) -> Series:
    """Imaginary action as a function of the nome via the theta-quotient.

    J(q) = -16 q (d theta4 / dq) / theta4^3 with theta4 = sum (-1)^n q^(n^2);
    all series arithmetic exact, so the integrality of J/32 comes out of
    the computation itself, not an observation.
    """
    theta4 = Series(order, ("q",), {(n * n,): 2 * (-1) ** n if n else 1
                                    for n in range(math.isqrt(order) + 1)})
    q_dtheta = theta4.map(lambda k, c: k[0] * c)
    return q_dtheta.scale(-16) * theta4.reciprocal() ** 3


def theta_inverse_matches_nome(order: int = 7) -> bool:
    """Exact check: the theta route `nome_series` equals the invariant route
    `nome_from_invariant` in q(l), l(q) and 1/q - 1/l through `order`.

    l(q) is J(q)/32 on one side and the certified inverse of q(l) on the
    other; a truncated series with unit linear term has exactly one
    compositional inverse, so this also shows that the inverse of J(q)/32
    is the invariant route's q(l).
    """
    return nome_series(order) == nome_from_invariant(order)


# -- complex nome of the full system -------------------------------------------

@lru_cache(maxsize=None)
def complex_nome_series(order: int = 4) -> Series:
    """The singularity-free complex nome as a series in (l, lbar).

    q_hat = l * exp(-S1 + i S2) with j1 = 16 (l + lbar), j2 = -16 i (l - lbar),
    where S is `invariant_polynomial`.  In these coordinates -S1 + i S2 is
    the Wirtinger derivative -(1/16) d/dl of S~(l, lbar) = S(j1, j2).  A term
    c j1^a j2^b of S carries (-16 i)^b, which is real, 16^b (-1)^(b/2), when
    b is even; S is even in j2, so q_hat is real and its coefficients come
    out integers.  An odd power of j2 would leave an imaginary part, and
    raises ArithmeticError.  Restricted to the diagonal lbar = l it reduces
    to the axis nome series.  The order is capped by that of
    `invariant_polynomial`, which raises ValueError.
    """
    vars_ = ("l", "lbar")
    poly = invariant_polynomial(order)
    if any(b % 2 for _, b in poly.terms()):
        raise ArithmeticError("complex nome has a nonvanishing imaginary part")
    l_v = Series.variable(0, order, vars_)
    lb_v = Series.variable(1, order, vars_)
    s_tilde = poly.map(lambda k, c: c * (-1) ** (k[1] // 2)).compose(
        (l_v + lb_v).scale(16), (l_v - lb_v).scale(16))
    # the partial drops the order by one; exp(w) is needed through order - 1
    w = s_tilde.partial(0).scale(Fraction(-1, 16)).truncate(order)
    return l_v * exp_series(w)


def complex_nome_diagonal_matches(order: int = 4) -> bool:
    """Exact reduction check q_hat(l, l) == q(l) through `order`."""
    ell = Series.variable(0, order, ("l",))
    return (complex_nome_series(order).compose(ell, ell)
            == nome_series(order).q_of_l)


# -- displayed-truncation checks ------------------------------------------------

@dataclass
class SeriesCheckReport:
    worst_action: float
    worst_imaginary_action: float
    worst_period: float
    worst_imaginary_period: float


def pendulum_series_check() -> SeriesCheckReport:
    """Evaluate the cubic-order expansions against the closed branch formulas.

    The expansions of 2 pi I, J, T and U at |h| -> 0 are produced exactly
    from the logarithmic series engine (both branches share them) and
    compared at h = +-0.05, +-0.1, +-0.2; the report holds the largest
    error of each, which shrinks like the first omitted order.
    """
    order = 3
    h_values = (0.05, -0.05, 0.1, -0.1, 0.2, -0.2)
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
    return SeriesCheckReport(*worst)
