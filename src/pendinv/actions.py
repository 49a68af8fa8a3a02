"""Action integrals and everything derived from them.

The non-trivial action over the real cycle, the imaginary action over the
vanishing cycle (numeric contour and exact series), the Birkhoff normal
form by series inversion, the semi-global symplectic invariant extracted
by a high-precision fit, rotation number, reduced period, twist and the
monodromy continuation.

Scaled units throughout: energy h vanishes at the unstable equilibrium,
j2 is the angular momentum, and hat-j = j1 + i j2 collects the local
normal-form coordinates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

from .elliptic import (DomainError, EllipticData, EnergyMomentum,
                       _discriminant, _gaps, _lambda0, carlson_rf, carlson_rj,
                       cubic_roots, ellint_E, ellint_K)
from .quadrature import tanh_sinh
from .series import Series, binom_frac

LN32 = math.log(32.0)
TWO_PI = 2 * math.pi


class ConsistencyError(ArithmeticError):
    """Two routes that must agree exactly disagreed (build-breaking)."""


class ContourGeometryError(ValueError):
    """Integration contour would touch another branch point."""


class FitQualityError(ArithmeticError):
    """Least-squares residual above the acceptable threshold."""


@dataclass
class ActionValue:
    """A computed action and the route that produced it."""

    value: float
    method: str           # lambda0 | quadrature | contour

    @property
    def two_pi(self) -> float:
        return TWO_PI * self.value


@dataclass(frozen=True)
class ComplexJ:
    """The complex local coordinate j1 + i j2 with its principal argument."""

    j1: float
    j2: float

    @property
    def value(self) -> complex:
        return complex(self.j1, self.j2)

    @property
    def modulus(self) -> float:
        return math.hypot(self.j1, self.j2)

    @property
    def arg(self) -> float:
        """Principal value in (-pi, pi]: +pi on the negative j1 axis.

        For tiny j2 < 0 the angle rounds to -pi, its limit from below the
        axis, and stays there; only j2 == 0 (either sign of zero) gives +pi.
        """
        return math.atan2(self.j2 if self.j2 != 0 else 0.0, self.j1)


# -- exact series for the imaginary action ----------------------------------

@lru_cache(maxsize=None)
def J1_series(order: int = 10) -> Series:
    """Imaginary action as an exact series in (h, j2), even in j2.

    Degree-n coefficients come from the residue at the double point of the
    expanded action differential: writing the radicand as its critical
    value plus corrections and expanding the square root, each term is a
    rational multiple of a power of (1 + zeta)^(-1/2), whose derivatives at
    the pole close in rational arithmetic.  The vanishing cycle is
    traversed twice, and its orientation is fixed so the leading term is
    +h.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    terms: dict[tuple[int, int], Fraction] = {}
    half = Fraction(1, 2)
    for n in range(1, order + 1):
        for k in range(0, n // 2 + 1):
            c = (binom_frac(half, n - k)
                 * math.comb(n - k, k)
                 * Fraction((-1) ** (n - k))
                 * Fraction(1, 4 ** k)
                 * binom_frac(Fraction(-2 * k - 1, 2), n - 1)
                 * Fraction(1, 2 ** (n - 1)))
            c = Fraction(-2) * c
            if c != 0:
                terms[(n - 2 * k, 2 * k)] = terms.get((n - 2 * k, 2 * k), Fraction(0)) + c
    return Series(order, ("h", "j2"), terms)


@lru_cache(maxsize=None)
def birkhoff_series(degree: int = 5) -> Series:
    """H(j1, j2) as the exact compositional inverse of the J1 series."""
    return J1_series(degree).invert().relabel(("j1", "j2"))


def birkhoff_by_inversion(order: int = 10) -> Series:
    """Normal form through grade `order` (total degree order/2) by inversion.

    Must agree coefficient-for-coefficient with the Lie-series route; the
    comparison lives in `verify_birkhoff_equivalence`.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    return birkhoff_series(order // 2)


def verify_birkhoff_equivalence(order: int = 10) -> Series:
    """Exact equality of the Lie route and the inversion route.

    Raises ConsistencyError on any coefficient mismatch; returns the
    common series.
    """
    from .normalform import lie_normalize

    lie = lie_normalize(order)
    inv = birkhoff_by_inversion(order)
    if lie != inv:
        raise ConsistencyError(
            f"normal form mismatch at order {order}: "
            f"lie={sorted(lie.terms().items())} inversion={sorted(inv.terms().items())}")
    return lie


@lru_cache(maxsize=None)
def A_series(order: int = 9) -> Series:
    """Frequency-ratio series A(j1, j2), two exact routes cross-checked.

    Route one is the ratio of partials of the normal form; route two
    differentiates the imaginary-action series with respect to j2 and
    substitutes the normal form (with the sign demanded by implicit
    differentiation of J1(H(j1, j2), j2) = j1).  Exact disagreement raises.
    """
    h_series = birkhoff_series(order + 1)
    num = h_series.partial(1)
    den = h_series.partial(0)
    route_ratio = (num * den.reciprocal()).truncate(order)

    dj1 = J1_series(order + 1).partial(1)
    route_subst = (-dj1.compose(h_series.relabel(("j1", "j2")))
                   ).truncate(order).relabel(("j1", "j2"))
    if route_ratio != route_subst:
        raise ConsistencyError("frequency-ratio routes disagree")
    return route_ratio


# -- numeric action over the real cycle --------------------------------------

def _cubic_roots_mp(h, j2, prec: int) -> EllipticData:
    """`cubic_roots` to `prec` bits, in mpf: the float gaps polished by the
    same solver.

    Raises DomainError outside the image of the momentum map.
    """
    eps2 = cubic_roots(EnergyMomentum(float(h), float(j2))).eps2
    with mp.workprec(prec + 20):
        hh, jj = mp.mpf(h), mp.mpf(j2)
        # the float eps2 is 0 only where j2^2 underflows (h <= 0); |j2|/2
        # lies above the root there, where 0 is a flat start for h = 0
        start = mp.mpf(eps2) or abs(jj) / 2
        return EllipticData.from_gaps(*_gaps(
            hh, jj, start, mp.sqrt(mp.eps), _discriminant(hh, jj),
            lambda n, d: mp.sqrt(mp.mpf(n) / d)))


def _two_pi_I1(h, j2, d: EllipticData, lib, complete, lambda0):
    """2 pi I1 in the Lambda0 form, from the gaps in `d`.

    2 pi I1 = 2 pi [c0 (c1~ K + span E) - |j2|/2 Lambda0(phi, k)] with
    c0 = 4 / (pi sqrt(2 span)).  The same code runs on floats and on mpf:
    `lib` (math or mpmath) gives sqrt, atan2 and pi of the working type,
    `complete(mc)` returns (K, E) and `lambda0(phi, mc, K, E)` Heuman's
    Lambda0 for 0 <= phi <= pi/2, all at the complementary parameter mc =
    k'^2 = d.kcsq.  By Vieta sin^2 phi = zeta2 (1 + zeta0 zeta1) / (zeta2 -
    zeta1) and cos^2 phi = zeta1^2 (zeta0 + zeta2) / (zeta2 - zeta1); cos
    phi has the sign of -zeta1, so for zeta1 > 0 the angle is pi minus the
    one taken here and Lambda0(pi - x) = 2 - Lambda0(x).  On the axis the
    Lambda0 term vanishes (F may be infinite there, at h = -2).  At mc = 0,
    the critical value or where the float k'^2 underflows, K diverges and
    the result is the limit 8, whose error O(|j| ln |j|) is below rounding.
    """
    if d.kcsq == 0:
        return d.kcsq + 8                            # in the working type
    delta0, eps1, eps2, span = d.delta0, d.eps1, d.eps2, d.span
    K, E = complete(d.kcsq)
    inner = (1 + eps2) * (delta0 + eps1 * (1 - delta0))  # zeta2 (1 + zeta0 zeta1)
    c1_tilde = (h - eps2 - j2 * j2 / (4 * (2 + eps2))
                - abs(j2) / 2 * lib.sqrt(eps2 * inner / (2 * (2 + eps2))))
    total = 4 / (lib.pi * lib.sqrt(2 * span)) * (c1_tilde * K + span * E)
    if j2 != 0:
        phi = lib.atan2(lib.sqrt(inner), abs(1 - eps1) * lib.sqrt(delta0 + eps2))
        lam = lambda0(phi, d.kcsq, K, E)
        total -= abs(j2) / 2 * (2 - lam if eps1 < 1 else lam)
    return 2 * lib.pi * total


def _complete(mc: float) -> tuple[float, float]:
    return ellint_K(mc), ellint_E(mc)


def _complete_mp(mc):
    """K by the AGM, and E by the imaginary-modulus transformation E(k) =
    k' E(i k / k') (DLMF 19.7.5), whose parameter 1 - 1/mc keeps its
    digits for small mc."""
    return mp.pi / (2 * mp.agm(1, mp.sqrt(mc))), mp.sqrt(mc) * mp.ellipe(1 - 1 / mc)


def _lambda0_mp(phi, mc, K, E):
    return 2 / mp.pi * (K * mp.ellipe(phi, mc) - (K - E) * mp.ellipf(phi, mc))


def two_pi_I1_closed(h, j2, prec: int = 53):
    """2*pi*I1 at `prec` bits from the Lambda0 form that `action_I1` uses.

    The formula of `_two_pi_I1` runs at `prec + 20` bits on the gaps of
    `_cubic_roots_mp`, with mpmath's elliptic integrals; returns an mpf.
    """
    d = _cubic_roots_mp(h, j2, prec)
    with mp.workprec(prec + 20):
        return _two_pi_I1(mp.mpf(h), mp.mpf(j2), d, mp, _complete_mp, _lambda0_mp)


def two_pi_I1_quadrature(h, j2, prec: int = 53, max_level: int = 12):
    """2*pi*I1 by tanh-sinh quadrature of the defining integral.

    The real cycle covers [zeta0, zeta1] twice, so 2 pi I1 equals twice the
    plain integral of sqrt(P)/(1 - zeta^2).  Endpoint inverse square roots
    and the near-axis pole just outside the interval are resolved by the
    double-exponential transform.  Returns (value, error_estimate) as mpf.
    """
    d = _cubic_roots_mp(h, j2, prec)
    with mp.workprec(prec + 20):
        hh = mp.mpf(h)
        jj = mp.mpf(j2)

        def integrand(z):
            p = 2 * (1 - z * z) * (hh + 1 - z) - jj * jj
            if p <= 0:
                return mp.mpf(0)
            return mp.sqrt(p) / (1 - z * z)

        val, err = tanh_sinh(integrand, d.zeta0, d.zeta1, prec=prec,
                             max_level=max_level)
        return 2 * val, 2 * err


def action_I1(em: EnergyMomentum, method: str = "lambda0",
              prec: int = 53) -> ActionValue:
    """Non-trivial action I1(h, j2); `two_pi` on the result gives 2 pi I1.

    "lambda0" evaluates the closed Lambda0 form (`_two_pi_I1`, the formula
    of `two_pi_I1_closed`) in floats on the whole image, within about
    1e-14 (1 + |2 pi I1|); "quadrature" integrates the defining integral
    at `prec` bits, the independent oracle.
    """
    if method == "quadrature":
        val, _ = two_pi_I1_quadrature(em.h, em.j2, prec=prec)
        return ActionValue(float(val) / TWO_PI, "quadrature")
    if method != "lambda0":
        raise ValueError(f"unknown method {method!r}")
    two_pi = _two_pi_I1(em.h, em.j2, cubic_roots(em), math, _complete, _lambda0)
    return ActionValue(two_pi / TWO_PI, "lambda0")


# -- numeric imaginary action over the vanishing cycle -----------------------

def action_J1_numeric(em: EnergyMomentum, panels_per_unit: int = 0,
                      nodes: int = 16) -> ActionValue:
    """J1 by complex contour quadrature around [zeta1, zeta2].

    A rectangle with clearance delta = min(0.1, zeta1 - zeta0)/4 encloses
    the doubled vanishing cycle; the square-root branch is tracked by
    continuity along Gauss-Legendre panels.  The result times the cycle
    orientation is real; an imaginary residue above 1e-10 raises.
    """
    h, j2 = em.h, em.j2
    data = cubic_roots(em)
    z1, z2 = data.zeta1, data.zeta2
    if z2 - z1 < 1e-14:
        return ActionValue(0.0, "contour")
    clearance = min(z1 - data.zeta0, z1 + 1)
    if clearance <= 0:
        raise ContourGeometryError(
            f"no room between zeta1 = {z1} and the next branch point")
    delta = min(0.1, clearance) / 4

    corners = [complex(z2 + delta, 0.0),
               complex(z2 + delta, delta),
               complex(z1 - delta, delta),
               complex(z1 - delta, -delta),
               complex(z2 + delta, -delta),
               complex(z2 + delta, 0.0)]
    gl_x, gl_w = np.polynomial.legendre.leggauss(nodes)

    def poly(z: complex) -> complex:
        return 2 * (1 - z * z) * (h + 1 - z) - j2 * j2

    total = 0.0 + 0.0j
    w_prev = cmath.sqrt(poly(corners[0]))  # real positive right of zeta2
    for start, end in zip(corners[:-1], corners[1:]):
        seg = end - start
        length = abs(seg)
        n_panels = max(4, int(math.ceil(length / (delta / 2))))
        for p in range(n_panels):
            a = start + seg * (p / n_panels)
            b = start + seg * ((p + 1) / n_panels)
            mid = (a + b) / 2
            half = (b - a) / 2
            for x, wq in zip(gl_x, gl_w):
                z = mid + half * x
                w = cmath.sqrt(poly(z))
                if abs(w - w_prev) > abs(w + w_prev):
                    w = -w
                w_prev = w
                total += wq * half * w / (1 - z * z)
    # Doubled cycle: J1 = 2 * contour / (2 pi i); the counterclockwise
    # orientation with the branch anchored positive right of zeta2 already
    # gives the sign of h near the origin.
    value = 2 * total / (2j * math.pi)
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise ConsistencyError(f"contour result not real: {value}")
    return ActionValue(value.real, "contour")


# -- rotation number and period ----------------------------------------------

def rotation_W_numeric(em: EnergyMomentum) -> float:
    """Rotation number -dI1/dj2 from complete elliptic integrals.

    Odd in j2; on the axis the continuity limits are +1 (h > 0) and +1/2
    (h < 0).  -dI1/dj2 = pref (Pi(n+) / (1 - zeta0) + Pi(n-) / (1 +
    zeta0)) with pref = j2 / (pi sqrt(2 span)), span = zeta2 - zeta0; the
    pairing is pinned by the finite-difference oracle in the tests.  A
    term whose characteristic nears its pole as j2 -> 0 is rewritten with
    Pi(n) + Pi(k^2/n) = K + (pi/2) sqrt(n / ((1 - n)(n - k^2))): by Vieta
    (2 delta0 delta1 (2 + eps2) = j2^2 = 2 (1 - zeta0) eps1 eps2) the pole
    part times pref is exactly sgn(j2)/2, and one R_J is left.  That is
    always done for n- = -width / delta0, and for n+ where 1 - k^2/n+ =
    eps2 / span exceeds 1 - n+ = eps1 / (1 - zeta0), as for h > 0 near the
    axis, where eps1 may underflow.  Within 1e-20 of the critical value the
    result is the limit sgn(j2) - arg(h + i j2) / (2 pi), whose error
    O(|j| ln|j|) is below rounding; the float R_J would underflow there.
    """
    data = cubic_roots(em)
    h, j2 = em.h, em.j2
    if j2 == 0.0:
        if h == 0.0:
            raise DomainError("rotation number undefined at the critical value")
        return 1.0 if h > 0 else 0.5
    if math.hypot(h, j2) < 1e-20:
        return math.copysign(1.0, j2) - math.atan2(j2, h) / TWO_PI
    span, kcsq = data.span, data.kcsq
    pref = j2 / (math.pi * math.sqrt(2 * span))
    half = math.copysign(0.5, j2)
    w = half + pref * carlson_rj(0.0, kcsq, 1.0, 1 + data.delta0 / span) / (3 * span)
    one_minus_z0 = 2.0 - data.delta0
    p_plus = data.eps1 / one_minus_z0                # 1 - n+
    if data.eps2 / span > p_plus:
        return w + half - pref * carlson_rj(0.0, kcsq, 1.0, data.eps2 / span) / (3 * span)
    pi_plus = (carlson_rf(0.0, kcsq, 1.0)
               + (1 - p_plus) / 3 * carlson_rj(0.0, kcsq, 1.0, p_plus))
    return w + pref * pi_plus / one_minus_z0


def period_T_numeric(em: EnergyMomentum) -> float:
    """Reduced period 2 pi dI1/dh = 2 sqrt(2) K(k) / sqrt(zeta2 - zeta0).

    K = R_F(0, k'^2, 1) takes the complementary parameter k'^2 =
    (eps1 + eps2) / (zeta2 - zeta0) from the gaps, so it keeps its digits
    next to the critical value, where k^2 itself rounds to 1.  Where k'^2
    underflows there, the result is the separatrix asymptote ln(32 / |h +
    i j2|).
    """
    data = cubic_roots(em)
    if data.kcsq == 0:
        if em.h == 0.0 and em.j2 == 0.0:
            raise DomainError("period diverges on the separatrix")
        return LN32 - math.log(math.hypot(em.h, em.j2))
    return 2 * math.sqrt(2.0) * carlson_rf(0.0, data.kcsq, 1.0) / math.sqrt(data.span)


def rotation_W_fd(em: EnergyMomentum, step: float = 1e-5, prec: int = 120) -> float:
    """Finite-difference oracle -dI1/dj2 via extended-precision quadrature."""
    h, j2 = em.h, em.j2
    up, _ = two_pi_I1_quadrature(h, j2 + step, prec=prec)
    dn, _ = two_pi_I1_quadrature(h, j2 - step, prec=prec)
    return float(-(up - dn) / (2 * step) / TWO_PI)


def period_T_fd(em: EnergyMomentum, step: float = 1e-5, prec: int = 120) -> float:
    """Finite-difference oracle 2 pi dI1/dh."""
    h, j2 = em.h, em.j2
    up, _ = two_pi_I1_quadrature(h + step, j2, prec=prec)
    dn, _ = two_pi_I1_quadrature(h - step, j2, prec=prec)
    return float((up - dn) / (2 * step))


# -- invariant model ----------------------------------------------------------

def _known_invariant_terms(order: int = 4) -> dict[tuple[int, int], Fraction]:
    """Exact low-order invariant coefficients (beyond the j1*ln 32 term).

    The pure-j1 column is rederived exactly by the pendulum route
    (pendulum.invariant_series_exact); mixed terms are pinned by
    fit_invariant_S.  Both validations live in the test suite.
    """
    table = {
        (2, 0): Fraction(3, 32), (0, 2): Fraction(9, 32),
        (3, 0): Fraction(-5, 512), (1, 2): Fraction(-51, 512),
        (4, 0): Fraction(55, 32768), (2, 2): Fraction(1230, 32768),
        (0, 4): Fraction(271, 32768),
    }
    return {k: v for k, v in table.items() if k[0] + k[1] <= order}


@lru_cache(maxsize=None)
def invariant_polynomial(order: int = 4) -> Series:
    """Polynomial part of S (degrees >= 2), exact, in (j1, j2)."""
    if order > 4:
        raise ValueError("exact invariant coefficients available through degree 4")
    return Series(order, ("j1", "j2"), _known_invariant_terms(order))


def _require_finite(j1: float, j2: float) -> None:
    if not (math.isfinite(j1) and math.isfinite(j2)):
        raise DomainError(f"non-finite coordinate ({j1}, {j2})")


def two_pi_I1_model(j1: float, j2: float, s_order: int = 4) -> float:
    """2 pi I1 from the normal-form model: singular terms plus invariant."""
    _require_finite(j1, j2)
    jc = ComplexJ(j1, j2)
    if jc.modulus == 0.0:
        return 8.0
    s_val = LN32 * j1 + invariant_polynomial(s_order).evaluate(j1, j2)
    return (8.0 - TWO_PI * abs(j2) + j2 * jc.arg - j1 * math.log(jc.modulus)
            + j1 + s_val)


def two_pi_I1_energy_expansion(h: float, j2: float) -> float:
    """Displayed truncation of 2 pi I1 directly in (h, j2).

    The degree-three regular term is a rational function of (h, j2) and is
    evaluated exactly as written; the remainder is O(rho^4).
    """
    rho_sq = h * h + j2 * j2
    if rho_sq == 0.0:
        return 8.0
    j1 = float(J1_series(4).evaluate(h, j2))
    val = (8.0 - TWO_PI * abs(j2) + j2 * math.atan2(j2, h)
           + j1 * math.log(32 / math.sqrt(rho_sq))
           + h + Fraction(3, 32) * (h * h + 3 * j2 * j2)
           - h / (256 * rho_sq) * (6 * h ** 4 + 43 * j2 * j2 * h * h + 39 * j2 ** 4))
    return float(val)


def rotation_W_model(j1: float, j2: float, s_order: int = 4,
                     a_order: int = 9) -> float:
    """Model rotation number from the invariant and frequency ratio.

    2 pi W = 2 pi sgn j2 - Arg - A ln|j| + A S1 - S2, with sgn 0 := +1 so
    the axis values are the limits from above (+1 for j1 > 0, +1/2 for
    j1 < 0).
    """
    _require_finite(j1, j2)
    jc = ComplexJ(j1, j2)
    if jc.modulus == 0.0:
        raise DomainError("rotation number undefined at the origin")
    if jc.modulus > 1.0:
        raise DomainError("model restricted to |j| <= 1")
    sgn = 1.0 if j2 >= 0 else -1.0
    a_val = float(A_series(a_order).evaluate(j1, j2))
    poly = invariant_polynomial(s_order)
    s1 = LN32 + float(poly.partial(0).evaluate(j1, j2))
    s2 = float(poly.partial(1).evaluate(j1, j2))
    two_pi_w = (TWO_PI * sgn - jc.arg - a_val * math.log(jc.modulus)
                + a_val * s1 - s2)
    return two_pi_w / TWO_PI


def period_T_model(j1: float, j2: float, s_order: int = 4) -> float:
    """Model reduced period (-ln|j| + S1) / (dH/dj1)."""
    _require_finite(j1, j2)
    rho = math.hypot(j1, j2)
    if rho == 0.0 or rho > 1.0:
        raise DomainError("model restricted to 0 < |j| <= 1")
    poly = invariant_polynomial(s_order)
    s1 = LN32 + float(poly.partial(0).evaluate(j1, j2))
    h1 = float(birkhoff_series(8).partial(0).evaluate(j1, j2))
    return (-math.log(rho) + s1) / h1


def energy_of_j(j1: float, j2: float, degree: int = 10) -> float:
    """Scaled energy h = H(j1, j2) from the normal form."""
    _require_finite(j1, j2)
    return float(birkhoff_series(degree).evaluate(j1, j2))


def j1_of_energy(h: float, j2: float, degree: int = 12) -> float:
    """Local normal-form coordinate j1 = J1(h, j2) from the exact series.

    Raises DomainError outside the image of the momentum map.
    """
    cubic_roots(EnergyMomentum(h, j2))
    return float(J1_series(degree).evaluate(h, j2))


# -- high-precision fit of the invariant --------------------------------------

@dataclass
class InvariantSeries:
    """Fitted invariant: coefficients, diagnostics and the exact snap."""

    coefficients: dict
    order: int
    precision: int
    samples: int
    residual_max: float
    residual_rms: float
    ln32_error: float
    reference_errors: dict
    snapped: Series = field(repr=False)
    oracle_samples: int                # samples also taken by quadrature
    oracle_max_diff: float             # largest |closed form - quadrature|
    i10_two_pi: float = 8.0


def fit_invariant_S(order: int = 10, precision: int = 256,
                    samples: int = 160, radii: tuple | None = None,
                    h_degree: int = 14, max_level: int = 12) -> InvariantSeries:
    """Fit the polynomial invariant from high-precision action values.

    Samples (j1, j2) on concentric circles (axis neighbourhoods of width
    1e-3 excluded), maps to energy through the high-order normal form,
    evaluates 2 pi I1 in closed form (`two_pi_I1_closed`) at `precision`
    bits, subtracts the universal singular terms exactly, and solves the
    overdetermined Vandermonde system by QR least squares at the same
    precision.  On each circle the sample nearest the j2 = 0 axis, where
    the near-axis pole of the integrand is closest, is also integrated by
    tanh-sinh quadrature (`precision` bits, `max_level`); a difference
    above the quadrature's own stopping tolerance 2^(10 - precision) (1 +
    |2 pi I1|) raises ConsistencyError, and the number of checked samples
    and the largest difference are reported.  Raises FitQualityError when
    the residual exceeds 1e-3 times the smallest reference coefficient.

    Polynomials of the form j1 * prod_i (j1^2 + j2^2 - r_i^2) respect the
    parity of the column set and vanish on every sampled circle, so the
    system is rank-deficient unless order <= 2 * len(radii); five circles
    cover the default order 10.
    """
    if radii is None:
        # low-order fits need tighter circles or the truncation tail of the
        # invariant itself dominates the residual
        radii = (0.08, 0.14, 0.2, 0.26, 0.32) if order >= 7 \
            else (0.05, 0.09, 0.13, 0.17)
    h_series = birkhoff_series(h_degree)
    monomials = [(a, b) for d in range(1, order + 1)
                 for b in range(0, d + 1, 2)
                 for a in [d - b]]
    if order > 2 * len(radii):
        raise ValueError(
            f"{len(radii)} circles leave a kernel for degree {order}; "
            f"need at least {math.ceil(order / 2)} distinct radii")
    # midpoint angle grids alias the top cosine harmonic when too coarse
    per_circle = max(2 * order + 3, samples // len(radii))
    points: list[tuple[float, float]] = []
    checked = set()                    # per circle, the sample nearest the axis
    for r in radii:
        angles = (2 * math.pi * (i + 0.5) / per_circle for i in range(per_circle))
        circle = [(r * math.cos(ang), r * math.sin(ang)) for ang in angles]
        circle = [(j1, j2) for (j1, j2) in circle if abs(j2) >= 1e-3]
        checked.add(len(points) + min(range(len(circle)),
                                      key=lambda i: abs(circle[i][1])))
        points.extend(circle)

    with mp.workprec(precision + 20):
        rows = []
        rhs = []
        oracle_diff = mp.mpf(0)
        for index, (j1, j2) in enumerate(points):
            j1m = mp.mpf(j1)
            j2m = mp.mpf(j2)
            h = h_series.evaluate(j1m, j2m, prec=precision + 20)
            two_pi_i1 = two_pi_I1_closed(h, j2m, prec=precision)
            if index in checked:
                quad, _ = two_pi_I1_quadrature(h, j2m, prec=precision,
                                               max_level=max_level)
                diff = abs(two_pi_i1 - quad)
                if diff > mp.mpf(2) ** (10 - precision) * (1 + abs(quad)):
                    raise ConsistencyError(
                        f"closed-form action off quadrature by {float(diff):.3e} "
                        f"at (j1, j2) = ({j1!r}, {j2!r})")
                oracle_diff = max(oracle_diff, diff)
            rho = mp.sqrt(j1m * j1m + j2m * j2m)
            singular = (8 - 2 * mp.pi * abs(j2m) + j2m * mp.atan2(j2m, j1m)
                        - j1m * mp.log(rho) + j1m)
            rhs.append(two_pi_i1 - singular)
            rows.append([j1m ** a * j2m ** b for (a, b) in monomials])
        A = mp.matrix(rows)
        b = mp.matrix(rhs)
        try:
            sol, _res = mp.qr_solve(A, b)
        except (ZeroDivisionError, ValueError) as exc:
            raise FitQualityError(f"degenerate fit system: {exc}") from exc
        coeffs = {mono: sol[i] for i, mono in enumerate(monomials)}
        resid = A * sol - b
        residual_max = float(max(abs(x) for x in resid))
        residual_rms = float(mp.sqrt(sum(x * x for x in resid) / len(resid)))
        ln32_error = float(abs(coeffs[(1, 0)] - mp.log(32)))

    reference = _known_invariant_terms(4)
    reference_errors = {
        mono: float(abs(coeffs[mono] - mp.mpf(frac.numerator) / frac.denominator))
        for mono, frac in reference.items()
    }
    threshold = 1e-3 * min(abs(float(f)) for f in reference.values())
    if residual_max > threshold:
        raise FitQualityError(
            f"fit residual {residual_max:.3e} above threshold {threshold:.3e}")
    if order >= 6:
        # low-order fits on wide annuli carry visible truncation bias; the
        # reference comparison is only binding once the model can resolve it
        for mono, err in reference_errors.items():
            if err > 1e-6:
                raise FitQualityError(
                    f"fitted coefficient {mono} off the reference value by {err:.3e}")
        if ln32_error > 1e-6:
            raise FitQualityError(f"linear coefficient off ln 32 by {ln32_error:.3e}")

    return InvariantSeries(
        coefficients={k: float(v) for k, v in coeffs.items()},
        order=order, precision=precision, samples=len(points),
        residual_max=residual_max, residual_rms=residual_rms,
        ln32_error=ln32_error, reference_errors=reference_errors,
        snapped=invariant_polynomial(4), oracle_samples=len(checked),
        oracle_max_diff=float(oracle_diff))


# -- twist ---------------------------------------------------------------------

def _model_pieces(j1: float, j2: float, s_order: int = 4, a_order: int = 9):
    poly = invariant_polynomial(s_order)
    a_ser = A_series(a_order)
    a = float(a_ser.evaluate(j1, j2))
    a1 = float(a_ser.partial(0).evaluate(j1, j2))
    a2 = float(a_ser.partial(1).evaluate(j1, j2))
    s1 = LN32 + float(poly.partial(0).evaluate(j1, j2))
    s2 = float(poly.partial(1).evaluate(j1, j2))
    s11 = float(poly.partial(0).partial(0).evaluate(j1, j2))
    s12 = float(poly.partial(0).partial(1).evaluate(j1, j2))
    s22 = float(poly.partial(1).partial(1).evaluate(j1, j2))
    return a, a1, a2, s1, s2, s11, s12, s22


def twist(j1: float, j2: float) -> float:
    """Isoenergetic twist dW/dj2 at constant energy, from the model.

    T = -A W1 + W2 with Wi the partials of the rotation number; the
    singular pieces differentiate in closed form, the series pieces
    symbolically.
    """
    _require_finite(j1, j2)
    rho_sq = j1 * j1 + j2 * j2
    if rho_sq == 0.0:
        raise DomainError("twist undefined at the origin")
    a, a1, a2, s1, s2, s11, s12, s22 = _model_pieces(j1, j2)
    lnr = 0.5 * math.log(rho_sq)
    two_pi_w1 = (j2 / rho_sq - a1 * lnr - a * j1 / rho_sq
                 + a1 * s1 + a * s11 - s12)
    two_pi_w2 = (-j1 / rho_sq - a2 * lnr - a * j2 / rho_sq
                 + a2 * s1 + a * s12 - s22)
    return (-a * two_pi_w1 + two_pi_w2) / TWO_PI


def twistless_curve(r: float, tol: float = 1e-12) -> float:
    """Polar angle s (from the positive j2 axis) where the twist vanishes.

    Solves T(r sin s, r cos s) = 0 on (-pi/2, pi/2) by bracketed
    bisection; raises if the bracket does not change sign.
    """
    if not 0 < r <= 1:
        raise DomainError("radius must lie in (0, 1]")
    eps = 1e-9

    def f(s: float) -> float:
        return twist(r * math.sin(s), r * math.cos(s))

    lo, hi = -math.pi / 2 + eps, math.pi / 2 - eps
    flo, fhi = f(lo), f(hi)
    if flo * fhi > 0:
        raise DomainError(f"no sign change of the twist on the half circle r={r}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0 or hi - lo < tol:
            return mid
        if flo * fm < 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def W_star(r: float) -> float:
    """Rotation number evaluated on the twistless curve at radius r."""
    s = twistless_curve(r)
    return rotation_W_model(r * math.sin(s), r * math.cos(s))


def W_star_approx(r: float) -> float:
    """Leading small-radius approximation 3/4 + 3r/(8 pi) (ln(32/r) - 5/2)."""
    return 0.75 + 3 * r / (8 * math.pi) * (math.log(32 / r) - 2.5)


# -- monodromy -----------------------------------------------------------------

@dataclass
class MonodromyResult:
    mu: int
    raw: float
    radius: float
    steps: int
    orientation: int


def monodromy_check(radius: float = 0.3, steps: int = 720,
                    orientation: int = +1) -> MonodromyResult:
    """Continuation of the smooth action branch around the critical value.

    Follows 2 pi I1 along the circle of `radius` in (h, j2), removing the
    |j2| and principal-argument convention jumps by continuous unwrapping;
    the net increment is an integer multiple of the starting 2 pi j2, and
    that integer (forced to satisfy |mu| = 1) is returned with its sign.
    The loop starts at (0, radius) so the increment is measured against a
    nonzero j2.
    """
    if radius <= 0:
        raise DomainError("radius must be positive")
    j1s = J1_series(14)

    def corrected(theta: float, phi_prev: float | None) -> tuple[float, float]:
        h = radius * math.cos(theta)
        j2 = radius * math.sin(theta)
        two_pi_i1 = action_I1(EnergyMomentum(h, j2)).two_pi
        j1 = float(j1s.evaluate(h, j2))
        phi = math.atan2(j2, j1)
        if phi_prev is not None:
            while phi - phi_prev > math.pi:
                phi -= TWO_PI
            while phi - phi_prev < -math.pi:
                phi += TWO_PI
        value = (two_pi_i1 + TWO_PI * abs(j2)
                 + j2 * (phi - math.atan2(j2, j1)))
        return value, phi

    start = math.pi / 2
    j2_start = radius
    theta_list = [start + orientation * TWO_PI * i / steps for i in range(steps + 1)]
    phi = None
    first_value = None
    for theta in theta_list:
        value, phi = corrected(theta, phi)
        if first_value is None:
            first_value = value
    delta = value - first_value
    raw = delta / (TWO_PI * j2_start)
    mu = round(raw)
    if abs(raw - mu) > 0.05:
        raise ConsistencyError(f"monodromy increment {raw} not close to an integer")
    if abs(mu) != 1:
        raise ConsistencyError(f"|mu| = {abs(mu)} != 1")
    return MonodromyResult(mu=mu, raw=raw, radius=radius, steps=steps,
                           orientation=orientation)


# -- rotation-number expansion in (h, j2) -------------------------------------

def two_pi_W_energy_expansion(h: float, j2: float) -> float:
    """Displayed small-(h, j2) expansion of 2 pi W, rational terms as written."""
    rho_sq = h * h + j2 * j2
    if rho_sq == 0.0 or j2 == 0.0:
        raise DomainError("expansion needs j2 != 0")
    sgn = 1.0 if j2 > 0 else -1.0
    ln_term = (3 / 8 * j2 * (1 - 5 / 16 * h + 35 / 256 * rho_sq)
               * math.log(32 / math.sqrt(rho_sq)))
    return (TWO_PI * sgn - math.atan2(j2, h) + ln_term
            - j2 / 8 * (5 * h * h + 6 * j2 * j2) / rho_sq
            + j2 * h / 256 * (77 * h ** 4 + 174 * j2 * j2 * h * h + 93 * j2 ** 4) / rho_sq ** 2)


@dataclass
class RotationExpansionReport:
    ln_coefficient_ok: bool
    a_series_ok: bool
    worst_numeric: float
    grid: list

    @property
    def passed(self) -> bool:
        return self.ln_coefficient_ok and self.a_series_ok and self.worst_numeric < 1e-5


def rotation_expansion_check(rho_values=(0.03, 0.05, 0.07), n_angles: int = 8,
                             a_order: int = 9) -> RotationExpansionReport:
    """Cross-check the rotation-number expansion against the elliptic route.

    Verifies exactly that the logarithm coefficient equals -dJ1/dj2, that
    substituting the normal form reproduces the frequency-ratio series, and
    numerically that the displayed expansion tracks the elliptic-integral
    rotation number on a small grid.
    """
    # ln-coefficient: -(dJ1/dj2) == (3/8) j2 (1 - (5/16) h + (35/256) rho^2)
    dj1 = J1_series(4).partial(1)
    h_v = Series.variable(0, 3, ("h", "j2"))
    j2_v = Series.variable(1, 3, ("h", "j2"))
    rho2 = h_v * h_v + j2_v * j2_v
    displayed = (j2_v.scale(Fraction(3, 8))
                 * (Series.constant(1, 3, ("h", "j2"))
                    - h_v.scale(Fraction(5, 16)) + rho2.scale(Fraction(35, 256))))
    ln_ok = (-dj1).truncate(3) == displayed

    # substitution reproduces the frequency ratio
    a_direct = A_series(a_order)
    h_series = birkhoff_series(a_order + 1)
    a_subst = (-J1_series(a_order + 1).partial(1)
               .compose(h_series.relabel(("j1", "j2")))
               ).truncate(a_order).relabel(("j1", "j2"))
    a_ok = a_subst == a_direct

    worst = 0.0
    grid = []
    for rho in rho_values:
        for i in range(n_angles):
            ang = math.pi * (i + 0.5) / n_angles  # j2 > 0 half
            h = rho * math.cos(ang)
            j2 = rho * math.sin(ang)
            w_num = rotation_W_numeric(EnergyMomentum(h, j2))
            w_exp = two_pi_W_energy_expansion(h, j2) / TWO_PI
            err = abs(w_num - w_exp)
            grid.append((h, j2, err))
            worst = max(worst, err)
    return RotationExpansionReport(ln_coefficient_ok=ln_ok, a_series_ok=a_ok,
                          worst_numeric=worst, grid=grid)


# -- model error sweep ---------------------------------------------------------

def model_error_sweep(radius: float, n_radii: int = 5, n_angles: int = 40,
                      s_order: int = 4, j1_order: int | None = 4) -> float:
    """Max |2 pi I1 (elliptic) - 2 pi I1 (model)| over a polar grid.

    The model is the degree-`s_order` invariant evaluated at a coordinate
    j1 obtained from (h, j2) by one of two routes:

    * `j1_order=n` (default 4, the displayed order): the degree-n
      imaginary-action series J1_series(n).  The error then mixes the
      truncation of the invariant with that of the coordinate series.
    * `j1_order=None`: the exact Eliasson coordinate, the elliptic
      integral over the vanishing cycle computed by `action_J1_numeric`
      (contour route).  The error is then that of the invariant alone.

    The result is in 2 pi units; divide by 2 pi for units of the action.
    Grid points outside the regular region are skipped.
    """
    worst = 0.0
    j1s = None if j1_order is None else J1_series(j1_order)
    for i in range(1, n_radii + 1):
        rho = radius * i / n_radii
        for k in range(n_angles):
            ang = TWO_PI * (k + 0.5) / n_angles
            h = rho * math.cos(ang)
            j2 = rho * math.sin(ang)
            em = EnergyMomentum(h, j2)
            try:
                numeric = action_I1(em).two_pi
            except DomainError:
                continue
            if j1s is None:
                j1 = action_J1_numeric(em).value
            else:
                j1 = float(j1s.evaluate(h, j2))
            model = two_pi_I1_model(j1, j2, s_order=s_order)
            worst = max(worst, abs(numeric - model))
    return worst
