"""Action integrals and everything derived from them.

The non-trivial action over the real cycle, the imaginary action over the
vanishing cycle (Carlson closed form and exact series), the Birkhoff normal
form by series inversion, the semi-global symplectic invariant extracted
by a high-precision fit, rotation number, reduced period, twist and the
monodromy continuation.

Scaled units throughout: energy h vanishes at the unstable equilibrium,
j2 is the angular momentum, and hat-j = j1 + i j2 collects the local
normal-form coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
from mpmath.libmp import (fone, from_man_exp, mpf_atan2, mpf_cos_sin, mpf_pi, mpf_sub,
                          round_nearest as RND, to_fixed, to_float)

# ellint_K is not called here (a curve's K is `EllipticData.K`); it stays
# importable as actions.ellint_K, which perfbench's tracer test reads
from .elliptic import (DivergenceError, DomainError, EllipticData, EnergyMomentum,
                       _discriminant, _lambda0, carlson_rd, carlson_rf, carlson_rj,
                       cubic_roots, ellint_E, ellint_K)
from .quadrature import fraction_bits, tanh_sinh
from .series import Series, binom_frac

LN32 = math.log(32.0)
TWO_PI = 2 * math.pi


class ConsistencyError(ArithmeticError):
    """Two routes that must agree exactly disagreed (build-breaking)."""


class FitQualityError(ArithmeticError):
    """Least-squares residual above the acceptable threshold."""


@dataclass
class ActionValue:
    """A computed action and the route that produced it."""

    value: float
    method: str           # lambda0 (action_I1) | vanishing_cycle (action_J1_numeric)

    @property
    def two_pi(self) -> float:
        return TWO_PI * self.value


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


@lru_cache(maxsize=None)
def A_series(order: int = 9) -> Series:
    """Frequency-ratio series A(j1, j2) = (dH/dj2) / (dH/dj1), exact.

    The ratio of partials of the normal form `birkhoff_series(order + 1)`.
    Its independent route, -dJ1/dj2 with the normal form substituted (the
    sign demanded by implicit differentiation of J1(H(j1, j2), j2) = j1),
    is compared exactly by `rotation_expansion_check` and, for orders 1 to
    19, by the tests.
    """
    h_series = birkhoff_series(order + 1)
    return (h_series.partial(1) * h_series.partial(0).reciprocal()).truncate(order)


# -- numeric action over the real cycle --------------------------------------

def _cubic_roots_mp(h, j2, prec: int) -> EllipticData:
    """`cubic_roots` to `prec` bits, as mpf at prec + 20: the float gaps
    polished in fixed point with prec + 20 + (bits by which the smallest float
    gap, or delta0 >= j2^2 / (4 (2 + eps2)) where j2^2 underflows, falls below
    1) fraction bits.  Integer Newton steps take eps2 from the float root (or
    max(h, 0) + |j2|/2) until one falls below 2^-((prec + 40) / 2) relative or
    stops shrinking; the width is the `math.isqrt` of the exact `_discriminant`
    over 4 P'(zeta2)^2, and the rest follows from the relations of `_gaps`.
    Raises DomainError outside the image of the momentum map.
    """
    d = cubic_roots(EnergyMomentum(float(h), float(j2)))
    with mp.workprec(prec + 20):
        hh, jj = mp.mpf(h), mp.mpf(j2)
        disc = _discriminant(hh, jj)
        if jj == 0:
            return EllipticData.from_gaps(0.0, max(0.0, -hh), max(0.0, hh), 2 - max(0.0, -hh))
        low = min(math.frexp(g)[1] for g in (d.delta0, d.eps1, d.eps2, d.width) if g)
        if not d.delta0:
            low = min(low, 2 * mp.mag(jj) - math.frexp(2 + d.eps2)[1] - 3)
        frac = prec + 20 + max(0, -low)
        one = 1 << frac
        hf, jf = to_fixed(hh._mpf_, frac), to_fixed(abs(jj)._mpf_, frac)
        jsq = jf * jf >> frac
        eps2 = to_fixed(mp.mpf(d.eps2)._mpf_, frac) or max(hf, 0) + jf // 2
        step, last = one + eps2, math.inf            # a first step that goes on
        while True:
            t = eps2 * (2 * one + eps2) >> frac                         # e (2 + e)
            slope = ((one + eps2) * (eps2 - hf) >> (frac - 2)) + 2 * t  # P'(zeta2)
            if not eps2 >> (prec + 40) // 2 < abs(step) < last:
                break
            last, step = abs(step), ((t * (eps2 - hf) >> (frac - 1)) - jsq << frac) // slope
            eps2 -= step
        width = math.isqrt((disc[0] << 4 * frac - 2) // (disc[1] * slope * slope))
        delta1 = (hf + 2 * one - eps2 + width) >> 1
        delta0 = (jsq << 2 * frac - 1) // ((2 * one + eps2) * delta1)
        eps1 = (eps2 - hf + delta0 if hh <= 0
                else (jsq << 2 * frac - 1) // (eps2 * (2 * one - delta0)))
        return EllipticData.from_gaps(*(_to_mpf(x, frac) for x in (delta0, eps1, eps2, width)))


def _two_pi_I1(h, j2, d: EllipticData, lib, complete, lambda0):
    """2 pi I1 in the Lambda0 form, from the gaps in `d`.

    2 pi I1 = 2 pi [c0 (c1~ K + span E) - |j2|/2 Lambda0(phi, k)] with
    c0 = 4 / (pi sqrt(2 span)).  The same code runs on floats and on mpf:
    `lib` (math or mpmath) gives sqrt, atan2 and pi of the working type,
    `complete(d)` returns (K, E) and `lambda0(phi, mc, K, E)` Heuman's
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
    K, E = complete(d)
    inner = (1 + eps2) * (delta0 + eps1 * (1 - delta0))  # zeta2 (1 + zeta0 zeta1)
    # eps2 / (2 (2 + eps2)) < 1/2 is formed first: eps2 * inner overflows
    # a float at large h, and so do 2 (2 + eps2), 2 span and span E past
    # h ~ 9e307; with root = sqrt(span / 2), c0 = 2 / (pi root).  j2^2
    # overflows past |j2| ~ 1.3e154, but (|j2| / 2)^2 does not on the image
    # (there j2^2 <= 2 (h + 2))
    half_j = abs(j2) / 2
    c1_tilde = (h - eps2 - half_j * half_j / (2 + eps2)
                - half_j * lib.sqrt(inner * (eps2 / (2 + eps2) / 2)))
    root = lib.sqrt(span / 2)
    total = 2 / lib.pi * (c1_tilde * K / root + 2 * root * E)
    if j2 != 0:
        phi = lib.atan2(lib.sqrt(inner), abs(1 - eps1) * lib.sqrt(delta0 + eps2))
        lam = lambda0(phi, d.kcsq, K, E)
        total -= half_j * (2 - lam if eps1 < 1 else lam)
    return 2 * lib.pi * total


def _complete(d: EllipticData) -> tuple[float, float]:
    return d.K, ellint_E(d.kcsq)


def _kernel_bits(x: tuple) -> int:
    """Fraction bits F of the fixed-point kernels for an AGM started at
    sqrt(x), x a raw mpf in (0, 1]: the working precision plus 20 (prec + 40
    at the `prec` of `two_pi_I1_closed`), plus the bits by which sqrt(x)
    falls below 1, so that the start keeps its relative digits."""
    return mp.mp.prec + 20 + (1 - x[2] - x[3]) // 2            # exp + bc


def _to_mpf(fixed: int, frac: int):
    return mp.make_mpf(from_man_exp(fixed, -frac, mp.mp.prec, RND))


def _complete_mp(mc):
    """K and E at parameter 1 - mc, in fixed point with `_kernel_bits(mc)`
    fraction bits.

    One AGM of (1, sqrt mc) gives K = pi / (2 M), and Gauss's sum E =
    K ((1 + mc)/2 - sum_{n>=1} 2^(n-1) c_n^2), c_n = (a_(n-1) - g_(n-1))/2,
    never forms 1 - mc, so a small mc keeps its digits.  Returns mpf at the
    working precision.
    """
    x = mp.mpmathify(mc)._mpf_
    frac = _kernel_bits(x)
    one = 1 << frac
    a, g = one, math.isqrt(to_fixed(x, 2 * frac))
    c_sq_sum, n = 0, 0                     # 4 sum 2^(n-1) c_n^2, scale 2^(2F)
    while a - g > 1:
        c_sq_sum += (a - g) ** 2 << n
        a, g = (a + g) >> 1, math.isqrt(a * g)
        n += 1
    K = (to_fixed(mpf_pi(frac + 2, RND), frac) << (frac - 1)) // a      # pi / (2 M)
    half_sum = (one + to_fixed(x, frac)) << (frac + 1)    # (1 + mc)/2, scale 2^(2F + 2)
    E = K * (half_sum - c_sq_sum) >> (2 * frac + 2)
    return _to_mpf(K, frac), _to_mpf(E, frac)


def _incomplete_mp(phi, mc):
    """F(phi | mc) and E(phi | mc), parameter mc, by the descending Landen
    transformation (A&S 17.6, DLMF 19.8), in fixed point with
    `_kernel_bits(1 - mc)` fraction bits.

    The AGM a, g starts from (1, sqrt(1 - mc)) with c0^2 = mc and
    c_{n+1} = (a_n - g_n) / 2.  The amplitude is the integer pair (cos
    phi_n, sin phi_n), turned by tan(phi_{n+1} - phi_n) = (g/a) tan phi_n:
    e^(i phi_{n+1}) is (cos + i sin)(a cos + i g sin), normalised by one
    `math.isqrt`.  A float copy of phi_n, doubled and moved to the
    representative of the new pair within pi/2 of 2 phi_n, counts the
    turns, and one atan2 of the last pair gives phi_N.  Then F = phi_N /
    (2^N a_N) and E = F (1 - sum 2^(n-1) c_n^2) + sum c_n sin phi_n.  At
    mc = 1 the AGM of (1, 0) does not converge; there F = asinh(tan phi),
    E = sin phi, with |cos phi| so that a phi rounded past pi/2 stays on
    the branch.
    """
    if mc == 1:
        cos, sin = mp.cos_sin(phi)
        return mp.asinh(sin / abs(cos)), sin
    m = mp.mpmathify(mc)._mpf_
    x = mpf_sub(fone, m)                                  # 1 - mc, exact
    frac = _kernel_bits(x)
    one = 1 << frac
    cos, sin = (to_fixed(v, frac) for v in mpf_cos_sin(mp.mpmathify(phi)._mpf_, frac, RND))
    a, g = one, math.isqrt(to_fixed(x, 2 * frac))
    turn = float(phi)                     # phi_n in floats, for the turns
    c_sq_sum, sin_sum, n = 0, 0, 0        # 4 sum 2^(n-1) c_n^2 and 2 sum c_n sin phi_n,
    while a - g > 1:                      # each at scale 2^(2F)
        p, q = a * cos, g * sin
        re, im = (cos * p - sin * q) >> frac, (cos * q + sin * p) >> frac
        norm = math.isqrt(re * re + im * im)
        cos, sin = (re << frac) // norm, (im << frac) // norm
        base = math.atan2(sin / one, cos / one)
        turn = base + TWO_PI * round((2 * turn - base) / TWO_PI)
        c_sq_sum += (a - g) ** 2 << n
        sin_sum += (a - g) * sin
        a, g = (a + g) >> 1, math.isqrt(a * g)
        n += 1
    base = mpf_atan2(from_man_exp(sin, -frac), from_man_exp(cos, -frac), frac, RND)
    turns = round((turn - to_float(base)) / TWO_PI)
    phi_n = to_fixed(base, frac) + turns * to_fixed(mpf_pi(frac + 4, RND), frac + 1)
    F = (phi_n << frac) // (a << n)
    bracket = ((2 << frac) - to_fixed(m, frac)) << (frac + 1)    # 1 - mc/2, scale 2^(2F + 2)
    E = (F * (bracket - c_sq_sum) >> (2 * frac + 2)) + (sin_sum >> (frac + 1))
    return _to_mpf(F, frac), _to_mpf(E, frac)


def _lambda0_mp(phi, mc, K, E):
    F, E_phi = _incomplete_mp(phi, mc)
    return 2 / mp.pi * (K * E_phi - (K - E) * F)


def two_pi_I1_closed(h, j2, prec: int):
    """2*pi*I1 at `prec` bits from the Lambda0 form that `action_I1` uses.

    The formula of `_two_pi_I1` runs at `prec + 20` bits on the gaps of
    `_cubic_roots_mp`, with the fixed-point kernels `_complete_mp` and
    `_incomplete_mp` (through `_lambda0_mp`); returns an mpf.
    """
    d = _cubic_roots_mp(h, j2, prec)
    with mp.workprec(prec + 20):
        return _two_pi_I1(mp.mpf(h), mp.mpf(j2), d, mp, lambda d: _complete_mp(d.kcsq),
                          _lambda0_mp)


def two_pi_I1_quadrature(h, j2, prec: int):
    """2*pi*I1 by tanh-sinh quadrature of the defining integral.

    The real cycle covers [zeta0, zeta1] twice, so 2 pi I1 equals twice the
    plain integral of sqrt(P)/(1 - zeta^2).  Endpoint inverse square roots
    and the near-axis pole just outside the interval are resolved by the
    double-exponential transform.  The integrand runs in the fixed point of
    `tanh_sinh` (`fraction_bits` fraction bits, prec + 40 or more): P from
    the exact h + 1 and the truncated j2^2, one `math.isqrt` and one
    integer division by 1 - zeta^2.  Returns (value, error_estimate,
    converged) from `tanh_sinh`.
    """
    d = _cubic_roots_mp(h, j2, prec)
    with mp.workprec(prec + 20):
        frac = fraction_bits(prec, d.zeta0, d.zeta1)
        one = 1 << frac
        h1 = to_fixed(mp.mpf(h)._mpf_, frac) + one
        j2_sq = to_fixed(mp.mpf(j2)._mpf_, frac) ** 2 >> frac

        def integrand(z):
            c = one - (z * z >> frac)                       # 1 - z z
            p = (c * (h1 - z) >> (frac - 1)) - j2_sq        # 2 (1 - z z)(h + 1 - z) - j2 j2
            if p <= 0:                                      # also where c == 0
                return 0
            return (math.isqrt(p << frac) << frac) // c

        val, err, converged = tanh_sinh(integrand, d.zeta0, d.zeta1, prec=prec)
        return 2 * val, 2 * err, converged


def action_I1(em: EnergyMomentum) -> ActionValue:
    """Non-trivial action I1(h, j2); `two_pi` on the result gives 2 pi I1.

    Evaluates the closed Lambda0 form (`_two_pi_I1`, the formula of
    `two_pi_I1_closed`) in floats on the whole image, within about
    1e-14 (1 + |2 pi I1|).  Its independent oracle is
    `two_pi_I1_quadrature`.
    """
    two_pi = _two_pi_I1(em.h, em.j2, cubic_roots(em), math, _complete, _lambda0)
    return ActionValue(two_pi / TWO_PI, "lambda0")


# -- numeric imaginary action over the vanishing cycle -----------------------

def action_J1_numeric(em: EnergyMomentum) -> ActionValue:
    """J1 as the complete elliptic integral over the vanishing cycle.

    J1 = -(2/pi) PV int_{zeta1}^{zeta2} sqrt(-P) / (1 - zeta^2) dzeta, the
    principal value at zeta = 1.  Splitting -P / (1 - zeta^2) = 2 (zeta -
    h - 1) + j2^2 / (1 - zeta^2) and setting zeta = zeta2 - (zeta2 - zeta1)
    sin^2 theta gives Carlson forms at the cycle's complementary parameter
    mc = width / span.  The pole's R_J is the principal value K - Pi(eps2 /
    span) of DLMF 19.7.9, and both R_J arguments are sums of gaps, so
    nothing cancels.  At mc = 0 (the relative equilibria, where width == 0
    exactly) the integral is elementary.  Past span = 2^1000 (h ~ 1e301)
    the terms run scaled by a power of two, where they would overflow, so
    J1 stays finite and accurate up to h = 1.7e308.  Independent of
    `J1_series`, which `j1_of_energy` evaluates.
    """
    d = cubic_roots(em)
    h, j2 = em.h, em.j2
    delta0, eps1, eps2, width, span = d.delta0, d.eps1, d.eps2, d.width, d.span
    mc = width / span
    if mc == 0:
        g = math.sqrt(span) - math.sqrt(eps2) * eps1 / 2 * math.atanh(math.sqrt(eps2 / span))
        if delta0:                                    # 0 at (h, j2) = (-2, 0)
            c = math.sqrt(2 + eps2)
            g -= c * delta0 / 2 * math.atanh(math.sqrt(span) / c)
        return ActionValue(-4 * math.sqrt(2.0) / math.pi * g, "vanishing_cycle")
    # past span = 2^1000 (h ~ 1e301) the terms of g, j2^2 and the R_J
    # overflow a float.  There g is formed times s = 2^-k, k a multiple of
    # 6: j2^2 as (j2 2^(-k/2))^2, each R_J times s as R_J(0, 4^(k/3) (mc,
    # 1, p)), over its divisor times s; J1 is scaled back.  Powers of two
    # scale exactly, and k = 0 below that leaves the plain formula's bits
    k = 0 if span < 2.0 ** 1000 else math.frexp(span)[1] // 6 * 6
    s, four = math.ldexp(1.0, -k), math.ldexp(1.0, 2 * k // 3)
    K = carlson_rf(0.0, mc, 1.0)
    D = d.kcsq / 3 * carlson_rd(0.0, mc, 1.0)             # K - E
    n = (eps1 + eps2) / (2 + eps2)
    j2_s = j2 * math.ldexp(1.0, -k // 2)

    def rj_s(p: float) -> float:
        return carlson_rj(0.0, mc * four, four, p * four)

    g = (2 * (eps2 * s * (K - D) - h * s * K - (2 - delta0) * s * D)
         + j2_s * j2_s / 2 * ((K * s + n / 3 * rj_s((width + delta0) / (2 + eps2)))
                              / ((2 + eps2) * s)
                              + rj_s((2 - delta0) / span) / (3 * (span * s))))
    return ActionValue(math.ldexp(-2 / math.pi * math.sqrt(2 / span) * g, k), "vanishing_cycle")


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
    Pi(n+) = K + (n+/3) R_J(0, k'^2, 1, 1 - n+) takes the curve's K,
    `EllipticData.K`, which the action and the period read too.
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
    pi_plus = data.K + (1.0 - p_plus) / 3 * carlson_rj(0.0, kcsq, 1.0, p_plus)
    return w + pref * pi_plus / one_minus_z0


def period_T_numeric(em: EnergyMomentum) -> float:
    """Reduced period 2 pi dI1/dh = 2 sqrt(2) K(k) / sqrt(zeta2 - zeta0).

    K is the curve's `EllipticData.K`, formed once for the action, the
    rotation number and the period, from the complementary parameter k'^2
    = (eps1 + eps2) / (zeta2 - zeta0) of the gaps, so it keeps its digits
    next to the critical value, where k^2 itself rounds to 1.  Where k'^2
    underflows there, the result is the separatrix asymptote ln(32 / |h +
    i j2|).
    """
    data = cubic_roots(em)
    if data.kcsq == 0:
        if em.h == 0.0 and em.j2 == 0.0:
            raise DomainError("period diverges on the separatrix")
        return LN32 - math.log(math.hypot(em.h, em.j2))
    return 2 * math.sqrt(2.0) * data.K / math.sqrt(data.span)


def _quadrature_slope(em: EnergyMomentum, step: float, prec: int, along_j2: bool):
    """Central difference of `two_pi_I1_quadrature` along h or j2; an mpf."""
    dh, dj2 = (0.0, step) if along_j2 else (step, 0.0)
    up = two_pi_I1_quadrature(em.h + dh, em.j2 + dj2, prec=prec)[0]
    dn = two_pi_I1_quadrature(em.h - dh, em.j2 - dj2, prec=prec)[0]
    return (up - dn) / (2 * step)


def rotation_W_fd(em: EnergyMomentum, step: float = 1e-5, prec: int = 120) -> float:
    """Finite-difference oracle -dI1/dj2 via extended-precision quadrature."""
    return float(-_quadrature_slope(em, step, prec, along_j2=True) / TWO_PI)


def period_T_fd(em: EnergyMomentum, step: float = 1e-5, prec: int = 120) -> float:
    """Finite-difference oracle 2 pi dI1/dh."""
    return float(_quadrature_slope(em, step, prec, along_j2=False))


# -- invariant model ----------------------------------------------------------

# Exact invariant coefficients of j1^a j2^b through degree 4, beyond the
# j1 ln 32 term.  The pure-j1 column is rederived exactly by the pendulum
# route (pendulum.invariant_series_exact); mixed terms are pinned by
# fit_invariant_S.  Both validations live in the test suite.
_INVARIANT_TERMS = {
    (2, 0): Fraction(3, 32), (0, 2): Fraction(9, 32),
    (3, 0): Fraction(-5, 512), (1, 2): Fraction(-51, 512),
    (4, 0): Fraction(55, 32768), (2, 2): Fraction(1230, 32768),
    (0, 4): Fraction(271, 32768),
}


@lru_cache(maxsize=None)
def invariant_polynomial(order: int = 4) -> Series:
    """Polynomial part of S (degrees >= 2), exact, in (j1, j2)."""
    if order > 4:
        raise ValueError("exact invariant coefficients available through degree 4")
    return Series(order, ("j1", "j2"), _INVARIANT_TERMS)


def _require_finite(j1: float, j2: float) -> None:
    if not (math.isfinite(j1) and math.isfinite(j2)):
        raise DomainError(f"non-finite coordinate ({j1}, {j2})")


def _disk_radius(j1: float, j2: float, what: str) -> float:
    """|j| of a finite point with 0 < |j| <= 1, the domain of the disk models."""
    _require_finite(j1, j2)
    rho = math.hypot(j1, j2)
    if rho == 0.0:
        raise DomainError(f"{what} undefined at the origin")
    if rho > 1.0:
        raise DomainError("model restricted to |j| <= 1")
    return rho


def _arg(j1, j2, lib=math):
    """Principal argument of j1 + i j2 in (-pi, pi]: +pi on the negative j1 axis.

    For tiny j2 < 0 the angle rounds to -pi, its limit from below the axis,
    and stays there; only j2 == 0 (either sign of zero) gives +pi.  `lib`
    (math or mpmath) gives atan2 of the working type.
    """
    return lib.atan2(j2 if j2 != 0 else 0.0, j1)


def _singular_terms(j1, j2, lib):
    """8 - 2 pi |j2| + j2 arg(j1 + i j2) - j1 ln |j| + j1 at j != 0, the
    universal terms of 2 pi I1 that the model adds and the fit subtracts;
    `lib` (math or mpmath) gives pi, atan2, hypot and log of the working type."""
    return (8 - 2 * lib.pi * abs(j2) + j2 * _arg(j1, j2, lib)
            - j1 * lib.log(lib.hypot(j1, j2)) + j1)


def _invariant_slope(j1: float, j2: float) -> float:
    """S1 = ln 32 + dS/dj1 of the model invariant."""
    return LN32 + float(invariant_polynomial(4).partial(0).evaluate(j1, j2))


def two_pi_I1_model(j1: float, j2: float) -> float:
    """2 pi I1 from the normal-form model: singular terms plus invariant."""
    _require_finite(j1, j2)
    if j1 == j2 == 0.0:
        return 8.0
    return (_singular_terms(j1, j2, math)
            + (LN32 * j1 + invariant_polynomial(4).evaluate(j1, j2)))


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


def rotation_W_model(j1: float, j2: float) -> float:
    """Model rotation number from the invariant and frequency ratio.

    2 pi W = 2 pi sgn j2 - Arg - A ln|j| + A S1 - S2, with sgn 0 := +1 so
    the axis values are the limits from above (+1 for j1 > 0, +1/2 for
    j1 < 0).
    """
    rho = _disk_radius(j1, j2, "rotation number")
    sgn = 1.0 if j2 >= 0 else -1.0
    a_val = float(A_series(9).evaluate(j1, j2))
    s1 = _invariant_slope(j1, j2)
    s2 = float(invariant_polynomial(4).partial(1).evaluate(j1, j2))
    two_pi_w = (TWO_PI * sgn - _arg(j1, j2) - a_val * math.log(rho)
                + a_val * s1 - s2)
    return two_pi_w / TWO_PI


def period_T_model(j1: float, j2: float) -> float:
    """Model reduced period (-ln|j| + S1) / (dH/dj1)."""
    rho = _disk_radius(j1, j2, "period")
    h1 = float(birkhoff_series(10).partial(0).evaluate(j1, j2))
    return (-math.log(rho) + _invariant_slope(j1, j2)) / h1


def energy_of_j(j1: float, j2: float) -> float:
    """Scaled energy h = H(j1, j2) from the degree-10 normal form."""
    _require_finite(j1, j2)
    return float(birkhoff_series(10).evaluate(j1, j2))


def j1_of_energy(h: float, j2: float) -> float:
    """Local normal-form coordinate j1 = J1(h, j2) from the exact series
    through degree 12.

    Raises DomainError outside the image of the momentum map, which the
    exact discriminant decides without solving the cubic, and
    DivergenceError at a point of the image where the series overflows to
    an infinity or NaN (at j2 = 1, from h ~ 1e27).  Finite values far
    outside the series' disk of convergence are returned as they are.
    """
    _discriminant(h, j2)
    j1 = float(J1_series(12).evaluate(h, j2))
    if not math.isfinite(j1):
        raise DivergenceError(f"the J1 series diverges to {j1} at (h, j2) = ({h}, {j2})")
    return j1


# -- high-precision fit of the invariant --------------------------------------

@dataclass
class InvariantSeries:
    """The fit as `pendinv invariants` prints it: rows {a, b, fitted, reference,
    reference_label} by degree, then b; reference None and label "" where none."""

    order: int
    precision: int
    samples: int
    residual_max: float
    residual_rms: float
    coefficients: list
    quadrature_checked_samples: int    # samples also taken by quadrature
    quadrature_max_abs_diff: float     # largest |closed form - quadrature|


def _midpoint_circle(r, n: int) -> list:
    """The n points r (cos theta_i, sin theta_i), theta_i = pi (2i + 1) / n,
    in mpf at the working precision, in order of i.

    Only the lower half, theta in [pi, 2 pi) (with the axis sample theta =
    pi when n is odd), is computed; each upper sample i is the mirror
    (j1, -j2) of sample n - 1 - i, so mirror pairs are exact.
    """
    r = mp.mpf(r)
    lower = [(r * mp.cospi(mp.mpf(2 * i + 1) / n), r * mp.sinpi(mp.mpf(2 * i + 1) / n))
             for i in range(n // 2, n)]
    return [(j1, -j2) for j1, j2 in reversed(lower[n % 2:])] + lower


def _harmonic_monomials(d: int, m: int) -> dict[tuple[int, int], int]:
    """Re(z^m) |z|^(d - m), z = j1 + i j2, m = d mod 2: its integer
    coefficients of j1^a j2^b (b even, a + b = d)."""
    p = (d - m) // 2
    out: dict[tuple[int, int], int] = {}
    for k in range(0, m + 1, 2):
        for i in range(p + 1):
            mono = (m - k + 2 * (p - i), k + 2 * i)
            out[mono] = out.get(mono, 0) + (-1) ** (k // 2) * math.comb(m, k) * math.comb(p, i)
    return out


def _harmonic_lsq(radii, values, order: int):
    """Least squares of S_fit = sum c_ab j1^a j2^b (b even, 1 <= a + b <=
    order) against `values`, sampled on the `_midpoint_circle` grid of each
    radius; returns the coefficients by (a, b) and the residuals.

    On a circle S_fit = sum over m <= order of g_m(r) cos(m theta), g_m(r) =
    sum c(d, m) r^d over d = m, m + 2, ..., the coefficients of Re(z^m)
    |z|^(d - m).  On n > 2 order midpoint angles the cos(m theta) are
    orthogonal with equal norms on every circle, so the normal equations
    split by harmonic: g_m fits, by least squares over the circles, the
    cosine projection of the values, a radial Vandermonde of at most
    ceil(order / 2) unknowns and one row per circle, full rank for distinct
    radii when order <= 2 len(radii).  This is the dense monomial least
    squares solved exactly, not an approximation to it.
    """
    n = len(values[0])
    cos_table = [[mp.cospi(mp.mpf(m * (2 * i + 1)) / n) for i in range(n)]
                 for m in range(order + 1)]
    coeffs = {(d - b, b): mp.mpf(0) for d in range(1, order + 1) for b in range(0, d + 1, 2)}
    radial = [[mp.mpf(0)] * (order + 1) for _ in radii]
    for m in range(order + 1):
        degrees = range(m or 2, order + 1, 2)
        weight = mp.mpf(2 if m else 1) / n
        proj = [weight * mp.fdot(cos_table[m], circle) for circle in values]
        powers = [[mp.mpf(r) ** d for d in degrees] for r in radii]
        try:
            sol, _res = mp.qr_solve(mp.matrix(powers), mp.matrix(proj))
        except (ZeroDivisionError, ValueError) as exc:
            raise FitQualityError(f"degenerate fit system: {exc}") from exc
        for k, d in enumerate(degrees):
            for mono, t in _harmonic_monomials(d, m).items():
                coeffs[mono] += t * sol[k]
        for c, row in enumerate(powers):
            radial[c][m] = mp.fdot(row, sol)
    residuals = [mp.fdot(radial[c], [cos_table[m][i] for m in range(order + 1)]) - y
                 for c, circle in enumerate(values) for i, y in enumerate(circle)]
    return coeffs, residuals


# the fit's circles: five up to 0.32 from degree 8 on; below it four
# tighter ones, or the truncation tail of the invariant itself dominates
# the residual (at degree 7 the unfitted degree-8 tail biases (2, 2)).
# The energy comes from the degree-14 normal form.
_FIT_RADII = (0.08, 0.14, 0.2, 0.26, 0.32)
_LOW_ORDER_RADII = (0.05, 0.09, 0.13, 0.17)
_FIT_H_DEGREE = 14


def fit_invariant_S(order: int = 10, precision: int = 256,
                    samples: int = 160) -> InvariantSeries:
    """Fit the polynomial invariant from high-precision action values.

    Samples (j1, j2) at the uniform midpoint angles of concentric circles,
    formed in mpf (the j2 = 0 axis included, where the closed form holds),
    maps to energy through the high-order normal form, evaluates 2 pi I1 in
    closed form (`two_pi_I1_closed`) at `precision` bits, subtracts the
    universal singular terms exactly, and solves the least squares in the
    monomials by harmonics (`_harmonic_lsq`) at the same precision.  The
    energy, the closed form and the singular terms are all even in j2, and
    the samples come in exact mirror pairs (j1, +-j2) (`_midpoint_circle`),
    so each pair is evaluated once, at its j2 <= 0 sample.  On each circle
    the lower-half sample nearest the axis with |j2| >= 1e-3 (on the axis
    the integrand's 1/sqrt ends hold quadrature near 2^(-(precision +
    40)/2), unconverged from 80 bits up) is also integrated by tanh-sinh
    quadrature (`precision` bits); a quadrature that stops at its last
    level unconverged, or a difference above its own stopping
    tolerance 2^(10 - precision) (1 + |2 pi I1|), raises ConsistencyError,
    and the number of checked samples and the largest difference are
    reported.  Raises FitQualityError when the residual exceeds 1e-3 times
    the smallest reference (ln 32, then `invariant_polynomial(4)`), or from
    order 6 on when a coefficient misses its reference by more than 1e-6.

    Polynomials of the form j1 * prod_i (j1^2 + j2^2 - r_i^2) respect the
    parity of the column set and vanish on every sampled circle, so the
    system is rank-deficient unless order <= 2 * len(radii); five circles
    cover order 10.  Below order 4 the reference terms are not fitted.
    Orders outside 4 to 10 raise ValueError.
    """
    radii = _FIT_RADII if order >= 8 else _LOW_ORDER_RADII
    if not 4 <= order <= 2 * len(radii):
        raise ValueError(f"fit order {order} outside 4 to {2 * len(_FIT_RADII)}")
    h_series = birkhoff_series(_FIT_H_DEGREE)
    # more than 2 order angles keep the harmonics up to order orthogonal
    per_circle = max(2 * order + 3, samples // len(radii))

    with mp.workprec(precision + 20):
        values = []
        oracle_diff = mp.mpf(0)
        for r in radii:
            # both sides are even in j2: the lower half is evaluated, and each
            # upper sample, its exact mirror, takes the same value
            lower = _midpoint_circle(r, per_circle)[per_circle // 2:]
            # ties go to the last, below the j1 > 0 axis
            checked = min(reversed([p for p in lower if abs(p[1]) >= 1e-3]),
                          key=lambda p: float(abs(p[1])))
            lower_values = []
            for point in lower:
                j1m, j2m = point
                h = h_series.evaluate(j1m, j2m, prec=precision + 20)
                two_pi_i1 = two_pi_I1_closed(h, j2m, prec=precision)
                if point is checked:
                    quad, _, converged = two_pi_I1_quadrature(h, j2m, prec=precision)
                    if not converged:
                        raise ConsistencyError(
                            "quadrature oracle unconverged "
                            f"at (j1, j2) = ({float(j1m)!r}, {float(j2m)!r})")
                    diff = abs(two_pi_i1 - quad)
                    if diff > mp.mpf(2) ** (10 - precision) * (1 + abs(quad)):
                        raise ConsistencyError(
                            f"closed-form action off quadrature by {float(diff):.3e} "
                            f"at (j1, j2) = ({float(j1m)!r}, {float(j2m)!r})")
                    oracle_diff = max(oracle_diff, diff)
                lower_values.append(two_pi_i1 - _singular_terms(j1m, j2m, mp))
            values.append(lower_values[per_circle % 2:][::-1] + lower_values)
        coeffs, resid = _harmonic_lsq(radii, values, order)
        residual_max = float(max(abs(x) for x in resid))
        residual_rms = float(mp.sqrt(sum(x * x for x in resid) / len(resid)))
        # by monomial: the label and value printed, and the value checked
        reference = {(1, 0): ("ln 32", LN32, mp.log(32))}
        for mono, c in invariant_polynomial(4).terms().items():
            reference[mono] = (str(c), float(c), mp.mpf(c.numerator) / c.denominator)

    threshold = 1e-3 * min(abs(value) for _, value, _ in reference.values())
    if residual_max > threshold:
        raise FitQualityError(
            f"fit residual {residual_max:.3e} above threshold {threshold:.3e}")
    if order >= 6:
        # below order 6 the fit's truncation bias exceeds the tolerance
        for mono, (label, _, exact) in reference.items():
            err = float(abs(coeffs[mono] - exact))
            if err > 1e-6:
                raise FitQualityError(f"fitted coefficient {mono} off {label} by {err:.3e}")

    rows = []
    for (a, b), value in coeffs.items():    # by degree, then by b
        label, printed, _ = reference.get((a, b), ("", None, None))
        rows.append({"a": a, "b": b, "fitted": float(value),
                     "reference": printed, "reference_label": label})
    return InvariantSeries(
        order=order, precision=precision, samples=len(resid), residual_max=residual_max,
        residual_rms=residual_rms, coefficients=rows, quadrature_checked_samples=len(radii),
        quadrature_max_abs_diff=float(oracle_diff))


# -- twist ---------------------------------------------------------------------

def twist(j1: float, j2: float) -> float:
    """Isoenergetic twist dW/dj2 at constant energy, from the model.

    T = -A W1 + W2 with Wi the partials of the rotation number; the
    singular pieces differentiate in closed form, the series pieces
    symbolically.  Like the model rotation number it is restricted to
    |j| <= 1; it grows like 1/|j|, which overflows at subnormal |j|.
    """
    rho = _disk_radius(j1, j2, "twist")
    if rho < 2.0 ** -1022:
        raise DomainError(f"twist overflows at subnormal |j| = {rho}")
    a_ser = A_series(9)
    a = float(a_ser.evaluate(j1, j2))
    a1 = float(a_ser.partial(0).evaluate(j1, j2))
    a2 = float(a_ser.partial(1).evaluate(j1, j2))
    s1 = _invariant_slope(j1, j2)
    poly = invariant_polynomial(4)
    s11 = float(poly.partial(0).partial(0).evaluate(j1, j2))
    s12 = float(poly.partial(0).partial(1).evaluate(j1, j2))
    s22 = float(poly.partial(1).partial(1).evaluate(j1, j2))
    # j / |j|^2 as (j / |j|) / |j|: |j|^2 underflows below |j| ~ 1e-154
    u1, u2 = j1 / rho / rho, j2 / rho / rho
    lnr = math.log(rho)
    two_pi_w1 = u2 - a1 * lnr - a * u1 + a1 * s1 + a * s11 - s12
    two_pi_w2 = -u1 - a2 * lnr - a * u2 + a2 * s1 + a * s12 - s22
    return (-a * two_pi_w1 + two_pi_w2) / TWO_PI


BRENTQ_RTOL = 4 * 2.0 ** -52
BRENTQ_MAXITER = 100


def brentq(f, a: float, b: float, xtol: float) -> float:
    """A root of f between a and b, where f changes sign, to xtol + rtol |x|.

    Brent's zeroin (Brent 1973, ch. 4), ported line for line from scipy's
    C `brentq` with its defaults rtol = BRENTQ_RTOL and maxiter =
    BRENTQ_MAXITER, so it returns the same float: a secant or inverse
    quadratic step while that shrinks the bracket fast enough, else
    bisection.  Raises ValueError when f(a) and f(b) share a sign or f
    returns NaN, and RuntimeError after maxiter iterations.
    """
    rtol, maxiter = BRENTQ_RTOL, BRENTQ_MAXITER
    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:            # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                       # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis          # bisect
        else:
            spre = scur = sbis              # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def twistless_curve(r: float) -> float:
    """Polar angle s (from the positive j2 axis) where the twist vanishes.

    Solves T(r sin s, r cos s) = 0 on (-pi/2, pi/2) by the in-package
    `brentq` to 1e-14; raises DomainError for a subnormal r, where `twist`
    overflows, and if the ends of that interval have the same sign.
    """
    if not 0 < r <= 1:
        raise DomainError("radius must lie in (0, 1]")

    def f(s: float) -> float:
        return twist(r * math.sin(s), r * math.cos(s))

    lo, hi = -math.pi / 2 + 1e-9, math.pi / 2 - 1e-9
    if f(lo) * f(hi) > 0:
        raise DomainError(f"no sign change of the twist on the half circle r={r}")
    return brentq(f, lo, hi, xtol=1e-14)


def W_star(r: float) -> float:
    """Rotation number evaluated on the twistless curve at radius r."""
    s = twistless_curve(r)
    return rotation_W_model(r * math.sin(s), r * math.cos(s))


def W_star_approx(r: float) -> float:
    """Leading small-radius approximation 3/4 + 3r/(8 pi) (ln(32/r) - 5/2)."""
    # ln 32 - ln r: 32/r overflows below r ~ 1.8e-307
    return 0.75 + 3 * r / (8 * math.pi) * (LN32 - math.log(r) - 2.5)


# -- monodromy -----------------------------------------------------------------

def unwrap(prev: float, raw: float) -> float:
    """The angle raw shifted by a multiple of 2 pi to within pi of prev."""
    while raw - prev > math.pi:
        raw -= TWO_PI
    while raw - prev < -math.pi:
        raw += TWO_PI
    return raw


@dataclass
class MonodromyResult:
    mu: int
    raw: float


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
    # the start has j2 > 0, so its angle lies in (0, pi), where unwrapping
    # against pi/2 leaves it as it is
    phi = math.pi / 2
    values = []
    for i in range(steps + 1):
        theta = math.pi / 2 + orientation * TWO_PI * i / steps
        h = radius * math.cos(theta)
        j2 = radius * math.sin(theta)
        j1 = float(j1s.evaluate(h, j2))
        phi = unwrap(phi, math.atan2(j2, j1))
        values.append(action_I1(EnergyMomentum(h, j2)).two_pi + TWO_PI * abs(j2)
                      + j2 * (phi - math.atan2(j2, j1)))
    raw = (values[-1] - values[0]) / (TWO_PI * radius)
    mu = round(raw)
    if abs(raw - mu) > 0.05:
        raise ConsistencyError(f"monodromy increment {raw} not close to an integer")
    if abs(mu) != 1:
        raise ConsistencyError(f"|mu| = {abs(mu)} != 1")
    return MonodromyResult(mu=mu, raw=raw)


# -- rotation-number expansion in (h, j2) -------------------------------------

@lru_cache(maxsize=None)
def _w_log_coefficient() -> Series:
    """(3/8) j2 (1 - (5/16) h + (35/256) rho^2), rho^2 = h^2 + j2^2: the
    displayed coefficient of ln(32 / rho) in 2 pi W, exact in (h, j2)."""
    h, j2 = (Series.variable(i, 3, ("h", "j2")) for i in (0, 1))
    return j2.scale(Fraction(3, 8)) * (1 - h.scale(Fraction(5, 16))
                                       + (h * h + j2 * j2).scale(Fraction(35, 256)))


def two_pi_W_energy_expansion(h: float, j2: float) -> float:
    """Displayed small-(h, j2) expansion of 2 pi W, rational terms as written."""
    rho_sq = h * h + j2 * j2
    if rho_sq == 0.0 or j2 == 0.0:
        raise DomainError("expansion needs j2 != 0")
    sgn = 1.0 if j2 > 0 else -1.0
    ln_term = _w_log_coefficient().evaluate(h, j2) * math.log(32 / math.sqrt(rho_sq))
    return (TWO_PI * sgn - math.atan2(j2, h) + ln_term
            - j2 / 8 * (5 * h * h + 6 * j2 * j2) / rho_sq
            + j2 * h / 256 * (77 * h ** 4 + 174 * j2 * j2 * h * h + 93 * j2 ** 4) / rho_sq ** 2)


@dataclass
class RotationExpansionReport:
    ln_coefficient_ok: bool
    a_series_ok: bool
    worst_numeric: float

    @property
    def passed(self) -> bool:
        return self.ln_coefficient_ok and self.a_series_ok and self.worst_numeric < 1e-5


def rotation_expansion_check() -> RotationExpansionReport:
    """Cross-check the rotation-number expansion against the elliptic route.

    Verifies exactly that -dJ1/dj2 is the logarithm coefficient of
    `two_pi_W_energy_expansion`, that `A_series(9)` equals its substitution
    route -dJ1/dj2 composed with the degree-10 normal form, and numerically
    that the displayed expansion tracks the elliptic-integral rotation
    number at 8 angles on each of the radii 0.03, 0.05 and 0.07.
    """
    ln_ok = (-J1_series(4).partial(1)).truncate(3) == _w_log_coefficient()
    a_ok = A_series(9) == (-J1_series(10).partial(1).compose(birkhoff_series(10))).truncate(9)

    worst = 0.0
    for rho in (0.03, 0.05, 0.07):
        for i in range(8):
            ang = math.pi * (i + 0.5) / 8  # j2 > 0 half
            h = rho * math.cos(ang)
            j2 = rho * math.sin(ang)
            w_num = rotation_W_numeric(EnergyMomentum(h, j2))
            w_exp = two_pi_W_energy_expansion(h, j2) / TWO_PI
            worst = max(worst, abs(w_num - w_exp))
    return RotationExpansionReport(ln_coefficient_ok=ln_ok, a_series_ok=a_ok,
                                   worst_numeric=worst)


# -- model error sweep ---------------------------------------------------------

def model_error_sweep(radius: float, j1_order: int | None = 4) -> float:
    """Max |2 pi I1 (elliptic) - 2 pi I1 (model)| over a polar grid.

    The grid is 5 radii, spaced evenly up to `radius`, times 40 midpoint
    angles.  The model is the degree-4 invariant evaluated at a coordinate
    j1 obtained from (h, j2) by one of two routes:

    * `j1_order=n` (default 4, the displayed order): the degree-n
      imaginary-action series J1_series(n).  The error then mixes the
      truncation of the invariant with that of the coordinate series.
    * `j1_order=None`: the exact Eliasson coordinate, the elliptic
      integral over the vanishing cycle computed by `action_J1_numeric`
      (its Carlson closed form).  The error is then that of the invariant
      alone.

    The result is in 2 pi units; divide by 2 pi for units of the action.
    Grid points outside the regular region are skipped.
    """
    worst = 0.0
    j1s = None if j1_order is None else J1_series(j1_order)
    for i in range(1, 6):
        rho = radius * i / 5
        for k in range(40):
            ang = TWO_PI * (k + 0.5) / 40
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
            model = two_pi_I1_model(j1, j2)
            worst = max(worst, abs(numeric - model))
    return worst
