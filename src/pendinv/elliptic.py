"""Complete elliptic integrals, Heuman's Lambda0 and the curve geometry.

Carlson symmetric forms with duplication give K, E and Pi uniformly,
including the large-negative characteristics that appear on the axis of
small angular momentum.  Root data of the defining cubic is bundled in
:class:`EllipticData` together with every derived coefficient the action
formulas need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_EPS = 2.220446049250313e-16


class DomainError(ValueError):
    """Parameters outside the admissible region; message names the violation."""


class DivergenceError(ValueError):
    """Integral diverges at the requested parameter (k^2 -> 1 or n -> 1)."""


# -- Carlson symmetric forms -------------------------------------------------

def carlson_rf(x: float, y: float, z: float) -> float:
    """R_F(x, y, z) by duplication; arguments non-negative, at most one zero."""
    if min(x, y, z) < 0 or (x + y <= 0 or y + z <= 0 or z + x <= 0):
        raise DomainError("carlson_rf requires non-negative arguments, at most one zero")
    A = (x + y + z) / 3
    q = (3 * _EPS) ** (-1 / 8) * max(abs(A - x), abs(A - y), abs(A - z))
    f = 1.0
    while q * f >= abs(A):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        x, y, z = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4
        A = (A + lam) / 4
        f /= 4
    return _rf_tail(x, y, z, A)


def _rf_tail(x: float, y: float, z: float, A: float) -> float:
    X = (A - x) / A
    Y = (A - y) / A
    Z = -(X + Y)
    e2 = X * Y - Z * Z
    e3 = X * Y * Z
    s = (1.0 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44
         - 5 * e2 ** 3 / 208 + 3 * e3 * e3 / 104 + e2 * e2 * e3 / 16)
    return s / math.sqrt(A)


def carlson_rc(x: float, y: float) -> float:
    """R_C(x, y) = R_F(x, y, y); y may be negative (principal value)."""
    if x < 0:
        raise DomainError("carlson_rc requires x >= 0")
    if y == 0:
        raise DomainError("carlson_rc pole at y = 0")
    if y < 0:
        # principal value transform
        return math.sqrt(x / (x - y)) * carlson_rc(x - y, -y)
    if x == y:
        return 1 / math.sqrt(x)
    if x == 0:
        return math.pi / (2 * math.sqrt(y))
    if x < y:
        return math.atan(math.sqrt((y - x) / x)) / math.sqrt(y - x)
    return math.atanh(math.sqrt((x - y) / x)) / math.sqrt(x - y)


def carlson_rd(x: float, y: float, z: float) -> float:
    """R_D(x, y, z) by duplication; z > 0, at most one of x, y zero."""
    if min(x, y) < 0 or z <= 0 or x + y <= 0:
        raise DomainError("carlson_rd requires x, y >= 0 (one may vanish), z > 0")
    A = (x + y + 3 * z) / 5
    q = (0.25 * _EPS) ** (-1 / 8) * max(abs(A - x), abs(A - y), abs(A - z))
    f = 1.0
    s = 0.0
    while q * f >= abs(A):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        s += f / (sz * (z + lam))
        x, y, z = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4
        A = (A + lam) / 4
        f /= 4
    return _rd_tail(x, y, z, A, f, s)


def _rd_tail(x, y, z, A, f, s):
    X = (A - x) / A
    Y = (A - y) / A
    Z = -(X + Y) / 3
    e2 = X * Y - 6 * Z * Z
    e3 = (3 * X * Y - 8 * Z * Z) * Z
    e4 = 3 * (X * Y - Z * Z) * Z * Z
    e5 = X * Y * Z ** 3
    series = (1 - 3 * e2 / 14 + e3 / 6 + 9 * e2 * e2 / 88 - 3 * e4 / 22
              - 9 * e2 * e3 / 52 + 3 * e5 / 26 - e2 ** 3 / 16
              + 3 * e3 * e3 / 40 + 3 * e2 * e4 / 20 + 45 * e2 * e2 * e3 / 272
              - 9 * (e3 * e4 + e2 * e5) / 68)
    return f * series / (A * math.sqrt(A)) + 3 * s


def carlson_rj(x: float, y: float, z: float, p: float) -> float:
    """R_J(x, y, z, p) by duplication; p > 0 here (no Cauchy principal value)."""
    if min(x, y, z) < 0 or x + y <= 0 or y + z <= 0 or z + x <= 0:
        raise DomainError("carlson_rj requires non-negative x, y, z, at most one zero")
    if p <= 0:
        raise DomainError("carlson_rj implemented for p > 0 only")
    A = (x + y + z + 2 * p) / 5
    delta = (p - x) * (p - y) * (p - z)
    q = (0.2 * _EPS) ** (-1 / 8) * max(abs(A - x), abs(A - y), abs(A - z), abs(A - p))
    f = 1.0
    s = 0.0
    while q * f >= abs(A):
        sx, sy, sz, sp = math.sqrt(x), math.sqrt(y), math.sqrt(z), math.sqrt(p)
        lam = sx * sy + sx * sz + sy * sz
        dn = (sp + sx) * (sp + sy) * (sp + sz)
        en = delta * f ** 3 / (dn * dn)
        if -1.5 < en < -0.5:
            rc_arg = 2 * sp * (p + sx * (sy + sz) + sy * sz) / dn
            s += f / dn * carlson_rc(1.0, rc_arg)
        else:
            s += f / dn * carlson_rc(1.0, 1.0 + en)
        x, y, z, p = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4, (p + lam) / 4
        A = (A + lam) / 4
        f /= 4
    return _rj_tail(x, y, z, p, A, f, s)


def _rj_tail(x, y, z, p, A, f, s):
    X = (A - x) / A
    Y = (A - y) / A
    Z = (A - z) / A
    P = -(X + Y + Z) / 2
    e2 = X * Y + X * Z + Y * Z - 3 * P * P
    e3 = X * Y * Z + 2 * e2 * P + 4 * P ** 3
    e4 = (2 * X * Y * Z + e2 * P + 3 * P ** 3) * P
    e5 = X * Y * Z * P * P
    series = (1 - 3 * e2 / 14 + e3 / 6 + 9 * e2 * e2 / 88 - 3 * e4 / 22
              - 9 * e2 * e3 / 52 + 3 * e5 / 26 - e2 ** 3 / 16
              + 3 * e3 * e3 / 40 + 3 * e2 * e4 / 20 + 45 * e2 * e2 * e3 / 272
              - 9 * (e3 * e4 + e2 * e5) / 68)
    return f * series / (A * math.sqrt(A)) + 6 * s


# -- Legendre complete integrals --------------------------------------------

def ellint_K(msq: float) -> float:
    """Complete integral of the first kind, parameter m = k^2."""
    if msq >= 1:
        raise DivergenceError(f"K diverges for k^2 = {msq} >= 1")
    if msq < 0:
        raise DomainError("k^2 must be non-negative")
    return carlson_rf(0.0, 1.0 - msq, 1.0)


def ellint_E(msq: float) -> float:
    """Complete integral of the second kind, parameter m = k^2."""
    if msq > 1:
        raise DomainError("k^2 must lie in [0, 1]")
    if msq < 0:
        raise DomainError("k^2 must be non-negative")
    if msq == 1:
        return 1.0
    return carlson_rf(0.0, 1.0 - msq, 1.0) - msq / 3 * carlson_rd(0.0, 1.0 - msq, 1.0)


def ellint_Pi(n: float, msq: float) -> float:
    """Complete integral of the third kind with 1/(1 - n sin^2) convention.

    n < 1 (the circular range); large negative n is fine and occurs for the
    axis limit, where callers must keep the accompanying j2^2 prefactor.
    """
    if n >= 1:
        raise DivergenceError(f"Pi has a pole at characteristic n = {n} >= 1")
    return ellint_Pi_from_p(1.0 - n, msq)


def ellint_Pi_from_p(p: float, msq: float) -> float:
    """Third kind parametrized by p = 1 - n, for callers that know the gap.

    Near-circular characteristics (n -> 1) lose all digits when the caller
    forms n first; passing the tiny complement p directly keeps them.
    """
    if msq >= 1:
        raise DivergenceError(f"Pi diverges for k^2 = {msq} >= 1")
    if msq < 0:
        raise DomainError("k^2 must be non-negative")
    if p <= 0:
        raise DivergenceError(f"Pi has a pole at p = 1 - n = {p} <= 0")
    if p == 1.0:
        return ellint_K(msq)
    return carlson_rf(0.0, 1.0 - msq, 1.0) + (1.0 - p) / 3 * carlson_rj(0.0, 1.0 - msq, 1.0, p)


def ellint_F_inc(phi: float, msq: float) -> float:
    """Incomplete first kind F(phi | m) for 0 <= phi <= pi/2."""
    s = math.sin(phi)
    c = math.cos(phi)
    if s == 0:
        return 0.0
    return s * carlson_rf(c * c, 1.0 - msq * s * s, 1.0)


def ellint_E_inc(phi: float, msq: float) -> float:
    """Incomplete second kind E(phi | m) for 0 <= phi <= pi/2."""
    s = math.sin(phi)
    c = math.cos(phi)
    if s == 0:
        return 0.0
    rf = carlson_rf(c * c, 1.0 - msq * s * s, 1.0)
    rd = carlson_rd(c * c, 1.0 - msq * s * s, 1.0)
    return s * rf - msq * s ** 3 / 3 * rd


def heuman_lambda0(phi: float, msq: float) -> float:
    """Heuman's Lambda0(phi, k) with parameter m = k^2.

    Normalized so Lambda0(pi/2, k) = 1; the incomplete integrals run at the
    complementary parameter.  Angles beyond pi/2 (which arise as
    phi = pi - arcsin(...)) reduce through Lambda0(pi - x) = 2 - Lambda0(x).
    """
    if not 0 <= msq <= 1:
        raise DomainError("k^2 must lie in [0, 1]")
    if phi < 0:
        return -heuman_lambda0(-phi, msq)
    if phi > math.pi / 2:
        if phi > math.pi + 1e-12:
            raise DomainError("phi must lie in [0, pi]")
        return 2.0 - heuman_lambda0(math.pi - phi, msq)
    if msq == 1:
        return 2 * phi / math.pi
    mc = 1.0 - msq
    K = ellint_K(msq)
    E = ellint_E(msq)
    F_c = ellint_F_inc(phi, mc)
    E_c = ellint_E_inc(phi, mc)
    return 2 / math.pi * (K * E_c - (K - E) * F_c)


# -- curve geometry ----------------------------------------------------------

@dataclass(frozen=True)
class EnergyMomentum:
    """Scaled energy (zero at the unstable equilibrium) and angular momentum.

    Any pair is accepted here; `cubic_roots` decides whether it lies in
    the image of the momentum map.
    """

    h: float
    j2: float


@dataclass
class EllipticData:
    """Roots of the defining cubic, their gaps and every derived coefficient.

    The solver computes the gaps delta0 = 1 + zeta0, eps1 = 1 - zeta1 and
    eps2 = zeta2 - 1 and the width zeta1 - zeta0, which keep their
    relative accuracy where roots merge with -1, with 1 or with each
    other; the roots are formed from them.
    """

    zeta0: float
    zeta1: float
    zeta2: float
    delta0: float
    eps1: float
    eps2: float
    width: float
    ksq: float
    n_plus: float
    n_minus: float
    c0: float
    c1: float
    c2: float
    c3_plus: float
    c3_minus: float
    phi: float
    c1_tilde: float


def cubic_value(zeta: float, h: float, j2: float) -> float:
    return 2 * (1 - zeta * zeta) * (h + 1 - zeta) - j2 * j2


def _dyadic(x) -> tuple[int, int]:
    """A float or an mpmath mpf as an exact ratio of integers."""
    if isinstance(x, (int, float)):
        return x.as_integer_ratio()
    man, exp = x.man_exp                              # mantissa without sign
    man = -man if x < 0 else man
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def _discriminant(h, j2) -> tuple[int, int]:
    """Discriminant of P at (h, j2) as an exact ratio (num, den), den > 0.

    (h, j2) lies in the image of the momentum map exactly when both are
    finite, h >= -2 and the discriminant is non-negative: P(+-1) = -j2^2,
    P < 0 below -1 once h >= -2 and P -> +inf, so three real roots always
    lie as -1 <= zeta0 <= zeta1 <= 1 <= zeta2.  Floats and mpf values are
    dyadic rationals, so the test is exact.  Raises DomainError outside.
    """
    if not (math.isfinite(h) and math.isfinite(j2)):
        raise DomainError(f"non-finite input (h, j2) = ({h}, {j2})")
    if h < -2:
        raise DomainError(f"h = {h} below the potential minimum -2")
    # P = 2 z^3 - 2u z^2 - 2z + d with u = h + 1 = U/A, j2 = J/B and
    # d = 2u - j2^2; the discriminant times A^4 B^4 is an integer
    hn, a = _dyadic(h)
    jn, b = _dyadic(j2)
    u, b2 = hn + a, b * b
    d = 2 * u * b2 - jn * jn * a
    num = (144 * u * d * a * a * b2 + 32 * u ** 3 * d * b2
           + 16 * u * u * a * a * b2 * b2 + 64 * a ** 4 * b2 * b2
           - 108 * d * d * a * a)
    if num < 0:
        raise DomainError(
            f"no real motion at (h, j2) = ({h}, {j2}): P has complex roots "
            "(h below the relative equilibrium energy)")
    return num, a ** 4 * b2 * b2


def _gaps(h, j2, eps2, tol, disc, sqrt_ratio):
    """Gaps (delta0, eps1, eps2) and width zeta1 - zeta0 in the type of h.

    The same code runs on floats and on mpf.  eps2 solves its own equation
    2e(2 + e)(e - h) = j2^2 by Newton from the start `eps2`.  Above the
    root that cubic is convex and increasing, so from a start above it, or
    after the first step from just below, the iterates fall monotonically
    onto the root with ever shorter steps.  A step below `tol` relative
    leaves an error of order tol^2; a step that does not shrink is
    rounding noise (j2^2 subnormal); either ends the loop.

    The width follows from the exact discriminant `disc` = 4 width^2
    P'(zeta2)^2, with `sqrt_ratio(n, d)` = sqrt(n / d) in the working
    type.  delta0 and delta1 = 1 + zeta1 are the two small roots of
    2d(2 - d)(h + 2 - d) = j2^2, with sum h + 2 - eps2 and product
    j2^2 / (2 (2 + eps2)), so neither cancels; eps1 = 2 - delta1 is a sum
    of non-negative terms for h <= 0 and the product form of its own
    equation for h > 0.  Every gap is non-negative by construction.  On the
    axis the roots are -1, 1 and 1 + h.  Where j2^2 underflows (floats
    only) eps1 and eps2 are the roots of the quadratic approximation
    4e(e - h) = j2^2, whose relative error O(e) is below the rounding once
    they matter (|h| tiny); their product j2^2 / 4 is formed without
    squaring j2, and delta0 ~ j2^2 / 8 is 0.
    """
    if j2 == 0:
        return 0.0, max(0.0, -h), max(0.0, h), 2 - max(0.0, -h)
    jsq = j2 * j2
    if jsq == 0:
        big = (abs(h) + math.hypot(h, j2)) / 2
        small = abs(j2) / 2 * (abs(j2) / (2 * big)) if big else 0.0
        eps1, eps2 = (small, big) if h >= 0 else (big, small)
        return 0.0, eps1, eps2, 2 - eps1
    last = math.inf
    while True:
        slope = 2 * ((2 + 2 * eps2) * (eps2 - h) + eps2 * (2 + eps2))
        step = (2 * eps2 * (2 + eps2) * (eps2 - h) - jsq) / slope
        eps2 -= step
        if not tol * eps2 < abs(step) < last:   # converged, or rounding noise
            break
        last = abs(step)
    slope = 2 * ((2 + 2 * eps2) * (eps2 - h) + eps2 * (2 + eps2))  # P'(zeta2)
    sn, sd = _dyadic(slope)
    width = sqrt_ratio(disc[0] * sd * sd, 4 * disc[1] * sn * sn)
    delta1 = (h + 2 - eps2 + width) / 2
    delta0 = jsq / (2 * (2 + eps2) * delta1)
    eps1 = eps2 - h + delta0 if h <= 0 else jsq / (2 * eps2 * (2 - delta0))
    return delta0, eps1, eps2, width


def _lambda0_terms(h, j2, delta0, eps1, eps2, sqrt, atan2):
    """Heuman angle phi and coefficient c1~ of the Lambda0 form, from the gaps.

    The same code runs on floats and on mpf, with `sqrt` and `atan2` of
    the working type.  By Vieta sin^2 phi = zeta2 (1 + zeta0 zeta1) /
    (zeta2 - zeta1) and cos^2 phi = zeta1^2 (zeta0 + zeta2) / (zeta2 -
    zeta1), and cos phi has the sign of -zeta1 (phi = pi - arcsin for
    zeta1 > 0, arcsin for zeta1 < 0, continuous through zeta1 = 0).
    """
    inner = (1 + eps2) * (delta0 + eps1 * (1 - delta0))  # zeta2 (1 + zeta0 zeta1)
    phi = atan2(sqrt(inner), (eps1 - 1) * sqrt(delta0 + eps2))  # cos ~ -zeta1
    c1_tilde = (h - eps2 - j2 * j2 / (4 * (2 + eps2))
                - abs(j2) / 2 * sqrt(eps2 * inner / (2 * (2 + eps2))))
    return phi, c1_tilde


def cubic_roots(em: EnergyMomentum) -> EllipticData:
    """Ordered roots -1 <= zeta0 <= zeta1 <= 1 <= zeta2, gaps and derived data.

    This is the one place that solves P and the one place that decides,
    exactly, whether (h, j2) lies in the image of the momentum map; it
    raises DomainError outside (non-finite input, h < -2, or h below the
    relative equilibrium energy).  eps2 starts from the root of the
    quadratic approximation 4e(e - h) = j2^2, which lies above it.
    """
    h, j2 = em.h, em.j2
    disc = _discriminant(h, j2)
    jsq = j2 * j2
    s = math.hypot(h, j2)
    start = (h + s) / 2 if h >= 0 else jsq / (2 * (s - h))
    delta0, eps1, eps2, width = _gaps(h, j2, start, math.sqrt(_EPS), disc,
                                      lambda n, d: math.sqrt(n / d))
    span = 2 - delta0 + eps2                           # zeta2 - zeta0
    phi, c1_tilde = _lambda0_terms(h, j2, delta0, eps1, eps2,
                                   math.sqrt, math.atan2)
    c1 = h - eps2                                      # 1 + h - zeta2
    return EllipticData(
        zeta0=delta0 - 1, zeta1=1 - eps1, zeta2=1 + eps2,
        delta0=delta0, eps1=eps1, eps2=eps2, width=width,
        ksq=width / span, n_plus=width / (2 - delta0),
        n_minus=-width / delta0 if delta0 else -math.inf,
        c0=4 / (math.pi * math.sqrt(2 * span)), c1=c1, c2=span,
        c3_plus=jsq / (4 * (2 - delta0)),
        c3_minus=jsq / (4 * delta0) if delta0 else 0.0,
        phi=phi, c1_tilde=c1_tilde)
