"""Complete elliptic integrals, Heuman's Lambda0 and the curve geometry.

Carlson symmetric forms with duplication give K, E and Pi uniformly,
including the large-negative characteristics that appear on the axis of
small angular momentum.  Every kernel takes the complementary parameter
k'^2, which the gaps of the defining cubic give with full relative
accuracy up to the critical value; :class:`EllipticData` bundles the
roots, their gaps and k'^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_EPS = 2.220446049250313e-16


class DomainError(ValueError):
    """Parameters outside the admissible region; message names the violation."""


class DivergenceError(ValueError):
    """Integral diverges at the requested parameter (k'^2 = 0 or n >= 1),
    or a series evaluated inside the image overflows to an infinity or NaN;
    DomainError, not this, means a point outside the image."""


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
    """R_C(x, y) = R_F(x, y, y); y may be negative (principal value).

    For y < x, atanh(t) with t = sqrt((x - y) / x) is taken as ln((1 + t)
    sqrt(x / y)) = log1p((sqrt(x - y) + (x - y) / (sqrt(x) + sqrt(y))) /
    sqrt(y)), a sum of positive terms, so it keeps its digits as y / x ->
    0, where t rounds to 1.
    """
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
    sx, sy, sd = math.sqrt(x), math.sqrt(y), math.sqrt(x - y)
    return math.log1p((sd + (x - y) / (sx + sy)) / sy) / sd


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
    return _rdj_tail(e2, e3, e4, e5, A, f) + 3 * s


def _rdj_tail(e2, e3, e4, e5, A, f):
    """f A^(-3/2) times the fifth-order series in the elementary symmetric
    functions that R_D and R_J share after duplication."""
    series = (1 - 3 * e2 / 14 + e3 / 6 + 9 * e2 * e2 / 88 - 3 * e4 / 22
              - 9 * e2 * e3 / 52 + 3 * e5 / 26 - e2 ** 3 / 16
              + 3 * e3 * e3 / 40 + 3 * e2 * e4 / 20 + 45 * e2 * e2 * e3 / 272
              - 9 * (e3 * e4 + e2 * e5) / 68)
    return f * series / (A * math.sqrt(A))


def carlson_rj(x: float, y: float, z: float, p: float) -> float:
    """R_J(x, y, z, p) by duplication; p > 0 here (no Cauchy principal value).

    The arguments are first scaled by the power of 4 that brings the
    largest near 2^300, and the result back by the matching power of 8
    (R_J has degree -3/2); powers of two scale exactly.  The cubed
    products of the duplication then stay below overflow.  Arguments of
    widely different sizes still defeat it; against mpmath,
    (0, 6.96e-299, 1, 7.28e-302) divides by zero, (0, 2.27e-322, 1,
    1.97e-254) is 97 % off and (0, 3.76e-61, 4.89e-86, 7.33e75) 8 % off.
    The callers stay clear of such points: `rotation_W_numeric` takes its
    limit form below |(h, j2)| = 1e-20, `ellint_Pi` passes x = 0, z = 1
    and p in [2^-53, 2], and `action_J1_numeric` x = 0, z = 1 and p in
    (0, 1]; there y falls to 2e-24 next to h = -2, at the largest float
    j2, with J1 still within 1e-14 of a 300-bit reference.
    """
    if min(x, y, z) < 0 or x + y <= 0 or y + z <= 0 or z + x <= 0:
        raise DomainError("carlson_rj requires non-negative x, y, z, at most one zero")
    if p <= 0:
        raise DomainError("carlson_rj implemented for p > 0 only")
    e = (300 - math.frexp(max(x, y, z, p))[1]) // 2
    x, y, z, p = (math.ldexp(v, 2 * e) for v in (x, y, z, p))
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
    return math.ldexp(_rj_tail(x, y, z, p, A, f, s), 3 * e)


def _rj_tail(x, y, z, p, A, f, s):
    X = (A - x) / A
    Y = (A - y) / A
    Z = (A - z) / A
    P = -(X + Y + Z) / 2
    e2 = X * Y + X * Z + Y * Z - 3 * P * P
    e3 = X * Y * Z + 2 * e2 * P + 4 * P ** 3
    e4 = (2 * X * Y * Z + e2 * P + 3 * P ** 3) * P
    e5 = X * Y * Z * P * P
    return _rdj_tail(e2, e3, e4, e5, A, f) + 6 * s


# -- Legendre integrals at the complementary parameter ---------------------
#
# Every kernel takes mc = k'^2 = 1 - k^2.  The curve geometry forms it
# from the gaps, where it keeps its digits next to the critical value;
# k^2 itself rounds to 1 there.

def _check_mc(mc: float) -> None:
    if not 0 <= mc <= 1:
        raise DomainError(f"k'^2 = {mc} outside [0, 1]")


def ellint_K(mc: float) -> float:
    """Complete integral of the first kind K(k), from mc = k'^2."""
    _check_mc(mc)
    if mc == 0:
        raise DivergenceError("K diverges at k'^2 = 0")
    return carlson_rf(0.0, mc, 1.0)


def ellint_E(mc: float) -> float:
    """Complete integral of the second kind E(k), from mc = k'^2.

    E = (mc/3) (R_D(0, mc, 1) + R_D(0, 1, mc)) (DLMF 19.25.1): both terms
    are positive, so no digits cancel where K is large.  Below 2^-1000,
    E - 1 = O(mc ln mc) is far below rounding and R_D(0, 1, mc) ~ 3/mc
    nears overflow, so E is 1 there.
    """
    _check_mc(mc)
    if mc < 2.0 ** -1000:
        return 1.0
    return mc / 3 * (carlson_rd(0.0, mc, 1.0) + carlson_rd(0.0, 1.0, mc))


def ellint_Pi(n: float, mc: float) -> float:
    """Complete integral of the third kind with 1/(1 - n sin^2) convention.

    n < 1 (the circular range).  For n < -1 the two terms of R_F + (n/3)
    R_J(0, mc, 1, 1 - n) cancel, to a relative error of order |n| eps, so
    there Pi(n) + Pi(k^2/n) = K + (pi/2) sqrt(n / ((1 - n)(n - k^2))) gives,
    with a = -n and m = k^2/n in (-1, 0],

        Pi(n) = (pi/2) sqrt(a / (a + k^2)) / sqrt(1 + a) - (m/3) R_J(0, mc, 1, 1 - m):

    both terms are non-negative and nothing overflows, down to n = -1.7e308.
    """
    if not math.isfinite(n):
        raise DomainError(f"non-finite characteristic n = {n}")
    if n >= 1:
        raise DivergenceError(f"Pi has a pole at characteristic n = {n} >= 1")
    if n >= -1:
        return ellint_Pi_from_p(1.0 - n, mc)
    _check_mc(mc)
    if mc == 0:
        raise DivergenceError("Pi diverges at k'^2 = 0")
    a, ksq = -n, 1.0 - mc
    m = ksq / n
    return (math.pi / 2 * math.sqrt(a / (a + ksq)) / math.sqrt(1.0 + a)
            - m / 3 * carlson_rj(0.0, mc, 1.0, 1.0 - m))


def ellint_Pi_from_p(p: float, mc: float) -> float:
    """Third kind parametrized by p = 1 - n, for callers that know the gap.

    Near-circular characteristics (n -> 1) lose all digits when the caller
    forms n first; passing the tiny complement p directly keeps them.
    """
    _check_mc(mc)
    if mc == 0:
        raise DivergenceError("Pi diverges at k'^2 = 0")
    if p <= 0:
        raise DivergenceError(f"Pi has a pole at p = 1 - n = {p} <= 0")
    if p == 1.0:
        return ellint_K(mc)
    return carlson_rf(0.0, mc, 1.0) + (1.0 - p) / 3 * carlson_rj(0.0, mc, 1.0, p)


def _lambda0(phi: float, mc: float, K: float, E: float) -> float:
    """Heuman's Lambda0 for 0 <= phi <= pi/2, given K and E at mc = k'^2 > 0.

    Lambda0 = (2/pi) (K E(phi | mc) - (K - E) F(phi | mc)), with the
    incomplete integrals at the complementary parameter.  With F = s R_F
    and E(phi | mc) - F = -(mc/3) s^3 R_D (s = sin phi, both at (cos^2
    phi, 1 - mc s^2, 1)) this is (2/pi) (E F - K (mc/3) s^3 R_D): one R_F,
    one R_D, and no difference of large terms where K is large.  At mc = 1
    (k = 0; k'^2 of the cycle rounds to 1 past h ~ 1e16) the terms cancel,
    and the value sin phi is returned exactly.
    """
    if mc == 1:
        return math.sin(phi)
    s, c = math.sin(phi), math.cos(phi)
    delta = 1.0 - mc * s * s
    return 2 / math.pi * (E * s * carlson_rf(c * c, delta, 1.0)
                          - K * mc * s ** 3 / 3 * carlson_rd(c * c, delta, 1.0))


def heuman_lambda0(phi: float, mc: float) -> float:
    """Heuman's Lambda0(phi, k), from mc = k'^2.

    Normalized so Lambda0(pi/2, k) = 1.  Angles beyond pi/2 reduce through
    Lambda0(pi - x) = 2 - Lambda0(x); at mc = 0 (k = 1) it is 2 phi / pi.
    """
    if not math.isfinite(phi):
        raise DomainError(f"non-finite angle phi = {phi}")
    _check_mc(mc)
    if phi < 0:
        return -heuman_lambda0(-phi, mc)
    if phi > math.pi / 2:
        if phi > math.pi + 1e-12:
            raise DomainError("phi must lie in [0, pi]")
        return 2.0 - heuman_lambda0(math.pi - phi, mc)
    if mc == 0:
        return 2 * phi / math.pi
    return _lambda0(phi, mc, ellint_K(mc), ellint_E(mc))


# -- curve geometry ----------------------------------------------------------

@dataclass(frozen=True)
class EnergyMomentum:
    """Scaled energy (zero at the unstable equilibrium) and angular momentum.

    Any pair is accepted here; `cubic_roots` decides whether it lies in
    the image of the momentum map.  Its roots are solved once per object:
    `cubic_roots` keeps them on the instance, outside the fields, so they
    take no part in equality, hashing or the repr.  Equal pairs built
    apart are solved apart.
    """

    h: float
    j2: float


@dataclass(frozen=True)
class EllipticData:
    """Roots of the defining cubic, their gaps, span and k'^2.

    The solver computes the gaps delta0 = 1 + zeta0, eps1 = 1 - zeta1 and
    eps2 = zeta2 - 1 and the width zeta1 - zeta0, which keep their
    relative accuracy where roots merge with -1, with 1 or with each
    other.  The roots, the span zeta2 - zeta0 and the complementary
    parameter kcsq = k'^2 = (zeta2 - zeta1) / (zeta2 - zeta0) of the
    elliptic integrals are formed from them; the fields hold floats, or
    mpf values for the high-precision action.  kcsq is capped at 1: next
    to the relative equilibria at large h the float gaps can put it an ulp
    above, where every Legendre kernel refuses it.
    """

    zeta0: float
    zeta1: float
    zeta2: float
    delta0: float
    eps1: float
    eps2: float
    width: float
    span: float
    kcsq: float

    @classmethod
    def from_gaps(cls, delta0, eps1, eps2, width) -> "EllipticData":
        span = 2 - delta0 + eps2
        return cls(zeta0=delta0 - 1, zeta1=1 - eps1, zeta2=1 + eps2,
                   delta0=delta0, eps1=eps1, eps2=eps2, width=width,
                   span=span, kcsq=min((eps1 + eps2) / span, 1.0))


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


def _gaps(h, j2, eps2, tol, disc):
    """Gaps (delta0, eps1, eps2) and width zeta1 - zeta0, in floats.

    eps2 solves its own equation 2e(2 + e)(e - h) = j2^2 by Newton from
    the start `eps2`.  Above the root that cubic is convex and increasing,
    so from a start above it, or after the first step from just below, the
    iterates fall monotonically onto the root with ever shorter steps.  A
    step below `tol` relative leaves an error of order tol^2; a step that
    does not shrink is rounding noise (j2^2 subnormal); either ends the
    loop.  `actions._cubic_roots_mp` runs the same relations in fixed point.

    The width follows from the exact discriminant `disc` = 4 width^2
    P'(zeta2)^2.  delta0 and delta1 = 1 + zeta1 are the two small roots of
    2d(2 - d)(h + 2 - d) = j2^2, with sum h + 2 - eps2 and product
    j2^2 / (2 (2 + eps2)), so neither cancels; eps1 = 2 - delta1 is a sum
    of non-negative terms for h <= 0 and the product form of its own
    equation for h > 0.  Every gap is non-negative by construction.  On the
    axis the roots are -1, 1 and 1 + h.  Where j2^2 underflows, eps1 and
    eps2 are the roots of the quadratic approximation 4e(e - h) = j2^2,
    whose relative error O(e) is below the rounding once they matter (|h|
    tiny); their product j2^2 / 4 is formed without squaring j2, and
    delta0 ~ j2^2 / 8 is 0.
    """
    if j2 == 0:
        return 0.0, max(0.0, -h), max(0.0, h), 2 - max(0.0, -h)
    jsq = j2 * j2
    if jsq == 0:
        big = abs(h) / 2 + math.hypot(h, j2) / 2      # the sum overflows near 1.8e308
        small = abs(j2) / 2 * (abs(j2) / (2 * big)) if big else 0.0
        eps1, eps2 = (small, big) if h >= 0 else (big, small)
        return 0.0, eps1, eps2, 2 - eps1
    # eps2 (2 + eps2) overflows a float past eps2 = 2^512, and j2^2 past
    # |j2| = 2^512; there the equation and its slope are scaled by 2^-k
    # near 1 / (4 eps2), k even, and jsq becomes (j2 2^(-k/2))^2, which is
    # exact and leaves each Newton step as it was
    k = 0 if eps2 < 2.0 ** 511 else (3 + math.frexp(eps2)[1]) // 2 * 2
    scale = math.ldexp(1.0, -k)
    if k:
        jsq = j2 * math.ldexp(1.0, -k // 2)
        jsq = jsq * jsq
    last = math.inf
    while True:
        slope = 2 * (2 * ((1 + eps2) * scale) * (eps2 - h)
                     + eps2 * scale * (2 + eps2))
        step = (2 * (eps2 * scale) * (2 + eps2) * (eps2 - h) - jsq) / slope
        eps2 -= step
        if not tol * eps2 < abs(step) < last:   # converged, or rounding noise
            break
        last = abs(step)
    # P'(zeta2) times scale
    slope = 2 * (2 * ((1 + eps2) * scale) * (eps2 - h) + eps2 * scale * (2 + eps2))
    sn, sd = _dyadic(slope)
    width = math.sqrt(disc[0] * sd * sd / (4 * disc[1] * sn * sn << 2 * k))
    # delta0 + delta1 = h + 2 - eps2; for h > 0 eps2 - h goes first, or
    # h + 2 drops the 2 once h passes 2^53
    delta1 = ((h + 2 - eps2 if h <= 0 else 2 - (eps2 - h)) + width) / 2
    delta0 = jsq / (2 * ((2 + eps2) * scale) * delta1)
    eps1 = eps2 - h + delta0 if h <= 0 else jsq / (2 * (eps2 * scale) * (2 - delta0))
    return delta0, eps1, eps2, width


def cubic_roots(em: EnergyMomentum) -> EllipticData:
    """Ordered roots -1 <= zeta0 <= zeta1 <= 1 <= zeta2, gaps and derived data.

    This is the one place that solves P.  Before solving, the exact test
    `_discriminant` decides whether (h, j2) lies in the image of the
    momentum map; it raises DomainError outside (non-finite input,
    h < -2, or h below the relative equilibrium energy).  eps2 starts from
    the root of the quadratic approximation 4e(e - h) = j2^2, which lies
    above it.

    The roots are solved once per `em` object: the result is stored on
    it, and later calls with the same object return it.  A refused pair
    stores nothing and raises on every call.
    """
    data = em.__dict__.get("_roots")
    if data is not None:
        return data
    h, j2 = em.h, em.j2
    disc = _discriminant(h, j2)
    jsq = j2 * j2
    s = math.hypot(h, j2)
    start = h / 2 + s / 2 if h >= 0 else jsq / (2 * (s - h))   # h + s may overflow
    data = EllipticData.from_gaps(*_gaps(h, j2, start, math.sqrt(_EPS), disc))
    object.__setattr__(em, "_roots", data)     # em is frozen; _roots is no field
    return data
