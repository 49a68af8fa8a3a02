"""Lie-series Birkhoff normal form at the unstable equilibrium.

The working algebra consists of finite sums of monomials

    c * J1^a * J2^b * e^(m*theta1),    m integer,

closed under multiplication and Poisson bracket.  They are held as
:class:`Series` in the variables (J1, J2, e) with e = exp(theta1) and
weights (2, 2, 1), so a monomial carries the grade 2(a+b) + m; the seed
Hamiltonian decomposes into pure even grades and the homological operator
{H2, .} acts as -m on each exponential, so the normalization proceeds with
no small denominators; the Deprit triangle grows by one diagonal per
stage.  Everything is exact rational arithmetic end to end, in
dimensionless units kappa = nu = 1.

The triangle's entries and generators are Series.  Its bracket kernel,
`_bracket`, reads them on packed exponent keys (`series._pack`): J1^a
J2^b e^m is the integer a + b R + m R^2, so the exponents of a bracket's
term pair add as two integers.  Each entry sums its brackets into one
integer accumulator over one common denominator and is decoded and
reduced once.  `poisson_bracket` is the same kernel on two Series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .series import Series, _digits, _pack, _unpack

VARS = ("J1", "J2", "e")   # e = exp(theta1)
WEIGHTS = (2, 2, 1)


def monomial(a: int, b: int, m: int, order: int, coeff=1) -> Series:
    """coeff * J1^a J2^b e^(m theta1), in the algebra truncated at grade `order`."""
    return Series(order, VARS, {(a, b, m): coeff}, WEIGHTS)


def _bracket_rows(f: Series, bits: int) -> list:
    """(packed key, a, m, numerator) of every term of f, for `_bracket`;
    cached on the instance per `bits`."""
    rows = f._cache.get(("bracket", bits))
    if rows is None:
        rows = f._cache[("bracket", bits)] = [
            (key, a, m, n) for (a, _, m), key, n in
            zip(f._num, _pack(list(f._num), 3, bits), f._num.values())]
    return rows


def _bracket(acc: dict, f: Series, g: Series, factor: int, bits: int) -> None:
    """Add factor * den_f * den_g * {f, g} to `acc`, packed key -> integer,
    with `bits` per digit (`series._pack`).

    A term pair n1 J1^a1 J2^b1 e^m1, n2 J1^a2 J2^b2 e^m2 adds n1 n2 (m1 a2
    - a1 m2) at J1^(a1+a2-1) J2^(b1+b2) e^(m1+m2), whose packed key is
    key1 + key2 - 1.  Nothing is truncated.  Each operand is packed once
    per width, however many brackets use it.
    """
    rows2 = _bracket_rows(g, bits)
    for key1, a1, m1, n1 in _bracket_rows(f, bits):
        key1 -= 1
        n1 *= factor
        for key2, a2, m2, n2 in rows2:
            weight = m1 * a2 - a1 * m2
            if weight:
                key = key1 + key2
                acc[key] = acc.get(key, 0) + weight * n1 * n2


def poisson_bracket(f: Series, g: Series) -> Series:
    """{f, g} = (df/dtheta1)(dg/dJ1) - (df/dJ1)(dg/dtheta1), the terms of
    grade 2(a+b)+m within the smaller order.

    The triangle's kernel `_bracket` over den_f den_g, decoded once.  On
    the algebra (grades >= 0) this is the difference of the two truncated
    products.
    """
    order = f._check_compatible(g)
    bits = _digits(f._span() + g._span())
    acc: dict[int, int] = {}
    _bracket(acc, f, g, 1, bits)
    return f._like({k: n for k, n in zip(_unpack(acc, 3, bits), acc.values())
                    if 2 * (k[0] + k[1]) + k[2] <= order}, f.den * g.den, order)


def homological_solve(h: Series) -> tuple[Series, Series]:
    """(kernel, generator W) of h: the m = 0 part K, and W with dW/dtheta1
    = h - K (frequency nu = 1), each e^(m theta1) term divided by m over
    the lcm of the |m|."""
    rest = {k: n for k, n in h._num.items() if k[2]}
    lcm_m = math.lcm(*(abs(k[2]) for k in rest))
    return (h._like({k: n for k, n in h._num.items() if not k[2]}, h.den),
            h._like({k: n * (lcm_m // k[2]) for k, n in rest.items()}, h.den * lcm_m))


def seed_hamiltonian(order: int) -> Series:
    """Hamiltonian expanded through grade `order` in the exponential algebra.

    Uses q^2 = e^{2 theta1}, p^2 = (J1^2 + J2^2) e^{-2 theta1}; the grade-2
    part is exactly J1, the grade-4 kinetic term is -(1/8)(q^2 - p^2)^2 and
    the potential contributes -sum_{n>=2} (2n-3)!!/(2n)!! * rho^{2n} with
    rho^2 = (q^2 + p^2)/2 - J1.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    e_plus = monomial(0, 0, 2, order)                                  # q^2
    j_sq = monomial(2, 0, 0, order) + monomial(0, 2, 0, order)         # J1^2 + J2^2
    p_sq = j_sq * monomial(0, 0, -2, order)                            # p^2
    j1 = monomial(1, 0, 0, order)

    h = j1
    if order >= 4:
        diff = e_plus - p_sq
        h = h + (diff * diff).scale(Fraction(-1, 8))
        rho2 = (e_plus + p_sq).scale(Fraction(1, 2)) - j1
        rho_pow = rho2 * rho2
        n = 2
        while 2 * n <= order:
            coeff = Fraction(-math.prod(range(2 * n - 3, 0, -2)),   # double factorials
                             math.prod(range(2 * n, 0, -2)))
            h = h + rho_pow.scale(coeff)
            rho_pow = rho_pow * rho2
            n += 1
    return h


def _triangle(order: int) -> tuple[Series, list[Series]]:
    """(normal form, generators) of the Deprit triangle through grade `order`.

    generators[n - 1] is W_n, of grade 2n + 2.  Stage n adds only the
    diagonal i + j = n; earlier entries are final.  It is built with W_n
    unknown, so each entry with j >= 1 lacks the same {H_0, W_n}: the
    kernel minus the top entry, added back once W_n is solved for.

    Entries and generators are Series over (J1, J2, e) at the seed's
    order.  Each entry sums its brackets into one integer accumulator on
    packed keys over one common denominator, and is decoded and reduced
    once; `_bracket` packs each operand once.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    nmax = (order - 2) // 2
    seed = seed_hamiltonian(2 * nmax + 2)
    # Entries and generators are polynomials in e^2, (J1^2 + J2^2) e^-2, J1
    # and J2, so each term has m >= -(a+b); a term pair's bracket has m >=
    # -(a+b) - 1.  With grade 2(a+b) + m <= seed.order, every exponent the
    # triangle packs lies within seed.order + 2.
    bits = _digits(seed.order + 2)
    # Deprit convention: H(eps) = sum eps^n H_n / n! with grade 2n+2 parts.
    # rows[(i, j)] is H_i^j, and rows[(0, n)] ends as the kernel K_n.
    rows = {(i, 0): seed.grade_part(2 * i + 2).scale(math.factorial(i))
            for i in range(nmax + 1)}
    kernels, generators = [seed.grade_part(2)], []
    for n in range(1, nmax + 1):
        for j in range(1, n + 1):
            i = n - j
            entry = rows[(i + 1, j - 1)]
            pairs = [(math.comb(i, k), rows[(i - k, j - 1)], generators[k])
                     for k in range(min(i + 1, n - 1))]
            den = math.lcm(entry.den, *(f.den * w.den for _, f, w in pairs))
            # packed uncached: for j >= 2 the base lacks {H_0, W_n} and is dropped
            acc = dict(zip(_pack(list(entry._num), 3, bits),
                           [v * (den // entry.den) for v in entry._num.values()]))
            for c, f, w in pairs:
                _bracket(acc, f, w, c * (den // (f.den * w.den)), bits)
            rows[(i, j)] = seed._like(dict(zip(_unpack(acc, 3, bits), acc.values())), den)
        top = rows[(0, n)]
        kernel, generator = homological_solve(top)
        delta = kernel - top
        for j in range(1, n + 1):
            rows[(n - j, j)] = rows[(n - j, j)] + delta
        kernels.append(kernel)
        generators.append(generator)
    normal = {(a, b): c for n, kernel in enumerate(kernels) for (a, b, _), c in
              kernel.scale(Fraction(1, math.factorial(n))).terms().items()}
    return Series(order // 2, ("j1", "j2"), normal), generators


def lie_normalize(order: int = 10) -> Series:
    """Birkhoff normal form through grade `order` via the Deprit triangle.

    Returns H(J1, J2) as a Series in (j1, j2) of total degree order/2;
    the output depends on J1 and J2^2 only (`_triangle`).
    """
    return _triangle(order)[0]


# -- linear normal form ------------------------------------------------------

def verify_linear_nf() -> None:
    """Check the linear normalization exactly in integer arithmetic.

    Coordinates are ordered (xi, p_xi, eta, p_eta) for the old chart and
    (q1, p1, q2, p2) for the new one; the transformation is old = M new
    with M = M0 / sqrt(2), M0 integer, so every congruence M^T A M = image
    reads M0^T A M0 = 2 image on integer matrices.  The rotation sqrt(2) xi
    = q1 - p1, sqrt(2) p_xi = q1 + p1 (likewise for eta) must be
    symplectic, leave the angular momentum Hessian invariant and carry the
    Hamiltonian Hessian to nu * D^2(q1 p1 + q2 p2) with nu = 1; A = J4 D^2H
    must have A A = nu^2 I and trace 0, so it is diagonalizable with the
    eigenvalues +-nu, each twice, and no elliptic frequency.  Returns
    nothing: any failed identity raises ArithmeticError.
    """
    def matmul(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    m0 = [[1, -1, 0, 0],
          [1, 1, 0, 0],
          [0, 0, 1, -1],
          [0, 0, 1, 1]]
    j4 = [[0, 1, 0, 0],
          [-1, 0, 0, 0],
          [0, 0, 0, 1],
          [0, 0, -1, 0]]
    # Quadratic Hamiltonian (p_xi^2 + p_eta^2 - xi^2 - eta^2)/2.
    hess_h = [[-1, 0, 0, 0],
              [0, 1, 0, 0],
              [0, 0, -1, 0],
              [0, 0, 0, 1]]
    # J2 = xi p_eta - eta p_xi has the same Hessian as q1 p2 - q2 p1.
    hess_j2 = [[0, 0, 0, 1],
               [0, 0, -1, 0],
               [0, -1, 0, 0],
               [1, 0, 0, 0]]
    hess_j1 = [[0, 1, 0, 0],
               [1, 0, 0, 0],
               [0, 0, 0, 1],
               [0, 0, 1, 0]]
    m0_t = list(zip(*m0))
    for name, a, image in (("symplectic form", j4, j4),
                           ("angular momentum", hess_j2, hess_j2),
                           ("Hamiltonian", hess_h, hess_j1)):
        if matmul(matmul(m0_t, a), m0) != [[2 * x for x in row] for row in image]:
            raise ArithmeticError(f"linear normal form: {name} identity failed")

    a = matmul(j4, hess_h)
    if (matmul(a, a) != [[int(i == k) for k in range(4)] for i in range(4)]
            or sum(a[i][i] for i in range(4)) != 0):
        raise ArithmeticError(f"J4 D^2H = {a} is not an involution of trace 0")


# -- first-order cross-check against the averaging construction -------------

@dataclass
class AveragingCrossCheck:
    average: Series
    w4: Series                        # Lie generator at grade 4
    average_ok: bool
    first_order_ok: bool

    @property
    def passed(self) -> bool:
        return self.average_ok and self.first_order_ok


def canonical_pt_cross_check() -> AveragingCrossCheck:
    """Compare the grade-4 Lie step with the formal averaging construction.

    Splits H4 into its m = 0 average and oscillating remainder and checks
    that the transformed Hamiltonian at first order agrees between the two
    schemes.  The Lie generator W4 is by construction the integral in
    theta1 of the oscillating part; the mixed-variable generating function
    carries the opposite sign (S1 = -W4 for new-momenta conventions).
    """
    h4 = seed_hamiltonian(4).grade_part(4)
    average, w4 = homological_solve(h4)

    expected_average = (monomial(2, 0, 0, 4, Fraction(1, 16))
                        + monomial(0, 2, 0, 4, Fraction(3, 16)))
    average_ok = average == expected_average

    # First order: the Lie route keeps K4 = H4 + {J1, W4}; the averaging
    # route removes the oscillating part.  Both leave exactly the average.
    lie_k4 = h4 + poisson_bracket(monomial(1, 0, 0, 4), w4)
    first_order_ok = lie_k4 == average
    return AveragingCrossCheck(average=average, w4=w4, average_ok=average_ok,
                               first_order_ok=first_order_ok)
