"""Lie-series Birkhoff normal form at the unstable equilibrium.

The working algebra is the polynomials in X = e^(2 theta1), Y = (J1^2 +
J2^2) e^(-2 theta1) and Z = J1, the seed's q^2, p^2 and J1, held as
:class:`Series` in (X, Y, Z) with weights (2, 2, 2).  Under {f, g} =
f_theta1 g_J1 - f_J1 g_theta1 they close as the Lie-Poisson bracket of
sl(2), {X, Y} = 4 Z, {X, Z} = 2 X, {Y, Z} = -2 Y, whose Casimir XY - Z^2
= J2^2 commutes with everything: J2 never enters and no exponent goes
negative.  The bracket of X^i1 Y^j1 Z^k1 and X^i2 Y^j2 Z^k2 has two terms,
4 (i1 j2 - j1 i2) X^(i1+i2-1) Y^(j1+j2-1) Z^(k1+k2+1) and
2 ((i1-j1) k2 - k1 (i2-j2)) X^(i1+i2) Y^(j1+j2) Z^(k1+k2-1), each weight
zero wherever its exponent would go negative.  The seed Hamiltonian has
pure even grades, and the homological operator {Z, .} multiplies X^i Y^j
Z^k by 2(j - i), so there are no small denominators and the normal form
is the i = j part, a polynomial in XY = J1^2 + J2^2 and Z = J1.  The
Deprit triangle (A. Deprit, Celestial Mechanics 1, 1969) grows by one
diagonal per stage, in exact rational arithmetic, in units kappa = nu = 1.
Each of its entries and generators has a single grade 2d, so k = d - i -
j: the kernel `_bracket` sums an entry's brackets into one dense integer
list indexed by i * stride + j, and each entry is decoded and reduced
once.  `poisson_bracket` is the same kernel, one output grade at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .series import Series

VARS = ("X", "Y", "Z")   # e^(2 theta1), (J1^2 + J2^2) e^(-2 theta1), J1
WEIGHTS = (2, 2, 2)


def monomial(i: int, j: int, k: int, order: int, coeff=1) -> Series:
    """coeff * X^i Y^j Z^k, in the algebra truncated at grade `order`."""
    return Series(order, VARS, {(i, j, k): coeff}, WEIGHTS)


def _bracket(acc: list, f: Series, g: Series, factor: int, stride: int) -> None:
    """Add factor * den_f * den_g * {f, g} to `acc`, the dense numerators of
    one grade, X^i Y^j Z^k at index i * stride + j.  f and g each have a
    single grade, and no exponent of X or Y in the result reaches `stride`.
    A term pair adds its two terms (module docstring) at key1 + key2 -
    stride - 1 and key1 + key2.  Nothing is truncated."""
    rows2 = [(i * stride + j, i, j, k, i - j, n) for (i, j, k), n in g._num.items()]
    down = stride + 1
    for (i1, j1, k1), n1 in f._num.items():
        key1, m1, n1 = i1 * stride + j1, i1 - j1, 2 * factor * n1
        i1, j1 = 2 * i1, 2 * j1
        for key2, i2, j2, k2, m2, n2 in rows2:
            n, key = n1 * n2, key1 + key2
            weight = i1 * j2 - j1 * i2
            if weight:
                acc[key - down] += weight * n
            weight = m1 * k2 - k1 * m2
            if weight:
                acc[key] += weight * n


def _decode(acc: list, d: int, stride: int) -> dict:
    """{(i, j, d - i - j): numerator} of the nonzero slots of `acc`."""
    return {(i, j, d - i - j): n for (i, j), n in
            zip(product(range(d + 1), range(stride)), acc) if n}


def poisson_bracket(f: Series, g: Series) -> Series:
    """{f, g} = (df/dtheta1)(dg/dJ1) - (df/dJ1)(dg/dtheta1), the terms of
    grade within the smaller order: `_bracket` on each pair of grade parts
    that lands there, over den_f den_g, decoded once per grade."""
    order = f._check_compatible(g)
    stride = order // 2 + 1     # above the highest degree d (grade 2d) kept
    parts = [[s.grade_part(2 * d) for d in range(stride)] for s in (f, g)]
    num: dict[tuple, int] = {}
    for d in range(1, stride):
        acc = [0] * ((d + 1) * stride)
        for d1 in range(1, d + 1):
            fp, gp = parts[0][d1], parts[1][d + 1 - d1]
            if fp._num and gp._num:
                _bracket(acc, fp, gp, f.den * g.den // (fp.den * gp.den), stride)
        num.update(_decode(acc, d, stride))
    return f._like(num, f.den * g.den, order)


def homological_solve(h: Series) -> tuple[Series, Series]:
    """(kernel, generator W) of h: the i = j part K, and W with {Z, W} =
    K - h, that is dW/dtheta1 = h - K (frequency nu = 1): each X^i Y^j Z^k
    term, i != j, divided by 2(i - j) over the lcm of those divisors."""
    m = {k: 2 * (k[0] - k[1]) for k in h._num if k[0] != k[1]}
    lcm_m = math.lcm(*map(abs, m.values()))
    return (h._like({k: n for k, n in h._num.items() if k not in m}, h.den),
            h._like({k: h._num[k] * (lcm_m // mk) for k, mk in m.items()}, h.den * lcm_m))


def seed_hamiltonian(order: int) -> Series:
    """Hamiltonian expanded through grade `order` in (X, Y, Z).

    X = q^2 = e^{2 theta1}, Y = p^2 = (J1^2 + J2^2) e^{-2 theta1} and Z =
    J1: the grade-2 part is exactly Z, the grade-4 kinetic term is
    -(1/8)(X - Y)^2 and the potential contributes -sum_{n>=2}
    (2n-3)!!/(2n)!! * rho^{2n} with rho^2 = (X + Y)/2 - Z.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    x, y, z = (monomial(*e, order) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    h = z
    if order >= 4:
        diff = x - y
        h = h + (diff * diff).scale(Fraction(-1, 8))
        rho2 = (x + y).scale(Fraction(1, 2)) - z
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

    Entries and generators are Series over (X, Y, Z); stage n's entries
    have the single grade 2n + 2, and each sums its brackets into one dense
    list over one denominator (`_bracket`), decoded and reduced once.  A
    kernel term (XY)^i Z^k reads as sum_l C(i, l) j1^(2l+k) j2^(2(i-l)).
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    nmax = (order - 2) // 2
    seed = seed_hamiltonian(2 * nmax + 2)
    stride = nmax + 2           # above every exponent of X or Y, degree <= nmax + 1
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
            acc = [0] * ((n + 2) * stride)
            for (a, b, _), v in entry._num.items():
                acc[a * stride + b] = v * (den // entry.den)
            for c, f, w in pairs:
                _bracket(acc, f, w, c * (den // (f.den * w.den)), stride)
            rows[(i, j)] = seed._like(_decode(acc, n + 1, stride), den)
        top = rows[(0, n)]
        kernel, generator = homological_solve(top)
        delta = kernel - top
        for j in range(1, n + 1):
            rows[(n - j, j)] = rows[(n - j, j)] + delta
        kernels.append(kernel)
        generators.append(generator)
    normal: dict[tuple, Fraction] = {}
    for n, kernel in enumerate(kernels):
        for (i, _, k), c in kernel.scale(Fraction(1, math.factorial(n))).terms().items():
            for l in range(i + 1):
                key = (2 * l + k, 2 * (i - l))
                normal[key] = normal.get(key, 0) + math.comb(i, l) * c
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

    Splits H4 into its i = j average and oscillating remainder and checks
    that the transformed Hamiltonian at first order agrees between the two
    schemes.  The Lie generator W4 is by construction the integral in
    theta1 of the oscillating part; the mixed-variable generating function
    carries the opposite sign (S1 = -W4 for new-momenta conventions).
    """
    h4 = seed_hamiltonian(4).grade_part(4)
    average, w4 = homological_solve(h4)

    # (1/16) J1^2 + (3/16) J2^2 with J1^2 = Z^2 and J2^2 = XY - Z^2
    expected_average = (monomial(1, 1, 0, 4, Fraction(3, 16))
                        + monomial(0, 0, 2, 4, Fraction(-1, 8)))
    average_ok = average == expected_average

    # First order: the Lie route keeps K4 = H4 + {J1, W4}; the averaging
    # route removes the oscillating part.  Both leave exactly the average.
    lie_k4 = h4 + poisson_bracket(monomial(0, 0, 1, 4), w4)
    first_order_ok = lie_k4 == average
    return AveragingCrossCheck(average=average, w4=w4, average_ok=average_ok,
                               first_order_ok=first_order_ok)
