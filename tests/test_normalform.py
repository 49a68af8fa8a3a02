"""Lie normalization: seed expansion, homological steps, normal form."""

import math
import random
from fractions import Fraction as F

import pytest

from pendinv import normalform
from pendinv.normalform import (VARS, WEIGHTS, canonical_pt_cross_check,
                                homological_solve, lie_normalize, monomial,
                                poisson_bracket, seed_hamiltonian, verify_linear_nf)
from pendinv.series import Series, _digits, _pack, _unpack

J2SQ = [(0, 2, 0), (2, 0, 0)]
ORDER = 40      # above every grade these tests build


def pc(terms):
    return Series(ORDER, VARS, terms, WEIGHTS)


def grades(f):
    return {f.grade(k) for k in f.terms()}


def dtheta(f):
    """Partial derivative with respect to theta1 (multiplies by m)."""
    return f.map(lambda k, c: c * k[2])


def kernel_part(f):
    """Terms with m = 0: the theta1-independent component."""
    return f.map(lambda k, c: c if k[2] == 0 else 0)


def test_seed_grade2_is_j1():
    h = seed_hamiltonian(2)
    assert h.terms() == {(1, 0, 0): F(1)}


def test_seed_has_no_grade3():
    assert seed_hamiltonian(8).grade_part(3).is_zero()
    assert seed_hamiltonian(8).grade_part(5).is_zero()


def test_seed_grade4_displayed():
    h4 = seed_hamiltonian(4).grade_part(4)
    # -(5/32) J^4 e^{-4t} + (1/8) J1 J^2 e^{-2t} + J1^2/16 + 3 J2^2/16
    #   + (1/8) J1 e^{2t} - (5/32) e^{4t},  J^2 = J1^2 + J2^2
    expected = {
        (4, 0, -4): F(-5, 32), (2, 2, -4): F(-5, 16), (0, 4, -4): F(-5, 32),
        (3, 0, -2): F(1, 8), (1, 2, -2): F(1, 8),
        (2, 0, 0): F(1, 16), (0, 2, 0): F(3, 16),
        (1, 0, 2): F(1, 8), (0, 0, 4): F(-5, 32),
    }
    assert h4.terms() == expected


def test_poisson_bracket_basics():
    j1 = monomial(1, 0, 0, ORDER)
    j2 = monomial(0, 1, 0, ORDER)
    assert poisson_bracket(j1, j2).is_zero()
    for m in (-4, -1, 2, 5):
        e = monomial(0, 0, m, ORDER)
        assert poisson_bracket(j1, e) == monomial(0, 0, m, ORDER, -m)


def test_bracket_grading():
    rng = random.Random(0)
    for _ in range(20):
        f = pc({(rng.randint(0, 3), rng.randint(0, 2),
                 rng.randint(-3, 3)): F(rng.randint(1, 5))})
        g = pc({(rng.randint(0, 3), rng.randint(0, 2),
                 rng.randint(-3, 3)): F(rng.randint(1, 5))})
        br = poisson_bracket(f, g)
        if br.is_zero():
            continue
        gf = next(iter(grades(f)))
        gg = next(iter(grades(g)))
        assert grades(br) == {gf + gg - 2}


def test_kernel_parts_commute():
    rng = random.Random(1)
    for _ in range(10):
        f = pc({(rng.randint(0, 4), rng.randint(0, 4), 0): F(1)})
        g = pc({(rng.randint(0, 4), rng.randint(0, 4), 0): F(2, 3)})
        assert poisson_bracket(f, g).is_zero()


def test_homological_solve_grade4():
    h4 = seed_hamiltonian(4).grade_part(4)
    kernel, w4 = homological_solve(h4)
    assert kernel.terms() == {(2, 0, 0): F(1, 16), (0, 2, 0): F(3, 16)}
    expected_w4 = {
        (4, 0, -4): F(5, 128), (2, 2, -4): F(5, 64), (0, 4, -4): F(5, 128),
        (3, 0, -2): F(-1, 16), (1, 2, -2): F(-1, 16),
        (1, 0, 2): F(1, 16), (0, 0, 4): F(-5, 128),
    }
    assert w4.terms() == expected_w4
    # Lie equation: dW4/dtheta1 = H4 - K4 exactly
    assert dtheta(w4) == h4 - kernel
    # already-normalized input returns a zero generator
    k2, w2 = homological_solve(kernel)
    assert k2 == kernel and w2.is_zero()


def test_lie_normalize_low_orders():
    h4 = lie_normalize(4)
    assert h4.terms() == {(1, 0): F(1), (2, 0): F(1, 16), (0, 2): F(3, 16)}
    h6 = lie_normalize(6)
    assert h6.coeff(3, 0) == F(-1, 256)
    assert h6.coeff(1, 2) == F(-9, 256)


def test_lie_normalize_grade10_displayed():
    h = lie_normalize(10)
    expected = {
        (1, 0): F(1),
        (2, 0): F(1, 16), (0, 2): F(3, 16),
        (3, 0): F(-1, 256), (1, 2): F(-9, 256),
        (4, 0): F(5, 8192), (2, 2): F(102, 8192), (0, 4): F(33, 8192),
        (5, 0): F(-33, 262144), (3, 2): F(-1230, 262144),
        (1, 4): F(-813, 262144),
    }
    assert h.terms() == expected


def test_lie_normalize_even_in_j2():
    h = lie_normalize(12)
    assert all(b % 2 == 0 for (_, b) in h.terms())


def test_lie_normalize_deterministic_and_storage_order_independent():
    a = lie_normalize(10)
    b = lie_normalize(10)
    assert a == b
    # algebra results do not depend on term insertion order
    rng = random.Random(2)
    h4 = seed_hamiltonian(6).grade_part(4)
    items = list(h4.terms().items())
    rng.shuffle(items)
    shuffled = Series(h4.order, VARS, dict(items), WEIGHTS)
    assert shuffled == h4
    k1, w1 = homological_solve(h4)
    k2, w2 = homological_solve(shuffled)
    assert k1 == k2 and w1 == w2


def test_generators_live_in_the_range():
    # each stage generator is theta1-dependent only and of pure grade 2n+2
    _, generators = normalform._triangle(10)
    for n, w in enumerate(generators, start=1):
        assert isinstance(w, Series) and (w.vars, w.weights) == (VARS, WEIGHTS)
        assert kernel_part(w).is_zero()
        assert grades(w) == {2 * n + 2}


def test_order_validation():
    with pytest.raises(ValueError):
        lie_normalize(1)
    with pytest.raises(ValueError):
        seed_hamiltonian(0)


def test_linear_nf_exact():
    verify_linear_nf()


def test_averaging_cross_check():
    rep = canonical_pt_cross_check()
    assert rep.passed
    assert rep.average.terms() == {(2, 0, 0): F(1, 16), (0, 2, 0): F(3, 16)}
    # the generator integrates the oscillating part, H4 minus its average
    h4 = seed_hamiltonian(4).grade_part(4)
    assert dtheta(rep.w4) == h4 - rep.average
    # leading term of the integrated oscillation: (5/128) J^4 e^{-4 theta1}
    assert rep.w4.coeff(4, 0, -4) == F(5, 128)


# -- oracles: the bracket as two truncated products, and the triangle
# rebuilt from its first row at every stage ----------------------------------

def bracket_two_products(f, g):
    """{f, g} as dtheta(f) g_J1 - f_J1 dtheta(g), each factor truncated."""
    order = min(f.order, g.order)
    return (dtheta(f) * g.partial(0).truncate(order)
            - f.partial(0).truncate(order) * dtheta(g))


def lie_normalize_rebuilt(order):
    """(normal form, generators) with every entry H_i^j, i + j <= n,
    recomputed at stage n, W_n taken as zero; its bracket {H_0, W_n}
    enters only through the homological equation."""
    nmax = (order - 2) // 2
    seed = seed_hamiltonian(2 * nmax + 2)
    h_seed = [seed.grade_part(2 * n + 2).scale(math.factorial(n))
              for n in range(nmax + 1)]
    generators, kernels = [], [h_seed[0]]

    def triangle_top(n):
        rows = {(i, 0): h_seed[i] for i in range(n + 1)}
        for j in range(1, n + 1):
            for i in range(n - j + 1):
                acc = rows[(i + 1, j - 1)]
                for k in range(min(i + 1, len(generators))):
                    term = bracket_two_products(rows[(i - k, j - 1)], generators[k])
                    acc = acc + term.scale(math.comb(i, k))
                rows[(i, j)] = acc
        return rows[(0, n)]

    for n in range(1, nmax + 1):
        kernel, generator = homological_solve(triangle_top(n))
        kernels.append(kernel)
        generators.append(generator)
    normal = Series(seed.order, VARS, None, WEIGHTS)
    for n, k_n in enumerate(kernels):
        normal = normal + k_n.scale(F(1, math.factorial(n)))
    series = Series(order // 2, ("j1", "j2"),
                    {(a, b): c for (a, b, _), c in normal.terms().items()})
    return series, generators


def test_incremental_triangle_matches_the_rebuilt_one():
    # odd orders share nmax with the even order below them
    rebuilt = {}
    for order in range(4, 21):
        series, generators = normalform._triangle(order)
        nmax = (order - 2) // 2
        if nmax not in rebuilt:
            rebuilt[nmax] = lie_normalize_rebuilt(order)
        ref_series, ref_generators = rebuilt[nmax]
        assert series == ref_series.truncate(order // 2)
        assert series.order == order // 2
        assert generators == ref_generators


def random_algebra_element(rng, order, n_terms, grade=None):
    """Up to `n_terms` random J1^a J2^b e^m terms of non-negative grade
    <= order (`grade` if given); m = grade - 2(a + b) takes either sign."""
    terms = {}
    for _ in range(n_terms):
        a, b = rng.randint(0, 5), rng.randint(0, 4)
        m = (rng.randint(0, order) if grade is None else grade) - 2 * (a + b)
        terms[(a, b, m)] = F(rng.randint(-9, 9) or 1, rng.choice((1, 2, 3, 16, 35)))
    return Series(order, VARS, terms, WEIGHTS)


def test_one_pass_bracket_matches_the_two_products():
    rng = random.Random(20)
    for _ in range(200):
        f_order, g_order = rng.randint(2, 16), rng.randint(2, 16)   # unequal: truncation
        f = random_algebra_element(rng, f_order, rng.randint(1, 12))
        g = random_algebra_element(rng, g_order, rng.randint(1, 12))
        br = poisson_bracket(f, g)
        ref = bracket_two_products(f, g)
        assert br == ref
        assert br.order == ref.order == min(f_order, g_order)
        assert all(c != 0 for c in br.terms().values())
    # a pure-grade pair keeps to grade g1 + g2 - 2, and past the order to nothing
    f = random_algebra_element(rng, 12, 6, grade=6)
    g = random_algebra_element(rng, 12, 6, grade=8)
    assert grades(poisson_bracket(f, g)) == {12}
    assert poisson_bracket(f.truncate(10), g).is_zero()
    assert bracket_two_products(f.truncate(10), g).is_zero()


def test_bracket_kernel_adds_scaled_brackets_as_defined():
    # the triangle's use of `_bracket`: several brackets, each with an
    # integer factor, summed into one accumulator that already holds an
    # entry, over one common denominator; at an order no grade reaches, so
    # nothing is truncated, against dtheta(f) f_J1-products of the definition
    rng = random.Random(25)
    bits = _digits(ORDER)

    def element(n_terms):                   # grades <= 14, order 40
        return random_algebra_element(rng, 14, n_terms).truncate(ORDER)

    for _ in range(40):
        h = element(rng.randint(0, 8))
        pairs = [(rng.randint(1, 20), element(rng.randint(1, 10)), element(rng.randint(1, 10)))
                 for _ in range(rng.randint(1, 3))]
        den = math.lcm(h.den, *(f.den * g.den for _, f, g in pairs))
        acc = {key: n * (den // h.den)
               for key, n in zip(_pack(list(h._num), 3, bits), h._num.values())}
        expected = h
        for c, f, g in pairs:
            normalform._bracket(acc, f, g, c * (den // (f.den * g.den)), bits)
            expected = expected + bracket_two_products(f, g).scale(c)
        got = Series(ORDER, VARS, {k: F(n, den) for k, n in
                                   zip(_unpack(acc, 3, bits), acc.values())}, WEIGHTS)
        assert got == expected


def test_bracket_packs_an_operand_at_each_width_it_meets():
    # one f against partners of small and large exponent spans is packed at
    # two digit widths; its rows at one width must not serve the other
    rng = random.Random(26)
    f = random_algebra_element(rng, 14, 8)
    narrow = pc({(1, 0, 0): 1, (0, 1, 2): F(1, 3), (1, 1, -2): -2})
    wide = pc({(0, 100, -200): F(5, 7), (1, 0, 30): 3, (2, 3, -8): 1})
    partners = [narrow, wide, narrow, wide]
    assert len({_digits(f._span() + p._span()) for p in partners}) == 2
    for p in partners:
        assert poisson_bracket(f, p) == bracket_two_products(f, p)
        assert poisson_bracket(p, f) == bracket_two_products(p, f)


def test_one_pass_bracket_cancels_to_zero():
    rng = random.Random(21)
    for _ in range(20):
        f = random_algebra_element(rng, 14, 8)
        assert poisson_bracket(f, f).is_zero()    # pairs cancel key by key
        assert poisson_bracket(f, f.scale(F(-7, 3))).is_zero()
        kernel = kernel_part(random_algebra_element(rng, 14, 8))
        assert poisson_bracket(kernel, kernel_part(f)).is_zero()
        # {f, g} + {g, f} = 0 term by term
        g = random_algebra_element(rng, 14, 8)
        assert (poisson_bracket(f, g) + poisson_bracket(g, f)).is_zero()


def bracket_count(order):
    nmax = (order - 2) // 2
    return math.comb(nmax + 1, 3) + nmax * (nmax - 1) // 2


def spy_brackets(monkeypatch):
    """Operand pairs of every call to the bracket kernel `_bracket`."""
    seen = []
    kernel = normalform._bracket

    def spy(acc, f, g, factor, bits):
        seen.append((f, g))
        return kernel(acc, f, g, factor, bits)

    monkeypatch.setattr(normalform, "_bracket", spy)
    return seen


@pytest.mark.parametrize("order, calls", [(10, 16), (20, 156)])
def test_lie_normalize_adds_one_diagonal_per_stage(monkeypatch, order, calls):
    # the bracket count of the incremental triangle; a rebuild per stage
    # makes 486 at order 20
    seen = spy_brackets(monkeypatch)
    lie_normalize(order)
    assert len(seen) == bracket_count(order) == calls


def in_lowest_terms(s):
    """Integer numerators over a positive denominator, none zero, no common
    factor: the one form a Series holds."""
    nums = s._num.values()
    return s.den > 0 and all(nums) and math.gcd(s.den, *nums) == 1


def test_triangle_entries_stay_in_lowest_terms(monkeypatch):
    # every entry H_i^j that enters a bracket and every generator is reduced
    # after its step, so numerators and denominators cannot grow unreduced
    seen = spy_brackets(monkeypatch)
    _, generators = normalform._triangle(20)
    assert len(seen) == 156
    assert all(in_lowest_terms(f) and in_lowest_terms(w) for f, w in seen)
    assert all(map(in_lowest_terms, generators))


def two_variable(rng, order, unit_linear=False):
    """A random (x, y) series; with `unit_linear`, x + (degree >= 2)."""
    terms = {(a, b): F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9)))
             for a in range(order + 1) for b in range(order + 1 - a)
             if a + b >= (2 if unit_linear else 0) and rng.random() < 0.5}
    if unit_linear:
        terms[(1, 0)] = F(1)
    return Series(order, ("x", "y"), terms)


def test_every_result_is_in_the_one_canonical_form():
    # integer numerators over one denominator, reduced, no zeros: after
    # each operation, whichever way the value was built
    rng = random.Random(23)
    one, x = Series.constant(1, 6, ("x", "y")), Series.variable(0, 6, ("x", "y"))
    for _ in range(25):
        f = random_algebra_element(rng, 12, rng.randint(1, 10))
        g = random_algebra_element(rng, rng.randint(4, 14), rng.randint(1, 10))
        u, v = two_variable(rng, 6), two_variable(rng, 5)
        w = two_variable(rng, 6, unit_linear=True)
        factor = F(rng.randint(-9, 9), rng.randint(1, 12))
        p = rng.randint(0, 12)
        results = [f + g, f - g, f * g, f.scale(factor), f.truncate(p),
                   f.partial(0), f.partial(2), f.grade_part(p),
                   poisson_bracket(f, g), *homological_solve(f),
                   u + v, u - u, u * v, u.scale(factor), u.truncate(3),
                   u.partial(1), u.grade_part(3), (1 + w).reciprocal(),
                   u.compose(w - x, w), w.invert()]
        for s in results:
            assert in_lowest_terms(s)
            rebuilt = Series(s.order, s.vars, s.terms(), s.weights)
            assert rebuilt == s and hash(rebuilt) == hash(s)
            assert Series.from_json(s.to_json()) == s
        # the same values by other routes: cancellation, reordering, scaling back
        routes = [((f + g) - g, f.truncate(min(f.order, g.order))), (f + g, g + f),
                  (f * g, g * f), (f.scale(factor).scale(1 / factor) if factor else f, f),
                  ((u + v) - v, u.truncate(5)), ((1 + w) * (1 + w).reciprocal(), one),
                  (w.invert().compose(w), x)]
        for a, b in routes:
            assert a == b and hash(a) == hash(b)
