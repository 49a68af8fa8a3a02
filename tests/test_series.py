"""Exact series algebra: ring axioms, composition, inversion, serialization."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from mpmath.libmp import mpf_neg

from pendinv.actions import A_series, birkhoff_series
from pendinv.pendulum import LOG_WEIGHTS
from pendinv.series import (InversionError, LabelMismatchError, Series,
                            SubstitutionError, _horner_fixed, _horner_table,
                            _round_shift, binom_frac, exp_series, log1p_series)


def random_series(rng, order=5, vars=("x", "y"), zero_constant=False,
                  unit_linear=False):
    terms = {}
    for a in range(order + 1):
        for b in range(order + 1 - a):
            if rng.random() < 0.4:
                terms[(a, b)] = F(rng.randint(-6, 6), rng.randint(1, 5))
    if zero_constant:
        terms.pop((0, 0), None)
    if unit_linear:
        terms[(1, 0)] = F(1)
        terms.pop((0, 1), None)
        terms.pop((0, 0), None)
    return Series(order, vars, terms)


def random_weighted(rng, order, vars, weights, zero_constant=True, log_max=2):
    """Random series; a weight-0 variable gets exponents up to `log_max`."""
    ranges = [range(order // w + 1 if w else log_max + 1) for w in weights]
    terms = {key: F(rng.randint(-6, 6), rng.randint(1, 5))
             for key in itertools.product(*ranges)
             if sum(w * e for w, e in zip(weights, key)) <= order
             and rng.random() < 0.4}
    if zero_constant:
        terms.pop((0,) * len(vars), None)
    return Series(order, vars, terms, weights)


def compose_reference(f, *gs):
    """Sum of c * g1^e1 * ... over f's terms, from __mul__ and __pow__."""
    head, k = gs[0], len(gs)
    order = min(f.order, *(g.order for g in gs))
    subs = ([g.truncate(order) for g in gs]
            + [Series.variable(i, order, head.vars, head.weights)
               for i in range(k, len(f.vars))])
    out = Series(order, head.vars, None, head.weights)
    for key, c in f.terms().items():
        mono = Series.constant(c, order, head.vars, head.weights)
        for s, e in zip(subs, key):
            mono = mono * s ** e
        out = out + mono
    return out


def test_difference_of_squares():
    one = Series.constant(1, 2, ("j1", "j2"))
    j1 = Series.variable(0, 2, ("j1", "j2"))
    assert (one + j1) * (one - j1) == one - j1 * j1


def test_mixed_quadratic_identity():
    order = 2
    h = Series.variable(0, order, ("h", "j2"))
    j2 = Series.variable(1, order, ("h", "j2"))
    assert h * (h + j2) + j2 * (j2 - h) == h * h + j2 * j2


def test_scale_matches_term_shape():
    order = 2
    j1 = Series.variable(0, order, ("j1", "j2"))
    j2 = Series.variable(1, order, ("j1", "j2"))
    scaled = (j1 + (j2 * j2).scale(3)).scale(F(1, 16))
    assert scaled.coeff(1, 0) == F(1, 16)
    assert scaled.coeff(0, 2) == F(3, 16)


def test_ring_axioms_random():
    rng = random.Random(0)
    for _ in range(25):
        a = random_series(rng)
        b = random_series(rng)
        c = random_series(rng)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_label_mismatch_raises():
    a = Series.variable(0, 3, ("x", "y"))
    b = Series.variable(0, 3, ("u", "v"))
    with pytest.raises(LabelMismatchError):
        _ = a + b
    with pytest.raises(LabelMismatchError):
        _ = a * b


def test_compose_first_simple():
    f = Series.variable(0, 2, ("h", "j2")) ** 2
    g = (Series.variable(0, 2, ("j1", "j2"))
         + Series.variable(1, 2, ("j1", "j2")))
    comp = f.compose(g)
    assert comp.coeff(2, 0) == 1 and comp.coeff(1, 1) == 2 and comp.coeff(0, 2) == 1


@pytest.mark.parametrize("vars_, weights, k, head_vars", [
    (("x",), (1,), 1, ("x",)),
    (("x", "y"), (1, 1), 1, ("x", "y")),
    (("x", "y"), (1, 1), 2, ("x", "y")),
    (("x", "y"), (1, 1), 2, ("l",)),            # head shorter than k
    (("t", "L"), (1, 0), 1, ("t", "L")),        # L kept, weight 0
    (("t", "L"), (1, 0), 2, ("t", "L")),        # L substituted, grade-0 term
])
def test_compose_matches_term_by_term_reference(vars_, weights, k, head_vars):
    rng = random.Random(11)
    head_weights = weights if head_vars == vars_ else (1,)
    for order in (1, 4, 7):
        for _ in range(3):
            f = random_weighted(rng, order, vars_, weights, zero_constant=False)
            gs = [random_weighted(rng, order, head_vars, head_weights)
                  for _ in range(k)]
            if head_weights == (1, 0) and k == 2:
                gs[1] = gs[1] + Series.variable(1, order, head_vars, head_weights)
            assert f.compose(*gs) == compose_reference(f, *gs)


@pytest.mark.parametrize("vars_, weights", [(("x", "y"), (1, 1)), (("t", "L"), (1, 0))])
def test_compose_substitutes_a_one_variable_series_into_other_variables(vars_, weights):
    # the same as padding f to the gs' variables with exponents (k, 0)
    rng = random.Random(13)
    for order in (1, 4, 7):
        f = random_weighted(rng, order, ("s",), (1,), zero_constant=False)
        g = random_weighted(rng, order, vars_, weights)
        padded = Series(order, vars_, {(k, 0): c for (k,), c in f.terms().items()},
                        (1,) + weights[1:])
        assert f.compose(g) == padded.compose(g) == compose_reference(f, g)


def test_compose_refuses_remaining_variables_unlike_the_gs_trailing_ones():
    f = Series.variable(0, 3, ("x", "y")) * Series.variable(1, 3, ("x", "y"))
    with pytest.raises(LabelMismatchError):
        f.compose(Series.variable(0, 3, ("u", "v")))          # y is not v
    with pytest.raises(LabelMismatchError):
        f.compose(Series.variable(0, 3, ("x",)))              # no y at all
    log = Series.variable(1, 3, ("t", "L"), (1, 0))
    with pytest.raises(LabelMismatchError):
        log.compose(Series.variable(0, 3, ("t", "L")))        # L of weight 1


@pytest.mark.parametrize("order", [1, 2, 3, 5, 13, 21])
def test_invert_round_trip_at_orders_off_the_doubling(order):
    rng = random.Random(order)
    for vars_ in (("x",), ("x", "y")):
        terms = {key: F(rng.randint(-3, 3), rng.randint(1, 4))
                 for key in itertools.product(range(order + 1), repeat=len(vars_))
                 if 2 <= sum(key) <= order and rng.random() < 0.3}
        terms[(1,) + (0,) * (len(vars_) - 1)] = F(1)
        f = Series(order, vars_, terms)
        g = f.invert()
        x = Series.variable(0, order, vars_)
        assert f.compose(g) == x and g.compose(f) == x


def test_invert_forms_the_slope_only_through_the_grade_it_needs(monkeypatch):
    # after the step at p', the error starts at grade p' + 1, so f'(g) is
    # composed only through p - p' - 1; the error and the round-trip at p
    orders = []
    compose = Series.compose

    def spy(self, *gs):
        orders.append((self.order, *(g.order for g in gs)))
        return compose(self, *gs)

    monkeypatch.setattr(Series, "compose", spy)
    f = random_series(random.Random(4), order=13, unit_linear=True)
    g = f.invert()
    assert orders == [(1, 1), (0, 0), (3, 3), (1, 1), (7, 7), (3, 3), (13, 13), (5, 5),
                      (13, 13)]
    monkeypatch.undo()
    assert f.compose(g) == Series.variable(0, 13, ("x", "y"))


def test_compose_requires_zero_constant():
    f = Series.variable(0, 3, ("x", "y"))
    g = Series.constant(1, 3, ("x", "y"))
    with pytest.raises(SubstitutionError):
        f.compose(g)


def test_invert_identity():
    f = Series.variable(0, 6, ("h", "j2"))
    assert f.invert() == f


def test_invert_round_trip_random():
    rng = random.Random(1)
    x = Series.variable(0, 5, ("x", "y"))
    for _ in range(10):
        f = random_series(rng, order=5, unit_linear=True)
        g = f.invert()
        assert f.compose(g) == x
        assert g.compose(f) == x


def test_invert_pendulum_style_series():
    # f = h - h^2/16 + 3h^3/256 - 25h^4/8192: its inverse must reproduce the
    # axis restriction of the normal form, j + j^2/16 - j^3/256 + 5j^4/8192.
    order = 4
    terms = {(1, 0): F(1), (2, 0): F(-1, 16), (3, 0): F(3, 256),
             (4, 0): F(-25, 8192)}
    f = Series(order, ("h", "j2"), terms)
    g = f.invert()
    assert g.coeff(1, 0) == F(1)
    assert g.coeff(2, 0) == F(1, 16)
    assert g.coeff(3, 0) == F(-1, 256)
    assert g.coeff(4, 0) == F(5, 8192)
    # certified by exact round-trip
    assert f.compose(g) == Series.variable(0, order, ("h", "j2"))


def test_invert_requires_unit_linear():
    f = Series.variable(0, 3, ("x", "y")).scale(2)
    with pytest.raises(InversionError):
        f.invert()
    g = (Series.variable(0, 3, ("x", "y"))
         + Series.variable(1, 3, ("x", "y")))
    with pytest.raises(InversionError):
        g.invert()
    # t + t L with L of weight 0: the inverse t / (1 + L) is no polynomial
    log = Series(3, ("t", "L"), {(1, 0): 1, (1, 1): 1}, (1, 0))
    with pytest.raises(InversionError):
        log.invert()


def test_invert_takes_one_reciprocal(monkeypatch):
    # 1/f'(g) is carried from order to order by Newton steps; the first
    # step needs it only through grade 0, as the error starts at grade 1
    calls = []
    reciprocal = Series.reciprocal

    def spy(self):
        calls.append(self.order)
        return reciprocal(self)

    monkeypatch.setattr(Series, "reciprocal", spy)
    rng = random.Random(3)
    for order in (1, 5, 13):
        f = random_series(rng, order=order, unit_linear=True)
        g = f.invert()
        assert calls == [0] and f.compose(g) == Series.variable(0, order, ("x", "y"))
        calls.clear()


def test_truncate_and_add_match_the_constructor():
    rng = random.Random(4)
    for vars_, weights in ((("x", "y"), (1, 1)), (("J1", "J2", "e"), (2, 2, 1)),
                           (("t", "L"), (1, 0))):
        for _ in range(10):
            f_order, g_order = rng.randint(0, 8), rng.randint(0, 8)
            f = random_weighted(rng, f_order, vars_, weights, zero_constant=False)
            g = random_weighted(rng, g_order, vars_, weights, zero_constant=False)
            for p in range(f_order + 3):
                t = f.truncate(p)
                ref = Series(p, vars_, f.terms(), weights)
                assert (t.terms(), t.order) == (ref.terms(), ref.order)
            total = f.terms()
            for k, c in g.terms().items():
                total[k] = total.get(k, 0) + c
            ref = Series(min(f_order, g_order), vars_, total, weights)
            for s in (f + g, g + f, f - g.scale(-1)):
                assert (s.terms(), s.order) == (ref.terms(), ref.order)


def test_partial_derivatives():
    order = 3
    j1 = Series.variable(0, order, ("j1", "j2"))
    j2 = Series.variable(1, order, ("j1", "j2"))
    s = (j1 * j1 + (j2 * j2).scale(3)).scale(F(3, 32))
    ds = s.partial(1)
    assert ds.coeff(0, 1) == F(9, 16)
    const = Series.constant(5, order, ("h", "j2"))
    assert const.partial(0).is_zero()


def test_partials_commute_random():
    rng = random.Random(2)
    for _ in range(10):
        f = random_series(rng, order=6)
        assert f.partial(0).partial(1) == f.partial(1).partial(0)


def test_evaluate_simple_and_truncation_scale():
    order = 3
    f = (Series.variable(0, order) + Series.variable(1, order))
    assert f.evaluate(1.0, 2.0) == pytest.approx(3.0)
    rng = random.Random(3)
    for _ in range(5):
        a = random_series(rng, order=4)
        b = random_series(rng, order=4)
        p = (0.01, 0.02)
        lhs = (a * b).evaluate(*p)
        rhs = a.evaluate(*p) * b.evaluate(*p)
        # discrepancy only from discarded degree > 4 cross terms
        bound = 200 * (abs(p[0]) + abs(p[1])) ** 5
        assert abs(lhs - rhs) <= bound


@pytest.mark.parametrize("prec", [None, 53])
def test_evaluate_refuses_a_negative_exponent(prec):
    # e^-1 found no place in the Horner table and was dropped: 4.0, not 4.5
    f = Series(3, ("J1", "J2", "e"), {(0, 0, -1): 1, (1, 0, 1): 2}, (2, 2, 1))
    with pytest.raises(ValueError, match="exponent -1 is negative"):
        f.evaluate(1.0, 1.0, 2.0, prec=prec)


def _horner(table: list, xs: list, i: int = 0) -> float:
    """Float nested Horner, recursively: the reference for the straight-line
    code that `Series.evaluate` generates."""
    x, last, total = xs[i], i == len(xs) - 1, 0.0
    for row in table:
        total = total * x
        if row is not None:
            total = total + (row if last else _horner(row, xs, i + 1))
    return total


def test_generated_horner_matches_the_recursive_loop():
    # equal by repr, the sign of a zero, infinities and NaN included; the
    # series have empty rows, and the long one would nest past the parser's
    # limit as one expression
    rng = random.Random(35)
    series = [random_weighted(rng, order, vars, weights, zero_constant=False)
              for order, vars, weights in [(6, ("x", "y"), (1, 1)), (9, ("x", "y"), (1, 1)),
                                           (8, ("J1", "J2", "e"), (2, 2, 1)),
                                           (5, ("t", "L"), (1, 0))]]
    series += [Series(7, ("x", "y"), {(7, 0): F(-3, 7), (2, 5): F(1, 3), (0, 0): 5}),
               Series(300, ("x",), {(k,): F(rng.randint(-9, 9), 7) for k in range(0, 301, 3)}),
               Series(3, ("x", "y")), Series.constant(F(-2, 3), 3)]
    coords = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
              1e308, -1e308, 1e200, 0.3, -1.7]
    for f in series:
        table = _horner_table({k: c.numerator / c.denominator for k, c in f.terms().items()})
        n = len(f.vars)
        points = list(itertools.product(coords, repeat=n)) if n < 3 else \
            [tuple(rng.choice(coords) for _ in range(n)) for _ in range(600)]
        points += [tuple(rng.uniform(-2, 2) for _ in range(n)) for _ in range(200)]
        for point in points:
            assert repr(f.evaluate(*point)) == repr(_horner(table, list(point))), (f, point)


def test_evaluate_extended_precision():
    import mpmath as mp

    f = Series(4, ("h", "j2"), {(1, 0): F(1), (3, 0): F(1, 3)})
    val = f.evaluate(F(1, 10), 0, prec=200)
    with mp.workprec(220):
        ref = mp.mpf(1) / 10 + (mp.mpf(1) / 3) / 1000
        assert abs(val - ref) < mp.mpf(2) ** -190


def test_json_round_trip():
    rng = random.Random(4)
    f = random_series(rng, order=6, vars=("j1", "j2"))
    g = Series.from_json(f.to_json())
    assert f == g and g.order == f.order and g.vars == f.vars


def test_exp_series_basics():
    x = Series.variable(0, 3, ("x",))
    e = exp_series(x)
    assert e.coeffs() == [F(1), F(1), F(1, 2), F(1, 6)]
    zero = Series(3, ("x",))
    assert exp_series(zero) == Series.constant(1, 3, ("x",))
    with pytest.raises(ValueError):
        exp_series(Series.constant(1, 3, ("x",)))


@pytest.mark.parametrize("fn", [Series.reciprocal, exp_series, log1p_series])
def test_grade_zero_terms_besides_the_constant_are_refused(fn):
    # with L of weight 0, L^n stays at grade 0 for every n: a truncated
    # Newton or power series would drop terms silently
    weights = (1, 0)
    const = 1 if fn is Series.reciprocal else 0
    f = Series(3, ("t", "L"), {(0, 0): const, (0, 1): 1, (1, 0): 1}, weights)
    with pytest.raises(ValueError, match="constant grade-0 part"):
        fn(f)
    # L at positive grade only is fine
    ok = Series(3, ("t", "L"), {(0, 0): const, (1, 1): 1, (1, 0): 1}, weights)
    if fn is Series.reciprocal:
        assert ok * ok.reciprocal() == Series.constant(1, 3, ("t", "L"), weights)
    else:
        assert log1p_series(exp_series(ok) - 1) == ok


def test_exp_log_inverse():
    rng = random.Random(5)
    for _ in range(8):
        terms = {(a,): F(rng.randint(-4, 4), rng.randint(1, 4)) for a in range(1, 7)}
        f = Series(6, ("x",), terms)
        assert log1p_series(exp_series(f) - 1) == f


def test_univariate_invert_and_compose():
    rng = random.Random(6)
    x = Series.variable(0, 7, ("x",))
    for _ in range(8):
        terms = {(1,): F(1)}
        terms.update({(a,): F(rng.randint(-5, 5), rng.randint(1, 3))
                      for a in range(2, 8)})
        f = Series(7, ("x",), terms)
        g = f.invert()
        assert f.compose(g) == x and g.compose(f) == x


def test_rescale_var():
    f = Series(3, ("j",), {(1,): F(1, 32), (2,): F(3, 4)})
    g = f.compose(Series.variable(0, 3, ("l",)).scale(32))
    assert g.coeff(1) == F(1)
    assert g.coeff(2) == F(3, 4) * 32 ** 2


def test_weighted_grades_truncate_products_and_round_trip_json():
    # J1^a J2^b e^m with weights (2, 2, 1) and negative m
    vars_, weights = ("J1", "J2", "e"), (2, 2, 1)
    f = Series(6, vars_, {(1, 0, 2): F(1, 3), (0, 1, -2): F(2)}, weights)
    g = Series(6, vars_, {(1, 0, 0): F(1), (2, 0, -1): F(5)}, weights)
    prod = f * g            # grades 4 + 2, 4 + 3 (dropped), 0 + 2, 0 + 3
    assert prod.terms() == {(2, 0, 2): F(1, 3), (1, 1, -2): F(2), (2, 1, -3): F(10)}
    assert prod.grade((3, 0, 1)) == 7
    assert Series.from_json(f.to_json()) == f
    # a weight-0 symbol does not count towards the order
    log = Series(2, ("t", "L"), {(2, 3): F(1)}, (1, 0))
    assert log.coeff(2, 3) == 1 and log.partial(1).order == 2
    with pytest.raises(LabelMismatchError):
        _ = f + Series(6, vars_, {(1, 0, 0): F(1)})


def product_reference(f, g):
    """f * g term pair by term pair over exponent tuples, within the smaller order."""
    order = min(f.order, g.order)
    terms = {}
    for k1, c1 in f.terms().items():
        for k2, c2 in g.terms().items():
            key = tuple(a + b for a, b in zip(k1, k2))
            if f.grade(key) <= order:
                terms[key] = terms.get(key, 0) + c1 * c2
    return Series(order, f.vars, terms, f.weights)


def random_box(rng, order, vars, weights, box, n_terms):
    """Up to `n_terms` terms with exponent i drawn from the range box[i]."""
    return Series(order, vars,
                  {tuple(rng.choice(r) for r in box):
                   F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 16)))
                   for _ in range(n_terms)}, weights)


def corners(span, n):
    """Every exponent at -span or +span: packed digits at both ends."""
    return [range(-span, span + 1, 2 * span)] * n


@pytest.mark.parametrize("vars_, weights, box", [
    (("x",), (1,), [range(0, 13)]),
    (("x", "y"), (1, 1), [range(0, 9), range(0, 9)]),
    (("J1", "J2", "e"), (2, 2, 1), [range(0, 6), range(0, 5), range(-12, 9)]),
    (("t", "Lam"), LOG_WEIGHTS, [range(0, 9), range(0, 7)]),
])
def test_product_matches_the_tuple_key_reference(vars_, weights, box):
    rng = random.Random(25)
    for _ in range(40):
        f = random_box(rng, rng.randint(0, 14), vars_, weights, box, rng.randint(1, 12))
        g = random_box(rng, rng.randint(0, 14), vars_, weights, box, rng.randint(1, 12))
        for a, b in ((f, g), (g, f), (f, f)):
            prod = a * b
            assert prod == product_reference(a, b)
            assert prod.order == min(a.order, b.order)


@pytest.mark.parametrize("vars_, weights", [
    (("x",), (1,)), (("x", "y"), (1, 1)), (("J1", "J2", "e"), (2, 2, 1)),
    (("t", "Lam"), LOG_WEIGHTS)])
@pytest.mark.parametrize("span1, span2", [(1, 1), (7, 7), (7, 8), (8, 8), (31, 1)])
def test_product_decodes_exponent_sums_beyond_each_operands_range(vars_, weights,
                                                                  span1, span2):
    # sums up to span1 + span2 in magnitude, in every variable and of either
    # sign, need more digit bits than either operand alone; a factor shared
    # by products of different spans keeps one packed row list per width
    rng = random.Random(span1 * 100 + span2)
    n = len(vars_)
    f = random_box(rng, 10 ** 3, vars_, weights, corners(span1, n), 2 ** n)
    g = random_box(rng, 10 ** 3, vars_, weights, corners(span2, n), 2 ** n)
    small = random_box(rng, 10 ** 3, vars_, weights, corners(1, n), 2 ** n)
    for a, b in ((f, g), (g, f), (f, small), (f, g), (g, g)):
        assert a * b == product_reference(a, b)
    cut = f.truncate(span1)         # truncation with negative grades present
    assert cut * g == product_reference(cut, g)


def binom_loop(alpha, k):
    """C(alpha, k) one factor at a time, as Fractions."""
    out = F(1)
    for i in range(k):
        out *= (alpha - i)
        out /= (i + 1)
    return out


@pytest.mark.parametrize("alpha", [F(1, 2), F(-1, 2), F(-3, 2), F(-7, 2), F(5), F(-2)])
def test_binom_frac_matches_the_fraction_loop(alpha):
    for k in range(31):
        assert binom_frac(alpha, k) == binom_loop(alpha, k)
    assert binom_frac(F(5), 6) == 0 and binom_frac(F(-2), 3) == -4


def test_partials_and_float_coefficients_are_built_once():
    f = random_series(random.Random(7), order=5)
    assert f.partial(0) is f.partial(0)
    assert f.evaluate(0.1, 0.2) == f.evaluate(0.1, 0.2)
    assert float(f.evaluate(0.1, 0.2, prec=80)) == pytest.approx(f.evaluate(0.1, 0.2),
                                                                 rel=1e-14, abs=1e-14)


def _exact_value(f: Series, point) -> F:
    """f at a point of Fractions, every term summed exactly."""
    return sum(c * math.prod(x ** e for x, e in zip(point, key))
               for key, c in f.terms().items())


# dyadic points (floats, so exact): tiny, moderate, one coordinate above 1,
# negative coordinates
EVALUATE_POINTS = [(2.0 ** -100, 3 * 2.0 ** -101), (-(2.0 ** -100), 2.0 ** -103),
                   (0.2, -0.15), (0.05, 0.3), (-0.3, -0.1), (1.25, 0.5), (-0.5, 1.125)]


@pytest.mark.parametrize("prec", [80, 148, 276])
def test_fixed_point_evaluate_against_exact_rationals(prec):
    for f, mirrored in ((birkhoff_series(14), lambda v: v), (A_series(9), mpf_neg)):
        for point in EVALUATE_POINTS:
            value = f.evaluate(*point, prec=prec)
            man, exp = value.man_exp
            exact = _exact_value(f, [F(x) for x in point])
            assert abs(F(-man if value < 0 else man) * F(2) ** exp - exact) \
                <= abs(exact) / 2 ** (prec - 4)
            # H is even in j2 and A odd, bit for bit
            assert f.evaluate(point[0], -point[1], prec=prec)._mpf_ == mirrored(value._mpf_)


def test_fixed_point_horner_mirrors_bit_for_bit():
    # the final rounding to prec bits hides most of an asymmetric rounding
    # inside Horner (20 guard bits); the integers themselves must mirror
    rng = random.Random(32)
    for _ in range(200):
        n, bits = rng.getrandbits(300) - (1 << 299), rng.randint(1, 200)
        assert _round_shift(-n, bits) == -_round_shift(n, bits)
    f, frac = birkhoff_series(14), 168
    table = _horner_table({k: (c.numerator << frac) // c.denominator
                           for k, c in f.terms().items()})
    for _ in range(50):
        x, y = (rng.getrandbits(frac - 2) - (1 << (frac - 3)) for _ in range(2))
        assert _horner_fixed(table, [x, y], frac) == _horner_fixed(table, [x, -y], frac)
