"""Truncated graded power series with exact rational coefficients.

One carrier, :class:`Series`, serves all of the exact algebra.  Terms are
stored sparsely by exponent tuple and each variable carries an integer
weight.  The grade of a term is the weighted sum of its
exponents; a series of order N keeps the terms of grade <= N and drops the
rest, so sums, products and compositions of order-N series are again
order-N series.  The grade is linear, so a product term's grade is the sum
of its factors' grades.  The weights in use:

* ``(1,)`` and ``(1, 1)``: total degree in one or two variables;
* ``(2, 2, 2)``: the normal form's sl(2) algebra in X = e^(2 theta1),
  Y = (J1^2 + J2^2) e^(-2 theta1) and Z = J1;
* ``(1, 0)``: a series in t times powers of a logarithm symbol L of
  weight 0, for the expansions at the separatrix.

Coefficients are exact rationals, held as integer numerators over one
common denominator in lowest terms, with no zero numerators: the form is
canonical, so equal values compare and hash equal.  Sums, products and
derivatives run on the numerators and reduce once; a coefficient becomes a
:class:`fractions.Fraction` only when it is read.  `evaluate` runs in floats,
through straight-line code generated from the Horner table, or, at a given
precision, in fixed-point integers.  Values are immutable after
construction: derived data (partials, the float Horner function,
fixed-point Horner tables, grade-sorted product rows) is computed once and
cached on the instance, so values can be shared freely between threads.

Products run on packed exponent keys: `_pack` turns an exponent tuple into
one integer, e0 + e1 R + e2 R^2 + ... with balanced digits, so that
multiplying two monomials is one integer addition; the product decodes
each of its terms once.  The Lie triangle in `normalform` holds its
entries as Series too.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from operator import itemgetter, mul
from typing import Callable, Mapping

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_abs, round_nearest as RND, to_fixed

# exponent keys of the JSON terms, one per variable
_EXPONENT_NAMES = "abcdefgh"


class LabelMismatchError(ValueError):
    """Binary operation between series over different variables."""


class SubstitutionError(ValueError):
    """Substituted series has a nonzero constant term."""


class InversionError(ValueError):
    """Series is not of the form x + (higher order)."""


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as an exact coefficient")


def _doubling(order: int):
    """Newton working orders 1, 3, 7, ..., `order`: a step at 2p + 1 from
    an iterate exact through grade p is exact through grade 2p + 1."""
    p = 0
    while p < order:
        p = min(2 * p + 1, order)
        yield p


def binom_frac(alpha: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient C(alpha, k) for rational alpha.

    With alpha = p/q, C(alpha, k) = prod_{i<k} (p - i q) / (q^k k!): two
    integer products and one Fraction, reduced once.
    """
    alpha = _coerce(alpha)
    p, q = alpha.numerator, alpha.denominator
    return Fraction(math.prod(p - i * q for i in range(k)), q ** k * math.factorial(k))


def _digits(bound: int) -> int:
    """Bits per digit of a packed exponent key whose exponents all have
    magnitude <= `bound`."""
    return bound.bit_length() + 1


def _pack(keys, n: int, bits: int) -> list[int]:
    """Each exponent tuple (e0, ..., e_n-1) of `keys` as the integer e0 +
    e1 R + e2 R^2 + ..., R = 2^bits.  The digits are balanced, in [-R/2,
    R/2), so negative exponents pack too, and the product of two monomials
    is the sum of their keys while the exponent sums stay in that range."""
    codes = [0] * len(keys)
    for i in reversed(range(n)):
        codes = [(code << bits) + key[i] for code, key in zip(codes, keys)]
    return codes


def _unpack(codes, n: int, bits: int) -> list[tuple]:
    """The exponent tuples of keys made by `_pack` with the same `bits`:
    adding R/2 to each lower digit makes them the plain base-R digits."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    lift = sum(half << (bits * i) for i in range(n - 1))
    lifted = [code + lift for code in codes]
    digits = [[(code >> (bits * i) & mask) - half for code in lifted] for i in range(n - 1)]
    digits.append([code >> (bits * (n - 1)) for code in lifted])
    return list(zip(*digits))


def _horner_table(terms: Mapping[tuple, object]) -> list:
    """Dense Horner table of `terms` in the first variable.

    Entry i belongs to exponent amax - i: None where no term has it, else
    the coefficient (one variable) or the table of the remaining ones.
    """
    rows: dict[int, dict] = {}
    for key, c in terms.items():
        rows.setdefault(key[0], {})[key[1:]] = c
    if min(rows, default=0) < 0:
        raise ValueError(f"exponent {min(rows)} is negative; Horner takes exponents from 0")
    amax = max(rows, default=-1)
    return [None if a not in rows
            else rows[a][()] if () in rows[a] else _horner_table(rows[a])
            for a in range(amax, -1, -1)]


def _horner_function(table: list, n: int) -> Callable:
    """Float nested Horner over `table` as a function of n coordinates,
    generated as straight-line code.

    Each (sub)total starts at 0.0, and each row, empty ones included,
    multiplies it by its coordinate, then adds the row's constant (written
    by repr) or sub-total: one statement per row, as the parser limits how
    deeply expressions nest.  The leading 0.0 * x makes an infinite or NaN
    coordinate give NaN.
    """
    lines: list[str] = []

    def emit(rows: list, i: int) -> str:
        total = "0.0"
        for row in rows:
            term = ("" if row is None else f" + {row!r}" if i == n - 1
                    else f" + {emit(row, i + 1)}")
            lines.append(f"t{i} = {total} * x{i}{term}")
            total = f"t{i}"
        return total

    result = emit(table, 0)
    namespace: dict = {}
    exec(f"def horner({', '.join(f'x{i}' for i in range(n))}):\n    "
         + "".join(line + "\n    " for line in lines) + f"return {result}", namespace)
    return namespace["horner"]


def _round_shift(n: int, bits: int) -> int:
    """n / 2^bits rounded to nearest, ties away from zero: odd in n."""
    q = (abs(n) >> (bits - 1)) + 1 >> 1
    return q if n >= 0 else -q


def _horner_fixed(table: list, xs: list, frac: int, i: int = 0) -> int:
    """Nested Horner over `table` in fixed point, `frac` fraction bits."""
    x, last, total = xs[i], i == len(xs) - 1, 0
    for row in table:
        total = _round_shift(total * x, frac)
        if row is not None:
            total += row if last else _horner_fixed(row, xs, frac, i + 1)
    return total


def _horner_graded(table: list, gs: list, order: int, i: int = 0) -> "Series":
    """Nested Horner over `table` on series: with m products by g ahead, a
    row and the sum count only through grade order - m low, low the lowest
    grade of g."""
    g, last, total = gs[i], i == len(gs) - 1, 0 * gs[i]
    low = min(map(g.grade, g._num), default=0)
    for m, row in zip(range(len(table) - 1, -1, -1), table):
        top = order - m * low
        # exact through top - low, so its product with g is exact through top
        total = total.truncate(top) * g
        if row is not None:
            total = total + (row if last else _horner_graded(row, gs, top, i + 1))
    return total


class Series:
    """Sparse truncated series over named variables of given weights.

    ``Series(order, vars, terms, weights)`` keeps the terms of ``terms``
    (``{exponent tuple: coefficient}``) whose grade is at most `order`;
    zero coefficients are dropped.  `weights` defaults to 1 per variable.
    Binary operations require the same variables and weights and truncate
    at the smaller order.

    The terms are ``_num`` (``{exponent tuple: integer numerator}``) over
    the positive denominator ``den``, with ``gcd(den, *numerators) = 1``
    and no zero numerator; ``den`` is then the lcm of the coefficients'
    reduced denominators.  Packed rows for products (`_rows`) are cached
    in ``_cache`` per digit width.
    """

    __slots__ = ("order", "vars", "weights", "den", "_num", "_cache")

    def __init__(self, order: int, vars: tuple = ("j1", "j2"),
                 terms: Mapping[tuple, Fraction] | None = None,
                 weights: tuple | None = None):
        if order < 0:
            raise ValueError("order must be non-negative")
        self.order = int(order)
        self.vars = tuple(str(v) for v in vars)
        self.weights = (1,) * len(self.vars) if weights is None \
            else tuple(int(w) for w in weights)
        if len(self.weights) != len(self.vars):
            raise ValueError(f"{len(self.weights)} weights for variables {self.vars}")
        clean: dict[tuple, Fraction] = {}
        for key, c in (terms or {}).items():
            if len(key) != len(self.vars):
                raise ValueError(f"exponents {key} do not match variables {self.vars}")
            if self.grade(key) > order:
                continue
            c = _coerce(c)
            if c != 0:
                clean[key] = c
        # over the lcm of reduced denominators the numerators share no
        # factor with it: each prime power of the lcm is some term's own
        self.den = math.lcm(*(c.denominator for c in clean.values()))
        self._num = {k: c.numerator * (self.den // c.denominator) for k, c in clean.items()}
        self._cache: dict = {}

    def _like(self, num: dict, den: int, order: int | None = None) -> "Series":
        """Same variables and weights, from integer numerators over `den`
        whose grades are within the order: zeros dropped, reduced once."""
        if 0 in num.values():
            num = {k: n for k, n in num.items() if n}
        common = math.gcd(den, *num.values())
        if common != 1:
            den //= common
            num = {k: n // common for k, n in num.items()}
        out = object.__new__(Series)
        out.order = self.order if order is None else order
        out.vars, out.weights, out.den, out._num, out._cache = \
            self.vars, self.weights, den, num, {}
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, order: int, vars=("j1", "j2"), weights=None) -> "Series":
        return cls(order, vars, {(0,) * len(vars): value}, weights)

    @classmethod
    def variable(cls, which: int, order: int, vars=("j1", "j2"), weights=None) -> "Series":
        key = tuple(int(i == which) for i in range(len(vars)))
        return cls(order, vars, {key: 1}, weights)

    # -- inspection ----------------------------------------------------

    def grade(self, exponents: tuple) -> int:
        return sum(map(mul, self.weights, exponents))

    def coeff(self, *exponents: int) -> Fraction:
        return Fraction(self._num.get(exponents, 0), self.den)

    def coeffs(self) -> list[Fraction]:
        """Coefficients of a one-variable series, exponents 0 to order."""
        return [self.coeff(a) for a in range(self.order + 1)]

    def terms(self) -> dict[tuple, Fraction]:
        return {k: Fraction(n, self.den) for k, n in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def _const(self) -> Fraction:
        return self.coeff(*(0,) * len(self.vars))

    def _require_constant_grade0(self, what: str) -> None:
        """Refuse grade-0 terms besides the constant (a weight-0 variable):
        truncated Newton steps and power series would drop terms silently."""
        if any(any(k) and self.grade(k) == 0 for k in self._num):
            raise ValueError(f"{what} needs a constant grade-0 part")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (self.vars == other.vars and self.weights == other.weights
                and self.den == other.den and self._num == other._num)

    def __hash__(self):
        return hash((self.vars, self.weights, self.den, frozenset(self._num.items())))

    def __repr__(self):
        return (f"Series(order={self.order}, vars={self.vars}, "
                f"weights={self.weights}, terms={len(self._num)})")

    def _sort_key(self, key: tuple):
        """By grade, then by the exponents read from the last variable."""
        return (self.grade(key), key[::-1])

    def pretty(self) -> str:
        """Human-readable polynomial, graded."""
        if not self._num:
            return "0"
        parts = []
        for key in sorted(self._num, key=self._sort_key):
            mono = "*".join(v if e == 1 else f"{v}^{e}"
                            for v, e in zip(self.vars, key) if e)
            c = Fraction(self._num[key], self.den)
            parts.append(f"({c})*{mono}" if mono else f"({c})")
        return " + ".join(parts)

    # -- ring operations -----------------------------------------------

    def _check_compatible(self, other: "Series") -> int:
        if (self.vars, self.weights) != (other.vars, other.weights):
            raise LabelMismatchError(
                f"variable labels differ: {self.vars} vs {other.vars}")
        return min(self.order, other.order)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Series.constant(other, self.order, self.vars, self.weights)
        order = self._check_compatible(other)
        a, b = self.truncate(order), other.truncate(order)
        den = math.lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        out = {k: n * fa for k, n in a._num.items()}
        for k, n in b._num.items():
            out[k] = out.get(k, 0) + n * fb
        return self._like(out, den, order)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -n for k, n in self._num.items()}, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Series.constant(other, self.order, self.vars, self.weights)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        order = self._check_compatible(other)
        bits = _digits(self._span() + other._span())
        rows2 = other._rows(bits)
        acc: dict[int, int] = {}
        for g1, k1, n1 in self._rows(bits):
            room = order - g1
            for g2, k2, n2 in rows2:
                if g2 > room:
                    break
                key = k1 + k2
                acc[key] = acc.get(key, 0) + n1 * n2
        return self._like(dict(zip(_unpack(acc, len(self.vars), bits), acc.values())),
                          self.den * other.den, order)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def _span(self) -> int:
        """Largest exponent magnitude of any term, cached on the instance."""
        out = self._cache.get("span")
        if out is None:
            keys = self._num.keys()
            out = self._cache["span"] = max(max(map(max, keys), default=0),
                                            -min(map(min, keys), default=0))
        return out

    def _rows(self, bits: int) -> list:
        """(grade, packed key, numerator) of every term, sorted by grade so
        a product can stop at its order; cached on the instance per `bits`."""
        rows = self._cache.get(("rows", bits))
        if rows is None:
            keys = list(self._num)
            rows = self._cache[("rows", bits)] = sorted(
                zip(map(self.grade, keys), _pack(keys, len(self.vars), bits),
                    self._num.values()), key=itemgetter(0))
        return rows

    def scale(self, factor) -> "Series":
        factor = _coerce(factor)
        if factor == 1:
            return self
        p = factor.numerator
        return self._like({k: p * n for k, n in self._num.items()},
                          self.den * factor.denominator)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = Series.constant(1, self.order, self.vars, self.weights)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def truncate(self, order: int) -> "Series":
        """The same terms under another order (a larger one keeps them all)."""
        if order == self.order:
            return self
        if order > self.order:
            return self._like(self._num, self.den, order)
        return self._like({k: n for k, n in self._num.items()
                           if self.grade(k) <= order}, self.den, order)

    def relabel(self, vars: tuple) -> "Series":
        return Series(self.order, vars, self.terms(), self.weights)

    def map(self, fn: Callable[[tuple, Fraction], object]) -> "Series":
        """Each coefficient c at exponents k replaced by fn(k, c)."""
        return Series(self.order, self.vars,
                      {k: fn(k, c) for k, c in self.terms().items()}, self.weights)

    def grade_part(self, grade: int) -> "Series":
        return self._like({k: n for k, n in self._num.items()
                           if self.grade(k) == grade}, self.den)

    # -- calculus ------------------------------------------------------

    def partial(self, which: int) -> "Series":
        """Formal partial derivative in variable number `which`.

        The order drops by that variable's weight.  Cached on the instance.
        """
        out = self._cache.get(("partial", which))
        if out is None:
            num = {k[:which] + (k[which] - 1,) + k[which + 1:]: n * k[which]
                   for k, n in self._num.items() if k[which]}
            out = self._cache[("partial", which)] = self._like(
                num, self.den, max(self.order - self.weights[which], 0))
        return out

    def reciprocal(self) -> "Series":
        """1/f for a series whose grade-0 part is a nonzero constant.

        Newton iteration r <- r (2 - f r) with order doubling: the step at
        working order p truncates f and r to p.
        """
        c0 = self._const()
        if c0 == 0:
            raise ZeroDivisionError("series has zero constant term")
        self._require_constant_grade0("reciprocal")
        r = Series.constant(1 / c0, self.order, self.vars, self.weights)
        for p in _doubling(self.order):
            r = r.truncate(p)
            r = r * (2 - self.truncate(p) * r)
        return r

    def compose(self, *gs: "Series") -> "Series":
        """Substitute gs for the leading variables: f(g1, ..., gk, x_k+1, ...).

        The gs share one set of variables and have zero constant terms, so
        the truncation stays consistent.  The variables of f that are not
        substituted must be the trailing variables of the gs, by label and
        weight; once all of f's variables are replaced, the gs may be over
        any variables.  The result is a series in the gs' variables.
        Exponents must be non-negative.

        Nested Horner (`_horner_graded`), one product per exponent of each
        substituted variable, each partial sum cut at the grade that can
        still reach the order; every grade is >= 0, so the cuts are exact.
        """
        head, k = gs[0], len(gs)
        for g in gs:
            head._check_compatible(g)
            if g._const() != 0:
                raise SubstitutionError("substituted series has a constant term")
        # the gs' leading variables take the place of f's substituted ones
        pad = len(head.vars) - (len(self.vars) - k)
        if (self.vars[k:], self.weights[k:]) != (head.vars[pad:], head.weights[pad:]):
            raise LabelMismatchError(
                f"remaining variables differ: {self.vars[k:]} vs {head.vars[pad:]}")
        order = min(self.order, *(g.order for g in gs))
        # one leaf series per exponents of the gs, over the gs' variables
        leaves: dict[tuple, dict] = {}
        for key, n in self._num.items():
            rest = (0,) * pad + key[k:]
            if head.grade(rest) <= order:
                leaves.setdefault(key[:k], {})[rest] = n
        table = _horner_table({key: head._like(rest, self.den, order)
                               for key, rest in leaves.items()})
        return _horner_graded(table, [g.truncate(order) for g in gs], order)

    def invert(self) -> "Series":
        """Solve f(g, x2, ...) = x1 for g, exactly up to the order.

        Requires f = x1 + (higher order): unit linear coefficient in the
        first variable, zero constant term and no linear term in another
        variable.  Newton iteration with order doubling: the step at working
        order p after p' truncates f and g to p, and f'(g) and r = 1/f'(g)
        to p - p' - 1, as the error f(g) - x1 starts at grade p' + 1.  r is
        one reciprocal at the first working order, then one Newton step
        r <- r (2 - f'(g) r) per order.  The result is certified once, by
        the exact round-trip f(g, x2, ...) = x1 at the full order.
        """
        n = len(self.vars)
        units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        if self._const() != 0:
            raise InversionError("constant term must vanish")
        if self.coeff(*units[0]) != 1:
            raise InversionError("linear coefficient of the first variable must be 1")
        if any(self.coeff(*u) != 0 for u in units[1:]):
            raise InversionError("pure linear term in another variable")
        x = Series.variable(0, self.order, self.vars, self.weights)
        fprime = self.partial(0)
        g, r, done = x, None, 0
        for p in _doubling(self.order):
            q = p - done - 1
            g = g.truncate(p)
            err = self.truncate(p).compose(g) - x.truncate(p)
            slope = fprime.truncate(q).compose(g.truncate(q))
            if r is None:
                try:
                    r = slope.reciprocal()
                except ValueError as exc:       # non-constant grade-0 part
                    raise InversionError(f"no polynomial inverse: {exc}") from exc
            else:
                r = r.truncate(q)
                r = r * (2 - slope * r)
            g, done = g - err * r.truncate(p), p
        if self.compose(g) != x:
            raise InversionError("Newton iteration did not close the round-trip")
        return g

    # the benchmark's tracer wraps the series methods under these names too
    compose_first = compose
    invert_first = invert

    # -- evaluation ----------------------------------------------------

    def evaluate(self, *point, prec: int | None = None):
        """Value at `point`, one coordinate per variable, by nested Horner:
        in floats, by code that `_horner_function` generates on the first
        float call, or with `prec` set in fixed point on the coordinates
        rounded to `prec` bits, with prec + 20 + (bits by which the largest
        |coordinate| falls below 1) (lowest grade) fraction bits and each
        product rounded by the odd `_round_shift`, so a sign flip where the
        series is even changes no bit.  Returns an mpf at `prec` bits."""
        if len(point) != len(self.vars):
            raise ValueError(f"{len(point)} coordinates for variables {self.vars}")
        if prec is None:
            horner = self._cache.get("horner")
            if horner is None:
                horner = self._cache["horner"] = _horner_function(_horner_table(
                    {k: c.numerator / c.denominator for k, c in self.terms().items()}),
                    len(self.vars))
            return horner(*map(float, point))
        with mp.workprec(prec):
            xs = [(mp.mpf(x.numerator) / x.denominator if isinstance(x, Fraction)
                   else mp.mpf(x))._mpf_ for x in point]
        if any(bc < 0 for *_, bc in xs):
            raise ValueError(f"non-finite coordinate in {point}")
        below = max([0] + [-exp - bc for _, man, exp, bc in xs if man])
        if ("fixed", prec, below) not in self._cache:
            frac = prec + 20 + below * min(map(self.grade, self._num), default=0)
            self._cache[("fixed", prec, below)] = frac, _horner_table(
                {k: (n << frac) // self.den for k, n in self._num.items()})
        frac, table = self._cache[("fixed", prec, below)]
        # truncated toward zero, so that a coordinate and its negative mirror
        fixed = [-to_fixed(mpf_abs(x), frac) if x[0] else to_fixed(x, frac) for x in xs]
        return mp.make_mpf(from_man_exp(_horner_fixed(table, fixed, frac), -frac, prec, RND))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        """``{"order", "vars", "terms"}``, plus ``"weights"`` unless all are 1.

        A term is ``{"a": .., "b": .., ..., "num": "..", "den": ".."}`` with
        one exponent key per variable, in order; terms are sorted by grade,
        then by the exponents read from the last variable.
        """
        terms = [dict(zip(_EXPONENT_NAMES, key),
                      num=str(c.numerator), den=str(c.denominator))
                 for key, c in sorted(self.terms().items(),
                                      key=lambda kv: self._sort_key(kv[0]))]
        data = {"order": self.order, "vars": list(self.vars), "terms": terms}
        if any(w != 1 for w in self.weights):
            data["weights"] = list(self.weights)
        return json.dumps(data)

    @classmethod
    def from_json(cls, text: str) -> "Series":
        data = json.loads(text)
        names = _EXPONENT_NAMES[:len(data["vars"])]
        terms = {tuple(t[name] for name in names): Fraction(int(t["num"]), int(t["den"]))
                 for t in data["terms"]}
        return cls(data["order"], data["vars"], terms, data.get("weights"))


# The benchmark's tracer looks the series type up under these two names.
TruncatedSeries1 = TruncatedSeries2 = Series


def _power_series(f: Series, what: str, coeff: Callable[[int], Fraction]) -> Series:
    """Sum of coeff(k) f^k, k <= order, for f with zero constant term: the
    one-variable power series composed with f."""
    if f._const() != 0:
        raise ValueError(f"{what} requires zero constant term")
    f._require_constant_grade0(what)
    return Series(f.order, ("x",), {(k,): coeff(k) for k in range(f.order + 1)}).compose(f)


def exp_series(f: Series) -> Series:
    """Exact exp of a series with zero constant term."""
    return _power_series(f, "exp", lambda k: Fraction(1, math.factorial(k)))


def log1p_series(f: Series) -> Series:
    """log(1 + f) for a series f with zero constant term."""
    return _power_series(f, "log1p", lambda k: Fraction((-1) ** (k + 1), k) if k else 0)
