"""Truncated power series with exact rational coefficients.

Two carriers: :class:`TruncatedSeries2` for bivariate series truncated by
total degree, and :class:`TruncatedSeries1` for the univariate case.  All
coefficients are :class:`fractions.Fraction`; floating point only enters at
the evaluation boundary.  Values are immutable after construction, so they
can be shared freely between threads.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Mapping

import mpmath as mp

Rational = Fraction

DEFAULT_ORDER = 10


class LabelMismatchError(ValueError):
    """Binary operation between series over different variables."""


class SubstitutionError(ValueError):
    """Substituted series has a nonzero constant term."""


class InversionError(ValueError):
    """Series is not of the form x + (higher order)."""


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as an exact coefficient")


def _to_mpf(value):
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / value.denominator
    return mp.mpf(value)


def binom_frac(alpha: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient C(alpha, k) for rational alpha."""
    alpha = _coerce(alpha)
    out = Fraction(1)
    for i in range(k):
        out *= (alpha - i)
        out /= (i + 1)
    return out


class TruncatedSeries2:
    """Bivariate polynomial of bounded total degree, exact coefficients.

    Terms are stored sparsely as ``{(a, b): Fraction}`` with ``a + b <=
    order``; absent entries are zero.  Sums, products and compositions of
    order-N series are again order-N series (higher terms are discarded).
    """

    __slots__ = ("order", "vars", "_terms")

    def __init__(self, order: int = DEFAULT_ORDER,
                 vars: tuple[str, str] = ("j1", "j2"),
                 terms: Mapping[tuple[int, int], Fraction] | None = None):
        if order < 0:
            raise ValueError("order must be non-negative")
        self.order = int(order)
        self.vars = (str(vars[0]), str(vars[1]))
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (a, b), c in terms.items():
                if a < 0 or b < 0:
                    raise ValueError(f"negative exponent ({a},{b})")
                if a + b > order:
                    continue
                c = _coerce(c)
                if c != 0:
                    clean[(a, b)] = c
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int, vars=("j1", "j2")) -> "TruncatedSeries2":
        return cls(order, vars)

    @classmethod
    def constant(cls, value, order: int, vars=("j1", "j2")) -> "TruncatedSeries2":
        return cls(order, vars, {(0, 0): _coerce(value)})

    @classmethod
    def variable(cls, which: int, order: int, vars=("j1", "j2")) -> "TruncatedSeries2":
        key = (1, 0) if which == 0 else (0, 1)
        return cls(order, vars, {key: Fraction(1)})

    # -- inspection ----------------------------------------------------

    def coeff(self, a: int, b: int) -> Fraction:
        return self._terms.get((a, b), Fraction(0))

    def terms(self) -> dict[tuple[int, int], Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        return max((a + b for a, b in self._terms), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries2):
            return NotImplemented
        return self.vars == other.vars and self._terms == other._terms

    def __hash__(self):
        return hash((self.vars, frozenset(self._terms.items())))

    def __repr__(self):
        return f"TruncatedSeries2(order={self.order}, vars={self.vars}, terms={len(self._terms)})"

    def pretty(self) -> str:
        """Human-readable polynomial, graded by total degree."""
        if not self._terms:
            return "0"
        x, y = self.vars
        parts = []
        for (a, b) in sorted(self._terms, key=lambda k: (k[0] + k[1], k[1])):
            c = self._terms[(a, b)]
            mono = "*".join(
                ([f"{x}^{a}" if a > 1 else x] if a else [])
                + ([f"{y}^{b}" if b > 1 else y] if b else [])
            )
            if mono:
                parts.append(f"({c})*{mono}")
            else:
                parts.append(f"({c})")
        return " + ".join(parts)

    # -- ring operations -----------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries2") -> int:
        if self.vars != other.vars:
            raise LabelMismatchError(
                f"variable labels differ: {self.vars} vs {other.vars}")
        return min(self.order, other.order)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries2.constant(other, self.order, self.vars)
        order = self._check_compatible(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return TruncatedSeries2(order, self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries2(self.order, self.vars,
                                {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries2.constant(other, self.order, self.vars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        order = self._check_compatible(other)
        out: dict[tuple[int, int], Fraction] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                a, b = a1 + a2, b1 + b2
                if a + b > order:
                    continue
                key = (a, b)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return TruncatedSeries2(order, self.vars, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor) -> "TruncatedSeries2":
        factor = _coerce(factor)
        return TruncatedSeries2(self.order, self.vars,
                                {k: factor * c for k, c in self._terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = TruncatedSeries2.constant(1, self.order, self.vars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def truncate(self, order: int) -> "TruncatedSeries2":
        return TruncatedSeries2(order, self.vars, self._terms)

    def relabel(self, vars: tuple[str, str]) -> "TruncatedSeries2":
        return TruncatedSeries2(self.order, vars, self._terms)

    # -- calculus ------------------------------------------------------

    def partial(self, which) -> "TruncatedSeries2":
        """Formal partial derivative; result has order N-1."""
        idx = {0: 0, 1: 1, "first": 0, "second": 1}[which]
        out: dict[tuple[int, int], Fraction] = {}
        for (a, b), c in self._terms.items():
            if idx == 0 and a > 0:
                out[(a - 1, b)] = c * a
            elif idx == 1 and b > 0:
                out[(a, b - 1)] = c * b
        return TruncatedSeries2(max(self.order - 1, 0), self.vars, out)

    def reciprocal(self) -> "TruncatedSeries2":
        """1/f for series with nonzero constant term (Newton iteration)."""
        c0 = self.coeff(0, 0)
        if c0 == 0:
            raise ZeroDivisionError("series has zero constant term")
        r = TruncatedSeries2.constant(Fraction(1) / c0, self.order, self.vars)
        two = TruncatedSeries2.constant(2, self.order, self.vars)
        for _ in range(max(1, self.order.bit_length() + 1)):
            r = r * (two - self * r)
        return r

    def compose_first(self, g: "TruncatedSeries2") -> "TruncatedSeries2":
        """Substitute g for the first variable: f(g(x,y), y).

        g must have zero constant term so the truncation stays consistent;
        the second variable of f must match the second variable of g.
        """
        if g.coeff(0, 0) != 0:
            raise SubstitutionError("substituted series has a constant term")
        if self.vars[1] != g.vars[1]:
            raise LabelMismatchError(
                f"second variables differ: {self.vars[1]} vs {g.vars[1]}")
        order = min(self.order, g.order)
        # f = sum_a x^a f_a(y); reuse powers of g.
        by_a: dict[int, dict[int, Fraction]] = {}
        for (a, b), c in self._terms.items():
            by_a.setdefault(a, {})[b] = c
        y_of_g = TruncatedSeries2.variable(1, order, g.vars)
        result = TruncatedSeries2.zero(order, g.vars)
        g_pow = TruncatedSeries2.constant(1, order, g.vars)
        for a in range(0, max(by_a, default=0) + 1):
            if a > 0:
                g_pow = g_pow * g.truncate(order)
                if g_pow.is_zero():
                    break
            if a in by_a:
                fa = TruncatedSeries2(order, g.vars,
                                      {(0, b): c for b, c in by_a[a].items()})
                result = result + fa * g_pow
        return result

    def invert_first(self) -> "TruncatedSeries2":
        """Solve f(g(x,y), y) = x for g, exactly up to the truncation order.

        Requires f = x + (higher order): unit linear coefficient in the
        first variable, zero constant term and no pure-y linear term.
        Newton iteration on series; the result is certified by an exact
        composition round-trip.
        """
        if self.coeff(0, 0) != 0:
            raise InversionError("constant term must vanish")
        if self.coeff(1, 0) != 1:
            raise InversionError("linear coefficient of the first variable must be 1")
        if self.coeff(0, 1) != 0:
            raise InversionError("pure linear term in the second variable")
        order = self.order
        x = TruncatedSeries2.variable(0, order, self.vars)
        fprime = self.partial(0).truncate(order)
        g = x
        for _ in range(max(1, order.bit_length()) + 2):
            err = self.compose_first(g) - x
            if err.is_zero():
                break
            corr = err * fprime.compose_first(g).reciprocal()
            g = g - corr
        if not (self.compose_first(g) - x).is_zero():
            raise InversionError("Newton iteration did not close the round-trip")
        return g

    # -- evaluation ----------------------------------------------------

    def evaluate(self, x, y, prec: int | None = None):
        """Evaluate the truncated polynomial at (x, y).

        Horner in the first variable with inner Horner in the second.
        With ``prec`` set, the evaluation runs at that many bits via mpmath
        and returns an mpf; otherwise plain floats are used.
        """
        if prec is not None:
            with mp.workprec(prec):
                return self._evaluate_ctx(_to_mpf(x), _to_mpf(y),
                                          lambda q: mp.mpf(q.numerator) / q.denominator)
        return self._evaluate_ctx(float(x), float(y),
                                  lambda q: q.numerator / q.denominator)

    def evaluate_exact(self, x: Fraction, y: Fraction) -> Fraction:
        return self._evaluate_ctx(_coerce(x), _coerce(y), lambda q: q)

    def _evaluate_ctx(self, x, y, conv):
        by_a: dict[int, dict[int, Fraction]] = {}
        for (a, b), c in self._terms.items():
            by_a.setdefault(a, {})[b] = c
        amax = max(by_a, default=0)
        total = 0 * x
        for a in range(amax, -1, -1):
            total = total * x
            if a in by_a:
                row = by_a[a]
                bmax = max(row)
                inner = 0 * y
                for b in range(bmax, -1, -1):
                    inner = inner * y
                    if b in row:
                        inner = inner + conv(row[b])
                total = total + inner
        return total

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        terms = [
            {"a": a, "b": b, "num": str(c.numerator), "den": str(c.denominator)}
            for (a, b), c in sorted(self._terms.items(),
                                    key=lambda kv: (kv[0][0] + kv[0][1], kv[0][1], kv[0][0]))
        ]
        return json.dumps({"order": self.order, "vars": list(self.vars), "terms": terms})

    @classmethod
    def from_json(cls, text: str) -> "TruncatedSeries2":
        data = json.loads(text)
        terms = {(t["a"], t["b"]): Fraction(int(t["num"]), int(t["den"]))
                 for t in data["terms"]}
        return cls(data["order"], tuple(data["vars"]), terms)


class TruncatedSeries1:
    """Univariate truncated power series with exact rational coefficients."""

    __slots__ = ("order", "var", "_terms")

    def __init__(self, order: int = DEFAULT_ORDER, var: str = "x",
                 terms: Mapping[int, Fraction] | None = None):
        if order < 0:
            raise ValueError("order must be non-negative")
        self.order = int(order)
        self.var = str(var)
        clean: dict[int, Fraction] = {}
        if terms:
            for a, c in terms.items():
                if a < 0:
                    raise ValueError("negative exponent")
                if a > order:
                    continue
                c = _coerce(c)
                if c != 0:
                    clean[a] = c
        self._terms = clean

    @classmethod
    def zero(cls, order: int, var: str = "x") -> "TruncatedSeries1":
        return cls(order, var)

    @classmethod
    def constant(cls, value, order: int, var: str = "x") -> "TruncatedSeries1":
        return cls(order, var, {0: _coerce(value)})

    @classmethod
    def variable(cls, order: int, var: str = "x") -> "TruncatedSeries1":
        return cls(order, var, {1: Fraction(1)})

    def coeff(self, a: int) -> Fraction:
        return self._terms.get(a, Fraction(0))

    def coeffs(self) -> list[Fraction]:
        return [self.coeff(a) for a in range(self.order + 1)]

    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries1):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return f"TruncatedSeries1(order={self.order}, var={self.var!r}, terms={len(self._terms)})"

    def _order_with(self, other) -> int:
        if self.var != other.var:
            raise LabelMismatchError(f"variables differ: {self.var} vs {other.var}")
        return min(self.order, other.order)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries1.constant(other, self.order, self.var)
        order = self._order_with(other)
        out = dict(self._terms)
        for a, c in other._terms.items():
            out[a] = out.get(a, Fraction(0)) + c
        return TruncatedSeries1(order, self.var, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries1(self.order, self.var,
                                {a: -c for a, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries1.constant(other, self.order, self.var)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        order = self._order_with(other)
        out: dict[int, Fraction] = {}
        for a1, c1 in self._terms.items():
            for a2, c2 in other._terms.items():
                a = a1 + a2
                if a > order:
                    continue
                out[a] = out.get(a, Fraction(0)) + c1 * c2
        return TruncatedSeries1(order, self.var, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor) -> "TruncatedSeries1":
        factor = _coerce(factor)
        return TruncatedSeries1(self.order, self.var,
                                {a: factor * c for a, c in self._terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = TruncatedSeries1.constant(1, self.order, self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def truncate(self, order: int) -> "TruncatedSeries1":
        return TruncatedSeries1(order, self.var, self._terms)

    def relabel(self, var: str) -> "TruncatedSeries1":
        return TruncatedSeries1(self.order, var, self._terms)

    def derivative(self) -> "TruncatedSeries1":
        return TruncatedSeries1(max(self.order - 1, 0), self.var,
                                {a - 1: c * a for a, c in self._terms.items() if a > 0})

    def integrate(self, const=0) -> "TruncatedSeries1":
        out = {a + 1: c / (a + 1) for a, c in self._terms.items()}
        out[0] = _coerce(const)
        return TruncatedSeries1(self.order + 1, self.var, out)

    def reciprocal(self) -> "TruncatedSeries1":
        c0 = self.coeff(0)
        if c0 == 0:
            raise ZeroDivisionError("series has zero constant term")
        r = TruncatedSeries1.constant(Fraction(1) / c0, self.order, self.var)
        for _ in range(max(1, self.order.bit_length() + 1)):
            r = r * (2 - self * r)
        return r

    def compose(self, g: "TruncatedSeries1") -> "TruncatedSeries1":
        """f(g(x)); g must have zero constant term."""
        if g.coeff(0) != 0:
            raise SubstitutionError("substituted series has a constant term")
        order = min(self.order, g.order)
        result = TruncatedSeries1.constant(self.coeff(0), order, g.var)
        g_pow = TruncatedSeries1.constant(1, order, g.var)
        for a in range(1, self.order + 1):
            g_pow = g_pow * g.truncate(order)
            if g_pow.is_zero():
                break
            c = self.coeff(a)
            if c != 0:
                result = result + g_pow.scale(c)
        return result

    def invert(self) -> "TruncatedSeries1":
        """Compositional inverse of f = x + (higher order)."""
        if self.coeff(0) != 0:
            raise InversionError("constant term must vanish")
        if self.coeff(1) != 1:
            raise InversionError("linear coefficient must be 1")
        order = self.order
        x = TruncatedSeries1.variable(order, self.var)
        fprime = self.derivative().truncate(order)
        g = x
        for _ in range(max(1, order.bit_length()) + 2):
            err = self.compose(g) - x
            if err.is_zero():
                break
            g = g - err * fprime.compose(g).reciprocal()
        if not (self.compose(g) - x).is_zero():
            raise InversionError("Newton iteration did not close the round-trip")
        return g

    def rescale_var(self, factor, var: str | None = None) -> "TruncatedSeries1":
        """Substitute x -> factor * x (used for passing from j to l = j/32)."""
        factor = _coerce(factor)
        return TruncatedSeries1(self.order, var or self.var,
                                {a: c * factor ** a for a, c in self._terms.items()})

    def evaluate(self, x, prec: int | None = None):
        if prec is not None:
            with mp.workprec(prec):
                xv = _to_mpf(x)
                total = mp.mpf(0)
                for a in range(self.order, -1, -1):
                    total = total * xv
                    c = self._terms.get(a)
                    if c is not None:
                        total += mp.mpf(c.numerator) / c.denominator
                return total
        xv = float(x)
        total = 0.0
        for a in range(self.order, -1, -1):
            total = total * xv
            c = self._terms.get(a)
            if c is not None:
                total += c.numerator / c.denominator
        return total

    def to_json(self) -> str:
        terms = [{"a": a, "num": str(c.numerator), "den": str(c.denominator)}
                 for a, c in sorted(self._terms.items())]
        return json.dumps({"order": self.order, "vars": [self.var], "terms": terms})

    @classmethod
    def from_json(cls, text: str) -> "TruncatedSeries1":
        data = json.loads(text)
        terms = {t["a"]: Fraction(int(t["num"]), int(t["den"])) for t in data["terms"]}
        return cls(data["order"], data["vars"][0], terms)


def exp_series(f: TruncatedSeries1) -> TruncatedSeries1:
    """Exact exp of a series with zero constant term."""
    if f.coeff(0) != 0:
        raise ValueError("exp requires zero constant term")
    out = TruncatedSeries1.constant(1, f.order, f.var)
    term = TruncatedSeries1.constant(1, f.order, f.var)
    for k in range(1, f.order + 1):
        term = term * f
        if term.is_zero():
            break
        out = out + term.scale(Fraction(1, math.factorial(k)))
    return out


def log1p_series(f: TruncatedSeries1) -> TruncatedSeries1:
    """log(1 + f) for a series f with zero constant term."""
    if f.coeff(0) != 0:
        raise ValueError("log1p requires zero constant term")
    out = TruncatedSeries1.zero(f.order, f.var)
    term = TruncatedSeries1.constant(1, f.order, f.var)
    for k in range(1, f.order + 1):
        term = term * f
        if term.is_zero():
            break
        out = out + term.scale(Fraction((-1) ** (k + 1), k))
    return out
